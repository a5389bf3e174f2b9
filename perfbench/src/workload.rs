//! The three named workloads: their inputs, generated from the workload
//! seed with the repository's own synthetic generators, and the §6.2 write
//! policy that drives updates.
//!
//! Why each workload exists is documented in README.md next to this file.

use kspin::core::{Op, ServingQuery};
use kspin::graph::generate::{road_network, RoadNetworkConfig};
use kspin::graph::Graph;
use kspin::text::generate::{corpus, CorpusConfig};
use kspin::text::workload::WorkloadConfig;
use kspin::text::workload::{query_vectors, query_vertices, zipf_queries, ZipfWorkloadConfig};
use kspin::text::{Corpus, ObjectId, TermId, Vocabulary};

use crate::util::{sub_seed, Rng};

/// The Network Distance Module a workload plugs in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Oracle {
    /// Hub labels (KS-HL), built from a contraction hierarchy.
    Hl,
    /// Contraction hierarchies (KS-CH).
    Ch,
}

/// How a workload's read stream is drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Zipf-ranked 2-term keyword sets from a hot pool of query vertices;
    /// BkNN-∨, BkNN-∧ and top-k in turn, k = 10.
    Hot,
    /// §7.1 correlated 1–3-term keyword vectors at uniformly sampled
    /// vertices; the three families in turn, k cycling through {1, 10, 50}.
    Spread,
}

/// One named workload.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    /// Target vertex count of the generated road network.
    pub vertices: usize,
    pub oracle: Oracle,
    pub traffic: Traffic,
    /// Distinct reads in the stream; epochs cycle through them. More
    /// distinct reads make a run's latency quantiles depend less on which
    /// queries one seed happened to draw.
    pub list_len: usize,
    /// Reads per epoch (one `BatchExecutor::execute` call).
    pub reads_per_epoch: usize,
    /// §6.2 writes between epochs (0 for read-only workloads).
    pub writes_per_epoch: usize,
    /// Epochs every pass runs at least, whatever the time budget: the
    /// fixed prefix over which counters, 1-vs-n-worker runs and the
    /// brute-force sample are compared.
    pub min_epochs: usize,
    /// Every `check_every`-th read of that prefix is checked against the
    /// brute-force reference. Coprime with 27, the period of the read
    /// stream's family × k × length pattern, so the sample covers every
    /// query shape.
    pub check_every: usize,
    /// Writes of the post-read write probe on read-only workloads, which
    /// supplies their update latencies.
    pub probe_writes: usize,
}

pub const WORKLOADS: [&str; 3] = ["hot-hl", "spread-ch", "live-hl"];

/// The named workload, at the scale the benchmark runs it.
pub fn spec(name: &str) -> Option<Spec> {
    let hot = Spec {
        name: "hot-hl",
        vertices: 30_000,
        oracle: Oracle::Hl,
        traffic: Traffic::Hot,
        list_len: 12_000,
        reads_per_epoch: 1_000,
        writes_per_epoch: 0,
        min_epochs: 12,
        check_every: 119,
        probe_writes: 1_000,
    };
    match name {
        "hot-hl" => Some(hot),
        "spread-ch" => Some(Spec {
            name: "spread-ch",
            vertices: 80_000,
            oracle: Oracle::Ch,
            traffic: Traffic::Spread,
            list_len: 9_000,
            reads_per_epoch: 500,
            min_epochs: 6,
            check_every: 40,
            ..hot
        }),
        "live-hl" => Some(Spec {
            name: "live-hl",
            reads_per_epoch: 200,
            writes_per_epoch: 20,
            min_epochs: 50,
            check_every: 100,
            probe_writes: 0,
            ..hot
        }),
        _ => None,
    }
}

/// Everything the program receives: the generated network, corpus and
/// read stream.
pub struct Inputs {
    pub graph: Graph,
    pub corpus: Corpus,
    pub vocab: Vocabulary,
    pub reads: Vec<ServingQuery>,
}

impl Inputs {
    /// The reads of epoch `e`: the next `spec.reads_per_epoch` queries of
    /// the cyclic read list.
    pub fn epoch_reads(&self, spec: &Spec, e: usize) -> &[ServingQuery] {
        let per = spec.reads_per_epoch;
        let start = (e * per) % self.reads.len();
        &self.reads[start..start + per]
    }
}

/// Seed of the fixed road network of each scale.
const NETWORK_SEED: u64 = 0x5eed;

/// Keywords ranked by inverted-list length, most frequent first.
fn by_frequency(corpus: &Corpus) -> Vec<TermId> {
    let mut terms: Vec<TermId> = (0..corpus.num_terms() as TermId)
        .filter(|&t| corpus.inv_len(t) > 0)
        .collect();
    terms.sort_by_key(|&t| (std::cmp::Reverse(corpus.inv_len(t)), t));
    terms
}

/// Generates a workload's inputs; the same seed gives the same inputs.
///
/// The road network is fixed per scale, as the paper's datasets are; the
/// seed draws the keyword corpus, the reads and the writes on it. A seeded
/// network would make every seed a different road map, and the CH and
/// label costs of those maps differ by more than the changes the benchmark
/// is meant to resolve.
pub fn generate(spec: &Spec, seed: u64) -> Inputs {
    let graph = road_network(&RoadNetworkConfig::new(spec.vertices, NETWORK_SEED));
    let n = graph.num_vertices();
    let (corpus, vocab) = corpus(&CorpusConfig::new(n, sub_seed(seed, 2)));
    let reads = match spec.traffic {
        Traffic::Hot => hot_reads(spec, &corpus, n, sub_seed(seed, 3)),
        Traffic::Spread => spread_reads(spec, &corpus, n, sub_seed(seed, 3)),
    };
    assert_eq!(reads.len(), spec.list_len);
    assert_eq!(spec.list_len % spec.reads_per_epoch, 0);
    Inputs {
        graph,
        corpus,
        vocab,
        reads,
    }
}

fn hot_reads(spec: &Spec, corpus: &Corpus, n: usize, seed: u64) -> Vec<ServingQuery> {
    let zipf = zipf_queries(
        corpus,
        &ZipfWorkloadConfig {
            num_queries: spec.list_len,
            terms_per_query: 2,
            zipf_exponent: 1.2,
            hot_vertex_pool: 256,
            seed,
        },
        n,
    );
    zipf.into_iter()
        .enumerate()
        .map(|(i, q)| family(i, q.vertex, 10, q.terms))
        .collect()
}

fn spread_reads(spec: &Spec, corpus: &Corpus, n: usize, seed: u64) -> Vec<ServingQuery> {
    let per_len = spec.list_len / 3;
    let seed_terms: Vec<TermId> = by_frequency(corpus).into_iter().take(8).collect();
    let config = WorkloadConfig {
        objects_per_term: per_len.div_ceil(seed_terms.len()),
        seed_terms,
        vertices_per_vector: 1,
        seed,
    };
    let vectors: Vec<Vec<Vec<TermId>>> = (1..=3)
        .map(|len| query_vectors(corpus, &config, len))
        .collect();
    assert!(
        vectors.iter().all(|v| !v.is_empty()),
        "corpus yields no keyword vectors"
    );
    let vertices = query_vertices(n, spec.list_len, seed ^ 0xdead_beef);
    let mut rng = Rng::new(seed);
    vertices
        .into_iter()
        .enumerate()
        .map(|(i, v)| {
            let of_len = &vectors[(i / 9) % 3];
            let terms = of_len[rng.below(of_len.len())].clone();
            family(i, v, [1, 10, 50][(i / 3) % 3], terms)
        })
        .collect()
}

/// Query `i` of a stream: BkNN-∨, BkNN-∧ and top-k each take a third.
fn family(i: usize, vertex: u32, k: usize, terms: Vec<TermId>) -> ServingQuery {
    match i % 3 {
        0 => ServingQuery::Bknn {
            vertex,
            k,
            terms,
            op: Op::Or,
        },
        1 => ServingQuery::Bknn {
            vertex,
            k,
            terms,
            op: Op::And,
        },
        _ => ServingQuery::TopK { vertex, k, terms },
    }
}

/// The share (percent) of a keyword's list that pending §6.2 marks may
/// reach before the benchmark rebuilds it. The index has no automatic
/// rebuild, so this is the benchmark's policy, fixed here.
const REBUILD_PERCENT: usize = 10;
/// Rebuilds wait for at least this many pending marks, so the
/// ≤ ρ-object lists of Observation 1 are not rebuilt after every touch.
const MIN_PENDING: usize = 8;
/// Keywords whose objects the policy deletes: the most frequent ones,
/// which the Zipf-ranked reads hit.
const HOT_TERMS: usize = 16;
/// At most this percentage of the candidate objects is deleted at once.
const MAX_DELETED_PERCENT: usize = 10;

/// One §6.2 write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Write {
    /// `KspinIndex::delete_object`: mark an object of a hot keyword.
    Delete(ObjectId),
    /// `KspinIndex::insert_object`: re-insert an object deleted earlier —
    /// an undelete while its mark is pending, a Theorem-2 lazy insert
    /// once a rebuild has dropped it.
    Insert(ObjectId),
    /// `KspinIndex::rebuild_term`: fold a keyword's pending marks.
    Rebuild(TermId),
}

/// The deterministic write stream and the live object set it implies.
///
/// The stream depends only on the seed and on the writes already issued,
/// never on query results, so every pass over a workload sees the same
/// writes, and the brute-force reference can replay the live set without
/// an index.
#[derive(Debug, Clone)]
pub struct WritePolicy {
    rng: Rng,
    live: Vec<bool>,
    candidates: Vec<ObjectId>,
    deleted: Vec<ObjectId>,
    max_deleted: usize,
    pending: Vec<usize>,
    threshold: Vec<usize>,
    rebuilds: Vec<TermId>,
    /// Writes issued so far; stamps deletions and rebuilds.
    clock: usize,
    deleted_at: Vec<usize>,
    rebuilt_at: Vec<usize>,
}

impl WritePolicy {
    pub fn new(corpus: &Corpus, seed: u64) -> Self {
        let mut candidates: Vec<ObjectId> = by_frequency(corpus)
            .into_iter()
            .take(HOT_TERMS)
            .flat_map(|t| corpus.inverted(t).iter().map(|p| p.object))
            .collect();
        candidates.sort_unstable();
        candidates.dedup();
        let threshold = (0..corpus.num_terms() as TermId)
            .map(|t| (corpus.inv_len(t) * REBUILD_PERCENT / 100).max(MIN_PENDING))
            .collect();
        WritePolicy {
            rng: Rng::new(seed),
            live: vec![true; corpus.num_objects()],
            max_deleted: (candidates.len() * MAX_DELETED_PERCENT / 100).max(1),
            candidates,
            deleted: Vec::new(),
            pending: vec![0; corpus.num_terms()],
            threshold,
            rebuilds: Vec::new(),
            clock: 0,
            deleted_at: vec![0; corpus.num_objects()],
            rebuilt_at: vec![0; corpus.num_terms()],
        }
    }

    /// Per object: whether it is live after the writes issued so far.
    pub fn live(&self) -> &[bool] {
        &self.live
    }

    /// Whether the index still carries a deletion mark: some deleted
    /// object has a keyword that was not rebuilt since the deletion.
    pub fn deletions_outstanding(&self, corpus: &Corpus) -> bool {
        self.deleted.iter().any(|&o| {
            corpus
                .doc(o)
                .iter()
                .any(|p| self.rebuilt_at[p.term as usize] < self.deleted_at[o as usize])
        })
    }

    /// The next write; updates the live set as if it were applied.
    pub fn next(&mut self, corpus: &Corpus) -> Write {
        self.clock += 1;
        if let Some(t) = self.rebuilds.pop() {
            self.pending[t as usize] = 0;
            self.rebuilt_at[t as usize] = self.clock;
            return Write::Rebuild(t);
        }
        let insert = !self.deleted.is_empty()
            && (self.deleted.len() >= self.max_deleted || self.rng.below(2) == 0);
        let (w, o) = if insert {
            let o = self.deleted.swap_remove(self.rng.below(self.deleted.len()));
            self.candidates.push(o);
            self.live[o as usize] = true;
            (Write::Insert(o), o)
        } else {
            let o = self
                .candidates
                .swap_remove(self.rng.below(self.candidates.len()));
            self.deleted.push(o);
            self.deleted_at[o as usize] = self.clock;
            self.live[o as usize] = false;
            (Write::Delete(o), o)
        };
        for p in corpus.doc(o) {
            let t = p.term as usize;
            self.pending[t] += 1;
            if self.pending[t] == self.threshold[t] {
                self.rebuilds.push(p.term);
            }
        }
        w
    }
}
