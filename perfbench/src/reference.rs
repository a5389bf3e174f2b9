//! The correctness oracle: a brute-force answer over the live object set,
//! from one full `kspin_graph` SSSP plus corpus filters, with
//! `kspin_text::score` for top-k. It shares no code with the engine's query
//! processors.

use kspin::core::{Op, ServingQuery, ServingResult};
use kspin::graph::{Dijkstra, Graph, Weight};
use kspin::text::{score, Corpus, ObjectId, QueryTerms};

/// Relative tolerance on top-k scores: the engine may sum relevance terms
/// in another order than `QueryTerms::relevance`.
const SCORE_TOLERANCE: f64 = 1e-9;

/// Reusable brute-force checker.
pub struct Reference<'a> {
    graph: &'a Graph,
    corpus: &'a Corpus,
    search: Dijkstra,
    dist: Vec<Option<Weight>>,
}

impl<'a> Reference<'a> {
    pub fn new(graph: &'a Graph, corpus: &'a Corpus) -> Self {
        Reference {
            graph,
            corpus,
            search: Dijkstra::new(graph.num_vertices()),
            dist: Vec::new(),
        }
    }

    /// Checks `got` for `q` against the brute-force answer over the
    /// objects with `live[o]`. Ties at the k-th place may be broken either
    /// way, so the check compares the sorted distance (score) sequence
    /// with the reference and verifies each returned object on its own.
    pub fn check(
        &mut self,
        q: &ServingQuery,
        live: &[bool],
        got: &ServingResult,
    ) -> Result<(), String> {
        let (vertex, k) = match q {
            ServingQuery::Bknn { vertex, k, .. } | ServingQuery::TopK { vertex, k, .. } => {
                (*vertex, *k)
            }
            ServingQuery::Boolean { .. } => return Err("boolean queries are not generated".into()),
        };
        self.search.sssp(self.graph, vertex);
        let space = self.search.space();
        let corpus = self.corpus;
        self.dist.clear();
        self.dist.extend(
            (0..corpus.num_objects() as ObjectId).map(|o| space.distance(corpus.vertex_of(o))),
        );
        let mut seen: Vec<ObjectId> = Vec::new();
        let mut fresh = |o: ObjectId| {
            let new = !seen.contains(&o);
            seen.push(o);
            new
        };
        match (q, got) {
            (ServingQuery::Bknn { terms, op, .. }, ServingResult::Distances(got)) => {
                let matches = |o: ObjectId| {
                    live[o as usize]
                        && match op {
                            Op::And => corpus.contains_all(o, terms),
                            Op::Or => corpus.contains_any(o, terms),
                        }
                };
                let mut want: Vec<Weight> = (0..corpus.num_objects() as ObjectId)
                    .filter(|&o| matches(o))
                    .filter_map(|o| self.dist[o as usize])
                    .collect();
                want.sort_unstable();
                want.truncate(k);
                let got_d: Vec<Weight> = got.iter().map(|&(_, d)| d).collect();
                if got_d != want {
                    return Err(format!("distances {got_d:?}, reference {want:?}"));
                }
                for &(o, d) in got {
                    if !fresh(o) || !matches(o) || self.dist[o as usize] != Some(d) {
                        return Err(format!(
                            "object {o} at {d} is a duplicate, dead, unmatched or misplaced"
                        ));
                    }
                }
            }
            (ServingQuery::TopK { terms, .. }, ServingResult::Scores(got)) => {
                let query = QueryTerms::new(corpus, terms);
                let scored = |o: ObjectId| -> Option<f64> {
                    let tr = query.relevance(corpus, o);
                    (live[o as usize] && tr > 0.0)
                        .then_some(())
                        .and(self.dist[o as usize])
                        .map(|d| score(d, tr))
                };
                let mut want: Vec<f64> = (0..corpus.num_objects() as ObjectId)
                    .filter_map(scored)
                    .collect();
                want.sort_unstable_by(f64::total_cmp);
                want.truncate(k);
                let close = |a: f64, b: f64| {
                    (a - b).abs() <= SCORE_TOLERANCE * a.abs().max(b.abs()).max(1.0)
                };
                if got.len() != want.len()
                    || got.iter().zip(&want).any(|(&(_, s), &w)| !close(s, w))
                {
                    let got_s: Vec<f64> = got.iter().map(|&(_, s)| s).collect();
                    return Err(format!("scores {got_s:?}, reference {want:?}"));
                }
                for &(o, s) in got {
                    if !fresh(o) || !scored(o).is_some_and(|w| close(s, w)) {
                        return Err(format!(
                            "object {o} scored {s} is a duplicate, dead or misscored"
                        ));
                    }
                }
            }
            _ => return Err("result shape does not match the query family".into()),
        }
        Ok(())
    }
}
