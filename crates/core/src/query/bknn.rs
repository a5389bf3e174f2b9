//! Boolean kNN query processing (§4.1): one Algorithm-1 candidate loop
//! shared by every Boolean criterion.
//!
//! The loop consumes the inverted heaps of a *driving set* of keywords in
//! global lower-bound order, skips duplicates and candidates the admission
//! filter rejects *before* paying for a network distance, and terminates
//! when the smallest heap lower bound reaches `D_k`, the distance of the
//! current k-th best. The entry points only plan:
//!
//! * Disjunctive (Algorithm 1): every query keyword drives; no filter,
//!   since each extracted object carries its heap's keyword.
//! * Conjunctive (§4.1.2): the keyword with the fewest live objects
//!   drives alone; the filter requires every keyword.
//! * Mixed ∧/∨ ([`crate::query::boolean`]): the expression's driving set;
//!   the filter evaluates the expression.
//!
//! Both filters use one membership rule, [`carries`].

use kspin_graph::{VertexId, Weight};
use kspin_text::{Corpus, ObjectId, TermId};

use crate::engine::QueryEngine;
use crate::heap::{HeapContext, InvertedHeap};
use crate::index::KspinIndex;
use crate::modules::NetworkDistance;
use crate::query::{KBest, Op};

/// Whether object `o` carries keyword `t`: its document holds `t` and it
/// is live in `t`'s index, so a per-keyword removal (§6.2) takes effect
/// even while the document still lists the keyword.
pub(crate) fn carries(corpus: &Corpus, index: &KspinIndex, o: ObjectId, t: TermId) -> bool {
    corpus.contains(o, t) && index.is_live(o, t)
}

impl<D: NetworkDistance> QueryEngine<'_, D> {
    /// Boolean kNN (§2): the `k` nearest objects to `q` containing all
    /// (`Op::And`) or any (`Op::Or`) of `terms`. Results are sorted by
    /// ascending network distance (ties by object id) and are exact.
    pub fn bknn(
        &mut self,
        q: VertexId,
        k: usize,
        terms: &[TermId],
        op: Op,
    ) -> Vec<(ObjectId, Weight)> {
        // ALLOC-OK: one |ψ|-sized copy per query (|ψ| ≤ a handful of
        // keywords) so sort/dedup never mutates the caller's slice.
        let mut uniq = terms.to_vec();
        uniq.sort_unstable();
        uniq.dedup();
        let (corpus, index) = (self.corpus, self.index);
        match op {
            Op::Or => self.bknn_loop(q, k, &uniq, |_| true),
            Op::And => {
                // The keyword with the fewest live objects drives; a
                // minimum of 0 means some keyword has no live object, so
                // nothing satisfies the conjunction.
                let driver = uniq
                    .iter()
                    .map(|&t| (index.live_count(t), t))
                    .min()
                    .filter(|&(live, _)| live > 0)
                    .map(|(_, t)| t);
                self.bknn_loop(q, k, driver.as_slice(), |o| {
                    uniq.iter().all(|&t| carries(corpus, index, o, t))
                })
            }
        }
    }

    /// Algorithm 1 over the heaps of `driving`, admitting a candidate only
    /// if `admit` holds. Every object satisfying the criterion must carry
    /// a driving keyword. The paper drives heap selection through a
    /// priority queue re-primed after each extraction; with at most a
    /// handful of driving keywords a fresh linear scan over the heaps is
    /// the same selection with none of the staleness bookkeeping.
    pub(crate) fn bknn_loop(
        &mut self,
        q: VertexId,
        k: usize,
        driving: &[TermId],
        admit: impl Fn(ObjectId) -> bool,
    ) -> Vec<(ObjectId, Weight)> {
        let mut best = KBest::new(k, Weight::MAX);
        if k == 0 {
            return best.into_sorted();
        }
        let ctx = HeapContext::new(self.graph, self.corpus, self.lower_bound, q);
        let mut heaps: Vec<InvertedHeap<'_>> = driving
            .iter()
            .filter_map(|&t| InvertedHeap::create(self.index, t, &ctx))
            // ALLOC-OK: heap generation — one |ψ|-bounded Vec per query;
            // the extraction loop below never grows it.
            .collect();
        // Engine-lifetime epoch-stamped dedup set: clear() bumps the
        // epoch in O(1); no hashing, no iteration order.
        self.scratch.evaluated.clear();
        // Heap with the globally smallest lower bound (line 6).
        while let Some((i, min_lb)) = heaps
            .iter()
            .enumerate()
            .filter_map(|(i, h)| h.min_key().map(|m| (i, m)))
            .min_by_key(|&(_, m)| m)
        {
            if min_lb >= best.d_k() {
                break; // line 5: no unseen object can beat the k-th best
            }
            // PANIC-OK: i came from enumerate() over this very vec.
            let Some(c) = heaps[i].extract(&ctx) else {
                // Unreachable: heap `i` just reported a finite MINKEY.
                debug_assert!(false, "heap {i} reported MINKEY but was empty");
                break;
            };
            // Duplicates across heaps (line 10) and filter failures are
            // dropped before any graph operation is paid for.
            // ALLOC-OK: epoch-stamped SeenSet insert — a plain array
            // write into storage sized once at engine construction.
            if !self.scratch.evaluated.insert(c.object) || !admit(c.object) {
                self.stats.pruned_candidates += 1;
                continue;
            }
            let d = self.dist.distance(q, self.corpus.vertex_of(c.object));
            self.stats.dist_computations += 1;
            best.offer(d, c.object);
        }
        // `heap_extractions` (§5.1's κ) is counted inside each heap, once
        // per `extract`, and only merged here.
        for h in &heaps {
            self.stats.absorb_heap(h);
        }
        best.into_sorted()
    }
}
