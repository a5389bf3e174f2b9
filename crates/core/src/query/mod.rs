//! Query algorithms of the Query Processor (§4).

use std::collections::BinaryHeap;

use kspin_text::ObjectId;

pub mod baseline;
pub mod bknn;
pub mod boolean;
pub mod topk;

/// The boolean operator of a BkNN query (§2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Conjunctive: results contain *all* query keywords.
    And,
    /// Disjunctive: results contain *at least one* query keyword.
    Or,
}

/// The `k` best answers so far under a lower-is-better score, and with
/// them `D_k`, the termination threshold of Algorithms 1 and 3. Float
/// scores enter as `kspin_graph::OrderedWeight`, the workspace's single
/// sanctioned float-ordering site (lint L2/total-order-weights).
///
/// Invariant: at most `k` entries are ever held (an offer at capacity
/// evicts the worst before inserting), so the heap grows to `k` at most
/// and never again.
pub(crate) struct KBest<S: Ord + Copy> {
    k: usize,
    /// `D_k` while fewer than `k` answers are held.
    unbounded: S,
    /// Max-heap by (score, object): the top is the current k-th best.
    heap: BinaryHeap<(S, ObjectId)>,
}

impl<S: Ord + Copy> KBest<S> {
    /// An empty k-best set; `unbounded` is `D_k` until `k` answers arrive.
    pub(crate) fn new(k: usize, unbounded: S) -> Self {
        KBest {
            k,
            unbounded,
            // lint:allow(no-binary-heap) — bounded k-best result max-heap:
            // top-k eviction wants a max-heap, not a decrease-key frontier.
            heap: BinaryHeap::new(),
        }
    }

    /// `D_k`: the k-th best score once `k` answers are held.
    pub(crate) fn d_k(&self) -> S {
        match self.heap.peek() {
            Some(&(s, _)) if self.heap.len() == self.k => s,
            _ => self.unbounded,
        }
    }

    /// Keeps `o` if it beats `D_k` (or fewer than `k` answers are held).
    pub(crate) fn offer(&mut self, score: S, o: ObjectId) {
        if self.heap.len() == self.k {
            if score >= self.d_k() {
                return;
            }
            self.heap.pop();
        }
        // ALLOC-OK: len ≤ k (the type invariant), so at most ⌈log₂ k⌉
        // growth doublings per query.
        self.heap.push((score, o));
    }

    /// The answers by ascending (score, object id).
    pub(crate) fn into_sorted<T: From<S>>(self) -> Vec<(ObjectId, T)> {
        let sorted = self.heap.into_sorted_vec().into_iter();
        // ALLOC-OK: the ≤ k-element result Vec the API contract returns.
        sorted.map(|(s, o)| (o, T::from(s))).collect()
    }
}
