//! Tracing for the per-layer run: decorators around the two module traits
//! the engine calls, `LowerBound` (ALT) and `NetworkDistance` (HL or CH via
//! `kspin::adapters`), and per-query spans around `ServingQuery::run`.
//!
//! Every call into a decorated module is a child span of the current query
//! span. Child spans are folded into their query span as they close (a
//! count and a summed duration per module), so a query span is one
//! fixed-size record; the records live in a buffer sized before timing
//! starts and are read out when the traced pass ends. A query's `engine`
//! self time is its span minus its child spans: the query processor and
//! Heap Generator of kspin-core.

use std::cell::Cell;
use std::time::Instant;

use kspin::core::{LowerBound, NetworkDistance};
use kspin::graph::{HeapCounters, VertexId, Weight};

/// Child-span totals of the query span in progress.
#[derive(Debug, Default)]
pub struct Children {
    pub lb_calls: Cell<u64>,
    pub lb_ns: Cell<u64>,
    pub dist_calls: Cell<u64>,
    pub dist_ns: Cell<u64>,
}

impl Children {
    fn add(calls: &Cell<u64>, ns: &Cell<u64>, t0: Instant) {
        ns.set(ns.get() + t0.elapsed().as_nanos() as u64);
        calls.set(calls.get() + 1);
    }

    /// Closes the current query's children, returning
    /// `(lb_calls, lb_ns, dist_calls, dist_ns)`.
    pub fn take(&self) -> (u64, u64, u64, u64) {
        (
            self.lb_calls.take(),
            self.lb_ns.take(),
            self.dist_calls.take(),
            self.dist_ns.take(),
        )
    }
}

/// `LowerBound` decorator: times every call into the wrapped module.
pub struct TracedLowerBound<'a, L: ?Sized> {
    pub inner: &'a L,
    pub children: &'a Children,
}

impl<L: LowerBound + ?Sized> LowerBound for TracedLowerBound<'_, L> {
    fn lower_bound(&self, s: VertexId, t: VertexId) -> Weight {
        let t0 = Instant::now();
        let d = self.inner.lower_bound(s, t);
        Children::add(&self.children.lb_calls, &self.children.lb_ns, t0);
        d
    }

    fn is_exact(&self) -> bool {
        self.inner.is_exact()
    }
}

/// `NetworkDistance` decorator: times every call into the wrapped module
/// and forwards `heap_counters`, so the engine's `QueryStats` are the
/// same as without the decorator.
pub struct TracedDistance<'a, D> {
    pub inner: D,
    pub children: &'a Children,
}

impl<D: NetworkDistance> NetworkDistance for TracedDistance<'_, D> {
    fn distance(&mut self, s: VertexId, t: VertexId) -> Weight {
        let t0 = Instant::now();
        let d = self.inner.distance(s, t);
        Children::add(&self.children.dist_calls, &self.children.dist_ns, t0);
        d
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn heap_counters(&self) -> HeapCounters {
        self.inner.heap_counters()
    }
}

/// One closed query span with its folded children.
#[derive(Debug, Clone, Copy, Default)]
pub struct QuerySpan {
    pub ns: u64,
    pub lb_calls: u64,
    pub lb_ns: u64,
    pub dist_calls: u64,
    pub dist_ns: u64,
    pub results: u64,
}

/// Per-layer totals over a traced pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    pub queries: u64,
    pub query_ns: u64,
    pub lb_calls: u64,
    pub lb_ns: u64,
    pub dist_calls: u64,
    pub dist_ns: u64,
    pub results: u64,
}

impl LayerTotals {
    pub fn of(spans: &[QuerySpan]) -> Self {
        spans.iter().fold(LayerTotals::default(), |mut t, s| {
            t.queries += 1;
            t.query_ns += s.ns;
            t.lb_calls += s.lb_calls;
            t.lb_ns += s.lb_ns;
            t.dist_calls += s.dist_calls;
            t.dist_ns += s.dist_ns;
            t.results += s.results;
            t
        })
    }

    /// Query time not covered by child spans.
    pub fn engine_ns(&self) -> u64 {
        self.query_ns.saturating_sub(self.lb_ns + self.dist_ns)
    }
}
