//! Mixed ∧/∨ Boolean kNN queries.
//!
//! §2 remarks that the framework handles combinations of conjunctions and
//! disjunctions, e.g. *k closest POIs containing "Thai" and ("takeaway" or
//! "restaurant")*. The processor generates candidates from a *driving set*
//! of keywords — a set such that every matching object contains at least
//! one of them — and filters each candidate against the full expression
//! before computing its network distance: Algorithm 1's loop
//! ([`crate::query::bknn`]) with a different plan.
//!
//! Driving-set choice mirrors §4.1.2's least-frequent-keyword idea:
//! a conjunction may be driven by any single operand (every match contains
//! it), so we pick the operand with the cheapest driving set; a disjunction
//! must be driven by the union of its operands' driving sets.

use kspin_graph::{VertexId, Weight};
use kspin_text::{Corpus, ObjectId, TermId};

use crate::engine::QueryEngine;
use crate::modules::NetworkDistance;
use crate::query::bknn::carries;

/// A boolean keyword criterion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoolExpr {
    /// The object must contain this keyword.
    Term(TermId),
    /// All sub-expressions must hold.
    And(Vec<BoolExpr>),
    /// At least one sub-expression must hold.
    Or(Vec<BoolExpr>),
}

impl BoolExpr {
    /// Convenience: conjunction of plain keywords (§2's conjunctive BkNN
    /// criterion as an expression tree).
    pub fn all(terms: &[TermId]) -> Self {
        // ALLOC-OK: |ψ|-bounded expression-tree construction, once per query.
        BoolExpr::And(terms.iter().map(|&t| BoolExpr::Term(t)).collect())
    }

    /// Convenience: disjunction of plain keywords (§2's disjunctive BkNN
    /// criterion as an expression tree).
    pub fn any(terms: &[TermId]) -> Self {
        // ALLOC-OK: |ψ|-bounded expression-tree construction, once per query.
        BoolExpr::Or(terms.iter().map(|&t| BoolExpr::Term(t)).collect())
    }

    /// The §2 Boolean filter with keyword membership decided by `has`.
    ///
    /// Empty `And` is vacuously true; empty `Or` is unsatisfiable.
    pub fn eval(&self, has: impl Fn(TermId) -> bool + Copy) -> bool {
        match self {
            BoolExpr::Term(t) => has(*t),
            BoolExpr::And(children) => children.iter().all(|c| c.eval(has)),
            BoolExpr::Or(children) => children.iter().any(|c| c.eval(has)),
        }
    }

    /// Whether object `o`'s document satisfies the criterion (§2), ignoring
    /// per-keyword index updates — the brute-force oracles' view.
    pub fn matches(&self, corpus: &Corpus, o: ObjectId) -> bool {
        self.eval(|t| corpus.contains(o, t))
    }

    /// All keywords mentioned anywhere in the expression — the query's
    /// keyword set ψ in §2's notation.
    pub fn terms(&self) -> Vec<TermId> {
        // ALLOC-OK: grows to the expression's keyword count |ψ|, once per
        // query — expression trees are a handful of terms by construction.
        let mut out = Vec::new();
        self.collect_terms(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_terms(&self, out: &mut Vec<TermId>) {
        match self {
            // ALLOC-OK: appends into the |ψ|-bounded buffer `terms` owns.
            BoolExpr::Term(t) => out.push(*t),
            BoolExpr::And(children) | BoolExpr::Or(children) => {
                for c in children {
                    c.collect_terms(out);
                }
            }
        }
    }

    /// A driving set (§4.1.2, generalized): sorted keywords such that
    /// every object satisfying `self` contains at least one of them.
    /// `None` when the expression is unsatisfiable (an `Or` whose
    /// operands all are); empty when it is keyword-free (an empty `And`),
    /// which no keyword can drive. A conjunction picks its operand set of
    /// least total `cost` (ties: smallest first keyword).
    pub fn driving_set(&self, cost: impl Fn(TermId) -> usize + Copy) -> Option<Vec<TermId>> {
        match self {
            // ALLOC-OK: one-element driving set, once per query planning.
            BoolExpr::Term(t) => Some(vec![*t]),
            BoolExpr::Or(children) => {
                // Unsatisfiable operands contribute no match to cover.
                let mut union: Option<Vec<TermId>> = None;
                for set in children.iter().filter_map(|c| c.driving_set(cost)) {
                    if set.is_empty() {
                        return Some(set); // a keyword-free operand
                    }
                    // ALLOC-OK: |ψ|-bounded union built once per query planning.
                    union.get_or_insert_default().extend(set);
                }
                union.map(|mut u| {
                    u.sort_unstable();
                    u.dedup();
                    u
                })
            }
            // ALLOC-OK: an empty Vec::new never touches the allocator.
            BoolExpr::And(children) if children.is_empty() => Some(Vec::new()),
            BoolExpr::And(children) => children
                .iter()
                .filter_map(|c| c.driving_set(cost))
                .min_by_key(|set| {
                    let total: usize = set.iter().map(|&t| cost(t)).sum();
                    (set.is_empty(), total, set.first().copied())
                }),
        }
    }
}

impl<D: NetworkDistance> QueryEngine<'_, D> {
    /// Boolean kNN with an arbitrary ∧/∨ criterion (the mixed-operator
    /// queries of §2's remark): Algorithm 1's candidate loop driven by
    /// [`BoolExpr::driving_set`] under live index counts, filtered by
    /// [`BoolExpr::eval`] under the same keyword membership as
    /// [`QueryEngine::bknn`] — an object carries a keyword only while it
    /// is live in that keyword's index, so per-keyword updates (§6.2)
    /// apply. `bknn_expr(q, k, &BoolExpr::all(ts))` answers exactly as
    /// `bknn(q, k, ts, Op::And)`, and likewise `any` as `Op::Or`. Exact;
    /// sorted by ascending distance (ties by object id).
    ///
    /// # Panics
    /// If the expression is keyword-free (it holds an empty `And` that no
    /// keyword can drive).
    pub fn bknn_expr(&mut self, q: VertexId, k: usize, expr: &BoolExpr) -> Vec<(ObjectId, Weight)> {
        let (corpus, index) = (self.corpus, self.index);
        let driving = expr.driving_set(|t| index.live_count(t));
        // PANIC-OK: documented API precondition (see `# Panics`): soundness
        // needs a driving keyword per conjunct, so a keyword-free query must
        // not fail silently in release serving either.
        assert!(
            driving.as_ref().is_none_or(|set| !set.is_empty()),
            "expression has an empty driving set (keyword-free query)"
        );
        // An unsatisfiable expression has no driving set: nothing drives.
        let driving = driving.as_deref().unwrap_or_default();
        self.bknn_loop(q, k, driving, |o| {
            expr.eval(|t| carries(corpus, index, o, t))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kspin_text::CorpusBuilder;

    fn corpus() -> Corpus {
        let mut b = CorpusBuilder::new();
        b.add_object(1, &[(0, 1), (1, 1)]); // thai restaurant
        b.add_object(2, &[(0, 1), (2, 1)]); // thai takeaway
        b.add_object(3, &[(1, 1)]); // restaurant
        b.build()
    }

    #[test]
    fn matches_mixed_expression() {
        let c = corpus();
        // thai AND (takeaway OR restaurant)
        let e = BoolExpr::And(vec![BoolExpr::Term(0), BoolExpr::any(&[2, 1])]);
        assert!(e.matches(&c, 0));
        assert!(e.matches(&c, 1));
        assert!(!e.matches(&c, 2));
    }

    #[test]
    fn empty_and_is_true_empty_or_is_false() {
        let c = corpus();
        assert!(BoolExpr::And(vec![]).matches(&c, 0));
        assert!(!BoolExpr::Or(vec![]).matches(&c, 0));
    }

    #[test]
    fn driving_set_prefers_cheapest_conjunct() {
        let c = corpus();
        // term 0 appears in 2 objects, term 2 in 1 — And picks {2}.
        let e = BoolExpr::all(&[0, 2]);
        assert_eq!(e.driving_set(|t| c.inv_len(t)), Some(vec![2]));
    }

    #[test]
    fn driving_set_unions_disjuncts() {
        let c = corpus();
        let e = BoolExpr::any(&[0, 1]);
        assert_eq!(e.driving_set(|t| c.inv_len(t)), Some(vec![0, 1]));
    }

    #[test]
    fn driving_set_of_nested_expression_is_sound() {
        let c = corpus();
        let e = BoolExpr::And(vec![BoolExpr::Term(0), BoolExpr::any(&[1, 2])]);
        let driving = e.driving_set(|t| c.inv_len(t)).unwrap();
        // Soundness: every matching object contains a driving term.
        for o in 0..c.num_objects() as ObjectId {
            if e.matches(&c, o) {
                assert!(driving.iter().any(|&t| c.contains(o, t)));
            }
        }
    }

    #[test]
    fn unsatisfiable_expression_has_no_driving_set() {
        let c = corpus();
        assert_eq!(BoolExpr::Or(vec![]).driving_set(|t| c.inv_len(t)), None);
        // And containing an unsatisfiable Or: still driven by the other leg.
        let e = BoolExpr::And(vec![BoolExpr::Term(0), BoolExpr::Or(vec![])]);
        assert_eq!(e.driving_set(|t| c.inv_len(t)), Some(vec![0]));
    }

    #[test]
    fn unsatisfiable_disjunct_does_not_sink_the_disjunction() {
        let c = corpus();
        let e = BoolExpr::Or(vec![BoolExpr::Or(vec![]), BoolExpr::Term(1)]);
        assert_eq!(e.driving_set(|t| c.inv_len(t)), Some(vec![1]));
    }

    #[test]
    fn keyword_free_expression_has_an_empty_driving_set() {
        let c = corpus();
        let cost = |t| c.inv_len(t);
        assert_eq!(BoolExpr::And(vec![]).driving_set(cost), Some(vec![]));
        let e = BoolExpr::Or(vec![BoolExpr::Term(0), BoolExpr::And(vec![])]);
        assert_eq!(e.driving_set(cost), Some(vec![]));
        // A conjunction prefers any keyword operand over a keyword-free one.
        let e = BoolExpr::And(vec![BoolExpr::And(vec![]), BoolExpr::Term(2)]);
        assert_eq!(e.driving_set(cost), Some(vec![2]));
    }

    #[test]
    fn equal_cost_conjuncts_tie_break_by_smallest_keyword() {
        let e = BoolExpr::all(&[5, 3, 4]);
        assert_eq!(e.driving_set(|_| 1), Some(vec![3]));
    }

    #[test]
    fn terms_are_collected_and_deduped() {
        let e = BoolExpr::And(vec![BoolExpr::Term(3), BoolExpr::any(&[1, 3])]);
        assert_eq!(e.terms(), vec![1, 3]);
    }
}
