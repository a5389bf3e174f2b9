//! Property-based invariants over randomly generated graphs and corpora.
//!
//! These go beyond the seeded fixtures: proptest drives graph topology,
//! weights, object placement and query parameters, shrinking any failure
//! to a minimal counterexample.

use proptest::prelude::*;

use kspin::prelude::*;
use kspin_alt::{AltIndex, LandmarkStrategy};
use kspin_ch::{ChConfig, ContractionHierarchy};
use kspin_core::heap::{HeapContext, InvertedHeap};
use kspin_core::query::baseline::brute_bknn;
use kspin_core::{ExactLowerBound, LowerBound};
use kspin_graph::generate::{road_network, RoadNetworkConfig};
use kspin_graph::{Dijkstra, GraphBuilder};
use kspin_hl::HubLabels;
use kspin_nvd::ApproxNvd;
use kspin_text::generate::{corpus as gen_corpus, CorpusConfig};
use kspin_text::CorpusBuilder;

/// A connected random graph: a spanning path plus random extra edges.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (
        5usize..40,
        proptest::collection::vec((0u32..40, 0u32..40, 1u32..100), 0..60),
    )
        .prop_map(|(n, extras)| {
            let mut b = GraphBuilder::new(n);
            for v in 0..n as u32 {
                b.set_coord(
                    v,
                    kspin_graph::Point::new((v as i32 * 37) % 100, (v as i32 * 61) % 100),
                );
            }
            // Spanning path guarantees connectivity.
            for v in 0..n as u32 - 1 {
                b.add_edge(v, v + 1, 1 + (v % 7));
            }
            for (u, v, w) in extras {
                let (u, v) = (u % n as u32, v % n as u32);
                if u != v {
                    b.add_edge(u, v, w);
                }
            }
            b.build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn ch_and_hl_agree_with_dijkstra(g in arb_graph(), s in 0u32..40, t in 0u32..40) {
        let n = g.num_vertices() as u32;
        let (s, t) = (s % n, t % n);
        let ch = ContractionHierarchy::build(&g, &ChConfig::default());
        let hl = HubLabels::build(&ch);
        let mut chq = kspin_ch::ChQuery::new(&ch);
        let mut dij = Dijkstra::new(g.num_vertices());
        let want = dij.one_to_one(&g, s, t);
        prop_assert_eq!(chq.distance(s, t), want);
        prop_assert_eq!(hl.distance(s, t), want);
    }

    #[test]
    fn alt_bounds_are_admissible(g in arb_graph(), s in 0u32..40, t in 0u32..40) {
        let n = g.num_vertices() as u32;
        let (s, t) = (s % n, t % n);
        let alt = AltIndex::build(&g, 4, LandmarkStrategy::Farthest, 1);
        let mut dij = Dijkstra::new(g.num_vertices());
        let want = dij.one_to_one(&g, s, t);
        prop_assert!(alt.lower_bound(s, t) <= want);
    }

    #[test]
    fn approx_nvd_keeps_the_one_nn(
        g in arb_graph(),
        gens_raw in proptest::collection::btree_set(0u32..40, 1..8),
        rho in 1usize..5,
        q in 0u32..40,
    ) {
        let n = g.num_vertices() as u32;
        let q = q % n;
        let gens: Vec<VertexId> = gens_raw.into_iter().map(|v| v % n)
            .collect::<std::collections::BTreeSet<_>>().into_iter().collect();
        let apx = ApproxNvd::build(&g, &gens, rho);
        let mut dij = Dijkstra::new(g.num_vertices());
        let dists = dij.one_to_many(&g, q, &gens);
        let best = *dists.iter().min().unwrap();
        let cands = apx.leaf_candidates(g.coord(q));
        prop_assert!(
            cands.iter().any(|&c| dists[c as usize] == best),
            "1NN missing: dists {:?}, candidates {:?}", dists, cands
        );
    }

    #[test]
    fn kspin_bknn_is_exact_on_random_corpora(
        g in arb_graph(),
        placements in proptest::collection::btree_map(0u32..40, proptest::collection::vec(0u32..6, 1..4), 1..12),
        q in 0u32..40,
        k in 1usize..6,
        conjunctive in any::<bool>(),
    ) {
        let n = g.num_vertices() as u32;
        let q = q % n;
        let mut cb = CorpusBuilder::new();
        let mut used = std::collections::HashSet::new();
        for (v, terms) in placements {
            let v = v % n;
            if !used.insert(v) {
                continue;
            }
            let doc: Vec<(TermId, u32)> = terms.iter().map(|&t| (t, 1)).collect();
            cb.add_object(v, &doc);
        }
        let corpus = cb.build();
        let alt = AltIndex::build(&g, 4, LandmarkStrategy::Farthest, 2);
        let index = KspinIndex::build(&g, &corpus, &KspinConfig { rho: 2, num_threads: 1 });
        let mut engine = QueryEngine::new(&g, &corpus, &index, &alt, DijkstraDistance::new(&g));
        let op = if conjunctive { Op::And } else { Op::Or };
        let got = engine.bknn(q, k, &[0, 1], op);
        let want = brute_bknn(&g, &corpus, q, k, &[0, 1], op);
        let gd: Vec<Weight> = got.iter().map(|&(_, d)| d).collect();
        let wd: Vec<Weight> = want.iter().map(|&(_, d)| d).collect();
        prop_assert_eq!(gd, wd);
    }

    #[test]
    fn kspin_topk_is_exact_on_random_corpora(
        g in arb_graph(),
        placements in proptest::collection::btree_map(0u32..40, proptest::collection::vec(0u32..6, 1..4), 1..12),
        q in 0u32..40,
        k in 1usize..6,
    ) {
        let n = g.num_vertices() as u32;
        let q = q % n;
        let mut cb = CorpusBuilder::new();
        let mut used = std::collections::HashSet::new();
        for (v, terms) in placements {
            let v = v % n;
            if !used.insert(v) {
                continue;
            }
            let doc: Vec<(TermId, u32)> = terms.iter().map(|&t| (t, 1)).collect();
            cb.add_object(v, &doc);
        }
        let corpus = cb.build();
        let alt = AltIndex::build(&g, 4, LandmarkStrategy::Farthest, 3);
        let index = KspinIndex::build(&g, &corpus, &KspinConfig { rho: 2, num_threads: 1 });
        let mut engine = QueryEngine::new(&g, &corpus, &index, &alt, DijkstraDistance::new(&g));
        let got = engine.top_k(q, k, &[0, 1]);
        let want = kspin_core::query::baseline::brute_topk(&g, &corpus, q, k, &[0, 1]);
        prop_assert_eq!(got.len(), want.len());
        for ((_, gs), (_, ws)) in got.iter().zip(&want) {
            prop_assert!((gs - ws).abs() < 1e-9);
        }
    }

    #[test]
    fn index_auditor_accepts_fresh_and_rebuilt_indexes(
        g in arb_graph(),
        placements in proptest::collection::btree_map(0u32..40, proptest::collection::vec(0u32..6, 1..4), 1..12),
        rho in 1usize..4,
    ) {
        let n = g.num_vertices() as u32;
        let mut cb = CorpusBuilder::new();
        let mut used = std::collections::HashSet::new();
        for (v, terms) in placements {
            let v = v % n;
            if !used.insert(v) {
                continue;
            }
            let doc: Vec<(TermId, u32)> = terms.iter().map(|&t| (t, 1)).collect();
            cb.add_object(v, &doc);
        }
        let corpus = cb.build();
        let mut index = KspinIndex::build(&g, &corpus, &KspinConfig { rho, num_threads: 1 });
        prop_assert!(
            index.validate(&corpus).is_ok(),
            "fresh index failed audit: {:?}", index.validate(&corpus).err()
        );
        // Delete an object, fold the lazy updates in, and re-audit: the
        // rebuilt index must re-satisfy the ρ-split and all NVD invariants.
        index.delete_object(&corpus, 0);
        for t in 0..corpus.num_terms() as TermId {
            index.rebuild_term(&g, &corpus, t);
        }
        prop_assert!(
            index.validate(&corpus).is_ok(),
            "rebuilt index failed audit: {:?}", index.validate(&corpus).err()
        );
    }

    #[test]
    fn property1_extraction_order_is_nondecreasing_under_exact_bounds(
        g in arb_graph(),
        placements in proptest::collection::btree_map(0u32..40, proptest::collection::vec(0u32..6, 1..4), 1..12),
        q in 0u32..40,
        rho in 1usize..4,
    ) {
        let n = g.num_vertices() as u32;
        let q = q % n;
        let mut cb = CorpusBuilder::new();
        let mut used = std::collections::HashSet::new();
        for (v, terms) in placements {
            let v = v % n;
            if !used.insert(v) {
                continue;
            }
            let doc: Vec<(TermId, u32)> = terms.iter().map(|&t| (t, 1)).collect();
            cb.add_object(v, &doc);
        }
        let corpus = cb.build();
        let index = KspinIndex::build(&g, &corpus, &KspinConfig { rho, num_threads: 1 });
        // An exact lower bound arms the heap's internal Property-1 audit;
        // the loop below re-checks the same monotonicity externally and
        // drains each heap to prove LazyReheap reaches every object.
        let exact = ExactLowerBound::new(&g);
        let ctx = HeapContext::new(&g, &corpus, &exact, q);
        for t in 0..corpus.num_terms() as TermId {
            let Some(mut heap) = InvertedHeap::create(&index, t, &ctx) else {
                continue;
            };
            let mut extracted = Vec::new();
            let mut prev = 0;
            while let Some(c) = heap.extract(&ctx) {
                prop_assert!(
                    c.lower_bound >= prev,
                    "term {}: extracted key {} after {}", t, c.lower_bound, prev
                );
                prev = c.lower_bound;
                extracted.push(c.object);
            }
            extracted.sort_unstable();
            let mut expect: Vec<ObjectId> =
                corpus.inverted(t).iter().map(|p| p.object).collect();
            expect.sort_unstable();
            prop_assert_eq!(
                extracted, expect,
                "term {}: lazy reheap must eventually surface every object exactly once", t
            );
        }
    }

    #[test]
    fn queries_stay_exact_under_the_armed_audit(
        g in arb_graph(),
        placements in proptest::collection::btree_map(0u32..40, proptest::collection::vec(0u32..6, 1..4), 1..12),
        q in 0u32..40,
        k in 1usize..6,
    ) {
        let n = g.num_vertices() as u32;
        let q = q % n;
        let mut cb = CorpusBuilder::new();
        let mut used = std::collections::HashSet::new();
        for (v, terms) in placements {
            let v = v % n;
            if !used.insert(v) {
                continue;
            }
            let doc: Vec<(TermId, u32)> = terms.iter().map(|&t| (t, 1)).collect();
            cb.add_object(v, &doc);
        }
        let corpus = cb.build();
        let index = KspinIndex::build(&g, &corpus, &KspinConfig { rho: 2, num_threads: 1 });
        // Exact bounds keep the Property-1 extraction-order audit armed
        // through the full BkNN and top-k paths.
        let exact = ExactLowerBound::new(&g);
        let mut engine = QueryEngine::new(&g, &corpus, &index, &exact, DijkstraDistance::new(&g));
        let got = engine.bknn(q, k, &[0, 1], Op::Or);
        let want = brute_bknn(&g, &corpus, q, k, &[0, 1], Op::Or);
        let gd: Vec<Weight> = got.iter().map(|&(_, d)| d).collect();
        let wd: Vec<Weight> = want.iter().map(|&(_, d)| d).collect();
        prop_assert_eq!(gd, wd);
        let got = engine.top_k(q, k, &[0, 1]);
        let want = kspin_core::query::baseline::brute_topk(&g, &corpus, q, k, &[0, 1]);
        prop_assert_eq!(got.len(), want.len());
        for ((_, gs), (_, ws)) in got.iter().zip(&want) {
            prop_assert!((gs - ws).abs() < 1e-9);
        }
    }

    #[test]
    fn updates_stay_exact_under_the_armed_audit(
        g in arb_graph(),
        placements in proptest::collection::btree_map(0u32..40, proptest::collection::vec(0u32..6, 1..4), 2..12),
        q in 0u32..40,
        k in 1usize..6,
    ) {
        let n = g.num_vertices() as u32;
        let q = q % n;
        let mut cb = CorpusBuilder::new();
        let mut used = std::collections::HashSet::new();
        for (v, terms) in placements {
            let v = v % n;
            if !used.insert(v) {
                continue;
            }
            let doc: Vec<(TermId, u32)> = terms.iter().map(|&t| (t, 1)).collect();
            cb.add_object(v, &doc);
        }
        let corpus = cb.build();
        let mut index = KspinIndex::build(&g, &corpus, &KspinConfig { rho: 2, num_threads: 1 });
        // Exact bounds keep the Property-1 extraction-order audit armed
        // through the §6.2 lazy-update path: a deleted object is skipped
        // but still expanded, a re-inserted one is undeleted in place.
        let exact = ExactLowerBound::new(&g);
        // The brute-force answer over the live object set: one extra
        // candidate, then the deleted object (if any) filtered out here.
        let live_baseline = |op: Op, deleted: Option<ObjectId>| -> Vec<Weight> {
            brute_bknn(&g, &corpus, q, k + 1, &[0, 1], op)
                .into_iter()
                .filter(|&(o, _)| Some(o) != deleted)
                .take(k)
                .map(|(_, d)| d)
                .collect()
        };
        index.delete_object(&corpus, 0);
        {
            let mut engine = QueryEngine::new(&g, &corpus, &index, &exact, DijkstraDistance::new(&g));
            for op in [Op::Or, Op::And] {
                let got = engine.bknn(q, k, &[0, 1], op);
                prop_assert!(got.iter().all(|&(o, _)| o != 0), "deleted object 0 returned");
                let gd: Vec<Weight> = got.iter().map(|&(_, d)| d).collect();
                prop_assert_eq!(gd, live_baseline(op, Some(0)));
            }
        }
        let mut dist = DijkstraDistance::new(&g);
        index.insert_object(&g, &corpus, 0, &mut dist);
        let mut engine = QueryEngine::new(&g, &corpus, &index, &exact, DijkstraDistance::new(&g));
        for op in [Op::Or, Op::And] {
            let gd: Vec<Weight> = engine.bknn(q, k, &[0, 1], op).iter().map(|&(_, d)| d).collect();
            prop_assert_eq!(gd, live_baseline(op, None));
        }
    }

    #[test]
    fn lower_bound_trait_object_is_consistent(g in arb_graph()) {
        let alt = AltIndex::build(&g, 4, LandmarkStrategy::Farthest, 4);
        let dynamic: &dyn LowerBound = &alt;
        for s in 0..g.num_vertices() as u32 {
            prop_assert_eq!(dynamic.lower_bound(s, s), 0);
        }
    }
}

/// The seeded world of the per-keyword update regressions: a 700-vertex
/// road network and its corpus.
fn update_world() -> (Graph, Corpus) {
    let graph = road_network(&RoadNetworkConfig::new(700, 23));
    let mut cc = CorpusConfig::new(graph.num_vertices(), 23 ^ 0xabc);
    cc.object_fraction = 0.08;
    (graph, gen_corpus(&cc).0)
}

/// Object 0's rarest and most frequent keywords.
fn rare_and_frequent(corpus: &Corpus) -> (TermId, TermId) {
    let mut doc: Vec<TermId> = corpus.doc(0).iter().map(|p| p.term).collect();
    doc.sort_by_key(|&t| (corpus.inv_len(t), t));
    (doc[0], doc[doc.len() - 1])
}

/// `bknn(.., op)` and `bknn_expr(.., all/any)` must answer identically with
/// identical counters, and both must equal brute force over the live
/// (object, keyword) pairs: the document minus the `removed` pairs.
fn assert_bknn_forms_agree(
    g: &Graph,
    corpus: &Corpus,
    index: &KspinIndex,
    removed: &[(ObjectId, TermId)],
    step: &str,
) {
    let (rare, frequent) = rare_and_frequent(corpus);
    let exact = ExactLowerBound::new(g);
    let mut engine = QueryEngine::new(g, corpus, index, &exact, DijkstraDistance::new(g));
    for q in [corpus.vertex_of(0), 5, 340] {
        for k in [1, 3, 10] {
            for terms in [vec![rare, frequent], vec![frequent, 1, 2]] {
                for op in [Op::And, Op::Or] {
                    let expr = match op {
                        Op::And => BoolExpr::all(&terms),
                        Op::Or => BoolExpr::any(&terms),
                    };
                    engine.reset_stats();
                    let got = engine.bknn(q, k, &terms, op);
                    let stats = engine.stats();
                    engine.reset_stats();
                    let got_expr = engine.bknn_expr(q, k, &expr);
                    let ctx = format!("{step}: q={q} k={k} {terms:?} {op:?}");
                    assert_eq!(got, got_expr, "{ctx}: bknn vs bknn_expr");
                    assert_eq!(stats, engine.stats(), "{ctx}: counters differ");
                    let live = |o: ObjectId| {
                        expr.eval(|t| corpus.contains(o, t) && !removed.contains(&(o, t)))
                    };
                    let want: Vec<Weight> =
                        brute_bknn(g, corpus, q, corpus.num_objects(), &terms, op)
                            .into_iter()
                            .filter(|&(o, _)| live(o))
                            .take(k)
                            .map(|(_, d)| d)
                            .collect();
                    let gd: Vec<Weight> = got.iter().map(|&(_, d)| d).collect();
                    assert_eq!(gd, want, "{ctx}: vs brute force");
                }
            }
        }
    }
}

/// A per-keyword removal (§6.2) must reach every Boolean form alike.
#[test]
fn keyword_updates_reach_bknn_and_bknn_expr_alike() {
    let (g, corpus) = update_world();
    let (rare, frequent) = rare_and_frequent(&corpus);
    assert!(
        corpus.inv_len(frequent) > 5,
        "the frequent keyword gets an NVD at ρ = 5"
    );
    let largest = (0..corpus.num_terms() as TermId)
        .map(|t| corpus.inv_len(t))
        .max()
        .unwrap_or(0);
    // ρ = 5 keeps NVD keywords; ρ above the largest list makes all Small.
    for rho in [5, largest + 1] {
        let config = KspinConfig {
            rho,
            num_threads: 1,
        };
        let mut index = KspinIndex::build(&g, &corpus, &config);
        let step = |s: &str| format!("rho={rho} {s}");
        assert_bknn_forms_agree(&g, &corpus, &index, &[], &step("fresh"));

        index.delete_from_term(0, frequent);
        assert_bknn_forms_agree(&g, &corpus, &index, &[(0, frequent)], &step("delete"));

        let mut dist = DijkstraDistance::new(&g);
        index.insert_into_term(&g, &corpus, 0, frequent, &mut dist);
        assert_bknn_forms_agree(&g, &corpus, &index, &[], &step("re-insert"));

        index.delete_from_term(0, frequent);
        index.delete_from_term(0, rare);
        index.rebuild_term(&g, &corpus, frequent);
        index.rebuild_term(&g, &corpus, rare);
        let removed = [(0, frequent), (0, rare)];
        assert_bknn_forms_agree(&g, &corpus, &index, &removed, &step("rebuild"));
    }
}

/// The corpus is immutable, so indexing a keyword the document lacks
/// would make ∨ (index) and ∧/top-k (document) disagree on the object.
#[test]
#[should_panic(expected = "lacks keyword")]
fn inserting_a_keyword_the_document_lacks_panics() {
    let (g, corpus) = update_world();
    let t = (0..corpus.num_terms() as TermId)
        .find(|&t| !corpus.contains(0, t) && corpus.inv_len(t) > 10)
        .expect("a frequent keyword object 0 lacks");
    let mut index = KspinIndex::build(
        &g,
        &corpus,
        &KspinConfig {
            rho: 5,
            num_threads: 1,
        },
    );
    let mut dist = DijkstraDistance::new(&g);
    index.insert_into_term(&g, &corpus, 0, t, &mut dist);
}
