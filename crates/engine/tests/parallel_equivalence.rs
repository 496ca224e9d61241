//! Property tests for the determinism guarantee of the execution model:
//! under `Parallelism::Threads(n)` every structure must produce
//! bit-identical results — arrays, answers, argmax indices, partitions,
//! and access statistics — to the `Sequential` path, for any thread count.
//!
//! Without the `parallel` feature these properties hold trivially
//! (`Threads(n)` degrades to sequential execution); the CI feature matrix
//! runs this suite in both configurations so the threaded path is
//! exercised for real.

use olap_array::{DenseArray, Parallelism, Region, Shape};
use olap_engine::{
    AdaptiveRouter, CubeIndex, EngineOp, IndexConfig, NaiveEngine, PrefixChoice, SumTreeEngine,
};
use olap_prefix_sum::batch::{
    apply_batch, apply_batch_blocked, apply_batch_blocked_par, apply_batch_par, CellUpdate,
};
use olap_prefix_sum::{BlockedPrefixCube, BoundaryPolicy, PrefixSumCube};
use olap_query::RangeQuery;
use olap_range_max::NaturalMaxTree;
use olap_sparse::{DenseRegionFinder, RegionFinderParams};
use proptest::prelude::*;

/// An f64 cube: float addition is not associative, so bit-equality of
/// sums is a real determinism check, not a triviality.
fn arb_cube() -> impl Strategy<Value = DenseArray<f64>> {
    prop::collection::vec(2usize..8, 2..=3).prop_flat_map(|dims| {
        let len: usize = dims.iter().product();
        prop::collection::vec(-4000i64..4000, len).prop_map(move |data| {
            let vals: Vec<f64> = data.iter().map(|&v| v as f64 * 0.125).collect();
            DenseArray::from_vec(Shape::new(&dims).unwrap(), vals).unwrap()
        })
    })
}

fn arb_region(shape: &Shape) -> impl Strategy<Value = Region> {
    let dims = shape.dims().to_vec();
    let per_dim: Vec<_> = dims
        .iter()
        .map(|&n| (0..n, 0..n).prop_map(|(a, b)| (a.min(b), a.max(b))))
        .collect();
    per_dim.prop_map(|bounds| Region::from_bounds(&bounds).unwrap())
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn prefix_sum_build_is_bit_identical(a in arb_cube(), threads in 2usize..6) {
        let seq = PrefixSumCube::build(&a);
        let par = PrefixSumCube::build_with(&a, Parallelism::Threads(threads));
        prop_assert_eq!(
            bits(seq.prefix_array().as_slice()),
            bits(par.prefix_array().as_slice())
        );
    }

    #[test]
    fn blocked_build_and_query_are_bit_identical(
        (a, q) in arb_cube().prop_flat_map(|a| {
            let q = arb_region(a.shape());
            (Just(a), q)
        }),
        b in 1usize..5,
        threads in 2usize..6,
    ) {
        let par = Parallelism::Threads(threads);
        let seq_bp = BlockedPrefixCube::build(&a, b).unwrap();
        let par_bp = BlockedPrefixCube::build_with(&a, b, par).unwrap();
        prop_assert_eq!(
            bits(seq_bp.packed_array().as_slice()),
            bits(par_bp.packed_array().as_slice())
        );
        // Query fan-out: same answer bits AND same access statistics.
        for policy in [
            BoundaryPolicy::Auto,
            BoundaryPolicy::AlwaysDirect,
            BoundaryPolicy::AlwaysComplement,
        ] {
            let (sv, ss) = seq_bp.range_sum_with_policy(&a, &q, policy).unwrap();
            let (pv, ps) = par_bp.range_sum_with_policy_par(&a, &q, policy, par).unwrap();
            prop_assert_eq!(sv.to_bits(), pv.to_bits(), "{:?}", policy);
            prop_assert_eq!(ss, ps, "{:?}", policy);
        }
    }

    #[test]
    fn max_tree_build_is_identical(a in arb_cube(), b in 2usize..5, threads in 2usize..6) {
        let seq = NaturalMaxTree::for_values(&a, b).unwrap();
        let par = NaturalMaxTree::for_values_with(&a, b, Parallelism::Threads(threads)).unwrap();
        // Argmax indices decide tie-breaks; they must match exactly.
        prop_assert_eq!(seq.export_levels(), par.export_levels());
    }

    #[test]
    fn batch_updates_are_bit_identical(
        (a, updates) in arb_cube().prop_flat_map(|a| {
            let dims = a.shape().dims().to_vec();
            let upd = prop::collection::vec(
                (dims.iter().map(|&n| 0..n).collect::<Vec<_>>(), -100i64..100),
                0..6,
            );
            (Just(a), upd)
        }),
        b in 1usize..4,
        threads in 2usize..6,
    ) {
        let par = Parallelism::Threads(threads);
        let deltas: Vec<CellUpdate<f64>> = updates
            .iter()
            .map(|(idx, v)| CellUpdate::new(idx, *v as f64 * 0.5))
            .collect();
        let mut seq_ps = PrefixSumCube::build(&a);
        let mut par_ps = seq_ps.clone();
        apply_batch(&mut seq_ps, &deltas).unwrap();
        apply_batch_par(&mut par_ps, &deltas, par).unwrap();
        prop_assert_eq!(
            bits(seq_ps.prefix_array().as_slice()),
            bits(par_ps.prefix_array().as_slice())
        );
        let mut seq_bp = BlockedPrefixCube::build(&a, b).unwrap();
        let mut par_bp = seq_bp.clone();
        apply_batch_blocked(&mut seq_bp, &deltas).unwrap();
        apply_batch_blocked_par(&mut par_bp, &deltas, par).unwrap();
        prop_assert_eq!(
            bits(seq_bp.packed_array().as_slice()),
            bits(par_bp.packed_array().as_slice())
        );
    }

    #[test]
    fn sparse_finder_partition_is_identical(
        points in prop::collection::vec((0usize..40, 0usize..40), 0..120),
        threads in 2usize..6,
    ) {
        let pts: Vec<Vec<usize>> = points.iter().map(|&(x, y)| vec![x, y]).collect();
        let shape = Shape::new(&[40, 40]).unwrap();
        let params = RegionFinderParams::default();
        let (seq_r, seq_o) = DenseRegionFinder::new(params).find(&shape, &pts);
        let finder = DenseRegionFinder::new(params).with_parallelism(Parallelism::Threads(threads));
        let (par_r, par_o) = finder.find(&shape, &pts);
        prop_assert_eq!(seq_r, par_r);
        prop_assert_eq!(seq_o, par_o);
    }

    #[test]
    fn cube_index_is_identical_under_threads(
        (a, q, updates) in arb_cube().prop_flat_map(|a| {
            let q = arb_region(a.shape());
            let dims = a.shape().dims().to_vec();
            let upd = prop::collection::vec(
                (dims.iter().map(|&n| 0..n).collect::<Vec<_>>(), -100i64..100),
                0..5,
            );
            (Just(a), q, upd)
        }),
        b in 1usize..4,
        threads in 2usize..6,
    ) {
        let base = IndexConfig {
            prefix: PrefixChoice::Blocked(b),
            max_tree_fanout: Some(2),
            min_tree_fanout: None,
            sum_tree_fanout: None,
            ..IndexConfig::default()
        };
        let threaded = IndexConfig {
            parallelism: Parallelism::Threads(threads),
            ..base
        };
        let mut seq_idx = CubeIndex::build(a.clone(), base).unwrap();
        let mut par_idx = CubeIndex::build(a, threaded).unwrap();
        let batch: Vec<(Vec<usize>, f64)> = updates
            .iter()
            .map(|(i, v)| (i.clone(), *v as f64 * 0.5))
            .collect();
        seq_idx.apply_updates_in_place(&batch).unwrap();
        par_idx.apply_updates_in_place(&batch).unwrap();
        let (sv, ss) = seq_idx.range_sum(&q).unwrap();
        let (pv, ps) = par_idx.range_sum(&q).unwrap();
        prop_assert_eq!(sv.to_bits(), pv.to_bits());
        prop_assert_eq!(ss, ps);
        let (si, sm, _) = seq_idx.range_max(&q).unwrap();
        let (pi, pm, _) = par_idx.range_max(&q).unwrap();
        prop_assert_eq!(si, pi);
        prop_assert_eq!(sm.to_bits(), pm.to_bits());
    }

    /// The router's whole decision trajectory — chosen routes, answer
    /// bits, access statistics, and calibration ratios — is bit-identical
    /// whether the structures inside execute sequentially or threaded.
    /// (Routing feeds on AccessStats, so PR 1's determinism guarantee
    /// lifts to routing determinism.)
    #[test]
    fn router_decisions_are_identical_under_threads(
        (a, qs) in arb_cube().prop_flat_map(|a| {
            let qs = prop::collection::vec(arb_region(a.shape()), 1..8);
            (Just(a), qs)
        }),
        b in 1usize..4,
        threads in 2usize..6,
    ) {
        let router_for = |par: Parallelism| -> AdaptiveRouter<f64> {
            let cfg = IndexConfig {
                prefix: PrefixChoice::Blocked(b),
                max_tree_fanout: None,
                min_tree_fanout: None,
                sum_tree_fanout: None,
                parallelism: par,
                ..IndexConfig::default()
            };
            AdaptiveRouter::new()
                .with_engine(Box::new(NaiveEngine::new(a.clone())))
                .with_engine(Box::new(CubeIndex::build(a.clone(), cfg).unwrap()))
                .with_engine(Box::new(SumTreeEngine::build(a.clone(), 2).unwrap()))
        };
        let seq = router_for(Parallelism::Sequential);
        let par = router_for(Parallelism::Threads(threads));
        for q in &qs {
            let query = RangeQuery::from_region(q);
            let se = seq.explain(&query).unwrap();
            let pe = par.explain(&query).unwrap();
            prop_assert_eq!(se.chosen, pe.chosen, "route diverged on {}", q);
            for (sc, pc) in se.candidates.iter().zip(&pe.candidates) {
                prop_assert_eq!(sc.raw.to_bits(), pc.raw.to_bits());
                prop_assert_eq!(sc.ratio.to_bits(), pc.ratio.to_bits());
                prop_assert_eq!(sc.calibrated.to_bits(), pc.calibrated.to_bits());
            }
            prop_assert_eq!(&se.outcome.stats, &pe.outcome.stats);
            prop_assert_eq!(
                se.outcome.value().map(|v| v.to_bits()),
                pe.outcome.value().map(|v| v.to_bits())
            );
            // Post-observation calibration state must match bit-for-bit.
            let bits = |r: &AdaptiveRouter<f64>| -> Vec<u64> {
                r.calibration(EngineOp::Sum).iter().map(|x| x.to_bits()).collect()
            };
            let (sr, pr) = (bits(&seq), bits(&par));
            prop_assert_eq!(sr, pr);
        }
    }
}

/// The telemetry counters are derived from the same deterministic
/// quantities (queries issued, accesses performed, routes chosen, regions
/// planned), so their totals must be identical under `Sequential` and
/// `Threads(n)` too. Only the genuinely nondeterministic metrics are
/// exempt: wall-clock measurements (`*nanos*`, `*latency*`) and the
/// executor's own fan-out accounting (`olap_exec_*`), which exists only
/// when threads actually run.
#[cfg(feature = "telemetry")]
mod telemetry_equivalence {
    use super::*;
    use olap_telemetry::{MetricValue, Telemetry};
    use std::sync::Arc;

    /// Every metric in the registry that has a deterministic value,
    /// rendered to a sortable line (floats compared by bits).
    fn deterministic_totals(ctx: &Telemetry) -> Vec<String> {
        let mut out: Vec<String> = ctx
            .registry()
            .snapshot()
            .into_iter()
            .filter(|m| !m.name.starts_with("olap_exec_"))
            .filter(|m| !m.name.contains("nanos") && !m.name.contains("latency"))
            .map(|m| {
                let v = match m.value {
                    MetricValue::Counter(c) => format!("counter {c}"),
                    MetricValue::Gauge(g) => format!("gauge {:016x}", g.to_bits()),
                    MetricValue::Histogram(h) => {
                        format!(
                            "hist count={} sum={} buckets={:?}",
                            h.count, h.sum, h.buckets
                        )
                    }
                };
                format!("{} {:?} = {v}", m.name, m.labels)
            })
            .collect();
        out.sort();
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn registry_totals_match_under_threads(
            (a, qs, updates) in arb_cube().prop_flat_map(|a| {
                let qs = prop::collection::vec(arb_region(a.shape()), 1..6);
                let dims = a.shape().dims().to_vec();
                let upd = prop::collection::vec(
                    (dims.iter().map(|&n| 0..n).collect::<Vec<_>>(), -100i64..100),
                    0..4,
                );
                (Just(a), qs, upd)
            }),
            b in 1usize..4,
            threads in 2usize..6,
        ) {
            let batch: Vec<(Vec<usize>, f64)> = updates
                .iter()
                .map(|(i, v)| (i.clone(), *v as f64 * 0.5))
                .collect();
            let run = |par: Parallelism| {
                let cfg = IndexConfig {
                    prefix: PrefixChoice::Blocked(b),
                    max_tree_fanout: None,
                    min_tree_fanout: None,
                    sum_tree_fanout: None,
                    parallelism: par,
                    ..IndexConfig::default()
                };
                let router = AdaptiveRouter::new()
                    .with_engine(Box::new(NaiveEngine::new(a.clone())))
                    .with_engine(Box::new(CubeIndex::build(a.clone(), cfg).unwrap()))
                    .with_engine(Box::new(SumTreeEngine::build(a.clone(), 2).unwrap()));
                let ctx = Arc::new(Telemetry::new());
                olap_telemetry::with_scope(&ctx, || {
                    for q in &qs {
                        router.range_sum(&RangeQuery::from_region(q)).unwrap();
                    }
                    if !batch.is_empty() {
                        router.apply_updates(&batch).unwrap();
                    }
                });
                deterministic_totals(&ctx)
            };
            prop_assert_eq!(run(Parallelism::Sequential), run(Parallelism::Threads(threads)));
        }
    }
}

/// The tracing layer must give `Threads(n)` the *same story* as
/// `Sequential`: every span a worker opens inside the fan-out lands in
/// the submitting thread's trace, parented under the span that was
/// current when the fan-out started, and the resulting tree shape —
/// fingerprinted as a sorted `(child, parent)` edge set — is identical
/// for any thread count and across repeat runs. Only timings and worker
/// thread ids may differ.
#[cfg(feature = "telemetry")]
mod trace_equivalence {
    use super::*;
    use olap_telemetry::{Telemetry, TraceSink, TraceSpan};
    use std::sync::Arc;

    /// Distinct static span names per item index, so the edge fingerprint
    /// tells every item's span apart.
    const ITEM_SPANS: [&str; 8] = [
        "item_0", "item_1", "item_2", "item_3", "item_4", "item_5", "item_6", "item_7",
    ];

    /// Runs a traced fan-out over `items` kernels and returns the
    /// assembled tree's `(span count, edge fingerprint)`.
    fn traced_edges(par: Parallelism, items: usize) -> (usize, Vec<(&'static str, &'static str)>) {
        let ctx = Arc::new(Telemetry::new());
        let sink = Arc::new(TraceSink::new());
        olap_telemetry::with_scope(&ctx, || {
            let root = TraceSpan::root(&sink, "fan_out");
            let xs: Vec<u64> = (0..items as u64).collect();
            let doubled = olap_array::exec::run_indexed(par, xs, |i, v| {
                let _span = TraceSpan::start(ITEM_SPANS.get(i).copied().unwrap_or("item_x"));
                v * 2
            });
            assert!(doubled.iter().enumerate().all(|(i, &v)| v == 2 * i as u64));
            drop(root);
        });
        let ids = sink.trace_ids();
        assert_eq!(ids.len(), 1, "all worker spans must share one trace");
        let tree = sink
            .trace_tree(*ids.first().expect("one trace id"))
            .expect("the finished trace assembles into a tree");
        (tree.span_count(), tree.edge_set())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn worker_spans_join_one_deterministic_tree(
            items in 1usize..=8,
            threads in 2usize..6,
        ) {
            let (seq_count, seq_edges) = traced_edges(Parallelism::Sequential, items);
            let (par_count, par_edges) = traced_edges(Parallelism::Threads(threads), items);
            let (rep_count, rep_edges) = traced_edges(Parallelism::Threads(threads), items);

            // One root plus one span per item, no matter who ran it.
            prop_assert_eq!(seq_count, items + 1);
            prop_assert_eq!(par_count, seq_count);
            prop_assert_eq!(rep_count, seq_count);
            // Same shape sequentially, threaded, and on a repeat run.
            prop_assert_eq!(&par_edges, &seq_edges);
            prop_assert_eq!(&rep_edges, &par_edges);
            // Every worker span hangs directly off the fan-out span.
            prop_assert!(par_edges.iter().all(|&(_, parent)| parent == "fan_out"));
        }
    }
}
