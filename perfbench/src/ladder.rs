//! The traced run: a sample of the workload's own stream replayed on one
//! thread, each query through `CubeServer` and each of its shard-local
//! pieces through a standalone per-shard stack — semantic cache → router
//! → engines — built with the public constructors the server's shards use.
//!
//! Spans are recorded by the benchmark around every call that crosses a
//! layer boundary (the program itself carries no tracing here): the ladder
//! times its cache calls, [`TracedRouter`] times the cache's calls into
//! the router, and [`TracedEngine`] times the router's calls into each
//! engine. After each piece the kernel the engine used is called once more
//! on the same shard-local query, standalone, to time the kernel layer.
//! A layer's self time is its span minus the spans one layer down for the
//! same query. Accessors (`shape`, `label`, `capabilities`) are not
//! spanned; they count to their caller.

use crate::load::{self, Inputs, Op};
use crate::stats;
use olap_aggregate::{NaturalOrder, ReverseOrder, SumOp};
use olap_array::{BudgetMeter, DenseArray, Parallelism, Region, Shape};
use olap_engine::{
    naive, AdaptiveRouter, CacheBackend, Capabilities, CubeIndex, Derived, EngineError,
    IndexConfig, NaiveEngine, RangeEngine, SemanticCache, SumTreeEngine,
};
use olap_prefix_sum::PrefixSumCube;
use olap_query::{AccessStats, EngineKind, QueryOutcome, RangeQuery};
use olap_range_max::NaturalMaxTree;
use olap_server::{CubeServer, ServeConfig};
use olap_telemetry::TraceSink;
use olap_tree_sum::SumTreeCube;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Most queries one traced run replays.
const MAX_TRACED_QUERIES: usize = 20_000;
/// Repetitions of each standalone slab build; the median is reported.
const BUILD_REPS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layer {
    Router,
    Engine,
    RouterUpdate,
    EngineUpdate,
}

/// A kernel call to repeat standalone after the piece returns.
struct Probe {
    op: Op,
    kind: EngineKind,
    query: RangeQuery,
    value: Option<i64>,
}

struct Span {
    layer: Layer,
    ns: u64,
    probe: Option<Probe>,
}

thread_local! {
    /// Spans recorded on this thread since the last drain.
    static SPANS: RefCell<Vec<Span>> = const { RefCell::new(Vec::new()) };
}

fn record(layer: Layer, ns: u64, probe: Option<Probe>) {
    SPANS.with(|s| s.borrow_mut().push(Span { layer, ns, probe }));
}

fn drain() -> Vec<Span> {
    SPANS.with(|s| std::mem::take(&mut *s.borrow_mut()))
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_nanos() as u64)
}

/// The router behind a ladder cache, with a span around every call the
/// cache makes into it.
struct TracedRouter(Arc<AdaptiveRouter<i64>>);

impl TracedRouter {
    fn call<T>(&self, layer: Layer, f: impl FnOnce(&AdaptiveRouter<i64>) -> T) -> T {
        let (out, ns) = timed(|| f(&self.0));
        record(layer, ns, None);
        out
    }
}

impl CacheBackend<i64> for TracedRouter {
    fn shape(&self) -> Option<Shape> {
        self.call(Layer::Router, CacheBackend::shape)
    }

    fn estimate(&self, query: &RangeQuery) -> f64 {
        self.call(Layer::Router, |r| CacheBackend::estimate(r, query))
    }

    fn range_sum(&self, query: &RangeQuery) -> Result<QueryOutcome<i64>, EngineError> {
        self.call(Layer::Router, |r| r.range_sum(query))
    }

    fn range_max(&self, query: &RangeQuery) -> Result<QueryOutcome<i64>, EngineError> {
        self.call(Layer::Router, |r| r.range_max(query))
    }

    fn range_min(&self, query: &RangeQuery) -> Result<QueryOutcome<i64>, EngineError> {
        self.call(Layer::Router, |r| r.range_min(query))
    }

    fn apply_updates(&self, updates: &[(Vec<usize>, i64)]) -> Result<AccessStats, EngineError> {
        self.call(Layer::RouterUpdate, |r| r.apply_updates(updates))
    }

    fn epoch(&self) -> u64 {
        self.call(Layer::Router, |r| r.epoch())
    }
}

/// An engine with a span around every query, estimate, and update the
/// router sends it. Derived successors stay wrapped.
struct TracedEngine(Box<dyn RangeEngine<i64>>);

impl TracedEngine {
    fn query(
        &self,
        op: Op,
        query: &RangeQuery,
        f: impl FnOnce(&dyn RangeEngine<i64>) -> Result<QueryOutcome<i64>, EngineError>,
    ) -> Result<QueryOutcome<i64>, EngineError> {
        let (out, ns) = timed(|| f(&*self.0));
        let probe = out.as_ref().ok().map(|o| Probe {
            op,
            kind: o.answered_by,
            query: query.clone(),
            value: o.value().copied(),
        });
        record(Layer::Engine, ns, probe);
        out
    }
}

impl RangeEngine<i64> for TracedEngine {
    fn label(&self) -> String {
        self.0.label()
    }

    fn shape(&self) -> &Shape {
        self.0.shape()
    }

    fn capabilities(&self) -> Capabilities {
        self.0.capabilities()
    }

    fn estimate(&self, query: &RangeQuery) -> f64 {
        let (out, ns) = timed(|| self.0.estimate(query));
        record(Layer::Engine, ns, None);
        out
    }

    fn range_sum(&self, query: &RangeQuery) -> Result<QueryOutcome<i64>, EngineError> {
        self.query(Op::Sum, query, |e| e.range_sum(query))
    }

    fn range_sum_budgeted(
        &self,
        query: &RangeQuery,
        meter: &BudgetMeter,
    ) -> Result<QueryOutcome<i64>, EngineError> {
        self.query(Op::Sum, query, |e| e.range_sum_budgeted(query, meter))
    }

    fn range_max(&self, query: &RangeQuery) -> Result<QueryOutcome<i64>, EngineError> {
        self.query(Op::Max, query, |e| e.range_max(query))
    }

    fn range_min(&self, query: &RangeQuery) -> Result<QueryOutcome<i64>, EngineError> {
        self.query(Op::Min, query, |e| e.range_min(query))
    }

    fn apply_updates(&self, updates: &[(Vec<usize>, i64)]) -> Result<Derived<i64>, EngineError> {
        let (out, ns) = timed(|| self.0.apply_updates(updates));
        record(Layer::EngineUpdate, ns, None);
        let d = out?;
        Ok(Derived::new(Box::new(TracedEngine(d.engine)), d.stats))
    }
}

/// The kernels a shard's engines answer with, built standalone over the
/// build-time slab. They time the kernel layer; their values are compared
/// with the engine's only while no install has happened.
struct Kernels {
    a: DenseArray<i64>,
    prefix: PrefixSumCube<i64>,
    max_tree: NaturalMaxTree<i64>,
    sum_tree: SumTreeCube<i64>,
}

impl Kernels {
    fn run(&self, p: &Probe) -> Result<Option<i64>, String> {
        let r = &p
            .query
            .to_region(self.a.shape())
            .map_err(|e| e.to_string())?;
        let a = &self.a;
        let value = match (p.kind, p.op) {
            (EngineKind::PrefixSum, Op::Sum) => self.prefix.range_sum_with_stats(r).map(|x| x.0),
            (EngineKind::TreeSum, Op::Sum) => {
                self.sum_tree.range_sum_with_stats(a, r, true).map(|x| x.0)
            }
            (EngineKind::MaxTree, Op::Max) => {
                let max = self.max_tree.range_max_with_stats(a, r);
                return max.map(|x| Some(x.1)).map_err(|e| e.to_string());
            }
            (EngineKind::NaiveScan, Op::Sum) => {
                naive::range_aggregate(a, &SumOp::new(), r).map(|x| x.0)
            }
            (EngineKind::NaiveScan, Op::Max) => {
                naive::range_max(a, &NaturalOrder::<i64>::new(), r).map(|x| x.1)
            }
            (EngineKind::NaiveScan, Op::Min) => {
                naive::range_max(a, &ReverseOrder::new(NaturalOrder::<i64>::new()), r).map(|x| x.1)
            }
            (kind, op) => return Err(format!("no kernel probe for {kind:?} answering {op:?}")),
        };
        value.map(Some).map_err(|e| e.to_string())
    }
}

/// One shard's standalone stack, mirroring the server's `build_shard`
/// under `ServeConfig::default()` (no faults, no degrade tier, no budget).
struct ShardStack {
    lo: usize,
    len: usize,
    router: Arc<AdaptiveRouter<i64>>,
    cache: SemanticCache<i64, TracedRouter>,
    kernels: Kernels,
}

fn slab(cube: &DenseArray<i64>, lo: usize, hi: usize) -> DenseArray<i64> {
    let mut dims = cube.shape().dims().to_vec();
    dims[0] = hi - lo;
    let stride = cube.shape().strides()[0];
    let shape = Shape::new(&dims).expect("slab of a valid cube");
    DenseArray::from_vec(shape, cube.as_slice()[lo * stride..hi * stride].to_vec())
        .expect("slab length matches its shape")
}

impl ShardStack {
    fn build(
        cube: &DenseArray<i64>,
        i: usize,
        lo: usize,
        hi: usize,
        cache_size: usize,
    ) -> ShardStack {
        let sub = slab(cube, lo, hi);
        let label = format!("shard-{i}");
        let router = AdaptiveRouter::labeled(&label);
        let engines: Vec<Box<dyn RangeEngine<i64>>> = vec![
            Box::new(CubeIndex::build(sub.clone(), IndexConfig::default()).expect("cube index")),
            Box::new(SumTreeEngine::build(sub.clone(), 4).expect("sum tree")),
            Box::new(NaiveEngine::new(sub.clone())),
        ];
        for e in engines {
            router.push(Box::new(TracedEngine(e)));
        }
        router.set_budget(ServeConfig::default().budget);
        let router = Arc::new(router);
        let cache =
            SemanticCache::with_label(TracedRouter(Arc::clone(&router)), cache_size, &label);
        let kernels = Kernels {
            prefix: PrefixSumCube::build_with(&sub, Parallelism::Sequential),
            max_tree: NaturalMaxTree::for_values_with(&sub, 4, Parallelism::Sequential)
                .expect("max tree"),
            sum_tree: SumTreeCube::build(&sub, 4).expect("sum tree"),
            a: sub,
        };
        ShardStack {
            lo,
            len: hi - lo,
            router,
            cache,
            kernels,
        }
    }

    /// The shard-local query of `region`, if it overlaps this slab.
    fn local(&self, region: &Region) -> Option<RangeQuery> {
        let r0 = region.range(0);
        let hi = self.lo + self.len - 1;
        if r0.lo() > hi || r0.hi() < self.lo {
            return None;
        }
        let mut bounds: Vec<(usize, usize)> =
            region.ranges().iter().map(|r| (r.lo(), r.hi())).collect();
        bounds[0] = (r0.lo().max(self.lo) - self.lo, r0.hi().min(hi) - self.lo);
        Some(RangeQuery::from_region(
            &Region::from_bounds(&bounds).expect("clipped bounds"),
        ))
    }
}

/// Per-query self-time accumulators (nanoseconds, summed over queries).
#[derive(Default)]
struct Totals {
    queries: u64,
    server: f64,
    cache: f64,
    router: f64,
    engine: f64,
    kernel: f64,
    /// Kernel probe time and count per op.
    kernel_op: BTreeMap<&'static str, (f64, u64)>,
    /// Engine answers per (op, structure that answered).
    choices: BTreeMap<(&'static str, String), u64>,
    /// Per (shard, batch) install: cache minus router, and summed engines.
    invalidate: Vec<f64>,
    derive: Vec<f64>,
}

/// Per-layer results of one traced run.
pub struct Traced {
    pub metrics: Vec<(&'static str, Option<f64>)>,
    /// `op structure count` for every engine answer the ladder saw.
    pub choices: Vec<String>,
    pub queries: u64,
    pub qps: f64,
    /// Ladder pieces whose values differed from the served answer.
    pub mismatches: u64,
}

/// Replays `inputs` on one thread for up to `seconds`, through a fresh
/// server and the standalone shard stacks.
pub fn run(cube: &DenseArray<i64>, inputs: &Inputs, seconds: u64) -> Result<Traced, String> {
    let config = ServeConfig::default();
    let cache_size = config.cache_size;
    let mut server = CubeServer::build(cube, config).map_err(|e| e.to_string())?;
    let sink = Arc::new(TraceSink::with_capacity(MAX_TRACED_QUERIES * 32));
    server.enable_tracing(Arc::clone(&sink));
    let stacks: Vec<ShardStack> = server
        .shard_stats()
        .iter()
        .map(|s| ShardStack::build(cube, s.shard, s.rows.0, s.rows.1 + 1, cache_size))
        .collect();
    let shape = cube.shape().clone();
    let mut t = Totals::default();
    let mut mismatches = 0u64;
    let mut installed = 0usize;
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs(seconds);
    let readers = inputs.readers.len();
    for n in 0..MAX_TRACED_QUERIES {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        // Installs keep the workload's period on the replay's wall clock.
        if installed < inputs.batches.len() && now >= t0 + load::BATCH_PERIOD * installed as u32 {
            install(&server, &stacks, &inputs.batches[installed], &mut t)?;
            installed += 1;
        }
        let stream = &inputs.readers[n % readers];
        let i = (n / readers) % stream.len();
        let (op, query) = (stream.ops[i], &stream.queries[i]);
        let (served, server_ns) = timed(|| load::serve(&server, op, query));
        let served = served.map_err(|e| format!("traced {} failed: {e}", op.name()))?;
        let region = query.to_region(&shape).map_err(|e| e.to_string())?;
        let mut parts: Vec<i64> = Vec::new();
        let (mut cache_ns, mut router_ns, mut engine_ns, mut kernel_ns) = (0u64, 0u64, 0u64, 0u64);
        for stack in &stacks {
            let Some(local) = stack.local(&region) else {
                continue;
            };
            let (out, ns) = timed(|| match op {
                Op::Sum => stack.cache.range_sum(&local),
                Op::Max => stack.cache.range_max(&local),
                Op::Min => stack.cache.range_min(&local),
            });
            cache_ns += ns;
            let out = out.map_err(|e| format!("ladder {} failed: {e}", op.name()))?;
            parts.extend(out.value().copied());
            for span in drain() {
                match span.layer {
                    Layer::Router => router_ns += span.ns,
                    Layer::Engine => engine_ns += span.ns,
                    _ => {}
                }
                let Some(probe) = span.probe else { continue };
                *t.choices
                    .entry((probe.op.name(), format!("{:?}", probe.kind)))
                    .or_default() += 1;
                let (value, ns) = timed(|| stack.kernels.run(&probe));
                let value = value?;
                if installed == 0 && value != probe.value {
                    mismatches += 1;
                }
                kernel_ns += ns;
                let e = t.kernel_op.entry(probe.op.name()).or_default();
                e.0 += ns as f64;
                e.1 += 1;
            }
        }
        let ladder_value = match op {
            Op::Sum => parts.iter().sum::<i64>(),
            Op::Max => parts.iter().copied().max().unwrap_or(i64::MIN),
            Op::Min => parts.iter().copied().min().unwrap_or(i64::MAX),
        };
        if ladder_value != served.value {
            mismatches += 1;
        }
        t.queries += 1;
        t.server += server_ns as f64 - cache_ns as f64;
        t.cache += cache_ns as f64 - router_ns as f64;
        t.router += router_ns as f64 - engine_ns as f64;
        t.engine += engine_ns as f64 - kernel_ns as f64;
        t.kernel += kernel_ns as f64;
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let waits: Vec<f64> = sink
        .records()
        .iter()
        .filter(|r| r.name == "queue_wait")
        .map(|r| r.dur_ns as f64 / 1e3)
        .collect();
    let failovers: u64 = stacks
        .iter()
        .map(|s| s.router.fault_stats().failovers)
        .sum();
    // Every routed query ends in one engine answer.
    let routed: u64 = t.choices.values().sum();
    let q = t.queries.max(1) as f64;
    let per_query_us = |ns: f64| Some(ns / q / 1e3);
    let kernel_us = |op: &str| t.kernel_op.get(op).map(|&(ns, n)| ns / n as f64 / 1e3);
    let mut metrics = vec![
        ("server.self_us", per_query_us(t.server)),
        ("server.queue_wait_us", stats::mean(waits)),
        ("cache.self_us", per_query_us(t.cache)),
        (
            "cache.invalidate_ms",
            stats::mean(t.invalidate.iter().map(|ns| ns / 1e6)),
        ),
        ("router.self_us", per_query_us(t.router)),
        (
            "router.failover_frac",
            (routed > 0).then(|| failovers as f64 / routed as f64),
        ),
        ("engine.self_us", per_query_us(t.engine)),
        (
            "engine.derive_ms",
            stats::mean(t.derive.iter().map(|ns| ns / 1e6)),
        ),
        ("kernel.sum_us", kernel_us("sum")),
        ("kernel.max_us", kernel_us("max")),
        ("kernel.min_us", kernel_us("min")),
    ];
    metrics.extend(build_metrics(cube, &server));
    Ok(Traced {
        metrics,
        choices: t
            .choices
            .iter()
            .map(|((op, kind), n)| format!("{op} {kind} {n}"))
            .collect(),
        queries: t.queries,
        qps: t.queries as f64 / elapsed,
        mismatches,
    })
}

/// Installs `batch` on the server and on every ladder stack it touches.
fn install(
    server: &CubeServer,
    stacks: &[ShardStack],
    batch: &load::Batch,
    t: &mut Totals,
) -> Result<(), String> {
    server
        .apply_updates(batch)
        .map_err(|e| format!("traced install failed: {e}"))?;
    for stack in stacks {
        let local: load::Batch = batch
            .iter()
            .filter(|(idx, _)| (stack.lo..stack.lo + stack.len).contains(&idx[0]))
            .map(|(idx, v)| {
                let mut idx = idx.clone();
                idx[0] -= stack.lo;
                (idx, *v)
            })
            .collect();
        if local.is_empty() {
            continue;
        }
        let (out, cache_ns) = timed(|| stack.cache.apply_updates(&local));
        out.map_err(|e| format!("ladder install failed: {e}"))?;
        let (mut router_ns, mut engine_ns) = (0u64, 0u64);
        for span in drain() {
            match span.layer {
                Layer::RouterUpdate => router_ns += span.ns,
                Layer::EngineUpdate => engine_ns += span.ns,
                _ => {}
            }
        }
        t.invalidate.push(cache_ns as f64 - router_ns as f64);
        t.derive.push(engine_ns as f64);
    }
    Ok(())
}

/// What the server's `build_shard` builds for one slab, minus the worker
/// thread: the slab copy, its engines, their router, and its cache.
fn plain_shard(
    cube: &DenseArray<i64>,
    lo: usize,
    hi: usize,
) -> SemanticCache<i64, Arc<AdaptiveRouter<i64>>> {
    let sub = slab(cube, lo, hi);
    let router = AdaptiveRouter::labeled("shard-0");
    router.push(Box::new(
        CubeIndex::build(sub.clone(), IndexConfig::default()).expect("cube index"),
    ));
    router.push(Box::new(
        SumTreeEngine::build(sub.clone(), 4).expect("sum tree"),
    ));
    router.push(Box::new(NaiveEngine::new(sub)));
    router.set_budget(ServeConfig::default().budget);
    SemanticCache::with_label(
        Arc::new(router),
        ServeConfig::default().cache_size,
        "shard-0",
    )
}

/// Standalone builds of shard 0's slab through the public constructors.
fn build_metrics(cube: &DenseArray<i64>, server: &CubeServer) -> Vec<(&'static str, Option<f64>)> {
    let rows = server.shard_stats()[0].rows;
    let sub = slab(cube, rows.0, rows.1 + 1);
    let seq = Parallelism::Sequential;
    let median_s = |f: &dyn Fn()| {
        let times: Vec<f64> = (0..BUILD_REPS).map(|_| timed(f).1 as f64 / 1e9).collect();
        stats::median(&times)
    };
    vec![
        (
            "build.prefix_s",
            median_s(&|| drop(PrefixSumCube::build_with(&sub, seq))),
        ),
        (
            "build.max_tree_s",
            median_s(&|| drop(NaturalMaxTree::for_values_with(&sub, 4, seq))),
        ),
        (
            "build.sum_tree_s",
            median_s(&|| drop(SumTreeEngine::build(sub.clone(), 4))),
        ),
        (
            "build.shard_s",
            median_s(&|| drop(plain_shard(cube, rows.0, rows.1 + 1))),
        ),
    ]
}
