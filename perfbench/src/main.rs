//! The repository benchmark: seeded traffic mixes through `CubeServer`,
//! every answer checked against the benchmark's own oracle, plus a traced
//! run that replays the same queries layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload uniform_mix --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Every end-to-end metric (with `--trace 1`, also every per-layer metric)
//! prints as one `name value unit` line, `n/a` where the workload does not
//! run that operation and `unresolved` where a tail percentile has fewer
//! than ten samples beyond it. The last line is one JSON object with the
//! metrics `BENCHMARK.json` declares.

mod ladder;
mod load;
mod oracle;
mod stats;

use load::{Inputs, Op, TimedRun, Workload};
use olap_array::{DenseArray, Shape};
use olap_server::{CubeServer, ServeConfig};
use oracle::{Oracle, Verdict};
use std::process::ExitCode;
use std::time::Instant;

/// Cube side: a 1024×1024 cube.
const SIDE: usize = 1024;
/// Cell values are drawn from `0..MAX_VALUE`.
pub const MAX_VALUE: i64 = 1000;
/// Server builds per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;

/// End-to-end metrics in the JSON line: those present and nonzero on every
/// workload whose run-to-run spread fits a bound. The tails (`*_p99_us`)
/// swing too far on a shared 2-core machine and only print.
const E2E_JSON: [&str; 4] = ["setup_s", "qps", "sum_p50_us", "peak_rss_mb"];
/// Per-layer metrics in the JSON line of a traced run.
const LAYER_JSON: [&str; 17] = [
    "server.self_us",
    "server.queue_wait_us",
    "server.shards_per_query",
    "cache.self_us",
    "cache.hit_frac",
    "cache.assembly_frac",
    "cache.evictions_per_kq",
    "router.self_us",
    "router.failover_frac",
    "engine.self_us",
    "kernel.sum_us",
    "kernel.sum_cells",
    "build.prefix_s",
    "build.max_tree_s",
    "build.sum_tree_s",
    "build.shard_s",
    "trace.overhead",
];

const USAGE: &str =
    "usage: perfbench --workload <uniform_mix|zipf_hot|update_mix> --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: not a number: {value}"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload =
                        Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
                }
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?.max(1)),
                "--trace" => trace = Some(number()? != 0),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// A reported metric value.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Value {
    Num(f64),
    /// The workload does not run the operation the metric measures.
    NotApplicable,
    /// A percentile with fewer than ten samples beyond it, out of `n`.
    Unresolved(usize),
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Num(v) => write!(f, "{v:.6}"),
            Value::NotApplicable => f.write_str("n/a"),
            Value::Unresolved(n) => write!(f, "unresolved (n={n})"),
        }
    }
}

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: Value,
}

fn metric(name: &'static str, unit: &'static str, value: Value) -> Metric {
    Metric { name, unit, value }
}

fn opt(v: Option<f64>) -> Value {
    v.map_or(Value::NotApplicable, Value::Num)
}

/// A percentile of `samples` (any order) scaled by `scale`: n/a when empty,
/// unresolved without ten samples beyond it.
fn tail(samples: &mut [f64], p: f64, scale: f64) -> Value {
    if samples.is_empty() {
        return Value::NotApplicable;
    }
    samples.sort_by(f64::total_cmp);
    match stats::percentile(samples, p) {
        Some(v) => Value::Num(v * scale),
        None => Value::Unresolved(samples.len()),
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Oracle verdicts over a timed run.
#[derive(Default)]
struct Checked {
    reads: u64,
    failed: u64,
    torn: u64,
    cross_shard_sums: u64,
    failed_installs: u64,
}

fn check(
    cube: &DenseArray<i64>,
    slabs: Vec<(usize, usize)>,
    inputs: &Inputs,
    run: &TimedRun,
) -> Checked {
    let mut out = Checked {
        failed_installs: run.installs.iter().filter(|i| !i.ok).count() as u64,
        ..Checked::default()
    };
    let oracle = Oracle::new(cube, slabs);
    let oracle = if out.failed_installs == 0 {
        oracle.with_installs(&inputs.batches, &run.installs)
    } else {
        oracle
    };
    for (stream, reads) in inputs.readers.iter().zip(&run.reads) {
        for rec in reads {
            out.reads += 1;
            let rect = &stream.rects[rec.qidx as usize];
            let op = rec.op();
            let cross = op == Op::Sum && oracle.is_cross_shard(rect);
            out.cross_shard_sums += cross as u64;
            // Without a known install history no answer can be vouched for.
            let verdict = if rec.error() || rec.bad_at() || out.failed_installs > 0 {
                Verdict::Failed
            } else if op == Op::Sum {
                oracle.check_sum(rect, rec.value, rec.start_ns, rec.end_ns())
            } else {
                oracle.check_extremum(rect, op, rec.value)
            };
            match verdict {
                Verdict::Ok => {}
                Verdict::Torn => out.torn += 1,
                Verdict::Failed => out.failed += 1,
            }
        }
    }
    out
}

/// Reads completed per second: the median over the run's whole one-second
/// windows, so a stall of the machine in one window does not move it.
fn qps(run: &TimedRun) -> f64 {
    let windows = run.window_s as usize;
    if windows == 0 {
        return run.reads.iter().map(Vec::len).sum::<usize>() as f64 / run.window_s;
    }
    let mut per = vec![0.0; windows];
    for r in run.reads.iter().flatten() {
        if let Some(w) = per.get_mut((r.end_ns() / 1_000_000_000) as usize) {
            *w += 1.0;
        }
    }
    stats::median(&per).unwrap_or(0.0)
}

fn end_to_end(setup_s: f64, run: &TimedRun, checked: &Checked) -> Vec<Metric> {
    let mut m = vec![
        metric("setup_s", "s", Value::Num(setup_s)),
        metric("qps", "1/s", Value::Num(qps(run))),
    ];
    for op in Op::ALL {
        let mut lat: Vec<f64> = run
            .reads
            .iter()
            .flatten()
            .filter(|r| r.op() == op)
            .map(|r| r.dur_ns as f64)
            .collect();
        let (p50, p99) = match op {
            Op::Sum => ("sum_p50_us", "sum_p99_us"),
            Op::Max => ("max_p50_us", "max_p99_us"),
            Op::Min => ("min_p50_us", "min_p99_us"),
        };
        m.push(metric(p50, "us", tail(&mut lat, 0.50, 1e-3)));
        m.push(metric(p99, "us", tail(&mut lat, 0.99, 1e-3)));
    }
    let mut install: Vec<f64> = run
        .installs
        .iter()
        .map(|i| (i.end_ns - i.scheduled_ns) as f64)
        .collect();
    let lag: Vec<f64> = run
        .installs
        .iter()
        .map(|i| (i.start_ns - i.scheduled_ns) as f64 / 1e6)
        .collect();
    m.push(metric(
        "install_p50_ms",
        "ms",
        tail(&mut install, 0.50, 1e-6),
    ));
    m.push(metric(
        "install_p90_ms",
        "ms",
        tail(&mut install, 0.90, 1e-6),
    ));
    m.push(metric("writer_lag_ms", "ms", opt(stats::median(&lag))));
    m.push(metric(
        "failed_frac",
        "ratio",
        Value::Num(checked.failed as f64 / checked.reads.max(1) as f64),
    ));
    m.push(metric(
        "torn_frac",
        "ratio",
        if checked.cross_shard_sums == 0 || run.installs.is_empty() {
            Value::NotApplicable
        } else {
            Value::Num(checked.torn as f64 / checked.cross_shard_sums as f64)
        },
    ));
    m
}

/// Per-layer counts taken from the timed run.
fn timed_layers(run: &TimedRun) -> Vec<Metric> {
    let t = &run.tally;
    let answers: u64 = t.answers.iter().sum();
    let cells = |op: Op| {
        let k = op as usize;
        (t.answers[k] > 0).then(|| t.cost[k] as f64 / t.answers[k] as f64)
    };
    let shards = (answers > 0).then(|| t.shards.iter().sum::<u64>() as f64 / answers as f64);
    let c = &run.cache;
    let lookups = c.lookups();
    let frac = |n: u64| (lookups > 0).then(|| n as f64 / lookups as f64);
    let n_reads = run.reads.iter().map(Vec::len).sum::<usize>().max(1) as f64;
    vec![
        metric("server.shards_per_query", "count", opt(shards)),
        metric("cache.hit_frac", "ratio", opt(frac(c.hits))),
        metric("cache.assembly_frac", "ratio", opt(frac(c.assemblies))),
        metric(
            "cache.evictions_per_kq",
            "count",
            Value::Num(c.evictions as f64 * 1e3 / n_reads),
        ),
        metric("kernel.sum_cells", "count", opt(cells(Op::Sum))),
        metric("kernel.max_cells", "count", opt(cells(Op::Max))),
        metric("kernel.min_cells", "count", opt(cells(Op::Min))),
    ]
}

fn unit_of(name: &str) -> &'static str {
    match name.rsplit('_').next() {
        Some("us") => "us",
        Some("ms") => "ms",
        Some("s") => "s",
        Some("frac") => "ratio",
        _ => "count",
    }
}

fn json_line(
    checked: &Checked,
    installs: usize,
    ok: bool,
    metrics: &[Metric],
    names: &[&str],
) -> Result<String, String> {
    let mut fields = Vec::new();
    for name in names {
        let m = metrics
            .iter()
            .find(|m| m.name == *name)
            .ok_or(format!("metric {name} was not measured"))?;
        let Value::Num(v) = m.value else {
            return Err(format!("metric {name} is {}, not a number", m.value));
        };
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {ok}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checked.reads + installs as u64,
        checked.failed + checked.failed_installs,
        fields.join(", ")
    ))
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!("  {:<24} {} {}", m.name, m.value, m.unit);
    }
}

fn run(args: &Args) -> Result<String, String> {
    let shape = Shape::new(&[SIDE, SIDE]).map_err(|e| e.to_string())?;
    let cube = olap_workload::uniform_cube(shape.clone(), MAX_VALUE, args.seed);
    let inputs = Inputs::generate(args.workload, &shape, args.seed, args.seconds);

    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut server = None;
    for _ in 0..SETUP_REPS {
        drop(server.take());
        let start = Instant::now();
        let built = CubeServer::build(&cube, ServeConfig::default()).map_err(|e| e.to_string())?;
        setups.push(start.elapsed().as_secs_f64());
        server = Some(built);
    }
    let server = server.ok_or("no server was built")?;
    let setup_s = stats::median(&setups).ok_or("no setup time")?;

    let timed = load::run_timed(&server, cube.as_slice(), &inputs, args.seconds);
    let peak_rss = peak_rss_mb();
    let slabs = server.shard_stats().iter().map(|s| s.rows).collect();
    drop(server);
    let checked = check(&cube, slabs, &inputs, &timed);
    let mut e2e = end_to_end(setup_s, &timed, &checked);
    e2e.push(metric("peak_rss_mb", "MiB", opt(peak_rss)));
    let mut layers = timed_layers(&timed);
    let mut ok = checked.failed == 0 && checked.failed_installs == 0;
    let mut choices = Vec::new();
    if args.trace {
        let traced = ladder::run(&cube, &inputs, args.seconds.div_ceil(2))?;
        if traced.mismatches > 0 {
            eprintln!(
                "perfbench: {} ladder answers differ from the served ones",
                traced.mismatches
            );
            ok = false;
        }
        choices = traced.choices;
        for (name, v) in traced.metrics {
            layers.push(metric(name, unit_of(name), opt(v)));
        }
        let timed_qps = qps(&timed);
        layers.push(metric(
            "trace.overhead",
            "ratio",
            Value::Num(traced.qps / timed_qps),
        ));
        layers.push(metric(
            "trace.queries",
            "count",
            Value::Num(traced.queries as f64),
        ));
    }
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "workload {} seed {} seconds {} cpus {cpus} reads {} installs {} failed {} torn {}/{} cross-shard sums",
        args.workload.name(),
        args.seed,
        args.seconds,
        checked.reads,
        timed.installs.len(),
        checked.failed,
        checked.torn,
        checked.cross_shard_sums
    );
    print_table("end-to-end", &e2e);
    if args.trace {
        print_table("per-layer", &layers);
        println!("engine answers in the traced run (op, structure, count)");
        for c in &choices {
            println!("  {c}");
        }
        json_line(&checked, timed.installs.len(), ok, &layers, &LAYER_JSON)
    } else {
        json_line(&checked, timed.installs.len(), ok, &e2e, &E2E_JSON)
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thin_tail_prints_unresolved() {
        let mut hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let p99 = tail(&mut hundred, 0.99, 1.0);
        assert_eq!(p99, Value::Unresolved(100));
        assert_eq!(p99.to_string(), "unresolved (n=100)");
        assert_eq!(tail(&mut [], 0.99, 1.0).to_string(), "n/a");
        assert_eq!(tail(&mut hundred, 0.5, 1.0).to_string(), "50.000000");
    }

    #[test]
    fn unresolved_metric_is_never_emitted_as_a_number() {
        let metrics = [metric("sum_p99_us", "us", Value::Unresolved(12))];
        let err = json_line(&Checked::default(), 0, true, &metrics, &["sum_p99_us"]).unwrap_err();
        assert!(err.contains("unresolved"), "{err}");
    }
}
