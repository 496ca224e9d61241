//! Workload streams and the timed, closed-loop run through `CubeServer`.

use olap_array::{Region, Shape};
use olap_query::RangeQuery;
use olap_server::{CacheStats, CubeServer, ServerAnswer, ServerError};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Queries per reader stream; readers cycle through it. Far above the
/// 256-entry shard caches, so a uniform stream never revisits a cached
/// region.
const STREAM_LEN: usize = 1 << 16;
const _: () = assert!(STREAM_LEN <= 1 << 16, "ReadRec::qidx is a u16");
/// Zipf pool size and exponent of `zipf_hot`: the pool fits in a shard cache.
const ZIPF_POOL: usize = 256;
const ZIPF_EXPONENT: f64 = 1.1;
/// Pools per `zipf_hot` stream. The hot set's shape (how many shards the
/// top regions span) differs from pool to pool; several pools per run keep
/// that from dominating the run-to-run spread.
const ZIPF_POOLS: usize = 8;
/// `update_mix` writer: one batch of this many cells per period.
const BATCH_CELLS: usize = 16;
pub const BATCH_PERIOD: Duration = Duration::from_millis(100);
/// Read records reserved per reader and second of run. Reserved and
/// written before the run, so the benchmark's own memory does not grow
/// with the server's throughput and `peak_rss_mb` tracks the server.
/// If a reader's buffer fills before the deadline, every generator stops
/// and the run measures the shorter window.
const RECORDS_PER_READER_SECOND: usize = 64 * 1024;

/// The benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Two readers, uniform regions, sum:max:min = 2:1:1.
    UniformMix,
    /// Two readers, sums over a 256-region Zipf pool.
    ZipfHot,
    /// One uniform-sum reader plus one open-loop writer.
    UpdateMix,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "uniform_mix" => Some(Workload::UniformMix),
            "zipf_hot" => Some(Workload::ZipfHot),
            "update_mix" => Some(Workload::UpdateMix),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::UniformMix => "uniform_mix",
            Workload::ZipfHot => "zipf_hot",
            Workload::UpdateMix => "update_mix",
        }
    }

    fn readers(self) -> usize {
        match self {
            Workload::UpdateMix => 1,
            _ => 2,
        }
    }

    pub fn has_writer(self) -> bool {
        self == Workload::UpdateMix
    }
}

/// A read operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Sum = 0,
    Max,
    Min,
}

impl Op {
    pub const ALL: [Op; 3] = [Op::Sum, Op::Max, Op::Min];

    pub fn name(self) -> &'static str {
        match self {
            Op::Sum => "sum",
            Op::Max => "max",
            Op::Min => "min",
        }
    }
}

/// Inclusive 2-d bounds `[r0, r1] × [c0, c1]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rect {
    pub r0: usize,
    pub r1: usize,
    pub c0: usize,
    pub c1: usize,
}

impl Rect {
    fn of(region: &Region) -> Rect {
        let (r, c) = (region.range(0), region.range(1));
        Rect {
            r0: r.lo(),
            r1: r.hi(),
            c0: c.lo(),
            c1: c.hi(),
        }
    }

    pub fn contains(&self, r: usize, c: usize) -> bool {
        (self.r0..=self.r1).contains(&r) && (self.c0..=self.c1).contains(&c)
    }
}

/// One reader's query stream.
pub struct Stream {
    pub ops: Vec<Op>,
    pub rects: Vec<Rect>,
    pub queries: Vec<RangeQuery>,
}

impl Stream {
    pub fn len(&self) -> usize {
        self.queries.len()
    }
}

/// One cell batch of the writer, in global coordinates.
pub type Batch = Vec<(Vec<usize>, i64)>;

/// Everything a workload sends, derived from the seed alone.
pub struct Inputs {
    pub readers: Vec<Stream>,
    pub batches: Vec<Batch>,
}

impl Inputs {
    /// Builds the reader streams and (for `update_mix`) enough writer
    /// batches for `seconds` of run.
    pub fn generate(workload: Workload, shape: &Shape, seed: u64, seconds: u64) -> Inputs {
        let readers = workload.readers();
        let regions = match workload {
            // Successive pools: each segment of the streams draws from its own
            // 256-region pool, so a run averages over several hot sets.
            Workload::ZipfHot => (0..ZIPF_POOLS as u64)
                .flat_map(|k| {
                    let count = readers * STREAM_LEN / ZIPF_POOLS;
                    let seg = olap_workload::zipf_regions(
                        shape,
                        count,
                        ZIPF_POOL,
                        ZIPF_EXPONENT,
                        seed.wrapping_mul(ZIPF_POOLS as u64).wrapping_add(k),
                    );
                    seg.into_iter().enumerate()
                })
                // Reader r takes positions r, r + readers, ... of each
                // segment, so the readers move through the pools together.
                .map(|(i, region)| (i % readers, region))
                .fold(vec![Vec::new(); readers], |mut acc, (r, region)| {
                    acc[r].push(region);
                    acc
                })
                .concat(),
            _ => olap_workload::uniform_regions(shape, readers * STREAM_LEN, seed),
        };
        let streams = regions
            .chunks(STREAM_LEN)
            .enumerate()
            .map(|(r, chunk)| Stream {
                ops: (0..chunk.len())
                    .map(|i| match workload {
                        // sum:max:min = 2:1:1, offset per reader.
                        Workload::UniformMix => [Op::Sum, Op::Max, Op::Sum, Op::Min][(i + r) % 4],
                        _ => Op::Sum,
                    })
                    .collect(),
                rects: chunk.iter().map(Rect::of).collect(),
                queries: chunk.iter().map(RangeQuery::from_region).collect(),
            })
            .collect();
        let batches = if workload.has_writer() {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5851_f42d_4c95_7f2d);
            let count = (seconds * 1000 / BATCH_PERIOD.as_millis() as u64) as usize + 1;
            (0..count)
                .map(|_| {
                    (0..BATCH_CELLS)
                        .map(|_| {
                            let idx = shape.dims().iter().map(|&n| rng.random_range(0..n));
                            (idx.collect(), rng.random_range(0..crate::MAX_VALUE))
                        })
                        .collect()
                })
                .collect()
        } else {
            Vec::new()
        };
        Inputs {
            readers: streams,
            batches,
        }
    }
}

/// Calls the server entry point for `op`.
pub fn serve(server: &CubeServer, op: Op, q: &RangeQuery) -> Result<ServerAnswer, ServerError> {
    match op {
        Op::Sum => server.range_sum(q),
        Op::Max => server.range_max(q),
        Op::Min => server.range_min(q),
    }
}

/// One completed read, 24 bytes so that a run's records stay small
/// next to the server. Times are nanoseconds since the run's start.
#[derive(Debug, Clone, Copy)]
pub struct ReadRec {
    pub start_ns: u64,
    pub value: i64,
    pub dur_ns: u32,
    /// Index into the reader's stream.
    pub qidx: u16,
    flags: u8,
}

const OP_MASK: u8 = 0b11;
/// The call failed, or answered with an estimate instead of an exact value.
const ERROR: u8 = 1 << 2;
/// An extremum whose `at` is missing, outside the region, or does not
/// hold the returned value (checked when the read is recorded).
const BAD_AT: u8 = 1 << 3;

impl ReadRec {
    const BLANK: ReadRec = ReadRec {
        start_ns: u64::MAX,
        value: i64::MAX,
        dur_ns: u32::MAX,
        qidx: u16::MAX,
        flags: u8::MAX,
    };

    pub fn op(&self) -> Op {
        Op::ALL[(self.flags & OP_MASK) as usize]
    }

    pub fn error(&self) -> bool {
        self.flags & ERROR != 0
    }

    pub fn bad_at(&self) -> bool {
        self.flags & BAD_AT != 0
    }

    pub fn end_ns(&self) -> u64 {
        self.start_ns + u64::from(self.dur_ns)
    }
}

/// Per-op counts a reader keeps over its exact answers: answers, summed
/// `ServerAnswer::cost`, and summed `ServerAnswer::shards`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub answers: [u64; 3],
    pub cost: [u64; 3],
    pub shards: [u64; 3],
}

/// One install by the writer. Times are nanoseconds since the run's start.
#[derive(Debug, Clone, Copy)]
pub struct InstallRec {
    pub batch: usize,
    pub scheduled_ns: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub ok: bool,
}

/// What the timed run produced.
pub struct TimedRun {
    /// Each reader's reads, in the order sent.
    pub reads: Vec<Vec<ReadRec>>,
    pub tally: Tally,
    pub installs: Vec<InstallRec>,
    /// Wall time from the start to the last read's return.
    pub window_s: f64,
    /// Server cache counters accumulated over the run.
    pub cache: CacheStats,
}

fn since(t0: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(t0).as_nanos() as u64
}

/// Run bounds shared by the generator threads: the common start, the
/// deadline, and a flag raised when any reader's record buffer fills.
struct Clock {
    t0: Instant,
    deadline: Instant,
    full: AtomicBool,
}

fn reader_loop(
    server: &CubeServer,
    cube: &[i64],
    stream: &Stream,
    clock: &Clock,
    recs: &mut [ReadRec],
) -> (usize, Tally) {
    let width = server.shape().dim(1);
    let mut tally = Tally::default();
    let mut n = 0;
    loop {
        if n == recs.len() {
            // ordering: Relaxed — a stop hint; no data is published with it.
            clock.full.store(true, Ordering::Relaxed);
            break;
        }
        let i = n % stream.len();
        let op = stream.ops[i];
        let start = Instant::now();
        // ordering: Relaxed — see the store above.
        if start >= clock.deadline || clock.full.load(Ordering::Relaxed) {
            break;
        }
        let res = serve(server, op, &stream.queries[i]);
        let end = Instant::now();
        let mut flags = op as u8;
        let mut value = 0;
        match &res {
            Ok(a) if !a.is_degraded() => {
                value = a.value;
                let k = op as usize;
                tally.answers[k] += 1;
                tally.cost[k] += a.cost;
                tally.shards[k] += a.shards as u64;
                if op != Op::Sum {
                    let rect = &stream.rects[i];
                    let attained = a.at.as_deref().is_some_and(|at| {
                        rect.contains(at[0], at[1]) && cube[at[0] * width + at[1]] == a.value
                    });
                    if !attained {
                        flags |= BAD_AT;
                    }
                }
            }
            _ => flags |= ERROR,
        }
        recs[n] = ReadRec {
            start_ns: since(clock.t0, start),
            value,
            dur_ns: (end - start).as_nanos().min(u32::MAX as u128) as u32,
            qidx: i as u16,
            flags,
        };
        n += 1;
    }
    (n, tally)
}

fn writer_loop(server: &CubeServer, batches: &[Batch], clock: &Clock) -> Vec<InstallRec> {
    let mut out = Vec::with_capacity(batches.len());
    for (k, batch) in batches.iter().enumerate() {
        let scheduled = clock.t0 + BATCH_PERIOD * k as u32;
        // ordering: Relaxed — see `reader_loop`.
        if scheduled >= clock.deadline || clock.full.load(Ordering::Relaxed) {
            break;
        }
        let now = Instant::now();
        if now < scheduled {
            std::thread::sleep(scheduled - now);
        }
        let start = Instant::now();
        let ok = server.apply_updates(batch).is_ok();
        let end = Instant::now();
        out.push(InstallRec {
            batch: k,
            scheduled_ns: since(clock.t0, scheduled),
            start_ns: since(clock.t0, start),
            end_ns: since(clock.t0, end),
            ok,
        });
    }
    out
}

/// Drives the workload's generator threads against `server`, which
/// serves `cube`, for `seconds`.
pub fn run_timed(server: &CubeServer, cube: &[i64], inputs: &Inputs, seconds: u64) -> TimedRun {
    let cap = RECORDS_PER_READER_SECOND * seconds as usize;
    // Written up front so every page is resident before the run starts.
    let mut buffers: Vec<Vec<ReadRec>> = inputs
        .readers
        .iter()
        .map(|_| vec![ReadRec::BLANK; cap])
        .collect();
    let installs = Mutex::new(Vec::new());
    let before = server.cache_stats();
    // A common start slightly in the future, so every generator thread is
    // running before the window opens.
    let t0 = Instant::now() + Duration::from_millis(20);
    let clock = Clock {
        t0,
        deadline: t0 + Duration::from_secs(seconds),
        full: AtomicBool::new(false),
    };
    let clock = &clock;
    let results: Vec<(usize, Tally)> = std::thread::scope(|s| {
        let handles: Vec<_> = buffers
            .iter_mut()
            .zip(&inputs.readers)
            .map(|(buf, stream)| {
                s.spawn(move || {
                    std::thread::sleep(t0.saturating_duration_since(Instant::now()));
                    reader_loop(server, cube, stream, clock, buf)
                })
            })
            .collect();
        if !inputs.batches.is_empty() {
            let installs = &installs;
            s.spawn(move || {
                let recs = writer_loop(server, &inputs.batches, clock);
                *installs
                    .lock()
                    .expect("writer thread poisoned the install log") = recs;
            });
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .collect()
    });
    let after = server.cache_stats();
    let mut tally = Tally::default();
    for (buf, (n, t)) in buffers.iter_mut().zip(results) {
        buf.truncate(n);
        for k in 0..3 {
            tally.answers[k] += t.answers[k];
            tally.cost[k] += t.cost[k];
            tally.shards[k] += t.shards[k];
        }
    }
    let last = buffers
        .iter()
        .flatten()
        .map(ReadRec::end_ns)
        .max()
        .unwrap_or(0);
    TimedRun {
        reads: buffers,
        tally,
        installs: installs.into_inner().expect("install log poisoned"),
        window_s: last as f64 / 1e9,
        cache: CacheStats {
            hits: after.hits - before.hits,
            assemblies: after.assemblies - before.assemblies,
            misses: after.misses - before.misses,
            invalidations: after.invalidations - before.invalidations,
            insertions: after.insertions - before.insertions,
            evictions: after.evictions - before.evictions,
            entries: after.entries,
        },
    }
}
