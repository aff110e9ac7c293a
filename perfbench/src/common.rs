//! Shared machinery: run options, latency samples, the span recorder,
//! and the result record every workload returns.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Options every workload receives.
pub struct RunOpts {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Scratch directory inside the checkout (WAL directories, traces).
    pub work_dir: PathBuf,
}

impl RunOpts {
    pub fn budget(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }
}

/// How many times a run builds its engine from scratch; `setup_s` is
/// the median of these.
pub const SETUP_REPEATS: usize = 5;

/// Per-op-type tallies printed before the result line.
#[derive(Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

/// What a workload hands back to `main`.
pub struct Outcome {
    pub correct: bool,
    /// Why `correct` is false (empty when it is true).
    pub problems: Vec<String>,
    pub ops: BTreeMap<&'static str, Tally>,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    pub fn new() -> Self {
        Outcome {
            correct: true,
            problems: Vec::new(),
            ops: BTreeMap::new(),
            metrics: Vec::new(),
        }
    }

    /// Count one attempted operation of `kind`.
    pub fn attempt(&mut self, kind: &'static str, failed: bool) {
        let t = self.ops.entry(kind).or_default();
        t.attempted += 1;
        t.failed += u64::from(failed);
    }

    /// Record a wrong answer. Only the first few are kept for the log.
    pub fn wrong(&mut self, what: String) {
        self.correct = false;
        if self.problems.len() < 8 {
            self.problems.push(what);
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn attempted(&self) -> u64 {
        self.ops.values().map(|t| t.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.ops.values().map(|t| t.failed).sum()
    }

    /// The result line: one JSON object, printed last.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct,
            self.attempted(),
            self.failed()
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "{}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}",
                if i == 0 { "" } else { ", " }
            );
        }
        out.push_str("}}");
        out
    }
}

/// Samples per block; the p99 of a block has ten samples beyond it.
pub const BLOCK: usize = 1000;

/// Latency samples, summarised per block of `BLOCK` consecutive samples
/// so memory stays the same however many operations a run makes. Each
/// full block keeps its median and its p99; a run reports the median
/// over blocks, so a stall confined to one stretch of the run moves one
/// block only.
#[derive(Default)]
pub struct Samples {
    block: Vec<u64>,
    p50s: Vec<f64>,
    p99s: Vec<f64>,
    count: usize,
}

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.block.push(d.as_nanos() as u64);
        self.count += 1;
        if self.block.len() == BLOCK {
            self.p50s.push(percentile_ms(&mut self.block, 50.0));
            self.p99s.push(percentile_ms(&mut self.block, 99.0));
            self.block.clear();
        }
    }

    pub fn len(&self) -> usize {
        self.count
    }

    pub fn p50_ms(&self) -> f64 {
        self.over_blocks(&self.p50s, 50.0)
    }

    pub fn p99_ms(&self) -> f64 {
        self.over_blocks(&self.p99s, 99.0)
    }

    /// Median over full blocks; with none, the partial block's percentile.
    fn over_blocks(&self, per_block: &[f64], p: f64) -> f64 {
        if per_block.is_empty() {
            percentile_ms(&mut self.block.clone(), p)
        } else {
            median(per_block.to_vec())
        }
    }

    pub fn extend(&mut self, other: Samples) {
        self.p50s.extend(other.p50s);
        self.p99s.extend(other.p99s);
        self.count += other.count - other.block.len();
        for ns in other.block {
            self.push(Duration::from_nanos(ns));
        }
    }
}

/// Nearest-rank percentile of `v` (sorted in place), in milliseconds.
fn percentile_ms(v: &mut [u64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable();
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1] as f64 / 1e6
}

/// Push the end-to-end metrics every workload reports: set-up CPU
/// time (median over set-ups), throughput per CPU-second, the read and
/// write CPU-time percentiles, and peak RSS. Every time is scaled to the
/// reference host speed by `host`. Warns on stderr when the read tail
/// rests on fewer than ten samples.
pub fn push_end_to_end(
    out: &mut Outcome,
    host: &HostSpeed,
    setups: Vec<f64>,
    rate: &Rate,
    reads: &Samples,
    writes: &Samples,
) {
    if reads.len() < BLOCK {
        eprintln!("warning: read_cpu_p99_ms rests on {} samples", reads.len());
    }
    let scale = host.scale();
    eprintln!(
        "host speed: reference work took {:.4} ms of CPU (median of {}), scale {scale:.4}",
        host.median_ms(),
        host.samples.len()
    );
    out.metric("setup_s", median(setups) * scale, "s");
    out.metric("ops_per_cpu_s", rate.per_cpu_second() / scale, "1/s");
    out.metric("read_cpu_p50_ms", reads.p50_ms() * scale, "ms");
    out.metric("read_cpu_p99_ms", reads.p99_ms() * scale, "ms");
    out.metric("write_cpu_p50_ms", writes.p50_ms() * scale, "ms");
    out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
}

/// CPU time `reference_work` takes on this host when no other guest
/// slows it; the speed every end-to-end time is scaled to.
const REFERENCE_CPU_MS: f64 = 2.5;

/// How often the measured loop times the reference work.
const HOST_SAMPLE_EVERY: Duration = Duration::from_millis(200);

/// A fixed computation that shares no code with the engine: string keys
/// formatted, hashed into a map, probed and sorted, with a working set of
/// a few MiB, like the engine's joins over generated relations.
fn reference_work() -> u64 {
    let n = 8_000u64;
    let keys: Vec<String> = (0..n).map(|i| format!("s{}", i * 7919 % n)).collect();
    let mut map: HashMap<&str, u64> = HashMap::with_capacity(keys.len());
    for (i, k) in keys.iter().enumerate() {
        *map.entry(k.as_str()).or_insert(0) += i as u64;
    }
    let mut hits = 0u64;
    for i in 0..2 * n {
        let k = format!("s{}", i * 104_729 % (n + n / 2));
        hits = hits.wrapping_add(map.get(k.as_str()).copied().unwrap_or(1));
    }
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    hits ^ sorted.len() as u64
}

/// The host's speed over a run, from the CPU time of `reference_work`
/// timed between operations. The host shares its cores with other
/// guests, and the same operations take up to twice the CPU time when
/// they are busy; scaling by the reference work takes that out.
pub struct HostSpeed {
    samples: Vec<f64>,
    last: Instant,
}

impl HostSpeed {
    pub fn new() -> Self {
        let mut h = HostSpeed {
            samples: Vec::new(),
            last: Instant::now(),
        };
        h.sample();
        h
    }

    /// Time the reference work once, outside every operation.
    pub fn sample(&mut self) {
        let (r, cpu) = cpu_timed(reference_work);
        std::hint::black_box(r);
        self.samples.push(cpu.as_secs_f64() * 1e3);
        self.last = Instant::now();
    }

    /// Time the reference work if `HOST_SAMPLE_EVERY` has passed.
    pub fn sample_if_due(&mut self) {
        if self.last.elapsed() >= HOST_SAMPLE_EVERY {
            self.sample();
        }
    }

    /// Add the samples another thread took in the same run.
    pub fn extend(&mut self, other: HostSpeed) {
        self.samples.extend(other.samples);
    }

    pub fn median_ms(&self) -> f64 {
        median(self.samples.clone())
    }

    /// What a CPU time measured in this run is multiplied by to give
    /// the time at the reference speed.
    pub fn scale(&self) -> f64 {
        REFERENCE_CPU_MS / self.median_ms()
    }
}

impl Default for Rate {
    fn default() -> Self {
        Rate::new(Instant::now())
    }
}

/// Operations completed per CPU-second, per whole wall-clock second of a
/// run, for a throughput that is the median over one-second windows.
pub struct Rate {
    start: Instant,
    last: Instant,
    /// Per window: operations and the CPU time they took.
    per_window: Vec<(u32, Duration)>,
}

impl Rate {
    pub fn new(start: Instant) -> Self {
        Rate {
            start,
            last: start,
            per_window: Vec::new(),
        }
    }

    /// Count one operation that took `cpu` of CPU time.
    pub fn tick(&mut self, cpu: Duration) {
        self.last = Instant::now();
        let w = self.last.duration_since(self.start).as_secs() as usize;
        if self.per_window.len() <= w {
            self.per_window.resize(w + 1, (0, Duration::ZERO));
        }
        self.per_window[w].0 += 1;
        self.per_window[w].1 += cpu;
    }

    /// Add another counter that started at the same instant.
    pub fn extend(&mut self, other: Rate) {
        if self.per_window.len() < other.per_window.len() {
            self.per_window
                .resize(other.per_window.len(), (0, Duration::ZERO));
        }
        for (a, b) in self.per_window.iter_mut().zip(other.per_window) {
            a.0 += b.0;
            a.1 += b.1;
        }
        self.last = self.last.max(other.last);
    }

    /// Median operations per CPU-second over the windows that ended
    /// before the last operation did.
    pub fn per_cpu_second(&self) -> f64 {
        let whole = self.last.duration_since(self.start).as_secs() as usize;
        median(
            self.per_window
                .iter()
                .take(whole)
                .filter(|(n, cpu)| *n > 0 && !cpu.is_zero())
                .map(|(n, cpu)| f64::from(*n) / cpu.as_secs_f64())
                .collect(),
        )
    }
}

pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Resident high-water mark of this process, in MiB (Linux `VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time this process has used so far, all its threads together,
/// user and system. On a paravirtualised guest the kernel leaves out the
/// time the hypervisor gave the vCPU to other guests.
pub fn cpu_time() -> Duration {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.sec as u64, ts.nsec as u32)
}

/// Run `f` and return its result with the CPU time the process spent
/// while it ran (every thread's, so a parallel query's workers and a
/// loopback server's session thread count too).
pub fn cpu_timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = cpu_time();
    let r = f();
    (r, cpu_time().saturating_sub(start))
}

/// Run `f` and return its result with its start and end instants.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Instant, Instant) {
    let start = Instant::now();
    let r = f();
    (r, start, Instant::now())
}

/// One recorded span. Replay spans are recorded after the production
/// call they decompose and name it as their parent, so a span's self
/// time is its duration minus the durations of its children.
struct Span {
    id: u32,
    parent: u32,
    op: u64,
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
}

/// In-memory span recorder, written out once at the end of a run.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Record a span; `parent` 0 makes it a root. Returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        op: u64,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            dur_ns: end.duration_since(start).as_nanos() as u64,
        });
        id
    }

    /// Total self time per span name, in nanoseconds (may be negative
    /// where a replayed decomposition outlasts the call it decomposes).
    pub fn self_ns(&self) -> BTreeMap<&'static str, i64> {
        let mut children: Vec<i64> = vec![0; self.spans.len() + 1];
        for s in &self.spans {
            if s.parent != 0 {
                children[s.parent as usize] += s.dur_ns as i64;
            }
        }
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_insert(0) += s.dur_ns as i64 - children[s.id as usize];
        }
        out
    }

    /// Total duration per span name, in nanoseconds.
    pub fn total_ns(&self) -> BTreeMap<&'static str, i64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_insert(0) += s.dur_ns as i64;
        }
        out
    }

    /// Write every span as JSON lines to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let _ = writeln!(
                text,
                "{{\"id\": {}, \"parent\": {}, \"op\": {}, \"name\": \"{}\", \"start_ns\": {}, \"dur_ns\": {}}}",
                s.id, s.parent, s.op, s.name, s.start_ns, s.dur_ns
            );
        }
        std::fs::write(path, text)
    }
}

/// Self time of `name` in microseconds per operation.
pub fn per_op_us(selfs: &BTreeMap<&'static str, i64>, name: &str, ops: u64) -> f64 {
    if ops == 0 {
        return 0.0;
    }
    selfs.get(name).copied().unwrap_or(0) as f64 / 1e3 / ops as f64
}

pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
