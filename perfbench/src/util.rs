//! Small shared pieces: hashing, the seeded shuffle, order statistics,
//! peak memory, the host-speed clock and the result record every
//! workload fills in.

use std::collections::BTreeMap;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

/// FNV-1a 64, incremental. Digests of deterministic outputs use it, so
/// a pinned digest is a plain `u64` constant.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Writes `bytes` followed by a separator, so that concatenated
    /// fields cannot alias.
    pub fn field(&mut self, bytes: &[u8]) {
        self.write(bytes);
        self.write(&[0xff]);
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// SplitMix64: the workload seed drives every ordering and choice the
/// load generator makes through this generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    /// The generator of pass `pass` of a run with workload seed `seed`:
    /// each pass of a run sees its own order.
    pub fn for_pass(seed: u64, pass: usize) -> Rng {
        let mut base = Rng::new(seed);
        for _ in 0..pass {
            base.next_u64();
        }
        Rng::new(base.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Linear-interpolated quantile, as Python's `statistics.quantiles`
/// "inclusive" method computes it. `0.0` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The median of each item's samples, e.g. one instance's wall time in
/// every pass of a run: a pass that a noisy neighbour slowed moves no
/// item's median while most passes ran undisturbed.
pub fn item_medians<K: Ord>(samples: impl IntoIterator<Item = (K, f64)>) -> Vec<f64> {
    let mut by_item: BTreeMap<K, Vec<f64>> = BTreeMap::new();
    for (item, value) in samples {
        by_item.entry(item).or_default().push(value);
    }
    by_item.values().map(|v| median(v)).collect()
}

/// `num / den`, or 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(target_os = "linux")]
mod rusage {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
    /// `long`s of which `ru_maxrss` (KiB) is the first.
    #[repr(C)]
    pub struct RUsage {
        pub times: [i64; 4],
        pub maxrss_kib: i64,
        pub rest: [i64; 13],
    }

    extern "C" {
        pub fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
}

/// Peak resident set size of this process so far, in MiB. Workloads
/// read it when their timed passes end, before the output checks.
#[cfg(target_os = "linux")]
pub fn peak_rss_mb() -> f64 {
    let mut usage = rusage::RUsage {
        times: [0; 4],
        maxrss_kib: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value with the layout of the
    // C `struct rusage` on this target, and `RUSAGE_SELF` (0) is a valid
    // `who`; `getrusage` writes only inside that struct.
    let rc = unsafe { rusage::getrusage(0, &mut usage) };
    if rc == 0 {
        usage.maxrss_kib as f64 / 1024.0
    } else {
        0.0
    }
}

#[cfg(not(target_os = "linux"))]
pub fn peak_rss_mb() -> f64 {
    0.0
}

#[cfg(target_os = "linux")]
mod cputime {
    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    pub struct Timespec {
        pub sec: i64,
        pub nsec: i64,
    }

    pub const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

    extern "C" {
        pub fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
}

/// CPU time the calling thread has used, in seconds.
#[cfg(target_os = "linux")]
fn thread_cpu_s() -> Option<f64> {
    let mut tp = cputime::Timespec { sec: 0, nsec: 0 };
    // SAFETY: `tp` is a live, writable value with the layout of the C
    // `struct timespec` on this target, and the thread CPU-time clock is
    // a valid clock id; `clock_gettime` writes only inside that struct.
    let rc = unsafe { cputime::clock_gettime(cputime::CLOCK_THREAD_CPUTIME_ID, &mut tp) };
    (rc == 0).then_some(tp.sec as f64 + tp.nsec as f64 * 1e-9)
}

#[cfg(not(target_os = "linux"))]
fn thread_cpu_s() -> Option<f64> {
    None
}

/// One named measurement with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything a workload run reports. `metrics` holds the end-to-end
/// figures of the untraced passes and, in a traced run, the per-layer
/// figures; `counters` and `exact` are deterministic outputs that the
/// diff mode compares exactly.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `false` when a digest differs from its pinned value or an output
    /// check failed.
    pub correct: bool,
    pub metrics: Vec<Metric>,
    pub counters: BTreeMap<String, u64>,
    pub exact: BTreeMap<String, String>,
    pub info: BTreeMap<String, String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        });
    }

    pub fn info(&mut self, key: &str, value: impl ToString) {
        self.info.insert(key.to_string(), value.to_string());
    }

    /// Settles `correct` once `failed` is counted: every pass's output
    /// digest must equal the pinned one. Records the first pass's digest
    /// and the pinned one.
    pub fn check_digests(&mut self, digests: &[u64], pinned: u64) {
        self.exact
            .insert("digest".to_string(), format!("{:016x}", digests[0]));
        self.exact
            .insert("digest_pinned".to_string(), format!("{pinned:016x}"));
        self.correct = self.failed == 0 && digests.iter().all(|&d| d == pinned);
    }
}

/// Shared run knobs of every workload.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Corrupt the first output of the first pass (tests the checks).
    pub corrupt: bool,
}

/// A fixed piece of benchmark-owned work: sweeps of a synthetic
/// 64K-gate netlist over 64-bit words, the kind of work packed
/// simulation does. It does not change with the program under test, so
/// its time measures how fast the host runs at the moment.
struct Yardstick {
    gates: Vec<(u32, u32, u8)>,
    values: Vec<u64>,
}

impl Yardstick {
    const GATES: usize = 1 << 16;
    const SWEEPS: usize = 5;

    fn new() -> Yardstick {
        let mut rng = Rng::new(0x9a7e);
        let gates = (0..Self::GATES)
            .map(|i| {
                let below = i.max(1);
                (
                    rng.below(below) as u32,
                    rng.below(below) as u32,
                    rng.below(4) as u8,
                )
            })
            .collect();
        let values = (0..Self::GATES).map(|_| rng.next_u64()).collect();
        Yardstick { gates, values }
    }

    /// CPU seconds (wall seconds where the platform has no thread CPU
    /// clock) that `SWEEPS` sweeps take now. CPU time leaves out the
    /// time the thread waited for a processor.
    fn measure(&mut self) -> f64 {
        let (start, cpu) = (Instant::now(), thread_cpu_s());
        for _ in 0..Self::SWEEPS {
            for i in 1..self.gates.len() {
                let (a, b, op) = self.gates[i];
                let (a, b) = (self.values[a as usize], self.values[b as usize]);
                self.values[i] = match op {
                    0 => a & b,
                    1 => a | b,
                    2 => a ^ b,
                    _ => !(a & b),
                }
                .rotate_left(1);
            }
        }
        std::hint::black_box(&self.values);
        match (cpu, thread_cpu_s()) {
            (Some(a), Some(b)) => b - a,
            _ => start.elapsed().as_secs_f64(),
        }
    }
}

/// Converts measured times into reference-host time.
///
/// The host's speed drifts by tens of percent over seconds and minutes
/// as other tenants load the machine, and that drift moves every raw
/// timing with it. A run therefore ticks the
/// [`Yardstick`] while its own workload is idle (between passes,
/// between `engine-enum` instances and between set-up repetitions) or,
/// for passes whose threads it cannot pause, on a sampler thread during
/// the pass ([`HostClock::during`]). Each measured interval is scaled
/// by `NOMINAL_S` over the mean yardstick time of the ticks in and
/// around it, to the power `SENSITIVITY`. A change to the program moves
/// the scaled figures; a change in the host's load mostly does not.
pub struct HostClock {
    yardstick: Yardstick,
    /// Per tick: when it ended and its mean yardstick time.
    ticks: Vec<(Instant, f64)>,
}

impl HostClock {
    /// The yardstick time of the reference host: the 2-vCPU VM the
    /// benchmark was tuned on, at its median speed.
    const NOMINAL_S: f64 = 0.004;
    /// How strongly the workloads' times follow the yardstick's: on the
    /// reference host, pass and run times varied as the yardstick time
    /// to the power 1.2 to 1.5 (log-log slope over passes and runs of
    /// all three workloads), so speed is the yardstick ratio to this
    /// power.
    const SENSITIVITY: f64 = 1.35;
    const SAMPLES_PER_TICK: usize = 2;
    /// Longest gap [`HostClock::tick_if_due`] leaves between ticks.
    const TICK_EVERY: Duration = Duration::from_millis(50);
    /// Gap between the ticks of [`HostClock::during`]'s sampler: about
    /// 4% of one processor.
    const SAMPLE_EVERY: Duration = Duration::from_millis(100);

    pub fn new() -> HostClock {
        HostClock {
            yardstick: Yardstick::new(),
            ticks: Vec::new(),
        }
    }

    /// Measures the host's speed now. Call it only while the workload
    /// is idle.
    pub fn tick(&mut self) {
        let total: f64 = (0..Self::SAMPLES_PER_TICK)
            .map(|_| self.yardstick.measure())
            .sum();
        self.ticks
            .push((Instant::now(), total / Self::SAMPLES_PER_TICK as f64));
    }

    /// Runs `f` while a second thread ticks every `SAMPLE_EVERY`: for
    /// passes whose work runs on threads the benchmark cannot pause. The
    /// sampler's yardstick time is CPU time, so the workload's threads
    /// preempting it do not count as a slow host.
    pub fn during<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let (stop, stopped) = mpsc::channel::<()>();
        let (r, ticks) = std::thread::scope(|scope| {
            let sampler = scope.spawn(move || {
                let mut clock = HostClock::new();
                while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(Self::SAMPLE_EVERY)
                {
                    clock.tick();
                }
                clock.ticks
            });
            let r = f();
            drop(stop);
            (r, sampler.join().expect("the sampler does not panic"))
        });
        self.ticks.extend(ticks);
        self.ticks.sort_by_key(|(t, _)| *t);
        r
    }

    /// Ticks when the last tick is older than `TICK_EVERY`: for loops of
    /// many short timed steps, such as set-up repetitions.
    pub fn tick_if_due(&mut self) {
        if self
            .ticks
            .last()
            .is_none_or(|(t, _)| t.elapsed() >= Self::TICK_EVERY)
        {
            self.tick();
        }
    }

    /// The host's speed relative to the reference host over
    /// `[from, from + secs]`: from the last tick at or before the
    /// interval through the first tick at or after it.
    pub fn speed(&self, from: Instant, secs: f64) -> f64 {
        if self.ticks.is_empty() {
            return 1.0;
        }
        let to = from + Duration::from_secs_f64(secs);
        let lo = self
            .ticks
            .partition_point(|(t, _)| *t <= from)
            .saturating_sub(1);
        let hi = self
            .ticks
            .partition_point(|(t, _)| *t < to)
            .clamp(lo, self.ticks.len() - 1);
        let bracket = &self.ticks[lo..=hi];
        let mean = bracket.iter().map(|(_, s)| s).sum::<f64>() / bracket.len() as f64;
        (Self::NOMINAL_S / mean).powf(Self::SENSITIVITY)
    }

    /// `secs` measured from `from`, in reference-host seconds.
    pub fn reference_secs(&self, from: Instant, secs: f64) -> f64 {
        secs * self.speed(from, secs)
    }

    /// Records the run's host speed in `out.info`: the median and range
    /// over every tick of the yardstick ratio (before `SENSITIVITY`).
    pub fn report(&self, out: &mut Outcome) {
        let speeds: Vec<f64> = self
            .ticks
            .iter()
            .map(|(_, s)| Self::NOMINAL_S / s)
            .collect();
        out.info("host_speed_median", format!("{:.4}", median(&speeds)));
        out.info(
            "host_speed_range",
            format!(
                "{:.4} {:.4}",
                quantile(&speeds, 0.0),
                quantile(&speeds, 1.0)
            ),
        );
        out.info("host_ticks", speeds.len());
    }
}

/// Runs passes until `cfg.seconds` have passed and at least
/// `min_passes` ran, ticking `clock` before every pass and after the
/// last. In a traced run every second pass is traced, so traced and
/// untraced passes alternate.
pub fn run_passes<P>(
    cfg: &RunConfig,
    min_passes: usize,
    clock: &mut HostClock,
    mut pass: impl FnMut(usize, bool, &mut HostClock) -> Result<P, String>,
) -> Result<Vec<P>, String> {
    let start = Instant::now();
    let mut passes = Vec::new();
    loop {
        let traced = cfg.trace && passes.len() % 2 == 1;
        clock.tick();
        passes.push(pass(passes.len(), traced, clock)?);
        if passes.len() >= min_passes && start.elapsed().as_secs_f64() >= cfg.seconds {
            clock.tick();
            return Ok(passes);
        }
    }
}

/// Times `f`: its start and its duration in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Instant, f64) {
    let start = Instant::now();
    let r = f();
    (r, start, start.elapsed().as_secs_f64())
}

/// Whether enough set-up repetitions ran for a steady `setup_s`
/// median: at least nine, and at least half a second of them (up to
/// 1000 repetitions), since a set-up can take well under a millisecond.
pub fn setup_done(times: &[(Instant, f64)]) -> bool {
    times.len() >= 9 && (times.iter().map(|t| t.1).sum::<f64>() >= 0.5 || times.len() >= 1000)
}

/// Runs `setup` until [`setup_done`], ticking `clock` when due and
/// after the last repetition; returns the last result and every
/// repetition's start and time.
pub fn repeat_setup<T>(
    clock: &mut HostClock,
    mut setup: impl FnMut() -> T,
) -> (T, Vec<(Instant, f64)>) {
    let mut times = Vec::new();
    loop {
        clock.tick_if_due();
        let (value, start, secs) = timed(&mut setup);
        times.push((start, secs));
        if setup_done(&times) {
            clock.tick();
            return (value, times);
        }
    }
}
