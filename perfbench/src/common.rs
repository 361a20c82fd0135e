//! Shared plumbing: seeded shuffles, quantiles, CPU clocks, the
//! reference-speed tracker, memory readings, the expected-results files
//! and the metric table printed at the end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// SplitMix64: a tiny, fully specified generator, so a seed names the
/// same request order on every platform and toolchain.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed ^ 0x5eed_0f5d_f0e5_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Fisher–Yates shuffle driven by `rng`.
pub fn shuffle<T>(items: &mut [T], rng: &mut SplitMix) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Times `f`, returning its value and the elapsed milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let value = f();
    (value, ms(t.elapsed()))
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// CPU time, in milliseconds, that a process has consumed in all its
/// threads, exited ones included: this process, or the process `pid`.
///
/// Time a thread spends waiting for a CPU, or that the hypervisor steals
/// from the virtual CPU, is not counted, so the figure follows the work
/// done rather than how busy the host is.
pub fn cpu_ms(pid: Option<u32>) -> Result<f64, String> {
    // CLOCK_PROCESS_CPUTIME_ID for this process; for another, the
    // process CPU clock Linux encodes as (!pid << 3) | CPUCLOCK_SCHED.
    let clock = match pid {
        None => 2,
        Some(pid) => (!(pid as i32) << 3) | 2,
    };
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    if unsafe { clock_gettime(clock, &mut ts) } != 0 {
        let who = pid.map_or("this process".to_string(), |p| format!("process {p}"));
        return Err(format!(
            "cannot read the CPU clock of {who}: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6)
}

/// Runs `f`, returning its value and the CPU milliseconds process `pid`
/// (or this process) consumed meanwhile.
pub fn cpu_timed<T>(pid: Option<u32>, f: impl FnOnce() -> T) -> Result<(T, f64), String> {
    let before = cpu_ms(pid)?;
    let value = f();
    Ok((value, cpu_ms(pid)? - before))
}

/// Nearest-rank quantile of `values` (`0 < q ≤ 1`): the smallest sample
/// with at least a `q` share of the samples at or below it.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Size of the reference kernel's DP.
const KERNEL_N: usize = 160;

/// The throughput-bound half of the reference kernel: an interval DP of
/// the matrix-chain kind, the shape of the paper's loop DPs, over fixed
/// weights in a table of `KERNEL_N`² words (200 KiB) that the caller
/// keeps, so it allocates nothing and touches no new page.
fn interval_dp(w: &[u64], c: &mut [u64]) -> u64 {
    const N: usize = KERNEL_N;
    for len in 1..N {
        for i in 0..N - len {
            let j = i + len;
            let mut best = u64::MAX;
            for k in i..j {
                best = best.min(c[i * N + k] + c[(k + 1) * N + j] + w[i] * w[k + 1] * w[j + 1]);
            }
            c[i * N + j] = best;
        }
    }
    c[N - 1]
}

/// The latency-bound half of the reference kernel: a chain of dependent
/// shifts and multiplies.
fn integer_chain() -> u64 {
    let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15_u64);
    for _ in 0..400_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    }
    x
}

/// The reference kernel. It is part of the benchmark, so no change to
/// the program changes its cost; only the machine's speed does. On the
/// reference machine its two halves take about the same time when the
/// host is quiet. A busy neighbour on the host slows the DP by up to
/// 1.75× and the chain hardly at all, so the kernel slows by up to
/// about 1.3×, roughly as the engine's own code does.
fn reference_kernel(w: &[u64], c: &mut [u64]) -> u64 {
    interval_dp(w, c) ^ integer_chain()
}

/// CPU milliseconds one run of the reference kernel takes on the
/// reference machine (a 2-vCPU Xeon VM, Sapphire Rapids) in the quietest
/// stretches seen on its host.
const REFERENCE_MS: f64 = 2.5;

/// Tracks the speed of the CPU the benchmark runs on.
///
/// On a shared host the same code runs slower by up to a third for
/// seconds to minutes at a time, while other tenants keep the core's
/// shared resources busy, and CPU time follows. So the benchmark times
/// the reference kernel about every 100 ms on the same CPU as the code
/// it measures, and scales each measured CPU time by `REFERENCE_MS` over
/// the kernel's median time around it: the result is the CPU time the
/// work would take on the reference machine with its host quiet.
pub struct Speed {
    start: Instant,
    next: Duration,
    /// The kernel's weights and DP table, the table page-aligned in
    /// `table_buf` so that every process maps it onto the same cache
    /// sets.
    weights: Vec<u64>,
    table_buf: Vec<u64>,
    table_at: usize,
    /// (seconds since `start`, kernel CPU milliseconds), in time order.
    samples: Vec<(f64, f64)>,
}

impl Speed {
    const EVERY: Duration = Duration::from_millis(100);
    /// Most kernel runs in one sample.
    const MAX_RUNS: usize = 10;
    /// Samples this far either side of a measurement set its scale.
    const REACH_S: f64 = 1.0;

    pub fn new() -> Speed {
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        let weights = (0..=KERNEL_N)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % 97 + 1
            })
            .collect();
        let table_buf = vec![0u64; KERNEL_N * KERNEL_N + 512];
        let table_at = table_buf.as_ptr().align_offset(4096);
        Speed {
            start: Instant::now(),
            next: Duration::ZERO,
            weights,
            // The diagonal stays 0; every other cell a run reads, it
            // has written first.
            table_buf,
            table_at,
            samples: Vec::new(),
        }
    }

    /// Seconds since the tracker started.
    pub fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Times the kernel once per 100 ms passed since it last ran, so it
    /// costs the same share of the time whether operations are short
    /// or long.
    pub fn tick(&mut self) -> Result<(), String> {
        let due = self.start.elapsed().saturating_sub(self.next);
        if self.start.elapsed() >= self.next {
            let runs = 1 + (due.as_secs_f64() / Self::EVERY.as_secs_f64()) as usize;
            self.sample(runs.min(Self::MAX_RUNS))?;
        }
        Ok(())
    }

    /// Runs `f`, which returns its value and the CPU milliseconds it
    /// took, between kernel samples; returns the value and the CPU time
    /// scaled to the reference machine, in milliseconds.
    pub fn scaled<T>(
        &mut self,
        f: impl FnOnce() -> Result<(T, f64), String>,
    ) -> Result<(T, f64), String> {
        self.sample(Self::MAX_RUNS)?;
        let t0 = self.now();
        let (value, ms) = f()?;
        let t1 = self.now();
        self.sample(Self::MAX_RUNS)?;
        Ok((value, ms * self.scale(t0, t1)))
    }

    /// Times the kernel `runs` times now.
    pub fn sample(&mut self, runs: usize) -> Result<(), String> {
        for _ in 0..runs {
            let w = std::hint::black_box(&self.weights[..]);
            let c = &mut self.table_buf[self.table_at..][..KERNEL_N * KERNEL_N];
            let (value, ms) = cpu_timed(None, || reference_kernel(w, c))?;
            std::hint::black_box(value);
            self.samples.push((self.now(), ms));
        }
        self.next = self.start.elapsed() + Self::EVERY;
        Ok(())
    }

    /// The factor that turns CPU time measured from `t0` to `t1`
    /// (seconds since the start) into reference-machine time.
    pub fn scale(&self, t0: f64, t1: f64) -> f64 {
        let from = self.samples.partition_point(|s| s.0 < t0 - Self::REACH_S);
        let to = self.samples.partition_point(|s| s.0 <= t1 + Self::REACH_S);
        let near: Vec<f64> = self.samples[from..to].iter().map(|s| s.1).collect();
        let kernel_ms = if near.is_empty() {
            median(&self.samples.iter().map(|s| s.1).collect::<Vec<_>>())
        } else {
            median(&near)
        };
        REFERENCE_MS / kernel_ms
    }
}

/// Peak resident set size (`VmHWM`) of `pid`, or of this process, in MiB.
pub fn peak_rss_mib(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM line in {path}"))?;
    Ok(kib / 1024.0)
}

/// What the seed commit's program returned for one input: its pool and
/// non-shared words, or the error code an invalid input must produce.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expect {
    Ok { pool: u64, nonshared: u64 },
    Error(String),
}

/// One workload's committed expected results, keyed by input label.
pub struct Expected {
    path: String,
    map: BTreeMap<String, Expect>,
}

impl Expected {
    pub fn load(dir: &Path, workload: &str) -> Result<Expected, String> {
        let path = dir.join(format!("{workload}.tsv"));
        let shown = path.display().to_string();
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {shown}: {e}"))?;
        let mut map = BTreeMap::new();
        for (i, line) in text.lines().enumerate() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let cols: Vec<&str> = line.split('\t').collect();
            let bad = || format!("{shown}:{}: malformed line {line:?}", i + 1);
            let expect = match cols.as_slice() {
                [_, "ok", pool, nonshared] => Expect::Ok {
                    pool: pool.parse().map_err(|_| bad())?,
                    nonshared: nonshared.parse().map_err(|_| bad())?,
                },
                [_, "error", code] => Expect::Error(code.to_string()),
                _ => return Err(bad()),
            };
            if map.insert(cols[0].to_string(), expect).is_some() {
                return Err(format!("{shown}:{}: duplicate key {}", i + 1, cols[0]));
            }
        }
        Ok(Expected { path: shown, map })
    }

    pub fn get(&self, key: &str) -> Result<&Expect, String> {
        self.map
            .get(key)
            .ok_or_else(|| format!("{} has no entry for input {key}", self.path))
    }

    /// Checks one observed result against the file.
    pub fn check(&self, key: &str, got: &Expect) -> Result<(), String> {
        let want = self.get(key)?;
        if want == got {
            Ok(())
        } else {
            Err(format!("{key}: expected {want:?}, got {got:?}"))
        }
    }

    /// Writes `entries` as the committed file for `workload`.
    pub fn write(dir: &Path, workload: &str, entries: &[(String, Expect)]) -> Result<(), String> {
        let mut text = format!(
            "# Expected results of the {workload} workload's inputs, recorded from the\n\
             # program with `perfbench --record-expected`. Columns: input, ok, pool words,\n\
             # non-shared words; or input, error, the error code an invalid input returns.\n"
        );
        for (key, expect) in entries {
            match expect {
                Expect::Ok { pool, nonshared } => {
                    let _ = writeln!(text, "{key}\tok\t{pool}\t{nonshared}");
                }
                Expect::Error(code) => {
                    let _ = writeln!(text, "{key}\terror\t{code}");
                }
            }
        }
        let path = dir.join(format!("{workload}.tsv"));
        std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

/// The metric table of one run, in insertion order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push('}');
        s
    }
}

/// The outcome of one benchmark run.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Wrong outputs: each makes the run incorrect.
    pub errors: Vec<String>,
    pub metrics: Metrics,
}

/// One measured window of closed-loop operations.
pub struct Window {
    pub speed: Speed,
    /// Per attempted operation: its start and end, in seconds on the
    /// `speed` clock, and the CPU milliseconds the synthesising process
    /// spent on it.
    pub ops: Vec<(f64, f64, f64)>,
    pub attempted: u64,
    pub succeeded: u64,
}

impl Window {
    pub fn new(speed: Speed) -> Window {
        Window {
            speed,
            ops: Vec::new(),
            attempted: 0,
            succeeded: 0,
        }
    }

    pub fn failed(&self) -> u64 {
        self.attempted - self.succeeded
    }

    /// Measures one operation: ticks the speed tracker, then runs `f`,
    /// which returns its value and the CPU milliseconds it took. An
    /// operation whose `f` fails counts as attempted, with no CPU time.
    pub fn measure<T>(
        &mut self,
        f: impl FnOnce() -> Result<(T, f64), String>,
    ) -> Result<T, String> {
        self.speed.tick()?;
        self.attempted += 1;
        let t0 = self.speed.now();
        let (value, cpu_ms) = f()?;
        self.ops.push((t0, self.speed.now(), cpu_ms));
        Ok(value)
    }

    /// The end-to-end metrics every workload reports; `setup_s` comes
    /// already scaled to the reference machine.
    pub fn end_to_end(
        &mut self,
        pool_words: u64,
        peak_rss_mib: f64,
        setup_s: f64,
    ) -> Result<Metrics, String> {
        self.speed.sample(Speed::MAX_RUNS)?;
        let kernel: Vec<f64> = self.speed.samples.iter().map(|s| s.1).collect();
        eprintln!(
            "perfbench: reference kernel {:.4} ms median over {} runs ({REFERENCE_MS} ms at reference speed)",
            median(&kernel),
            kernel.len()
        );
        let cpu: Vec<f64> = self
            .ops
            .iter()
            .map(|&(t0, t1, ms)| ms * self.speed.scale(t0, t1))
            .collect();
        let mut m = Metrics::default();
        m.put("op_cpu_p50_ms", quantile(&cpu, 0.5), "ms");
        m.put("op_cpu_p90_ms", quantile(&cpu, 0.9), "ms");
        m.put("op_cpu_mean_ms", mean(&cpu), "ms");
        m.put("pool_words", pool_words as f64, "words");
        m.put("peak_rss_mib", peak_rss_mib, "MiB");
        m.put("setup_s", setup_s, "s");
        m.put(
            "success_ratio",
            self.succeeded as f64 / self.attempted.max(1) as f64,
            "fraction",
        );
        Ok(m)
    }
}

/// Replaces every `"…_us":NUMBER` value with `#`, so two engine reports
/// of the same synthesis compare equal apart from their wall times.
pub fn mask_wall_times(json: &str) -> String {
    let mut out = String::with_capacity(json.len());
    let mut rest = json;
    while let Some(pos) = rest.find("_us\":") {
        let (head, tail) = rest.split_at(pos + "_us\":".len());
        out.push_str(head);
        let end = tail
            .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
            .unwrap_or(tail.len());
        out.push('#');
        rest = &tail[end..];
    }
    out.push_str(rest);
    out
}
