//! `perfbench` — the sdfmem benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --sdfmem PATH
//!           [--expected-dir DIR] [--workdir DIR] [--record-expected]
//!           [--commit C --rustc V --source-digest D --nproc N]
//! ```
//!
//! Runs one workload for at least `S` seconds, checks every output
//! against the committed expected results, and prints a provenance
//! record line followed, as the last line, by the result object. With
//! `--trace 0` the result carries the end-to-end metrics; with
//! `--trace 1` the per-layer metrics of a separate traced run. Exit code
//! 0 when every output was correct, 1 when some output was wrong, 2 when
//! the run could not be made.

mod common;
mod daemon;
mod edits;
mod inproc;
mod layers;
mod mix;

use std::collections::BTreeMap;
use std::path::PathBuf;

use common::{Metrics, Outcome};

const WORKLOADS: &[&str] = &["table1", "scale_256", "daemon_mix", "edit_session"];

/// Set-up runs this many times per run; `setup_s` is the median and the
/// last set-up is the one measured.
pub const SETUPS: usize = 5;

/// The per-layer metrics a traced run reports, with their units. A
/// workload that does not exercise a layer reports it as 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.parse_ms", "ms"),
    ("core.repetitions_ms", "ms"),
    ("sched.order_ms", "ms"),
    ("sched.chain_tables_ms", "ms"),
    ("sched.dppo_ms", "ms"),
    ("sched.sdppo_ms", "ms"),
    ("sched.dppo.split_probes", "count"),
    ("sched.sdppo.split_probes", "count"),
    ("sched.memo.hit_ratio", "fraction"),
    ("lifetime.tree_ms", "ms"),
    ("lifetime.wig_ms", "ms"),
    ("lifetime.clique_ms", "ms"),
    ("lifetime.occupancy_ms", "ms"),
    ("lifetime.wig.conflicts", "count"),
    ("alloc.first_fit_ms", "ms"),
    ("alloc.validate_ms", "ms"),
    ("alloc.first_fit.probes", "count"),
    ("codegen.lower_ms", "ms"),
    ("codegen.exec_ms", "ms"),
    ("codegen.plan_ops", "count"),
    ("codegen.exec.firings", "count"),
    ("engine.e2e_ms", "ms"),
    ("engine.unattributed_ms", "ms"),
    ("engine.candidates", "count"),
    ("incremental.edit_ms", "ms"),
    ("incremental.cold_ms", "ms"),
    ("incremental.warm_cold_ratio", "ratio"),
    ("incremental.lifetimes_reused", "count"),
    ("incremental.placements_reused", "count"),
    ("modes.synth_ms", "ms"),
    ("service.queue_wait_ms", "ms"),
    ("service.exec_ms", "ms"),
    ("service.wire_ms", "ms"),
    ("service.cache.hit_ratio", "fraction"),
    ("service.rejected", "count"),
    ("service.payload_bytes", "bytes"),
    ("trace.overhead_pct", "%"),
];

/// Everything a workload needs to know about its run.
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sdfmem: Option<PathBuf>,
    pub expected_dir: PathBuf,
    pub workdir: PathBuf,
}

impl Config {
    pub fn sdfmem(&self) -> Result<&PathBuf, String> {
        self.sdfmem
            .as_ref()
            .ok_or_else(|| "this workload needs --sdfmem PATH".to_string())
    }
}

struct Args {
    cfg: Config,
    record_expected: bool,
    provenance: Vec<(&'static str, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut sdfmem = None;
    let mut expected_dir = PathBuf::from("perfbench/expected");
    let mut workdir = PathBuf::from(".bench_build/perfbench-run");
    let mut record_expected = false;
    let mut provenance = Vec::new();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace {other} (0 or 1)")),
                })
            }
            "--sdfmem" => sdfmem = Some(PathBuf::from(value()?)),
            "--expected-dir" => expected_dir = PathBuf::from(value()?),
            "--workdir" => workdir = PathBuf::from(value()?),
            "--record-expected" => record_expected = true,
            "--commit" => provenance.push(("commit", value()?)),
            "--rustc" => provenance.push(("rustc", value()?)),
            "--source-digest" => provenance.push(("source_digest", value()?)),
            "--nproc" => provenance.push(("nproc", value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    if !record_expected && (seed.is_none() || seconds.is_none()) {
        return Err("--seed and --seconds are required".to_string());
    }
    let cfg = Config {
        workload,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(0.0),
        trace: trace.unwrap_or(false),
        sdfmem,
        expected_dir,
        workdir,
    };
    Ok(Args {
        cfg,
        record_expected,
        provenance,
    })
}

fn run(cfg: &Config) -> Result<Outcome, String> {
    let workload = cfg.workload.as_str();
    if !cfg.trace {
        return match workload {
            "table1" | "scale_256" => inproc::run(cfg),
            "daemon_mix" => mix::run(cfg),
            _ => edits::run(cfg),
        };
    }
    let (mut outcome, layers) = match workload {
        "table1" | "scale_256" => inproc::run_traced(cfg)?,
        "daemon_mix" => mix::run_traced(cfg)?,
        _ => edits::run_traced(cfg)?,
    };
    if let Some(extra) = layers
        .keys()
        .find(|k| !PER_LAYER.iter().any(|(n, _)| n == *k))
    {
        return Err(format!(
            "internal: layer metric {extra} is not in the table"
        ));
    }
    let mut metrics = Metrics::default();
    for (name, unit) in PER_LAYER {
        metrics.put(name, layers.get(name).copied().unwrap_or(0.0), unit);
    }
    outcome.metrics = metrics;
    Ok(outcome)
}

fn record(cfg: &Config) -> Result<(), String> {
    let entries = match cfg.workload.as_str() {
        "table1" | "scale_256" => inproc::record(&cfg.workload)?,
        "daemon_mix" => mix::record()?,
        _ => edits::record()?,
    };
    common::Expected::write(&cfg.expected_dir, &cfg.workload, &entries)?;
    eprintln!(
        "recorded {} expected results for {}",
        entries.len(),
        cfg.workload
    );
    Ok(())
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", sdf_trace::json::escape(s))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let cfg = &args.cfg;
    if args.record_expected {
        if let Err(e) = record(cfg) {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
        return;
    }
    if let Err(e) = std::fs::create_dir_all(&cfg.workdir) {
        eprintln!("perfbench: cannot create {}: {e}", cfg.workdir.display());
        std::process::exit(2);
    }
    let outcome = match run(cfg) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    for e in outcome.errors.iter().take(20) {
        eprintln!("perfbench: wrong output: {e}");
    }
    let correct = outcome.errors.is_empty();
    let engine_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut record: BTreeMap<&str, String> = BTreeMap::new();
    record.insert("workload", json_str(&cfg.workload));
    record.insert("seed", cfg.seed.to_string());
    record.insert("seconds", cfg.seconds.to_string());
    record.insert("trace", cfg.trace.to_string());
    record.insert("engine_threads", engine_threads.to_string());
    record.insert("operations", outcome.attempted.to_string());
    for (key, value) in &args.provenance {
        record.insert(key, json_str(value));
    }
    let record: Vec<String> = record
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!("{{\"record\": {{{}}}}}", record.join(", "));
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        outcome.metrics.to_json()
    );
    if !correct {
        std::process::exit(1);
    }
}
