//! The in-process workloads, `table1` and `scale_256`: one client calling
//! `AnalysisBuilder::default()` back to back, in whole passes over the
//! workload's graphs, each pass in a new seeded order.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use sdf_alloc::validate_allocation;
use sdf_core::graph::SdfGraph;
use sdfmem::pipeline::Analysis;
use sdfmem::AnalysisBuilder;

use crate::common::{
    cpu_timed, median, peak_rss_mib, shuffle, timed, Expect, Expected, Outcome, Speed, SplitMix,
    Window,
};
use crate::layers::{add_counters, default_lattice, same_analysis, traced_run, LayerSums};
use crate::Config;

/// The workload's graphs, each under its expected-results key.
fn inputs(workload: &str) -> Vec<(String, SdfGraph)> {
    let graphs = match workload {
        "table1" => sdf_apps::registry::table1_systems(),
        _ => sdf_apps::scale::scale_systems(256),
    };
    graphs
        .into_iter()
        .map(|g| (format!("{workload}/{}", g.name()), g))
        .collect()
}

fn synthesize(g: &SdfGraph) -> Result<Analysis, String> {
    AnalysisBuilder::default().run(g).map_err(|e| e.to_string())
}

/// The expected-results row of one synthesis, after checking that its
/// allocation is valid for its own WIG.
fn observed(analysis: &Analysis) -> Result<Expect, String> {
    validate_allocation(&analysis.wig, &analysis.allocation)
        .map_err(|e| format!("invalid allocation: {e}"))?;
    Ok(Expect::Ok {
        pool: analysis.shared_total(),
        nonshared: analysis.nonshared_bufmem,
    })
}

pub fn record(workload: &str) -> Result<Vec<(String, Expect)>, String> {
    inputs(workload)
        .iter()
        .map(|(key, g)| Ok((key.clone(), observed(&synthesize(g)?)?)))
        .collect()
}

struct Setup {
    inputs: Vec<(String, SdfGraph)>,
    expected: Expected,
}

/// Builds the inputs, loads the expected results and warms up with one
/// untimed pass over the graphs.
fn set_up(cfg: &Config) -> Result<Setup, String> {
    let inputs = inputs(&cfg.workload);
    let expected = Expected::load(&cfg.expected_dir, &cfg.workload)?;
    for (_, g) in &inputs {
        black_box(synthesize(g)?);
    }
    Ok(Setup { inputs, expected })
}

/// Endless passes over `0..n`, each in a new order drawn from `seed`, so
/// no run depends on which graph happens to follow which.
fn passes(n: usize, seed: u64) -> impl Iterator<Item = Vec<usize>> {
    let mut rng = SplitMix::new(seed);
    std::iter::repeat_with(move || {
        let mut order: Vec<usize> = (0..n).collect();
        shuffle(&mut order, &mut rng);
        order
    })
}

/// Sets up `SETUPS` times and keeps the last, returning it with the
/// median set-up CPU time in seconds, scaled by `speed`.
fn set_up_repeatedly(cfg: &Config, speed: &mut Speed) -> Result<(Setup, f64), String> {
    let mut times = Vec::new();
    let mut setup = None;
    for _ in 0..crate::SETUPS {
        let (s, ms) = speed.scaled(|| cpu_timed(None, || set_up(cfg)))?;
        setup = Some(s?);
        times.push(ms / 1e3);
    }
    Ok((setup.expect("at least one set-up"), median(&times)))
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut speed = Speed::new();
    let (setup, setup_s) = set_up_repeatedly(cfg, &mut speed)?;
    let mut errors = Vec::new();
    let mut pools: BTreeMap<&str, u64> = BTreeMap::new();
    // Whole passes, so every run weighs every graph equally.
    let mut window = Window::new(speed);
    let start = Instant::now();
    for order in passes(setup.inputs.len(), cfg.seed) {
        if start.elapsed().as_secs_f64() >= cfg.seconds && window.attempted > 0 {
            break;
        }
        for i in order {
            let (key, g) = &setup.inputs[i];
            let result = window.measure(|| cpu_timed(None, || synthesize(black_box(g))))?;
            let checked = result.and_then(|a| {
                let got = observed(&a)?;
                setup.expected.check(key, &got)?;
                Ok(a.shared_total())
            });
            match checked {
                Ok(pool) => {
                    window.succeeded += 1;
                    pools.insert(key, pool);
                }
                Err(e) => errors.push(format!("{key}: {e}")),
            }
        }
    }
    let metrics = window.end_to_end(pools.values().sum(), peak_rss_mib(None)?, setup_s)?;
    Ok(Outcome {
        attempted: window.attempted,
        failed: window.failed(),
        errors,
        metrics,
    })
}

/// The traced run: per operation, the untraced engine call, the same
/// call under the program's own counters, and the step-by-step lattice,
/// whose winner must equal the untraced result bit for bit.
pub fn run_traced(cfg: &Config) -> Result<(Outcome, BTreeMap<&'static str, f64>), String> {
    let (setup, _) = set_up_repeatedly(cfg, &mut Speed::new())?;
    let mut errors = Vec::new();
    let mut sums = LayerSums::default();
    let (mut untraced_ms, mut traced_ms, mut ops, mut attempted) = (0.0, 0.0, 0u64, 0u64);
    let start = Instant::now();
    for order in passes(setup.inputs.len(), cfg.seed) {
        if start.elapsed().as_secs_f64() >= cfg.seconds && attempted > 0 {
            break;
        }
        for i in order {
            let (key, g) = &setup.inputs[i];
            attempted += 1;
            let (engine, ms) = timed(|| synthesize(g));
            let (_, ms_traced, counters) = traced_run(|| synthesize(g));
            let text = sdf_core::io::to_text(g);
            let mut layers = LayerSums::default();
            let checked = layers
                .time("core.parse_ms", || sdf_core::io::parse_graph(&text))
                .map_err(|e| e.to_string())
                .and_then(|_| default_lattice(g, &mut layers))
                .and_then(|composed| {
                    let engine = engine?;
                    same_analysis(&composed, &engine)?;
                    setup.expected.check(key, &observed(&engine)?)
                });
            match checked {
                Ok(()) => {
                    add_counters(&mut layers, &counters);
                    sums.add_scaled(&layers, 1.0);
                    untraced_ms += ms;
                    traced_ms += ms_traced;
                    ops += 1;
                }
                Err(e) => errors.push(format!("{key}: {e}")),
            }
        }
    }
    let n = ops.max(1) as f64;
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    // Parsing is not on the engine's path: report it, but keep it out of
    // the layer sum.
    let parse_ms = sums.ms.remove("core.parse_ms").unwrap_or(0.0);
    for (k, v) in sums.ms.iter().chain(&sums.counts) {
        out.insert(k, v / n);
    }
    out.insert("core.parse_ms", parse_ms / n);
    out.insert("engine.e2e_ms", untraced_ms / n);
    out.insert(
        "engine.unattributed_ms",
        (untraced_ms - sums.total_ms()) / n,
    );
    out.insert(
        "trace.overhead_pct",
        (traced_ms - untraced_ms) / untraced_ms * 100.0,
    );
    let outcome = Outcome {
        attempted,
        failed: attempted - ops,
        errors,
        metrics: Default::default(),
    };
    Ok((outcome, out))
}
