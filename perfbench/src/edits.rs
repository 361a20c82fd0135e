//! `edit_session`: a real `sdfmem serve` daemon, one connection, a
//! seeded stream of `edit` requests on `scale_chain_128`.
//!
//! The stream is do/undo pairs. A pair changes one edge — its delay by
//! one to three sink firings, or both its rates by a factor of two or
//! three, which keeps the repetitions vector — and then restores it.
//! Each request's base graph is the previous result, so the daemon
//! serves it from the live edit session. The inputs are a fixed set of
//! 160 such edits, five on every fourth edge; the seed chooses their
//! order. A run is made of whole rounds: each starts a fresh daemon,
//! seeds its session and sends all 320 distinct requests once, so no
//! request of a round hits the result cache.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use sdf_core::graph::SdfGraph;
use sdf_service::{execute_request, ServiceRequest, ServiceResponse};
use sdfmem::incremental::apply_edits;
use sdfmem::{AnalysisBuilder, EditScript, IncrementalSession, SynthesisOptions};

use crate::common::{mean, shuffle, timed, Expect, Expected, Outcome, Speed, SplitMix, Window};
use crate::daemon::{
    observe_payload, parse_reply, service_layers, set_up_repeatedly, Daemon, Sample, Verdict,
};
use crate::layers::{add_counters, default_lattice, same_analysis, traced_run, LayerSums};
use crate::Config;

const CHAIN: usize = 128;
/// Every `EDGE_STRIDE`-th edge of the chain is edited.
const EDGE_STRIDE: usize = 4;
const BASE_KEY: &str = "edit/base";
/// Distinct results checked against a cold in-process run per run.
const COLD_CHECKS: usize = 24;
/// Requests the traced run replays through an in-process session.
const REPLAYED: usize = 128;
/// Edited graphs the traced run synthesises cold, layer by layer.
const COLD_LAYERED: usize = 8;

/// One request of the stream.
struct Step {
    /// Expected-results key of the request's result.
    key: String,
    base_text: String,
    script: String,
    line: String,
}

impl Step {
    fn new(key: String, base_text: String, script: String) -> Step {
        let line = request(&base_text, &script).to_json(&key);
        Step {
            key,
            base_text,
            script,
            line,
        }
    }
}

fn request(graph: &str, edits: &str) -> ServiceRequest {
    ServiceRequest::Edit {
        graph: graph.to_string(),
        edits: edits.to_string(),
    }
}

/// The fixed edit set: `steps[0]` is a no-op edit that seeds the
/// session; then each edit is a do step followed by its undo step.
struct Universe {
    base: SdfGraph,
    steps: Vec<Step>,
}

impl Universe {
    fn build() -> Result<Universe, String> {
        let base = sdf_apps::scale::scale_chain(CHAIN);
        let base_text = sdf_core::io::to_text(&base);
        let mut steps = Vec::new();
        for (idx, (_, e)) in base.edges().enumerate() {
            let (src, snk) = (base.actor_name(e.src), base.actor_name(e.snk));
            let restore_delay = format!("set-delay {src} {snk} {}\n", e.delay);
            if idx == 0 {
                steps.push(Step::new(
                    BASE_KEY.to_string(),
                    base_text.clone(),
                    restore_delay.clone(),
                ));
            }
            if idx % EDGE_STRIDE != 0 {
                continue;
            }
            let restore_rate = format!("set-rate {src} {snk} {} {}\n", e.prod, e.cons);
            let mut pairs = Vec::new();
            for m in 1..=3 {
                let delay = e.delay + e.cons * m;
                pairs.push((
                    format!("edit/{idx:03}/delay+{m}"),
                    format!("set-delay {src} {snk} {delay}\n"),
                    restore_delay.clone(),
                ));
            }
            for k in 2..=3 {
                pairs.push((
                    format!("edit/{idx:03}/rate*{k}"),
                    format!("set-rate {src} {snk} {} {}\n", e.prod * k, e.cons * k),
                    restore_rate.clone(),
                ));
            }
            for (key, apply, restore) in pairs {
                let script = EditScript::parse(&apply)?;
                let edited = apply_edits(&base, &script).map_err(|e| e.to_string())?;
                let edited_text = sdf_core::io::to_text(&edited);
                steps.push(Step::new(key, base_text.clone(), apply));
                steps.push(Step::new(BASE_KEY.to_string(), edited_text, restore));
            }
        }
        Ok(Universe { base, steps })
    }

    fn pairs(&self) -> usize {
        (self.steps.len() - 1) / 2
    }

    /// The step indices of pair `p`: do, then undo.
    fn pair(&self, p: usize) -> [usize; 2] {
        [1 + 2 * p, 2 + 2 * p]
    }
}

fn in_process(step: &Step) -> Result<String, String> {
    match execute_request(&request(&step.base_text, &step.script)) {
        ServiceResponse::Ok(payload) => Ok(payload.to_json()),
        ServiceResponse::Err(e) => Err(format!("{}: {}", e.code.as_str(), e.message)),
        ServiceResponse::Rejected { message } => Err(message),
    }
}

pub fn record() -> Result<Vec<(String, Expect)>, String> {
    let universe = Universe::build()?;
    let mut out = BTreeMap::new();
    for step in &universe.steps {
        if !out.contains_key(&step.key) {
            let payload = in_process(step).map_err(|e| format!("{}: {e}", step.key))?;
            out.insert(step.key.clone(), observe_payload(&payload)?);
        }
    }
    Ok(out.into_iter().collect())
}

struct Setup {
    universe: Universe,
    expected: Expected,
}

struct Run {
    window: Window,
    errors: Vec<String>,
    rejected: u64,
    /// Steps in the order they were sent.
    sent: Vec<usize>,
    /// The first payload per distinct step.
    first: BTreeMap<usize, String>,
    samples: Vec<Sample>,
    peak_rss_mib: f64,
    setup_s: f64,
}

/// Sends the seeding edit: the daemon synthesises the base graph cold
/// and opens the session the stream chains onto.
fn seed_session(daemon: &Daemon, universe: &Universe) -> Result<(), String> {
    let (line, _) = daemon.connect()?.round_trip(&universe.steps[0].line)?;
    match parse_reply(&line)?.status.as_str() {
        "ok" => Ok(()),
        other => Err(format!("seeding edit answered {other}")),
    }
}

/// Sets up, then runs rounds until the window has passed: each round is
/// a freshly started, freshly seeded daemon taking every edit pair once,
/// in a new seeded order. Every round thus starts with a cold DP memo
/// store, as a new session on a new daemon does, and every run weighs
/// cold and warm edits alike.
fn drive_window(cfg: &Config) -> Result<(Setup, Run), String> {
    let mut speed = Speed::new();
    let (daemon, setup, setup_s) = set_up_repeatedly(
        cfg,
        &mut speed,
        || {
            Ok(Setup {
                universe: Universe::build()?,
                expected: Expected::load(&cfg.expected_dir, &cfg.workload)?,
            })
        },
        |daemon, setup: &Setup| seed_session(daemon, &setup.universe),
    )?;
    let universe = &setup.universe;
    let mut rng = SplitMix::new(cfg.seed);
    let mut run = Run {
        window: Window::new(speed),
        errors: Vec::new(),
        rejected: 0,
        sent: Vec::new(),
        first: BTreeMap::new(),
        samples: Vec::new(),
        peak_rss_mib: 0.0,
        setup_s,
    };
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    let mut daemon = Some(daemon);
    'rounds: while run.window.attempted == 0 || Instant::now() < deadline {
        let daemon = match daemon.take() {
            Some(daemon) => daemon,
            None => {
                let fresh = Daemon::start(cfg.sdfmem()?, &cfg.workdir)?;
                seed_session(&fresh, universe)?;
                fresh
            }
        };
        let mut order: Vec<usize> = (0..universe.pairs()).collect();
        shuffle(&mut order, &mut rng);
        let mut conn = daemon.connect()?;
        let pid = daemon.pid();
        let mut lost = false;
        'pairs: for p in order {
            for id in universe.pair(p) {
                let step = &universe.steps[id];
                run.sent.push(id);
                let trip = || conn.measured_trip(&step.line, pid);
                let (line, rtt_ms) = match run.window.measure(trip) {
                    Ok(answer) => answer,
                    Err(e) => {
                        run.errors.push(format!("{}: {e}", step.key));
                        lost = true;
                        break 'pairs;
                    }
                };
                let reply = match parse_reply(&line) {
                    Ok(reply) => reply,
                    Err(e) => {
                        run.errors.push(format!("{}: {e}", step.key));
                        continue;
                    }
                };
                let verdict = match (reply.status.as_str(), &reply.payload) {
                    ("ok", Some(payload)) => match run.first.get(&id) {
                        None => {
                            run.first.insert(id, payload.clone());
                            Verdict::Ok
                        }
                        Some(first) if first == payload => Verdict::Ok,
                        Some(_) => Verdict::Wrong("payload differs from the first response".into()),
                    },
                    ("rejected", _) => {
                        run.rejected += 1;
                        Verdict::Failed
                    }
                    (status, _) => {
                        Verdict::Wrong(format!("status {status}, code {:?}", reply.error_code))
                    }
                };
                match verdict {
                    Verdict::Ok => run.window.succeeded += 1,
                    Verdict::Failed => {}
                    Verdict::Wrong(e) => run.errors.push(format!("{}: {e}", step.key)),
                }
                if cfg.trace {
                    run.samples.push(Sample::new(id, rtt_ms, &reply));
                }
            }
        }
        // A daemon that died mid-run fails the run as a wrong output,
        // with whatever was measured until then.
        match daemon.peak_rss_mib() {
            Ok(mib) => run.peak_rss_mib = run.peak_rss_mib.max(mib),
            Err(e) => run.errors.push(e),
        }
        if let Err(e) = daemon.stop() {
            run.errors.push(e);
        }
        if lost {
            break 'rounds;
        }
    }
    Ok((setup, run))
}

/// Checks each distinct result against the expected words, and a seeded
/// sample of them against a cold in-process run, byte for byte. Returns
/// the pool words summed over the distinct results.
fn check_payloads(cfg: &Config, setup: &Setup, run: &Run, errors: &mut Vec<String>) -> u64 {
    let steps = &setup.universe.steps;
    // Every step but the seeding one is sent inside the window.
    if run.first.len() != steps.len() - 1 {
        errors.push(format!(
            "only {} of {} edit requests answered",
            run.first.len(),
            steps.len() - 1
        ));
    }
    let mut pools: BTreeMap<&str, u64> = BTreeMap::new();
    for (&id, payload) in &run.first {
        let key = steps[id].key.as_str();
        match observe_payload(payload).and_then(|got| {
            setup.expected.check(key, &got)?;
            Ok(got)
        }) {
            Ok(Expect::Ok { pool, .. }) => {
                pools.insert(key, pool);
            }
            Ok(Expect::Error(_)) => {}
            Err(e) => errors.push(e),
        }
    }
    let mut sample: Vec<usize> = run.first.keys().copied().collect();
    shuffle(&mut sample, &mut SplitMix::new(cfg.seed ^ 0xc01d));
    for id in sample.into_iter().take(COLD_CHECKS) {
        let step = &steps[id];
        match in_process(step) {
            Ok(cold) if cold == run.first[&id] => {}
            Ok(_) => errors.push(format!(
                "{}: daemon payload differs from a cold run",
                step.key
            )),
            Err(e) => errors.push(format!("{}: cold run failed: {e}", step.key)),
        }
    }
    pools.values().sum()
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let (setup, mut run) = drive_window(cfg)?;
    let mut errors = std::mem::take(&mut run.errors);
    let pool_words = check_payloads(cfg, &setup, &run, &mut errors);
    Ok(Outcome {
        attempted: run.window.attempted,
        failed: run.window.failed(),
        errors,
        metrics: run
            .window
            .end_to_end(pool_words, run.peak_rss_mib, run.setup_s)?,
    })
}

/// The traced run: the same window with each response's telemetry; then
/// the first requests replayed through an in-process
/// `IncrementalSession`, and a few of their edited graphs synthesised
/// cold — untraced, under the program's counters, and layer by layer.
/// Warm results must equal the cold ones bit for bit.
pub fn run_traced(cfg: &Config) -> Result<(Outcome, BTreeMap<&'static str, f64>), String> {
    let (setup, mut run) = drive_window(cfg)?;
    let mut errors = std::mem::take(&mut run.errors);
    check_payloads(cfg, &setup, &run, &mut errors);
    let mut out = BTreeMap::new();
    service_layers(&run.samples, run.rejected, &mut out);

    let universe = &setup.universe;
    let mut session = IncrementalSession::new(SynthesisOptions::default());
    session
        .synthesize(&universe.base)
        .map_err(|e| format!("seeding the in-process session: {e}"))?;
    let mut layers = LayerSums::default();
    let (mut edit_ms, mut reused, mut placed) = (Vec::new(), 0.0, 0.0);
    let (mut memo_hits, mut memo_misses) = (0u64, 0u64);
    let mut warm_results = Vec::new();
    for &id in run.sent.iter().take(REPLAYED) {
        let step = &universe.steps[id];
        layers
            .time("core.parse_ms", || {
                sdf_core::io::parse_graph(&step.base_text)
            })
            .map_err(|e| e.to_string())?;
        let script = EditScript::parse(&step.script)?;
        let (result, ms) = timed(|| session.apply_edits(&script));
        let result = result.map_err(|e| format!("{}: in-process edit: {e}", step.key))?;
        edit_ms.push(ms);
        reused += result.stats.lifetimes_reused as f64;
        placed += result.stats.placements_reused as f64;
        memo_hits += result.stats.memo_hits;
        memo_misses += result.stats.memo_misses;
        let graph = session.graph().expect("seeded session").clone();
        let plan = layers
            .time("codegen.lower_ms", || result.plan(&graph))
            .map_err(|e| e.to_string())?;
        layers.count("codegen.plan_ops", plan.ops.len() as f64);
        if step.key != BASE_KEY && warm_results.len() < COLD_LAYERED {
            warm_results.push((step.key.clone(), graph, result.analysis));
        }
    }
    let replayed = edit_ms.len().max(1) as f64;

    let mut cold = LayerSums::default();
    let (mut cold_ms, mut traced_ms) = (0.0, 0.0);
    for (key, graph, warm) in &warm_results {
        let (engine, ms) = timed(|| AnalysisBuilder::default().run(graph));
        let (_, ms_traced, counters) = traced_run(|| AnalysisBuilder::default().run(graph));
        let checked = engine.map_err(|e| e.to_string()).and_then(|engine| {
            same_analysis(warm, &engine).map_err(|e| format!("warm vs cold: {e}"))?;
            let composed = default_lattice(graph, &mut cold)?;
            same_analysis(&composed, &engine)
        });
        if let Err(e) = checked {
            errors.push(format!("{key}: {e}"));
        }
        add_counters(&mut cold, &counters);
        cold_ms += ms;
        traced_ms += ms_traced;
    }
    let n_cold = warm_results.len().max(1) as f64;
    for (k, v) in cold.ms.iter().chain(&cold.counts) {
        out.insert(k, v / n_cold);
    }
    for (k, v) in layers.ms.iter().chain(&layers.counts) {
        out.insert(k, v / replayed);
    }
    let warm = mean(&edit_ms);
    out.insert("incremental.edit_ms", warm);
    out.insert("incremental.cold_ms", cold_ms / n_cold);
    out.insert("incremental.warm_cold_ratio", warm / (cold_ms / n_cold));
    out.insert("incremental.lifetimes_reused", reused / replayed);
    out.insert("incremental.placements_reused", placed / replayed);
    out.insert(
        "sched.memo.hit_ratio",
        memo_hits as f64 / (memo_hits + memo_misses).max(1) as f64,
    );
    out.insert("engine.e2e_ms", cold_ms / n_cold);
    out.insert(
        "engine.unattributed_ms",
        (cold_ms - cold.total_ms()) / n_cold,
    );
    out.insert(
        "trace.overhead_pct",
        (traced_ms - cold_ms) / cold_ms * 100.0,
    );
    let outcome = Outcome {
        attempted: run.window.attempted,
        failed: run.window.failed(),
        errors,
        metrics: Default::default(),
    };
    Ok((outcome, out))
}
