//! `daemon_mix`: a real `sdfmem serve` daemon, one connection, a closed
//! loop over a seeded mix of `analyze`, `simulate`, `explain` and `modes`
//! requests.
//!
//! Every 20 requests hold 8 repeats of a small hot set (Table 1 graphs
//! of at most 44 actors and the two `.sdfm` scenarios), 11 fresh random
//! graphs and 1 invalid request. The inputs are a fixed set; the seed
//! chooses the order through them. The connection cycles through the 384
//! fresh graphs, so a fresh request comes back only after more than the
//! daemon's 256 cache entries have been inserted, and misses the LRU
//! cache every time, while each hot request comes back within about 80
//! requests and hits. One request is in flight at a time, so the
//! daemon's CPU time between sending a request and reading its answer is
//! that request's cost.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::time::{Duration, Instant};

use rand::SeedableRng;
use sdf_apps::random::{random_sdf_graph, RandomGraphConfig};
use sdf_service::{execute_request, MemoryModel, OrderMethod, ServiceRequest, ServiceResponse};

use crate::common::{
    mask_wall_times, mean, ns_to_ms, shuffle, timed, Expect, Expected, Outcome, Speed, SplitMix,
    Window,
};
use crate::daemon::{
    observe_payload, parse_reply, service_layers, set_up_repeatedly, Daemon, Sample, Verdict,
};
use crate::layers::{add_counters, replay_request, traced_run, LayerSums};
use crate::Config;

const FRESH_GRAPHS: usize = 384;
const HOT_MAX_ACTORS: usize = 44;

#[derive(Clone, Copy)]
enum Op {
    Analyze,
    Simulate(MemoryModel, OrderMethod),
    Explain,
}

const OPS: [Op; 6] = [
    Op::Analyze,
    Op::Simulate(MemoryModel::Shared, OrderMethod::Apgan),
    Op::Simulate(MemoryModel::NonShared, OrderMethod::Rpmc),
    Op::Explain,
    Op::Simulate(MemoryModel::Shared, OrderMethod::Rpmc),
    Op::Simulate(MemoryModel::NonShared, OrderMethod::Apgan),
];

impl Op {
    fn label(self) -> String {
        match self {
            Op::Analyze => "analyze".to_string(),
            Op::Simulate(model, method) => {
                format!("simulate-{}-{}", model.as_str(), method.as_str())
            }
            Op::Explain => "explain".to_string(),
        }
    }

    fn request(self, graph: String) -> ServiceRequest {
        match self {
            Op::Analyze => ServiceRequest::Analyze {
                graph,
                serial: false,
                full: false,
            },
            Op::Simulate(model, method) => ServiceRequest::Simulate {
                graph,
                method,
                model,
            },
            Op::Explain => ServiceRequest::Explain { graph },
        }
    }
}

/// One request of the workload's fixed input set.
pub struct Item {
    pub key: String,
    /// `None` for the malformed wire line.
    pub request: Option<ServiceRequest>,
    /// The wire line sent.
    pub line: String,
}

impl Item {
    fn new(key: String, request: ServiceRequest) -> Item {
        let line = request.to_json(&key);
        Item {
            key,
            request: Some(request),
            line,
        }
    }
}

/// The fixed input set: hot items, then fresh, then invalid.
struct Universe {
    items: Vec<Item>,
    hot: usize,
}

impl Universe {
    fn build() -> Universe {
        let mut items = Vec::new();
        let small = sdf_apps::registry::table1_systems()
            .into_iter()
            .filter(|g| g.actor_count() <= HOT_MAX_ACTORS);
        for (j, g) in small.enumerate() {
            for op in [OPS[j % OPS.len()], OPS[(j + 3) % OPS.len()]] {
                let key = format!("hot/{}/{}", g.name(), op.label());
                items.push(Item::new(key, op.request(sdf_core::io::to_text(&g))));
            }
        }
        for (name, mg) in sdf_apps::modes::mode_graphs() {
            let graph = sdf_core::mode::to_mode_text(&mg);
            items.push(Item::new(
                format!("hot/{name}/modes"),
                ServiceRequest::Modes { graph },
            ));
        }
        let hot = items.len();
        for i in 0..FRESH_GRAPHS {
            let mut rng = rand::rngs::StdRng::seed_from_u64(0xf7e5_0000 + i as u64);
            let config = RandomGraphConfig::paper_style(20 + i % 21);
            let text = sdf_core::io::to_text(&random_sdf_graph(&config, &mut rng));
            // Distinct names keep every fresh input recognisable.
            let body = text.split_once('\n').map_or("", |(_, body)| body);
            let graph = format!("graph fresh_{i}\n{body}");
            let op = OPS[i % OPS.len()];
            items.push(Item::new(
                format!("fresh/{i}/{}", op.label()),
                op.request(graph),
            ));
        }
        let analyze = |graph: &str| ServiceRequest::Analyze {
            graph: graph.to_string(),
            serial: false,
            full: false,
        };
        items.push(Item::new(
            "invalid/inconsistent_rates".to_string(),
            analyze("graph inconsistent\nedge A B 2 1\nedge B C 1 1\nedge A C 1 1\n"),
        ));
        items.push(Item::new(
            "invalid/unparsable_graph".to_string(),
            analyze("graph unparsable\nedge A B two 1\n"),
        ));
        items.push(Item {
            key: "invalid/malformed_line".to_string(),
            request: None,
            line: "{\"kind\":\"service_request\",\"op\":".to_string(),
        });
        Universe { items, hot }
    }

    fn hot_ids(&self) -> std::ops::Range<usize> {
        0..self.hot
    }

    fn fresh_ids(&self) -> std::ops::Range<usize> {
        self.hot..self.hot + FRESH_GRAPHS
    }

    fn invalid_ids(&self) -> std::ops::Range<usize> {
        self.hot + FRESH_GRAPHS..self.items.len()
    }
}

/// What the program answers for `item` in process.
fn in_process(item: &Item) -> Result<Result<String, String>, String> {
    match &item.request {
        None => match ServiceRequest::parse(&item.line) {
            Ok(_) => Err(format!("{}: malformed line parsed", item.key)),
            Err(e) => Ok(Err(e.code.as_str().to_string())),
        },
        Some(request) => Ok(match execute_request(request) {
            ServiceResponse::Ok(payload) => Ok(payload.to_json()),
            ServiceResponse::Err(e) => Err(e.code.as_str().to_string()),
            ServiceResponse::Rejected { .. } => Err("rejected".to_string()),
        }),
    }
}

pub fn record() -> Result<Vec<(String, Expect)>, String> {
    let universe = Universe::build();
    universe
        .items
        .iter()
        .map(|item| {
            let expect = match in_process(item)? {
                Ok(payload) => observe_payload(&payload)?,
                Err(code) => Expect::Error(code),
            };
            Ok((item.key.clone(), expect))
        })
        .collect()
}

/// The connection's seeded request order.
struct Stream {
    hot: Vec<usize>,
    fresh: Vec<usize>,
    invalid: Vec<usize>,
    sent: usize,
    hot_sent: usize,
    fresh_sent: usize,
}

impl Stream {
    fn new(universe: &Universe, seed: u64) -> Stream {
        let mut rng = SplitMix::new(seed);
        let mut hot: Vec<usize> = universe.hot_ids().collect();
        let mut fresh: Vec<usize> = universe.fresh_ids().collect();
        shuffle(&mut hot, &mut rng);
        shuffle(&mut fresh, &mut rng);
        Stream {
            hot,
            fresh,
            invalid: universe.invalid_ids().collect(),
            sent: 0,
            hot_sent: 0,
            fresh_sent: 0,
        }
    }

    fn next(&mut self) -> usize {
        let slot = self.sent % 20;
        self.sent += 1;
        if slot == 19 {
            self.invalid[(self.sent / 20) % self.invalid.len()]
        } else if matches!(slot % 5, 0 | 2) {
            self.hot_sent += 1;
            self.hot[(self.hot_sent - 1) % self.hot.len()]
        } else {
            self.fresh_sent += 1;
            self.fresh[(self.fresh_sent - 1) % self.fresh.len()]
        }
    }

    /// Whether every input has been sent at least once.
    fn covered(&self) -> bool {
        self.hot_sent >= self.hot.len() && self.fresh_sent >= self.fresh.len()
    }
}

struct ConnResult {
    window: Window,
    rejected: u64,
    errors: Vec<String>,
    /// The first payload seen per item; later ones must equal it, apart
    /// from engine wall times when a request missed the cache again.
    first: HashMap<usize, String>,
    /// Payload digests of `analyze` cache misses and hits: every hit
    /// must repeat, byte for byte, a miss of the same request.
    misses: HashSet<(usize, u64)>,
    hits: Vec<(usize, u64)>,
    samples: Vec<Sample>,
}

fn digest(payload: &str) -> u64 {
    let mut h = DefaultHasher::new();
    payload.hash(&mut h);
    h.finish()
}

fn is_analyze(item: &Item) -> bool {
    matches!(item.request, Some(ServiceRequest::Analyze { .. }))
}

/// Whether two payloads of `item` carry the same result: identical
/// bytes, except for an engine report's wall times.
fn same_result(item: &Item, a: &str, b: &str) -> bool {
    if is_analyze(item) {
        mask_wall_times(a) == mask_wall_times(b)
    } else {
        a == b
    }
}

/// Drives one connection to `daemon` in a closed loop for the window.
fn drive(
    cfg: &Config,
    daemon: &Daemon,
    setup: &Setup,
    window: Window,
) -> Result<ConnResult, String> {
    let (universe, expected) = (&setup.universe, &setup.expected);
    let mut conn = daemon.connect()?;
    let pid = daemon.pid();
    let mut stream = Stream::new(universe, cfg.seed);
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    let mut out = ConnResult {
        window,
        rejected: 0,
        errors: Vec::new(),
        first: HashMap::new(),
        misses: HashSet::new(),
        hits: Vec::new(),
        samples: Vec::new(),
    };
    while Instant::now() < deadline || !stream.covered() {
        let id = stream.next();
        let item = &universe.items[id];
        let trip = || conn.measured_trip(&item.line, pid);
        let (line, rtt_ms) = match out.window.measure(trip) {
            Ok(answer) => answer,
            Err(e) => {
                out.errors.push(format!("{}: {e}", item.key));
                break;
            }
        };
        let reply = match parse_reply(&line) {
            Ok(reply) => reply,
            Err(e) => {
                out.errors.push(format!("{}: {e}", item.key));
                continue;
            }
        };
        let valid = id < universe.invalid_ids().start;
        let verdict = match (reply.status.as_str(), &reply.payload) {
            ("rejected", _) => {
                out.rejected += 1;
                Verdict::Failed
            }
            ("ok", Some(payload)) if valid => {
                if is_analyze(item) {
                    let d = (id, digest(payload));
                    if reply.cached {
                        out.hits.push(d);
                    } else {
                        out.misses.insert(d);
                    }
                }
                match out.first.get(&id) {
                    None => {
                        out.first.insert(id, payload.clone());
                        Verdict::Ok
                    }
                    Some(first) if same_result(item, first, payload) => Verdict::Ok,
                    Some(_) => Verdict::Wrong(format!(
                        "payload differs from the first response (cached: {})",
                        reply.cached
                    )),
                }
            }
            // Invalid inputs, and valid ones that were not answered `ok`.
            _ => match expected.get(&item.key) {
                Ok(Expect::Error(code)) if reply.error_code.as_deref() == Some(code) => Verdict::Ok,
                Ok(want) => Verdict::Wrong(format!(
                    "expected {want:?}, got status {} code {:?}",
                    reply.status, reply.error_code
                )),
                Err(e) => Verdict::Wrong(e),
            },
        };
        match verdict {
            Verdict::Ok => out.window.succeeded += 1,
            Verdict::Failed => {}
            Verdict::Wrong(e) => out.errors.push(format!("{}: {e}", item.key)),
        }
        if cfg.trace {
            out.samples.push(Sample::new(id, rtt_ms, &reply));
        }
    }
    Ok(out)
}

struct Setup {
    universe: Universe,
    expected: Expected,
}

struct Run {
    window: Window,
    errors: Vec<String>,
    rejected: u64,
    first: BTreeMap<usize, String>,
    samples: Vec<Sample>,
    peak_rss_mib: f64,
    setup_s: f64,
}

/// Sets up, drives the connection for the window, and stops the
/// daemon; the checks that need the program in process come after.
fn drive_window(cfg: &Config) -> Result<(Setup, Run), String> {
    let warm_up = ServiceRequest::Analyze {
        graph: "graph warm_up\nedge A B 2 1\nedge B C 1 2\n".to_string(),
        serial: false,
        full: false,
    }
    .to_json("warm_up");
    let mut speed = Speed::new();
    let (daemon, setup, setup_s) = set_up_repeatedly(
        cfg,
        &mut speed,
        || {
            Ok(Setup {
                universe: Universe::build(),
                expected: Expected::load(&cfg.expected_dir, &cfg.workload)?,
            })
        },
        |daemon: &Daemon, _| {
            let (line, _) = daemon.connect()?.round_trip(&warm_up)?;
            match parse_reply(&line)?.status.as_str() {
                "ok" => Ok(()),
                other => Err(format!("warm-up request answered {other}")),
            }
        },
    )?;
    let result = drive(cfg, &daemon, &setup, Window::new(speed))?;
    // A daemon that died mid-run fails the run as a wrong output, with
    // whatever was measured until then.
    let mut errors = result.errors;
    let peak_rss_mib = daemon.peak_rss_mib().unwrap_or_else(|e| {
        errors.push(e);
        0.0
    });
    if let Err(e) = daemon.stop() {
        errors.push(e);
    }
    for (id, d) in &result.hits {
        if !result.misses.contains(&(*id, *d)) {
            let key = &setup.universe.items[*id].key;
            errors.push(format!("{key}: cache hit differs from every miss"));
        }
    }
    let run = Run {
        window: result.window,
        errors,
        rejected: result.rejected,
        first: result.first.into_iter().collect(),
        samples: result.samples,
        peak_rss_mib,
        setup_s,
    };
    Ok((setup, run))
}

/// Checks each distinct payload against the expected results and
/// against `execute_request` in process, byte for byte (engine wall
/// times masked). Returns the summed pool words.
fn check_payloads(setup: &Setup, run: &Run, errors: &mut Vec<String>) -> Result<u64, String> {
    let items = &setup.universe.items;
    let valid = setup.universe.invalid_ids().start;
    if run.first.len() != valid {
        errors.push(format!(
            "only {} of {valid} valid inputs answered",
            run.first.len()
        ));
    }
    let mut pool_words = 0;
    for (&id, payload) in &run.first {
        let item = &items[id];
        let reference = match in_process(item)? {
            Ok(reference) => reference,
            Err(code) => {
                errors.push(format!("{}: in process failed with {code}", item.key));
                continue;
            }
        };
        if !same_result(item, &reference, payload) {
            errors.push(format!(
                "{}: daemon payload differs from execute_request",
                item.key
            ));
        }
        match observe_payload(payload).and_then(|got| {
            setup.expected.check(&item.key, &got)?;
            Ok(got)
        }) {
            Ok(Expect::Ok { pool, .. }) => pool_words += pool,
            Ok(Expect::Error(_)) => {}
            Err(e) => errors.push(e),
        }
    }
    Ok(pool_words)
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let (setup, mut run) = drive_window(cfg)?;
    let mut errors = std::mem::take(&mut run.errors);
    let pool_words = check_payloads(&setup, &run, &mut errors)?;
    Ok(Outcome {
        attempted: run.window.attempted,
        failed: run.window.failed(),
        errors,
        metrics: run
            .window
            .end_to_end(pool_words, run.peak_rss_mib, run.setup_s)?,
    })
}

/// The traced run: the same window with each response's telemetry, then
/// every distinct request that missed the cache replayed in process —
/// untraced, under the program's counters, and layer by layer — each
/// weighted by how often it missed.
pub fn run_traced(cfg: &Config) -> Result<(Outcome, BTreeMap<&'static str, f64>), String> {
    let (setup, mut run) = drive_window(cfg)?;
    let mut errors = std::mem::take(&mut run.errors);
    check_payloads(&setup, &run, &mut errors)?;
    let mut out = BTreeMap::new();
    service_layers(&run.samples, run.rejected, &mut out);

    let mut misses: BTreeMap<usize, f64> = BTreeMap::new();
    let mut valid_service_ms = Vec::new();
    for s in &run.samples {
        if s.cache == "miss" && s.item < setup.universe.invalid_ids().start {
            *misses.entry(s.item).or_default() += 1.0;
            valid_service_ms.push(ns_to_ms(s.service_ns));
        }
    }
    let mut sums = LayerSums::default();
    let (mut untraced_ms, mut traced_ms, mut weight) = (0.0, 0.0, 0.0);
    for (&id, &w) in &misses {
        let item = &setup.universe.items[id];
        let request = item.request.as_ref().expect("valid item");
        let (_, ms) = timed(|| execute_request(request));
        let (_, ms_traced, counters) = traced_run(|| execute_request(request));
        let mut layers = LayerSums::default();
        if let Err(e) = replay_request(request, &mut layers) {
            errors.push(format!("{}: {e}", item.key));
            continue;
        }
        add_counters(&mut layers, &counters);
        sums.add_scaled(&layers, w);
        untraced_ms += ms * w;
        traced_ms += ms_traced * w;
        weight += w;
    }
    let w = if weight > 0.0 { weight } else { 1.0 };
    for (k, v) in sums.ms.iter().chain(&sums.counts) {
        out.insert(k, v / w);
    }
    out.insert("engine.e2e_ms", untraced_ms / w);
    out.insert(
        "engine.unattributed_ms",
        mean(&valid_service_ms) - sums.total_ms() / w,
    );
    out.insert(
        "trace.overhead_pct",
        (traced_ms - untraced_ms) / untraced_ms * 100.0,
    );
    let outcome = Outcome {
        attempted: run.window.attempted,
        failed: run.window.failed(),
        errors,
        metrics: Default::default(),
    };
    Ok((outcome, out))
}
