//! Incremental re-synthesis for edit-heavy traffic.
//!
//! Interactive callers — a designer nudging one rate, a daemon serving a
//! stream of small graph edits — re-run the full engine today and pay
//! the quadratic chain-DP sweep every time. This module adds the delta
//! path: an [`IncrementalSession`] holds the previous synthesis state
//! and a cross-run [`MemoStore`], an [`EditScript`] describes a small
//! change against the current graph, and [`IncrementalSession::apply_edits`]
//! re-synthesises by recomputing only what the edit invalidated:
//!
//! * **chain-DP schedule trees** are content-addressed in the memo store
//!   ([`sdf_sched::memo`]) — a lexical order whose content the store has
//!   seen (a revert, an undo, a repeated edit) resolves its whole tree
//!   from stored `(value, split)` cells without running the DP;
//! * **lifetime envelopes** of clean edges are reused verbatim
//!   ([`IntersectionGraph::build_spliced`]) when the schedule tree and
//!   repetitions vector are unchanged;
//! * **WIG adjacency** between clean buffer pairs is copied; only pairs
//!   touching a dirty buffer are re-tested;
//! * **first-fit placements** replay the previous allocation's clean
//!   sequence prefix ([`allocate_incremental`]).
//!
//! Every incremental result is bit-for-bit identical to a cold run on
//! the edited graph — asserted, not assumed: allocations are always
//! re-validated, and the test suite (plus the CI smoke job) compares
//! schedules, offsets and the full `ExecutablePlan` JSON byte-wise
//! against cold reference runs at every step.
//!
//! # Examples
//!
//! ```
//! use sdfmem::engine::SynthesisOptions;
//! use sdfmem::incremental::{EditScript, IncrementalSession};
//! use sdfmem::apps::satrec::satellite_receiver;
//!
//! # fn main() -> Result<(), sdfmem::core::SdfError> {
//! let mut session = IncrementalSession::new(SynthesisOptions::default());
//! let cold = session.synthesize(&satellite_receiver())?;
//! let edit = session.apply_edits(&EditScript::parse("set-delay A B 3").unwrap())?;
//! assert!(!edit.stats.cold);
//! assert_eq!(edit.stats.dirty_edges, 1);
//! // Reverting the edit restores content the store has seen: every
//! // schedule tree resolves from the memo without a DP fill.
//! let revert = session.apply_edits(&EditScript::parse("set-delay A B 0").unwrap())?;
//! assert!(revert.stats.memo_hits > 0);
//! assert_eq!(revert.stats.dirty_edges, 1);
//! # let _ = cold;
//! # Ok(())
//! # }
//! ```

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use sdf_alloc::{allocate, allocate_incremental, validate_allocation, Allocation, PlacementPolicy};
use sdf_codegen::ExecutablePlan;
use sdf_core::error::SdfError;
use sdf_core::graph::{ActorId, SdfGraph};
use sdf_core::repetitions::RepetitionsVector;
use sdf_core::schedule::SasTree;
use sdf_lifetime::clique::{mcw_optimistic, mcw_pessimistic};
use sdf_lifetime::tree::ScheduleTree;
use sdf_lifetime::wig::IntersectionGraph;
use sdf_sched::variant::{schedule_variant_from_tables_memo, LoopVariant};
use sdf_sched::{apgan, dppo_from_tables_memo, rpmc, ChainTables, MemoStats, MemoStore};

use crate::engine::{Heuristic, SynthesisOptions};
use crate::pipeline::Analysis;

/// One edit against the current graph. Edges are addressed by endpoint
/// actor names plus an `ordinal` — the index among parallel edges with
/// the same `(src, snk)` pair, in edge-id order (0 for the first and
/// usually only one).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EditOp {
    /// Replace the production/consumption rates of an existing edge.
    SetRate {
        /// Source actor name.
        src: String,
        /// Sink actor name.
        snk: String,
        /// Index among parallel `(src, snk)` edges.
        ordinal: usize,
        /// New tokens produced per source firing.
        prod: u64,
        /// New tokens consumed per sink firing.
        cons: u64,
    },
    /// Replace the initial-token count of an existing edge.
    SetDelay {
        /// Source actor name.
        src: String,
        /// Sink actor name.
        snk: String,
        /// Index among parallel `(src, snk)` edges.
        ordinal: usize,
        /// New delay (initial tokens).
        delay: u64,
    },
    /// Append a new edge (actors unseen so far are created).
    AddEdge {
        /// Source actor name.
        src: String,
        /// Sink actor name.
        snk: String,
        /// Tokens produced per source firing.
        prod: u64,
        /// Tokens consumed per sink firing.
        cons: u64,
        /// Initial tokens.
        delay: u64,
    },
    /// Remove an existing edge (its actors remain).
    RemoveEdge {
        /// Source actor name.
        src: String,
        /// Sink actor name.
        snk: String,
        /// Index among parallel `(src, snk)` edges.
        ordinal: usize,
    },
}

impl EditOp {
    /// Parses one edit line. Formats (the ordinal suffix defaults to 0):
    ///
    /// ```text
    /// set-rate SRC SNK PROD CONS [@ORD]
    /// set-delay SRC SNK DELAY [@ORD]
    /// add-edge SRC SNK PROD CONS [delay D]
    /// remove-edge SRC SNK [@ORD]
    /// ```
    ///
    /// # Errors
    ///
    /// A human-readable message naming the malformed token.
    pub fn parse(line: &str) -> Result<EditOp, String> {
        let words: Vec<&str> = line.split_whitespace().collect();
        let err = |msg: String| format!("{msg}: {line:?}");
        let int = |w: &str, what: &str| -> Result<u64, String> {
            w.parse().map_err(|_| err(format!("bad {what} `{w}`")))
        };
        let ordinal = |w: Option<&&str>| -> Result<usize, String> {
            match w {
                None => Ok(0),
                Some(w) => w
                    .strip_prefix('@')
                    .and_then(|o| o.parse().ok())
                    .ok_or_else(|| err(format!("expected `@ORD`, got `{w}`"))),
            }
        };
        match words.as_slice() {
            ["set-rate", src, snk, prod, cons, rest @ ..] if rest.len() <= 1 => {
                Ok(EditOp::SetRate {
                    src: src.to_string(),
                    snk: snk.to_string(),
                    ordinal: ordinal(rest.first())?,
                    prod: int(prod, "production rate")?,
                    cons: int(cons, "consumption rate")?,
                })
            }
            ["set-delay", src, snk, delay, rest @ ..] if rest.len() <= 1 => Ok(EditOp::SetDelay {
                src: src.to_string(),
                snk: snk.to_string(),
                ordinal: ordinal(rest.first())?,
                delay: int(delay, "delay")?,
            }),
            ["add-edge", src, snk, prod, cons] => Ok(EditOp::AddEdge {
                src: src.to_string(),
                snk: snk.to_string(),
                prod: int(prod, "production rate")?,
                cons: int(cons, "consumption rate")?,
                delay: 0,
            }),
            ["add-edge", src, snk, prod, cons, "delay", delay] => Ok(EditOp::AddEdge {
                src: src.to_string(),
                snk: snk.to_string(),
                prod: int(prod, "production rate")?,
                cons: int(cons, "consumption rate")?,
                delay: int(delay, "delay")?,
            }),
            ["remove-edge", src, snk, rest @ ..] if rest.len() <= 1 => Ok(EditOp::RemoveEdge {
                src: src.to_string(),
                snk: snk.to_string(),
                ordinal: ordinal(rest.first())?,
            }),
            [] => Err(err("empty edit".to_string())),
            _ => Err(err(
                "expected set-rate/set-delay/add-edge/remove-edge with their operands".to_string(),
            )),
        }
    }
}

impl fmt::Display for EditOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn ord(f: &mut fmt::Formatter<'_>, o: usize) -> fmt::Result {
            if o > 0 {
                write!(f, " @{o}")?;
            }
            Ok(())
        }
        match self {
            EditOp::SetRate {
                src,
                snk,
                ordinal,
                prod,
                cons,
            } => {
                write!(f, "set-rate {src} {snk} {prod} {cons}")?;
                ord(f, *ordinal)
            }
            EditOp::SetDelay {
                src,
                snk,
                ordinal,
                delay,
            } => {
                write!(f, "set-delay {src} {snk} {delay}")?;
                ord(f, *ordinal)
            }
            EditOp::AddEdge {
                src,
                snk,
                prod,
                cons,
                delay,
            } => {
                write!(f, "add-edge {src} {snk} {prod} {cons}")?;
                if *delay > 0 {
                    write!(f, " delay {delay}")?;
                }
                Ok(())
            }
            EditOp::RemoveEdge { src, snk, ordinal } => {
                write!(f, "remove-edge {src} {snk}")?;
                ord(f, *ordinal)
            }
        }
    }
}

/// An ordered list of [`EditOp`]s applied left to right.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EditScript {
    /// The edits, in application order.
    pub ops: Vec<EditOp>,
}

impl EditScript {
    /// Parses one edit per non-empty line; `#` starts a comment.
    ///
    /// # Errors
    ///
    /// The first malformed line's [`EditOp::parse`] message, prefixed
    /// with its 1-based line number.
    pub fn parse(text: &str) -> Result<EditScript, String> {
        let mut ops = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            ops.push(EditOp::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?);
        }
        Ok(EditScript { ops })
    }

    /// Serialises back to the line format [`EditScript::parse`] accepts.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for op in &self.ops {
            out.push_str(&op.to_string());
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for EditScript {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_text())
    }
}

/// Applies `script` to `base`, returning the edited graph.
///
/// The edited graph is rebuilt deterministically: base actors keep their
/// ids and order, actors introduced by `add-edge` are appended in first
/// use order, and edges keep base relative order with removed edges
/// dropped and added edges appended. Two sessions applying the same
/// script to the same base therefore produce identical graphs (and
/// identical edge ids), which is what makes delta results comparable
/// byte for byte against a cold run on the same text.
///
/// # Errors
///
/// [`SdfError::InvalidSchedule`] (the crate's generic carrier) when an
/// edit names a nonexistent edge or an out-of-range ordinal;
/// [`SdfError::ZeroRate`] when a rate edit writes a zero rate.
pub fn apply_edits(base: &SdfGraph, script: &EditScript) -> Result<SdfGraph, SdfError> {
    #[derive(Clone)]
    struct WEdge {
        src: String,
        snk: String,
        prod: u64,
        cons: u64,
        delay: u64,
    }
    let mut actors: Vec<String> = base
        .actors()
        .map(|a| base.actor_name(a).to_string())
        .collect();
    let mut edges: Vec<WEdge> = base
        .edges()
        .map(|(_, e)| WEdge {
            src: base.actor_name(e.src).to_string(),
            snk: base.actor_name(e.snk).to_string(),
            prod: e.prod,
            cons: e.cons,
            delay: e.delay,
        })
        .collect();
    for op in &script.ops {
        let locate = |edges: &[WEdge], src: &str, snk: &str, ordinal: usize| {
            edges
                .iter()
                .enumerate()
                .filter(|(_, e)| e.src == src && e.snk == snk)
                .map(|(i, _)| i)
                .nth(ordinal)
                .ok_or_else(|| {
                    SdfError::InvalidSchedule(format!(
                        "edit `{op}` addresses a nonexistent edge {src} -> {snk} (ordinal {ordinal})"
                    ))
                })
        };
        match op {
            EditOp::SetRate {
                src,
                snk,
                ordinal,
                prod,
                cons,
            } => {
                let i = locate(&edges, src, snk, *ordinal)?;
                edges[i].prod = *prod;
                edges[i].cons = *cons;
            }
            EditOp::SetDelay {
                src,
                snk,
                ordinal,
                delay,
            } => {
                let i = locate(&edges, src, snk, *ordinal)?;
                edges[i].delay = *delay;
            }
            EditOp::AddEdge {
                src,
                snk,
                prod,
                cons,
                delay,
            } => {
                for name in [src, snk] {
                    if !actors.iter().any(|a| a == name) {
                        actors.push(name.clone());
                    }
                }
                edges.push(WEdge {
                    src: src.clone(),
                    snk: snk.clone(),
                    prod: *prod,
                    cons: *cons,
                    delay: *delay,
                });
            }
            EditOp::RemoveEdge { src, snk, ordinal } => {
                let i = locate(&edges, src, snk, *ordinal)?;
                edges.remove(i);
            }
        }
    }
    let mut g = SdfGraph::new(base.name());
    for name in &actors {
        g.add_actor(name);
    }
    for e in &edges {
        let s = g
            .actor_by_name(&e.src)
            .expect("working edges only reference known actors");
        let t = g
            .actor_by_name(&e.snk)
            .expect("working edges only reference known actors");
        g.add_edge_with_delay(s, t, e.prod, e.cons, e.delay)?;
    }
    Ok(g)
}

/// Per-edge dirtiness of `next` relative to `prev`: an edge is clean iff
/// the same index exists in both graphs with an identical record and
/// identically named endpoints. Insertions/removals shift later ids, so
/// everything from the first structural divergence is conservatively
/// dirty.
pub fn dirty_edges(prev: &SdfGraph, next: &SdfGraph) -> Vec<bool> {
    next.edges()
        .map(|(id, e)| {
            if id.index() >= prev.edge_count() {
                return true;
            }
            let p = prev.edge(id);
            p != e
                || prev.actor_name(p.src) != next.actor_name(e.src)
                || prev.actor_name(p.snk) != next.actor_name(e.snk)
        })
        .collect()
}

/// A delay-insensitive structural fingerprint (actors, topology, rates).
/// APGAN clusters on repetitions counts and rate products only — it
/// never reads edge delays — so its order can be reused across edits
/// that change delays alone. The reuse is additionally asserted by a
/// test replaying random delay edits, not just claimed here.
fn rate_topology_fingerprint(graph: &SdfGraph) -> u64 {
    // FNV-1a over the delay-free description.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(&(graph.actor_count() as u64).to_le_bytes());
    for a in graph.actors() {
        eat(graph.actor_name(a).as_bytes());
        eat(&[0xff]);
    }
    for (_, e) in graph.edges() {
        eat(&(e.src.index() as u64).to_le_bytes());
        eat(&(e.snk.index() as u64).to_le_bytes());
        eat(&e.prod.to_le_bytes());
        eat(&e.cons.to_le_bytes());
    }
    h
}

/// Reuse accounting of one incremental run.
#[derive(Clone, Debug, Default)]
pub struct DeltaStats {
    /// True when no previous state existed (full synthesis).
    pub cold: bool,
    /// Edges invalidated by the edit, out of `total_edges`.
    pub dirty_edges: u64,
    /// Edge count of the (edited) graph.
    pub total_edges: u64,
    /// Whether the APGAN order was reused from the previous run.
    pub apgan_order_reused: bool,
    /// Lattice cells whose lifetime/WIG/alloc stages spliced against the
    /// previous run's state.
    pub cells_spliced: u64,
    /// Lattice cells evaluated from scratch.
    pub cells_recomputed: u64,
    /// Buffer lifetimes reused verbatim across all spliced cells.
    pub lifetimes_reused: u64,
    /// Buffer lifetimes recomputed.
    pub lifetimes_recomputed: u64,
    /// Clean WIG adjacency pairs copied.
    pub wig_pairs_reused: u64,
    /// WIG pairs precisely re-tested.
    pub wig_pairs_retested: u64,
    /// First-fit placements replayed from previous allocations.
    pub placements_reused: u64,
    /// First-fit placements recomputed.
    pub placements_recomputed: u64,
    /// Memo-store hits during this run.
    pub memo_hits: u64,
    /// Memo-store misses during this run.
    pub memo_misses: u64,
    /// Store-wide occupancy and lifetime counters after the run.
    pub memo: MemoStats,
    /// Wall time of the run.
    pub elapsed_ns: u64,
}

/// The outcome of one incremental (or seeding) synthesis.
#[derive(Clone, Debug)]
pub struct IncrementalResult {
    /// The winning analysis — bit-identical to a cold
    /// [`crate::engine::AnalysisBuilder::run`] with the same options on
    /// the same graph.
    pub analysis: Analysis,
    /// Reuse accounting for this run.
    pub stats: DeltaStats,
}

impl IncrementalResult {
    /// Lowers the winning candidate to the [`ExecutablePlan`] IR for
    /// `graph` (the session's current graph).
    ///
    /// # Errors
    ///
    /// Propagates lowering errors (cannot occur for a result produced on
    /// the same graph).
    pub fn plan(&self, graph: &SdfGraph) -> Result<ExecutablePlan, SdfError> {
        self.analysis.plan(graph)
    }
}

/// Everything one evaluated lattice cell leaves behind for the next
/// edit to splice against.
struct PrevCell {
    heuristic: Heuristic,
    loop_opt: LoopVariant,
    schedule: SasTree,
    wig: IntersectionGraph,
    /// One allocation per configured allocation order, in axis order.
    allocations: Vec<Allocation>,
    mco: u64,
    mcp: u64,
}

struct SessionState {
    graph: SdfGraph,
    q: RepetitionsVector,
    apgan_fp: u64,
    apgan_order: Option<Vec<ActorId>>,
    cells: Vec<PrevCell>,
}

/// A stateful synthesis session over an evolving graph.
///
/// The session owns (or shares) a [`MemoStore`] and the previous run's
/// per-cell state; [`IncrementalSession::synthesize`] seeds it from a
/// full graph and [`IncrementalSession::apply_edits`] advances it by an
/// [`EditScript`]. The `parallel` option is ignored — the incremental
/// walk is serial (warm stages are too cheap to amortise threads).
pub struct IncrementalSession {
    options: SynthesisOptions,
    memo: Arc<MemoStore>,
    state: Option<SessionState>,
}

impl IncrementalSession {
    /// A fresh session with its own [`MemoStore`] (default capacity).
    pub fn new(options: SynthesisOptions) -> Self {
        Self::with_store(options, Arc::new(MemoStore::new()))
    }

    /// A session sharing `store` with other sessions — the daemon keeps
    /// one process-wide store so concurrent edit streams cross-seed each
    /// other's subchains.
    pub fn with_store(mut options: SynthesisOptions, store: Arc<MemoStore>) -> Self {
        // The walk wires the store through explicitly; a stale handle on
        // the options would shadow it.
        options.memo = None;
        IncrementalSession {
            options,
            memo: store,
            state: None,
        }
    }

    /// The session's memo store.
    pub fn store(&self) -> &Arc<MemoStore> {
        &self.memo
    }

    /// The current graph, if the session has been seeded.
    pub fn graph(&self) -> Option<&SdfGraph> {
        self.state.as_ref().map(|s| &s.graph)
    }

    /// Full synthesis of `graph`, seeding (or re-seeding) the session.
    /// The memo store persists across seeds, so re-synthesising a
    /// related graph is already warm.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`crate::engine::AnalysisBuilder::run`].
    pub fn synthesize(&mut self, graph: &SdfGraph) -> Result<IncrementalResult, SdfError> {
        let prev = self.state.take();
        let result = self.walk(graph.clone(), None);
        if result.is_err() {
            self.state = prev;
        }
        result
    }

    /// Applies `script` to the current graph and re-synthesises along
    /// the delta path. On error the session keeps its previous graph and
    /// state, so a bad edit does not wedge the stream.
    ///
    /// # Errors
    ///
    /// Fails when the session has no current graph, when the script
    /// addresses nonexistent edges, or with any engine error on the
    /// edited graph.
    pub fn apply_edits(&mut self, script: &EditScript) -> Result<IncrementalResult, SdfError> {
        let state = self.state.take().ok_or_else(|| {
            SdfError::InvalidSchedule(
                "incremental session has no base graph; synthesize one first".to_string(),
            )
        })?;
        let next = match apply_edits(&state.graph, script) {
            Ok(g) => g,
            Err(e) => {
                self.state = Some(state);
                return Err(e);
            }
        };
        let result = self.walk(next, Some(&state));
        if result.is_err() {
            self.state = Some(state);
        }
        result
    }

    /// The serial candidate-lattice walk with delta splicing. Mirrors
    /// `engine::run_engine` stage for stage — same order construction,
    /// same cell assembly, same flattening, same winner rule — so its
    /// winner is the engine's winner; bit-identity is enforced by the
    /// test suite and the CI smoke job rather than assumed.
    fn walk(
        &mut self,
        graph: SdfGraph,
        prev: Option<&SessionState>,
    ) -> Result<IncrementalResult, SdfError> {
        let t_run = Instant::now();
        let options = &self.options;
        if options.heuristics.is_empty()
            || options.loop_opts.is_empty()
            || options.allocation_orders.is_empty()
        {
            return Err(SdfError::InvalidSchedule(
                "empty candidate lattice: every SynthesisOptions axis needs at least one entry"
                    .to_string(),
            ));
        }
        let mut stats = DeltaStats {
            cold: prev.is_none(),
            ..DeltaStats::default()
        };
        let memo_before = self.memo.stats();
        let q = RepetitionsVector::compute(&graph)?;
        let dirty: Option<Vec<bool>> = prev.map(|p| dirty_edges(&p.graph, &graph));
        stats.total_edges = graph.edge_count() as u64;
        stats.dirty_edges = dirty
            .as_ref()
            .map(|d| d.iter().filter(|&&b| b).count() as u64)
            .unwrap_or(stats.total_edges);

        // Stage 1: lexical orders. RPMC reads delays and is cheap, so it
        // always reruns. APGAN is delay-blind; a delay-only edit reuses
        // the previous order.
        let apgan_fp = rate_topology_fingerprint(&graph);
        let mut apgan_order: Option<Vec<ActorId>> = None;
        let mut orders: Vec<(Heuristic, Vec<ActorId>)> = Vec::new();
        for &heuristic in &options.heuristics {
            if orders.iter().any(|(h, _)| *h == heuristic) {
                continue;
            }
            let order = match heuristic {
                Heuristic::Rpmc => rpmc(&graph, &q)?,
                Heuristic::Apgan => {
                    let order = match prev {
                        Some(p) if p.apgan_fp == apgan_fp && p.apgan_order.is_some() => {
                            stats.apgan_order_reused = true;
                            p.apgan_order.clone().expect("checked is_some")
                        }
                        _ => apgan(&graph, &q)?,
                    };
                    apgan_order = Some(order.clone());
                    order
                }
                Heuristic::Custom => options.custom_order.clone().ok_or_else(|| {
                    SdfError::InvalidSchedule(
                        "Heuristic::Custom selected without AnalysisBuilder::custom_order"
                            .to_string(),
                    )
                })?,
            };
            orders.push((heuristic, order));
        }

        // Stage 2: hashed chain tables plus the memo-backed non-shared
        // DPPO baseline, one build per distinct order.
        let mut tables: HashMap<Vec<ActorId>, Arc<ChainTables>> = HashMap::new();
        let mut baselines: HashMap<Vec<ActorId>, sdf_sched::DppoResult> = HashMap::new();
        let mut nonshared_bufmem = u64::MAX;
        for (_, order) in &orders {
            if !baselines.contains_key(order) {
                let ct = Arc::new(ChainTables::build_hashed(&graph, &q, order)?);
                let b = dppo_from_tables_memo(&ct, &q, Some(&self.memo));
                tables.insert(order.clone(), ct);
                baselines.insert(order.clone(), b);
            }
            nonshared_bufmem = nonshared_bufmem.min(baselines[order].bufmem);
        }

        // Stage 3: cell assembly, mirroring the engine (chain-precise is
        // order-insensitive and joins once, on the first heuristic).
        struct WalkCell {
            heuristic: Heuristic,
            loop_opt: LoopVariant,
            order: Vec<ActorId>,
        }
        let mut cells: Vec<WalkCell> = Vec::new();
        for (heuristic, order) in &orders {
            for &loop_opt in &options.loop_opts {
                if !loop_opt.applicable_to(&graph) {
                    continue;
                }
                if !loop_opt.order_sensitive() && *heuristic != orders[0].0 {
                    continue;
                }
                cells.push(WalkCell {
                    heuristic: *heuristic,
                    loop_opt,
                    order: order.clone(),
                });
            }
        }
        if cells.is_empty() {
            return Err(SdfError::InvalidSchedule(
                "no applicable candidates: selected loop variants cannot run on this graph"
                    .to_string(),
            ));
        }

        // Stage 4: evaluate each cell serially, splicing lifetime, WIG
        // and allocation work against the matching previous cell whenever
        // its inputs are provably unchanged (same repetitions vector,
        // same schedule tree; per-edge dirtiness drives the splices).
        let q_unchanged = prev.is_some_and(|p| p.q == q);
        let mut new_cells: Vec<PrevCell> = Vec::new();
        // First strict minimum in flat (cell × allocation-order) order ==
        // the engine's min_by_key((shared_total, index)).
        let mut best: Option<(u64, usize, usize)> = None; // (total, cell, alloc idx)
        for cell in &cells {
            let schedule = if cell.loop_opt == LoopVariant::Dppo {
                baselines[&cell.order].tree.clone()
            } else {
                schedule_variant_from_tables_memo(
                    &graph,
                    &q,
                    &tables[&cell.order],
                    cell.loop_opt,
                    Some(&self.memo),
                )?
                .tree
            };
            let tree = ScheduleTree::build(&graph, &q, &schedule)?;
            let splice = match (prev, &dirty) {
                (Some(p), Some(d)) if q_unchanged => p
                    .cells
                    .iter()
                    .find(|c| {
                        c.heuristic == cell.heuristic
                            && c.loop_opt == cell.loop_opt
                            && c.schedule == schedule
                    })
                    .map(|pc| (pc, d.as_slice())),
                _ => None,
            };
            let wig = match splice {
                Some((pc, d)) => {
                    stats.cells_spliced += 1;
                    let (wig, ws) = IntersectionGraph::build_spliced(&graph, &q, &tree, &pc.wig, d);
                    stats.lifetimes_reused += ws.reused_buffers;
                    stats.lifetimes_recomputed += ws.recomputed_buffers;
                    stats.wig_pairs_reused += ws.reused_pairs;
                    stats.wig_pairs_retested += ws.retested_pairs;
                    wig
                }
                None => {
                    stats.cells_recomputed += 1;
                    let wig = IntersectionGraph::build(&graph, &q, &tree);
                    stats.lifetimes_recomputed += wig.len() as u64;
                    wig
                }
            };
            let (mco, mcp) = (mcw_optimistic(&wig), mcw_pessimistic(&wig));
            let mut allocations = Vec::with_capacity(options.allocation_orders.len());
            for (k, &allocation_order) in options.allocation_orders.iter().enumerate() {
                let allocation = match splice {
                    Some((pc, d)) if k < pc.allocations.len() => {
                        let (a, asr) = allocate_incremental(
                            &wig,
                            allocation_order,
                            PlacementPolicy::FirstFit,
                            &pc.wig,
                            &pc.allocations[k],
                            d,
                        );
                        stats.placements_reused += asr.reused_placements;
                        stats.placements_recomputed += asr.recomputed_placements;
                        a
                    }
                    _ => {
                        let a = allocate(&wig, allocation_order, PlacementPolicy::FirstFit);
                        stats.placements_recomputed += wig.len() as u64;
                        a
                    }
                };
                // Asserted, not assumed: every spliced allocation is
                // re-validated against the freshly built WIG.
                validate_allocation(&wig, &allocation)?;
                let total = allocation.total();
                if best.is_none_or(|(t, _, _)| total < t) {
                    best = Some((total, new_cells.len(), k));
                }
                allocations.push(allocation);
            }
            new_cells.push(PrevCell {
                heuristic: cell.heuristic,
                loop_opt: cell.loop_opt,
                schedule,
                wig,
                allocations,
                mco,
                mcp,
            });
        }

        // Stage 5: the Table 1 "bold entry" rule — smallest shared pool,
        // ties to the earliest lattice point.
        let (_, win_cell, win_alloc) = best.expect("at least one candidate");
        let winner = &new_cells[win_cell];
        let analysis = Analysis {
            repetitions: q.clone(),
            winner: winner.heuristic,
            nonshared_bufmem,
            schedule: winner.schedule.clone(),
            wig: winner.wig.clone(),
            allocation: winner.allocations[win_alloc].clone(),
            mco: winner.mco,
            mcp: winner.mcp,
        };

        let memo_after = self.memo.stats();
        stats.memo_hits = memo_after.hits - memo_before.hits;
        stats.memo_misses = memo_after.misses - memo_before.misses;
        stats.memo = memo_after;
        stats.elapsed_ns = u64::try_from(t_run.elapsed().as_nanos()).unwrap_or(u64::MAX);
        emit_counters(&stats);

        self.state = Some(SessionState {
            graph,
            q,
            apgan_fp,
            apgan_order,
            cells: new_cells,
        });
        Ok(IncrementalResult { analysis, stats })
    }
}

/// Mirrors the reuse accounting onto the installed trace recorder (a
/// no-op without one; daemon workers surface the same numbers through
/// the store's own atomics instead, outside the cached payload bytes).
fn emit_counters(stats: &DeltaStats) {
    if !sdf_trace::enabled() {
        return;
    }
    sdf_trace::counter_inc(if stats.cold {
        "engine.incremental.cold_runs"
    } else {
        "engine.incremental.delta_runs"
    });
    sdf_trace::counter_add("engine.incremental.dirty_edges", stats.dirty_edges);
    sdf_trace::counter_add(
        "engine.incremental.lifetimes.reused",
        stats.lifetimes_reused,
    );
    sdf_trace::counter_add(
        "engine.incremental.wig.pairs_reused",
        stats.wig_pairs_reused,
    );
    sdf_trace::counter_add(
        "engine.incremental.alloc.placements_reused",
        stats.placements_reused,
    );
}
