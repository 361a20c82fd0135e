//! The traced replays: each operation re-run step by step through the
//! layers' public functions, timing every call from outside.
//!
//! Nothing here installs spans inside the program. Counts that the
//! public calls do not return come from the program's own `sdf_trace`
//! counters, read around one engine run under a private recorder while
//! nothing else runs in this process.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use sdf_alloc::{
    allocate, allocate_with_provenance, validate_allocation, AllocationOrder, PlacementPolicy,
};
use sdf_codegen::{execute_plan, ExecutablePlan};
use sdf_core::graph::{ActorId, SdfGraph};
use sdf_core::repetitions::RepetitionsVector;
use sdf_lifetime::clique::{mcw_optimistic, mcw_pessimistic};
use sdf_lifetime::occupancy::OccupancyTimeline;
use sdf_lifetime::tree::ScheduleTree;
use sdf_lifetime::wig::IntersectionGraph;
use sdf_sched::{
    apgan, dppo_from_tables, rpmc, sdppo_from_tables, ChainTables, DpMode, FactoringPolicy,
    SdppoResult,
};
use sdf_service::{MemoryModel, OrderMethod, ServiceRequest};
use sdfmem::pipeline::Analysis;
use sdfmem::Heuristic;

use crate::common::timed;

/// Per-layer time (ms) and count totals over a set of operations.
#[derive(Default)]
pub struct LayerSums {
    pub ms: BTreeMap<&'static str, f64>,
    pub counts: BTreeMap<&'static str, f64>,
}

impl LayerSums {
    /// Runs `f` as layer `name`, adding its wall time.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let (value, ms) = timed(f);
        *self.ms.entry(name).or_default() += ms;
        value
    }

    pub fn count(&mut self, name: &'static str, value: f64) {
        *self.counts.entry(name).or_default() += value;
    }

    /// Adds `other` scaled by `weight` (a replayed op standing for
    /// `weight` operations of the timed window).
    pub fn add_scaled(&mut self, other: &LayerSums, weight: f64) {
        for (k, v) in &other.ms {
            *self.ms.entry(k).or_default() += v * weight;
        }
        for (k, v) in &other.counts {
            *self.counts.entry(k).or_default() += v * weight;
        }
    }

    /// Σ of every layer time.
    pub fn total_ms(&self) -> f64 {
        self.ms.values().sum()
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The engine's default candidate lattice, one public call at a time:
/// RPMC and APGAN orders, chain tables and a DPPO baseline per distinct
/// order, SDPPO per order, schedule tree, WIG, clique estimates, then
/// first-fit and validation for both paper allocation orders. Returns
/// the composed winner by the engine's rule (smallest pool, earliest
/// lattice point).
pub fn default_lattice(g: &SdfGraph, layers: &mut LayerSums) -> Result<Analysis, String> {
    let q = layers
        .time("core.repetitions_ms", || RepetitionsVector::compute(g))
        .map_err(err)?;
    let mut orders: Vec<(Heuristic, Vec<ActorId>)> = Vec::new();
    for h in [Heuristic::Rpmc, Heuristic::Apgan] {
        let order = layers
            .time("sched.order_ms", || match h {
                Heuristic::Rpmc => rpmc(g, &q),
                _ => apgan(g, &q),
            })
            .map_err(err)?;
        orders.push((h, order));
    }
    let mode = DpMode::default();
    let mut tables: HashMap<Vec<ActorId>, ChainTables> = HashMap::new();
    let mut nonshared = u64::MAX;
    for (_, order) in &orders {
        if tables.contains_key(order) {
            continue;
        }
        let ct = layers
            .time("sched.chain_tables_ms", || ChainTables::build(g, &q, order))
            .map_err(err)?;
        let baseline = layers.time("sched.dppo_ms", || dppo_from_tables(&ct, &q, mode));
        nonshared = nonshared.min(baseline.bufmem);
        tables.insert(order.clone(), ct);
    }
    let mut best: Option<(u64, Analysis)> = None;
    for (h, order) in &orders {
        let ct = &tables[order];
        let sched = layers.time("sched.sdppo_ms", || {
            sdppo_from_tables(ct, &q, FactoringPolicy::Heuristic, mode)
        });
        let tree = layers
            .time("lifetime.tree_ms", || {
                ScheduleTree::build(g, &q, &sched.tree)
            })
            .map_err(err)?;
        let wig = layers.time("lifetime.wig_ms", || IntersectionGraph::build(g, &q, &tree));
        let (mco, mcp, conflicts) = layers.time("lifetime.clique_ms", || {
            (
                mcw_optimistic(&wig),
                mcw_pessimistic(&wig),
                wig.conflict_count(),
            )
        });
        layers.count("lifetime.wig.conflicts", conflicts as f64);
        for order in AllocationOrder::PAPER {
            let allocation = layers.time("alloc.first_fit_ms", || {
                allocate(&wig, order, PlacementPolicy::FirstFit)
            });
            layers
                .time("alloc.validate_ms", || {
                    validate_allocation(&wig, &allocation)
                })
                .map_err(err)?;
            let total = allocation.total();
            if best.as_ref().is_none_or(|(t, _)| total < *t) {
                best = Some((
                    total,
                    Analysis {
                        repetitions: q.clone(),
                        winner: *h,
                        nonshared_bufmem: 0,
                        schedule: sched.tree.clone(),
                        wig: wig.clone(),
                        allocation,
                        mco,
                        mcp,
                    },
                ));
            }
        }
    }
    let (_, mut analysis) = best.ok_or("empty lattice")?;
    analysis.nonshared_bufmem = nonshared;
    Ok(analysis)
}

/// Bit-for-bit comparison of two analyses of the same graph.
pub fn same_analysis(a: &Analysis, b: &Analysis) -> Result<(), String> {
    let differs = |what: &str| Err(format!("step-by-step winner differs at {what}"));
    if a.repetitions != b.repetitions {
        return differs("repetitions");
    }
    if a.winner != b.winner {
        return differs("winning heuristic");
    }
    if a.nonshared_bufmem != b.nonshared_bufmem {
        return differs("non-shared words");
    }
    if a.schedule != b.schedule {
        return differs("schedule");
    }
    if a.allocation != b.allocation {
        return differs("allocation");
    }
    if (a.mco, a.mcp) != (b.mco, b.mcp) {
        return differs("clique estimates");
    }
    if format!("{:?}", a.wig) != format!("{:?}", b.wig) {
        return differs("intersection graph");
    }
    Ok(())
}

/// Counter deltas of one engine run under a private recorder, and its
/// wall time. The recorder is the process's only one while `f` runs.
pub fn traced_run<T>(f: impl FnOnce() -> T) -> (T, f64, Vec<(String, u64)>) {
    let recorder = Arc::new(sdf_trace::Recorder::new());
    let (value, ms) = sdf_trace::scoped(&recorder, || timed(f));
    (value, ms, recorder.counters())
}

/// Adds the counters the per-layer table names to `layers`.
pub fn add_counters(layers: &mut LayerSums, counters: &[(String, u64)]) {
    for name in [
        "sched.dppo.split_probes",
        "sched.sdppo.split_probes",
        "alloc.first_fit.probes",
        "engine.candidates",
    ] {
        let value = counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v);
        layers.count(name, value as f64);
    }
}

/// Replays one daemon request in process, layer by layer, checking the
/// result against what `execute_request` returns for it.
pub fn replay_request(request: &ServiceRequest, layers: &mut LayerSums) -> Result<(), String> {
    match request {
        ServiceRequest::Analyze { graph, .. } => {
            let g = layers
                .time("core.parse_ms", || sdf_core::io::parse_graph(graph))
                .map_err(err)?;
            let composed = default_lattice(&g, layers)?;
            let engine = sdfmem::AnalysisBuilder::default().run(&g).map_err(err)?;
            same_analysis(&composed, &engine)
        }
        ServiceRequest::Simulate {
            graph,
            method,
            model,
        } => {
            let g = layers
                .time("core.parse_ms", || sdf_core::io::parse_graph(graph))
                .map_err(err)?;
            let plan = lower_step_by_step(&g, *method, *model, layers)?;
            let reference = sdf_service::lower_plan(&g, *method, *model).map_err(|e| e.message)?;
            if plan.to_json() != reference.to_json() {
                return Err("step-by-step plan differs from lower_plan".to_string());
            }
            layers.count("codegen.plan_ops", plan.ops.len() as f64);
            let report = layers
                .time("codegen.exec_ms", || execute_plan(&plan))
                .map_err(|e| format!("interpreter oracle: {e}"))?;
            layers.count("codegen.exec.firings", report.firings as f64);
            Ok(())
        }
        ServiceRequest::Explain { graph } => {
            let g = layers
                .time("core.parse_ms", || sdf_core::io::parse_graph(graph))
                .map_err(err)?;
            // What ExplainReport::build runs: the default shared lowering
            // with first-fit provenance, then the occupancy timeline.
            let (q, ct) = order_and_tables(&g, OrderMethod::Apgan, layers)?;
            let (_, wig) = sdppo_wig(&g, &q, &ct, layers)?;
            let (alloc, _log) = layers.time("alloc.first_fit_ms", || {
                allocate_with_provenance(
                    &wig,
                    AllocationOrder::DurationDescending,
                    PlacementPolicy::FirstFit,
                )
            });
            layers.time("lifetime.occupancy_ms", || {
                OccupancyTimeline::build(&wig, alloc.offsets())
            });
            let report = sdf_service::ExplainReport::build(&g).map_err(|e| e.message)?;
            if report.pool_total != alloc.total() {
                return Err("step-by-step explain pool differs".to_string());
            }
            Ok(())
        }
        ServiceRequest::Modes { graph } => {
            let mg = layers
                .time("core.parse_ms", || sdf_core::mode::parse_mode_graph(graph))
                .map_err(err)?;
            let synthesis = layers
                .time("modes.synth_ms", || sdfmem::modes::synthesize_modes(&mg))
                .map_err(err)?;
            synthesis
                .exec
                .as_ref()
                .map(|_| ())
                .map_err(|e| e.to_string())
        }
        other => Err(format!("no replay for `{}` requests", other.op())),
    }
}

/// Repetitions, the `method` order and its chain tables.
fn order_and_tables(
    g: &SdfGraph,
    method: OrderMethod,
    layers: &mut LayerSums,
) -> Result<(RepetitionsVector, ChainTables), String> {
    let q = layers
        .time("core.repetitions_ms", || RepetitionsVector::compute(g))
        .map_err(err)?;
    let order = layers
        .time("sched.order_ms", || match method {
            OrderMethod::Apgan => apgan(g, &q),
            OrderMethod::Rpmc => rpmc(g, &q),
        })
        .map_err(err)?;
    let ct = layers
        .time("sched.chain_tables_ms", || {
            ChainTables::build(g, &q, &order)
        })
        .map_err(err)?;
    Ok((q, ct))
}

/// SDPPO on the tables, then the schedule tree and its WIG.
fn sdppo_wig(
    g: &SdfGraph,
    q: &RepetitionsVector,
    ct: &ChainTables,
    layers: &mut LayerSums,
) -> Result<(SdppoResult, IntersectionGraph), String> {
    let r = layers.time("sched.sdppo_ms", || {
        sdppo_from_tables(ct, q, FactoringPolicy::Heuristic, DpMode::default())
    });
    let tree = layers
        .time("lifetime.tree_ms", || ScheduleTree::build(g, q, &r.tree))
        .map_err(err)?;
    let wig = layers.time("lifetime.wig_ms", || IntersectionGraph::build(g, q, &tree));
    Ok((r, wig))
}

/// `lower_plan`, one public call at a time.
fn lower_step_by_step(
    g: &SdfGraph,
    method: OrderMethod,
    model: MemoryModel,
    layers: &mut LayerSums,
) -> Result<ExecutablePlan, String> {
    let (q, ct) = order_and_tables(g, method, layers)?;
    match model {
        MemoryModel::NonShared => {
            let r = layers.time("sched.dppo_ms", || {
                dppo_from_tables(&ct, &q, DpMode::default())
            });
            layers
                .time("codegen.lower_ms", || {
                    ExecutablePlan::lower_nonshared(g, &q, &r.tree.to_looped_schedule())
                })
                .map_err(err)
        }
        MemoryModel::Shared => {
            let (r, wig) = sdppo_wig(g, &q, &ct, layers)?;
            let alloc = layers.time("alloc.first_fit_ms", || {
                allocate(
                    &wig,
                    AllocationOrder::DurationDescending,
                    PlacementPolicy::FirstFit,
                )
            });
            layers
                .time("codegen.lower_ms", || {
                    ExecutablePlan::lower_shared(g, &q, &r.tree, &wig, &alloc)
                })
                .map_err(err)
        }
    }
}
