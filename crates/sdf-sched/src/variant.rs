//! Unified dispatch over the crate's loop-hierarchy optimizers.
//!
//! The synthesis engine sweeps a candidate lattice whose second axis is
//! *which* dynamic program builds the loop hierarchy for a given lexical
//! order. [`LoopVariant`] names the choices and [`schedule_variant`]
//! dispatches to the right DP, normalising their differing result types
//! into one [`ScheduledVariant`].

use std::fmt;
use std::str::FromStr;

use sdf_core::error::SdfError;
use sdf_core::graph::{ActorId, SdfGraph};
use sdf_core::repetitions::RepetitionsVector;
use sdf_core::schedule::SasTree;

use crate::chain::ChainTables;
use crate::chain_precise::{chain_precise, DEFAULT_FRONTIER_CAP};
use crate::dppo::{dppo, dppo_from_tables_memo};
use crate::memo::MemoStore;
use crate::sdppo::{sdppo, sdppo_from_tables_memo, FactoringPolicy};

/// Which loop-hierarchy dynamic program to run over a lexical order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum LoopVariant {
    /// The Eq. 5 shared-buffer heuristic DP (the paper's main algorithm).
    #[default]
    Sdppo,
    /// The Eqs. 2–4 non-shared DP; its schedules are the paper's baseline
    /// but they can still be lifetime-packed afterwards.
    Dppo,
    /// The §6 exact triple-cost DP; only valid for chain-structured
    /// graphs (it derives the chain order itself).
    ChainPrecise,
}

impl LoopVariant {
    /// Every variant, in the engine's canonical lattice order.
    pub const ALL: [LoopVariant; 3] = [
        LoopVariant::Sdppo,
        LoopVariant::Dppo,
        LoopVariant::ChainPrecise,
    ];

    /// Short lower-case name (`sdppo`, `dppo`, `chain_precise`).
    pub fn as_str(self) -> &'static str {
        match self {
            LoopVariant::Sdppo => "sdppo",
            LoopVariant::Dppo => "dppo",
            LoopVariant::ChainPrecise => "chain_precise",
        }
    }

    /// Whether this variant can run on `graph` (chain-precise requires a
    /// chain-structured graph).
    pub fn applicable_to(self, graph: &SdfGraph) -> bool {
        match self {
            LoopVariant::Sdppo | LoopVariant::Dppo => true,
            LoopVariant::ChainPrecise => graph.is_chain(),
        }
    }

    /// Whether the variant's schedule depends on the lexical order it is
    /// given (chain-precise derives the chain order itself, so running it
    /// once per graph suffices no matter how many orders are swept).
    pub fn order_sensitive(self) -> bool {
        !matches!(self, LoopVariant::ChainPrecise)
    }
}

impl fmt::Display for LoopVariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for LoopVariant {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "sdppo" => Ok(LoopVariant::Sdppo),
            "dppo" => Ok(LoopVariant::Dppo),
            "chain_precise" | "chain-precise" => Ok(LoopVariant::ChainPrecise),
            other => Err(format!(
                "unknown loop variant `{other}` (expected sdppo, dppo or chain_precise)"
            )),
        }
    }
}

/// A loop hierarchy produced by one [`LoopVariant`].
#[derive(Clone, Debug)]
pub struct ScheduledVariant {
    /// The optimised single appearance schedule.
    pub tree: SasTree,
    /// The variant's own cost estimate: Eq. 5 for SDPPO, non-shared
    /// bufmem for DPPO, the triple's `center` for chain-precise. Estimates
    /// of different variants are comparable as shared-model costs except
    /// DPPO's, which is the non-shared total.
    pub cost_estimate: u64,
}

/// Runs `variant` on `order`, normalising the result.
///
/// # Errors
///
/// * Whatever the underlying DP reports ([`SdfError::EmptyGraph`], order
///   validation failures, …).
/// * [`SdfError::NotChainStructured`] for
///   [`LoopVariant::ChainPrecise`] on a non-chain graph.
///
/// # Examples
///
/// ```
/// use sdf_core::{SdfGraph, RepetitionsVector};
/// use sdf_sched::variant::{schedule_variant, LoopVariant};
///
/// # fn main() -> Result<(), sdf_core::SdfError> {
/// let mut g = SdfGraph::new("fig2");
/// let a = g.add_actor("A");
/// let b = g.add_actor("B");
/// let c = g.add_actor("C");
/// g.add_edge(a, b, 20, 10)?;
/// g.add_edge(b, c, 20, 10)?;
/// let q = RepetitionsVector::compute(&g)?;
/// let s = schedule_variant(&g, &q, &[a, b, c], LoopVariant::Sdppo)?;
/// assert_eq!(s.cost_estimate, 40);
/// # Ok(())
/// # }
/// ```
pub fn schedule_variant(
    graph: &SdfGraph,
    q: &RepetitionsVector,
    order: &[ActorId],
    variant: LoopVariant,
) -> Result<ScheduledVariant, SdfError> {
    match variant {
        LoopVariant::Sdppo => {
            let r = sdppo(graph, q, order)?;
            Ok(ScheduledVariant {
                tree: r.tree,
                cost_estimate: r.shared_cost,
            })
        }
        LoopVariant::Dppo => {
            let r = dppo(graph, q, order)?;
            Ok(ScheduledVariant {
                tree: r.tree,
                cost_estimate: r.bufmem,
            })
        }
        LoopVariant::ChainPrecise => {
            let r = chain_precise(graph, q, DEFAULT_FRONTIER_CAP)?;
            Ok(ScheduledVariant {
                tree: r.tree,
                cost_estimate: r.cost.center,
            })
        }
    }
}

/// Runs `variant` against prebuilt [`ChainTables`], so candidates
/// sharing a lexical order share one table build.  Chain-precise ignores
/// the tables (it derives the chain order itself) and always runs
/// exactly.
///
/// # Errors
///
/// * [`SdfError::NotChainStructured`] for [`LoopVariant::ChainPrecise`]
///   on a non-chain graph.
pub fn schedule_variant_from_tables(
    graph: &SdfGraph,
    q: &RepetitionsVector,
    ct: &ChainTables,
    variant: LoopVariant,
) -> Result<ScheduledVariant, SdfError> {
    schedule_variant_from_tables_memo(graph, q, ct, variant, None)
}

/// Like [`schedule_variant_from_tables`], plus an optional cross-run
/// [`MemoStore`] the chain DPs probe for content-addressed subchain
/// results. Chain-precise is not a DPPO/SDPPO chain DP and ignores the
/// store. Results are bit-identical with and without a store.
///
/// # Errors
///
/// Same as [`schedule_variant_from_tables`].
pub fn schedule_variant_from_tables_memo(
    graph: &SdfGraph,
    q: &RepetitionsVector,
    ct: &ChainTables,
    variant: LoopVariant,
    memo: Option<&MemoStore>,
) -> Result<ScheduledVariant, SdfError> {
    match variant {
        LoopVariant::Sdppo => {
            let r = sdppo_from_tables_memo(ct, q, FactoringPolicy::Heuristic, memo);
            Ok(ScheduledVariant {
                tree: r.tree,
                cost_estimate: r.shared_cost,
            })
        }
        LoopVariant::Dppo => {
            let r = dppo_from_tables_memo(ct, q, memo);
            Ok(ScheduledVariant {
                tree: r.tree,
                cost_estimate: r.bufmem,
            })
        }
        LoopVariant::ChainPrecise => {
            let r = chain_precise(graph, q, DEFAULT_FRONTIER_CAP)?;
            Ok(ScheduledVariant {
                tree: r.tree,
                cost_estimate: r.cost.center,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig2() -> (SdfGraph, RepetitionsVector, Vec<ActorId>) {
        let mut g = SdfGraph::new("fig2");
        let a = g.add_actor("A");
        let b = g.add_actor("B");
        let c = g.add_actor("C");
        g.add_edge(a, b, 20, 10).unwrap();
        g.add_edge(b, c, 20, 10).unwrap();
        let q = RepetitionsVector::compute(&g).unwrap();
        (g, q, vec![a, b, c])
    }

    #[test]
    fn dispatch_matches_direct_calls() {
        let (g, q, order) = fig2();
        let s = schedule_variant(&g, &q, &order, LoopVariant::Sdppo).unwrap();
        assert_eq!(s.cost_estimate, sdppo(&g, &q, &order).unwrap().shared_cost);
        let d = schedule_variant(&g, &q, &order, LoopVariant::Dppo).unwrap();
        assert_eq!(d.cost_estimate, dppo(&g, &q, &order).unwrap().bufmem);
        let c = schedule_variant(&g, &q, &order, LoopVariant::ChainPrecise).unwrap();
        assert_eq!(
            c.cost_estimate,
            chain_precise(&g, &q, DEFAULT_FRONTIER_CAP)
                .unwrap()
                .cost
                .center
        );
    }

    #[test]
    fn from_tables_dispatch_matches_plain_dispatch() {
        let (g, q, order) = fig2();
        let ct = ChainTables::build(&g, &q, &order).unwrap();
        for variant in LoopVariant::ALL {
            let plain = schedule_variant(&g, &q, &order, variant).unwrap();
            let tabled = schedule_variant_from_tables(&g, &q, &ct, variant).unwrap();
            assert_eq!(plain.tree, tabled.tree, "{variant}");
            assert_eq!(plain.cost_estimate, tabled.cost_estimate, "{variant}");
        }
    }

    #[test]
    fn applicability_and_order_sensitivity() {
        let (g, _, _) = fig2();
        assert!(LoopVariant::ChainPrecise.applicable_to(&g));
        assert!(!LoopVariant::ChainPrecise.order_sensitive());
        let mut fork = SdfGraph::new("fork");
        let s = fork.add_actor("S");
        let x = fork.add_actor("X");
        let y = fork.add_actor("Y");
        fork.add_edge(s, x, 1, 1).unwrap();
        fork.add_edge(s, y, 1, 1).unwrap();
        assert!(!LoopVariant::ChainPrecise.applicable_to(&fork));
        assert!(LoopVariant::Sdppo.applicable_to(&fork));
    }

    #[test]
    fn names_round_trip() {
        for v in LoopVariant::ALL {
            assert_eq!(v.as_str().parse::<LoopVariant>().unwrap(), v);
            assert_eq!(v.to_string(), v.as_str());
        }
        assert!("bogus".parse::<LoopVariant>().is_err());
    }
}
