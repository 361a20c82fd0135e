//! End-to-end integration tests: the full Fig. 21 flow over every
//! practical benchmark, checked against ground-truth simulation.

use sdfmem::alloc::{allocate_both_orders, validate_allocation};
use sdfmem::apps::registry::table1_systems;
use sdfmem::core::simulate::validate_schedule;
use sdfmem::core::RepetitionsVector;
use sdfmem::lifetime::clique::{mcw_optimistic, mcw_pessimistic};
use sdfmem::lifetime::{tree::ScheduleTree, wig::IntersectionGraph};
use sdfmem::sched::{apgan::apgan, dppo::dppo, rpmc::rpmc, sdppo::sdppo};

#[test]
fn full_pipeline_on_every_practical_system() {
    for graph in table1_systems() {
        let q =
            RepetitionsVector::compute(&graph).unwrap_or_else(|e| panic!("{}: {e}", graph.name()));
        for (label, order) in [
            ("rpmc", rpmc(&graph, &q).unwrap()),
            ("apgan", apgan(&graph, &q).unwrap()),
        ] {
            let ctx = format!("{} / {label}", graph.name());

            // Non-shared schedule: DP estimate must equal simulation.
            let nonshared = dppo(&graph, &q, &order).unwrap_or_else(|e| panic!("{ctx}: {e}"));
            let sim = validate_schedule(&graph, &nonshared.tree.to_looped_schedule(), &q)
                .unwrap_or_else(|e| panic!("{ctx}: invalid dppo schedule: {e}"));
            assert_eq!(sim.bufmem(), nonshared.bufmem, "{ctx}: dppo estimate");

            // Shared schedule: valid, and its lifetimes allocate safely.
            let shared = sdppo(&graph, &q, &order).unwrap();
            validate_schedule(&graph, &shared.tree.to_looped_schedule(), &q)
                .unwrap_or_else(|e| panic!("{ctx}: invalid sdppo schedule: {e}"));
            let tree = ScheduleTree::build(&graph, &q, &shared.tree).unwrap();
            let wig = IntersectionGraph::build(&graph, &q, &tree);
            let (ffdur, ffstart) = allocate_both_orders(&wig);
            validate_allocation(&wig, &ffdur.allocation)
                .unwrap_or_else(|e| panic!("{ctx}: ffdur overlap: {e}"));
            validate_allocation(&wig, &ffstart.allocation)
                .unwrap_or_else(|e| panic!("{ctx}: ffstart overlap: {e}"));

            // Estimates are ordered; allocations sit below the non-shared
            // total of the same schedule.
            let (mco, mcp) = (mcw_optimistic(&wig), mcw_pessimistic(&wig));
            assert!(mco <= mcp, "{ctx}: mco {mco} > mcp {mcp}");
            let best = ffdur.allocation.total().min(ffstart.allocation.total());
            assert!(best <= wig.total_size(), "{ctx}: sharing must not lose");
            assert!(best >= 1, "{ctx}: empty allocation");
        }
    }
}

#[test]
fn wig_sizes_match_simulated_maxima_on_delayless_systems() {
    // Under the coarse model the per-edge buffer size equals the simulated
    // max_tokens of the same schedule for delayless forward edges.
    for name in ["qmf12_2d", "qmf23_2d", "satrec", "overAddFFT"] {
        let graph = sdfmem::apps::registry::by_name(name).unwrap();
        let q = RepetitionsVector::compute(&graph).unwrap();
        let order = apgan(&graph, &q).unwrap();
        let shared = sdppo(&graph, &q, &order).unwrap();
        let sim = validate_schedule(&graph, &shared.tree.to_looped_schedule(), &q).unwrap();
        let tree = ScheduleTree::build(&graph, &q, &shared.tree).unwrap();
        let wig = IntersectionGraph::build(&graph, &q, &tree);
        for (i, buf) in wig.buffers().iter().enumerate() {
            assert_eq!(
                buf.lifetime.size(),
                sim.max_tokens(buf.edge),
                "{name}: edge {} (buffer {i})",
                buf.edge
            );
        }
    }
}

#[test]
fn shared_buffers_beat_nonshared_on_every_practical_system() {
    for graph in table1_systems() {
        let row = sdf_bench_best(&graph);
        assert!(
            row.1 <= row.0,
            "{}: shared {} > non-shared {}",
            graph.name(),
            row.1,
            row.0
        );
    }
}

/// (best non-shared, best shared) across both heuristics.
fn sdf_bench_best(graph: &sdfmem::core::SdfGraph) -> (u64, u64) {
    let q = RepetitionsVector::compute(graph).unwrap();
    let mut ns = u64::MAX;
    let mut sh = u64::MAX;
    for order in [rpmc(graph, &q).unwrap(), apgan(graph, &q).unwrap()] {
        ns = ns.min(dppo(graph, &q, &order).unwrap().bufmem);
        let shared = sdppo(graph, &q, &order).unwrap();
        let tree = ScheduleTree::build(graph, &q, &shared.tree).unwrap();
        let wig = IntersectionGraph::build(graph, &q, &tree);
        let (d, s) = allocate_both_orders(&wig);
        sh = sh.min(d.allocation.total()).min(s.allocation.total());
    }
    (ns, sh)
}

#[test]
fn pipeline_scales_to_hundreds_of_actors() {
    // The paper runs 188-actor filterbanks; make sure nothing in the
    // pipeline is accidentally exponential well past that.
    use rand::SeedableRng;
    use sdfmem::apps::random::{random_sdf_graph, RandomGraphConfig};
    let mut rng = rand::rngs::StdRng::seed_from_u64(31337);
    let graph = random_sdf_graph(&RandomGraphConfig::paper_style(300), &mut rng);
    let q = RepetitionsVector::compute(&graph).unwrap();
    let order = rpmc(&graph, &q).unwrap();
    let shared = sdppo(&graph, &q, &order).unwrap();
    let tree = ScheduleTree::build(&graph, &q, &shared.tree).unwrap();
    let wig = IntersectionGraph::build(&graph, &q, &tree);
    let (ffdur, _) = allocate_both_orders(&wig);
    validate_allocation(&wig, &ffdur.allocation).unwrap();
    assert!(ffdur.allocation.total() >= 1);
    assert!(ffdur.allocation.total() <= wig.total_size());
}

#[test]
fn sweep_wig_matches_all_pairs_on_scale_systems() {
    // The sweep's envelope pruning must not drop or invent a conflict on
    // the large synthetic systems: chain, filterbank tree and DAG at
    // n = 128, under the schedule the default engine picks.
    use sdfmem::apps::scale::scale_systems;
    for graph in scale_systems(128) {
        let analysis = sdfmem::AnalysisBuilder::default().run(&graph).unwrap();
        let sweep = &analysis.wig;
        let all_pairs = IntersectionGraph::from_buffers_all_pairs(sweep.buffers().to_vec());
        assert_eq!(sweep.len(), graph.edge_count(), "{}", graph.name());
        for i in 0..sweep.len() {
            assert_eq!(
                sweep.neighbours(i),
                all_pairs.neighbours(i),
                "{} buffer {i}",
                graph.name()
            );
        }
    }
}

#[test]
fn homogeneous_grid_reaches_m_plus_one() {
    use sdfmem::apps::homogeneous::{homogeneous_grid, shared_optimum};
    for (m, n) in [(2u64, 3u64), (3, 4), (5, 6)] {
        let graph = homogeneous_grid(m as usize, n as usize);
        let (_, shared) = sdf_bench_best(&graph);
        assert_eq!(
            shared,
            shared_optimum(m),
            "grid {m}x{n}: expected M+1 = {}",
            shared_optimum(m)
        );
    }
}
