//! Region-sweep equivalence and determinism.
//!
//! The multi-region fleet's per-node CI resolution is exact, not
//! approximate: a fixed policy pinned to one region's node of the
//! ten-node five-region fleet must replay the Fig. 14 single-region run
//! **bit-identically** — per record, per gram — for each of the five
//! regions. And the multi-region engine path must stay deterministic
//! under sharding at any worker-thread count.

use ecolife::prelude::*;
use ecolife::sim::{InvocationRecord, ShardOptions};
use ecolife::telemetry::diff::first_divergence;

const SEED: u64 = 0x000F_1614;
const MINUTES: usize = 70;

fn workload() -> Trace {
    SynthTraceConfig {
        n_functions: 8,
        duration_min: 60,
        seed: SEED,
        ..Default::default()
    }
    .generate(&WorkloadCatalog::sebs())
}

fn region_ci(region: Region) -> CarbonIntensityTrace {
    CarbonIntensityTrace::synthetic(region, MINUTES, SEED)
}

fn sub_fleet(region: Region) -> Fleet {
    skus::fleet_a().with_uniform_region(region)
}

fn bundle() -> CiBundle {
    CiBundle::new(Region::ALL.iter().map(|&r| (r, region_ci(r))).collect()).unwrap()
}

#[test]
fn pinned_fixed_policy_matches_five_standalone_runs() {
    // Region p owns nodes 2p (old) and 2p + 1 (new) of the ten-node
    // fleet. Pinning New-Only's policy to node 2p + 1 must read exactly
    // p's grid series — the run the Fig. 14 sweep makes on p's own pair.
    let trace = workload();
    let fleet = skus::fleet_five_regions();
    let b = bundle();
    let sim = Simulation::try_new_regional(&trace, &b, fleet.clone()).unwrap();
    for (p, &region) in Region::ALL.iter().enumerate() {
        let offset = 2 * p as u32;
        let regional = sim.run(&mut FixedPolicy::pinned(NodeId(offset + 1), 10));
        let standalone = Simulation::new(&trace, &region_ci(region), sub_fleet(region))
            .run(&mut FixedPolicy::new_only());

        assert_eq!(regional.invocations(), standalone.invocations());
        for (i, (rec, expected)) in regional.records.iter().zip(&standalone.records).enumerate() {
            let local = InvocationRecord {
                exec_location: NodeId(rec.exec_location.0 - offset),
                ..*rec
            };
            assert_eq!(local, *expected, "{region} record {i} diverged");
        }

        let bits = |g: &[f64]| g.iter().map(|g| g.to_bits()).collect::<Vec<_>>();
        let mut expected_g = vec![0.0; fleet.len()];
        expected_g[2 * p..2 * p + 2].copy_from_slice(&standalone.keepalive_g_by_node);
        assert_eq!(
            bits(&regional.keepalive_g_by_node),
            bits(&expected_g),
            "{region} per-node keep-alive grams"
        );
    }
}

#[test]
fn multi_region_sharded_replay_is_thread_invariant() {
    // A free EcoLife over the ten-node five-region
    // fleet: sequential vs `run_sharded` at worker threads {1, 2, 4}
    // must be bit-identical — the per-region ΔCI state is a pure
    // function of (t, region), so shard membership cannot leak into
    // decisions. Compared on the full hash-chained telemetry stream:
    // one chain-tip equality covers every record, gram, and expiry.
    let trace = workload();
    let fleet = skus::fleet_five_regions();
    let b = bundle();

    let mut seq_sink = CaptureSink::default();
    let sequential = Simulation::try_new_regional(&trace, &b, fleet.clone())
        .unwrap()
        .run_with_sink(
            &mut EcoLife::new(fleet.clone(), EcoLifeConfig::default()),
            &mut seq_sink,
        );

    for threads in [1, 2, 4] {
        let mut sink = CaptureSink::default();
        let sharded = Simulation::try_new_regional(&trace, &b, fleet.clone())
            .unwrap()
            .run_sharded_with_sink(
                |_| EcoLife::new(fleet.clone(), EcoLifeConfig::default()),
                &ShardOptions::new(8).with_threads(threads),
                &mut sink,
            );
        assert_eq!(sharded.reconcile_revocations, 0, "uncontended workload");
        assert_eq!(sequential.evicted_functions, sharded.evicted_functions);
        assert_eq!(sequential.transfers, sharded.transfers);
        if let Some(d) = first_divergence(&seq_sink.lines(), &sink.lines()) {
            panic!("threads={threads} diverged from the sequential multi-region run: {d:?}");
        }
        assert_eq!(sink.tip(), seq_sink.tip(), "threads={threads} chain tip");
    }
}

#[test]
fn cross_region_placement_beats_the_dirtiest_pinned_region() {
    // The new scenario axis: an EcoLife free to place across the
    // ten-node fleet must emit less carbon than the same workload
    // pinned entirely into the dirtiest grid (Florida, ~430 g/kWh).
    let trace = workload();
    let fleet = skus::fleet_five_regions();
    let b = bundle();
    let free = Simulation::try_new_regional(&trace, &b, fleet.clone())
        .unwrap()
        .run(&mut EcoLife::new(fleet.clone(), EcoLifeConfig::default()));
    let fla_fleet = sub_fleet(Region::Florida);
    let pinned = Simulation::new(&trace, &region_ci(Region::Florida), fla_fleet.clone())
        .run(&mut EcoLife::new(fla_fleet, EcoLifeConfig::default()));
    assert!(
        free.total_carbon_g() < pinned.total_carbon_g(),
        "free {} vs Florida-pinned {}",
        free.total_carbon_g(),
        pinned.total_carbon_g()
    );
    // And the grid mix is what it traded on: every region it executed
    // in is cleaner than Florida's grid (with these profiles the EPDM
    // concentrates work onto the cleanest grids — that concentration
    // *is* the new placement axis).
    let regions_used: std::collections::HashSet<Region> = free
        .records
        .iter()
        .map(|r| fleet.node(r.exec_location).region)
        .collect();
    assert!(!regions_used.is_empty());
    for r in regions_used {
        assert!(
            b.get(r).unwrap().mean() < b.get(Region::Florida).unwrap().mean(),
            "executed in {r}, which is no cleaner than Florida"
        );
    }
}
