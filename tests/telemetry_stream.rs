//! The golden-trace event stream is part of the engine's determinism
//! contract: the sharded path must emit the *byte-identical* stream —
//! every line, every hash, the same chain tip — as the sequential
//! reference, at any shard and worker-thread count, whenever the runs
//! themselves coincide (no cross-shard revocations). Contended runs
//! have their own sharded semantics, but their streams still chain,
//! verify, and replay into the run's metrics.

use ecolife::prelude::*;
use ecolife::sim::ShardOptions;
use ecolife::telemetry::{field, str_field, u64_field, verify_lines};
use proptest::prelude::*;

/// The pressured multi-region workload: ten nodes over five grids,
/// 16 functions, squeezed keep-alive budgets so the overflow/transfer
/// path runs — but without cross-shard contention, so sharded replay
/// stays in the exact-equality regime.
fn multi_region_setup(budget_mib: u64) -> (Trace, CiBundle, Fleet) {
    let trace = SynthTraceConfig {
        n_functions: 16,
        duration_min: 120,
        seed: 21,
        ..Default::default()
    }
    .generate(&WorkloadCatalog::sebs());
    let bundle = CiBundle::synthetic_all(150, 21);
    let fleet = skus::fleet_five_regions().with_uniform_keepalive_budget_mib(budget_mib);
    (trace, bundle, fleet)
}

fn capture_sequential(
    trace: &Trace,
    bundle: &CiBundle,
    fleet: &Fleet,
) -> (RunMetrics, CaptureSink) {
    let mut sink = CaptureSink::default();
    let metrics = Simulation::try_new_regional(trace, bundle, fleet.clone())
        .unwrap()
        .run_with_sink(
            &mut EcoLife::new(fleet.clone(), EcoLifeConfig::default()),
            &mut sink,
        );
    (metrics, sink)
}

#[test]
fn sharded_stream_is_byte_identical_to_sequential_at_any_layout() {
    let (trace, bundle, fleet) = multi_region_setup(16 * 1024);
    let (sequential, reference) = capture_sequential(&trace, &bundle, &fleet);
    assert!(
        sequential.expiry.expired > 0,
        "fixture must exercise expiry churn"
    );
    let ref_lines: Vec<String> = reference.lines().iter().map(|l| l.to_string()).collect();
    let ref_tip = reference.tip().expect("non-empty stream").to_string();
    verify_lines(ref_lines.iter().map(String::as_str)).expect("sequential chain verifies");

    for shards in [1usize, 2, 8] {
        for threads in [1usize, 2, 4] {
            let mut sink = CaptureSink::default();
            let m = Simulation::try_new_regional(&trace, &bundle, fleet.clone())
                .unwrap()
                .run_sharded_with_sink(
                    |_| EcoLife::new(fleet.clone(), EcoLifeConfig::default()),
                    &ShardOptions::new(shards).with_threads(threads),
                    &mut sink,
                );
            // Precondition for exact equality — and the regime the
            // existing record-identity tests pin.
            assert_eq!(
                m.reconcile_revocations, 0,
                "shards={shards} threads={threads}: workload unexpectedly contended"
            );
            assert_eq!(m.records, sequential.records);
            assert_eq!(
                sink.lines(),
                ref_lines.iter().map(String::as_str).collect::<Vec<_>>(),
                "shards={shards} threads={threads}: stream diverged from sequential"
            );
            assert_eq!(sink.tip(), Some(ref_tip.as_str()));
        }
    }
}

#[test]
fn pressured_sharded_stream_is_thread_invariant() {
    // Under genuine memory pressure the sharded run has its own
    // (deterministic) semantics — and so does its stream: byte-identical
    // at every worker-thread count for a fixed shard layout.
    let (trace, bundle, fleet) = multi_region_setup(4 * 1024);
    let run = |threads: usize| {
        let mut sink = CaptureSink::default();
        let m = Simulation::try_new_regional(&trace, &bundle, fleet.clone())
            .unwrap()
            .run_sharded_with_sink(
                |_| EcoLife::new(fleet.clone(), EcoLifeConfig::default()),
                &ShardOptions::new(8).with_threads(threads),
                &mut sink,
            );
        (m, sink)
    };
    let (reference, ref_sink) = run(1);
    assert!(
        reference.transfers + reference.evicted_functions > 0,
        "pressured workload did not overflow"
    );
    verify_lines(ref_sink.lines()).expect("pressured chain verifies");
    for threads in [2usize, 4] {
        let (m, sink) = run(threads);
        assert_eq!(m.reconcile_revocations, reference.reconcile_revocations);
        assert_eq!(
            sink.lines(),
            ref_sink.lines(),
            "pressured stream diverged at {threads} workers"
        );
    }
}

#[test]
fn contended_sharded_stream_still_chains_and_counts_revocations() {
    // A budget tight enough that shards overcommit and the
    // reconciliation pass revokes: the stream legitimately differs from
    // sequential here, but must still verify and must carry exactly one
    // `revoked` event per counted revocation.
    let (trace, bundle, fleet) = multi_region_setup(512);
    let mut sink = CaptureSink::default();
    let m = Simulation::try_new_regional(&trace, &bundle, fleet.clone())
        .unwrap()
        .run_sharded_with_sink(
            |_| EcoLife::new(fleet.clone(), EcoLifeConfig::default()),
            &ShardOptions::new(8).with_threads(4),
            &mut sink,
        );
    assert!(
        m.reconcile_revocations > 0,
        "512 MiB budget was expected to contend"
    );
    let summary = verify_lines(sink.lines()).expect("contended chain verifies");
    assert_eq!(summary.events as usize, sink.len());
    let revoked = sink
        .lines()
        .iter()
        .filter(|l| str_field(l, "type") == Some("Revoked"))
        .count();
    assert_eq!(revoked as u64, m.reconcile_revocations);
}

#[test]
fn stream_replays_into_run_metrics() {
    // The reconstruction contract on the pressured fixture: counts and
    // per-node keep-alive gram totals, recovered from the emitted lines
    // alone, equal the run's metrics — grams to the exact bit, because
    // stream order is engine accumulation order and floats serialize
    // shortest-roundtrip.
    let (trace, bundle, fleet) = multi_region_setup(6 * 1024);
    let (m, sink) = capture_sequential(&trace, &bundle, &fleet);
    assert!(m.transfers > 0, "fixture must exercise the transfer path");

    let mut warm = 0u64;
    let mut cold = 0u64;
    let mut transfers = 0u64;
    let mut expired = 0u64;
    let mut keepalive_g = vec![0.0f64; fleet.len()];
    for line in sink.lines() {
        match str_field(line, "type").unwrap() {
            "WarmHit" => warm += 1,
            "ColdStarted" => cold += 1,
            "Transferred" => transfers += 1,
            "Expired" | "Released" | "Revoked" => {
                if str_field(line, "type") == Some("Expired") {
                    expired += 1;
                }
                let node = u64_field(line, "node").unwrap() as usize;
                let g: f64 = field(line, "keepalive_g").unwrap().parse().unwrap();
                keepalive_g[node] += g;
            }
            _ => {}
        }
    }
    assert_eq!((warm + cold) as usize, m.invocations());
    assert_eq!(warm as usize, m.warm_starts());
    assert_eq!(transfers, m.transfers);
    // Every mid-run sweep expiry is in the stream; the end-of-run drain
    // additionally settles still-warm containers as `Expired` (charged
    // to their scheduled expiry), which pool sweep stats don't count.
    assert!(
        expired >= m.expiry.expired,
        "{expired} < {}",
        m.expiry.expired
    );
    let run_ended = sink.lines().last().copied().unwrap();
    assert_eq!(str_field(run_ended, "type"), Some("RunEnded"));
    assert_eq!(u64_field(run_ended, "expired"), Some(m.expiry.expired));
    assert_eq!(u64_field(run_ended, "transfers"), Some(m.transfers));
    let got: Vec<u64> = keepalive_g.iter().map(|g| g.to_bits()).collect();
    let want: Vec<u64> = m.keepalive_g_by_node.iter().map(|g| g.to_bits()).collect();
    assert_eq!(
        got, want,
        "per-node keep-alive grams did not replay bit-exactly"
    );
}

/// A trace with no invocations ingests no index to anchor its plan
/// events at, so the seal emits them at index 0 = `trace.len()`: node 1
/// leaving and node 0 crashing at t = 0 are narrated, and node 0's
/// recovery, after the horizon, is not. The sequential, 2-shard and
/// live-service streams are the same bytes.
#[test]
fn a_trace_with_no_invocations_narrates_its_plans_at_the_seal() {
    let trace = Trace::new(WorkloadCatalog::sebs(), Vec::new());
    let ci = CarbonIntensityTrace::constant(300.0, 60);
    let fleet = skus::fleet_a();
    let membership = MembershipPlan::default().leave(0, NodeId(1));
    let faults = FaultPlan::default().crash(NodeId(0), 0, 1_000);
    let ecolife = |_| EcoLife::new(fleet.clone(), EcoLifeConfig::default());
    let sim = Simulation::new(&trace, &ci, fleet.clone())
        .with_membership(membership.clone())
        .with_faults(faults.clone());

    let mut sequential = CaptureSink::default();
    sim.run_with_sink(&mut ecolife(0), &mut sequential);
    let mut sharded = CaptureSink::default();
    sim.run_sharded_with_sink(ecolife, &ShardOptions::new(2), &mut sharded);
    let mut live = CaptureSink::default();
    Service::new(trace.catalog().clone(), &ci, fleet.clone())
        .with_membership(membership)
        .with_faults(faults)
        .serve_with_sink(trace.source(), &mut ecolife(0), &mut live)
        .unwrap();

    assert_eq!(sharded.lines(), sequential.lines());
    assert_eq!(live.lines(), sequential.lines());
    let types: Vec<&str> = sequential
        .lines()
        .into_iter()
        .map(|l| str_field(l, "type").unwrap())
        .collect();
    assert_eq!(
        types,
        ["RunStarted", "MembershipChanged", "NodeCrashed", "RunEnded"]
    );
    verify_lines(sequential.lines()).expect("chain verifies");
    assert_eq!(sequential.tip().map(|t| &t[..8]), Some("8b0a3d2e"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Satellite contract: for *any* multi-region workload — pressured
    /// or not — the captured sequential stream alone reconstructs the
    /// run's headline metrics: invocation/warm counts exactly, and the
    /// per-node keep-alive gram totals to the exact bit (stream order
    /// is engine accumulation order; floats serialize
    /// shortest-roundtrip). The chain verifies along the way.
    #[test]
    fn any_captured_stream_reconstructs_its_run_metrics(
        seed in 0u64..100_000,
        n_functions in 4usize..20,
        duration_min in 30u64..80,
        budget_gib in 2u64..14,
    ) {
        let trace = SynthTraceConfig {
            n_functions,
            duration_min,
            seed,
            ..Default::default()
        }
        .generate(&WorkloadCatalog::sebs());
        let bundle = CiBundle::synthetic_all(150, seed);
        let fleet = skus::fleet_five_regions()
            .with_uniform_keepalive_budget_mib(budget_gib * 1024);
        let (m, sink) = capture_sequential(&trace, &bundle, &fleet);

        let summary = verify_lines(sink.lines()).expect("chain verifies");
        prop_assert_eq!(summary.events as usize, sink.len());

        let mut warm = 0u64;
        let mut cold = 0u64;
        let mut transfers = 0u64;
        let mut revoked = 0u64;
        let mut keepalive_g = vec![0.0f64; fleet.len()];
        for line in sink.lines() {
            match str_field(line, "type").unwrap() {
                "WarmHit" => warm += 1,
                "ColdStarted" => cold += 1,
                "Transferred" => transfers += 1,
                t @ ("Expired" | "Released" | "Revoked") => {
                    if t == "Revoked" {
                        revoked += 1;
                    }
                    let node = u64_field(line, "node").unwrap() as usize;
                    let g: f64 = field(line, "keepalive_g").unwrap().parse().unwrap();
                    keepalive_g[node] += g;
                }
                _ => {}
            }
        }
        prop_assert_eq!((warm + cold) as usize, m.invocations());
        prop_assert_eq!(warm as usize, m.warm_starts());
        prop_assert_eq!(transfers, m.transfers);
        // The sequential reference never revokes (reconciliation is a
        // sharded-only phase).
        prop_assert_eq!(revoked, 0);
        prop_assert_eq!(m.reconcile_revocations, 0);
        let got: Vec<u64> = keepalive_g.iter().map(|g| g.to_bits()).collect();
        let want: Vec<u64> = m.keepalive_g_by_node.iter().map(|g| g.to_bits()).collect();
        prop_assert_eq!(got, want);
    }
}
