//! The expiry timeline is an *optimization*, never a semantic change:
//! the per-pool heap of scheduled expiries (`ExpiryMode::Timeline`, the
//! default) must produce bit-identical runs — every float of every
//! record, and every event of the hash-chained stream, equal — to the
//! original full-pool scan (`ExpiryMode::Scan`, kept as the reference),
//! under memory pressure with transfers and revocations, sequentially
//! and through `run_sharded` at shard counts {1, 2, 8} × worker threads
//! {1, 2, 4}.
//!
//! The directed matrix pins the exact configurations above; the
//! proptest block then fuzzes workloads, fleets, and budgets around
//! them, under two policies: a pinned 10-minute keep-alive, and one
//! that alternates 10 minutes with 20 seconds, so a function's next
//! expiry often comes *earlier* than the one the timeline holds. Both
//! paths also cross-check the expiry counters: the two modes must agree
//! on *how many* containers lapsed, while each mode's own mechanism
//! counters (`scanned` vs `timeline_pops`) prove which code path
//! actually ran.

use ecolife::prelude::*;
use ecolife::sim::{Decision, ExpiryMode, InvocationCtx, KeepAliveChoice, ShardOptions};
use ecolife::telemetry::diff::first_divergence;
use proptest::prelude::*;

/// A random fleet of 1–4 nodes drawn from the SKU catalog (duplicates
/// allowed), with one shared keep-alive budget.
fn fleet_from(sku_picks: &[usize], budget_mib: u64) -> Fleet {
    let catalog = skus::catalog();
    let skus: Vec<Sku> = sku_picks
        .iter()
        .map(|&i| catalog[i % catalog.len()])
        .collect();
    skus::fleet_of(&skus).with_uniform_keepalive_budget_mib(budget_mib)
}

fn workload(n_functions: usize, duration_min: u64, seed: u64) -> (Trace, CarbonIntensityTrace) {
    let trace = SynthTraceConfig {
        n_functions,
        duration_min,
        seed,
        ..Default::default()
    }
    .generate_scaled(&WorkloadCatalog::sebs());
    let ci = CarbonIntensityTrace::synthetic(Region::Caiso, duration_min as usize + 30, seed);
    (trace, ci)
}

/// One record, every float as exact bits:
/// `(func, t, node, warm, service_ms, service_g, keepalive_g, energy)`.
type RecordBits = (u32, u64, u64, bool, u64, u64, u64, u64);

/// Everything decision-dependent in a run, floats compared exactly
/// (decision overhead is wall-clock and excluded).
fn fingerprint(m: &RunMetrics) -> (Vec<RecordBits>, u64, u64) {
    (
        m.records
            .iter()
            .map(|r| {
                (
                    r.func.0,
                    r.t_ms,
                    r.exec_location.0 as u64,
                    r.warm,
                    r.service_ms,
                    r.service_carbon.total_g().to_bits(),
                    r.keepalive_carbon.total_g().to_bits(),
                    r.energy_kwh.to_bits(),
                )
            })
            .collect(),
        m.evicted_functions,
        m.transfers,
    )
}

/// Per-node keep-alive gram totals, bit-exact. Only comparable between
/// runs with the same shard layout (summation order is per shard).
fn by_node_bits(m: &RunMetrics) -> Vec<u64> {
    m.keepalive_g_by_node.iter().map(|g| g.to_bits()).collect()
}

fn config_for(mode: ExpiryMode) -> SimConfig {
    SimConfig::default().with_expiry(mode)
}

fn run_sequential(
    trace: &Trace,
    ci: &CarbonIntensityTrace,
    fleet: &Fleet,
    mode: ExpiryMode,
) -> RunMetrics {
    let config = EcoLifeConfig {
        pso_iters: 2,
        ..EcoLifeConfig::default()
    };
    Simulation::new(trace, ci, fleet.clone())
        .with_config(config_for(mode))
        .run(&mut EcoLife::new(fleet.clone(), config))
}

fn run_sharded(
    trace: &Trace,
    ci: &CarbonIntensityTrace,
    fleet: &Fleet,
    mode: ExpiryMode,
    shards: usize,
    threads: usize,
) -> RunMetrics {
    let config = EcoLifeConfig {
        pso_iters: 2,
        ..EcoLifeConfig::default()
    };
    Simulation::new(trace, ci, fleet.clone())
        .with_config(config_for(mode))
        .run_sharded(
            |_| EcoLife::new(fleet.clone(), config.clone()),
            &ShardOptions::new(shards).with_threads(threads),
        )
}

/// A workload + fleet squeezed hard enough that the warm pools overflow:
/// the run must exhibit transfers (and, sharded, revocations are live),
/// so the equality below covers the adversarial paths — eviction,
/// transfer re-insertion, reconciliation expiry — not just happy aging.
fn pressured_setup() -> (Trace, CarbonIntensityTrace, Fleet) {
    let (trace, ci) = workload(14, 60, 11);
    let fleet = fleet_from(&[0, 2], 3_000);
    (trace, ci, fleet)
}

#[test]
fn timeline_matches_scan_sequentially_under_pressure() {
    let (trace, ci, fleet) = pressured_setup();
    let scan = run_sequential(&trace, &ci, &fleet, ExpiryMode::Scan);
    let timeline = run_sequential(&trace, &ci, &fleet, ExpiryMode::Timeline);

    // The setup must actually exercise the adversarial paths.
    assert!(scan.transfers > 0, "setup no longer forces transfers");
    assert!(scan.expiry.expired > 0, "setup never expires a container");

    assert_eq!(fingerprint(&timeline), fingerprint(&scan));
    assert_eq!(by_node_bits(&timeline), by_node_bits(&scan));

    // Same lapse count, different mechanism — and proof each mode ran
    // its own code path.
    assert_eq!(timeline.expiry.expired, scan.expiry.expired);
    assert!(scan.expiry.scanned > 0, "scan mode never scanned");
    assert_eq!(
        timeline.expiry.scanned, 0,
        "timeline mode fell back to scanning"
    );
    assert_eq!(scan.expiry.timeline_pops, 0, "scan mode touched the heap");
    assert!(
        timeline.expiry.timeline_pops >= timeline.expiry.expired,
        "every expiry must come off the heap"
    );
}

#[test]
fn timeline_matches_scan_across_the_shard_thread_matrix() {
    let (trace, ci, fleet) = pressured_setup();
    let reference = run_sequential(&trace, &ci, &fleet, ExpiryMode::Scan);
    assert!(reference.transfers > 0, "setup no longer forces transfers");

    for &shards in &[1usize, 2, 8] {
        let scan = run_sharded(&trace, &ci, &fleet, ExpiryMode::Scan, shards, 1);
        for &threads in &[1usize, 2, 4] {
            let timeline = run_sharded(&trace, &ci, &fleet, ExpiryMode::Timeline, shards, threads);
            assert_eq!(
                fingerprint(&timeline),
                fingerprint(&scan),
                "records diverged at shards={shards} threads={threads}"
            );
            assert_eq!(
                by_node_bits(&timeline),
                by_node_bits(&scan),
                "per-node grams diverged at shards={shards} threads={threads}"
            );
            assert_eq!(
                timeline.ledger_peak_mib, scan.ledger_peak_mib,
                "ledger peaks diverged at shards={shards} threads={threads}"
            );
            assert_eq!(
                timeline.reconcile_revocations, scan.reconcile_revocations,
                "revocations diverged at shards={shards} threads={threads}"
            );
            assert_eq!(timeline.expiry.expired, scan.expiry.expired);
            assert_eq!(timeline.expiry.scanned, 0);
        }
        // One shard with the scan reference must also equal the plain
        // sequential run — the batching layer adds nothing.
        if shards == 1 {
            assert_eq!(fingerprint(&scan), fingerprint(&reference));
        }
    }
}

/// Executes and keeps alive on the fleet's newest node for 10 minutes
/// after even-indexed invocations and 20 seconds after odd ones: a
/// function reused within a long keep-alive is often re-kept for a
/// short one, which moves its expiry *earlier*.
struct AlternatingKeepAlive;

impl Scheduler for AlternatingKeepAlive {
    fn name(&self) -> &'static str {
        "alternating-keep-alive"
    }

    fn decide(&mut self, ctx: &InvocationCtx<'_>) -> Decision {
        let newest = ctx.cluster.fleet().newest();
        let duration_ms = if ctx.index.is_multiple_of(2) {
            10 * MINUTE_MS
        } else {
            20_000
        };
        Decision {
            exec: newest,
            keepalive: Some(KeepAliveChoice {
                location: newest,
                duration_ms,
            }),
        }
    }
}

/// The proptests' two policies: `FixedPolicy`'s long 10-minute
/// keep-alive maximizes resident containers, so small budgets overflow
/// constantly; [`AlternatingKeepAlive`] also shortens keep-alives.
fn policy(alternating: bool, fleet: &Fleet) -> Box<dyn Scheduler + Send> {
    if alternating {
        Box::new(AlternatingKeepAlive)
    } else {
        Box::new(FixedPolicy::pinned(fleet.newest(), 10))
    }
}

/// Byte-identical event streams, or a failure naming the first
/// divergent event.
fn same_stream(scan: &CaptureSink, timeline: &CaptureSink) -> Result<(), TestCaseError> {
    if let Some(d) = first_divergence(&scan.lines(), &timeline.lines()) {
        return Err(TestCaseError::fail(format!("streams diverged: {d:?}")));
    }
    prop_assert_eq!(timeline.tip(), scan.tip());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Sequential bit-identity over random workloads, fleets, and
    /// keep-alive budgets — roomy and brutal alike — under each policy.
    #[test]
    fn timeline_equals_scan_sequential(
        seed in 0u64..1_000_000,
        n_functions in 4usize..16,
        duration_min in 20u64..60,
        sku_picks in prop::collection::vec(0usize..4, 1..5),
        budget_mib in 512u64..8_000,
    ) {
        let (trace, ci) = workload(n_functions, duration_min, seed);
        let fleet = fleet_from(&sku_picks, budget_mib);
        for alternating in [false, true] {
            let run = |mode: ExpiryMode| {
                let mut sink = CaptureSink::default();
                let metrics = Simulation::new(&trace, &ci, fleet.clone())
                    .with_config(config_for(mode))
                    .run_with_sink(&mut policy(alternating, &fleet), &mut sink);
                (metrics, sink)
            };
            let (scan, scan_stream) = run(ExpiryMode::Scan);
            let (timeline, timeline_stream) = run(ExpiryMode::Timeline);
            prop_assert_eq!(fingerprint(&timeline), fingerprint(&scan));
            prop_assert_eq!(by_node_bits(&timeline), by_node_bits(&scan));
            prop_assert_eq!(timeline.expiry.expired, scan.expiry.expired);
            same_stream(&scan_stream, &timeline_stream)?;
        }
    }

    /// Sharded bit-identity: same fuzz, arbitrary shard/thread counts,
    /// pressured budgets so reconciliation revokes and transfers.
    #[test]
    fn timeline_equals_scan_sharded(
        seed in 0u64..1_000_000,
        n_functions in 4usize..16,
        sku_picks in prop::collection::vec(0usize..4, 1..4),
        budget_mib in 512u64..6_000,
        shards in prop_oneof![Just(1usize), Just(2usize), Just(8usize)],
        threads in prop_oneof![Just(1usize), Just(2usize), Just(4usize)],
    ) {
        let (trace, ci) = workload(n_functions, 30, seed);
        let fleet = fleet_from(&sku_picks, budget_mib);
        for alternating in [false, true] {
            let run = |mode: ExpiryMode| {
                let mut sink = CaptureSink::default();
                let metrics = Simulation::new(&trace, &ci, fleet.clone())
                    .with_config(config_for(mode))
                    .run_sharded_with_sink(
                        |_| policy(alternating, &fleet),
                        &ShardOptions::new(shards).with_threads(threads),
                        &mut sink,
                    );
                (metrics, sink)
            };
            let (scan, scan_stream) = run(ExpiryMode::Scan);
            let (timeline, timeline_stream) = run(ExpiryMode::Timeline);
            prop_assert_eq!(fingerprint(&timeline), fingerprint(&scan));
            prop_assert_eq!(by_node_bits(&timeline), by_node_bits(&scan));
            prop_assert_eq!(timeline.ledger_peak_mib.clone(), scan.ledger_peak_mib.clone());
            prop_assert_eq!(timeline.reconcile_revocations, scan.reconcile_revocations);
            prop_assert_eq!(timeline.expiry.expired, scan.expiry.expired);
            same_stream(&scan_stream, &timeline_stream)?;
        }
    }
}
