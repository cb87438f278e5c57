//! The cached decision hot path is an *optimization*, never a semantic
//! change: EcoLife with `ObjectiveTables` (the default) must replay
//! **byte-identically** to the uncached reference path
//! (`EcoLifeConfig::without_cached_tables`) — compared on the engines'
//! hash-chained telemetry streams ([`CaptureSink`] +
//! [`first_divergence`]), so every placement, displacement, gram, and
//! expiry is covered by a single chain-tip equality — on multi-region
//! fleets, under memory pressure (the warm-pool ranking read from the
//! tables and the memoized transfer ranking, on two nodes and on ten
//! with priced transfers), when degraded decisions' keep-alives
//! overflow, restricted to one node, sequentially and through
//! `run_sharded` at any worker-thread count.

use ecolife::prelude::*;
use ecolife::sim::{Decision, InvocationCtx, OverflowAction, OverflowCtx};
use ecolife::telemetry::diff::first_divergence;

/// A multi-region workload: one hardware pair per grid region (ten
/// nodes, five grids), synthetic per-region CI feeds, 16 functions.
fn multi_region_setup() -> (Trace, CiBundle, Fleet) {
    let trace = SynthTraceConfig {
        n_functions: 16,
        duration_min: 120,
        seed: 21,
        ..Default::default()
    }
    .generate(&WorkloadCatalog::sebs());
    let bundle = CiBundle::synthetic_all(150, 21);
    let fleet = skus::fleet_five_regions().with_uniform_keepalive_budget_mib(16 * 1024);
    (trace, bundle, fleet)
}

fn cached(fleet: &Fleet) -> EcoLife {
    EcoLife::new(fleet.clone(), EcoLifeConfig::default())
}

fn uncached(fleet: &Fleet) -> EcoLife {
    EcoLife::new(
        fleet.clone(),
        EcoLifeConfig::default().without_cached_tables(),
    )
}

/// Byte-identical streams or a panic naming the first divergent event.
fn assert_same_stream(reference: &CaptureSink, candidate: &CaptureSink, what: &str) {
    if let Some(d) = first_divergence(&reference.lines(), &candidate.lines()) {
        panic!("{what}: streams diverged: {d:?}");
    }
    assert_eq!(candidate.tip(), reference.tip(), "{what}: chain tip");
}

#[test]
fn cached_tables_are_bit_identical_on_a_multi_region_fleet() {
    let (trace, bundle, fleet) = multi_region_setup();
    let run = |mut eco: EcoLife| {
        let mut sink = CaptureSink::default();
        Simulation::try_new_regional(&trace, &bundle, fleet.clone())
            .unwrap()
            .run_with_sink(&mut eco, &mut sink);
        sink
    };
    let fast = run(cached(&fleet));
    let reference = run(uncached(&fleet));
    assert_same_stream(
        &reference,
        &fast,
        "cached tables changed a decision on the multi-region fleet",
    );
}

#[test]
fn cached_tables_are_bit_identical_sharded_at_any_thread_count() {
    let (trace, bundle, fleet) = multi_region_setup();
    let sim = Simulation::try_new_regional(&trace, &bundle, fleet.clone()).unwrap();
    let mut sequential = CaptureSink::default();
    sim.run_with_sink(&mut cached(&fleet), &mut sequential);
    for threads in [1usize, 2, 4] {
        let run_sharded = |make: &dyn Fn() -> EcoLife| {
            let mut sink = CaptureSink::default();
            sim.run_sharded_with_sink(
                |_| make(),
                &ShardOptions::new(8).with_threads(threads),
                &mut sink,
            );
            sink
        };
        let fast = run_sharded(&|| cached(&fleet));
        let reference = run_sharded(&|| uncached(&fleet));
        assert_same_stream(
            &reference,
            &fast,
            &format!("cached vs uncached sharded at {threads} workers"),
        );
        assert_same_stream(
            &sequential,
            &fast,
            &format!("sharded vs sequential at {threads} workers"),
        );
    }
}

/// Memory pressure drives the overflow path — priority adjustment plus
/// the (memoized) transfer-target ranking — which must not change a
/// single displacement either.
#[test]
fn cached_tables_are_bit_identical_under_memory_pressure() {
    let trace = SynthTraceConfig {
        n_functions: 24,
        duration_min: 90,
        seed: 23,
        ..Default::default()
    }
    .generate(&WorkloadCatalog::sebs());
    let ci = CarbonIntensityTrace::synthetic(Region::Caiso, 120, 23);
    let fleet = Fleet::from(skus::pair_a()).with_uniform_keepalive_budget_mib(6 * 1024);
    let run = |mut eco: EcoLife| {
        let mut sink = CaptureSink::default();
        let m = Simulation::new(&trace, &ci, fleet.clone()).run_with_sink(&mut eco, &mut sink);
        (m, sink)
    };
    let (_, fast) = run(cached(&fleet));
    let (reference_m, reference) = run(uncached(&fleet));
    assert!(
        reference_m.transfers > 0,
        "workload must exercise the overflow/transfer path"
    );
    assert_same_stream(&reference, &fast, "cached tables under memory pressure");
}

/// Priced cross-region migration, as in the migration and chaos
/// scenarios.
fn priced_transfers() -> TransferCost {
    TransferCost {
        egress_kwh_per_mib: 2.0e-9,
        latency_ms: 50,
    }
}

fn priced(fleet: &Fleet, config: EcoLifeConfig) -> EcoLife {
    EcoLife::new(fleet.clone(), config.with_transfer_cost(priced_transfers()))
}

/// The ten-node overflow path: the warm-pool ranking served from the
/// tables (one row lookup per resident) plus the memoized, priced
/// transfer ranking must displace and transfer exactly what the
/// uncached per-candidate cost-model scans do — sequentially and
/// through `run_sharded` at any worker count.
#[test]
fn cached_tables_are_bit_identical_under_pressure_on_five_regions() {
    let trace = SynthTraceConfig {
        n_functions: 40,
        duration_min: 90,
        seed: 29,
        ..Default::default()
    }
    .generate(&WorkloadCatalog::sebs());
    let bundle = CiBundle::synthetic_all(120, 29);
    let fleet = skus::fleet_five_regions().with_uniform_keepalive_budget_mib(3 * 1024);
    let sim = Simulation::try_new_regional(&trace, &bundle, fleet.clone())
        .unwrap()
        .with_config(SimConfig::default().with_transfer_cost(priced_transfers()));

    let run = |config: EcoLifeConfig| {
        let mut sink = CaptureSink::default();
        let m = sim.run_with_sink(&mut priced(&fleet, config), &mut sink);
        (m, sink)
    };
    let (fast_m, fast) = run(EcoLifeConfig::default());
    let (_, reference) = run(EcoLifeConfig::default().without_cached_tables());
    assert!(
        fast_m.transfers > 0,
        "workload must exercise the overflow/transfer path"
    );
    assert_same_stream(&reference, &fast, "five-region pressure, sequential");

    for threads in [1usize, 2, 4] {
        let run_sharded = |config: EcoLifeConfig| {
            let mut sink = CaptureSink::default();
            let m = sim.run_sharded_with_sink(
                |_| priced(&fleet, config.clone()),
                &ShardOptions::new(8).with_threads(threads),
                &mut sink,
            );
            (m, sink)
        };
        let (fast_m, fast) = run_sharded(EcoLifeConfig::default());
        let (_, reference) = run_sharded(EcoLifeConfig::default().without_cached_tables());
        assert!(fast_m.transfers > 0, "sharded at {threads} workers");
        assert_same_stream(
            &reference,
            &fast,
            &format!("five-region pressure, sharded at {threads} workers"),
        );
    }
}

/// The five synthetic region feeds, each switched between a clean and a
/// dirty phase every five minutes, out of phase across regions: the
/// per-node intensity vector moves sharply every few minutes, so a
/// warm-pool ranking read at a stale epoch ranks the pool differently.
fn flickering_bundle(minutes: usize, seed: u64) -> CiBundle {
    let base = CiBundle::synthetic_all(minutes, seed);
    let entries = base
        .entries()
        .iter()
        .enumerate()
        .map(|(r, (region, series))| {
            let samples = series
                .samples()
                .iter()
                .enumerate()
                .map(|(m, &ci)| {
                    if (m / 5 + r) % 2 == 0 {
                        0.1 * ci
                    } else {
                        1.5 * ci
                    }
                })
                .collect();
            (*region, CarbonIntensityTrace::from_samples(samples))
        })
        .collect();
    CiBundle::new(entries).expect("one series per region")
}

/// EcoLife behind a probe that counts overflows landing at a minute no
/// `decide` call has seen — the overflows whose table epoch only the
/// overflow path itself can refresh.
struct EpochProbe {
    inner: EcoLife,
    decided_minute: Option<u64>,
    overflows_without_decide: u64,
}

impl Scheduler for EpochProbe {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn prepare(&mut self, trace: &Trace) {
        self.inner.prepare(trace);
    }

    fn decide(&mut self, ctx: &InvocationCtx<'_>) -> Decision {
        self.decided_minute = Some(ctx.t_ms / MINUTE_MS);
        self.inner.decide(ctx)
    }

    fn on_pool_overflow(&mut self, ctx: &OverflowCtx<'_>) -> OverflowAction {
        if self.decided_minute != Some(ctx.t_ms / MINUTE_MS) {
            self.overflows_without_decide += 1;
        }
        self.inner.on_pool_overflow(ctx)
    }

    fn observe(&mut self, ctx: &InvocationCtx<'_>, service_ms: u64, warm: bool) {
        self.inner.observe(ctx, service_ms, warm);
    }
}

/// A CI blackout past the staleness bound degrades every decision: the
/// engine bypasses `decide` but still installs the fallback keep-alives,
/// and when those overflow EcoLife ranks the pool at minutes its tables
/// never refreshed for. The cached path must still match the uncached
/// one byte for byte (on flickering feeds, where ranking at the last
/// `decide`'s epoch instead would move transfers).
#[test]
fn cached_tables_are_bit_identical_when_degraded_keepalives_overflow() {
    let trace = SynthTraceConfig {
        n_functions: 40,
        duration_min: 90,
        seed: 31,
        ..Default::default()
    }
    .generate(&WorkloadCatalog::sebs());
    let bundle = flickering_bundle(120, 31);
    let fleet = skus::fleet_five_regions().with_uniform_keepalive_budget_mib(3 * 1024);
    let faults = FaultPlan::default().ci_outage(Region::Tennessee, 10 * MINUTE_MS, 70 * MINUTE_MS);
    let run = |config: EcoLifeConfig| {
        let mut probe = EpochProbe {
            inner: priced(&fleet, config),
            decided_minute: None,
            overflows_without_decide: 0,
        };
        let mut sink = CaptureSink::default();
        let m = Simulation::try_new_regional(&trace, &bundle, fleet.clone())
            .unwrap()
            .with_config(SimConfig::default().with_transfer_cost(priced_transfers()))
            .with_faults(faults.clone())
            .run_with_sink(&mut probe, &mut sink);
        (m, probe.overflows_without_decide, sink)
    };
    let (fast_m, undecided, fast) = run(EcoLifeConfig::default());
    let (_, _, reference) = run(EcoLifeConfig::default().without_cached_tables());
    assert!(
        fast_m.degraded_decisions > 0,
        "the outage must out-stale the policy bound"
    );
    assert!(
        undecided > 0,
        "degraded keep-alives must overflow at minutes no decide saw"
    );
    assert_same_stream(&reference, &fast, "degraded keep-alives overflowing");
}

#[test]
fn cached_tables_are_bit_identical_when_restricted_to_one_node() {
    let trace = SynthTraceConfig::small(7).generate(&WorkloadCatalog::sebs());
    let ci = CarbonIntensityTrace::synthetic(Region::Texas, 120, 7);
    let fleet = skus::fleet_three_generations();
    for node in [NodeId(0), NodeId(1), NodeId(2)] {
        let run = |cfg: EcoLifeConfig| {
            let mut eco = EcoLife::new(fleet.clone(), cfg.restricted_to(node));
            let mut sink = CaptureSink::default();
            let m = Simulation::new(&trace, &ci, fleet.clone()).run_with_sink(&mut eco, &mut sink);
            (m, sink)
        };
        let (fast_m, fast) = run(EcoLifeConfig::default());
        let (_, reference) = run(EcoLifeConfig::default().without_cached_tables());
        assert_same_stream(&reference, &fast, &format!("restricted-to-{node} runs"));
        assert!(fast_m.records.iter().all(|r| r.exec_location == node));
    }
}

/// The oracle's future knowledge is recomputed on every `prepare`; two
/// runs over the same inputs must emit the same stream.
#[test]
fn oracle_repeat_runs_emit_the_same_stream() {
    let trace = SynthTraceConfig {
        n_functions: 12,
        duration_min: 90,
        seed: 31,
        ..Default::default()
    }
    .generate(&WorkloadCatalog::sebs());
    let ci = CarbonIntensityTrace::synthetic(Region::Caiso, 120, 31);
    let fleet = skus::fleet_a();
    let run = || {
        let mut oracle = BruteForce::oracle(fleet.clone(), ci.clone());
        let mut sink = CaptureSink::default();
        Simulation::new(&trace, &ci, fleet.clone()).run_with_sink(&mut oracle, &mut sink);
        sink
    };
    assert_same_stream(&run(), &run(), "oracle repeat runs");
}
