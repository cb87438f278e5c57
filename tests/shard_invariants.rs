//! Property suite for the sharded replay engine: random workloads and
//! fleets, three invariants (ISSUE 3):
//!
//! 1. **merge exactness** — with pools roomy enough that no node ever
//!    overflows, the merged per-shard metrics equal the whole-run
//!    (sequential) metrics, record for record;
//! 2. **capacity after reconciliation** — under arbitrary (including
//!    brutal) memory pressure, no node's post-reconciliation occupancy
//!    ever exceeds its keep-alive budget;
//! 3. **carbon accounting closure** — `carbon_g_by_node` sums to the
//!    run's total carbon, sequential or sharded, pressured or not.
//!
//! The big million-invocation replay rides at the bottom, `#[ignore]`d
//! in debug builds and exercised by the `test-release` CI job.

use ecolife::carbon::CarbonFootprint;
use ecolife::prelude::*;
use ecolife::sim::{shard_of, InvocationRecord, ShardOptions};
use proptest::prelude::*;

/// A random fleet of 1–4 nodes drawn from the SKU catalog (duplicates
/// allowed — horizontal scale-out), with one shared keep-alive budget.
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

/// Every field of one record, each float as its bits: two outcomes are
/// equal only when the records are equal bit for bit.
type Outcome = (FunctionId, u64, NodeId, bool, u64, u64, bool, [u64; 5]);

fn outcome(r: &InvocationRecord) -> Outcome {
    let InvocationRecord {
        func,
        t_ms,
        exec_location,
        warm,
        service_ms,
        queue_ms,
        rejected,
        service_carbon:
            CarbonFootprint {
                operational_g: service_op,
                embodied_g: service_emb,
            },
        keepalive_carbon:
            CarbonFootprint {
                operational_g: keepalive_op,
                embodied_g: keepalive_emb,
            },
        energy_kwh,
    } = *r;
    let floats = [
        service_op,
        service_emb,
        keepalive_op,
        keepalive_emb,
        energy_kwh,
    ];
    let floats = floats.map(f64::to_bits);
    (
        func,
        t_ms,
        exec_location,
        warm,
        service_ms,
        queue_ms,
        rejected,
        floats,
    )
}

/// `None` when two runs' records agree bit for bit and so do their
/// eviction and transfer counts; otherwise how many records differ and
/// the first that does, short enough to read on a million records.
fn difference(a: &RunMetrics, b: &RunMetrics) -> Option<String> {
    let counters = |m: &RunMetrics| (m.evicted_functions, m.transfers);
    if counters(a) != counters(b) {
        return Some(format!(
            "(evictions, transfers) {:?} vs {:?}",
            counters(a),
            counters(b)
        ));
    }
    let mut differing = (0..a.records.len().max(b.records.len()))
        .filter(|&i| a.records.get(i).map(outcome) != b.records.get(i).map(outcome));
    let first = differing.next()?;
    Some(format!(
        "{} of {} vs {} records differ; the first, at index {first}: {:?} vs {:?}",
        1 + differing.count(),
        a.records.len(),
        b.records.len(),
        a.records.get(first),
        b.records.get(first)
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// (1) Merge exactness in the no-overflow regime, engine-only
    /// (fixed policy): any workload, any fleet, any shard count.
    #[test]
    fn merged_shard_metrics_equal_whole_run_metrics(
        seed in 0u64..1_000_000,
        n_functions in 2usize..16,
        duration_min in 20u64..90,
        sku_picks in prop::collection::vec(0usize..4, 1..5),
        shards in 2usize..9,
    ) {
        let (trace, ci) = workload(n_functions, duration_min, seed);
        // Roomy pools: the whole catalog warm at once fits every node.
        let fleet = fleet_from(&sku_picks, 64 * 1024);
        let sim = Simulation::new(&trace, &ci, fleet.clone());

        let mut fixed = FixedPolicy::pinned(fleet.newest(), 10);
        let sequential = sim.run(&mut fixed);
        let sharded = sim.run_sharded(
            |_| FixedPolicy::pinned(fleet.newest(), 10),
            &ShardOptions::new(shards),
        );

        prop_assert_eq!(sharded.reconcile_revocations, 0);
        prop_assert_eq!(difference(&sharded, &sequential), None);
        // Aggregate views agree too (float sums to tolerance).
        prop_assert!((sharded.total_carbon_g() - sequential.total_carbon_g()).abs() < 1e-9);
        prop_assert_eq!(sharded.warm_starts(), sequential.warm_starts());
        for (a, b) in sharded.keepalive_g_by_node.iter().zip(&sequential.keepalive_g_by_node) {
            prop_assert!((a - b).abs() < 1e-9, "per-node keep-alive drifted: {} vs {}", a, b);
        }
    }

    /// (1b) Merge exactness holds for the full stateful scheduler too:
    /// per-function DPSO + predictors + global ΔCI, sharded, equals the
    /// sequential EcoLife bit for bit (fewer, smaller cases — each is a
    /// real EcoLife replay).
    #[test]
    fn ecolife_shards_exactly(
        seed in 0u64..100_000,
        n_functions in 2usize..10,
        sku_picks in prop::collection::vec(0usize..4, 1..4),
        shards in prop_oneof![Just(2usize), Just(3usize), Just(8usize)],
    ) {
        let (trace, ci) = workload(n_functions, 30, seed);
        let fleet = fleet_from(&sku_picks, 64 * 1024);
        let config = EcoLifeConfig { pso_iters: 2, ..EcoLifeConfig::default() };
        let sim = Simulation::new(&trace, &ci, fleet.clone());

        let sequential = sim.run(&mut EcoLife::new(fleet.clone(), config.clone()));
        let sharded = sim.run_sharded(
            |_| EcoLife::new(fleet.clone(), config.clone()),
            &ShardOptions::new(shards),
        );
        prop_assert_eq!(difference(&sharded, &sequential), None);
    }

    /// (2) Capacity after reconciliation + (3) carbon closure, under
    /// arbitrary pressure: tiny pools force constant overflow, stale
    /// snapshots, revocations — capacity must still hold at every
    /// reconciliation, and the books must still balance.
    #[test]
    fn pressured_shards_respect_capacity_and_close_the_books(
        seed in 0u64..1_000_000,
        n_functions in 4usize..20,
        sku_picks in prop::collection::vec(0usize..4, 1..4),
        budget_mib in 512u64..6_000,
        shards in 2usize..9,
        period_min in prop_oneof![Just(1u64), Just(5u64)],
    ) {
        let (trace, ci) = workload(n_functions, 45, seed);
        let fleet = fleet_from(&sku_picks, budget_mib);
        let sim = Simulation::new(&trace, &ci, fleet.clone());
        let m = sim.run_sharded(
            |_| FixedPolicy::pinned(fleet.newest(), 10),
            &ShardOptions::new(shards).with_period_ms(period_min * MINUTE_MS),
        );

        // Capacity invariant at every reconciliation boundary.
        prop_assert_eq!(m.ledger_peak_mib.len(), fleet.len());
        for (peak, node) in m.ledger_peak_mib.iter().zip(fleet.iter()) {
            prop_assert!(
                *peak <= node.keepalive_mem_mib,
                "node {:?}: post-reconciliation occupancy {} exceeds budget {}",
                node.id, peak, node.keepalive_mem_mib
            );
        }

        // Carbon closure: per-node grams sum to the run total, and the
        // keep-alive split stays consistent with the records.
        prop_assert_eq!(m.invocations(), trace.len());
        let by_node = m.carbon_g_by_node();
        let total = m.total_carbon_g();
        prop_assert!(
            (by_node.iter().sum::<f64>() - total).abs() < 1e-6 * total.max(1.0),
            "per-node carbon {:?} does not sum to total {}", by_node, total
        );
        let ka_by_node: f64 = m.keepalive_g_by_node.iter().sum();
        let ka_records = m.total_keepalive_carbon_g();
        prop_assert!(
            (ka_by_node - ka_records).abs() < 1e-6 * ka_records.max(1.0),
            "hosted keep-alive {} vs attributed {}", ka_by_node, ka_records
        );
    }

    /// Shard assignment is a pure function of the id — the partition the
    /// whole design rests on.
    #[test]
    fn shard_partition_is_total_and_stable(f in 0u32..100_000, shards in 1usize..64) {
        let s = shard_of(FunctionId(f), shards);
        prop_assert!(s < shards);
        prop_assert_eq!(s, shard_of(FunctionId(f), shards));
    }
}

/// The production-scale lockdown: a >10⁶-invocation synthetic workload
/// replayed sequentially and over 8 shards must agree record for record
/// (roomy pools), with the sharded path additionally pinned across
/// worker-thread counts. Debug builds skip it (minutes of unoptimized
/// simulation); the `test-release` CI job runs it.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "million-invocation replay; run under --release"
)]
fn million_invocation_sharded_replay_matches_sequential() {
    let trace = SynthTraceConfig::million(3).generate_scaled(&WorkloadCatalog::sebs());
    assert!(trace.len() >= 1_000_000, "only {} invocations", trace.len());
    let ci = CarbonIntensityTrace::synthetic(Region::Caiso, 630, 3);
    // Budget above the whole catalog's worst-case resident set (6k
    // functions × ≤5 GiB): the run must stay overflow-free by
    // construction, since this test pins the *exact*-equality regime.
    let fleet = skus::fleet_three_generations().with_uniform_keepalive_budget_mib(32_000_000);
    let sim = Simulation::new(&trace, &ci, fleet.clone());

    let mut fixed = FixedPolicy::pinned(fleet.newest(), 10);
    let sequential = sim.run(&mut fixed);
    assert_eq!(
        (sequential.transfers, sequential.evicted_functions),
        (0, 0),
        "pools sized to keep the million-invocation run overflow-free"
    );

    let run = |threads: usize| {
        sim.run_sharded(
            |_| FixedPolicy::pinned(fleet.newest(), 10),
            &ShardOptions::new(8).with_threads(threads),
        )
    };
    let sharded = run(1);
    assert_eq!(sharded.reconcile_revocations, 0);
    assert_eq!(difference(&sharded, &sequential), None);
    assert_eq!(difference(&run(4), &sharded), None);
}
