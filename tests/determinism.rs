//! Cross-crate determinism: every stochastic component is seeded, so the
//! whole experiment pipeline must be bit-for-bit reproducible — and the
//! sharded parallel replay must reproduce the single-threaded path
//! exactly, at any shard count and any worker-thread count.

use ecolife::prelude::*;
use ecolife::sim::ShardOptions;

fn full_run(seed: u64) -> (Vec<u64>, Vec<String>) {
    let trace = SynthTraceConfig {
        n_functions: 12,
        duration_min: 90,
        seed,
        ..Default::default()
    }
    .generate(&WorkloadCatalog::sebs());
    let ci = CarbonIntensityTrace::synthetic(Region::Texas, 120, seed);
    let fleet = skus::fleet_a().with_uniform_keepalive_budget_mib(6 * 1024);
    let mut eco = EcoLife::new(fleet.clone(), EcoLifeConfig::default());
    let (_, metrics) = run_scheme(&trace, &ci, &fleet, &mut eco);
    (
        metrics.records.iter().map(|r| r.service_ms).collect(),
        metrics
            .records
            .iter()
            .map(|r| format!("{}:{}:{}", r.func, r.exec_location, r.warm))
            .collect(),
    )
}

#[test]
fn identical_seeds_identical_runs() {
    assert_eq!(full_run(11), full_run(11));
}

#[test]
fn different_seeds_differ() {
    assert_ne!(full_run(11), full_run(12));
}

#[test]
fn trace_and_ci_generation_are_independent_of_ambient_state() {
    // Re-generate in a different order; artifacts must match exactly.
    let t1 = SynthTraceConfig::small(5).generate(&WorkloadCatalog::sebs());
    let c1 = CarbonIntensityTrace::synthetic(Region::Caiso, 100, 5);
    let c2 = CarbonIntensityTrace::synthetic(Region::Caiso, 100, 5);
    let t2 = SynthTraceConfig::small(5).generate(&WorkloadCatalog::sebs());
    assert_eq!(t1, t2);
    assert_eq!(c1, c2);
}

#[test]
fn all_schedulers_are_deterministic() {
    let trace = SynthTraceConfig::small(3).generate(&WorkloadCatalog::sebs());
    let ci = CarbonIntensityTrace::synthetic(Region::Caiso, 90, 3);
    let fleet = skus::fleet_a();

    let run = |mk: &dyn Fn() -> Box<dyn Scheduler>| {
        let mut s = mk();
        let (_, m) = run_scheme(&trace, &ci, &fleet, &mut s);
        m.records
            .iter()
            .map(|r| (r.service_ms, r.warm))
            .collect::<Vec<_>>()
    };

    let factories: Vec<Box<dyn Fn() -> Box<dyn Scheduler>>> = vec![
        Box::new(|| Box::new(EcoLife::new(skus::fleet_a(), EcoLifeConfig::default()))),
        Box::new(|| Box::new(BruteForce::oracle(skus::fleet_a()))),
        Box::new(|| Box::new(FixedPolicy::new_only())),
        Box::new(|| Box::new(FixedPolicy::old_only())),
    ];
    for f in &factories {
        assert_eq!(run(f.as_ref()), run(f.as_ref()));
    }
}

/// Strip the one field that is wall-clock-dependent (decision overhead is
/// measured in real nanoseconds) before bit-comparing two runs.
fn comparable(m: RunMetrics) -> (Vec<InvocationOutcome>, u64, u64) {
    let records = m
        .records
        .iter()
        .map(|r| InvocationOutcome {
            func: r.func,
            t_ms: r.t_ms,
            exec_location: r.exec_location,
            warm: r.warm,
            service_ms: r.service_ms,
            service_carbon_g: r.service_carbon.total_g(),
            keepalive_carbon_g: r.keepalive_carbon.total_g(),
            energy_kwh: r.energy_kwh,
        })
        .collect();
    (records, m.evicted_functions, m.transfers)
}

#[derive(Debug, PartialEq)]
struct InvocationOutcome {
    func: FunctionId,
    t_ms: u64,
    exec_location: NodeId,
    warm: bool,
    service_ms: u64,
    service_carbon_g: f64,
    keepalive_carbon_g: f64,
    energy_kwh: f64,
}

/// The seed workloads of this suite, as `(trace, ci, fleet)` — the same
/// traces the pre-shard suite replays, with warm-pool budgets sized so
/// the pools never overflow (verified below: the sequential runs report
/// zero transfers and zero evictions). This is the regime where the
/// sharded engine documents **exact** equality with the sequential
/// path; under memory pressure its cross-shard view is
/// period-granular (see `pressured_workload` and the invariants suite).
fn seed_workloads() -> Vec<(Trace, CarbonIntensityTrace, Fleet)> {
    let full = (
        SynthTraceConfig {
            n_functions: 12,
            duration_min: 90,
            seed: 11,
            ..Default::default()
        }
        .generate(&WorkloadCatalog::sebs()),
        CarbonIntensityTrace::synthetic(Region::Texas, 120, 11),
        skus::fleet_a().with_uniform_keepalive_budget_mib(16 * 1024),
    );
    let three_node = (
        SynthTraceConfig {
            n_functions: 16,
            duration_min: 120,
            seed: 77,
            ..Default::default()
        }
        .generate(&WorkloadCatalog::sebs()),
        CarbonIntensityTrace::synthetic(Region::Caiso, 150, 77),
        skus::fleet_three_generations().with_uniform_keepalive_budget_mib(16 * 1024),
    );
    vec![full, three_node]
}

/// The same three-node workload squeezed into pools a quarter the size:
/// the sequential run overflows constantly (transfers + evictions), so
/// the sharded run exercises stale-snapshot admission and the
/// reconciliation pass for real.
fn pressured_workload() -> (Trace, CarbonIntensityTrace, Fleet) {
    let (trace, ci, fleet) = seed_workloads().swap_remove(1);
    (trace, ci, fleet.with_uniform_keepalive_budget_mib(4 * 1024))
}

/// A 14-function hour on two catalog SKUs with 3 000-MiB pools: EcoLife
/// overflows into transfers as well as evictions, where
/// `pressured_workload` only evicts.
fn transfer_pressured_workload() -> (Trace, CarbonIntensityTrace, Fleet) {
    let trace = SynthTraceConfig {
        n_functions: 14,
        duration_min: 60,
        seed: 11,
        ..Default::default()
    }
    .generate_scaled(&WorkloadCatalog::sebs());
    let ci = CarbonIntensityTrace::synthetic(Region::Caiso, 90, 11);
    let catalog = skus::catalog();
    let fleet = skus::fleet_of(&[catalog[0], catalog[2]]).with_uniform_keepalive_budget_mib(3_000);
    (trace, ci, fleet)
}

/// Sharded replay must be **bit-identical** to the pre-shard
/// single-threaded `Simulation::run` on the seed workloads, for every
/// shard count in {1, 2, 8} — for EcoLife (stateful, per-function DPSO +
/// global ΔCI), the oracle (global-index future knowledge), and the
/// fixed policy.
#[test]
fn sharded_replay_is_bit_identical_to_the_sequential_path() {
    for (wi, (trace, ci, fleet)) in seed_workloads().into_iter().enumerate() {
        let sim = Simulation::new(&trace, &ci, fleet.clone());

        type Factory<'a> = Box<dyn Fn() -> Box<dyn Scheduler + Send> + 'a>;
        let factories: Vec<(&str, Factory)> = vec![
            (
                "EcoLife",
                Box::new(|| {
                    Box::new(EcoLife::new(fleet.clone(), EcoLifeConfig::default()))
                        as Box<dyn Scheduler + Send>
                }),
            ),
            (
                "BruteForce::oracle",
                Box::new(|| {
                    Box::new(BruteForce::oracle(fleet.clone())) as Box<dyn Scheduler + Send>
                }),
            ),
            (
                "FixedPolicy",
                Box::new(|| Box::new(FixedPolicy::new_only()) as Box<dyn Scheduler + Send>),
            ),
        ];

        for (name, mk) in &factories {
            let mut sequential_scheduler = mk();
            let sequential = sim.run(&mut sequential_scheduler);
            // The exact-equality regime: the seed workloads never touch
            // the pool ceilings.
            assert_eq!(
                (sequential.transfers, sequential.evicted_functions),
                (0, 0),
                "workload {wi}/{name}: seed workload unexpectedly overflowed"
            );
            let sequential = comparable(sequential);
            for shards in [1usize, 2, 8] {
                let m = sim.run_sharded(|_| mk(), &ShardOptions::new(shards));
                assert_eq!(
                    m.reconcile_revocations, 0,
                    "workload {wi}/{name}: seed workload unexpectedly contended"
                );
                assert_eq!(
                    comparable(m),
                    sequential,
                    "workload {wi}/{name}: {shards}-shard run diverged from the sequential path"
                );
            }
        }
    }
}

/// One shard adds nothing to the sequential run, also when the pools
/// overflow into transfers and evictions: records and per-node grams
/// are equal bit for bit.
#[test]
fn one_shard_matches_the_sequential_run_under_overflow() {
    let (trace, ci, fleet) = transfer_pressured_workload();
    let config = EcoLifeConfig {
        pso_iters: 2,
        ..EcoLifeConfig::default()
    };
    let sim = Simulation::new(&trace, &ci, fleet.clone());
    let sequential = sim.run(&mut EcoLife::new(fleet.clone(), config.clone()));
    assert!(
        sequential.transfers > 0 && sequential.evicted_functions > 0,
        "workload no longer overflows into transfers and evictions"
    );
    let sharded = sim.run_sharded(
        |_| EcoLife::new(fleet.clone(), config.clone()),
        &ShardOptions::new(1).with_threads(1),
    );
    let grams = |m: &RunMetrics| -> Vec<u64> {
        m.keepalive_g_by_node.iter().map(|g| g.to_bits()).collect()
    };
    assert_eq!(grams(&sharded), grams(&sequential));
    assert_eq!(comparable(sharded), comparable(sequential));
}

/// Under genuine memory pressure the sharded engine's semantics are its
/// own (period-granular cross-shard visibility, documented in
/// `crates/sim`) — but they are still **deterministic**: the same
/// inputs give bit-identical runs at every worker-thread count, and the
/// post-reconciliation occupancy never exceeds any node's capacity.
#[test]
fn pressured_sharded_replay_is_deterministic_across_thread_counts() {
    let (trace, ci, fleet) = pressured_workload();
    let sim = Simulation::new(&trace, &ci, fleet.clone());
    let run = |threads: usize| {
        sim.run_sharded(
            |_| EcoLife::new(fleet.clone(), EcoLifeConfig::default()),
            &ShardOptions::new(8).with_threads(threads),
        )
    };
    let reference = run(1);
    // The squeeze is real: the run overflows and the shards reconcile.
    assert!(
        reference.transfers + reference.evicted_functions > 0,
        "pressured workload did not overflow"
    );
    for threads in [2usize, 4] {
        let m = run(threads);
        assert_eq!(
            comparable(m.clone()),
            comparable(reference.clone()),
            "pressured 8-shard run diverged at {threads} workers"
        );
        assert_eq!(m.keepalive_g_by_node, reference.keepalive_g_by_node);
        assert_eq!(m.reconcile_revocations, reference.reconcile_revocations);
        assert_eq!(m.ledger_peak_mib, reference.ledger_peak_mib);
    }
    for (&peak, node) in reference.ledger_peak_mib.iter().zip(fleet.iter()) {
        assert!(
            peak <= node.keepalive_mem_mib,
            "post-reconciliation occupancy {peak} exceeds {} on {:?}",
            node.keepalive_mem_mib,
            node.id
        );
    }
}

/// Forcing the worker-thread count through `ShardOptions::with_threads`
/// (satellite of the shard PR: tests must not inherit
/// `available_parallelism`) never changes a bit of the result.
#[test]
fn sharded_replay_is_bit_identical_across_thread_counts() {
    let (trace, ci, fleet) = seed_workloads().swap_remove(1);
    let sim = Simulation::new(&trace, &ci, fleet.clone());
    let run = |shards: usize, threads: usize| {
        comparable(sim.run_sharded(
            |_| EcoLife::new(fleet.clone(), EcoLifeConfig::default()),
            &ShardOptions::new(shards).with_threads(threads),
        ))
    };
    let reference = run(8, 1);
    for threads in [2usize, 4, 16] {
        assert_eq!(
            run(8, threads),
            reference,
            "8 shards over {threads} workers diverged from the 1-worker run"
        );
    }
}

/// Per-node gram aggregates are summed per shard and merged in shard
/// order, so across shard counts they agree to float-summation
/// reassociation (records are bit-identical; this pins the documented
/// tolerance for the by-node vectors).
#[test]
fn sharded_per_node_grams_match_the_sequential_split() {
    let (trace, ci, fleet) = seed_workloads().swap_remove(0);
    let sim = Simulation::new(&trace, &ci, fleet.clone());
    let mut eco = EcoLife::new(fleet.clone(), EcoLifeConfig::default());
    let sequential = sim.run(&mut eco);
    let sharded = sim.run_sharded(
        |_| EcoLife::new(fleet.clone(), EcoLifeConfig::default()),
        &ShardOptions::new(4),
    );
    assert_eq!(
        sequential.keepalive_g_by_node.len(),
        sharded.keepalive_g_by_node.len()
    );
    for (a, b) in sequential
        .keepalive_g_by_node
        .iter()
        .zip(&sharded.keepalive_g_by_node)
    {
        assert!(
            (a - b).abs() < 1e-9,
            "per-node keep-alive drifted: {a} vs {b}"
        );
    }
    assert!((sequential.total_carbon_g() - sharded.total_carbon_g()).abs() < 1e-9);
}

/// A sharded run hands each period's records over at the next barrier,
/// so a keep-alive that ends later charges a record its shard no longer
/// holds: the charge waits on the shard until the next hand-over. Here
/// every container of minute 0 takes two such charges in minute 1 —
/// node 0 leaves (the drain settles its stay and moves it to node 1),
/// then it expires there, swept by a later arrival of the same minute —
/// so each record's energy is `(service + drain) + expiry`, a float sum
/// that depends on the order the two charges are applied in.
#[test]
fn records_charged_twice_after_their_hand_over_match_the_sequential_run() {
    let held = 40u32;
    let mut profiles: Vec<FunctionProfile> = (0..held as u64)
        .map(|i| {
            FunctionProfile::new(
                &format!("held-{i}"),
                300 + 37 * i,
                900 + 53 * i,
                128 + 32 * i,
                0.5,
            )
        })
        .collect();
    profiles.push(FunctionProfile::new("ticker", 100, 200, 128, 0.5));
    let ticker = FunctionId(held);
    let mut invocations: Vec<Invocation> = (0..held)
        .map(|i| Invocation {
            func: FunctionId(i),
            t_ms: 100 * i as u64,
        })
        .collect();
    for t_ms in [61_000, 119_000] {
        invocations.push(Invocation { func: ticker, t_ms });
    }
    let trace = Trace::new(WorkloadCatalog::new(profiles), invocations);
    let ci = CarbonIntensityTrace::synthetic(Region::Caiso, 10, 5);
    let fleet = skus::fleet_a().with_uniform_keepalive_budget_mib(64 * 1024);
    let sim = Simulation::new(&trace, &ci, fleet)
        .with_membership(MembershipPlan::default().leave(61_000, NodeId(0)));
    let policy = || FixedPolicy::pinned(NodeId(0), 1);
    let sequential = sim.run(&mut policy());
    assert_eq!(
        sequential.transfers, held as u64,
        "node 0's leave moves every held container"
    );
    for shards in [1usize, 2] {
        let sharded = sim.run_sharded(|_| policy(), &ShardOptions::new(shards));
        assert_eq!(sharded.records, sequential.records, "{shards} shards");
    }
}

/// The seed engine semantics the two-node path must keep: exact warm and
/// cold service times for pair A (cold = half-sensitivity cold start +
/// scaled execution + 50 ms setup), pinned numerically.
#[test]
fn pair_a_service_times_match_seed_semantics() {
    let catalog = WorkloadCatalog::new(vec![FunctionProfile::new("f", 1_000, 2_000, 512, 0.64)]);
    let trace = Trace::new(
        catalog,
        vec![
            Invocation {
                func: FunctionId(0),
                t_ms: 0,
            },
            Invocation {
                func: FunctionId(0),
                t_ms: 2 * MINUTE_MS,
            },
        ],
    );
    let ci = CarbonIntensityTrace::constant(300.0, 60);
    let fleet = skus::fleet_a();

    // On the new node (perf 1.0): cold = 2000 + 1000 + 50, warm = 1050.
    let (_, m_new) = run_scheme(&trace, &ci, &fleet, &mut FixedPolicy::new_only());
    assert_eq!(m_new.records[0].service_ms, 3_050);
    assert_eq!(m_new.records[1].service_ms, 1_050);

    // On the old node (perf 0.8 → slowdown 1.25): exec ×1.16 at
    // sensitivity 0.64 → 1160; cold start ×1.125 → 2250.
    let (_, m_old) = run_scheme(&trace, &ci, &fleet, &mut FixedPolicy::old_only());
    assert_eq!(m_old.records[0].service_ms, 2_250 + 1_160 + 50);
    assert_eq!(m_old.records[1].service_ms, 1_160 + 50);
}
