//! Priced cross-region migration (ISSUE 8).
//!
//! Three pins on the transfer-pricing subsystem:
//!
//! 1. **Grid attribution across a migration** — a container moved by the
//!    re-placement pass charges `[warm_since, transfer)` to the *source*
//!    node's grid and `[transfer, end)` to the *target's*, and its
//!    egress grams are priced at the source grid's intensity at the
//!    moment of transfer. The re-warm latency debt is charged to the
//!    container's next warm service, exactly once.
//! 2. **Free pricing is invisible** — `TransferCost::free()` with the
//!    re-placement pass off and an empty membership plan replays
//!    byte-identically to a plain pre-pricing `SimConfig::default()`
//!    run, event stream and chain tip included (the CI bench-smoke
//!    assert).
//! 3. **Thread invariance under contention** — a memory-pressured
//!    sharded run (optimistic admissions revoked at reconcile) with
//!    pricing, re-placement, and membership churn all active produces
//!    byte-identical event streams at worker threads {1, 2, 4} for each
//!    shard count.
//! 4. **Shard-*count* invariance under contention** — on a workload
//!    engineered so no shard-local budget overflows (every conflict is
//!    resolved by the reconciliation pass), the layout itself
//!    becomes invisible: shard counts {2, 4, 8} × threads {1, 2, 4} all
//!    emit one identical stream, while the merged load still forces
//!    revocations at the period boundary.

use ecolife::prelude::*;
use ecolife::sim::{Decision, InvocationCtx, KeepAliveChoice};
use ecolife::telemetry::diff::first_divergence;

const DIRTY_CI: f64 = 600.0;
const CLEAN_CI: f64 = 30.0;

/// Pins execution to node 0 and keeps function 0 warm there for
/// `keepalive_min`; every other function runs cold with no keep-alive.
/// The engine's re-placement pass is then the only thing that can move
/// the container.
struct PinOld {
    keepalive_min: u64,
}

impl Scheduler for PinOld {
    fn name(&self) -> &'static str {
        "pin-old"
    }
    fn decide(&mut self, ctx: &InvocationCtx<'_>) -> Decision {
        let keepalive = (ctx.func == FunctionId(0)).then(|| KeepAliveChoice {
            location: NodeId(0),
            duration_ms: self.keepalive_min * MINUTE_MS,
        });
        Decision {
            exec: NodeId(0),
            keepalive,
        }
    }
}

/// Pair-A fleet split across a dirty and a clean grid, both constant, so
/// every settlement average is exact and the pass has one obvious move.
fn split_grid_setup() -> (Fleet, CiBundle) {
    let fleet = skus::fleet_a()
        .with_region(NodeId(0), Region::Florida)
        .with_region(NodeId(1), Region::Caiso)
        .with_uniform_keepalive_budget_mib(10 * 1024);
    let bundle = CiBundle::new(vec![
        (
            Region::Florida,
            CarbonIntensityTrace::constant(DIRTY_CI, 30),
        ),
        (Region::Caiso, CarbonIntensityTrace::constant(CLEAN_CI, 30)),
    ])
    .unwrap();
    (fleet, bundle)
}

fn two_shot_trace(arrivals: &[(u32, u64)]) -> Trace {
    let catalog = WorkloadCatalog::sebs();
    let invocations = arrivals
        .iter()
        .map(|&(func, t_ms)| Invocation {
            func: FunctionId(func),
            t_ms,
        })
        .collect();
    Trace::new(catalog, invocations)
}

#[test]
fn migrated_container_charges_each_grid_for_its_own_segment() {
    let (fleet, bundle) = split_grid_setup();
    // Function 0 arrives at t=0 and is kept warm on the dirty node for
    // ten minutes; a second function at t=5min extends the horizon so
    // the every-minute re-placement pass fires at t=1min.
    let trace = two_shot_trace(&[(0, 0), (1, 5 * MINUTE_MS)]);
    let cost = TransferCost {
        egress_kwh_per_mib: 2.0e-9,
        latency_ms: 50,
    };
    let metrics = Simulation::try_new_regional(&trace, &bundle, fleet.clone())
        .unwrap()
        .with_config(
            SimConfig::default()
                .with_transfer_cost(cost)
                .with_replacement_every_min(1),
        )
        .run(&mut PinOld { keepalive_min: 10 });

    assert_eq!(
        metrics.transfers, 1,
        "the pass must migrate dirty → clean exactly once"
    );
    let mem = trace.catalog().iter().next().unwrap().1.memory_mib;
    let warm_since = metrics.records[0].t_ms + metrics.records[0].service_ms;
    let transfer_at = MINUTE_MS; // first pass tick
    let expiry = warm_since + 10 * MINUTE_MS;
    assert!(warm_since < transfer_at && transfer_at < expiry);

    // Each segment priced on its own grid, with the engine's own model.
    let model = CarbonModel::default();
    let src_g = model
        .keepalive_phase(
            fleet.node(NodeId(0)),
            mem,
            transfer_at - warm_since,
            DIRTY_CI,
        )
        .total_g();
    let dst_g = model
        .keepalive_phase(fleet.node(NodeId(1)), mem, expiry - transfer_at, CLEAN_CI)
        .total_g();
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1.0);
    assert!(
        close(metrics.keepalive_g_by_node[0], src_g),
        "source grid must be charged exactly [warm_since, transfer): {} vs {src_g}",
        metrics.keepalive_g_by_node[0]
    );
    assert!(
        close(metrics.keepalive_g_by_node[1], dst_g),
        "target grid must be charged exactly [transfer, expiry): {} vs {dst_g}",
        metrics.keepalive_g_by_node[1]
    );
    // Both segments land on the origin record, and nowhere else.
    assert!(close(
        metrics.records[0].keepalive_carbon.total_g(),
        src_g + dst_g
    ));
    assert_eq!(metrics.records[1].keepalive_carbon.total_g(), 0.0);

    // Egress is priced at the *source* grid's intensity at transfer time
    // and attributed to the source node.
    let egress = cost.grams(mem, DIRTY_CI);
    assert!(egress > 0.0);
    assert_eq!(metrics.transfer_g.to_bits(), egress.to_bits());
    assert_eq!(metrics.transfer_g_by_node[0].to_bits(), egress.to_bits());
    assert_eq!(metrics.transfer_g_by_node[1], 0.0);
    assert_eq!(metrics.transfer_ms, cost.latency_ms);
}

#[test]
fn transfer_latency_debt_hits_the_next_warm_service_exactly_once() {
    let (fleet, bundle) = split_grid_setup();
    // Migration at t=1min, then two more warm hits of function 0: the
    // first pays the 50 ms re-warm debt, the second must not.
    let arrivals = [
        (0u32, 0u64),
        (0, 4 * MINUTE_MS),
        (0, 4 * MINUTE_MS + 30_000),
        (1, 5 * MINUTE_MS),
    ];
    let run = |latency_ms: u64| -> RunMetrics {
        let cost = TransferCost {
            egress_kwh_per_mib: 2.0e-9,
            latency_ms,
        };
        Simulation::try_new_regional(&two_shot_trace(&arrivals), &bundle, fleet.clone())
            .unwrap()
            .with_config(
                SimConfig::default()
                    .with_transfer_cost(cost)
                    .with_replacement_every_min(1),
            )
            .run(&mut PinOld { keepalive_min: 10 })
    };
    let free_latency = run(0);
    let debt = run(50);
    assert!(free_latency.transfers >= 1);
    assert_eq!(debt.transfers, free_latency.transfers);
    assert!(debt.records[1].warm, "second arrival must be a warm hit");
    assert_eq!(
        debt.records[1].service_ms,
        free_latency.records[1].service_ms + 50,
        "the migrated container's next service pays the re-warm latency"
    );
    assert!(debt.records[2].warm);
    assert_eq!(
        debt.records[2].service_ms, free_latency.records[2].service_ms,
        "the debt is consumed by the first warm service, not repeated"
    );
    assert_eq!(debt.transfer_ms, 50 * debt.transfers);
    assert_eq!(free_latency.transfer_ms, 0);
}

/// The CI bench-smoke assert: free pricing + pass off + empty membership
/// must be byte-for-byte the pre-pricing engine, on a workload where the
/// overflow/transfer path actually fires.
#[test]
fn free_transfer_cost_replays_the_unpriced_engine_byte_for_byte() {
    let trace = SynthTraceConfig {
        n_functions: 24,
        duration_min: 90,
        seed: 23,
        ..Default::default()
    }
    .generate(&WorkloadCatalog::sebs());
    let ci = CarbonIntensityTrace::synthetic(Region::Caiso, 120, 23);
    let fleet = skus::fleet_a().with_uniform_keepalive_budget_mib(6 * 1024);

    let mut plain_sink = CaptureSink::default();
    let plain = Simulation::new(&trace, &ci, fleet.clone()).run_with_sink(
        &mut EcoLife::new(fleet.clone(), EcoLifeConfig::default()),
        &mut plain_sink,
    );

    let mut free_sink = CaptureSink::default();
    let free = Simulation::new(&trace, &ci, fleet.clone())
        .with_config(
            SimConfig::default()
                .with_transfer_cost(TransferCost::free())
                .with_replacement_every_min(0),
        )
        .with_membership(MembershipPlan::default())
        .run_with_sink(
            &mut EcoLife::new(
                fleet.clone(),
                EcoLifeConfig::default().with_transfer_cost(TransferCost::free()),
            ),
            &mut free_sink,
        );

    assert!(plain.transfers > 0, "workload must exercise transfers");
    assert_eq!(free.records, plain.records);
    assert_eq!(free.transfer_g, 0.0);
    assert_eq!(free.transfer_ms, 0);
    if let Some(d) = first_divergence(&plain_sink.lines(), &free_sink.lines()) {
        panic!("free pricing changed the event stream: {d:?}");
    }
    assert_eq!(free_sink.tip(), plain_sink.tip());
}

/// Contended sharded replay: small budgets force optimistic admissions
/// to be revoked at reconcile, with pricing, the re-placement pass, and
/// membership churn all live. Worker-thread count must still be
/// invisible: for each shard count, threads {1, 2, 4} emit identical
/// streams. (Different shard *counts* may legitimately resolve
/// contention differently — the invariant is per layout.)
#[test]
fn contended_priced_sharded_replay_is_thread_invariant() {
    let trace = SynthTraceConfig {
        n_functions: 24,
        duration_min: 60,
        seed: 0x8_11,
        ..Default::default()
    }
    .generate(&WorkloadCatalog::sebs());
    let bundle = CiBundle::synthetic_all(80, 0x8_11);
    let fleet = skus::fleet_five_regions().with_uniform_keepalive_budget_mib(2 * 1024);
    let cost = TransferCost {
        egress_kwh_per_mib: 2.0e-9,
        latency_ms: 50,
    };
    let membership = MembershipPlan::default()
        .leave(15 * MINUTE_MS, NodeId(1))
        .join(35 * MINUTE_MS, NodeId(1));
    let config = SimConfig::default()
        .with_transfer_cost(cost)
        .with_replacement_every_min(10);

    let mut contended = false;
    for shards in [2usize, 4, 8] {
        let mut baseline: Option<(CaptureSink, RunMetrics)> = None;
        for threads in [1usize, 2, 4] {
            let mut sink = CaptureSink::default();
            let metrics = Simulation::try_new_regional(&trace, &bundle, fleet.clone())
                .unwrap()
                .with_config(config)
                .with_membership(membership.clone())
                .run_sharded_with_sink(
                    |_| {
                        EcoLife::new(
                            fleet.clone(),
                            EcoLifeConfig::default().with_transfer_cost(cost),
                        )
                    },
                    &ShardOptions::new(shards).with_threads(threads),
                    &mut sink,
                );
            contended |= metrics.reconcile_revocations > 0;
            match &baseline {
                None => baseline = Some((sink, metrics)),
                Some((ref_sink, ref_metrics)) => {
                    assert_eq!(
                        metrics.records, ref_metrics.records,
                        "records diverged at {shards} shards / {threads} threads"
                    );
                    assert_eq!(
                        metrics.reconcile_revocations,
                        ref_metrics.reconcile_revocations
                    );
                    if let Some(d) = first_divergence(&ref_sink.lines(), &sink.lines()) {
                        panic!("stream diverged at {shards} shards / {threads} threads: {d:?}");
                    }
                    assert_eq!(sink.tip(), ref_sink.tip());
                }
            }
        }
    }
    assert!(
        contended,
        "workload must pressure the ledger into at least one revocation"
    );
}

/// Pins execution to node 0 and installs a long keep-alive there for
/// every function except the horizon marker (function 5).
struct PinAll {
    keepalive_min: u64,
}

impl Scheduler for PinAll {
    fn name(&self) -> &'static str {
        "pin-all"
    }
    fn decide(&mut self, ctx: &InvocationCtx<'_>) -> Decision {
        let keepalive = (ctx.func != FunctionId(5)).then(|| KeepAliveChoice {
            location: NodeId(0),
            duration_ms: self.keepalive_min * MINUTE_MS,
        });
        Decision {
            exec: NodeId(0),
            keepalive,
        }
    }
}

/// Satellite pin (ISSUE 9): where the previous test only promises
/// per-layout thread invariance, this workload is engineered so the
/// shard *count* is invisible too. Thirteen 1-GiB functions; the eight
/// whose ids hash to per-shard sums ≤ 4 GiB at 2 shards, ≤ 2 GiB at 4,
/// and ≤ 1 GiB at 8 install keep-alives on node 0 against a 6 GiB
/// budget — so no shard ever overflows locally and every admission is
/// optimistic. The merged 8 GiB exceeds the budget, so the global
/// reconcile at the t = 60 s period boundary must revoke — and since
/// the reconciliation pass sees the same admissions in the same order under every
/// layout, records, streams, and chain tips are identical across
/// shard counts {2, 4, 8} and worker threads {1, 2, 4}.
#[test]
fn reconcile_resolved_contention_is_shard_count_invariant() {
    let catalog = WorkloadCatalog::new(
        (0..13)
            .map(|i| FunctionProfile::new(&format!("gib-{i}"), 1_000, 300, 1_024, 0.5))
            .collect(),
    );
    // Ids chosen so each shard's keepalive sum stays under 6 GiB at
    // every layout (verified against `shard_of`'s splitmix64 hash).
    let chosen: [u32; 8] = [0, 1, 2, 3, 4, 6, 9, 12];
    let mut invocations: Vec<Invocation> = chosen
        .iter()
        .enumerate()
        .map(|(i, &func)| Invocation {
            func: FunctionId(func),
            t_ms: i as u64 * 1_000,
        })
        .collect();
    // Horizon marker in the next period (no keep-alive, so it cannot
    // itself contend) forces the boundary reconcile to run.
    invocations.push(Invocation {
        func: FunctionId(5),
        t_ms: 90_000,
    });
    let trace = Trace::new(catalog, invocations);
    let ci = CarbonIntensityTrace::constant(300.0, 30);
    let fleet = skus::fleet_a().with_uniform_keepalive_budget_mib(6 * 1024);

    let mut baseline: Option<(CaptureSink, RunMetrics)> = None;
    for shards in [2usize, 4, 8] {
        for threads in [1usize, 2, 4] {
            let mut sink = CaptureSink::default();
            let metrics = Simulation::new(&trace, &ci, fleet.clone()).run_sharded_with_sink(
                |_| PinAll { keepalive_min: 30 },
                &ShardOptions::new(shards).with_threads(threads),
                &mut sink,
            );
            assert!(
                metrics.reconcile_revocations > 0,
                "merged load must overflow the global ledger at {shards} shards"
            );
            match &baseline {
                None => baseline = Some((sink, metrics)),
                Some((ref_sink, ref_metrics)) => {
                    assert_eq!(
                        metrics.records, ref_metrics.records,
                        "records diverged at {shards} shards / {threads} threads"
                    );
                    assert_eq!(
                        metrics.reconcile_revocations,
                        ref_metrics.reconcile_revocations
                    );
                    assert_eq!(metrics.evicted_functions, ref_metrics.evicted_functions);
                    if let Some(d) = first_divergence(&ref_sink.lines(), &sink.lines()) {
                        panic!("stream diverged at {shards} shards / {threads} threads: {d:?}");
                    }
                    assert_eq!(sink.tip(), ref_sink.tip());
                }
            }
        }
    }
}
