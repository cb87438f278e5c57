//! End-to-end integration over an N-node heterogeneous fleet (N ≥ 3):
//! the full pipeline — trace → simulator → schedulers → metrics — with a
//! genuine multi-way placement choice.

use ecolife::prelude::*;
use ecolife::sim::{
    shard_of, AdjustPlan, Decision, InvocationCtx, KeepAliveChoice, OverflowAction, OverflowCtx,
    ShardOptions,
};
use std::collections::BTreeMap;

fn setup() -> (Trace, CarbonIntensityTrace, Fleet) {
    let trace = SynthTraceConfig {
        n_functions: 24,
        duration_min: 240,
        seed: 31,
        ..Default::default()
    }
    .generate(&WorkloadCatalog::sebs());
    let ci = CarbonIntensityTrace::synthetic(Region::Caiso, 280, 31);
    let fleet = skus::fleet_three_generations().with_uniform_keepalive_budget_mib(8 * 1024);
    (trace, ci, fleet)
}

fn placements_by_node(m: &RunMetrics) -> BTreeMap<NodeId, usize> {
    let mut counts = BTreeMap::new();
    for r in &m.records {
        *counts.entry(r.exec_location).or_insert(0) += 1;
    }
    counts
}

#[test]
fn three_node_fleet_runs_ecolife_and_baselines_end_to_end() {
    let (trace, ci, fleet) = setup();
    assert_eq!(fleet.len(), 3);

    let (eco_sum, eco) = run_scheme(
        &trace,
        &ci,
        &fleet,
        &mut EcoLife::new(fleet.clone(), EcoLifeConfig::default()),
    );
    let (pin_sum, pinned) = run_scheme(
        &trace,
        &ci,
        &fleet,
        &mut FixedPolicy::pinned(fleet.newest(), 10),
    );
    let (oracle_sum, oracle) =
        run_scheme(&trace, &ci, &fleet, &mut BruteForce::oracle(fleet.clone()));

    // Every scheme accounts every invocation, with placements inside the
    // fleet.
    for (sum, m) in [
        (&eco_sum, &eco),
        (&pin_sum, &pinned),
        (&oracle_sum, &oracle),
    ] {
        assert_eq!(sum.invocations, trace.len());
        assert!(m.records.iter().all(|r| fleet.contains(r.exec_location)));
        assert!(sum.total_carbon_g > 0.0);
        assert!(
            (sum.operational_g + sum.embodied_g - sum.total_carbon_g).abs() < 1e-6,
            "{}: carbon split does not add up",
            sum.name
        );
    }

    // The pinned baseline never leaves its node; the fleet-aware schemes
    // actually exercise the multi-way choice.
    assert_eq!(placements_by_node(&pinned).len(), 1);
    assert!(
        placements_by_node(&oracle).len() >= 2,
        "oracle never used a second node: {:?}",
        placements_by_node(&oracle)
    );
    assert!(
        placements_by_node(&eco).len() >= 2,
        "EcoLife never used a second node: {:?}",
        placements_by_node(&eco)
    );

    // Keeping functions warm beyond one node pays: EcoLife must beat the
    // pinned-newest fixed policy on carbon without giving up much
    // service time (the Fig. 9 relationship, fleet edition).
    assert!(eco_sum.total_carbon_g < pin_sum.total_carbon_g);
    assert!(eco_sum.total_service_ms as f64 <= 1.15 * pin_sum.total_service_ms as f64);
}

#[test]
fn mid_node_restriction_runs_on_the_three_node_fleet() {
    let (trace, ci, fleet) = setup();
    let mid = NodeId(1);
    let (sum, m) = run_scheme(
        &trace,
        &ci,
        &fleet,
        &mut EcoLife::new(fleet.clone(), EcoLifeConfig::default().restricted_to(mid)),
    );
    assert_eq!(sum.invocations, trace.len());
    assert!(m.records.iter().all(|r| r.exec_location == mid));
}

#[test]
fn oracle_dominance_holds_on_the_three_node_fleet() {
    let (trace, ci, fleet) = setup();
    let (st, _) = run_scheme(
        &trace,
        &ci,
        &fleet,
        &mut BruteForce::service_time_opt(fleet.clone()),
    );
    let (co2, _) = run_scheme(&trace, &ci, &fleet, &mut BruteForce::co2_opt(fleet.clone()));
    let (eco, _) = run_scheme(
        &trace,
        &ci,
        &fleet,
        &mut EcoLife::new(fleet.clone(), EcoLifeConfig::default()),
    );
    // The brute-force anchors still anchor when the enumeration spans
    // three nodes.
    assert!(st.total_service_ms <= eco.total_service_ms);
    assert!(co2.total_carbon_g <= eco.total_carbon_g * 1.001);
}

/// Pins everything to the fleet's newest node; on overflow, displaces
/// every resident and retries them against the given transfer ranking
/// (`None` = the engine's default: every other node in id order).
struct OverflowWith {
    transfer_targets: Option<Vec<NodeId>>,
}

impl Scheduler for OverflowWith {
    fn name(&self) -> &'static str {
        "overflow-with"
    }
    fn decide(&mut self, ctx: &InvocationCtx<'_>) -> Decision {
        let newest = ctx.cluster.fleet().newest();
        Decision {
            exec: newest,
            keepalive: Some(KeepAliveChoice {
                location: newest,
                duration_ms: 10 * MINUTE_MS,
            }),
        }
    }
    fn on_pool_overflow(&mut self, ctx: &OverflowCtx<'_>) -> OverflowAction {
        let resident: Vec<FunctionId> = ctx
            .cluster
            .pool(ctx.location)
            .iter()
            .map(|c| c.func)
            .collect();
        OverflowAction::Adjust(AdjustPlan {
            displace: resident,
            place_incoming: true,
            transfer_targets: self.transfer_targets.clone(),
        })
    }
}

#[test]
fn transfer_ranking_beats_greedy_id_order_on_an_adversarial_fleet() {
    // Adversarial node numbering: the mid-generation m5.metal sits at
    // node 0 and the cheap-to-keep-warm i3.metal at node 1. A displaced
    // container's *greedy* default target (lowest id first) is node 0,
    // but the carbon-optimal target — what `CostModel::transfer_ranking`
    // computes and EcoLife hands the engine — is node 1.
    let fleet = skus::fleet_of(&[Sku::M5Metal, Sku::I3Metal, Sku::M5znMetal])
        .with_uniform_keepalive_budget_mib(512);
    let ci = CarbonIntensityTrace::constant(300.0, 120);
    let cost = CostModel::new(fleet.clone(), CarbonModel::default(), 0.5, 0.5, 600_000);

    // The two orderings genuinely disagree on the first-choice target.
    let ranked = cost.transfer_ranking(NodeId(2), &cost.uniform_ci(300.0));
    let greedy = fleet.transfer_candidates(NodeId(2));
    assert_eq!(ranked, vec![NodeId(1), NodeId(0)]);
    assert_eq!(greedy, vec![NodeId(0), NodeId(1)]);
    assert_ne!(ranked[0], greedy[0]);

    // Two 512-MiB functions both kept alive on node 2 (pool fits one):
    // the second keep-alive displaces the first.
    let catalog = WorkloadCatalog::new(vec![
        FunctionProfile::new("a", 1_000, 2_000, 512, 0.5),
        FunctionProfile::new("b", 1_000, 2_000, 512, 0.5),
    ]);
    let trace = Trace::new(
        catalog,
        vec![
            Invocation {
                func: FunctionId(0),
                t_ms: 0,
            },
            Invocation {
                func: FunctionId(1),
                t_ms: 10_000,
            },
        ],
    );

    let run = |targets: Option<Vec<NodeId>>| {
        Simulation::new(&trace, &ci, fleet.clone()).run(&mut OverflowWith {
            transfer_targets: targets,
        })
    };
    let with_ranking = run(Some(ranked));
    let with_greedy = run(None);

    // Both transfer exactly one container, to different hosts: the
    // ranking lands it on the i3 (node 1), greedy on the m5 (node 0).
    for m in [&with_ranking, &with_greedy] {
        assert_eq!(m.transfers, 1);
        assert_eq!(m.evicted_functions, 0);
    }
    assert!(with_ranking.keepalive_g_by_node[1] > 0.0);
    assert_eq!(with_ranking.keepalive_g_by_node[0], 0.0);
    assert!(with_greedy.keepalive_g_by_node[0] > 0.0);
    assert_eq!(with_greedy.keepalive_g_by_node[1], 0.0);

    // And the carbon-optimal target really is cheaper: same trace, same
    // warm outcomes, lower total keep-alive carbon.
    assert_eq!(with_ranking.warm_starts(), with_greedy.warm_starts());
    assert!(
        with_ranking.total_keepalive_carbon_g() < with_greedy.total_keepalive_carbon_g(),
        "ranked {} g vs greedy {} g",
        with_ranking.total_keepalive_carbon_g(),
        with_greedy.total_keepalive_carbon_g()
    );
}

/// Pins everything to node 2, keep-alive on node 1 (the carbon-best
/// keep-alive host of the adversarial fleet); overflow drops.
struct KeepOnOne;
impl Scheduler for KeepOnOne {
    fn name(&self) -> &'static str {
        "keep-on-one"
    }
    fn decide(&mut self, _ctx: &InvocationCtx<'_>) -> Decision {
        Decision {
            exec: NodeId(2),
            keepalive: Some(KeepAliveChoice {
                location: NodeId(1),
                duration_ms: 10 * MINUTE_MS,
            }),
        }
    }
}

/// Adversarial cross-shard overflow (ISSUE 3): two functions living in
/// *different* shards both claim the last (only) 512-MiB slot on the
/// carbon-best node in the same reconciliation period. Each shard admits
/// against a start-of-period snapshot that shows the node empty, so both
/// succeed optimistically; the reconciliation pass must then resolve the
/// overcommit by the documented tie-break — **youngest `warm_since_ms`
/// revoked first, ties broken against the higher `FunctionId`** — and
/// retry the loser on the remaining nodes in id order.
#[test]
fn cross_shard_contention_resolves_by_the_documented_tie_break() {
    // Ids 0 and b hash to different halves of a 2-way shard split; both
    // arrive at t = 0 with identical profiles, so their containers'
    // `warm_since_ms` tie exactly and only the id breaks the tie.
    let a = FunctionId(0);
    let b = (1..8u32)
        .map(FunctionId)
        .find(|&f| shard_of(f, 2) != shard_of(a, 2))
        .expect("some small id lands in the other shard");
    let catalog = WorkloadCatalog::new(
        (0..=b.0)
            .map(|i| FunctionProfile::new(&format!("f{i}"), 1_000, 2_000, 512, 0.5))
            .collect(),
    );
    let trace = Trace::new(
        catalog,
        vec![
            Invocation { func: a, t_ms: 0 },
            Invocation { func: b, t_ms: 0 },
        ],
    );
    let ci = CarbonIntensityTrace::constant(300.0, 120);
    // Node 1 (i3.metal) is the cheap keep-alive host; every pool fits
    // exactly one 512-MiB container.
    let fleet = skus::fleet_of(&[Sku::M5Metal, Sku::I3Metal, Sku::M5znMetal])
        .with_uniform_keepalive_budget_mib(512);
    let sim = Simulation::new(&trace, &ci, fleet.clone());

    // Sequential reference: the second keep-alive sees a full pool and
    // is dropped (the scheduler's overflow action) — no contention
    // machinery involved.
    let sequential = sim.run(&mut KeepOnOne);
    assert_eq!(sequential.evicted_functions, 1);
    assert_eq!(sequential.transfers, 0);
    assert_eq!(sequential.records[1].keepalive_carbon.total_g(), 0.0);

    // Sharded: both admissions survive the period optimistically; the
    // reconciliation pass revokes exactly one and transfers it.
    let run = |threads: usize| {
        sim.run_sharded(|_| KeepOnOne, &ShardOptions::new(2).with_threads(threads))
    };
    let m = run(1);
    assert_eq!(m.reconcile_revocations, 1, "exactly one admission revoked");
    assert_eq!(m.transfers, 1, "the loser transfers instead of dying");
    assert_eq!(m.evicted_functions, 0);

    // The tie-break picked the higher id: function a's keep-alive is
    // untouched (bit-identical to its sequential charge on node 1),
    // function b's is split across node 1 (pre-revocation stay) and
    // node 0 (the first transfer candidate in id order with headroom).
    let ia = usize::from(m.records[0].func != a);
    let (ra, rb) = (&m.records[ia], &m.records[1 - ia]);
    assert_eq!(ra.func, a);
    assert_eq!(
        ra.keepalive_carbon, sequential.records[0].keepalive_carbon,
        "the surviving admission must be charged exactly like the sequential run"
    );
    assert!(
        rb.keepalive_carbon.total_g() > 0.0,
        "the revoked keep-alive still pays for its stay"
    );
    assert!(m.keepalive_g_by_node[0] > 0.0, "transfer landed on node 0");
    assert!(m.keepalive_g_by_node[1] > 0.0);
    assert_eq!(m.keepalive_g_by_node[2], 0.0);
    // Post-reconciliation occupancy respects every budget.
    for (&peak, node) in m.ledger_peak_mib.iter().zip(fleet.iter()) {
        assert!(peak <= node.keepalive_mem_mib);
    }

    // And the resolution is identical however many workers run it.
    let m2 = run(2);
    assert_eq!(m.records, m2.records);
    assert_eq!(m.keepalive_g_by_node, m2.keepalive_g_by_node);
    assert_eq!(m.reconcile_revocations, m2.reconcile_revocations);
}

/// Two functions in different halves of a 2-way shard split: the first
/// is function 0, the second the smallest higher id in the other shard.
fn split_pair() -> (FunctionId, FunctionId) {
    let a = FunctionId(0);
    let b = (1..8u32)
        .map(FunctionId)
        .find(|&f| shard_of(f, 2) != shard_of(a, 2))
        .expect("some small id lands in the other shard");
    (a, b)
}

/// The adversarial fleet of the tests above (node 1 is the cheap
/// keep-alive host), every pool fitting exactly one 512-MiB container,
/// and a catalog of `n` identical 512-MiB functions.
fn one_slot_fleet(n: u32) -> (WorkloadCatalog, CarbonIntensityTrace, Fleet) {
    let catalog = WorkloadCatalog::new(
        (0..n)
            .map(|i| FunctionProfile::new(&format!("f{i}"), 1_000, 2_000, 512, 0.5))
            .collect(),
    );
    let ci = CarbonIntensityTrace::constant(300.0, 120);
    let fleet = skus::fleet_of(&[Sku::M5Metal, Sku::I3Metal, Sku::M5znMetal])
        .with_uniform_keepalive_budget_mib(512);
    (catalog, ci, fleet)
}

/// A shard admits against the bytes the other shards kept alive in
/// earlier periods: function b, arriving two minutes after a filled node
/// 1's only slot from the other shard, finds the slot taken and is
/// dropped exactly as in the sequential run — no optimistic admission,
/// so nothing for the reconciliation pass to revoke.
#[test]
fn a_shard_admits_against_the_other_shards_earlier_keepalives() {
    let (a, b) = split_pair();
    let (catalog, ci, fleet) = one_slot_fleet(b.0 + 1);
    let trace = Trace::new(
        catalog,
        vec![
            Invocation { func: a, t_ms: 0 },
            Invocation {
                func: b,
                t_ms: 2 * MINUTE_MS,
            },
        ],
    );
    let sim = Simulation::new(&trace, &ci, fleet);

    let sequential = sim.run(&mut KeepOnOne);
    assert_eq!(sequential.evicted_functions, 1);
    assert_eq!(sequential.reconcile_revocations, 0);

    for threads in [1, 2] {
        let m = sim.run_sharded(|_| KeepOnOne, &ShardOptions::new(2).with_threads(threads));
        assert_eq!(m.records, sequential.records, "threads={threads}");
        assert_eq!(m.reconcile_revocations, 0, "threads={threads}");
        assert_eq!(m.evicted_functions, 1, "threads={threads}");
    }
}

/// Executes on node 2 and keeps every function alive on node 1, except
/// the one named, which it keeps on node 0; overflow drops.
struct KeepOnOneExceptOnZero(FunctionId);
impl Scheduler for KeepOnOneExceptOnZero {
    fn name(&self) -> &'static str {
        "keep-on-one-except-on-zero"
    }
    fn decide(&mut self, ctx: &InvocationCtx<'_>) -> Decision {
        let location = if ctx.func == self.0 {
            NodeId(0)
        } else {
            NodeId(1)
        };
        Decision {
            exec: NodeId(2),
            keepalive: Some(KeepAliveChoice {
                location,
                duration_ms: 10 * MINUTE_MS,
            }),
        }
    }
}

/// A revoked container's transfer retry counts every shard's bytes on
/// the target: a and b overcommit node 1 from different shards, c (in
/// a's shard) fills node 0, so b — the tie-break's loser — must skip
/// node 0, which its own shard sees empty, and land on node 2.
#[test]
fn a_revoked_container_skips_a_target_full_of_other_shards_bytes() {
    let (a, b) = split_pair();
    let c = (b.0 + 1..b.0 + 16)
        .map(FunctionId)
        .find(|&f| shard_of(f, 2) == shard_of(a, 2))
        .expect("some small id lands in a's shard");
    let (catalog, ci, fleet) = one_slot_fleet(c.0 + 1);
    let trace = Trace::new(
        catalog,
        vec![
            Invocation { func: a, t_ms: 0 },
            Invocation { func: b, t_ms: 0 },
            Invocation { func: c, t_ms: 0 },
        ],
    );
    let sim = Simulation::new(&trace, &ci, fleet.clone());

    let m = sim.run_sharded(|_| KeepOnOneExceptOnZero(c), &ShardOptions::new(2));
    assert_eq!(m.reconcile_revocations, 1);
    assert_eq!(m.transfers, 1);
    assert_eq!(m.evicted_functions, 0);
    assert!(m.keepalive_g_by_node[2] > 0.0, "b landed on node 2");
    for (&peak, node) in m.ledger_peak_mib.iter().zip(fleet.iter()) {
        assert!(peak <= node.keepalive_mem_mib, "{peak} MiB over budget");
    }
}

#[test]
fn four_node_fleet_with_duplicate_skus_runs() {
    // Horizontal scale-out: two m5zn nodes next to two older ones. The
    // duplicate SKU gives the scheduler a second identical pool to
    // overflow into.
    let fleet = skus::fleet_of(&[Sku::I3Metal, Sku::M5Metal, Sku::M5znMetal, Sku::M5znMetal])
        .with_uniform_keepalive_budget_mib(2 * 1024);
    let trace = SynthTraceConfig {
        n_functions: 16,
        duration_min: 90,
        seed: 13,
        ..Default::default()
    }
    .generate(&WorkloadCatalog::sebs());
    let ci = CarbonIntensityTrace::constant(300.0, 120);
    let (sum, m) = run_scheme(
        &trace,
        &ci,
        &fleet,
        &mut EcoLife::new(fleet.clone(), EcoLifeConfig::default()),
    );
    assert_eq!(sum.invocations, trace.len());
    assert!(m.records.iter().all(|r| fleet.contains(r.exec_location)));
    assert!(sum.warm_rate > 0.0);
}
