//! The repository's golden-trace workloads: three small, fully
//! deterministic runs — one per flagship example — whose complete event
//! streams are checked into `tests/golden/` as `<name>.jsonl` plus a
//! `<name>.golden` summary (event count + chain-tip hash).
//!
//! Any engine change that alters observable behavior moves a hash and
//! fails both the `tests/golden_traces.rs` pin and the CI
//! `golden-traces` job, which reports the *first divergent event* via
//! [`ecolife_telemetry::diff_lines`]. Intentional changes regenerate
//! the baselines with `cargo run --release --bin golden_traces -- emit`.
//!
//! The workloads are scaled-down twins of `examples/quickstart.rs`,
//! `examples/fleet_cluster.rs`, and `examples/carbon_region_study.rs`
//! (same fleets, schedulers, and seeds; shorter traces keep the
//! checked-in streams small). `fleet_cluster` runs through the
//! *sharded* engine on purpose: its golden pins the
//! sharded-equals-sequential stream discipline at a fixed shard layout.

use ecolife_carbon::{CarbonIntensityTrace, CiBundle, Region, TransferCost};
use ecolife_core::{EcoLife, EcoLifeConfig};
use ecolife_hw::{skus, Fleet, NodeId};
use ecolife_sim::{
    AdjustPlan, CaptureSink, Decision, FaultPlan, InvocationCtx, KeepAliveChoice, MembershipPlan,
    OverflowAction, OverflowCtx, Scheduler, ShardOptions, SimConfig, Simulation, MINUTE_MS,
};
use ecolife_telemetry::GoldenSnapshot;
use ecolife_trace::{
    FunctionId, FunctionProfile, Invocation, SynthTraceConfig, Trace, WorkloadCatalog,
};

/// The golden workload names, in emission order.
pub const GOLDEN_WORKLOADS: [&str; 5] = [
    "quickstart",
    "fleet_cluster",
    "carbon_region_study",
    "follow_the_sun",
    "chaos_day",
];

/// The function the chaos scenario displaces off node 1 while Tennessee
/// is partitioned ("chaos-victim" in the catalog). Its id is chosen so
/// it lands in the same `FunctionId`-hash shard as [`CHAOS_OVERFLOW`]
/// at shard counts 1, 2, *and* 8 — the displacement is then visible to
/// exactly the shard that triggers it, which is what keeps the chaos
/// stream bit-identical at every tested shard layout.
pub const CHAOS_VICTIM: FunctionId = FunctionId(13);

/// The function whose keep-alive overflows node 1's pool and displaces
/// [`CHAOS_VICTIM`] ("chaos-glutton": its footprint equals the whole
/// per-node budget, so the insert fails whenever *anything* is
/// resident — in the shard's own pool, or in another shard's pool as of
/// the period's start, which every pool is charged as its external
/// share — regardless of which shard owns the residents).
pub const CHAOS_OVERFLOW: FunctionId = FunctionId(16);

/// The per-node keep-alive budget of the chaos fleet. Sized above the
/// *worst-case* simultaneous footprint of every traced function, so the
/// only pool overflow in the whole run is the engineered one
/// ([`CHAOS_OVERFLOW`]'s whole-budget container) — overflow resolution
/// is the one engine path whose outcome could otherwise depend on which
/// shard owns which resident.
pub const CHAOS_BUDGET_MIB: u64 = 12 * 1024;

/// The deterministic scheduler of the chaos scenario. Every choice is a
/// pure function of the invocation (warm location, function id) — never
/// of pool contents — so any shard/thread layout replays it
/// bit-identically. Placement sticks to the warm node, else spreads by
/// function id; overflow drops the incoming keep-alive, except for
/// [`CHAOS_OVERFLOW`], which displaces [`CHAOS_VICTIM`] onto the
/// engine's transfer path — mid-partition, with the only same-region
/// target crashed, that transfer has nowhere reachable to go and walks
/// the plan's bounded retry schedule instead.
#[derive(Debug, Clone)]
pub struct ChaosScheduler {
    nodes: usize,
}

impl ChaosScheduler {
    /// A scheduler for `fleet` (only its node count matters).
    pub fn new(fleet: &Fleet) -> Self {
        ChaosScheduler { nodes: fleet.len() }
    }
}

impl Scheduler for ChaosScheduler {
    fn name(&self) -> &'static str {
        "ChaosScheduler"
    }

    fn decide(&mut self, ctx: &InvocationCtx<'_>) -> Decision {
        let exec = ctx
            .warm_at
            .unwrap_or(NodeId(((ctx.func.0 as usize * 7 + 3) % self.nodes) as u32));
        Decision {
            exec,
            keepalive: Some(KeepAliveChoice {
                location: exec,
                duration_ms: 5 * MINUTE_MS,
            }),
        }
    }

    fn on_pool_overflow(&mut self, ctx: &OverflowCtx<'_>) -> OverflowAction {
        if ctx.incoming_func == CHAOS_OVERFLOW {
            OverflowAction::Adjust(AdjustPlan {
                displace: vec![CHAOS_VICTIM],
                place_incoming: false,
                transfer_targets: None, // every other node, id order
            })
        } else {
            OverflowAction::Drop
        }
    }
}

/// The `chaos_day` fault timeline, shared by the golden workload, the
/// chaos identity tests, and `examples/chaos_day.rs`: a CI-feed outage
/// over Tennessee (home of the degraded fallback's preferred node), a
/// partition isolating Tennessee from the rest of the fleet, and two
/// ungraceful node crashes — the Tennessee i3.metal for the whole
/// partition span (so a displacement off node 1 has no reachable
/// target anywhere and the retry schedule fires), and the Tennessee
/// m5zn.metal late in the degraded window (so the fallback keep-alives
/// it accumulated are lost instantly).
pub fn chaos_day_faults() -> FaultPlan {
    FaultPlan::default()
        .with_seed(0xC4A05)
        .ci_outage(Region::Tennessee, 5 * MINUTE_MS, 45 * MINUTE_MS)
        .partition(vec![Region::Tennessee], 21 * MINUTE_MS, 44 * MINUTE_MS)
        .crash(NodeId(0), 21 * MINUTE_MS, 44 * MINUTE_MS)
        .crash(NodeId(1), 41 * MINUTE_MS, 50 * MINUTE_MS)
}

/// The `chaos_day` scenario minus the faults: trace, CI bundle, fleet,
/// and transfer pricing. Split out so tests can run the identical
/// workload with and without a [`FaultPlan`].
///
/// The trace is a 60-minute synthetic stream over the SeBS catalog plus
/// two "needle" functions timed against [`chaos_day_faults`]:
/// `chaos-victim` ([`CHAOS_VICTIM`]) cold-starts at minute 22 — inside
/// the degraded window, so its keep-alive lands on node 1 — and
/// `chaos-glutton` ([`CHAOS_OVERFLOW`]) follows at minute 25 with a
/// whole-budget footprint, forcing the one engineered overflow while
/// Tennessee is partitioned and its other node is down.
pub fn chaos_day_parts() -> (Trace, CiBundle, Fleet, TransferCost) {
    let base = SynthTraceConfig {
        n_functions: 12,
        duration_min: 60,
        seed: 0xC4A0,
        ..Default::default()
    }
    .generate(&WorkloadCatalog::sebs());
    let mut catalog = WorkloadCatalog::default();
    for (_, profile) in base.catalog().iter() {
        catalog.push(profile.clone());
    }
    // Ids 12/14/15 are inert spacers: they pin CHAOS_VICTIM and
    // CHAOS_OVERFLOW to ids that hash to one shard at 1/2/8 shards.
    catalog.push(FunctionProfile::new("chaos-spacer-a", 100, 500, 128, 0.3));
    catalog.push(FunctionProfile::new("chaos-victim", 150, 600, 512, 0.3));
    catalog.push(FunctionProfile::new("chaos-spacer-b", 100, 500, 128, 0.3));
    catalog.push(FunctionProfile::new("chaos-spacer-c", 100, 500, 128, 0.3));
    catalog.push(FunctionProfile::new(
        "chaos-glutton",
        4_000,
        3_000,
        CHAOS_BUDGET_MIB,
        0.5,
    ));
    let mut invocations = base.invocations().to_vec();
    invocations.push(Invocation {
        func: CHAOS_VICTIM,
        t_ms: 22 * MINUTE_MS + 1_000,
    });
    invocations.push(Invocation {
        func: CHAOS_OVERFLOW,
        t_ms: 25 * MINUTE_MS + 1_000,
    });
    let trace = Trace::new(catalog, invocations);
    let bundle = CiBundle::synthetic_all(80, 0xC4A0);
    let fleet = skus::fleet_five_regions().with_uniform_keepalive_budget_mib(CHAOS_BUDGET_MIB);
    let cost = TransferCost {
        egress_kwh_per_mib: 2.0e-9,
        latency_ms: 50,
    };
    (trace, bundle, fleet, cost)
}

/// Replay one golden workload and capture its full event stream.
///
/// Panics on an unknown name — the caller iterates
/// [`GOLDEN_WORKLOADS`].
pub fn run_golden(name: &str) -> CaptureSink {
    let mut sink = CaptureSink::default();
    match name {
        // examples/quickstart.rs in miniature: pair-A fleet, CISO grid,
        // EcoLife, sequential engine.
        "quickstart" => {
            let trace = SynthTraceConfig {
                n_functions: 8,
                duration_min: 45,
                seed: 42,
                ..Default::default()
            }
            .generate(&WorkloadCatalog::sebs());
            let ci = CarbonIntensityTrace::synthetic(Region::Caiso, 60, 42);
            let fleet = skus::fleet_a().with_uniform_keepalive_budget_mib(10 * 1024);
            Simulation::new(&trace, &ci, fleet.clone()).run_with_sink(
                &mut EcoLife::new(fleet.clone(), EcoLifeConfig::default()),
                &mut sink,
            );
        }
        // examples/fleet_cluster.rs in miniature: three CPU generations,
        // EcoLife — replayed through the *sharded* engine so the golden
        // also pins the merged-stream discipline.
        "fleet_cluster" => {
            let trace = SynthTraceConfig {
                n_functions: 10,
                duration_min: 45,
                seed: 7,
                ..Default::default()
            }
            .generate(&WorkloadCatalog::sebs());
            let ci = CarbonIntensityTrace::synthetic(Region::Caiso, 60, 7);
            let fleet = skus::fleet_of(&[
                ecolife_hw::Sku::I3Metal,
                ecolife_hw::Sku::M5Metal,
                ecolife_hw::Sku::M5znMetal,
            ])
            .with_uniform_keepalive_budget_mib(10 * 1024);
            Simulation::new(&trace, &ci, fleet.clone()).run_sharded_with_sink(
                |_| EcoLife::new(fleet.clone(), EcoLifeConfig::default()),
                &ShardOptions::new(4).with_threads(2),
                &mut sink,
            );
        }
        // examples/carbon_region_study.rs in miniature: the ten-node
        // five-region fleet, one free EcoLife, per-node grid series.
        "carbon_region_study" => {
            let trace = SynthTraceConfig {
                n_functions: 8,
                duration_min: 45,
                seed: 1234,
                ..Default::default()
            }
            .generate(&WorkloadCatalog::sebs());
            let bundle = CiBundle::synthetic_all(60, 1234);
            let fleet = skus::fleet_five_regions().with_uniform_keepalive_budget_mib(12 * 1024);
            Simulation::try_new_regional(&trace, &bundle, fleet.clone())
                .expect("five-region bundle covers the fleet")
                .run_with_sink(
                    &mut EcoLife::new(fleet.clone(), EcoLifeConfig::default()),
                    &mut sink,
                );
        }
        // examples/follow_the_sun.rs in miniature: priced migrations,
        // the engine's periodic re-placement pass, and a mid-trace
        // leave/join, over the five-region fleet with phase-shifted
        // diurnal arrivals. This golden pins the priced-migration
        // economics end to end: egress grams, latency debt, membership
        // drains, and their event-stream keys.
        "follow_the_sun" => {
            let base = WorkloadCatalog::sebs();
            let mut catalog = WorkloadCatalog::default();
            let mut invocations: Vec<Invocation> = Vec::new();
            for i in 0..5u64 {
                let stream = SynthTraceConfig {
                    n_functions: 4,
                    duration_min: 60,
                    seed: 0x50_1A_12 + i,
                    phase_offset_min: i * 12,
                    ..Default::default()
                }
                .generate(&base);
                let offset = catalog.len() as u32;
                for (_, profile) in stream.catalog().iter() {
                    catalog.push(profile.clone());
                }
                invocations.extend(stream.invocations().iter().map(|inv| Invocation {
                    func: FunctionId(inv.func.0 + offset),
                    t_ms: inv.t_ms,
                }));
            }
            let trace = Trace::new(catalog, invocations);
            let bundle = CiBundle::synthetic_all(80, 99);
            let fleet = skus::fleet_five_regions().with_uniform_keepalive_budget_mib(64 * 1024);
            let cost = TransferCost {
                egress_kwh_per_mib: 2.0e-9,
                latency_ms: 50,
            };
            let membership = MembershipPlan::default()
                .leave(20 * 60_000, NodeId(0))
                .join(40 * 60_000, NodeId(0));
            Simulation::try_new_regional(&trace, &bundle, fleet.clone())
                .expect("five-region bundle covers the fleet")
                .with_config(
                    SimConfig::default()
                        .with_transfer_cost(cost)
                        .with_replacement_every_min(10),
                )
                .with_membership(membership)
                .run_with_sink(
                    &mut EcoLife::new(
                        fleet.clone(),
                        EcoLifeConfig::default().with_transfer_cost(cost),
                    ),
                    &mut sink,
                );
        }
        // examples/chaos_day.rs in miniature: the five-region fleet
        // under the shared chaos timeline ([`chaos_day_faults`]) — a CI
        // outage that forces degraded carbon-agnostic decisions, a
        // partition that strands a displacement on the deterministic
        // retry schedule, and two crashes that drain warm pools
        // ungracefully. This golden pins the whole fault surface:
        // crash/outage/partition skeleton events, crash drains,
        // TransferRetried scheduling, crash-rejected executions, and
        // the degraded-decision fallback — byte-identical however the
        // run is sharded (see `tests/faults.rs`).
        "chaos_day" => {
            let (trace, bundle, fleet, cost) = chaos_day_parts();
            Simulation::try_new_regional(&trace, &bundle, fleet.clone())
                .expect("five-region bundle covers the fleet")
                .with_config(SimConfig::default().with_transfer_cost(cost))
                .with_faults(chaos_day_faults())
                .run_with_sink(&mut ChaosScheduler::new(&fleet), &mut sink);
        }
        other => panic!("unknown golden workload '{other}'"),
    }
    sink
}

/// The `<name>.golden` summary for a captured stream.
pub fn snapshot(name: &str, sink: &CaptureSink) -> GoldenSnapshot {
    let tip = sink
        .tip()
        .expect("golden workloads emit at least RunStarted/RunEnded");
    GoldenSnapshot {
        workload: name.to_string(),
        events: sink.len() as u64,
        tip: tip.to_string(),
    }
}
