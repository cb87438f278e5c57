//! The seed's EcoLife decision loop, kept as the test oracle of the
//! tables path. [`Reference`] wraps an [`EcoLife`] and shares its
//! per-function state and ΔCI perception, but prices everything from
//! first principles: every particle evaluation rescans the fleet through
//! `CostModel::expected_objective`, the predictor's estimates are window
//! scans, and an overflow ranks each candidate with its own
//! `CostModel::keepalive_benefit` and the unmemoized
//! `CostModel::transfer_ranking`.
//!
//! It decodes a position with its own rounding, `f64::round` clamped
//! onto the grid, so the shipped decode's float-only rounding is checked
//! against std's on every particle the replays evaluate.
//!
//! EcoLife as it ships — `ObjectiveTables`, the memoized landscape, the
//! tracked predictor estimates, the float-only decode — must replay
//! this oracle byte for byte. The tests below compare the two on
//! hash-chained event streams ([`CaptureSink`] + [`first_divergence`]),
//! so every placement, displacement, gram and expiry is covered by one
//! chain-tip equality: on multi-region fleets, under memory pressure (on
//! two nodes, and on ten with priced transfers), when degraded
//! decisions' keep-alives overflow, under queue-aware placement on
//! bounded executors, restricted to one node, sequentially and through
//! `run_sharded` at any worker-thread count.

use super::{EcoLife, FunctionState, OVERFLOW_HORIZON_MS};
use crate::config::EcoLifeConfig;
use crate::predictor::NO_HISTORY_P_WARM;
use crate::warmpool::priority_adjustment_with_targets;
use ecolife_carbon::{CarbonIntensityTrace, CiBundle, Region, TransferCost};
use ecolife_hw::{skus, Fleet, NodeId};
use ecolife_pso::Optimizer;
use ecolife_sim::{
    CaptureSink, Decision, ExecutorConfig, FaultPlan, InvocationCtx, KeepAliveChoice,
    OverflowAction, OverflowCtx, Scheduler, ShardOptions, SimConfig, Simulation, MINUTE_MS,
};
use ecolife_telemetry::diff::first_divergence;
use ecolife_trace::{
    FunctionId, FunctionProfile, Invocation, SynthTraceConfig, Trace, WorkloadCatalog,
};

/// EcoLife deciding through the seed's uncached loop.
struct Reference(EcoLife);

/// The nearest of `n` grid points to `x` by std's rounding (half away
/// from zero), NaN and negatives at 0.
fn nearest(x: f64, n: usize) -> usize {
    (x.round().max(0.0) as usize).min(n - 1)
}

/// The keep-alive `(node, period index)` a position decodes to.
fn decode_placement(
    restrict: Option<NodeId>,
    n_nodes: usize,
    n_periods: usize,
    x: &[f64],
) -> (NodeId, usize) {
    let l = restrict.unwrap_or(NodeId(nearest(x[0], n_nodes) as u32));
    (l, nearest(x[1], n_periods))
}

impl Scheduler for Reference {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn prepare(&mut self, trace: &Trace) {
        self.0.prepare(trace);
    }

    fn decide(&mut self, ctx: &InvocationCtx<'_>) -> Decision {
        let dci = self.0.perceive_dci(ctx);
        let EcoLife {
            config,
            tables,
            states,
            ..
        } = &mut self.0;
        let cost = tables.cost();
        let restrict = config.restrict_to;
        let ci_by_node = ctx.ci.at_each_node(ctx.t_ms);
        let exec = if config.queue_aware_placement && ctx.cluster.executors_enabled() {
            let queue_ms: Vec<u64> = cost
                .fleet()
                .ids()
                .map(|l| ctx.cluster.queue_wait_ms(l, ctx.t_ms))
                .collect();
            cost.epdm_choice_queued(ctx.profile, &ci_by_node, restrict, &queue_ms)
        } else {
            cost.epdm_choice(ctx.profile, &ci_by_node, restrict)
        };

        let grid = &config.keepalive_grid_min;
        let n_nodes = cost.fleet().len();
        let state =
            states.get_or_insert_with(ctx.func, || FunctionState::new(config, n_nodes, ctx.func));
        state.predictor.record_arrival(ctx.t_ms);
        let df = state.predictor.delta_f();

        // Snapshot the predictor's scans over the whole grid so the
        // fitness closure has no borrow of `state`.
        let p_warm: Vec<f64> = grid
            .iter()
            .map(|&m| state.predictor.p_warm(m * MINUTE_MS))
            .collect();
        let resident: Vec<f64> = grid
            .iter()
            .map(|&m| state.predictor.expected_resident_ms(m * MINUTE_MS))
            .collect();
        let fitness = |x: &[f64]| -> f64 {
            let (l, idx) = decode_placement(restrict, n_nodes, grid.len(), x);
            cost.expected_objective(
                ctx.profile,
                l,
                grid[idx] * MINUTE_MS,
                p_warm[idx],
                resident[idx],
                &ci_by_node,
                restrict,
            )
        };

        if config.dynamic_pso {
            state.swarm.perceive(df, dci);
            state.swarm.refresh_gbest(&fitness);
        }
        for _ in 0..config.pso_iters {
            state.swarm.step(&fitness);
        }

        let (ka_loc, idx) =
            decode_placement(restrict, n_nodes, grid.len(), state.swarm.best_position());
        let ka_ms = grid[idx] * MINUTE_MS;
        Decision {
            exec,
            keepalive: (ka_ms > 0).then_some(KeepAliveChoice {
                location: ka_loc,
                duration_ms: ka_ms,
            }),
        }
    }

    fn on_pool_overflow(&mut self, ctx: &OverflowCtx<'_>) -> OverflowAction {
        let EcoLife {
            config,
            tables,
            catalog,
            states,
            ..
        } = &self.0;
        if !config.warm_pool_adjustment {
            return OverflowAction::Drop;
        }
        let cost = tables.cost();
        let targets = if config.restrict_to.is_none() {
            cost.transfer_ranking(ctx.location, &ctx.ci_by_node)
        } else {
            Vec::new()
        };
        let benefit = |func: FunctionId, f: &FunctionProfile| -> f64 {
            let weight = states.get(func).map_or(NO_HISTORY_P_WARM, |s| {
                s.predictor.p_warm(OVERFLOW_HORIZON_MS)
            });
            weight * cost.keepalive_benefit(ctx.location, f, &ctx.ci_by_node)
        };
        OverflowAction::Adjust(priority_adjustment_with_targets(
            catalog, ctx, benefit, targets,
        ))
    }
}

/// Which decision path a run takes.
#[derive(Clone, Copy)]
enum Path {
    /// EcoLife as it ships.
    Tables,
    /// The same scheduler deciding through [`Reference`].
    Reference,
}

/// EcoLife over `fleet` with `config`, deciding through `path`.
fn scheduler(path: Path, fleet: &Fleet, config: EcoLifeConfig) -> Box<dyn Scheduler + Send> {
    let eco = EcoLife::new(fleet.clone(), config);
    match path {
        Path::Tables => Box::new(eco),
        Path::Reference => Box::new(Reference(eco)),
    }
}

fn cached(fleet: &Fleet) -> Box<dyn Scheduler + Send> {
    scheduler(Path::Tables, fleet, EcoLifeConfig::default())
}

fn uncached(fleet: &Fleet) -> Box<dyn Scheduler + Send> {
    scheduler(Path::Reference, fleet, EcoLifeConfig::default())
}

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
    let run = |mut eco: Box<dyn Scheduler + Send>| {
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
        let run_sharded = |make: &dyn Fn() -> Box<dyn Scheduler + Send>| {
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
    let fleet = skus::fleet_a().with_uniform_keepalive_budget_mib(6 * 1024);
    let run = |mut eco: Box<dyn Scheduler + Send>| {
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

fn priced(fleet: &Fleet, path: Path) -> Box<dyn Scheduler + Send> {
    scheduler(
        path,
        fleet,
        EcoLifeConfig::default().with_transfer_cost(priced_transfers()),
    )
}

/// The ten-node overflow path: the warm-pool ranking served from the
/// tables (one row lookup per resident) plus the memoized, priced
/// transfer ranking must displace and transfer exactly what the
/// uncached per-candidate cost-model scans do — sequentially and
/// through `run_sharded` at any worker count, on two workloads.
#[test]
fn cached_tables_are_bit_identical_under_pressure_on_five_regions() {
    let workloads = [
        (
            SynthTraceConfig {
                n_functions: 40,
                duration_min: 90,
                seed: 29,
                ..Default::default()
            },
            CiBundle::synthetic_all(120, 29),
        ),
        (
            SynthTraceConfig {
                n_functions: 24,
                duration_min: 60,
                ..SynthTraceConfig::small(7)
            },
            CiBundle::synthetic_all(90, 7),
        ),
    ];
    let fleet = skus::fleet_five_regions().with_uniform_keepalive_budget_mib(3 * 1024);
    for (trace_config, bundle) in workloads {
        let trace = trace_config.generate(&WorkloadCatalog::sebs());
        let workload = format!(
            "{} functions over {} min",
            trace_config.n_functions, trace_config.duration_min
        );
        let sim = Simulation::try_new_regional(&trace, &bundle, fleet.clone())
            .unwrap()
            .with_config(SimConfig::default().with_transfer_cost(priced_transfers()));

        let run = |path: Path| {
            let mut sink = CaptureSink::default();
            let m = sim.run_with_sink(&mut priced(&fleet, path), &mut sink);
            (m, sink)
        };
        let (fast_m, fast) = run(Path::Tables);
        let (_, reference) = run(Path::Reference);
        assert!(
            fast_m.transfers > 0,
            "{workload}: workload must exercise the overflow/transfer path"
        );
        assert_same_stream(
            &reference,
            &fast,
            &format!("five-region pressure, {workload}, sequential"),
        );

        for threads in [1usize, 2, 4] {
            let run_sharded = |path: Path| {
                let mut sink = CaptureSink::default();
                let m = sim.run_sharded_with_sink(
                    |_| priced(&fleet, path),
                    &ShardOptions::new(8).with_threads(threads),
                    &mut sink,
                );
                (m, sink)
            };
            let (fast_m, fast) = run_sharded(Path::Tables);
            let (_, reference) = run_sharded(Path::Reference);
            assert!(
                fast_m.transfers > 0,
                "{workload}: sharded at {threads} workers"
            );
            assert_same_stream(
                &reference,
                &fast,
                &format!("five-region pressure, {workload}, sharded at {threads} workers"),
            );
        }
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
    inner: Box<dyn Scheduler + Send>,
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
    let run = |path: Path| {
        let mut probe = EpochProbe {
            inner: priced(&fleet, path),
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
    let (fast_m, undecided, fast) = run(Path::Tables);
    let (_, _, reference) = run(Path::Reference);
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

/// A burst on bounded executors queues deep on both nodes, so every
/// queue-aware placement scan reads a nonzero backlog: the tables'
/// queued EPDM scan must place exactly where the cost model's does.
#[test]
fn cached_tables_are_bit_identical_under_queue_aware_placement() {
    // Four hefty functions, 480 arrivals 5 ms apart, then a sparse tail.
    let catalog = WorkloadCatalog::new(vec![
        FunctionProfile::new("hog-a", 2_500, 900, 512, 0.6),
        FunctionProfile::new("hog-b", 3_000, 1_100, 640, 0.5),
        FunctionProfile::new("hog-c", 2_000, 800, 512, 0.7),
        FunctionProfile::new("hog-d", 3_500, 1_200, 768, 0.4),
    ]);
    let arrival = |i: u64, t_ms: u64| Invocation {
        func: FunctionId((i % 4) as u32),
        t_ms,
    };
    let invocations = (0..480u64)
        .map(|i| arrival(i, i * 5))
        .chain((0..6u64).map(|i| arrival(i, MINUTE_MS + i * 10_000)))
        .collect();
    let trace = Trace::new(catalog, invocations);
    let ci = CarbonIntensityTrace::constant(300.0, 30);
    let fleet = skus::fleet_a();
    let sim = Simulation::new(&trace, &ci, fleet.clone())
        .with_config(SimConfig::default().with_bounded_executors(ExecutorConfig { queue_cap: 8 }));
    let run = |path: Path| {
        let config = EcoLifeConfig::default().with_queue_aware_placement();
        let mut sink = CaptureSink::default();
        let m = sim.run_with_sink(&mut scheduler(path, &fleet, config), &mut sink);
        (m, sink)
    };
    let (fast_m, fast) = run(Path::Tables);
    let (_, reference) = run(Path::Reference);
    assert!(fast_m.total_queue_ms() > 0, "the burst must queue");
    assert_same_stream(&reference, &fast, "queue-aware placement under a burst");
}

#[test]
fn cached_tables_are_bit_identical_when_restricted_to_one_node() {
    let trace = SynthTraceConfig::small(7).generate(&WorkloadCatalog::sebs());
    let ci = CarbonIntensityTrace::synthetic(Region::Texas, 120, 7);
    let fleet = skus::fleet_three_generations();
    for node in [NodeId(0), NodeId(1), NodeId(2)] {
        let run = |path: Path| {
            let config = EcoLifeConfig::default().restricted_to(node);
            let mut sink = CaptureSink::default();
            let m = Simulation::new(&trace, &ci, fleet.clone())
                .run_with_sink(&mut scheduler(path, &fleet, config), &mut sink);
            (m, sink)
        };
        let (fast_m, fast) = run(Path::Tables);
        let (_, reference) = run(Path::Reference);
        assert_same_stream(&reference, &fast, &format!("restricted-to-{node} runs"));
        assert!(fast_m.records.iter().all(|r| r.exec_location == node));
    }
}
