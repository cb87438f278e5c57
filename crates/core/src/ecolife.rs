//! The EcoLife scheduler (Sec. IV, Algorithm 1), generalized to N-node
//! fleets.
//!
//! Per invocation:
//!
//! 1. **EPDM** picks the execution node (forced to the warm location
//!    when a warm container exists; otherwise the `fscore`-minimizing
//!    fleet node).
//! 2. The per-function predictor is updated with the arrival, producing
//!    the ΔF signal; the global carbon-intensity delta produces ΔCI.
//! 3. **KDM**: the function's Dynamic PSO perceives (ΔF, ΔCI) — adapting
//!    its weights and redistributing half the swarm on change — then runs
//!    a few iterations of the expected-objective fitness and emits the
//!    keep-alive (node, period) from its global best. The location axis
//!    of the search space spans the whole fleet
//!    (`SearchSpace::placement(n_nodes, n_periods)`).
//! 4. On pool overflow, the **warm-pool adjustment** ranks residents and
//!    the incoming container by keep-alive benefit density and displaces
//!    the losers toward the remaining nodes, cheapest keep-alive first.
//!
//! The decision loop is the hot path of every million-invocation replay,
//! so it is allocation-free and does only the work the swarm reads:
//! fleet-wide objective scans are served from [`ObjectiveTables`]
//! (per-function constants + per-minute CI composites); the predictor's
//! estimates at every grid period are running counts, read as lookups;
//! the fitness is a reusable [`ObjectiveLandscape`] whose `(node,
//! period)` cells are computed on a particle's first visit and memoized
//! for the rest of the decision (a decision's ~130 evaluations touch a
//! few dozen of the `nodes × grid` cells); a position decodes to its
//! cell with float operations and a mask ([`Grid`]), each grid's bound
//! converted to `f64` once per decision; each function's swarm is one
//! vector of 2-D particle records ([`DynamicPso`]); and per-function
//! state lives in a slot vector keyed by the raw function id. The
//! overflow ranking is served from the same tables: each candidate's
//! keep-alive benefit is one row lookup (O(residents) per overflow
//! instead of fleet-wide cost-model rescans per resident), its reuse
//! weight `P(gap ≤ 5 min)` is a tracked predictor lookup, the
//! transfer ranking is memoized per minute, and the tables' epoch is
//! refreshed from the engine's intensity snapshot, because degraded
//! decisions install keep-alives without a `decide`. The packing orders
//! only the candidates that can lose: greedy packing keeps everything
//! ahead of its first misfit, and from there on the candidates are the
//! shortest lowest-priority run whose memory covers what has to go, so
//! one pass finds that run and no sort ranks the whole pool (see
//! [`crate::warmpool`]). It packs against the room the node leaves this
//! pool, the capacity less the other shards' share, as the engine's
//! admission does.
//!
//! That is the only way EcoLife decides. The seed's loop — fleet-wide
//! [`CostModel`] scans in every particle evaluation, the predictor's
//! window scans, per-candidate cost-model rescans on overflow — lives on
//! as a test oracle in the `reference` submodule, whose tests pin every
//! decision and plan of this path bit-identical to it.

use crate::config::EcoLifeConfig;
use crate::objective::{CostModel, ObjectiveLandscape, ObjectiveTables};
use crate::predictor::{FunctionPredictor, NO_HISTORY_P_WARM};
use crate::warmpool::priority_adjustment_with_targets;
use ecolife_carbon::CarbonModel;
use ecolife_hw::{Fleet, NodeId, Region};
use ecolife_pso::decode::Grid;
use ecolife_pso::{DpsoConfig, DynamicPso, Optimizer, PsoConfig, SearchSpace};
use ecolife_sim::{
    Decision, InvocationCtx, KeepAliveChoice, OverflowAction, OverflowCtx, Scheduler, MINUTE_MS,
};
use ecolife_trace::stats::SignalDelta;
use ecolife_trace::{FunctionId, FunctionProfile, Trace, WorkloadCatalog};

/// The warm-pool ranking weighs each candidate by `P(gap ≤ 5 min)`: the
/// online predictor distinguishes drumbeat functions from ones that have
/// gone quiet. Predictors track it right after the keep-alive grid.
const OVERFLOW_HORIZON_MS: u64 = 5 * MINUTE_MS;

/// Per-function KDM state: the preserved optimizer plus the predictor.
struct FunctionState {
    swarm: DynamicPso,
    predictor: FunctionPredictor,
}

impl FunctionState {
    /// Build the per-function state: an independent, deterministically
    /// seeded swarm over the fleet-wide placement space plus a fresh
    /// arrival predictor tracking the keep-alive grid and
    /// [`OVERFLOW_HORIZON_MS`].
    fn new(config: &EcoLifeConfig, n_nodes: usize, func: FunctionId) -> Self {
        let dpso_cfg = DpsoConfig {
            base: PsoConfig {
                // Independent, deterministic swarm per function.
                seed: config.seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(func.0 as u64 + 1)),
                ..config.dpso.base
            },
            ..config.dpso
        };
        FunctionState {
            swarm: DynamicPso::new(
                SearchSpace::placement(n_nodes, config.keepalive_grid_min.len()),
                dpso_cfg,
            ),
            predictor: FunctionPredictor::new(
                config.delta_f_window_ms,
                config
                    .keepalive_grid_min
                    .iter()
                    .map(|m| m * MINUTE_MS)
                    .chain([OVERFLOW_HORIZON_MS]),
            ),
        }
    }
}

/// Per-function state slots, indexed by raw [`FunctionId`].
///
/// Trace construction guarantees function ids are dense in
/// `0..catalog.len()`, so a direct-indexed slot vector replaces the seed's
/// `HashMap<FunctionId, FunctionState>` — the hot path's per-invocation
/// state lookup becomes one bounds-checked index instead of a SipHash of
/// the key, and iteration order questions disappear entirely (the map was
/// only ever read point-wise). Slots are boxed so growth moves 8-byte
/// pointers, not whole swarms.
#[derive(Default)]
struct FunctionStates {
    slots: Vec<Option<Box<FunctionState>>>,
    live: usize,
}

impl FunctionStates {
    fn clear(&mut self) {
        self.slots.clear();
        self.live = 0;
    }

    fn len(&self) -> usize {
        self.live
    }

    fn get(&self, func: FunctionId) -> Option<&FunctionState> {
        self.slots.get(func.as_usize()).and_then(|s| s.as_deref())
    }

    fn get_or_insert_with(
        &mut self,
        func: FunctionId,
        build: impl FnOnce() -> FunctionState,
    ) -> &mut FunctionState {
        let idx = func.as_usize();
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        if self.slots[idx].is_none() {
            self.slots[idx] = Some(Box::new(build()));
            self.live += 1;
        }
        self.slots[idx].as_deref_mut().expect("slot just filled")
    }
}

/// Reusable per-decision buffers: the hot path fills these in place
/// instead of allocating per invocation.
#[derive(Default)]
struct DecideScratch {
    /// Per-node executor backlog read for queue-aware placement.
    queue_ms: Vec<u64>,
    /// This decision's objective landscape — the fitness the swarm
    /// optimizes.
    landscape: ObjectiveLandscape,
}

/// Decode an optimizer position into the keep-alive (node, period-index)
/// choice — the single decode rule shared by the fitness function and the
/// emitted decision, so the swarm always optimizes exactly the mapping
/// its global best is read back through. `nodes` and `periods` are the
/// fleet's and the keep-alive grid's [`Grid`]s, built once per decision.
#[inline]
fn decode_placement(
    restrict: Option<NodeId>,
    nodes: Grid,
    periods: Grid,
    x: &[f64],
) -> (NodeId, usize) {
    let l = match restrict {
        Some(node) => node,
        None => NodeId(nodes.index(x[0]) as u32),
    };
    (l, periods.index(x[1]))
}

/// The EcoLife scheduler.
///
/// All cross-function state (the per-region ΔCI perception) is a pure
/// function of `(t, region)` — one [`SignalDelta`] per distinct fleet
/// region, each observed once per simulated minute from that region's
/// series — and per-function state (predictor + swarm, seeded from the
/// function id) never reads another function's history. So an EcoLife
/// instance handed only a function-hash shard of the trace makes
/// exactly the decisions the whole-trace instance makes for those
/// functions. That is what lets `Simulation::run_sharded` replay shards
/// in parallel, one EcoLife per shard, bit-identically — on
/// multi-region fleets too.
pub struct EcoLife {
    config: EcoLifeConfig,
    /// The cost model behind its cache: decisions and overflow rankings
    /// read every fleet-wide scan through it.
    tables: ObjectiveTables,
    catalog: WorkloadCatalog,
    states: FunctionStates,
    /// One ΔCI tracker per distinct fleet region, in the provider's
    /// first-appearance (node id) order; initialized lazily on the first
    /// decision (the region set comes from the run's `CiProvider`).
    ci_deltas: Vec<(Region, SignalDelta)>,
    /// Minutes `0..=last_ci_minute` of every region's CI series have
    /// been fed to `ci_deltas` (one observation per simulated minute,
    /// invocation rhythm notwithstanding).
    last_ci_minute: Option<u64>,
    /// Reusable per-decision buffers.
    scratch: DecideScratch,
}

// Scheduler state must be shard-local: `run_sharded` moves one EcoLife
// instance into each worker thread.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<EcoLife>();
};

impl EcoLife {
    /// Build the scheduler for a hardware fleet. `catalog` must be
    /// the trace's catalog (needed for warm-pool ranking of resident
    /// containers); `prepare` re-captures it from the trace as a guard.
    pub fn new(fleet: Fleet, config: EcoLifeConfig) -> Self {
        Self::with_carbon_model(fleet, config, CarbonModel::default())
    }

    /// Variant with an explicit carbon model (robustness studies).
    pub fn with_carbon_model(fleet: Fleet, config: EcoLifeConfig, carbon: CarbonModel) -> Self {
        config.validate();
        if let Some(node) = config.restrict_to {
            assert!(
                fleet.contains(node),
                "restricted to {node:?}, which the fleet does not contain"
            );
        }
        let max_k_ms = *config.keepalive_grid_min.last().unwrap() * MINUTE_MS;
        let cost = CostModel::new(fleet, carbon, config.lambda_s, config.lambda_c, max_k_ms)
            .with_transfer_cost(config.transfer_cost);
        EcoLife {
            config,
            tables: ObjectiveTables::new(cost),
            catalog: WorkloadCatalog::default(),
            states: FunctionStates::default(),
            ci_deltas: Vec::new(),
            last_ci_minute: None,
            scratch: DecideScratch::default(),
        }
    }

    /// Number of per-function optimizers currently alive.
    pub fn tracked_functions(&self) -> usize {
        self.states.len()
    }

    /// Global ΔCI perception, one tracker per distinct fleet region: one
    /// observation per minute of simulated time from each region's series
    /// (carbon intensity is a minute-resolution signal), catching up over
    /// minutes that carried no invocation. Observing *every* minute for
    /// *every* region — rather than only invocation-bearing minutes of
    /// some global trace — makes the ΔCI state at time t a pure function
    /// of (t, region), independent of which functions' arrivals this
    /// scheduler instance happens to see; a per-shard EcoLife therefore
    /// perceives exactly what the whole-trace one does, single- or
    /// multi-region.
    ///
    /// Returns the perception-response trigger: the largest-magnitude
    /// normalized delta across the fleet's grids, since a swing anywhere
    /// the swarm could place a keep-alive is worth re-anchoring for. On
    /// a single-region fleet this reduces to the paper's scalar ΔCI
    /// exactly.
    fn perceive_dci(&mut self, ctx: &InvocationCtx<'_>) -> f64 {
        let minute = ctx.t_ms / MINUTE_MS;
        if self.ci_deltas.is_empty() {
            self.ci_deltas = ctx
                .ci
                .distinct_regions()
                .map(|(r, _)| (r, SignalDelta::new()))
                .collect();
        }
        let from = self.last_ci_minute.map_or(0, |m| m + 1);
        for m in from..=minute {
            for ((_, delta), (_, series)) in
                self.ci_deltas.iter_mut().zip(ctx.ci.distinct_regions())
            {
                delta.observe(series.at(m * MINUTE_MS));
            }
        }
        self.last_ci_minute = Some(minute);
        self.ci_deltas
            .iter()
            .map(|(_, d)| d.normalized_delta())
            .max_by(|a, b| {
                a.abs()
                    .partial_cmp(&b.abs())
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .unwrap_or(0.0)
    }
}

impl Scheduler for EcoLife {
    fn name(&self) -> &'static str {
        "EcoLife"
    }

    fn prepare(&mut self, trace: &Trace) {
        self.catalog = trace.catalog().clone();
        self.states.clear();
        self.ci_deltas.clear();
        self.last_ci_minute = None;
        self.tables.reset();
    }

    /// Every fleet-wide scan is served from [`ObjectiveTables`], the
    /// predictor snapshot is read from its tracked grid, the fitness is
    /// a lazily memoized landscape (only the cells the swarm visits are
    /// computed), and nothing is cloned per invocation.
    fn decide(&mut self, ctx: &InvocationCtx<'_>) -> Decision {
        let dci = self.perceive_dci(ctx);
        let restrict = self.config.restrict_to;
        self.tables.refresh(ctx.ci, ctx.t_ms);
        let exec = if self.config.queue_aware_placement && ctx.cluster.executors_enabled() {
            self.scratch.queue_ms.clear();
            for l in self.tables.cost().fleet().ids() {
                self.scratch
                    .queue_ms
                    .push(ctx.cluster.queue_wait_ms(l, ctx.t_ms));
            }
            self.tables
                .epdm_choice_queued(ctx.func, ctx.profile, restrict, &self.scratch.queue_ms)
        } else {
            self.tables.epdm_choice(ctx.func, ctx.profile, restrict)
        };

        let n_nodes = self.tables.cost().fleet().len();
        let grid_len = self.config.keepalive_grid_min.len();
        let (nodes, periods) = (Grid::new(n_nodes), Grid::new(grid_len));

        // Disjoint field borrows: predictor/swarm state, tables, and
        // scratch are touched simultaneously below.
        let Self {
            config,
            tables,
            states,
            scratch,
            ..
        } = self;

        // Update the arrival model *before* optimizing: the gap that just
        // closed is the freshest evidence about this function's rhythm.
        let state =
            states.get_or_insert_with(ctx.func, || FunctionState::new(config, n_nodes, ctx.func));
        state.predictor.record_arrival(ctx.t_ms);
        let df = state.predictor.delta_f();

        // Snapshot the predictor's tracked estimates over the grid into
        // this decision's landscape; the fitness closure reads (and on a
        // first visit computes) one memoized cell per evaluation.
        let predictor = &state.predictor;
        let landscape = tables.landscape(
            ctx.func,
            ctx.profile,
            &config.keepalive_grid_min,
            (0..grid_len).map(|i| (predictor.p_warm_at(i), predictor.expected_resident_ms_at(i))),
            restrict,
            &mut scratch.landscape,
        );
        let fitness = |x: &[f64]| -> f64 {
            let (l, idx) = decode_placement(restrict, nodes, periods, x);
            landscape.objective(l, idx)
        };

        if config.dynamic_pso {
            state.swarm.perceive(df, dci);
            // Perception-response includes re-anchoring: the environment
            // (CI, arrival stats) moved since the last invocation, so the
            // recorded global best is re-evaluated under today's fitness.
            state.swarm.refresh_gbest(&fitness);
        }
        for _ in 0..config.pso_iters {
            state.swarm.step(&fitness);
        }

        let (ka_loc, idx) = decode_placement(restrict, nodes, periods, state.swarm.best_position());
        let ka_ms = config.keepalive_grid_min[idx] * MINUTE_MS;

        Decision {
            exec,
            keepalive: (ka_ms > 0).then_some(KeepAliveChoice {
                location: ka_loc,
                duration_ms: ka_ms,
            }),
        }
    }

    fn on_pool_overflow(&mut self, ctx: &OverflowCtx<'_>) -> OverflowAction {
        if !self.config.warm_pool_adjustment {
            return OverflowAction::Drop;
        }
        let Self {
            config,
            tables,
            catalog,
            states,
            ..
        } = self;
        // Benefits are row lookups, the reuse weight a tracked predictor
        // lookup, and the transfer ranking is memoized per (node,
        // minute). The epoch comes from the engine's snapshot — a
        // degraded decision installs keep-alives without a `decide`, so
        // no refresh may have seen this minute.
        tables.refresh_from_snapshot(ctx.t_ms, &ctx.ci_by_node);
        // A single-node variant (Eco-Old / Eco-New) never spills onto the
        // rest of the fleet: displaced containers are evicted, so it
        // needs no transfer ranking. (The `AdjustPlan` owns its ranking,
        // hence the clone of the ≤ fleet-size id vector.)
        let targets = if config.restrict_to.is_none() {
            tables.transfer_ranking(ctx.location).to_vec()
        } else {
            Vec::new()
        };
        // Rank candidates by benefit × P(reuse within 5 minutes).
        let horizon = config.keepalive_grid_min.len();
        let benefit = |func: FunctionId, f: &FunctionProfile| -> f64 {
            let weight = states
                .get(func)
                .map_or(NO_HISTORY_P_WARM, |s| s.predictor.p_warm_at(horizon));
            weight * tables.keepalive_benefit(ctx.location, func, f)
        };
        OverflowAction::Adjust(priority_adjustment_with_targets(
            catalog, ctx, benefit, targets,
        ))
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use ecolife_carbon::CarbonIntensityTrace;
    use ecolife_hw::skus;
    use ecolife_sim::Simulation;
    use ecolife_trace::{Invocation, SynthTraceConfig};

    fn small_trace() -> Trace {
        SynthTraceConfig::small(7).generate(&WorkloadCatalog::sebs())
    }

    #[test]
    fn runs_end_to_end_on_synthetic_trace() {
        let trace = small_trace();
        let ci = CarbonIntensityTrace::constant(250.0, 120);
        let mut eco = EcoLife::new(skus::fleet_a(), EcoLifeConfig::default());
        let m = Simulation::new(&trace, &ci, skus::fleet_a()).run(&mut eco);
        assert_eq!(m.invocations(), trace.len());
        assert!(m.total_carbon_g() > 0.0);
        assert!(eco.tracked_functions() > 0);
    }

    #[test]
    fn repeated_invocations_earn_warm_starts() {
        // A function invoked every 2 minutes: EcoLife must learn to keep
        // it alive and convert most starts to warm.
        let catalog = WorkloadCatalog::sebs();
        let (vid, _) = catalog.by_name("220.video-processing").unwrap();
        let invocations: Vec<Invocation> = (0..30)
            .map(|i| Invocation {
                func: vid,
                t_ms: i * 2 * MINUTE_MS,
            })
            .collect();
        let trace = Trace::new(catalog, invocations);
        let ci = CarbonIntensityTrace::constant(300.0, 120);
        let mut eco = EcoLife::new(skus::fleet_a(), EcoLifeConfig::default());
        let m = Simulation::new(&trace, &ci, skus::fleet_a()).run(&mut eco);
        assert!(
            m.warm_rate() > 0.6,
            "warm rate {} too low for a regular function",
            m.warm_rate()
        );
    }

    #[test]
    fn restriction_pins_both_exec_and_keepalive() {
        let trace = small_trace();
        let ci = CarbonIntensityTrace::constant(250.0, 120);
        let fleet = skus::fleet_a();
        for node in fleet.ids() {
            let mut eco = EcoLife::new(fleet.clone(), EcoLifeConfig::default().restricted_to(node));
            let m = Simulation::new(&trace, &ci, fleet.clone()).run(&mut eco);
            assert!(
                m.records.iter().all(|r| r.exec_location == node),
                "restricted run leaked to another node"
            );
        }
    }

    #[test]
    fn restriction_pins_a_mid_fleet_node() {
        let trace = small_trace();
        let ci = CarbonIntensityTrace::constant(250.0, 120);
        let fleet = skus::fleet_three_generations();
        let mut eco = EcoLife::new(
            fleet.clone(),
            EcoLifeConfig::default().restricted_to(NodeId(1)),
        );
        let m = Simulation::new(&trace, &ci, fleet).run(&mut eco);
        assert!(m.records.iter().all(|r| r.exec_location == NodeId(1)));
    }

    #[test]
    #[should_panic(expected = "which the fleet does not contain")]
    fn restriction_outside_the_fleet_is_rejected() {
        EcoLife::new(
            skus::fleet_a(),
            EcoLifeConfig::default().restricted_to(NodeId(5)),
        );
    }

    #[test]
    #[should_panic(expected = "DPSO inertia range is empty")]
    fn an_inverted_dpso_range_fails_at_construction() {
        let mut config = EcoLifeConfig::default();
        config.dpso.omega_min = 1.0;
        config.dpso.omega_max = 0.5;
        EcoLife::new(skus::fleet_a(), config);
    }

    #[test]
    fn schedules_over_a_three_node_fleet() {
        let trace = SynthTraceConfig {
            n_functions: 16,
            duration_min: 120,
            ..SynthTraceConfig::small(7)
        }
        .generate(&WorkloadCatalog::sebs());
        let ci = CarbonIntensityTrace::constant(250.0, 180);
        let fleet = skus::fleet_three_generations();
        let mut eco = EcoLife::new(fleet.clone(), EcoLifeConfig::default());
        let m = Simulation::new(&trace, &ci, fleet.clone()).run(&mut eco);
        assert_eq!(m.invocations(), trace.len());
        // Every placement names a real fleet node.
        assert!(m.records.iter().all(|r| fleet.contains(r.exec_location)));
        assert!(m.warm_starts() > 0);
    }

    #[test]
    fn single_node_fleet_schedules_the_period_axis_alone() {
        let trace = small_trace();
        let ci = CarbonIntensityTrace::constant(250.0, 120);
        let solo = skus::fleet_of(&[skus::Sku::M5znMetal]);
        let mut eco = EcoLife::new(solo.clone(), EcoLifeConfig::default());
        let m = Simulation::new(&trace, &ci, solo).run(&mut eco);
        assert_eq!(m.invocations(), trace.len());
        assert!(m.records.iter().all(|r| r.exec_location == NodeId(0)));
        assert!(m.warm_starts() > 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let trace = small_trace();
        let ci = CarbonIntensityTrace::synthetic(ecolife_carbon::Region::Caiso, 120, 3);
        let run = || {
            let mut eco = EcoLife::new(skus::fleet_a(), EcoLifeConfig::default());
            Simulation::new(&trace, &ci, skus::fleet_a()).run(&mut eco)
        };
        let a = run();
        let b = run();
        assert_eq!(a.records, b.records);
    }

    #[test]
    fn ablation_configs_still_run() {
        let trace = small_trace();
        let ci = CarbonIntensityTrace::constant(250.0, 120);
        for cfg in [
            EcoLifeConfig::default().without_dynamic_pso(),
            EcoLifeConfig::default().without_warm_pool_adjustment(),
        ] {
            let mut eco = EcoLife::new(skus::fleet_a(), cfg);
            let m = Simulation::new(&trace, &ci, skus::fleet_a()).run(&mut eco);
            assert_eq!(m.invocations(), trace.len());
        }
    }

    #[test]
    fn warm_pool_adjustment_reduces_evictions_under_pressure() {
        // Tiny pools: without adjustment, overflows drop keep-alives;
        // with adjustment, containers are ranked/transferred instead.
        let trace = SynthTraceConfig {
            n_functions: 24,
            duration_min: 90,
            ..SynthTraceConfig::small(23)
        }
        .generate(&WorkloadCatalog::sebs());
        let ci = CarbonIntensityTrace::constant(250.0, 120);
        // Pools sized so that ranking matters: large enough to hold the
        // valuable part of the working set, small enough to overflow.
        let fleet = skus::fleet_a().with_uniform_keepalive_budget_mib(6 * 1024);

        let mut with = EcoLife::new(fleet.clone(), EcoLifeConfig::default());
        let m_with = Simulation::new(&trace, &ci, fleet.clone()).run(&mut with);
        let mut without = EcoLife::new(
            fleet.clone(),
            EcoLifeConfig::default().without_warm_pool_adjustment(),
        );
        let m_without = Simulation::new(&trace, &ci, fleet).run(&mut without);

        // The adjustment must engage (cross-pool transfers), cut the
        // number of functions dropped from the warm pools, and not pay
        // for it in service time or more than marginal keep-alive carbon
        // (it deliberately keeps more containers warm).
        assert!(m_with.transfers > 0, "adjustment never engaged");
        assert!(
            m_with.evicted_functions < m_without.evicted_functions,
            "adjustment did not reduce evictions: {} vs {}",
            m_with.evicted_functions,
            m_without.evicted_functions
        );
        assert!(
            m_with.total_service_ms() as f64 <= 1.02 * m_without.total_service_ms() as f64,
            "adjustment degraded service: {} vs {}",
            m_with.total_service_ms(),
            m_without.total_service_ms()
        );
        assert!(
            m_with.total_carbon_g() <= 1.05 * m_without.total_carbon_g(),
            "adjustment degraded carbon badly"
        );
    }
}
