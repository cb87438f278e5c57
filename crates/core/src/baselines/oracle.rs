//! The infeasible brute-force baselines: `Oracle`, `CO2-Opt`,
//! `Service-Time-Opt`, and `Energy-Opt` (Sec. V).
//!
//! "These solutions utilize heterogeneous hardware and present the
//! theoretical upper bounds, which are computed via brute-forcing every
//! possible scheduling option for each function invocation." Concretely:
//! the baseline is granted the next-arrival gap of every invocation (from
//! the trace) and the future of the carbon-intensity series, which it
//! reads through `InvocationCtx::ci`, the provider the engine charges
//! with. Per invocation it enumerates every (node, keep-alive) choice
//! over the whole fleet, scoring each with exact future knowledge:
//!
//! * the next invocation is warm iff the gap lands inside the keep-alive
//!   window;
//! * the keep-alive is charged for exactly `min(gap_after_service, k)`;
//! * `Oracle` minimizes the joint λs/λc objective, `CO2-Opt` raw grams,
//!   `Service-Time-Opt` raw milliseconds, `Energy-Opt` raw kWh.
//!
//! Under memory pressure the brute-force baselines also use the priority
//! warm-pool adjustment (they are upper bounds; handicapping them with
//! naive drops would flatter EcoLife).

use crate::objective::CostModel;
use crate::warmpool::priority_adjustment;
use ecolife_carbon::CarbonModel;
use ecolife_hw::{Fleet, NodeId};
use ecolife_sim::{
    Decision, InvocationCtx, KeepAliveChoice, OverflowAction, OverflowCtx, Scheduler, MINUTE_MS,
};
use ecolife_trace::{Trace, WorkloadCatalog};

/// What a brute-force baseline minimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptTarget {
    /// λs/λc joint objective — the `Oracle`.
    Joint,
    /// Total carbon (g) — `CO2-Opt`.
    Carbon,
    /// Total service time (ms) — `Service-Time-Opt`.
    ServiceTime,
    /// Total energy (kWh) — `Energy-Opt`.
    Energy,
}

/// A brute-force baseline scheduler.
pub struct BruteForce {
    target: OptTarget,
    cost: CostModel,
    grid_min: Vec<u64>,
    /// Next-arrival gap per invocation index (filled in `prepare`).
    gaps: Vec<Option<u64>>,
    catalog: WorkloadCatalog,
    /// The node set enumerated per decision: the whole fleet, or the
    /// restricted node.
    locations: Vec<NodeId>,
}

impl BruteForce {
    pub fn new(target: OptTarget, fleet: Fleet, grid_min: Vec<u64>) -> Self {
        assert!(grid_min.len() >= 2 && grid_min[0] == 0);
        let locations: Vec<NodeId> = fleet.ids().collect();
        let max_k_ms = *grid_min.last().unwrap() * MINUTE_MS;
        let cost = CostModel::new(fleet, CarbonModel::default(), 0.5, 0.5, max_k_ms);
        BruteForce {
            target,
            cost,
            grid_min,
            gaps: Vec::new(),
            catalog: WorkloadCatalog::default(),
            locations,
        }
    }

    /// Use a non-default carbon model (robustness studies).
    pub fn with_carbon_model(mut self, carbon: CarbonModel) -> Self {
        let fleet = self.cost.fleet().clone();
        let max_k_ms = *self.grid_min.last().unwrap() * MINUTE_MS;
        self.cost = CostModel::new(fleet, carbon, 0.5, 0.5, max_k_ms);
        self
    }

    /// Restrict to one fleet node (used for sanity experiments).
    pub fn restricted_to(mut self, node: NodeId) -> Self {
        assert!(
            self.cost.fleet().contains(node),
            "restricted to {node:?}, which the fleet does not contain"
        );
        self.locations = vec![node];
        self
    }

    /// The Oracle with the default 0–10-minute grid.
    pub fn oracle(fleet: Fleet) -> Self {
        Self::new(OptTarget::Joint, fleet, (0..=10).collect())
    }

    pub fn co2_opt(fleet: Fleet) -> Self {
        Self::new(OptTarget::Carbon, fleet, (0..=10).collect())
    }

    pub fn service_time_opt(fleet: Fleet) -> Self {
        Self::new(OptTarget::ServiceTime, fleet, (0..=10).collect())
    }

    pub fn energy_opt(fleet: Fleet) -> Self {
        Self::new(OptTarget::Energy, fleet, (0..=10).collect())
    }

    /// The cold-execution placement rule of this target: the first
    /// score-minimizing node in id order, each node's carbon priced at
    /// its own grid's intensity in the per-node snapshot `ci_by_node`.
    fn cold_choice_with(&self, f: &ecolife_trace::FunctionProfile, ci_by_node: &[f64]) -> NodeId {
        let score = |r: NodeId| -> f64 {
            match self.target {
                OptTarget::Joint => self.cost.epdm_score(r, f, ci_by_node),
                OptTarget::Carbon => self.cost.cold_service_carbon_g(r, f, ci_by_node[r.index()]),
                OptTarget::ServiceTime => self.cost.cold_service_ms(r, f) as f64,
                OptTarget::Energy => self.cost.service_energy_kwh(r, f, false),
            }
        };
        *self
            .locations
            .iter()
            .min_by(|a, b| score(**a).partial_cmp(&score(**b)).unwrap())
            .expect("non-empty location set")
    }

    /// Score a keep-alive option with exact future knowledge.
    ///
    /// `service_end` is when the container would become warm; `gap` the
    /// exact time to this function's next arrival (from the current
    /// arrival), `None` for the last occurrence. `ci_by_node` is the
    /// per-node CI snapshot at `ctx.t_ms` and `cold_next` the
    /// placement-rule choice at the next arrival — both constant across
    /// one `decide`'s whole (node, period) grid, so the caller computes
    /// them once.
    #[allow(clippy::too_many_arguments)]
    fn keepalive_score(
        &self,
        ctx: &InvocationCtx<'_>,
        service_end: u64,
        gap: Option<u64>,
        ci_by_node: &[f64],
        cold_next: Option<NodeId>,
        l: NodeId,
        k_ms: u64,
    ) -> f64 {
        let f = ctx.profile;
        // How long would the container actually sit warm?
        let (resident_ms, warm_next) = match gap {
            None => (k_ms, false),
            Some(g) => {
                let next_t = ctx.t_ms + g;
                if next_t < service_end {
                    // Next arrival lands during our own service: the
                    // container is not warm yet, the start is cold, and
                    // the keep-alive then runs its full course.
                    (k_ms, false)
                } else {
                    let gap_from_end = next_t - service_end;
                    if k_ms > 0 && gap_from_end < k_ms {
                        (gap_from_end, true)
                    } else {
                        (k_ms, false)
                    }
                }
            }
        };

        // Keep-alive carbon accrues on the hosting node's grid.
        let ci_ka = if resident_ms > 0 {
            ctx.ci
                .average_over(l, service_end, service_end + resident_ms)
        } else {
            ctx.ci.at(l, ctx.t_ms)
        };

        let kc_g = self.cost.keepalive_carbon_g(l, f, resident_ms, ci_ka);
        let ka_energy = self.cost.keepalive_energy_kwh(l, f, resident_ms);

        // Next invocation's service under this choice, priced on the
        // grid of the node it would actually run on.
        let (s_next_ms, sc_next_g, e_next_kwh) = match gap {
            None => (0.0, 0.0, 0.0),
            Some(g) if warm_next => {
                let next_t = ctx.t_ms + g;
                (
                    self.cost.warm_service_ms(l, f) as f64,
                    self.cost.warm_service_carbon_g(l, f, ctx.ci.at(l, next_t)),
                    self.cost.service_energy_kwh(l, f, true),
                )
            }
            Some(g) => {
                // Cold next start: it will execute wherever this
                // target's placement rule puts it at that instant.
                let next_t = ctx.t_ms + g;
                let r = cold_next.expect("cold_next precomputed whenever a gap exists");
                (
                    self.cost.cold_service_ms(r, f) as f64,
                    self.cost.cold_service_carbon_g(r, f, ctx.ci.at(r, next_t)),
                    self.cost.service_energy_kwh(r, f, false),
                )
            }
        };

        match self.target {
            OptTarget::Joint => {
                self.cost.lambda_s * s_next_ms / self.cost.s_max(f)
                    + self.cost.lambda_c * sc_next_g / self.cost.sc_max(f, ci_by_node)
                    + self.cost.lambda_c * kc_g / self.cost.kc_max(f, ci_by_node)
            }
            OptTarget::Carbon => sc_next_g + kc_g,
            OptTarget::ServiceTime => {
                // Pure service time, with an infinitesimal carbon
                // tie-break so equal-service options don't burn pool
                // memory arbitrarily.
                s_next_ms + 1e-9 * (sc_next_g + kc_g)
            }
            OptTarget::Energy => e_next_kwh + ka_energy,
        }
    }
}

impl Scheduler for BruteForce {
    fn name(&self) -> &'static str {
        match self.target {
            OptTarget::Joint => "Oracle",
            OptTarget::Carbon => "CO2-Opt",
            OptTarget::ServiceTime => "Service-Time-Opt",
            OptTarget::Energy => "Energy-Opt",
        }
    }

    fn prepare(&mut self, trace: &Trace) {
        self.gaps = trace.next_arrival_gaps();
        self.catalog = trace.catalog().clone();
    }

    fn decide(&mut self, ctx: &InvocationCtx<'_>) -> Decision {
        // Constants of this decision, shared across the whole
        // (node, period) grid below.
        let ci_by_node = ctx.ci.at_each_node(ctx.t_ms);
        let exec = self.cold_choice_with(ctx.profile, &ci_by_node);
        let gap = self.gaps.get(ctx.index).copied().flatten();
        let cold_next =
            gap.map(|g| self.cold_choice_with(ctx.profile, &ctx.ci.at_each_node(ctx.t_ms + g)));

        // Exact service duration of *this* invocation (mirrors the
        // engine's computation) to anchor the keep-alive window.
        let service_ms = match ctx.warm_at {
            Some(l) => self.cost.warm_service_ms(l, ctx.profile),
            None => self.cost.cold_service_ms(exec, ctx.profile),
        };
        let service_end = ctx.t_ms + service_ms;

        // Brute-force every (node, period) choice.
        let mut best: Option<(f64, NodeId, u64)> = None;
        for &l in &self.locations {
            for &k_min in &self.grid_min {
                let k_ms = k_min * MINUTE_MS;
                let score =
                    self.keepalive_score(ctx, service_end, gap, &ci_by_node, cold_next, l, k_ms);
                if best.map(|(s, _, _)| score < s).unwrap_or(true) {
                    best = Some((score, l, k_ms));
                }
            }
        }
        let (_, ka_loc, ka_ms) = best.expect("non-empty choice grid");

        Decision {
            exec,
            keepalive: (ka_ms > 0).then_some(KeepAliveChoice {
                location: ka_loc,
                duration_ms: ka_ms,
            }),
        }
    }

    fn on_pool_overflow(&mut self, ctx: &OverflowCtx<'_>) -> OverflowAction {
        let mut plan = priority_adjustment(&self.cost, &self.catalog, ctx);
        if self.locations.len() < self.cost.fleet().len() {
            // A restricted baseline never spills onto nodes outside its
            // allowed set.
            plan.transfer_targets = Some(
                self.locations
                    .iter()
                    .copied()
                    .filter(|&l| l != ctx.location)
                    .collect(),
            );
        }
        OverflowAction::Adjust(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecolife_carbon::CarbonIntensityTrace;
    use ecolife_sim::Simulation;
    use ecolife_trace::{FunctionId, Invocation, SynthTraceConfig};

    use ecolife_hw::skus;

    fn trace() -> Trace {
        SynthTraceConfig {
            n_functions: 12,
            duration_min: 90,
            ..SynthTraceConfig::small(21)
        }
        .generate(&WorkloadCatalog::sebs())
    }

    fn ci() -> CarbonIntensityTrace {
        CarbonIntensityTrace::synthetic(ecolife_carbon::Region::Caiso, 180, 5)
    }

    fn run(target: OptTarget, trace: &Trace, ci: &CarbonIntensityTrace) -> ecolife_sim::RunMetrics {
        let fleet = skus::fleet_a();
        let mut s = BruteForce::new(target, fleet.clone(), (0..=10).collect());
        Simulation::new(trace, ci, fleet).run(&mut s)
    }

    #[test]
    fn names() {
        let fleet = skus::fleet_a();
        assert_eq!(BruteForce::oracle(fleet.clone()).name(), "Oracle");
        assert_eq!(BruteForce::co2_opt(fleet.clone()).name(), "CO2-Opt");
        assert_eq!(
            BruteForce::service_time_opt(fleet.clone()).name(),
            "Service-Time-Opt"
        );
        assert_eq!(BruteForce::energy_opt(fleet).name(), "Energy-Opt");
    }

    #[test]
    fn service_time_opt_dominates_service_time() {
        let t = trace();
        let c = ci();
        let st = run(OptTarget::ServiceTime, &t, &c);
        for target in [OptTarget::Joint, OptTarget::Carbon, OptTarget::Energy] {
            let other = run(target, &t, &c);
            assert!(
                st.total_service_ms() <= other.total_service_ms(),
                "{target:?} beat Service-Time-Opt on service time"
            );
        }
    }

    #[test]
    fn co2_opt_dominates_carbon() {
        let t = trace();
        let c = ci();
        let co2 = run(OptTarget::Carbon, &t, &c);
        for target in [OptTarget::Joint, OptTarget::ServiceTime, OptTarget::Energy] {
            let other = run(target, &t, &c);
            assert!(
                co2.total_carbon_g() <= other.total_carbon_g() * 1.001,
                "{target:?} beat CO2-Opt on carbon: {} vs {}",
                other.total_carbon_g(),
                co2.total_carbon_g()
            );
        }
    }

    #[test]
    fn oracle_sits_between_the_single_objective_opts() {
        let t = trace();
        let c = ci();
        let oracle = run(OptTarget::Joint, &t, &c);
        let st = run(OptTarget::ServiceTime, &t, &c);
        let co2 = run(OptTarget::Carbon, &t, &c);
        assert!(oracle.total_service_ms() >= st.total_service_ms());
        assert!(oracle.total_carbon_g() >= co2.total_carbon_g() * 0.999);
    }

    #[test]
    fn energy_opt_is_not_carbon_opt() {
        // Fig. 4's point: Energy-Opt overlooks embodied carbon and CI
        // variation, landing away from CO2-Opt.
        let t = trace();
        let c = ci();
        let energy = run(OptTarget::Energy, &t, &c);
        let co2 = run(OptTarget::Carbon, &t, &c);
        assert!(energy.total_carbon_g() >= co2.total_carbon_g());
        assert!(energy.total_energy_kwh() <= co2.total_energy_kwh() * 1.001);
    }

    #[test]
    fn oracle_converts_known_regular_arrivals_into_warm_starts() {
        let catalog = WorkloadCatalog::sebs();
        let (vid, _) = catalog.by_name("220.video-processing").unwrap();
        let invocations: Vec<Invocation> = (0..20)
            .map(|i| Invocation {
                func: vid,
                t_ms: i * 3 * MINUTE_MS,
            })
            .collect();
        let t = Trace::new(catalog, invocations);
        let c = CarbonIntensityTrace::constant(300.0, 120);
        let m = run(OptTarget::Joint, &t, &c);
        // Every re-invocation (19 of 20) must be warm: the oracle knows
        // the 3-minute gap and the grid offers 3+ minutes.
        assert_eq!(m.warm_starts(), 19);
    }

    #[test]
    fn last_invocation_gets_no_keepalive_from_carbon_opt() {
        // With no future arrival, any keep-alive is pure carbon waste —
        // CO2-Opt must choose none.
        let catalog = WorkloadCatalog::sebs();
        let (vid, _) = catalog.by_name("220.video-processing").unwrap();
        let t = Trace::new(catalog, vec![Invocation { func: vid, t_ms: 0 }]);
        let c = CarbonIntensityTrace::constant(300.0, 60);
        let m = run(OptTarget::Carbon, &t, &c);
        assert_eq!(m.total_keepalive_carbon_g(), 0.0);
    }

    #[test]
    fn restriction_is_respected() {
        let t = trace();
        let c = ci();
        let fleet = skus::fleet_a();
        let mut s = BruteForce::oracle(fleet.clone()).restricted_to(NodeId(0));
        let m = Simulation::new(&t, &c, fleet).run(&mut s);
        assert!(m.records.iter().all(|r| r.exec_location == NodeId(0)));
    }

    #[test]
    fn three_node_oracle_uses_the_mid_node_when_it_wins() {
        // Regular 4-minute drumbeat on the three-generation fleet: the
        // oracle enumerates all three nodes and must keep every
        // re-invocation warm somewhere.
        let catalog = WorkloadCatalog::sebs();
        let (vid, _) = catalog.by_name("503.graph-bfs").unwrap();
        let invocations: Vec<Invocation> = (0..20)
            .map(|i| Invocation {
                func: vid,
                t_ms: i * 4 * MINUTE_MS,
            })
            .collect();
        let t = Trace::new(catalog, invocations);
        let c = CarbonIntensityTrace::constant(300.0, 120);
        let fleet = skus::fleet_three_generations();
        let mut s = BruteForce::oracle(fleet.clone());
        let m = Simulation::new(&t, &c, fleet.clone()).run(&mut s);
        assert_eq!(m.warm_starts(), 19);
        assert!(m.records.iter().all(|r| fleet.contains(r.exec_location)));
    }

    #[test]
    fn gap_indexing_matches_trace_positions() {
        // Two interleaved functions: gaps must be per-function, not global.
        let catalog = WorkloadCatalog::sebs();
        let a = FunctionId(0);
        let b = FunctionId(1);
        let t = Trace::new(
            catalog,
            vec![
                Invocation { func: a, t_ms: 0 },
                Invocation {
                    func: b,
                    t_ms: 1_000,
                },
                Invocation {
                    func: a,
                    t_ms: 4 * MINUTE_MS,
                },
            ],
        );
        let c = CarbonIntensityTrace::constant(300.0, 60);
        let m = run(OptTarget::Joint, &t, &c);
        // Function a's second start must be warm (gap 4 min ≤ 10-min max).
        assert!(m.records[2].warm);
    }
}
