//! Plan fitness: materialize → replay → score, memoized and parallel.
//!
//! This is the planner's hot path. One fitness evaluation is a full
//! simulation of the workload over the candidate fleet under the
//! existing EcoLife keep-alive policy, so the evaluator
//!
//! * **memoizes** by integer genome — optimizers revisit the same plan
//!   constantly once a swarm contracts, and a revisit must cost a hash
//!   lookup, not a simulation;
//! * **fans batches out** over [`parallel_map`] — one swarm generation
//!   is 15 independent simulations;
//! * stays **deterministic regardless of thread count** — each
//!   candidate's scheduler RNG is seeded from the genome itself (not
//!   from any shared, thread-order-dependent state), and the simulation
//!   is a pure function of (trace, CI, fleet, seed).

use crate::plan::FleetPlan;
use crate::space::PlanSpace;
use ecolife_carbon::{CarbonIntensityTrace, CiBundle};
use ecolife_core::{EcoLife, EcoLifeConfig};
use ecolife_hw::DEFAULT_LIFETIME_MS;
use ecolife_sim::{parallel_map, Simulation};
use ecolife_trace::Trace;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Where candidate simulations read carbon intensity from: one shared
/// series (single-region planning) or a region-keyed bundle resolved per
/// node (multi-region planning over [`PlanSpace::with_regions`]).
enum CiSource<'a> {
    Shared(&'a CarbonIntensityTrace),
    Bundle(&'a CiBundle),
}

/// Fitness of any infeasible plan starts here and grows with the size of
/// the violation, so optimizers roaming outside the caps are graded back
/// toward feasibility instead of hitting a cliff.
pub const INFEASIBLE_PENALTY_G: f64 = 1e12;

/// Planner knobs.
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Service-time SLO: the P95 service time (ms) the fleet must hold.
    pub slo_p95_ms: u64,
    /// Grams of CO2e charged per unit of *relative* P95 violation (a
    /// plan at 2× the SLO pays `slo_penalty_g`, at 3× pays twice that).
    pub slo_penalty_g: f64,
    /// Base RNG seed; each candidate derives its own from the genome.
    pub seed: u64,
    /// Independent restarts for the heuristic searches (PSO/GA/SA), best
    /// result wins. Fitness is piecewise-constant over genome cells, so
    /// a single swarm can collapse early; restarts are the standard
    /// fix and nearly free here — every revisited plan is a cache hit.
    pub restarts: u32,
    /// Fan batch evaluations out over threads. Results are identical
    /// either way; serial evaluation exists to prove exactly that (and
    /// for debugging).
    pub parallel: bool,
    /// The inner keep-alive scheduler evaluated on every candidate
    /// fleet (its `seed` field is overridden per candidate).
    pub scheduler: EcoLifeConfig,
    /// Engine knobs for the inner replay of every candidate — the
    /// default keeps the expiry-timeline fast path
    /// ([`ecolife_sim::ExpiryMode::Timeline`]); scores are bit-identical
    /// under the reference scan, only slower.
    pub sim: ecolife_sim::SimConfig,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            slo_p95_ms: 5_000,
            slo_penalty_g: 1_000.0,
            seed: 0x91a_17e5,
            restarts: 4,
            parallel: true,
            scheduler: EcoLifeConfig::default(),
            sim: ecolife_sim::SimConfig::default(),
        }
    }
}

/// The scored outcome of simulating one feasible plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanScore {
    /// The scalar the search minimizes:
    /// `sim_carbon_g + provisioned_embodied_g + slo_penalty_g`.
    pub fitness_g: f64,
    /// Total carbon of the simulated run (operational + per-use embodied
    /// attribution, service + keep-alive).
    pub sim_carbon_g: f64,
    /// The workload-span slice of the fleet's full manufacturing
    /// footprint — the cost of *owning* the nodes, paid whether or not
    /// traffic lands on them. This is what keeps the planner from buying
    /// one node per function.
    pub provisioned_embodied_g: f64,
    /// SLO-violation penalty (g); zero when P95 meets the SLO.
    pub slo_penalty_g: f64,
    /// Achieved P95 service time (ms).
    pub p95_service_ms: u64,
    /// Achieved mean service time (ms).
    pub mean_service_ms: f64,
    /// Achieved warm-start rate.
    pub warm_rate: f64,
    /// Provisioned node count.
    pub total_nodes: u32,
    /// Invocations the simulated run actually completed. Zero means the
    /// percentile/mean fields are vacuous (an empty metric set reports
    /// `p95 == 0`), and scoring treats the plan as an SLO violation
    /// instead of SLO-perfect.
    pub invocations: usize,
}

impl PlanScore {
    /// Re-score against a different SLO. P95 and carbon are
    /// SLO-independent physics, so the whole Pareto frontier of a scored
    /// space falls out of this re-weighting without further simulation —
    /// and because [`PlanEvaluator`] itself scores through this method,
    /// a re-weighted score is exactly what an evaluator configured with
    /// `(slo_p95_ms, slo_penalty_g)` would have produced.
    pub fn with_slo(&self, slo_p95_ms: u64, slo_penalty_g: f64) -> PlanScore {
        let slo = if self.invocations == 0 {
            // A starved plan completed nothing: its `p95 == 0` comes
            // from an *empty* metric set, not a fast one. Pretending
            // that meets the SLO would make the do-nothing plan
            // SLO-perfect, so it pays the infeasibility band instead.
            INFEASIBLE_PENALTY_G
        } else {
            slo_penalty_g * (self.p95_service_ms as f64 / slo_p95_ms as f64 - 1.0).max(0.0)
        };
        PlanScore {
            fitness_g: self.sim_carbon_g + self.provisioned_embodied_g + slo,
            slo_penalty_g: slo,
            ..*self
        }
    }
}

/// Memoized, parallel plan evaluator over one (workload, CI) pair.
pub struct PlanEvaluator<'a> {
    space: PlanSpace,
    trace: &'a Trace,
    ci: CiSource<'a>,
    config: PlannerConfig,
    cache: Mutex<HashMap<u64, (FleetPlan, PlanScore)>>,
    simulations: AtomicU64,
    cache_hits: AtomicU64,
}

impl<'a> PlanEvaluator<'a> {
    pub fn new(
        space: PlanSpace,
        trace: &'a Trace,
        ci: &'a CarbonIntensityTrace,
        config: PlannerConfig,
    ) -> Self {
        Self::with_source(space, trace, CiSource::Shared(ci), config)
    }

    /// Multi-region evaluator: candidate fleets deploy nodes into the
    /// space's regions, and each node's simulation reads its own
    /// region's series from `bundle`.
    ///
    /// # Panics
    /// Panics when `bundle` lacks a series for one of the space's
    /// regions or does not cover the workload span — every candidate
    /// simulation would fail identically, so it is a configuration
    /// error, caught up front.
    pub fn new_regional(
        space: PlanSpace,
        trace: &'a Trace,
        bundle: &'a CiBundle,
        config: PlannerConfig,
    ) -> Self {
        for &region in space.regions() {
            assert!(
                bundle.get(region).is_some(),
                "plan space deploys into {region}, which has no CI series in the bundle"
            );
        }
        assert!(
            trace.is_empty() || bundle.len_ms() > trace.horizon_ms(),
            "CI bundle covers {} ms but the workload spans {} ms",
            bundle.len_ms(),
            trace.horizon_ms() + 1
        );
        Self::with_source(space, trace, CiSource::Bundle(bundle), config)
    }

    fn with_source(
        space: PlanSpace,
        trace: &'a Trace,
        ci: CiSource<'a>,
        config: PlannerConfig,
    ) -> Self {
        assert!(config.slo_p95_ms > 0, "SLO must be positive");
        assert!(config.slo_penalty_g >= 0.0);
        PlanEvaluator {
            space,
            trace,
            ci,
            config,
            cache: Mutex::new(HashMap::new()),
            simulations: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
        }
    }

    pub fn space(&self) -> &PlanSpace {
        &self.space
    }

    pub fn config(&self) -> &PlannerConfig {
        &self.config
    }

    /// Simulations actually run so far (memo misses).
    pub fn simulations(&self) -> u64 {
        self.simulations.load(Ordering::Relaxed)
    }

    /// Evaluations answered from the memo cache.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// Simulate one feasible plan (no cache involvement). Deterministic:
    /// the inner scheduler's seed is derived from the genome.
    fn simulate(&self, plan: &FleetPlan) -> PlanScore {
        let fleet = self
            .space
            .materialize(plan)
            .expect("simulate() requires a non-empty plan");
        let scheduler_config = EcoLifeConfig {
            seed: self.config.seed ^ plan.genome_key(),
            ..self.config.scheduler.clone()
        };
        // Bundle coverage was validated at evaluator construction, so
        // the regional construction cannot fail per candidate.
        let sim = match self.ci {
            CiSource::Shared(ci) => Simulation::new(self.trace, ci, fleet.clone()),
            CiSource::Bundle(bundle) => {
                Simulation::try_new_regional(self.trace, bundle, fleet.clone())
                    .expect("bundle validated at construction")
            }
        };
        let metrics = sim
            .with_config(self.config.sim)
            .run(&mut EcoLife::new(fleet, scheduler_config));
        self.simulations.fetch_add(1, Ordering::Relaxed);

        let sim_carbon_g = metrics.total_carbon_g();
        let span_ms = self.trace.horizon_ms().max(1);
        let provisioned_embodied_g =
            self.space.provisioned_embodied_g(plan) * (span_ms as f64 / DEFAULT_LIFETIME_MS as f64);
        let physics = PlanScore {
            fitness_g: 0.0, // set by with_slo
            sim_carbon_g,
            provisioned_embodied_g,
            slo_penalty_g: 0.0,
            p95_service_ms: metrics.service_percentile_ms(0.95),
            mean_service_ms: metrics.mean_service_ms(),
            warm_rate: metrics.warm_rate(),
            total_nodes: plan.total_nodes(),
            invocations: metrics.invocations(),
        };
        physics.with_slo(self.config.slo_p95_ms, self.config.slo_penalty_g)
    }

    /// Score a feasible plan, through the cache.
    ///
    /// # Panics
    /// Panics on an infeasible plan; use [`PlanEvaluator::fitness`] when
    /// feasibility is not known.
    pub fn score(&self, plan: &FleetPlan) -> PlanScore {
        assert!(
            self.space.is_feasible(plan),
            "score() requires a feasible plan; got {plan:?}"
        );
        let key = plan.genome_key();
        {
            let cache = self.cache.lock().expect("cache lock");
            if let Some((cached_plan, score)) = cache.get(&key) {
                if cached_plan == plan {
                    self.cache_hits.fetch_add(1, Ordering::Relaxed);
                    return *score;
                }
            }
        }
        let score = self.simulate(plan);
        self.cache
            .lock()
            .expect("cache lock")
            .insert(key, (plan.clone(), score));
        score
    }

    /// Fitness of any plan: the score's total for feasible plans, a
    /// graded [`INFEASIBLE_PENALTY_G`] otherwise.
    pub fn fitness(&self, plan: &FleetPlan) -> f64 {
        match self.space.violation(plan) {
            0 => self.score(plan).fitness_g,
            v => INFEASIBLE_PENALTY_G * (1.0 + v as f64),
        }
    }

    /// Fitness of a whole generation. Uncached feasible candidates are
    /// deduplicated and (when `config.parallel`) fanned out over
    /// [`parallel_map`]; the returned vector is aligned with `plans`.
    /// Because each simulation is a pure function of the genome, the
    /// result is byte-identical to the serial path at any thread count.
    pub fn fitness_batch(&self, plans: &[FleetPlan]) -> Vec<f64> {
        if self.config.parallel {
            // Collect the distinct feasible plans the cache cannot answer.
            let mut fresh: Vec<FleetPlan> = Vec::new();
            {
                let cache = self.cache.lock().expect("cache lock");
                let mut seen: Vec<u64> = Vec::new();
                for plan in plans {
                    if self.space.violation(plan) != 0 {
                        continue;
                    }
                    let key = plan.genome_key();
                    if cache.contains_key(&key) || seen.contains(&key) {
                        continue;
                    }
                    seen.push(key);
                    fresh.push(plan.clone());
                }
            }
            let scored = parallel_map(fresh, |plan| {
                let score = self.simulate(&plan);
                (plan, score)
            });
            let mut cache = self.cache.lock().expect("cache lock");
            for (plan, score) in scored {
                cache.insert(plan.genome_key(), (plan, score));
            }
        }
        plans.iter().map(|p| self.fitness(p)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecolife_hw::Sku;
    use ecolife_trace::{SynthTraceConfig, WorkloadCatalog};

    fn setup() -> (Trace, CarbonIntensityTrace) {
        let trace = SynthTraceConfig {
            n_functions: 6,
            duration_min: 30,
            ..SynthTraceConfig::small(11)
        }
        .generate(&WorkloadCatalog::sebs());
        let ci = CarbonIntensityTrace::constant(300.0, 60);
        (trace, ci)
    }

    fn space() -> PlanSpace {
        PlanSpace::new(vec![Sku::I3Metal, Sku::M5znMetal], 2, 3, vec![4_096])
    }

    fn quick_config() -> PlannerConfig {
        PlannerConfig {
            scheduler: EcoLifeConfig {
                pso_iters: 2,
                ..EcoLifeConfig::default()
            },
            ..PlannerConfig::default()
        }
    }

    #[test]
    fn score_is_deterministic_and_cached() {
        let (trace, ci) = setup();
        let eval = PlanEvaluator::new(space(), &trace, &ci, quick_config());
        let plan = FleetPlan {
            counts: vec![1, 1],
            mem_budget_mib: 4_096,
        };
        let a = eval.score(&plan);
        let b = eval.score(&plan);
        assert_eq!(a, b);
        assert_eq!(eval.simulations(), 1);
        assert_eq!(eval.cache_hits(), 1);
        assert!(a.fitness_g > 0.0);
        assert!(a.sim_carbon_g > 0.0);
        assert!(a.provisioned_embodied_g > 0.0);
        assert_eq!(a.total_nodes, 2);
    }

    #[test]
    fn fitness_penalizes_infeasible_plans_gradedly() {
        let (trace, ci) = setup();
        let eval = PlanEvaluator::new(space(), &trace, &ci, quick_config());
        let empty = FleetPlan {
            counts: vec![0, 0],
            mem_budget_mib: 4_096,
        };
        let over = FleetPlan {
            counts: vec![2, 2],
            mem_budget_mib: 4_096,
        };
        let way_over = FleetPlan {
            counts: vec![2, 2],
            mem_budget_mib: 4_096,
        };
        assert!(eval.fitness(&empty) >= INFEASIBLE_PENALTY_G);
        assert!(eval.fitness(&over) >= INFEASIBLE_PENALTY_G);
        // One node over the cap penalizes less than the same plan judged
        // against a tighter space (graded, not a cliff).
        let tight = PlanEvaluator::new(
            PlanSpace::new(vec![Sku::I3Metal, Sku::M5znMetal], 2, 2, vec![4_096]),
            &trace,
            &ci,
            quick_config(),
        );
        assert!(tight.fitness(&way_over) > eval.fitness(&over));
        // No simulation was wasted on any of them.
        assert_eq!(eval.simulations(), 0);
    }

    #[test]
    fn batch_matches_serial_and_dedups() {
        let (trace, ci) = setup();
        let plans: Vec<FleetPlan> = space().enumerate();
        let mut doubled = plans.clone();
        doubled.extend(plans.iter().cloned());

        let par = PlanEvaluator::new(space(), &trace, &ci, quick_config());
        let par_f = par.fitness_batch(&doubled);
        // Each distinct plan simulated exactly once despite duplicates.
        assert_eq!(par.simulations(), plans.len() as u64);

        let ser = PlanEvaluator::new(
            space(),
            &trace,
            &ci,
            PlannerConfig {
                parallel: false,
                ..quick_config()
            },
        );
        let ser_f = ser.fitness_batch(&doubled);
        assert_eq!(par_f, ser_f, "parallel and serial fitness diverged");
        assert_eq!(&par_f[..plans.len()], &par_f[plans.len()..]);
    }

    #[test]
    fn expiry_timeline_scores_identically_to_the_reference_scan() {
        // The planner's inner loop rides the timeline fast path; a plan's
        // score — a pure function of the replay records — must match the
        // scan reference to the last bit.
        let (trace, ci) = setup();
        let plan = FleetPlan {
            counts: vec![1, 1],
            mem_budget_mib: 4_096,
        };
        let with_expiry = |mode| PlannerConfig {
            sim: ecolife_sim::SimConfig::default().with_expiry(mode),
            ..quick_config()
        };
        let timeline = PlanEvaluator::new(
            space(),
            &trace,
            &ci,
            with_expiry(ecolife_sim::ExpiryMode::Timeline),
        );
        let scan = PlanEvaluator::new(
            space(),
            &trace,
            &ci,
            with_expiry(ecolife_sim::ExpiryMode::Scan),
        );
        assert_eq!(timeline.score(&plan), scan.score(&plan));
    }

    #[test]
    fn malformed_plans_get_penalties_not_panics() {
        let (trace, ci) = setup();
        let eval = PlanEvaluator::new(space(), &trace, &ci, quick_config());
        // Budget off the grid and a counts vector of the wrong length
        // must both land in the penalty band — fitness() is documented
        // to grade *any* plan.
        let off_grid = FleetPlan {
            counts: vec![1, 0],
            mem_budget_mib: 5_000,
        };
        let wrong_len = FleetPlan {
            counts: vec![1],
            mem_budget_mib: 4_096,
        };
        for plan in [&off_grid, &wrong_len] {
            assert!(eval.fitness(plan) >= INFEASIBLE_PENALTY_G, "{plan:?}");
        }
        assert_eq!(eval.fitness_batch(&[off_grid, wrong_len]).len(), 2);
        assert_eq!(eval.simulations(), 0, "malformed plans must not simulate");
    }

    #[test]
    fn starved_metrics_are_an_slo_violation_not_slo_perfection() {
        // Regression: `percentile(&mut [], q)` returns 0, so a plan
        // whose run completes zero invocations used to report
        // `p95_service_ms == 0` and look SLO-perfect. It must pay the
        // infeasibility band instead.
        let empty = Trace::new(WorkloadCatalog::sebs(), vec![]);
        let ci = CarbonIntensityTrace::constant(300.0, 60);
        let eval = PlanEvaluator::new(space(), &empty, &ci, quick_config());
        let plan = FleetPlan {
            counts: vec![1, 1],
            mem_budget_mib: 4_096,
        };
        let score = eval.score(&plan);
        assert_eq!(score.invocations, 0);
        assert_eq!(score.p95_service_ms, 0, "vacuous p95 (empty metrics)");
        assert!(
            score.slo_penalty_g >= INFEASIBLE_PENALTY_G,
            "starved plan scored as SLO-perfect: {score:?}"
        );
        assert!(eval.fitness(&plan) >= INFEASIBLE_PENALTY_G);
        // A plan that actually serves traffic still beats it trivially.
        let (trace, ci2) = setup();
        let served = PlanEvaluator::new(space(), &trace, &ci2, quick_config());
        assert!(served.fitness(&plan) < eval.fitness(&plan));
    }

    #[test]
    fn regional_planning_prefers_the_cleaner_grid() {
        use ecolife_carbon::{CiBundle, Region};
        // One SKU, one node, two candidate regions with flat synthetic
        // feeds: Florida (~430 g/kWh) vs New York (~215 g/kWh). The
        // embodied cost is identical, so the planner must deploy the
        // node into the cleaner grid.
        let (trace, _) = setup();
        let bundle = CiBundle::synthetic(&[Region::Florida, Region::NewYork], 60, 3).unwrap();
        let space = PlanSpace::new(vec![Sku::M5znMetal], 1, 1, vec![16 * 1024])
            .with_regions(vec![Region::Florida, Region::NewYork]);
        assert_eq!(space.genome_len(), 2);
        let eval = PlanEvaluator::new_regional(space, &trace, &bundle, quick_config());
        let in_florida = FleetPlan {
            counts: vec![1, 0],
            mem_budget_mib: 16 * 1024,
        };
        let in_ny = FleetPlan {
            counts: vec![0, 1],
            mem_budget_mib: 16 * 1024,
        };
        let fla = eval.score(&in_florida);
        let ny = eval.score(&in_ny);
        assert_eq!(fla.provisioned_embodied_g, ny.provisioned_embodied_g);
        assert_eq!(fla.p95_service_ms, ny.p95_service_ms, "same hardware");
        assert!(
            ny.sim_carbon_g < fla.sim_carbon_g,
            "NY {ny:?} not cleaner than FLA {fla:?}"
        );
        assert!(ny.fitness_g < fla.fitness_g);
    }

    #[test]
    #[should_panic(expected = "no CI series in the bundle")]
    fn regional_evaluator_rejects_uncovered_regions() {
        use ecolife_carbon::{CiBundle, Region};
        let (trace, _) = setup();
        let bundle = CiBundle::synthetic(&[Region::Florida], 60, 3).unwrap();
        let space = PlanSpace::new(vec![Sku::M5znMetal], 1, 1, vec![16 * 1024])
            .with_regions(vec![Region::Florida, Region::NewYork]);
        PlanEvaluator::new_regional(space, &trace, &bundle, quick_config());
    }

    #[test]
    fn with_slo_reproduces_the_evaluator_scoring() {
        let (trace, ci) = setup();
        let plan = FleetPlan {
            counts: vec![1, 1],
            mem_budget_mib: 4_096,
        };
        let base = PlanEvaluator::new(space(), &trace, &ci, quick_config());
        let base_score = base.score(&plan);
        // Re-weighting the base score must equal scoring under an
        // evaluator configured with that SLO directly.
        let strict_cfg = PlannerConfig {
            slo_p95_ms: 1_000,
            slo_penalty_g: 500.0,
            ..quick_config()
        };
        let strict = PlanEvaluator::new(space(), &trace, &ci, strict_cfg);
        assert_eq!(base_score.with_slo(1_000, 500.0), strict.score(&plan));
        // Identity: re-weighting with the evaluator's own SLO is a no-op.
        assert_eq!(
            base_score.with_slo(base.config().slo_p95_ms, base.config().slo_penalty_g),
            base_score
        );
    }

    #[test]
    fn slo_penalty_engages_when_p95_misses() {
        let (trace, ci) = setup();
        let plan = FleetPlan {
            counts: vec![1, 1],
            mem_budget_mib: 4_096,
        };
        let relaxed = PlanEvaluator::new(
            space(),
            &trace,
            &ci,
            PlannerConfig {
                slo_p95_ms: 60_000,
                ..quick_config()
            },
        );
        let relaxed_score = relaxed.score(&plan);
        // An SLO of 1 ms is unmeetable: the penalty must engage and grow
        // the fitness.
        let strict = PlanEvaluator::new(
            space(),
            &trace,
            &ci,
            PlannerConfig {
                slo_p95_ms: 1,
                ..quick_config()
            },
        );
        let strict_score = strict.score(&plan);
        assert_eq!(relaxed_score.slo_penalty_g, 0.0);
        assert!(strict_score.slo_penalty_g > 0.0);
        assert!(strict_score.fitness_g > relaxed_score.fitness_g);
        // The simulated physics are identical; only the scoring differs.
        assert_eq!(strict_score.p95_service_ms, relaxed_score.p95_service_ms);
        assert_eq!(strict_score.sim_carbon_g, relaxed_score.sim_carbon_g);
    }
}
