//! `planner_pso`: one PSO capacity-planning search over the default
//! catalog space, fresh planner (and memo cache) per pass. The search's
//! candidate fan-out, memo cache and inner replays do the work.
//!
//! The fan-out runs serially (`parallel: false`; scores are identical
//! either way). On a shared 2-vCPU host the second core's availability
//! swung the parallel search by ±15% between runs of the same seed,
//! which the single-core calibration kernel cannot see.

use crate::calib::Passes;
use crate::replay::{report_rate, SetupParts};
use crate::report::Outcome;
use crate::{finish_common, repeat_for, synth_trace, timed, timed_setup, Args};
use ecolife_carbon::CarbonIntensityTrace;
use ecolife_planner::{
    FleetPlan, PlanEvaluator, PlanSpace, Planner, PlannerConfig, SearchAlgorithm,
};
use ecolife_trace::Trace;

/// Plan space bounds: up to 3 of each SKU, 6 nodes in all.
const MAX_PER_SKU: u32 = 3;
const MAX_NODES: u32 = 6;
/// PSO generations per restart.
const ITERS: usize = 10;
const FUNCTIONS: usize = 40;
const MINUTES: u64 = 180;
/// Keep-alive budget of the fixed reference plan (MiB).
const REFERENCE_BUDGET_MIB: u64 = 8 * 1024;
/// Grid carbon intensity of the planner's flat CI series (g/kWh).
const FLAT_CI: f64 = 300.0;

struct Inputs {
    trace: Trace,
    ci: CarbonIntensityTrace,
    space: PlanSpace,
}

fn inputs(seed: u64, parts: &mut SetupParts) -> Inputs {
    let (s, trace) = timed(|| synth_trace(FUNCTIONS, MINUTES, seed));
    parts.trace_ms.push(s * 1e3);
    let minutes = (trace.horizon_ms() / 60_000 + 30) as usize;
    // A flat grid, as in the planner's fitness bench: the search sizes
    // the fleet against the SLO and embodied carbon, and a seed-drawn CI
    // series would move the optimum (and the work to find it) per seed.
    let (s, ci) = timed(|| CarbonIntensityTrace::constant(FLAT_CI, minutes));
    parts.ci_ms.push(s * 1e3);
    Inputs {
        trace,
        ci,
        space: PlanSpace::default_catalog(MAX_PER_SKU, MAX_NODES),
    }
}

pub fn planner_pso(args: &Args) -> Outcome {
    let mut parts = SetupParts::default();
    let (inputs, setup) = timed_setup(|| inputs(args.seed, &mut parts));
    let mut out = Outcome::default();
    let mut passes = Passes::default();
    let mut first_key = None;
    let mut repeat_ok = true;
    let mut last = None;
    repeat_for(args.seconds, 2, |_| {
        let planner = Planner::new(
            inputs.space.clone(),
            &inputs.trace,
            &inputs.ci,
            PlannerConfig {
                parallel: false,
                ..PlannerConfig::default()
            },
        );
        let report = passes.time(|| planner.search(SearchAlgorithm::Pso, ITERS));
        out.attempted += report.candidates;
        let key = (
            report.best_plan.clone(),
            report.best_score.fitness_g.to_bits(),
        );
        let same = first_key.get_or_insert_with(|| key.clone()) == &key;
        if !same {
            out.failed += report.candidates;
        }
        repeat_ok &= same;
        last = Some(report);
    });
    let report = last.expect("at least one search");
    out.check(
        "best plan and fitness bits repeat on every search",
        repeat_ok,
    );
    // A search yields a plan, not records: its digest is the best plan's
    // genome key mixed with its fitness bits.
    out.digest = report.best_plan.genome_key() ^ report.best_score.fitness_g.to_bits();

    let search_s = passes.scaled();
    let score = &report.best_score;
    // Gated throughput: invocations replayed per second across the
    // search's simulations. The simulation count follows the search's
    // path, which the seed moves by ±10%; per simulated invocation the
    // cost is steady. The count itself is `planner.simulations`.
    let replayed = report.simulations * inputs.trace.len() as u64;
    out.e2e("throughput_per_s", replayed as f64 / search_s);
    report_rate(&mut out, "replayed_inv_per_s", replayed, &passes);
    // The simulated metrics come from one fixed plan, one node of every
    // SKU: the search's winner flips between near-equal plans as the seed
    // rotates the trace, which would make its carbon bimodal across seeds.
    let reference = FleetPlan {
        counts: vec![1; inputs.space.offerings().len()],
        mem_budget_mib: REFERENCE_BUDGET_MIB,
    };
    let evaluator = PlanEvaluator::new(
        inputs.space.clone(),
        &inputs.trace,
        &inputs.ci,
        PlannerConfig::default(),
    );
    let fixed = evaluator.score(&reference);
    out.e2e(
        "carbon_mg_per_inv",
        1e3 * fixed.sim_carbon_g / fixed.invocations.max(1) as f64,
    );
    out.e2e("cold_start_pct", 100.0 * (1.0 - fixed.warm_rate));
    out.named(
        "best_plan_carbon_mg_per_inv",
        1e3 * score.sim_carbon_g / score.invocations.max(1) as f64,
        "mg",
    );
    out.named(
        "best_plan_cold_start_pct",
        100.0 * (1.0 - score.warm_rate),
        "%",
    );
    out.named("best_plan_p95_ms", score.p95_service_ms as f64, "ms");
    out.named("plan_search_s", search_s, "s");
    out.named("plan_search_raw_s", passes.raw(), "s");
    out.named("plan_fitness_g", score.fitness_g, "g");
    out.named("candidates", report.candidates as f64, "count");
    out.named("plans_in_space", inputs.space.plan_count() as f64, "count");
    out.named("invocations", inputs.trace.len() as f64, "count");
    finish_common(&mut out, &setup);
    if args.trace {
        parts.report(&mut out);
        let sims = report.simulations as f64;
        let hits = report.cache_hits as f64;
        let search_s = passes.raw();
        out.layer("planner.search_ms", search_s * 1e3);
        out.layer("planner.simulations", sims);
        out.layer("planner.cache_hits", hits);
        out.layer("planner.memo_hit_ratio", hits / (hits + sims).max(1.0));
        out.layer("planner.ms_per_simulation", search_s * 1e3 / sims.max(1.0));
        out.layer("probe.wall_ms", search_s * 1e3);
        out.layer("probe.untraced_wall_ms", search_s * 1e3);
        out.layer("probe.self_sum_pct", 100.0);
    }
    out
}
