//! Experiment harness: run schemes, summarize, and compare — the
//! machinery every figure reproduction is built from.
//!
//! [`run_scheme`] is the one summarizing helper: the paper's
//! single-region setup under the default engine config. Anything else —
//! a regional [`CiBundle`](ecolife_carbon::CiBundle), a non-default
//! [`SimConfig`](ecolife_sim::SimConfig), a telemetry sink, sharded
//! execution — builds a [`Simulation`] and summarizes its metrics with
//! [`RunSummary::from_metrics`]. Sweeps fan out over
//! [`ecolife_sim::parallel_map`].

use ecolife_carbon::CarbonIntensityTrace;
use ecolife_hw::Fleet;
use ecolife_sim::metrics::percent_increase;
use ecolife_sim::{
    Decision, InvocationCtx, OverflowAction, OverflowCtx, RunMetrics, Scheduler, Simulation,
};
use ecolife_trace::Trace;
use std::time::Instant;

/// Headline numbers of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    pub name: String,
    pub invocations: usize,
    pub total_service_ms: u64,
    pub mean_service_ms: f64,
    pub p95_service_ms: u64,
    pub total_carbon_g: f64,
    pub operational_g: f64,
    pub embodied_g: f64,
    pub keepalive_carbon_g: f64,
    pub total_energy_kwh: f64,
    pub warm_rate: f64,
    pub evicted_functions: u64,
    pub transfers: u64,
    pub decision_overhead_fraction: f64,
}

impl RunSummary {
    pub fn from_metrics(name: &str, m: &RunMetrics) -> Self {
        let split = m.carbon_split();
        RunSummary {
            name: name.to_string(),
            invocations: m.invocations(),
            total_service_ms: m.total_service_ms(),
            mean_service_ms: m.mean_service_ms(),
            p95_service_ms: m.service_percentile_ms(0.95),
            total_carbon_g: m.total_carbon_g(),
            operational_g: split.operational_g,
            embodied_g: split.embodied_g,
            keepalive_carbon_g: m.total_keepalive_carbon_g(),
            total_energy_kwh: m.total_energy_kwh(),
            warm_rate: m.warm_rate(),
            evicted_functions: m.evicted_functions,
            transfers: m.transfers,
            decision_overhead_fraction: m.decision_overhead_fraction(),
        }
    }
}

/// Run one scheduler over (trace, CI, fleet) with the default engine
/// config, timing its decisions: the returned metrics' (and summary's)
/// decision overhead is the wall-clock time spent inside
/// [`Scheduler::decide`], the paper's decision-making overhead. A plain
/// [`Simulation`] replay does not time decisions and reports 0.
pub fn run_scheme<S: Scheduler>(
    trace: &Trace,
    ci: &CarbonIntensityTrace,
    fleet: &Fleet,
    scheduler: &mut S,
) -> (RunSummary, RunMetrics) {
    let mut timed = TimedDecide {
        inner: scheduler,
        decide_ns: 0,
    };
    let mut metrics = Simulation::new(trace, ci, fleet.clone()).run(&mut timed);
    metrics.decision_overhead_ns = timed.decide_ns;
    (
        RunSummary::from_metrics(timed.inner.name(), &metrics),
        metrics,
    )
}

/// Forwards every call to `inner`, summing the wall-clock time spent in
/// `decide`.
struct TimedDecide<'a, S> {
    inner: &'a mut S,
    decide_ns: u64,
}

impl<S: Scheduler> Scheduler for TimedDecide<'_, S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn prepare(&mut self, trace: &Trace) {
        self.inner.prepare(trace)
    }
    fn decide(&mut self, ctx: &InvocationCtx<'_>) -> Decision {
        let started = Instant::now();
        let decision = self.inner.decide(ctx);
        self.decide_ns += started.elapsed().as_nanos() as u64;
        decision
    }
    fn on_pool_overflow(&mut self, ctx: &OverflowCtx<'_>) -> OverflowAction {
        self.inner.on_pool_overflow(ctx)
    }
    fn observe(&mut self, ctx: &InvocationCtx<'_>, service_ms: u64, warm: bool) {
        self.inner.observe(ctx, service_ms, warm)
    }
}

/// A scheme's position relative to the two *-Opt anchors — the axes of
/// Figs. 4, 7, 9: "% increase w.r.t. Service-Time-Opt" and "% increase
/// w.r.t. CO2-Opt".
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    pub name: String,
    /// Service-time increase (%) w.r.t. the service anchor.
    pub service_increase_pct: f64,
    /// Carbon increase (%) w.r.t. the carbon anchor.
    pub carbon_increase_pct: f64,
}

/// Place `scheme` against the service-time and carbon anchors.
pub fn compare(
    scheme: &RunSummary,
    service_anchor: &RunSummary,
    carbon_anchor: &RunSummary,
) -> Comparison {
    Comparison {
        name: scheme.name.clone(),
        service_increase_pct: percent_increase(
            scheme.total_service_ms as f64,
            service_anchor.total_service_ms as f64,
        ),
        carbon_increase_pct: percent_increase(scheme.total_carbon_g, carbon_anchor.total_carbon_g),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::fixed::FixedPolicy;
    use crate::baselines::oracle::BruteForce;
    use ecolife_hw::skus;
    use ecolife_sim::parallel_map;
    use ecolife_trace::{SynthTraceConfig, WorkloadCatalog};

    fn setup() -> (Trace, CarbonIntensityTrace, Fleet) {
        let trace = SynthTraceConfig::small(9).generate(&WorkloadCatalog::sebs());
        let ci = CarbonIntensityTrace::constant(250.0, 120);
        (trace, ci, skus::fleet_a())
    }

    #[test]
    fn summary_captures_metrics() {
        let (trace, ci, fleet) = setup();
        let (summary, metrics) = run_scheme(&trace, &ci, &fleet, &mut FixedPolicy::new_only());
        assert_eq!(summary.name, "New-Only");
        assert_eq!(summary.invocations, metrics.invocations());
        assert_eq!(summary.total_service_ms, metrics.total_service_ms());
        assert!((summary.total_carbon_g - metrics.total_carbon_g()).abs() < 1e-9);
        assert!(summary.p95_service_ms >= summary.mean_service_ms as u64 / 2);
        assert!((summary.operational_g + summary.embodied_g - summary.total_carbon_g).abs() < 1e-9);
    }

    #[test]
    fn comparison_is_zero_against_self() {
        let (trace, ci, fleet) = setup();
        let (summary, _) = run_scheme(&trace, &ci, &fleet, &mut FixedPolicy::new_only());
        let c = compare(&summary, &summary, &summary);
        assert_eq!(c.service_increase_pct, 0.0);
        assert_eq!(c.carbon_increase_pct, 0.0);
    }

    #[test]
    fn anchors_give_nonnegative_increases() {
        let (trace, ci, fleet) = setup();
        let (st, _) = run_scheme(
            &trace,
            &ci,
            &fleet,
            &mut BruteForce::service_time_opt(fleet.clone()),
        );
        let (co2, _) = run_scheme(&trace, &ci, &fleet, &mut BruteForce::co2_opt(fleet.clone()));
        let (oracle, _) = run_scheme(&trace, &ci, &fleet, &mut BruteForce::oracle(fleet.clone()));
        let c = compare(&oracle, &st, &co2);
        assert!(c.service_increase_pct >= -1e-9, "{c:?}");
        assert!(c.carbon_increase_pct >= -0.1, "{c:?}");
    }

    #[test]
    fn parallel_sweep_matches_sequential_runs() {
        let (trace, ci, fleet) = setup();
        // Wall-clock decision overhead is inherently non-deterministic;
        // blank it before comparing.
        let normalize = |mut s: RunSummary| {
            s.decision_overhead_fraction = 0.0;
            s
        };
        let seq: Vec<RunSummary> = (0..3)
            .map(|k| {
                let mut s = FixedPolicy::pinned(fleet.newest(), k * 5);
                normalize(run_scheme(&trace, &ci, &fleet, &mut s).0)
            })
            .collect();
        let par = parallel_map((0..3).collect(), |k: u64| {
            let mut s = FixedPolicy::pinned(fleet.newest(), k * 5);
            normalize(run_scheme(&trace, &ci, &fleet, &mut s).0)
        });
        assert_eq!(seq, par);
    }
}
