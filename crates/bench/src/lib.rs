//! Shared experiment harness for the figure-regeneration benches.
//!
//! Every bench in `benches/` reproduces one table or figure of the paper
//! by printing its rows (`cargo bench`); none of them times anything.
//! This library centralizes the default evaluation setup (Sec. V): the
//! Azure-like trace, the CISO carbon-intensity feed, the pair-A two-node
//! fleet, and constructors for every scheme, so that all figures are
//! computed under identical conditions. Sweeps over other fleets (pairs
//! B/C, N-node configurations) go through [`EvalSetup::sized`].

use ecolife_carbon::{CarbonIntensityTrace, Region};
use ecolife_core::{
    compare, run_scheme, BruteForce, Comparison, EcoLife, EcoLifeConfig, FixedPolicy, RunSummary,
};
use ecolife_hw::Fleet;
use ecolife_sim::Scheduler;
use ecolife_trace::{SynthTraceConfig, Trace, WorkloadCatalog};

/// The default evaluation seed. Changing it shifts every stochastic
/// component coherently.
pub const EVAL_SEED: u64 = 0x05C2_4EC0;

/// The default evaluation environment: trace, CI feed, hardware fleet.
pub struct EvalSetup {
    pub trace: Trace,
    pub ci: CarbonIntensityTrace,
    pub fleet: Fleet,
}

impl EvalSetup {
    /// Full-size setup (Sec. V defaults): 48 trace functions over 24
    /// hours (a full diurnal carbon-intensity cycle), CISO intensity,
    /// pair A with 15/15 GiB keep-alive pools (the middle point of the
    /// paper's Fig. 11 memory sweep — the regime where keep-alive
    /// placement actually competes for memory).
    pub fn standard() -> Self {
        Self::sized(
            48,
            1_440,
            ecolife_hw::skus::fleet_a().with_uniform_keepalive_budget_mib(15 * 1024),
        )
    }

    /// Parameterized setup over any fleet.
    pub fn sized(n_functions: usize, duration_min: u64, fleet: Fleet) -> Self {
        let trace = SynthTraceConfig {
            n_functions,
            duration_min,
            seed: EVAL_SEED,
            ..Default::default()
        }
        .generate(&WorkloadCatalog::sebs());
        let ci =
            CarbonIntensityTrace::synthetic(Region::Caiso, duration_min as usize + 30, EVAL_SEED);
        EvalSetup { trace, ci, fleet }
    }

    /// Swap the carbon-intensity region (Fig. 14).
    pub fn with_region(mut self, region: Region) -> Self {
        let minutes = self.ci.len_minutes();
        self.ci = CarbonIntensityTrace::synthetic(region, minutes, EVAL_SEED);
        self
    }

    /// Run a scheduler and summarize.
    pub fn run<S: Scheduler>(&self, scheduler: &mut S) -> RunSummary {
        run_scheme(&self.trace, &self.ci, &self.fleet, scheduler).0
    }

    // ---- scheme constructors bound to this environment ----

    pub fn ecolife(&self) -> EcoLife {
        EcoLife::new(self.fleet.clone(), EcoLifeConfig::default())
    }

    pub fn ecolife_with(&self, config: EcoLifeConfig) -> EcoLife {
        EcoLife::new(self.fleet.clone(), config)
    }

    pub fn oracle(&self) -> BruteForce {
        BruteForce::oracle(self.fleet.clone())
    }

    pub fn co2_opt(&self) -> BruteForce {
        BruteForce::co2_opt(self.fleet.clone())
    }

    pub fn service_time_opt(&self) -> BruteForce {
        BruteForce::service_time_opt(self.fleet.clone())
    }

    pub fn energy_opt(&self) -> BruteForce {
        BruteForce::energy_opt(self.fleet.clone())
    }

    pub fn new_only(&self) -> FixedPolicy {
        FixedPolicy::new_only()
    }

    pub fn old_only(&self) -> FixedPolicy {
        FixedPolicy::old_only()
    }
}

/// The placement of each given scheme against the two anchors: the
/// Service-Time-Opt and CO2-Opt runs of the same setup, which a figure
/// runs once and may also plot.
pub fn placements(
    summaries: &[RunSummary],
    service_time_opt: &RunSummary,
    co2_opt: &RunSummary,
) -> Vec<Comparison> {
    summaries
        .iter()
        .map(|s| compare(s, service_time_opt, co2_opt))
        .collect()
}

/// Render one figure row: `label  service+X.X%  carbon+Y.Y%`.
pub fn fmt_placement(c: &Comparison) -> String {
    format!(
        "{:<22} service +{:>6.2}%   carbon +{:>6.2}%",
        c.name, c.service_increase_pct, c.carbon_increase_pct
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sized_accepts_fleets_directly() {
        let s = EvalSetup::sized(4, 30, ecolife_hw::skus::fleet_three_generations());
        assert_eq!(s.fleet.len(), 3);
        assert!(!s.trace.is_empty());
        assert!(s.ci.len_ms() >= s.trace.horizon_ms());
    }

    #[test]
    fn schemes_carry_expected_names() {
        let s = EvalSetup::sized(4, 30, ecolife_hw::skus::fleet_a());
        assert_eq!(s.ecolife().name(), "EcoLife");
        assert_eq!(s.oracle().name(), "Oracle");
        assert_eq!(s.new_only().name(), "New-Only");
    }
}
