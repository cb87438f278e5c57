//! §VI-C robustness — embodied-carbon estimation flexibility.
//!
//! Two studies:
//!
//! 1. Scale every embodied term by ±10% (the paper's "estimation
//!    flexibility range"): EcoLife must stay within ~7% (carbon) and
//!    ~10% (service) of the Oracle at every scale.
//! 2. Include platform components (storage, motherboard, PSU): the paper
//!    reports EcoLife within 5.63% (carbon) and 8.2% (service) of the
//!    Oracle.

use ecolife_bench::EvalSetup;
use ecolife_carbon::{CarbonModel, CarbonModelConfig};
use ecolife_core::{compare, BruteForce, EcoLife, EcoLifeConfig, RunSummary};
use ecolife_sim::{Scheduler, SimConfig, Simulation};

fn run_with_model(setup: &EvalSetup, model: CarbonModel) -> (f64, f64) {
    let sim =
        Simulation::new(&setup.trace, &setup.ci, setup.fleet.clone()).with_config(SimConfig {
            carbon_model: model,
            ..SimConfig::default()
        });
    let mut eco = EcoLife::with_carbon_model(setup.fleet.clone(), EcoLifeConfig::default(), model);
    let eco_sum = RunSummary::from_metrics(eco.name(), &sim.run(&mut eco));
    let mut oracle = BruteForce::oracle(setup.fleet.clone()).with_carbon_model(model);
    let oracle_sum = RunSummary::from_metrics(oracle.name(), &sim.run(&mut oracle));
    let c = compare(&eco_sum, &oracle_sum, &oracle_sum);
    (c.service_increase_pct, c.carbon_increase_pct)
}

fn print_robustness() {
    let setup = EvalSetup::standard();
    println!("\n=== §VI-C: embodied-carbon estimation robustness ===");
    println!(
        "{:<28} {:>16} {:>16}",
        "model", "svc vs Oracle", "CO2 vs Oracle"
    );
    for scale in [0.9, 1.0, 1.1] {
        let model = CarbonModel::new(CarbonModelConfig {
            embodied_scale: scale,
            include_platform_components: false,
        });
        let (svc, co2) = run_with_model(&setup, model);
        println!(
            "{:<28} {:>15.1}% {:>15.1}%",
            format!("embodied x{scale:.1}"),
            svc,
            co2
        );
    }
    let model = CarbonModel::new(CarbonModelConfig {
        embodied_scale: 1.0,
        include_platform_components: true,
    });
    let (svc, co2) = run_with_model(&setup, model);
    println!(
        "{:<28} {:>15.1}% {:>15.1}%  (paper: 8.2% / 5.63%)",
        "+ platform components", svc, co2
    );
    println!();
}

fn main() {
    print_robustness();
}
