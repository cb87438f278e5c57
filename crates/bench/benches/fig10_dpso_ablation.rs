//! Fig. 10 — the Dynamic-PSO ablation: EcoLife with and without the
//! adaptive weights + perception–response mechanism.
//!
//! Paper numbers: without DPSO, EcoLife degrades by 5.6% (service) and
//! 16.9% (carbon). In this reproduction the vanilla swarm freezes onto
//! stale early decisions — losing far more service time (its warm rate
//! collapses).

use ecolife_bench::{fmt_placement, placements, EvalSetup};
use ecolife_core::EcoLifeConfig;

fn print_fig10() {
    let setup = EvalSetup::standard();
    let summaries = vec![
        setup.run(&mut setup.oracle()),
        setup.run(&mut setup.ecolife()),
        setup.run(&mut setup.ecolife_with(EcoLifeConfig::default().without_dynamic_pso())),
    ];
    let service_time_opt = setup.run(&mut setup.service_time_opt());
    let co2_opt = setup.run(&mut setup.co2_opt());
    println!("\n=== Fig. 10: Dynamic-PSO ablation ===");
    let labels = ["Oracle", "EcoLife w/ DPSO", "EcoLife w/o DPSO"];
    for (label, (c, s)) in labels.iter().zip(
        placements(&summaries, &service_time_opt, &co2_opt)
            .iter()
            .zip(&summaries),
    ) {
        println!(
            "{:<18} {}   warm-rate {:.3}",
            label,
            fmt_placement(c),
            s.warm_rate
        );
    }
    let with = &summaries[1];
    let without = &summaries[2];
    println!(
        "\nw/o DPSO: service {:+.1}%, carbon {:+.1}% relative to full EcoLife (paper: +5.6% / +16.9%)\n",
        100.0 * (without.total_service_ms as f64 / with.total_service_ms as f64 - 1.0),
        100.0 * (without.total_carbon_g / with.total_carbon_g - 1.0)
    );
}

fn main() {
    print_fig10();
}
