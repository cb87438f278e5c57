//! Fig. 7 — EcoLife is the closest practical scheme to the Oracle.
//!
//! Paper numbers: EcoLife lands within 7.7% (service time) and 5.5%
//! (carbon) of the Oracle; CO2-Opt / Service-Time-Opt / Energy-Opt each
//! collapse one dimension; New-Only / Old-Only (Fig. 9 companions) pin
//! themselves to a single generation.
//!
//! Prints every scheme's absolute totals first, then the placements of
//! the five schemes Fig. 7 plots.

use ecolife_bench::{fmt_placement, placements, EvalSetup};

fn print_fig7() {
    let setup = EvalSetup::standard();
    let summaries = vec![
        setup.run(&mut setup.co2_opt()),
        setup.run(&mut setup.oracle()),
        setup.run(&mut setup.ecolife()),
        setup.run(&mut setup.service_time_opt()),
        setup.run(&mut setup.energy_opt()),
    ];
    let fixed = [
        setup.run(&mut setup.new_only()),
        setup.run(&mut setup.old_only()),
    ];
    println!("\n=== Fig. 7: EcoLife vs Oracle and single-objective optima ===");
    for s in summaries.iter().chain(&fixed) {
        println!(
            "{:<18} service {:>10} ms  carbon {:>8.2} g  warm {:.2}  ka_carbon {:>7.2} g",
            s.name, s.total_service_ms, s.total_carbon_g, s.warm_rate, s.keepalive_carbon_g
        );
    }
    println!();
    let (co2_opt, service_time_opt) = (&summaries[0], &summaries[3]);
    let placed = placements(&summaries, service_time_opt, co2_opt);
    for c in &placed {
        println!("{}", fmt_placement(c));
    }
    let oracle = &placed[1];
    let ecolife = &placed[2];
    println!(
        "\nEcoLife-to-Oracle gap: service {:+.2} points, carbon {:+.2} points (paper: 7.7 / 5.5)\n",
        ecolife.service_increase_pct - oracle.service_increase_pct,
        ecolife.carbon_increase_pct - oracle.carbon_increase_pct
    );
}

fn main() {
    print_fig7();
}
