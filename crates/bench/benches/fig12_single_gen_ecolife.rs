//! Fig. 12 — Eco-Old / Eco-New: EcoLife's machinery restricted to a
//! single hardware generation, against the multi-generation Oracle.
//!
//! Paper shape: Eco-Old pays in service time, Eco-New pays in carbon;
//! full EcoLife (multi-generation) is closest to the Oracle on both
//! axes, but the single-generation variants remain viable.

use ecolife_bench::EvalSetup;
use ecolife_core::{compare, EcoLifeConfig};

fn print_fig12() {
    let setup = EvalSetup::standard();
    let oracle = setup.run(&mut setup.oracle());
    let eco = setup.run(&mut setup.ecolife());
    let (oldest, newest) = (setup.fleet.oldest(), setup.fleet.newest());
    let eco_old =
        setup.run(&mut setup.ecolife_with(EcoLifeConfig::default().restricted_to(oldest)));
    let eco_new =
        setup.run(&mut setup.ecolife_with(EcoLifeConfig::default().restricted_to(newest)));

    println!("\n=== Fig. 12: single-generation EcoLife vs the multi-generation Oracle ===");
    println!(
        "{:<10} {:>16} {:>16}",
        "scheme", "svc vs Oracle", "CO2 vs Oracle"
    );
    for (label, s) in [
        ("EcoLife", &eco),
        ("Eco-Old", &eco_old),
        ("Eco-New", &eco_new),
    ] {
        let c = compare(s, &oracle, &oracle);
        println!(
            "{:<10} {:>15.1}% {:>15.1}%",
            label, c.service_increase_pct, c.carbon_increase_pct
        );
    }
    println!();
}

fn main() {
    print_fig12();
}
