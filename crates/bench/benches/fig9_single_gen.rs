//! Fig. 9 — EcoLife vs the single-generation fixed policies (New-Only /
//! Old-Only with the 10-minute OpenWhisk keep-alive).
//!
//! Paper shape: EcoLife saves service time against Old-Only (12.7% in
//! the paper) and carbon against New-Only (8.6%), sitting closest to the
//! Oracle because it mixes generations.

use ecolife_bench::{fmt_placement, placements, EvalSetup};

fn print_fig9() {
    let setup = EvalSetup::standard();
    let summaries = vec![
        setup.run(&mut setup.oracle()),
        setup.run(&mut setup.ecolife()),
        setup.run(&mut setup.new_only()),
        setup.run(&mut setup.old_only()),
    ];
    let service_time_opt = setup.run(&mut setup.service_time_opt());
    let co2_opt = setup.run(&mut setup.co2_opt());
    println!("\n=== Fig. 9: EcoLife vs single-generation fixed policies ===");
    for c in placements(&summaries, &service_time_opt, &co2_opt) {
        println!("{}", fmt_placement(&c));
    }
    let eco = &summaries[1];
    let new_only = &summaries[2];
    let old_only = &summaries[3];
    println!(
        "\nEcoLife saves {:.1}% service time vs Old-Only (paper: 12.7%)",
        100.0 * (1.0 - eco.total_service_ms as f64 / old_only.total_service_ms as f64)
    );
    println!(
        "EcoLife saves {:.1}% carbon vs New-Only (paper: 8.6%)\n",
        100.0 * (1.0 - eco.total_carbon_g / new_only.total_carbon_g)
    );
}

fn main() {
    print_fig9();
}
