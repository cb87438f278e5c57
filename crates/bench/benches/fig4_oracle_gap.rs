//! Fig. 4 — CO2-Opt, Oracle, Service-Time-Opt, and Energy-Opt placements
//! in the (% CO2 increase w.r.t. CO2-Opt, % service increase w.r.t.
//! Service-Time-Opt) plane.
//!
//! Paper shape: the three single-objective optima sit far from each
//! other, Energy-Opt is visibly away from CO2-Opt (it ignores embodied
//! carbon and CI variation), and even the Oracle is >7% from both axes —
//! the joint optimum genuinely trades.

use ecolife_bench::{fmt_placement, placements, EvalSetup};

fn print_fig4() {
    let setup = EvalSetup::standard();
    let summaries = vec![
        setup.run(&mut setup.co2_opt()),
        setup.run(&mut setup.oracle()),
        setup.run(&mut setup.service_time_opt()),
        setup.run(&mut setup.energy_opt()),
    ];
    println!("\n=== Fig. 4: single-objective optima vs the Oracle ===");
    let (co2_opt, service_time_opt) = (&summaries[0], &summaries[2]);
    for c in placements(&summaries, service_time_opt, co2_opt) {
        println!("{}", fmt_placement(&c));
    }
    println!();
}

fn main() {
    print_fig4();
}
