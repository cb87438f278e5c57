//! Fig. 13 — EcoLife across the three Table I hardware pairs.
//!
//! Paper shape: EcoLife stays within a 7.5% margin of the Oracle on both
//! service time and carbon for every pair — the benefit is not an
//! artifact of one particular generation gap.

use ecolife_bench::EvalSetup;
use ecolife_core::compare;
use ecolife_hw::skus;
use ecolife_sim::parallel_map;

fn print_fig13() {
    println!("\n=== Fig. 13: EcoLife vs Oracle across hardware pairs ===");
    println!(
        "{:<8} {:>16} {:>16}",
        "pair", "svc vs Oracle", "CO2 vs Oracle"
    );
    let pairs = vec![
        ("Pair A", skus::fleet_a()),
        ("Pair B", skus::fleet_b()),
        ("Pair C", skus::fleet_c()),
    ];
    let rows = parallel_map(pairs, |(id, fleet)| {
        let setup = EvalSetup::sized(
            48,
            1_440,
            fleet.with_uniform_keepalive_budget_mib(15 * 1024),
        );
        let oracle = setup.run(&mut setup.oracle());
        let eco = setup.run(&mut setup.ecolife());
        (id, compare(&eco, &oracle, &oracle))
    });
    for (id, c) in rows {
        println!(
            "{:<8} {:>15.1}% {:>15.1}%",
            id, c.service_increase_pct, c.carbon_increase_pct
        );
    }
    println!();
}

fn main() {
    print_fig13();
}
