//! Fig. 14 — EcoLife across grid regions (TEN, TEX, FLA, NY, CAL).
//!
//! Paper shape: EcoLife stays within 7% (service) and 6% (carbon) of the
//! Oracle regardless of the region's carbon-intensity profile.

use ecolife_bench::EvalSetup;
use ecolife_carbon::Region;
use ecolife_core::compare;
use ecolife_sim::parallel_map;

fn print_fig14() {
    println!("\n=== Fig. 14: EcoLife vs Oracle across grid regions ===");
    println!(
        "{:<6} {:>10} {:>16} {:>16}",
        "region", "mean CI", "svc vs Oracle", "CO2 vs Oracle"
    );
    let rows = parallel_map(Region::ALL.to_vec(), |region| {
        let setup = EvalSetup::standard().with_region(region);
        let mean_ci = setup.ci.mean();
        let oracle = setup.run(&mut setup.oracle());
        let eco = setup.run(&mut setup.ecolife());
        (region, mean_ci, compare(&eco, &oracle, &oracle))
    });
    for (region, mean_ci, c) in rows {
        println!(
            "{:<6} {:>10.0} {:>15.1}% {:>15.1}%",
            region.label(),
            mean_ci,
            c.service_increase_pct,
            c.carbon_increase_pct
        );
    }
    println!();
}

fn main() {
    print_fig14();
}
