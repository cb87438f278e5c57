//! Region study (Fig. 14): how the grid's carbon-intensity profile
//! changes what EcoLife does — and what it saves.
//!
//! The paper's study is five single-region runs of one workload
//! (Tennessee, Texas, Florida, New York, California). This example runs
//! that sweep — EcoLife, New-Only and the Oracle on each region's own
//! pair — and then lets one EcoLife place freely across all ten nodes of
//! the five-region fleet, each node reading its own grid series:
//! cross-region placement, the new scenario axis. It asserts that the
//! free fleet emits less carbon than EcoLife pinned to Florida's grid.
//!
//! Run with: `cargo run --release --example carbon_region_study`

use ecolife::prelude::*;
use ecolife::sim::parallel_map;

fn main() {
    let trace = SynthTraceConfig {
        n_functions: 32,
        duration_min: 720, // half a day: covers the solar ramp in CAL
        seed: 1234,
        ..Default::default()
    }
    .generate(&WorkloadCatalog::sebs());
    let ci_minutes = 760usize;
    let sub_fleet = |region: Region| {
        skus::fleet_a()
            .with_uniform_keepalive_budget_mib(12 * 1024)
            .with_uniform_region(region)
    };
    let region_ci = |region: Region| CarbonIntensityTrace::synthetic(region, ci_minutes, 1234);

    // ---- 1. The sweep: five standalone single-region runs. -----------
    let sweep = parallel_map(Region::ALL.to_vec(), |region| {
        let fleet = sub_fleet(region);
        let ci = region_ci(region);
        let mut ecolife = EcoLife::new(fleet.clone(), EcoLifeConfig::default());
        let (eco, _) = run_scheme(&trace, &ci, &fleet, &mut ecolife);
        let (fixed, _) = run_scheme(&trace, &ci, &fleet, &mut FixedPolicy::new_only());
        let (oracle, _) = run_scheme(&trace, &ci, &fleet, &mut BruteForce::oracle(fleet.clone()));
        (region, ci.mean(), eco, fixed, oracle)
    });

    println!(
        "Fig. 14 from five single-region runs ({} invocations each):\n",
        trace.len()
    );
    println!(
        "{:<6} {:>9} {:>14} {:>14} {:>16} {:>14}",
        "region", "mean CI", "EcoLife CO2 g", "NewOnly CO2 g", "saving vs fixed", "gap to Oracle"
    );
    for (region, mean_ci, eco, fixed, oracle) in &sweep {
        println!(
            "{:<6} {:>9.0} {:>14.2} {:>14.2} {:>15.1}% {:>13.1}%",
            region.label(),
            mean_ci,
            eco.total_carbon_g,
            fixed.total_carbon_g,
            100.0 * (1.0 - eco.total_carbon_g / fixed.total_carbon_g),
            100.0 * (eco.total_carbon_g / oracle.total_carbon_g - 1.0),
        );
    }

    // ---- 2. Cross-region placement over the ten-node fleet. ----------
    let bundle = CiBundle::new(
        Region::ALL
            .iter()
            .map(|&r| (r, region_ci(r)))
            .collect::<Vec<_>>(),
    )
    .expect("five distinct regions, equal spans");
    let free_fleet = skus::fleet_five_regions().with_uniform_keepalive_budget_mib(12 * 1024);
    let mut free = EcoLife::new(free_fleet.clone(), EcoLifeConfig::default());
    let free_run = Simulation::try_new_regional(&trace, &bundle, free_fleet.clone())
        .expect("bundle covers the fleet and the workload span")
        .run(&mut free);
    let free_summary = RunSummary::from_metrics(free.name(), &free_run);
    let best_pinned = sweep
        .iter()
        .map(|(r, _, eco, _, _)| (r, eco.total_carbon_g))
        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .unwrap();
    let florida_g = sweep
        .iter()
        .find(|(r, ..)| *r == Region::Florida)
        .map(|(_, _, eco, _, _)| eco.total_carbon_g)
        .unwrap();
    println!(
        "\nCross-region placement (one EcoLife over all ten nodes, grid mix as a decision):\n  \
         free fleet: {:.2} g CO2 | best pinned region ({}): {:.2} g | worst ({}): {:.2} g",
        free_summary.total_carbon_g,
        best_pinned.0.label(),
        best_pinned.1,
        Region::Florida.label(),
        florida_g,
    );
    for (region, g) in free_run.carbon_g_by_region(&free_fleet) {
        if g > 0.0 {
            println!("    {:<4} carries {:>10.2} g", region.label(), g);
        }
    }
    assert!(
        free_summary.total_carbon_g < florida_g,
        "the free fleet ({:.2} g) must beat EcoLife pinned to Florida ({florida_g:.2} g)",
        free_summary.total_carbon_g
    );

    println!(
        "\nCarbon-heavy flat grids (FLA, TEN) reward aggressive keep-alive on old\n\
         hardware; solar-swing grids (CAL) reward re-timing keep-alive against\n\
         the duck curve. One multi-region fleet expresses all of it — and a\n\
         scheduler free to place across grids routes work onto the cleanest one."
    );
}
