//! Fig. 11 — the warm-pool adjustment ablation across keep-alive memory
//! budgets ("old/new" GiB combinations).
//!
//! Paper shape: with adjustment, service time, carbon footprint, and the
//! number of evicted functions are consistently lower; at 15/15 GiB the
//! paper reports 7.9% service and 3.7% carbon savings and 17% more
//! functions kept alive.

use ecolife_bench::EvalSetup;
use ecolife_core::EcoLifeConfig;
use ecolife_hw::skus;

fn print_fig11() {
    println!("\n=== Fig. 11: warm-pool adjustment across memory budgets ===");
    println!(
        "{:<9} {:<6} {:>13} {:>11} {:>9} {:>10}",
        "old/new", "adjust", "service ms", "carbon g", "evicted", "transfers"
    );
    for gib in [10u64, 15, 20] {
        let fleet = skus::fleet_a().with_uniform_keepalive_budget_mib(gib * 1024);
        let setup = EvalSetup::sized(48, 1_440, fleet);
        let mut rows = Vec::new();
        for (label, cfg) in [
            ("yes", EcoLifeConfig::default()),
            (
                "no",
                EcoLifeConfig::default().without_warm_pool_adjustment(),
            ),
        ] {
            let s = setup.run(&mut setup.ecolife_with(cfg));
            println!(
                "{:<9} {:<6} {:>13} {:>11.2} {:>9} {:>10}",
                format!("{gib}/{gib}"),
                label,
                s.total_service_ms,
                s.total_carbon_g,
                s.evicted_functions,
                s.transfers
            );
            rows.push(s);
        }
        let saved_service =
            100.0 * (1.0 - rows[0].total_service_ms as f64 / rows[1].total_service_ms as f64);
        let saved_carbon = 100.0 * (1.0 - rows[0].total_carbon_g / rows[1].total_carbon_g);
        println!(
            "  -> adjustment saves {saved_service:.1}% service, {saved_carbon:.1}% carbon, avoids {} evictions",
            rows[1].evicted_functions.saturating_sub(rows[0].evicted_functions)
        );
    }
    println!();
}

fn main() {
    print_fig11();
}
