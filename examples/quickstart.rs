//! Quickstart: schedule a synthetic serverless workload with EcoLife and
//! compare it against the theoretical Oracle and a fixed-keep-alive
//! platform policy.
//!
//! Run with: `cargo run --release --example quickstart`

use ecolife::prelude::*;

fn main() {
    // 1. A workload: 24 synthetic functions drawn from the SeBS catalog,
    //    invoked Azure-style for four simulated hours.
    let trace = SynthTraceConfig {
        n_functions: 24,
        duration_min: 240,
        seed: 42,
        ..Default::default()
    }
    .generate(&WorkloadCatalog::sebs());
    println!(
        "trace: {} invocations of {} functions over {:.0} minutes",
        trace.len(),
        trace.catalog().len(),
        trace.horizon_ms() as f64 / 60_000.0
    );

    // 2. An environment: California (CISO) carbon intensity and hardware
    //    the pair-A fleet — a 2016 i3.metal-class node next to a 2020
    //    m5zn-class node, each with a 10-GiB warm pool.
    let ci = CarbonIntensityTrace::synthetic(Region::Caiso, 300, 42);
    let fleet = skus::fleet_a().with_uniform_keepalive_budget_mib(10 * 1024);

    // 3. Schedulers: EcoLife, the Oracle upper bound, and OpenWhisk-style
    //    fixed keep-alive on the new node only.
    let mut ecolife = EcoLife::new(fleet.clone(), EcoLifeConfig::default());
    let mut oracle = BruteForce::oracle(fleet.clone());
    let mut new_only = FixedPolicy::new_only();

    println!(
        "\n{:<10} {:>13} {:>11} {:>10} {:>9}   warm-pool churn",
        "scheme", "service ms", "carbon g", "warm rate", "evicted"
    );
    for (summary, m) in [
        run_scheme(&trace, &ci, &fleet, &mut oracle),
        run_scheme(&trace, &ci, &fleet, &mut ecolife),
        run_scheme(&trace, &ci, &fleet, &mut new_only),
    ] {
        println!(
            "{:<10} {:>13} {:>11.2} {:>10.3} {:>9}   {} expired ({} timeline pops, {} stale, {} scanned)",
            summary.name,
            summary.total_service_ms,
            summary.total_carbon_g,
            summary.warm_rate,
            summary.evicted_functions,
            m.expiry.expired,
            m.expiry.timeline_pops,
            m.expiry.stale_pops,
            m.expiry.scanned,
        );
    }

    println!(
        "\nEcoLife co-optimizes: near-Oracle service time at a fraction of the\n\
         fixed policy's carbon footprint, by choosing keep-alive location and\n\
         period per function with a Dynamic PSO."
    );
}
