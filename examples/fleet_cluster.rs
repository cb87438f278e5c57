//! Scheduling over an N-node heterogeneous fleet.
//!
//! The paper evaluates one old/new pair; this example runs the same
//! machinery over a three-generation fleet (2016 i3.metal-class +
//! 2019 m5.metal-class + 2020 m5zn.metal-class) and shows where each
//! scheme places executions — the mid-generation node earns keep-alive
//! traffic because it trades a mild slowdown for a cheaper reserved core
//! than the newest node.
//!
//! Run with: `cargo run --release --example fleet_cluster`

use ecolife::prelude::*;
use std::collections::BTreeMap;

fn placement_row(fleet: &Fleet, m: &RunMetrics) -> String {
    let mut counts: BTreeMap<NodeId, usize> = fleet.ids().map(|id| (id, 0)).collect();
    for r in &m.records {
        *counts.entry(r.exec_location).or_insert(0) += 1;
    }
    counts
        .iter()
        .map(|(id, n)| format!("{id}:{n:>5}"))
        .collect::<Vec<_>>()
        .join("  ")
}

fn carbon_row(fleet: &Fleet, m: &RunMetrics) -> String {
    fleet
        .ids()
        .zip(m.carbon_g_by_node())
        .map(|(id, g)| format!("{id}:{g:>8.2}"))
        .collect::<Vec<_>>()
        .join("  ")
}

fn main() {
    // A fleet of three CPU generations, each with a 10-GiB warm pool.
    let fleet = skus::fleet_of(&[Sku::I3Metal, Sku::M5Metal, Sku::M5znMetal])
        .with_uniform_keepalive_budget_mib(10 * 1024);
    println!("fleet:");
    for node in fleet.iter() {
        println!(
            "  {}  {} ({})  {} cores, {:.0} GiB, perf {:.2}",
            node.id,
            node.cpu.name,
            node.cpu.year,
            node.cpu.cores,
            node.dram.capacity_mib as f64 / 1024.0,
            node.cpu.perf_index
        );
    }

    let trace = SynthTraceConfig {
        n_functions: 32,
        duration_min: 360,
        seed: 7,
        ..Default::default()
    }
    .generate(&WorkloadCatalog::sebs());
    let ci = CarbonIntensityTrace::synthetic(Region::Caiso, 400, 7);
    println!(
        "\nworkload: {} invocations of {} functions over 6 hours (CISO intensity)\n",
        trace.len(),
        trace.catalog().len()
    );

    let mut schemes: Vec<(Box<dyn Scheduler>, &str)> = vec![
        (
            Box::new(BruteForce::oracle(fleet.clone())),
            "brute-force over all 3 nodes x 11 periods",
        ),
        (
            Box::new(EcoLife::new(fleet.clone(), EcoLifeConfig::default())),
            "per-function DPSO over the fleet-wide space",
        ),
        (
            Box::new(FixedPolicy::pinned(fleet.newest(), 10)),
            "everything on the newest node, 10-min keep-alive",
        ),
        (
            Box::new(FixedPolicy::pinned(fleet.oldest(), 10)),
            "everything on the oldest node",
        ),
    ];

    println!(
        "{:<10} {:>13} {:>11} {:>10}   executions per node",
        "scheme", "service ms", "carbon g", "warm rate"
    );
    for (scheduler, note) in &mut schemes {
        let (s, m) = run_scheme(&trace, &ci, &fleet, scheduler);
        println!(
            "{:<10} {:>13} {:>11.2} {:>10.3}   {}   ({note})",
            s.name,
            s.total_service_ms,
            s.total_carbon_g,
            s.warm_rate,
            placement_row(&fleet, &m),
        );
        println!(
            "{:<10} {:>37} {}",
            "",
            "carbon g per node:",
            carbon_row(&fleet, &m)
        );
        println!(
            "{:<10} {:>37} {} expired, {} timeline pops ({} stale)",
            "", "warm-pool churn:", m.expiry.expired, m.expiry.timeline_pops, m.expiry.stale_pops,
        );
    }

    // The same EcoLife run through the sharded engine: the per-node
    // memory-ledger peaks show how close each warm pool came to its
    // keep-alive budget (the capacity guarantee is peak <= budget).
    let sharded = Simulation::new(&trace, &ci, fleet.clone()).run_sharded(
        |_| EcoLife::new(fleet.clone(), EcoLifeConfig::default()),
        &ecolife::sim::ShardOptions::new(4),
    );
    println!("\nsharded replay, warm-pool peak occupancy (MiB):");
    for (node, &peak) in fleet.iter().zip(&sharded.ledger_peak_mib) {
        println!(
            "  {}  {:>6} / {:>6} ({:>4.1}%)",
            node.id,
            peak,
            node.keepalive_mem_mib,
            100.0 * peak as f64 / node.keepalive_mem_mib as f64
        );
    }

    println!(
        "\nThe fleet-aware schemes split traffic across generations: fast\n\
         executions land on the newest node while keep-alive-heavy functions\n\
         sit on older silicon, which is exactly the trade-off the two-node\n\
         paper setup demonstrates — now over an arbitrary node count. The\n\
         per-node carbon rows (hosted keep-alive + service of the executions\n\
         placed there) show where each scheme actually spends its grams."
    );
}
