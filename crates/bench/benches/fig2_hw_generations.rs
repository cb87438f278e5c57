//! Fig. 2 — service time and carbon footprint per hardware generation
//! (A_OLD / A_NEW / C_OLD / C_NEW) with a fixed 10-minute keep-alive.
//!
//! Paper shape: older hardware lowers the total carbon of a keep-alive
//! episode (A_OLD saves ≈23.8% vs A_NEW for video-processing) at a
//! service-time cost (+15.9% execution for video-processing); for
//! low-sensitivity functions (Graph-BFS on pair C) the performance
//! penalty nearly vanishes while carbon savings remain.

use ecolife_carbon::CarbonModel;
use ecolife_hw::{skus, HardwareNode, NodeId, PerfModel};
use ecolife_trace::{FunctionProfile, WorkloadCatalog};

const CI: f64 = 300.0;
const KEEPALIVE_MS: u64 = 10 * 60_000;
const FUNCS: [&str; 3] = [
    "220.video-processing",
    "503.graph-bfs",
    "504.dna-visualization",
];

fn episode(node: &HardwareNode, f: &FunctionProfile) -> (u64, f64, f64) {
    let model = CarbonModel::default();
    let service_ms =
        PerfModel::cold_service_ms(node, f.base_exec_ms, f.base_cold_ms, f.cpu_sensitivity);
    let service_g = model
        .active_phase(node, f.memory_mib, service_ms, CI)
        .total_g();
    let ka_g = model
        .keepalive_phase(node, f.memory_mib, KEEPALIVE_MS, CI)
        .total_g();
    (service_ms, service_g, ka_g)
}

fn print_fig2() {
    let catalog = WorkloadCatalog::sebs();
    let (pa, pc) = (skus::fleet_a(), skus::fleet_c());
    let (a_old, a_new) = (pa.node(NodeId(0)), pa.node(NodeId(1)));
    let nodes = [
        ("A_old", a_old),
        ("A_new", a_new),
        ("C_old", pc.node(NodeId(0))),
        ("C_new", pc.node(NodeId(1))),
    ];
    println!("\n=== Fig. 2: per-generation service time & CO2 (10-min keep-alive, CI = {CI}) ===");
    println!(
        "{:<24} {:<6} {:>12} {:>12} {:>12} {:>10}",
        "function", "node", "service ms", "service g", "keepalive g", "total g"
    );
    for name in FUNCS {
        let (_, f) = catalog.by_name(name).unwrap();
        for (label, node) in nodes {
            let (ms, sg, kg) = episode(node, f);
            println!(
                "{:<24} {:<6} {:>12} {:>12.4} {:>12.4} {:>10.4}",
                name,
                label,
                ms,
                sg,
                kg,
                sg + kg
            );
        }
        // The headline deltas the paper quotes for pair A.
        let (ms_old, sg_old, kg_old) = episode(a_old, f);
        let (ms_new, sg_new, kg_new) = episode(a_new, f);
        let carbon_saving = 100.0 * (1.0 - (sg_old + kg_old) / (sg_new + kg_new));
        let time_penalty = 100.0 * (ms_old as f64 / ms_new as f64 - 1.0);
        println!(
            "  -> A_old vs A_new: carbon saving {carbon_saving:+.1}%, service-time penalty {time_penalty:+.1}%"
        );
    }
    println!();
}

fn main() {
    print_fig2();
}
