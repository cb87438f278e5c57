//! Fig. 1 — keep-alive vs service carbon footprint as the keep-alive
//! period grows from 2 to 10 minutes, for the three motivation functions
//! on A_NEW.
//!
//! Paper shape to reproduce: the keep-alive share of the total footprint
//! grows strongly with the period (Graph-BFS: 18% of the total at 2 min
//! → 52% at 10 min), and beyond a few minutes the keep-alive carbon
//! often exceeds the service carbon.

use ecolife_carbon::CarbonModel;
use ecolife_hw::{skus, NodeId, PerfModel};
use ecolife_trace::WorkloadCatalog;

const CI: f64 = 300.0;
const FUNCS: [&str; 3] = [
    "220.video-processing",
    "503.graph-bfs",
    "504.dna-visualization",
];

fn print_fig1() {
    let catalog = WorkloadCatalog::sebs();
    let model = CarbonModel::default();
    let fleet = skus::fleet_a();
    let node = fleet.node(NodeId(1));
    println!("\n=== Fig. 1: keep-alive vs service CO2 on A_NEW (CI = {CI} g/kWh) ===");
    println!(
        "{:<24} {:>6} {:>14} {:>14} {:>9}",
        "function", "k min", "keepalive g", "service g", "ka share"
    );
    for name in FUNCS {
        let (_, f) = catalog.by_name(name).unwrap();
        let service_ms =
            PerfModel::cold_service_ms(node, f.base_exec_ms, f.base_cold_ms, f.cpu_sensitivity);
        let service = model
            .active_phase(node, f.memory_mib, service_ms, CI)
            .total_g();
        for k_min in [2u64, 4, 6, 8, 10] {
            let ka = model
                .keepalive_phase(node, f.memory_mib, k_min * 60_000, CI)
                .total_g();
            println!(
                "{:<24} {:>6} {:>14.4} {:>14.4} {:>8.1}%",
                name,
                k_min,
                ka,
                service,
                100.0 * ka / (ka + service)
            );
        }
    }
    println!();
}

fn main() {
    print_fig1();
}
