//! Table I — multi-generation hardware pair examples.
//!
//! Prints the three pair fleets (old node first) with the calibrated
//! embodied-carbon and power attributions.

use ecolife_hw::{skus, Fleet};

/// Table I's pairs as two-SKU fleets.
fn table1() -> [(&'static str, Fleet); 3] {
    [
        ("Pair A", skus::fleet_a()),
        ("Pair B", skus::fleet_b()),
        ("Pair C", skus::fleet_c()),
    ]
}

fn print_table1() {
    println!("\n=== Table I: Multi-generation Hardware Pairs ===");
    println!(
        "{:<7} {:<5} {:<28} {:>5} {:>6} {:>9} {:>11} {:<14} {:>10}",
        "Pair",
        "Role",
        "CPU (year)",
        "cores",
        "act W",
        "idle W/c",
        "CPU EC kg",
        "DRAM (year)",
        "EC g/GiB"
    );
    for (pair, fleet) in table1() {
        for (role, node) in ["old", "new"].into_iter().zip(fleet.iter()) {
            println!(
                "{:<7} {:<5} {:<28} {:>5} {:>6.0} {:>9.1} {:>11.0} {:<14} {:>10.0}",
                pair,
                role,
                format!("{} ({})", node.cpu.name, node.cpu.year),
                node.cpu.cores,
                node.cpu.active_power_w,
                node.cpu.idle_core_power_w,
                node.cpu.embodied_g / 1000.0,
                format!("{} ({})", node.dram.name, node.dram.year),
                node.dram.embodied_per_gib_g(),
            );
        }
    }
    println!();
}

fn main() {
    print_table1();
}
