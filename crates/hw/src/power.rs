//! Power-draw decomposition for the three serverless phases the paper's
//! carbon model distinguishes: execution, cold start, and keep-alive.
//!
//! This is the simulator's stand-in for the Likwid/RAPL measurements the
//! paper takes on bare metal (Sec. V): a calibrated constant-power model
//! per (hardware, phase) that feeds the operational-carbon formula
//! `E × CI` exactly like a RAPL counter would.

use crate::cpu::watts_ms_to_kwh;
use crate::HardwareNode;

/// Instantaneous power attributable to one function on one node (W),
/// split by component so the carbon model can apply the DRAM usage share.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerDraw {
    /// CPU power attributed to the function (whole package when executing,
    /// one reserved core when warm).
    pub cpu_w: f64,
    /// DRAM power attributed to the function's memory share.
    pub dram_w: f64,
}

impl PowerDraw {
    /// Total attributed power.
    #[inline]
    pub fn total_w(&self) -> f64 {
        self.cpu_w + self.dram_w
    }

    /// Energy over `duration_ms` in kWh.
    #[inline]
    pub fn energy_kwh(&self, duration_ms: u64) -> f64 {
        watts_ms_to_kwh(self.total_w(), duration_ms)
    }

    /// Power while a function executes on `node` (the full CPU is assigned
    /// to the serverless execution per Sec. II, plus the function's DRAM
    /// share at active power).
    pub fn executing(node: &HardwareNode, func_mem_mib: u64) -> PowerDraw {
        PowerDraw {
            cpu_w: node.cpu.active_power_w,
            dram_w: node.dram.active_w_per_gib * (func_mem_mib as f64 / 1024.0),
        }
    }

    /// Power during a cold start on `node`: the package is busy pulling
    /// and initializing the image, and the container memory is being
    /// populated, so both components run at active power.
    pub fn cold_starting(node: &HardwareNode, func_mem_mib: u64) -> PowerDraw {
        Self::executing(node, func_mem_mib)
    }

    /// Power while a function is kept warm on `node`: one reserved core
    /// plus the container's resident memory at idle power.
    pub fn keepalive(node: &HardwareNode, func_mem_mib: u64) -> PowerDraw {
        PowerDraw {
            cpu_w: node.cpu.idle_core_power_w,
            dram_w: node.dram.idle_w_per_gib * (func_mem_mib as f64 / 1024.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{skus, NodeId};

    #[test]
    fn executing_power_uses_full_package() {
        let f = skus::fleet_a();
        let new = f.node(NodeId(1));
        let d = PowerDraw::executing(new, 1024);
        assert_eq!(d.cpu_w, new.cpu.active_power_w);
        assert!((d.dram_w - new.dram.active_w_per_gib).abs() < 1e-12);
    }

    #[test]
    fn keepalive_power_uses_one_core() {
        let f = skus::fleet_a();
        let new = f.node(NodeId(1));
        let d = PowerDraw::keepalive(new, 2048);
        assert_eq!(d.cpu_w, new.cpu.idle_core_power_w);
        assert!((d.dram_w - 2.0 * new.dram.idle_w_per_gib).abs() < 1e-12);
    }

    #[test]
    fn keepalive_power_is_far_below_executing_power() {
        for node in skus::fleet_a().iter() {
            let exec = PowerDraw::executing(node, 512).total_w();
            let warm = PowerDraw::keepalive(node, 512).total_w();
            assert!(
                warm < exec / 20.0,
                "{}: {} vs {}",
                node.cpu.name,
                warm,
                exec
            );
        }
    }

    #[test]
    fn cold_start_power_equals_executing_power() {
        let f = skus::fleet_a();
        let old = f.node(NodeId(0));
        assert_eq!(
            PowerDraw::cold_starting(old, 512),
            PowerDraw::executing(old, 512)
        );
    }

    #[test]
    fn energy_scales_linearly() {
        let f = skus::fleet_a();
        let new = f.node(NodeId(1));
        let d = PowerDraw::executing(new, 512);
        let e1 = d.energy_kwh(1_000);
        let e5 = d.energy_kwh(5_000);
        assert!((e5 - 5.0 * e1).abs() < 1e-15);
    }

    #[test]
    fn total_is_sum() {
        let d = PowerDraw {
            cpu_w: 10.0,
            dram_w: 2.5,
        };
        assert_eq!(d.total_w(), 12.5);
    }
}
