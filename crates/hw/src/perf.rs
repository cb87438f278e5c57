//! Performance model: how long a function's execution and cold start take
//! on a given hardware generation.
//!
//! A function's profile (owned by `ecolife-trace`) carries a *base*
//! execution time measured on the reference (newest) generation, plus a
//! `cpu_sensitivity ∈ [0, 1]` describing how much of its runtime scales
//! with single-thread CPU speed (the rest is I/O / memory-bandwidth bound
//! and generation-insensitive to first order). This reproduces the paper's
//! observation that the old-hardware penalty varies by workload — e.g.
//! video-processing pays ~16% on A_OLD while Graph-BFS barely suffers on
//! C_OLD (Fig. 2).

use crate::{CpuModel, HardwareNode};

/// Scales base timings onto concrete hardware.
#[derive(Debug, Clone, Copy, Default)]
pub struct PerfModel;

impl PerfModel {
    /// Execution time of a function on `cpu`.
    ///
    /// `base_exec_ms` is the measured execution time on the reference part
    /// (`perf_index == 1.0`); `cpu_sensitivity` is the CPU-bound fraction.
    #[inline]
    pub fn exec_time_ms(cpu: &CpuModel, base_exec_ms: u64, cpu_sensitivity: f64) -> u64 {
        debug_assert!((0.0..=1.0).contains(&cpu_sensitivity));
        let slowdown = 1.0 + (cpu.slowdown() - 1.0) * cpu_sensitivity;
        (base_exec_ms as f64 * slowdown).round() as u64
    }

    /// Cold-start overhead on `cpu`.
    ///
    /// Cold starts are dominated by container image pull/unpack and runtime
    /// initialization; they are mildly CPU-sensitive, so a fixed 50%
    /// sensitivity is applied (SeBS reports cold starts varying by ~10-30%
    /// across instance types — half the execution-path sensitivity).
    #[inline]
    pub fn cold_start_ms(cpu: &CpuModel, base_cold_ms: u64) -> u64 {
        let slowdown = 1.0 + (cpu.slowdown() - 1.0) * 0.5;
        (base_cold_ms as f64 * slowdown).round() as u64
    }

    /// Full cold service time (cold start + execution) on a node.
    #[inline]
    pub fn cold_service_ms(
        node: &HardwareNode,
        base_exec_ms: u64,
        base_cold_ms: u64,
        cpu_sensitivity: f64,
    ) -> u64 {
        Self::cold_start_ms(&node.cpu, base_cold_ms)
            + Self::exec_time_ms(&node.cpu, base_exec_ms, cpu_sensitivity)
    }

    /// Warm service time (execution only) on a node.
    #[inline]
    pub fn warm_service_ms(node: &HardwareNode, base_exec_ms: u64, cpu_sensitivity: f64) -> u64 {
        Self::exec_time_ms(&node.cpu, base_exec_ms, cpu_sensitivity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{skus, NodeId};

    #[test]
    fn reference_cpu_runs_at_base_speed() {
        let cpu = skus::xeon_platinum_8252c();
        assert_eq!(PerfModel::exec_time_ms(&cpu, 2_000, 1.0), 2_000);
        assert_eq!(PerfModel::exec_time_ms(&cpu, 2_000, 0.0), 2_000);
        assert_eq!(PerfModel::cold_start_ms(&cpu, 2_500), 2_500);
    }

    #[test]
    fn old_cpu_slows_fully_sensitive_function() {
        let cpu = skus::xeon_e5_2686(); // perf_index 0.80 → slowdown 1.25
        assert_eq!(PerfModel::exec_time_ms(&cpu, 1_000, 1.0), 1_250);
    }

    #[test]
    fn insensitive_function_is_generation_invariant() {
        let cpu = skus::xeon_e5_2686();
        assert_eq!(PerfModel::exec_time_ms(&cpu, 1_000, 0.0), 1_000);
    }

    #[test]
    fn partial_sensitivity_interpolates() {
        let cpu = skus::xeon_e5_2686(); // slowdown 1.25
                                        // sensitivity 0.64 → 1 + 0.25*0.64 = 1.16 → 1160 ms.
        assert_eq!(PerfModel::exec_time_ms(&cpu, 1_000, 0.64), 1_160);
    }

    #[test]
    fn cold_start_half_sensitive() {
        let cpu = skus::xeon_e5_2686(); // slowdown 1.25 → cold slowdown 1.125
        assert_eq!(PerfModel::cold_start_ms(&cpu, 2_000), 2_250);
    }

    #[test]
    fn cold_service_is_sum_of_parts() {
        let f = skus::fleet_a();
        let old = f.node(NodeId(0));
        let cold = PerfModel::cold_service_ms(old, 1_000, 2_000, 0.64);
        let warm = PerfModel::warm_service_ms(old, 1_000, 0.64);
        assert_eq!(cold, warm + PerfModel::cold_start_ms(&old.cpu, 2_000));
    }

    #[test]
    fn warm_on_old_can_beat_cold_on_new() {
        // The Fig. 3 Case A vs Case B service-time claim: warm execution on
        // old hardware beats a cold start on new hardware whenever the cold
        // start overhead exceeds the generation slowdown penalty.
        let f = skus::fleet_a();
        let (old, new) = (f.node(NodeId(0)), f.node(NodeId(1)));
        let warm_old = PerfModel::warm_service_ms(old, 2_000, 0.64);
        let cold_new = PerfModel::cold_service_ms(new, 2_000, 2_500, 0.64);
        assert!(warm_old < cold_new);
    }
}
