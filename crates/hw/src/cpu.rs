//! CPU package model: core count, power envelope, embodied carbon, and a
//! relative performance index.
//!
//! The embodied-carbon values are derived from the Boavizta server
//! manufacturing methodology \[25\] and the Teads AWS EC2 carbon dataset \[34\]
//! cited by the paper: a modern high-core-count Xeon package lands in the
//! 15–30 kgCO2e range, with newer, larger dies at the top of the range.

/// A CPU package from a specific generation.
///
/// `perf_index` is a dimensionless single-thread throughput index relative
/// to the newest generation in the catalog (which has `perf_index == 1.0`).
/// A `perf_index` of `0.8` means a CPU-bound region takes `1 / 0.8 = 1.25x`
/// longer than on the reference part.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuModel {
    /// Marketing name, e.g. `"Intel Xeon E5-2686"`.
    pub name: &'static str,
    /// Release year; drives the old/new classification narrative.
    pub year: u16,
    /// Physical cores exposed for scheduling.
    pub cores: u32,
    /// Whole-package power when fully assigned to a serverless execution (W).
    pub active_power_w: f64,
    /// Power attributable to a single core kept powered for a warm
    /// container during the keep-alive period (W).
    pub idle_core_power_w: f64,
    /// Total embodied carbon of the package (gCO2e), amortized over
    /// [`crate::DEFAULT_LIFETIME_MS`].
    pub embodied_g: f64,
    /// Relative single-thread performance (1.0 = reference generation).
    pub perf_index: f64,
}

impl CpuModel {
    /// Embodied carbon per core (gCO2e). During the keep-alive period only
    /// one core is reserved, so the per-core share is what accrues
    /// (Sec. II: `EC_CPU / Core_num`).
    #[inline]
    pub fn embodied_per_core_g(&self) -> f64 {
        self.embodied_g / self.cores as f64
    }

    /// Embodied carbon accrued by assigning the *whole* package for
    /// `duration_ms` (the execution/service phase attribution in Sec. II).
    #[inline]
    pub fn embodied_for_full_package_g(&self, duration_ms: u64, lifetime_ms: u64) -> f64 {
        self.embodied_g * duration_ms as f64 / lifetime_ms as f64
    }

    /// Embodied carbon accrued by reserving a single core for
    /// `duration_ms` (the keep-alive phase attribution in Sec. II).
    #[inline]
    pub fn embodied_for_one_core_g(&self, duration_ms: u64, lifetime_ms: u64) -> f64 {
        self.embodied_per_core_g() * duration_ms as f64 / lifetime_ms as f64
    }

    /// Energy (kWh) drawn by the whole package running flat out for
    /// `duration_ms`.
    #[inline]
    pub fn active_energy_kwh(&self, duration_ms: u64) -> f64 {
        watts_ms_to_kwh(self.active_power_w, duration_ms)
    }

    /// Energy (kWh) drawn by one reserved core over a keep-alive period of
    /// `duration_ms`.
    #[inline]
    pub fn idle_core_energy_kwh(&self, duration_ms: u64) -> f64 {
        watts_ms_to_kwh(self.idle_core_power_w, duration_ms)
    }

    /// Slowdown factor relative to the reference generation:
    /// `exec_time(self) = exec_time(reference) * slowdown()` for a fully
    /// CPU-sensitive region.
    #[inline]
    pub fn slowdown(&self) -> f64 {
        1.0 / self.perf_index
    }

    /// Concurrency limit of a bounded executor hosted on this package:
    /// one in-flight serverless execution per physical core (an execution
    /// is modelled as owning its core for its service time). Never zero,
    /// so a degenerate hand-built model still executes.
    #[inline]
    pub fn executor_slots(&self) -> usize {
        self.cores.max(1) as usize
    }
}

/// Convert `power_w` sustained for `duration_ms` into kWh.
#[inline]
pub fn watts_ms_to_kwh(power_w: f64, duration_ms: u64) -> f64 {
    // W * ms = mJ; kWh = J / 3.6e6 = mJ / 3.6e9.
    power_w * duration_ms as f64 / 3.6e9
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DEFAULT_LIFETIME_MS;

    fn sample() -> CpuModel {
        CpuModel {
            name: "Test Xeon",
            year: 2018,
            cores: 20,
            active_power_w: 200.0,
            idle_core_power_w: 2.0,
            embodied_g: 20_000.0,
            perf_index: 0.8,
        }
    }

    #[test]
    fn embodied_per_core_divides_by_core_count() {
        assert_eq!(sample().embodied_per_core_g(), 1_000.0);
    }

    #[test]
    fn full_package_embodied_scales_linearly_with_time() {
        let c = sample();
        let one = c.embodied_for_full_package_g(1_000, DEFAULT_LIFETIME_MS);
        let ten = c.embodied_for_full_package_g(10_000, DEFAULT_LIFETIME_MS);
        assert!((ten - 10.0 * one).abs() < 1e-12);
    }

    #[test]
    fn one_core_embodied_is_a_core_share_of_full_package() {
        let c = sample();
        let full = c.embodied_for_full_package_g(60_000, DEFAULT_LIFETIME_MS);
        let core = c.embodied_for_one_core_g(60_000, DEFAULT_LIFETIME_MS);
        assert!((full / core - c.cores as f64).abs() < 1e-9);
    }

    #[test]
    fn active_energy_matches_hand_computation() {
        // 200 W for one hour = 0.2 kWh.
        let c = sample();
        let kwh = c.active_energy_kwh(3_600_000);
        assert!((kwh - 0.2).abs() < 1e-12);
    }

    #[test]
    fn idle_energy_is_small_fraction_of_active() {
        let c = sample();
        let idle = c.idle_core_energy_kwh(3_600_000);
        let active = c.active_energy_kwh(3_600_000);
        assert!(idle < active / 50.0);
    }

    #[test]
    fn slowdown_inverts_perf_index() {
        assert!((sample().slowdown() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn executor_slots_follow_cores_and_never_vanish() {
        assert_eq!(sample().executor_slots(), 20);
        let degenerate = CpuModel {
            cores: 0,
            ..sample()
        };
        assert_eq!(degenerate.executor_slots(), 1);
    }

    #[test]
    fn watts_ms_to_kwh_zero_duration() {
        assert_eq!(watts_ms_to_kwh(500.0, 0), 0.0);
    }
}
