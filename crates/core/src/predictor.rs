//! Online per-function arrival prediction (no future knowledge).
//!
//! Wraps the inter-arrival ring from `ecolife-trace` and the ΔF window
//! tracker into the quantities the KDM fitness needs. The ring keeps both
//! estimates' numerators at a fixed set of keep-alive periods (the KDM
//! grid and the warm-pool ranking's horizon) current as gaps arrive, so
//! the per-decision snapshot is a row of lookups
//! ([`FunctionPredictor::p_warm_at`],
//! [`FunctionPredictor::expected_resident_ms_at`]). The window scans at
//! an arbitrary period (`p_warm`, `expected_resident_ms`) are test-only:
//! they are the lookups' reference and what EcoLife's test oracle reads.

use ecolife_trace::stats::{DeltaTracker, InterArrivalStats};

/// `P(warm)` before any gap has been observed: an optimistic prior.
/// Production serverless functions that appear once are very likely to
/// re-appear shortly (the Azure characterization [26]), and the cost of
/// one wasted keep-alive is far below the cost of a stream of cold
/// starts while the swarm warms up. The warm-pool ranking weighs a
/// function EcoLife holds no state for with the same prior.
pub(crate) const NO_HISTORY_P_WARM: f64 = 0.75;

/// Arrival model for one function.
#[derive(Debug, Clone)]
pub struct FunctionPredictor {
    stats: InterArrivalStats,
    deltas: DeltaTracker,
}

impl FunctionPredictor {
    /// A predictor with ΔF windows of `delta_window_ms` that keeps its
    /// estimates current at each period of `tracked_ms`.
    pub fn new(delta_window_ms: u64, tracked_ms: impl IntoIterator<Item = u64>) -> Self {
        FunctionPredictor {
            stats: InterArrivalStats::with_grid(InterArrivalStats::DEFAULT_CAPACITY, tracked_ms),
            deltas: DeltaTracker::new(delta_window_ms),
        }
    }

    /// Record an invocation arrival.
    pub fn record_arrival(&mut self, t_ms: u64) {
        self.stats.record_arrival(t_ms);
        self.deltas.record(t_ms);
    }

    /// `P(next gap ≤ k_ms)` from history, by a scan of the gap window
    /// (`NO_HISTORY_P_WARM` before any gap).
    #[cfg(test)]
    pub fn p_warm(&self, k_ms: u64) -> f64 {
        if self.stats.sample_count() == 0 {
            return NO_HISTORY_P_WARM;
        }
        self.stats.p_within(k_ms)
    }

    /// `E[min(gap, k_ms)]` from history, by a scan of the gap window.
    #[cfg(test)]
    pub fn expected_resident_ms(&self, k_ms: u64) -> f64 {
        self.stats.expected_resident_ms(k_ms)
    }

    /// `P(next gap ≤ k)` at the `i`-th tracked period `k`, as a lookup
    /// (`NO_HISTORY_P_WARM` before any gap); bit-identical to a scan
    /// of the gap window.
    #[inline]
    pub fn p_warm_at(&self, i: usize) -> f64 {
        if self.stats.sample_count() == 0 {
            return NO_HISTORY_P_WARM;
        }
        self.stats.p_within_grid(i)
    }

    /// `E[min(gap, k)]` at the `i`-th tracked period `k`, as a lookup;
    /// bit-identical to a scan of the gap window.
    #[inline]
    pub fn expected_resident_ms_at(&self, i: usize) -> f64 {
        self.stats.expected_resident_grid_ms(i)
    }

    /// Normalized |ΔF| ∈ [0, 1] — this function's invocation-rate change
    /// signal for the DPSO perception.
    pub fn delta_f(&self) -> f64 {
        self.deltas.normalized_delta()
    }

    /// Total arrivals observed.
    pub fn arrivals(&self) -> u64 {
        self.stats.total_arrivals()
    }

    /// Mean observed inter-arrival gap, if any.
    pub fn mean_gap_ms(&self) -> Option<f64> {
        self.stats.mean_gap_ms()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predictor_learns_regular_arrivals() {
        let mut p = FunctionPredictor::new(60_000, []);
        for i in 0..20u64 {
            p.record_arrival(i * 30_000); // every 30 s
        }
        assert_eq!(p.arrivals(), 20);
        assert!(p.p_warm(60_000) > 0.99);
        assert!(p.p_warm(10_000) < 0.01);
        assert!((p.expected_resident_ms(60_000) - 30_000.0).abs() < 1.0);
        assert!((p.mean_gap_ms().unwrap() - 30_000.0).abs() < 1.0);
    }

    #[test]
    fn optimistic_prior_before_history() {
        let p = FunctionPredictor::new(60_000, [600_000]);
        assert_eq!(p.p_warm(600_000), 0.75);
        assert_eq!(p.expected_resident_ms(600_000), 300_000.0);
        assert_eq!(p.p_warm_at(0), 0.75);
        assert_eq!(p.expected_resident_ms_at(0), 300_000.0);
        assert_eq!(p.delta_f(), 0.0);
    }

    #[test]
    fn delta_f_fires_on_rate_change() {
        let mut p = FunctionPredictor::new(60_000, []);
        // Minute 0: 10 arrivals; minute 1: 1 arrival; minute 2 rolls.
        for i in 0..10u64 {
            p.record_arrival(i * 1_000);
        }
        p.record_arrival(70_000);
        p.record_arrival(130_000);
        assert!(p.delta_f() > 0.5, "ΔF {}", p.delta_f());
    }
}
