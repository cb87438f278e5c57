//! Online inter-arrival statistics.
//!
//! EcoLife's keep-alive decisions hinge on two expectations over a
//! function's future arrival behaviour, estimated purely from its history
//! (no future peeking):
//!
//! * `P(warm | k)` — the probability the next invocation arrives within a
//!   keep-alive window `k`;
//! * `E[min(gap, k)]` — the expected duration a container kept alive for
//!   `k` actually stays resident (it is torn down early on reuse).
//!
//! Both come from a bounded ring of recent inter-arrival gaps, which also
//! tracks the paper's ΔF signal (change in invocation counts between
//! observation windows). For a fixed set of `k` (a scheduler's keep-alive
//! grid) the ring also keeps both estimates' numerators up to date as
//! gaps enter and leave it, so a grid-point estimate is one division
//! instead of a window scan.

/// Integers below 2^53 convert to `f64` exactly, and so does every
/// partial sum of non-negative integers below it: a clamped-gap sum under
/// this bound divides to the same bits as the scan's `f64` accumulation.
const EXACT_F64_INT: u64 = 1 << 53;

/// The longest window that tracks grid points: its clamped-gap sums stay
/// below 2^64 (see [`GridPoint::clamped_sum`]).
const MAX_GRID_WINDOW: usize = 2_047;

/// The numerators of `P(gap ≤ k)` and `E[min(gap, k)]` at one fixed `k`
/// over the current window.
#[derive(Debug, Clone, Copy)]
struct GridPoint {
    k_ms: u64,
    /// Gaps in the window with `gap ≤ k_ms`.
    hits: usize,
    /// `Σ min(gap, k_ms, 2^53)` over the window. It equals the exact
    /// clamped-gap sum whenever it is below 2^53 (no term was capped),
    /// and at most 2047 terms of at most 2^53 cannot overflow.
    clamped_sum: u64,
}

impl GridPoint {
    #[inline]
    fn term(&self, gap: u64) -> u64 {
        gap.min(self.k_ms).min(EXACT_F64_INT)
    }

    #[inline]
    fn add(&mut self, gap: u64) {
        self.hits += usize::from(gap <= self.k_ms);
        self.clamped_sum += self.term(gap);
    }

    #[inline]
    fn remove(&mut self, gap: u64) {
        self.hits -= usize::from(gap <= self.k_ms);
        self.clamped_sum -= self.term(gap);
    }
}

/// Bounded history of inter-arrival gaps for one function.
#[derive(Debug, Clone)]
pub struct InterArrivalStats {
    gaps_ms: Vec<u64>,
    /// Write cursor for the ring.
    cursor: usize,
    /// Number of valid entries (≤ capacity).
    filled: usize,
    last_arrival_ms: Option<u64>,
    total_arrivals: u64,
    /// Running estimate numerators at the `k`s given to
    /// [`InterArrivalStats::with_grid`].
    grid: Vec<GridPoint>,
}

impl InterArrivalStats {
    /// Window length tuned for the evaluation traces.
    pub const DEFAULT_CAPACITY: usize = 32;

    /// `capacity` bounds how much history is retained; the Azure trace's
    /// busiest functions invoke many times per minute, so a small window
    /// adapts quickly while smoothing noise.
    pub fn new(capacity: usize) -> Self {
        Self::with_grid(capacity, [])
    }

    /// A window that also maintains [`InterArrivalStats::p_within`] and
    /// [`InterArrivalStats::expected_resident_ms`] at each of `grid_ms`
    /// incrementally, read back by position with
    /// [`InterArrivalStats::p_within_grid`] and
    /// [`InterArrivalStats::expected_resident_grid_ms`]. A window with
    /// grid points holds at most 2047 gaps.
    pub fn with_grid(capacity: usize, grid_ms: impl IntoIterator<Item = u64>) -> Self {
        assert!(capacity > 0);
        let grid: Vec<GridPoint> = grid_ms
            .into_iter()
            .map(|k_ms| GridPoint {
                k_ms,
                hits: 0,
                clamped_sum: 0,
            })
            .collect();
        assert!(
            grid.is_empty() || capacity <= MAX_GRID_WINDOW,
            "a window tracking grid points holds at most {MAX_GRID_WINDOW} gaps, got {capacity}"
        );
        InterArrivalStats {
            gaps_ms: vec![0; capacity],
            cursor: 0,
            filled: 0,
            last_arrival_ms: None,
            total_arrivals: 0,
            grid,
        }
    }

    /// Record an arrival at `t_ms` (must be monotonically non-decreasing).
    pub fn record_arrival(&mut self, t_ms: u64) {
        if let Some(last) = self.last_arrival_ms {
            debug_assert!(t_ms >= last, "arrivals must be chronological");
            let gap = t_ms.saturating_sub(last);
            // A full ring overwrites its oldest gap, which sits at the cursor.
            let evicted = (self.filled == self.gaps_ms.len()).then(|| self.gaps_ms[self.cursor]);
            for point in &mut self.grid {
                if let Some(old) = evicted {
                    point.remove(old);
                }
                point.add(gap);
            }
            self.gaps_ms[self.cursor] = gap;
            self.cursor = (self.cursor + 1) % self.gaps_ms.len();
            self.filled = (self.filled + 1).min(self.gaps_ms.len());
        }
        self.last_arrival_ms = Some(t_ms);
        self.total_arrivals += 1;
    }

    /// Number of gaps currently in the window.
    #[inline]
    pub fn sample_count(&self) -> usize {
        self.filled
    }

    /// Total arrivals ever recorded.
    #[inline]
    pub fn total_arrivals(&self) -> u64 {
        self.total_arrivals
    }

    /// Last arrival time, if any.
    #[inline]
    pub fn last_arrival_ms(&self) -> Option<u64> {
        self.last_arrival_ms
    }

    fn gaps(&self) -> &[u64] {
        &self.gaps_ms[..self.filled]
    }

    /// Empirical `P(gap ≤ k_ms)`. With no history yet, returns a neutral
    /// 0.5 — the scheduler has no evidence either way.
    pub fn p_within(&self, k_ms: u64) -> f64 {
        if self.filled == 0 {
            return 0.5;
        }
        let hits = self.gaps().iter().filter(|&&g| g <= k_ms).count();
        hits as f64 / self.filled as f64
    }

    /// Empirical `E[min(gap, k_ms)]` — the expected resident time of a
    /// container granted keep-alive `k_ms`. With no history, returns
    /// `k_ms / 2` (uniform prior over the window).
    pub fn expected_resident_ms(&self, k_ms: u64) -> f64 {
        if self.filled == 0 {
            return k_ms as f64 / 2.0;
        }
        let sum: f64 = self.gaps().iter().map(|&g| g.min(k_ms) as f64).sum();
        sum / self.filled as f64
    }

    /// [`InterArrivalStats::p_within`] at the `i`-th grid point, from the
    /// running hit count (bit-identical to the scan: the same integer
    /// count over the same divisor).
    #[inline]
    pub fn p_within_grid(&self, i: usize) -> f64 {
        if self.filled == 0 {
            return 0.5;
        }
        self.grid[i].hits as f64 / self.filled as f64
    }

    /// [`InterArrivalStats::expected_resident_ms`] at the `i`-th grid
    /// point, from the running clamped-gap sum. Below 2^53 the sum is
    /// the exact value the scan accumulates; a window whose gaps sum past
    /// it (millennia of gaps) falls back to the scan.
    #[inline]
    pub fn expected_resident_grid_ms(&self, i: usize) -> f64 {
        let point = &self.grid[i];
        if self.filled == 0 || point.clamped_sum >= EXACT_F64_INT {
            return self.expected_resident_ms(point.k_ms);
        }
        point.clamped_sum as f64 / self.filled as f64
    }

    /// Mean observed gap (ms); `None` until at least one gap exists.
    pub fn mean_gap_ms(&self) -> Option<f64> {
        if self.filled == 0 {
            None
        } else {
            Some(self.gaps().iter().sum::<u64>() as f64 / self.filled as f64)
        }
    }
}

/// Sliding-window invocation counter producing the paper's ΔF signal:
/// the absolute change in a function's invocation count between
/// consecutive observation windows, plus the running maximum used for
/// normalization (`ΔF / ΔF_max`).
#[derive(Debug, Clone)]
pub struct DeltaTracker {
    window_ms: u64,
    current_window: u64,
    current_count: u64,
    previous_count: u64,
    last_delta: f64,
    max_delta: f64,
}

impl DeltaTracker {
    pub fn new(window_ms: u64) -> Self {
        assert!(window_ms > 0);
        DeltaTracker {
            window_ms,
            current_window: 0,
            current_count: 0,
            previous_count: 0,
            last_delta: 0.0,
            max_delta: 0.0,
        }
    }

    /// Record an event at `t_ms`; windows roll over automatically
    /// (empty intermediate windows are accounted for).
    pub fn record(&mut self, t_ms: u64) {
        let w = t_ms / self.window_ms;
        if w != self.current_window {
            // Close the current window.
            self.roll(self.current_count);
            // Any fully empty windows in between contribute a delta too.
            if w > self.current_window + 1 {
                self.roll(0);
            }
            self.current_window = w;
            self.current_count = 0;
        }
        self.current_count += 1;
    }

    fn roll(&mut self, closing_count: u64) {
        self.last_delta = (closing_count as f64 - self.previous_count as f64).abs();
        self.max_delta = self.max_delta.max(self.last_delta);
        self.previous_count = closing_count;
    }

    /// Normalized |ΔF| in `[0, 1]` (0 until any window has closed).
    pub fn normalized_delta(&self) -> f64 {
        if self.max_delta == 0.0 {
            0.0
        } else {
            self.last_delta / self.max_delta
        }
    }

    /// Raw |ΔF| of the last closed window transition.
    pub fn last_delta(&self) -> f64 {
        self.last_delta
    }

    /// Running max |ΔF|.
    pub fn max_delta(&self) -> f64 {
        self.max_delta
    }
}

/// Same normalization machinery for a continuous signal (ΔCI): track the
/// absolute change between consecutive observations and its running max.
#[derive(Debug, Clone, Default)]
pub struct SignalDelta {
    last_value: Option<f64>,
    last_delta: f64,
    max_delta: f64,
}

impl SignalDelta {
    pub fn new() -> Self {
        Self::default()
    }

    /// Observe a new value; returns the normalized delta in `[0, 1]`.
    pub fn observe(&mut self, value: f64) -> f64 {
        if let Some(prev) = self.last_value {
            self.last_delta = (value - prev).abs();
            self.max_delta = self.max_delta.max(self.last_delta);
        }
        self.last_value = Some(value);
        self.normalized_delta()
    }

    /// Normalized |Δ| in `[0, 1]`.
    pub fn normalized_delta(&self) -> f64 {
        if self.max_delta == 0.0 {
            0.0
        } else {
            self.last_delta / self.max_delta
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p_within_counts_hits() {
        let mut s = InterArrivalStats::new(8);
        for t in [0u64, 100, 300, 600, 1_000] {
            s.record_arrival(t);
        }
        // Gaps: 100, 200, 300, 400.
        assert_eq!(s.sample_count(), 4);
        assert_eq!(s.p_within(250), 0.5);
        assert_eq!(s.p_within(400), 1.0);
        assert_eq!(s.p_within(50), 0.0);
    }

    #[test]
    fn neutral_prior_with_no_history() {
        let s = InterArrivalStats::new(4);
        assert_eq!(s.p_within(1_000), 0.5);
        assert_eq!(s.expected_resident_ms(1_000), 500.0);
        assert_eq!(s.mean_gap_ms(), None);
    }

    #[test]
    fn expected_resident_clamps_at_k() {
        let mut s = InterArrivalStats::new(8);
        for t in [0u64, 100, 300, 600, 1_000] {
            s.record_arrival(t);
        }
        // min(gap, 250): 100, 200, 250, 250 → mean 200.
        assert_eq!(s.expected_resident_ms(250), 200.0);
        // k larger than all gaps → plain mean gap.
        assert_eq!(s.expected_resident_ms(10_000), s.mean_gap_ms().unwrap());
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut s = InterArrivalStats::new(2);
        s.record_arrival(0);
        s.record_arrival(10); // gap 10
        s.record_arrival(110); // gap 100
        s.record_arrival(1_110); // gap 1000, evicts gap 10
        assert_eq!(s.sample_count(), 2);
        assert_eq!(s.p_within(100), 0.5);
        assert_eq!(s.total_arrivals(), 4);
    }

    #[test]
    fn grid_estimates_past_the_exact_range_fall_back_to_the_scan() {
        // Gaps 2^53 − 1, 1, 1, 1 sum to 2^53 + 2, but the scan's f64
        // accumulation rounds both trailing additions away (to 2^53);
        // past 2^53 the lookup must answer what the scan answers.
        let k = [0, 1 << 52, u64::MAX];
        let mut s = InterArrivalStats::with_grid(4, k);
        for t in [0, (1 << 53) - 1, 1 << 53, (1 << 53) + 1, (1 << 53) + 2] {
            s.record_arrival(t);
        }
        assert_eq!(s.expected_resident_ms(u64::MAX), (1u64 << 51) as f64);
        for (i, &k) in k.iter().enumerate() {
            assert_eq!(s.p_within_grid(i).to_bits(), s.p_within(k).to_bits());
            assert_eq!(
                s.expected_resident_grid_ms(i).to_bits(),
                s.expected_resident_ms(k).to_bits()
            );
        }
    }

    #[test]
    fn delta_tracker_detects_rate_change() {
        let mut d = DeltaTracker::new(1_000);
        // Window 0: 3 events; window 1: 1 event.
        for t in [0u64, 100, 200] {
            d.record(t);
        }
        d.record(1_500);
        // Window 0 closed with count 3; previous 0 → delta 3.
        assert_eq!(d.last_delta(), 3.0);
        assert_eq!(d.normalized_delta(), 1.0);
        d.record(2_100);
        // Window 1 closed with count 1 → delta |1-3| = 2, normalized 2/3.
        assert_eq!(d.last_delta(), 2.0);
        assert!((d.normalized_delta() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn delta_tracker_handles_empty_windows() {
        let mut d = DeltaTracker::new(1_000);
        d.record(0);
        d.record(5_000); // windows 1..4 empty
        assert_eq!(d.last_delta(), 1.0); // |0 - 1| from the empty gap roll
        assert_eq!(d.max_delta(), 1.0);
    }

    #[test]
    fn signal_delta_normalizes_against_running_max() {
        let mut s = SignalDelta::new();
        assert_eq!(s.observe(100.0), 0.0); // first observation: no delta
        assert_eq!(s.observe(150.0), 1.0); // delta 50, max 50
        assert_eq!(s.observe(140.0), 0.2); // delta 10 / max 50
        assert_eq!(s.observe(240.0), 1.0); // delta 100 becomes new max
    }

    #[test]
    fn chronological_requirement_is_saturating_not_panicking_in_release() {
        let mut s = InterArrivalStats::new(4);
        s.record_arrival(100);
        s.record_arrival(100); // zero gap is fine
        assert_eq!(s.sample_count(), 1);
        assert_eq!(s.p_within(0), 1.0);
    }
}
