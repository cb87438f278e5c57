//! Grid carbon-intensity time series.
//!
//! The paper feeds EcoLife minute-resolution carbon intensity from
//! Electricity Maps \[37\], primarily CISO (California ISO), plus Tennessee,
//! Texas, Florida, and New York for the Fig. 14 robustness study. We
//! reproduce those feeds with a seeded synthetic generator whose per-region
//! parameters match the published statistics: CISO has a pronounced solar
//! "duck curve" (large diurnal swing, ~6.75% mean hourly fluctuation,
//! σ≈59), the south-eastern grids are flat and carbon-heavy, and NY sits
//! low with moderate swing.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

// The region *type* (and its generation profile) lives in `ecolife-hw`
// since nodes carry their deployment region; this crate owns the series
// generation and re-exports the type for compatibility.
pub use ecolife_hw::{Region, RegionProfile};

/// Minutes per day, the fundamental period of the diurnal cycle.
const MIN_PER_DAY: f64 = 24.0 * 60.0;

/// A minute-resolution carbon-intensity series (gCO2/kWh).
#[derive(Debug, Clone, PartialEq)]
pub struct CarbonIntensityTrace {
    /// One sample per minute, starting at simulation time 0.
    samples: Vec<f64>,
}

impl CarbonIntensityTrace {
    /// Wrap an explicit series. Panics on an empty series — a scheduler
    /// with no CI signal is meaningless.
    pub fn from_samples(samples: Vec<f64>) -> Self {
        assert!(
            !samples.is_empty(),
            "carbon-intensity trace must be non-empty"
        );
        assert!(
            samples.iter().all(|s| s.is_finite() && *s >= 0.0),
            "carbon intensity must be finite and non-negative"
        );
        CarbonIntensityTrace { samples }
    }

    /// A constant-intensity trace (used by the Fig. 3 CI=50/CI=300 cases).
    pub fn constant(ci: f64, minutes: usize) -> Self {
        Self::from_samples(vec![ci; minutes.max(1)])
    }

    /// Generate `minutes` of synthetic intensity for `region`,
    /// deterministically from `seed`.
    pub fn synthetic(region: Region, minutes: usize, seed: u64) -> Self {
        let p = region.profile();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed_c1a0);
        let mut noise = 0.0f64;
        // AR(1) with coefficient 0.92: slow-moving grid-mix drift.
        let rho = 0.92f64;
        let innov_sd = p.noise_sd * (1.0 - rho * rho).sqrt();
        let samples = (0..minutes.max(1))
            .map(|m| {
                let t = m as f64;
                let w = 2.0 * std::f64::consts::PI * (t - p.phase_min) / MIN_PER_DAY;
                // Box-Muller normal innovation.
                let u1: f64 = rng.gen_range(1e-12..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                noise = rho * noise + innov_sd * z;
                let ci = p.mean_g_per_kwh
                    + p.diurnal_amplitude * w.sin()
                    + p.secondary_amplitude * (2.0 * w).sin()
                    + noise;
                ci.max(20.0)
            })
            .collect();
        CarbonIntensityTrace { samples }
    }

    /// Parse an Electricity Maps-style CSV export: one `minute,ci` pair per
    /// line; a header line and blank lines are skipped.
    ///
    /// Every accepted value is validated — the intensity must be finite
    /// and non-negative, and the minute column must count up from 0 in
    /// steps of one (a shuffled, duplicated, or gapped export would
    /// silently misalign every downstream carbon charge) — so malformed
    /// input is a line-numbered `Err`, never a corrupted series.
    pub fn parse_csv(text: &str) -> Result<Self, String> {
        let mut samples = Vec::new();
        for (ln, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split(',');
            let first = parts.next().unwrap_or("").trim();
            if ln == 0 && first.parse::<f64>().is_err() {
                continue; // header
            }
            let minute: u64 = first
                .parse()
                .map_err(|e| format!("line {}: bad minute {first:?}: {e}", ln + 1))?;
            if minute != samples.len() as u64 {
                return Err(format!(
                    "line {}: minute {minute} out of order (expected {})",
                    ln + 1,
                    samples.len()
                ));
            }
            let ci_field = parts
                .next()
                .ok_or_else(|| format!("line {}: missing intensity column", ln + 1))?
                .trim();
            let ci: f64 = ci_field
                .parse()
                .map_err(|e| format!("line {}: bad intensity {ci_field:?}: {e}", ln + 1))?;
            if !ci.is_finite() || ci < 0.0 {
                return Err(format!("line {}: intensity out of range: {ci}", ln + 1));
            }
            samples.push(ci);
        }
        if samples.is_empty() {
            return Err("no samples in CSV".into());
        }
        Ok(CarbonIntensityTrace { samples })
    }

    /// Tile the series cyclically until it covers at least `minutes`
    /// minutes — the explicit opt-in for replaying a workload longer
    /// than the recorded feed (e.g. extending one recorded day into a
    /// week of identical diurnal cycles). A series already long enough
    /// is returned unchanged. This is deliberately a *new* trace, not a
    /// lookup mode: simulation construction rejects a too-short series
    /// outright, so extending coverage is always a visible decision at
    /// the call site.
    pub fn extend_cyclic(&self, minutes: usize) -> Self {
        if self.samples.len() >= minutes {
            return self.clone();
        }
        let samples = self.samples.iter().cycle().take(minutes).copied().collect();
        CarbonIntensityTrace { samples }
    }

    /// Number of minutes covered.
    #[inline]
    pub fn len_minutes(&self) -> usize {
        self.samples.len()
    }

    /// Duration covered in milliseconds.
    #[inline]
    pub fn len_ms(&self) -> u64 {
        self.samples.len() as u64 * 60_000
    }

    /// Intensity at time `t_ms` (clamped to the last sample beyond the
    /// end, matching how a scheduler would hold the latest reading over a
    /// short tail — e.g. a keep-alive outliving the last arrival).
    /// Simulation construction validates that the series covers the whole
    /// workload span, so this clamp can only engage on such tails, never
    /// silently freeze the intensity for the bulk of a run; use
    /// [`CarbonIntensityTrace::extend_cyclic`] to cover longer horizons
    /// explicitly.
    #[inline]
    pub fn at(&self, t_ms: u64) -> f64 {
        let idx = (t_ms / 60_000) as usize;
        self.samples[idx.min(self.samples.len() - 1)]
    }

    /// Time-weighted average intensity over `[t0_ms, t1_ms)`. This is the
    /// quantity multiplied into the operational-carbon formula for a phase
    /// spanning that interval.
    pub fn average_over(&self, t0_ms: u64, t1_ms: u64) -> f64 {
        if t1_ms <= t0_ms {
            return self.at(t0_ms);
        }
        let mut acc = 0.0f64;
        let mut t = t0_ms;
        while t < t1_ms {
            let minute_end = (t / 60_000 + 1) * 60_000;
            let seg_end = minute_end.min(t1_ms);
            acc += self.at(t) * (seg_end - t) as f64;
            t = seg_end;
        }
        acc / (t1_ms - t0_ms) as f64
    }

    /// Mean of all samples.
    pub fn mean(&self) -> f64 {
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Population standard deviation of all samples.
    pub fn std_dev(&self) -> f64 {
        let mean = self.mean();
        let var = self
            .samples
            .iter()
            .map(|s| (s - mean) * (s - mean))
            .sum::<f64>()
            / self.samples.len() as f64;
        var.sqrt()
    }

    /// Mean absolute hour-over-hour fluctuation, as a percentage — the
    /// statistic the paper quotes for CISO (≈6.75%).
    pub fn mean_hourly_fluctuation_pct(&self) -> f64 {
        let hours: Vec<f64> = self
            .samples
            .chunks(60)
            .map(|c| c.iter().sum::<f64>() / c.len() as f64)
            .collect();
        if hours.len() < 2 {
            return 0.0;
        }
        let mut acc = 0.0;
        for w in hours.windows(2) {
            acc += ((w[1] - w[0]) / w[0]).abs();
        }
        100.0 * acc / (hours.len() - 1) as f64
    }

    /// Raw samples (read-only).
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_trace_is_flat() {
        let t = CarbonIntensityTrace::constant(300.0, 100);
        assert_eq!(t.at(0), 300.0);
        assert_eq!(t.at(99 * 60_000), 300.0);
        assert_eq!(t.average_over(0, 50 * 60_000 + 123), 300.0);
        assert_eq!(t.std_dev(), 0.0);
    }

    #[test]
    fn at_clamps_past_the_end() {
        let t = CarbonIntensityTrace::from_samples(vec![100.0, 200.0]);
        assert_eq!(t.at(10_000_000), 200.0);
    }

    #[test]
    fn average_over_weights_by_time() {
        let t = CarbonIntensityTrace::from_samples(vec![100.0, 300.0]);
        // 30 s at 100 + 60 s at 300 over [30s, 120s) → (100*30 + 300*60)/90.
        let avg = t.average_over(30_000, 120_000);
        assert!((avg - (100.0 * 30.0 + 300.0 * 60.0) / 90.0).abs() < 1e-9);
    }

    #[test]
    fn average_over_degenerate_interval_returns_point_value() {
        let t = CarbonIntensityTrace::from_samples(vec![100.0, 300.0]);
        assert_eq!(t.average_over(70_000, 70_000), 300.0);
    }

    #[test]
    fn synthetic_is_deterministic_per_seed() {
        let a = CarbonIntensityTrace::synthetic(Region::Caiso, 500, 7);
        let b = CarbonIntensityTrace::synthetic(Region::Caiso, 500, 7);
        let c = CarbonIntensityTrace::synthetic(Region::Caiso, 500, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn synthetic_respects_region_means() {
        for region in Region::ALL {
            let t = CarbonIntensityTrace::synthetic(region, 3 * 1440, 42);
            let mean = t.mean();
            let target = region.profile().mean_g_per_kwh;
            assert!(
                (mean - target).abs() < target * 0.10,
                "{region}: mean {mean:.1} vs target {target:.1}"
            );
        }
    }

    #[test]
    fn caiso_fluctuates_more_than_florida() {
        let cal = CarbonIntensityTrace::synthetic(Region::Caiso, 3 * 1440, 1);
        let fla = CarbonIntensityTrace::synthetic(Region::Florida, 3 * 1440, 1);
        assert!(cal.std_dev() > 2.0 * fla.std_dev());
        assert!(cal.mean_hourly_fluctuation_pct() > fla.mean_hourly_fluctuation_pct());
    }

    #[test]
    fn caiso_hourly_fluctuation_near_paper_statistic() {
        // Paper: CISO carbon intensity fluctuates by an average of 6.75%
        // hourly with σ ≈ 59. Accept a generous band — this is calibration,
        // not a bit-exact target.
        let cal = CarbonIntensityTrace::synthetic(Region::Caiso, 7 * 1440, 3);
        let fluct = cal.mean_hourly_fluctuation_pct();
        assert!(
            (2.0..=14.0).contains(&fluct),
            "hourly fluctuation {fluct:.2}% outside band"
        );
        let sd = cal.std_dev();
        assert!((30.0..=110.0).contains(&sd), "σ = {sd:.1} outside band");
    }

    #[test]
    fn intensities_never_negative() {
        for region in Region::ALL {
            let t = CarbonIntensityTrace::synthetic(region, 1440, 99);
            assert!(t.samples().iter().all(|&s| s >= 20.0));
        }
    }

    #[test]
    fn parse_csv_with_header() {
        let t = CarbonIntensityTrace::parse_csv("minute,ci\n0,120.5\n1,130.0\n").unwrap();
        assert_eq!(t.len_minutes(), 2);
        assert_eq!(t.at(0), 120.5);
        assert_eq!(t.at(60_000), 130.0);
    }

    #[test]
    fn parse_csv_without_header() {
        let t = CarbonIntensityTrace::parse_csv("0,100\n1,200\n\n2,300\n").unwrap();
        assert_eq!(t.len_minutes(), 3);
    }

    #[test]
    fn parse_csv_rejects_garbage() {
        assert!(CarbonIntensityTrace::parse_csv("0,abc").is_err());
        assert!(CarbonIntensityTrace::parse_csv("").is_err());
        assert!(CarbonIntensityTrace::parse_csv("0,-5").is_err());
        assert!(CarbonIntensityTrace::parse_csv("0").is_err());
    }

    #[test]
    fn parse_csv_rejects_non_finite_intensities_with_line_numbers() {
        // NaN/±inf parse as valid f64 literals; they must still be
        // rejected — they would otherwise poison every carbon total.
        for bad in ["NaN", "nan", "inf", "-inf", "1e999"] {
            let err = CarbonIntensityTrace::parse_csv(&format!("minute,ci\n0,100\n1,{bad}\n"))
                .unwrap_err();
            assert!(err.starts_with("line 3:"), "{bad}: {err}");
        }
    }

    #[test]
    fn parse_csv_rejects_misordered_minutes() {
        // Duplicated, gapped, or shuffled minute columns would silently
        // misalign the series against simulated time.
        for (bad, line) in [
            ("0,100\n0,200", 2),
            ("0,100\n2,200", 2),
            ("minute,ci\n1,100", 2),
            ("0,100\nx,200", 2),
        ] {
            let err = CarbonIntensityTrace::parse_csv(bad).unwrap_err();
            assert!(err.starts_with(&format!("line {line}:")), "{bad:?}: {err}");
        }
    }

    #[test]
    fn extend_cyclic_tiles_the_series() {
        let t = CarbonIntensityTrace::from_samples(vec![100.0, 200.0, 300.0]);
        let week = t.extend_cyclic(8);
        assert_eq!(week.len_minutes(), 8);
        assert_eq!(
            week.samples(),
            &[100.0, 200.0, 300.0, 100.0, 200.0, 300.0, 100.0, 200.0]
        );
        // Already-covering series are returned unchanged.
        assert_eq!(t.extend_cyclic(2), t);
        assert_eq!(t.extend_cyclic(3), t);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_samples_panic() {
        CarbonIntensityTrace::from_samples(vec![]);
    }

    #[test]
    fn region_labels_match_fig14() {
        let labels: Vec<_> = Region::ALL.iter().map(|r| r.label()).collect();
        assert_eq!(labels, vec!["TEN", "TEX", "FLA", "NY", "CAL"]);
    }

    #[test]
    fn len_ms_is_minutes_times_60k() {
        let t = CarbonIntensityTrace::constant(100.0, 5);
        assert_eq!(t.len_ms(), 300_000);
    }
}
