//! Bounded continuous search spaces.
//!
//! EcoLife constructs "a two-dimensional search space for each serverless
//! function": one dimension for the keep-alive location and one for the
//! keep-alive time (a discrete grid of periods). The location axis is
//! parameterized by fleet size — `[0, n_nodes - 1]`, decoded by rounding
//! to the nearest node index — so the same optimizer machinery covers the
//! paper's two-node pair and arbitrary N-node fleets. Optimizers work in
//! the continuous box; decoding to discrete choices happens at the call
//! site (see `ecolife-core::ecolife`).

use rand::rngs::SmallRng;
use rand::Rng;

/// An axis-aligned box in R^d.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchSpace {
    /// Per-dimension `(min, max)` bounds, inclusive.
    bounds: Vec<(f64, f64)>,
}

impl SearchSpace {
    pub fn new(bounds: Vec<(f64, f64)>) -> Self {
        assert!(!bounds.is_empty(), "search space needs ≥1 dimension");
        for (i, (lo, hi)) in bounds.iter().enumerate() {
            assert!(
                lo.is_finite() && hi.is_finite(),
                "dim {i}: non-finite bound"
            );
            assert!(lo < hi, "dim {i}: empty interval [{lo}, {hi}]");
        }
        SearchSpace { bounds }
    }

    /// The placement space over an N-node fleet: dimension 0 is the
    /// keep-alive location in `[0, n_nodes - 1]` (decoded by rounding to
    /// the nearest node index, [`decode::node_index`]); dimension 1 is
    /// the keep-alive period index in `[0, n_periods - 1]`.
    ///
    /// A single-node fleet gets a degenerate `[0, 1]` location axis —
    /// [`decode::node_index`] clamps every sample to node 0, so the
    /// optimizer effectively searches the period axis alone.
    pub fn placement(n_nodes: usize, n_periods: usize) -> Self {
        assert!(n_nodes >= 1, "placement needs at least one node");
        assert!(n_periods >= 2, "need at least two keep-alive choices");
        SearchSpace::new(vec![
            (0.0, (n_nodes - 1).max(1) as f64),
            (0.0, (n_periods - 1) as f64),
        ])
    }

    /// A continuous relaxation of an integer grid: dimension `d` spans
    /// `[0, cardinalities[d] - 1]` and decodes by rounding to the nearest
    /// index ([`decode::grid_index`]). This is how non-placement genomes
    /// (e.g. the capacity planner's per-SKU node counts) ride the same
    /// optimizers as the keep-alive space — [`SearchSpace::placement`] is
    /// the `[n_nodes, n_periods]` special case.
    ///
    /// A single-choice axis (`cardinality == 1`) gets a degenerate
    /// `[0, 1]` interval; `grid_index` clamps every sample back to 0.
    pub fn grid(cardinalities: &[usize]) -> Self {
        assert!(!cardinalities.is_empty(), "grid needs ≥1 dimension");
        SearchSpace::new(
            cardinalities
                .iter()
                .enumerate()
                .map(|(d, &n)| {
                    assert!(n >= 1, "dim {d}: grid cardinality must be ≥1");
                    (0.0, (n - 1).max(1) as f64)
                })
                .collect(),
        )
    }

    #[inline]
    pub fn dims(&self) -> usize {
        self.bounds.len()
    }

    #[inline]
    pub fn bounds(&self) -> &[(f64, f64)] {
        &self.bounds
    }

    /// Clamp a position into the box, in place.
    pub fn clamp(&self, x: &mut [f64]) {
        debug_assert_eq!(x.len(), self.dims());
        for (xi, (lo, hi)) in x.iter_mut().zip(&self.bounds) {
            *xi = xi.clamp(*lo, *hi);
        }
    }

    /// Sample a uniform random position.
    pub fn sample(&self, rng: &mut SmallRng) -> Vec<f64> {
        let mut x = vec![0.0; self.dims()];
        self.sample_into(rng, &mut x);
        x
    }

    /// [`SearchSpace::sample`] into an existing buffer: the same draws,
    /// one per dimension in order, without allocating.
    pub fn sample_into(&self, rng: &mut SmallRng, out: &mut [f64]) {
        assert_eq!(out.len(), self.dims(), "sample buffer has the wrong length");
        for (xi, (lo, hi)) in out.iter_mut().zip(&self.bounds) {
            *xi = rng.gen_range(*lo..=*hi);
        }
    }

    /// Per-dimension extent (hi − lo).
    pub fn extent(&self, dim: usize) -> f64 {
        let (lo, hi) = self.bounds[dim];
        hi - lo
    }

    /// Whether `x` lies inside the box (inclusive).
    pub fn contains(&self, x: &[f64]) -> bool {
        x.len() == self.dims()
            && x.iter()
                .zip(&self.bounds)
                .all(|(xi, (lo, hi))| *xi >= *lo && *xi <= *hi)
    }
}

/// Decode helpers for the placement and grid spaces.
pub mod decode {
    /// `x.round() as u64`: half away from zero, negative and NaN to 0,
    /// saturating at `u64::MAX` — without the out-of-line call
    /// `f64::round` compiles to on baseline x86-64 (two per particle
    /// evaluation on the KDM hot path). Truncate, then round up when the
    /// fraction is at least one half; the fraction is exact because below
    /// 2^53 `x - trunc(x)` is (Sterbenz) and at or above it every `f64`
    /// is an integer.
    #[inline]
    pub fn round_to_u64(x: f64) -> u64 {
        let whole = x as u64;
        whole.saturating_add(u64::from(x - whole as f64 >= 0.5))
    }

    /// Generic grid decode: nearest index, clamped to
    /// `[0, cardinality - 1]`.
    #[inline]
    pub fn grid_index(x: f64, cardinality: usize) -> usize {
        usize::try_from(round_to_u64(x))
            .unwrap_or(usize::MAX)
            .min(cardinality - 1)
    }

    /// Dimension-0 decode: nearest fleet node index, clamped to
    /// `[0, n_nodes - 1]`.
    #[inline]
    pub fn node_index(x0: f64, n_nodes: usize) -> usize {
        grid_index(x0, n_nodes)
    }

    /// Dimension-1 decode: nearest keep-alive period index, clamped.
    #[inline]
    pub fn period_index(x1: f64, n_periods: usize) -> usize {
        grid_index(x1, n_periods)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn ecolife_space_shape() {
        // The paper's two-node space.
        let s = SearchSpace::placement(2, 11);
        assert_eq!(s.dims(), 2);
        assert_eq!(s.bounds()[0], (0.0, 1.0));
        assert_eq!(s.bounds()[1], (0.0, 10.0));
        assert_eq!(s.extent(1), 10.0);
    }

    #[test]
    fn placement_space_parameterizes_the_location_axis() {
        let s = SearchSpace::placement(5, 11);
        assert_eq!(s.dims(), 2);
        assert_eq!(s.bounds()[0], (0.0, 4.0));
        assert_eq!(s.bounds()[1], (0.0, 10.0));
    }

    #[test]
    fn decode_node_index_rounds_and_clamps() {
        assert_eq!(decode::node_index(0.0, 3), 0);
        assert_eq!(decode::node_index(0.49, 3), 0);
        assert_eq!(decode::node_index(0.5, 3), 1);
        assert_eq!(decode::node_index(1.6, 3), 2);
        assert_eq!(decode::node_index(9.0, 3), 2);
        assert_eq!(decode::node_index(-1.0, 3), 0);
    }

    #[test]
    fn grid_space_generalizes_placement() {
        // placement(n, p) is grid(&[n, p]).
        assert_eq!(SearchSpace::grid(&[5, 11]), SearchSpace::placement(5, 11));
        let s = SearchSpace::grid(&[3, 1, 4]);
        assert_eq!(s.dims(), 3);
        assert_eq!(s.bounds()[0], (0.0, 2.0));
        // Single-choice axis gets the degenerate [0, 1] interval…
        assert_eq!(s.bounds()[1], (0.0, 1.0));
        // …and decodes to 0 everywhere.
        for x in [0.0, 0.4, 0.9, 1.0] {
            assert_eq!(decode::grid_index(x, 1), 0);
        }
        assert_eq!(decode::grid_index(2.4, 4), 2);
        assert_eq!(decode::grid_index(9.0, 4), 3);
        assert_eq!(decode::grid_index(-3.0, 4), 0);
    }

    #[test]
    #[should_panic(expected = "cardinality must be ≥1")]
    fn grid_rejects_empty_axis() {
        SearchSpace::grid(&[3, 0]);
    }

    #[test]
    fn single_node_placement_decodes_to_node_zero() {
        let s = SearchSpace::placement(1, 11);
        assert_eq!(s.dims(), 2);
        for x0 in [0.0, 0.3, 0.7, 1.0] {
            assert_eq!(decode::node_index(x0, 1), 0);
        }
    }

    #[test]
    fn clamp_pulls_into_box() {
        let s = SearchSpace::placement(2, 11);
        let mut x = vec![-3.0, 42.0];
        s.clamp(&mut x);
        assert_eq!(x, vec![0.0, 10.0]);
        assert!(s.contains(&x));
    }

    #[test]
    fn sample_stays_in_bounds() {
        let s = SearchSpace::new(vec![(-5.0, 5.0), (0.0, 1.0), (100.0, 200.0)]);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..200 {
            let x = s.sample(&mut rng);
            assert!(s.contains(&x), "{x:?} escaped");
        }
    }

    #[test]
    fn sample_into_draws_the_same_sequence_as_sample() {
        let s = SearchSpace::new(vec![(-5.0, 5.0), (0.0, 1.0), (100.0, 200.0)]);
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let (mut a, mut b, mut c) = (
            SmallRng::seed_from_u64(9),
            SmallRng::seed_from_u64(9),
            SmallRng::seed_from_u64(9),
        );
        let mut buf = vec![f64::NAN; s.dims()];
        for _ in 0..50 {
            s.sample_into(&mut b, &mut buf);
            // One `gen_range` per dimension, in dimension order.
            let drawn: Vec<f64> = s
                .bounds()
                .iter()
                .map(|(lo, hi)| a.gen_range(*lo..=*hi))
                .collect();
            assert_eq!(bits(&buf), bits(&drawn));
            assert_eq!(bits(&buf), bits(&s.sample(&mut c)));
        }
        // All three generators advanced by exactly the same draws.
        let next = a.gen::<f64>().to_bits();
        assert_eq!(b.gen::<f64>().to_bits(), next);
        assert_eq!(c.gen::<f64>().to_bits(), next);
    }

    #[test]
    fn decode_location() {
        // Two nodes: `< 0.5` is node 0, else node 1.
        assert_eq!(decode::node_index(0.0, 2), 0);
        assert_eq!(decode::node_index(0.49, 2), 0);
        assert_eq!(decode::node_index(0.5, 2), 1);
        assert_eq!(decode::node_index(1.0, 2), 1);
    }

    #[test]
    fn round_to_u64_is_the_rounding_cast() {
        let edges = [
            0.0,
            -0.0,
            0.49999999999999994,
            0.5,
            1.5,
            2.5,
            2.4999999999999996,
            -0.5,
            -0.49999999999999994,
            -7.5,
            4503599627370495.5,
            4503599627370496.0,
            9007199254740993.0,
            18446744073709549568.0,
            18446744073709551616.0,
            1e300,
            f64::MIN_POSITIVE,
            f64::EPSILON,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let mut rng = SmallRng::seed_from_u64(3);
        let random_bits = (0..200_000).map(|_| f64::from_bits(rng.next_u64()));
        let mut rng = SmallRng::seed_from_u64(4);
        let near_grid = (0..200_000).map(|_| rng.gen_range(-3.0..=14.0));
        for x in edges.into_iter().chain(random_bits).chain(near_grid) {
            assert_eq!(decode::round_to_u64(x), x.round() as u64, "x = {x:e}");
            for n in [1, 2, 3, 11, 596] {
                assert_eq!(
                    decode::grid_index(x, n),
                    (x.round().max(0.0) as usize).min(n - 1),
                    "x = {x:e}, n = {n}"
                );
            }
        }
    }

    #[test]
    fn decode_period_rounds_and_clamps() {
        assert_eq!(decode::period_index(3.4, 11), 3);
        assert_eq!(decode::period_index(3.6, 11), 4);
        assert_eq!(decode::period_index(-2.0, 11), 0);
        assert_eq!(decode::period_index(99.0, 11), 10);
    }

    #[test]
    #[should_panic(expected = "empty interval")]
    fn rejects_inverted_bounds() {
        SearchSpace::new(vec![(1.0, 0.0)]);
    }

    #[test]
    #[should_panic(expected = "≥1 dimension")]
    fn rejects_zero_dims() {
        SearchSpace::new(vec![]);
    }
}
