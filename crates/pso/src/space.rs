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
    /// the nearest node index, [`decode::Grid`]); dimension 1 is the
    /// keep-alive period index in `[0, n_periods - 1]`.
    ///
    /// A single-node fleet gets a degenerate `[0, 1]` location axis —
    /// its one-point [`decode::Grid`] clamps every sample to node 0, so
    /// the optimizer effectively searches the period axis alone.
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
    /// index ([`decode::Grid`]). This is how non-placement genomes
    /// (e.g. the capacity planner's per-SKU node counts) ride the same
    /// optimizers as the keep-alive space — [`SearchSpace::placement`] is
    /// the `[n_nodes, n_periods]` special case.
    ///
    /// A single-choice axis (`cardinality == 1`) gets a degenerate
    /// `[0, 1]` interval; its one-point grid clamps every sample back
    /// to 0.
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

/// Rounding positions onto the integer grids of the placement and grid
/// spaces.
pub mod decode {
    /// 2^52, the smallest `f64` whose unit in the last place is 1.
    const TWO_POW_52: f64 = 4_503_599_627_370_496.0;

    /// The low 52 bits of an `f64`: its mantissa without the leading 1.
    const MANTISSA: u64 = (1 << 52) - 1;

    /// Nearest-index rounding onto a grid of `n ≥ 1` points `0, 1, …,
    /// n − 1`: every `f64` maps to `(x.round().max(0.0) as usize).min(n −
    /// 1)`, that is half away from zero, with NaN and negatives at 0 and
    /// everything past the last point on it. The bound is converted to
    /// `f64` once, when the grid is built, so a caller builds its grids
    /// outside the loop that decodes.
    ///
    /// Baseline x86-64 has no instruction that rounds an `f64` to a
    /// whole `f64`, and a round trip through `u64` costs a saturating
    /// conversion each way. [`Grid::index`] stays in float arithmetic
    /// instead:
    ///
    /// 1. Clamp `x` into `[0, n − 1]`, NaN and negatives to 0.
    /// 2. Add 2^52. Below 2^53 the `f64`s are exactly the whole numbers,
    ///    so for a clamped `y < 2^52` the sum is `2^52 + r` with `r` the
    ///    nearest whole number to `y`, a tie going to the even one, and
    ///    `r` is the low 52 bits of the sum.
    /// 3. Add one where `y − r` is exactly 0.5: the tie that rounding to
    ///    even sent down. `t − 2^52` gives `r` exactly, and `y − r` is
    ///    exact too (Sterbenz for `y ≥ 1`; below, `r` is 0 or `y ≥ 0.5`),
    ///    so the compare sees the true fraction. The result is at most
    ///    `n − 1`, since a tie below the whole bound has its upper
    ///    neighbour inside.
    ///
    /// The clamped value then stays below 2^52 for grids of fewer than
    /// 2^52 points. A larger grid rounds by truncation instead, through
    /// the saturating conversion to `u64`.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct Grid {
        /// `n − 1` as an `f64`: the clamp bound of the float path.
        top: f64,
        /// `n − 1`: the clamp bound of the truncating path.
        last: usize,
    }

    impl Grid {
        /// The grid of `cardinality` points `0..cardinality`.
        ///
        /// # Panics
        /// Panics when `cardinality` is 0: an empty grid has no index to
        /// decode to.
        pub fn new(cardinality: usize) -> Self {
            assert!(cardinality >= 1, "grid cardinality must be ≥1");
            let last = cardinality - 1;
            Grid {
                top: last as f64,
                last,
            }
        }

        /// The grid point nearest to `x`, clamped onto the grid.
        #[inline]
        pub fn index(self, x: f64) -> usize {
            if self.top >= TWO_POW_52 - 1.0 {
                return self.index_by_truncation(x);
            }
            // `x > 0.0` fails for NaN, so both selects are `maxsd`/`minsd`.
            let y = if x > 0.0 { x } else { 0.0 };
            let y = if y < self.top { y } else { self.top };
            let t = y + TWO_POW_52;
            let even = (t.to_bits() & MANTISSA) as usize;
            even + usize::from(y - (t - TWO_POW_52) == 0.5)
        }

        /// [`Grid::index`] for grids of 2^52 points or more. `x as u64`
        /// truncates toward zero and saturates, NaN to 0; below 2^53 the
        /// fraction `x − trunc(x)` is exact, and at or above it every
        /// `f64` is whole.
        #[cold]
        fn index_by_truncation(self, x: f64) -> usize {
            let whole = x as u64;
            let rounded = whole.saturating_add(u64::from(x - whole as f64 >= 0.5));
            usize::try_from(rounded)
                .unwrap_or(usize::MAX)
                .min(self.last)
        }
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
            assert_eq!(decode::Grid::new(1).index(x), 0);
        }
        let four = decode::Grid::new(4);
        assert_eq!(four.index(2.4), 2);
        assert_eq!(four.index(9.0), 3);
        assert_eq!(four.index(-3.0), 0);
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
            assert_eq!(decode::Grid::new(1).index(x0), 0);
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

    /// The decode's model: std's rounding, half away from zero, clamped
    /// onto the grid, NaN and negatives at 0.
    fn rounded(x: f64, n: usize) -> usize {
        (x.round().max(0.0) as usize).min(n - 1)
    }

    /// The EcoLife grids (2 to 11 points), the planner's 596-plan space,
    /// the residency grid of a 10-minute keep-alive, and the grids at
    /// and around 2^52 points, where the float path hands over to
    /// truncation.
    const CARDINALITIES: [usize; 11] = [
        1,
        2,
        3,
        10,
        11,
        596,
        600_001,
        (1 << 52) - 1,
        1 << 52,
        (1 << 52) + 1,
        usize::MAX,
    ];

    fn assert_decodes_as_rounded(inputs: impl IntoIterator<Item = f64>) {
        let grids = CARDINALITIES.map(|n| (n, decode::Grid::new(n)));
        for x in inputs {
            for (n, grid) in grids {
                assert_eq!(
                    grid.index(x),
                    rounded(x, n),
                    "x = {x:e} ({:#018x}), n = {n}",
                    x.to_bits()
                );
            }
        }
    }

    #[test]
    fn decode_is_the_clamped_rounding() {
        let edges = [
            0.0,
            0.3,
            0.4,
            0.49,
            0.49999999999999994,
            0.5,
            0.7,
            0.9,
            1.0,
            1.5,
            1.6,
            2.4,
            2.4999999999999996,
            2.5,
            3.4,
            3.6,
            9.0,
            99.0,
            -0.5,
            -0.49999999999999994,
            -1.0,
            -2.0,
            -3.0,
            -7.5,
            4503599627370495.5,
            4503599627370496.0,
            9007199254740993.0,
            18446744073709549568.0,
            18446744073709551616.0,
            1e300,
            f64::EPSILON,
            f64::MAX,
            f64::MIN,
        ];
        // Signed zeros, subnormals, normals' edge, infinities and NaNs
        // with either sign and a payload.
        let specials = [
            0x0000_0000_0000_0000,
            0x8000_0000_0000_0000,
            0x0000_0000_0000_0001,
            0x000F_FFFF_FFFF_FFFF,
            0x8000_0000_0000_0001,
            0x800F_FFFF_FFFF_FFFF,
            0x0010_0000_0000_0000,
            0x7FF0_0000_0000_0000,
            0xFFF0_0000_0000_0000,
            0x7FF8_0000_0000_0000,
            0xFFF8_0000_0000_0000,
            0x7FF0_0000_0000_0001,
            0xFFFF_FFFF_FFFF_FFFF,
        ]
        .map(f64::from_bits);
        // Each grid's last point, the tie above and below it and their
        // neighbours; then 2^40 to 2^64 the same way, where the float
        // path's sum leaves the 2^52 binade and truncation takes over.
        let near = |p: f64| {
            [-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5]
                .map(|d| p + d)
                .into_iter()
                .flat_map(|y| [y.next_down(), y, y.next_up(), -y])
        };
        let tops = CARDINALITIES.into_iter().flat_map(|n| near((n - 1) as f64));
        let powers = (40..=64).flat_map(|e| near(2f64.powi(e)));
        // Every tie of the residency grid, which has up to 600 001
        // points, with both neighbours.
        let ties = (0..=600_000u32).flat_map(|k| {
            let tie = f64::from(k) + 0.5;
            [tie.next_down(), tie, tie.next_up()]
        });
        let mut rng = SmallRng::seed_from_u64(3);
        let random_bits: Vec<f64> = (0..200_000)
            .map(|_| f64::from_bits(rng.next_u64()))
            .collect();
        let mut rng = SmallRng::seed_from_u64(4);
        let mut near_grid: Vec<f64> = (0..200_000).map(|_| rng.gen_range(-3.0..=14.0)).collect();
        near_grid.extend((0..100_000).map(|_| rng.gen_range(-3.0..=600_003.0)));
        assert_decodes_as_rounded(
            edges
                .into_iter()
                .chain(specials)
                .chain(tops)
                .chain(powers)
                .chain(ties)
                .chain(random_bits)
                .chain(near_grid),
        );
    }

    /// Ten million random bit patterns, in release builds only
    /// (`cargo test --release`).
    #[test]
    #[cfg_attr(debug_assertions, ignore)]
    fn decode_is_the_clamped_rounding_on_ten_million_random_bit_patterns() {
        let mut rng = SmallRng::seed_from_u64(0x0DEC_0DE5_F10A_7000);
        assert_decodes_as_rounded((0..10_000_000).map(|_| f64::from_bits(rng.next_u64())));
    }

    #[test]
    #[should_panic(expected = "grid cardinality must be ≥1")]
    fn an_empty_grid_has_no_index_to_decode_to() {
        decode::Grid::new(0);
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
