//! Vanilla Particle Swarm Optimization (Sec. IV-C "Basics of Particle
//! Swarm Optimization").
//!
//! Update rules, per particle and iteration:
//!
//! ```text
//! V_{t+1} = ω·V_t + c1·r1·(X_pbest − X_t) + c2·r2·(X_gbest − X_t)
//! X_{t+1} = X_t + V_{t+1}
//! ```
//!
//! with `r1, r2 ~ U(0,1)` drawn per dimension, positions clamped to the
//! search space, and velocities clamped to half the per-dimension extent
//! (standard practice to avoid swarm explosion). `move_slot` is that
//! rule for one coordinate; this N-dimensional swarm and EcoLife's 2-D
//! [`DynamicPso`](crate::DynamicPso) both move through it.

use crate::space::SearchSpace;
use crate::{BatchOptimizer, Optimizer};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// PSO hyper-parameters. The paper uses 15 particles, ω ∈ [0.5, 1],
/// c1, c2 ∈ [0.3, 1] (Sec. V).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PsoConfig {
    pub n_particles: usize,
    pub inertia: f64,
    pub cognitive: f64,
    pub social: f64,
    pub seed: u64,
}

impl Default for PsoConfig {
    fn default() -> Self {
        PsoConfig {
            n_particles: 15,
            inertia: 0.75,
            cognitive: 0.65,
            social: 0.65,
            seed: 0x9504_1f0e,
        }
    }
}

impl PsoConfig {
    /// Reject a swarm too small to move or non-finite weights (called by
    /// [`Pso::new`]).
    pub(crate) fn validate(&self) {
        assert!(self.n_particles >= 2, "a swarm needs ≥2 particles");
        for (name, weight) in [
            ("inertia", self.inertia),
            ("cognitive", self.cognitive),
            ("social", self.social),
        ] {
            assert!(
                weight.is_finite(),
                "PSO {name} weight must be finite, got {weight}"
            );
        }
    }
}

/// The inertia ω and the cognitive and social pulls c1, c2 of one move.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Weights {
    pub(crate) inertia: f64,
    pub(crate) cognitive: f64,
    pub(crate) social: f64,
}

/// One dimension of the search box as a move reads it: the position
/// bounds and the velocity limit, half the extent.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Axis {
    lo: f64,
    hi: f64,
    vmax: f64,
}

impl Axis {
    /// Dimension `dim` of `space`.
    pub(crate) fn of(space: &SearchSpace, dim: usize) -> Self {
        let (lo, hi) = space.bounds()[dim];
        Axis {
            lo,
            hi,
            vmax: space.extent(dim) * 0.5,
        }
    }

    /// A uniform coordinate: the draw [`SearchSpace::sample_into`]
    /// makes for this dimension.
    #[inline]
    pub(crate) fn sample(&self, rng: &mut SmallRng) -> f64 {
        rng.gen_range(self.lo..=self.hi)
    }
}

/// The PSO rule for one slot — one coordinate of one particle — given
/// that slot's draws `(r1, r2)`: the new velocity, clamped to
/// `±vmax`, then the moved position, clamped to the axis.
#[inline(always)]
pub(crate) fn move_slot(
    x: &mut f64,
    v: &mut f64,
    pbest: f64,
    gbest: f64,
    (r1, r2): (f64, f64),
    w: Weights,
    axis: &Axis,
) {
    let velocity = w.inertia * *v + w.cognitive * r1 * (pbest - *x) + w.social * r2 * (gbest - *x);
    *v = clamp(velocity, -axis.vmax, axis.vmax);
    *x = clamp(*x + *v, axis.lo, axis.hi);
}

/// `f64::clamp`'s comparisons without its `lo <= hi` assert, which every
/// axis satisfies: the same bits for every input, NaN included.
#[inline(always)]
fn clamp(mut x: f64, lo: f64, hi: f64) -> f64 {
    if x < lo {
        x = lo;
    }
    if x > hi {
        x = hi;
    }
    x
}

/// The N-dimensional swarm, stored particle-major in flat buffers:
/// particle `i`'s coordinates occupy `[i·dims, (i+1)·dims)` of
/// `positions`, `velocities` and `best_positions`, and its personal best
/// fitness is `best_fitness[i]`. A swarm is a handful of allocations
/// however many particles it has, and one movement is a single pass over
/// the slots.
#[derive(Debug, Clone)]
pub struct Pso {
    space: SearchSpace,
    dims: usize,
    pub(crate) positions: Vec<f64>,
    pub(crate) velocities: Vec<f64>,
    pub(crate) best_positions: Vec<f64>,
    pub(crate) best_fitness: Vec<f64>,
    pub(crate) gbest_position: Vec<f64>,
    pub(crate) gbest_fitness: f64,
    pub(crate) rng: SmallRng,
    pub inertia: f64,
    pub cognitive: f64,
    pub social: f64,
    iterations: u64,
    axes: Vec<Axis>,
}

impl Pso {
    /// Initialize `config.n_particles` particles uniformly over `space`.
    /// Fitness is lazily evaluated on the first [`Optimizer::step`].
    pub fn new(space: SearchSpace, config: PsoConfig) -> Self {
        config.validate();
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let dims = space.dims();
        let slots = config.n_particles * dims;
        let mut positions = vec![0.0; slots];
        for x in positions.chunks_exact_mut(dims) {
            space.sample_into(&mut rng, x);
        }
        Pso {
            dims,
            velocities: vec![0.0; slots],
            best_positions: positions.clone(),
            best_fitness: vec![f64::INFINITY; config.n_particles],
            gbest_position: positions[..dims].to_vec(),
            gbest_fitness: f64::INFINITY,
            positions,
            rng,
            inertia: config.inertia,
            cognitive: config.cognitive,
            social: config.social,
            iterations: 0,
            axes: (0..dims).map(|d| Axis::of(&space, d)).collect(),
            space,
        }
    }

    /// Number of completed iterations.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// Number of particles.
    pub fn n_particles(&self) -> usize {
        self.best_fitness.len()
    }

    /// The search space.
    pub fn space(&self) -> &SearchSpace {
        &self.space
    }

    /// Particle `i`'s current position.
    fn position(&self, i: usize) -> &[f64] {
        &self.positions[i * self.dims..(i + 1) * self.dims]
    }

    /// Update particle `i`'s personal best and the global best with its
    /// fitness `f` at its current position.
    #[inline]
    fn record(&mut self, i: usize, f: f64) {
        let span = i * self.dims..(i + 1) * self.dims;
        if f < self.best_fitness[i] {
            self.best_fitness[i] = f;
            self.best_positions[span.clone()].copy_from_slice(&self.positions[span.clone()]);
        }
        if f < self.gbest_fitness {
            self.gbest_fitness = f;
            self.gbest_position.copy_from_slice(&self.positions[span]);
        }
    }

    /// Evaluate fitness at every particle, updating pbest/gbest.
    fn evaluate<F: Fn(&[f64]) -> f64>(&mut self, fitness: &F) {
        for i in 0..self.n_particles() {
            let f = fitness(self.position(i));
            self.record(i, f);
        }
    }

    /// Record externally computed fitness values (aligned with particle
    /// order), updating pbest/gbest — the `tell`-side half of
    /// [`Pso::evaluate`].
    fn record_fitnesses(&mut self, fitnesses: &[f64]) {
        assert_eq!(
            fitnesses.len(),
            self.n_particles(),
            "tell: got {} fitness values for {} particles",
            fitnesses.len(),
            self.n_particles()
        );
        for (i, &f) in fitnesses.iter().enumerate() {
            self.record(i, f);
        }
    }

    /// Move every particle per the velocity/position update rules, slot
    /// by slot in particle-major order, drawing each slot's `r1` then
    /// `r2` right before its move.
    fn move_particles(&mut self) {
        // Drawing from a local copy keeps the generator's state in
        // registers; through `self` it round-trips memory on every draw.
        let mut rng = self.rng.clone();
        let w = Weights {
            inertia: self.inertia,
            cognitive: self.cognitive,
            social: self.social,
        };
        let per_dim = self.axes.iter().zip(&self.gbest_position).cycle();
        for (((x, v), pbest), (axis, gbest)) in self
            .positions
            .iter_mut()
            .zip(&mut self.velocities)
            .zip(&self.best_positions)
            .zip(per_dim)
        {
            let r = (rng.gen(), rng.gen());
            move_slot(x, v, *pbest, *gbest, r, w, axis);
        }
        self.rng = rng;
    }
}

impl BatchOptimizer for Pso {
    fn ask(&self) -> Vec<Vec<f64>> {
        self.positions
            .chunks_exact(self.dims)
            .map(<[f64]>::to_vec)
            .collect()
    }

    fn tell(&mut self, fitnesses: &[f64]) {
        self.record_fitnesses(fitnesses);
        self.move_particles();
        self.iterations += 1;
    }
}

impl Optimizer for Pso {
    fn step<F: Fn(&[f64]) -> f64>(&mut self, fitness: &F) {
        self.evaluate(fitness);
        self.move_particles();
        self.iterations += 1;
    }

    fn best_position(&self) -> &[f64] {
        &self.gbest_position
    }

    fn best_fitness(&self) -> f64 {
        self.gbest_fitness
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sphere(x: &[f64]) -> f64 {
        x.iter().map(|v| v * v).sum()
    }

    fn space3() -> SearchSpace {
        SearchSpace::new(vec![(-10.0, 10.0); 3])
    }

    #[test]
    fn converges_on_sphere() {
        let mut pso = Pso::new(space3(), PsoConfig::default());
        let (best, f) = pso.run(&sphere, 120);
        assert!(f < 1e-3, "fitness {f}");
        assert!(best.iter().all(|v| v.abs() < 0.1), "{best:?}");
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut p = Pso::new(
                space3(),
                PsoConfig {
                    seed,
                    ..Default::default()
                },
            );
            p.run(&sphere, 30)
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5).0, run(6).0);
    }

    #[test]
    fn best_fitness_is_monotone_nonincreasing() {
        let mut pso = Pso::new(space3(), PsoConfig::default());
        let mut last = f64::INFINITY;
        for _ in 0..50 {
            pso.step(&sphere);
            assert!(pso.best_fitness() <= last);
            last = pso.best_fitness();
        }
    }

    #[test]
    fn positions_stay_in_space() {
        let space = SearchSpace::new(vec![(0.0, 1.0), (0.0, 10.0)]);
        let mut pso = Pso::new(space.clone(), PsoConfig::default());
        let shifted = |x: &[f64]| (x[0] - 0.3).powi(2) + (x[1] - 7.0).powi(2);
        for _ in 0..40 {
            pso.step(&shifted);
            for i in 0..pso.n_particles() {
                assert!(space.contains(pso.position(i)), "{:?}", pso.position(i));
            }
        }
    }

    #[test]
    fn finds_offset_optimum_in_ecolife_like_space() {
        let space = SearchSpace::placement(2, 11);
        let mut pso = Pso::new(space, PsoConfig::default());
        // Optimum at (old hardware, period index 8).
        let f = |x: &[f64]| (x[0] - 0.2).powi(2) + ((x[1] - 8.0) / 10.0).powi(2);
        let (best, _) = pso.run(&f, 80);
        assert!(best[0] < 0.5);
        assert!((best[1] - 8.0).abs() < 1.0, "{best:?}");
    }

    #[test]
    fn iteration_counter_advances() {
        let mut pso = Pso::new(space3(), PsoConfig::default());
        assert_eq!(pso.iterations(), 0);
        pso.run(&sphere, 7);
        assert_eq!(pso.iterations(), 7);
        assert_eq!(pso.n_particles(), 15);
    }

    #[test]
    fn ask_tell_is_equivalent_to_step() {
        let mut stepped = Pso::new(space3(), PsoConfig::default());
        let mut batched = Pso::new(space3(), PsoConfig::default());
        for _ in 0..20 {
            stepped.step(&sphere);
            let batch = batched.ask();
            let fitnesses: Vec<f64> = batch.iter().map(|x| sphere(x)).collect();
            batched.tell(&fitnesses);
        }
        assert_eq!(stepped.best_position(), batched.best_position());
        assert_eq!(stepped.best_fitness(), batched.best_fitness());
        assert_eq!(stepped.iterations(), batched.iterations());
    }

    #[test]
    #[should_panic(expected = "tell: got")]
    fn tell_rejects_misaligned_batch() {
        let mut pso = Pso::new(space3(), PsoConfig::default());
        pso.tell(&[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "≥2 particles")]
    fn rejects_tiny_swarm() {
        Pso::new(
            space3(),
            PsoConfig {
                n_particles: 1,
                ..Default::default()
            },
        );
    }
}
