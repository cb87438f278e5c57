//! EcoLife's Dynamic PSO (Sec. IV-C, Fig. 5).
//!
//! Two mechanisms on top of the vanilla swarm:
//!
//! * **Adaptive weights** driven by the normalized environment deltas
//!   `δF = ΔF/ΔF_max` and `δCI = ΔCI/ΔCI_max`:
//!
//!   ```text
//!   ω       = ω_max · (δF + δCI)           (clamped to [ω_min, ω_max])
//!   c1 = c2 = c_max · (1 − δF − δCI)       (clamped to [c_min, c_max])
//!   ```
//!
//!   Large environment change → high inertia (keep moving, explore);
//!   stable environment → strong cognitive/social pull (exploit).
//!
//! * **Perception–response**: when a change is perceived (δF + δCI above
//!   a small threshold), half of the swarm is redistributed uniformly at
//!   random over the search space while the other half retains position —
//!   "providing the PSO optimizer with a level of memory".
//!
//! The search space is EcoLife's (keep-alive location × keep-alive
//! period), so the swarm is two-dimensional by construction: one `Vec` of
//! fixed-size particle records, with the global best, the weights and the
//! axes held inline. Every invocation of a function runs its swarm, so
//! one swarm is one allocation and a step touches nothing else. Moves go
//! through `move_slot`, the rule the N-dimensional [`Pso`](crate::Pso)
//! moves by, so both swarms take the same trajectory through a 2-D space.

use crate::pso::{move_slot, Axis, PsoConfig, Weights};
use crate::space::SearchSpace;
use crate::Optimizer;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Weight ranges, matching Sec. V: ω ∈ [0.5, 1.0], c ∈ [0.3, 1.0].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DpsoConfig {
    pub base: PsoConfig,
    pub omega_min: f64,
    pub omega_max: f64,
    pub c_min: f64,
    pub c_max: f64,
    /// Perceived-change threshold on `δF + δCI` that triggers the
    /// half-swarm redistribution.
    pub perception_threshold: f64,
}

impl Default for DpsoConfig {
    fn default() -> Self {
        DpsoConfig {
            base: PsoConfig::default(),
            omega_min: 0.5,
            omega_max: 1.0,
            c_min: 0.3,
            c_max: 1.0,
            perception_threshold: 0.05,
        }
    }
}

impl DpsoConfig {
    /// Reject weight ranges [`DynamicPso::perceive`] cannot clamp into —
    /// non-finite bounds or `min > max`, which would otherwise panic
    /// inside `f64::clamp` at the first perception — a non-finite
    /// perception threshold (`change > NaN` never holds, so a NaN would
    /// silently switch perception–response off), and an invalid base
    /// swarm (called by [`DynamicPso::new`]).
    pub fn validate(&self) {
        self.base.validate();
        for (name, bound) in [
            ("omega_min", self.omega_min),
            ("omega_max", self.omega_max),
            ("c_min", self.c_min),
            ("c_max", self.c_max),
        ] {
            assert!(bound.is_finite(), "DPSO {name} must be finite, got {bound}");
        }
        assert!(
            self.omega_min <= self.omega_max,
            "DPSO inertia range is empty: omega_min {} > omega_max {}",
            self.omega_min,
            self.omega_max
        );
        assert!(
            self.c_min <= self.c_max,
            "DPSO coefficient range is empty: c_min {} > c_max {}",
            self.c_min,
            self.c_max
        );
        assert!(
            self.perception_threshold.is_finite(),
            "DPSO perception_threshold must be finite, got {}",
            self.perception_threshold
        );
    }
}

/// One particle: its position, velocity and personal best.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Particle {
    pub(crate) x: [f64; 2],
    pub(crate) v: [f64; 2],
    pub(crate) best: [f64; 2],
    pub(crate) best_fitness: f64,
}

impl Particle {
    /// A particle at rest at a uniform position, with no memory yet.
    fn sampled(axes: &[Axis; 2], rng: &mut SmallRng) -> Self {
        let x = [axes[0].sample(rng), axes[1].sample(rng)];
        Particle {
            x,
            v: [0.0; 2],
            best: x,
            best_fitness: f64::INFINITY,
        }
    }
}

/// The dynamic swarm. Construct once per serverless function and keep it
/// alive across invocations ("For each new invocation of a serverless
/// function, EcoLife assigns a PSO optimizer and preserves it").
#[derive(Debug, Clone)]
pub struct DynamicPso {
    pub(crate) particles: Vec<Particle>,
    pub(crate) gbest: [f64; 2],
    pub(crate) gbest_fitness: f64,
    pub(crate) rng: SmallRng,
    pub(crate) weights: Weights,
    axes: [Axis; 2],
    config: DpsoConfig,
    redistributions: u64,
}

impl DynamicPso {
    /// Initialize `config.base.n_particles` particles uniformly over
    /// `space`, which must be two-dimensional (keep-alive location ×
    /// period, [`SearchSpace::placement`]). Fitness is lazily evaluated
    /// on the first [`Optimizer::step`].
    pub fn new(space: SearchSpace, config: DpsoConfig) -> Self {
        config.validate();
        assert_eq!(
            space.dims(),
            2,
            "DynamicPso searches a two-dimensional space (keep-alive location × period), got {} dimensions",
            space.dims()
        );
        let axes = [Axis::of(&space, 0), Axis::of(&space, 1)];
        let mut rng = SmallRng::seed_from_u64(config.base.seed);
        let particles: Vec<Particle> = (0..config.base.n_particles)
            .map(|_| Particle::sampled(&axes, &mut rng))
            .collect();
        DynamicPso {
            gbest: particles[0].x,
            gbest_fitness: f64::INFINITY,
            particles,
            rng,
            weights: Weights {
                inertia: config.base.inertia,
                cognitive: config.base.cognitive,
                social: config.base.social,
            },
            axes,
            config,
            redistributions: 0,
        }
    }

    /// Number of perception-triggered half-swarm redistributions so far.
    pub fn redistributions(&self) -> u64 {
        self.redistributions
    }

    /// Current (ω, c1=c2) weights.
    pub fn weights(&self) -> (f64, f64) {
        (self.weights.inertia, self.weights.cognitive)
    }

    /// Feed the normalized environment deltas (`δF`, `δCI` ∈ [0, 1]):
    /// recompute the weights and, if the perceived change exceeds the
    /// threshold, redistribute half the swarm.
    pub fn perceive(&mut self, delta_f: f64, delta_ci: f64) {
        let df = delta_f.clamp(0.0, 1.0);
        let dci = delta_ci.clamp(0.0, 1.0);
        let change = df + dci;

        let omega =
            (self.config.omega_max * change).clamp(self.config.omega_min, self.config.omega_max);
        let c = (self.config.c_max * (1.0 - change)).clamp(self.config.c_min, self.config.c_max);
        self.weights = Weights {
            inertia: omega,
            cognitive: c,
            social: c,
        };

        if change > self.config.perception_threshold {
            self.redistribute_half();
        }
    }

    /// Randomly redistribute the first half of the swarm; reset the
    /// redistributed particles' velocities and personal bests (their old
    /// memories refer to a stale environment) but keep the global best
    /// as an anchor.
    fn redistribute_half(&mut self) {
        let half = self.particles.len() / 2;
        for p in &mut self.particles[..half] {
            *p = Particle::sampled(&self.axes, &mut self.rng);
        }
        self.redistributions += 1;
    }

    /// When the environment changed, the previous global best fitness may
    /// be stale; callers re-anchor it by re-evaluating under the current
    /// fitness before stepping.
    pub fn refresh_gbest<F: Fn(&[f64]) -> f64>(&mut self, fitness: &F) {
        self.gbest_fitness = fitness(&self.gbest);
    }
}

impl Optimizer for DynamicPso {
    /// Evaluate every particle in order, updating its personal best and
    /// the global best, then move every particle.
    fn step<F: Fn(&[f64]) -> f64>(&mut self, fitness: &F) {
        for p in &mut self.particles {
            let f = fitness(&p.x);
            if f < p.best_fitness {
                p.best_fitness = f;
                p.best = p.x;
            }
            if f < self.gbest_fitness {
                self.gbest_fitness = f;
                self.gbest = p.x;
            }
        }
        // Drawing from a local copy keeps the generator's state in
        // registers; through `self` it round-trips memory on every draw.
        let mut rng = self.rng.clone();
        let (w, gbest, axes) = (self.weights, self.gbest, self.axes);
        for p in &mut self.particles {
            for d in 0..2 {
                let r = (rng.gen(), rng.gen());
                move_slot(
                    &mut p.x[d],
                    &mut p.v[d],
                    p.best[d],
                    gbest[d],
                    r,
                    w,
                    &axes[d],
                );
            }
        }
        self.rng = rng;
    }

    fn best_position(&self) -> &[f64] {
        &self.gbest
    }

    fn best_fitness(&self) -> f64 {
        self.gbest_fitness
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> SearchSpace {
        SearchSpace::new(vec![(-10.0, 10.0); 2])
    }

    #[test]
    fn weights_respond_to_environment_change() {
        let mut d = DynamicPso::new(space(), DpsoConfig::default());
        // Stable environment → minimal inertia, maximal exploitation.
        d.perceive(0.0, 0.0);
        let (w, c) = d.weights();
        assert_eq!(w, 0.5);
        assert_eq!(c, 1.0);
        // Full change → maximal inertia, minimal exploitation.
        d.perceive(1.0, 1.0);
        let (w, c) = d.weights();
        assert_eq!(w, 1.0);
        assert_eq!(c, 0.3);
        // Mid change.
        d.perceive(0.35, 0.35);
        let (w, c) = d.weights();
        assert!((w - 0.7).abs() < 1e-12);
        assert!((c - 0.3).abs() < 1e-12);
    }

    #[test]
    fn perception_triggers_redistribution_only_above_threshold() {
        let mut d = DynamicPso::new(space(), DpsoConfig::default());
        d.perceive(0.0, 0.0);
        assert_eq!(d.redistributions(), 0);
        d.perceive(0.01, 0.02);
        assert_eq!(d.redistributions(), 0);
        d.perceive(0.5, 0.0);
        assert_eq!(d.redistributions(), 1);
        d.perceive(0.0, 0.9);
        assert_eq!(d.redistributions(), 2);
    }

    #[test]
    fn half_swarm_retains_positions_on_redistribution() {
        let mut d = DynamicPso::new(space(), DpsoConfig::default());
        let f = |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>();
        d.run(&f, 5);
        let positions = |d: &DynamicPso| d.particles.iter().map(|p| p.x).collect::<Vec<_>>();
        let before = positions(&d);
        d.perceive(1.0, 1.0);
        let after = positions(&d);
        let n = before.len();
        // Second half untouched.
        for i in n / 2..n {
            assert_eq!(before[i], after[i], "particle {i} should retain position");
        }
        // First half moved (probability of an exact collision is 0).
        let moved = (0..n / 2).filter(|&i| before[i] != after[i]).count();
        assert!(moved >= n / 2 - 1);
    }

    #[test]
    fn tracks_moving_optimum_better_than_frozen_swarm() {
        // Converge to one optimum, shift it, and verify the perception
        // response lets DPSO re-converge while a weight-frozen swarm with
        // no redistribution stays trapped near its stale gbest.
        let f1 = |x: &[f64]| (x[0] - 5.0).powi(2) + (x[1] - 5.0).powi(2);
        let f2 = |x: &[f64]| (x[0] + 6.0).powi(2) + (x[1] + 6.0).powi(2);

        let mut dpso = DynamicPso::new(space(), DpsoConfig::default());
        dpso.run(&f1, 60);
        dpso.perceive(1.0, 0.8);
        dpso.refresh_gbest(&f2);
        dpso.run(&f2, 60);

        let mut frozen = DynamicPso::new(space(), DpsoConfig::default());
        frozen.run(&f1, 60);
        // No perceive() call: stale gbest fitness anchors the swarm.
        frozen.run(&f2, 60);

        assert!(
            dpso.best_fitness() < 1e-2,
            "dpso stuck at {}",
            dpso.best_fitness()
        );
        // Frozen swarm keeps reporting the stale optimum (its recorded best
        // fitness refers to f1's basin) — its position stays near (5, 5).
        let fp = frozen.best_position();
        assert!(
            (fp[0] - 5.0).abs() < 1.0 && (fp[1] - 5.0).abs() < 1.0,
            "frozen swarm unexpectedly escaped: {fp:?}"
        );
    }

    #[test]
    fn refresh_gbest_reanchors_fitness() {
        let mut d = DynamicPso::new(space(), DpsoConfig::default());
        let f1 = |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>();
        d.run(&f1, 20);
        let f2 = |x: &[f64]| f1(x) + 100.0;
        d.refresh_gbest(&f2);
        assert!(d.best_fitness() >= 100.0);
    }

    #[test]
    #[should_panic(expected = "inertia range is empty: omega_min 1 > omega_max 0.5")]
    fn rejects_an_inverted_inertia_range() {
        DynamicPso::new(
            space(),
            DpsoConfig {
                omega_min: 1.0,
                omega_max: 0.5,
                ..Default::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "coefficient range is empty")]
    fn rejects_an_inverted_coefficient_range() {
        DpsoConfig {
            c_min: 0.9,
            c_max: 0.3,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "DPSO c_max must be finite, got NaN")]
    fn rejects_a_nan_bound() {
        DpsoConfig {
            c_max: f64::NAN,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "DPSO perception_threshold must be finite, got NaN")]
    fn rejects_a_nan_perception_threshold() {
        DpsoConfig {
            perception_threshold: f64::NAN,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "two-dimensional space (keep-alive location × period), got 3")]
    fn rejects_a_space_of_other_than_two_dimensions() {
        DynamicPso::new(
            SearchSpace::new(vec![(-10.0, 10.0); 3]),
            DpsoConfig::default(),
        );
    }

    #[test]
    #[should_panic(expected = "PSO social weight must be finite")]
    fn rejects_a_nan_base_weight() {
        DpsoConfig {
            base: PsoConfig {
                social: f64::NAN,
                ..Default::default()
            },
            ..Default::default()
        }
        .validate();
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let cfg = DpsoConfig {
                base: PsoConfig {
                    seed,
                    ..Default::default()
                },
                ..Default::default()
            };
            let mut d = DynamicPso::new(space(), cfg);
            let f = |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>();
            d.run(&f, 10);
            d.perceive(0.6, 0.1);
            d.run(&f, 10)
        };
        assert_eq!(run(42), run(42));
    }
}
