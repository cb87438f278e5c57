//! The per-particle swarm the flat [`Pso`] replaced, kept as the test
//! oracle: every particle owns its position, velocity and personal best
//! as separate vectors, and a movement draws each slot's `r1`/`r2` right
//! before updating it. The flat swarm — through [`Optimizer::step`],
//! [`BatchOptimizer::ask`]/[`BatchOptimizer::tell`] and
//! [`DynamicPso::perceive`] — must match it bit for bit.

use crate::dpso::{DpsoConfig, DynamicPso};
use crate::pso::{Pso, PsoConfig};
use crate::space::SearchSpace;
use crate::{BatchOptimizer, Optimizer};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

struct ReferenceParticle {
    position: Vec<f64>,
    velocity: Vec<f64>,
    best_position: Vec<f64>,
    best_fitness: f64,
}

struct ReferencePso {
    space: SearchSpace,
    particles: Vec<ReferenceParticle>,
    gbest_position: Vec<f64>,
    gbest_fitness: f64,
    rng: SmallRng,
    inertia: f64,
    cognitive: f64,
    social: f64,
}

impl ReferencePso {
    fn new(space: SearchSpace, config: PsoConfig) -> Self {
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let particles: Vec<ReferenceParticle> = (0..config.n_particles)
            .map(|_| {
                let position = space.sample(&mut rng);
                ReferenceParticle {
                    velocity: vec![0.0; space.dims()],
                    best_position: position.clone(),
                    best_fitness: f64::INFINITY,
                    position,
                }
            })
            .collect();
        ReferencePso {
            gbest_position: particles[0].position.clone(),
            gbest_fitness: f64::INFINITY,
            space,
            particles,
            rng,
            inertia: config.inertia,
            cognitive: config.cognitive,
            social: config.social,
        }
    }

    fn record(&mut self, fitnesses: impl IntoIterator<Item = f64>) {
        for (p, f) in self.particles.iter_mut().zip(fitnesses) {
            if f < p.best_fitness {
                p.best_fitness = f;
                p.best_position.clone_from(&p.position);
            }
            if f < self.gbest_fitness {
                self.gbest_fitness = f;
                self.gbest_position.clone_from(&p.position);
            }
        }
    }

    fn move_particles(&mut self) {
        for p in &mut self.particles {
            for d in 0..self.space.dims() {
                let r1: f64 = self.rng.gen();
                let r2: f64 = self.rng.gen();
                let v = self.inertia * p.velocity[d]
                    + self.cognitive * r1 * (p.best_position[d] - p.position[d])
                    + self.social * r2 * (self.gbest_position[d] - p.position[d]);
                let vmax = self.space.extent(d) * 0.5;
                p.velocity[d] = v.clamp(-vmax, vmax);
                p.position[d] += p.velocity[d];
            }
            self.space.clamp(&mut p.position);
        }
    }

    fn step(&mut self, fitness: &dyn Fn(&[f64]) -> f64) {
        let fitnesses: Vec<f64> = self
            .particles
            .iter()
            .map(|p| fitness(&p.position))
            .collect();
        self.tell(&fitnesses);
    }

    fn tell(&mut self, fitnesses: &[f64]) {
        self.record(fitnesses.iter().copied());
        self.move_particles();
    }

    /// [`DynamicPso::perceive`] on the per-particle swarm.
    fn perceive(&mut self, config: &DpsoConfig, delta_f: f64, delta_ci: f64) {
        let change = delta_f.clamp(0.0, 1.0) + delta_ci.clamp(0.0, 1.0);
        self.inertia = (config.omega_max * change).clamp(config.omega_min, config.omega_max);
        let c = (config.c_max * (1.0 - change)).clamp(config.c_min, config.c_max);
        self.cognitive = c;
        self.social = c;
        if change > config.perception_threshold {
            let half = self.particles.len() / 2;
            for p in self.particles.iter_mut().take(half) {
                p.position = self.space.sample(&mut self.rng);
                p.velocity.fill(0.0);
                p.best_position.clone_from(&p.position);
                p.best_fitness = f64::INFINITY;
            }
        }
    }
}

/// Bit-equality of every piece of swarm state, the RNG's next draw
/// included.
fn assert_same_swarm(flat: &Pso, reference: &ReferencePso) -> Result<(), TestCaseError> {
    let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let dims = reference.space.dims();
    prop_assert_eq!(flat.n_particles(), reference.particles.len());
    for (i, p) in reference.particles.iter().enumerate() {
        let span = i * dims..(i + 1) * dims;
        prop_assert_eq!(
            bits(&flat.positions[span.clone()]),
            bits(&p.position),
            "position {}",
            i
        );
        prop_assert_eq!(
            bits(&flat.velocities[span.clone()]),
            bits(&p.velocity),
            "velocity {}",
            i
        );
        prop_assert_eq!(
            bits(&flat.best_positions[span]),
            bits(&p.best_position),
            "pbest {}",
            i
        );
        prop_assert_eq!(
            flat.best_fitness[i].to_bits(),
            p.best_fitness.to_bits(),
            "pbest fitness {}",
            i
        );
    }
    prop_assert_eq!(bits(&flat.gbest_position), bits(&reference.gbest_position));
    prop_assert_eq!(
        flat.gbest_fitness.to_bits(),
        reference.gbest_fitness.to_bits()
    );
    prop_assert_eq!(
        bits(&[flat.inertia, flat.cognitive, flat.social]),
        bits(&[reference.inertia, reference.cognitive, reference.social])
    );
    prop_assert_eq!(
        flat.rng.clone().gen::<f64>().to_bits(),
        reference.rng.clone().gen::<f64>().to_bits()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn flat_swarm_matches_the_per_particle_swarm(
        shape in (0usize..3, 2usize..24, 0u64..1_000_000),
        boxes in prop::collection::vec((-100.0f64..100.0, 0.1f64..200.0), 5..6),
        ops in prop::collection::vec((0u32..4, 0.0f64..1.0, 0.0f64..1.0), 1..40),
    ) {
        let (dims_choice, n_particles, seed) = shape;
        let dims = [1, 2, 5][dims_choice];
        let space = SearchSpace::new(boxes[..dims].iter().map(|&(lo, w)| (lo, lo + w)).collect());
        let config = DpsoConfig {
            base: PsoConfig { n_particles, seed, ..Default::default() },
            ..Default::default()
        };
        let mut flat = DynamicPso::new(space.clone(), config);
        let mut reference = ReferencePso::new(space.clone(), config.base);
        assert_same_swarm(flat.swarm(), &reference)?;
        for (op, a, b) in ops {
            // A plateaued fitness whose optimum moves with `a`: ties and
            // strict improvements both occur, as with EcoLife's decoded
            // landscape.
            let bounds = space.bounds().to_vec();
            let fitness = move |x: &[f64]| -> f64 {
                x.iter()
                    .zip(&bounds)
                    .map(|(xi, (lo, hi))| ((xi - lo - a * (hi - lo)) / (hi - lo) * 6.0).round().powi(2))
                    .sum()
            };
            match op {
                0 => {
                    flat.step(&fitness);
                    reference.step(&fitness);
                }
                1 => {
                    let batch = flat.ask();
                    prop_assert_eq!(batch.len(), n_particles);
                    let fitnesses: Vec<f64> = batch.iter().map(|x| fitness(x)).collect();
                    flat.tell(&fitnesses);
                    reference.tell(&fitnesses);
                }
                // Perception with a change above the threshold (half the
                // swarm redistributed) or, scaled down, mostly below it.
                _ => {
                    let scale = if op == 2 { 1.0 } else { 0.04 };
                    flat.perceive(a * scale, b * scale);
                    reference.perceive(&config, a * scale, b * scale);
                    flat.refresh_gbest(&fitness);
                    reference.gbest_fitness = fitness(&reference.gbest_position);
                }
            }
            assert_same_swarm(flat.swarm(), &reference)?;
        }
    }
}
