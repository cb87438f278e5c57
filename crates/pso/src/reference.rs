//! The per-particle swarm that both shipped swarms replaced, kept as the
//! test oracle: every particle owns its position, velocity and personal
//! best as separate vectors, and a movement draws each slot's `r1`/`r2`
//! right before updating it. The planner's flat N-dimensional [`Pso`] —
//! through [`Optimizer::step`] and
//! [`BatchOptimizer::ask`]/[`BatchOptimizer::tell`] — and EcoLife's 2-D
//! [`DynamicPso`] — through [`Optimizer::step`],
//! [`DynamicPso::perceive`] and [`DynamicPso::refresh_gbest`] — must
//! each match it bit for bit.

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

/// One particle's state as bits.
#[derive(Debug, PartialEq)]
struct ParticleBits {
    position: Vec<u64>,
    velocity: Vec<u64>,
    best_position: Vec<u64>,
    best_fitness: u64,
}

impl ParticleBits {
    fn of(position: &[f64], velocity: &[f64], best_position: &[f64], best_fitness: f64) -> Self {
        ParticleBits {
            position: bits(position),
            velocity: bits(velocity),
            best_position: bits(best_position),
            best_fitness: best_fitness.to_bits(),
        }
    }
}

/// Every piece of a swarm's state as bits, the RNG's next draw included.
struct SwarmBits {
    particles: Vec<ParticleBits>,
    gbest_position: Vec<u64>,
    gbest_fitness: u64,
    /// ω, c1, c2.
    weights: [u64; 3],
    next_draw: u64,
}

impl SwarmBits {
    fn of(
        particles: Vec<ParticleBits>,
        gbest_position: &[f64],
        gbest_fitness: f64,
        weights: [f64; 3],
        rng: &SmallRng,
    ) -> Self {
        SwarmBits {
            particles,
            gbest_position: bits(gbest_position),
            gbest_fitness: gbest_fitness.to_bits(),
            weights: weights.map(f64::to_bits),
            next_draw: rng.clone().gen::<f64>().to_bits(),
        }
    }
}

fn bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

/// The swarm under test.
enum Subject {
    /// The planner's N-dimensional swarm.
    Flat(Pso),
    /// EcoLife's 2-D swarm.
    Dynamic(DynamicPso),
}

/// Bit-equality of every piece of swarm state, field by field.
fn assert_same_swarm(subject: &Subject, reference: &ReferencePso) -> Result<(), TestCaseError> {
    let got = match subject {
        Subject::Flat(s) => {
            let dims = s.space().dims();
            let particles = (0..s.n_particles())
                .map(|i| {
                    let span = i * dims..(i + 1) * dims;
                    ParticleBits::of(
                        &s.positions[span.clone()],
                        &s.velocities[span.clone()],
                        &s.best_positions[span],
                        s.best_fitness[i],
                    )
                })
                .collect();
            let weights = [s.inertia, s.cognitive, s.social];
            SwarmBits::of(
                particles,
                &s.gbest_position,
                s.gbest_fitness,
                weights,
                &s.rng,
            )
        }
        Subject::Dynamic(s) => {
            let particles = s
                .particles
                .iter()
                .map(|p| ParticleBits::of(&p.x, &p.v, &p.best, p.best_fitness))
                .collect();
            let w = s.weights;
            let weights = [w.inertia, w.cognitive, w.social];
            SwarmBits::of(particles, &s.gbest, s.gbest_fitness, weights, &s.rng)
        }
    };
    let want = SwarmBits::of(
        reference
            .particles
            .iter()
            .map(|p| ParticleBits::of(&p.position, &p.velocity, &p.best_position, p.best_fitness))
            .collect(),
        &reference.gbest_position,
        reference.gbest_fitness,
        [reference.inertia, reference.cognitive, reference.social],
        &reference.rng,
    );
    prop_assert_eq!(got.particles.len(), want.particles.len());
    for (i, (g, w)) in got.particles.iter().zip(&want.particles).enumerate() {
        prop_assert_eq!(g, w, "particle {}", i);
    }
    prop_assert_eq!(got.gbest_position, want.gbest_position, "gbest");
    prop_assert_eq!(got.gbest_fitness, want.gbest_fitness, "gbest fitness");
    prop_assert_eq!(got.weights, want.weights, "weights");
    prop_assert_eq!(got.next_draw, want.next_draw, "next draw");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn flat_swarm_matches_the_per_particle_swarm(
        shape in (0usize..6, 2usize..24, 0u64..1_000_000),
        boxes in prop::collection::vec((-100.0f64..100.0, 0.1f64..200.0), 5..6),
        ops in prop::collection::vec((0u32..4, 0.0f64..1.0, 0.0f64..1.0), 1..40),
    ) {
        // Half the cases run EcoLife's 2-D swarm, half the planner's
        // swarm at 1, 2 and 5 dimensions.
        let (choice, n_particles, seed) = shape;
        let dims = [2, 2, 2, 1, 2, 5][choice];
        let space = SearchSpace::new(boxes[..dims].iter().map(|&(lo, w)| (lo, lo + w)).collect());
        let config = DpsoConfig {
            base: PsoConfig { n_particles, seed, ..Default::default() },
            ..Default::default()
        };
        let mut subject = if choice < 3 {
            Subject::Dynamic(DynamicPso::new(space.clone(), config))
        } else {
            Subject::Flat(Pso::new(space.clone(), config.base))
        };
        let mut reference = ReferencePso::new(space.clone(), config.base);
        assert_same_swarm(&subject, &reference)?;
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
            match (&mut subject, op) {
                (Subject::Flat(flat), 1 | 3) => {
                    let batch = flat.ask();
                    prop_assert_eq!(batch.len(), n_particles);
                    let fitnesses: Vec<f64> = batch.iter().map(|x| fitness(x)).collect();
                    flat.tell(&fitnesses);
                    reference.tell(&fitnesses);
                }
                (Subject::Flat(flat), _) => {
                    flat.step(&fitness);
                    reference.step(&fitness);
                }
                // Perception with a change above the threshold (half the
                // swarm redistributed) or, scaled down, mostly below it.
                (Subject::Dynamic(dynamic), 2 | 3) => {
                    let scale = if op == 2 { 1.0 } else { 0.04 };
                    dynamic.perceive(a * scale, b * scale);
                    reference.perceive(&config, a * scale, b * scale);
                    dynamic.refresh_gbest(&fitness);
                    reference.gbest_fitness = fitness(&reference.gbest_position);
                }
                (Subject::Dynamic(dynamic), _) => {
                    dynamic.step(&fitness);
                    reference.step(&fitness);
                }
            }
            assert_same_swarm(&subject, &reference)?;
        }
    }
}
