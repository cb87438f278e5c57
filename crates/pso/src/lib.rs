//! # ecolife-pso — swarm optimization with EcoLife's dynamic extensions
//!
//! The paper's Keeping-alive Decision Maker is built on Particle Swarm
//! Optimization with two novel extensions (Sec. IV-C):
//!
//! 1. **Adaptive weights** — the inertia `ω` and the cognitive/social
//!    coefficients `c1 = c2` are recomputed from the normalized
//!    environment change signals ΔF (function invocations) and ΔCI
//!    (carbon intensity):
//!
//!    ```text
//!    ω  = ω_max · (ΔF/ΔF_max + ΔCI/ΔCI_max)
//!    c1 = c2 = c_max · (1 − ΔF/ΔF_max − ΔCI/ΔCI_max)
//!    ```
//!
//! 2. **Perception–response** — when a change is perceived, half the
//!    swarm is randomly redistributed over the search space (regaining
//!    exploration), while the other half retains its positions (memory).
//!
//! The crate also implements the two nature-inspired comparators the
//! paper quantifies against (Sec. IV-C): a Genetic Algorithm (crossover
//! 0.6, mutation 0.01, population 15) and Simulated Annealing (T₀ = 100,
//! T_stop = 1, α = 0.9).
//!
//! All optimizers are deterministic given their seed and generic over a
//! fitness closure `f: &[f64] -> f64` (lower is better).

pub mod dpso;
pub mod ga;
pub mod pso;
#[cfg(test)]
mod reference;
pub mod sa;
pub mod space;

pub use dpso::{DpsoConfig, DynamicPso};
pub use ga::{GaConfig, GeneticAlgorithm};
pub use pso::{Pso, PsoConfig};
pub use sa::{SaConfig, SimulatedAnnealing};
pub use space::decode;
pub use space::SearchSpace;

/// Common interface: iterate an optimizer against a fitness function and
/// read the best position found so far.
pub trait Optimizer {
    /// Advance one iteration (one generation / one swarm movement / one
    /// annealing step batch) against `fitness` (lower is better).
    fn step<F: Fn(&[f64]) -> f64>(&mut self, fitness: &F);

    /// Best position found so far.
    fn best_position(&self) -> &[f64];

    /// Fitness of the best position.
    fn best_fitness(&self) -> f64;

    /// Convenience: run `iters` iterations and return the best.
    fn run<F: Fn(&[f64]) -> f64>(&mut self, fitness: &F, iters: usize) -> (Vec<f64>, f64) {
        for _ in 0..iters {
            self.step(fitness);
        }
        (self.best_position().to_vec(), self.best_fitness())
    }
}

/// Ask/tell interface for population optimizers whose iteration is
/// "evaluate every candidate, then move": [`ask`](BatchOptimizer::ask)
/// exposes the generation's positions, the caller evaluates them however
/// it likes (serially, memoized, fanned out over threads), and
/// [`tell`](BatchOptimizer::tell) completes the iteration with the
/// fitness values.
///
/// `ask` followed by `tell` with exact fitness values is equivalent to
/// one [`Optimizer::step`] — the optimizer's own RNG is only consumed in
/// the movement phase, so the trajectory is independent of *how* the
/// batch was evaluated. That is what lets a caller parallelize fitness
/// evaluation (e.g. one simulation per candidate) without giving up
/// seed-determinism.
///
/// Simulated Annealing is deliberately not a `BatchOptimizer`: its walk
/// proposes candidates one at a time, each conditioned on the previous
/// acceptance, so there is no generation to batch.
pub trait BatchOptimizer: Optimizer {
    /// The positions the current iteration will evaluate, in a stable
    /// order.
    fn ask(&self) -> Vec<Vec<f64>>;

    /// Complete the iteration with fitness values aligned to
    /// [`ask`](BatchOptimizer::ask)'s order (lower is better).
    ///
    /// # Panics
    /// Panics when `fitnesses.len()` differs from the size of the batch
    /// returned by `ask`.
    fn tell(&mut self, fitnesses: &[f64]);

    /// One iteration through a batch evaluator: `ask` → `batch_fitness`
    /// → `tell`.
    fn step_batched<F: Fn(&[Vec<f64>]) -> Vec<f64>>(&mut self, batch_fitness: &F) {
        let batch = self.ask();
        let fitnesses = batch_fitness(&batch);
        self.tell(&fitnesses);
    }
}
