//! Property tests shared by all three optimizers: respect the search
//! space, never regress the best-so-far, and stay deterministic.

use ecolife_pso::{
    DpsoConfig, DynamicPso, GaConfig, GeneticAlgorithm, Optimizer, Pso, PsoConfig, SaConfig,
    SearchSpace, SimulatedAnnealing,
};
use proptest::prelude::*;

/// Random boxes with a dimension count drawn from `dims`.
fn space_strategy(dims: std::ops::Range<usize>) -> impl Strategy<Value = SearchSpace> {
    prop::collection::vec((-100.0f64..100.0, 0.1f64..200.0), dims)
        .prop_map(|dims| SearchSpace::new(dims.into_iter().map(|(lo, w)| (lo, lo + w)).collect()))
}

fn check_optimizer<O: Optimizer>(opt: &mut O, space: &SearchSpace) -> Result<(), TestCaseError> {
    // A shifted quadratic with its optimum at 30% along each dimension.
    let target: Vec<f64> = space
        .bounds()
        .iter()
        .map(|(lo, hi)| lo + 0.3 * (hi - lo))
        .collect();
    let f = move |x: &[f64]| -> f64 {
        x.iter()
            .zip(&target)
            .map(|(xi, ti)| (xi - ti) * (xi - ti))
            .sum()
    };
    let mut last = f64::INFINITY;
    for _ in 0..25 {
        opt.step(&f);
        prop_assert!(opt.best_fitness() <= last, "best fitness regressed");
        prop_assert!(
            space.contains(opt.best_position()),
            "best position escaped the space"
        );
        last = opt.best_fitness();
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn pso_respects_space_and_monotonicity(space in space_strategy(1..4), seed in 0u64..1_000) {
        let mut pso = Pso::new(space.clone(), PsoConfig { seed, ..Default::default() });
        check_optimizer(&mut pso, &space)?;
    }

    /// EcoLife's swarm is two-dimensional (keep-alive location × period).
    #[test]
    fn dpso_respects_space_even_with_perception(space in space_strategy(2..3), seed in 0u64..1_000, df in 0.0f64..1.0, dci in 0.0f64..1.0) {
        let cfg = DpsoConfig {
            base: PsoConfig { seed, ..Default::default() },
            ..Default::default()
        };
        let mut dpso = DynamicPso::new(space.clone(), cfg);
        check_optimizer(&mut dpso, &space)?;
        dpso.perceive(df, dci);
        let (w, c) = dpso.weights();
        prop_assert!((0.5..=1.0).contains(&w), "ω out of range: {w}");
        prop_assert!((0.3..=1.0).contains(&c), "c out of range: {c}");
        check_optimizer(&mut dpso, &space)?;
    }

    #[test]
    fn ga_respects_space_and_monotonicity(space in space_strategy(1..4), seed in 0u64..1_000) {
        let mut ga = GeneticAlgorithm::new(space.clone(), GaConfig { seed, ..Default::default() });
        check_optimizer(&mut ga, &space)?;
    }

    #[test]
    fn sa_respects_space_and_monotonicity(space in space_strategy(1..4), seed in 0u64..1_000) {
        let mut sa = SimulatedAnnealing::new(space.clone(), SaConfig { seed, ..Default::default() });
        check_optimizer(&mut sa, &space)?;
    }
}
