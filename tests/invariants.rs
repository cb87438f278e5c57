//! Property-based invariants spanning crates: the carbon model, the
//! objective, the warm pool, and the simulator must hold structural
//! properties for *any* input, not just the calibrated points.

use ecolife::carbon::CarbonFootprint;
use ecolife::prelude::*;
use proptest::prelude::*;

/// One node of every catalog SKU, oldest CPU first.
fn catalog_fleet() -> Fleet {
    skus::fleet_of(&Sku::ALL)
}

fn any_node() -> impl Strategy<Value = NodeId> {
    (0..Sku::ALL.len() as u32).prop_map(NodeId)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Carbon of any phase is non-negative, finite, and monotone in
    /// duration, memory, and CI.
    #[test]
    fn carbon_model_monotonicity(
        id in any_node(),
        mem in 64u64..8_192,
        dur in 1u64..3_600_000,
        ci in 20.0f64..900.0,
    ) {
        let fleet = catalog_fleet();
        let node = fleet.node(id);
        let model = CarbonModel::default();
        for phase in [
            model.active_phase(node, mem, dur, ci),
            model.keepalive_phase(node, mem, dur, ci),
        ] {
            prop_assert!(phase.total_g().is_finite());
            prop_assert!(phase.operational_g >= 0.0 && phase.embodied_g >= 0.0);
        }
        let base = model.keepalive_phase(node, mem, dur, ci).total_g();
        prop_assert!(model.keepalive_phase(node, mem, dur * 2, ci).total_g() >= base);
        prop_assert!(model.keepalive_phase(node, mem * 2, dur, ci).total_g() >= base);
        prop_assert!(model.keepalive_phase(node, mem, dur, ci * 2.0).total_g() >= base);
    }

    /// The normalized objective is finite and non-negative over the whole
    /// decision grid for any profile and CI.
    #[test]
    fn objective_is_well_scaled(
        exec in 50u64..30_000,
        cold in 100u64..10_000,
        mem in 64u64..8_192,
        sens in 0.0f64..1.0,
        ci in 20.0f64..900.0,
        p in 0.0f64..1.0,
        id in any_node(),
        k_min in 0u64..=10,
    ) {
        let f = FunctionProfile::new("prop", exec, cold, mem, sens);
        let cost = CostModel::new(catalog_fleet(), CarbonModel::default(), 0.5, 0.5, 600_000);
        let k_ms = k_min * 60_000;
        let resident = p * k_ms as f64;
        let obj = cost.expected_objective(&f, id, k_ms, p, resident, &cost.uniform_ci(ci), None);
        prop_assert!(obj.is_finite());
        prop_assert!(obj >= 0.0);
        prop_assert!(obj < 10.0, "objective {obj} badly normalized");
    }

    /// Warm starts are never slower than cold starts, anywhere.
    #[test]
    fn warm_never_slower_than_cold(
        exec in 1u64..60_000,
        cold in 0u64..20_000,
        sens in 0.0f64..1.0,
        id in any_node(),
    ) {
        let f = FunctionProfile::new("prop", exec, cold, 128, sens);
        let cost = CostModel::new(catalog_fleet(), CarbonModel::default(), 0.5, 0.5, 600_000);
        prop_assert!(cost.warm_service_ms(id, &f) <= cost.cold_service_ms(id, &f));
    }

    /// Footprint arithmetic: addition commutes and total always equals
    /// the component sum.
    #[test]
    fn footprint_arithmetic(
        a_op in 0.0f64..1e6, a_em in 0.0f64..1e6,
        b_op in 0.0f64..1e6, b_em in 0.0f64..1e6,
    ) {
        let a = CarbonFootprint::new(a_op, a_em);
        let b = CarbonFootprint::new(b_op, b_em);
        prop_assert_eq!(a + b, b + a);
        let s = a + b;
        prop_assert!((s.total_g() - (s.operational_g + s.embodied_g)).abs() < 1e-9);
    }

    /// A full simulation conserves invocations and never produces
    /// negative or non-finite aggregates, for arbitrary small workloads
    /// and pool budgets.
    #[test]
    fn simulation_conservation(
        seed in 0u64..500,
        n_funcs in 2usize..10,
        old_gib in 1u64..8,
        new_gib in 1u64..8,
    ) {
        let trace = SynthTraceConfig {
            n_functions: n_funcs,
            duration_min: 30,
            seed,
            ..Default::default()
        }
        .generate(&WorkloadCatalog::sebs());
        let ci = CarbonIntensityTrace::constant(250.0, 60);
        let fleet = skus::fleet_a()
            .with_keepalive_budget_mib(NodeId(0), old_gib * 1024)
            .with_keepalive_budget_mib(NodeId(1), new_gib * 1024);
        let mut eco = EcoLife::new(fleet.clone(), EcoLifeConfig::default());
        let (summary, metrics) = run_scheme(&trace, &ci, &fleet, &mut eco);
        prop_assert_eq!(summary.invocations, trace.len());
        prop_assert!(summary.total_carbon_g.is_finite() && summary.total_carbon_g >= 0.0);
        prop_assert!(summary.total_energy_kwh.is_finite() && summary.total_energy_kwh >= 0.0);
        prop_assert!(metrics.warm_starts() + metrics.cold_starts() == trace.len());
    }

    /// Oracle-family schemes never mis-handle arbitrary gap structures:
    /// warm starts only ever happen within a scheduled keep-alive.
    #[test]
    fn oracle_warm_starts_are_justified(seed in 0u64..200) {
        let trace = SynthTraceConfig {
            n_functions: 6,
            duration_min: 45,
            seed,
            ..Default::default()
        }
        .generate(&WorkloadCatalog::sebs());
        let ci = CarbonIntensityTrace::constant(300.0, 60);
        let fleet = skus::fleet_a();
        let mut oracle = BruteForce::oracle(fleet.clone());
        let (_, metrics) = run_scheme(&trace, &ci, &fleet, &mut oracle);
        // A warm start implies a prior invocation of the same function.
        let mut seen = std::collections::HashSet::new();
        for r in &metrics.records {
            if r.warm {
                prop_assert!(seen.contains(&r.func), "warm start without history");
            }
            seen.insert(r.func);
        }
    }
}
