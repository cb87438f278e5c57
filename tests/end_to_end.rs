//! End-to-end integration: the full pipeline (trace → simulator →
//! schedulers → metrics) reproduces the paper's qualitative landscape.

use ecolife::prelude::*;

fn setup() -> (Trace, CarbonIntensityTrace, Fleet) {
    let trace = SynthTraceConfig {
        n_functions: 24,
        duration_min: 360,
        seed: 2024,
        ..Default::default()
    }
    .generate(&WorkloadCatalog::sebs());
    let ci = CarbonIntensityTrace::synthetic(Region::Caiso, 400, 2024);
    let fleet = skus::fleet_a().with_uniform_keepalive_budget_mib(10 * 1024);
    (trace, ci, fleet)
}

fn run_all() -> Vec<RunSummary> {
    let (trace, ci, fleet) = setup();
    let mut schemes: Vec<Box<dyn Scheduler>> = vec![
        Box::new(BruteForce::service_time_opt(fleet.clone(), ci.clone())),
        Box::new(BruteForce::co2_opt(fleet.clone(), ci.clone())),
        Box::new(BruteForce::oracle(fleet.clone(), ci.clone())),
        Box::new(BruteForce::energy_opt(fleet.clone(), ci.clone())),
        Box::new(EcoLife::new(fleet.clone(), EcoLifeConfig::default())),
        Box::new(FixedPolicy::new_only()),
        Box::new(FixedPolicy::old_only()),
    ];
    schemes
        .iter_mut()
        .map(|s| run_scheme(&trace, &ci, &fleet, s).0)
        .collect()
}

#[test]
fn the_evaluation_landscape_holds() {
    let s = run_all();
    let (st, co2, oracle, energy, eco, new_only, old_only) =
        (&s[0], &s[1], &s[2], &s[3], &s[4], &s[5], &s[6]);

    // Anchors anchor.
    for other in &s {
        assert!(
            st.total_service_ms <= other.total_service_ms,
            "{} beat Service-Time-Opt",
            other.name
        );
        assert!(
            co2.total_carbon_g <= other.total_carbon_g * 1.001,
            "{} beat CO2-Opt",
            other.name
        );
    }
    // Energy-Opt minimizes energy.
    for other in &s {
        assert!(
            energy.total_energy_kwh <= other.total_energy_kwh * 1.001,
            "{} beat Energy-Opt on energy",
            other.name
        );
    }

    // Fig. 7: EcoLife within a modest band of the Oracle on both axes.
    let svc_gap = eco.total_service_ms as f64 / oracle.total_service_ms as f64 - 1.0;
    let co2_gap = eco.total_carbon_g / oracle.total_carbon_g - 1.0;
    assert!(
        svc_gap < 0.15,
        "service gap to Oracle {:.1}%",
        100.0 * svc_gap
    );
    assert!(
        co2_gap < 0.20,
        "carbon gap to Oracle {:.1}%",
        100.0 * co2_gap
    );

    // Fig. 9: the single-generation trade-off.
    assert!(new_only.total_service_ms < old_only.total_service_ms);
    assert!(new_only.total_carbon_g > old_only.total_carbon_g);
    // EcoLife saves carbon against New-Only and service against Old-Only.
    assert!(eco.total_carbon_g < new_only.total_carbon_g);
    assert!(eco.total_service_ms < old_only.total_service_ms);
}

#[test]
fn decision_overhead_is_bounded() {
    let (trace, ci, fleet) = setup();
    let (summary, _) = run_scheme(
        &trace,
        &ci,
        &fleet,
        &mut EcoLife::new(fleet.clone(), EcoLifeConfig::default()),
    );
    // `run_scheme` times every decision: a zero means nothing measured.
    assert!(
        summary.decision_overhead_fraction > 0.0,
        "no decision timed"
    );
    // Paper: < 0.4% of service time. Allow 2% headroom for debug builds
    // and noisy CI machines.
    assert!(
        summary.decision_overhead_fraction < 0.02,
        "overhead {:.3}%",
        100.0 * summary.decision_overhead_fraction
    );
}

#[test]
fn every_scheme_accounts_all_invocations() {
    let (trace, _, _) = setup();
    for s in run_all() {
        assert_eq!(s.invocations, trace.len(), "{} lost invocations", s.name);
        assert!(s.total_carbon_g > 0.0);
        assert!(s.total_service_ms > 0);
        assert!(
            (s.operational_g + s.embodied_g - s.total_carbon_g).abs() < 1e-6,
            "{}: carbon split does not add up",
            s.name
        );
    }
}

#[test]
fn ecolife_beats_fixed_policies_jointly() {
    // The headline value proposition: against each fixed policy, EcoLife
    // is better on at least one axis without being much worse on the
    // other — and against New-Only it must win carbon outright.
    let s = run_all();
    let (eco, new_only) = (&s[4], &s[5]);
    assert!(eco.total_carbon_g < 0.9 * new_only.total_carbon_g);
    assert!(eco.total_service_ms as f64 <= 1.15 * new_only.total_service_ms as f64);
}
