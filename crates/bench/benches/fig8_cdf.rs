//! Fig. 8 — cumulative distribution of per-invocation service time and
//! carbon footprint: EcoLife tracks the Oracle percentile by percentile.
//!
//! Also reports the paper's companion statistics: P95 latency within 15%
//! of the Oracle's service time, and (§VI-A) decision-making overhead
//! below 0.4% of service time. `run_scheme` sums the wall-clock time of
//! every KDM+EPDM decision step (the per-invocation work EcoLife adds to
//! the platform's critical path), so the one EcoLife run also gives the
//! decision count and the total and mean decision time.

use ecolife_bench::EvalSetup;
use ecolife_core::run_scheme;

fn print_fig8() {
    let setup = EvalSetup::standard();
    let (eco_sum, eco) = run_scheme(&setup.trace, &setup.ci, &setup.fleet, &mut setup.ecolife());
    let (_, oracle) = run_scheme(&setup.trace, &setup.ci, &setup.fleet, &mut setup.oracle());

    println!("\n=== Fig. 8: per-invocation CDFs, EcoLife vs Oracle ===");
    println!(
        "{:>11} {:>14} {:>14} {:>13} {:>13}",
        "percentile", "eco svc ms", "orc svc ms", "eco CO2 g", "orc CO2 g"
    );
    let es = eco.service_cdf();
    let os = oracle.service_cdf();
    let ec = eco.carbon_cdf();
    let oc = oracle.carbon_cdf();
    for q in [0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 1.00] {
        let idx = |len: usize| ((q * len as f64).ceil() as usize).clamp(1, len) - 1;
        println!(
            "{:>10.0}% {:>14} {:>14} {:>13.5} {:>13.5}",
            q * 100.0,
            es[idx(es.len())],
            os[idx(os.len())],
            ec[idx(ec.len())],
            oc[idx(oc.len())]
        );
    }
    let p95_gap = 100.0
        * (eco.service_percentile_ms(0.95) as f64 / oracle.service_percentile_ms(0.95) as f64
            - 1.0);
    println!("\nP95 service gap vs Oracle: {p95_gap:+.1}% (paper bound: within 15%)");
    println!(
        "EcoLife decisions: {}, total decision time: {:.1} ms, mean {:.1} µs/decision",
        eco_sum.invocations,
        eco.decision_overhead_ns as f64 / 1e6,
        eco.decision_overhead_ns as f64 / 1e3 / eco_sum.invocations.max(1) as f64
    );
    println!(
        "EcoLife decision overhead: {:.4}% of service time (paper bound: < 0.4%)\n",
        100.0 * eco_sum.decision_overhead_fraction
    );
}

fn main() {
    print_fig8();
}
