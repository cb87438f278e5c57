//! §VI-A decision-making overhead — the paper bounds EcoLife's
//! decision-making at < 0.4% of service time and < 1.2% of carbon.
//!
//! A full simulated run through `run_scheme`, which sums the wall-clock
//! time of every KDM+EPDM decision step (the per-invocation work EcoLife
//! adds to the platform's critical path), reports the mean decision time
//! and the end-to-end overhead fraction.

use ecolife_bench::EvalSetup;
use ecolife_core::run_scheme;

fn print_overhead() {
    let setup = EvalSetup::standard();
    let (sum, m) = run_scheme(&setup.trace, &setup.ci, &setup.fleet, &mut setup.ecolife());
    println!("\n=== §VI-A: decision-making overhead ===");
    println!(
        "invocations: {}, total decision time: {:.1} ms, mean {:.1} µs/decision",
        sum.invocations,
        m.decision_overhead_ns as f64 / 1e6,
        m.decision_overhead_ns as f64 / 1e3 / sum.invocations.max(1) as f64
    );
    println!(
        "overhead fraction of service time: {:.4}% (paper bound: < 0.4%)\n",
        100.0 * sum.decision_overhead_fraction
    );
}

fn main() {
    print_overhead();
}
