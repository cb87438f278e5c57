//! The Oracle baseline's precomputed future knowledge (each
//! invocation's next-arrival gap) is rebuilt on every `prepare`: two runs
//! over the same inputs must emit the same hash-chained event stream
//! ([`CaptureSink`] + [`first_divergence`]). EcoLife's tables path is
//! pinned against its uncached oracle by the unit tests of
//! `ecolife-core`'s `ecolife::reference` module.

use ecolife::prelude::*;
use ecolife::telemetry::diff::first_divergence;

/// Byte-identical streams or a panic naming the first divergent event.
fn assert_same_stream(reference: &CaptureSink, candidate: &CaptureSink, what: &str) {
    if let Some(d) = first_divergence(&reference.lines(), &candidate.lines()) {
        panic!("{what}: streams diverged: {d:?}");
    }
    assert_eq!(candidate.tip(), reference.tip(), "{what}: chain tip");
}

/// The oracle's future knowledge is recomputed on every `prepare`; two
/// runs over the same inputs must emit the same stream.
#[test]
fn oracle_repeat_runs_emit_the_same_stream() {
    let trace = SynthTraceConfig {
        n_functions: 12,
        duration_min: 90,
        seed: 31,
        ..Default::default()
    }
    .generate(&WorkloadCatalog::sebs());
    let ci = CarbonIntensityTrace::synthetic(Region::Caiso, 120, 31);
    let fleet = skus::fleet_a();
    let run = || {
        let mut oracle = BruteForce::oracle(fleet.clone());
        let mut sink = CaptureSink::default();
        Simulation::new(&trace, &ci, fleet.clone()).run_with_sink(&mut oracle, &mut sink);
        sink
    };
    assert_same_stream(&run(), &run(), "oracle repeat runs");
}
