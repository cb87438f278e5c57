//! Heap bound of a sharded replay: the coordinator takes every shard's
//! records over at each period barrier, so a sharded run holds one copy
//! of its records (and at most a period of them in the shards), not the
//! shards' copy plus a merged one.
//!
//! The counting global allocator of `tests/support/counting_alloc.rs`
//! tracks the live heap bytes and their peak. This file holds one test,
//! so nothing else allocates while it measures.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use ecolife::prelude::*;
use ecolife::sim::InvocationRecord;

/// 107 600 invocations under a pinned policy on pools nothing fills: no
/// revocation, so the run's records are the sequential run's. The peak
/// heap a sharded run adds must stay under 1.5× its records' bytes at
/// one shard on one thread and at 8 shards on 2 threads. Handing the
/// records over at every barrier reads ~1.15×; a run that merges the
/// shards' full record vectors at the end reads ~2.2×.
#[test]
fn a_sharded_replay_holds_one_copy_of_its_records() {
    let trace = SynthTraceConfig {
        n_functions: 600,
        duration_min: 600,
        seed: 41,
        ..Default::default()
    }
    .generate_scaled(&WorkloadCatalog::sebs());
    let ci = CarbonIntensityTrace::synthetic(Region::Caiso, 630, 41);
    let fleet = skus::fleet_three_generations().with_uniform_keepalive_budget_mib(32_000_000);
    let newest = fleet.newest();
    let sim = Simulation::new(&trace, &ci, fleet);
    let record_bytes = trace.len() * size_of::<InvocationRecord>();
    for (shards, threads) in [(1, 1), (8, 2)] {
        let (m, added) = counting_alloc::peak_added(|| {
            sim.run_sharded(
                |_| FixedPolicy::pinned(newest, 10),
                &ShardOptions::new(shards).with_threads(threads),
            )
        });
        assert_eq!(m.records.len(), trace.len());
        assert_eq!(m.reconcile_revocations, 0);
        let ratio = added as f64 / record_bytes as f64;
        assert!(
            ratio <= 1.5,
            "{shards} shards × {threads} threads: the run's peak heap grew {added} B, \
             {ratio:.2}× its {record_bytes} B of records"
        );
    }
}
