//! Heap bound of a sharded replay: the coordinator takes every shard's
//! records over at each period barrier, so a sharded run holds one copy
//! of its records (and at most a period of them in the shards), not the
//! shards' copy plus a merged one.
//!
//! A counting global allocator tracks the live heap bytes and their
//! peak. This file holds one test, so nothing else allocates while it
//! measures.

use ecolife::prelude::*;
use ecolife::sim::InvocationRecord;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Live heap bytes and their high-water mark. Plain statistics, read
/// only between runs, so `Relaxed` is enough.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

/// The system allocator, counting.
struct Counting;

// SAFETY: every method forwards its arguments to `System` unchanged and
// returns its result, so `System`'s guarantees hold; the counters only
// observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` contract is `System.alloc`'s.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with this `layout`, and the
        // caller's `new_size` contract is `System.realloc`'s.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            match new_size.checked_sub(layout.size()) {
                Some(more) => grew(more),
                None => {
                    LIVE.fetch_sub(layout.size() - new_size, Relaxed);
                }
            }
        }
        new
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

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
        let start = LIVE.load(Relaxed);
        PEAK.store(start, Relaxed);
        let m = sim.run_sharded(
            |_| FixedPolicy::pinned(newest, 10),
            &ShardOptions::new(shards).with_threads(threads),
        );
        let added = PEAK.load(Relaxed) - start;
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
