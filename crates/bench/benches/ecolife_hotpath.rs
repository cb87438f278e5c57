//! EcoLife decision hot-path throughput: cached `ObjectiveTables` vs the
//! uncached reference loop, on the million-invocation trace.
//!
//! The KDM/DPSO decision loop — not the replay engine — dominates
//! EcoLife's wall-clock (BENCH_sim.json: the bare engine replays the
//! 1.06M-invocation trace in seconds while EcoLife took ~100 s), so this
//! bench tracks the number the hot-path tentpole exists for: sequential
//! EcoLife wall-clock over the same trace, before (uncached, the seed's
//! per-particle fleet scans) and after (cached tables + scratch
//! buffers + slot-map state). Both paths make bit-identical decisions
//! (`tests/hotpath.rs`); headline numbers land in `BENCH_ecolife.json`.
//!
//! Smoke mode (`ECOLIFE_BENCH_SMOKE=1`, the CI `bench-smoke` job): a
//! tiny-trace run of both paths on the five-region fleet with squeezed
//! pools and priced transfers that *asserts* record-for-record equality
//! and that the overflow path transferred, and prints timings — bench
//! drift fails the build — without the multi-minute full measurement.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ecolife_bench::report::BenchJson;
use ecolife_carbon::{CarbonIntensityTrace, CiBundle, Region, TransferCost};
use ecolife_core::{EcoLife, EcoLifeConfig};
use ecolife_hw::{skus, Fleet};
use ecolife_sim::{ShardOptions, SimConfig, Simulation};
use ecolife_trace::{SynthTraceConfig, Trace, WorkloadCatalog};
use std::time::Instant;

const SHARDS: usize = 8;

/// The workload seed of the million-invocation setup.
const SEED: u64 = 41;

fn cached(fleet: &Fleet) -> EcoLife {
    EcoLife::new(fleet.clone(), EcoLifeConfig::default())
}

fn uncached(fleet: &Fleet) -> EcoLife {
    EcoLife::new(
        fleet.clone(),
        EcoLifeConfig::default().without_cached_tables(),
    )
}

fn wall_ms<F: FnOnce()>(f: F) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1e3
}

/// Tiny-trace smoke: both paths, bit-identity asserted, sub-second.
fn smoke() {
    let trace = SynthTraceConfig {
        n_functions: 24,
        duration_min: 60,
        ..SynthTraceConfig::small(7)
    }
    .generate(&WorkloadCatalog::sebs());
    // The ten-node five-region fleet with squeezed pools and priced
    // transfers, so the overflow path — the warm-pool ranking read from
    // the tables, the memoized priced transfer ranking — runs too.
    let bundle = CiBundle::synthetic_all(90, 7);
    let fleet = skus::fleet_five_regions().with_uniform_keepalive_budget_mib(3 * 1024);
    let transfer = TransferCost {
        egress_kwh_per_mib: 2.0e-9,
        latency_ms: 50,
    };
    let sim = Simulation::try_new_regional(&trace, &bundle, fleet.clone())
        .expect("five-region bundle covers the fleet")
        .with_config(SimConfig::default().with_transfer_cost(transfer));
    let priced = EcoLifeConfig::default().with_transfer_cost(transfer);
    let run = |config: EcoLifeConfig| sim.run(&mut EcoLife::new(fleet.clone(), config));

    let mut fast_metrics = None;
    let cached_ms = wall_ms(|| fast_metrics = Some(run(priced.clone())));
    let mut ref_metrics = None;
    let uncached_ms = wall_ms(|| ref_metrics = Some(run(priced.clone().without_cached_tables())));
    let (fast, reference) = (fast_metrics.unwrap(), ref_metrics.unwrap());
    assert_eq!(
        fast.records, reference.records,
        "smoke: cached tables changed a decision"
    );
    assert!(
        fast.transfers > 0,
        "smoke: the overflow path never transferred"
    );
    assert_eq!(fast.transfers, reference.transfers);
    assert_eq!(fast.evicted_functions, reference.evicted_functions);
    println!(
        "smoke ok: {} invocations, cached {cached_ms:.0} ms vs uncached {uncached_ms:.0} ms, \
         decisions bit-identical",
        trace.len()
    );
}

fn million_setup() -> (Trace, CarbonIntensityTrace, Fleet) {
    let trace = SynthTraceConfig::million(SEED).generate_scaled(&WorkloadCatalog::sebs());
    assert!(trace.len() >= 1_000_000, "only {} invocations", trace.len());
    let ci = CarbonIntensityTrace::synthetic(Region::Caiso, 630, SEED);
    // Pools sized so the run never overflows: this measures decision
    // throughput, not eviction churn.
    let fleet = skus::fleet_three_generations().with_uniform_keepalive_budget_mib(32_000_000);
    (trace, ci, fleet)
}

fn write_json() {
    let (trace, ci, fleet) = million_setup();
    let sim = Simulation::new(&trace, &ci, fleet.clone());
    let host_cpus = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let threads = SHARDS.min(host_cpus);

    // Before: the seed's uncached decision loop (fleet-wide scans per
    // particle evaluation).
    let uncached_ms = wall_ms(|| {
        let mut s = uncached(&fleet);
        black_box(sim.run(&mut s));
    });
    // After: the cached hot path, sequential (the ≥3× acceptance number).
    let cached_ms = wall_ms(|| {
        let mut s = cached(&fleet);
        black_box(sim.run(&mut s));
    });
    // And sharded over the persistent worker pool (wall-clock only moves
    // with real cores; decisions are the same either way).
    let sharded_ms = wall_ms(|| {
        black_box(sim.run_sharded(
            |_| cached(&fleet),
            &ShardOptions::new(SHARDS).with_threads(threads),
        ));
    });
    BenchJson::new("ecolife_hotpath", SEED, trace.len())
        .int("trace_functions", trace.catalog().len() as u64)
        .int("fleet_nodes", fleet.len() as u64)
        .float("ecolife_uncached_sequential_ms", uncached_ms, 0)
        .float("ecolife_cached_sequential_ms", cached_ms, 0)
        .float("hotpath_speedup", uncached_ms / cached_ms.max(1.0), 2)
        .float("ecolife_cached_sharded_ms", sharded_ms, 0)
        .int("shards", SHARDS as u64)
        .int("threads", threads as u64)
        .text(
            "note",
            "uncached = the pre-tables decision loop (fleet-wide objective scans per DPSO \
             particle evaluation); cached = ObjectiveTables + scratch-buffer hot path. Decisions \
             are bit-identical (tests/hotpath.rs). hotpath_speedup is sequential/sequential on \
             this host and core-count independent; the sharded number additionally needs a \
             multi-core host.",
        )
        .write("BENCH_ecolife.json");
}

fn bench(c: &mut Criterion) {
    let smoke_flag = std::env::var("ECOLIFE_BENCH_SMOKE").unwrap_or_default();
    if !smoke_flag.is_empty() && smoke_flag != "0" {
        smoke();
        return;
    }

    write_json();

    // Interactive loops on a ~100k-invocation slice of the same
    // distribution (and a smaller one for the slow uncached path).
    let trace = SynthTraceConfig {
        n_functions: 600,
        duration_min: 600,
        seed: SEED,
        ..Default::default()
    }
    .generate_scaled(&WorkloadCatalog::sebs());
    let ci = CarbonIntensityTrace::synthetic(Region::Caiso, 630, SEED);
    let fleet = skus::fleet_three_generations().with_uniform_keepalive_budget_mib(512 * 1024);
    let sim = Simulation::new(&trace, &ci, fleet.clone());
    c.bench_function("ecolife/cached_sequential_100k", |b| {
        b.iter(|| {
            let mut s = cached(&fleet);
            black_box(sim.run(&mut s))
        })
    });

    let small = SynthTraceConfig {
        n_functions: 120,
        duration_min: 600,
        seed: SEED,
        ..Default::default()
    }
    .generate_scaled(&WorkloadCatalog::sebs());
    let sim_small = Simulation::new(&small, &ci, fleet.clone());
    c.bench_function("ecolife/uncached_sequential_20k", |b| {
        b.iter(|| {
            let mut s = uncached(&fleet);
            black_box(sim_small.run(&mut s))
        })
    });
    c.bench_function("ecolife/cached_sequential_20k", |b| {
        b.iter(|| {
            let mut s = cached(&fleet);
            black_box(sim_small.run(&mut s))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(2);
    targets = bench
}
criterion_main!(benches);
