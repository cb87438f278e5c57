//! Sharded replay engine throughput: expiry timeline vs the scan
//! reference, 1 vs N shards, on million- and ten-million-invocation
//! synthetic traces.
//!
//! The simulator is the inner loop of everything above it (every planner
//! fitness evaluation is a replay), so this bench tracks the numbers the
//! replay-core tentpoles exist for:
//!
//! * **expiry timeline** — engine wall-clock over the ≥10⁶-invocation
//!   workload with the min-heap expiry timeline (the default) against
//!   the original full-pool scan (`ExpiryMode::Scan`). The scan is
//!   O(pool) per invocation, the timeline a heap-top peek, so this
//!   speedup is *core-count independent* — the headline on a 1-CPU host;
//! * **sharding** — sequential vs `Simulation::run_sharded` at 8 shards,
//!   bare engine and full EcoLife. Shards only buy wall-clock on real
//!   cores; the recorded `host_cpus` is what any speedup claim must be
//!   read against (a 1-CPU container measures parity);
//! * **10⁷ scale** — the bare engine over `SynthTraceConfig::
//!   ten_million`, the first entry at that scale: period-batched shard
//!   cursors and the chunk-preallocated trace loader are what make the
//!   run build and finish without per-invocation allocation.
//!
//! Headline numbers land in `BENCH_sim.json` at the repo root.
//!
//! Smoke mode (`SIM_BENCH_SMOKE=1`, the CI `bench-smoke` job): a
//! pressured tiny-trace run that *asserts* the timeline and the scan
//! produce record-identical runs — sequentially and sharded — and
//! prints timings, without the multi-minute full measurement.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ecolife_bench::report::BenchJson;
use ecolife_carbon::{CarbonIntensityTrace, Region};
use ecolife_core::{EcoLife, EcoLifeConfig, FixedPolicy};
use ecolife_hw::{skus, Fleet};
use ecolife_sim::{ExpiryMode, ShardOptions, SimConfig, Simulation};
use ecolife_trace::{SynthTraceConfig, Trace, WorkloadCatalog};
use std::time::Instant;

/// The benchmark's shard fan-out width (and target worker count).
const SHARDS: usize = 8;

/// The workload seed every trace and CI series below derives from.
const SEED: u64 = 41;

fn million_setup() -> (Trace, CarbonIntensityTrace, Fleet) {
    let trace = SynthTraceConfig::million(SEED).generate_scaled(&WorkloadCatalog::sebs());
    assert!(trace.len() >= 1_000_000, "only {} invocations", trace.len());
    let ci = CarbonIntensityTrace::synthetic(Region::Caiso, 630, SEED);
    // Pools sized so the million-invocation run never overflows: the
    // bench measures replay throughput, not eviction churn (the
    // contention path has its own adversarial + property tests).
    let fleet = skus::fleet_three_generations().with_uniform_keepalive_budget_mib(32_000_000);
    (trace, ci, fleet)
}

fn wall_ms<F: FnOnce()>(f: F) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1e3
}

fn scan_config() -> SimConfig {
    SimConfig::default().with_expiry(ExpiryMode::Scan)
}

/// Pressured tiny-trace smoke: timeline ≡ scan asserted, sub-second.
fn smoke() {
    let trace = SynthTraceConfig {
        n_functions: 24,
        duration_min: 60,
        ..SynthTraceConfig::small(7)
    }
    .generate(&WorkloadCatalog::sebs());
    let ci = CarbonIntensityTrace::synthetic(Region::Caiso, 90, 7);
    // Squeezed pools so expiry interleaves with overflow and transfers.
    let fleet = skus::fleet_three_generations().with_uniform_keepalive_budget_mib(4 * 1024);
    let timeline_sim = Simulation::new(&trace, &ci, fleet.clone());
    let scan_sim = Simulation::new(&trace, &ci, fleet.clone()).with_config(scan_config());

    let mut timeline_metrics = None;
    let timeline_ms = wall_ms(|| {
        timeline_metrics = Some(timeline_sim.run(&mut FixedPolicy::pinned(fleet.newest(), 10)));
    });
    let mut scan_metrics = None;
    let scan_ms = wall_ms(|| {
        scan_metrics = Some(scan_sim.run(&mut FixedPolicy::pinned(fleet.newest(), 10)));
    });
    let (timeline, scan) = (timeline_metrics.unwrap(), scan_metrics.unwrap());
    assert_eq!(
        timeline.records, scan.records,
        "smoke: expiry timeline changed a record"
    );
    assert_eq!(timeline.transfers, scan.transfers);
    assert_eq!(timeline.expiry.expired, scan.expiry.expired);
    assert!(
        scan.expiry.expired > 0,
        "smoke trace never expires anything"
    );

    // Sharded too: the period-batched path must agree mode for mode.
    let sharded_timeline = timeline_sim.run_sharded(
        |_| FixedPolicy::pinned(fleet.newest(), 10),
        &ShardOptions::new(4),
    );
    let sharded_scan = scan_sim.run_sharded(
        |_| FixedPolicy::pinned(fleet.newest(), 10),
        &ShardOptions::new(4),
    );
    assert_eq!(
        sharded_timeline.records, sharded_scan.records,
        "smoke: sharded expiry timeline changed a record"
    );
    println!(
        "smoke ok: {} invocations, {} expiries, timeline {timeline_ms:.0} ms vs scan \
         {scan_ms:.0} ms, records bit-identical (sequential and 4-shard)",
        trace.len(),
        scan.expiry.expired,
    );
}

fn write_json() {
    let (trace, ci, fleet) = million_setup();
    let sim = Simulation::new(&trace, &ci, fleet.clone());
    let sim_scan = Simulation::new(&trace, &ci, fleet.clone()).with_config(scan_config());
    let host_cpus = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let threads = SHARDS.min(host_cpus);

    // Bare engine (fixed 10-minute policy): replay overhead only. The
    // scan number is the seed's expiry path, kept as the baseline the
    // timeline speedup is quoted against.
    let engine_scan_ms = wall_ms(|| {
        let mut s = FixedPolicy::pinned(fleet.newest(), 10);
        black_box(sim_scan.run(&mut s));
    });
    let engine_seq_ms = wall_ms(|| {
        let mut s = FixedPolicy::pinned(fleet.newest(), 10);
        black_box(sim.run(&mut s));
    });
    let engine_sharded_ms = wall_ms(|| {
        black_box(sim.run_sharded(
            |_| FixedPolicy::pinned(fleet.newest(), 10),
            &ShardOptions::new(SHARDS).with_threads(threads),
        ));
    });

    // Full EcoLife (per-function DPSO per decision): the realistic
    // scheduler-bound hot path the planner's inner loop pays for.
    let eco = || EcoLife::new(fleet.clone(), EcoLifeConfig::default());
    let eco_seq_ms = wall_ms(|| {
        let mut s = eco();
        black_box(sim.run(&mut s));
    });
    let eco_sharded_ms = wall_ms(|| {
        black_box(sim.run_sharded(|_| eco(), &ShardOptions::new(SHARDS).with_threads(threads)));
    });

    // The 10⁷ row: bare engine over the ten_million preset — first
    // build the trace through the preallocating loader, then replay.
    let catalog = WorkloadCatalog::sebs();
    let big_config = SynthTraceConfig::ten_million(SEED);
    let mut big = None;
    let ten_m_build_ms = wall_ms(|| big = Some(big_config.generate_scaled(&catalog)));
    let big = big.unwrap();
    assert!(big.len() >= 10_000_000, "only {} invocations", big.len());
    let ci_big = CarbonIntensityTrace::synthetic(Region::Caiso, 1_560, SEED);
    let sim_big = Simulation::new(&big, &ci_big, fleet.clone());
    let ten_m_seq_ms = wall_ms(|| {
        let mut s = FixedPolicy::pinned(fleet.newest(), 10);
        black_box(sim_big.run(&mut s));
    });
    let ten_m_sharded_ms = wall_ms(|| {
        black_box(sim_big.run_sharded(
            |_| FixedPolicy::pinned(fleet.newest(), 10),
            &ShardOptions::new(SHARDS).with_threads(threads),
        ));
    });

    BenchJson::new("sim_sharded", SEED, trace.len())
        .int("trace_functions", trace.catalog().len() as u64)
        .int("fleet_nodes", fleet.len() as u64)
        .int("shards", SHARDS as u64)
        .int("threads", threads as u64)
        .float("engine_sequential_scan_ms", engine_scan_ms, 0)
        .float("engine_sequential_ms", engine_seq_ms, 0)
        .float(
            "expiry_timeline_speedup",
            engine_scan_ms / engine_seq_ms.max(1.0),
            2,
        )
        .float("engine_sharded_ms", engine_sharded_ms, 0)
        .float(
            "engine_speedup",
            engine_seq_ms / engine_sharded_ms.max(1.0),
            2,
        )
        .float("ecolife_sequential_ms", eco_seq_ms, 0)
        .float("ecolife_sharded_ms", eco_sharded_ms, 0)
        .float("ecolife_speedup", eco_seq_ms / eco_sharded_ms.max(1.0), 2)
        .int("ten_million_invocations", big.len() as u64)
        .float("ten_million_build_ms", ten_m_build_ms, 0)
        .float("engine_ten_million_sequential_ms", ten_m_seq_ms, 0)
        .float("engine_ten_million_sharded_ms", ten_m_sharded_ms, 0)
        .text(
            "note",
            "engine_sequential_scan_ms replays with ExpiryMode::Scan (the seed's full-pool expiry \
             sweep, which walks every slot of a pool, one per function id, on each invocation); \
             engine_sequential_ms is the default min-heap expiry timeline — bit-identical runs \
             (tests/expiry_timeline.rs), so expiry_timeline_speedup is pure mechanism and \
             core-count independent. Shard speedups approach min(shards, cores) and record parity \
             by construction on a 1-CPU host. The ten_million rows replay \
             SynthTraceConfig::ten_million through the preallocating trace loader. All engine rows \
             run with the telemetry NullSink (the default `run` entry points), i.e. they double as \
             the zero-overhead check for the event-stream instrumentation.",
        )
        .write("BENCH_sim.json");
}

fn bench(c: &mut Criterion) {
    let smoke_flag = std::env::var("SIM_BENCH_SMOKE").unwrap_or_default();
    if !smoke_flag.is_empty() && smoke_flag != "0" {
        smoke();
        return;
    }

    write_json();

    // Timed loop on a ~100k-invocation slice of the same distribution so
    // `cargo bench sim_sharded` stays interactive.
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
    let sim_scan = Simulation::new(&trace, &ci, fleet.clone()).with_config(scan_config());

    c.bench_function("sim/engine_sequential_100k", |b| {
        b.iter(|| {
            let mut s = FixedPolicy::pinned(fleet.newest(), 10);
            black_box(sim.run(&mut s))
        })
    });
    c.bench_function("sim/engine_sequential_scan_100k", |b| {
        b.iter(|| {
            let mut s = FixedPolicy::pinned(fleet.newest(), 10);
            black_box(sim_scan.run(&mut s))
        })
    });
    c.bench_function("sim/engine_sharded8_100k", |b| {
        b.iter(|| {
            black_box(sim.run_sharded(
                |_| FixedPolicy::pinned(fleet.newest(), 10),
                &ShardOptions::new(SHARDS),
            ))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(2);
    targets = bench
}
criterion_main!(benches);
