//! Live-service soak: streaming ingest + bounded executors vs the
//! batch replayer, on the ~10⁵-invocation synthetic workload.
//!
//! The service re-derives the batch engine per arrival (push into the
//! growing trace, one `Engine::ingest` step), so its throughput is the
//! price of going live. This bench records:
//!
//! * **batch** — the replayer as-is (executors off), the PR-8 baseline;
//! * **batch + executors** — bounded per-node executors and queue-aware
//!   EcoLife placement on the same workload (the admission/queueing
//!   bookkeeping cost);
//! * **service (in-process)** — the same executor run driven through
//!   [`Service`] over a `TraceSource`, asserted record-identical;
//! * **service (4 lanes)** — the same stream produced by 4 threads over
//!   bounded ingest lanes (`live_lanes`), the full live-ingest path.
//!
//! Headline numbers land in `BENCH_service.json` at the repo root.
//!
//! Smoke mode (`SERVICE_BENCH_SMOKE=1`, the CI `service-smoke` job): a
//! saturating burst that *asserts* rejections fire and the service
//! replays the batch engine record for record — in-process and over
//! lanes — without the multi-second full measurement.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ecolife_bench::report::BenchJson;
use ecolife_carbon::{CarbonIntensityTrace, Region};
use ecolife_core::{EcoLife, EcoLifeConfig};
use ecolife_hw::{skus, Fleet};
use ecolife_service::Service;
use ecolife_sim::{ExecutorConfig, RunMetrics, SimConfig, Simulation, MINUTE_MS};
use ecolife_trace::{
    live_lanes, FunctionId, FunctionProfile, Invocation, SynthTraceConfig, Trace, WorkloadCatalog,
};
use std::time::Instant;

const SEED: u64 = 41;
const LANES: usize = 4;

fn wall_ms<F: FnOnce()>(f: F) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1e3
}

fn executor_config() -> SimConfig {
    SimConfig::default().with_bounded_executors(ExecutorConfig::default())
}

fn queue_aware(fleet: &Fleet) -> EcoLife {
    EcoLife::new(
        fleet.clone(),
        EcoLifeConfig::default().with_queue_aware_placement(),
    )
}

/// Stream `trace` through the service from `producers` threads over
/// bounded lanes (contiguous time chunks, the lane contract).
fn serve_over_lanes(
    trace: &Trace,
    ci: &CarbonIntensityTrace,
    fleet: &Fleet,
    config: SimConfig,
    producers: usize,
) -> RunMetrics {
    let all = trace.invocations();
    let (handles, source) = live_lanes(producers, 1024);
    let chunk = all.len().div_ceil(producers);
    std::thread::scope(|scope| {
        for (handle, part) in handles.into_iter().zip(all.chunks(chunk)) {
            scope.spawn(move || {
                for &inv in part {
                    handle.send(inv).expect("service outlives producers");
                }
            });
        }
        Service::new(trace.catalog().clone(), ci, fleet.clone())
            .with_config(config)
            .serve(source, &mut queue_aware(fleet))
            .expect("in-order stream over a known catalog")
    })
}

/// Saturating burst: four multi-second functions arriving every 5 ms
/// overrun the pair-A executors and their admission bound.
fn burst_trace() -> Trace {
    let catalog = WorkloadCatalog::new(vec![
        FunctionProfile::new("hog-a", 2_500, 900, 512, 0.6),
        FunctionProfile::new("hog-b", 3_000, 1_100, 640, 0.5),
        FunctionProfile::new("hog-c", 2_000, 800, 512, 0.7),
        FunctionProfile::new("hog-d", 3_500, 1_200, 768, 0.4),
    ]);
    let mut invocations: Vec<Invocation> = (0..480u64)
        .map(|i| Invocation {
            func: FunctionId((i % 4) as u32),
            t_ms: i * 5,
        })
        .collect();
    invocations.push(Invocation {
        func: FunctionId(0),
        t_ms: 2 * MINUTE_MS,
    });
    Trace::new(catalog, invocations)
}

/// Saturating-burst smoke: rejections fire, service ≡ batch, sub-second.
fn smoke() {
    let trace = burst_trace();
    let ci = CarbonIntensityTrace::constant(300.0, 30);
    let fleet = skus::fleet_a();

    let mut batch = None;
    let batch_ms = wall_ms(|| {
        batch = Some(
            Simulation::new(&trace, &ci, fleet.clone())
                .with_config(executor_config())
                .run(&mut queue_aware(&fleet)),
        );
    });
    let batch = batch.unwrap();
    assert!(batch.rejected > 0, "smoke burst must overflow admission");
    assert!(batch.total_queue_ms() > 0, "smoke burst must queue");

    let mut in_process = None;
    let in_process_ms = wall_ms(|| {
        in_process = Some(
            Service::new(trace.catalog().clone(), &ci, fleet.clone())
                .with_config(executor_config())
                .serve(trace.source(), &mut queue_aware(&fleet))
                .expect("trace source is in order"),
        );
    });
    let in_process = in_process.unwrap();
    assert_eq!(
        in_process.records, batch.records,
        "smoke: service changed a record"
    );
    assert_eq!(in_process.rejected, batch.rejected);

    let laned = serve_over_lanes(&trace, &ci, &fleet, executor_config(), 2);
    assert_eq!(
        laned.records, batch.records,
        "smoke: laned service changed a record"
    );
    println!(
        "smoke ok: {} invocations, {} rejected, {:.1} s queued; batch {batch_ms:.0} ms vs \
         service {in_process_ms:.0} ms, records bit-identical (in-process and 2-lane)",
        trace.len(),
        batch.rejected,
        batch.total_queue_ms() as f64 / 1e3,
    );
}

fn write_json() {
    let trace = SynthTraceConfig {
        n_functions: 600,
        duration_min: 600,
        seed: SEED,
        ..Default::default()
    }
    .generate_scaled(&WorkloadCatalog::sebs());
    let ci = CarbonIntensityTrace::synthetic(Region::Caiso, 630, SEED);
    let fleet = skus::fleet_a();

    let plain_sim = Simulation::new(&trace, &ci, fleet.clone());
    let exec_sim = Simulation::new(&trace, &ci, fleet.clone()).with_config(executor_config());

    let batch_ms = wall_ms(|| {
        let mut s = EcoLife::new(fleet.clone(), EcoLifeConfig::default());
        black_box(plain_sim.run(&mut s));
    });
    let mut exec_metrics = None;
    let batch_exec_ms = wall_ms(|| {
        let mut s = queue_aware(&fleet);
        exec_metrics = Some(exec_sim.run(&mut s));
    });
    let exec_metrics = exec_metrics.unwrap();

    let mut service_metrics = None;
    let service_ms = wall_ms(|| {
        service_metrics = Some(
            Service::new(trace.catalog().clone(), &ci, fleet.clone())
                .with_config(executor_config())
                .serve(trace.source(), &mut queue_aware(&fleet))
                .expect("trace source is in order"),
        );
    });
    let service_metrics = service_metrics.unwrap();
    assert_eq!(
        service_metrics.records, exec_metrics.records,
        "soak: service must replay the batch executor run bit for bit"
    );

    let mut laned_metrics = None;
    let service_lanes_ms = wall_ms(|| {
        laned_metrics = Some(serve_over_lanes(
            &trace,
            &ci,
            &fleet,
            executor_config(),
            LANES,
        ));
    });
    let laned_metrics = laned_metrics.unwrap();
    assert_eq!(laned_metrics.records, exec_metrics.records);

    let inv_per_s = |ms: f64| trace.len() as f64 / (ms / 1e3).max(1e-9);
    BenchJson::new("service_soak", SEED, trace.len())
        .int("trace_functions", trace.catalog().len() as u64)
        .int("fleet_nodes", fleet.len() as u64)
        .int("lanes", LANES as u64)
        .float("batch_ms", batch_ms, 0)
        .float("batch_executors_ms", batch_exec_ms, 0)
        .float("service_in_process_ms", service_ms, 0)
        .float("service_lanes_ms", service_lanes_ms, 0)
        .float("batch_inv_per_s", inv_per_s(batch_ms), 0)
        .float("service_inv_per_s", inv_per_s(service_ms), 0)
        .float("service_overhead", service_ms / batch_exec_ms.max(1.0), 2)
        .int("rejected", exec_metrics.rejected)
        .float("queue_s", exec_metrics.total_queue_ms() as f64 / 1e3, 1)
        .text(
            "note",
            "batch_ms replays with executors off; batch_executors_ms adds bounded per-node \
             executors + queue-aware EcoLife placement; service rows drive the identical run \
             through the live service (tests/service.rs pins record identity) — in-process over \
             a TraceSource, then produced by 4 threads over live_lanes ingest lanes of 1024 \
             arrivals, which the service drains in batches. service_overhead is \
             service_in_process_ms / batch_executors_ms: the price of per-arrival ingest into \
             the growing trace.",
        )
        .write("BENCH_service.json");
}

fn bench(c: &mut Criterion) {
    let smoke_flag = std::env::var("SERVICE_BENCH_SMOKE").unwrap_or_default();
    if !smoke_flag.is_empty() && smoke_flag != "0" {
        smoke();
        return;
    }

    write_json();

    // Interactive loop on the saturating burst so `cargo bench
    // service_soak` stays quick.
    let trace = burst_trace();
    let ci = CarbonIntensityTrace::constant(300.0, 30);
    let fleet = skus::fleet_a();
    c.bench_function("service/burst_batch", |b| {
        b.iter(|| {
            let mut s = queue_aware(&fleet);
            black_box(
                Simulation::new(&trace, &ci, fleet.clone())
                    .with_config(executor_config())
                    .run(&mut s),
            )
        })
    });
    c.bench_function("service/burst_in_process", |b| {
        b.iter(|| {
            black_box(
                Service::new(trace.catalog().clone(), &ci, fleet.clone())
                    .with_config(executor_config())
                    .serve(trace.source(), &mut queue_aware(&fleet))
                    .expect("trace source is in order"),
            )
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(2);
    targets = bench
}
criterion_main!(benches);
