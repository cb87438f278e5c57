//! Live service + bounded executors (ISSUE 9).
//!
//! Five pins on the streaming/executor subsystem:
//!
//! 1. **Service ≡ batch under saturation** — a bursty workload on
//!    bounded executors with queue-aware EcoLife placement replays
//!    bit-identically (records, stream, chain tip) whether driven by
//!    the batch replayer or by the live service, over an in-process
//!    trace source and at producer-thread counts {1, 2, 4}.
//! 2. **Admission is bounded and deterministic** — queue depth never
//!    exceeds the configured bound, saturated nodes reject (typed,
//!    zero-cost, telemetered), and two identical runs agree on every
//!    record.
//! 3. **Carbon closure** — rejected invocations carry exactly zero
//!    carbon/energy/service, and the aggregate totals remain the sum
//!    over records.
//! 4. **Sharded executors stay thread-invariant** — shard-local
//!    executors at a fixed shard count emit identical streams at worker
//!    threads {1, 2, 4}.
//! 5. **The service narrates a membership plan as arrivals land** —
//!    `follow_the_sun` served live reproduces its checked-in golden
//!    stream at producer counts {1, 2, 4}.

use ecolife::golden::follow_the_sun_parts;
use ecolife::prelude::*;
use ecolife::sim::MINUTE_MS;
use ecolife::telemetry::diff::first_divergence;

const QUEUE_CAP: usize = 8;

/// A catalog of four hefty functions: multi-second executions so a
/// tight arrival burst overlaps far past the fleet's core counts.
fn hog_catalog() -> WorkloadCatalog {
    WorkloadCatalog::new(vec![
        FunctionProfile::new("hog-a", 2_500, 900, 512, 0.6),
        FunctionProfile::new("hog-b", 3_000, 1_100, 640, 0.5),
        FunctionProfile::new("hog-c", 2_000, 800, 512, 0.7),
        FunctionProfile::new("hog-d", 3_500, 1_200, 768, 0.4),
    ])
}

/// 480 arrivals inside ~2.4 s of virtual time — each node's executor
/// (36 / 48 slots on pair A) is driven deep into its queue and past the
/// admission bound — followed by a sparse cooldown tail.
fn bursty_trace() -> Trace {
    let mut invocations = Vec::new();
    for i in 0..480u64 {
        invocations.push(Invocation {
            func: FunctionId((i % 4) as u32),
            t_ms: i * 5,
        });
    }
    for i in 0..6u64 {
        invocations.push(Invocation {
            func: FunctionId((i % 4) as u32),
            t_ms: MINUTE_MS + i * 10_000,
        });
    }
    Trace::new(hog_catalog(), invocations)
}

fn saturated_config() -> SimConfig {
    SimConfig::default().with_bounded_executors(ExecutorConfig {
        queue_cap: QUEUE_CAP,
    })
}

fn queue_aware_ecolife(fleet: &Fleet) -> EcoLife {
    EcoLife::new(
        fleet.clone(),
        EcoLifeConfig::default().with_queue_aware_placement(),
    )
}

/// Serve `source` on the saturated executors, capturing the stream.
fn serve_saturated(
    trace: &Trace,
    ci: &CarbonIntensityTrace,
    fleet: &Fleet,
    source: impl InvocationSource,
) -> (RunMetrics, CaptureSink) {
    let mut sink = CaptureSink::default();
    let metrics = Service::new(trace.catalog().clone(), ci, fleet.clone())
        .with_config(saturated_config())
        .serve_with_sink(source, &mut queue_aware_ecolife(fleet), &mut sink)
        .unwrap();
    (metrics, sink)
}

#[test]
fn service_replays_batch_bit_for_bit_under_saturation() {
    let trace = bursty_trace();
    let ci = CarbonIntensityTrace::constant(300.0, 30);
    let fleet = skus::fleet_a();

    let mut batch_sink = CaptureSink::default();
    let batch = Simulation::new(&trace, &ci, fleet.clone())
        .with_config(saturated_config())
        .run_with_sink(&mut queue_aware_ecolife(&fleet), &mut batch_sink);
    assert!(
        batch.rejected > 0,
        "burst must overflow the admission bound"
    );
    assert!(batch.total_queue_ms() > 0, "burst must queue");

    let check = |from: &str, (live, live_sink): (RunMetrics, CaptureSink)| {
        assert_eq!(live.records, batch.records, "records diverged {from}");
        assert_eq!(live.rejected, batch.rejected, "{from}");
        assert_eq!(live.queue_ms_by_node, batch.queue_ms_by_node, "{from}");
        assert_eq!(
            live.executor_peak_by_node, batch.executor_peak_by_node,
            "{from}"
        );
        if let Some(d) = first_divergence(&batch_sink.lines(), &live_sink.lines()) {
            panic!("stream diverged {from}: {d:?}");
        }
        assert_eq!(live_sink.tip(), batch_sink.tip(), "{from}");
    };

    check(
        "from the in-process trace source",
        serve_saturated(&trace, &ci, &fleet, trace.source()),
    );
    let all = trace.invocations().to_vec();
    for producers in [1usize, 2, 4] {
        let (handles, source) = live_lanes(producers, 16);
        let chunk = all.len().div_ceil(producers);
        let served = std::thread::scope(|scope| {
            for (handle, part) in handles.into_iter().zip(all.chunks(chunk)) {
                scope.spawn(move || {
                    for &inv in part {
                        handle.send(inv).unwrap();
                    }
                });
            }
            serve_saturated(&trace, &ci, &fleet, source)
        });
        check(&format!("at {producers} producers"), served);
    }
}

#[test]
fn admission_is_bounded_deterministic_and_carbon_closed() {
    let trace = bursty_trace();
    let ci = CarbonIntensityTrace::constant(300.0, 30);
    let fleet = skus::fleet_a();
    let run = || {
        let mut sink = CaptureSink::default();
        let metrics = Simulation::new(&trace, &ci, fleet.clone())
            .with_config(saturated_config())
            .run_with_sink(&mut queue_aware_ecolife(&fleet), &mut sink);
        let lines: Vec<String> = sink.lines().iter().map(|s| s.to_string()).collect();
        (metrics, lines)
    };
    let (a, lines_a) = run();
    let (b, lines_b) = run();

    // Determinism: rejections (and everything else) repeat exactly.
    assert_eq!(a.records, b.records);
    assert_eq!(a.rejected, b.rejected);
    assert_eq!(lines_a, lines_b);
    assert!(a.rejected > 0);

    // Queue bound: no Enqueued/AdmissionRejected event ever reports a
    // depth beyond the configured cap, and rejections were telemetered.
    let mut saw_rejection = false;
    let mut max_depth = 0usize;
    for line in &lines_a {
        if line.contains("\"type\":\"AdmissionRejected\"") {
            saw_rejection = true;
        }
        if line.contains("\"type\":\"Enqueued\"") || line.contains("\"type\":\"AdmissionRejected\"")
        {
            let depth: usize = line
                .split("\"depth\":")
                .nth(1)
                .and_then(|rest| {
                    rest.split(|c: char| !c.is_ascii_digit())
                        .next()?
                        .parse()
                        .ok()
                })
                .expect("depth field");
            max_depth = max_depth.max(depth);
        }
    }
    assert!(saw_rejection, "rejections must reach the event stream");
    assert!(
        max_depth <= QUEUE_CAP,
        "queue depth {max_depth} escaped the bound {QUEUE_CAP}"
    );

    // Occupancy never exceeds each node's core-derived slot count.
    for (idx, &peak) in a.executor_peak_by_node.iter().enumerate() {
        let slots = fleet.node(NodeId(idx as u32)).executor_slots();
        assert!(peak as usize <= slots, "node {idx}: peak {peak} > {slots}");
        assert!(peak > 0, "burst must actually occupy node {idx}");
    }

    // Carbon closure: rejected records are exactly free, accepted ones
    // carry the queue delay inside their service time, and the run's
    // totals are the per-record sums.
    let mut queued = 0u64;
    for r in &a.records {
        if r.rejected {
            assert_eq!(r.service_ms, 0);
            assert_eq!(r.queue_ms, 0);
            assert_eq!(r.total_carbon_g(), 0.0);
            assert_eq!(r.energy_kwh, 0.0);
        } else {
            assert!(r.service_ms >= r.queue_ms);
            queued += r.queue_ms;
        }
    }
    assert_eq!(
        a.rejected,
        a.records.iter().filter(|r| r.rejected).count() as u64
    );
    assert_eq!(a.total_queue_ms(), queued);
    assert_eq!(queued, a.queue_ms_by_node.iter().sum::<u64>());
    let record_sum: f64 = a.records.iter().map(|r| r.total_carbon_g()).sum();
    assert!((a.total_carbon_g() - record_sum).abs() <= 1e-9 * record_sum.max(1.0));
}

#[test]
fn executors_off_keeps_the_service_on_the_classic_engine() {
    // Same bursty workload, no executors: service and batch agree, no
    // queueing artifacts exist anywhere, and the queue-aware flag is
    // inert (its signal reads zero), matching the classic placement.
    let trace = bursty_trace();
    let ci = CarbonIntensityTrace::constant(300.0, 30);
    let fleet = skus::fleet_a();
    let mut batch_sink = CaptureSink::default();
    let classic = Simulation::new(&trace, &ci, fleet.clone()).run_with_sink(
        &mut EcoLife::new(fleet.clone(), EcoLifeConfig::default()),
        &mut batch_sink,
    );
    let mut live_sink = CaptureSink::default();
    let live = Service::new(trace.catalog().clone(), &ci, fleet.clone())
        .serve_with_sink(
            trace.source(),
            &mut queue_aware_ecolife(&fleet),
            &mut live_sink,
        )
        .unwrap();
    assert_eq!(live.records, classic.records);
    assert_eq!(live.rejected, 0);
    assert!(live.executor_peak_by_node.is_empty());
    assert_eq!(live.total_queue_ms(), 0);
    if let Some(d) = first_divergence(&batch_sink.lines(), &live_sink.lines()) {
        panic!("executors-off service diverged from the classic engine: {d:?}");
    }
    assert_eq!(live_sink.tip(), batch_sink.tip());
}

#[test]
fn sharded_executors_are_thread_invariant() {
    let trace = bursty_trace();
    let ci = CarbonIntensityTrace::constant(300.0, 30);
    let fleet = skus::fleet_a();
    let mut baseline: Option<(Vec<String>, RunMetrics)> = None;
    for threads in [1usize, 2, 4] {
        let mut sink = CaptureSink::default();
        let metrics = Simulation::new(&trace, &ci, fleet.clone())
            .with_config(saturated_config())
            .run_sharded_with_sink(
                |_| {
                    EcoLife::new(
                        fleet.clone(),
                        EcoLifeConfig::default().with_queue_aware_placement(),
                    )
                },
                &ShardOptions::new(4).with_threads(threads),
                &mut sink,
            );
        let lines: Vec<String> = sink.lines().iter().map(|s| s.to_string()).collect();
        match &baseline {
            None => {
                // Shard-local executors see only their shard's load, so
                // the burst still queues (each shard holds a whole
                // function's arrival stream).
                assert!(metrics.total_queue_ms() > 0);
                baseline = Some((lines, metrics));
            }
            Some((ref_lines, ref_metrics)) => {
                assert_eq!(
                    metrics.records, ref_metrics.records,
                    "records diverged at {threads} threads"
                );
                assert_eq!(metrics.rejected, ref_metrics.rejected);
                assert_eq!(metrics.queue_ms_by_node, ref_metrics.queue_ms_by_node);
                let refs: Vec<&str> = ref_lines.iter().map(|s| s.as_str()).collect();
                let news: Vec<&str> = lines.iter().map(|s| s.as_str()).collect();
                if let Some(d) = first_divergence(&refs, &news) {
                    panic!("stream diverged at {threads} threads: {d:?}");
                }
            }
        }
    }
}

/// The `follow_the_sun` golden workload served live, with its membership
/// plan: the service narrates node 0's leave and rejoin as the arrivals
/// that anchor them land, and its stream is the checked-in golden, byte
/// for byte, from 1, 2 and 4 producers.
#[test]
fn service_under_a_membership_plan_reproduces_the_golden_stream() {
    let (trace, bundle, fleet, config, membership) = follow_the_sun_parts();
    let golden = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/follow_the_sun.jsonl"
    ))
    .expect("follow_the_sun.jsonl is readable");
    let want: Vec<&str> = golden.lines().collect();
    assert_eq!(want.len(), 1_207);
    let all = trace.invocations().to_vec();
    for producers in [1usize, 2, 4] {
        let (handles, source) = live_lanes(producers, 16);
        let chunk = all.len().div_ceil(producers);
        let live_sink = std::thread::scope(|scope| {
            for (handle, part) in handles.into_iter().zip(all.chunks(chunk)) {
                scope.spawn(move || {
                    for &inv in part {
                        handle.send(inv).unwrap();
                    }
                });
            }
            let mut ecolife = EcoLife::new(
                fleet.clone(),
                EcoLifeConfig::default().with_transfer_cost(config.transfer_cost),
            );
            let mut sink = CaptureSink::default();
            Service::try_new_regional(trace.catalog().clone(), &bundle, fleet.clone())
                .unwrap()
                .with_config(config)
                .with_membership(membership.clone())
                .serve_with_sink(source, &mut ecolife, &mut sink)
                .unwrap();
            sink
        });
        if let Some(d) = first_divergence(&want, &live_sink.lines()) {
            panic!("stream diverged from the golden at {producers} producers:\n{d}");
        }
        assert_eq!(live_sink.tip().map(|t| &t[..8]), Some("d00a9d2d"));
    }
}
