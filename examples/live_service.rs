//! Live service: streaming ingest, bounded executors, queue-aware
//! placement.
//!
//! A bursty workload — 480 multi-second invocations arriving within
//! 2.4 s of virtual time — is thrown at the pair-A fleet with bounded
//! per-node executors ([`SimConfig::with_bounded_executors`]): each node
//! runs at most `cores` invocations at once, queues up to `queue_cap`
//! more, and rejects the rest (typed, zero-carbon, telemetered).
//!
//! The example pins three things:
//!
//! * **Saturation is real** — classic EcoLife placement drives its
//!   favourite node past its slots and the admission bound: nonzero
//!   `queue_ms`, nonzero rejections.
//! * **Queueing delay steers placement** — with
//!   [`EcoLifeConfig::with_queue_aware_placement`], the measured backlog
//!   feeds the service-time term of the EPDM score and at least one
//!   invocation lands on a different node than the classic run chose.
//! * **The live service is the batch replayer, bit for bit** — the same
//!   workload streamed through bounded ingest lanes
//!   ([`ecolife::trace::live_lanes`]) by 3 producer threads yields
//!   byte-identical records, golden stream, and chain tip.
//!
//! Run with: `cargo run --release --example live_service`

use ecolife::prelude::*;
use ecolife::telemetry::diff::first_divergence;

fn bursty_trace() -> Trace {
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
    invocations.extend((0..6u64).map(|i| Invocation {
        func: FunctionId((i % 4) as u32),
        t_ms: MINUTE_MS + i * 10_000,
    }));
    Trace::new(catalog, invocations)
}

fn main() {
    let trace = bursty_trace();
    let ci = CarbonIntensityTrace::constant(300.0, 30);
    let fleet = skus::fleet_a();
    let config = SimConfig::default().with_bounded_executors(ExecutorConfig { queue_cap: 8 });

    let run_batch = |queue_aware: bool| -> (RunMetrics, CaptureSink) {
        let ecolife_config = if queue_aware {
            EcoLifeConfig::default().with_queue_aware_placement()
        } else {
            EcoLifeConfig::default()
        };
        let mut sink = CaptureSink::default();
        let metrics = Simulation::new(&trace, &ci, fleet.clone())
            .with_config(config)
            .run_with_sink(&mut EcoLife::new(fleet.clone(), ecolife_config), &mut sink);
        (metrics, sink)
    };

    let (classic, _) = run_batch(false);
    let (aware, aware_sink) = run_batch(true);

    println!(
        "live_service: {} invocations over {} nodes, executors bounded at cores + 8 queued\n",
        trace.len(),
        fleet.len()
    );
    println!(
        "{:<28} {:>10} {:>10} {:>12} {:>12}",
        "placement", "rejected", "queue s", "carbon g", "peak busy"
    );
    for (name, m) in [("classic EPDM", &classic), ("queue-aware EPDM", &aware)] {
        println!(
            "{:<28} {:>10} {:>10.1} {:>12.3} {:>12}",
            name,
            m.rejected,
            m.total_queue_ms() as f64 / 1_000.0,
            m.total_carbon_g(),
            m.executor_peak_by_node
                .iter()
                .map(|p| p.to_string())
                .collect::<Vec<_>>()
                .join("/")
        );
    }

    // Saturation: the burst overwhelms the favourite node's slots and
    // its admission bound.
    assert!(
        classic.rejected > 0,
        "burst must overflow the admission bound"
    );
    assert!(classic.total_queue_ms() > 0, "burst must queue");

    // The measured backlog shifts placement: at least one invocation
    // runs somewhere else once the EPDM score can see the queue.
    let shifted = classic
        .records
        .iter()
        .zip(&aware.records)
        .filter(|(c, a)| c.exec_location != a.exec_location)
        .count();
    println!("\nplacements shifted by queue awareness: {shifted}");
    assert!(
        shifted > 0,
        "queueing delay must move at least one EcoLife placement"
    );

    // The live service replays the batch engine bit for bit: same
    // workload streamed by 3 producer threads over bounded lanes.
    let all = trace.invocations().to_vec();
    let producers = 3usize;
    let (handles, source) = live_lanes(producers, 16);
    let chunk = all.len().div_ceil(producers);
    let (live, live_sink) = std::thread::scope(|scope| {
        for (handle, part) in handles.into_iter().zip(all.chunks(chunk)) {
            scope.spawn(move || {
                for &inv in part {
                    handle.send(inv).expect("service outlives producers");
                }
            });
        }
        let mut sink = CaptureSink::default();
        let metrics = Service::new(trace.catalog().clone(), &ci, fleet.clone())
            .with_config(config)
            .serve_with_sink(
                source,
                &mut EcoLife::new(
                    fleet.clone(),
                    EcoLifeConfig::default().with_queue_aware_placement(),
                ),
                &mut sink,
            )
            .expect("in-order stream over a known catalog");
        (metrics, sink)
    });
    assert_eq!(live.records, aware.records, "service must equal batch");
    assert_eq!(live.rejected, aware.rejected);
    if let Some(d) = first_divergence(&aware_sink.lines(), &live_sink.lines()) {
        panic!("live stream diverged from batch: {d:?}");
    }
    assert_eq!(live_sink.tip(), aware_sink.tip());

    println!(
        "asserted: saturation rejects; backlog shifts placement; live service ≡ batch\n\
         ({} producer threads, chain tip {})",
        producers,
        live_sink.tip().unwrap_or("<empty>")
    );
}
