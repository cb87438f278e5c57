//! `service_chaos_traced`: a live regional `Service` (bounded executors,
//! queue-aware EcoLife, overflow-free pools, telemetry on) under a
//! chaos-day fault timeline stretched over the trace, with saturating
//! bursts so admission turns a share of arrivals away.
//!
//! Arrivals come from one producer thread over one `live_lanes` lane:
//! a closed-loop pass (the producer sends as fast as the lane drains)
//! and an open-loop pass (arrival `i` due at `i / OFFERED_RATE` seconds,
//! sent on schedule whatever the service is doing).

use crate::calib::Passes;
use crate::probe::{
    latency_from_due, ns_between, CountingSink, PullTimes, PulledSource, SchedTimes,
    TimedScheduler, TimedSink, Timer, Tracer,
};
use crate::replay::{
    finish_trace, pool_layers, priced_transfers, report_rate, sched_layers, SetupParts,
};
use crate::report::Outcome;
use crate::stats::{median, nearest_rank};
use crate::sys::records_digest;
use crate::{finish_common, repeat_for, synth_trace, timed, timed_setup, Args, SimSummary};
use ecolife_carbon::{CiBundle, Region};
use ecolife_core::{EcoLife, EcoLifeConfig};
use ecolife_hw::{skus, Fleet, NodeId};
use ecolife_service::Service;
use ecolife_sim::{
    EventSink, ExecutorConfig, FaultPlan, RunMetrics, Scheduler, SimConfig, Simulation, MINUTE_MS,
};
use ecolife_trace::{live_lanes, splitmix64, FunctionId, FunctionProfile, Invocation, Trace};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

const FUNCTIONS: usize = 400;
const MINUTES: u64 = 600;
/// Saturating bursts: this many, each this many hog arrivals 1 ms apart.
const BURSTS: u64 = 4;
const BURST_LEN: u64 = 700;
/// Keep-alive budget no pool fills (MiB): overflow is ecolife_pressured's
/// subject, not this workload's.
const UNBOUNDED_POOL_MIB: u64 = 32_000_000;
/// Open-loop offered rate (arrivals per second).
pub const OFFERED_RATE: f64 = 30_000.0;
/// Closed-loop lane depth; the open-loop lane holds the whole trace so
/// the generator never waits for the service.
const LANE_CAP: usize = 1_024;

struct Inputs {
    trace: Trace,
    bundle: CiBundle,
    fleet: Fleet,
    faults: FaultPlan,
}

/// Four multi-second functions (as in the service soak's burst trace).
fn hogs() -> [FunctionProfile; 4] {
    [
        FunctionProfile::new("hog-a", 2_500, 900, 512, 0.6),
        FunctionProfile::new("hog-b", 3_000, 1_100, 640, 0.5),
        FunctionProfile::new("hog-c", 2_000, 800, 512, 0.7),
        FunctionProfile::new("hog-d", 3_500, 1_200, 768, 0.4),
    ]
}

/// The chaos-day timeline (CI outage, partition, two crashes) with its
/// 60-minute instants stretched over `minutes`. Two changes from chaos
/// day: the outage is shorter, so most decisions still reach the
/// scheduler (a degraded decision bypasses it), and node 1 crashes right
/// after the degraded window, while the fallback keep-alives parked on
/// it are still warm.
fn chaos_faults(seed: u64, minutes: u64) -> FaultPlan {
    let at = |m: u64| m * minutes * MINUTE_MS / 60;
    FaultPlan::default()
        .with_seed(seed)
        .ci_outage(Region::Tennessee, at(5), at(12))
        .partition(vec![Region::Tennessee], at(21), at(44))
        .crash(NodeId(0), at(21), at(44))
        .crash(NodeId(1), at(11), at(16))
}

fn inputs(seed: u64, parts: &mut SetupParts) -> Inputs {
    let (s, trace) = timed(|| {
        let base = synth_trace(FUNCTIONS, MINUTES, seed);
        let mut catalog = base.catalog().clone();
        let first_hog = catalog.len() as u32;
        for h in hogs() {
            catalog.push(h);
        }
        let mut invocations = base.invocations().to_vec();
        let span_ms = MINUTES * MINUTE_MS;
        for b in 0..BURSTS {
            // Spread over the trace, jittered by the seed.
            let jitter = splitmix64(seed ^ b) % (span_ms / (4 * BURSTS));
            let start = (2 * b + 1) * span_ms / (2 * BURSTS) - span_ms / (8 * BURSTS) + jitter;
            invocations.extend((0..BURST_LEN).map(|i| Invocation {
                func: FunctionId(first_hog + (i % 4) as u32),
                t_ms: start + i,
            }));
        }
        Trace::new(catalog, invocations)
    });
    parts.trace_ms.push(s * 1e3);
    let minutes = (trace.horizon_ms() / MINUTE_MS + 30) as usize;
    let (s, bundle) = timed(|| CiBundle::synthetic_all(minutes, seed));
    parts.ci_ms.push(s * 1e3);
    Inputs {
        trace,
        bundle,
        fleet: skus::fleet_five_regions().with_uniform_keepalive_budget_mib(UNBOUNDED_POOL_MIB),
        faults: chaos_faults(seed, MINUTES),
    }
}

fn config() -> SimConfig {
    SimConfig::default()
        .with_bounded_executors(ExecutorConfig::default())
        .with_transfer_cost(priced_transfers())
}

fn scheduler(fleet: &Fleet) -> EcoLife {
    EcoLife::new(
        fleet.clone(),
        EcoLifeConfig::default()
            .with_queue_aware_placement()
            .with_transfer_cost(priced_transfers()),
    )
}

/// When one served pass started and ended, and what it produced.
struct Served<K> {
    metrics: RunMetrics,
    sink: K,
    pulls: PullTimes,
    /// Serve returned (finish + seal done).
    returned: Instant,
    /// Open loop only: how late the generator sent, worst case.
    generator_late: Duration,
}

impl<K> Served<K> {
    fn wall_s(&self) -> f64 {
        let first = self.pulls.first_pull.expect("service pulled at least once");
        ns_between(first, self.returned) as f64 / 1e9
    }
}

/// Serve `inputs` from one producer thread over one lane. With
/// `open_loop_from = Some(t0)` the producer sends open-loop (arrival `i`
/// at `t0 + i / OFFERED_RATE`); otherwise as fast as the lane drains.
/// `traced` splits the serving thread's time into layers.
fn serve<S: Scheduler, K: EventSink>(
    inputs: &Inputs,
    scheduler: &mut S,
    mut sink: K,
    open_loop_from: Option<Instant>,
    traced: Option<(Arc<AtomicU64>, Arc<Tracer>)>,
) -> Served<K> {
    let all = inputs.trace.invocations();
    let capacity = if open_loop_from.is_some() {
        all.len() + 1
    } else {
        LANE_CAP
    };
    let (handles, source) = live_lanes(1, capacity);
    let handle = handles.into_iter().next().expect("one lane");
    let mut pulls = PullTimes::default();
    let service = Service::try_new_regional(
        inputs.trace.catalog().clone(),
        &inputs.bundle,
        inputs.fleet.clone(),
    )
    .expect("bundle covers the fleet")
    .with_config(config())
    .with_faults(inputs.faults.clone());
    let (metrics, returned, generator_late) = std::thread::scope(|scope| {
        let producer = scope.spawn(move || {
            let mut late = Duration::ZERO;
            for (i, &inv) in all.iter().enumerate() {
                if let Some(t0) = open_loop_from {
                    let due = t0 + Duration::from_nanos(due_ns(i));
                    let now = Instant::now();
                    if now < due {
                        std::thread::sleep(due - now);
                    }
                    late = late.max(Instant::now().saturating_duration_since(due));
                }
                handle.send(inv).expect("service outlives the producer");
            }
            late
        });
        let mut source = PulledSource::new(source, &mut pulls, all.len());
        if let Some((nested, tracer)) = traced {
            source = source.traced(nested, tracer);
        }
        let result = service.serve_with_sink(source, scheduler, &mut sink);
        let returned = Instant::now();
        let late = producer.join().expect("producer thread");
        (
            result.expect("in-order stream over a known catalog"),
            returned,
            late,
        )
    });
    Served {
        metrics,
        sink,
        pulls,
        returned,
        generator_late,
    }
}

/// When open-loop arrival `i` is due, in ns after the first.
fn due_ns(i: usize) -> u64 {
    (i as f64 * 1e9 / OFFERED_RATE) as u64
}

pub fn service_chaos(args: &Args) -> Outcome {
    let mut parts = SetupParts::default();
    let (inputs, setup) = timed_setup(|| inputs(args.seed, &mut parts));
    let n = inputs.trace.len() as u64;

    let mut out = Outcome::default();
    let mut closed_passes = Passes::default();
    let (mut latencies_ns, mut late_ms) = (Vec::new(), Vec::new());
    // Per closed-loop pass: records digest, chain tip, event count; the
    // batch reference they are checked against runs after the passes, so
    // its memory is not in the first pass's peak.
    let mut closed_runs = Vec::new();
    let mut open_ok = true;
    let tracer = Tracer::new();
    let mut traced = TracedService::default();
    repeat_for(args.seconds, 1, |_| {
        // Two closed-loop passes per open-loop one: the closed loop is
        // the gated throughput and wants the samples.
        let mut closed_pass = || {
            closed_passes.time_own(|| {
                let sink = CountingSink::default();
                let closed = serve(&inputs, &mut scheduler(&inputs.fleet), sink, None, None);
                let wall_s = closed.wall_s();
                (closed, wall_s)
            })
        };
        let first = closed_pass();
        let closed = closed_pass();
        let closed_same = first.metrics.records == closed.metrics.records
            && first.sink.tip() == closed.sink.tip();
        drop(first);
        // Start the schedule a moment ahead so arrival 0 is not late by
        // construction.
        let t0 = Instant::now() + Duration::from_millis(2);
        let sink = CountingSink::default();
        let open = serve(&inputs, &mut scheduler(&inputs.fleet), sink, Some(t0), None);
        out.attempted += 3 * n;
        // Open-loop latency: due time → the service coming back for the
        // next arrival. Checks below, outside the timed region.
        let due: Vec<u64> = (0..open.pulls.done.len()).map(due_ns).collect();
        let done: Vec<u64> = open.pulls.done.iter().map(|&d| ns_between(t0, d)).collect();
        latencies_ns.extend(latency_from_due(&due, &done));
        late_ms.push(open.generator_late.as_secs_f64() * 1e3);
        let open_same =
            open.metrics.records == closed.metrics.records && open.sink.tip() == closed.sink.tip();
        if !(open_same && closed_same) {
            out.failed += 3 * n;
        }
        open_ok &= open_same && closed_same;
        let digest = records_digest(&closed.metrics.records);
        closed_runs.push((digest, closed.sink.tip().to_string(), closed.sink.events));
        if args.trace {
            traced.pass(&inputs, &tracer, &closed.metrics);
        }
    });

    // The reference: a batch replay of the same trace, same faults, same
    // telemetry sink.
    let mut batch_sink = CountingSink::default();
    let batch = Simulation::try_new_regional(&inputs.trace, &inputs.bundle, inputs.fleet.clone())
        .expect("bundle covers the trace")
        .with_config(config())
        .with_faults(inputs.faults.clone())
        .run_with_sink(&mut scheduler(&inputs.fleet), &mut batch_sink);
    let digest = records_digest(&batch.records);
    let summary = SimSummary::of(&batch);

    out.digest = digest;
    let mut tip_ok = true;
    for (d, tip, events) in &closed_runs {
        let same = *d == digest && tip == batch_sink.tip() && *events == batch_sink.events;
        if !same {
            out.failed += 3 * n;
        }
        tip_ok &= same;
    }
    out.check("service chain tip equals the batch replay's tip", tip_ok);
    out.check("open-loop records and tip equal closed-loop ones", open_ok);
    out.check(
        "admission or crashes turn arrivals away",
        summary.failed_pct > 0.0,
    );
    out.check(
        "faults fire (degraded decisions, lost warm state, crash rejections)",
        batch.degraded_decisions > 0 && batch.lost_warm_mib > 0 && batch.crash_rejected > 0,
    );
    if args.trace {
        out.check(
            "traced records equal untraced records",
            !traced.records_differ,
        );
    }

    out.e2e("throughput_per_s", n as f64 / closed_passes.scaled());
    report_rate(&mut out, "service_inv_per_s", n, &closed_passes);
    latencies_ns.sort_unstable();
    let us = |q| nearest_rank(&latencies_ns, q).unwrap_or(0) as f64 / 1e3;
    out.named("ingest_p50_us", us(0.5), "us");
    out.named("ingest_p99_us", us(0.99), "us");
    out.named("ingest_samples", latencies_ns.len() as f64, "count");
    out.named("offered_rate_per_s", OFFERED_RATE, "1/s");
    out.named("generator_late_ms", median(&late_ms), "ms");
    for (name, v) in [
        ("admission_rejected", batch.rejected),
        ("crash_rejected", batch.crash_rejected),
        ("degraded_decisions", batch.degraded_decisions),
        ("lost_warm_mib", batch.lost_warm_mib),
        ("transfer_retries", batch.transfer_retries),
    ] {
        out.named(name, v as f64, "count");
    }
    out.named("telemetry_events", batch_sink.events as f64, "count");
    out.named("telemetry_bytes", batch_sink.bytes as f64, "B");
    summary.report(&mut out);
    finish_common(&mut out, &setup);
    if args.trace {
        parts.report(&mut out);
        traced.report(&mut out, closed_passes.raw(), &batch, median(&late_ms));
        finish_trace(args, &mut out, &tracer);
    }
    out
}

/// Layer times of traced closed-loop passes, summed.
#[derive(Default)]
struct TracedService {
    passes: u64,
    wall_ns: u64,
    close_ns: u64,
    pulls: PullTimes,
    sched: SchedTimes,
    emit: Timer,
    events: u64,
    bytes: u64,
    records_differ: bool,
}

impl TracedService {
    fn pass(&mut self, inputs: &Inputs, tracer: &Arc<Tracer>, untraced: &RunMetrics) {
        let mut sched = TimedScheduler::new(scheduler(&inputs.fleet), tracer.clone());
        let traced = Some((sched.share_nested(), tracer.clone()));
        let sink = TimedSink::<CountingSink>::default();
        let served = serve(inputs, &mut sched, sink, None, traced);
        let first = served.pulls.first_pull.expect("pulled");
        let eos = served.pulls.end_of_stream.expect("stream ended");
        tracer.span(tracer.new_id(), 0, "service.serve", first, served.returned);
        tracer.span(tracer.new_id(), 0, "service.close", eos, served.returned);
        self.records_differ |= served.metrics.records != untraced.records;
        self.passes += 1;
        self.wall_ns += ns_between(first, served.returned);
        self.close_ns += ns_between(eos, served.returned);
        self.sched.merge(&sched.times);
        self.pulls.lane_wait.merge(&served.pulls.lane_wait);
        self.pulls.ingest_self.merge(&served.pulls.ingest_self);
        self.emit.merge(&served.sink.emit);
        self.events = served.sink.inner.events;
        self.bytes = served.sink.inner.bytes;
    }

    fn report(&self, out: &mut Outcome, untraced_wall_s: f64, m: &RunMetrics, late_ms: f64) {
        let p = self.passes.max(1) as f64;
        let pct = |t: &Timer, q| t.hist.percentile(q).unwrap_or(0) as f64;
        let ingest = &self.pulls.ingest_self;
        out.layer("service.ingest_self.total_ms", ingest.total_ms() / p);
        out.layer("service.ingest_self.p50_ns", pct(ingest, 0.5));
        out.layer("service.ingest_self.p99_ns", pct(ingest, 0.99));
        out.layer("service.lane_wait_ms", self.pulls.lane_wait.total_ms() / p);
        out.layer("service.close_ms", self.close_ns as f64 / 1e6 / p);
        out.layer("service.generator_late_ms", late_ms);
        out.layer("telemetry.events", self.events as f64);
        out.layer("telemetry.bytes", self.bytes as f64);
        out.layer("telemetry.emit_ms", self.emit.total_ms() / p);
        sched_layers(out, &self.sched, self.passes);
        pool_layers(out, m);
        let wall_ms = self.wall_ns as f64 / 1e6 / p;
        let self_sum =
            ingest.total_ns + self.pulls.lane_wait.total_ns + self.close_ns + self.sched.busy_ns();
        out.layer("probe.wall_ms", wall_ms);
        out.layer("probe.untraced_wall_ms", untraced_wall_s * 1e3);
        out.layer(
            "probe.overhead_pct",
            100.0 * (wall_ms / (untraced_wall_s * 1e3) - 1.0),
        );
        out.layer(
            "probe.self_sum_pct",
            100.0 * self_sum as f64 / self.wall_ns.max(1) as f64,
        );
    }
}
