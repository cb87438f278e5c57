//! The two batch-replay workloads and the traced batch driver.
//!
//! * `replay_bare` — a million-invocation trace under a trivial pinned
//!   policy, replayed sequentially and over 8 shards: the engine's own
//!   cost (trace walk, per-invocation step, expiry timeline, shard
//!   barrier) with almost nothing in `core`.
//! * `ecolife_pressured` — EcoLife with priced transfers on the
//!   five-region fleet with per-node CI and squeezed keep-alive pools:
//!   the scheduler-bound case, with `on_pool_overflow` and the pool's
//!   displace/transfer/evict path beside plain admit/expire.

use crate::calib::Passes;
use crate::probe::{ns_between, SchedTimes, TimedScheduler, Timer, Tracer, SAMPLE_EVERY};
use crate::report::Outcome;
use crate::stats::median;
use crate::sys::records_digest;
use crate::{
    finish_common, repeat_for, synth_trace, timed, timed_setup, Args, SimSummary, POPULATION_SEED,
};
use ecolife_carbon::{CarbonIntensityTrace, CiBundle, Region, TransferCost};
use ecolife_core::{EcoLife, EcoLifeConfig, FixedPolicy};
use ecolife_hw::{skus, Fleet};
use ecolife_sim::{shard_of, NullSink, RunMetrics, Scheduler, ShardOptions, SimConfig, Simulation};
use ecolife_trace::{SynthTraceConfig, Trace};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Shard fan-out of the sharded pass.
const SHARDS: usize = 8;
/// Keep-alive budget that no replay_bare pool ever fills (MiB).
const UNBOUNDED_POOL_MIB: u64 = 32_000_000;
/// ecolife_pressured: functions × minutes of the trace, and the per-node
/// keep-alive budget that makes its pools overflow.
const PRESSURED_FUNCTIONS: usize = 300;
const PRESSURED_MINUTES: u64 = 300;
const PRESSURED_POOL_MIB: u64 = 64 * 1024;

/// Priced cross-region migration (egress energy + re-warm latency), as
/// in the repository's migration and chaos scenarios.
pub fn priced_transfers() -> TransferCost {
    TransferCost {
        egress_kwh_per_mib: 2.0e-9,
        latency_ms: 50,
    }
}

/// Per-part set-up times (ms), one entry per set-up repetition.
#[derive(Debug, Default)]
pub struct SetupParts {
    pub trace_ms: Vec<f64>,
    pub ci_ms: Vec<f64>,
}

impl SetupParts {
    pub fn report(&self, out: &mut Outcome) {
        out.layer("trace.build_ms", median(&self.trace_ms));
        out.layer("carbon.ci_build_ms", median(&self.ci_ms));
    }
}

/// What traced sequential replays measured, summed over passes.
#[derive(Debug, Default)]
struct ReplayLayers {
    passes: u64,
    ingest_self: Timer,
    finish_ns: u64,
    seal_ns: u64,
    wall_ns: u64,
    sched: SchedTimes,
}

/// Replay `sim` through the engine's public stepping API —
/// `begin` / `ingest` / `finish` / `seal`, in the order
/// `Simulation::run_with_sink` calls them — timing the engine's self
/// time per invocation around a timed scheduler.
fn traced_replay<S: Scheduler>(
    sim: &Simulation<'_>,
    trace: &Trace,
    scheduler: S,
    tracer: &Arc<Tracer>,
    layers: &mut ReplayLayers,
) -> RunMetrics {
    let mut sched = TimedScheduler::new(scheduler, tracer.clone());
    let pass_id = tracer.new_id();
    let start = Instant::now();
    let engine = sim.engine();
    let mut state = engine.begin();
    sched.prepare(trace);
    for (index, inv) in trace.invocations().iter().enumerate() {
        let sampled = (index as u64).is_multiple_of(SAMPLE_EVERY);
        let id = if sampled {
            let id = tracer.new_id();
            tracer.set_current(id);
            id
        } else {
            0
        };
        let inside_before = sched.times.busy_ns();
        let t0 = Instant::now();
        engine.ingest::<_, NullSink>(&mut state, index, inv, &mut sched);
        let t1 = Instant::now();
        let inside = sched.times.busy_ns() - inside_before;
        layers
            .ingest_self
            .record(ns_between(t0, t1).saturating_sub(inside));
        if sampled {
            tracer.set_current(0);
            tracer.span(id, pass_id, "sim.ingest", t0, t1);
        }
    }
    let t0 = Instant::now();
    engine.finish::<NullSink>(&mut state);
    let t1 = Instant::now();
    let metrics = engine.seal(state, &mut NullSink);
    let end = Instant::now();
    tracer.span(tracer.new_id(), pass_id, "sim.finish", t0, t1);
    tracer.span(pass_id, 0, "sim.replay", start, end);
    layers.finish_ns += ns_between(t0, t1);
    layers.seal_ns += ns_between(t1, end);
    layers.wall_ns += ns_between(start, end);
    layers.passes += 1;
    layers.sched.merge(&sched.times);
    metrics
}

impl ReplayLayers {
    /// Per-pass layer metrics, plus the share of the traced wall clock
    /// the layers' self times account for.
    fn report(&self, out: &mut Outcome, untraced_wall_s: f64, m: &RunMetrics) {
        let per = |ns: u64| ns as f64 / 1e6 / self.passes.max(1) as f64;
        let pct = |t: &Timer, q| t.hist.percentile(q).unwrap_or(0) as f64;
        out.layer(
            "sim.ingest_self.count",
            (self.ingest_self.count / self.passes.max(1)) as f64,
        );
        out.layer("sim.ingest_self.total_ms", per(self.ingest_self.total_ns));
        out.layer("sim.ingest_self.p50_ns", pct(&self.ingest_self, 0.5));
        out.layer("sim.ingest_self.p99_ns", pct(&self.ingest_self, 0.99));
        out.layer("sim.finish_ms", per(self.finish_ns));
        out.layer("sim.seal_ms", per(self.seal_ns));
        sched_layers(out, &self.sched, self.passes);
        let self_sum =
            self.ingest_self.total_ns + self.finish_ns + self.seal_ns + self.sched.busy_ns();
        let wall_ms = per(self.wall_ns);
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
        pool_layers(out, m);
    }
}

/// The `core` timers, per pass.
pub fn sched_layers(out: &mut Outcome, t: &SchedTimes, passes: u64) {
    let p = passes.max(1) as f64;
    let pct = |t: &Timer, q| t.hist.percentile(q).unwrap_or(0) as f64;
    out.layer("core.prepare_ms", t.prepare_ns as f64 / 1e6 / p);
    out.layer("core.decide.count", t.decide.count as f64 / p);
    out.layer("core.decide.total_ms", t.decide.total_ms() / p);
    out.layer("core.decide.p50_ns", pct(&t.decide, 0.5));
    out.layer("core.decide.p99_ns", pct(&t.decide, 0.99));
    out.layer("core.overflow.count", t.overflow.count as f64 / p);
    out.layer("core.overflow.total_ms", t.overflow.total_ms() / p);
    out.layer("core.overflow.p50_ns", pct(&t.overflow, 0.5));
    out.layer("core.overflow.p99_ns", pct(&t.overflow, 0.99));
    out.layer("core.observe.total_ms", t.observe.total_ms() / p);
    // What the engine's built-in decide timer costs: one Instant pair
    // per decision.
    out.layer(
        "sim.decide_timer_cost_ms",
        t.decide.count as f64 / p * crate::instant_pair_ns() / 1e6,
    );
}

/// Pool, executor and fault counters of one (deterministic) run.
pub fn pool_layers(out: &mut Outcome, m: &RunMetrics) {
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    out.layer(
        "sim.pool.stale_pop_ratio",
        ratio(m.expiry.stale_pops, m.expiry.timeline_pops),
    );
    out.layer("sim.pool.transfers", m.transfers as f64);
    out.layer("sim.pool.evicted", m.evicted_functions as f64);
    out.layer(
        "sim.pool.transfer_ratio",
        ratio(m.transfers, m.transfers + m.evicted_functions),
    );
    out.layer(
        "sim.decision_overhead_ms",
        m.decision_overhead_ns as f64 / 1e6,
    );
    out.layer("sim.executor.rejected", m.rejected as f64);
    out.layer("sim.executor.queue_s", m.total_queue_ms() as f64 / 1e3);
    out.layer("sim.faults.degraded_decisions", m.degraded_decisions as f64);
    out.layer("sim.faults.transfer_retries", m.transfer_retries as f64);
    out.layer("sim.faults.lost_warm_mib", m.lost_warm_mib as f64);
    out.layer("sim.faults.crash_rejected", m.crash_rejected as f64);
}

struct BareInputs {
    trace: Trace,
    ci: CarbonIntensityTrace,
    fleet: Fleet,
}

fn bare_inputs(seed: u64, parts: &mut SetupParts) -> BareInputs {
    let million = SynthTraceConfig::million(POPULATION_SEED);
    let (s, trace) = timed(|| synth_trace(million.n_functions, million.duration_min, seed));
    parts.trace_ms.push(s * 1e3);
    let minutes = (trace.horizon_ms() / 60_000 + 30) as usize;
    let (s, ci) = timed(|| CarbonIntensityTrace::synthetic(Region::Caiso, minutes, seed));
    parts.ci_ms.push(s * 1e3);
    let fleet =
        skus::fleet_three_generations().with_uniform_keepalive_budget_mib(UNBOUNDED_POOL_MIB);
    BareInputs { trace, ci, fleet }
}

fn shard_options() -> ShardOptions {
    ShardOptions::new(SHARDS).with_threads(SHARDS.min(crate::cpus()))
}

pub fn replay_bare(args: &Args) -> Outcome {
    let mut parts = SetupParts::default();
    let (inputs, setup) = timed_setup(|| bare_inputs(args.seed, &mut parts));
    let BareInputs { trace, ci, fleet } = &inputs;
    let sim = Simulation::new(trace, ci, fleet.clone());
    let newest = fleet.newest();
    let policy = || FixedPolicy::pinned(newest, 10);
    let opts = shard_options();
    let n = trace.len() as u64;

    let mut out = Outcome::default();
    let (mut seq_passes, mut sharded_passes) = (Passes::default(), Passes::default());
    let mut reference: Option<(u64, SimSummary)> = None;
    let (mut repeat_ok, mut shard_ok, mut traced_ok) = (true, true, true);
    let mut revocations = 0;
    let mut layers = ReplayLayers::default();
    let (mut shard_wall_s, mut shard_busy_ms) = (Vec::new(), Vec::new());
    let tracer = Tracer::new();
    repeat_for(args.seconds, 2, |_| {
        let seq = seq_passes.time(|| sim.run(&mut policy()));
        let sharded = sharded_passes.time(|| sim.run_sharded(|_| policy(), &opts));
        out.attempted += 2 * n;
        // Checks, outside the timed region.
        let digest = records_digest(&seq.records);
        let summary = SimSummary::of(&seq);
        let (ref_digest, ref_summary) = *reference.get_or_insert((digest, summary));
        let repeats = digest == ref_digest && summary == ref_summary;
        revocations = revocations.max(sharded.reconcile_revocations);
        let sharded_same = sharded.records == seq.records && sharded.reconcile_revocations == 0;
        drop(sharded);
        if !(repeats && sharded_same) {
            out.failed += 2 * n;
        }
        repeat_ok &= repeats;
        shard_ok &= sharded_same;
        if args.trace {
            let traced = traced_replay(&sim, trace, policy(), &tracer, &mut layers);
            traced_ok &= traced.records == seq.records;
            drop(traced);
            let collect = Arc::new(Mutex::new(Vec::new()));
            let t = Instant::now();
            let sharded = sim.run_sharded(
                |_| TimedScheduler::new(policy(), tracer.clone()).collect_into(collect.clone()),
                &opts,
            );
            let end = Instant::now();
            tracer.span(tracer.new_id(), 0, "sim.run_sharded", t, end);
            shard_wall_s.push(ns_between(t, end) as f64 / 1e9);
            traced_ok &= sharded.records == seq.records;
            let times = std::mem::take(&mut *collect.lock().expect("shard timers"));
            let busy_max = times.iter().map(SchedTimes::busy_ns).max().unwrap_or(0);
            shard_busy_ms.push(busy_max as f64 / 1e6);
        }
    });
    let (digest, summary) = reference.expect("at least one pass");
    out.digest = digest;
    out.check("sequential records repeat exactly on every pass", repeat_ok);
    out.check(
        "sharded records equal sequential records, no revocations",
        shard_ok,
    );
    if args.trace {
        out.check("traced records equal untraced records", traced_ok);
    }

    out.e2e("throughput_per_s", n as f64 / seq_passes.scaled());
    report_rate(&mut out, "replay_inv_per_s", n, &seq_passes);
    report_rate(&mut out, "sharded_inv_per_s", n, &sharded_passes);
    summary.report(&mut out);
    finish_common(&mut out, &setup);

    if args.trace {
        parts.report(&mut out);
        layers.report(&mut out, seq_passes.raw(), &sim.run(&mut policy()));
        let mut per_shard = [0u64; SHARDS];
        for inv in trace.invocations() {
            per_shard[shard_of(inv.func, SHARDS)] += 1;
        }
        let max = *per_shard.iter().max().expect("shards") as f64;
        out.layer("sim.shard.imbalance", max / (n as f64 / SHARDS as f64));
        out.layer("sim.shard.wall_ms", 1e3 * median(&shard_wall_s));
        out.layer("sim.shard.sched_busy_max_ms", median(&shard_busy_ms));
        out.layer("sim.shard.revocations", revocations as f64);
        finish_trace(args, &mut out, &tracer);
    }
    out
}

/// `items` per second of the median pass, host-scaled under `name` and
/// raw under `<name>_raw`, plus the pass count.
pub fn report_rate(out: &mut Outcome, name: &str, items: u64, passes: &Passes) {
    out.named(name, items as f64 / passes.scaled(), "1/s");
    out.named(&format!("{name}_raw"), items as f64 / passes.raw(), "1/s");
    out.named(&format!("{name}_passes"), passes.len() as f64, "count");
}

/// Spans out to disk, span count into the metrics.
pub fn finish_trace(args: &Args, out: &mut Outcome, tracer: &Tracer) {
    let spans = tracer.take_spans();
    out.layer("probe.spans", spans.len() as f64);
    crate::write_spans(args, &spans);
}

struct PressuredInputs {
    trace: Trace,
    bundle: CiBundle,
    fleet: Fleet,
}

fn pressured_inputs(seed: u64, parts: &mut SetupParts) -> PressuredInputs {
    let (s, trace) = timed(|| synth_trace(PRESSURED_FUNCTIONS, PRESSURED_MINUTES, seed));
    parts.trace_ms.push(s * 1e3);
    let minutes = (trace.horizon_ms() / 60_000 + 30) as usize;
    let (s, bundle) = timed(|| CiBundle::synthetic_all(minutes, seed));
    parts.ci_ms.push(s * 1e3);
    let fleet = skus::fleet_five_regions().with_uniform_keepalive_budget_mib(PRESSURED_POOL_MIB);
    PressuredInputs {
        trace,
        bundle,
        fleet,
    }
}

pub fn ecolife_pressured(args: &Args) -> Outcome {
    let mut parts = SetupParts::default();
    let (inputs, setup) = timed_setup(|| pressured_inputs(args.seed, &mut parts));
    let PressuredInputs {
        trace,
        bundle,
        fleet,
    } = &inputs;
    let cost = priced_transfers();
    let sim = Simulation::try_new_regional(trace, bundle, fleet.clone())
        .expect("bundle covers the trace")
        .with_config(SimConfig::default().with_transfer_cost(cost));
    let eco = || {
        EcoLife::new(
            fleet.clone(),
            EcoLifeConfig::default().with_transfer_cost(cost),
        )
    };
    let n = trace.len() as u64;

    let mut out = Outcome::default();
    let mut passes = Passes::default();
    let mut reference: Option<(u64, SimSummary, RunMetrics)> = None;
    let mut repeat_ok = true;
    let mut traced_ok = true;
    let mut layers = ReplayLayers::default();
    let tracer = Tracer::new();
    repeat_for(args.seconds, 2, |_| {
        let m = passes.time(|| sim.run(&mut eco()));
        out.attempted += n;
        let digest = records_digest(&m.records);
        let summary = SimSummary::of(&m);
        let ok = match &reference {
            Some((d, sum, _)) => digest == *d && summary == *sum,
            None => true,
        };
        if args.trace {
            let traced = traced_replay(&sim, trace, eco(), &tracer, &mut layers);
            traced_ok &= traced.records == m.records;
        }
        if !ok {
            out.failed += n;
        }
        repeat_ok &= ok;
        if reference.is_none() {
            reference = Some((digest, summary, m));
        }
    });
    let (digest, summary, first) = reference.expect("at least one pass");
    out.digest = digest;
    out.check("records repeat exactly on every pass", repeat_ok);
    out.check(
        "pools overflow (transfers or evictions happen)",
        first.transfers + first.evicted_functions > 0,
    );
    if args.trace {
        out.check("traced records equal untraced records", traced_ok);
    }
    out.e2e("throughput_per_s", n as f64 / passes.scaled());
    report_rate(&mut out, "replay_inv_per_s", n, &passes);
    summary.report(&mut out);
    finish_common(&mut out, &setup);
    if args.trace {
        parts.report(&mut out);
        layers.report(&mut out, passes.raw(), &first);
        finish_trace(args, &mut out, &tracer);
    }
    out
}
