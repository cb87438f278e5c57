//! Outside-in tracing: wrappers around the crates' public traits
//! (`Scheduler`, `EventSink`, `InvocationSource`) that time every call
//! crossing a layer boundary.
//!
//! Memory stays bounded whatever the run length: each layer keeps a
//! count, a total and a [`LogHist`]; spans are sampled (one item in
//! [`SAMPLE_EVERY`]) and capped at [`MAX_SPANS`].

use crate::stats::LogHist;
use ecolife_sim::{Decision, EventSink, InvocationCtx, OverflowAction, OverflowCtx, Scheduler};
use ecolife_telemetry::SequencedEvent;
use ecolife_trace::{Invocation, InvocationSource, Trace};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One traced item (invocation or arrival) in this many gets spans.
pub const SAMPLE_EVERY: u64 = 1024;
/// Span buffer cap per run.
pub const MAX_SPANS: usize = 50_000;

/// Nanoseconds between two instants.
#[inline]
pub fn ns_between(a: Instant, b: Instant) -> u64 {
    b.saturating_duration_since(a).as_nanos() as u64
}

/// Count, total and distribution of one layer's call durations.
#[derive(Debug, Clone, Default)]
pub struct Timer {
    pub count: u64,
    pub total_ns: u64,
    pub hist: LogHist,
}

impl Timer {
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns += ns;
        self.hist.record(ns);
    }

    pub fn merge(&mut self, other: &Timer) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.hist.merge(&other.hist);
    }

    pub fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6
    }
}

/// A timed interval at a layer boundary. `parent == 0` is a root.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Shared span buffer plus the "currently sampled item" the scheduler
/// wrappers hang their child spans off.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    /// Span id of the item being traced right now, `0` when the current
    /// item is not sampled.
    current: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            current: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        })
    }

    pub fn new_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn set_current(&self, id: u64) {
        self.current.store(id, Ordering::Relaxed);
    }

    #[inline]
    pub fn current(&self) -> u64 {
        self.current.load(Ordering::Relaxed)
    }

    /// Record a finished span (dropped once the buffer is full).
    pub fn span(&self, id: u64, parent: u64, name: &'static str, start: Instant, end: Instant) {
        let mut spans = self.spans.lock().expect("span buffer poisoned");
        if spans.len() < MAX_SPANS {
            spans.push(Span {
                id,
                parent,
                name,
                start_ns: ns_between(self.epoch, start),
                end_ns: ns_between(self.epoch, end),
            });
        }
    }

    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned"))
    }
}

/// The scheduler-side (`core`) layer timers of one scheduler.
#[derive(Debug, Clone, Default)]
pub struct SchedTimes {
    pub prepare_ns: u64,
    pub decide: Timer,
    pub overflow: Timer,
    pub observe: Timer,
}

impl SchedTimes {
    /// Time spent inside the scheduler, prepare included.
    pub fn busy_ns(&self) -> u64 {
        self.prepare_ns + self.decide.total_ns + self.overflow.total_ns + self.observe.total_ns
    }

    pub fn merge(&mut self, other: &SchedTimes) {
        self.prepare_ns += other.prepare_ns;
        self.decide.merge(&other.decide);
        self.overflow.merge(&other.overflow);
        self.observe.merge(&other.observe);
    }
}

/// Times every call into a wrapped [`Scheduler`]. Decisions pass
/// through untouched, so a wrapped run's records equal an unwrapped
/// run's (the workloads assert this).
pub struct TimedScheduler<S> {
    inner: S,
    pub times: SchedTimes,
    /// Running total of time inside the scheduler, for a caller that
    /// must subtract it from an enclosing interval but cannot see this
    /// struct (the service ingest timer lives in the source wrapper).
    nested: Option<Arc<AtomicU64>>,
    tracer: Arc<Tracer>,
    /// Where the timers go when the wrapper is dropped — sharded runs
    /// consume their per-shard schedulers internally.
    collect: Option<Arc<Mutex<Vec<SchedTimes>>>>,
}

impl<S> TimedScheduler<S> {
    pub fn new(inner: S, tracer: Arc<Tracer>) -> Self {
        TimedScheduler {
            inner,
            times: SchedTimes::default(),
            nested: None,
            tracer,
            collect: None,
        }
    }

    /// Hand the timers to `collect` on drop.
    pub fn collect_into(mut self, collect: Arc<Mutex<Vec<SchedTimes>>>) -> Self {
        self.collect = Some(collect);
        self
    }

    /// A shared running total of the time spent inside this scheduler.
    pub fn share_nested(&mut self) -> Arc<AtomicU64> {
        self.nested.get_or_insert_with(Default::default).clone()
    }

    #[inline]
    fn timed<T>(&mut self, name: &'static str, f: impl FnOnce(&mut S) -> T) -> (T, u64) {
        let start = Instant::now();
        let out = f(&mut self.inner);
        let end = Instant::now();
        let ns = ns_between(start, end);
        if let Some(nested) = &self.nested {
            nested.fetch_add(ns, Ordering::Relaxed);
        }
        let parent = self.tracer.current();
        if parent != 0 {
            let id = self.tracer.new_id();
            self.tracer.span(id, parent, name, start, end);
        }
        (out, ns)
    }
}

impl<S> Drop for TimedScheduler<S> {
    fn drop(&mut self) {
        if let Some(collect) = &self.collect {
            if let Ok(mut all) = collect.lock() {
                all.push(std::mem::take(&mut self.times));
            }
        }
    }
}

impl<S: Scheduler> Scheduler for TimedScheduler<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn prepare(&mut self, trace: &Trace) {
        let ((), ns) = self.timed("core.prepare", |s| s.prepare(trace));
        self.times.prepare_ns += ns;
    }

    fn decide(&mut self, ctx: &InvocationCtx<'_>) -> Decision {
        let (d, ns) = self.timed("core.decide", |s| s.decide(ctx));
        self.times.decide.record(ns);
        d
    }

    fn on_pool_overflow(&mut self, ctx: &OverflowCtx<'_>) -> OverflowAction {
        let (a, ns) = self.timed("core.overflow", |s| s.on_pool_overflow(ctx));
        self.times.overflow.record(ns);
        a
    }

    fn observe(&mut self, ctx: &InvocationCtx<'_>, service_ms: u64, warm: bool) {
        let ((), ns) = self.timed("core.observe", |s| s.observe(ctx, service_ms, warm));
        self.times.observe.record(ns);
    }
}

/// The benchmark's telemetry sink: counts events and bytes and keeps
/// the chain tip, so a sealed stream can be checked without holding it.
#[derive(Debug, Default)]
pub struct CountingSink {
    pub events: u64,
    pub bytes: u64,
    tip: String,
}

impl CountingSink {
    pub fn tip(&self) -> &str {
        &self.tip
    }
}

impl EventSink for CountingSink {
    const ENABLED: bool = true;

    fn emit(&mut self, event: &SequencedEvent) {
        self.events += 1;
        self.bytes += event.line.len() as u64 + 1;
        self.tip.clear();
        self.tip.push_str(&event.hash);
    }
}

/// Times every `emit` into the wrapped sink (the `telemetry` layer).
#[derive(Debug, Default)]
pub struct TimedSink<K> {
    pub inner: K,
    pub emit: Timer,
}

impl<K: EventSink> EventSink for TimedSink<K> {
    const ENABLED: bool = K::ENABLED;

    fn emit(&mut self, event: &SequencedEvent) {
        let start = Instant::now();
        self.inner.emit(event);
        self.emit.record(ns_between(start, Instant::now()));
    }

    fn flush(&mut self) {
        self.inner.flush();
    }
}

/// What a [`PulledSource`] measured.
#[derive(Debug, Default)]
pub struct PullTimes {
    /// Arrivals handed to the service.
    pub pulled: u64,
    /// When each arrival was complete: the instant the service came
    /// back for the next one (the last one's is the end-of-stream pull).
    pub done: Vec<Instant>,
    /// First pull (start of the serve) and the end-of-stream pull.
    pub first_pull: Option<Instant>,
    pub end_of_stream: Option<Instant>,
    /// Traced runs only: time blocked in the inner source (`service`
    /// lane wait) and the service's own time per arrival — from handing
    /// it over to the next pull, minus the scheduler time inside.
    pub lane_wait: Timer,
    pub ingest_self: Timer,
}

/// Wraps the service's [`InvocationSource`]: every pull marks the
/// previous arrival complete. With `nested` set (traced runs) it also
/// splits the serving thread's time into lane wait and service ingest.
pub struct PulledSource<'a, I> {
    inner: I,
    times: &'a mut PullTimes,
    nested: Option<(Arc<AtomicU64>, Arc<Tracer>)>,
    last_return: Option<(Instant, u64)>,
}

impl<'a, I: InvocationSource> PulledSource<'a, I> {
    pub fn new(inner: I, times: &'a mut PullTimes, expected: usize) -> Self {
        times.done.reserve(expected);
        PulledSource {
            inner,
            times,
            nested: None,
            last_return: None,
        }
    }

    /// Also time the lane and the service's per-arrival self time,
    /// subtracting the scheduler time `nested` accumulates.
    pub fn traced(mut self, nested: Arc<AtomicU64>, tracer: Arc<Tracer>) -> Self {
        self.nested = Some((nested, tracer));
        self
    }
}

impl<I: InvocationSource> InvocationSource for PulledSource<'_, I> {
    fn next_invocation(&mut self) -> Option<Invocation> {
        let enter = Instant::now();
        if self.times.first_pull.is_none() {
            self.times.first_pull = Some(enter);
        }
        if self.times.pulled > self.times.done.len() as u64 {
            self.times.done.push(enter);
        }
        if let (Some((nested, tracer)), Some((ret, nested_before))) =
            (&self.nested, self.last_return)
        {
            let inside = nested.load(Ordering::Relaxed) - nested_before;
            self.times
                .ingest_self
                .record(ns_between(ret, enter).saturating_sub(inside));
            let id = tracer.current();
            if id != 0 {
                tracer.span(id, 0, "service.ingest", ret, enter);
                tracer.set_current(0);
            }
        }
        let next = self.inner.next_invocation();
        let ret = Instant::now();
        match next {
            Some(_) => self.times.pulled += 1,
            None => self.times.end_of_stream = Some(ret),
        }
        if let Some((nested, tracer)) = &self.nested {
            self.times.lane_wait.record(ns_between(enter, ret));
            self.last_return = Some((ret, nested.load(Ordering::Relaxed)));
            if next.is_some() && self.times.pulled % SAMPLE_EVERY == 1 {
                tracer.set_current(tracer.new_id());
            }
        }
        next
    }
}

/// Open-loop latency of each arrival: from when it was *due* to be
/// sent to when the service finished it. Timing from the due time (not
/// from the actual send) charges a stall to every arrival queued behind
/// it instead of hiding it in a late generator.
pub fn latency_from_due(due_ns: &[u64], done_ns: &[u64]) -> Vec<u64> {
    assert_eq!(due_ns.len(), done_ns.len(), "one completion per arrival");
    due_ns
        .iter()
        .zip(done_ns)
        .map(|(&due, &done)| done.saturating_sub(due))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::nearest_rank;

    /// A single-server queue fed on a fixed schedule: arrival `i` is due
    /// at `i * gap`, starts when both due and the server is free, and
    /// takes `cost[i]`.
    fn simulate(gap: u64, cost: &[u64]) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
        let mut free = 0;
        let (mut due, mut start, mut done) = (vec![], vec![], vec![]);
        for (i, &c) in cost.iter().enumerate() {
            let d = i as u64 * gap;
            let s = d.max(free);
            free = s + c;
            due.push(d);
            start.push(s);
            done.push(free);
        }
        (due, start, done)
    }

    #[test]
    fn a_stalled_arrival_charges_the_ones_queued_behind_it() {
        // 200 arrivals every 1 000 ns, each 100 ns of work, except one
        // 50 µs stall at arrival 50.
        let mut cost = vec![100u64; 200];
        cost[50] = 50_000;
        let (due, start, done) = simulate(1_000, &cost);
        let lat = latency_from_due(&due, &done);
        // The ~49 arrivals due during the stall each wait for it.
        let charged = lat[51..].iter().filter(|&&l| l > 1_000).count();
        assert!(
            charged >= 45,
            "only {charged} arrivals charged for the stall"
        );
        assert!(
            lat[51] > 45_000,
            "first queued arrival waited {} ns",
            lat[51]
        );
        // Timing from the actual start instead (what a closed-loop
        // generator that waits out the stall would see) hides it.
        let from_start = latency_from_due(&start, &done);
        assert_eq!(from_start.iter().filter(|&&l| l > 1_000).count(), 1);
        let mut sorted = lat.clone();
        sorted.sort_unstable();
        let mut sorted_start = from_start;
        sorted_start.sort_unstable();
        assert!(
            nearest_rank(&sorted, 0.9).unwrap() > 10 * nearest_rank(&sorted_start, 0.9).unwrap()
        );
    }

    #[test]
    fn pulls_mark_the_previous_arrival_done() {
        let t = Trace::new(
            ecolife_trace::WorkloadCatalog::sebs(),
            (0..5)
                .map(|i| Invocation {
                    func: ecolife_trace::FunctionId(0),
                    t_ms: i,
                })
                .collect(),
        );
        let mut times = PullTimes::default();
        let mut src = PulledSource::new(t.source(), &mut times, 5)
            .traced(Arc::new(AtomicU64::new(0)), Tracer::new());
        while src.next_invocation().is_some() {}
        assert_eq!(times.pulled, 5);
        assert_eq!(times.done.len(), 5);
        assert!(times.end_of_stream.is_some());
        assert_eq!(times.ingest_self.count, 5);
        assert_eq!(times.lane_wait.count, 6);
    }
}
