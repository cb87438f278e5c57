//! A run's event stream: the one owner of its collection, numbering and
//! sealing.
//!
//! Every event carries a canonical [`EventKey`] whose `pos` is the global
//! invocation index it is anchored to (see [`ecolife_telemetry::event`]).
//! An input-derived event at time `t` is anchored at the first index `i`
//! with `tᵢ ≥ t`, so it goes out while `i` is ingested — exactly when
//! `tᵢ₋₁ < t ≤ tᵢ` (or `t ≤ t₀` for `i = 0`). `RunStarted` goes out as
//! index 0 is ingested; period and CI marks when `i` opens an active
//! minute; membership changes and fault onsets and clearances come from
//! the run's plans, and one timed after the last arrival is never
//! emitted. Exactly one run state ingests each index — the sequential
//! run's, the owning shard's, or the live service's as the arrival lands
//! — so each event is emitted once, and none needs a finished trace.
//! The seal appends only the last `PeriodEnded` and `RunEnded` (and, for
//! a trace with no invocations, `RunStarted` and the plan events at index
//! 0 = `trace.len()`).
//!
//! ## Sealing while the run goes
//!
//! Every run with an enabled sink runs inside [`seal_while_running`]:
//! one scoped sealer thread owns the sink and a [`Chain`], and the run's
//! stream hands it batches of final events over a channel `SEAL_DEPTH`
//! (8) batches deep and goes on. The sealer sorts each batch (keys are
//! unique, so the unstable sort is exact), then numbers, serializes,
//! hashes (SHA-NI where the CPU has it) and emits it, while the engine
//! replays the next invocations. So the sink's `emit` runs on the sealer
//! thread, and sinks must be `Send`. The chain asserts, in release
//! builds too, that every batch starts above the last key of the one
//! before. Spent batches go back to the stream for reuse, so a run's
//! collected telemetry stays within a few batches however long it runs.
//!
//! A sequential or live run never emits below the index it is
//! ingesting, so it hands off whenever an index opens with at least
//! [`SEAL_BATCH`] events collected. A sharded run's shards never emit
//! below a period's first index once that period's reconcile has run
//! (its catch-up and expiry sweep still anchor events in the period
//! before), so at each barrier, after the reconcile, the coordinator's
//! stream takes over every shard event below that index and hands off
//! on the same check. [`Engine::seal`] hands a stepped run's whole
//! collection over as one batch. With a disabled sink nothing is
//! collected and no thread is spawned.
//!
//! A panic in the sink's `emit` (a failed [`JsonlSink`] write, say) ends
//! the sealer; the run goes on, dropping its batches, and the panic
//! reaches the caller with its own payload when the run returns. A panic
//! in the run (a scheduler's, say) drops the stream's end of the channel,
//! so the sealer finishes, and the run's own panic reaches the caller.
//!
//! [`Engine::seal`]: crate::Engine::seal
//! [`JsonlSink`]: ecolife_telemetry::JsonlSink

use crate::faults::{Fault, FaultPlan};
use crate::membership::MembershipPlan;
use crate::metrics::RunMetrics;
use crate::MINUTE_MS;
use ecolife_carbon::CiProvider;
use ecolife_telemetry::{lane, Chain, Event, EventKey, EventSink, TRACE_VERSION};
use ecolife_trace::Trace;
use std::sync::mpsc::{self, Receiver, SyncSender};

/// Events the stream collects before it hands them to the sealer: one
/// batch is ~80 KiB of `(EventKey, Event)` pairs.
pub const SEAL_BATCH: usize = 1024;

/// Batches the handoff channel holds before the run waits for its
/// sealer.
const SEAL_DEPTH: usize = 8;

/// Collected `(EventKey, Event)` pairs.
type Batch = Vec<(EventKey, Event)>;

/// The run's end of the channel to its sealer thread, built by
/// [`seal_while_running`] for [`Engine::begin_sealing`]. It is empty for
/// a disabled sink.
///
/// [`Engine::begin_sealing`]: crate::Engine::begin_sealing
#[derive(Debug)]
pub struct Sealer(Option<Handoff>);

impl Sealer {
    /// No sealer: the stream collects every event.
    pub(crate) fn none() -> Self {
        Sealer(None)
    }
}

#[derive(Debug)]
struct Handoff {
    batches: SyncSender<Batch>,
    /// Batches the sealer is done with, empty, for reuse.
    spares: Receiver<Batch>,
}

impl Handoff {
    /// Hand `events` to the sealer, leaving a spare batch in its place.
    fn send(&self, events: &mut Batch) {
        let spare = self
            .spares
            .try_recv()
            .unwrap_or_else(|_| Vec::with_capacity(2 * SEAL_BATCH));
        // Fails only when the sealer panicked. Its panic reaches the
        // caller as the run returns; until then there is nothing to seal
        // the events with.
        let _ = self.batches.send(std::mem::replace(events, spare));
    }
}

/// Run `run` beside a sealer thread that seals, in key order, every batch
/// the run's stream hands it and emits each event through `sink`; the
/// sink is flushed before this returns `run`'s value. `run` passes the
/// [`Sealer`] to [`Engine::begin_sealing`] and ends with
/// [`Engine::close`]; it must not keep the `Sealer` in what it returns.
///
/// With a disabled sink (`K::ENABLED == false`) `run` runs alone and no
/// thread is spawned. A panic in `run` or in the sink reaches the caller
/// with its own payload (see the module docs).
///
/// [`Engine::begin_sealing`]: crate::Engine::begin_sealing
/// [`Engine::close`]: crate::Engine::close
pub fn seal_while_running<K: EventSink, R>(sink: &mut K, run: impl FnOnce(Sealer) -> R) -> R {
    if !K::ENABLED {
        return run(Sealer::none());
    }
    std::thread::scope(|scope| {
        let (batches, inbox) = mpsc::sync_channel::<Batch>(SEAL_DEPTH);
        let (spent, spares) = mpsc::channel();
        let sealer = std::thread::Builder::new()
            .name("ecolife-sealer".into())
            .spawn_scoped(scope, move || {
                let mut chain = Chain::new();
                for mut batch in inbox {
                    batch.sort_unstable_by_key(|(key, _)| *key);
                    chain.seal(&mut batch, sink);
                    // The run may be over and its end of the channel gone.
                    let _ = spent.send(batch);
                }
                chain.finish(sink);
            })
            .expect("spawn the sealer thread");
        let out = run(Sealer(Some(Handoff { batches, spares })));
        if let Err(panic) = sealer.join() {
            std::panic::resume_unwind(panic);
        }
        out
    })
}

/// One run's collected `(EventKey, Event)` pairs (see the module docs).
#[derive(Debug)]
pub(crate) struct Stream {
    events: Batch,
    /// Membership changes and fault onsets and clearances, in time
    /// order, each keyed but for its anchor.
    marks: Vec<(u64, EventKey, Event)>,
    /// The key the opened invocation's next per-invocation event gets.
    next_step: EventKey,
    /// Fleet size, for `RunStarted`.
    nodes: u64,
    /// Where the stream hands its batches; `None` for a shard's stream,
    /// and until [`Stream::attach`] for a stepped run's.
    handoff: Option<Handoff>,
}

impl Stream {
    /// An empty stream over the run's plans and fleet, handing its
    /// batches to `sealer` when it has one.
    pub(crate) fn new(
        membership: &MembershipPlan,
        faults: &FaultPlan,
        nodes: usize,
        sealer: Sealer,
    ) -> Self {
        let mut marks = Vec::new();
        for (m_idx, e) in membership.events().iter().enumerate() {
            let event = Event::MembershipChanged {
                node: e.node.0,
                t_ms: e.t_ms,
                joined: e.join,
            };
            let key = EventKey::new(0, lane::MEMBERSHIP, m_idx as u32, 0);
            marks.push((e.t_ms, key, event));
        }
        for (idx, fault) in faults.faults().iter().enumerate() {
            let (from_ms, to_ms) = fault.span();
            let (lane, [onset, clear]) = narrate(fault);
            marks.push((from_ms, EventKey::new(0, lane, idx as u32, 0), onset));
            marks.push((to_ms, EventKey::new(0, lane, idx as u32, 1), clear));
        }
        marks.sort_by_key(|m| m.0);
        Stream {
            events: Vec::new(),
            marks,
            next_step: EventKey::new(0, lane::INVOCATION, 0, 0),
            nodes: nodes as u64,
            handoff: sealer.0,
        }
    }

    /// Ingest `trace`'s invocation `index`: hand what is collected to the
    /// sealer once it fills a batch (all of it is anchored below
    /// `index`), emit every event anchored at `index`, and start
    /// numbering its per-invocation events.
    pub(crate) fn open(&mut self, trace: &Trace, index: usize, ci: &CiProvider<'_>) {
        self.hand_off();
        let arrivals = trace.invocations();
        let t_ms = arrivals[index].t_ms;
        let prev_ms = index.checked_sub(1).map(|i| arrivals[i].t_ms);
        let pos = index as u64;
        self.next_step = EventKey::new(pos, lane::INVOCATION, 0, 0);
        if index == 0 {
            self.run_started(trace);
        }
        let minute = t_ms / MINUTE_MS;
        let prev_minute = prev_ms.map(|t| t / MINUTE_MS);
        if prev_minute != Some(minute) {
            if let Some(prev) = prev_minute {
                self.push(
                    EventKey::new(pos, lane::PERIOD_ENDED, 0, 0),
                    Event::PeriodEnded { minute: prev },
                );
            }
            self.push(
                EventKey::new(pos, lane::PERIOD_STARTED, 0, 0),
                Event::PeriodStarted { minute },
            );
            let start_ms = minute * MINUTE_MS;
            for (ri, (region, series)) in ci.distinct_regions().enumerate() {
                self.push(
                    EventKey::new(pos, lane::CI_OBSERVED, ri as u32, 0),
                    Event::CiObserved {
                        region: region.label().to_string(),
                        t_ms: start_ms,
                        gco2_per_kwh: series.at(start_ms),
                    },
                );
            }
        }
        self.plan_events(pos, prev_ms, t_ms);
    }

    /// Collect `RunStarted`, the stream's first event, at index 0.
    fn run_started(&mut self, trace: &Trace) {
        self.push(
            EventKey::new(0, lane::RUN_STARTED, 0, 0),
            Event::RunStarted {
                functions: trace.catalog().len() as u64,
                nodes: self.nodes,
                trace_version: TRACE_VERSION,
            },
        );
    }

    /// Emit every plan event timed in `(after_ms, until_ms]` at `pos`.
    fn plan_events(&mut self, pos: u64, after_ms: Option<u64>, until_ms: u64) {
        let from = after_ms.map_or(0, |t| self.marks.partition_point(|m| m.0 <= t));
        let to = self.marks.partition_point(|m| m.0 <= until_ms);
        for (_, key, event) in &self.marks[from..to] {
            self.events.push((EventKey { pos, ..*key }, event.clone()));
        }
    }

    /// Collect `event` at its canonical key.
    #[inline]
    pub(crate) fn push(&mut self, key: EventKey, event: Event) {
        self.events.push((key, event));
    }

    /// Collect the opened invocation's next per-invocation event. They
    /// are numbered in emission order, so the sealed stream reads
    /// exactly as the step executed.
    #[inline]
    pub(crate) fn push_step(&mut self, event: Event) {
        self.push(self.next_step, event);
        self.next_step.a += 1;
    }

    /// Hand everything collected to the sealer once it fills a batch.
    /// The caller guarantees that no event still to come sorts below any
    /// of it.
    pub(crate) fn hand_off(&mut self) {
        if let Some(handoff) = &self.handoff {
            if self.events.len() >= SEAL_BATCH {
                handoff.send(&mut self.events);
            }
        }
    }

    /// Take over every event a shard's stream has collected below index
    /// `end`.
    pub(crate) fn take_below(&mut self, shard: &mut Stream, end: u64) {
        self.events
            .extend(shard.events.extract_if(.., |(key, _)| key.pos < end));
    }

    /// Collect the run's last events: the last `PeriodEnded` (or, with
    /// no invocation ingested, `RunStarted` and the plan events at index
    /// 0) and `RunEnded`.
    fn end(&mut self, trace: &Trace, metrics: &RunMetrics) {
        let end = trace.len() as u64;
        match trace.invocations().last() {
            Some(last) => {
                let minute = last.t_ms / MINUTE_MS;
                self.push(
                    EventKey::new(end, lane::PERIOD_ENDED, 0, 0),
                    Event::PeriodEnded { minute },
                );
            }
            None => {
                self.run_started(trace);
                self.plan_events(end, None, trace.horizon_ms());
            }
        }
        self.push(
            EventKey::new(end, lane::RUN_ENDED, 0, 0),
            Event::RunEnded {
                invocations: metrics.invocations() as u64,
                transfers: metrics.transfers,
                evictions: metrics.evicted_functions,
                revocations: metrics.reconcile_revocations,
                expired: metrics.expiry.expired,
                horizon_ms: trace.horizon_ms(),
            },
        );
    }

    /// Hand this stream's batches to `sealer` from now on.
    ///
    /// # Panics
    /// When the stream has a sealer already.
    pub(crate) fn attach(&mut self, sealer: Sealer) {
        assert!(
            self.handoff.is_none(),
            "a run begun with a sealer closes with Engine::close"
        );
        self.handoff = sealer.0;
    }

    /// Append the run's last events and hand everything still collected
    /// to the sealer as its last batch. A stream without a sealer has
    /// collected nothing (its sink is disabled).
    ///
    /// # Panics
    /// When a stream without a sealer has collected events: an enabled
    /// sink's run seals through one ([`Stream::attach`]).
    pub(crate) fn close(mut self, trace: &Trace, metrics: &RunMetrics) {
        match self.handoff.take() {
            Some(handoff) => {
                self.end(trace, metrics);
                handoff.send(&mut self.events);
            }
            None => assert!(
                self.events.is_empty(),
                "a run begun without a sealer seals with Engine::seal"
            ),
        }
    }
}

/// A fault's lane and its two events: onset, then clearance.
fn narrate(fault: &Fault) -> (u8, [Event; 2]) {
    let (t_ms, until_ms) = fault.span();
    match fault {
        Fault::NodeCrash { node, .. } => (
            lane::CRASH,
            [
                Event::NodeCrashed {
                    node: node.0,
                    t_ms,
                    recover_ms: until_ms,
                },
                Event::NodeRecovered {
                    node: node.0,
                    t_ms: until_ms,
                },
            ],
        ),
        Fault::CiOutage { region, .. } => (
            lane::CI_HEALTH,
            [
                Event::CiStale {
                    region: region.label().to_string(),
                    t_ms,
                    until_ms,
                },
                Event::CiRestored {
                    region: region.label().to_string(),
                    t_ms: until_ms,
                },
            ],
        ),
        Fault::Partition { regions, .. } => {
            let sides: Vec<&str> = regions.iter().map(|r| r.label()).collect();
            let regions = sides.join(",");
            (
                lane::PARTITION,
                [
                    Event::PartitionStarted {
                        regions: regions.clone(),
                        t_ms,
                        until_ms,
                    },
                    Event::PartitionHealed {
                        regions,
                        t_ms: until_ms,
                    },
                ],
            )
        }
    }
}
