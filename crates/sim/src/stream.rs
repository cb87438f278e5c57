//! A run's event stream: the one owner of its collection, numbering and
//! sealing.
//!
//! Every event carries a canonical [`EventKey`] whose `pos` is the global
//! invocation index it is anchored to (see [`ecolife_telemetry::event`]).
//! An input-derived event at time `t` is anchored at the first index `i`
//! with `tᵢ ≥ t`, so it goes out while `i` is ingested — exactly when
//! `tᵢ₋₁ < t ≤ tᵢ` (or `t ≤ t₀` for `i = 0`). Period and CI marks go out
//! when `i` opens an active minute; membership changes and fault onsets
//! and clearances come from the run's plans, and one timed after the last
//! arrival is never emitted. Exactly one run state ingests each index —
//! the sequential run's, the owning shard's, or the live service's as the
//! arrival lands — so each event is emitted once, and none needs a
//! finished trace.
//!
//! [`Engine::seal`](crate::Engine::seal) appends only `RunStarted`, the
//! last `PeriodEnded` and `RunEnded` (and, for a trace with no
//! invocations, its plan events at index 0 = `trace.len()`). Then
//! [`finalize`] sorts the one collected vector in place (keys are unique,
//! so the unstable sort is exact) and serializes, hashes (SHA-NI where the
//! CPU has it) and seals each event into one reused buffer before the sink
//! sees it: with an enabled sink, the part of a run that scales with the
//! event count.

use crate::faults::{Fault, FaultPlan};
use crate::membership::MembershipPlan;
use crate::metrics::RunMetrics;
use crate::MINUTE_MS;
use ecolife_carbon::CiProvider;
use ecolife_telemetry::{finalize, lane, Event, EventKey, EventSink};
use ecolife_trace::Trace;

/// One run's collected `(EventKey, Event)` pairs (see the module docs).
#[derive(Debug)]
pub(crate) struct Stream {
    events: Vec<(EventKey, Event)>,
    /// Membership changes and fault onsets and clearances, in time
    /// order, each keyed but for its anchor.
    marks: Vec<(u64, EventKey, Event)>,
    /// The key the opened invocation's next per-invocation event gets.
    next_step: EventKey,
}

impl Stream {
    /// An empty stream over the run's plans.
    pub(crate) fn new(membership: &MembershipPlan, faults: &FaultPlan) -> Self {
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
        }
    }

    /// Ingest `trace`'s invocation `index`: emit every event anchored at
    /// it, and start numbering its per-invocation events.
    pub(crate) fn open(&mut self, trace: &Trace, index: usize, ci: &CiProvider<'_>) {
        let arrivals = trace.invocations();
        let t_ms = arrivals[index].t_ms;
        let prev_ms = index.checked_sub(1).map(|i| arrivals[i].t_ms);
        let pos = index as u64;
        self.next_step = EventKey::new(pos, lane::INVOCATION, 0, 0);
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

    /// Take over a shard's collected events: a sharded run seals one
    /// stream.
    pub(crate) fn absorb(&mut self, shard: Stream) {
        self.events.extend(shard.events);
    }

    /// Append `RunStarted`, the last `PeriodEnded` and `RunEnded`, and
    /// hand the collection to [`finalize`] for sorting, numbering,
    /// hash-chaining and emission through `sink`.
    pub(crate) fn seal<K: EventSink>(
        mut self,
        trace: &Trace,
        nodes: usize,
        metrics: &RunMetrics,
        sink: &mut K,
    ) {
        let end = trace.len() as u64;
        self.push(
            EventKey::new(0, lane::RUN_STARTED, 0, 0),
            Event::RunStarted {
                invocations: end,
                functions: trace.catalog().len() as u64,
                nodes: nodes as u64,
                horizon_ms: trace.horizon_ms(),
            },
        );
        match trace.invocations().last() {
            Some(last) => {
                let minute = last.t_ms / MINUTE_MS;
                self.push(
                    EventKey::new(end, lane::PERIOD_ENDED, 0, 0),
                    Event::PeriodEnded { minute },
                );
            }
            // No index was ingested to anchor the plan events.
            None => self.plan_events(end, None, trace.horizon_ms()),
        }
        self.push(
            EventKey::new(end, lane::RUN_ENDED, 0, 0),
            Event::RunEnded {
                invocations: metrics.invocations() as u64,
                transfers: metrics.transfers,
                evictions: metrics.evicted_functions,
                revocations: metrics.reconcile_revocations,
                expired: metrics.expiry.expired,
            },
        );
        finalize(self.events, sink);
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
