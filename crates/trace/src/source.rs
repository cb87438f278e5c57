//! Streaming invocation sources — the ingest edge of the live-service
//! path.
//!
//! A batch [`Trace`](crate::Trace) is one way to obtain invocations; a live platform
//! receives them over time from producers it does not control. The
//! [`InvocationSource`] trait abstracts over both: the service drives
//! whatever source it is handed, and determinism questions reduce to
//! "does the source yield the same sequence?".
//!
//! Two implementations ship here:
//!
//! * [`TraceSource`] — replays an existing trace in order; the batch
//!   case as a stream.
//! * [`LiveSource`] — drains N bounded channel lanes, each fed by a
//!   [`LaneIngest`] handle from its own producer thread. Lanes are
//!   drained *in lane order* (lane 0 to exhaustion, then lane 1, …), so
//!   when producers own contiguous, non-overlapping time ranges —
//!   lane 0 earliest — the merged sequence is chronological and
//!   **identical at any producer-thread count**, while the bounded
//!   channels still exert real backpressure on fast producers
//!   ([`LaneIngest::try_send`] surfaces it as a typed error instead of
//!   blocking).
//!
//! The contiguous-chunk discipline is deliberately the caller's
//! contract, not a runtime merge: a timestamp-ordered N-way merge of
//! concurrently racing producers would need unbounded buffering (or
//! watermarks) to be deterministic. Owning time ranges keeps producers
//! genuinely parallel — each fills its lane while earlier lanes drain —
//! yet leaves the consumed order a pure function of the workload.

use crate::invocation::Invocation;
use std::fmt;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};

/// A pull-based stream of invocations, consumed by the live service.
///
/// `next_invocation` may block (a live source waits for producers);
/// `None` is end-of-stream, after which the source must keep returning
/// `None`. Sources need not sort: the service validates chronology at
/// ingest and rejects out-of-order arrivals with a typed error.
pub trait InvocationSource {
    /// The next arrival, or `None` once the stream is exhausted.
    fn next_invocation(&mut self) -> Option<Invocation>;
}

/// Replays a borrowed [`Trace`](crate::Trace)'s invocations in order —
/// the batch workload as a stream. Built by
/// [`Trace::source`](crate::Trace::source).
#[derive(Debug, Clone)]
pub struct TraceSource<'a> {
    invocations: &'a [Invocation],
    next: usize,
}

impl<'a> TraceSource<'a> {
    pub(crate) fn new(invocations: &'a [Invocation]) -> Self {
        TraceSource {
            invocations,
            next: 0,
        }
    }

    /// Invocations not yet yielded.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.invocations.len() - self.next
    }
}

impl InvocationSource for TraceSource<'_> {
    fn next_invocation(&mut self) -> Option<Invocation> {
        let inv = self.invocations.get(self.next).copied()?;
        self.next += 1;
        Some(inv)
    }
}

/// Why a [`LaneIngest`] send did not land. The invocation rides along
/// so the producer can retry or shed it explicitly — nothing is
/// silently dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestError {
    /// The lane's bounded buffer is full ([`LaneIngest::try_send`]
    /// only): the consumer is behind. Retry later, block via
    /// [`LaneIngest::send`], or shed.
    Backpressure(Invocation),
    /// The consuming [`LiveSource`] is gone; the stream is over.
    Closed(Invocation),
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Backpressure(i) => {
                write!(f, "lane full: backpressure on arrival at {} ms", i.t_ms)
            }
            IngestError::Closed(i) => {
                write!(f, "live source closed; arrival at {} ms dropped", i.t_ms)
            }
        }
    }
}

impl std::error::Error for IngestError {}

/// Producer handle for one [`LiveSource`] lane. Dropping it closes the
/// lane; the source moves on to the next lane once the buffer drains.
#[derive(Debug)]
pub struct LaneIngest {
    tx: SyncSender<Invocation>,
    lane: usize,
}

impl LaneIngest {
    /// Which lane this handle feeds (lanes drain in index order).
    #[inline]
    pub fn lane(&self) -> usize {
        self.lane
    }

    /// Non-blocking send: surfaces a full buffer as
    /// [`IngestError::Backpressure`] instead of waiting.
    pub fn try_send(&self, inv: Invocation) -> Result<(), IngestError> {
        self.tx.try_send(inv).map_err(|e| match e {
            TrySendError::Full(i) => IngestError::Backpressure(i),
            TrySendError::Disconnected(i) => IngestError::Closed(i),
        })
    }

    /// Blocking send: waits while the lane is full, erring only if the
    /// consumer is gone.
    pub fn send(&self, inv: Invocation) -> Result<(), IngestError> {
        self.tx.send(inv).map_err(|e| IngestError::Closed(e.0))
    }
}

/// Consumer end of a set of bounded ingest lanes; see the module docs
/// for the ordering contract. Build with [`live_lanes`].
#[derive(Debug)]
pub struct LiveSource {
    lanes: Vec<Receiver<Invocation>>,
    current: usize,
}

impl InvocationSource for LiveSource {
    fn next_invocation(&mut self) -> Option<Invocation> {
        while let Some(rx) = self.lanes.get(self.current) {
            match rx.recv() {
                Ok(inv) => return Some(inv),
                // Lane closed and drained: advance to the next one.
                Err(_) => self.current += 1,
            }
        }
        None
    }
}

/// Build `lanes` bounded ingest lanes of `capacity` invocations each,
/// returning one [`LaneIngest`] per producer and the [`LiveSource`]
/// draining them in lane order.
///
/// # Panics
///
/// If `lanes == 0` or `capacity == 0` (a zero-capacity rendezvous
/// channel would make `try_send` fail unless the consumer is already
/// parked on this exact lane — backpressure by coincidence).
pub fn live_lanes(lanes: usize, capacity: usize) -> (Vec<LaneIngest>, LiveSource) {
    assert!(lanes > 0, "need at least one ingest lane");
    assert!(capacity > 0, "lanes need a nonzero buffer");
    let mut handles = Vec::with_capacity(lanes);
    let mut receivers = Vec::with_capacity(lanes);
    for lane in 0..lanes {
        let (tx, rx) = sync_channel(capacity);
        handles.push(LaneIngest { tx, lane });
        receivers.push(rx);
    }
    (
        handles,
        LiveSource {
            lanes: receivers,
            current: 0,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{FunctionId, FunctionProfile, WorkloadCatalog};
    use crate::Trace;
    use std::thread;

    fn inv(f: u32, t: u64) -> Invocation {
        Invocation {
            func: FunctionId(f),
            t_ms: t,
        }
    }

    fn catalog1() -> WorkloadCatalog {
        WorkloadCatalog::new(vec![FunctionProfile::new("a", 100, 100, 128, 0.5)])
    }

    #[test]
    fn trace_source_replays_in_order() {
        let t = Trace::new(catalog1(), vec![inv(0, 30), inv(0, 10), inv(0, 20)]);
        let mut s = t.source();
        assert_eq!(s.remaining(), 3);
        let drained: Vec<u64> =
            std::iter::from_fn(|| s.next_invocation().map(|i| i.t_ms)).collect();
        assert_eq!(drained, vec![10, 20, 30]);
        assert_eq!(s.remaining(), 0);
        assert_eq!(s.next_invocation(), None); // stays exhausted
    }

    #[test]
    fn live_lanes_drain_in_lane_order() {
        let (handles, mut source) = live_lanes(3, 4);
        // Feed out of lane order; consumption is still lane 0, 1, 2.
        handles[2].send(inv(0, 200)).unwrap();
        handles[0].send(inv(0, 1)).unwrap();
        handles[1].send(inv(0, 100)).unwrap();
        handles[0].send(inv(0, 2)).unwrap();
        drop(handles);
        let drained: Vec<u64> =
            std::iter::from_fn(|| source.next_invocation().map(|i| i.t_ms)).collect();
        assert_eq!(drained, vec![1, 2, 100, 200]);
        assert_eq!(source.next_invocation(), None);
    }

    #[test]
    fn ingest_error_displays_and_is_std_error() {
        let errs: Vec<Box<dyn std::error::Error>> = vec![
            Box::new(IngestError::Backpressure(inv(0, 17))),
            Box::new(IngestError::Closed(inv(0, 23))),
        ];
        let rendered: Vec<String> = errs.iter().map(|e| e.to_string()).collect();
        assert!(rendered[0].contains("backpressure on arrival at 17 ms"));
        assert!(rendered[1].contains("closed; arrival at 23 ms dropped"));
    }

    #[test]
    fn try_send_reports_backpressure_without_losing_the_invocation() {
        let (handles, mut source) = live_lanes(1, 1);
        handles[0].try_send(inv(0, 1)).unwrap();
        match handles[0].try_send(inv(0, 2)) {
            Err(IngestError::Backpressure(i)) => assert_eq!(i.t_ms, 2),
            other => panic!("expected backpressure, got {other:?}"),
        }
        // Draining frees the slot.
        assert_eq!(source.next_invocation().unwrap().t_ms, 1);
        handles[0].try_send(inv(0, 2)).unwrap();
    }

    #[test]
    fn send_into_dropped_source_reports_closed() {
        let (handles, source) = live_lanes(2, 2);
        drop(source);
        assert_eq!(
            handles[0].send(inv(0, 5)),
            Err(IngestError::Closed(inv(0, 5)))
        );
        assert_eq!(
            handles[1].try_send(inv(0, 6)),
            Err(IngestError::Closed(inv(0, 6)))
        );
    }

    #[test]
    fn contiguous_chunk_producers_merge_identically_at_any_thread_count() {
        // One workload, split into contiguous time chunks per producer.
        let all: Vec<Invocation> = (0..64u64).map(|t| inv(0, t * 7)).collect();
        let mut sequences = Vec::new();
        for producers in [1usize, 2, 4] {
            let (handles, mut source) = live_lanes(producers, 2);
            let chunk = all.len().div_ceil(producers);
            thread::scope(|s| {
                for (handle, part) in handles.into_iter().zip(all.chunks(chunk)) {
                    s.spawn(move || {
                        for &i in part {
                            handle.send(i).unwrap();
                        }
                    });
                }
                let drained: Vec<Invocation> =
                    std::iter::from_fn(|| source.next_invocation()).collect();
                sequences.push(drained);
            });
        }
        assert_eq!(sequences[0], all);
        assert_eq!(sequences[0], sequences[1]);
        assert_eq!(sequences[1], sequences[2]);
    }
}
