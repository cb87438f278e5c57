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
//! * [`LiveSource`] — drains N bounded lanes, each fed by a
//!   [`LaneIngest`] handle from its own producer thread. Lanes are
//!   drained *in lane order* (lane 0 to exhaustion, then lane 1, …), so
//!   when producers own contiguous, non-overlapping time ranges —
//!   lane 0 earliest — the merged sequence is chronological and
//!   **identical at any producer-thread count**, while the bounded
//!   lanes still exert real backpressure on fast producers
//!   ([`LaneIngest::try_send`] surfaces it as a typed error instead of
//!   blocking).
//!
//! The contiguous-chunk discipline is deliberately the caller's
//! contract, not a runtime merge: a timestamp-ordered N-way merge of
//! concurrently racing producers would need unbounded buffering (or
//! watermarks) to be deterministic. Owning time ranges keeps producers
//! genuinely parallel — each fills its lane while earlier lanes drain —
//! yet leaves the consumed order a pure function of the workload.
//!
//! # The batched handoff
//!
//! A lane is a FIFO queue behind one lock. When the [`LiveSource`] has
//! yielded everything it took, it locks the current lane once, moves
//! every queued arrival into a local batch, and yields from that batch
//! without locking. A lane's `capacity` counts the arrivals sent and
//! not yet yielded — those still queued plus those waiting in the
//! batch — so [`LaneIngest::try_send`] reports backpressure exactly
//! when `capacity` arrivals are in flight, however they are split.
//!
//! A producer that finds its lane full parks in [`LaneIngest::send`].
//! It is woken once, when the consumer's yields leave half the lane
//! free, not on every pull: on a full lane the consumer is the slower
//! side, and waking the producer per arrival costs more than the hand
//! over itself. A consumer parked on an empty lane is woken by every
//! arrival, so a lightly loaded lane adds no latency. Dropping the
//! source wakes every parked producer, whose send then fails with
//! [`IngestError::Closed`].

use crate::invocation::Invocation;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

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

/// One bounded lane, shared by its [`LaneIngest`] and the [`LiveSource`]
/// (see the module docs for the handoff).
#[derive(Debug)]
struct Lane {
    queue: Mutex<Queue>,
    capacity: usize,
    /// Arrivals sent and not yet yielded: queued ones plus those in the
    /// consumer's batch. Senders raise it under the lock; the consumer
    /// lowers it by one per yield, without the lock.
    in_flight: AtomicUsize,
    /// A sender is parked (or about to park) in `send` on the full lane.
    /// Senders set it under the lock; the consumer clears it under the
    /// lock before waking them.
    sender_parked: AtomicBool,
    /// Signalled on every arrival while the consumer is parked, and when
    /// the sender hangs up.
    filled: Condvar,
    /// Signalled when half the lane is free again, and when the source
    /// is dropped.
    freed: Condvar,
}

#[derive(Debug, Default)]
struct Queue {
    items: VecDeque<Invocation>,
    consumer_parked: bool,
    sender_gone: bool,
    source_gone: bool,
}

impl Lane {
    fn new(capacity: usize) -> Self {
        Lane {
            queue: Mutex::default(),
            capacity,
            in_flight: AtomicUsize::new(0),
            sender_parked: AtomicBool::new(false),
            filled: Condvar::new(),
            freed: Condvar::new(),
        }
    }

    /// Every critical section leaves the queue and its flags valid, so a
    /// thread that panicked while holding the lock left nothing half
    /// done: a poisoned lock is used as is.
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn has_room(&self) -> bool {
        self.in_flight.load(SeqCst) < self.capacity
    }

    /// Queue `inv` and unlock; the caller checked for room under `q`.
    /// The wake comes after the unlock, so the woken consumer does not
    /// find the lock still held and park on it a second time.
    fn push(&self, mut q: MutexGuard<'_, Queue>, inv: Invocation) {
        q.items.push_back(inv);
        self.in_flight.fetch_add(1, SeqCst);
        let wake = q.consumer_parked;
        drop(q);
        if wake {
            self.filled.notify_one();
        }
    }

    /// Move every queued arrival into the empty `batch`, waiting while
    /// the lane is empty and its sender still there. `false` once the
    /// sender has hung up and nothing is left.
    fn refill(&self, batch: &mut VecDeque<Invocation>) -> bool {
        let mut q = self.lock();
        while q.items.is_empty() {
            if q.sender_gone {
                return false;
            }
            q.consumer_parked = true;
            q = self.filled.wait(q).unwrap_or_else(PoisonError::into_inner);
            q.consumer_parked = false;
        }
        std::mem::swap(&mut q.items, batch);
        true
    }

    /// The consumer handed one arrival of its batch over. Wakes a parked
    /// sender when this yield leaves half the lane free: a sender parks
    /// only on a full lane, and only the consumer lowers the count, so
    /// the count passes through this value after any sender parked.
    fn yielded(&self) {
        let left = self.in_flight.fetch_sub(1, SeqCst) - 1;
        if left == self.capacity / 2 && self.sender_parked.load(SeqCst) {
            // Under the lock, no sender is between setting the flag and
            // sleeping; wake them after it, as `push` does.
            let q = self.lock();
            self.sender_parked.store(false, SeqCst);
            drop(q);
            self.freed.notify_all();
        }
    }
}

/// Producer handle for one [`LiveSource`] lane. Dropping it closes the
/// lane; the source moves on to the next lane once the buffer drains.
#[derive(Debug)]
pub struct LaneIngest {
    shared: Arc<Lane>,
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
        let q = self.shared.lock();
        if q.source_gone {
            Err(IngestError::Closed(inv))
        } else if self.shared.has_room() {
            self.shared.push(q, inv);
            Ok(())
        } else {
            Err(IngestError::Backpressure(inv))
        }
    }

    /// Blocking send: waits while the lane is full, erring only if the
    /// consumer is gone.
    pub fn send(&self, inv: Invocation) -> Result<(), IngestError> {
        let lane = &*self.shared;
        let mut q = lane.lock();
        loop {
            if q.source_gone {
                return Err(IngestError::Closed(inv));
            }
            if lane.has_room() {
                lane.push(q, inv);
                return Ok(());
            }
            // The consumer lowers the count, then reads the flag; this
            // sets the flag, then reads the count. All four are SeqCst,
            // so either this read sees room or the consumer sees the
            // flag and wakes us.
            lane.sender_parked.store(true, SeqCst);
            if !lane.has_room() {
                q = lane.freed.wait(q).unwrap_or_else(PoisonError::into_inner);
            }
        }
    }
}

impl Drop for LaneIngest {
    fn drop(&mut self) {
        self.shared.lock().sender_gone = true;
        self.shared.filled.notify_one();
    }
}

/// Consumer end of a set of bounded ingest lanes; see the module docs
/// for the ordering contract. Build with [`live_lanes`].
#[derive(Debug)]
pub struct LiveSource {
    lanes: Vec<Arc<Lane>>,
    current: usize,
    /// Arrivals taken from `lanes[current]` and not yet yielded.
    batch: VecDeque<Invocation>,
}

impl InvocationSource for LiveSource {
    fn next_invocation(&mut self) -> Option<Invocation> {
        loop {
            let lane = self.lanes.get(self.current)?;
            if let Some(inv) = self.batch.pop_front() {
                lane.yielded();
                return Some(inv);
            }
            if !lane.refill(&mut self.batch) {
                // Lane closed and drained: advance to the next one.
                self.current += 1;
            }
        }
    }
}

impl Drop for LiveSource {
    fn drop(&mut self) {
        for lane in &self.lanes {
            lane.lock().source_gone = true;
            lane.freed.notify_all();
        }
    }
}

// Producer threads move or share their handles, and the service may
// serve from another thread than the one that built the lanes.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    fn assert_send<T: Send>() {}
    assert_send_sync::<LaneIngest>();
    assert_send::<LiveSource>();
};

/// Build `lanes` bounded ingest lanes of `capacity` invocations each,
/// returning one [`LaneIngest`] per producer and the [`LiveSource`]
/// draining them in lane order.
///
/// # Panics
///
/// If `lanes == 0` or `capacity == 0` (a lane that can hold nothing
/// would never take an arrival).
pub fn live_lanes(lanes: usize, capacity: usize) -> (Vec<LaneIngest>, LiveSource) {
    assert!(lanes > 0, "need at least one ingest lane");
    assert!(capacity > 0, "lanes need a nonzero buffer");
    let shared: Vec<Arc<Lane>> = (0..lanes).map(|_| Arc::new(Lane::new(capacity))).collect();
    let handles = shared
        .iter()
        .enumerate()
        .map(|(lane, s)| LaneIngest {
            shared: Arc::clone(s),
            lane,
        })
        .collect();
    (
        handles,
        LiveSource {
            lanes: shared,
            current: 0,
            batch: VecDeque::new(),
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
    fn a_pull_from_a_full_lane_frees_exactly_one_slot() {
        // The consumer takes the whole queue on its first pull, but the
        // three arrivals it has not yielded still count toward capacity.
        let (handles, mut source) = live_lanes(1, 4);
        for t in 0..4 {
            handles[0].send(inv(0, t)).unwrap();
        }
        assert_eq!(source.next_invocation(), Some(inv(0, 0)));
        handles[0].try_send(inv(0, 4)).unwrap();
        assert_eq!(
            handles[0].try_send(inv(0, 5)),
            Err(IngestError::Backpressure(inv(0, 5)))
        );
    }

    #[test]
    fn a_producer_parked_on_a_full_lane_is_closed_by_the_source_drop() {
        let (handles, source) = live_lanes(1, 2);
        let handle = &handles[0];
        handle.send(inv(0, 1)).unwrap();
        handle.send(inv(0, 2)).unwrap();
        let (about_to_send, ready) = std::sync::mpsc::channel();
        thread::scope(|s| {
            let producer = s.spawn(move || {
                about_to_send.send(()).unwrap();
                handle.send(inv(0, 3))
            });
            // The lane is full, so the producer parks in `send` unless the
            // drop below wins the race; either way it must come back
            // closed rather than hang.
            ready.recv().unwrap();
            drop(source);
            assert_eq!(
                producer.join().unwrap(),
                Err(IngestError::Closed(inv(0, 3)))
            );
        });
    }

    #[test]
    fn threaded_lanes_drain_every_arrival_in_lane_order() {
        // A lost wakeup hangs this test; a reordering fails the compare.
        const PER_LANE: usize = 20_000;
        for capacity in [1, 2, 3, 16] {
            for lanes in [1, 3] {
                let input: Vec<Invocation> = (0..(lanes * PER_LANE) as u64)
                    .map(|t| inv((t % 5) as u32, t))
                    .collect();
                let (handles, mut source) = live_lanes(lanes, capacity);
                let drained = thread::scope(|s| {
                    for (handle, part) in handles.into_iter().zip(input.chunks(PER_LANE)) {
                        s.spawn(move || {
                            for &i in part {
                                handle.send(i).unwrap();
                            }
                        });
                    }
                    std::iter::from_fn(|| source.next_invocation()).collect::<Vec<_>>()
                });
                assert!(
                    drained == input,
                    "capacity {capacity}, {lanes} lanes: drained sequence differs"
                );
                assert_eq!(source.next_invocation(), None);
                assert_eq!(source.next_invocation(), None);
            }
        }
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
