//! Bounded per-node executors: cores-limited concurrency, measured
//! queueing delay, and admission control.
//!
//! The batch replayer historically let every node serve unlimited
//! simultaneous executions — queuing delay was folded into the fixed
//! [`SETUP_DELAY_MS`](crate::SETUP_DELAY_MS) constant. With bounded executors enabled
//! ([`SimConfig::with_bounded_executors`](crate::SimConfig)), each node
//! runs at most [`HardwareNode::executor_slots`](ecolife_hw::HardwareNode)
//! executions at once (one per physical core); arrivals beyond that
//! queue, and arrivals beyond the queue bound are rejected (admission
//! control). The *measured* wait is what feeds the service-time term the
//! placement objective sees, so a queue-aware scheduler balances load as
//! well as carbon.
//!
//! ## Model
//!
//! Virtual clock, arrivals in nondecreasing time. A node's executor is a
//! min-heap of *slot free-at* times (at most `slots` entries — one per
//! occupied core). An admitted execution starts at the arrival instant
//! if a slot is free, else at the earliest free-at time; its wait is
//! `start - t`. A second min-heap tracks the *start* times of admitted
//! but not-yet-started executions — its length is the queue depth the
//! admission bound is checked against. Everything is deterministic in
//! the arrival order, so the sharded engine's thread-invariance and the
//! service ≡ batch stream pins carry over unchanged.

use ecolife_hw::{Fleet, NodeId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Knobs for the bounded-executor model. Per-node concurrency is not a
/// knob — it derives from the hardware
/// ([`CpuModel::executor_slots`](ecolife_hw::CpuModel::executor_slots)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutorConfig {
    /// Admission bound: how many invocations may wait for a node's
    /// executor at once. An arrival that finds the queue at this depth
    /// is rejected ([`Admission::Rejected`]).
    pub queue_cap: usize,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig { queue_cap: 32 }
    }
}

/// Outcome of offering one invocation to a node's bounded executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Admitted: execution occupies a slot over
    /// `[start_ms, start_ms + exec_ms)`. `queue_ms == start_ms - t` is 0
    /// when a slot was free on arrival; `depth` is the queue length
    /// *including* this invocation (0 when it started immediately).
    Started {
        start_ms: u64,
        queue_ms: u64,
        depth: u32,
    },
    /// Turned away: the queue already held `depth` waiters (its
    /// configured bound). Nothing was enqueued.
    Rejected { depth: u32 },
}

/// One node's bounded executor.
#[derive(Debug, Clone)]
struct BoundedExecutor {
    /// Concurrency limit (≥ 1; from the node's core count).
    slots: usize,
    /// Free-at times of occupied slots (min-heap; ≤ `slots` entries).
    /// Entries at or before the current instant are pruned by
    /// [`BoundedExecutor::prune`] — a freed core.
    busy: BinaryHeap<Reverse<u64>>,
    /// Start times of admitted executions still waiting for their slot
    /// (min-heap). Its post-prune length is the queue depth.
    pending: BinaryHeap<Reverse<u64>>,
    /// Peak occupied slots observed over the run.
    peak: u32,
}

impl BoundedExecutor {
    fn new(slots: usize) -> Self {
        BoundedExecutor {
            slots: slots.max(1),
            busy: BinaryHeap::new(),
            pending: BinaryHeap::new(),
            peak: 0,
        }
    }

    /// Retire everything finished (or started) by `t`.
    fn prune(&mut self, t: u64) {
        while matches!(self.busy.peek(), Some(&Reverse(at)) if at <= t) {
            self.busy.pop();
        }
        while matches!(self.pending.peek(), Some(&Reverse(at)) if at <= t) {
            self.pending.pop();
        }
    }

    /// The wait a new arrival at `t` would measure (exact once pruned to
    /// `t`): 0 with a free slot, else earliest free-at minus now.
    fn queue_wait_ms(&self, t: u64) -> u64 {
        if self.busy.len() < self.slots {
            0
        } else {
            match self.busy.peek() {
                Some(&Reverse(free_at)) => free_at.saturating_sub(t),
                None => 0,
            }
        }
    }

    fn admit(&mut self, t: u64, exec_ms: u64, queue_cap: usize) -> Admission {
        self.prune(t);
        if self.pending.len() >= queue_cap {
            return Admission::Rejected {
                depth: self.pending.len() as u32,
            };
        }
        let start_ms = if self.busy.len() < self.slots {
            t
        } else {
            let Reverse(free_at) = self.busy.pop().expect("full executor holds slot entries");
            debug_assert!(free_at > t, "pruned heap holds only future free-at times");
            free_at
        };
        self.busy.push(Reverse(start_ms + exec_ms));
        self.peak = self.peak.max(self.busy.len() as u32);
        let queue_ms = start_ms - t;
        if queue_ms > 0 {
            self.pending.push(Reverse(start_ms));
        }
        Admission::Started {
            start_ms,
            queue_ms,
            depth: self.pending.len() as u32,
        }
    }
}

/// One bounded executor per fleet node, indexed by [`NodeId`].
///
/// Owned by the [`Cluster`](crate::Cluster) when
/// [`SimConfig::with_bounded_executors`](crate::SimConfig) is set — in a
/// sharded run each shard's cluster carries its own copy, so a shard's
/// executors see only shard-local load (the determinism pin is service ≡
/// *sequential* batch; sharded replay stays thread-invariant at a fixed
/// shard count but resolves saturation per shard).
#[derive(Debug, Clone)]
pub struct NodeExecutors {
    queue_cap: usize,
    nodes: Vec<BoundedExecutor>,
}

impl NodeExecutors {
    /// One executor per node of `fleet`, concurrency from each node's
    /// core count.
    pub fn new(fleet: &Fleet, config: ExecutorConfig) -> Self {
        NodeExecutors {
            queue_cap: config.queue_cap,
            nodes: fleet
                .iter()
                .map(|n| BoundedExecutor::new(n.executor_slots()))
                .collect(),
        }
    }

    /// Retire every slot freed and every queued start reached by `t`,
    /// on every node. The engine calls this once per arrival, *before*
    /// the scheduler decides, so [`NodeExecutors::queue_wait_ms`] reads
    /// are exact without mutation.
    pub fn advance(&mut self, t: u64) {
        for node in &mut self.nodes {
            node.prune(t);
        }
    }

    /// The wait an arrival at `t` would measure on `node` right now
    /// (exact after [`NodeExecutors::advance`]`(t)`).
    #[inline]
    pub fn queue_wait_ms(&self, node: NodeId, t: u64) -> u64 {
        self.nodes[node.index()].queue_wait_ms(t)
    }

    /// Queue depth on `node` (admitted, not yet started) as of the last
    /// [`NodeExecutors::advance`].
    #[inline]
    pub fn queue_depth(&self, node: NodeId) -> usize {
        self.nodes[node.index()].pending.len()
    }

    /// Offer one invocation of `exec_ms` to `node`'s executor at `t`.
    pub fn admit(&mut self, node: NodeId, t: u64, exec_ms: u64) -> Admission {
        let cap = self.queue_cap;
        self.nodes[node.index()].admit(t, exec_ms, cap)
    }

    /// Clear `node`'s executor outright — a crash loses every occupied
    /// slot and queued waiter instantly. The observed peak is kept (it
    /// happened).
    pub fn reset(&mut self, node: NodeId) {
        let n = &mut self.nodes[node.index()];
        n.busy.clear();
        n.pending.clear();
    }

    /// Per-node peak occupied slots over the run (index = `NodeId`).
    pub fn peaks(&self) -> Vec<u32> {
        self.nodes.iter().map(|n| n.peak).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecolife_hw::skus;

    fn two_slot_executors(queue_cap: usize) -> NodeExecutors {
        // fleet_a nodes have many cores; build a tiny hand-tuned executor
        // set instead so saturation is reachable in a unit test.
        let fleet = skus::fleet_a();
        let mut x = NodeExecutors::new(&fleet, ExecutorConfig { queue_cap });
        for node in &mut x.nodes {
            node.slots = 2;
        }
        x
    }

    #[test]
    fn free_slots_start_immediately() {
        let mut x = two_slot_executors(4);
        let n = NodeId(0);
        assert_eq!(x.queue_wait_ms(n, 0), 0);
        match x.admit(n, 0, 100) {
            Admission::Started {
                start_ms,
                queue_ms,
                depth,
            } => {
                assert_eq!((start_ms, queue_ms, depth), (0, 0, 0));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn saturation_queues_with_measured_wait() {
        let mut x = two_slot_executors(4);
        let n = NodeId(0);
        x.admit(n, 0, 100);
        x.admit(n, 0, 150);
        // Third arrival at t=10: both slots busy; earliest frees at 100.
        x.advance(10);
        assert_eq!(x.queue_wait_ms(n, 10), 90);
        match x.admit(n, 10, 50) {
            Admission::Started {
                start_ms,
                queue_ms,
                depth,
            } => {
                assert_eq!((start_ms, queue_ms, depth), (100, 90, 1));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Fourth at t=20 waits for the 150-finisher.
        x.advance(20);
        assert_eq!(x.queue_wait_ms(n, 20), 130);
        assert_eq!(x.queue_depth(n), 1);
    }

    #[test]
    fn queue_bound_rejects_then_recovers() {
        let mut x = two_slot_executors(1);
        let n = NodeId(1);
        x.admit(n, 0, 1_000);
        x.admit(n, 0, 1_000);
        // Queue capacity 1: first waiter admitted, second rejected.
        assert!(matches!(
            x.admit(n, 0, 10),
            Admission::Started {
                queue_ms: 1_000,
                ..
            }
        ));
        assert_eq!(x.admit(n, 0, 10), Admission::Rejected { depth: 1 });
        // After the waiter starts, admission reopens.
        x.advance(1_000);
        assert_eq!(x.queue_depth(n), 0);
        assert!(matches!(x.admit(n, 1_000, 10), Admission::Started { .. }));
    }

    #[test]
    fn peaks_track_occupied_slots() {
        let mut x = two_slot_executors(4);
        let n = NodeId(0);
        assert_eq!(x.peaks()[0], 0);
        x.admit(n, 0, 100);
        assert_eq!(x.peaks()[0], 1);
        x.admit(n, 0, 100);
        x.admit(n, 0, 100); // queued — still only 2 slots occupied
        assert_eq!(x.peaks(), vec![2, 0]);
    }

    #[test]
    fn reset_clears_slots_and_queue_but_keeps_the_peak() {
        let mut x = two_slot_executors(4);
        let n = NodeId(0);
        x.admit(n, 0, 1_000);
        x.admit(n, 0, 1_000);
        x.admit(n, 0, 10); // queued
        assert_eq!(x.queue_depth(n), 1);
        x.reset(n);
        assert_eq!(x.queue_depth(n), 0);
        assert_eq!(x.queue_wait_ms(n, 1), 0);
        assert_eq!(x.peaks(), vec![2, 0]);
        // Admission restarts from empty.
        assert!(matches!(
            x.admit(n, 1, 10),
            Admission::Started { queue_ms: 0, .. }
        ));
    }

    #[test]
    fn slots_derive_from_cores() {
        let fleet = skus::fleet_a();
        let x = NodeExecutors::new(&fleet, ExecutorConfig::default());
        for (exec, node) in x.nodes.iter().zip(fleet.iter()) {
            assert_eq!(exec.slots, node.executor_slots());
        }
    }
}
