//! Online fleet membership: nodes joining and leaving mid-trace.
//!
//! A [`MembershipPlan`] is a time-sorted list of maintenance/autoscale
//! events the engine applies while replaying. A **leave** drains the
//! node's warm pool through the priced migration ranking (each
//! container settles its stay on the leaving node, pays the configured
//! [`TransferCost`](ecolife_carbon::TransferCost), and restarts on the
//! cleanest active node with room — or is evicted), then marks the node
//! inactive: no keep-alive or transfer lands there until it rejoins.
//! Execution routing is untouched — leaving is a warm-pool drain, not a
//! capacity change for running invocations.
//!
//! The plan is applied identically by the sequential and sharded
//! engines (each shard replays the same timeline against its own
//! cluster slice), so membership keeps the stream/bit-identity
//! guarantees of the rest of the engine.

use ecolife_hw::NodeId;

/// One membership change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MembershipEvent {
    /// When the change takes effect (ms). Events after the trace
    /// horizon never fire.
    pub t_ms: u64,
    pub node: NodeId,
    /// `true` = the node (re)joins; `false` = it leaves and its pool
    /// drains.
    pub join: bool,
}

/// A time-sorted membership timeline. Empty by default — the engine
/// with an empty plan is exactly the fixed-fleet engine.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MembershipPlan {
    events: Vec<MembershipEvent>,
}

impl MembershipPlan {
    /// Build a plan; events are sorted by `(t_ms, node, join)` so the
    /// replay order is total regardless of construction order (at equal
    /// times a leave applies before a join).
    pub fn new(mut events: Vec<MembershipEvent>) -> Self {
        events.sort_by_key(|e| (e.t_ms, e.node.0, e.join));
        MembershipPlan { events }
    }

    /// Append a leave at `t_ms` (builder style).
    pub fn leave(mut self, t_ms: u64, node: NodeId) -> Self {
        self.events.push(MembershipEvent {
            t_ms,
            node,
            join: false,
        });
        Self::new(self.events)
    }

    /// Append a (re)join at `t_ms` (builder style).
    pub fn join(mut self, t_ms: u64, node: NodeId) -> Self {
        self.events.push(MembershipEvent {
            t_ms,
            node,
            join: true,
        });
        Self::new(self.events)
    }

    /// The timeline, in replay order.
    pub fn events(&self) -> &[MembershipEvent] {
        &self.events
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_sorts_by_time_then_node() {
        let plan = MembershipPlan::default()
            .join(5_000, NodeId(2))
            .leave(1_000, NodeId(3))
            .leave(5_000, NodeId(1));
        let times: Vec<(u64, u32, bool)> = plan
            .events()
            .iter()
            .map(|e| (e.t_ms, e.node.0, e.join))
            .collect();
        assert_eq!(
            times,
            vec![(1_000, 3, false), (5_000, 1, false), (5_000, 2, true)]
        );
    }

    #[test]
    fn leave_sorts_before_join_at_equal_time_and_node() {
        let plan = MembershipPlan::default()
            .join(1_000, NodeId(0))
            .leave(1_000, NodeId(0));
        assert!(!plan.events()[0].join);
        assert!(plan.events()[1].join);
        assert_eq!(plan.len(), 2);
        assert!(!plan.is_empty());
    }
}
