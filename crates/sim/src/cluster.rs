//! Cluster state: an N-node fleet plus one warm pool per node.

use crate::executor::{ExecutorConfig, NodeExecutors};
use crate::pool::WarmPool;
use ecolife_hw::{Fleet, HardwareNode, NodeId};
use ecolife_trace::FunctionId;

/// Cluster state during a simulation run: every fleet node hosts one
/// memory-bounded warm pool (Sec. VI-C: "generalizes to multiple pairs by
/// maintaining multiple warm pools").
///
/// In a sharded run ([`Simulation::run_sharded`](crate::Simulation::run_sharded))
/// each shard owns a whole `Cluster` — its private slice of every node's
/// pool — and the other shards' bytes press on admission through each
/// pool's `external_used_mib`, set at every reconciliation. A function's
/// containers only ever live in its own shard's cluster, so
/// `warm_location` stays a shard-local question.
#[derive(Debug, Clone)]
pub struct Cluster {
    fleet: Fleet,
    pools: Vec<WarmPool>,
    /// Node ids in warm-serving preference order (fastest first), fixed
    /// at construction so the per-invocation lookup does not re-rank.
    warm_order: Vec<NodeId>,
    /// Fleet membership: inactive nodes (left for maintenance /
    /// autoscale-down) accept no keep-alives and no transfers. Execution
    /// routing is unaffected — a leave is a warm-pool drain, not a
    /// capacity change for running invocations.
    active: Vec<bool>,
    /// Bounded per-node executors ([`crate::executor`]), present only
    /// when the run's [`SimConfig`](crate::SimConfig) enables them. In a
    /// sharded run each shard's cluster carries its own copy (executors
    /// see shard-local load only).
    executors: Option<NodeExecutors>,
}

impl Cluster {
    /// Build a cluster; pool budgets come from each node's
    /// `keepalive_mem_mib`.
    pub fn new(fleet: Fleet) -> Self {
        let pools = fleet
            .iter()
            .map(|n| WarmPool::new(n.keepalive_mem_mib))
            .collect();
        let warm_order = fleet.warm_preference();
        let active = vec![true; fleet.len()];
        Cluster {
            fleet,
            pools,
            warm_order,
            active,
            executors: None,
        }
    }

    /// Attach bounded per-node executors (the engine calls this when
    /// [`SimConfig::bounded_executors`](crate::SimConfig) is set).
    /// Concurrency limits derive from each node's core count.
    pub fn enable_executors(&mut self, config: ExecutorConfig) {
        self.executors = Some(NodeExecutors::new(&self.fleet, config));
    }

    /// Whether this cluster bounds per-node concurrency.
    #[inline]
    pub fn executors_enabled(&self) -> bool {
        self.executors.is_some()
    }

    /// The queueing delay an arrival at `t_ms` would measure on `id`'s
    /// executor right now — `0` when executors are disabled or a slot is
    /// free. Exact during [`Scheduler::decide`](crate::Scheduler)
    /// (the engine advances executor clocks to the arrival instant
    /// before deciding), which is how queue-aware placement reads load
    /// without `&mut` access.
    #[inline]
    pub fn queue_wait_ms(&self, id: NodeId, t_ms: u64) -> u64 {
        match &self.executors {
            Some(x) => x.queue_wait_ms(id, t_ms),
            None => 0,
        }
    }

    /// Queue depth (admitted, not yet started) on `id` as of the last
    /// executor advance; `0` when executors are disabled.
    #[inline]
    pub fn queue_depth(&self, id: NodeId) -> usize {
        match &self.executors {
            Some(x) => x.queue_depth(id),
            None => 0,
        }
    }

    /// Mutable executor access for the engine's admission step.
    #[inline]
    pub(crate) fn executors_mut(&mut self) -> Option<&mut NodeExecutors> {
        self.executors.as_mut()
    }

    /// Per-node peak executor occupancy, when executors are enabled.
    pub fn executor_peaks(&self) -> Option<Vec<u32>> {
        self.executors.as_ref().map(|x| x.peaks())
    }

    #[inline]
    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    #[inline]
    pub fn node(&self, id: NodeId) -> &HardwareNode {
        self.fleet.node(id)
    }

    #[inline]
    pub fn pool(&self, id: NodeId) -> &WarmPool {
        &self.pools[id.index()]
    }

    #[inline]
    pub fn pool_mut(&mut self, id: NodeId) -> &mut WarmPool {
        &mut self.pools[id.index()]
    }

    /// Where `func` is currently warm at time `t_ms`, if anywhere.
    /// If warm on several nodes (possible after a cross-pool transfer
    /// races a fresh keep-alive), the highest warm-preference node wins —
    /// it serves the fastest warm start (the two-node case: "the newer
    /// generation wins").
    pub fn warm_location(&self, func: FunctionId, t_ms: u64) -> Option<NodeId> {
        for &id in &self.warm_order {
            if let Some(c) = self.pool(id).get(func) {
                if c.is_warm_at(t_ms) {
                    return Some(id);
                }
            }
        }
        None
    }

    /// Total warm containers across all pools.
    pub fn total_warm(&self) -> usize {
        self.pools.iter().map(|p| p.len()).sum()
    }

    /// Whether `id` is currently a fleet member (keep-alives and
    /// transfers may land there).
    #[inline]
    pub fn is_active(&self, id: NodeId) -> bool {
        self.active[id.index()]
    }

    /// Flip a node's membership (the engine's membership timeline calls
    /// this; a leave drains the pool first).
    pub fn set_active(&mut self, id: NodeId, active: bool) {
        self.active[id.index()] = active;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::WarmContainer;
    use ecolife_hw::skus;

    fn warm(f: u32, since: u64, expiry: u64) -> WarmContainer {
        WarmContainer {
            func: FunctionId(f),
            memory_mib: 128,
            warm_since_ms: since,
            expiry_ms: expiry,
            origin_record: 0,
            transfer_latency_ms: 0,
        }
    }

    #[test]
    fn pools_take_budgets_from_nodes() {
        let fleet = skus::fleet_a()
            .with_keepalive_budget_mib(NodeId(0), 1_000)
            .with_keepalive_budget_mib(NodeId(1), 2_000);
        let c = Cluster::new(fleet);
        assert_eq!(c.pool(NodeId(0)).capacity_mib(), 1_000);
        assert_eq!(c.pool(NodeId(1)).capacity_mib(), 2_000);
    }

    #[test]
    fn warm_location_finds_container() {
        let mut c = Cluster::new(skus::fleet_a());
        c.pool_mut(NodeId(0)).insert(warm(3, 0, 100)).unwrap();
        assert_eq!(c.warm_location(FunctionId(3), 50), Some(NodeId(0)));
        assert_eq!(c.warm_location(FunctionId(3), 100), None); // expired
        assert_eq!(c.warm_location(FunctionId(4), 50), None);
    }

    #[test]
    fn warm_on_several_prefers_fastest() {
        let mut c = Cluster::new(skus::fleet_a());
        c.pool_mut(NodeId(0)).insert(warm(1, 0, 100)).unwrap();
        c.pool_mut(NodeId(1)).insert(warm(1, 0, 100)).unwrap();
        assert_eq!(c.warm_location(FunctionId(1), 10), Some(NodeId(1)));
        assert_eq!(c.total_warm(), 2);
    }

    #[test]
    fn warm_preference_spans_a_three_node_fleet() {
        let mut c = Cluster::new(skus::fleet_three_generations());
        c.pool_mut(NodeId(0)).insert(warm(1, 0, 100)).unwrap();
        c.pool_mut(NodeId(1)).insert(warm(1, 0, 100)).unwrap();
        // The mid-generation node beats the oldest…
        assert_eq!(c.warm_location(FunctionId(1), 10), Some(NodeId(1)));
        // …and the newest beats both.
        c.pool_mut(NodeId(2)).insert(warm(1, 0, 100)).unwrap();
        assert_eq!(c.warm_location(FunctionId(1), 10), Some(NodeId(2)));
    }

    #[test]
    fn future_container_is_not_warm_yet() {
        let mut c = Cluster::new(skus::fleet_a());
        c.pool_mut(NodeId(1)).insert(warm(2, 500, 900)).unwrap();
        assert_eq!(c.warm_location(FunctionId(2), 100), None);
        assert_eq!(c.warm_location(FunctionId(2), 600), Some(NodeId(1)));
    }
}
