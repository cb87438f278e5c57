//! A schedulable hardware node: one CPU package plus its DRAM.

use crate::{CpuModel, DramModel, Region};

/// Identifier of a node inside a fleet: equal to the node's position in
/// [`Fleet`](crate::Fleet) order, so it doubles as an index for
/// array-backed per-node state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Stable index for array-backed per-node state.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// One bare-metal node (CPU + DRAM).
///
/// `keepalive_mem_mib` bounds the warm pool hosted on this node — the paper
/// varies this independently of the physical DRAM size in the Fig. 11
/// memory-pressure study ("old/new" GiB combinations), so it is a separate
/// knob rather than `dram.capacity_mib`.
#[derive(Debug, Clone, PartialEq)]
pub struct HardwareNode {
    pub id: NodeId,
    pub cpu: CpuModel,
    pub dram: DramModel,
    /// The grid region this node is deployed in: its executions and
    /// keep-alives burn that grid's carbon intensity. Defaults to the
    /// paper's CISO region; multi-region fleets tag nodes via
    /// [`HardwareNode::with_region`].
    pub region: Region,
    /// Memory budget available for keeping functions warm (MiB).
    pub keepalive_mem_mib: u64,
    /// Embodied-carbon amortization horizon (ms); defaults to 4 years.
    pub lifetime_ms: u64,
}

impl HardwareNode {
    /// Build a node with the default four-year lifetime and the full DRAM
    /// capacity available for keep-alive.
    pub fn new(id: NodeId, cpu: CpuModel, dram: DramModel) -> Self {
        let keepalive_mem_mib = dram.capacity_mib;
        HardwareNode {
            id,
            cpu,
            dram,
            region: Region::Caiso,
            keepalive_mem_mib,
            lifetime_ms: crate::DEFAULT_LIFETIME_MS,
        }
    }

    /// Restrict the warm-pool budget (used by the Fig. 11 sweep).
    pub fn with_keepalive_budget_mib(mut self, mib: u64) -> Self {
        self.keepalive_mem_mib = mib;
        self
    }

    /// Deploy the node in `region` (its CI series is resolved per node
    /// at simulation time).
    pub fn with_region(mut self, region: Region) -> Self {
        self.region = region;
        self
    }

    /// Override the amortization lifetime (used by sensitivity studies).
    pub fn with_lifetime_ms(mut self, lifetime_ms: u64) -> Self {
        self.lifetime_ms = lifetime_ms;
        self
    }

    /// Hardware age gap in years relative to another node.
    pub fn year_gap(&self, other: &HardwareNode) -> i32 {
        self.cpu.year as i32 - other.cpu.year as i32
    }

    /// Concurrency limit of this node's bounded executor (see
    /// [`CpuModel::executor_slots`]): invocations beyond this many
    /// simultaneous executions queue.
    #[inline]
    pub fn executor_slots(&self) -> usize {
        self.cpu.executor_slots()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skus;

    #[test]
    fn display_formats() {
        assert_eq!(NodeId(3).to_string(), "n3");
    }

    #[test]
    fn generation_maps_to_canonical_pair_slots() {
        // Every Table I pair fleet puts its old node first.
        for fleet in [skus::fleet_a(), skus::fleet_b(), skus::fleet_c()] {
            assert_eq!(fleet.oldest(), NodeId(0));
            assert_eq!(fleet.newest(), NodeId(1));
        }
        assert_eq!(NodeId(0).index(), 0);
    }

    #[test]
    fn new_node_defaults_keepalive_budget_to_dram_capacity() {
        let n = HardwareNode::new(NodeId(0), skus::xeon_e5_2686(), skus::micron_512());
        assert_eq!(n.keepalive_mem_mib, n.dram.capacity_mib);
        assert_eq!(n.lifetime_ms, crate::DEFAULT_LIFETIME_MS);
        // The paper's default deployment region.
        assert_eq!(n.region, Region::Caiso);
    }

    #[test]
    fn with_region_tags_the_node() {
        let n = HardwareNode::new(NodeId(0), skus::xeon_e5_2686(), skus::micron_512())
            .with_region(Region::Texas);
        assert_eq!(n.region, Region::Texas);
    }

    #[test]
    fn budget_and_lifetime_builders() {
        let n = HardwareNode::new(NodeId(1), skus::xeon_platinum_8252c(), skus::samsung_192())
            .with_keepalive_budget_mib(15 * 1024)
            .with_lifetime_ms(1_000);
        assert_eq!(n.keepalive_mem_mib, 15 * 1024);
        assert_eq!(n.lifetime_ms, 1_000);
    }

    #[test]
    fn year_gap_signed() {
        let old = HardwareNode::new(NodeId(0), skus::xeon_e5_2686(), skus::micron_512());
        let new = HardwareNode::new(NodeId(1), skus::xeon_platinum_8252c(), skus::samsung_192());
        assert_eq!(new.year_gap(&old), 4);
        assert_eq!(old.year_gap(&new), -4);
    }
}
