//! An N-node heterogeneous fleet — the unit of deployment the scheduler
//! operates over.
//!
//! The paper evaluates exactly two nodes (one old-generation, one
//! new-generation), and notes in Sec. VI-C that the approach
//! "generalizes to multiple pairs by maintaining multiple warm pools".
//! [`Fleet`] is that generalization: an ordered, non-empty set of
//! [`HardwareNode`]s addressed by [`NodeId`]. Every layer above —
//! cluster state, engine, schedulers, optimizers — is keyed by `NodeId`,
//! so a Table I pair is simply the `N = 2` special case (see
//! [`skus::fleet_a`](crate::skus::fleet_a): old node 0, new node 1).

use crate::{HardwareNode, NodeId, Region};

/// An ordered, non-empty set of schedulable hardware nodes.
///
/// Node `i` carries `NodeId(i)`: the id doubles as the index, which keeps
/// array-backed per-node state (warm pools, counters) trivially addressable.
#[derive(Debug, Clone, PartialEq)]
pub struct Fleet {
    nodes: Vec<HardwareNode>,
}

impl Fleet {
    /// Build a fleet from nodes.
    ///
    /// # Panics
    /// Panics when `nodes` is empty or when a node's id does not match its
    /// position — an id/index mismatch would silently misroute every
    /// placement downstream.
    pub fn new(nodes: Vec<HardwareNode>) -> Self {
        assert!(!nodes.is_empty(), "a fleet needs at least one node");
        for (i, n) in nodes.iter().enumerate() {
            assert_eq!(
                n.id,
                NodeId(i as u32),
                "node at position {i} carries id {:?}; fleet ids must equal positions",
                n.id
            );
        }
        Fleet { nodes }
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Always `false` (the constructor rejects empty fleets); present for
    /// API completeness.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Node ids in position order.
    #[inline]
    pub fn ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterate nodes in position order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = &HardwareNode> {
        self.nodes.iter()
    }

    /// The node with `id`.
    ///
    /// # Panics
    /// Panics when `id` names no node of this fleet.
    #[inline]
    pub fn node(&self, id: NodeId) -> &HardwareNode {
        &self.nodes[id.0 as usize]
    }

    /// Mutable node accessor (used by memory-budget sweeps).
    #[inline]
    pub fn node_mut(&mut self, id: NodeId) -> &mut HardwareNode {
        &mut self.nodes[id.0 as usize]
    }

    /// Whether `id` names a node of this fleet.
    #[inline]
    pub fn contains(&self, id: NodeId) -> bool {
        (id.0 as usize) < self.nodes.len()
    }

    /// Node ids ranked by warm-serving preference: fastest first
    /// (descending `perf_index`, then descending CPU year, then ascending
    /// id for determinism).
    ///
    /// When a function is warm on several nodes at once, the cluster
    /// serves from the highest-ranked one — the two-node special case of
    /// "the newer generation wins; it serves the faster warm start".
    pub fn warm_preference(&self) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = self.ids().collect();
        ids.sort_by(|a, b| {
            let (na, nb) = (self.node(*a), self.node(*b));
            nb.cpu
                .perf_index
                .partial_cmp(&na.cpu.perf_index)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(nb.cpu.year.cmp(&na.cpu.year))
                .then(a.cmp(b))
        });
        ids
    }

    /// Every node except `exclude`, in id order — the default set of
    /// transfer targets when a warm-pool adjustment displaces containers
    /// and the scheduler supplied no explicit ranking.
    pub fn transfer_candidates(&self, exclude: NodeId) -> Vec<NodeId> {
        self.ids().filter(|&id| id != exclude).collect()
    }

    /// The newest node: highest CPU year, ties broken by `perf_index`,
    /// then by id. Baselines pin themselves here (`New-Only` on an
    /// N-node fleet).
    pub fn newest(&self) -> NodeId {
        self.extreme(|a, b| {
            a.cpu.year.cmp(&b.cpu.year).then(
                a.cpu
                    .perf_index
                    .partial_cmp(&b.cpu.perf_index)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
        })
    }

    /// The oldest node (inverse ranking of [`Fleet::newest`]).
    pub fn oldest(&self) -> NodeId {
        self.extreme(|a, b| {
            b.cpu.year.cmp(&a.cpu.year).then(
                b.cpu
                    .perf_index
                    .partial_cmp(&a.cpu.perf_index)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
        })
    }

    fn extreme(&self, cmp: impl Fn(&HardwareNode, &HardwareNode) -> std::cmp::Ordering) -> NodeId {
        self.ids()
            .max_by(|a, b| cmp(self.node(*a), self.node(*b)).then(b.cmp(a)))
            .expect("fleet is non-empty")
    }

    /// Apply one keep-alive memory budget (MiB) to every node — the
    /// N-node version of the Fig. 11 memory sweep knob.
    pub fn with_uniform_keepalive_budget_mib(mut self, mib: u64) -> Self {
        for n in &mut self.nodes {
            n.keepalive_mem_mib = mib;
        }
        self
    }

    /// Set one node's keep-alive budget (MiB).
    pub fn with_keepalive_budget_mib(mut self, id: NodeId, mib: u64) -> Self {
        self.node_mut(id).keepalive_mem_mib = mib;
        self
    }

    /// Deploy every node in one region.
    pub fn with_uniform_region(mut self, region: Region) -> Self {
        for n in &mut self.nodes {
            n.region = region;
        }
        self
    }

    /// Deploy one node in `region`.
    pub fn with_region(mut self, id: NodeId, region: Region) -> Self {
        self.node_mut(id).region = region;
        self
    }

    /// The distinct regions this fleet spans, in first-appearance (node
    /// id) order. A single-region fleet — the paper's setup — returns
    /// one entry.
    pub fn regions(&self) -> Vec<Region> {
        let mut out: Vec<Region> = Vec::new();
        for n in &self.nodes {
            if !out.contains(&n.region) {
                out.push(n.region);
            }
        }
        out
    }

    /// Node ids deployed in `region`, in id order.
    pub fn nodes_in_region(&self, region: Region) -> Vec<NodeId> {
        self.ids()
            .filter(|&id| self.node(id).region == region)
            .collect()
    }

    /// Concatenate sub-fleets into one fleet, renumbering node ids to
    /// positions in concatenation order. This is how a multi-region
    /// deployment is assembled from per-region sub-fleets (e.g. one
    /// hardware pair per grid region); the inverse mapping is recoverable
    /// from each sub-fleet's length.
    ///
    /// # Panics
    /// Panics when `parts` contains no nodes at all.
    pub fn concat(parts: &[Fleet]) -> Fleet {
        let mut nodes: Vec<HardwareNode> = Vec::new();
        for part in parts {
            for n in part.iter() {
                let mut n = n.clone();
                n.id = NodeId(nodes.len() as u32);
                nodes.push(n);
            }
        }
        Fleet::new(nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skus;

    #[test]
    fn warm_preference_puts_fastest_first() {
        let fleet = skus::fleet_a();
        assert_eq!(fleet.warm_preference(), vec![NodeId(1), NodeId(0)]);
        let three = skus::fleet_of(&[skus::Sku::I3Metal, skus::Sku::M5Metal, skus::Sku::M5znMetal]);
        assert_eq!(
            three.warm_preference(),
            vec![NodeId(2), NodeId(1), NodeId(0)]
        );
    }

    #[test]
    fn newest_and_oldest_rank_by_year() {
        let three = skus::fleet_of(&[skus::Sku::M5Metal, skus::Sku::M5znMetal, skus::Sku::I3Metal]);
        assert_eq!(three.newest(), NodeId(1)); // 8252C (2020)
        assert_eq!(three.oldest(), NodeId(2)); // E5-2686 (2016)
    }

    #[test]
    fn ties_on_newest_resolve_to_lowest_id() {
        let twin = skus::fleet_of(&[skus::Sku::M5znMetal, skus::Sku::M5znMetal]);
        assert_eq!(twin.newest(), NodeId(0));
        assert_eq!(twin.oldest(), NodeId(0));
    }

    #[test]
    fn transfer_candidates_exclude_the_source() {
        let three = skus::fleet_of(&[skus::Sku::I3Metal, skus::Sku::M5Metal, skus::Sku::M5znMetal]);
        assert_eq!(
            three.transfer_candidates(NodeId(1)),
            vec![NodeId(0), NodeId(2)]
        );
    }

    #[test]
    fn budget_builders() {
        let fleet = skus::fleet_a()
            .with_uniform_keepalive_budget_mib(4_096)
            .with_keepalive_budget_mib(NodeId(1), 8_192);
        assert_eq!(fleet.node(NodeId(0)).keepalive_mem_mib, 4_096);
        assert_eq!(fleet.node(NodeId(1)).keepalive_mem_mib, 8_192);
    }

    #[test]
    fn region_helpers_tag_and_group_nodes() {
        let fleet = skus::fleet_a()
            .with_uniform_region(Region::Texas)
            .with_region(NodeId(1), Region::NewYork);
        assert_eq!(fleet.node(NodeId(0)).region, Region::Texas);
        assert_eq!(fleet.node(NodeId(1)).region, Region::NewYork);
        assert_eq!(fleet.regions(), vec![Region::Texas, Region::NewYork]);
        assert_eq!(fleet.nodes_in_region(Region::Texas), vec![NodeId(0)]);
        assert_eq!(fleet.nodes_in_region(Region::Caiso), Vec::<NodeId>::new());
        // Default fleets are single-region.
        assert_eq!(skus::fleet_a().regions(), vec![Region::Caiso]);
    }

    #[test]
    fn concat_renumbers_ids_and_keeps_regions() {
        let a = skus::fleet_a().with_uniform_region(Region::Tennessee);
        let b = skus::fleet_a().with_uniform_region(Region::NewYork);
        let both = Fleet::concat(&[a.clone(), b]);
        assert_eq!(both.len(), 4);
        assert_eq!(both.node(NodeId(2)).region, Region::NewYork);
        assert_eq!(both.node(NodeId(2)).cpu, a.node(NodeId(0)).cpu);
        assert_eq!(both.regions(), vec![Region::Tennessee, Region::NewYork]);
        assert_eq!(
            both.nodes_in_region(Region::NewYork),
            vec![NodeId(2), NodeId(3)]
        );
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn concat_rejects_no_nodes() {
        Fleet::concat(&[]);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn rejects_empty_fleet() {
        Fleet::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "fleet ids must equal positions")]
    fn rejects_misnumbered_nodes() {
        let a = skus::fleet_a();
        Fleet::new(vec![a.node(NodeId(1)).clone(), a.node(NodeId(0)).clone()]);
    }
}
