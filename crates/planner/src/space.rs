//! The plan search space: which fleets the planner is allowed to buy —
//! and, on a multi-region space, *where* it is allowed to deploy them.

use crate::plan::FleetPlan;
use ecolife_hw::{skus, Fleet, Region, Sku};
use ecolife_pso::decode::Grid;
use ecolife_pso::SearchSpace;

/// Bounds of the capacity-planning search: a SKU catalog, the regions
/// nodes may be deployed in, a per-offering and a total node-count cap,
/// and a discrete grid of per-node warm-pool memory budgets.
///
/// An *offering* is one `(SKU, region)` combination; the genome is
/// `catalog.len() × regions.len() + 1` integers — one count per
/// offering (SKU-major: all regions of SKU 0, then SKU 1, …) plus a
/// budget index — exposed to the continuous optimizers as a
/// [`SearchSpace::grid`] box and decoded by nearest-index rounding, the
/// same relaxation the keep-alive space uses. The default space has one
/// region ([`Region::Caiso`]), making the genome exactly the historical
/// per-SKU counts; [`PlanSpace::with_regions`] opens the grid-mix axis,
/// where provisioning the same SKU in a cleaner region trades embodied
/// parity for lower operational carbon.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanSpace {
    catalog: Vec<Sku>,
    regions: Vec<Region>,
    max_per_sku: u32,
    max_nodes: u32,
    mem_budgets_mib: Vec<u64>,
}

impl PlanSpace {
    /// Build a plan space.
    ///
    /// # Panics
    /// Panics on an empty catalog or budget grid, duplicate catalog
    /// entries, a zero node cap, or a non-increasing budget grid.
    pub fn new(
        catalog: Vec<Sku>,
        max_per_sku: u32,
        max_nodes: u32,
        mem_budgets_mib: Vec<u64>,
    ) -> Self {
        assert!(!catalog.is_empty(), "plan space needs ≥1 SKU");
        for (i, a) in catalog.iter().enumerate() {
            assert!(
                !catalog[..i].contains(a),
                "duplicate catalog SKU {a}: counts would be ambiguous"
            );
        }
        assert!(max_per_sku >= 1, "per-SKU cap must allow ≥1 node");
        assert!(max_nodes >= 1, "fleet cap must allow ≥1 node");
        assert!(!mem_budgets_mib.is_empty(), "budget grid needs ≥1 entry");
        assert!(
            mem_budgets_mib.windows(2).all(|w| w[0] < w[1]),
            "budget grid must be strictly increasing"
        );
        assert!(
            mem_budgets_mib.iter().all(|&b| b > 0),
            "budgets must be positive"
        );
        PlanSpace {
            catalog,
            regions: vec![Region::Caiso],
            max_per_sku,
            max_nodes,
            mem_budgets_mib,
        }
    }

    /// Open the deployment-region axis: every catalog SKU may be
    /// provisioned in any of `regions` (the genome grows to one count
    /// per (SKU, region) offering; `max_per_sku` caps each offering).
    ///
    /// # Panics
    /// Panics on an empty or duplicated region list.
    pub fn with_regions(mut self, regions: Vec<Region>) -> Self {
        assert!(!regions.is_empty(), "plan space needs ≥1 region");
        for (i, r) in regions.iter().enumerate() {
            assert!(
                !regions[..i].contains(r),
                "duplicate region {r}: counts would be ambiguous"
            );
        }
        self.regions = regions;
        self
    }

    /// The default space: the full Table I SKU catalog, up to
    /// `max_per_sku` of each, and a 2/4/8/16-GiB budget grid.
    pub fn default_catalog(max_per_sku: u32, max_nodes: u32) -> Self {
        PlanSpace::new(
            ecolife_hw::skus::catalog(),
            max_per_sku,
            max_nodes,
            vec![2 * 1024, 4 * 1024, 8 * 1024, 16 * 1024],
        )
    }

    /// The SKU catalog, in genome order.
    pub fn catalog(&self) -> &[Sku] {
        &self.catalog
    }

    /// The deployment regions, in genome order.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// The (SKU, region) offerings in genome order (SKU-major).
    pub fn offerings(&self) -> Vec<(Sku, Region)> {
        self.catalog
            .iter()
            .flat_map(|&sku| self.regions.iter().map(move |&r| (sku, r)))
            .collect()
    }

    /// Genome length excluding the budget axis: one count per offering.
    pub fn genome_len(&self) -> usize {
        self.catalog.len() * self.regions.len()
    }

    /// Materialize a feasible plan against this space: nodes expand in
    /// offering order, each tagged with its offering's region and
    /// bounded by the plan's warm-pool budget. `None` for the empty
    /// plan.
    ///
    /// # Panics
    /// Panics when the plan's genome length does not match this space.
    pub fn materialize(&self, plan: &FleetPlan) -> Option<Fleet> {
        assert_eq!(
            plan.counts.len(),
            self.genome_len(),
            "plan has {} offering counts for a space of {}",
            plan.counts.len(),
            self.genome_len()
        );
        if plan.total_nodes() == 0 {
            return None;
        }
        let placements: Vec<(Sku, Region)> = self
            .offerings()
            .into_iter()
            .zip(&plan.counts)
            .flat_map(|(offering, &n)| std::iter::repeat_n(offering, n as usize))
            .collect();
        Some(
            skus::fleet_of_in_regions(&placements)
                .with_uniform_keepalive_budget_mib(plan.mem_budget_mib),
        )
    }

    /// Embodied carbon of provisioning `plan` (g CO2e): region placement
    /// does not change a SKU's manufacturing footprint.
    pub fn provisioned_embodied_g(&self, plan: &FleetPlan) -> f64 {
        self.offerings()
            .iter()
            .zip(&plan.counts)
            .map(|((sku, _), &n)| n as f64 * sku.node_embodied_g())
            .sum()
    }

    /// Human-readable composition, region-qualified when the space spans
    /// several (e.g. `2×i3.metal@NY + 1×m5zn.metal@CAL @ 8192 MiB`;
    /// single-region: `2×i3.metal + 1×m5zn.metal @ 8192 MiB`).
    pub fn describe_plan(&self, plan: &FleetPlan) -> String {
        let multi = self.regions.len() > 1;
        let parts: Vec<String> = self
            .offerings()
            .iter()
            .zip(&plan.counts)
            .filter(|(_, &n)| n > 0)
            .map(|((sku, region), &n)| {
                if multi {
                    format!("{n}×{sku}@{region}")
                } else {
                    format!("{n}×{sku}")
                }
            })
            .collect();
        if parts.is_empty() {
            "∅ (no nodes)".to_string()
        } else {
            format!("{} @ {} MiB", parts.join(" + "), plan.mem_budget_mib)
        }
    }

    /// The memory-budget grid (MiB).
    pub fn mem_budgets_mib(&self) -> &[u64] {
        &self.mem_budgets_mib
    }

    /// Maximum nodes of any single SKU.
    pub fn max_per_sku(&self) -> u32 {
        self.max_per_sku
    }

    /// Maximum total fleet size.
    pub fn max_nodes(&self) -> u32 {
        self.max_nodes
    }

    /// The continuous box the optimizers search: one axis per SKU count
    /// (cardinality `max_per_sku + 1`: 0..=max) plus the budget-index
    /// axis.
    pub fn search_space(&self) -> SearchSpace {
        let mut cards: Vec<usize> = vec![self.max_per_sku as usize + 1; self.genome_len()];
        cards.push(self.mem_budgets_mib.len());
        SearchSpace::grid(&cards)
    }

    /// Decode an optimizer position into a plan (nearest-index per axis).
    /// Every position decodes; feasibility (non-empty, within the total
    /// node cap) is the fitness function's concern, so the optimizers can
    /// roam the full box and be steered back by graded penalties.
    pub fn decode(&self, x: &[f64]) -> FleetPlan {
        assert_eq!(
            x.len(),
            self.genome_len() + 1,
            "position has {} dims; plan space has {}",
            x.len(),
            self.genome_len() + 1
        );
        let count = Grid::new(self.max_per_sku as usize + 1);
        let counts: Vec<u32> = x[..self.genome_len()]
            .iter()
            .map(|&xi| count.index(xi) as u32)
            .collect();
        let budget_idx = Grid::new(self.mem_budgets_mib.len()).index(x[self.genome_len()]);
        FleetPlan {
            counts,
            mem_budget_mib: self.mem_budgets_mib[budget_idx],
        }
    }

    /// How far outside this space a plan is: 0 = feasible; otherwise a
    /// graded count of the violations (missing/excess nodes, off-grid
    /// budget, malformed genome). The fitness function scales its
    /// infeasibility penalty by this, so optimizers roaming outside the
    /// caps are sloped back toward feasibility rather than hitting a
    /// cliff.
    pub fn violation(&self, plan: &FleetPlan) -> u64 {
        let mut v = 0u64;
        if plan.counts.len() != self.genome_len() {
            v += 1;
        }
        if !self.mem_budgets_mib.contains(&plan.mem_budget_mib) {
            v += 1;
        }
        let total = plan.total_nodes() as u64;
        if total == 0 {
            v += 1;
        }
        v += total.saturating_sub(self.max_nodes as u64);
        for &c in &plan.counts {
            v += (c as u64).saturating_sub(self.max_per_sku as u64);
        }
        v
    }

    /// Whether a plan is inside this space's caps and non-empty —
    /// exactly [`PlanSpace::violation`]` == 0`, so the two predicates
    /// cannot drift apart.
    pub fn is_feasible(&self, plan: &FleetPlan) -> bool {
        self.violation(plan) == 0
    }

    /// Every feasible plan, in deterministic lexicographic genome order —
    /// the exhaustive baseline for small spaces.
    pub fn enumerate(&self) -> Vec<FleetPlan> {
        let mut plans = Vec::new();
        let mut counts = vec![0u32; self.genome_len()];
        loop {
            let total: u32 = counts.iter().sum();
            if (1..=self.max_nodes).contains(&total) {
                for &budget in &self.mem_budgets_mib {
                    plans.push(FleetPlan {
                        counts: counts.clone(),
                        mem_budget_mib: budget,
                    });
                }
            }
            // Odometer increment over [0, max_per_sku]^n.
            let mut d = counts.len();
            loop {
                if d == 0 {
                    return plans;
                }
                d -= 1;
                if counts[d] < self.max_per_sku {
                    counts[d] += 1;
                    break;
                }
                counts[d] = 0;
            }
        }
    }

    /// Number of feasible plans ([`PlanSpace::enumerate`]'s length
    /// without materializing it).
    pub fn plan_count(&self) -> usize {
        // Count count-vectors with total in [1, max_nodes] by dynamic
        // programming over SKUs, then multiply by the budget grid.
        let cap = self.max_nodes as usize;
        let mut ways = vec![0u64; cap + 1];
        ways[0] = 1;
        for _ in 0..self.genome_len() {
            let mut next = vec![0u64; cap + 1];
            for (t, &w) in ways.iter().enumerate() {
                if w == 0 {
                    continue;
                }
                for c in 0..=(self.max_per_sku as usize).min(cap - t) {
                    next[t + c] += w;
                }
            }
            ways = next;
        }
        let compositions: u64 = ways[1..].iter().sum();
        compositions as usize * self.mem_budgets_mib.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> PlanSpace {
        PlanSpace::new(vec![Sku::I3Metal, Sku::M5znMetal], 2, 3, vec![2_048, 8_192])
    }

    #[test]
    fn search_space_matches_genome_shape() {
        let s = small().search_space();
        assert_eq!(s.dims(), 3);
        assert_eq!(s.bounds()[0], (0.0, 2.0));
        assert_eq!(s.bounds()[1], (0.0, 2.0));
        assert_eq!(s.bounds()[2], (0.0, 1.0));
    }

    #[test]
    fn decode_rounds_and_clamps() {
        let space = small();
        let plan = space.decode(&[0.4, 1.6, 0.9]);
        assert_eq!(plan.counts, vec![0, 2]);
        assert_eq!(plan.mem_budget_mib, 8_192);
        // Clamped at the box edge.
        let plan = space.decode(&[5.0, -1.0, 5.0]);
        assert_eq!(plan.counts, vec![2, 0]);
        assert_eq!(plan.mem_budget_mib, 8_192);
    }

    #[test]
    fn enumerate_is_exactly_the_feasible_set() {
        let space = small();
        let plans = space.enumerate();
        // Count vectors over {0,1,2}² with total in [1,3]: 9 − 1 (empty)
        // − 1 ((2,2) over cap) = 7; × 2 budgets = 14.
        assert_eq!(plans.len(), 14);
        assert_eq!(plans.len(), space.plan_count());
        assert!(plans.iter().all(|p| space.is_feasible(p)));
        // Deterministic order, no duplicates.
        let mut keys: Vec<u64> = plans.iter().map(|p| p.genome_key()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), plans.len());
        assert_eq!(space.enumerate(), plans);
    }

    #[test]
    fn feasibility_checks_caps() {
        let space = small();
        let ok = FleetPlan {
            counts: vec![1, 2],
            mem_budget_mib: 2_048,
        };
        assert!(space.is_feasible(&ok));
        let empty = FleetPlan {
            counts: vec![0, 0],
            mem_budget_mib: 2_048,
        };
        assert!(!space.is_feasible(&empty));
        let over_total = FleetPlan {
            counts: vec![2, 2],
            mem_budget_mib: 2_048,
        };
        assert!(!space.is_feasible(&over_total));
        let off_grid_budget = FleetPlan {
            counts: vec![1, 0],
            mem_budget_mib: 4_096,
        };
        assert!(!space.is_feasible(&off_grid_budget));
    }

    #[test]
    fn plan_count_handles_large_spaces_without_enumerating() {
        let space = PlanSpace::default_catalog(3, 8);
        assert_eq!(space.plan_count(), space.enumerate().len());
    }

    #[test]
    fn materialize_builds_the_budgeted_fleet() {
        use ecolife_hw::NodeId;
        let space = small();
        let plan = FleetPlan {
            counts: vec![1, 2],
            mem_budget_mib: 2_048,
        };
        let fleet = space.materialize(&plan).unwrap();
        assert_eq!(fleet.len(), 3);
        assert_eq!(fleet.node(NodeId(0)).cpu.year, 2016);
        assert_eq!(fleet.node(NodeId(2)).cpu.year, 2020);
        assert!(fleet.iter().all(|n| n.keepalive_mem_mib == 2_048));
        // Default space: every node lands in the paper's region.
        assert!(fleet.iter().all(|n| n.region == Region::Caiso));
        // Empty plans materialize to nothing.
        let empty = FleetPlan {
            counts: vec![0, 0],
            mem_budget_mib: 2_048,
        };
        assert!(space.materialize(&empty).is_none());
        assert_eq!(space.describe_plan(&empty), "∅ (no nodes)");
    }

    #[test]
    fn regional_space_expands_offerings() {
        use ecolife_hw::NodeId;
        let space = small().with_regions(vec![Region::Texas, Region::NewYork]);
        assert_eq!(space.genome_len(), 4);
        assert_eq!(space.search_space().dims(), 5);
        // SKU-major offering order: (i3, TEX), (i3, NY), (m5zn, TEX), (m5zn, NY).
        let plan = FleetPlan {
            counts: vec![0, 1, 1, 0],
            mem_budget_mib: 2_048,
        };
        assert!(space.is_feasible(&plan));
        let fleet = space.materialize(&plan).unwrap();
        assert_eq!(fleet.node(NodeId(0)).region, Region::NewYork);
        assert_eq!(fleet.node(NodeId(1)).region, Region::Texas);
        assert_eq!(
            space.describe_plan(&plan),
            "1×i3.metal@NY + 1×m5zn.metal@TEX @ 2048 MiB"
        );
        // Embodied carbon is region-independent.
        assert_eq!(
            space.provisioned_embodied_g(&plan),
            Sku::I3Metal.node_embodied_g() + Sku::M5znMetal.node_embodied_g()
        );
        // A single-region genome no longer fits this space.
        let short = FleetPlan {
            counts: vec![1, 1],
            mem_budget_mib: 2_048,
        };
        assert!(!space.is_feasible(&short));
    }

    #[test]
    fn describe_plan_single_region_omits_region_tags() {
        let space = small();
        let plan = FleetPlan {
            counts: vec![2, 1],
            mem_budget_mib: 8_192,
        };
        assert_eq!(
            space.describe_plan(&plan),
            "2×i3.metal + 1×m5zn.metal @ 8192 MiB"
        );
    }

    #[test]
    #[should_panic(expected = "duplicate region")]
    fn rejects_duplicate_regions() {
        small().with_regions(vec![Region::Texas, Region::Texas]);
    }

    #[test]
    #[should_panic(expected = "duplicate catalog SKU")]
    fn rejects_duplicate_skus() {
        PlanSpace::new(vec![Sku::I3Metal, Sku::I3Metal], 1, 2, vec![1_024]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted_budgets() {
        PlanSpace::new(vec![Sku::I3Metal], 1, 1, vec![2_048, 1_024]);
    }
}
