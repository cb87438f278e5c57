//! Concrete SKU catalog matching Table I of the paper, with embodied-carbon
//! and power values calibrated from the Boavizta methodology [25] and the
//! Teads AWS EC2 dataset [34].
//!
//! Calibration rationale:
//!
//! * CPU embodied carbon grows with die size / core complexity / process
//!   recency. Values are *compute-subsystem* attributions per the Teads
//!   AWS dataset [34]: the server-level manufacturing footprint
//!   (package, motherboard, PSU, chassis share — ~0.5-0.7 tCO2e per
//!   socket) is carried by the CPU term, exactly as the paper routes all
//!   embodied carbon through its CPU and DRAM terms. 2016-era E5 ≈ 500 kg,
//!   2020-era Platinum ≈ 900 kg.
//! * DRAM embodied carbon per GiB *shrinks* with density generation (more
//!   bits per wafer): 2018 Micron DDR4 ≈ 620 g/GiB, 2019 Samsung ≈ 530
//!   g/GiB (memory-subsystem attribution, Boavizta methodology). This asymmetry (old CPU cheap per core, old DRAM expensive per
//!   GiB) is what makes the keep-alive trade-off function-dependent: small
//!   functions are cheap to keep warm on old hardware (the reserved-core
//!   term dominates), while large-memory functions erode the advantage —
//!   the paper's Fig. 3 "inverted case".
//! * Newer packages are more energy-efficient per unit of work (Sec. II:
//!   "Newer hardware is usually more energy efficient, and hence, results
//!   in lower operational carbon") — the per-work energy of each old part
//!   sits 10-25% above the reference. But older parts carry much lower
//!   embodied attributions and, with more cores per package, a cheaper
//!   reserved idle core — so keep-alive and embodied-heavy phases favor
//!   old while execution favors new. That is precisely the trade-off the
//!   paper measures (Fig. 2: A_OLD saves 23.8% total carbon over a
//!   10-minute keep-alive episode while costing 15.9% execution time).

use crate::{CpuModel, DramModel, Fleet, HardwareNode, NodeId, Region};

// ---------------------------------------------------------------------------
// CPU SKUs (Table I)
// ---------------------------------------------------------------------------

/// Intel Xeon E5-2686 (2016), the `i3.metal` part: A_OLD.
pub fn xeon_e5_2686() -> CpuModel {
    CpuModel {
        name: "Intel Xeon E5-2686",
        year: 2016,
        cores: 36,
        active_power_w: 145.0,
        idle_core_power_w: 2.2,
        embodied_g: 500_000.0,
        perf_index: 0.80,
    }
}

/// Intel Xeon Platinum 8124M (2017): B_OLD.
pub fn xeon_platinum_8124m() -> CpuModel {
    CpuModel {
        name: "Intel Xeon Platinum 8124M",
        year: 2017,
        cores: 18,
        active_power_w: 170.0,
        idle_core_power_w: 2.6,
        embodied_g: 600_000.0,
        perf_index: 0.87,
    }
}

/// Intel Xeon Platinum 8275L (2019): C_OLD (one-year gap to the reference).
pub fn xeon_platinum_8275l() -> CpuModel {
    CpuModel {
        name: "Intel Xeon Platinum 8275L",
        year: 2019,
        cores: 24,
        active_power_w: 185.0,
        idle_core_power_w: 2.8,
        embodied_g: 780_000.0,
        perf_index: 0.95,
    }
}

/// Intel Xeon Platinum 8252C (2020), the `m5zn.metal` part and the
/// reference "new" generation for all three pairs.
pub fn xeon_platinum_8252c() -> CpuModel {
    CpuModel {
        name: "Intel Xeon Platinum 8252C",
        year: 2020,
        cores: 24,
        active_power_w: 160.0,
        idle_core_power_w: 3.0,
        embodied_g: 900_000.0,
        perf_index: 1.0,
    }
}

// ---------------------------------------------------------------------------
// DRAM SKUs (Table I)
// ---------------------------------------------------------------------------

/// Micron 512 GiB kit (2018): A_OLD memory.
pub fn micron_512() -> DramModel {
    DramModel {
        name: "Micron-512",
        year: 2018,
        capacity_mib: 512 * 1024,
        active_w_per_gib: 0.38,
        idle_w_per_gib: 0.09,
        embodied_g: 620.0 * 512.0,
    }
}

/// Micron 192 GiB kit (2018): B_OLD memory.
pub fn micron_192() -> DramModel {
    DramModel {
        name: "Micron-192",
        year: 2018,
        capacity_mib: 192 * 1024,
        active_w_per_gib: 0.38,
        idle_w_per_gib: 0.09,
        embodied_g: 620.0 * 192.0,
    }
}

/// Samsung 192 GiB kit (2019): the "new" memory for all pairs and C_OLD's.
pub fn samsung_192() -> DramModel {
    DramModel {
        name: "Samsung-192",
        year: 2019,
        capacity_mib: 192 * 1024,
        active_w_per_gib: 0.34,
        idle_w_per_gib: 0.11,
        embodied_g: 530.0 * 192.0,
    }
}

// ---------------------------------------------------------------------------
// Node SKUs and fleets
// ---------------------------------------------------------------------------

/// A deployable bare-metal node SKU: one Table I (CPU, DRAM) combination,
/// named for the AWS instance class it models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sku {
    /// `i3.metal`-class: Xeon E5-2686 (2016) + Micron-512 — A_OLD.
    I3Metal,
    /// `c5.metal`-class: Xeon Platinum 8124M (2017) + Micron-192 — B_OLD.
    C5Metal,
    /// `m5.metal`-class: Xeon Platinum 8275L (2019) + Samsung-192 — C_OLD,
    /// the mid-generation part.
    M5Metal,
    /// `m5zn.metal`-class: Xeon Platinum 8252C (2020) + Samsung-192 — the
    /// reference "new" node of every pair.
    M5znMetal,
}

impl Sku {
    /// All SKUs, oldest CPU first.
    pub const ALL: [Sku; 4] = [Sku::I3Metal, Sku::C5Metal, Sku::M5Metal, Sku::M5znMetal];

    /// The SKU's CPU model.
    pub fn cpu(self) -> CpuModel {
        match self {
            Sku::I3Metal => xeon_e5_2686(),
            Sku::C5Metal => xeon_platinum_8124m(),
            Sku::M5Metal => xeon_platinum_8275l(),
            Sku::M5znMetal => xeon_platinum_8252c(),
        }
    }

    /// The SKU's DRAM kit.
    pub fn dram(self) -> DramModel {
        match self {
            Sku::I3Metal => micron_512(),
            Sku::C5Metal => micron_192(),
            Sku::M5Metal => samsung_192(),
            Sku::M5znMetal => samsung_192(),
        }
    }

    /// Embodied carbon of one *provisioned* node of this SKU (g CO2e):
    /// the CPU package plus the full DRAM kit. This is the procurement
    /// cost a capacity planner pays per node whether or not the node is
    /// ever used — distinct from the per-use embodied *attribution* the
    /// carbon model charges to individual executions and keep-alives.
    pub fn node_embodied_g(self) -> f64 {
        self.cpu().embodied_g + self.dram().embodied_g
    }

    /// The SKU's CPU release year.
    pub fn year(self) -> u16 {
        self.cpu().year
    }
}

impl std::fmt::Display for Sku {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Sku::I3Metal => write!(f, "i3.metal"),
            Sku::C5Metal => write!(f, "c5.metal"),
            Sku::M5Metal => write!(f, "m5.metal"),
            Sku::M5znMetal => write!(f, "m5zn.metal"),
        }
    }
}

/// The full deployable SKU catalog, oldest CPU first — the default
/// candidate set a capacity planner searches over.
pub fn catalog() -> Vec<Sku> {
    Sku::ALL.to_vec()
}

/// Build a fleet from per-SKU node counts (catalog order preserved;
/// zero-count SKUs contribute no nodes).
///
/// # Panics
/// Panics when every count is zero — a fleet needs at least one node.
pub fn fleet_of_counts(counts: &[(Sku, u32)]) -> Fleet {
    let skus: Vec<Sku> = counts
        .iter()
        .flat_map(|&(sku, n)| std::iter::repeat_n(sku, n as usize))
        .collect();
    assert!(
        !skus.is_empty(),
        "a fleet needs at least one node: every SKU count is zero"
    );
    fleet_of(&skus)
}

/// Build a fleet from a SKU list: node `i` gets `NodeId(i)`.
pub fn fleet_of(skus: &[Sku]) -> Fleet {
    assert!(!skus.is_empty(), "a fleet needs at least one SKU");
    Fleet::new(
        skus.iter()
            .enumerate()
            .map(|(i, s)| HardwareNode::new(NodeId(i as u32), s.cpu(), s.dram()))
            .collect(),
    )
}

/// Table I's pair A (default evaluation configuration, Sec. V): the
/// `i3.metal` old node and the `m5zn.metal` new node, a four-year gap.
pub fn fleet_a() -> Fleet {
    fleet_of(&[Sku::I3Metal, Sku::M5znMetal])
}

/// Table I's pair B: `c5.metal` and `m5zn.metal`, a three-year gap.
pub fn fleet_b() -> Fleet {
    fleet_of(&[Sku::C5Metal, Sku::M5znMetal])
}

/// Table I's pair C: `m5.metal` and `m5zn.metal`, a one-year gap (old
/// and new are closest here; the carbon gap is the smallest and the
/// performance gap nearly vanishes, which is what makes the Graph-BFS
/// example in Fig. 2 interesting).
pub fn fleet_c() -> Fleet {
    fleet_of(&[Sku::M5Metal, Sku::M5znMetal])
}

/// The three-generation demo fleet: A_OLD (2016) + the mid-generation
/// 8275L (2019) + the reference 8252C (2020). The smallest configuration
/// where placement is a genuine N-way choice — the mid node trades a mild
/// slowdown for cheaper keep-alive than the new node.
pub fn fleet_three_generations() -> Fleet {
    fleet_of(&[Sku::I3Metal, Sku::M5Metal, Sku::M5znMetal])
}

/// Build a fleet from (SKU, region) pairs: node `i` gets `NodeId(i)` and
/// its region tag.
pub fn fleet_of_in_regions(placements: &[(Sku, Region)]) -> Fleet {
    let skus: Vec<Sku> = placements.iter().map(|&(s, _)| s).collect();
    let mut fleet = fleet_of(&skus);
    for (i, &(_, region)) in placements.iter().enumerate() {
        fleet = fleet.with_region(NodeId(i as u32), region);
    }
    fleet
}

/// The multi-region catalog fleet of the Fig. 14 robustness study: one
/// pair-A deployment (`i3.metal` + `m5zn.metal`) in **each** of the five
/// evaluated grid regions, in [`Region::ALL`] order (TEN TEX FLA NY CAL)
/// — ten nodes total, nodes `2r`/`2r+1` being region `r`'s old/new pair.
/// With per-node carbon-intensity resolution this turns the paper's five
/// separate single-region runs into one fleet, and — when a scheduler is
/// free to place across regions — makes the grid mix itself a placement
/// axis.
pub fn fleet_five_regions() -> Fleet {
    let placements: Vec<(Sku, Region)> = Region::ALL
        .iter()
        .flat_map(|&r| [(Sku::I3Metal, r), (Sku::M5znMetal, r)])
        .collect();
    fleet_of_in_regions(&placements)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_cpu_has_unit_perf_index() {
        assert_eq!(xeon_platinum_8252c().perf_index, 1.0);
    }

    #[test]
    fn older_cpus_are_slower() {
        let new = xeon_platinum_8252c();
        for old in [xeon_e5_2686(), xeon_platinum_8124m(), xeon_platinum_8275l()] {
            assert!(old.perf_index < new.perf_index, "{} not slower", old.name);
        }
    }

    #[test]
    fn older_cpus_have_lower_embodied_carbon() {
        let new = xeon_platinum_8252c();
        for old in [xeon_e5_2686(), xeon_platinum_8124m(), xeon_platinum_8275l()] {
            assert!(old.embodied_g < new.embodied_g, "{} not lower EC", old.name);
        }
    }

    #[test]
    fn older_cpus_have_lower_per_core_idle_power() {
        // The keep-alive advantage of older hardware requires the reserved
        // core to be cheaper to keep powered.
        let new = xeon_platinum_8252c();
        for old in [xeon_e5_2686(), xeon_platinum_8124m(), xeon_platinum_8275l()] {
            assert!(old.idle_core_power_w < new.idle_core_power_w);
        }
    }

    #[test]
    fn newer_hw_is_more_energy_efficient_per_unit_of_work() {
        // Sec. II: newer hardware has lower operational energy for the
        // same work. Energy per unit of work = P_active × slowdown.
        let new = xeon_platinum_8252c();
        let new_energy = new.active_power_w * new.slowdown();
        for old in [xeon_e5_2686(), xeon_platinum_8124m(), xeon_platinum_8275l()] {
            let ratio = old.active_power_w * old.slowdown() / new_energy;
            assert!(
                (1.0..=1.3).contains(&ratio),
                "{}: per-work ratio {ratio:.2} outside (1.0, 1.3]",
                old.name
            );
        }
    }

    #[test]
    fn older_dram_has_higher_embodied_per_gib() {
        // DRAM density improves each generation, so embodied carbon per
        // GiB falls over time — old modules cost more per GiB.
        assert!(micron_512().embodied_per_gib_g() > samsung_192().embodied_per_gib_g());
        assert!(micron_192().embodied_per_gib_g() > samsung_192().embodied_per_gib_g());
    }

    #[test]
    fn pair_year_gaps_match_table1() {
        for (fleet, gap) in [(fleet_a(), 4), (fleet_b(), 3), (fleet_c(), 1)] {
            assert_eq!(fleet.node(NodeId(1)).year_gap(fleet.node(NodeId(0))), gap);
        }
    }

    #[test]
    fn fleet_of_matches_pair_layouts() {
        // Each Table I pair is a two-node fleet: the old node at NodeId(0),
        // the shared m5zn.metal new node at NodeId(1).
        let table1 = [
            (fleet_a(), ["Intel Xeon E5-2686", "Micron-512"]),
            (fleet_b(), ["Intel Xeon Platinum 8124M", "Micron-192"]),
            (fleet_c(), ["Intel Xeon Platinum 8275L", "Samsung-192"]),
        ];
        for (fleet, [old_cpu, old_dram]) in table1 {
            assert_eq!(fleet.len(), 2);
            let (old, new) = (fleet.node(NodeId(0)), fleet.node(NodeId(1)));
            assert_eq!((old.cpu.name, old.dram.name), (old_cpu, old_dram));
            assert_eq!(
                (new.cpu.name, new.dram.name),
                ("Intel Xeon Platinum 8252C", "Samsung-192")
            );
        }
    }

    #[test]
    fn fleet_of_tags_eras_relative_to_the_fleet() {
        // Eras are read off the fleet's own nodes, not stored on them.
        let f = fleet_three_generations();
        assert_eq!(f.len(), 3);
        assert_eq!(f.oldest(), NodeId(0));
        assert_eq!(f.newest(), NodeId(2));
    }

    #[test]
    fn sku_display_and_catalog() {
        assert_eq!(Sku::ALL.len(), 4);
        assert_eq!(catalog(), Sku::ALL.to_vec());
        assert_eq!(Sku::I3Metal.to_string(), "i3.metal");
        assert_eq!(Sku::M5znMetal.cpu().name, "Intel Xeon Platinum 8252C");
        assert_eq!(Sku::C5Metal.dram().name, "Micron-192");
        assert_eq!(Sku::I3Metal.year(), 2016);
    }

    #[test]
    fn node_embodied_sums_cpu_and_dram() {
        for sku in Sku::ALL {
            assert_eq!(
                sku.node_embodied_g(),
                sku.cpu().embodied_g + sku.dram().embodied_g
            );
            assert!(sku.node_embodied_g() > 0.0);
        }
        // The newest SKU's heavy CPU attribution outweighs even the i3's
        // huge 512-GiB DRAM kit: provisioning new silicon is the most
        // embodied-expensive choice — the planner's procurement trade-off.
        assert!(Sku::M5znMetal.node_embodied_g() > Sku::I3Metal.node_embodied_g());
    }

    #[test]
    fn fleet_of_counts_expands_in_catalog_order() {
        let fleet = fleet_of_counts(&[(Sku::I3Metal, 1), (Sku::M5Metal, 0), (Sku::M5znMetal, 2)]);
        assert_eq!(fleet.len(), 3);
        assert_eq!(fleet.node(NodeId(0)).cpu.name, xeon_e5_2686().name);
        assert_eq!(fleet.node(NodeId(1)).cpu.name, xeon_platinum_8252c().name);
        assert_eq!(fleet.node(NodeId(2)).cpu.name, xeon_platinum_8252c().name);
        assert_eq!(
            fleet,
            fleet_of(&[Sku::I3Metal, Sku::M5znMetal, Sku::M5znMetal])
        );
    }

    #[test]
    #[should_panic(expected = "every SKU count is zero")]
    fn fleet_of_counts_rejects_the_empty_fleet() {
        fleet_of_counts(&[(Sku::I3Metal, 0), (Sku::M5znMetal, 0)]);
    }

    #[test]
    fn fleet_five_regions_is_one_pair_per_region() {
        let fleet = fleet_five_regions();
        assert_eq!(fleet.len(), 10);
        assert_eq!(fleet.regions(), Region::ALL.to_vec());
        for (r, &region) in Region::ALL.iter().enumerate() {
            let nodes = fleet.nodes_in_region(region);
            assert_eq!(nodes, vec![NodeId(2 * r as u32), NodeId(2 * r as u32 + 1)]);
            // Each region hosts the pair-A parts.
            assert_eq!(fleet.node(nodes[0]).cpu, xeon_e5_2686());
            assert_eq!(fleet.node(nodes[1]).cpu, xeon_platinum_8252c());
        }
    }

    #[test]
    fn fleet_of_in_regions_tags_positionally() {
        let f = fleet_of_in_regions(&[
            (Sku::I3Metal, Region::Texas),
            (Sku::M5znMetal, Region::NewYork),
        ]);
        assert_eq!(f.node(NodeId(0)).region, Region::Texas);
        assert_eq!(f.node(NodeId(1)).region, Region::NewYork);
        // Apart from regions, it is the pair-A layout.
        assert_eq!(
            f.with_uniform_region(Region::Caiso),
            fleet_of(&[Sku::I3Metal, Sku::M5znMetal])
        );
    }

    #[test]
    fn pair_a_matches_aws_instance_specs() {
        let f = fleet_a();
        let (old, new) = (f.node(NodeId(0)), f.node(NodeId(1)));
        // i3.metal: 36-core E5-2686, 512 GiB.
        assert_eq!(old.cpu.cores, 36);
        assert_eq!(old.dram.capacity_mib, 512 * 1024);
        // m5zn.metal: 24-core 8252C, 192 GiB.
        assert_eq!(new.cpu.cores, 24);
        assert_eq!(new.dram.capacity_mib, 192 * 1024);
    }

    #[test]
    fn keepalive_is_cheaper_per_minute_on_old_for_fleet_a() {
        // One warm 512-MiB container for one minute: reserved core power +
        // idle DRAM power + per-core & per-GiB embodied shares. Computed
        // here with raw model pieces; the carbon crate owns the full model.
        let f = fleet_a();
        let minute = 60_000u64;
        let per_min = |n: &crate::HardwareNode| {
            let op_kwh = n.cpu.idle_core_energy_kwh(minute) + n.dram.idle_energy_kwh(512, minute);
            let emb = n.cpu.embodied_for_one_core_g(minute, n.lifetime_ms)
                + n.dram.embodied_for_share_g(512, minute, n.lifetime_ms);
            // Assume a mid-range carbon intensity of 300 g/kWh.
            op_kwh * 300.0 + emb
        };
        assert!(per_min(f.node(NodeId(0))) < per_min(f.node(NodeId(1))));
    }
}
