//! # ecolife-hw — heterogeneous hardware substrate
//!
//! This crate models the datacenter hardware that EcoLife schedules over:
//! CPUs and DRAM modules of different generations, their embodied carbon
//! footprints, their power draw, their relative performance — and the
//! **fleet** abstraction that composes them into a schedulable cluster.
//!
//! ## The fleet model
//!
//! The unit of deployment is a [`Fleet`]: an ordered, non-empty set of
//! [`HardwareNode`]s (CPU package + DRAM kit) addressed by [`NodeId`].
//! Every layer above — the simulator's cluster state, the scheduler's
//! decision space, the optimizer's search box — is keyed by `NodeId`, so
//! the fleet size is a free parameter: two nodes reproduce the paper,
//! larger fleets model multi-SKU clusters (see [`skus::fleet_of`] and
//! [`skus::fleet_three_generations`]). Each node additionally carries a
//! grid [`Region`]: a fleet may span several grids (e.g.
//! [`skus::fleet_five_regions`], one pair per Fig. 14 region), and the
//! simulator charges every execution and keep-alive at the acting
//! node's own grid intensity.
//!
//! ## The paper's hardware pairs
//!
//! The paper (Sec. II, Table I) evaluates three old/new hardware pairs.
//! Each is a two-SKU fleet ([`skus::fleet_a`], [`skus::fleet_b`],
//! [`skus::fleet_c`]) with the old node at `NodeId(0)` and the new node
//! at `NodeId(1)`:
//!
//! | Pair | Old CPU (year)              | New CPU (year)                | Old DRAM          | New DRAM           |
//! |------|-----------------------------|-------------------------------|-------------------|--------------------|
//! | A    | Xeon E5-2686 (2016)         | Xeon Platinum 8252C (2020)    | Micron-512 (2018) | Samsung-192 (2019) |
//! | B    | Xeon Platinum 8124M (2017)  | Xeon Platinum 8252C (2020)    | Micron-192 (2018) | Samsung-192 (2019) |
//! | C    | Xeon Platinum 8275L (2019)  | Xeon Platinum 8252C (2020)    | Samsung-192 (2019)| Samsung-192 (2019) |
//!
//! Code that needs a node's era on an arbitrary fleet asks
//! [`Fleet::oldest`] / [`Fleet::newest`] rather than assuming a layout.
//!
//! ## The physical trade-off
//!
//! The key trade-off EcoLife exploits is encoded here:
//!
//! * **older hardware** → lower embodied carbon (smaller dies, older
//!   lithography, already amortized designs) and lower *per-core* idle
//!   power (more cores per package), but slower execution and worse
//!   energy efficiency per unit of work;
//! * **newer hardware** → higher embodied carbon but faster execution and
//!   lower operational energy per unit of work.
//!
//! All carbon quantities are in **grams of CO2e**, power in **watts**,
//! memory in **MiB**, and time in **milliseconds** unless a name says
//! otherwise.

pub mod cpu;
pub mod dram;
pub mod fleet;
pub mod node;
pub mod perf;
pub mod power;
pub mod region;
pub mod skus;

pub use cpu::CpuModel;
pub use dram::DramModel;
pub use fleet::Fleet;
pub use node::{HardwareNode, NodeId};
pub use perf::PerfModel;
pub use power::PowerDraw;
pub use region::{Region, RegionProfile};
pub use skus::Sku;

/// Default hardware lifetime used to amortize embodied carbon:
/// four years, per the paper (Sec. V, "a typical four-year lifetime
/// [35], [36] for DRAM and CPU").
pub const DEFAULT_LIFETIME_MS: u64 = 4 * 365 * 24 * 3600 * 1000;

/// Milliseconds per hour, used when converting power x time to kWh.
pub const MS_PER_HOUR: f64 = 3_600_000.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifetime_is_four_years() {
        assert_eq!(DEFAULT_LIFETIME_MS, 126_144_000_000);
    }

    #[test]
    fn ms_per_hour_consistent() {
        assert_eq!(MS_PER_HOUR, 3600.0 * 1000.0);
    }
}
