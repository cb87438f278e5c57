//! # ecolife-planner — fleet capacity planning
//!
//! The paper fixes the hardware (one old-generation node, one
//! new-generation node) and optimizes only keep-alive placement. This
//! crate asks the question one level up: **which fleet should you buy in
//! the first place** — which SKUs, how many of each, and what per-node
//! warm-pool memory budget — to minimize carbon under a service-time SLO
//! for a given workload?
//!
//! ## Structure: a bilevel search
//!
//! The planner nests the existing solver inside an outer search:
//!
//! * **Outer (this crate):** a [`FleetPlan`] genome — per-SKU node
//!   counts plus a memory budget drawn from a discrete grid — searched
//!   over a bounded [`PlanSpace`] by the workspace's own optimizers
//!   (PSO / GA / SA via their ask/tell batch interface, or exhaustive
//!   enumeration for small spaces).
//! * **Inner (existing crates):** each candidate is materialized with
//!   [`ecolife_hw::skus::fleet_of_counts`], the workload is replayed
//!   through [`ecolife_sim::Simulation`] under the EcoLife keep-alive
//!   scheduler, and the run is scored as
//!
//!   ```text
//!   fitness = simulated carbon                     (operational + per-use embodied)
//!           + provisioned embodied carbon          (owning the nodes, used or not)
//!           + SLO penalty                          (relative P95 violation)
//!   ```
//!
//! The provisioned-embodied term is what makes this a *capacity* problem
//! rather than a scheduling problem: adding a node always helps service
//! time and often helps operational carbon, but its manufacturing
//! footprint is paid whether or not traffic lands on it.
//!
//! ## The hot path
//!
//! One fitness evaluation is a full trace replay, so [`PlanEvaluator`]
//! memoizes scores by integer genome and fans each swarm generation out
//! over [`ecolife_sim::parallel_map`]. Every candidate's inner
//! scheduler is seeded from the genome itself, which makes the whole
//! search deterministic for a fixed seed — independent of thread count,
//! evaluation order, and cache warmth.
//!
//! ## Quickstart
//!
//! ```
//! use ecolife_planner::{Planner, PlannerConfig, PlanSpace, SearchAlgorithm};
//! use ecolife_carbon::CarbonIntensityTrace;
//! use ecolife_hw::Sku;
//! use ecolife_trace::{SynthTraceConfig, WorkloadCatalog};
//!
//! let trace = SynthTraceConfig::small(7).generate(&WorkloadCatalog::sebs());
//! let ci = CarbonIntensityTrace::constant(300.0, 120);
//! let space = PlanSpace::new(
//!     vec![Sku::I3Metal, Sku::M5znMetal], // catalog to shop from
//!     2,                                  // ≤2 nodes per SKU
//!     3,                                  // ≤3 nodes total
//!     vec![4 * 1024, 8 * 1024],           // warm-pool budgets (MiB)
//! );
//! let planner = Planner::new(space, &trace, &ci, PlannerConfig::default());
//! let report = planner.search(SearchAlgorithm::Exhaustive, 0);
//! assert!(report.best_plan.total_nodes() >= 1);
//! ```

pub mod fitness;
pub mod plan;
pub mod search;
pub mod space;

pub use fitness::{PlanEvaluator, PlanScore, PlannerConfig, INFEASIBLE_PENALTY_G};
pub use plan::FleetPlan;
pub use search::{PlanReport, Planner, SearchAlgorithm};
pub use space::PlanSpace;
