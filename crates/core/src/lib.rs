//! # ecolife-core — the EcoLife scheduler and its baselines
//!
//! The paper's primary contribution (Sec. IV): a carbon-aware serverless
//! scheduler that co-optimizes service time and carbon footprint on
//! heterogeneous hardware by choosing, per function, a **keep-alive
//! location** and **keep-alive period** with a per-function Dynamic PSO.
//! Every component operates over an N-node
//! [`Fleet`](ecolife_hw::Fleet) — the paper's old/new pair is the
//! two-node special case (`ecolife_hw::skus::fleet_a` and its
//! siblings).
//!
//! Components:
//!
//! * [`objective`] — the Sec. IV-A objective function and its
//!   normalization constants, shared by EcoLife's fitness, the EPDM
//!   score, the warm-pool priority ranking, and the Oracle brute force —
//!   plus [`ObjectiveTables`], the cache layer the decision hot path
//!   reads them through (bit-identical, per-minute CI epochs);
//! * [`predictor`] — the online inter-arrival model giving `P(warm | k)`
//!   and `E[min(gap, k)]` without future knowledge;
//! * [`warmpool`] — the priority-eviction warm-pool adjustment
//!   (Sec. IV-C, Fig. 6) with cheapest-first transfer-target ranking;
//! * [`ecolife`] — the full scheduler: KDM (one Dynamic PSO per
//!   function over the fleet-wide placement space), EPDM,
//!   perception–response wiring, Algorithm 1;
//! * [`baselines`] — every comparison scheme of Sec. V: `Oracle`,
//!   `CO2-Opt`, `Service-Time-Opt`, `Energy-Opt` (per-invocation brute
//!   force with future knowledge, enumerating the whole fleet),
//!   `New-Only` / `Old-Only` (fixed 10-min OpenWhisk policy, plus
//!   `FixedPolicy::pinned` for arbitrary nodes), and the `Eco-Old` /
//!   `Eco-New` single-node variants;
//! * [`runner`] — experiment harness: run a scheme through
//!   [`Simulation`](ecolife_sim::Simulation), summarize, and compare
//!   against the *-Opt anchors.

pub mod baselines;
pub mod config;
pub mod ecolife;
pub mod objective;
pub mod predictor;
pub mod report;
pub mod runner;
pub mod warmpool;

pub use baselines::fixed::FixedPolicy;
pub use baselines::oracle::{BruteForce, OptTarget};
pub use config::EcoLifeConfig;
pub use ecolife::EcoLife;
pub use ecolife_carbon::TransferCost;
pub use objective::{CostModel, ObjectiveTables};
pub use predictor::FunctionPredictor;
pub use runner::{compare, run_scheme, Comparison, RunSummary};
