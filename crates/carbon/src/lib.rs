//! # ecolife-carbon — carbon-intensity traces and the serverless carbon model
//!
//! Two substrates live here:
//!
//! 1. **Carbon-intensity traces** ([`intensity`]): minute-resolution
//!    gCO2/kWh time series for the five grid regions the paper evaluates
//!    (CISO/California, Tennessee, Texas, Florida, New York). A seeded
//!    synthetic generator reproduces each region's published mean and
//!    fluctuation statistics (the paper reports CISO fluctuating by an
//!    average of 6.75% hourly with a standard deviation of 59.24); a CSV
//!    parser accepts real Electricity Maps exports.
//!
//! 2. **The serverless carbon-footprint model** ([`model`]): the Sec. II
//!    first-order formulas splitting a function's footprint into embodied
//!    and operational components across the keep-alive, cold-start, and
//!    execution phases, attributed by DRAM share and CPU core share.
//!
//! Multi-region fleets read CI through [`bundle`]: a validated
//! region-keyed [`CiBundle`] (one series per region, equal spans)
//! resolved per fleet node by [`CiProvider`] — `at(node, t)` is the
//! intensity on *that node's grid*. Construction is strict: missing
//! regions and series shorter than the workload are typed [`CiError`]s,
//! never silently clamped reads ([`CarbonIntensityTrace::extend_cyclic`]
//! is the explicit opt-in for tiling a feed over longer horizons).

pub mod bundle;
pub mod footprint;
pub mod intensity;
pub mod model;
pub mod transfer;

pub use bundle::{CiBundle, CiError, CiProvider, StalenessPolicy};
pub use footprint::CarbonFootprint;
pub use intensity::{CarbonIntensityTrace, Region, RegionProfile};
pub use model::{CarbonModel, CarbonModelConfig, KeepaliveCoeffs};
pub use transfer::TransferCost;
