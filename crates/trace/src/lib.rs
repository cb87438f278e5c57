//! # ecolife-trace — serverless workloads and invocation traces
//!
//! Three substrates:
//!
//! * [`workload`] — a catalog of SeBS-style serverless functions
//!   (video-processing, graph-bfs, dna-visualization, …) with the
//!   per-function profile the simulator needs: base execution time on the
//!   reference hardware generation, cold-start overhead, memory footprint,
//!   and CPU sensitivity (how much of the runtime scales with single-thread
//!   speed across generations).
//! * [`azure`] — a parser for the Microsoft Azure Functions 2019 trace
//!   CSV schema ("Serverless in the Wild" \[26\]) plus the trace → catalog
//!   mapping the paper describes ("EcoLife maps all serverless functions to
//!   the closest match, considering the memory and execution time").
//! * [`synth`] — a seeded synthetic Azure-like trace generator matching the
//!   published marginals (heavy-tailed per-function popularity; a mix of
//!   Poisson, periodic, and bursty arrival classes), used when the real
//!   trace files are not available.
//!
//! [`stats`] adds the inter-arrival bookkeeping EcoLife's online predictor
//! is built on, and [`source`] turns workloads into pull-based streams
//! (batch [`Trace`]s and live bounded-channel lanes behind one
//! [`InvocationSource`] trait) for the `ecolife-service` ingest path.

pub mod azure;
pub mod invocation;
pub mod loader;
pub mod source;
pub mod stats;
pub mod synth;
pub mod workload;

pub use invocation::{Invocation, PushError, Trace};
pub use loader::TraceLoader;
pub use source::{live_lanes, IngestError, InvocationSource, LaneIngest, LiveSource, TraceSource};
pub use stats::InterArrivalStats;
pub use synth::{ArrivalClass, SynthTraceConfig};
pub use workload::{FunctionId, FunctionProfile, WorkloadCatalog};

/// The splitmix64 finalizer: a cheap, high-quality 64-bit mixer.
///
/// The single source of per-id stream derivation across the workspace:
/// [`synth`] seeds each synthetic function's RNG with it, and the
/// simulator's shard assignment (`ecolife_sim::shard_of`) hashes
/// `FunctionId`s through it — nearby inputs land in unrelated outputs,
/// and the mapping depends on nothing but its input.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    #[test]
    fn splitmix64_scrambles_and_is_pure() {
        // Pinned values: shard assignment and synthetic streams both
        // derive from this exact mapping, so it must never drift.
        assert_eq!(super::splitmix64(0), 0);
        assert_ne!(super::splitmix64(1), super::splitmix64(2));
        assert_eq!(super::splitmix64(42), super::splitmix64(42));
        // Consecutive inputs diverge across the whole word.
        let (a, b) = (super::splitmix64(100), super::splitmix64(101));
        assert!((a ^ b).count_ones() > 16, "weak diffusion: {a:x} vs {b:x}");
    }
}
