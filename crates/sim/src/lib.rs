//! # ecolife-sim — discrete-event serverless cluster simulator
//!
//! Replays an invocation [`Trace`](ecolife_trace::Trace) against an
//! N-node hardware [`Fleet`](ecolife_hw::Fleet) under a pluggable
//! [`Scheduler`] (the paper's two-generation pair is the `N = 2` case):
//!
//! * **warm pools** ([`pool`]) — one per fleet node, memory-bounded,
//!   holding the containers kept alive between invocations in slots
//!   indexed by function id; expiry runs off a min-heap timeline with
//!   one live entry per function (a heap-top peek per invocation instead
//!   of a pool scan);
//! * **engine** ([`engine`]) — advances invocation by invocation,
//!   expiring containers, classifying warm/cold starts, computing service
//!   time via the node performance model and carbon via the Sec. II
//!   footprint model — at the intensity of *the acting node's grid
//!   region*, resolved through a per-`NodeId` [`CiProvider`] (one shared
//!   series via [`Simulation::new`], or a region-keyed [`CiBundle`] via
//!   [`Simulation::try_new_regional`]; a CI series shorter than the
//!   workload is a typed construction error, never a silent freeze) —
//!   and invoking the scheduler's overflow handling when
//!   a keep-alive does not fit (displaced containers are retried against
//!   the plan's ranked transfer targets);
//! * **metrics** ([`metrics`]) — per-invocation records (service time,
//!   carbon breakdown, energy), aggregate totals, CDFs, and P95s — the
//!   quantities every figure of the paper is computed from;
//! * **shards** ([`shard`]) — the million-invocation scale path:
//!   [`Simulation::run_sharded`] partitions the trace by `FunctionId`
//!   hash into shards, each owning its warm pools, scheduler state, and
//!   metrics, replayed in parallel one reconciliation period at a time
//!   (each period is one [`parallel::parallel_map_threads`] call: the
//!   coordinator replays shards itself alongside its scoped helper
//!   threads, and the call's return is the period barrier). The
//!   one cross-shard interaction — per-node memory capacity — is counted
//!   once, in the shards' pools: shards admit against the other shards'
//!   bytes as they stood at the period's start, and a deterministic
//!   reconciliation pass per period expires, revokes (youngest
//!   `warm_since_ms` first, ties against the higher `FunctionId`),
//!   transfers, or evicts, so runs are bit-identical at any
//!   worker-thread count — and identical to the sequential path whenever
//!   shards never contend for a node.
//!
//! The sequential engine ([`Simulation::run`]) remains the
//! single-threaded reference; experiment sweeps and the planner fan
//! whole simulations out over the same scoped fan-out
//! ([`parallel::parallel_map`]).
//!
//! Both paths can additionally emit a hash-chained golden-trace event
//! stream ([`Simulation::run_with_sink`] /
//! [`Simulation::run_sharded_with_sink`], sinks from
//! `ecolife-telemetry`). Each run's [`stream`] collects every event as the
//! run reaches its anchor, and one sealer thread chains the final ones
//! while the run goes ([`seal_while_running`]); a sharded run hands its
//! shards' final events over at each period barrier. The streams are
//! byte-identical between sequential and sharded execution, and
//! zero-cost when disabled ([`NullSink`] monomorphizes every emission
//! away and no sealer thread starts).

pub mod cluster;
pub mod container;
pub mod engine;
pub mod executor;
pub mod faults;
pub mod membership;
pub mod metrics;
pub mod parallel;
pub mod pool;
pub mod scheduler;
pub mod shard;
pub mod stream;

pub use cluster::Cluster;
pub use container::WarmContainer;
pub use ecolife_carbon::{CiBundle, CiError, CiProvider, StalenessPolicy, TransferCost};
pub use faults::{Fault, FaultError, FaultPlan, RetryPolicy};
pub use membership::{MembershipEvent, MembershipPlan};
// Telemetry surface: sinks plug into `run_with_sink` /
// `run_sharded_with_sink`; everything else reads the emitted lines.
pub use ecolife_telemetry::{
    CaptureSink, ChainSummary, Event, EventSink, GoldenSnapshot, JsonlSink, NullSink,
};
pub use engine::{Engine, RunState, SimConfig, Simulation, SETUP_DELAY_MS};
pub use executor::{Admission, ExecutorConfig, NodeExecutors};
pub use metrics::{InvocationRecord, RunMetrics};
pub use parallel::{parallel_map, parallel_map_threads};
pub use pool::{ExpiryStats, WarmPool};
pub use scheduler::{
    AdjustPlan, Decision, InvocationCtx, KeepAliveChoice, OverflowAction, OverflowCtx, Scheduler,
};
pub use shard::{shard_of, ShardOptions};
pub use stream::{seal_while_running, Sealer};

/// Milliseconds per minute; keep-alive periods are quoted in minutes
/// throughout the paper.
pub const MINUTE_MS: u64 = 60_000;
