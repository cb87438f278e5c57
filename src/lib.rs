//! # EcoLife — carbon-aware serverless function scheduling
//!
//! A reproduction of *"EcoLife: Carbon-Aware Serverless Function
//! Scheduling for Sustainable Computing"* (SC 2024), generalized from the
//! paper's two-generation hardware pair to **N-node heterogeneous
//! fleets**: a scheduler that co-optimizes service time and carbon
//! footprint by deciding, per serverless function, **which fleet node**
//! and **how long** to keep the function warm, using a per-function
//! Dynamic Particle Swarm Optimizer with a perception–response mechanism
//! and a priority-eviction warm-pool adjustment.
//!
//! ## The fleet model
//!
//! Hardware is described as a [`Fleet`](hw::Fleet) — an ordered set of
//! CPU+DRAM nodes addressed by [`NodeId`](hw::NodeId). Each node hosts
//! one memory-bounded warm pool; schedulers place execution and
//! keep-alive on any node, and the warm-pool adjustment transfers
//! displaced containers along an explicit cheapest-first target ranking.
//! The paper's old/new pairs are two-SKU fleets with the old node at
//! `NodeId(0)` and the new node at `NodeId(1)`
//! ([`skus::fleet_a`](hw::skus::fleet_a) and its siblings); code that
//! must find a fleet's oldest or newest node asks
//! [`Fleet::oldest`](hw::Fleet::oldest) / [`Fleet::newest`](hw::Fleet::newest).
//! Larger fleets come from [`skus::fleet_of`](hw::skus::fleet_of) (e.g.
//! the three-generation demo fleet,
//! [`skus::fleet_three_generations`](hw::skus::fleet_three_generations)).
//!
//! This meta-crate re-exports the public API of the workspace:
//!
//! * [`hw`] — heterogeneous hardware models: SKUs, nodes, fleets, power,
//!   embodied carbon, performance scaling;
//! * [`carbon`] — carbon-intensity traces (5 grid regions) and the
//!   serverless carbon-footprint model;
//! * [`trace`] — SeBS workload catalog, Azure trace parser, synthetic
//!   Azure-like trace generator, inter-arrival statistics;
//! * [`sim`] — the discrete-event serverless cluster simulator, with
//!   deterministic fault injection ([`FaultPlan`](sim::FaultPlan):
//!   crashes, stale grids, partitions) and graceful degradation;
//! * [`pso`] — PSO / Dynamic PSO / GA / SA optimizers over fleet-sized
//!   placement spaces;
//! * [`core`] — the EcoLife scheduler, every baseline of the paper's
//!   evaluation, and the experiment runner;
//! * [`service`] — the engine as a live service: streaming ingest over
//!   bounded channel lanes, bounded per-node executors with typed
//!   admission, bit-identical to batch replay of the same workload;
//! * [`planner`] — fleet capacity planning: searches SKU mixes and
//!   memory budgets against a workload, with the scheduler + simulator
//!   as the inner evaluator (see `examples/capacity_planning.rs`).
//!
//! ## Quickstart
//!
//! ```
//! use ecolife::prelude::*;
//!
//! // A synthetic Azure-like trace over the SeBS workload catalog.
//! let trace = SynthTraceConfig::small(42).generate(&WorkloadCatalog::sebs());
//! // California carbon intensity, the pair-A fleet (i3.metal / m5zn.metal).
//! let ci = CarbonIntensityTrace::synthetic(Region::Caiso, 120, 42);
//! let fleet = skus::fleet_a();
//!
//! let mut ecolife = EcoLife::new(fleet.clone(), EcoLifeConfig::default());
//! let (summary, _) = run_scheme(&trace, &ci, &fleet, &mut ecolife);
//! assert!(summary.total_carbon_g > 0.0);
//! ```
//!
//! A three-node fleet is the same few lines:
//!
//! ```
//! use ecolife::prelude::*;
//!
//! let trace = SynthTraceConfig::small(7).generate(&WorkloadCatalog::sebs());
//! let ci = CarbonIntensityTrace::constant(300.0, 120);
//! let fleet = skus::fleet_of(&[Sku::I3Metal, Sku::M5Metal, Sku::M5znMetal]);
//!
//! let mut ecolife = EcoLife::new(fleet.clone(), EcoLifeConfig::default());
//! let (summary, metrics) = run_scheme(&trace, &ci, &fleet, &mut ecolife);
//! assert_eq!(summary.invocations, trace.len());
//! assert!(metrics.records.iter().all(|r| fleet.contains(r.exec_location)));
//! ```

pub mod golden;

pub use ecolife_carbon as carbon;
pub use ecolife_core as core;
pub use ecolife_hw as hw;
pub use ecolife_planner as planner;
pub use ecolife_pso as pso;
pub use ecolife_service as service;
pub use ecolife_sim as sim;
pub use ecolife_telemetry as telemetry;
pub use ecolife_trace as trace;

/// Convenient single-import surface for examples and downstream users.
pub mod prelude {
    pub use ecolife_carbon::{
        CarbonIntensityTrace, CarbonModel, CarbonModelConfig, CiBundle, CiError, CiProvider, Region,
    };
    pub use ecolife_core::{
        compare, run_scheme, BruteForce, Comparison, CostModel, EcoLife, EcoLifeConfig,
        FixedPolicy, OptTarget, RunSummary,
    };
    pub use ecolife_hw::{skus, Fleet, HardwareNode, NodeId, Sku};
    pub use ecolife_planner::{
        FleetPlan, PlanEvaluator, PlanReport, PlanScore, PlanSpace, Planner, PlannerConfig,
        SearchAlgorithm,
    };
    pub use ecolife_pso::{
        BatchOptimizer, DpsoConfig, DynamicPso, GaConfig, GeneticAlgorithm, Optimizer, Pso,
        PsoConfig, SaConfig, SearchSpace, SimulatedAnnealing,
    };
    pub use ecolife_service::{ServeError, Service};
    pub use ecolife_sim::{
        CaptureSink, Event, EventSink, ExecutorConfig, Fault, FaultError, FaultPlan,
        GoldenSnapshot, JsonlSink, MembershipEvent, MembershipPlan, NullSink, RetryPolicy,
        RunMetrics, Scheduler, ShardOptions, SimConfig, Simulation, StalenessPolicy, TransferCost,
        MINUTE_MS,
    };
    pub use ecolife_trace::{
        live_lanes, FunctionId, FunctionProfile, Invocation, InvocationSource, LaneIngest,
        LiveSource, SynthTraceConfig, Trace, WorkloadCatalog,
    };
}
