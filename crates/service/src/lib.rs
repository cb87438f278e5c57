//! # ecolife-service — the replay engine as a live service
//!
//! The batch paths ([`Simulation::run`](ecolife_sim::Simulation) and its
//! sharded twin) see the whole workload up front. A live platform does
//! not: invocations arrive one at a time from producers it does not
//! control, and the platform must admit, place, and account for each
//! before it knows what comes next. [`Service`] is that driver, built on
//! the same per-invocation core ([`Engine`]) the batch replayer runs —
//! not a reimplementation of it.
//!
//! ## Determinism: service ≡ batch, bit for bit
//!
//! Each accepted arrival is appended to a growing [`Trace`]
//! ([`Trace::push_arrival`]), and the engine is re-assembled over the
//! prefix before stepping. Because the trace is time-sorted, every
//! canonical telemetry anchor (a `partition_point` over arrival times)
//! computed against the prefix equals the full-trace one for any instant
//! at or before the current arrival — so driving the engine arrival by
//! arrival serializes **bit-for-bit** the same metrics and hash-chained
//! event stream as a batch replay of the final trace, at any producer
//! thread count ([`ecolife_trace::source`]'s lane discipline keeps the
//! consumed order workload-pure). `tests/service.rs` pins this.
//!
//! ## Typed edges
//!
//! Everything a real ingest door must reject is a typed error, never a
//! panic or a silent drop:
//!
//! * [`ServeError::OutOfOrder`] / [`ServeError::UnknownFunction`] — the
//!   producer broke the stream contract;
//! * [`ServeError::CiTooShort`] — the carbon-intensity series ends
//!   before this arrival (the batch path validates the whole horizon at
//!   construction; a live service can only check per arrival);
//! * executor admission — with bounded executors enabled
//!   ([`SimConfig::with_bounded_executors`]), saturated nodes queue up
//!   to the configured depth and then reject; rejections surface in
//!   [`RunMetrics::rejected`](ecolife_sim::RunMetrics) and as
//!   `AdmissionRejected` telemetry, while producers feel backpressure
//!   through the bounded ingest lanes
//!   ([`ecolife_trace::LaneIngest::try_send`]).

use ecolife_carbon::{CarbonIntensityTrace, CiBundle, CiError, CiProvider, StalenessPolicy};
use ecolife_hw::Fleet;
use ecolife_sim::{
    Engine, EventSink, FaultPlan, MembershipPlan, NullSink, RunMetrics, RunState, Scheduler,
    SimConfig,
};
use ecolife_trace::{FunctionId, InvocationSource, PushError, Trace, WorkloadCatalog};
use std::fmt;

/// Why the service refused an arrival (the whole run stops: every one of
/// these is a broken caller contract, not workload behavior — workload
/// overload is handled by executor admission and shows up in metrics,
/// not here).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// The source yielded an arrival earlier than one already ingested.
    OutOfOrder {
        /// The offending arrival time.
        t_ms: u64,
        /// The ingest horizon it would have to rewind past.
        horizon_ms: u64,
    },
    /// The arrival references a function outside the service's catalog.
    UnknownFunction {
        /// The unresolvable id.
        func: FunctionId,
        /// Catalog size (valid ids are `0..catalog_len`).
        catalog_len: usize,
    },
    /// The carbon-intensity series does not cover this arrival: serving
    /// it would price carbon off a clamped sample.
    /// [`CarbonIntensityTrace::extend_cyclic`] is the explicit opt-in
    /// for longer horizons.
    CiTooShort {
        /// The arrival that ran off the series.
        t_ms: u64,
        /// Length of the shortest per-node series (ms).
        ci_len_ms: u64,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::OutOfOrder { t_ms, horizon_ms } => write!(
                f,
                "arrival at {t_ms} ms precedes the ingest horizon {horizon_ms} ms"
            ),
            ServeError::UnknownFunction { func, catalog_len } => write!(
                f,
                "arrival references function {func} outside catalog (len {catalog_len})"
            ),
            ServeError::CiTooShort { t_ms, ci_len_ms } => write!(
                f,
                "carbon-intensity series ({ci_len_ms} ms) does not cover arrival at {t_ms} ms"
            ),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<PushError> for ServeError {
    fn from(e: PushError) -> Self {
        match e {
            PushError::OutOfOrder { t_ms, horizon_ms } => {
                ServeError::OutOfOrder { t_ms, horizon_ms }
            }
            PushError::UnknownFunction { func, catalog_len } => {
                ServeError::UnknownFunction { func, catalog_len }
            }
        }
    }
}

/// A virtual-clock live service: pulls invocations from an
/// [`InvocationSource`], ingests each through the shared replay engine
/// the moment it arrives, and settles into the exact metrics + telemetry
/// a batch replay of the same workload produces.
///
/// ```
/// use ecolife_service::Service;
/// use ecolife_sim::{Decision, InvocationCtx, Scheduler};
/// use ecolife_carbon::CarbonIntensityTrace;
/// use ecolife_hw::skus;
/// use ecolife_trace::{SynthTraceConfig, WorkloadCatalog};
///
/// struct ColdOnly;
/// impl Scheduler for ColdOnly {
///     fn name(&self) -> &'static str { "cold-only" }
///     fn decide(&mut self, ctx: &InvocationCtx<'_>) -> Decision {
///         Decision { exec: ctx.cluster.fleet().newest(), keepalive: None }
///     }
/// }
///
/// let workload = SynthTraceConfig::small(3).generate(&WorkloadCatalog::sebs());
/// let ci = CarbonIntensityTrace::constant(300.0, 600);
///
/// let service = Service::new(workload.catalog().clone(), &ci, skus::fleet_a());
/// let live = service.serve(workload.source(), &mut ColdOnly).unwrap();
/// assert_eq!(live.records.len(), workload.len());
/// ```
#[derive(Debug)]
pub struct Service<'a> {
    /// The growing trace: every accepted arrival lands here, so at any
    /// instant the service state is "the batch engine over this prefix".
    trace: Trace,
    ci: CiProvider<'a>,
    fleet: Fleet,
    config: SimConfig,
    membership: MembershipPlan,
    faults: FaultPlan,
}

impl<'a> Service<'a> {
    /// Open a service for `catalog` over `fleet`, every node reading the
    /// one shared CI series (the paper's single-region setup). Unlike
    /// batch construction there is no workload yet, so CI coverage is
    /// checked per arrival instead of at build time.
    pub fn new(catalog: WorkloadCatalog, ci: &'a CarbonIntensityTrace, fleet: Fleet) -> Self {
        let ci = CiProvider::shared(ci, &fleet);
        Service {
            trace: Trace::new(catalog, Vec::new()),
            ci,
            fleet,
            config: SimConfig::default(),
            membership: MembershipPlan::default(),
            faults: FaultPlan::default(),
        }
    }

    /// Multi-region form: each node prices carbon off its own region's
    /// series from `bundle`. Errs when a node's region has no series.
    pub fn try_new_regional(
        catalog: WorkloadCatalog,
        bundle: &'a CiBundle,
        fleet: Fleet,
    ) -> Result<Self, CiError> {
        let ci = CiProvider::from_bundle(bundle, &fleet)?;
        Ok(Service {
            trace: Trace::new(catalog, Vec::new()),
            ci,
            fleet,
            config: SimConfig::default(),
            membership: MembershipPlan::default(),
            faults: FaultPlan::default(),
        })
    }

    /// Replace the engine configuration (enable bounded executors here:
    /// [`SimConfig::with_bounded_executors`]).
    pub fn with_config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Attach an online-membership timeline (nodes leaving / rejoining
    /// mid-stream), exactly as on the batch path.
    pub fn with_membership(mut self, plan: MembershipPlan) -> Self {
        self.membership = plan;
        self
    }

    /// Attach a deterministic fault-injection timeline
    /// ([`FaultPlan`]), exactly as on the batch path: CI outages
    /// overlay the provider with last-known-good data here, once;
    /// crashes and partitions replay through the engine timeline as
    /// arrivals come in.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.ci.apply_outages(&plan.outage_spans());
        self.faults = plan;
        self
    }

    /// Override the CI [`StalenessPolicy`], exactly as on the batch
    /// path ([`Simulation::with_staleness`](ecolife_sim::Simulation)).
    pub fn with_staleness(mut self, policy: StalenessPolicy) -> Self {
        self.ci = self.ci.with_staleness(policy);
        self
    }

    /// The catalog this service resolves function ids against.
    pub fn catalog(&self) -> &WorkloadCatalog {
        self.trace.catalog()
    }

    /// Drain `source` to exhaustion, ingesting every arrival as it
    /// comes; returns the final metrics. Consumes the service — a run's
    /// trace, pools, and executor state are one-shot.
    pub fn serve<S: Scheduler>(
        self,
        source: impl InvocationSource,
        scheduler: &mut S,
    ) -> Result<RunMetrics, ServeError> {
        self.serve_with_sink(source, scheduler, &mut NullSink)
    }

    /// [`Service::serve`] with a hash-chained telemetry stream: the
    /// sealed stream is byte-identical to
    /// [`Simulation::run_with_sink`](ecolife_sim::Simulation) over the
    /// final trace.
    pub fn serve_with_sink<S: Scheduler, K: EventSink>(
        mut self,
        mut source: impl InvocationSource,
        scheduler: &mut S,
        sink: &mut K,
    ) -> Result<RunMetrics, ServeError> {
        // `prepare` reads only the catalog (captures it and clears
        // per-function state), so priming on the still-empty trace is
        // exactly what a batch run over the final trace does first.
        scheduler.prepare(&self.trace);
        let mut state: Option<RunState> = None;
        while let Some(inv) = source.next_invocation() {
            if self.ci.min_len_ms() <= inv.t_ms {
                return Err(ServeError::CiTooShort {
                    t_ms: inv.t_ms,
                    ci_len_ms: self.ci.min_len_ms(),
                });
            }
            let index = self.trace.push_arrival(inv)?;
            // Six references — free to re-assemble per arrival, and the
            // borrow of the just-grown trace must be, since `push_arrival`
            // needs the trace back between steps.
            let engine = Engine::new(
                &self.trace,
                &self.ci,
                &self.fleet,
                &self.config,
                &self.membership,
                &self.faults,
            );
            let run = state.get_or_insert_with(|| engine.begin());
            engine.ingest::<S, K>(run, index, &inv, scheduler);
        }
        let engine = Engine::new(
            &self.trace,
            &self.ci,
            &self.fleet,
            &self.config,
            &self.membership,
            &self.faults,
        );
        let mut run = state.unwrap_or_else(|| engine.begin());
        engine.finish::<K>(&mut run);
        Ok(engine.seal::<K>(run, sink))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecolife_hw::{skus, NodeId};
    use ecolife_sim::{CaptureSink, Decision, InvocationCtx, KeepAliveChoice, Simulation};
    use ecolife_trace::{live_lanes, FunctionProfile, Invocation, SynthTraceConfig};

    /// Warm-aware fixed policy: run where warm (else node 0), keep alive
    /// two minutes on the executing node — enough to exercise pools and
    /// expiry on both drivers.
    struct Sticky;
    impl Scheduler for Sticky {
        fn name(&self) -> &'static str {
            "sticky"
        }
        fn decide(&mut self, ctx: &InvocationCtx<'_>) -> Decision {
            let exec = ctx.warm_at.unwrap_or(NodeId(0));
            Decision {
                exec,
                keepalive: Some(KeepAliveChoice {
                    location: exec,
                    duration_ms: 120_000,
                }),
            }
        }
    }

    fn workload(seed: u64) -> Trace {
        SynthTraceConfig::small(seed).generate(&WorkloadCatalog::sebs())
    }

    /// Record-for-record equality, plus the run's counters. Both runs
    /// step one engine through the same invocations in the same order,
    /// so even the expiry timeline's pop counts agree.
    fn assert_same_run(a: &RunMetrics, b: &RunMetrics) {
        assert_eq!(a.records, b.records);
        assert_eq!(a.evicted_functions, b.evicted_functions);
        assert_eq!(a.transfers, b.transfers);
        assert_eq!(a.transfer_g_by_node, b.transfer_g_by_node);
        assert_eq!(a.keepalive_g_by_node, b.keepalive_g_by_node);
        assert_eq!(a.queue_ms_by_node, b.queue_ms_by_node);
        assert_eq!(a.rejected, b.rejected);
        assert_eq!(a.executor_peak_by_node, b.executor_peak_by_node);
        assert_eq!(a.expiry, b.expiry);
    }

    #[test]
    fn serve_error_displays_and_is_std_error() {
        let errs: Vec<Box<dyn std::error::Error>> = vec![
            Box::new(ServeError::OutOfOrder {
                t_ms: 5,
                horizon_ms: 9,
            }),
            Box::new(ServeError::UnknownFunction {
                func: FunctionId(7),
                catalog_len: 3,
            }),
            Box::new(ServeError::CiTooShort {
                t_ms: 90_000,
                ci_len_ms: 60_000,
            }),
        ];
        let rendered: Vec<String> = errs.iter().map(|e| e.to_string()).collect();
        assert!(rendered[0].contains("precedes the ingest horizon 9 ms"));
        assert!(rendered[1].contains("outside catalog (len 3)"));
        assert!(rendered[2].contains("does not cover arrival at 90000 ms"));
    }

    #[test]
    fn service_metrics_match_batch_replay() {
        let trace = workload(11);
        let ci = CarbonIntensityTrace::constant(300.0, 600);
        let mut s1 = Sticky;
        let batch = Simulation::new(&trace, &ci, skus::fleet_a()).run(&mut s1);
        let mut s2 = Sticky;
        let live = Service::new(trace.catalog().clone(), &ci, skus::fleet_a())
            .serve(trace.source(), &mut s2)
            .unwrap();
        assert_same_run(&batch, &live);
    }

    #[test]
    fn service_stream_matches_batch_stream() {
        let trace = workload(12);
        let ci = CarbonIntensityTrace::constant(300.0, 600);
        let mut batch_sink = CaptureSink::default();
        let mut s1 = Sticky;
        Simulation::new(&trace, &ci, skus::fleet_a()).run_with_sink(&mut s1, &mut batch_sink);
        let mut live_sink = CaptureSink::default();
        let mut s2 = Sticky;
        Service::new(trace.catalog().clone(), &ci, skus::fleet_a())
            .serve_with_sink(trace.source(), &mut s2, &mut live_sink)
            .unwrap();
        assert_eq!(batch_sink.lines(), live_sink.lines());
    }

    #[test]
    fn live_lane_ingest_matches_batch() {
        let trace = workload(13);
        let ci = CarbonIntensityTrace::constant(300.0, 600);
        let mut s1 = Sticky;
        let batch = Simulation::new(&trace, &ci, skus::fleet_a()).run(&mut s1);
        let (handles, source) = live_lanes(2, 8);
        let all = trace.invocations().to_vec();
        let split = all.len() / 2;
        let live = std::thread::scope(|scope| {
            let (first, second) = all.split_at(split);
            let mut handles = handles.into_iter();
            let h0 = handles.next().unwrap();
            let h1 = handles.next().unwrap();
            scope.spawn(move || {
                for &i in first {
                    h0.send(i).unwrap();
                }
            });
            scope.spawn(move || {
                for &i in second {
                    h1.send(i).unwrap();
                }
            });
            let mut s2 = Sticky;
            Service::new(trace.catalog().clone(), &ci, skus::fleet_a())
                .serve(source, &mut s2)
                .unwrap()
        });
        assert_same_run(&batch, &live);
    }

    #[test]
    fn out_of_order_arrival_is_a_typed_error() {
        let catalog = WorkloadCatalog::sebs();
        let ci = CarbonIntensityTrace::constant(300.0, 600);
        // A sorted `Trace` cannot even express disorder; raw lanes can.
        let (handles, source) = live_lanes(1, 4);
        handles[0]
            .send(Invocation {
                func: FunctionId(0),
                t_ms: 500,
            })
            .unwrap();
        handles[0]
            .send(Invocation {
                func: FunctionId(0),
                t_ms: 100,
            })
            .unwrap();
        drop(handles);
        let mut s = Sticky;
        let err = Service::new(catalog, &ci, skus::fleet_a())
            .serve(source, &mut s)
            .unwrap_err();
        assert_eq!(
            err,
            ServeError::OutOfOrder {
                t_ms: 100,
                horizon_ms: 500
            }
        );
    }

    #[test]
    fn ci_exhaustion_is_a_typed_error() {
        // 2 minutes of CI, an arrival beyond it.
        let ci = CarbonIntensityTrace::constant(300.0, 2);
        let (handles, source) = live_lanes(1, 2);
        handles[0]
            .send(Invocation {
                func: FunctionId(0),
                t_ms: 10 * 60_000,
            })
            .unwrap();
        drop(handles);
        let mut s = Sticky;
        let err = Service::new(WorkloadCatalog::sebs(), &ci, skus::fleet_a())
            .serve(source, &mut s)
            .unwrap_err();
        assert!(matches!(err, ServeError::CiTooShort { t_ms: 600_000, .. }));
    }

    #[test]
    fn unknown_function_is_a_typed_error() {
        let catalog = WorkloadCatalog::new(vec![FunctionProfile::new("only", 100, 100, 128, 0.5)]);
        let ci = CarbonIntensityTrace::constant(300.0, 600);
        let (handles, source) = live_lanes(1, 2);
        handles[0]
            .send(Invocation {
                func: FunctionId(5),
                t_ms: 0,
            })
            .unwrap();
        drop(handles);
        let mut s = Sticky;
        let err = Service::new(catalog, &ci, skus::fleet_a())
            .serve(source, &mut s)
            .unwrap_err();
        assert_eq!(
            err,
            ServeError::UnknownFunction {
                func: FunctionId(5),
                catalog_len: 1
            }
        );
    }

    #[test]
    fn empty_stream_yields_empty_metrics() {
        let ci = CarbonIntensityTrace::constant(300.0, 600);
        let (handles, source) = live_lanes(1, 1);
        drop(handles);
        let mut s = Sticky;
        let m = Service::new(WorkloadCatalog::sebs(), &ci, skus::fleet_a())
            .serve(source, &mut s)
            .unwrap();
        assert!(m.records.is_empty());
    }
}
