//! The trace replay engine.
//!
//! One pass over the invocation stream; for every invocation:
//!
//! 1. lapse expired containers on every fleet node (settling their
//!    keep-alive carbon against the invocation that scheduled them);
//! 2. classify warm/cold (a warm container is consumed by the start);
//! 3. ask the [`Scheduler`] for execution placement and keep-alive
//!    (execution is forced to the warm location when one exists —
//!    Sec. IV-D);
//! 4. account service time (setup + cold start + execution on the chosen
//!    node) and service carbon (Sec. II model, time-averaged CI);
//! 5. install the keep-alive container, running the scheduler's warm-pool
//!    adjustment on overflow; displaced containers are retried against
//!    the plan's transfer targets in order (every other node, by default).
//!
//! At end of trace, still-warm containers are settled at their expiry —
//! every scheduled keep-alive is fully charged, so schedulers cannot game
//! the horizon.
//!
//! ## Bookkeeping
//!
//! Every keep-alive is charged to the invocation that scheduled it
//! (Sec. IV-C), however its stay ends. Each bookkeeping step has one
//! function, shared by the per-invocation step, the overflow
//! adjustment, shard reconciliation, the fleet-timeline handlers
//! (crash, membership, re-placement) and the end-of-run drain:
//!
//! * `expire_due` — the expiry sweep; each lapsed container is settled
//!   in full by `settle_expired`, which the drain shares;
//! * `release` — settle a stay cut short (reuse, replacement,
//!   displacement, crash) and emit its `Released` event;
//! * `restart_elsewhere` — the restart rule of every transfer path
//!   (overflow displacement, reconcile retry, `migrate`): the stay on the
//!   target starts no earlier than the container's own `warm_since`, so
//!   a container still executing turns warm only when its service ends;
//!   it carries the re-warm latency; its egress is priced at the source
//!   grid;
//! * `book_transfer` — the transfer counters and the `Transferred`
//!   event;
//! * `migrate` — the one move behind membership drains and
//!   re-placement passes (admission: `has_room`).
//!
//! Two drivers share that per-invocation step: [`Simulation::run`] (the
//! single-threaded reference) and [`Simulation::run_sharded`] (the
//! million-invocation path: `FunctionId`-hash shards replayed in
//! parallel, cross-shard node memory reconciled deterministically per
//! period — see [`crate::shard`]).
//!
//! ## Telemetry
//!
//! Every observable action can additionally be emitted as a
//! hash-chained event stream ([`ecolife_telemetry`]): pass a sink to
//! [`Simulation::run_with_sink`] / [`Simulation::run_sharded_with_sink`].
//! Each run state's [`stream`](crate::stream) collects the events under
//! canonical keys (global invocation index anchors) as the run reaches
//! them, and hands each batch of final events to one sealer thread that
//! sorts, numbers and hash-chains it while the engine goes on. A
//! sharded run's coordinator takes over its shards' final events at
//! each period barrier and hands them off the same way. Either way the
//! stream is in key order, so the sharded stream is byte-identical to
//! the sequential one whenever the runs themselves are (no
//! reconciliation revocations). The sink is a
//! *type* parameter: with [`NullSink`] (`ENABLED = false`, what
//! [`Simulation::run`] uses) every collection site is
//! compile-time dead code, which is why telemetry lives here as a
//! generic rather than a `SimConfig` field — `SimConfig` is `Copy`, and
//! monomorphization is what makes the disabled path cost nothing.

use crate::cluster::Cluster;
use crate::container::WarmContainer;
use crate::executor::{Admission, ExecutorConfig};
use crate::faults::FaultPlan;
use crate::membership::{MembershipEvent, MembershipPlan};
use crate::metrics::{InvocationRecord, RunMetrics};
use crate::parallel::{default_threads, parallel_map_threads};
use crate::pool::ExpiryMode;
use crate::scheduler::{
    Decision, InvocationCtx, KeepAliveChoice, OverflowAction, OverflowCtx, Scheduler,
};
use crate::shard::{merge_metrics, shard_of, ShardOptions};
use crate::stream::{seal_while_running, Sealer, Stream};
use ecolife_carbon::{
    CarbonFootprint, CarbonIntensityTrace, CarbonModel, CiBundle, CiError, CiProvider, Region,
    StalenessPolicy, TransferCost,
};
use ecolife_hw::{Fleet, NodeId, PerfModel};
use ecolife_telemetry::{lane, Event, EventKey, EventSink, NullSink, ReleaseCause};
use ecolife_trace::{FunctionId, Invocation, Trace};
use std::ops::{Deref, DerefMut};

/// What one settlement charged — returned by `settle` so its three
/// callers (`release`, `settle_expired` and the reconcile revocation)
/// can emit the matching event.
#[derive(Debug, Clone, Copy, Default)]
struct Settlement {
    keepalive_g: f64,
    energy_kwh: f64,
}

/// One keep-alive charge to a record: what `settle` adds to it.
#[derive(Debug, Clone, Copy)]
struct Charge {
    /// The run's record number (`WarmContainer::origin_record`).
    record: usize,
    footprint: CarbonFootprint,
    energy_kwh: f64,
}

impl Charge {
    fn apply(self, rec: &mut InvocationRecord) {
        rec.keepalive_carbon += self.footprint;
        rec.energy_kwh += self.energy_kwh;
    }
}

/// A run's metrics, and how many of its records it has handed over.
///
/// A sequential, stepped or served run keeps every record it pushes. A
/// sharded run's coordinator takes each shard's records over at every
/// period barrier, so a shard's record number `i` (what a container's
/// `origin_record` holds) sits at `metrics.records[i - handed_over]`
/// only until then. A keep-alive charge to a record already handed over
/// waits in `late`, in settle order, for the coordinator to apply it at
/// the next hand-over: every record takes the same additions in the
/// same order either way.
#[derive(Debug)]
struct Tally {
    metrics: RunMetrics,
    handed_over: usize,
    late: Vec<Charge>,
}

impl Tally {
    /// The number of the next record pushed.
    fn next_record(&self) -> usize {
        self.handed_over + self.metrics.records.len()
    }

    /// Charge a record the run still holds, or queue the charge.
    fn charge(&mut self, charge: Charge) {
        match charge.record.checked_sub(self.handed_over) {
            Some(i) => charge.apply(&mut self.metrics.records[i]),
            None => self.late.push(charge),
        }
    }
}

/// Every bookkeeping step but `settle` reads and writes the metrics
/// through the tally as it would the metrics themselves.
impl Deref for Tally {
    type Target = RunMetrics;
    fn deref(&self) -> &RunMetrics {
        &self.metrics
    }
}

impl DerefMut for Tally {
    fn deref_mut(&mut self) -> &mut RunMetrics {
        &mut self.metrics
    }
}

/// Count one accepted keep-alive transfer `from → to` — egress grams
/// owned by the source grid, re-warm latency — and build its
/// [`Event::Transferred`] for the caller to key.
fn book_transfer(
    metrics: &mut RunMetrics,
    func: FunctionId,
    from: NodeId,
    to: NodeId,
    t_ms: u64,
    egress_g: f64,
    latency_ms: u64,
) -> Event {
    metrics.transfers += 1;
    metrics.transfer_g += egress_g;
    metrics.transfer_g_by_node[from.index()] += egress_g;
    metrics.transfer_ms += latency_ms;
    Event::Transferred {
        func: func.0,
        from: from.0,
        to: to.0,
        t_ms,
        egress_g,
        latency_ms,
    }
}

/// `node`'s residents in `FunctionId` order: a snapshot to drain or move
/// from while the pool changes.
fn residents(cluster: &Cluster, node: NodeId) -> Vec<WarmContainer> {
    cluster.pool(node).iter().copied().collect()
}

/// Can `target` take `c` as a move? Moves never replace: the target must
/// hold no container of that function, and `c` must fit.
fn has_room(cluster: &Cluster, target: NodeId, c: &WarmContainer) -> bool {
    let pool = cluster.pool(target);
    pool.get(c.func).is_none() && pool.fits(c)
}

/// Fixed platform *setup* overhead added to every service time (ms).
///
/// The paper's service time "includes queuing delay, setup delay, cold
/// start (if applicable), and execution time". With bounded executors
/// **off** ([`SimConfig::bounded_executors`] `== None`, the default) the
/// replay has unlimited per-node concurrency and no queue to measure,
/// so this one constant stands in for *both* queuing and setup. With
/// bounded executors **on** the engine measures real per-node queueing
/// delay and adds it separately ([`InvocationRecord::queue_ms`]); this
/// constant then covers setup only. Cost models that price service time
/// (`ecolife-core`'s `CostModel`) read the same constant, so every
/// decision is priced with the delay the engine charges.
pub const SETUP_DELAY_MS: u64 = 50;

/// Engine knobs.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// The carbon model (embodied scaling etc.).
    pub carbon_model: CarbonModel,
    /// How warm pools find lapsed containers: the expiry timeline
    /// (default — a min-heap peek instead of a per-invocation pool
    /// scan) or the original scan, kept as the bit-identity reference
    /// ([`ExpiryMode::Scan`]). Records are identical either way; only
    /// wall-clock differs.
    pub expiry: ExpiryMode,
    /// Price of a cross-node container migration (egress grams at the
    /// source grid + re-warm latency). Defaults to
    /// [`TransferCost::free`]: every charge site adds `+ 0.0`/`+ 0`, so
    /// a free-priced run is bit-identical to the pre-pricing engine.
    pub transfer_cost: TransferCost,
    /// Cadence of the periodic re-placement pass, in minutes; `0`
    /// (default) disables it. Every `N` minutes the engine ranks each
    /// node's long-lived warm containers against `(current CI,
    /// migration cost)` and drains them toward the cleanest grid when
    /// the remaining keep-alive on a cleaner node — plus the egress
    /// price — beats staying put. Pure in `(t, region)`, so sharded
    /// replay stays thread-invariant.
    pub replacement_every_min: u64,
    /// Bounded per-node executors ([`crate::executor`]): `None`
    /// (default) replays with unlimited concurrency per node —
    /// byte-identical to the pre-service engine, goldens included.
    /// `Some(cfg)` caps each node at its core count
    /// ([`ecolife_hw::CpuModel::executor_slots`]); saturated nodes
    /// queue arrivals (measured wait lands in
    /// [`InvocationRecord::queue_ms`] and the service time), and
    /// arrivals beyond `cfg.queue_cap` are rejected. In sharded runs
    /// each shard's executors see only shard-local load, so the
    /// determinism pin is against the *sequential* engine; replay
    /// remains thread-invariant at any fixed shard count.
    pub bounded_executors: Option<ExecutorConfig>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            carbon_model: CarbonModel::default(),
            expiry: ExpiryMode::default(),
            transfer_cost: TransferCost::free(),
            replacement_every_min: 0,
            bounded_executors: None,
        }
    }
}

impl SimConfig {
    /// This config with an explicit expiry implementation.
    pub fn with_expiry(mut self, expiry: ExpiryMode) -> Self {
        self.expiry = expiry;
        self
    }

    /// This config with priced migrations.
    pub fn with_transfer_cost(mut self, cost: TransferCost) -> Self {
        self.transfer_cost = cost;
        self
    }

    /// This config with the re-placement pass running every
    /// `every_min` minutes (`0` disables).
    pub fn with_replacement_every_min(mut self, every_min: u64) -> Self {
        self.replacement_every_min = every_min;
        self
    }

    /// This config with bounded per-node executors (cores-limited
    /// concurrency, measured queueing delay, admission control). See
    /// [`SimConfig::bounded_executors`].
    pub fn with_bounded_executors(mut self, config: ExecutorConfig) -> Self {
        self.bounded_executors = Some(config);
        self
    }
}

/// Cursors into the engine's fleet timeline (re-placement passes +
/// membership events + fault-plan crash instants), advanced lazily:
/// before each invocation and once more at the horizon, every due event
/// is applied in time order. Each shard owns one — the timeline is
/// replayed identically against every cluster slice.
#[derive(Debug, Clone, Copy)]
struct FleetTimeline {
    /// Next re-placement pass index (pass `k` fires at
    /// `k * replacement_every_min * MINUTE_MS`; `k = 0` never fires).
    next_pass: u64,
    /// Next unapplied entry of the membership plan.
    next_member: usize,
    /// Next unapplied crash instant of the fault plan (recoveries are
    /// passive — [`FaultPlan::is_crashed`] simply stops matching — so
    /// only the "down" moments carry state changes).
    next_fault: usize,
}

impl FleetTimeline {
    fn new() -> Self {
        FleetTimeline {
            next_pass: 1,
            next_member: 0,
            next_fault: 0,
        }
    }
}

/// One shard of a sharded run: its own [`RunState`] (warm pools, metrics,
/// collected telemetry and fleet-timeline cursors, built by
/// [`Engine::begin`] exactly as for a sequential run), scheduler
/// instance, and sub-trace.
struct ShardState<S> {
    run: RunState,
    scheduler: S,
    /// This shard's invocations, as ascending global indices into the
    /// (sorted) trace, so its records are pushed in trace order: its
    /// record number `i` is invocation `jobs[i]`'s.
    jobs: Vec<usize>,
    /// Next unprocessed entry of `jobs`.
    cursor: usize,
}

/// Bytes kept alive on `node` across every shard's pool.
fn node_used_mib<S>(states: &[ShardState<S>], node: NodeId) -> u64 {
    states
        .iter()
        .map(|s| s.run.cluster.pool(node).used_mib())
        .sum()
}

/// Move the records every shard pushed for `period` (the invocations
/// replayed since the last hand-over, in trace order) onto `records`, the
/// run's trace-ordered record vector, once each shard's late charges
/// have reached the records it handed over before. Each shard pushed its
/// records in trace order, so walking `period` and taking the next
/// record of each invocation's [`shard_of`] shard is a k-way merge.
fn hand_over<S>(
    period: &[Invocation],
    states: &mut [ShardState<S>],
    records: &mut Vec<InvocationRecord>,
) {
    for state in states.iter_mut() {
        for charge in state.run.metrics.late.drain(..) {
            charge.apply(&mut records[state.jobs[charge.record]]);
        }
    }
    let mut taken = vec![0usize; states.len()];
    for inv in period {
        let s = shard_of(inv.func, states.len());
        records.push(states[s].run.metrics.records[taken[s]]);
        taken[s] += 1;
    }
    for (state, taken) in states.iter_mut().zip(taken) {
        let tally = &mut state.run.metrics;
        assert_eq!(
            taken,
            tally.records.len(),
            "every invocation of the period is recorded by its own shard, once"
        );
        tally.handed_over += taken;
        tally.records.clear();
    }
}

/// A configured simulation, ready to run against any scheduler — the one
/// way to run a replay. Construction picks the CI source
/// ([`Simulation::new`] for one shared series,
/// [`Simulation::try_new_regional`] for a per-region bundle), the
/// `with_*` methods set the knobs, and the four `run*` methods cover
/// execution mode (sequential or sharded) × sink (none or a telemetry
/// [`EventSink`]).
#[derive(Debug)]
pub struct Simulation<'a> {
    trace: &'a Trace,
    ci: CiProvider<'a>,
    fleet: Fleet,
    config: SimConfig,
    membership: MembershipPlan,
    faults: FaultPlan,
}

impl<'a> Simulation<'a> {
    /// Build a simulation over a fleet, every node reading the one
    /// shared CI series — the paper's single-region setup.
    ///
    /// # Panics
    /// Panics when the CI series ends before the workload does (see
    /// [`Simulation::try_new`] for the fallible form). A series that
    /// runs out used to freeze silently at its last sample, corrupting
    /// every carbon total after that point; it is now a loud
    /// construction-time error, with
    /// [`CarbonIntensityTrace::extend_cyclic`] as the explicit opt-in
    /// for covering longer horizons.
    pub fn new(trace: &'a Trace, ci: &'a CarbonIntensityTrace, fleet: Fleet) -> Self {
        Self::try_new(trace, ci, fleet).unwrap_or_else(|e| panic!("invalid simulation: {e}"))
    }

    /// Fallible [`Simulation::new`]: returns [`CiError::TooShort`] when
    /// the CI series does not cover the workload span.
    pub fn try_new(
        trace: &'a Trace,
        ci: &'a CarbonIntensityTrace,
        fleet: Fleet,
    ) -> Result<Self, CiError> {
        let provider = CiProvider::shared(ci, &fleet);
        Self::from_provider(trace, provider, fleet)
    }

    /// Build a multi-region simulation: each node reads the series of
    /// its own [`Region`] from `bundle`. Fails when a node's region has
    /// no series or any series ends before the workload does.
    pub fn try_new_regional(
        trace: &'a Trace,
        bundle: &'a CiBundle,
        fleet: Fleet,
    ) -> Result<Self, CiError> {
        let provider = CiProvider::from_bundle(bundle, &fleet)?;
        Self::from_provider(trace, provider, fleet)
    }

    /// Shared construction tail: validate that every node's series
    /// covers the workload span (`trace.horizon_ms()` — the last
    /// arrival must read a real sample, never a clamped one).
    fn from_provider(trace: &'a Trace, ci: CiProvider<'a>, fleet: Fleet) -> Result<Self, CiError> {
        if !trace.is_empty() && ci.min_len_ms() <= trace.horizon_ms() {
            let node = fleet
                .ids()
                .min_by_key(|&id| ci.series(id).len_ms())
                .expect("fleet is non-empty");
            return Err(CiError::TooShort {
                region: ci.region(node),
                ci_ms: ci.series(node).len_ms(),
                required_ms: trace.horizon_ms() + 1,
            });
        }
        Ok(Simulation {
            trace,
            ci,
            fleet,
            config: SimConfig::default(),
            membership: MembershipPlan::default(),
            faults: FaultPlan::default(),
        })
    }

    pub fn with_config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Attach an online-membership timeline (see
    /// [`MembershipPlan`]): nodes leave (their warm pools drain through
    /// the priced migration ranking) and rejoin mid-trace. The default
    /// empty plan is exactly the fixed-fleet engine.
    pub fn with_membership(mut self, plan: MembershipPlan) -> Self {
        self.membership = plan;
        self
    }

    /// Attach a deterministic fault-injection timeline (see
    /// [`FaultPlan`]): node crashes drain warm pools ungracefully, CI
    /// outages freeze the provider at last-known-good data (applied to
    /// the provider here, once — the overlay is input-derived), and
    /// partitions make cross-partition transfers fail and retry on the
    /// plan's deterministic backoff schedule. The default empty plan is
    /// exactly the fault-free engine, byte for byte.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.ci.apply_outages(&plan.outage_spans());
        self.faults = plan;
        self
    }

    /// Override the CI [`StalenessPolicy`] — how long the scheduler keeps
    /// trusting last-known-good carbon data during a feed outage before
    /// switching to the carbon-agnostic fallback, and how long the
    /// fallback keep-alive runs. The default is
    /// [`StalenessPolicy::default`].
    pub fn with_staleness(mut self, policy: StalenessPolicy) -> Self {
        self.ci = self.ci.with_staleness(policy);
        self
    }

    /// The per-node CI resolution this simulation runs under.
    pub fn ci(&self) -> &CiProvider<'a> {
        &self.ci
    }

    /// Run `scheduler` over the trace, producing the full metrics.
    ///
    /// This is the single-threaded reference path; [`Simulation::run_sharded`]
    /// fans the same per-invocation semantics out over `FunctionId`-hash
    /// shards and is record-for-record identical whenever shards never
    /// contend for a node's memory.
    pub fn run<S: Scheduler>(&self, scheduler: &mut S) -> RunMetrics {
        self.run_with_sink(scheduler, &mut NullSink)
    }

    /// [`Simulation::run`], additionally emitting the hash-chained event
    /// stream through `sink` (see the module docs). The stream is sealed
    /// on a sealer thread while the run goes, so `sink` sees each event
    /// soon after the engine passes it ([`crate::stream`]). With
    /// [`NullSink`] this *is* `run` — every collection site is
    /// compile-time dead code, and no thread is spawned.
    pub fn run_with_sink<S: Scheduler, K: EventSink>(
        &self,
        scheduler: &mut S,
        sink: &mut K,
    ) -> RunMetrics {
        let engine = self.engine();
        seal_while_running(sink, |sealer| {
            let mut state = engine.begin_sealing(sealer);
            state.metrics.records.reserve(self.trace.len());
            scheduler.prepare(self.trace);
            for (index, inv) in self.trace.invocations().iter().enumerate() {
                engine.ingest::<S, K>(&mut state, index, inv, scheduler);
            }
            engine.finish::<K>(&mut state);
            engine.close(state)
        })
    }

    /// The shared per-invocation core this simulation drives — the same
    /// [`Engine`] the live service (`ecolife-service`) re-creates per
    /// arrival over its growing trace, which is what makes the two
    /// drivers bit-identical.
    pub fn engine(&self) -> Engine<'_> {
        Engine {
            trace: self.trace,
            ci: &self.ci,
            fleet: &self.fleet,
            config: &self.config,
            membership: &self.membership,
            faults: &self.faults,
        }
    }

    /// Replay the trace over `shards` function-hash shards in parallel.
    ///
    /// `factory(shard)` builds one scheduler per shard (each is
    /// `prepare`d with the **full** trace, so oracle-family baselines
    /// keep their global-index future knowledge); every invocation is
    /// routed to [`shard_of`]`(func, shards)` and replayed with the exact
    /// sequential [`Simulation::run`] semantics against that shard's own
    /// pools. Node memory is counted once, in those pools: within a
    /// period each shard admits against the other shards' bytes as they
    /// stood at the period's start; at every period boundary the
    /// coordinator's deterministic reconciliation pass expires lapsed
    /// containers, revokes over-capacity admissions (youngest
    /// `warm_since_ms` first, ties against the higher `FunctionId`),
    /// retries them on the remaining nodes in id order, and hands every
    /// pool the other shards' post-pass bytes (see [`crate::shard`]).
    ///
    /// Each period's shards are replayed by the calling thread and up to
    /// `threads − 1` scoped helpers ([`parallel_map_threads`]), so
    /// [`ShardOptions::with_threads`]`(1)` spawns no thread. A panic in
    /// any shard's scheduler reaches the caller with its own payload.
    ///
    /// After each period the coordinator moves the shards' records of the
    /// period into the run's one trace-ordered record vector, so no shard
    /// holds more than one period of records; a keep-alive charge to a
    /// record already moved is queued on its shard and applied by the
    /// coordinator at the next hand-over, in the order the shard settled
    /// it.
    ///
    /// **Determinism guarantee:** for fixed `(trace, ci, fleet, config,
    /// factory, shards, period_ms)` the result is bit-identical at any
    /// worker-thread count (shard work depends only on the shard's
    /// sub-trace and barrier-time snapshots, never on scheduling). Across
    /// *shard counts* — including against the sequential [`Simulation::run`] —
    /// records and counters are bit-identical whenever no reconciliation
    /// revocation occurs ([`RunMetrics::reconcile_revocations`]` == 0`);
    /// per-node gram totals then agree up to float-summation order.
    pub fn run_sharded<S, F>(&self, factory: F, opts: &ShardOptions) -> RunMetrics
    where
        S: Scheduler + Send,
        F: Fn(usize) -> S,
    {
        self.run_sharded_with_sink(factory, opts, &mut NullSink)
    }

    /// [`Simulation::run_sharded`], additionally emitting the
    /// hash-chained event stream through `sink`.
    ///
    /// Each shard's stream collects, under canonical global-index keys,
    /// its own run events and the input-derived events anchored at the
    /// indices it ingests, so each event is emitted by one shard. At each
    /// period barrier, once the reconcile has run, the coordinator takes
    /// over every shard event anchored below the period's first index and
    /// hands it to the sealer thread as the run goes ([`crate::stream`]),
    /// so the serialized stream (and therefore the chain tip) is
    /// identical at any shard/thread count, and byte-identical to the
    /// sequential stream whenever the runs themselves are
    /// (`reconcile_revocations == 0`).
    pub fn run_sharded_with_sink<S, F, K>(
        &self,
        factory: F,
        opts: &ShardOptions,
        sink: &mut K,
    ) -> RunMetrics
    where
        S: Scheduler + Send,
        F: Fn(usize) -> S,
        K: EventSink,
    {
        let n_shards = opts.shards;
        let n_nodes = self.fleet.len();
        let engine = self.engine();
        let invocations = self.trace.invocations();

        seal_while_running(sink, |sealer| {
            // Shard states: a fresh run state, own scheduler, sub-trace
            // (global indices into the shared sorted trace — no
            // invocation copies).
            let mut states: Vec<ShardState<S>> = (0..n_shards)
                .map(|s| {
                    let mut scheduler = factory(s);
                    scheduler.prepare(self.trace);
                    ShardState {
                        run: engine.begin(),
                        scheduler,
                        jobs: Vec::new(),
                        cursor: 0,
                    }
                })
                .collect();
            for (index, inv) in invocations.iter().enumerate() {
                states[shard_of(inv.func, n_shards)].jobs.push(index);
            }
            // The coordinator's stream owns the sealer.
            let mut stream = Stream::new(&self.membership, &self.faults, n_nodes, sealer);

            let threads = opts.threads.unwrap_or_else(default_threads);
            let mut ledger_peak_mib = vec![0u64; n_nodes];
            let mut records = Vec::with_capacity(invocations.len());

            // Walk the periods that contain work, in time order: `next`
            // is the first invocation not yet replayed, and each period
            // runs up to the first arrival at or past its end. Empty
            // stretches are skipped without changing semantics, because
            // reconciliation runs before each active period either way.
            let mut next = 0usize;
            let mut t_final = 0u64;
            while next < invocations.len() {
                let first = next;
                let t_start = invocations[next].t_ms / opts.period_ms * opts.period_ms;
                let t_end = t_start.saturating_add(opts.period_ms);
                next += invocations[next..].partition_point(|inv| inv.t_ms < t_end);
                t_final = t_end;

                // Barrier phase (coordinator alone, deterministic
                // shard/node order): reconcile, which also sets every
                // pool's share of the other shards' bytes. After it no
                // shard emits below `first`, so what the shards hold
                // below it is final.
                engine.reconcile::<S, K>(t_start, &mut states, &mut ledger_peak_mib);
                if K::ENABLED {
                    for state in &mut states {
                        stream.take_below(&mut state.run.stream, first as u64);
                    }
                    stream.hand_off();
                }

                // Parallel phase: the coordinator and its helpers each
                // claim shards and replay their jobs of the period
                // against the shard's own pools; the call returns once
                // every shard is done. Which thread runs which shard
                // never affects the outcome.
                states = parallel_map_threads(threads, states, |mut state| {
                    let stop =
                        state.cursor + state.jobs[state.cursor..].partition_point(|&i| i < next);
                    for &index in &state.jobs[state.cursor..stop] {
                        engine.ingest::<S, K>(
                            &mut state.run,
                            index,
                            &invocations[index],
                            &mut state.scheduler,
                        );
                    }
                    state.cursor = stop;
                    state
                });
                hand_over(&invocations[first..next], &mut states, &mut records);
            }

            // Final reconciliation (capacity holds at the horizon too),
            // then end-of-run settlement in shard order. Every record has
            // been handed over, so what these settle waits in the shards'
            // queues: the last hand-over applies it before the stream's
            // `close` reads the metrics.
            engine.reconcile::<S, K>(t_final, &mut states, &mut ledger_peak_mib);
            for state in &mut states {
                engine.finish::<K>(&mut state.run);
            }
            hand_over(&[], &mut states, &mut records);

            // Take over the shards' remaining events (none unless `K` is
            // enabled) while the merge consumes the states.
            let parts = states
                .into_iter()
                .map(|mut s| {
                    stream.take_below(&mut s.run.stream, u64::MAX);
                    s.run.metrics.metrics
                })
                .collect();
            let mut metrics = merge_metrics(records, n_nodes, parts, ledger_peak_mib);
            // Input-derived: `finish` stamped the same value on every
            // shard and `merge_metrics` ignores it (summing would
            // multiply one outage span), so the coordinator sets it once
            // here.
            metrics.stale_ci_minutes = engine.stale_minutes();
            stream.close(self.trace, &metrics);
            metrics
        })
    }
}

/// The shared per-invocation core both drivers execute: the batch
/// replayer ([`Simulation::run`] / [`Simulation::run_sharded`]) and the
/// live service (`ecolife-service`).
///
/// An `Engine` is six references — trace, CI resolution, fleet, config,
/// membership plan, fault plan — so it is free to re-create per arrival, which is
/// exactly what the service does over its *growing* trace: after pushing
/// arrival `i` it rebuilds the engine over the prefix and calls
/// [`Engine::ingest`]. Because the trace is time-sorted, every canonical
/// stream anchor ([`ecolife_telemetry::EventKey::pos`], a
/// `partition_point` over arrival times) computed against the prefix
/// equals the one computed against the full trace for any instant at or
/// before the current arrival — so a service-driven run serializes
/// bit-for-bit like the batch replay of the same workload.
#[derive(Debug, Clone, Copy)]
pub struct Engine<'r> {
    trace: &'r Trace,
    ci: &'r CiProvider<'r>,
    fleet: &'r Fleet,
    config: &'r SimConfig,
    membership: &'r MembershipPlan,
    faults: &'r FaultPlan,
}

/// The mutable half of one run, owned by whoever drives the [`Engine`]:
/// cluster (pools + executors), metrics, collected telemetry, and the
/// fleet-timeline cursors. Built by [`Engine::begin`], advanced by
/// [`Engine::ingest`], closed by [`Engine::finish`] +
/// [`Engine::seal`] — or, for a run sealed while it goes, built by
/// [`Engine::begin_sealing`] and closed by `finish` + [`Engine::close`].
/// A sharded run holds one per shard: its coordinator takes over the
/// shards' events and records at each period barrier and merges their
/// counters after `finish`.
///
/// Every engine handler — the per-invocation step, the expiry sweep,
/// the fleet-timeline handlers and the end-of-run drain — takes the
/// whole state, so a bookkeeping step (expire, release, move, book a
/// transfer) reads and writes it through one helper wherever it runs.
#[derive(Debug)]
pub struct RunState {
    cluster: Cluster,
    metrics: Tally,
    stream: Stream,
    timeline: FleetTimeline,
}

impl<'r> Engine<'r> {
    /// Assemble an engine from borrowed parts. [`Simulation::engine`] is
    /// the batch form; the live service calls this directly with its own
    /// growing trace. Callers are responsible for CI coverage (the
    /// service checks each arrival against
    /// [`CiProvider::min_len_ms`]; [`Simulation`] validates the whole
    /// horizon at construction).
    pub fn new(
        trace: &'r Trace,
        ci: &'r CiProvider<'r>,
        fleet: &'r Fleet,
        config: &'r SimConfig,
        membership: &'r MembershipPlan,
        faults: &'r FaultPlan,
    ) -> Self {
        Engine {
            trace,
            ci,
            fleet,
            config,
            membership,
            faults,
        }
    }

    /// Fresh run state: empty pools (executors attached when the config
    /// bounds them), zeroed metrics sized to the fleet, timeline at the
    /// origin. Its stream collects every event until [`Engine::seal`].
    pub fn begin(&self) -> RunState {
        self.begin_sealing(Sealer::none())
    }

    /// [`Engine::begin`] for a run whose stream is sealed while it goes:
    /// every batch of events below the index being ingested goes to
    /// `sealer` (see [`crate::stream`]). Close the run with
    /// [`Engine::close`], not [`Engine::seal`].
    pub fn begin_sealing(&self, sealer: Sealer) -> RunState {
        let mut cluster = Cluster::with_expiry((*self.fleet).clone(), self.config.expiry);
        if let Some(cfg) = self.config.bounded_executors {
            cluster.enable_executors(cfg);
        }
        let n = self.fleet.len();
        RunState {
            cluster,
            metrics: Tally {
                metrics: RunMetrics {
                    keepalive_g_by_node: vec![0.0; n],
                    transfer_g_by_node: vec![0.0; n],
                    queue_ms_by_node: vec![0; n],
                    ..RunMetrics::default()
                },
                handed_over: 0,
                late: Vec::new(),
            },
            stream: Stream::new(self.membership, self.faults, n, sealer),
            timeline: FleetTimeline::new(),
        }
    }

    /// Advance one invocation: emit the input-derived events anchored at
    /// it (with an enabled sink; see [`crate::stream`]), replay every
    /// fleet-timeline event due by its arrival, then run the
    /// per-invocation step (expire, classify, decide, admit, account,
    /// install keep-alive). `index` is the invocation's global trace
    /// position (`inv` is the trace's invocation there); arrivals must
    /// come in nondecreasing `t_ms`, which the sorted trace guarantees
    /// for batch and the service enforces at its ingest door.
    pub fn ingest<S: Scheduler, K: EventSink>(
        &self,
        state: &mut RunState,
        index: usize,
        inv: &Invocation,
        scheduler: &mut S,
    ) {
        if K::ENABLED {
            state.stream.open(self.trace, index, self.ci);
        }
        self.catch_up::<K>(state, inv.t_ms);
        self.step::<S, K>(index, inv, scheduler, state);
    }

    /// Close the run: fire remaining fleet-timeline events up to the
    /// horizon, then settle every live keep-alive in full (and record
    /// final executor occupancy peaks).
    pub fn finish<K: EventSink>(&self, state: &mut RunState) {
        self.catch_up::<K>(state, self.trace.horizon_ms());
        self.drain::<K>(state);
        state.metrics.stale_ci_minutes = self.stale_minutes();
    }

    /// Input-derived stale-feed minutes: every CI outage span clipped to
    /// the horizon, counted only for regions some fleet node actually
    /// reads. Set once per run (the sharded coordinator applies it after
    /// the merge), never accumulated per shard.
    fn stale_minutes(&self) -> u64 {
        if self.faults.is_empty() {
            return 0;
        }
        self.faults
            .stale_ci_minutes(self.trace.horizon_ms(), |r| self.reads_region(r))
    }

    /// Does some fleet node read region `r`'s CI series?
    fn reads_region(&self, r: Region) -> bool {
        self.ci.distinct_regions().any(|(fr, _)| fr == r)
    }

    /// Seal the collected telemetry through `sink` as one sealer batch
    /// (see [`crate::stream`]) and hand back the final metrics. Call
    /// after [`Engine::finish`], on a state from [`Engine::begin`].
    pub fn seal<K: EventSink>(&self, mut state: RunState, sink: &mut K) -> RunMetrics {
        seal_while_running(sink, |sealer| {
            state.stream.attach(sealer);
            self.close(state)
        })
    }

    /// Hand a run's last events to its sealer and hand back the final
    /// metrics. Call after [`Engine::finish`], on a state from
    /// [`Engine::begin_sealing`]; the sealer has emitted the whole stream
    /// once [`seal_while_running`] returns.
    pub fn close(&self, state: RunState) -> RunMetrics {
        state.stream.close(self.trace, &state.metrics);
        state.metrics.metrics
    }

    /// One invocation of the replay loop (shared verbatim by the
    /// sequential and sharded paths): expire, classify warm/cold, ask the
    /// scheduler, account service time and carbon, install the
    /// keep-alive. `index` is the invocation's *global* trace position
    /// (what `InvocationCtx::index` promises schedulers); the record
    /// gets the run's next record number, which a shard's coordinator
    /// maps back to `index` through the shard's job list.
    fn step<S: Scheduler, K: EventSink>(
        &self,
        index: usize,
        inv: &Invocation,
        scheduler: &mut S,
        state: &mut RunState,
    ) {
        let t = inv.t_ms;
        let profile = self.trace.catalog().profile(inv.func);

        // (1) Lapse expired containers, node by node in id order.
        self.expire_due::<K>(t, state);
        let RunState {
            cluster,
            metrics,
            stream,
            ..
        } = state;

        // Bounded executors: retire every execution finished (and every
        // queued start reached) by now, *before* the scheduler decides —
        // this is what makes [`Cluster::queue_wait_ms`] reads exact
        // during `decide` without `&mut` access.
        if let Some(x) = cluster.executors_mut() {
            x.advance(t);
        }

        // (2) Warm or cold?
        let warm_at = cluster.warm_location(inv.func, t);

        // Graceful degradation: when some fleet region's CI feed has
        // been stale past the staleness bound, the carbon data the
        // scheduler's objective reads is fiction — bypass it entirely
        // and fall back to a carbon-agnostic choice (warm location if
        // any, else the fastest reachable node; keep-alive in place for
        // the policy's fixed budget). Counted per decision so the
        // degraded window is visible in the run metrics.
        let degraded = !self.faults.is_empty() && {
            let bound = self.ci.staleness().max_stale_ms();
            self.faults
                .blackout_regions(t, bound)
                .any(|r| self.reads_region(r))
        };

        // (3) Scheduler decision. Degraded decisions bypass the
        // scheduler — there is nothing to compute.
        let decision = if degraded {
            metrics.degraded_decisions += 1;
            let exec = warm_at.unwrap_or_else(|| {
                self.fleet
                    .warm_preference()
                    .into_iter()
                    .find(|&id| cluster.is_active(id) && !self.faults.is_crashed(id, t))
                    .unwrap_or(NodeId(0))
            });
            let ka_ms = self
                .ci
                .staleness()
                .fallback_keepalive_min
                .saturating_mul(crate::MINUTE_MS);
            Decision {
                exec,
                keepalive: (ka_ms > 0).then_some(KeepAliveChoice {
                    location: exec,
                    duration_ms: ka_ms,
                }),
            }
        } else {
            let ctx = InvocationCtx {
                index,
                func: inv.func,
                profile,
                t_ms: t,
                warm_at,
                ci: self.ci,
                cluster,
            };
            scheduler.decide(&ctx)
        };
        assert!(
            self.fleet.contains(decision.exec),
            "scheduler '{}' placed execution on {:?}, outside the {}-node fleet",
            scheduler.name(),
            decision.exec,
            self.fleet.len()
        );

        let exec_loc = warm_at.unwrap_or(decision.exec);
        let warm = warm_at.is_some();

        if K::ENABLED {
            let (ka_node, ka_ms) = match decision.keepalive {
                Some(ka) => (ka.location.0 as i64, ka.duration_ms),
                None => (-1, 0),
            };
            stream.push_step(Event::DecisionMade {
                index: index as u64,
                func: inv.func.0,
                t_ms: t,
                exec_node: decision.exec.0,
                warm,
                ka_node,
                ka_ms,
            });
        }

        // A crashed node serves nothing: the invocation is turned away
        // at zero carbon and the decision is void — no execution, no
        // keep-alive, no `observe`. A warm location can never be down
        // (the crash drain emptied its pool and nothing is installed on
        // a down node), so only scheduler-chosen placements hit this.
        if !self.faults.is_empty() && self.faults.is_crashed(exec_loc, t) {
            debug_assert!(!warm, "warm container resident on a crashed node");
            metrics.crash_rejected += 1;
            metrics
                .records
                .push(InvocationRecord::rejected(inv.func, t, exec_loc));
            if K::ENABLED {
                stream.push_step(Event::CrashRejected {
                    index: index as u64,
                    func: inv.func.0,
                    node: exec_loc.0,
                    t_ms: t,
                });
            }
            return;
        }

        // (4) Execution span: peek the warm container's migration debt
        // (it is consumed below only once admission succeeds) and price
        // the time the execution will occupy its core — work + setup +
        // re-warm debt. Queueing delay, if any, is added on top.
        let transfer_debt_ms = if warm {
            cluster
                .pool(exec_loc)
                .get(inv.func)
                .map(|c| c.transfer_latency_ms)
                .unwrap_or(0)
        } else {
            0
        };
        let work_ms = {
            let node = cluster.node(exec_loc);
            if warm {
                PerfModel::warm_service_ms(node, profile.base_exec_ms, profile.cpu_sensitivity)
            } else {
                PerfModel::cold_service_ms(
                    node,
                    profile.base_exec_ms,
                    profile.base_cold_ms,
                    profile.cpu_sensitivity,
                )
            }
        };
        let exec_ms = work_ms + SETUP_DELAY_MS + transfer_debt_ms;

        // Admission: offer the execution to the node's bounded executor.
        // A free slot starts it now; a saturated node queues it (the
        // measured wait feeds the service time); a full queue rejects it.
        let mut queue_ms = 0u64;
        if let Some(x) = cluster.executors_mut() {
            match x.admit(exec_loc, t, exec_ms) {
                Admission::Rejected { depth } => {
                    metrics.rejected += 1;
                    // The decision is void: no execution, no keep-alive
                    // install, no `observe` — a warm container (if any)
                    // stays resident for a later arrival.
                    metrics
                        .records
                        .push(InvocationRecord::rejected(inv.func, t, exec_loc));
                    if K::ENABLED {
                        stream.push_step(Event::AdmissionRejected {
                            index: index as u64,
                            func: inv.func.0,
                            node: exec_loc.0,
                            t_ms: t,
                            depth,
                        });
                    }
                    return;
                }
                Admission::Started {
                    start_ms,
                    queue_ms: q,
                    depth,
                } => {
                    queue_ms = q;
                    if q > 0 {
                        metrics.queue_ms_by_node[exec_loc.index()] += q;
                        if K::ENABLED {
                            stream.push_step(Event::Enqueued {
                                index: index as u64,
                                func: inv.func.0,
                                node: exec_loc.0,
                                t_ms: t,
                                depth,
                            });
                            stream.push_step(Event::Dequeued {
                                index: index as u64,
                                func: inv.func.0,
                                node: exec_loc.0,
                                start_ms,
                                queue_ms: q,
                            });
                        }
                    }
                }
            }
        }

        // A consumed warm container is settled up to the reuse instant.
        // A migrated container additionally carries its accumulated
        // transfer latency, paid once, on the first service after the
        // move (the paper's re-warm penalty).
        if warm {
            if let Some(c) = cluster.pool_mut(exec_loc).remove(inv.func) {
                debug_assert_eq!(c.transfer_latency_ms, transfer_debt_ms);
                self.release::<K>(ReleaseCause::Reused, exec_loc, &c, t, metrics, |e| {
                    stream.push_step(e)
                });
            }
        }

        // Service time and carbon. The execution burns power over
        // `[t + queue_ms, t + queue_ms + exec_ms)` — with executors off
        // that is exactly the pre-service `[t, t + service_ms)` window.
        // CI is read on the *executing node's* grid — the heart of the
        // multi-region accounting.
        let service_ms = queue_ms + exec_ms;
        let start_ms = t + queue_ms;
        let node = cluster.node(exec_loc);
        let ci_avg = self.ci.average_over(exec_loc, start_ms, start_ms + exec_ms);
        let service_carbon =
            self.config
                .carbon_model
                .active_phase(node, profile.memory_mib, exec_ms, ci_avg);
        let energy_kwh =
            self.config
                .carbon_model
                .active_energy_kwh(node, profile.memory_mib, exec_ms);

        let record_index = metrics.next_record();
        metrics.records.push(InvocationRecord {
            func: inv.func,
            t_ms: t,
            exec_location: exec_loc,
            warm,
            service_ms,
            queue_ms,
            rejected: false,
            service_carbon,
            keepalive_carbon: ecolife_carbon::CarbonFootprint::ZERO,
            energy_kwh,
        });

        if K::ENABLED {
            let (func, node) = (inv.func.0, exec_loc.0);
            let service_g = service_carbon.total_g();
            stream.push_step(if warm {
                Event::WarmHit {
                    index: index as u64,
                    func,
                    node,
                    t_ms: t,
                    service_ms,
                    service_g,
                    energy_kwh,
                }
            } else {
                Event::ColdStarted {
                    index: index as u64,
                    func,
                    node,
                    t_ms: t,
                    service_ms,
                    service_g,
                    energy_kwh,
                }
            });
        }

        // (5) Install the keep-alive.
        if let Some(ka) = decision.keepalive {
            assert!(
                self.fleet.contains(ka.location),
                "scheduler '{}' placed keep-alive on {:?}, outside the {}-node fleet",
                scheduler.name(),
                ka.location,
                self.fleet.len()
            );
            if ka.duration_ms > 0 {
                let end_of_service = t + service_ms;
                let container = WarmContainer {
                    func: inv.func,
                    memory_mib: profile.memory_mib,
                    warm_since_ms: end_of_service,
                    expiry_ms: end_of_service + ka.duration_ms,
                    origin_record: record_index,
                    transfer_latency_ms: 0,
                };
                self.install_keepalive::<S, K>(
                    container,
                    ka.location,
                    t,
                    index,
                    scheduler,
                    cluster,
                    metrics,
                    stream,
                );
            }
        }

        // Let online schedulers learn from the outcome.
        let ctx = InvocationCtx {
            index,
            func: inv.func,
            profile,
            t_ms: t,
            warm_at,
            ci: self.ci,
            cluster,
        };
        scheduler.observe(&ctx, service_ms, warm);
    }

    /// End-of-run settlement: drain every pool, charging each live
    /// keep-alive in full (at its expiry), and fold the pools'
    /// expiry-machinery counters into the run metrics.
    fn drain<K: EventSink>(&self, state: &mut RunState) {
        for id in self.fleet.ids() {
            for c in state.cluster.pool_mut(id).drain_all() {
                self.settle_expired::<K>(id, &c, &mut state.metrics, &mut state.stream);
            }
            state
                .metrics
                .expiry
                .absorb(state.cluster.pool(id).expiry_stats());
        }
        if let Some(peaks) = state.cluster.executor_peaks() {
            state.metrics.executor_peak_by_node = peaks;
        }
    }

    /// The expiry sweep: lapse every container due by `t`, node by node
    /// in id order, settling each in full at its expiry.
    #[inline]
    fn expire_due<K: EventSink>(&self, t: u64, state: &mut RunState) {
        for id in self.fleet.ids() {
            for c in state.cluster.pool_mut(id).expire_until(t) {
                self.settle_expired::<K>(id, &c, &mut state.metrics, &mut state.stream);
            }
        }
    }

    /// Settle a container that lapsed on `id` in full, and emit its
    /// [`Event::Expired`] at the canonical key. The key depends only on
    /// the expiry instant — never on which path (mid-step sweep, period
    /// boundary, fleet-timeline handler, end-of-run drain) collected it.
    #[inline]
    fn settle_expired<K: EventSink>(
        &self,
        id: NodeId,
        c: &WarmContainer,
        metrics: &mut Tally,
        stream: &mut Stream,
    ) {
        let s = self.settle(c, id, c.expiry_ms, metrics).unwrap_or_default();
        if K::ENABLED {
            stream.push(
                EventKey::new(self.trigger_pos(c.expiry_ms), lane::EXPIRY, id.0, c.func.0),
                Event::Expired {
                    node: id.0,
                    func: c.func.0,
                    since_ms: c.warm_since_ms,
                    expiry_ms: c.expiry_ms,
                    keepalive_g: s.keepalive_g,
                    energy_kwh: s.energy_kwh,
                },
            );
        }
    }

    /// Settle a stay on `node` that ended at `end_ms` for `cause`, and hand
    /// `emit` its [`Event::Released`] — only when the stay charged
    /// something and `K` is enabled. Call before `c.warm_since_ms` moves.
    #[inline]
    fn release<K: EventSink>(
        &self,
        cause: ReleaseCause,
        node: NodeId,
        c: &WarmContainer,
        end_ms: u64,
        metrics: &mut Tally,
        emit: impl FnOnce(Event),
    ) {
        let s = self.settle(c, node, end_ms, metrics);
        if K::ENABLED {
            if let Some(s) = s {
                emit(Event::Released {
                    cause,
                    node: node.0,
                    func: c.func.0,
                    since_ms: c.warm_since_ms,
                    end_ms,
                    keepalive_g: s.keepalive_g,
                    energy_kwh: s.energy_kwh,
                });
            }
        }
    }

    /// The deterministic cross-shard reconciliation pass, run by the
    /// coordinator at `t_now` (a period boundary), after every shard has
    /// replayed the previous period and before any starts the next:
    ///
    /// 1. expire every shard's lapsed containers (settled at expiry, the
    ///    same grams the lazy sequential path charges);
    /// 2. for each node in id order, while occupancy across shards
    ///    exceeds capacity, revoke the container with the **youngest
    ///    `warm_since_ms`** (ties: the **higher `FunctionId`** loses) —
    ///    the most recent optimistic admission — settle its stay, and
    ///    retry it against the other nodes in id order with true
    ///    cross-shard headroom (a transfer), else evict it;
    /// 3. record each node's post-pass occupancy and set every shard's
    ///    pool's external share to the other shards' bytes on that node —
    ///    what the shard admits against until the next pass.
    fn reconcile<S: Scheduler, K: EventSink>(
        &self,
        t_now: u64,
        states: &mut [ShardState<S>],
        ledger_peak_mib: &mut [u64],
    ) {
        // (0) Fleet-timeline catch-up, *before* the expiry sweep: a
        // re-placement pass or membership drain due at `tm < t_now`
        // would — in the sequential engine — have migrated containers
        // whose keep-alive then straddles the boundary; expiring them
        // first would settle the full stay on the source node and
        // diverge. A pending pass at a barrier sees exactly the pool
        // state the sequential pass at `tm` sees (no shard invocation
        // lands in `[tm, t_now)` by construction), so replaying it here
        // is order-exact. Capped at the horizon: the final reconcile
        // runs past the last arrival, where nothing fires.
        //
        // (1) Eager expiry: the sequential engine expires on every
        // invocation; shards expire their own pools mid-period, so this
        // only brings the bytes the other shards see up to date. Expiry
        // events carry their *canonical* anchor (the global expiry
        // trigger), so sweeping a container here instead of mid-step
        // lands it at the exact position the sequential stream has it.
        // Shards own disjoint state, so each runs (0) then (1) in turn.
        for state in states.iter_mut() {
            self.catch_up::<K>(&mut state.run, t_now.min(self.trace.horizon_ms()));
            self.expire_due::<K>(t_now, &mut state.run);
        }

        // Reconcile-lane events (revocations and their transfer
        // retries) are anchored at the boundary's global position and
        // numbered in coordinator execution order — deterministic, and
        // absent entirely from uncontended runs.
        let rc_pos = if K::ENABLED {
            self.trigger_pos(t_now)
        } else {
            0
        };
        let mut rc_sub = 0u32;
        let mut rc_key = || {
            let key = EventKey::new(rc_pos, lane::RECONCILE, rc_sub, 0);
            rc_sub += 1;
            key
        };

        // (2) Capacity reconciliation, node by node in id order.
        for id in self.fleet.ids() {
            let capacity = self.fleet.node(id).keepalive_mem_mib;
            while node_used_mib(states, id) > capacity {
                // Deterministic victim: max over the total order
                // (warm_since, func, shard).
                let victim = states
                    .iter()
                    .enumerate()
                    .flat_map(|(s, state)| {
                        state
                            .run
                            .cluster
                            .pool(id)
                            .iter()
                            .map(move |c| (c.warm_since_ms, c.func, s))
                    })
                    .max()
                    .expect("an over-capacity pool holds at least one container");
                let (_, func, owner) = victim;
                let run = &mut states[owner].run;
                let mut container = run
                    .cluster
                    .pool_mut(id)
                    .remove(func)
                    .expect("victim is resident");
                let s = self.settle(&container, id, t_now, &mut run.metrics);
                run.metrics.reconcile_revocations += 1;
                if K::ENABLED {
                    // Revocations are always emitted, even when the settle
                    // charged nothing — the revocation itself is the
                    // observable act.
                    let s = s.unwrap_or_default();
                    run.stream.push(
                        rc_key(),
                        Event::Revoked {
                            node: id.0,
                            func: func.0,
                            t_ms: t_now,
                            keepalive_g: s.keepalive_g,
                            energy_kwh: s.energy_kwh,
                        },
                    );
                }

                // Retry on the remaining nodes (id order), against true
                // cross-shard headroom at this instant. Phase 1 removed
                // every container with `expiry_ms <= t_now`, so the
                // victim's keep-alive necessarily extends past this
                // boundary.
                debug_assert!(
                    container.expiry_ms > t_now,
                    "victim survived phase-1 expiry"
                );
                let egress_g = self.restart_elsewhere(&mut container, id, t_now);
                let mut placed = false;
                for &target in &self.fleet.transfer_candidates(id) {
                    // The owner shard's membership view is authoritative
                    // (every shard replays the identical timeline), and
                    // a fault-blocked target is skipped the same way the
                    // sequential paths skip it.
                    if !states[owner].run.cluster.is_active(target)
                        || !self.reachable(id, target, t_now)
                    {
                        continue;
                    }
                    // Admit against every shard's bytes on the target.
                    let others = node_used_mib(states, target)
                        - states[owner].run.cluster.pool(target).used_mib();
                    let run = &mut states[owner].run;
                    let pool = run.cluster.pool_mut(target);
                    pool.set_external_used_mib(others);
                    match pool.insert(container) {
                        Ok(replaced) => {
                            if let Some(old) = replaced {
                                self.release::<K>(
                                    ReleaseCause::Replaced,
                                    target,
                                    &old,
                                    t_now,
                                    &mut run.metrics,
                                    |e| run.stream.push(rc_key(), e),
                                );
                            }
                            let e = book_transfer(
                                &mut run.metrics,
                                func,
                                id,
                                target,
                                t_now,
                                egress_g,
                                self.config.transfer_cost.latency_ms,
                            );
                            if K::ENABLED {
                                run.stream.push(rc_key(), e);
                            }
                            placed = true;
                            break;
                        }
                        Err(c) => container = c,
                    }
                }
                if !placed {
                    states[owner].run.metrics.evicted_functions += 1;
                }
            }
        }

        // (3) Record the pass's outcome only after *every* node settled:
        // a victim revoked from a later-id node may transfer back into
        // an earlier one, so per-node occupancy is final — and at or
        // under capacity (transfer headroom is checked against the true
        // cross-shard sum) — only here.
        for id in self.fleet.ids() {
            let total = node_used_mib(states, id);
            debug_assert!(total <= self.fleet.node(id).keepalive_mem_mib);
            let peak = &mut ledger_peak_mib[id.index()];
            *peak = (*peak).max(total);
            for state in states.iter_mut() {
                let pool = state.run.cluster.pool_mut(id);
                pool.set_external_used_mib(total - pool.used_mib());
            }
        }
    }

    /// Insert `container` into `location`'s pool, running the scheduler's
    /// warm-pool adjustment when it does not fit.
    #[allow(clippy::too_many_arguments)]
    fn install_keepalive<S: Scheduler, K: EventSink>(
        &self,
        container: WarmContainer,
        location: NodeId,
        t: u64,
        index: usize,
        scheduler: &mut S,
        cluster: &mut Cluster,
        metrics: &mut Tally,
        stream: &mut Stream,
    ) {
        // A node that has left the fleet — or is down — accepts no
        // keep-alives: the choice is simply dropped (the scheduler's
        // view of membership and health is advisory; the engine's is
        // authoritative).
        if !cluster.is_active(location)
            || (!self.faults.is_empty() && self.faults.is_crashed(location, t))
        {
            metrics.evicted_functions += 1;
            return;
        }
        // Settle a replaced container of the same function (its keep-alive
        // ends now).
        if let Some(old) = cluster.pool_mut(location).remove(container.func) {
            self.release::<K>(ReleaseCause::Replaced, location, &old, t, metrics, |e| {
                stream.push_step(e)
            });
        }

        let container = match cluster.pool_mut(location).insert(container) {
            Ok(_) => return,
            Err(c) => c,
        };

        // Overflow: ask the scheduler.
        let action = {
            let ctx = OverflowCtx {
                location,
                incoming_func: container.func,
                incoming_memory_mib: container.memory_mib,
                t_ms: t,
                ci_now: self.ci.at(location, t),
                ci_by_node: self.ci.at_each_node(t),
                cluster,
            };
            scheduler.on_pool_overflow(&ctx)
        };

        match action {
            OverflowAction::Drop => {
                metrics.evicted_functions += 1;
            }
            OverflowAction::Adjust(plan) => {
                // Transfer targets: the plan's explicit ranking (the
                // overflowing pool itself is never valid), or every other
                // node in id order. Inactive nodes never receive
                // transfers; fault-blocked candidates (down, or across
                // an active partition) are set aside for the bounded
                // retry below instead of being dropped outright.
                let candidates: Vec<NodeId> = match plan.transfer_targets {
                    None => self
                        .fleet
                        .transfer_candidates(location)
                        .into_iter()
                        .filter(|&id| cluster.is_active(id))
                        .collect(),
                    Some(ref ranked) => ranked
                        .iter()
                        .copied()
                        .filter(|&id| {
                            id != location && self.fleet.contains(id) && cluster.is_active(id)
                        })
                        .collect(),
                };
                let (targets, blocked): (Vec<NodeId>, Vec<NodeId>) = if self.faults.is_empty() {
                    (candidates, Vec::new())
                } else {
                    candidates
                        .into_iter()
                        .partition(|&id| self.reachable(location, id, t))
                };
                for func in plan.displace {
                    let Some(mut displaced) = cluster.pool_mut(location).remove(func) else {
                        continue; // plan referenced a non-resident function
                    };
                    // Its stay on this node ends now.
                    self.release::<K>(
                        ReleaseCause::Displaced,
                        location,
                        &displaced,
                        t,
                        metrics,
                        |e| stream.push_step(e),
                    );
                    // Restart the remaining keep-alive on the first
                    // transfer target with room, under the one restart
                    // rule: a container still executing turns warm on
                    // its target only when its service ends. The move is
                    // priced (both zero under `TransferCost::free()` —
                    // charged only when a target accepts).
                    if displaced.expiry_ms > t {
                        let egress_g = self.restart_elsewhere(&mut displaced, location, t);
                        let mut pending = Some(displaced);
                        for &target in &targets {
                            let probe = pending.take().expect("unplaced container");
                            match cluster.pool_mut(target).insert(probe) {
                                Ok(replaced) => {
                                    self.accept_transfer::<K>(
                                        replaced, func, location, target, t, egress_g, 0, metrics,
                                        stream,
                                    );
                                    break;
                                }
                                Err(c) => pending = Some(c),
                            }
                        }
                        // Fault-blocked candidates get the bounded
                        // deterministic retry: probe them at the
                        // virtual instants `t + Σ backoff` (a pure
                        // function of the invocation index and the
                        // attempt, so any shard/thread layout replays
                        // the schedule bit-identically). A probe that
                        // finds its target reachable — the partition
                        // healed, the node recovered — and with room
                        // places the container; the waited backoff is
                        // charged as transfer latency.
                        if pending.is_some() && !blocked.is_empty() {
                            let seq = index as u64;
                            let mut waited = 0u64;
                            'retry: for attempt in 1..=self.faults.retry().max_attempts {
                                let backoff = self.faults.backoff_ms(seq, attempt);
                                waited += backoff;
                                let t_probe = t + waited;
                                metrics.transfer_retries += 1;
                                if K::ENABLED {
                                    stream.push_step(Event::TransferRetried {
                                        func: func.0,
                                        node: location.0,
                                        t_ms: t,
                                        attempt,
                                        backoff_ms: backoff,
                                    });
                                }
                                for &target in &blocked {
                                    if !self.reachable(location, target, t_probe) {
                                        continue;
                                    }
                                    let probe = pending.take().expect("unplaced container");
                                    match cluster.pool_mut(target).insert(probe) {
                                        Ok(replaced) => {
                                            self.accept_transfer::<K>(
                                                replaced, func, location, target, t, egress_g,
                                                waited, metrics, stream,
                                            );
                                            break 'retry;
                                        }
                                        Err(c) => pending = Some(c),
                                    }
                                }
                            }
                        }
                        if pending.is_some() {
                            metrics.evicted_functions += 1;
                        }
                    } else {
                        metrics.evicted_functions += 1;
                    }
                }
                if plan.place_incoming {
                    if cluster.pool_mut(location).insert(container).is_err() {
                        metrics.evicted_functions += 1;
                    }
                } else {
                    metrics.evicted_functions += 1;
                }
            }
        }
    }

    /// An overflow transfer `location → target` was accepted: settle a
    /// replaced resident of the target (the stay it cut short must still
    /// be charged), then book the move. `waited_ms` is retry backoff
    /// served before the move — zero on the direct path, which keeps it
    /// byte-identical to the pre-fault engine.
    #[allow(clippy::too_many_arguments)]
    fn accept_transfer<K: EventSink>(
        &self,
        replaced: Option<WarmContainer>,
        func: FunctionId,
        location: NodeId,
        target: NodeId,
        t: u64,
        egress_g: f64,
        waited_ms: u64,
        metrics: &mut Tally,
        stream: &mut Stream,
    ) {
        if let Some(old) = replaced {
            self.release::<K>(ReleaseCause::Replaced, target, &old, t, metrics, |e| {
                stream.push_step(e)
            });
        }
        let latency_ms = self.config.transfer_cost.latency_ms + waited_ms;
        let e = book_transfer(metrics, func, location, target, t, egress_g, latency_ms);
        if K::ENABLED {
            stream.push_step(e);
        }
    }

    /// Advance the fleet timeline to `t_limit` (inclusive): apply every
    /// due membership event and re-placement pass in time order, ties
    /// resolved membership-first (matching the stream's lane order).
    /// With the default config (no passes, empty plan) this returns
    /// immediately — the pre-pricing engine, bit for bit.
    fn catch_up<K: EventSink>(&self, state: &mut RunState, t_limit: u64) {
        let every_ms = self
            .config
            .replacement_every_min
            .saturating_mul(crate::MINUTE_MS);
        loop {
            let tl = state.timeline;
            let t_pass = if every_ms == 0 {
                u64::MAX
            } else {
                tl.next_pass.saturating_mul(every_ms)
            };
            let t_member = self
                .membership
                .events()
                .get(tl.next_member)
                .map(|e| e.t_ms)
                .unwrap_or(u64::MAX);
            let t_fault = self
                .faults
                .crash_changes()
                .get(tl.next_fault)
                .map(|&(t, _, _)| t)
                .unwrap_or(u64::MAX);
            let t_next = t_pass.min(t_member).min(t_fault);
            if t_next > t_limit || t_next == u64::MAX {
                return;
            }
            // Tie order membership → crash → pass matches the stream's
            // lane order (MEMBER_OUT < CRASH_OUT < REPLACE_OUT), so the
            // applied state transitions read in the emitted order.
            if t_member <= t_next {
                let e = self.membership.events()[tl.next_member];
                self.apply_membership::<K>(tl.next_member, e, state);
                state.timeline.next_member += 1;
            } else if t_fault <= t_pass {
                let (t, node, idx) = self.faults.crash_changes()[tl.next_fault];
                self.apply_crash::<K>(idx, t, node, state);
                state.timeline.next_fault += 1;
            } else {
                self.replacement_pass::<K>(tl.next_pass, t_pass, state);
                state.timeline.next_pass += 1;
            }
        }
    }

    /// Migration targets from `exclude`, cleanest grid first: every
    /// *active* other node ranked by the cost-model's reference
    /// keep-alive phase (1 GiB for one minute) at its region's CI *now*,
    /// ties toward the lower node id — the same reference quantity the
    /// scheduler-side transfer ranking uses, so engine drains and policy
    /// rankings agree on what "cleaner" means.
    fn migration_ranking(&self, exclude: NodeId, cluster: &Cluster, t: u64) -> Vec<NodeId> {
        let mut ranked: Vec<(f64, NodeId)> = self
            .fleet
            .ids()
            .filter(|&id| id != exclude && cluster.is_active(id))
            .filter(|&id| self.reachable(exclude, id, t))
            .map(|id| {
                let g = self
                    .config
                    .carbon_model
                    .keepalive_phase(
                        self.fleet.node(id),
                        1024,
                        crate::MINUTE_MS,
                        self.ci.at(id, t),
                    )
                    .total_g();
                (g, id)
            })
            .collect();
        ranked.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("CI-derived grams are never NaN")
                .then_with(|| a.1.cmp(&b.1))
        });
        ranked.into_iter().map(|(_, id)| id).collect()
    }

    /// Can a transfer leave `from` for `target` at `t`? Always under an
    /// empty fault plan; with faults, the target must be up and on the
    /// same side of every active partition.
    #[inline]
    fn reachable(&self, from: NodeId, target: NodeId, t: u64) -> bool {
        self.faults.is_empty()
            || (!self.faults.is_crashed(target, t)
                && self
                    .faults
                    .link_ok(self.ci.region(from), self.ci.region(target), t))
    }

    /// Apply crash fault `fault_idx` at `t`: canonical expiry sweep
    /// first (a container lapsed by `t` dies as an expiry, never as a
    /// crash loss), then settle and drop every resident of `node`'s warm
    /// pool — the memory is counted in
    /// [`RunMetrics::lost_warm_mib`](crate::RunMetrics) and *nothing*
    /// transfers out; an ungraceful crash gives no time to migrate —
    /// and clear the node's bounded executor (occupied slots and queued
    /// waiters vanish). Recovery needs no twin: the plan's pure
    /// [`FaultPlan::is_crashed`] query simply stops matching, and the
    /// node accepts placements again.
    fn apply_crash<K: EventSink>(
        &self,
        fault_idx: u32,
        t: u64,
        node: NodeId,
        state: &mut RunState,
    ) {
        self.expire_due::<K>(t, state);
        let pos = if K::ENABLED { self.trigger_pos(t) } else { 0 };
        for probe in residents(&state.cluster, node) {
            let c = state
                .cluster
                .pool_mut(node)
                .remove(probe.func)
                .expect("resident listed from the pool");
            let key = EventKey::new(pos, lane::CRASH_OUT, fault_idx, c.func.0);
            self.release::<K>(
                ReleaseCause::Crashed,
                node,
                &c,
                t,
                &mut state.metrics,
                |e| state.stream.push(key, e),
            );
            state.metrics.lost_warm_mib += c.memory_mib;
        }
        if let Some(x) = state.cluster.executors_mut() {
            x.reset(node);
        }
    }

    /// Apply membership event `m_idx`: a join re-activates the node; a
    /// leave drains its warm pool through the priced migration ranking
    /// ([`Engine::migrate`] to the cleanest active node with room — else
    /// settle the stay and evict) and deactivates it. Containers never
    /// stack: a target already holding the function has no room, so
    /// drain events collide with nothing.
    fn apply_membership<K: EventSink>(
        &self,
        m_idx: usize,
        e: MembershipEvent,
        state: &mut RunState,
    ) {
        // Canonical expiry sweep first: anything lapsed by `t` dies as an
        // expiry (its canonical anchor), never as a drain.
        self.expire_due::<K>(e.t_ms, state);
        if e.join {
            state.cluster.set_active(e.node, true);
            return;
        }
        state.cluster.set_active(e.node, false);
        // A leave targeting a node that is down at this instant must not
        // drain: the crash already settled and dropped the pool (ties at
        // the crash instant apply membership first, and the guard makes
        // the loss accounting land on the crash either way — counted
        // once, in `lost_warm_mib`, never doubled as a priced drain).
        if self.faults.is_crashed(e.node, e.t_ms) {
            return;
        }
        let pos = if K::ENABLED {
            self.trigger_pos(e.t_ms)
        } else {
            0
        };
        let ranking = self.migration_ranking(e.node, &state.cluster, e.t_ms);
        for c in residents(&state.cluster, e.node) {
            let out_key = EventKey::new(pos, lane::MEMBER_OUT, m_idx as u32, c.func.0);
            let in_key = EventKey::new(pos, lane::MEMBER_IN, m_idx as u32, c.func.0);
            match ranking
                .iter()
                .find(|&&target| has_room(&state.cluster, target, &c))
            {
                Some(&target) => {
                    self.migrate::<K>(c.func, e.node, target, e.t_ms, [out_key, in_key], state)
                }
                None => {
                    let c = state
                        .cluster
                        .pool_mut(e.node)
                        .remove(c.func)
                        .expect("resident listed from the pool");
                    self.release::<K>(
                        ReleaseCause::Displaced,
                        e.node,
                        &c,
                        e.t_ms,
                        &mut state.metrics,
                        |ev| state.stream.push(out_key, ev),
                    );
                    state.metrics.evicted_functions += 1;
                }
            }
        }
    }

    /// Re-placement pass `k` at `tm`: follow the sun. For every active
    /// node's long-lived residents (warm *before* `tm` — this pass's own
    /// migrants and not-yet-warm keep-alives are excluded), migrate to
    /// the first cleaner node with room where the remaining keep-alive
    /// **plus the egress price** beats staying put. Pure in `(tm, cluster
    /// state)`, so every shard replays it identically.
    fn replacement_pass<K: EventSink>(&self, k: u64, tm: u64, state: &mut RunState) {
        self.expire_due::<K>(tm, state);
        let pos = if K::ENABLED { self.trigger_pos(tm) } else { 0 };
        for src in self.fleet.ids() {
            if !state.cluster.is_active(src) || state.cluster.pool(src).is_empty() {
                continue;
            }
            let ranking = self.migration_ranking(src, &state.cluster, tm);
            if ranking.is_empty() {
                continue;
            }
            let src_ci = self.ci.at(src, tm);
            let long_lived = residents(&state.cluster, src)
                .into_iter()
                .filter(|c| c.warm_since_ms < tm);
            for probe in long_lived {
                let dur = probe.expiry_ms - tm;
                let keepalive_g = |node: NodeId, ci: f64| {
                    self.config
                        .carbon_model
                        .keepalive_phase(self.fleet.node(node), probe.memory_mib, dur, ci)
                        .total_g()
                };
                let stay_g = keepalive_g(src, src_ci);
                let egress_g = self.config.transfer_cost.grams(probe.memory_mib, src_ci);
                let cleaner = ranking.iter().find(|&&target| {
                    keepalive_g(target, self.ci.at(target, tm)) + egress_g < stay_g
                        && has_room(&state.cluster, target, &probe)
                });
                if let Some(&target) = cleaner {
                    let sub = (k as u32) << 16 | src.0;
                    let keys = [
                        EventKey::new(pos, lane::REPLACE_OUT, probe.func.0, sub),
                        EventKey::new(pos, lane::REPLACE_IN, probe.func.0, sub),
                    ];
                    self.migrate::<K>(probe.func, src, target, tm, keys, state);
                }
            }
        }
    }

    /// Move `func`'s container `from → to` at `t` (the caller checked
    /// [`has_room`]): settle its stay on `from`, restart it on `to`, and
    /// book the transfer, keying the two events `[out_key, in_key]`. The
    /// one move behind membership drains and re-placement passes.
    fn migrate<K: EventSink>(
        &self,
        func: FunctionId,
        from: NodeId,
        to: NodeId,
        t: u64,
        [out_key, in_key]: [EventKey; 2],
        state: &mut RunState,
    ) {
        let mut c = state
            .cluster
            .pool_mut(from)
            .remove(func)
            .expect("resident listed from the pool");
        self.release::<K>(
            ReleaseCause::Displaced,
            from,
            &c,
            t,
            &mut state.metrics,
            |e| state.stream.push(out_key, e),
        );
        let egress_g = self.restart_elsewhere(&mut c, from, t);
        state
            .cluster
            .pool_mut(to)
            .insert(c)
            .expect("room-checked insert cannot reject");
        let latency_ms = self.config.transfer_cost.latency_ms;
        let e = book_transfer(&mut state.metrics, func, from, to, t, egress_g, latency_ms);
        if K::ENABLED {
            state.stream.push(in_key, e);
        }
    }

    /// Restart a container's remaining keep-alive off `from` at `t`: its
    /// stay on the target starts at `t` or, for a container still
    /// executing, at its own `warm_since` (it turns warm when its service
    /// ends, wherever it lands); it carries the re-warm latency to its
    /// next service; and the egress is priced at `from`'s grid now.
    /// Returns the egress grams, booked only if a target accepts.
    fn restart_elsewhere(&self, c: &mut WarmContainer, from: NodeId, t: u64) -> f64 {
        c.warm_since_ms = c.warm_since_ms.max(t);
        c.transfer_latency_ms += self.config.transfer_cost.latency_ms;
        self.config
            .transfer_cost
            .grams(c.memory_mib, self.ci.at(from, t))
    }

    /// Charge a container's keep-alive period `[warm_since, end)` to its
    /// origin record (see [`Tally`]). Returns what was charged (for the
    /// event stream), or `None` when the stay had zero duration and
    /// nothing was charged.
    fn settle(
        &self,
        container: &WarmContainer,
        id: NodeId,
        end_ms: u64,
        metrics: &mut Tally,
    ) -> Option<Settlement> {
        let duration = container.resident_ms(end_ms);
        if duration == 0 {
            return None;
        }
        // Charged on the *hosting node's* grid.
        let node = self.fleet.node(id);
        let ci_avg = self.ci.average_over(
            id,
            container.warm_since_ms,
            container.warm_since_ms + duration,
        );
        let fp =
            self.config
                .carbon_model
                .keepalive_phase(node, container.memory_mib, duration, ci_avg);
        metrics.keepalive_g_by_node[id.index()] += fp.total_g();
        let energy =
            self.config
                .carbon_model
                .keepalive_energy_kwh(node, container.memory_mib, duration);
        metrics.charge(Charge {
            record: container.origin_record,
            footprint: fp,
            energy_kwh: energy,
        });
        Some(Settlement {
            keepalive_g: fp.total_g(),
            energy_kwh: energy,
        })
    }

    /// The canonical stream position for an engine action triggered at
    /// `t_ms`: the index of the first invocation at or after it. This is
    /// exactly where the sequential engine's lazy sweep observes an
    /// expiry, so shards can anchor the same action at the same place
    /// without replaying the sequential schedule.
    fn trigger_pos(&self, t_ms: u64) -> u64 {
        self.trace
            .invocations()
            .partition_point(|inv| inv.t_ms < t_ms) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{AdjustPlan, Decision, KeepAliveChoice};
    use crate::MINUTE_MS;
    use ecolife_hw::skus;
    use ecolife_trace::{FunctionId, FunctionProfile, Invocation, WorkloadCatalog};

    /// Fixed policy: execute on `exec`, keep alive `ka_min` minutes on
    /// `ka_loc`.
    struct Fixed {
        exec: NodeId,
        ka_loc: NodeId,
        ka_min: u64,
        overflow: OverflowAction,
    }

    impl Fixed {
        fn new(exec: NodeId, ka_loc: NodeId, ka_min: u64) -> Self {
            Fixed {
                exec,
                ka_loc,
                ka_min,
                overflow: OverflowAction::Drop,
            }
        }
    }

    impl Scheduler for Fixed {
        fn name(&self) -> &'static str {
            "fixed"
        }
        fn decide(&mut self, _ctx: &InvocationCtx<'_>) -> Decision {
            Decision {
                exec: self.exec,
                keepalive: (self.ka_min > 0).then_some(KeepAliveChoice {
                    location: self.ka_loc,
                    duration_ms: self.ka_min * MINUTE_MS,
                }),
            }
        }
        fn on_pool_overflow(&mut self, _ctx: &OverflowCtx<'_>) -> OverflowAction {
            self.overflow.clone()
        }
    }

    fn one_func_catalog() -> WorkloadCatalog {
        WorkloadCatalog::new(vec![FunctionProfile::new("f", 1_000, 2_000, 512, 0.64)])
    }

    fn trace_of(times: &[u64]) -> Trace {
        Trace::new(
            one_func_catalog(),
            times
                .iter()
                .map(|&t| Invocation {
                    func: FunctionId(0),
                    t_ms: t,
                })
                .collect(),
        )
    }

    fn ci300() -> CarbonIntensityTrace {
        CarbonIntensityTrace::constant(300.0, 600)
    }

    #[test]
    fn first_invocation_is_cold_second_is_warm_within_keepalive() {
        let trace = trace_of(&[0, 2 * MINUTE_MS]);
        let ci = ci300();
        let sim = Simulation::new(&trace, &ci, skus::fleet_a());
        let m = sim.run(&mut Fixed::new(NodeId(1), NodeId(1), 10));
        assert_eq!(m.invocations(), 2);
        assert!(!m.records[0].warm);
        assert!(m.records[1].warm);
        // Warm service = exec only + setup; cold includes the cold start.
        assert!(m.records[1].service_ms < m.records[0].service_ms);
        assert_eq!(m.records[1].service_ms, 1_000 + 50);
        assert_eq!(m.records[0].service_ms, 2_000 + 1_000 + 50);
    }

    #[test]
    fn reinvocation_after_expiry_is_cold() {
        let trace = trace_of(&[0, 15 * MINUTE_MS]);
        let ci = ci300();
        let sim = Simulation::new(&trace, &ci, skus::fleet_a());
        let m = sim.run(&mut Fixed::new(NodeId(1), NodeId(1), 10));
        assert!(!m.records[1].warm);
        assert_eq!(m.warm_starts(), 0);
    }

    #[test]
    fn keepalive_carbon_attributed_to_scheduling_invocation() {
        let trace = trace_of(&[0]);
        let ci = ci300();
        let sim = Simulation::new(&trace, &ci, skus::fleet_a());
        let m = sim.run(&mut Fixed::new(NodeId(1), NodeId(1), 10));
        // The sole record carries its own 10-minute keep-alive.
        assert!(m.records[0].keepalive_carbon.total_g() > 0.0);
        // Order of magnitude: ~2 W for 600 s at 300 g/kWh ≈ 0.1 g plus
        // embodied.
        let ka = m.records[0].keepalive_carbon.total_g();
        assert!((0.02..1.0).contains(&ka), "keep-alive carbon {ka}");
    }

    #[test]
    fn warm_reuse_truncates_keepalive_charge() {
        let ci = ci300();
        let fleet = skus::fleet_a();
        // Reuse after 2 of 10 scheduled minutes…
        let t_short = trace_of(&[0, 2 * MINUTE_MS]);
        let m_short = Simulation::new(&t_short, &ci, fleet.clone()).run(&mut Fixed::new(
            NodeId(1),
            NodeId(1),
            10,
        ));
        // …must charge less than lapsing the full 10 minutes.
        let t_lapse = trace_of(&[0]);
        let m_lapse =
            Simulation::new(&t_lapse, &ci, fleet).run(&mut Fixed::new(NodeId(1), NodeId(1), 10));
        let short_ka = m_short.records[0].keepalive_carbon.total_g();
        let lapse_ka = m_lapse.records[0].keepalive_carbon.total_g();
        assert!(short_ka < 0.5 * lapse_ka, "{short_ka} vs {lapse_ka}");
    }

    #[test]
    fn warm_location_overrides_exec_decision() {
        // Keep alive on node 0 but the policy wants to execute on node 1:
        // the engine must execute the warm start on node 0 (Sec. IV-D).
        let trace = trace_of(&[0, MINUTE_MS]);
        let ci = ci300();
        let sim = Simulation::new(&trace, &ci, skus::fleet_a());
        let m = sim.run(&mut Fixed::new(NodeId(1), NodeId(0), 10));
        assert_eq!(m.records[1].exec_location, NodeId(0));
        assert!(m.records[1].warm);
    }

    #[test]
    fn execution_on_old_is_slower() {
        let trace = trace_of(&[0]);
        let ci = ci300();
        let fleet = skus::fleet_a();
        let m_old = Simulation::new(&trace, &ci, fleet.clone()).run(&mut Fixed::new(
            NodeId(0),
            NodeId(0),
            0,
        ));
        let m_new =
            Simulation::new(&trace, &ci, fleet).run(&mut Fixed::new(NodeId(1), NodeId(1), 0));
        assert!(m_old.records[0].service_ms > m_new.records[0].service_ms);
    }

    #[test]
    fn overflow_drop_counts_eviction() {
        // Pool too small for the 512-MiB container.
        let fleet = skus::fleet_a().with_uniform_keepalive_budget_mib(256);
        let trace = trace_of(&[0]);
        let ci = ci300();
        let m = Simulation::new(&trace, &ci, fleet).run(&mut Fixed::new(NodeId(1), NodeId(1), 10));
        assert_eq!(m.evicted_functions, 1);
        assert_eq!(m.records[0].keepalive_carbon.total_g(), 0.0);
    }

    /// Displace whatever is resident; place the incoming.
    struct Adjusting {
        transfer_targets: Option<Vec<NodeId>>,
    }
    impl Scheduler for Adjusting {
        fn name(&self) -> &'static str {
            "adjusting"
        }
        fn decide(&mut self, ctx: &InvocationCtx<'_>) -> Decision {
            let newest = ctx.cluster.fleet().newest();
            Decision {
                exec: newest,
                keepalive: Some(KeepAliveChoice {
                    location: newest,
                    duration_ms: 10 * MINUTE_MS,
                }),
            }
        }
        fn on_pool_overflow(&mut self, ctx: &OverflowCtx<'_>) -> OverflowAction {
            let resident: Vec<_> = ctx
                .cluster
                .pool(ctx.location)
                .iter()
                .map(|c| c.func)
                .collect();
            OverflowAction::Adjust(AdjustPlan {
                displace: resident,
                place_incoming: true,
                transfer_targets: self.transfer_targets.clone(),
            })
        }
    }

    /// Functions `a` (id 0) and `b` (id 1), 512 MiB each, arriving as
    /// `(func id, t_ms)`.
    fn ab_trace(arrivals: &[(u32, u64)]) -> Trace {
        let catalog = WorkloadCatalog::new(vec![
            FunctionProfile::new("a", 1_000, 2_000, 512, 0.5),
            FunctionProfile::new("b", 1_000, 2_000, 512, 0.5),
        ]);
        Trace::new(
            catalog,
            arrivals
                .iter()
                .map(|&(f, t_ms)| Invocation {
                    func: FunctionId(f),
                    t_ms,
                })
                .collect(),
        )
    }

    fn two_func_trace() -> Trace {
        ab_trace(&[(0, 0), (1, 10_000)])
    }

    #[test]
    fn overflow_adjust_transfers_to_other_pool() {
        // Two functions of 512 MiB each; the new pool only fits one.
        let trace = two_func_trace();
        let ci = ci300();
        let fleet = skus::fleet_a().with_uniform_keepalive_budget_mib(512);

        let m = Simulation::new(&trace, &ci, fleet).run(&mut Adjusting {
            transfer_targets: None,
        });
        assert_eq!(m.transfers, 1);
        assert_eq!(m.evicted_functions, 0);
        // Both invocations still carry keep-alive carbon: one on new, the
        // transferred one split across nodes.
        assert!(m.records[0].keepalive_carbon.total_g() > 0.0);
        assert!(m.records[1].keepalive_carbon.total_g() > 0.0);
    }

    #[test]
    fn transfer_targets_are_tried_in_plan_order() {
        // Three nodes; the newest (node 2) pool fits one container. An
        // explicit ranking steers the displaced container to node 1 even
        // though default id order would pick node 0.
        let fleet = skus::fleet_three_generations().with_uniform_keepalive_budget_mib(512);
        let trace = two_func_trace();
        let ci = ci300();

        let m = Simulation::new(&trace, &ci, fleet.clone()).run(&mut Adjusting {
            transfer_targets: Some(vec![NodeId(1), NodeId(0)]),
        });
        assert_eq!(m.transfers, 1);
        assert_eq!(m.evicted_functions, 0);

        // Default order: node 0 receives the displaced container instead.
        let m_default = Simulation::new(&trace, &ci, fleet).run(&mut Adjusting {
            transfer_targets: None,
        });
        assert_eq!(m_default.transfers, 1);
        // Both runs keep both functions warm; the placement differs, so
        // the displaced container's keep-alive carbon differs (node 0 is
        // the cheaper, older node).
        assert!(
            m.records[0].keepalive_carbon.total_g()
                > m_default.records[0].keepalive_carbon.total_g()
        );
    }

    /// Replays a fixed decision per invocation index; overflows displace
    /// function 0 and place the incoming container.
    struct Scripted {
        decisions: Vec<Decision>,
    }
    impl Scheduler for Scripted {
        fn name(&self) -> &'static str {
            "scripted"
        }
        fn decide(&mut self, ctx: &InvocationCtx<'_>) -> Decision {
            self.decisions[ctx.index]
        }
        fn on_pool_overflow(&mut self, _ctx: &OverflowCtx<'_>) -> OverflowAction {
            OverflowAction::Adjust(AdjustPlan {
                displace: vec![FunctionId(0)],
                place_incoming: true,
                transfer_targets: None,
            })
        }
    }

    #[test]
    fn transfer_settles_a_replaced_container_on_the_target() {
        // Function F ends up resident in BOTH pools: its first keep-alive
        // goes to the new node, and a re-invocation arriving during that
        // first service period (container not yet warm → cold start)
        // schedules a second keep-alive on the old node. When a later
        // overflow displaces F from the old pool into the new pool, the
        // insert replaces F's original container there — whose accrued
        // keep-alive time must still be charged to its origin record.
        let catalog = WorkloadCatalog::new(vec![
            FunctionProfile::new("f", 1_000, 2_000, 512, 0.64),
            FunctionProfile::new("g", 1_000, 2_000, 512, 0.64),
        ]);
        let f = FunctionId(0);
        let g = FunctionId(1);
        let trace = Trace::new(
            catalog,
            vec![
                Invocation { func: f, t_ms: 0 },
                Invocation {
                    func: f,
                    t_ms: 1_000,
                },
                Invocation {
                    func: g,
                    t_ms: 20_000,
                },
            ],
        );
        let ci = ci300();
        let fleet = skus::fleet_a().with_uniform_keepalive_budget_mib(512);
        let ka = |node: NodeId| {
            Some(KeepAliveChoice {
                location: node,
                duration_ms: 10 * MINUTE_MS,
            })
        };
        let m = Simulation::new(&trace, &ci, fleet).run(&mut Scripted {
            decisions: vec![
                Decision {
                    exec: NodeId(1),
                    keepalive: ka(NodeId(1)),
                },
                Decision {
                    exec: NodeId(0),
                    keepalive: ka(NodeId(0)),
                },
                Decision {
                    exec: NodeId(1),
                    keepalive: ka(NodeId(0)),
                },
            ],
        });
        // The overflow displaced F from the old pool into the new pool.
        assert_eq!(m.transfers, 1);
        assert_eq!(m.evicted_functions, 0);
        // Record 0's container on the new node sat warm from the end of
        // its service until it was replaced by the transfer at t = 20 s —
        // that stay must be charged, not silently dropped.
        assert!(
            m.records[0].keepalive_carbon.total_g() > 0.0,
            "replaced container's keep-alive was never settled"
        );
        // The displaced container's old-node stay is charged to record 1.
        assert!(m.records[1].keepalive_carbon.total_g() > 0.0);
    }

    #[test]
    fn full_fleet_evicts_displaced_containers() {
        // Every pool fits exactly one 512-MiB container and all are kept
        // full by the overflowing node's own traffic — a displaced
        // container has nowhere to go.
        let trace = two_func_trace();
        let ci = ci300();
        let fleet = skus::fleet_a()
            .with_keepalive_budget_mib(NodeId(0), 256)
            .with_keepalive_budget_mib(NodeId(1), 512);
        let m = Simulation::new(&trace, &ci, fleet).run(&mut Adjusting {
            transfer_targets: None,
        });
        // The displaced container does not fit the 256-MiB old pool.
        assert_eq!(m.transfers, 0);
        assert_eq!(m.evicted_functions, 1);
    }

    #[test]
    fn displaced_container_still_executing_is_not_warm_on_its_target() {
        // a's first (cold) service runs from 0 to ~3 s. At 1 s, b's
        // keep-alive overflows the newest pool and displaces a's
        // container — not yet warm — to the old node. It turns warm
        // there when its service ends, not at the move, so a at 2 s
        // starts cold.
        let trace = ab_trace(&[(0, 0), (1, 1_000), (0, 2_000)]);
        let ci = ci300();
        let fleet = skus::fleet_a().with_uniform_keepalive_budget_mib(512);
        let m = Simulation::new(&trace, &ci, fleet).run(&mut Adjusting {
            transfer_targets: None,
        });
        assert!(m.records[0].service_ms > 2_000);
        assert!(
            !m.records[2].warm,
            "served warm by a container still executing"
        );
        // The displacement itself still happened.
        assert_eq!(m.transfers, 1);
    }

    /// Pair A with 512-MiB pools, one scripted decision per arrival
    /// (keep-alives of 10 minutes), and `plan` for membership.
    fn run_scripted(
        trace: &Trace,
        decisions: &[(u32, Option<u32>)],
        plan: MembershipPlan,
    ) -> RunMetrics {
        let ci = ci300();
        let fleet = skus::fleet_a().with_uniform_keepalive_budget_mib(512);
        let decisions = decisions
            .iter()
            .map(|&(exec, ka)| Decision {
                exec: NodeId(exec),
                keepalive: ka.map(|node| KeepAliveChoice {
                    location: NodeId(node),
                    duration_ms: 10 * MINUTE_MS,
                }),
            })
            .collect();
        Simulation::new(trace, &ci, fleet)
            .with_membership(plan)
            .run(&mut Scripted { decisions })
    }

    #[test]
    fn leave_with_no_room_anywhere_evicts_the_drained_containers() {
        // a is kept on node 1 and b fills node 0's pool. Node 1 leaves at
        // 1 min (the last arrival, at 2 min, keeps the leave inside the
        // horizon): a has nowhere to go, so its stay is settled and it
        // is evicted.
        let trace = ab_trace(&[(0, 0), (1, 1_000), (1, 2 * MINUTE_MS)]);
        let m = run_scripted(
            &trace,
            &[(1, Some(1)), (0, Some(0)), (0, None)],
            MembershipPlan::default().leave(MINUTE_MS, NodeId(1)),
        );
        assert_eq!(m.transfers, 0);
        assert_eq!(m.evicted_functions, 1);
        assert!(m.records[2].warm, "b stayed warm on node 0");
        assert!(
            m.records[0].keepalive_carbon.total_g() > 0.0,
            "the evicted container's stay on the leaving node was not charged"
        );
    }

    #[test]
    fn leave_during_a_service_keeps_the_drained_container_cold_until_it_ends() {
        // a's first service runs on node 1 from 0 to ~3 s; node 1 leaves
        // at 1 s. The drain moves a's container to node 0, where it turns
        // warm when that service ends: a at 2 s starts cold.
        let trace = ab_trace(&[(0, 0), (0, 2_000)]);
        let m = run_scripted(
            &trace,
            &[(1, Some(1)), (0, None)],
            MembershipPlan::default().leave(1_000, NodeId(1)),
        );
        assert!(m.records[0].service_ms > 2_000);
        assert_eq!(m.transfers, 1);
        assert!(
            !m.records[1].warm,
            "served warm by a drained container still executing"
        );
    }

    #[test]
    fn no_keepalive_means_no_keepalive_carbon() {
        let trace = trace_of(&[0, MINUTE_MS]);
        let ci = ci300();
        let m = Simulation::new(&trace, &ci, skus::fleet_a()).run(&mut Fixed::new(
            NodeId(1),
            NodeId(1),
            0,
        ));
        assert_eq!(m.total_keepalive_carbon_g(), 0.0);
        assert_eq!(m.warm_starts(), 0);
    }

    #[test]
    fn energy_accumulates_service_and_keepalive() {
        let trace = trace_of(&[0]);
        let ci = ci300();
        let m = Simulation::new(&trace, &ci, skus::fleet_a()).run(&mut Fixed::new(
            NodeId(1),
            NodeId(1),
            10,
        ));
        let service_only = Simulation::new(&trace, &ci, skus::fleet_a()).run(&mut Fixed::new(
            NodeId(1),
            NodeId(1),
            0,
        ));
        assert!(m.total_energy_kwh() > service_only.total_energy_kwh());
    }

    #[test]
    fn per_node_keepalive_follows_the_hosting_pool() {
        // Keep-alive scheduled on node 0 while execution runs on node 1:
        // the hosting node, not the exec node, carries the grams.
        let trace = trace_of(&[0]);
        let ci = ci300();
        let m = Simulation::new(&trace, &ci, skus::fleet_a()).run(&mut Fixed::new(
            NodeId(1),
            NodeId(0),
            10,
        ));
        assert_eq!(m.keepalive_g_by_node.len(), 2);
        assert!(m.keepalive_g_by_node[0] > 0.0);
        assert_eq!(m.keepalive_g_by_node[1], 0.0);
        let total_ka: f64 = m.keepalive_g_by_node.iter().sum();
        assert!((total_ka - m.total_keepalive_carbon_g()).abs() < 1e-9);
        // And the per-node totals add up to the run total.
        let by_node = m.carbon_g_by_node();
        assert!((by_node.iter().sum::<f64>() - m.total_carbon_g()).abs() < 1e-9);
        // Execution happened on node 1, so its service carbon sits there.
        assert!(by_node[1] > 0.0);
    }

    #[test]
    fn deterministic_run() {
        let trace = trace_of(&[0, 30_000, 90_000, 200_000]);
        let ci = ci300();
        let run = || {
            Simulation::new(&trace, &ci, skus::fleet_a()).run(&mut Fixed::new(
                NodeId(1),
                NodeId(1),
                5,
            ))
        };
        let a = run();
        let b = run();
        assert_eq!(a.records, b.records);
        assert_eq!(a.evicted_functions, b.evicted_functions);
    }

    /// [`Fixed`] that panics when asked to place function `b`.
    struct PanicsOnB(Fixed);

    impl Scheduler for PanicsOnB {
        fn name(&self) -> &'static str {
            "panics-on-b"
        }
        fn decide(&mut self, ctx: &InvocationCtx<'_>) -> Decision {
            if ctx.func == FunctionId(1) {
                panic!("no placement for function {}", ctx.func.0);
            }
            self.0.decide(ctx)
        }
        fn on_pool_overflow(&mut self, ctx: &OverflowCtx<'_>) -> OverflowAction {
            self.0.on_pool_overflow(ctx)
        }
    }

    #[test]
    fn a_scheduler_panic_in_a_shard_surfaces_its_own_message() {
        let trace = ab_trace(&[(0, 0), (0, 70_000), (1, 130_000), (0, 190_000)]);
        let ci = ci300();
        let sim = Simulation::new(&trace, &ci, skus::fleet_a());
        for threads in [1, 2] {
            let opts = ShardOptions::new(2).with_threads(threads);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                sim.run_sharded(|_| PanicsOnB(Fixed::new(NodeId(1), NodeId(1), 5)), &opts)
            }));
            let payload = caught.expect_err("the scheduler's panic must reach the caller");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some("no placement for function 1"),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn workload_outrunning_its_ci_trace_is_a_construction_error() {
        // 600 minutes of CI, an arrival at minute 600 (start of minute
        // 601): the old code silently froze at the last sample; now it
        // is a typed construction-time error.
        let trace = trace_of(&[0, 600 * MINUTE_MS]);
        let ci = ci300();
        let err = Simulation::try_new(&trace, &ci, skus::fleet_a()).unwrap_err();
        match err {
            ecolife_carbon::CiError::TooShort {
                ci_ms, required_ms, ..
            } => {
                assert_eq!(ci_ms, 600 * MINUTE_MS);
                assert_eq!(required_ms, 600 * MINUTE_MS + 1);
            }
            other => panic!("wrong error: {other:?}"),
        }
        // The explicit opt-in: extend the series cyclically, then build.
        let extended = ci.extend_cyclic(601);
        let m = Simulation::try_new(&trace, &extended, skus::fleet_a())
            .unwrap()
            .run(&mut Fixed::new(NodeId(1), NodeId(1), 0));
        assert_eq!(m.invocations(), 2);
        // Exactly covering the span passes (last arrival reads a real
        // sample).
        assert!(
            Simulation::try_new(&trace_of(&[0, 599 * MINUTE_MS]), &ci, skus::fleet_a()).is_ok()
        );
    }

    #[test]
    #[should_panic(expected = "invalid simulation")]
    fn new_panics_rather_than_freezing_ci() {
        let trace = trace_of(&[0, 700 * MINUTE_MS]);
        let ci = ci300();
        Simulation::new(&trace, &ci, skus::fleet_a());
    }

    #[test]
    fn regional_construction_resolves_per_node_series() {
        use ecolife_carbon::{CiBundle, Region};
        let trace = trace_of(&[0]);
        let bundle = CiBundle::new(vec![
            (Region::Texas, CarbonIntensityTrace::constant(400.0, 60)),
            (Region::NewYork, CarbonIntensityTrace::constant(100.0, 60)),
        ])
        .unwrap();
        let fleet = skus::fleet_a()
            .with_region(NodeId(0), Region::Texas)
            .with_region(NodeId(1), Region::NewYork);
        let sim = Simulation::try_new_regional(&trace, &bundle, fleet.clone()).unwrap();
        assert_eq!(sim.ci().at(NodeId(0), 0), 400.0);
        assert_eq!(sim.ci().at(NodeId(1), 0), 100.0);
        // Executing on the NY node must be accounted at NY intensity:
        // 4× lower operational carbon than the same run on the Texas
        // grid would pay per kWh.
        let m = sim.run(&mut Fixed::new(NodeId(1), NodeId(1), 0));
        let on_tex = Simulation::try_new_regional(&trace, &bundle, fleet.clone())
            .unwrap()
            .run(&mut Fixed::new(NodeId(0), NodeId(0), 0));
        assert!(m.records[0].service_carbon.operational_g > 0.0);
        assert!(
            on_tex.records[0].service_carbon.operational_g
                > m.records[0].service_carbon.operational_g
        );
        // A node whose region has no series is a construction error.
        let uncovered = skus::fleet_a().with_region(NodeId(0), Region::Florida);
        assert!(matches!(
            Simulation::try_new_regional(&trace, &bundle, uncovered),
            Err(ecolife_carbon::CiError::MissingRegion { .. })
        ));
    }

    #[test]
    fn three_node_fleet_runs_end_to_end() {
        let trace = trace_of(&[0, 2 * MINUTE_MS, 4 * MINUTE_MS]);
        let ci = ci300();
        let fleet = skus::fleet_three_generations();
        let m = Simulation::new(&trace, &ci, fleet).run(&mut Fixed::new(NodeId(2), NodeId(1), 10));
        // Cold on the newest, then warm starts served from the mid node.
        assert_eq!(m.records[0].exec_location, NodeId(2));
        assert!(!m.records[0].warm);
        assert_eq!(m.records[1].exec_location, NodeId(1));
        assert!(m.records[1].warm);
        assert_eq!(m.warm_starts(), 2);
    }
}
