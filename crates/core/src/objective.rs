//! The Sec. IV-A objective and its normalization constants.
//!
//! ```text
//! argmin_{l ∈ L, k ∈ K}  λs·E[S_{f,l,k}]/S_max
//!                      + λc·E[SC_{f,l,k}]/SC_max
//!                      + λc·KC_{f,l,k}/KC_max
//! ```
//!
//! with `L` the fleet's node set, `S_max` the worst cold service time
//! across the fleet (the two-node case: cold start + execution on the
//! older generation), `SC_max` the worst cold-service carbon, and
//! `KC_max` the worst-case carbon of the longest keep-alive anywhere in
//! the fleet. The same pieces feed the EPDM score (`fscore`), the
//! warm-pool priority ranking, and the Oracle brute force, so they live
//! in one place.
//!
//! On a multi-region fleet each node burns its own grid's intensity, so
//! every carbon-bearing composite takes `ci_by_node` — the intensity on
//! each node's grid at the decision instant, indexed by `NodeId`
//! (build one with [`CostModel::uniform_ci`] for the single-region
//! case, or read it off `InvocationCtx::ci`). Scalar-`ci` leaf methods
//! (`*_carbon_g`) remain per-node quantities: the caller passes that
//! node's intensity.
//!
//! [`ObjectiveTables`] caches those pieces for the scheduler's hot path,
//! and [`ObjectiveLandscape`] is one decision's fitness over it: the
//! expected objective of every `(node, keep-alive period)` choice,
//! where each cell is computed the first time the swarm decodes a
//! particle to it and memoized until the next decision. Only the cells
//! the swarm visits are ever priced (a few dozen of the `nodes × grid`),
//! and each equals [`CostModel::expected_objective`] bit for bit.

use ecolife_carbon::{CarbonModel, CiProvider, KeepaliveCoeffs, TransferCost};
use ecolife_hw::{Fleet, NodeId, PerfModel};
use ecolife_pso::decode;
use ecolife_sim::SETUP_DELAY_MS;
use ecolife_trace::{FunctionId, FunctionProfile};
use std::cell::Cell;

/// Cost calculator bound to a hardware fleet and carbon model.
#[derive(Debug, Clone)]
pub struct CostModel {
    fleet: Fleet,
    carbon: CarbonModel,
    pub lambda_s: f64,
    pub lambda_c: f64,
    /// Largest keep-alive period on the grid (ms) — KC_max's duration.
    pub max_keepalive_ms: u64,
    /// What a cross-node migration costs (see
    /// [`CostModel::transfer_ranking`]); [`TransferCost::free`] by
    /// default, which leaves every ranking exactly as it was when
    /// transfers were unpriced.
    pub transfer: TransferCost,
}

impl CostModel {
    pub fn new(
        fleet: Fleet,
        carbon: CarbonModel,
        lambda_s: f64,
        lambda_c: f64,
        max_keepalive_ms: u64,
    ) -> Self {
        assert!(max_keepalive_ms > 0);
        CostModel {
            fleet,
            carbon,
            lambda_s,
            lambda_c,
            max_keepalive_ms,
            transfer: TransferCost::free(),
        }
    }

    /// This model with priced migrations (builder style).
    pub fn with_transfer_cost(mut self, transfer: TransferCost) -> Self {
        self.transfer = transfer;
        self
    }

    #[inline]
    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    #[inline]
    pub fn carbon_model(&self) -> &CarbonModel {
        &self.carbon
    }

    /// One intensity for every node — the single-region `ci_by_node`.
    pub fn uniform_ci(&self, ci: f64) -> Vec<f64> {
        vec![ci; self.fleet.len()]
    }

    #[inline]
    fn ci_at(&self, ci_by_node: &[f64], l: NodeId) -> f64 {
        debug_assert_eq!(ci_by_node.len(), self.fleet.len());
        ci_by_node[l.index()]
    }

    // -- service time ------------------------------------------------------

    /// Warm service time on node `l` (ms), the engine's setup delay
    /// included.
    pub fn warm_service_ms(&self, l: NodeId, f: &FunctionProfile) -> u64 {
        SETUP_DELAY_MS
            + PerfModel::warm_service_ms(self.fleet.node(l), f.base_exec_ms, f.cpu_sensitivity)
    }

    /// Cold service time on node `l` (ms), the engine's setup delay
    /// included.
    pub fn cold_service_ms(&self, l: NodeId, f: &FunctionProfile) -> u64 {
        SETUP_DELAY_MS
            + PerfModel::cold_service_ms(
                self.fleet.node(l),
                f.base_exec_ms,
                f.base_cold_ms,
                f.cpu_sensitivity,
            )
    }

    /// `S_max`: the worst cold service time anywhere in the fleet (the
    /// two-node case: cold start + execution on the older generation).
    pub fn s_max(&self, f: &FunctionProfile) -> f64 {
        self.fleet
            .ids()
            .map(|l| self.cold_service_ms(l, f))
            .max()
            .expect("fleet is non-empty") as f64
    }

    // -- service carbon ----------------------------------------------------

    /// Carbon of a warm service on `l` at intensity `ci` (g).
    pub fn warm_service_carbon_g(&self, l: NodeId, f: &FunctionProfile, ci: f64) -> f64 {
        let d = self.warm_service_ms(l, f);
        self.carbon
            .active_phase(self.fleet.node(l), f.memory_mib, d, ci)
            .total_g()
    }

    /// Carbon of a cold service on `l` at intensity `ci` (g).
    pub fn cold_service_carbon_g(&self, l: NodeId, f: &FunctionProfile, ci: f64) -> f64 {
        let d = self.cold_service_ms(l, f);
        self.carbon
            .active_phase(self.fleet.node(l), f.memory_mib, d, ci)
            .total_g()
    }

    /// `SC_max`: the worst cold-service carbon across the fleet, each
    /// node priced at its own grid's intensity.
    pub fn sc_max(&self, f: &FunctionProfile, ci_by_node: &[f64]) -> f64 {
        self.fleet
            .ids()
            .map(|l| self.cold_service_carbon_g(l, f, self.ci_at(ci_by_node, l)))
            .fold(0.0f64, f64::max)
            .max(1e-12)
    }

    // -- keep-alive carbon -------------------------------------------------

    /// Carbon of keeping `f` warm on `l` for `duration_ms` at `ci` (g).
    pub fn keepalive_carbon_g(
        &self,
        l: NodeId,
        f: &FunctionProfile,
        duration_ms: u64,
        ci: f64,
    ) -> f64 {
        if duration_ms == 0 {
            return 0.0;
        }
        self.carbon
            .keepalive_phase(self.fleet.node(l), f.memory_mib, duration_ms, ci)
            .total_g()
    }

    /// `KC_max`: the worst-case carbon of the longest keep-alive anywhere
    /// in the fleet (the two-node case: on the newer generation), each
    /// node priced at its own grid's intensity.
    pub fn kc_max(&self, f: &FunctionProfile, ci_by_node: &[f64]) -> f64 {
        self.fleet
            .ids()
            .map(|l| {
                self.keepalive_carbon_g(l, f, self.max_keepalive_ms, self.ci_at(ci_by_node, l))
            })
            .fold(0.0f64, f64::max)
            .max(1e-12)
    }

    // -- energy (Energy-Opt) -------------------------------------------------

    /// Energy of a (cold or warm) service on `l` (kWh).
    pub fn service_energy_kwh(&self, l: NodeId, f: &FunctionProfile, warm: bool) -> f64 {
        let d = if warm {
            self.warm_service_ms(l, f)
        } else {
            self.cold_service_ms(l, f)
        };
        self.carbon
            .active_energy_kwh(self.fleet.node(l), f.memory_mib, d)
    }

    /// Energy of a keep-alive on `l` (kWh).
    pub fn keepalive_energy_kwh(&self, l: NodeId, f: &FunctionProfile, duration_ms: u64) -> f64 {
        self.carbon
            .keepalive_energy_kwh(self.fleet.node(l), f.memory_mib, duration_ms)
    }

    // -- composite scores ----------------------------------------------------

    /// `λs·(S_r/S_max) + λc·(SC_r/SC_max)`: the one operation order every
    /// EPDM score — scanned here or recombined from cached intermediates
    /// by [`ObjectiveTables`] — is built with.
    #[inline]
    fn fscore(&self, s_ms: f64, s_max: f64, sc_g: f64, sc_max: f64) -> f64 {
        self.lambda_s * (s_ms / s_max) + self.lambda_c * (sc_g / sc_max)
    }

    /// The queue-aware EPDM term `λs·(Q_r/S_max)`, added after the
    /// [`fscore`](Self::fscore).
    #[inline]
    fn queue_term(&self, queue_ms: u64, s_max: f64) -> f64 {
        self.lambda_s * (queue_ms as f64 / s_max)
    }

    /// The EPDM execution-placement score for a *cold* execution on `r`
    /// (Sec. IV-D): `fscore = λs·S_r/S_max + λc·SC_r/SC_max`, with `r`'s
    /// carbon priced at its own grid's intensity.
    pub fn epdm_score(&self, r: NodeId, f: &FunctionProfile, ci_by_node: &[f64]) -> f64 {
        self.fscore(
            self.cold_service_ms(r, f) as f64,
            self.s_max(f),
            self.cold_service_carbon_g(r, f, self.ci_at(ci_by_node, r)),
            self.sc_max(f, ci_by_node),
        )
    }

    /// Every node's EPDM score in id order — [`CostModel::epdm_score`],
    /// plus the queue-aware backlog term when `queue_ms` is given — with
    /// `S_max` and `SC_max` computed once per scan instead of once per
    /// node (bit-identical: the same values in the same operation order).
    fn epdm_scores<'a>(
        &'a self,
        f: &'a FunctionProfile,
        ci_by_node: &'a [f64],
        queue_ms: Option<&'a [u64]>,
    ) -> impl Iterator<Item = f64> + 'a {
        let s_max = self.s_max(f);
        let sc_max = self.sc_max(f, ci_by_node);
        self.fleet.ids().map(move |r| {
            let score = self.fscore(
                self.cold_service_ms(r, f) as f64,
                s_max,
                self.cold_service_carbon_g(r, f, self.ci_at(ci_by_node, r)),
                sc_max,
            );
            match queue_ms {
                Some(q) => score + self.queue_term(q[r.index()], s_max),
                None => score,
            }
        })
    }

    /// EPDM choice for a cold execution: the `fscore`-minimizing fleet
    /// node (ties resolve to the lowest id — the two-node case: old), or
    /// `allowed` when the scheduler is restricted to one node. On a
    /// multi-region fleet this is where execution placement starts
    /// trading grid mixes: a node on a momentarily clean grid wins over
    /// an identical node on a dirty one.
    pub fn epdm_choice(
        &self,
        f: &FunctionProfile,
        ci_by_node: &[f64],
        allowed: Option<NodeId>,
    ) -> NodeId {
        allowed.unwrap_or_else(|| first_min(self.epdm_scores(f, ci_by_node, None)))
    }

    /// Queue-aware EPDM score on `r`: [`CostModel::epdm_score`] plus
    /// `λs · Q_r / S_max` for a backlog of `queue_ms` (test-only, the
    /// reference of [`ObjectiveTables::epdm_choice_queued`]).
    #[cfg(test)]
    pub fn epdm_score_queued(
        &self,
        r: NodeId,
        f: &FunctionProfile,
        ci_by_node: &[f64],
        queue_ms: u64,
    ) -> f64 {
        self.epdm_score(r, f, ci_by_node) + self.queue_term(queue_ms, self.s_max(f))
    }

    /// Queue-aware [`CostModel::epdm_choice`]: each node scored with
    /// [`CostModel::epdm_score_queued`] at `queue_ms[node]` (test-only,
    /// the reference of [`ObjectiveTables::epdm_choice_queued`]).
    #[cfg(test)]
    pub fn epdm_choice_queued(
        &self,
        f: &FunctionProfile,
        ci_by_node: &[f64],
        allowed: Option<NodeId>,
        queue_ms: &[u64],
    ) -> NodeId {
        allowed.unwrap_or_else(|| first_min(self.epdm_scores(f, ci_by_node, Some(queue_ms))))
    }

    /// The full expected objective of choosing (`l`, `k`) for `f`, given
    /// the online estimates `p_warm = P(gap ≤ k)` and
    /// `expected_resident_ms = E[min(gap, k)]` (pass exact values to turn
    /// this into the Oracle objective).
    ///
    /// The cold branch executes where the EPDM would place it.
    #[allow(clippy::too_many_arguments)]
    pub fn expected_objective(
        &self,
        f: &FunctionProfile,
        l: NodeId,
        k_ms: u64,
        p_warm: f64,
        expected_resident_ms: f64,
        ci_by_node: &[f64],
        allowed: Option<NodeId>,
    ) -> f64 {
        let ci_l = self.ci_at(ci_by_node, l);
        let p_warm = if k_ms == 0 {
            0.0
        } else {
            p_warm.clamp(0.0, 1.0)
        };
        let cold_loc = self.epdm_choice(f, ci_by_node, allowed);

        // E[S]
        let s_warm = self.warm_service_ms(l, f) as f64;
        let s_cold = self.cold_service_ms(cold_loc, f) as f64;
        let e_s = p_warm * s_warm + (1.0 - p_warm) * s_cold;

        // E[SC] — each branch priced on the grid it would run on.
        let sc_warm = self.warm_service_carbon_g(l, f, ci_l);
        let sc_cold = self.cold_service_carbon_g(cold_loc, f, self.ci_at(ci_by_node, cold_loc));
        let e_sc = p_warm * sc_warm + (1.0 - p_warm) * sc_cold;

        // KC over the expected resident time, on the hosting node's grid.
        let resident = expected_resident_ms.clamp(0.0, k_ms as f64);
        let kc = if k_ms == 0 {
            0.0
        } else {
            self.keepalive_carbon_g(l, f, resident.round() as u64, ci_l)
        };

        self.lambda_s * e_s / self.s_max(f)
            + self.lambda_c * e_sc / self.sc_max(f, ci_by_node)
            + self.lambda_c * kc / self.kc_max(f, ci_by_node)
    }

    /// The warm-pool priority score of keeping `f` alive on `l`:
    /// the (normalized) service-time and carbon benefit of a warm start
    /// over a cold start (Sec. IV-C "calculating the difference in
    /// service time and carbon footprint between cold start and warm
    /// start"). Higher = more valuable to keep.
    pub fn keepalive_benefit(&self, l: NodeId, f: &FunctionProfile, ci_by_node: &[f64]) -> f64 {
        let cold_loc = self.epdm_choice(f, ci_by_node, None);
        let ds = (self.cold_service_ms(cold_loc, f) as f64 - self.warm_service_ms(l, f) as f64)
            / self.s_max(f);
        let dc = (self.cold_service_carbon_g(cold_loc, f, self.ci_at(ci_by_node, cold_loc))
            - self.warm_service_carbon_g(l, f, self.ci_at(ci_by_node, l)))
            / self.sc_max(f, ci_by_node);
        self.lambda_s * ds + self.lambda_c * dc
    }

    /// Transfer targets for containers displaced from `exclude`, ranked
    /// cheapest-to-keep-warm first (per-MiB keep-alive carbon of a
    /// one-minute reference residency, each node priced at its own
    /// grid's intensity; ties resolve to the lowest id). The engine
    /// tries displaced containers against this ranking in order.
    ///
    /// When migrations are priced ([`CostModel::transfer`]), targets
    /// whose reference keep-alive saving beats the egress price (the
    /// same 1-GiB reference, charged at the *source* grid's intensity)
    /// are stably moved ahead of those that don't — a displaced
    /// container still prefers any warm slot over eviction, but never
    /// pays egress for a dirtier grid while a paying move exists. With
    /// [`TransferCost::free`] the partition is the identity and the
    /// ranking is exactly the unpriced one.
    pub fn transfer_ranking(&self, exclude: NodeId, ci_by_node: &[f64]) -> Vec<NodeId> {
        // 1-GiB reference container over one minute: enough to order the
        // nodes; the ordering is memory-size-independent to first order
        // because both the power and embodied terms are affine in MiB.
        let reference = |l: NodeId| -> f64 {
            self.carbon
                .keepalive_phase(self.fleet.node(l), 1024, 60_000, self.ci_at(ci_by_node, l))
                .total_g()
        };
        let mut targets = self.fleet.transfer_candidates(exclude);
        targets.sort_by(|a, b| {
            reference(*a)
                .partial_cmp(&reference(*b))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(b))
        });
        if !self.transfer.is_free() {
            let stay_g = reference(exclude);
            let egress_g = self.transfer.grams(1024, self.ci_at(ci_by_node, exclude));
            let (paying, losing): (Vec<NodeId>, Vec<NodeId>) = targets
                .into_iter()
                .partition(|&l| stay_g - reference(l) > egress_g);
            targets = paying;
            targets.extend(losing);
        }
        targets
    }
}

/// The node of the first minimum of `scores` (one per node, in id
/// order): the strict-less scan from node 0 every EPDM choice uses, so
/// ties resolve to the lowest id.
fn first_min(mut scores: impl Iterator<Item = f64>) -> NodeId {
    let mut best_score = scores.next().expect("fleet is non-empty");
    let mut best = 0;
    for (i, score) in scores.enumerate() {
        if score < best_score {
            best = i + 1;
            best_score = score;
        }
    }
    NodeId(best as u32)
}

/// Milliseconds per minute — the CI-series resolution, and therefore
/// the rate at which the tables' CI-dependent composites can move.
use ecolife_sim::MINUTE_MS;

/// Per-function precompute for one fleet: everything
/// [`CostModel::expected_objective`] derives from `(node, profile)` alone,
/// split into CI-independent constants (built once per function) and
/// CI-dependent composites (refreshed when the per-node intensity vector
/// moves — at most once per simulated minute).
///
/// Every cached value is an *exact intermediate* of the corresponding
/// `CostModel` computation — energies and embodied grams are cached as
/// the same `f64`s `active_phase`/`keepalive_phase` produce, and the
/// composites are rebuilt with the identical operation order
/// (`energy * ci + embodied`) — so scores read through the tables are
/// bit-identical to the `CostModel` methods, never merely close.
#[derive(Debug, Clone)]
struct FunctionTables {
    // -- CI-independent (per node, indexed by `NodeId`) ------------------
    /// `warm_service_ms` / `cold_service_ms` per node.
    warm_ms: Vec<u64>,
    cold_ms: Vec<u64>,
    /// Active-phase energy (kWh) of a warm/cold service per node.
    warm_energy_kwh: Vec<f64>,
    cold_energy_kwh: Vec<f64>,
    /// Active-phase embodied grams of a warm/cold service per node
    /// (CI-independent by construction).
    warm_embodied_g: Vec<f64>,
    cold_embodied_g: Vec<f64>,
    /// Keep-alive coefficients of the function's memory size per node —
    /// the landscape prices every KC term from them.
    keepalive: Vec<KeepaliveCoeffs>,
    /// Keep-alive energy/embodied for the full `max_keepalive_ms` —
    /// the `KC_max` ingredients.
    ka_max_energy_kwh: Vec<f64>,
    ka_max_embodied_g: Vec<f64>,
    /// `S_max` (worst cold service anywhere in the fleet).
    s_max: f64,

    // -- CI-dependent (refreshed per intensity epoch) --------------------
    /// The minute this row's composites were last refreshed at.
    minute: Option<u64>,
    /// Warm/cold service carbon per node at the epoch's intensities.
    warm_carbon_g: Vec<f64>,
    cold_carbon_g: Vec<f64>,
    /// `SC_max` / `KC_max` at the epoch's intensities.
    sc_max: f64,
    kc_max: f64,
    /// The unrestricted EPDM choice at the epoch's intensities.
    epdm_best: NodeId,
}

/// Cached view over a [`CostModel`]: EcoLife's decision hot path and its
/// warm-pool adjustment read every fleet-wide scan (`s_max`, `sc_max`,
/// `kc_max`, EPDM ranking, keep-alive benefit, transfer ranking) through
/// this layer instead of recomputing it inside every DPSO particle
/// evaluation or for every resident of an overflowing pool.
///
/// Scope of validity: intensities are minute-resolution
/// ([`ecolife_carbon::CarbonIntensityTrace::at`] is piecewise-constant
/// per minute), so the CI-dependent composites are keyed on the simulated
/// minute and refreshed lazily. The epoch moves from either side of the
/// scheduler: [`ObjectiveTables::refresh`] reads the run's provider in
/// `decide`, [`ObjectiveTables::refresh_from_snapshot`] takes the
/// engine's per-node snapshot in `on_pool_overflow` (an overflow can
/// land at a minute no `decide` saw — degraded decisions bypass the
/// scheduler but still install keep-alives). All cached composites are
/// built with the exact operation order of the corresponding `CostModel`
/// method — results are bit-identical to the `CostModel` scans (pinned by
/// the unit tests below, and end to end by the test oracle in
/// `ecolife::reference`, which runs EcoLife's decision loop on them).
#[derive(Debug, Clone)]
pub struct ObjectiveTables {
    cost: CostModel,
    /// The minute `ci_by_node` currently reflects.
    minute: Option<u64>,
    /// Intensity on every node's grid at `minute` (indexed by `NodeId`).
    ci_by_node: Vec<f64>,
    /// Per-function rows, indexed by raw `FunctionId` (trace construction
    /// guarantees ids are dense in `0..catalog.len()`).
    rows: Vec<Option<Box<FunctionTables>>>,
    /// Memoized transfer rankings per excluded node, tagged with the
    /// minute they were computed at.
    transfer: Vec<Option<(u64, Vec<NodeId>)>>,
}

impl ObjectiveTables {
    pub fn new(cost: CostModel) -> Self {
        let n_nodes = cost.fleet().len();
        ObjectiveTables {
            transfer: vec![None; n_nodes],
            ci_by_node: Vec::with_capacity(n_nodes),
            minute: None,
            rows: Vec::new(),
            cost,
        }
    }

    /// The wrapped cost model.
    #[inline]
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Intensity on every node's grid at the current epoch (valid after
    /// [`ObjectiveTables::refresh`] or
    /// [`ObjectiveTables::refresh_from_snapshot`]).
    #[inline]
    pub fn ci_by_node(&self) -> &[f64] {
        &self.ci_by_node
    }

    /// Drop all cached state (new trace / new catalog).
    pub fn reset(&mut self) {
        self.minute = None;
        self.ci_by_node.clear();
        self.rows.clear();
        self.transfer.iter_mut().for_each(|slot| *slot = None);
    }

    /// Bring the per-node intensity vector up to `t_ms`'s minute, reading
    /// the run's provider. Cheap when the minute is unchanged (the common
    /// case: every invocation within a minute shares one epoch).
    pub fn refresh(&mut self, ci: &CiProvider<'_>, t_ms: u64) {
        self.set_epoch(t_ms, |id| ci.at(id, t_ms));
    }

    /// [`ObjectiveTables::refresh`] from the engine's per-node snapshot at
    /// `t_ms` (`OverflowCtx::ci_by_node`) instead of the provider.
    pub fn refresh_from_snapshot(&mut self, t_ms: u64, ci_by_node: &[f64]) {
        self.set_epoch(t_ms, |id| ci_by_node[id.index()]);
        debug_assert_eq!(
            self.ci_by_node,
            ci_by_node,
            "intensity moved within minute {}",
            t_ms / MINUTE_MS
        );
    }

    /// The one epoch routine: when `t_ms` starts a new minute, re-read
    /// every node's intensity through `ci_at`.
    fn set_epoch(&mut self, t_ms: u64, ci_at: impl Fn(NodeId) -> f64) {
        let minute = t_ms / MINUTE_MS;
        if self.minute == Some(minute) {
            return;
        }
        self.minute = Some(minute);
        self.ci_by_node.clear();
        self.ci_by_node.extend(self.cost.fleet().ids().map(ci_at));
    }

    /// Ensure the row for `func` exists with CI-dependent composites at
    /// the current epoch (builds / refreshes lazily); returns its index.
    fn ensure_row(&mut self, func: FunctionId, f: &FunctionProfile) -> usize {
        let idx = func.as_usize();
        if idx >= self.rows.len() {
            self.rows.resize_with(idx + 1, || None);
        }
        if self.rows[idx].is_none() {
            self.rows[idx] = Some(Box::new(self.build_static(f)));
        }
        // Refresh the CI-dependent composites when the epoch moved.
        let minute = self.minute.expect("refresh() must run before row access");
        let needs_refresh = self.rows[idx].as_ref().expect("row built").minute != Some(minute);
        if needs_refresh {
            let mut row = self.rows[idx].take().expect("row built");
            self.refresh_row(&mut row);
            self.rows[idx] = Some(row);
        }
        idx
    }

    /// Build the CI-independent half of a function's row.
    fn build_static(&self, f: &FunctionProfile) -> FunctionTables {
        let cost = &self.cost;
        let fleet = cost.fleet();
        let carbon = cost.carbon_model();
        let n = fleet.len();
        let mut t = FunctionTables {
            warm_ms: Vec::with_capacity(n),
            cold_ms: Vec::with_capacity(n),
            warm_energy_kwh: Vec::with_capacity(n),
            cold_energy_kwh: Vec::with_capacity(n),
            warm_embodied_g: Vec::with_capacity(n),
            cold_embodied_g: Vec::with_capacity(n),
            keepalive: Vec::with_capacity(n),
            ka_max_energy_kwh: Vec::with_capacity(n),
            ka_max_embodied_g: Vec::with_capacity(n),
            s_max: cost.s_max(f),
            minute: None,
            warm_carbon_g: vec![0.0; n],
            cold_carbon_g: vec![0.0; n],
            sc_max: 0.0,
            kc_max: 0.0,
            epdm_best: NodeId(0),
        };
        for l in fleet.ids() {
            let node = fleet.node(l);
            let warm_ms = cost.warm_service_ms(l, f);
            let cold_ms = cost.cold_service_ms(l, f);
            t.warm_ms.push(warm_ms);
            t.cold_ms.push(cold_ms);
            t.warm_energy_kwh.push(cost.service_energy_kwh(l, f, true));
            t.cold_energy_kwh.push(cost.service_energy_kwh(l, f, false));
            // `active_phase` at CI 0 isolates the embodied grams as the
            // exact `f64` every other `active_phase` call produces.
            t.warm_embodied_g.push(
                carbon
                    .active_phase(node, f.memory_mib, warm_ms, 0.0)
                    .embodied_g,
            );
            t.cold_embodied_g.push(
                carbon
                    .active_phase(node, f.memory_mib, cold_ms, 0.0)
                    .embodied_g,
            );
            let keepalive = carbon.keepalive_coeffs(node, f.memory_mib);
            t.keepalive.push(keepalive);
            t.ka_max_energy_kwh
                .push(keepalive.energy_kwh(cost.max_keepalive_ms));
            t.ka_max_embodied_g
                .push(keepalive.embodied_g(cost.max_keepalive_ms));
        }
        t
    }

    /// Rebuild a row's CI-dependent composites at the current epoch with
    /// exactly the operation order of the `CostModel` methods.
    fn refresh_row(&self, t: &mut FunctionTables) {
        let cost = &self.cost;
        let n = cost.fleet().len();
        for l in 0..n {
            let ci_l = self.ci_by_node[l];
            // == `warm/cold_service_carbon_g`: operational (energy × ci)
            // plus embodied, in that order.
            t.warm_carbon_g[l] = t.warm_energy_kwh[l] * ci_l + t.warm_embodied_g[l];
            t.cold_carbon_g[l] = t.cold_energy_kwh[l] * ci_l + t.cold_embodied_g[l];
        }
        // == `sc_max` / `kc_max`: fold-max in id order, floored at 1e-12.
        t.sc_max = t
            .cold_carbon_g
            .iter()
            .copied()
            .fold(0.0f64, f64::max)
            .max(1e-12);
        t.kc_max = (0..n)
            .map(|l| t.ka_max_energy_kwh[l] * self.ci_by_node[l] + t.ka_max_embodied_g[l])
            .fold(0.0f64, f64::max)
            .max(1e-12);
        // == `epdm_choice(f, ci, None)`.
        t.epdm_best = first_min((0..n).map(|l| t.epdm_score(cost, l)));
        t.minute = self.minute;
    }

    /// Cached [`CostModel::epdm_choice`] at the current epoch.
    pub fn epdm_choice(
        &mut self,
        func: FunctionId,
        f: &FunctionProfile,
        allowed: Option<NodeId>,
    ) -> NodeId {
        match allowed {
            Some(l) => l,
            None => {
                let idx = self.ensure_row(func, f);
                self.rows[idx].as_deref().expect("row built").epdm_best
            }
        }
    }

    /// Queue-aware [`ObjectiveTables::epdm_choice`] at the current
    /// epoch: the same strict-less scan from node 0, each node's score
    /// plus `λs · Q_r / S_max` at `queue_ms[node]` — the measured
    /// per-node executor backlog (`Cluster::queue_wait_ms` in
    /// `ecolife-sim`). A node drowning in queued work loses placements
    /// it would win on carbon alone, so EcoLife balances load *and*
    /// carbon instead of piling onto the greenest node.
    ///
    /// Fast path: when every queue term is zero the answer is the
    /// cached `epdm_best` — no scan, and bit-identical to
    /// [`ObjectiveTables::epdm_choice`], which is what makes
    /// queue-aware placement free (and invisible) until a node actually
    /// saturates. With backlog present, the scan recombines the row's
    /// intermediates in the `CostModel` scan's operation order
    /// (`λs·s + λc·sc` then `+ λs·(Q/S_max)`), bit for bit.
    pub fn epdm_choice_queued(
        &mut self,
        func: FunctionId,
        f: &FunctionProfile,
        allowed: Option<NodeId>,
        queue_ms: &[u64],
    ) -> NodeId {
        match allowed {
            Some(l) => l,
            None => {
                let idx = self.ensure_row(func, f);
                let row = self.rows[idx].as_deref().expect("row built");
                if queue_ms.iter().all(|&q| q == 0) {
                    return row.epdm_best;
                }
                let cost = &self.cost;
                first_min(
                    (0..cost.fleet().len())
                        .map(|l| row.epdm_score(cost, l) + cost.queue_term(queue_ms[l], row.s_max)),
                )
            }
        }
    }

    /// Cached [`CostModel::keepalive_benefit`] of keeping `func` warm on
    /// `l` at the current epoch: the warm-pool adjustment's per-candidate
    /// score as a row lookup instead of fleet-wide `S_max`/`SC_max`/EPDM
    /// rescans (bit-identical: the row's exact intermediates, recombined
    /// in that method's operation order).
    pub fn keepalive_benefit(&mut self, l: NodeId, func: FunctionId, f: &FunctionProfile) -> f64 {
        let idx = self.ensure_row(func, f);
        let row = self.rows[idx].as_deref().expect("row built");
        let (cold, l) = (row.epdm_best.index(), l.index());
        let ds = (row.cold_ms[cold] as f64 - row.warm_ms[l] as f64) / row.s_max;
        let dc = (row.cold_carbon_g[cold] - row.warm_carbon_g[l]) / row.sc_max;
        self.cost.lambda_s * ds + self.cost.lambda_c * dc
    }

    /// Reset `out` to the KDM fitness landscape of one decision for
    /// `func`: the expected objective of every `(node, grid index)`
    /// keep-alive choice, computed when the swarm first reads it.
    /// `estimates` yields the predictor's `(P(gap ≤ k), E[min(gap, k)])`
    /// for each entry of `grid_min`, in order; with `restrict` set the
    /// decode rule never leaves that node's stripe, so no other cell is
    /// ever computed.
    ///
    /// The per-period half of [`CostModel::expected_objective`] (the
    /// clamped `P(warm)` and the rounded residency) is settled here, once
    /// per grid index, and the row's per-node intermediates are copied
    /// next to it; each cell then recombines them in that method's
    /// operation order, so every read is bit-identical to it.
    pub fn landscape<'a>(
        &mut self,
        func: FunctionId,
        f: &FunctionProfile,
        grid_min: &[u64],
        estimates: impl IntoIterator<Item = (f64, f64)>,
        restrict: Option<NodeId>,
        out: &'a mut ObjectiveLandscape,
    ) -> &'a ObjectiveLandscape {
        let idx = self.ensure_row(func, f);
        let row = self.rows[idx].as_deref().expect("row built");
        debug_assert_eq!(row.minute, self.minute);

        out.periods.clear();
        for (&k_min, (p_warm, resident_ms)) in grid_min.iter().zip(estimates) {
            let k_ms = k_min * MINUTE_MS;
            out.periods.push(if k_ms == 0 {
                PeriodTerms {
                    p_warm: 0.0,
                    resident_ms: 0,
                }
            } else {
                PeriodTerms {
                    p_warm: p_warm.clamp(0.0, 1.0),
                    resident_ms: decode::round_to_u64(resident_ms.clamp(0.0, k_ms as f64)),
                }
            });
        }
        assert_eq!(
            out.periods.len(),
            grid_min.len(),
            "one estimate per grid period"
        );
        out.nodes.clear();
        out.nodes.extend((0..row.warm_ms.len()).map(|l| NodeTerms {
            s_warm: row.warm_ms[l] as f64,
            sc_warm: row.warm_carbon_g[l],
            ci: self.ci_by_node[l],
            keepalive: row.keepalive[l],
        }));
        out.cells.clear();
        out.cells
            .resize(out.nodes.len() * out.periods.len(), Cell::new(None));

        out.lambda_s = self.cost.lambda_s;
        out.lambda_c = self.cost.lambda_c;
        (out.s_max, out.sc_max, out.kc_max) = (row.s_max, row.sc_max, row.kc_max);
        // The cold branch executes where the EPDM would place it —
        // constant across the whole landscape.
        let cold = restrict.unwrap_or(row.epdm_best).index();
        out.s_cold = row.cold_ms[cold] as f64;
        out.sc_cold = row.cold_carbon_g[cold];
        out
    }

    /// Memoized [`CostModel::transfer_ranking`] at the current epoch: the
    /// ranking depends only on `(exclude, per-node intensity vector)`,
    /// and the intensity vector is constant within a minute — so overflow
    /// storms within a minute reuse one sort instead of re-ranking the
    /// fleet per displaced container.
    pub fn transfer_ranking(&mut self, exclude: NodeId) -> &[NodeId] {
        let minute = self.minute.expect("refresh() must run before a ranking");
        let Self {
            cost,
            transfer,
            ci_by_node,
            ..
        } = self;
        let slot = &mut transfer[exclude.index()];
        let stale = !matches!(slot, Some((m, _)) if *m == minute);
        if stale {
            *slot = Some((minute, cost.transfer_ranking(exclude, ci_by_node)));
        }
        &slot.as_ref().expect("just filled").1
    }
}

impl FunctionTables {
    /// [`CostModel::epdm_score`] on node `l` from this row's
    /// intermediates at its epoch.
    #[inline]
    fn epdm_score(&self, cost: &CostModel, l: usize) -> f64 {
        cost.fscore(
            self.cold_ms[l] as f64,
            self.s_max,
            self.cold_carbon_g[l],
            self.sc_max,
        )
    }
}

/// One decision's keep-alive fitness landscape (see
/// [`ObjectiveTables::landscape`]), reused from decision to decision. A
/// DPSO decision evaluates ~130 particle positions, which decode to a few
/// dozen distinct cells of the `nodes × grid` landscape; each is computed
/// from the decision's terms held here once and memoized for the rest of
/// the decision.
#[derive(Debug, Default)]
pub struct ObjectiveLandscape {
    lambda_s: f64,
    lambda_c: f64,
    /// The function's `S_max`, `SC_max` and `KC_max` at the epoch.
    s_max: f64,
    sc_max: f64,
    kc_max: f64,
    /// Service time and carbon of the cold branch.
    s_cold: f64,
    sc_cold: f64,
    periods: Vec<PeriodTerms>,
    nodes: Vec<NodeTerms>,
    /// The memo, row-major by node: `None` until the cell is first read,
    /// so any computed value (a NaN from NaN inputs included) is reused.
    cells: Vec<Cell<Option<f64>>>,
}

/// The per-period inputs of a landscape cell.
#[derive(Debug, Clone, Copy)]
struct PeriodTerms {
    /// `P(warm)` clamped to `[0, 1]`; 0 for the no-keep-alive period.
    p_warm: f64,
    /// The expected residency clamped to `[0, k]` and rounded to whole
    /// milliseconds — the duration the KC term prices (0 prices nothing).
    resident_ms: u64,
}

/// The per-node inputs of a landscape cell.
#[derive(Debug, Clone, Copy)]
struct NodeTerms {
    /// Warm service time (ms) and carbon on the node.
    s_warm: f64,
    sc_warm: f64,
    /// The node's grid intensity and keep-alive coefficients.
    ci: f64,
    keepalive: KeepaliveCoeffs,
}

impl ObjectiveLandscape {
    /// [`CostModel::expected_objective`] of keeping the function alive on
    /// `l` for the `idx`-th grid period, bit for bit.
    #[inline]
    pub fn objective(&self, l: NodeId, idx: usize) -> f64 {
        let cell = &self.cells[l.index() * self.periods.len() + idx];
        if let Some(value) = cell.get() {
            return value;
        }
        let value = self.compute(&self.nodes[l.index()], self.periods[idx]);
        cell.set(Some(value));
        value
    }

    /// A cell's objective in [`CostModel::expected_objective`]'s
    /// operation order.
    fn compute(&self, node: &NodeTerms, period: PeriodTerms) -> f64 {
        let p = period.p_warm;
        let e_s = p * node.s_warm + (1.0 - p) * self.s_cold;
        let e_sc = p * node.sc_warm + (1.0 - p) * self.sc_cold;
        let kc = match period.resident_ms {
            0 => 0.0,
            resident => node.keepalive.phase(resident, node.ci).total_g(),
        };
        self.lambda_s * e_s / self.s_max
            + self.lambda_c * e_sc / self.sc_max
            + self.lambda_c * kc / self.kc_max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecolife_hw::skus;
    use ecolife_trace::WorkloadCatalog;

    fn model() -> CostModel {
        CostModel::new(
            skus::fleet_a(),
            CarbonModel::default(),
            0.5,
            0.5,
            10 * 60_000,
        )
    }

    fn profile(name: &str) -> FunctionProfile {
        WorkloadCatalog::sebs().by_name(name).unwrap().1.clone()
    }

    #[test]
    fn s_max_is_cold_on_old() {
        let m = model();
        let f = profile("220.video-processing");
        assert_eq!(m.s_max(&f), m.cold_service_ms(NodeId(0), &f) as f64);
        assert!(m.s_max(&f) > m.cold_service_ms(NodeId(1), &f) as f64);
    }

    #[test]
    fn kc_max_is_the_worst_node() {
        // Pair A: keep-alive on the new node is the expensive option, so
        // the fleet-wide max reproduces the paper's "longest keep-alive
        // on the newer generation" constant.
        let m = model();
        let f = profile("503.graph-bfs");
        assert_eq!(
            m.kc_max(&f, &m.uniform_ci(300.0)),
            m.keepalive_carbon_g(NodeId(1), &f, m.max_keepalive_ms, 300.0)
        );
    }

    #[test]
    fn warm_is_faster_than_cold_everywhere() {
        let m = model();
        let f = profile("503.graph-bfs");
        for l in m.fleet().ids().collect::<Vec<_>>() {
            assert!(m.warm_service_ms(l, &f) < m.cold_service_ms(l, &f));
        }
    }

    #[test]
    fn objective_zero_keepalive_has_no_kc_term() {
        let m = model();
        let f = profile("503.graph-bfs");
        let with_k = m.expected_objective(
            &f,
            NodeId(0),
            600_000,
            0.9,
            300_000.0,
            &m.uniform_ci(300.0),
            None,
        );
        let no_k = m.expected_objective(&f, NodeId(0), 0, 0.9, 0.0, &m.uniform_ci(300.0), None);
        // k = 0 forces the cold branch: that may be better or worse overall,
        // but its KC term must vanish, which we can see by reconstructing:
        let cold_loc = m.epdm_choice(&f, &m.uniform_ci(300.0), None);
        let expected_no_k = m.lambda_s * m.cold_service_ms(cold_loc, &f) as f64 / m.s_max(&f)
            + m.lambda_c * m.cold_service_carbon_g(cold_loc, &f, 300.0)
                / m.sc_max(&f, &m.uniform_ci(300.0));
        assert!((no_k - expected_no_k).abs() < 1e-12);
        assert!(with_k.is_finite());
    }

    #[test]
    fn higher_warm_probability_lowers_objective_for_keepalive() {
        // Warm starts are strictly better than cold starts in both time
        // and carbon, so the objective must fall as P(warm) rises.
        let m = model();
        let f = profile("220.video-processing");
        let lo = m.expected_objective(
            &f,
            NodeId(0),
            600_000,
            0.1,
            300_000.0,
            &m.uniform_ci(300.0),
            None,
        );
        let hi = m.expected_objective(
            &f,
            NodeId(0),
            600_000,
            0.9,
            300_000.0,
            &m.uniform_ci(300.0),
            None,
        );
        assert!(hi < lo);
    }

    #[test]
    fn epdm_weights_steer_the_placement() {
        // A pure service-time objective must execute on the faster new
        // node; a pure carbon objective must pick the cheaper old node
        // (lower package power and embodied attribution).
        let f = profile("311.compression");
        let time_only = CostModel::new(skus::fleet_a(), CarbonModel::default(), 1.0, 0.0, 600_000);
        assert_eq!(
            time_only.epdm_choice(&f, &time_only.uniform_ci(300.0), None),
            NodeId(1)
        );
        let carbon_only =
            CostModel::new(skus::fleet_a(), CarbonModel::default(), 0.0, 1.0, 600_000);
        assert_eq!(
            carbon_only.epdm_choice(&f, &carbon_only.uniform_ci(300.0), None),
            NodeId(0)
        );
    }

    #[test]
    fn epdm_respects_restriction() {
        let m = model();
        let f = profile("311.compression");
        assert_eq!(
            m.epdm_choice(&f, &m.uniform_ci(300.0), Some(NodeId(0))),
            NodeId(0)
        );
    }

    #[test]
    fn epdm_scans_the_whole_fleet() {
        // On the three-generation fleet a pure service-time objective
        // picks the newest node, a pure carbon objective the oldest.
        let f = profile("311.compression");
        let fleet = skus::fleet_three_generations();
        let time_only = CostModel::new(fleet.clone(), CarbonModel::default(), 1.0, 0.0, 600_000);
        assert_eq!(
            time_only.epdm_choice(&f, &time_only.uniform_ci(300.0), None),
            NodeId(2)
        );
        let carbon_only = CostModel::new(fleet, CarbonModel::default(), 0.0, 1.0, 600_000);
        assert_eq!(
            carbon_only.epdm_choice(&f, &carbon_only.uniform_ci(300.0), None),
            NodeId(0)
        );
    }

    #[test]
    fn queued_choice_with_zero_backlog_is_the_classic_choice() {
        let m = model();
        let f = profile("311.compression");
        let ci = m.uniform_ci(300.0);
        let zero = vec![0u64; m.fleet().len()];
        assert_eq!(
            m.epdm_choice_queued(&f, &ci, None, &zero),
            m.epdm_choice(&f, &ci, None)
        );
        for l in m.fleet().ids() {
            assert_eq!(m.epdm_score_queued(l, &f, &ci, 0), m.epdm_score(l, &f, &ci));
        }
        // Restriction wins regardless of backlog.
        assert_eq!(
            m.epdm_choice_queued(&f, &ci, Some(NodeId(1)), &[1_000_000, 0]),
            NodeId(1)
        );
    }

    #[test]
    fn backlog_shifts_placement_off_the_saturated_node() {
        let m = model();
        let f = profile("311.compression");
        let ci = m.uniform_ci(300.0);
        let free = m.epdm_choice(&f, &ci, None);
        let other = NodeId(1 - free.0);
        // Pile queueing delay onto the classic winner until the score
        // gap flips: a λs-weighted S_max of backlog always dominates the
        // bounded [0, 1]-ish fscore difference.
        let mut queue = vec![0u64; m.fleet().len()];
        queue[free.index()] = (4.0 * m.s_max(&f)) as u64;
        assert_eq!(m.epdm_choice_queued(&f, &ci, None, &queue), other);
    }

    #[test]
    fn epdm_scan_matches_the_naive_per_node_scan() {
        // The scan hoists `S_max`/`SC_max` out of the per-node loop; each
        // score must still be bit-equal to the per-node `epdm_score`
        // (which recomputes both), and the choice the naive strict-less
        // scan's.
        let naive_choice = |scores: &[f64]| {
            let mut best = 0;
            for l in 1..scores.len() {
                if scores[l] < scores[best] {
                    best = l;
                }
            }
            NodeId(best as u32)
        };
        let catalog = WorkloadCatalog::sebs();
        let fleets = [
            skus::fleet_a(),
            skus::fleet_three_generations(),
            skus::fleet_five_regions(),
        ];
        for fleet in fleets {
            let n = fleet.len();
            let ci_vectors: [Vec<f64>; 4] = [
                vec![300.0; n],
                vec![0.0; n],
                (0..n).map(|i| 40.0 + 97.0 * i as f64).collect(),
                (0..n).map(|i| 900.0 - 61.0 * i as f64).collect(),
            ];
            let queues: [Vec<u64>; 3] = [
                vec![0; n],
                (0..n as u64).map(|i| (i * 7_919) % 20_000).collect(),
                (0..n as u64)
                    .map(|i| if i == 0 { 5_000_000 } else { 0 })
                    .collect(),
            ];
            for (lambda_s, lambda_c) in [(0.5, 0.5), (0.2, 0.8)] {
                let cost = CostModel::new(
                    fleet.clone(),
                    CarbonModel::default(),
                    lambda_s,
                    lambda_c,
                    600_000,
                );
                for ci in &ci_vectors {
                    for (func, f) in catalog.iter() {
                        let naive: Vec<f64> =
                            fleet.ids().map(|l| cost.epdm_score(l, f, ci)).collect();
                        let scan: Vec<f64> = cost.epdm_scores(f, ci, None).collect();
                        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(&scan), bits(&naive), "n={n} f={func} ci={ci:?}");
                        assert_eq!(cost.epdm_choice(f, ci, None), naive_choice(&naive));
                        for q in &queues {
                            let naive: Vec<f64> = fleet
                                .ids()
                                .map(|l| cost.epdm_score_queued(l, f, ci, q[l.index()]))
                                .collect();
                            let scan: Vec<f64> = cost.epdm_scores(f, ci, Some(q)).collect();
                            assert_eq!(bits(&scan), bits(&naive), "n={n} f={func} q={q:?}");
                            assert_eq!(
                                cost.epdm_choice_queued(f, ci, None, q),
                                naive_choice(&naive)
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn tables_keepalive_benefit_is_bit_identical_on_five_regions() {
        use ecolife_carbon::{CiBundle, CiProvider};
        let fleet = skus::fleet_five_regions();
        let cost = CostModel::new(fleet.clone(), CarbonModel::default(), 0.5, 0.5, 600_000);
        let bundle = CiBundle::synthetic_all(120, 17);
        let provider = CiProvider::from_bundle(&bundle, &fleet).unwrap();
        let catalog = WorkloadCatalog::sebs();
        // One table only ever moves its epoch from the engine's snapshot,
        // so every row in it is first built on the overflow path; the
        // other alternates between the provider and the snapshot, and its
        // rows are first built by `decide`-side lookups.
        let mut overflow_only = ObjectiveTables::new(cost.clone());
        let mut mixed = ObjectiveTables::new(cost.clone());
        let minutes = [
            0u64,
            59_999,
            60_000,
            7 * 60_000 + 5,
            42 * 60_000,
            119 * 60_000,
        ];
        for (i, t_ms) in minutes.into_iter().enumerate() {
            let ci_by_node = provider.at_each_node(t_ms);
            overflow_only.refresh_from_snapshot(t_ms, &ci_by_node);
            if i % 2 == 0 {
                mixed.refresh(&provider, t_ms);
            } else {
                mixed.refresh_from_snapshot(t_ms, &ci_by_node);
            }
            assert_eq!(overflow_only.ci_by_node(), &ci_by_node[..]);
            assert_eq!(mixed.ci_by_node(), &ci_by_node[..]);
            for (func, f) in catalog.iter() {
                mixed.epdm_choice(func, f, None);
            }
            for (func, f) in catalog.iter() {
                for l in fleet.ids() {
                    let want = cost.keepalive_benefit(l, f, &ci_by_node);
                    for (name, tables) in
                        [("overflow-only", &mut overflow_only), ("mixed", &mut mixed)]
                    {
                        let got = tables.keepalive_benefit(l, func, f);
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "{name} t={t_ms} f={func} l={l}: {got} vs {want}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tables_reproduce_queued_choice_bit_for_bit() {
        use ecolife_carbon::{CarbonIntensityTrace, CiProvider};
        let fleet = skus::fleet_three_generations();
        let cost = CostModel::new(fleet.clone(), CarbonModel::default(), 0.5, 0.5, 600_000);
        let mut tables = ObjectiveTables::new(cost.clone());
        let ci = CarbonIntensityTrace::synthetic(ecolife_hw::Region::Caiso, 120, 9);
        let provider = CiProvider::shared(&ci, &fleet);
        let catalog = WorkloadCatalog::sebs();
        for (minute, (func, f)) in catalog.iter().enumerate().take(6) {
            let t_ms = minute as u64 * 7 * 60_000;
            tables.refresh(&provider, t_ms);
            let ci_by_node = provider.at_each_node(t_ms);
            for queue in [
                vec![0, 0, 0],
                vec![900, 0, 0],
                vec![0, 40_000, 120_000],
                vec![5_000_000, 5_000_000, 0],
            ] {
                assert_eq!(
                    tables.epdm_choice_queued(func, f, None, &queue),
                    cost.epdm_choice_queued(f, &ci_by_node, None, &queue),
                    "fn {func} queue {queue:?}"
                );
            }
        }
    }

    #[test]
    fn keepalive_on_old_is_cheaper_in_objective_terms_at_high_ci() {
        // For a small CPU-light function at high CI: same expectations,
        // keep-alive on OLD should cost less than on NEW (this is the
        // heart of the multi-generation insight).
        let m = model();
        let f = profile("503.graph-bfs");
        let old = m.expected_objective(
            &f,
            NodeId(0),
            600_000,
            0.8,
            240_000.0,
            &m.uniform_ci(300.0),
            None,
        );
        let new = m.expected_objective(
            &f,
            NodeId(1),
            600_000,
            0.8,
            240_000.0,
            &m.uniform_ci(300.0),
            None,
        );
        assert!(old < new, "old {old} vs new {new}");
    }

    #[test]
    fn keepalive_benefit_positive_for_cold_heavy_function() {
        // image-recognition has a 4 s cold start vs 0.8 s exec: keeping it
        // warm must look valuable.
        let m = model();
        let f = profile("411.image-recognition");
        for l in m.fleet().ids().collect::<Vec<_>>() {
            assert!(m.keepalive_benefit(l, &f, &m.uniform_ci(300.0)) > 0.0);
        }
    }

    #[test]
    fn normalized_terms_are_order_unity() {
        let m = model();
        let f = profile("504.dna-visualization");
        let obj = m.expected_objective(
            &f,
            NodeId(1),
            600_000,
            0.5,
            300_000.0,
            &m.uniform_ci(250.0),
            None,
        );
        assert!(obj > 0.0 && obj < 3.0, "objective {obj} badly scaled");
    }

    #[test]
    fn energy_accessors_positive_and_ordered() {
        let m = model();
        let f = profile("220.video-processing");
        let cold = m.service_energy_kwh(NodeId(1), &f, false);
        let warm = m.service_energy_kwh(NodeId(1), &f, true);
        assert!(cold > warm);
        assert!(m.keepalive_energy_kwh(NodeId(0), &f, 600_000) > 0.0);
    }

    #[test]
    fn tables_reproduce_expected_objective_bit_for_bit() {
        use ecolife_carbon::{CiBundle, CiProvider};
        let bundle = CiBundle::synthetic_all(120, 9);
        let grid: Vec<u64> = (0..=10).collect();
        // Estimates outside [0, 1] and [0, k], residencies that round to
        // zero or sit on a half millisecond: every clamp and rounding
        // branch of `expected_objective`.
        let p_warm = [0.3, -0.2, 0.0, 0.17, 0.5, 1.0, 1.7, 0.99, 0.62, 0.05, 0.875];
        let resident = [
            123.0, -5.0, 0.4, 90_000.5, 200_000.0, 1e9, 150_000.25, 0.0, 420_000.5, 539_999.5,
            600_000.0,
        ];
        let catalog = WorkloadCatalog::sebs();
        let mut landscape = ObjectiveLandscape::default();
        for fleet in [
            skus::fleet_a(),
            skus::fleet_three_generations(),
            skus::fleet_five_regions(),
        ] {
            let n = fleet.len();
            let cost = CostModel::new(fleet.clone(), CarbonModel::default(), 0.5, 0.5, 600_000);
            let mut tables = ObjectiveTables::new(cost.clone());
            let provider = CiProvider::from_bundle(&bundle, &fleet).unwrap();
            for t_ms in [0u64, 30_000, 61_000, 45 * 60_000] {
                tables.refresh(&provider, t_ms);
                let ci_by_node = provider.at_each_node(t_ms);
                assert_eq!(tables.ci_by_node(), &ci_by_node[..]);
                for (func, f) in catalog.iter().take(4) {
                    for restrict in [None, Some(NodeId(1)), Some(NodeId(n as u32 - 1))] {
                        assert_eq!(
                            tables.epdm_choice(func, f, restrict),
                            cost.epdm_choice(f, &ci_by_node, restrict)
                        );
                        let cells: Vec<(NodeId, usize)> = match restrict {
                            Some(l) => vec![l],
                            None => fleet.ids().collect(),
                        }
                        .into_iter()
                        .flat_map(|l| (0..grid.len()).map(move |idx| (l, idx)))
                        .collect();
                        let landscape = tables.landscape(
                            func,
                            f,
                            &grid,
                            p_warm.into_iter().zip(resident),
                            restrict,
                            &mut landscape,
                        );
                        // Every reachable cell twice (computed, then
                        // memoized), in a stride-7 scrambled order.
                        let m = cells.len();
                        assert_ne!(m % 7, 0);
                        for j in 0..2 * m {
                            let (l, idx) = cells[(7 * j + j / m) % m];
                            let want = cost.expected_objective(
                                f,
                                l,
                                grid[idx] * 60_000,
                                p_warm[idx],
                                resident[idx],
                                &ci_by_node,
                                restrict,
                            );
                            let got = landscape.objective(l, idx);
                            assert_eq!(
                                got.to_bits(),
                                want.to_bits(),
                                "n={n} t={t_ms} f={func} l={l} k={}: {got} vs {want}",
                                grid[idx]
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn tables_transfer_ranking_matches_and_memoizes() {
        use ecolife_carbon::{CarbonIntensityTrace, CiProvider};
        let fleet = skus::fleet_three_generations();
        let cost = CostModel::new(fleet.clone(), CarbonModel::default(), 0.5, 0.5, 600_000);
        let mut tables = ObjectiveTables::new(cost.clone());
        let ci = CarbonIntensityTrace::synthetic(ecolife_hw::Region::Texas, 60, 4);
        let provider = CiProvider::shared(&ci, &fleet);
        for t_ms in [10_000u64, 20_000, 70_000] {
            tables.refresh(&provider, t_ms);
            let ci_by_node = provider.at_each_node(t_ms);
            for l in fleet.ids().collect::<Vec<_>>() {
                assert_eq!(
                    tables.transfer_ranking(l),
                    &cost.transfer_ranking(l, &ci_by_node)[..],
                    "t={t_ms} exclude={l}"
                );
            }
        }
    }

    #[test]
    fn transfer_ranking_prefers_cheap_keepalive_nodes() {
        // Two-node fleet: the only candidate is the other node.
        let m = model();
        assert_eq!(
            m.transfer_ranking(NodeId(1), &m.uniform_ci(300.0)),
            vec![NodeId(0)]
        );
        assert_eq!(
            m.transfer_ranking(NodeId(0), &m.uniform_ci(300.0)),
            vec![NodeId(1)]
        );
        // Three nodes: displacements from the newest prefer the oldest
        // (cheapest idle core + embodied attribution), then the mid node.
        let m3 = CostModel::new(
            skus::fleet_three_generations(),
            CarbonModel::default(),
            0.5,
            0.5,
            600_000,
        );
        assert_eq!(
            m3.transfer_ranking(NodeId(2), &m3.uniform_ci(300.0)),
            vec![NodeId(0), NodeId(1)]
        );
    }
}
