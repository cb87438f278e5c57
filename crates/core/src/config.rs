//! EcoLife configuration.

use ecolife_carbon::TransferCost;
use ecolife_hw::NodeId;
use ecolife_pso::DpsoConfig;
use ecolife_sim::MINUTE_MS;

/// All knobs of the EcoLife scheduler. Defaults reproduce the paper's
/// setup (Sec. V): λs = λc = 0.5, 15 particles, ω ∈ [0.5, 1],
/// c1, c2 ∈ [0.3, 1], keep-alive grid 0–10 minutes.
#[derive(Debug, Clone)]
pub struct EcoLifeConfig {
    /// Service-time weight λs.
    pub lambda_s: f64,
    /// Carbon weight λc.
    pub lambda_c: f64,
    /// Keep-alive period choices, in minutes; must start with 0
    /// ("no keep-alive") and be strictly increasing.
    pub keepalive_grid_min: Vec<u64>,
    /// PSO iterations run per keep-alive decision.
    pub pso_iters: usize,
    /// Dynamic-PSO (adaptive weights + perception–response). Disabling
    /// this is the Fig. 10 ablation ("EcoLife w/o DPSO").
    pub dynamic_pso: bool,
    /// Warm-pool adjustment (priority eviction + cross-pool transfer).
    /// Disabling this is the Fig. 11 ablation.
    pub warm_pool_adjustment: bool,
    /// Restrict to a single fleet node: the fleet's oldest node is
    /// Eco-Old, its newest Eco-New (Fig. 12).
    pub restrict_to: Option<NodeId>,
    /// Price of a cross-node container migration: egress grams at the
    /// source grid plus re-warm latency. Threads into the cost model's
    /// transfer ranking (paying moves ahead of losing ones).
    /// [`TransferCost::free`] by default — rankings, decisions, and
    /// every existing golden are then exactly the unpriced ones.
    pub transfer_cost: TransferCost,
    /// Fold measured per-node executor backlog into EPDM cold
    /// placement (`λs · Q_r / S_max` added to each node's fscore; see
    /// [`ObjectiveTables::epdm_choice_queued`](crate::ObjectiveTables::epdm_choice_queued)).
    /// Only meaningful on runs with bounded executors
    /// (`SimConfig::with_bounded_executors` in `ecolife-sim`) — without
    /// them every queue reads zero and the term vanishes, so decisions
    /// (and all existing goldens) are bit-identical to the classic scan.
    /// Scope: execution placement only; the KDM keep-alive optimization
    /// is untouched.
    pub queue_aware_placement: bool,
    /// Underlying (D)PSO parameters.
    pub dpso: DpsoConfig,
    /// ΔF observation window (ms).
    pub delta_f_window_ms: u64,
    /// Base RNG seed; each function's swarm derives its own.
    pub seed: u64,
}

impl Default for EcoLifeConfig {
    fn default() -> Self {
        EcoLifeConfig {
            lambda_s: 0.5,
            lambda_c: 0.5,
            keepalive_grid_min: (0..=10).collect(),
            pso_iters: 8,
            dynamic_pso: true,
            warm_pool_adjustment: true,
            restrict_to: None,
            transfer_cost: TransferCost::free(),
            queue_aware_placement: false,
            dpso: DpsoConfig::default(),
            delta_f_window_ms: 5 * 60_000,
            seed: 0xEC0_11FE,
        }
    }
}

impl EcoLifeConfig {
    /// Validate invariants; called by the scheduler constructor, so a
    /// bad configuration fails there and not at the first decision.
    pub fn validate(&self) {
        assert!(
            self.lambda_s.is_finite()
                && self.lambda_c.is_finite()
                && self.lambda_s >= 0.0
                && self.lambda_c >= 0.0,
            "optimization weights must be finite and non-negative, got λs = {}, λc = {}",
            self.lambda_s,
            self.lambda_c
        );
        assert!(
            self.lambda_s + self.lambda_c > 0.0,
            "at least one optimization weight must be positive"
        );
        assert!(
            self.keepalive_grid_min.len() >= 2,
            "keep-alive grid needs ≥2 entries"
        );
        assert_eq!(
            self.keepalive_grid_min[0], 0,
            "grid must include the no-keep-alive choice"
        );
        assert!(
            self.keepalive_grid_min.windows(2).all(|w| w[0] < w[1]),
            "grid must be strictly increasing"
        );
        let longest = self.keepalive_grid_min[self.keepalive_grid_min.len() - 1];
        assert!(
            longest.checked_mul(MINUTE_MS).is_some(),
            "keep-alive grid period of {longest} min overflows u64 milliseconds"
        );
        assert!(self.pso_iters > 0);
        self.dpso.validate();
    }

    /// The Fig. 10 ablation variant.
    pub fn without_dynamic_pso(mut self) -> Self {
        self.dynamic_pso = false;
        self
    }

    /// The Fig. 11 ablation variant.
    pub fn without_warm_pool_adjustment(mut self) -> Self {
        self.warm_pool_adjustment = false;
        self
    }

    /// The Fig. 12 single-node variants (pass `Fleet::oldest` or
    /// `Fleet::newest` for Eco-Old / Eco-New).
    pub fn restricted_to(mut self, node: NodeId) -> Self {
        self.restrict_to = Some(node);
        self
    }

    /// Priced cross-node migrations (see
    /// [`EcoLifeConfig::transfer_cost`]).
    pub fn with_transfer_cost(mut self, transfer_cost: TransferCost) -> Self {
        self.transfer_cost = transfer_cost;
        self
    }

    /// Queue-aware EPDM placement (see
    /// [`EcoLifeConfig::queue_aware_placement`]); pair with
    /// `SimConfig::with_bounded_executors` to give the term a signal.
    pub fn with_queue_aware_placement(mut self) -> Self {
        self.queue_aware_placement = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_setup() {
        let c = EcoLifeConfig::default();
        assert_eq!(c.lambda_s, 0.5);
        assert_eq!(c.lambda_c, 0.5);
        assert_eq!(c.keepalive_grid_min, (0..=10).collect::<Vec<_>>());
        assert_eq!(c.dpso.base.n_particles, 15);
        assert!(c.dynamic_pso);
        assert!(c.warm_pool_adjustment);
        c.validate();
    }

    #[test]
    fn ablation_builders() {
        assert!(!EcoLifeConfig::default().without_dynamic_pso().dynamic_pso);
        assert!(
            !EcoLifeConfig::default()
                .without_warm_pool_adjustment()
                .warm_pool_adjustment
        );
        assert_eq!(
            EcoLifeConfig::default()
                .restricted_to(NodeId(0))
                .restrict_to,
            Some(NodeId(0))
        );
        assert_eq!(
            EcoLifeConfig::default()
                .restricted_to(NodeId(2))
                .restrict_to,
            Some(NodeId(2))
        );
    }

    #[test]
    #[should_panic(expected = "no-keep-alive")]
    fn grid_must_start_at_zero() {
        let c = EcoLifeConfig {
            keepalive_grid_min: vec![1, 2, 3],
            ..Default::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn grid_must_increase() {
        let c = EcoLifeConfig {
            keepalive_grid_min: vec![0, 5, 5],
            ..Default::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "overflows u64 milliseconds")]
    fn grid_periods_must_fit_in_milliseconds() {
        let c = EcoLifeConfig {
            keepalive_grid_min: vec![0, 10, u64::MAX / MINUTE_MS + 1],
            ..Default::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "must be finite and non-negative, got λs = NaN")]
    fn nan_optimization_weight_is_rejected() {
        let c = EcoLifeConfig {
            lambda_s: f64::NAN,
            ..Default::default()
        };
        c.validate();
    }
}
