//! Pricing a cross-node container migration.
//!
//! The replay engine can move a warm container between nodes (warm-pool
//! displacement, the reconciliation pass, the periodic re-placement pass,
//! node drains). Moving state is not free: the image bytes cross the
//! network (egress energy, charged as grams at the **source** region's
//! carbon intensity at transfer time — that is the grid that powers the
//! send side), and the displaced function's next service eats the
//! transfer latency before it can start warm.
//!
//! [`TransferCost::free`] is the default everywhere: zero energy, zero
//! latency. Because every charge site adds `x + 0.0` and every latency
//! site adds `+ 0`, a free-priced run is bit-identical to an engine
//! without the pricing code — the golden traces pin this.

/// Price of moving one warm container between nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferCost {
    /// Network egress energy per MiB moved, in kWh. Grams are derived
    /// at the source region's CI at transfer time.
    pub egress_kwh_per_mib: f64,
    /// Latency added to the displaced function's next service (the
    /// container is unusable while its state is in flight).
    pub latency_ms: u64,
}

impl TransferCost {
    /// The pre-pricing engine: migration costs nothing. Default.
    pub const fn free() -> Self {
        TransferCost {
            egress_kwh_per_mib: 0.0,
            latency_ms: 0,
        }
    }

    /// A representative WAN price: ~0.06 kWh per GB of inter-region
    /// egress (network-transmission intensity estimates commonly land
    /// at 0.01–0.1 kWh/GB) and a 250 ms re-warm penalty.
    pub const fn wan() -> Self {
        TransferCost {
            egress_kwh_per_mib: 0.06 / 1024.0,
            latency_ms: 250,
        }
    }

    /// Whether this is exactly [`TransferCost::free`] — the engine's
    /// fast path back to pre-pricing behavior.
    pub fn is_free(&self) -> bool {
        self.egress_kwh_per_mib == 0.0 && self.latency_ms == 0
    }

    /// Egress energy to move `memory_mib` MiB.
    pub fn energy_kwh(&self, memory_mib: u64) -> f64 {
        self.egress_kwh_per_mib * memory_mib as f64
    }

    /// Egress carbon to move `memory_mib` MiB out of a grid currently
    /// at `source_ci` gCO2/kWh.
    pub fn grams(&self, memory_mib: u64, source_ci: f64) -> f64 {
        self.energy_kwh(memory_mib) * source_ci
    }
}

impl Default for TransferCost {
    fn default() -> Self {
        TransferCost::free()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_is_the_default_and_costs_nothing() {
        let free = TransferCost::default();
        assert!(free.is_free());
        assert_eq!(free.grams(10_240, 400.0), 0.0);
        assert_eq!(free.energy_kwh(10_240), 0.0);
        assert_eq!(free.latency_ms, 0);
    }

    #[test]
    fn priced_grams_scale_with_size_and_source_ci() {
        let cost = TransferCost {
            egress_kwh_per_mib: 1e-4,
            latency_ms: 100,
        };
        assert!(!cost.is_free());
        let g = cost.grams(2048, 400.0);
        assert_eq!(g, 1e-4 * 2048.0 * 400.0);
        // Dirtier source grid ⇒ strictly more egress carbon.
        assert!(cost.grams(2048, 500.0) > g);
        // Bigger container ⇒ strictly more.
        assert!(cost.grams(4096, 400.0) > g);
    }

    #[test]
    fn wan_preset_is_priced() {
        assert!(!TransferCost::wan().is_free());
        assert!(TransferCost::wan().latency_ms > 0);
    }
}
