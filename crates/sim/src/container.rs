//! A warm (kept-alive) container resident in a pool.

use ecolife_trace::FunctionId;

/// One function image held warm in a node's memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarmContainer {
    /// The function this container serves.
    pub func: FunctionId,
    /// Resident memory footprint (MiB) — charged against the pool budget
    /// and used for the DRAM share in the carbon model.
    pub memory_mib: u64,
    /// When the container became warm (end of its creating invocation's
    /// service period).
    pub warm_since_ms: u64,
    /// When the keep-alive period lapses and the container is reclaimed.
    pub expiry_ms: u64,
    /// Index of the invocation record that scheduled this keep-alive —
    /// its keep-alive carbon is attributed there.
    pub origin_record: usize,
    /// Latency debt from priced migrations: every transfer this
    /// container survived adds
    /// [`TransferCost::latency_ms`](ecolife_carbon::TransferCost::latency_ms),
    /// and the next warm start pays it on top of its service time. 0 for
    /// fresh containers and under free transfer pricing.
    pub transfer_latency_ms: u64,
}

impl WarmContainer {
    /// Keep-alive duration actually consumed if the container dies (or is
    /// reused) at `end_ms`.
    #[inline]
    pub fn resident_ms(&self, end_ms: u64) -> u64 {
        end_ms
            .min(self.expiry_ms)
            .saturating_sub(self.warm_since_ms)
    }

    /// Whether the container can serve a warm start at `t_ms`: it must
    /// already be warm and not yet expired.
    #[inline]
    pub fn is_warm_at(&self, t_ms: u64) -> bool {
        self.warm_since_ms <= t_ms && t_ms < self.expiry_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c() -> WarmContainer {
        WarmContainer {
            func: FunctionId(0),
            memory_mib: 256,
            warm_since_ms: 1_000,
            expiry_ms: 61_000,
            origin_record: 0,
            transfer_latency_ms: 0,
        }
    }

    #[test]
    fn resident_clamps_to_expiry() {
        assert_eq!(c().resident_ms(31_000), 30_000);
        assert_eq!(c().resident_ms(100_000), 60_000);
        assert_eq!(c().resident_ms(500), 0);
    }

    #[test]
    fn warm_window_is_half_open() {
        let c = c();
        assert!(!c.is_warm_at(999));
        assert!(c.is_warm_at(1_000));
        assert!(c.is_warm_at(60_999));
        assert!(!c.is_warm_at(61_000));
    }
}
