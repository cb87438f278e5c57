//! Sharded cluster state: the types behind
//! [`Simulation::run_sharded`](crate::Simulation::run_sharded).
//!
//! Per-function state (warm containers, scheduler/predictor state) never
//! crosses a `FunctionId` boundary, so the trace is partitioned by
//! function hash into [`shard_of`] shards, each owning one
//! [`Cluster`](crate::Cluster) (a warm pool per fleet node) and one
//! [`RunMetrics`] accumulator, replayed in parallel. The single
//! cross-shard interaction — node memory capacity — is counted once, in
//! those pools:
//!
//! * during a period, every shard admits keep-alives against the other
//!   shards' per-node bytes as they stood at the period's start (set as
//!   each pool's `external_used_mib`), never against live cross-shard
//!   state — so its decisions are a pure function of that share and its
//!   own sub-trace, bit-identical at any thread count;
//! * at each period boundary, after every shard has finished the
//!   period, the coordinator alone runs a deterministic reconciliation
//!   pass — expire lapsed containers, then, on any node over capacity,
//!   revoke optimistically admitted containers (youngest
//!   `warm_since_ms` first, ties broken against the higher
//!   `FunctionId`) and retry them against the remaining nodes in id
//!   order (transfer), else evict — and then sets every pool's external
//!   share from the other shards' post-pass `used_mib`.
//!
//! After every reconciliation, per-node occupancy is at or under
//! capacity ([`RunMetrics::ledger_peak_mib`] records the post-pass
//! peaks). When shards never contend for a node, no revocation happens
//! and the sharded replay is record-for-record identical to the
//! sequential engine.
//!
//! Records leave the shards as the run goes: each shard pushes its
//! records in trace order, and after every period the coordinator moves
//! them into the run's one trace-ordered record vector (a k-way merge
//! over the shards), so a shard holds at most one period of records. A
//! keep-alive that ends after its record has moved is charged through a
//! queue on its shard, which the coordinator applies at the next
//! hand-over in the shard's own order, so every record takes the same
//! float additions as in the sequential run.

use crate::metrics::{InvocationRecord, RunMetrics};
use ecolife_trace::FunctionId;

/// The shard owning `func` when the cluster is split `n_shards` ways.
///
/// The [`splitmix64`](ecolife_trace::splitmix64) output mix of the
/// golden-ratio-offset id: consecutive function ids spread uniformly,
/// and the assignment depends only on `(func, n_shards)` — never on
/// thread count or trace content.
pub fn shard_of(func: FunctionId, n_shards: usize) -> usize {
    assert!(n_shards > 0, "need at least one shard");
    let x = ecolife_trace::splitmix64((func.0 as u64).wrapping_add(0x9E37_79B9_7F4A_7C15));
    (x % n_shards as u64) as usize
}

/// Knobs of a sharded run, built with [`ShardOptions::new`] and the
/// `with_*` setters, each of which rejects a zero.
#[derive(Debug, Clone)]
pub struct ShardOptions {
    /// Number of `FunctionId`-hash shards.
    pub(crate) shards: usize,
    /// Reconciliation period (simulated ms).
    pub(crate) period_ms: u64,
    /// Worker-thread override; `None` inherits the default.
    pub(crate) threads: Option<usize>,
}

impl ShardOptions {
    /// `shards` function-hash shards (`1` degenerates to the sequential
    /// semantics, reconciliation passes included but inert), a one-minute
    /// period and the default thread count.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        ShardOptions {
            shards,
            period_ms: crate::MINUTE_MS,
            threads: None,
        }
    }

    /// Set the reconciliation period (simulated ms): the granularity at
    /// which cross-shard memory pressure becomes visible and
    /// over-capacity nodes are reconciled. Defaults to one minute (the
    /// carbon-intensity resolution).
    pub fn with_period_ms(mut self, period_ms: u64) -> Self {
        assert!(period_ms > 0, "period must be positive");
        self.period_ms = period_ms;
        self
    }

    /// Force the worker-thread count of the shard fan-out; by default it
    /// inherits [`available_parallelism`](std::thread::available_parallelism).
    /// Results are bit-identical at any value — tests pin 1/2/4 workers
    /// to prove it.
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "need at least one worker thread");
        self.threads = Some(threads);
        self
    }
}

/// Merge per-shard metrics into whole-run metrics around `records`, the
/// run's trace-ordered records, which the coordinator took over from the
/// shards at each period barrier (the parts hold none).
///
/// Counters and per-node gram vectors sum in shard-id order
/// (deterministic for a given shard count; the per-record floats are
/// bit-identical across shard counts, the per-node *sums* agree up to
/// float-summation reassociation).
pub(crate) fn merge_metrics(
    records: Vec<InvocationRecord>,
    n_nodes: usize,
    parts: Vec<RunMetrics>,
    ledger_peak_mib: Vec<u64>,
) -> RunMetrics {
    let mut merged = RunMetrics {
        records,
        keepalive_g_by_node: vec![0.0; n_nodes],
        transfer_g_by_node: vec![0.0; n_nodes],
        queue_ms_by_node: vec![0; n_nodes],
        ledger_peak_mib,
        ..RunMetrics::default()
    };
    for part in parts {
        merged.evicted_functions += part.evicted_functions;
        merged.transfers += part.transfers;
        merged.transfer_g += part.transfer_g;
        merged.transfer_ms += part.transfer_ms;
        merged.reconcile_revocations += part.reconcile_revocations;
        merged.rejected += part.rejected;
        merged.expiry.absorb(part.expiry);
        merged.lost_warm_mib += part.lost_warm_mib;
        merged.crash_rejected += part.crash_rejected;
        merged.degraded_decisions += part.degraded_decisions;
        merged.transfer_retries += part.transfer_retries;
        // stale_ci_minutes is not summed: it is input-derived, so
        // `Engine::finish` stamps the same value on every shard, and the
        // coordinator sets it once after the merge.
        for (node, g) in part.keepalive_g_by_node.iter().enumerate() {
            merged.keepalive_g_by_node[node] += g;
        }
        for (node, g) in part.transfer_g_by_node.iter().enumerate() {
            merged.transfer_g_by_node[node] += g;
        }
        for (node, &q) in part.queue_ms_by_node.iter().enumerate() {
            merged.queue_ms_by_node[node] += q;
        }
        // Peaks are shard-local maxima of simultaneously occupied slots;
        // the fleet-level view keeps the elementwise max.
        if merged.executor_peak_by_node.len() < part.executor_peak_by_node.len() {
            merged
                .executor_peak_by_node
                .resize(part.executor_peak_by_node.len(), 0);
        }
        for (node, &p) in part.executor_peak_by_node.iter().enumerate() {
            merged.executor_peak_by_node[node] = merged.executor_peak_by_node[node].max(p);
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_assignment_is_stable_and_in_range() {
        for n in [1usize, 2, 3, 8] {
            for f in 0..1_000u32 {
                let s = shard_of(FunctionId(f), n);
                assert!(s < n);
                assert_eq!(s, shard_of(FunctionId(f), n));
            }
        }
    }

    #[test]
    fn shard_assignment_spreads_consecutive_ids() {
        let n = 8;
        let mut counts = vec![0usize; n];
        for f in 0..10_000u32 {
            counts[shard_of(FunctionId(f), n)] += 1;
        }
        // Uniform would be 1250 per shard; demand every shard lands
        // within ±30% — consecutive ids must not clump.
        for (s, &c) in counts.iter().enumerate() {
            assert!((875..=1625).contains(&c), "shard {s} got {c} of 10000");
        }
    }

    #[test]
    fn single_shard_owns_everything() {
        for f in 0..100u32 {
            assert_eq!(shard_of(FunctionId(f), 1), 0);
        }
    }

    #[test]
    fn options_builders_validate() {
        let o = ShardOptions::new(4).with_period_ms(30_000).with_threads(2);
        assert_eq!(o.shards, 4);
        assert_eq!(o.period_ms, 30_000);
        assert_eq!(o.threads, Some(2));
        assert_eq!(ShardOptions::new(1).period_ms, crate::MINUTE_MS);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        ShardOptions::new(0);
    }
}
