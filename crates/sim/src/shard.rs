//! Sharded cluster state: the types behind
//! [`Simulation::run_sharded`](crate::Simulation::run_sharded).
//!
//! Per-function state (warm containers, scheduler/predictor state) never
//! crosses a `FunctionId` boundary, so the trace is partitioned by
//! function hash into [`shard_of`] shards, each owning one
//! [`Cluster`](crate::Cluster) (a warm pool per fleet node) and one
//! [`RunMetrics`] accumulator, replayed in parallel. The single
//! cross-shard interaction — node memory capacity — goes through the
//! [`MemoryLedger`]:
//!
//! * during a period, every shard admits keep-alives against a
//!   *start-of-period snapshot* of the other shards' per-node bytes (set
//!   as each pool's `external_used_mib`), never against live cross-shard
//!   state — so its decisions are a pure function of the snapshot and
//!   its own sub-trace, bit-identical at any thread count;
//! * at each period boundary the coordinator runs a deterministic
//!   reconciliation pass — expire lapsed containers, then, on any node
//!   over capacity, revoke optimistically admitted containers (youngest
//!   `warm_since_ms` first, ties broken against the higher
//!   `FunctionId`) and retry them against the remaining nodes in id
//!   order (transfer), else evict — and publishes every shard's
//!   post-pass usage into the ledger's atomic cells, from which all
//!   workers then read their snapshots concurrently.
//!
//! After every reconciliation, per-node occupancy is at or under
//! capacity ([`RunMetrics::ledger_peak_mib`] records the post-pass
//! peaks). When shards never contend for a node, no revocation happens
//! and the sharded replay is record-for-record identical to the
//! sequential engine.

use crate::metrics::{InvocationRecord, RunMetrics};
use ecolife_carbon::CarbonFootprint;
use ecolife_hw::NodeId;
use ecolife_trace::FunctionId;
use std::sync::atomic::{AtomicU64, Ordering};

/// The shard owning `func` when the cluster is split `n_shards` ways.
///
/// The [`splitmix64`](ecolife_trace::splitmix64) finalizer over the
/// golden-ratio-offset id: consecutive function ids spread uniformly,
/// and the assignment depends only on `(func, n_shards)` — never on
/// thread count or trace content.
pub fn shard_of(func: FunctionId, n_shards: usize) -> usize {
    assert!(n_shards > 0, "need at least one shard");
    let x = ecolife_trace::splitmix64((func.0 as u64).wrapping_add(0x9E37_79B9_7F4A_7C15));
    (x % n_shards as u64) as usize
}

/// Knobs of a sharded run.
#[derive(Debug, Clone)]
pub struct ShardOptions {
    /// Number of `FunctionId`-hash shards (≥ 1; `1` degenerates to the
    /// sequential semantics, reconciliation passes included but inert).
    pub shards: usize,
    /// Reconciliation period (simulated ms): the granularity at which
    /// cross-shard memory pressure becomes visible and over-capacity
    /// nodes are reconciled. Defaults to one minute (the carbon-intensity
    /// resolution).
    pub period_ms: u64,
    /// Worker-thread override for the shard fan-out; `None` inherits
    /// [`available_parallelism`](std::thread::available_parallelism).
    /// Results are bit-identical at any value — tests pin 1/2/4 workers
    /// to prove it.
    pub threads: Option<usize>,
}

impl ShardOptions {
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        ShardOptions {
            shards,
            period_ms: crate::MINUTE_MS,
            threads: None,
        }
    }

    pub fn with_period_ms(mut self, period_ms: u64) -> Self {
        assert!(period_ms > 0, "period must be positive");
        self.period_ms = period_ms;
        self
    }

    /// Force the worker-thread count (see [`ShardOptions::threads`]).
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "need at least one worker thread");
        self.threads = Some(threads);
        self
    }
}

/// Lock-free per-`NodeId` memory accounting across shards.
///
/// One atomic cell per `(shard, node)`. The coordinator stores every
/// shard's post-reconciliation usage between periods (single writer,
/// workers parked); all worker threads then load their cross-shard
/// snapshots concurrently at the start of the period. Relaxed ordering
/// suffices: the spawn/join edges of the period's thread scope order
/// the stores before every load, so the values read are deterministic.
pub(crate) struct MemoryLedger {
    n_nodes: usize,
    cells: Vec<AtomicU64>,
}

impl MemoryLedger {
    pub(crate) fn new(n_shards: usize, n_nodes: usize) -> Self {
        MemoryLedger {
            n_nodes,
            cells: (0..n_shards * n_nodes).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Publish `shard`'s current per-node usage as a full snapshot. The
    /// engine now maintains the cells incrementally via
    /// [`MemoryLedger::adjust`]; the snapshot form remains as the test
    /// reference the deltas are checked against.
    #[cfg(test)]
    pub(crate) fn publish(&self, shard: usize, used_mib_by_node: &[u64]) {
        debug_assert_eq!(used_mib_by_node.len(), self.n_nodes);
        for (node, &used) in used_mib_by_node.iter().enumerate() {
            self.cells[shard * self.n_nodes + node].store(used, Ordering::Relaxed);
        }
    }

    /// Apply a signed occupancy delta to `(shard, node)` — the batched
    /// form of [`MemoryLedger::publish`]: instead of re-snapshotting
    /// every pool each period, the coordinator applies each pool's
    /// accumulated net change
    /// ([`WarmPool::take_period_delta_mib`](crate::WarmPool::take_period_delta_mib))
    /// in one pass. Coordinator-only (single writer, workers parked).
    pub(crate) fn adjust(&self, shard: usize, node: NodeId, delta_mib: i64) {
        if delta_mib == 0 {
            return;
        }
        let cell = &self.cells[shard * self.n_nodes + node.index()];
        let current = cell.load(Ordering::Relaxed);
        let next = current
            .checked_add_signed(delta_mib)
            .expect("ledger cell under/overflow: delta disagrees with published usage");
        cell.store(next, Ordering::Relaxed);
    }

    /// The published usage of `(shard, node)` — for asserting the
    /// delta-maintained cells against the pools' ground truth.
    #[cfg(debug_assertions)]
    pub(crate) fn cell_mib(&self, shard: usize, node: NodeId) -> u64 {
        self.cells[shard * self.n_nodes + node.index()].load(Ordering::Relaxed)
    }

    /// Total bytes on `node` across all shards.
    pub(crate) fn total_mib(&self, node: NodeId) -> u64 {
        self.cells
            .iter()
            .skip(node.index())
            .step_by(self.n_nodes)
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Bytes on `node` held by shards other than `shard` — the external
    /// pressure snapshot a shard's pools admit against for one period.
    pub(crate) fn external_mib(&self, shard: usize, node: NodeId) -> u64 {
        self.total_mib(node)
            - self.cells[shard * self.n_nodes + node.index()].load(Ordering::Relaxed)
    }
}

/// Merge per-shard metrics into whole-run metrics.
///
/// Records scatter back to their global trace positions; counters and
/// per-node gram vectors sum in shard-id order (deterministic for a
/// given shard count; the per-record floats are bit-identical across
/// shard counts, the per-node *sums* agree up to float-summation
/// reassociation).
pub(crate) fn merge_metrics(
    total_records: usize,
    n_nodes: usize,
    parts: Vec<(Vec<usize>, RunMetrics)>,
    ledger_peak_mib: Vec<u64>,
) -> RunMetrics {
    let placeholder = InvocationRecord {
        func: FunctionId(0),
        t_ms: 0,
        exec_location: NodeId(0),
        warm: false,
        service_ms: 0,
        queue_ms: 0,
        rejected: false,
        service_carbon: CarbonFootprint::ZERO,
        keepalive_carbon: CarbonFootprint::ZERO,
        energy_kwh: 0.0,
    };
    let mut merged = RunMetrics {
        records: vec![placeholder; total_records],
        keepalive_g_by_node: vec![0.0; n_nodes],
        transfer_g_by_node: vec![0.0; n_nodes],
        queue_ms_by_node: vec![0; n_nodes],
        ledger_peak_mib,
        ..RunMetrics::default()
    };
    let mut placed = 0usize;
    for (global_indices, part) in parts {
        debug_assert_eq!(global_indices.len(), part.records.len());
        for (local, record) in part.records.into_iter().enumerate() {
            merged.records[global_indices[local]] = record;
            placed += 1;
        }
        merged.evicted_functions += part.evicted_functions;
        merged.transfers += part.transfers;
        merged.transfer_g += part.transfer_g;
        merged.transfer_ms += part.transfer_ms;
        merged.decision_overhead_ns += part.decision_overhead_ns;
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
    assert_eq!(
        placed, total_records,
        "shard partition must cover every invocation exactly once"
    );
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
    fn ledger_totals_and_external_views() {
        let ledger = MemoryLedger::new(3, 2);
        ledger.publish(0, &[100, 10]);
        ledger.publish(1, &[200, 20]);
        ledger.publish(2, &[300, 30]);
        assert_eq!(ledger.total_mib(NodeId(0)), 600);
        assert_eq!(ledger.total_mib(NodeId(1)), 60);
        assert_eq!(ledger.external_mib(1, NodeId(0)), 400);
        assert_eq!(ledger.external_mib(2, NodeId(1)), 30);
        // Re-publishing overwrites (it is a snapshot, not an increment).
        ledger.publish(1, &[0, 0]);
        assert_eq!(ledger.total_mib(NodeId(0)), 400);
    }

    #[test]
    fn ledger_adjust_is_incremental_publish() {
        let ledger = MemoryLedger::new(2, 2);
        ledger.publish(0, &[100, 10]);
        ledger.adjust(0, NodeId(0), 50);
        ledger.adjust(0, NodeId(1), -10);
        ledger.adjust(1, NodeId(0), 7);
        ledger.adjust(1, NodeId(1), 0); // no-op
        assert_eq!(ledger.total_mib(NodeId(0)), 157);
        assert_eq!(ledger.total_mib(NodeId(1)), 0);
        assert_eq!(ledger.external_mib(1, NodeId(0)), 150);
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
