//! Per-invocation records and run-level aggregates.
//!
//! Every figure in the paper reduces to these quantities: total/average
//! service time, total carbon footprint (service + keep-alive, embodied +
//! operational), per-invocation CDFs (Fig. 8), P95 latency, warm-start
//! rates, and eviction counts (Fig. 11).

use crate::pool::ExpiryStats;
use ecolife_carbon::CarbonFootprint;
use ecolife_hw::{Fleet, NodeId, Region};
use ecolife_trace::FunctionId;

/// Outcome of one invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InvocationRecord {
    pub func: FunctionId,
    /// Arrival time (ms).
    pub t_ms: u64,
    /// The fleet node it executed on.
    pub exec_location: NodeId,
    /// Warm start?
    pub warm: bool,
    /// Service time (ms): queueing (bounded executors only) + setup +
    /// cold start (if any) + execution.
    pub service_ms: u64,
    /// Measured executor queueing delay included in `service_ms`.
    /// Always 0 when bounded executors are off (the fixed
    /// [`SETUP_DELAY_MS`](crate::SETUP_DELAY_MS) then stands in for
    /// queuing).
    pub queue_ms: u64,
    /// Turned away by admission control (bounded executors only): the
    /// invocation never executed, every cost field is zero, and
    /// `exec_location` is the node whose full queue rejected it.
    pub rejected: bool,
    /// Carbon emitted during the service period.
    pub service_carbon: CarbonFootprint,
    /// Carbon emitted keeping the function warm *after* this invocation
    /// (attributed when the container dies or is reused).
    pub keepalive_carbon: CarbonFootprint,
    /// Energy (kWh) over service + keep-alive (Energy-Opt's objective).
    pub energy_kwh: f64,
}

impl InvocationRecord {
    /// The zero-cost record of an invocation turned away before it ran
    /// (its node was down, or its executor queue was full): `exec_location`
    /// is the node that refused it. Such records keep record coverage
    /// total — the sharded hand-over asserts that every invocation pushed
    /// exactly one.
    pub fn rejected(func: FunctionId, t_ms: u64, exec_location: NodeId) -> Self {
        InvocationRecord {
            func,
            t_ms,
            exec_location,
            warm: false,
            service_ms: 0,
            queue_ms: 0,
            rejected: true,
            service_carbon: CarbonFootprint::ZERO,
            keepalive_carbon: CarbonFootprint::ZERO,
            energy_kwh: 0.0,
        }
    }

    /// Total carbon attributed to this invocation (g).
    #[inline]
    pub fn total_carbon_g(&self) -> f64 {
        self.service_carbon.total_g() + self.keepalive_carbon.total_g()
    }
}

/// Aggregates over one simulation run.
#[derive(Debug, Clone, Default)]
pub struct RunMetrics {
    pub records: Vec<InvocationRecord>,
    /// Keep-alives dropped entirely because no pool had room (the paper's
    /// "evicted functions" in Fig. 11).
    pub evicted_functions: u64,
    /// Containers displaced across fleet nodes by warm-pool adjustment.
    pub transfers: u64,
    /// Egress carbon (g) of priced cross-node migrations, charged at
    /// the *source* node's grid CI at transfer time. 0 under the
    /// default [`TransferCost::free`](ecolife_carbon::TransferCost)
    /// pricing.
    pub transfer_g: f64,
    /// Total transfer latency (ms) attached to migrated containers —
    /// each migrated container's next warm start pays its share on top
    /// of the service time.
    pub transfer_ms: u64,
    /// Egress carbon (g) by *source* node (index = `NodeId`): the grid
    /// that powered the send side owns the grams. Sized by the engine
    /// like `keepalive_g_by_node`; empty on a default value.
    pub transfer_g_by_node: Vec<f64>,
    /// Total wall-clock nanoseconds spent inside `Scheduler::decide`
    /// (the decision-making overhead the paper bounds at <0.4% of
    /// service time). `ecolife_core::run_scheme` times its scheduler's
    /// decisions and fills this in; the engine times nothing, so a
    /// plain replay ([`Simulation::run`](crate::Simulation::run),
    /// `run_sharded`, the live service) reports 0.
    pub decision_overhead_ns: u64,
    /// Keep-alive carbon (g) by hosting node (index = `NodeId`). Records
    /// attribute keep-alive to the *scheduling* invocation; this vector
    /// attributes the same grams to the node whose pool hosted the
    /// container, which is what per-node accounting needs when a
    /// transfer moves a container across nodes mid-keep-alive. The
    /// engine sizes it to the fleet; it is empty on a default value.
    pub keepalive_g_by_node: Vec<f64>,
    /// Containers revoked by the sharded engine's reconciliation pass
    /// (optimistic cross-shard admissions rolled back at a period
    /// boundary; each is then transferred or evicted). Always 0 for
    /// sequential runs and whenever shards never contend for a node.
    pub reconcile_revocations: u64,
    /// Per-node peak warm-pool occupancy (MiB) observed *after* each
    /// reconciliation pass (index = `NodeId`). The sharded engine's
    /// capacity guarantee is exactly `ledger_peak_mib[n] <=
    /// keepalive_mem_mib[n]`; empty for sequential runs (whose pools
    /// enforce capacity on every insert).
    pub ledger_peak_mib: Vec<u64>,
    /// Total executor queueing delay (ms) by node whose executor the
    /// wait was measured on (index = `NodeId`). Sized by the engine like
    /// `keepalive_g_by_node`; empty on a default value and all-zero when
    /// bounded executors are off.
    pub queue_ms_by_node: Vec<u64>,
    /// Invocations turned away by admission control (bounded executors
    /// only). Each still pushes a zero-cost [`InvocationRecord`] with
    /// `rejected == true`, so record coverage stays total.
    pub rejected: u64,
    /// Per-node peak executor occupancy (simultaneously occupied slots;
    /// index = `NodeId`). Empty unless bounded executors ran; the
    /// sharded merge takes the elementwise max across shards.
    pub executor_peak_by_node: Vec<u32>,
    /// Expiry-machinery counters summed over every pool the run touched
    /// (`expired` is mode-independent; `timeline_pops`/`stale_pops`
    /// count the timeline's work and the pops that expired nothing,
    /// `scanned` the reference scan's work — see [`ExpiryStats`]). The
    /// pop counts depend on how inserts and sweeps interleave, so a
    /// sharded run may pop a different number of entries than the
    /// sequential run of the same trace while expiring the same
    /// containers.
    pub expiry: ExpiryStats,
    /// Warm-pool MiB lost to ungraceful node crashes
    /// ([`FaultPlan`](crate::FaultPlan)'s `NodeCrash`): the resident set
    /// at each crash instant, settled and
    /// dropped with nothing transferred. 0 without faults.
    pub lost_warm_mib: u64,
    /// Invocations routed to a node that was crashed at arrival time.
    /// Each still pushes a zero-cost [`InvocationRecord`] with
    /// `rejected == true` (the `CrashRejected` event carries the cause).
    pub crash_rejected: u64,
    /// Minutes of last-known-good CI data served to fleet regions under
    /// `CiOutage` faults. Input-derived (outage calendar ∩ horizon), set
    /// once per run — not summed across shards.
    pub stale_ci_minutes: u64,
    /// Invocations placed by the carbon-agnostic fallback because some
    /// fleet region's CI feed was stale past the
    /// [`StalenessPolicy`](ecolife_carbon::StalenessPolicy) bound.
    pub degraded_decisions: u64,
    /// Keep-alive transfer attempts re-probed after a deterministic
    /// virtual-clock backoff because every candidate target was
    /// partitioned away or crashed.
    pub transfer_retries: u64,
}

impl RunMetrics {
    pub fn invocations(&self) -> usize {
        self.records.len()
    }

    pub fn warm_starts(&self) -> usize {
        self.records.iter().filter(|r| r.warm).count()
    }

    pub fn cold_starts(&self) -> usize {
        self.records.len() - self.warm_starts()
    }

    pub fn warm_rate(&self) -> f64 {
        if self.records.is_empty() {
            0.0
        } else {
            self.warm_starts() as f64 / self.records.len() as f64
        }
    }

    /// Sum of service times (ms).
    pub fn total_service_ms(&self) -> u64 {
        self.records.iter().map(|r| r.service_ms).sum()
    }

    /// Sum of measured executor queueing delays (ms) — 0 unless bounded
    /// executors ran and some node saturated.
    pub fn total_queue_ms(&self) -> u64 {
        self.records.iter().map(|r| r.queue_ms).sum()
    }

    /// Mean service time (ms).
    pub fn mean_service_ms(&self) -> f64 {
        if self.records.is_empty() {
            0.0
        } else {
            self.total_service_ms() as f64 / self.records.len() as f64
        }
    }

    /// Total carbon footprint (g): service + keep-alive + migration
    /// egress.
    pub fn total_carbon_g(&self) -> f64 {
        self.records.iter().map(|r| r.total_carbon_g()).sum::<f64>() + self.transfer_g
    }

    /// Total carbon split (operational, embodied).
    pub fn carbon_split(&self) -> CarbonFootprint {
        self.records
            .iter()
            .map(|r| r.service_carbon + r.keepalive_carbon)
            .sum()
    }

    /// Total keep-alive carbon only (Fig. 1's numerator).
    pub fn total_keepalive_carbon_g(&self) -> f64 {
        self.records
            .iter()
            .map(|r| r.keepalive_carbon.total_g())
            .sum()
    }

    /// Total energy (kWh).
    pub fn total_energy_kwh(&self) -> f64 {
        self.records.iter().map(|r| r.energy_kwh).sum()
    }

    /// Service-time percentile (e.g. `0.95` for P95), by nearest-rank.
    pub fn service_percentile_ms(&self, q: f64) -> u64 {
        percentile(
            &mut self
                .records
                .iter()
                .map(|r| r.service_ms)
                .collect::<Vec<_>>(),
            q,
        )
    }

    /// Sorted per-invocation service times — CDF x-axis material (Fig. 8).
    pub fn service_cdf(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.records.iter().map(|r| r.service_ms).collect();
        v.sort_unstable();
        v
    }

    /// Sorted per-invocation carbon totals (g).
    pub fn carbon_cdf(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.records.iter().map(|r| r.total_carbon_g()).collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v
    }

    /// Total carbon (g) by fleet node: each node's hosted keep-alive,
    /// the service carbon of the executions placed on it, and the
    /// egress carbon of migrations it sourced. Sums to
    /// [`RunMetrics::total_carbon_g`]. The vector covers every node the
    /// engine simulated (zero-traffic nodes included).
    pub fn carbon_g_by_node(&self) -> Vec<f64> {
        let n = self
            .records
            .iter()
            .map(|r| r.exec_location.index() + 1)
            .chain([self.keepalive_g_by_node.len()])
            .chain([self.transfer_g_by_node.len()])
            .max()
            .unwrap_or(0);
        let mut by_node = vec![0.0; n];
        by_node[..self.keepalive_g_by_node.len()].copy_from_slice(&self.keepalive_g_by_node);
        for (node, g) in self.transfer_g_by_node.iter().enumerate() {
            by_node[node] += g;
        }
        for r in &self.records {
            by_node[r.exec_location.index()] += r.service_carbon.total_g();
        }
        by_node
    }

    /// Total carbon (g) by grid region of `fleet` — per-node totals
    /// ([`RunMetrics::carbon_g_by_node`]) grouped by each node's
    /// deployment region, in the fleet's first-appearance region order.
    /// This is how one multi-region run reports the paper's Fig. 14
    /// per-region comparison without five separate replays.
    pub fn carbon_g_by_region(&self, fleet: &Fleet) -> Vec<(Region, f64)> {
        let by_node = self.carbon_g_by_node();
        fleet
            .regions()
            .into_iter()
            .map(|r| {
                let total = fleet
                    .nodes_in_region(r)
                    .into_iter()
                    .map(|id| by_node.get(id.index()).copied().unwrap_or(0.0))
                    .sum();
                (r, total)
            })
            .collect()
    }

    /// Decision overhead as a fraction of total service time.
    pub fn decision_overhead_fraction(&self) -> f64 {
        let service_ns = self.total_service_ms() as f64 * 1e6;
        if service_ns == 0.0 {
            0.0
        } else {
            self.decision_overhead_ns as f64 / service_ns
        }
    }
}

/// Nearest-rank percentile of an unsorted slice (sorts in place).
pub fn percentile(values: &mut [u64], q: f64) -> u64 {
    assert!((0.0..=1.0).contains(&q));
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// `(a - b) / b` as a percentage — the "% increase w.r.t. X-Opt" quantity
/// every evaluation figure is plotted in.
pub fn percent_increase(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        100.0 * (a - b) / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(service: u64, warm: bool, carbon: f64, ka: f64) -> InvocationRecord {
        InvocationRecord {
            func: FunctionId(0),
            t_ms: 0,
            exec_location: NodeId(1),
            warm,
            service_ms: service,
            queue_ms: 0,
            rejected: false,
            service_carbon: CarbonFootprint::new(carbon, 0.0),
            keepalive_carbon: CarbonFootprint::new(ka, 0.0),
            energy_kwh: 0.001,
        }
    }

    fn metrics() -> RunMetrics {
        RunMetrics {
            records: vec![
                rec(100, true, 0.1, 0.05),
                rec(300, false, 0.3, 0.0),
                rec(200, true, 0.2, 0.1),
                rec(400, false, 0.4, 0.0),
            ],
            ..Default::default()
        }
    }

    #[test]
    fn aggregate_counts() {
        let m = metrics();
        assert_eq!(m.invocations(), 4);
        assert_eq!(m.warm_starts(), 2);
        assert_eq!(m.cold_starts(), 2);
        assert_eq!(m.warm_rate(), 0.5);
    }

    #[test]
    fn totals() {
        let m = metrics();
        assert_eq!(m.total_service_ms(), 1_000);
        assert_eq!(m.mean_service_ms(), 250.0);
        assert!((m.total_carbon_g() - 1.15).abs() < 1e-12);
        assert!((m.total_keepalive_carbon_g() - 0.15).abs() < 1e-12);
        assert!((m.total_energy_kwh() - 0.004).abs() < 1e-12);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let m = metrics();
        assert_eq!(m.service_percentile_ms(0.5), 200);
        assert_eq!(m.service_percentile_ms(0.95), 400);
        assert_eq!(m.service_percentile_ms(0.0), 100);
        assert_eq!(percentile(&mut [], 0.5), 0);
    }

    #[test]
    fn cdfs_sorted() {
        let m = metrics();
        assert_eq!(m.service_cdf(), vec![100, 200, 300, 400]);
        let cc = m.carbon_cdf();
        assert!(cc.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn percent_increase_basics() {
        assert_eq!(percent_increase(110.0, 100.0), 10.0);
        assert_eq!(percent_increase(100.0, 100.0), 0.0);
        assert_eq!(percent_increase(50.0, 0.0), 0.0);
        assert_eq!(percent_increase(90.0, 100.0), -10.0);
    }

    #[test]
    fn per_node_carbon_sums_to_total() {
        let mut m = metrics();
        // Two-node fleet; all four records executed on node 1, keep-alive
        // split across both nodes (0.05 transferred onto node 0).
        m.keepalive_g_by_node = vec![0.05, 0.10];
        let by_node = m.carbon_g_by_node();
        assert_eq!(by_node.len(), 2);
        assert!((by_node.iter().sum::<f64>() - m.total_carbon_g()).abs() < 1e-12);
        assert!((by_node[0] - 0.05).abs() < 1e-12);
        assert!((by_node[1] - (1.0 + 0.10)).abs() < 1e-12);
    }

    #[test]
    fn priced_transfers_stay_in_the_per_node_sum() {
        let mut m = metrics();
        m.keepalive_g_by_node = vec![0.05, 0.10];
        // Node 0 sourced priced migrations worth 0.02 g of egress.
        m.transfers = 3;
        m.transfer_g = 0.02;
        m.transfer_ms = 750;
        m.transfer_g_by_node = vec![0.02, 0.0];
        let by_node = m.carbon_g_by_node();
        assert!((by_node.iter().sum::<f64>() - m.total_carbon_g()).abs() < 1e-12);
        assert!((by_node[0] - 0.07).abs() < 1e-12);
        assert!((m.total_carbon_g() - 1.17).abs() < 1e-12);
    }

    #[test]
    fn per_region_carbon_groups_nodes() {
        use ecolife_hw::skus;
        let mut m = metrics(); // all executions on node 1
        m.keepalive_g_by_node = vec![0.05, 0.10];
        let fleet = skus::fleet_a()
            .with_region(NodeId(0), Region::Texas)
            .with_region(NodeId(1), Region::NewYork);
        let by_region = m.carbon_g_by_region(&fleet);
        assert_eq!(by_region.len(), 2);
        assert_eq!(by_region[0].0, Region::Texas);
        assert!((by_region[0].1 - 0.05).abs() < 1e-12);
        assert!((by_region[1].1 - 1.10).abs() < 1e-12);
        let total: f64 = by_region.iter().map(|(_, g)| g).sum();
        assert!((total - m.total_carbon_g()).abs() < 1e-12);
    }

    #[test]
    fn overhead_fraction() {
        let mut m = metrics();
        m.decision_overhead_ns = 1_000_000; // 1 ms over 1000 ms service
        assert!((m.decision_overhead_fraction() - 0.001).abs() < 1e-12);
    }

    #[test]
    fn empty_metrics_are_zero() {
        let m = RunMetrics::default();
        assert_eq!(m.mean_service_ms(), 0.0);
        assert_eq!(m.warm_rate(), 0.0);
        assert_eq!(m.service_percentile_ms(0.95), 0);
    }
}
