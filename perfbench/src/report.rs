//! Metric catalogue and the JSON the benchmark prints.
//!
//! Every run prints two lines on stdout: a `report` object with every
//! metric the workload measures under its own name (plus checks and the
//! records digest), then the result object whose `metrics` hold exactly
//! [`END_TO_END`] (untraced runs) or [`PER_LAYER`] (traced runs).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `(name, unit)` of the gated end-to-end metrics; every workload
/// reports every one of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("carbon_mg_per_inv", "mg"),
    ("cold_start_pct", "%"),
];

/// `(name, unit)` of the per-layer metrics of a traced run. A layer a
/// workload does not exercise reads 0; so does a percentile with fewer
/// than ten samples beyond it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.build_ms", "ms"),
    ("carbon.ci_build_ms", "ms"),
    ("sim.ingest_self.count", "count"),
    ("sim.ingest_self.total_ms", "ms"),
    ("sim.ingest_self.p50_ns", "ns"),
    ("sim.ingest_self.p99_ns", "ns"),
    ("sim.finish_ms", "ms"),
    ("sim.seal_ms", "ms"),
    ("sim.decision_overhead_ms", "ms"),
    ("sim.decide_timer_cost_ms", "ms"),
    ("sim.pool.stale_pop_ratio", "ratio"),
    ("sim.pool.transfers", "count"),
    ("sim.pool.evicted", "count"),
    ("sim.pool.transfer_ratio", "ratio"),
    ("sim.shard.wall_ms", "ms"),
    ("sim.shard.imbalance", "ratio"),
    ("sim.shard.sched_busy_max_ms", "ms"),
    ("sim.shard.revocations", "count"),
    ("sim.executor.rejected", "count"),
    ("sim.executor.queue_s", "s"),
    ("sim.faults.degraded_decisions", "count"),
    ("sim.faults.transfer_retries", "count"),
    ("sim.faults.lost_warm_mib", "MiB"),
    ("sim.faults.crash_rejected", "count"),
    ("core.prepare_ms", "ms"),
    ("core.decide.count", "count"),
    ("core.decide.total_ms", "ms"),
    ("core.decide.p50_ns", "ns"),
    ("core.decide.p99_ns", "ns"),
    ("core.overflow.count", "count"),
    ("core.overflow.total_ms", "ms"),
    ("core.overflow.p50_ns", "ns"),
    ("core.overflow.p99_ns", "ns"),
    ("core.observe.total_ms", "ms"),
    ("service.ingest_self.total_ms", "ms"),
    ("service.ingest_self.p50_ns", "ns"),
    ("service.ingest_self.p99_ns", "ns"),
    ("service.lane_wait_ms", "ms"),
    ("service.close_ms", "ms"),
    ("service.generator_late_ms", "ms"),
    ("telemetry.events", "count"),
    ("telemetry.bytes", "B"),
    ("telemetry.emit_ms", "ms"),
    ("planner.search_ms", "ms"),
    ("planner.simulations", "count"),
    ("planner.cache_hits", "count"),
    ("planner.memo_hit_ratio", "ratio"),
    ("planner.ms_per_simulation", "ms"),
    ("probe.wall_ms", "ms"),
    ("probe.untraced_wall_ms", "ms"),
    ("probe.overhead_pct", "%"),
    ("probe.self_sum_pct", "%"),
    ("probe.spans", "count"),
];

fn unit_of(table: &[(&str, &'static str)], name: &str) -> Option<&'static str> {
    table.iter().find(|(n, _)| *n == name).map(|(_, u)| *u)
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Items (invocations, or candidate plans) the timed passes drove.
    pub attempted: u64,
    /// Items in passes whose output check failed.
    pub failed: u64,
    /// `(check, passed)` in the order they ran.
    checks: Vec<(String, bool)>,
    pub digest: u64,
    e2e: BTreeMap<&'static str, f64>,
    /// Workload-specific metrics under their own names: `(value, unit)`.
    named: BTreeMap<String, (f64, &'static str)>,
    layers: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn check(&mut self, name: &str, passed: bool) {
        if !passed {
            eprintln!("perfbench: check failed: {name}");
        }
        self.checks.push((name.to_string(), passed));
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    pub fn e2e(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(END_TO_END, name).is_some(),
            "{name} is not an end-to-end metric"
        );
        self.e2e.insert(name, value);
    }

    pub fn named(&mut self, name: &str, value: f64, unit: &'static str) {
        self.named.insert(name.to_string(), (value, unit));
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(PER_LAYER, name).is_some(),
            "{name} is not a per-layer metric"
        );
        self.layers.insert(name, value);
    }

    /// The `report` line: every metric by name with its unit.
    pub fn report_json(&self, workload: &str, seed: u64, trace: bool) -> String {
        let mut out = format!(
            "{{\"report\": {}, \"seed\": {seed}, \"trace\": {trace}, \"records_digest\": \"{:016x}\", \"checks\": {{",
            quote(workload),
            self.digest
        );
        for (i, (name, ok)) in self.checks.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}{}: {ok}", quote(name));
        }
        out.push_str("}, \"metrics\": {");
        let e2e = self
            .e2e
            .iter()
            .map(|(n, v)| (n.to_string(), *v, unit_of(END_TO_END, n)));
        let named = self
            .named
            .iter()
            .map(|(n, (v, u))| (n.clone(), *v, Some(*u)));
        let layers = self
            .layers
            .iter()
            .map(|(n, v)| (n.to_string(), *v, unit_of(PER_LAYER, n)));
        let all: Vec<_> = e2e.chain(named).chain(layers).collect();
        push_metrics(
            &mut out,
            all.into_iter().map(|(n, v, u)| (n, v, u.unwrap_or(""))),
        );
        out.push_str("}}");
        out
    }

    /// The result line: every end-to-end metric (untraced) or every
    /// per-layer metric (traced).
    pub fn result_json(&self, trace: bool) -> String {
        let metrics: Vec<(String, f64, &str)> = if trace {
            PER_LAYER
                .iter()
                .map(|&(n, u)| (n.to_string(), self.layers.get(n).copied().unwrap_or(0.0), u))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| {
                    let v = *self
                        .e2e
                        .get(n)
                        .unwrap_or_else(|| panic!("workload never measured {n}"));
                    (n.to_string(), v, u)
                })
                .collect()
        };
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        push_metrics(&mut out, metrics.into_iter());
        out.push_str("}}");
        out
    }
}

fn push_metrics<'a>(out: &mut String, metrics: impl Iterator<Item = (String, f64, &'a str)>) {
    for (i, (name, value, unit)) in metrics.enumerate() {
        assert!(value.is_finite(), "{name} = {value} is not a number");
        let sep = if i == 0 { "" } else { ", " };
        // `{:?}` prints the shortest decimal that reads back as the
        // same f64: every digit measured, nothing rounded away.
        let _ = write!(
            out,
            "{sep}{}: {{\"value\": {value:?}, \"unit\": {}}}",
            quote(&name),
            quote(unit)
        );
    }
}

fn quote(s: &str) -> String {
    let mut q = String::with_capacity(s.len() + 2);
    q.push('"');
    for c in s.chars() {
        match c {
            '"' => q.push_str("\\\""),
            '\\' => q.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(q, "\\u{:04x}", c as u32);
            }
            c => q.push(c),
        }
    }
    q.push('"');
    q
}

/// Share (%) of attempted invocations that did not run: admission
/// rejections plus crash rejections, over every invocation attempted
/// (not over those that ran).
pub fn failed_pct(attempted: u64, rejected: u64, crash_rejected: u64) -> f64 {
    if attempted == 0 {
        return 0.0;
    }
    100.0 * (rejected + crash_rejected) as f64 / attempted as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_share_is_counted_against_attempted_invocations() {
        // 1 000 invocations attempted; 30 turned away by admission and
        // 20 bounced off crashed nodes: 5 %, not 50 / 950.
        assert_eq!(failed_pct(1_000, 30, 20), 5.0);
        assert_eq!(failed_pct(0, 0, 0), 0.0);
    }

    #[test]
    fn result_line_holds_exactly_the_catalogue() {
        let mut o = Outcome::default();
        for &(n, _) in END_TO_END {
            o.e2e(n, 1.5);
        }
        o.check("ok", true);
        let line = o.result_json(false);
        for &(n, u) in END_TO_END {
            assert!(line.contains(&format!("\"{n}\": {{\"value\": 1.5, \"unit\": \"{u}\"}}")));
        }
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        let traced = o.result_json(true);
        assert_eq!(traced.matches("\"unit\"").count(), PER_LAYER.len());
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return;
        };
        for &(n, u) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{n}\", \"unit\": \"{u}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            text.matches("\"unit\"").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }
}
