//! Parser for the Microsoft Azure Functions 2019 trace schema \[26\].
//!
//! The public dataset ships per-function rows with hashed identifiers and
//! 1440 per-minute invocation counts:
//!
//! ```text
//! HashOwner,HashApp,HashFunction,Trigger,1,2,3,...,1440
//! a1b2...,c3d4...,e5f6...,http,0,2,0,1,...
//! ```
//!
//! plus companion files with per-function duration percentiles and
//! per-app memory percentiles. This module parses the invocation schema,
//! accepts optional `duration_ms`/`memory_mib` columns (our exporter
//! format), and maps every trace function onto the closest SeBS catalog
//! profile by (memory, duration) — the rule the paper states in Sec. V.
//!
//! Per-minute counts are expanded to invocation timestamps spread
//! deterministically within the minute (seeded low-discrepancy offsets),
//! matching how the paper replays the trace in its simulation campaign.

use crate::invocation::{Invocation, Trace};
use crate::loader::TraceLoader;
use crate::workload::WorkloadCatalog;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One parsed trace row before catalog mapping.
#[derive(Debug, Clone, PartialEq)]
pub struct AzureFunctionRow {
    pub owner: String,
    pub app: String,
    pub function: String,
    pub trigger: String,
    /// Invocation counts for each minute of the day covered by the file.
    pub per_minute: Vec<u32>,
    /// Average duration (ms) if the export carries it.
    pub duration_ms: Option<u64>,
    /// Allocated memory (MiB) if the export carries it.
    pub memory_mib: Option<u64>,
}

impl AzureFunctionRow {
    /// Total invocations across the day.
    pub fn total_invocations(&self) -> u64 {
        self.per_minute.iter().map(|&c| c as u64).sum()
    }
}

/// Parse the Azure invocations-per-minute CSV.
///
/// Recognized headers: the four id/trigger columns, then either numeric
/// minute columns (`1`..`1440`) or our extended export that prefixes
/// `duration_ms` and `memory_mib` before the minute columns.
pub fn parse_invocations_csv(text: &str) -> Result<Vec<AzureFunctionRow>, String> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header = lines.next().ok_or("empty trace file")?;
    let cols: Vec<&str> = header.split(',').map(str::trim).collect();
    if cols.len() < 5 {
        return Err(format!("header has only {} columns", cols.len()));
    }
    let lower: Vec<String> = cols.iter().map(|c| c.to_ascii_lowercase()).collect();
    let idx_of = |name: &str| lower.iter().position(|c| c == name);
    let (io, ia, ifn, itr) = (
        idx_of("hashowner").ok_or("missing HashOwner column")?,
        idx_of("hashapp").ok_or("missing HashApp column")?,
        idx_of("hashfunction").ok_or("missing HashFunction column")?,
        idx_of("trigger").ok_or("missing Trigger column")?,
    );
    let idur = idx_of("duration_ms");
    let imem = idx_of("memory_mib");
    // Minute columns are exactly the headers that parse as positive ints.
    let minute_cols: Vec<usize> = cols
        .iter()
        .enumerate()
        .filter(|(_, c)| c.parse::<u32>().map(|v| v >= 1).unwrap_or(false))
        .map(|(i, _)| i)
        .collect();
    if minute_cols.is_empty() {
        return Err("no per-minute count columns found".into());
    }

    let mut rows = Vec::new();
    for (ln, line) in lines.enumerate() {
        let fields: Vec<&str> = line.split(',').map(str::trim).collect();
        if fields.len() != cols.len() {
            return Err(format!(
                "line {}: {} fields, expected {}",
                ln + 2,
                fields.len(),
                cols.len()
            ));
        }
        let parse_u64 = |i: usize| -> Result<u64, String> {
            fields[i]
                .parse::<u64>()
                .map_err(|e| format!("line {}: bad number {:?}: {e}", ln + 2, fields[i]))
        };
        let per_minute = minute_cols
            .iter()
            .map(|&i| {
                fields[i]
                    .parse::<u32>()
                    .map_err(|e| format!("line {}: bad count {:?}: {e}", ln + 2, fields[i]))
            })
            .collect::<Result<Vec<_>, _>>()?;
        rows.push(AzureFunctionRow {
            owner: fields[io].to_string(),
            app: fields[ia].to_string(),
            function: fields[ifn].to_string(),
            trigger: fields[itr].to_string(),
            per_minute,
            duration_ms: idur.map(parse_u64).transpose()?,
            memory_mib: imem.map(parse_u64).transpose()?,
        });
    }
    Ok(rows)
}

/// Expand parsed rows into a [`Trace`] against `catalog`.
///
/// Functions without duration/memory metadata draw defaults typical of
/// the Azure distribution (median duration ≈ 1 s, median memory 170 MiB).
/// Within each minute bucket the `count` invocations are placed at evenly
/// spaced offsets with a seeded jitter, which preserves per-minute counts
/// exactly while avoiding artificial collisions at minute boundaries.
pub fn rows_to_trace(rows: &[AzureFunctionRow], catalog: &WorkloadCatalog, seed: u64) -> Trace {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xA2u64.rotate_left(32));
    // The schema states the total up front (per-minute counts), so the
    // loader's one allocation is exact — a day of Azure traffic expands
    // with zero regrowth and a single end validation.
    let total: u64 = rows.iter().map(|r| r.total_invocations()).sum();
    let mut loader = TraceLoader::with_capacity(total as usize);
    for row in rows {
        let duration = row.duration_ms.unwrap_or(1_000);
        let memory = row.memory_mib.unwrap_or(170);
        let func = catalog.closest_match(memory, duration);
        for (minute, &count) in row.per_minute.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let base = minute as u64 * 60_000;
            let slot = 60_000 / count as u64;
            for j in 0..count as u64 {
                let jitter = rng.gen_range(0..slot.max(1));
                loader.push(Invocation {
                    func,
                    t_ms: base + j * slot + jitter,
                });
            }
        }
    }
    debug_assert_eq!(loader.len(), total as usize);
    loader.finish(catalog.clone())
}

/// Convenience: parse + expand in one call.
pub fn parse_trace(text: &str, catalog: &WorkloadCatalog, seed: u64) -> Result<Trace, String> {
    let rows = parse_invocations_csv(text)?;
    Ok(rows_to_trace(&rows, catalog, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
HashOwner,HashApp,HashFunction,Trigger,duration_ms,memory_mib,1,2,3
o1,a1,f1,http,2000,512,2,0,1
o1,a1,f2,timer,12000,4096,0,1,0
";

    const SAMPLE_NO_META: &str = "\
HashOwner,HashApp,HashFunction,Trigger,1,2
o1,a1,f1,queue,1,3
";

    #[test]
    fn parses_rows_with_metadata() {
        let rows = parse_invocations_csv(SAMPLE).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].per_minute, vec![2, 0, 1]);
        assert_eq!(rows[0].duration_ms, Some(2000));
        assert_eq!(rows[0].memory_mib, Some(512));
        assert_eq!(rows[0].total_invocations(), 3);
        assert_eq!(rows[1].trigger, "timer");
    }

    #[test]
    fn parses_rows_without_metadata() {
        let rows = parse_invocations_csv(SAMPLE_NO_META).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].duration_ms, None);
        assert_eq!(rows[0].total_invocations(), 4);
    }

    #[test]
    fn expansion_preserves_per_minute_counts() {
        let catalog = WorkloadCatalog::sebs();
        let trace = parse_trace(SAMPLE, &catalog, 1).unwrap();
        assert_eq!(trace.len(), 4);
        // Minute buckets: 2 in minute 0, 1 in minute 1, 1 in minute 2.
        let per_min = trace.invocations_per_window(60_000);
        assert_eq!(per_min, vec![2, 1, 1]);
    }

    #[test]
    fn mapping_uses_closest_profile() {
        let catalog = WorkloadCatalog::sebs();
        let trace = parse_trace(SAMPLE, &catalog, 1).unwrap();
        // The 12 s / 4 GiB row must land on dna-visualization.
        let (dna, _) = catalog.by_name("504.dna-visualization").unwrap();
        assert!(trace.invocations().iter().any(|i| i.func == dna));
    }

    #[test]
    fn expansion_is_deterministic_per_seed() {
        let catalog = WorkloadCatalog::sebs();
        let a = parse_trace(SAMPLE, &catalog, 7).unwrap();
        let b = parse_trace(SAMPLE, &catalog, 7).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_missing_columns() {
        assert!(parse_invocations_csv("a,b,c\n1,2,3").is_err());
        assert!(parse_invocations_csv("").is_err());
        let bad = "HashOwner,HashApp,HashFunction,Trigger,1\no1,a1,f1,http";
        assert!(parse_invocations_csv(bad).is_err(), "field count mismatch");
    }

    #[test]
    fn rejects_non_numeric_counts() {
        let bad = "HashOwner,HashApp,HashFunction,Trigger,1\no1,a1,f1,http,x";
        assert!(parse_invocations_csv(bad).is_err());
    }
}
