//! The one `BENCH_*.json` writer.
//!
//! Every headline bench (`sim_sharded`, `planner_fitness`,
//! `service_soak`) records its numbers in a `BENCH_*.json` at the
//! repo root. Each used to hand-roll its own `format!` blob; this
//! module is the single shared writer, so every file carries the same
//! header block — bench name, host CPU count, the git revision the
//! numbers were measured at, the workload seed, and the trace size —
//! followed by the bench's own rows in insertion order.

use std::fmt::Write as _;

/// An ordered JSON object under construction: a fixed header block,
/// then whatever rows the bench appends.
pub struct BenchJson {
    fields: Vec<(String, String)>,
}

/// `git describe --always --dirty` of the working tree, or `"unknown"`
/// when git (or the repo) is unavailable — bench numbers should name
/// the revision they were measured at.
fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

impl BenchJson {
    /// Start a report with the shared header block.
    pub fn new(bench: &str, seed: u64, trace_invocations: usize) -> Self {
        let host_cpus = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        let mut report = BenchJson { fields: Vec::new() };
        report.text("bench", bench);
        report.text("git", &git_describe());
        report.int("host_cpus", host_cpus as u64);
        report.int("seed", seed);
        report.int("trace_invocations", trace_invocations as u64);
        report
    }

    pub fn int(&mut self, key: &str, value: u64) -> &mut Self {
        self.push(key, value.to_string())
    }

    /// A float rounded to `decimals` places — the precision each row
    /// was historically quoted at (0 for wall-clock ms, 2 for
    /// speedups, …).
    pub fn float(&mut self, key: &str, value: f64, decimals: usize) -> &mut Self {
        self.push(key, format!("{value:.decimals$}"))
    }

    pub fn text(&mut self, key: &str, value: &str) -> &mut Self {
        let mut escaped = String::with_capacity(value.len() + 2);
        escaped.push('"');
        for c in value.chars() {
            match c {
                '"' => escaped.push_str("\\\""),
                '\\' => escaped.push_str("\\\\"),
                '\n' => escaped.push_str("\\n"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(escaped, "\\u{:04x}", c as u32);
                }
                c => escaped.push(c),
            }
        }
        escaped.push('"');
        self.push(key, escaped)
    }

    fn push(&mut self, key: &str, rendered: String) -> &mut Self {
        debug_assert!(
            self.fields.iter().all(|(k, _)| k != key),
            "duplicate bench field '{key}'"
        );
        self.fields.push((key.to_string(), rendered));
        self
    }

    /// The pretty-printed object, fields in insertion order.
    pub fn render(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (key, value)) in self.fields.iter().enumerate() {
            let comma = if i + 1 < self.fields.len() { "," } else { "" };
            let _ = writeln!(out, "  \"{key}\": {value}{comma}");
        }
        out.push_str("}\n");
        out
    }

    /// Write `BENCH_<file>` at the repository root and echo it to
    /// stdout (the bench logs double as the measurement record).
    pub fn write(&self, file_name: &str) {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(file_name);
        let json = self.render();
        std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("wrote {}:\n{json}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_then_rows_in_order() {
        let mut r = BenchJson::new("demo", 41, 123);
        r.float("engine_ms", 465.4, 0)
            .float("speedup", 8.666, 2)
            .text("note", "a \"quoted\" note\nwith a newline");
        let json = r.render();
        let keys: Vec<&str> = json
            .lines()
            .filter_map(|l| l.trim().strip_prefix('"'))
            .filter_map(|l| l.split('"').next())
            .collect();
        assert_eq!(
            keys,
            [
                "bench",
                "git",
                "host_cpus",
                "seed",
                "trace_invocations",
                "engine_ms",
                "speedup",
                "note"
            ]
        );
        assert!(json.contains("\"engine_ms\": 465\n") || json.contains("\"engine_ms\": 465,"));
        assert!(json.contains("\"speedup\": 8.67"));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\\n"));
        assert!(json.trim_end().ends_with('}'));
    }
}
