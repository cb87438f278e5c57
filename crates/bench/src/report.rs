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

/// `git describe --always` of the working tree, stamped by [`stamp`],
/// or `"unknown"` when git (or the repo) is unavailable — bench numbers
/// should name the revision they were measured at.
fn git_describe() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
    };
    let Some(rev) = git(&["describe", "--always"])
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
    else {
        return "unknown".to_string();
    };
    match git(&["status", "--porcelain", "--untracked-files=no"]) {
        Some(status) => stamp(&rev, &status),
        // A tree whose state cannot be read is not known to be clean.
        None => format!("{rev}-dirty"),
    }
}

/// `rev`, with `-dirty` appended when `porcelain` (`git status
/// --porcelain` output) lists a tracked change outside the `BENCH_*.json`
/// reports at the repository root. A bench rewrites its report, so a
/// second bench run after the first must not count that as a dirty
/// tree. Untracked files (`??`) never count, as with `git describe
/// --dirty`.
fn stamp(rev: &str, porcelain: &str) -> String {
    let is_report = |path: &str| {
        path.strip_prefix("BENCH_")
            .and_then(|rest| rest.strip_suffix(".json"))
            .is_some_and(|name| !name.is_empty() && !name.contains(['/', '"']))
    };
    let dirty = porcelain
        .lines()
        .filter(|line| !line.starts_with("??"))
        // `XY path`, or `XY from -> to` for a rename.
        .any(|line| {
            line.get(3..)
                .unwrap_or("")
                .split(" -> ")
                .any(|p| !is_report(p))
        });
    if dirty {
        format!("{rev}-dirty")
    } else {
        rev.to_string()
    }
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
    fn only_changes_outside_the_bench_reports_stamp_dirty() {
        let clean = [
            "",
            " M BENCH_sim.json\n",
            " M BENCH_sim.json\n M BENCH_planner.json\n",
            "R  BENCH_old.json -> BENCH_new.json\n",
            "?? notes.txt\n M BENCH_service.json\n",
        ];
        for status in clean {
            assert_eq!(stamp("abc1234", status), "abc1234", "{status:?}");
        }
        let dirty = [
            " M crates/sim/src/engine.rs\n",
            " M BENCH_sim.json\n M README.md\n",
            "MM Cargo.lock\n",
            "D  BENCH_sim.md\n",
            " M perfbench/BENCH_sim.json\n",
            " M BENCH_.json\n",
            "R  engine.rs -> BENCH_sim.json\n",
            " M \"BENCH_a\\tb.json\"\n",
        ];
        for status in dirty {
            assert_eq!(stamp("abc1234", status), "abc1234-dirty", "{status:?}");
        }
    }

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
