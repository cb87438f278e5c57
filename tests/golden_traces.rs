//! In-process pin of `tests/golden/`: every golden workload, re-run
//! here, must reproduce its checked-in stream byte for byte. The CI
//! `golden-traces` job runs the same comparison out of process (release
//! build, `golden_traces check` + `ecolife-trace verify`); this test
//! keeps the pin inside plain `cargo test`.

use ecolife::golden::{run_golden, snapshot, GOLDEN_WORKLOADS};
use ecolife::telemetry::{first_divergence, verify_lines, GoldenSnapshot};
use std::path::{Path, PathBuf};

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

#[test]
fn golden_workloads_reproduce_their_checked_in_streams() {
    for name in GOLDEN_WORKLOADS {
        let sink = run_golden(name);
        let snap = snapshot(name, &sink);

        let baseline = GoldenSnapshot::parse(
            &std::fs::read_to_string(golden_dir().join(format!("{name}.golden")))
                .unwrap_or_else(|e| panic!("{name}.golden unreadable: {e}")),
        )
        .expect("golden parses");
        assert_eq!(baseline.workload, name);

        let jsonl = std::fs::read_to_string(golden_dir().join(format!("{name}.jsonl")))
            .unwrap_or_else(|e| panic!("{name}.jsonl unreadable: {e}"));
        let want: Vec<&str> = jsonl.lines().collect();

        if let Some(div) = first_divergence(&want, &sink.lines()) {
            panic!("{name} drifted from its golden baseline:\n{div}");
        }
        assert_eq!(snap.events, baseline.events, "{name}: event count moved");
        assert_eq!(snap.tip, baseline.tip, "{name}: chain tip moved");

        // The checked-in stream itself is a valid chain whose tip is
        // the one the .golden pins.
        let summary = verify_lines(want.iter().copied()).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(baseline.matches(&summary));
    }
}
