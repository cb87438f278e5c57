//! Emit or check the repository's golden traces (`tests/golden/`).
//!
//! ```text
//! golden_traces emit    # regenerate every <name>.jsonl + <name>.golden
//! golden_traces check   # re-run each workload, diff against baselines
//! ```
//!
//! `check` exits non-zero on any drift and prints the **first divergent
//! event** of each drifted stream — this is what the CI `golden-traces`
//! job runs. After an *intentional* behavior change, re-run `emit` and
//! commit the updated baselines with the change that caused them.

use ecolife::golden::{run_golden, snapshot, GOLDEN_WORKLOADS};
use ecolife::telemetry::{first_divergence, pretty, GoldenSnapshot};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn emit() -> ExitCode {
    let dir = golden_dir();
    std::fs::create_dir_all(&dir).expect("create tests/golden");
    for name in GOLDEN_WORKLOADS {
        let sink = run_golden(name);
        let snap = snapshot(name, &sink);
        std::fs::write(dir.join(format!("{name}.jsonl")), sink.to_jsonl()).expect("write stream");
        std::fs::write(dir.join(format!("{name}.golden")), snap.render()).expect("write golden");
        println!("emitted {name}: {} events, tip {}", snap.events, snap.tip);
    }
    ExitCode::SUCCESS
}

fn check() -> ExitCode {
    let dir = golden_dir();
    let mut drifted = false;
    for name in GOLDEN_WORKLOADS {
        let sink = run_golden(name);
        let snap = snapshot(name, &sink);

        let golden_path = dir.join(format!("{name}.golden"));
        let baseline = match std::fs::read_to_string(&golden_path) {
            Ok(text) => GoldenSnapshot::parse(&text).expect("parse checked-in golden"),
            Err(e) => {
                eprintln!("{name}: cannot read {}: {e}", golden_path.display());
                drifted = true;
                continue;
            }
        };
        let jsonl = std::fs::read_to_string(dir.join(format!("{name}.jsonl")))
            .expect("read checked-in stream");
        let want: Vec<&str> = jsonl.lines().collect();
        let got = sink.lines();

        if snap.events == baseline.events && snap.tip == baseline.tip && got == want {
            println!("ok: {name} ({} events, tip {})", snap.events, snap.tip);
            continue;
        }
        drifted = true;
        eprintln!(
            "DRIFT: {name} — baseline {} events tip {}, got {} events tip {}",
            baseline.events, baseline.tip, snap.events, snap.tip
        );
        match first_divergence(&want, &got) {
            Some(div) => {
                eprintln!("{div}");
                if let Some(ref line) = div.left {
                    eprintln!("baseline event:\n{}", pretty(line));
                }
                if let Some(ref line) = div.right {
                    eprintln!("current event:\n{}", pretty(line));
                }
            }
            // Same lines but a stale .golden summary: still a failure —
            // the two baseline files must move together.
            None => eprintln!("streams match; {name}.golden is stale — re-run emit"),
        }
    }
    if drifted {
        eprintln!("\ngolden traces drifted. If intentional: cargo run --release --bin golden_traces -- emit");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    match std::env::args().nth(1).as_deref() {
        Some("emit") => emit(),
        Some("check") => check(),
        _ => {
            eprintln!("usage: golden_traces <emit|check>");
            ExitCode::from(64)
        }
    }
}
