//! End-to-end tests for the `ecolife-trace` binary's `tail --follow`
//! mode: spawn the real executable against a JSONL file that grows
//! under it, and pin the three exits — clean at `RunEnded`, idle after
//! `--max-polls`, and non-zero the moment the hash chain breaks.

use ecolife_telemetry::{lane, CaptureSink, Chain, Event, EventKey, TRACE_VERSION};
use std::io::Write;
use std::process::{Command, Stdio};

/// `events`, sorted by key and sealed as one chain, as lines.
fn sealed_lines(mut events: Vec<(EventKey, Event)>) -> Vec<String> {
    events.sort_unstable_by_key(|(key, _)| *key);
    let mut sink = CaptureSink::default();
    let mut chain = Chain::new();
    chain.seal(&mut events, &mut sink);
    chain.finish(&mut sink);
    sink.lines().iter().map(|l| l.to_string()).collect()
}

/// A short, fully valid hash-chained stream.
fn chained_lines() -> Vec<String> {
    let events = vec![
        (
            EventKey::new(0, lane::RUN_STARTED, 0, 0),
            Event::RunStarted {
                functions: 1,
                nodes: 1,
                trace_version: TRACE_VERSION,
            },
        ),
        (
            EventKey::new(0, lane::PERIOD_STARTED, 0, 0),
            Event::PeriodStarted { minute: 0 },
        ),
        (
            EventKey::new(0, lane::CI_OBSERVED, 0, 0),
            Event::CiObserved {
                region: "CAL".to_string(),
                t_ms: 0,
                gco2_per_kwh: 250.0,
            },
        ),
        (
            EventKey::new(2, lane::RUN_ENDED, 0, 0),
            Event::RunEnded {
                invocations: 2,
                transfers: 0,
                evictions: 0,
                revocations: 0,
                expired: 0,
                horizon_ms: 60_000,
            },
        ),
    ];
    sealed_lines(events)
}

fn scratch_path(tag: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("ecolife-trace-{tag}-{}.jsonl", std::process::id()));
    p
}

fn follow_cmd(path: &std::path::Path, extra: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ecolife-trace"));
    cmd.arg("tail")
        .arg(path)
        .args(["--follow", "--poll-ms", "10"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    cmd
}

/// A valid hash-chained stream that exercises every fault event type:
/// a crash with a rejected invocation, a stale→restored CI feed, a
/// partition with a retried transfer, then recovery.
fn chaos_lines() -> Vec<String> {
    let events = vec![
        (
            EventKey::new(0, lane::RUN_STARTED, 0, 0),
            Event::RunStarted {
                functions: 1,
                nodes: 2,
                trace_version: TRACE_VERSION,
            },
        ),
        (
            EventKey::new(0, lane::CI_HEALTH, 0, 0),
            Event::CiStale {
                region: "TEN".to_string(),
                t_ms: 0,
                until_ms: 90_000,
            },
        ),
        (
            EventKey::new(0, lane::CRASH, 1, 0),
            Event::NodeCrashed {
                node: 1,
                t_ms: 10_000,
                recover_ms: 70_000,
            },
        ),
        (
            EventKey::new(0, lane::PARTITION, 0, 0),
            Event::PartitionStarted {
                regions: "TEN".to_string(),
                t_ms: 20_000,
                until_ms: 80_000,
            },
        ),
        (
            EventKey::new(0, lane::INVOCATION, 0, 0),
            Event::CrashRejected {
                index: 0,
                func: 3,
                node: 1,
                t_ms: 30_000,
            },
        ),
        (
            EventKey::new(0, lane::INVOCATION, 0, 1),
            Event::TransferRetried {
                func: 3,
                node: 0,
                t_ms: 40_000,
                attempt: 1,
                backoff_ms: 250,
            },
        ),
        (
            EventKey::new(1, lane::CRASH, 1, 0),
            Event::NodeRecovered {
                node: 1,
                t_ms: 70_000,
            },
        ),
        (
            EventKey::new(1, lane::PARTITION, 0, 0),
            Event::PartitionHealed {
                regions: "TEN".to_string(),
                t_ms: 80_000,
            },
        ),
        (
            EventKey::new(1, lane::CI_HEALTH, 0, 0),
            Event::CiRestored {
                region: "TEN".to_string(),
                t_ms: 90_000,
            },
        ),
        (
            EventKey::new(2, lane::RUN_ENDED, 0, 0),
            Event::RunEnded {
                invocations: 1,
                transfers: 0,
                evictions: 1,
                revocations: 0,
                expired: 0,
                horizon_ms: 120_000,
            },
        ),
    ];
    sealed_lines(events)
}

#[test]
fn verify_and_filter_work_across_a_chaos_stream() {
    let lines = chaos_lines();
    let path = scratch_path("chaos");
    std::fs::write(&path, lines.join("\n") + "\n").unwrap();

    // The hash chain must verify straight through every fault event.
    let out = Command::new(env!("CARGO_BIN_EXE_ecolife-trace"))
        .arg("verify")
        .arg(&path)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "verify failed on a chaos stream: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // `--type` must select exactly the named fault events.
    for (ty, want) in [
        ("NodeCrashed", 1usize),
        ("TransferRetried", 1),
        ("CrashRejected", 1),
        ("PartitionStarted", 1),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_ecolife-trace"))
            .args(["filter"])
            .arg(&path)
            .args(["--type", ty])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .output()
            .unwrap();
        assert!(out.status.success(), "filter --type {ty} failed");
        let stdout = String::from_utf8(out.stdout).unwrap();
        let hits: Vec<&str> = stdout.lines().filter(|l| !l.is_empty()).collect();
        assert_eq!(hits.len(), want, "--type {ty} selected: {stdout}");
        let needle = format!("\"type\":\"{ty}\"");
        assert!(
            hits.iter().all(|l| l.contains(&needle)),
            "--type {ty} leaked other events: {stdout}"
        );
    }

    // `--node 1` must pick out the crash lifecycle and the rejected
    // invocation, and nothing routed at node 0.
    let out = Command::new(env!("CARGO_BIN_EXE_ecolife-trace"))
        .args(["filter"])
        .arg(&path)
        .args(["--node", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    for ty in ["NodeCrashed", "NodeRecovered", "CrashRejected"] {
        assert!(
            stdout.contains(&format!("\"type\":\"{ty}\"")),
            "--node 1 missed {ty}: {stdout}"
        );
    }
    assert!(
        !stdout.contains("TransferRetried"),
        "--node 1 leaked node 0's retry: {stdout}"
    );

    std::fs::remove_file(&path).ok();
}

#[test]
fn follow_verifies_a_growing_stream_and_stops_at_run_ended() {
    let lines = chained_lines();
    let path = scratch_path("grow");
    // Start with only the first event on disk…
    std::fs::write(&path, format!("{}\n", lines[0])).unwrap();
    let child = follow_cmd(&path, &[]).spawn().unwrap();
    // …then let the "engine" append the rest, one poll apart, the last
    // write split mid-line to prove partial lines are held back.
    std::thread::sleep(std::time::Duration::from_millis(40));
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .unwrap();
    writeln!(f, "{}", lines[1]).unwrap();
    f.flush().unwrap();
    std::thread::sleep(std::time::Duration::from_millis(40));
    let tail = format!("{}\n{}\n", lines[2], lines[3]);
    let (a, b) = tail.split_at(tail.len() / 2);
    f.write_all(a.as_bytes()).unwrap();
    f.flush().unwrap();
    std::thread::sleep(std::time::Duration::from_millis(40));
    f.write_all(b.as_bytes()).unwrap();
    f.flush().unwrap();

    let out = child.wait_with_output().unwrap();
    std::fs::remove_file(&path).ok();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    for line in &lines {
        assert!(
            stdout.contains(line.as_str()),
            "missing echoed event: {line}"
        );
    }
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("run ended"), "stderr: {stderr}");
    assert!(stderr.contains("4 events"), "stderr: {stderr}");
}

#[test]
fn follow_gives_up_cleanly_after_max_idle_polls() {
    let lines = chained_lines();
    let path = scratch_path("idle");
    // A valid prefix that never reaches RunEnded.
    std::fs::write(&path, format!("{}\n{}\n", lines[0], lines[1])).unwrap();
    let out = follow_cmd(&path, &["--max-polls", "3"])
        .spawn()
        .unwrap()
        .wait_with_output()
        .unwrap();
    std::fs::remove_file(&path).ok();
    assert!(out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("idle"), "stderr: {stderr}");
    assert!(stderr.contains("2 events verified"), "stderr: {stderr}");
}

#[test]
fn follow_exits_two_on_a_broken_chain() {
    let lines = chained_lines();
    let path = scratch_path("broken");
    std::fs::write(&path, format!("{}\n", lines[0])).unwrap();
    let child = follow_cmd(&path, &["--max-polls", "50"]).spawn().unwrap();
    std::thread::sleep(std::time::Duration::from_millis(40));
    // Append an event whose `prev` does not match the tip: tamper one
    // hex digit of the second line's prev-hash.
    let tampered = if lines[1].contains("\"prev\":\"a") {
        lines[1].replacen("\"prev\":\"a", "\"prev\":\"b", 1)
    } else {
        let i = lines[1].find("\"prev\":\"").unwrap() + "\"prev\":\"".len();
        let mut s = lines[1].clone();
        let old = s.as_bytes()[i];
        let new = if old == b'0' { '1' } else { '0' };
        s.replace_range(i..i + 1, &new.to_string());
        s
    };
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .unwrap();
    writeln!(f, "{tampered}").unwrap();
    f.flush().unwrap();
    let out = child.wait_with_output().unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(
        out.status.code(),
        Some(2),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn follow_exits_two_when_the_file_is_truncated() {
    use std::io::{BufRead, BufReader};
    let lines = chained_lines();
    let path = scratch_path("truncated");
    std::fs::write(&path, format!("{}\n{}\n", lines[0], lines[1])).unwrap();
    let mut child = follow_cmd(&path, &["--max-polls", "500"]).spawn().unwrap();
    // Wait until both lines are echoed, i.e. consumed, before cutting
    // the file back to its first line.
    let mut echoed = BufReader::new(child.stdout.take().unwrap()).lines();
    for line in &lines[..2] {
        assert_eq!(&echoed.next().unwrap().unwrap(), line);
    }
    std::fs::write(&path, format!("{}\n", lines[0])).unwrap();
    let out = child.wait_with_output().unwrap();
    std::fs::remove_file(&path).ok();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("truncated"), "stderr: {stderr}");
    assert!(stderr.contains("2 events verified"), "stderr: {stderr}");
}
