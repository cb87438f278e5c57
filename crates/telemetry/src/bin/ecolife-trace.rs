//! `ecolife-trace` — tail, filter, verify, and diff engine event streams.
//!
//! ```text
//! ecolife-trace tail   <run.jsonl> [-n N] [--follow] [--poll-ms MS]
//!                                  [--max-polls N]
//! ecolife-trace filter <run.jsonl> [--type T] [--node N] [--func F]
//!                                  [--from MS] [--to MS] [--pretty]
//! ecolife-trace verify <run.jsonl>
//! ecolife-trace diff   <a.jsonl> <b.jsonl>
//! ```
//!
//! `tail --follow` polls the file (a live [`JsonlSink`] stream) and
//! hash-chain-verifies every event *incrementally* as it lands — a
//! writer crash mid-line, a truncated file, or any tampering breaks the
//! chain and the command exits 2 on the spot. It stops cleanly at
//! `RunEnded`, or after `--max-polls` consecutive idle polls when set.
//!
//! Exit codes: `verify` and a broken `--follow` chain exit 2, `diff`
//! exits 1 on divergence — so all three slot straight into CI.
//!
//! [`JsonlSink`]: ecolife_telemetry::JsonlSink

use ecolife_telemetry::{diff_lines, pretty, str_field, u64_field, ChainWalker};
use std::fs::File;
use std::io::{BufRead, BufReader, Read, Seek, SeekFrom};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  ecolife-trace tail   <run.jsonl> [-n N] [--follow] [--poll-ms MS] \
         [--max-polls N]\n  ecolife-trace filter <run.jsonl> \
         [--type T] [--node N] [--func F] [--from MS] [--to MS] [--pretty]\n  ecolife-trace \
         verify <run.jsonl>\n  ecolife-trace diff   <a.jsonl> <b.jsonl>"
    );
    ExitCode::from(64)
}

fn cannot_read(path: &str, e: impl std::fmt::Display) -> ExitCode {
    eprintln!("ecolife-trace: cannot read {path}: {e}");
    ExitCode::from(66)
}

fn read_lines(path: &str) -> Result<Vec<String>, ExitCode> {
    match std::fs::read_to_string(path) {
        Ok(text) => Ok(text.lines().map(str::to_string).collect()),
        Err(e) => Err(cannot_read(path, e)),
    }
}

/// Walk the hash chain of the file at `path` one line at a time, so
/// memory stays bounded by the longest line whatever the stream's size.
fn verify(path: &str) -> Result<ExitCode, ExitCode> {
    let mut reader = BufReader::new(File::open(path).map_err(|e| cannot_read(path, e))?);
    let mut walker = ChainWalker::new();
    let mut line = String::new();
    loop {
        line.clear();
        let read = reader
            .read_line(&mut line)
            .map_err(|e| cannot_read(path, e))?;
        if read == 0 {
            break;
        }
        // The line terminators `str::lines` strips.
        let text = line.strip_suffix('\n').unwrap_or(&line);
        let text = text.strip_suffix('\r').unwrap_or(text);
        if let Err(e) = walker.push(text) {
            eprintln!("{path}: {e}");
            return Ok(ExitCode::from(2));
        }
    }
    let summary = walker.summary();
    println!(
        "ok: {} events, chain tip {} ({path})",
        summary.events, summary.tip
    );
    Ok(ExitCode::SUCCESS)
}

/// The instant a line is "about", for `--from`/`--to`: its `t_ms` when
/// present, else the expiry instant, else the period minute. Lines with
/// no time anchor (run start/end) always pass the range filter.
fn event_time(line: &str) -> Option<u64> {
    u64_field(line, "t_ms")
        .or_else(|| u64_field(line, "expiry_ms"))
        .or_else(|| u64_field(line, "end_ms"))
        .or_else(|| u64_field(line, "minute").map(|m| m * 60_000))
}

struct Filter {
    type_name: Option<String>,
    node: Option<u64>,
    func: Option<u64>,
    from_ms: Option<u64>,
    to_ms: Option<u64>,
}

impl Filter {
    fn keep(&self, line: &str) -> bool {
        if let Some(ref want) = self.type_name {
            if str_field(line, "type") != Some(want.as_str()) {
                return false;
            }
        }
        if let Some(node) = self.node {
            // An event "touches" a node through any of its node-valued
            // fields (transfers carry two).
            let touches = [
                u64_field(line, "node"),
                u64_field(line, "exec_node"),
                u64_field(line, "from"),
                u64_field(line, "to"),
            ]
            .into_iter()
            .flatten()
            .any(|n| n == node);
            if !touches {
                return false;
            }
        }
        if let Some(func) = self.func {
            if u64_field(line, "func") != Some(func) {
                return false;
            }
        }
        if self.from_ms.is_some() || self.to_ms.is_some() {
            if let Some(t) = event_time(line) {
                if self.from_ms.is_some_and(|from| t < from) {
                    return false;
                }
                if self.to_ms.is_some_and(|to| t > to) {
                    return false;
                }
            }
        }
        true
    }
}

fn parse_u64_arg(args: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<u64, ExitCode> {
    let v = args.next().ok_or_else(|| {
        eprintln!("ecolife-trace: {flag} needs a value");
        ExitCode::from(64)
    })?;
    v.parse().map_err(|_| {
        eprintln!("ecolife-trace: {flag} expects an integer, got '{v}'");
        ExitCode::from(64)
    })
}

/// Follow a live JSONL stream: poll the file, feed each *complete* new
/// line through a [`ChainWalker`] (incremental hash-chain verify — exit
/// 2 the moment a link breaks or the file is truncated), and echo the
/// verified lines to stdout (the last `n` of the initial backlog, then
/// everything as it lands). Each poll reads only the bytes past what it
/// has consumed, so a long follow costs O(stream), not O(stream²).
/// Status goes to stderr so stdout stays pure JSONL. Stops at
/// `RunEnded`, or after `max_polls` consecutive idle polls when
/// `max_polls > 0`.
fn tail_follow(path: &str, n: usize, poll_ms: u64, max_polls: u64) -> Result<ExitCode, ExitCode> {
    let mut walker = ChainWalker::new();
    // Bytes of the file read so far; `pending` holds those not yet
    // consumed as lines (a writer may be mid-line).
    let mut offset = 0u64;
    let mut pending: Vec<u8> = Vec::new();
    let mut backlog_shown = false;
    let mut idle = 0u64;
    loop {
        match File::open(path) {
            Ok(mut file) => {
                let len = file.metadata().map_err(|e| cannot_read(path, e))?.len();
                if len < offset {
                    eprintln!(
                        "{path}: truncated while following ({} events verified, \
                         {offset} bytes read, file now {len} bytes)",
                        walker.events()
                    );
                    return Ok(ExitCode::from(2));
                }
                let read = file
                    .seek(SeekFrom::Start(offset))
                    .and_then(|_| file.read_to_end(&mut pending))
                    .map_err(|e| cannot_read(path, e))?;
                offset += read as u64;
            }
            // Not-yet-created counts as an idle poll: the writer may
            // still be opening the sink.
            Err(_) if offset == 0 => {}
            Err(e) => return Err(cannot_read(path, e)),
        }
        // Only lines sealed by '\n' count; the rest waits for the next poll.
        let complete = pending
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |i| i + 1);
        let text = std::str::from_utf8(&pending[..complete]).map_err(|e| cannot_read(path, e))?;
        let fresh: Vec<&str> = text.lines().collect();
        let print_from = if backlog_shown {
            0
        } else {
            fresh.len().saturating_sub(n)
        };
        for (i, line) in fresh.iter().enumerate() {
            if let Err(e) = walker.push(line) {
                eprintln!("{path}: {e}");
                return Ok(ExitCode::from(2));
            }
            if i >= print_from {
                println!("{line}");
            }
            if str_field(line, "type") == Some("RunEnded") {
                let s = walker.summary();
                eprintln!(
                    "follow: run ended — {} events, chain tip {}",
                    s.events, s.tip
                );
                return Ok(ExitCode::SUCCESS);
            }
        }
        let got_lines = !fresh.is_empty();
        pending.drain(..complete);
        if got_lines {
            backlog_shown = true;
            idle = 0;
        } else {
            idle += 1;
            if max_polls > 0 && idle >= max_polls {
                let s = walker.summary();
                eprintln!(
                    "follow: idle after {idle} polls — {} events verified, chain tip {}",
                    s.events, s.tip
                );
                return Ok(ExitCode::SUCCESS);
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(poll_ms));
    }
}

fn run() -> Result<ExitCode, ExitCode> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return Err(usage());
    };
    match cmd.as_str() {
        "tail" => {
            let mut rest = args[1..].iter();
            let mut path = None;
            let mut n = 10usize;
            let mut follow = false;
            let mut poll_ms = 200u64;
            let mut max_polls = 0u64; // 0 = follow until RunEnded
            while let Some(arg) = rest.next() {
                match arg.as_str() {
                    "-n" => n = parse_u64_arg(&mut rest, "-n")? as usize,
                    "--follow" | "-f" => follow = true,
                    "--poll-ms" => poll_ms = parse_u64_arg(&mut rest, "--poll-ms")?,
                    "--max-polls" => max_polls = parse_u64_arg(&mut rest, "--max-polls")?,
                    _ if path.is_none() => path = Some(arg.clone()),
                    _ => return Err(usage()),
                }
            }
            let path = path.ok_or_else(usage)?;
            if follow {
                return tail_follow(&path, n, poll_ms, max_polls);
            }
            let lines = read_lines(&path)?;
            let start = lines.len().saturating_sub(n);
            for line in &lines[start..] {
                println!("{line}");
            }
            Ok(ExitCode::SUCCESS)
        }
        "filter" => {
            let mut rest = args[1..].iter();
            let mut path = None;
            let mut pretty_out = false;
            let mut filter = Filter {
                type_name: None,
                node: None,
                func: None,
                from_ms: None,
                to_ms: None,
            };
            while let Some(arg) = rest.next() {
                match arg.as_str() {
                    "--type" => {
                        filter.type_name = Some(
                            rest.next()
                                .ok_or_else(|| {
                                    eprintln!("ecolife-trace: --type needs a value");
                                    ExitCode::from(64)
                                })?
                                .clone(),
                        )
                    }
                    "--node" => filter.node = Some(parse_u64_arg(&mut rest, "--node")?),
                    "--func" => filter.func = Some(parse_u64_arg(&mut rest, "--func")?),
                    "--from" => filter.from_ms = Some(parse_u64_arg(&mut rest, "--from")?),
                    "--to" => filter.to_ms = Some(parse_u64_arg(&mut rest, "--to")?),
                    "--pretty" => pretty_out = true,
                    _ if path.is_none() => path = Some(arg.clone()),
                    _ => return Err(usage()),
                }
            }
            let lines = read_lines(&path.ok_or_else(usage)?)?;
            let mut matched = 0u64;
            for line in &lines {
                if filter.keep(line) {
                    matched += 1;
                    if pretty_out {
                        println!("{}", pretty(line));
                    } else {
                        println!("{line}");
                    }
                }
            }
            eprintln!("{matched} of {} events matched", lines.len());
            Ok(ExitCode::SUCCESS)
        }
        "verify" => {
            let [_, path] = args.as_slice() else {
                return Err(usage());
            };
            verify(path)
        }
        "diff" => {
            let [_, left_path, right_path] = args.as_slice() else {
                return Err(usage());
            };
            let left = read_lines(left_path)?;
            let right = read_lines(right_path)?;
            let l: Vec<&str> = left.iter().map(String::as_str).collect();
            let r: Vec<&str> = right.iter().map(String::as_str).collect();
            match diff_lines(&l, &r) {
                None => {
                    println!(
                        "identical: {} events ({left_path} vs {right_path})",
                        l.len()
                    );
                    Ok(ExitCode::SUCCESS)
                }
                Some(div) => {
                    println!("{left_path} vs {right_path}\n{div}");
                    Ok(ExitCode::from(1))
                }
            }
        }
        _ => Err(usage()),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(code) => code,
    }
}
