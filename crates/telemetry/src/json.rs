//! Hand-rolled flat JSON for event lines: a writer that serializes every
//! event the same way on every platform, and a field extractor for the
//! controlled format the writer emits.
//!
//! Integers go through `push_digits`, a digit writer that prints
//! exactly what `to_string` prints without the `fmt` machinery: a
//! sealed line is mostly integers, and serialization is most of what
//! sealing costs. Floats are written with Rust's shortest-roundtrip
//! `Display` — the minimal decimal string that parses back to the
//! identical bits — so a line (and therefore the hash chain over it) is
//! a bit-exact encoding of the run, stable across platforms. Scientific
//! notation never appears (`Display` for `f64` does not produce it), and
//! non-finite values are a bug upstream (debug-asserted).

use crate::event::Event;
use std::fmt::Write;

/// Append `,"key":` — every field's prefix.
fn push_key(out: &mut String, key: &str) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
}

/// `"00" "01" … "99"`: the two digits of every value below 100.
const DIGIT_PAIRS: &[u8; 200] = b"\
0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// Append `v` in decimal, exactly as `v.to_string()` prints it: digits
/// are written two at a time from the end of a stack buffer, then
/// copied in one push.
pub(crate) fn push_digits(out: &mut String, mut v: u64) {
    // u64::MAX has 20 digits.
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = v as usize * 2;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + v as u8;
    }
    out.push_str(std::str::from_utf8(&buf[at..]).expect("decimal digits are ASCII"));
}

/// Append `"key":value` (with a leading comma) for a u64.
fn push_u64(out: &mut String, key: &str, v: u64) {
    push_key(out, key);
    push_digits(out, v);
}

fn push_i64(out: &mut String, key: &str, v: i64) {
    push_key(out, key);
    if v < 0 {
        out.push('-');
    }
    push_digits(out, v.unsigned_abs());
}

fn push_bool(out: &mut String, key: &str, v: bool) {
    push_key(out, key);
    out.push_str(if v { "true" } else { "false" });
}

/// Append a float in shortest-roundtrip form: `Display` produces the
/// fewest digits that parse back bit-exactly (and never scientific
/// notation), which is what makes hash chains platform-stable.
fn push_f64(out: &mut String, key: &str, v: f64) {
    debug_assert!(v.is_finite(), "non-finite {key} in event stream: {v}");
    push_key(out, key);
    write!(out, "{v}").expect("writing to a String cannot fail");
}

/// Append a string value. Event strings (region labels, causes, type
/// names) are controlled ASCII, but escape defensively anyway.
fn push_str(out: &mut String, key: &str, v: &str) {
    push_key(out, key);
    out.push('"');
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail");
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Serialize the event's payload fields (everything after the `"type"`
/// tag) onto `out`, each with its leading comma.
pub fn write_payload(event: &Event, out: &mut String) {
    match event {
        Event::RunStarted {
            functions,
            nodes,
            trace_version,
        } => {
            push_u64(out, "functions", *functions);
            push_u64(out, "nodes", *nodes);
            push_u64(out, "trace_version", *trace_version);
        }
        Event::PeriodStarted { minute } | Event::PeriodEnded { minute } => {
            push_u64(out, "minute", *minute);
        }
        Event::CiObserved {
            region,
            t_ms,
            gco2_per_kwh,
        } => {
            push_str(out, "region", region);
            push_u64(out, "t_ms", *t_ms);
            push_f64(out, "gco2_per_kwh", *gco2_per_kwh);
        }
        Event::DecisionMade {
            index,
            func,
            t_ms,
            exec_node,
            warm,
            ka_node,
            ka_ms,
        } => {
            push_u64(out, "index", *index);
            push_u64(out, "func", *func as u64);
            push_u64(out, "t_ms", *t_ms);
            push_u64(out, "exec_node", *exec_node as u64);
            push_bool(out, "warm", *warm);
            push_i64(out, "ka_node", *ka_node);
            push_u64(out, "ka_ms", *ka_ms);
        }
        Event::ColdStarted {
            index,
            func,
            node,
            t_ms,
            service_ms,
            service_g,
            energy_kwh,
        }
        | Event::WarmHit {
            index,
            func,
            node,
            t_ms,
            service_ms,
            service_g,
            energy_kwh,
        } => {
            push_u64(out, "index", *index);
            push_u64(out, "func", *func as u64);
            push_u64(out, "node", *node as u64);
            push_u64(out, "t_ms", *t_ms);
            push_u64(out, "service_ms", *service_ms);
            push_f64(out, "service_g", *service_g);
            push_f64(out, "energy_kwh", *energy_kwh);
        }
        Event::Expired {
            node,
            func,
            since_ms,
            expiry_ms,
            keepalive_g,
            energy_kwh,
        } => {
            push_u64(out, "node", *node as u64);
            push_u64(out, "func", *func as u64);
            push_u64(out, "since_ms", *since_ms);
            push_u64(out, "expiry_ms", *expiry_ms);
            push_f64(out, "keepalive_g", *keepalive_g);
            push_f64(out, "energy_kwh", *energy_kwh);
        }
        Event::Released {
            cause,
            node,
            func,
            since_ms,
            end_ms,
            keepalive_g,
            energy_kwh,
        } => {
            push_str(out, "cause", cause.as_str());
            push_u64(out, "node", *node as u64);
            push_u64(out, "func", *func as u64);
            push_u64(out, "since_ms", *since_ms);
            push_u64(out, "end_ms", *end_ms);
            push_f64(out, "keepalive_g", *keepalive_g);
            push_f64(out, "energy_kwh", *energy_kwh);
        }
        Event::Transferred {
            func,
            from,
            to,
            t_ms,
            egress_g,
            latency_ms,
        } => {
            push_u64(out, "func", *func as u64);
            push_u64(out, "from", *from as u64);
            push_u64(out, "to", *to as u64);
            push_u64(out, "t_ms", *t_ms);
            push_f64(out, "egress_g", *egress_g);
            push_u64(out, "latency_ms", *latency_ms);
        }
        Event::MembershipChanged { node, t_ms, joined } => {
            push_u64(out, "node", *node as u64);
            push_u64(out, "t_ms", *t_ms);
            push_bool(out, "joined", *joined);
        }
        Event::Revoked {
            node,
            func,
            t_ms,
            keepalive_g,
            energy_kwh,
        } => {
            push_u64(out, "node", *node as u64);
            push_u64(out, "func", *func as u64);
            push_u64(out, "t_ms", *t_ms);
            push_f64(out, "keepalive_g", *keepalive_g);
            push_f64(out, "energy_kwh", *energy_kwh);
        }
        Event::Enqueued {
            index,
            func,
            node,
            t_ms,
            depth,
        }
        | Event::AdmissionRejected {
            index,
            func,
            node,
            t_ms,
            depth,
        } => {
            push_u64(out, "index", *index);
            push_u64(out, "func", *func as u64);
            push_u64(out, "node", *node as u64);
            push_u64(out, "t_ms", *t_ms);
            push_u64(out, "depth", *depth as u64);
        }
        Event::Dequeued {
            index,
            func,
            node,
            start_ms,
            queue_ms,
        } => {
            push_u64(out, "index", *index);
            push_u64(out, "func", *func as u64);
            push_u64(out, "node", *node as u64);
            push_u64(out, "start_ms", *start_ms);
            push_u64(out, "queue_ms", *queue_ms);
        }
        Event::NodeCrashed {
            node,
            t_ms,
            recover_ms,
        } => {
            push_u64(out, "node", *node as u64);
            push_u64(out, "t_ms", *t_ms);
            push_u64(out, "recover_ms", *recover_ms);
        }
        Event::NodeRecovered { node, t_ms } => {
            push_u64(out, "node", *node as u64);
            push_u64(out, "t_ms", *t_ms);
        }
        Event::CiStale {
            region,
            t_ms,
            until_ms,
        } => {
            push_str(out, "region", region);
            push_u64(out, "t_ms", *t_ms);
            push_u64(out, "until_ms", *until_ms);
        }
        Event::CiRestored { region, t_ms } => {
            push_str(out, "region", region);
            push_u64(out, "t_ms", *t_ms);
        }
        Event::PartitionStarted {
            regions,
            t_ms,
            until_ms,
        } => {
            push_str(out, "regions", regions);
            push_u64(out, "t_ms", *t_ms);
            push_u64(out, "until_ms", *until_ms);
        }
        Event::PartitionHealed { regions, t_ms } => {
            push_str(out, "regions", regions);
            push_u64(out, "t_ms", *t_ms);
        }
        Event::TransferRetried {
            func,
            node,
            t_ms,
            attempt,
            backoff_ms,
        } => {
            push_u64(out, "func", *func as u64);
            push_u64(out, "node", *node as u64);
            push_u64(out, "t_ms", *t_ms);
            push_u64(out, "attempt", *attempt as u64);
            push_u64(out, "backoff_ms", *backoff_ms);
        }
        Event::CrashRejected {
            index,
            func,
            node,
            t_ms,
        } => {
            push_u64(out, "index", *index);
            push_u64(out, "func", *func as u64);
            push_u64(out, "node", *node as u64);
            push_u64(out, "t_ms", *t_ms);
        }
        Event::RunEnded {
            invocations,
            transfers,
            evictions,
            revocations,
            expired,
            horizon_ms,
        } => {
            push_u64(out, "invocations", *invocations);
            push_u64(out, "transfers", *transfers);
            push_u64(out, "evictions", *evictions);
            push_u64(out, "revocations", *revocations);
            push_u64(out, "expired", *expired);
            push_u64(out, "horizon_ms", *horizon_ms);
        }
    }
}

/// Extract the raw value slice of `key` from a flat event line:
/// `field(line, "func")` on `…,"func":17,…` yields `17`; string values
/// keep their quotes (strip with [`str_field`]). Safe on the writer's
/// output because values never contain `,"` (strings are controlled
/// labels/hex, numbers have no commas); this is a field *extractor* for
/// the one format the sink writes, not a JSON parser.
pub fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    // The first `"key":`, matched in place.
    let k = key.as_bytes();
    let start = line
        .as_bytes()
        .windows(k.len() + 3)
        .position(|w| w[0] == b'"' && w[1..=k.len()] == *k && w[k.len() + 1..] == *b"\":")?
        + k.len()
        + 3;
    let rest = &line[start..];
    let end = rest.find(",\"").unwrap_or_else(|| {
        // Last field: drop the closing brace.
        rest.len().saturating_sub(1)
    });
    Some(&rest[..end])
}

/// [`field`] with string quotes stripped.
pub fn str_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let raw = field(line, key)?;
    raw.strip_prefix('"').and_then(|r| r.strip_suffix('"'))
}

/// [`field`] parsed as u64.
pub fn u64_field(line: &str, key: &str) -> Option<u64> {
    field(line, key)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ReleaseCause;

    #[test]
    fn payload_is_flat_and_extractable() {
        let ev = Event::Released {
            cause: ReleaseCause::Displaced,
            node: 3,
            func: 17,
            since_ms: 61_000,
            end_ms: 64_500,
            keepalive_g: 0.1,
            energy_kwh: 2.5e-7,
        };
        let mut line = String::from("{\"seq\":9,\"prev\":\"aa\",\"type\":\"Released\"");
        write_payload(&ev, &mut line);
        line.push('}');
        assert_eq!(str_field(&line, "cause"), Some("displaced"));
        assert_eq!(u64_field(&line, "node"), Some(3));
        assert_eq!(u64_field(&line, "func"), Some(17));
        assert_eq!(u64_field(&line, "end_ms"), Some(64_500));
        // Last field: extractor must stop at the closing brace.
        let kwh: f64 = field(&line, "energy_kwh").unwrap().parse().unwrap();
        assert_eq!(kwh.to_bits(), 2.5e-7f64.to_bits());
    }

    #[test]
    fn field_matches_whole_keys_only() {
        let line = "{\"seq\":3,\"exec_node\":1,\"t_ms\":5,\"ms\":6}";
        assert_eq!(field(line, "node"), None);
        assert_eq!(field(line, "exec_node"), Some("1"));
        assert_eq!(field(line, "ms"), Some("6"));
        assert_eq!(field(line, "seq"), Some("3"));
        assert_eq!(field(line, ""), None);
        assert_eq!(field("", "seq"), None);
    }

    /// The writers print numbers exactly as `to_string` does: integers
    /// on both sides of every digit-count boundary, then floats.
    #[test]
    fn numbers_print_as_to_string() {
        let expect = |written: String, text: String| assert_eq!(written, format!(",\"k\":{text}"));
        let mut unsigned = vec![0, 1, 1 << 53, u64::MAX - 1, u64::MAX];
        let mut power = 1u64;
        for _ in 0..19 {
            // 9, 10, 99, 100, … 10¹⁹ − 1, 10¹⁹.
            unsigned.extend([power * 10 - 1, power * 10]);
            power *= 10;
        }
        for &v in &unsigned {
            let mut s = String::new();
            push_u64(&mut s, "k", v);
            expect(s, v.to_string());
        }
        let mut signed = vec![-1, -9, -10, i64::MIN, i64::MIN + 1, i64::MAX];
        signed.extend(unsigned.iter().filter_map(|&v| i64::try_from(v).ok()));
        signed.extend(
            unsigned
                .iter()
                .filter_map(|&v| i64::try_from(v).ok().map(|v| -v)),
        );
        for v in signed {
            let mut s = String::new();
            push_i64(&mut s, "k", v);
            expect(s, v.to_string());
        }
        for v in [
            0.0,
            -0.0,
            1.0 / 3.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE,
            2.5e-7,
            f64::MAX,
        ] {
            let mut s = String::new();
            push_f64(&mut s, "k", v);
            expect(s, v.to_string());
        }
    }

    /// Shortest-roundtrip: every finite f64 serialized by the sink
    /// parses back to the identical bits. Random bit patterns from a
    /// local xorshift (the telemetry crate has no rand dependency).
    #[test]
    fn f64_round_trips_bit_exactly() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut step = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut checked = 0u32;
        while checked < 4_000 {
            let bits = step();
            let v = f64::from_bits(bits);
            if !v.is_finite() {
                continue;
            }
            let s = v.to_string();
            assert!(
                !s.contains(['e', 'E']),
                "scientific notation would change the contract: {s}"
            );
            let back: f64 = s.parse().unwrap();
            assert_eq!(
                back.to_bits(),
                v.to_bits(),
                "{v} serialized as {s} parsed back to {back}"
            );
            checked += 1;
        }
        // And the awkward fixed points.
        for v in [0.0, -0.0, 1.0 / 3.0, f64::MIN_POSITIVE, f64::MAX, 2.5e-7] {
            let back: f64 = v.to_string().parse().unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
    }
}
