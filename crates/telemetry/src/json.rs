//! Hand-rolled flat JSON for event lines: a writer that serializes every
//! event the same way on every platform, and a field extractor for the
//! controlled format the writer emits.
//!
//! The writer appends bytes without the `fmt` machinery, each field as
//! one static `,"key":` literal and its value. Integers print exactly as
//! `to_string` prints them. Floats print exactly as `Display` prints
//! them: the shortest decimal that parses back to the identical bits,
//! laid out positionally, with an exact tie between the two closest
//! shortest decimals rounded up. A Ryu-style writer produces those bytes
//! without `fmt` (see the `decimal` module). A line, and therefore the
//! hash chain over it, is a bit-exact encoding of the run, stable across
//! platforms. Scientific notation never appears (`Display` for `f64`
//! does not produce it), and non-finite values are a bug upstream
//! (debug-asserted).

use crate::decimal::{push_f64, push_i64, push_u64};
use crate::event::Event;

/// The values an event line holds, each appended after its field's
/// `,"key":` literal. The sealer writes them into the line's bytes
/// ([`Vec<u8>`]); the tests' oracle writes them through `fmt`.
pub(crate) trait Fields {
    /// `tag` is the whole `,"type":"…"` field, a literal per variant.
    fn tag(&mut self, tag: &'static str);
    fn uint(&mut self, key: &'static str, v: u64);
    fn int(&mut self, key: &'static str, v: i64);
    fn float(&mut self, key: &'static str, v: f64);
    fn flag(&mut self, key: &'static str, v: bool);
    fn text(&mut self, key: &'static str, v: &str);
}

/// Every method is inlined at its call site in [`write_event`], so the
/// key, a literal there, is copied with fixed-size moves.
impl Fields for Vec<u8> {
    #[inline(always)]
    fn tag(&mut self, tag: &'static str) {
        self.extend_from_slice(tag.as_bytes());
    }

    #[inline(always)]
    fn uint(&mut self, key: &'static str, v: u64) {
        self.extend_from_slice(key.as_bytes());
        push_u64(self, v);
    }

    #[inline(always)]
    fn int(&mut self, key: &'static str, v: i64) {
        self.extend_from_slice(key.as_bytes());
        push_i64(self, v);
    }

    #[inline(always)]
    fn float(&mut self, key: &'static str, v: f64) {
        debug_assert!(v.is_finite(), "non-finite {key} in event stream: {v}");
        self.extend_from_slice(key.as_bytes());
        push_f64(self, v);
    }

    #[inline(always)]
    fn flag(&mut self, key: &'static str, v: bool) {
        self.extend_from_slice(key.as_bytes());
        self.extend_from_slice(if v { b"true" } else { b"false" });
    }

    #[inline(always)]
    fn text(&mut self, key: &'static str, v: &str) {
        self.extend_from_slice(key.as_bytes());
        push_quoted(self, v);
    }
}

/// Append `v` as a JSON string. Event strings (region labels, causes)
/// are controlled ASCII, but escape defensively anyway: quotes,
/// backslashes and control characters. Bytes of multi-byte characters
/// are all 0x80 or above, so they pass through whole.
fn push_quoted(out: &mut Vec<u8>, v: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push(b'"');
    let bytes = v.as_bytes();
    if bytes.iter().all(|&b| b >= 0x20 && b != b'"' && b != b'\\') {
        out.extend_from_slice(bytes);
    } else {
        for &b in bytes {
            match b {
                b'"' => out.extend_from_slice(b"\\\""),
                b'\\' => out.extend_from_slice(b"\\\\"),
                b'\n' => out.extend_from_slice(b"\\n"),
                b'\r' => out.extend_from_slice(b"\\r"),
                b'\t' => out.extend_from_slice(b"\\t"),
                b if b < 0x20 => {
                    out.extend_from_slice(b"\\u00");
                    out.extend_from_slice(&[HEX[usize::from(b >> 4)], HEX[usize::from(b & 0xf)]]);
                }
                b => out.push(b),
            }
        }
    }
    out.push(b'"');
}

/// The writer the byte writer must match: every value through `fmt`
/// (`Display`), strings escaped a character at a time, and the type tag
/// left to the caller.
#[cfg(test)]
#[derive(Debug, Default)]
pub(crate) struct FmtFields(pub String);

#[cfg(test)]
impl Fields for FmtFields {
    /// The oracle writes the type tag itself, from [`Event::type_name`].
    fn tag(&mut self, _: &'static str) {}

    fn uint(&mut self, key: &'static str, v: u64) {
        self.0 += &format!("{key}{v}");
    }

    fn int(&mut self, key: &'static str, v: i64) {
        self.0 += &format!("{key}{v}");
    }

    fn float(&mut self, key: &'static str, v: f64) {
        self.0 += &format!("{key}{v}");
    }

    fn flag(&mut self, key: &'static str, v: bool) {
        self.0 += &format!("{key}{v}");
    }

    fn text(&mut self, key: &'static str, v: &str) {
        self.0 += key;
        self.0.push('"');
        for c in v.chars() {
            match c {
                '"' => self.0.push_str("\\\""),
                '\\' => self.0.push_str("\\\\"),
                '\n' => self.0.push_str("\\n"),
                '\r' => self.0.push_str("\\r"),
                '\t' => self.0.push_str("\\t"),
                c if (c as u32) < 0x20 => self.0 += &format!("\\u{:04x}", c as u32),
                c => self.0.push(c),
            }
        }
        self.0.push('"');
    }
}

/// Serialize the event's `"type"` tag and payload fields onto `out`,
/// each with its leading comma.
pub(crate) fn write_event<F: Fields>(event: &Event, out: &mut F) {
    match event {
        Event::RunStarted {
            functions,
            nodes,
            trace_version,
        } => {
            out.tag(",\"type\":\"RunStarted\"");
            out.uint(",\"functions\":", *functions);
            out.uint(",\"nodes\":", *nodes);
            out.uint(",\"trace_version\":", *trace_version);
        }
        Event::PeriodStarted { minute } | Event::PeriodEnded { minute } => {
            out.tag(if matches!(event, Event::PeriodStarted { .. }) {
                ",\"type\":\"PeriodStarted\""
            } else {
                ",\"type\":\"PeriodEnded\""
            });
            out.uint(",\"minute\":", *minute);
        }
        Event::CiObserved {
            region,
            t_ms,
            gco2_per_kwh,
        } => {
            out.tag(",\"type\":\"CiObserved\"");
            out.text(",\"region\":", region);
            out.uint(",\"t_ms\":", *t_ms);
            out.float(",\"gco2_per_kwh\":", *gco2_per_kwh);
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
            out.tag(",\"type\":\"DecisionMade\"");
            out.uint(",\"index\":", *index);
            out.uint(",\"func\":", *func as u64);
            out.uint(",\"t_ms\":", *t_ms);
            out.uint(",\"exec_node\":", *exec_node as u64);
            out.flag(",\"warm\":", *warm);
            out.int(",\"ka_node\":", *ka_node);
            out.uint(",\"ka_ms\":", *ka_ms);
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
            out.tag(if matches!(event, Event::ColdStarted { .. }) {
                ",\"type\":\"ColdStarted\""
            } else {
                ",\"type\":\"WarmHit\""
            });
            out.uint(",\"index\":", *index);
            out.uint(",\"func\":", *func as u64);
            out.uint(",\"node\":", *node as u64);
            out.uint(",\"t_ms\":", *t_ms);
            out.uint(",\"service_ms\":", *service_ms);
            out.float(",\"service_g\":", *service_g);
            out.float(",\"energy_kwh\":", *energy_kwh);
        }
        Event::Expired {
            node,
            func,
            since_ms,
            expiry_ms,
            keepalive_g,
            energy_kwh,
        } => {
            out.tag(",\"type\":\"Expired\"");
            out.uint(",\"node\":", *node as u64);
            out.uint(",\"func\":", *func as u64);
            out.uint(",\"since_ms\":", *since_ms);
            out.uint(",\"expiry_ms\":", *expiry_ms);
            out.float(",\"keepalive_g\":", *keepalive_g);
            out.float(",\"energy_kwh\":", *energy_kwh);
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
            out.tag(",\"type\":\"Released\"");
            out.text(",\"cause\":", cause.as_str());
            out.uint(",\"node\":", *node as u64);
            out.uint(",\"func\":", *func as u64);
            out.uint(",\"since_ms\":", *since_ms);
            out.uint(",\"end_ms\":", *end_ms);
            out.float(",\"keepalive_g\":", *keepalive_g);
            out.float(",\"energy_kwh\":", *energy_kwh);
        }
        Event::Transferred {
            func,
            from,
            to,
            t_ms,
            egress_g,
            latency_ms,
        } => {
            out.tag(",\"type\":\"Transferred\"");
            out.uint(",\"func\":", *func as u64);
            out.uint(",\"from\":", *from as u64);
            out.uint(",\"to\":", *to as u64);
            out.uint(",\"t_ms\":", *t_ms);
            out.float(",\"egress_g\":", *egress_g);
            out.uint(",\"latency_ms\":", *latency_ms);
        }
        Event::MembershipChanged { node, t_ms, joined } => {
            out.tag(",\"type\":\"MembershipChanged\"");
            out.uint(",\"node\":", *node as u64);
            out.uint(",\"t_ms\":", *t_ms);
            out.flag(",\"joined\":", *joined);
        }
        Event::Revoked {
            node,
            func,
            t_ms,
            keepalive_g,
            energy_kwh,
        } => {
            out.tag(",\"type\":\"Revoked\"");
            out.uint(",\"node\":", *node as u64);
            out.uint(",\"func\":", *func as u64);
            out.uint(",\"t_ms\":", *t_ms);
            out.float(",\"keepalive_g\":", *keepalive_g);
            out.float(",\"energy_kwh\":", *energy_kwh);
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
            out.tag(if matches!(event, Event::Enqueued { .. }) {
                ",\"type\":\"Enqueued\""
            } else {
                ",\"type\":\"AdmissionRejected\""
            });
            out.uint(",\"index\":", *index);
            out.uint(",\"func\":", *func as u64);
            out.uint(",\"node\":", *node as u64);
            out.uint(",\"t_ms\":", *t_ms);
            out.uint(",\"depth\":", *depth as u64);
        }
        Event::Dequeued {
            index,
            func,
            node,
            start_ms,
            queue_ms,
        } => {
            out.tag(",\"type\":\"Dequeued\"");
            out.uint(",\"index\":", *index);
            out.uint(",\"func\":", *func as u64);
            out.uint(",\"node\":", *node as u64);
            out.uint(",\"start_ms\":", *start_ms);
            out.uint(",\"queue_ms\":", *queue_ms);
        }
        Event::NodeCrashed {
            node,
            t_ms,
            recover_ms,
        } => {
            out.tag(",\"type\":\"NodeCrashed\"");
            out.uint(",\"node\":", *node as u64);
            out.uint(",\"t_ms\":", *t_ms);
            out.uint(",\"recover_ms\":", *recover_ms);
        }
        Event::NodeRecovered { node, t_ms } => {
            out.tag(",\"type\":\"NodeRecovered\"");
            out.uint(",\"node\":", *node as u64);
            out.uint(",\"t_ms\":", *t_ms);
        }
        Event::CiStale {
            region,
            t_ms,
            until_ms,
        } => {
            out.tag(",\"type\":\"CiStale\"");
            out.text(",\"region\":", region);
            out.uint(",\"t_ms\":", *t_ms);
            out.uint(",\"until_ms\":", *until_ms);
        }
        Event::CiRestored { region, t_ms } => {
            out.tag(",\"type\":\"CiRestored\"");
            out.text(",\"region\":", region);
            out.uint(",\"t_ms\":", *t_ms);
        }
        Event::PartitionStarted {
            regions,
            t_ms,
            until_ms,
        } => {
            out.tag(",\"type\":\"PartitionStarted\"");
            out.text(",\"regions\":", regions);
            out.uint(",\"t_ms\":", *t_ms);
            out.uint(",\"until_ms\":", *until_ms);
        }
        Event::PartitionHealed { regions, t_ms } => {
            out.tag(",\"type\":\"PartitionHealed\"");
            out.text(",\"regions\":", regions);
            out.uint(",\"t_ms\":", *t_ms);
        }
        Event::TransferRetried {
            func,
            node,
            t_ms,
            attempt,
            backoff_ms,
        } => {
            out.tag(",\"type\":\"TransferRetried\"");
            out.uint(",\"func\":", *func as u64);
            out.uint(",\"node\":", *node as u64);
            out.uint(",\"t_ms\":", *t_ms);
            out.uint(",\"attempt\":", *attempt as u64);
            out.uint(",\"backoff_ms\":", *backoff_ms);
        }
        Event::CrashRejected {
            index,
            func,
            node,
            t_ms,
        } => {
            out.tag(",\"type\":\"CrashRejected\"");
            out.uint(",\"index\":", *index);
            out.uint(",\"func\":", *func as u64);
            out.uint(",\"node\":", *node as u64);
            out.uint(",\"t_ms\":", *t_ms);
        }
        Event::RunEnded {
            invocations,
            transfers,
            evictions,
            revocations,
            expired,
            horizon_ms,
        } => {
            out.tag(",\"type\":\"RunEnded\"");
            out.uint(",\"invocations\":", *invocations);
            out.uint(",\"transfers\":", *transfers);
            out.uint(",\"evictions\":", *evictions);
            out.uint(",\"revocations\":", *revocations);
            out.uint(",\"expired\":", *expired);
            out.uint(",\"horizon_ms\":", *horizon_ms);
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
        let mut bytes = b"{\"seq\":9,\"prev\":\"aa\"".to_vec();
        write_event(&ev, &mut bytes);
        bytes.push(b'}');
        let line = String::from_utf8(bytes).unwrap();
        assert_eq!(str_field(&line, "type"), Some("Released"));
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

    /// The byte writer prints every value exactly as the `fmt` oracle
    /// does: integers on both sides of every digit-count boundary,
    /// floats, flags and strings that need escaping.
    #[test]
    fn numbers_print_as_to_string() {
        fn expect(write: impl Fn(&mut dyn Fields)) {
            let mut bytes = Vec::new();
            let mut fmt = FmtFields::default();
            write(&mut bytes);
            write(&mut fmt);
            assert_eq!(String::from_utf8(bytes).unwrap(), fmt.0);
        }
        let mut unsigned = vec![0, 1, 1 << 53, u64::MAX - 1, u64::MAX];
        let mut power = 1u64;
        for _ in 0..19 {
            // 9, 10, 99, 100, … 10¹⁹ − 1, 10¹⁹.
            unsigned.extend([power * 10 - 1, power * 10]);
            power *= 10;
        }
        for &v in &unsigned {
            expect(|f| f.uint(",\"k\":", v));
        }
        let mut signed = vec![-1, -9, -10, i64::MIN, i64::MIN + 1, i64::MAX];
        signed.extend(unsigned.iter().filter_map(|&v| i64::try_from(v).ok()));
        signed.extend(
            unsigned
                .iter()
                .filter_map(|&v| i64::try_from(v).ok().map(|v| -v)),
        );
        for v in signed {
            expect(|f| f.int(",\"k\":", v));
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
            expect(|f| f.float(",\"k\":", v));
        }
        for v in [true, false] {
            expect(|f| f.flag(",\"k\":", v));
        }
        for v in [
            "",
            "CAL",
            "a\"b\\c",
            "tab\tnl\ncr\r",
            "bell\u{7}esc\u{1b}\u{1f}",
            "Zürich",
        ] {
            expect(|f| f.text(",\"k\":", v));
        }
    }

    /// Shortest-roundtrip: every finite f64 the writer prints parses
    /// back to the identical bits. Random bit patterns from a local
    /// xorshift (the telemetry crate has no rand dependency).
    #[test]
    fn f64_round_trips_bit_exactly() {
        let print = |v: f64| {
            let mut bytes = Vec::new();
            push_f64(&mut bytes, v);
            String::from_utf8(bytes).unwrap()
        };
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
            let s = print(v);
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
            let back: f64 = print(v).parse().unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
    }
}
