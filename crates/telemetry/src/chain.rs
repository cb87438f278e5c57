//! Sequence numbering, hash chaining, and chain verification.
//!
//! Line format (stream format v2, one JSON object per line, fields in
//! fixed order):
//!
//! ```text
//! {"seq":N,"prev":"<hex64>","type":"…",…payload…,"hash":"<hex64>"}
//! ```
//!
//! The hash is SHA-256 over the line's *head* — everything up to and
//! including the payload, closed with `}` — so `hash` covers `seq`,
//! `prev`, and the full payload. `prev` of event 0 is the 64-zero
//! genesis. The head is written in one pass of byte copies, with no
//! `core::fmt` on the way: integers print as `to_string` prints them and
//! floats as `Display` prints them (the shortest round-trip decimal, an
//! exact tie between the two closest rounded up), both by the crate's
//! own digit writers; `prev` is copied in once, and the digest's hex
//! goes through a 256-entry pair table. Re-walking a stream therefore
//! proves both integrity (no line edited) and completeness (no line
//! dropped or reordered); the chain tip alone pins an entire run, which
//! is what golden snapshots store.
//! Because each head embeds its predecessor's hash, a chain is one
//! sequential pass: no line can be serialized before the one before it
//! is hashed.
//!
//! Version 2 (`"trace_version":2` in `RunStarted`) keeps `prev` in the
//! head and moves the run's size and horizon to `RunEnded`, so no line
//! depends on anything after it and a stream can be sealed while its
//! run goes: [`Chain`] takes the run's events in sorted batches, each
//! above the last, and emits every event as soon as its batch is sealed.
//! `ecolife-sim` runs the chain on a sealer thread beside every traced
//! run — sequential, sharded or live — so [`EventSink::emit`] runs
//! there, and sinks must be `Send`.

use crate::decimal::push_u64;
use crate::event::{Event, EventKey};
use crate::json::{field, write_event};
use crate::sha256::{hex_digits, sha256, to_hex};
use crate::sink::EventSink;

/// `prev` of the first event.
pub const GENESIS: &str = "0000000000000000000000000000000000000000000000000000000000000000";

/// A sealed event: its stream position, the event itself, its line
/// hash, and the exact serialized line the JSONL sink writes.
#[derive(Debug, Clone, PartialEq)]
pub struct SequencedEvent {
    pub seq: u64,
    pub event: Event,
    pub hash: String,
    pub line: String,
}

/// What sealing (or a successful verify) reports about a stream.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainSummary {
    pub events: u64,
    /// Hash of the last event; [`GENESIS`] for an empty stream.
    pub tip: String,
}

/// Append the head of a line — everything the hash covers — to `out`:
/// fixed-size copies of the literals and of `prev`, the digits of `seq`,
/// then the event's fields.
fn write_head(out: &mut Vec<u8>, seq: u64, prev: &[u8; 64], event: &Event) {
    out.extend_from_slice(b"{\"seq\":");
    push_u64(out, seq);
    out.extend_from_slice(b",\"prev\":\"");
    out.extend_from_slice(prev);
    out.push(b'"');
    write_event(event, out);
    out.push(b'}');
}

/// `,"hash":"<hex64>"}` — what sealing puts in place of the head's
/// closing brace.
const SEAL_LEN: usize = 9 + 64 + 2;

/// Serialize and seal `ev.event` at `ev.seq` in place: `ev.hash` holds
/// the previous event's hash on entry and this event's on return, and
/// `ev.line` is overwritten with the sealed line. Both buffers keep their
/// capacity, so a stream of any length allocates them once.
fn seal_in_place(ev: &mut SequencedEvent) {
    let prev = ev
        .hash
        .as_bytes()
        .try_into()
        .expect("a hash is 64 hex digits");
    let mut line = std::mem::take(&mut ev.line).into_bytes();
    line.clear();
    write_head(&mut line, ev.seq, prev, &ev.event);
    // The seal, built on the stack and copied in once.
    let mut seal = [b'"'; SEAL_LEN];
    seal[..9].copy_from_slice(b",\"hash\":\"");
    seal[9..73].copy_from_slice(&hex_digits(&sha256(&line)));
    seal[74] = b'}';
    line.pop();
    line.extend_from_slice(&seal);
    ev.line = String::from_utf8(line).expect("a line is ASCII around the event's own strings");
    let hash = &ev.line[ev.line.len() - 66..ev.line.len() - 2];
    ev.hash.clear();
    ev.hash.push_str(hash);
}

/// A hash chain sealed a batch at a time: number, serialize, hash and
/// emit the events of each sorted batch in turn, continuing the chain
/// across batches.
///
/// Every event is sealed into one reused [`SequencedEvent`], so sealing
/// allocates nothing per event beyond what the [`Event`] itself owns.
#[derive(Debug)]
pub struct Chain {
    /// The event being sealed: `seq` is the next sequence number, and
    /// `hash` the tip between events.
    sealed: SequencedEvent,
    /// Key of the last event sealed.
    last: Option<EventKey>,
}

impl Chain {
    /// A chain at [`GENESIS`], nothing sealed.
    pub fn new() -> Self {
        Chain {
            sealed: SequencedEvent {
                seq: 0,
                // Replaced by the first event before anything is emitted.
                event: Event::PeriodStarted { minute: 0 },
                hash: GENESIS.to_string(),
                line: String::with_capacity(512),
            },
            last: None,
        }
    }

    /// Seal `batch` — sorted by key, keys unique (debug-asserted) — after
    /// everything sealed so far, emitting each event through `sink`.
    /// `batch` is left empty with its capacity, for reuse.
    ///
    /// # Panics
    /// When the batch's first key is not above the last key sealed: the
    /// stream would leave canonical order, and with it the identity of
    /// the sequential, sharded and live streams. Checked in release
    /// builds too.
    pub fn seal<K: EventSink>(&mut self, batch: &mut Vec<(EventKey, Event)>, sink: &mut K) {
        debug_assert!(
            batch.windows(2).all(|w| w[0].0 < w[1].0),
            "unsorted or duplicate event key: stream order would be ambiguous"
        );
        let (Some(&(first, _)), Some(&(last, _))) = (batch.first(), batch.last()) else {
            return;
        };
        if let Some(sealed) = self.last {
            assert!(
                first > sealed,
                "batch starts at {first:?}, not above the last sealed key {sealed:?}"
            );
        }
        self.last = Some(last);
        for (_, event) in batch.drain(..) {
            self.sealed.event = event;
            seal_in_place(&mut self.sealed);
            sink.emit(&self.sealed);
            self.sealed.seq += 1;
        }
    }

    /// Close the stream: flush `sink` and report what was sealed.
    pub fn finish<K: EventSink>(self, sink: &mut K) -> ChainSummary {
        sink.flush();
        ChainSummary {
            events: self.sealed.seq,
            tip: self.sealed.hash,
        }
    }
}

impl Default for Chain {
    fn default() -> Self {
        Chain::new()
    }
}

/// Where and why a chain walk failed.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainError {
    /// Stream position (line number, 0-based) of the offending line.
    pub seq: u64,
    pub reason: String,
    pub line: String,
}

impl std::fmt::Display for ChainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "chain broken at seq {}: {}\n  {}",
            self.seq, self.reason, self.line
        )
    }
}

/// Incremental chain verification: feed lines one at a time as they
/// appear (a live `tail --follow`, a streaming reader) and fail at the
/// first break. [`verify_lines`] is a walk over a complete stream.
#[derive(Debug, Clone)]
pub struct ChainWalker {
    prev: String,
    count: u64,
    /// Scratch for the head being re-hashed, reused across lines.
    head: String,
}

impl PartialEq for ChainWalker {
    /// Walkers are equal when they reached the same point of a chain;
    /// the scratch buffer is not part of that.
    fn eq(&self, other: &Self) -> bool {
        self.prev == other.prev && self.count == other.count
    }
}

impl ChainWalker {
    pub fn new() -> Self {
        ChainWalker {
            prev: GENESIS.to_string(),
            count: 0,
            head: String::new(),
        }
    }

    /// Lines verified so far.
    pub fn events(&self) -> u64 {
        self.count
    }

    /// Current chain tip ([`GENESIS`] before the first line).
    pub fn tip(&self) -> &str {
        &self.prev
    }

    /// Verify the next line: re-hash its head, check the embedded hash,
    /// the `prev` linkage against the walker's tip, and the sequence
    /// number. On success the walker advances; on failure it is
    /// unchanged (the same line can be retried after repair).
    pub fn push(&mut self, line: &str) -> Result<(), ChainError> {
        let count = self.count;
        let err = |reason: String| ChainError {
            seq: count,
            reason,
            line: line.to_string(),
        };
        if line.len() <= SEAL_LEN || !line.ends_with("\"}") {
            return Err(err("not a sealed event line".into()));
        }
        let embedded = field(line, "hash")
            .and_then(|h| h.strip_prefix('"'))
            .and_then(|h| h.strip_suffix('"'))
            .ok_or_else(|| err("missing hash field".into()))?;
        self.head.clear();
        self.head.push_str(&line[..line.len() - SEAL_LEN]);
        self.head.push('}');
        let mut hex = [0; 64];
        let recomputed = to_hex(&sha256(self.head.as_bytes()), &mut hex);
        if recomputed != embedded {
            return Err(err(format!(
                "hash mismatch: line claims {embedded}, content hashes to {recomputed}"
            )));
        }
        let claimed_prev = field(line, "prev")
            .and_then(|p| p.strip_prefix('"'))
            .and_then(|p| p.strip_suffix('"'))
            .ok_or_else(|| err("missing prev field".into()))?;
        if claimed_prev != self.prev {
            return Err(err(format!(
                "prev linkage broken: line claims {claimed_prev}, chain is at {}",
                self.prev
            )));
        }
        let seq = field(line, "seq")
            .and_then(|s| s.parse::<u64>().ok())
            .ok_or_else(|| err("missing seq field".into()))?;
        if seq != self.count {
            return Err(err(format!(
                "sequence gap: line claims seq {seq}, expected {}",
                self.count
            )));
        }
        self.prev.clear();
        self.prev.push_str(recomputed);
        self.count += 1;
        Ok(())
    }

    /// Close the walk into the summary a full [`verify_lines`] pass
    /// would have returned.
    pub fn summary(&self) -> ChainSummary {
        ChainSummary {
            events: self.count,
            tip: self.prev.clone(),
        }
    }
}

impl Default for ChainWalker {
    fn default() -> Self {
        ChainWalker::new()
    }
}

/// Re-walk a serialized stream: re-hash every line's head, check the
/// embedded hash, the `prev` linkage, and the sequence numbering.
/// Returns the verified [`ChainSummary`] or the first break.
pub fn verify_lines<'a, I>(lines: I) -> Result<ChainSummary, ChainError>
where
    I: IntoIterator<Item = &'a str>,
{
    let mut walker = ChainWalker::new();
    for line in lines {
        walker.push(line)?;
    }
    Ok(walker.summary())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{lane, ReleaseCause};
    use crate::json::FmtFields;
    use crate::sha256::sha256_hex;
    use crate::sink::CaptureSink;
    use proptest::prelude::*;

    /// The allocating `fmt` writer, every number through `Display`: the
    /// oracle the in-place writer must match byte for byte.
    fn serialize_head(seq: u64, prev: &str, event: &Event) -> String {
        let mut head = FmtFields(String::with_capacity(192));
        head.0.push_str("{\"seq\":");
        head.0.push_str(&seq.to_string());
        head.0.push_str(",\"prev\":\"");
        head.0.push_str(prev);
        head.0.push_str("\",\"type\":\"");
        head.0.push_str(event.type_name());
        head.0.push('"');
        write_event(event, &mut head);
        head.0.push('}');
        head.0
    }

    /// Close a head into the written line: swap the trailing `}` for
    /// `,"hash":"…"}`.
    fn seal(head: &str, hash: &str) -> String {
        let mut line = String::with_capacity(head.len() + 75);
        line.push_str(&head[..head.len() - 1]);
        line.push_str(",\"hash\":\"");
        line.push_str(hash);
        line.push_str("\"}");
        line
    }

    /// Every `Event` variant, its fields drawn from the given values
    /// (`u32` fields take `u` truncated, so `u64::MAX` gives `u32::MAX`).
    fn every_variant(u: u64, i: i64, f: f64, label: &str, flag: bool) -> Vec<Event> {
        let v = u as u32;
        let s = || label.to_string();
        let mut events = vec![
            Event::RunStarted {
                functions: u,
                nodes: u,
                trace_version: u,
            },
            Event::PeriodStarted { minute: u },
            Event::PeriodEnded { minute: u },
            Event::CiObserved {
                region: s(),
                t_ms: u,
                gco2_per_kwh: f,
            },
            Event::DecisionMade {
                index: u,
                func: v,
                t_ms: u,
                exec_node: v,
                warm: flag,
                ka_node: i,
                ka_ms: u,
            },
            Event::ColdStarted {
                index: u,
                func: v,
                node: v,
                t_ms: u,
                service_ms: u,
                service_g: f,
                energy_kwh: f,
            },
            Event::WarmHit {
                index: u,
                func: v,
                node: v,
                t_ms: u,
                service_ms: u,
                service_g: f,
                energy_kwh: f,
            },
            Event::Expired {
                node: v,
                func: v,
                since_ms: u,
                expiry_ms: u,
                keepalive_g: f,
                energy_kwh: f,
            },
            Event::Transferred {
                func: v,
                from: v,
                to: v,
                t_ms: u,
                egress_g: f,
                latency_ms: u,
            },
            Event::MembershipChanged {
                node: v,
                t_ms: u,
                joined: flag,
            },
            Event::Revoked {
                node: v,
                func: v,
                t_ms: u,
                keepalive_g: f,
                energy_kwh: f,
            },
            Event::Enqueued {
                index: u,
                func: v,
                node: v,
                t_ms: u,
                depth: v,
            },
            Event::Dequeued {
                index: u,
                func: v,
                node: v,
                start_ms: u,
                queue_ms: u,
            },
            Event::AdmissionRejected {
                index: u,
                func: v,
                node: v,
                t_ms: u,
                depth: v,
            },
            Event::NodeCrashed {
                node: v,
                t_ms: u,
                recover_ms: u,
            },
            Event::NodeRecovered { node: v, t_ms: u },
            Event::CiStale {
                region: s(),
                t_ms: u,
                until_ms: u,
            },
            Event::CiRestored {
                region: s(),
                t_ms: u,
            },
            Event::PartitionStarted {
                regions: s(),
                t_ms: u,
                until_ms: u,
            },
            Event::PartitionHealed {
                regions: s(),
                t_ms: u,
            },
            Event::TransferRetried {
                func: v,
                node: v,
                t_ms: u,
                attempt: v,
                backoff_ms: u,
            },
            Event::CrashRejected {
                index: u,
                func: v,
                node: v,
                t_ms: u,
            },
            Event::RunEnded {
                invocations: u,
                transfers: u,
                evictions: u,
                revocations: u,
                expired: u,
                horizon_ms: u,
            },
        ];
        for cause in [
            ReleaseCause::Reused,
            ReleaseCause::Replaced,
            ReleaseCause::Displaced,
            ReleaseCause::Crashed,
        ] {
            events.push(Event::Released {
                cause,
                node: v,
                func: v,
                since_ms: u,
                end_ms: u,
                keepalive_g: f,
                energy_kwh: f,
            });
        }
        events
    }

    /// Sort `events` by key and seal them as one batch of a fresh chain.
    fn seal_all(mut events: Vec<(EventKey, Event)>, sink: &mut CaptureSink) -> ChainSummary {
        events.sort_unstable_by_key(|(key, _)| *key);
        let mut chain = Chain::new();
        chain.seal(&mut events, sink);
        chain.finish(sink)
    }

    /// Events keyed in the given order, so `seal_all` keeps it.
    fn keyed(events: Vec<Event>) -> Vec<(EventKey, Event)> {
        events
            .into_iter()
            .enumerate()
            .map(|(i, e)| (EventKey::new(i as u64, lane::INVOCATION, 0, 0), e))
            .collect()
    }

    #[test]
    fn in_place_writer_matches_the_allocating_oracle() {
        let ints = [0, 1, 59_999, u64::MAX];
        let signed = [-1, 0, i64::MIN, i64::MAX, 7];
        let floats = [
            0.0,
            -0.0,
            1.0 / 3.0,
            f64::from_bits(1), // smallest subnormal
            f64::MIN_POSITIVE / 3.0,
            f64::MIN_POSITIVE,
            2.5e-7,
            1e-7,
            // 1 + 2^-17 = 1.00000762939453125: an exact tie, which
            // rounds up.
            1.0 + 2f64.powi(-17),
            390.0490987381429,
            1e21,
            f64::MAX,
        ];
        let labels = [
            "CAL",
            "",
            "a\"b\\c",
            "tab\tnl\ncr\r",
            "bell\u{7}esc\u{1b}",
            "Zürich",
        ];
        let mut events = Vec::new();
        for (k, &u) in ints.iter().enumerate() {
            for (j, &f) in floats.iter().enumerate() {
                let i = signed[(k + j) % signed.len()];
                let label = labels[(k + j) % labels.len()];
                events.extend(every_variant(u, i, f, label, j % 2 == 0));
            }
        }
        let mut cap = CaptureSink::default();
        let summary = seal_all(keyed(events.clone()), &mut cap);

        let mut prev = GENESIS.to_string();
        for (seq, event) in events.iter().enumerate() {
            let head = serialize_head(seq as u64, &prev, event);
            let hash = sha256_hex(head.as_bytes());
            let got = &cap.events[seq];
            assert_eq!(got.seq, seq as u64);
            assert_eq!(&got.event, event);
            assert_eq!(got.line, seal(&head, &hash), "seq {seq}");
            assert_eq!(got.hash, hash, "seq {seq}");
            prev = hash;
        }
        assert_eq!(summary.events, events.len() as u64);
        assert_eq!(summary.tip, prev);
        assert_eq!(
            verify_lines(cap.lines()).expect("sealed stream verifies"),
            summary
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Any permutation of a unique-key event set seals to the same
        /// lines and the same tip: the unstable sort is exact.
        #[test]
        fn any_permutation_seals_identically(
            raw in prop::collection::vec((0u64..40, 0u8..17, 0u32..3, 0u64..1_000), 1..120),
            shuffle_seed in 1u64..u64::MAX,
        ) {
            let mut keys: Vec<(EventKey, u64)> = raw
                .into_iter()
                .map(|(pos, lane, a, v)| (EventKey::new(pos, lane, a, 0), v))
                .collect();
            keys.sort_by_key(|(k, _)| *k);
            keys.dedup_by_key(|(k, _)| *k);
            let events: Vec<(EventKey, Event)> = keys
                .iter()
                .map(|&(key, v)| {
                    let variants = every_variant(v, -(v as i64), v as f64 / 7.0, "FRA", v % 2 == 0);
                    (key, variants[(v as usize) % variants.len()].clone())
                })
                .collect();
            let mut shuffled = events.clone();
            let mut x = shuffle_seed;
            for i in (1..shuffled.len()).rev() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                shuffled.swap(i, (x % (i as u64 + 1)) as usize);
            }
            let (mut a, mut b) = (CaptureSink::default(), CaptureSink::default());
            let sa = seal_all(events, &mut a);
            let sb = seal_all(shuffled, &mut b);
            prop_assert_eq!(a.lines(), b.lines());
            prop_assert_eq!(sa, sb);
        }
    }

    fn sample_events() -> Vec<(EventKey, Event)> {
        vec![
            (
                EventKey::new(2, lane::RUN_ENDED, 0, 0),
                Event::RunEnded {
                    invocations: 2,
                    transfers: 0,
                    evictions: 0,
                    revocations: 0,
                    expired: 1,
                    horizon_ms: 60_000,
                },
            ),
            (
                EventKey::new(0, lane::RUN_STARTED, 0, 0),
                Event::RunStarted {
                    functions: 1,
                    nodes: 2,
                    trace_version: crate::TRACE_VERSION,
                },
            ),
            (
                EventKey::new(1, lane::INVOCATION, 0, 0),
                Event::DecisionMade {
                    index: 1,
                    func: 0,
                    t_ms: 60_000,
                    exec_node: 1,
                    warm: true,
                    ka_node: -1,
                    ka_ms: 0,
                },
            ),
        ]
    }

    #[test]
    fn a_sorted_batch_chains_and_verifies() {
        let mut cap = CaptureSink::default();
        let summary = seal_all(sample_events(), &mut cap);
        assert_eq!(summary.events, 3);
        assert_eq!(cap.events[0].event.type_name(), "RunStarted");
        assert_eq!(cap.events[2].event.type_name(), "RunEnded");
        assert_eq!(summary.tip, cap.events[2].hash);
        let verified = verify_lines(cap.lines()).expect("fresh stream verifies");
        assert_eq!(verified, summary);
    }

    #[test]
    fn sealing_in_batches_continues_one_chain() {
        let mut whole = CaptureSink::default();
        let summary = seal_all(sample_events(), &mut whole);

        let mut sorted = sample_events();
        sorted.sort_unstable_by_key(|(key, _)| *key);
        let mut batched = CaptureSink::default();
        let mut chain = Chain::new();
        let mut tail = sorted.split_off(1);
        chain.seal(&mut sorted, &mut batched);
        assert_eq!(batched.len(), 1);
        chain.seal(&mut Vec::new(), &mut batched);
        chain.seal(&mut tail, &mut batched);
        assert!(sorted.is_empty() && tail.is_empty());
        assert_eq!(chain.finish(&mut batched), summary);
        assert_eq!(batched.lines(), whole.lines());
    }

    #[test]
    #[should_panic(expected = "not above the last sealed key")]
    fn a_batch_below_the_last_sealed_key_panics() {
        let mut sorted = sample_events();
        sorted.sort_unstable_by_key(|(key, _)| *key);
        let mut early = sorted.drain(..1).collect();
        let mut chain = Chain::new();
        chain.seal(&mut sorted, &mut CaptureSink::default());
        chain.seal(&mut early, &mut CaptureSink::default());
    }

    #[test]
    fn collection_order_does_not_change_bytes() {
        let mut a = CaptureSink::default();
        let mut b = CaptureSink::default();
        seal_all(sample_events(), &mut a);
        let mut reversed = sample_events();
        reversed.reverse();
        seal_all(reversed, &mut b);
        assert_eq!(a.lines(), b.lines());
    }

    #[test]
    fn tampering_breaks_the_chain_at_the_edited_line() {
        let mut cap = CaptureSink::default();
        seal_all(sample_events(), &mut cap);
        let mut lines: Vec<String> = cap.lines().iter().map(|s| s.to_string()).collect();
        lines[1] = lines[1].replace("\"warm\":true", "\"warm\":false");
        let err = verify_lines(lines.iter().map(|s| s.as_str())).unwrap_err();
        assert_eq!(err.seq, 1);
        assert!(err.reason.contains("hash mismatch"), "{}", err.reason);
    }

    #[test]
    fn dropping_a_line_breaks_prev_linkage() {
        let mut cap = CaptureSink::default();
        seal_all(sample_events(), &mut cap);
        let lines: Vec<&str> = cap.lines().to_vec();
        let err = verify_lines([lines[0], lines[2]]).unwrap_err();
        assert_eq!(err.seq, 1);
        assert!(err.reason.contains("prev linkage"), "{}", err.reason);
    }

    #[test]
    fn empty_stream_tip_is_genesis() {
        let mut cap = CaptureSink::default();
        let summary = seal_all(Vec::new(), &mut cap);
        assert_eq!(summary.tip, GENESIS);
        assert_eq!(verify_lines([]).unwrap().tip, GENESIS);
    }
}
