//! # ecolife-telemetry — the replay engine's golden-trace event stream
//!
//! TRACE-style observability for the EcoLife replay core: every
//! observable engine action — scheduler decisions, cold starts and warm
//! hits, container expiries/releases/transfers/revocations, per-region
//! CI observations, run and period boundaries — becomes one line of an
//! append-only JSONL stream with monotonic sequence numbers and a
//! SHA-256 hash chain. *If it wasn't emitted by the runtime, it didn't
//! happen.*
//!
//! The pieces:
//!
//! * [`Event`] / [`EventKey`] — the taxonomy and the canonical merge key
//!   that makes the sharded engine's stream byte-identical to the
//!   sequential reference (see [`event`] module docs);
//! * [`finalize`] — sort, number, hash-chain, and emit a collected run;
//! * [`EventSink`] — [`NullSink`] (zero-cost: collection compiles out),
//!   [`JsonlSink`] (buffered file), [`CaptureSink`] (in-memory, tests);
//! * [`verify_lines`] — re-walk a stream's hash chain;
//! * [`first_divergence`] — first divergent sequence number between two
//!   runs;
//! * [`GoldenSnapshot`] — the tiny `(workload, events, tip)` baseline
//!   format checked into `tests/golden/`;
//! * `ecolife-trace` (`src/bin/`) — `tail` / `filter` / `verify` /
//!   `diff` over stream files.
//!
//! This crate is dependency-free (the SHA-256 is vendored, like the
//! workspace's other offline stand-ins) and engine-agnostic: the sim
//! crate emits, everything downstream only reads lines.

pub mod chain;
pub mod diff;
pub mod event;
pub mod golden;
pub mod json;
pub mod sha256;
pub mod sink;

pub use chain::{
    finalize, verify_lines, ChainError, ChainSummary, ChainWalker, SequencedEvent, GENESIS,
};
pub use diff::{first_divergence, pretty, Divergence};
pub use event::{lane, Event, EventKey, ReleaseCause};
pub use golden::GoldenSnapshot;
pub use json::{field, str_field, u64_field};
pub use sha256::{sha256, sha256_hex};
pub use sink::{CaptureSink, EventSink, JsonlSink, NullSink};
