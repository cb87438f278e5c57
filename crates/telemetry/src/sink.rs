//! Event sinks: where a sealed stream goes.
//!
//! The trait carries a `const ENABLED` so the engine can monomorphize
//! telemetry away entirely: every collection point is guarded by
//! `if K::ENABLED`, which is a compile-time constant — a run with
//! [`NullSink`] compiles to exactly the untraced engine, and spawns no
//! sealer thread.
//!
//! Sinks must be `Send`. The sequential replay and the live service
//! seal their stream on a sealer thread while the run goes (see
//! `ecolife-sim`'s `stream` module), so [`EventSink::emit`] and
//! [`EventSink::flush`] run on that thread, not the caller's. A sink
//! that panics there — [`JsonlSink`] does on a failed write — ends the
//! sealer, and the panic reaches the run's caller with its own payload.

use crate::chain::SequencedEvent;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

/// Receives the sealed, hash-chained stream in sequence order — on the
/// sealer thread when a sequential or live run streams (see the module
/// docs).
pub trait EventSink: Send {
    /// Whether the engine should collect events at all. `false` turns
    /// every emission site into dead code.
    const ENABLED: bool;

    fn emit(&mut self, event: &SequencedEvent);

    /// Called once after the last event.
    fn flush(&mut self) {}
}

/// The zero-cost default: telemetry compiled in, collection compiled out.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl EventSink for NullSink {
    const ENABLED: bool = false;
    #[inline(always)]
    fn emit(&mut self, _event: &SequencedEvent) {}
}

/// Buffered JSONL file sink: one sealed event line per line.
#[derive(Debug)]
pub struct JsonlSink {
    writer: BufWriter<File>,
}

impl JsonlSink {
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(JsonlSink {
            writer: BufWriter::new(File::create(path)?),
        })
    }
}

impl EventSink for JsonlSink {
    const ENABLED: bool = true;
    fn emit(&mut self, event: &SequencedEvent) {
        // The engine has nowhere to surface an I/O error mid-run;
        // failing loudly beats silently truncating a golden trace.
        self.writer
            .write_all(event.line.as_bytes())
            .and_then(|_| self.writer.write_all(b"\n"))
            .expect("telemetry: JSONL sink write failed");
    }
    fn flush(&mut self) {
        self.writer
            .flush()
            .expect("telemetry: JSONL sink flush failed");
    }
}

/// In-memory capture for tests and golden generation.
#[derive(Debug, Default, Clone)]
pub struct CaptureSink {
    pub events: Vec<SequencedEvent>,
}

impl CaptureSink {
    /// The serialized lines, in stream order.
    pub fn lines(&self) -> Vec<&str> {
        self.events.iter().map(|e| e.line.as_str()).collect()
    }

    /// Hash of the last event (the chain tip), if any.
    pub fn tip(&self) -> Option<&str> {
        self.events.last().map(|e| e.hash.as_str())
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The whole stream as JSONL text (what [`JsonlSink`] would have
    /// written).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.line);
            out.push('\n');
        }
        out
    }
}

impl EventSink for CaptureSink {
    const ENABLED: bool = true;
    fn emit(&mut self, event: &SequencedEvent) {
        self.events.push(event.clone());
    }
}
