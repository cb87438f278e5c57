//! The stream is sealed while the run goes (`ecolife_sim::stream`): a
//! live service's sink holds a verifiable chain prefix before the run
//! ends, and a panic on either side of the sealer thread — the sink's or
//! the scheduler's — reaches the caller with its own message instead of
//! a channel error or a hang. The interleavings are forced with
//! channels; the timeouts only turn a hang into a failure.

use ecolife::prelude::*;
use ecolife::sim::stream::SEAL_BATCH;
use ecolife::sim::{Decision, InvocationCtx, KeepAliveChoice};
use ecolife::telemetry::{str_field, u64_field, ChainWalker, SequencedEvent};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, Sender};
use std::time::Duration;

/// How long a test waits on a run before calling it hung.
const HUNG: Duration = Duration::from_secs(120);

/// Run where warm (else node 0), keep alive two minutes there; with
/// `give_up_at`, panic on reaching that invocation.
struct Sticky {
    give_up_at: Option<usize>,
}

fn sticky() -> Sticky {
    Sticky { give_up_at: None }
}

impl Scheduler for Sticky {
    fn name(&self) -> &'static str {
        "sticky"
    }
    fn decide(&mut self, ctx: &InvocationCtx<'_>) -> Decision {
        if self.give_up_at == Some(ctx.index) {
            panic!("scheduler gave up at invocation {}", ctx.index);
        }
        let exec = ctx.warm_at.unwrap_or(NodeId(0));
        Decision {
            exec,
            keepalive: Some(KeepAliveChoice {
                location: exec,
                duration_ms: 120_000,
            }),
        }
    }
}

/// A few thousand invocations: several sealer batches of events.
fn workload() -> Trace {
    SynthTraceConfig {
        n_functions: 64,
        duration_min: 120,
        ..SynthTraceConfig::small(21)
    }
    .generate(&WorkloadCatalog::sebs())
}

fn ci() -> CarbonIntensityTrace {
    CarbonIntensityTrace::constant(300.0, 600)
}

/// Sends every sealed line to the test thread as the sealer emits it.
struct TapSink {
    lines: Sender<String>,
}

impl EventSink for TapSink {
    const ENABLED: bool = true;
    fn emit(&mut self, event: &SequencedEvent) {
        // The test thread may have stopped listening after a failure.
        let _ = self.lines.send(event.line.clone());
    }
}

/// A trace's arrivals that stop after `gate_at` of them: the source
/// reports that it is blocked, then waits for the gate to open (or for
/// the test thread to drop its end, on a failure).
struct Gated<'t> {
    arrivals: ecolife::trace::TraceSource<'t>,
    served: usize,
    gate_at: usize,
    blocked: Sender<()>,
    gate: Receiver<()>,
}

impl InvocationSource for Gated<'_> {
    fn next_invocation(&mut self) -> Option<Invocation> {
        if self.served == self.gate_at {
            let _ = self.blocked.send(());
            let _ = self.gate.recv();
        }
        self.served += 1;
        self.arrivals.next_invocation()
    }
}

/// The live service's sink receives a chain prefix that verifies while
/// the service is still blocked on its source halfway through the
/// workload, and the finished stream is the batch replay's, line for
/// line.
#[test]
fn a_served_stream_verifies_mid_run_and_ends_as_the_batch_replay() {
    let trace = workload();
    let ci = ci();
    let mut batch = CaptureSink::default();
    Simulation::new(&trace, &ci, skus::fleet_a()).run_with_sink(&mut sticky(), &mut batch);
    let want = batch.lines();

    // Block the source after `gate_at` arrivals. Every event anchored
    // below index `gate_at - 1` is final once that index is ingested,
    // and these fill at least one batch: the decision of index
    // `gate_at - 2` comes after all of them in the sealed stream.
    let gate_at = trace.len() / 2;
    let decided = want
        .iter()
        .position(|l| {
            str_field(l, "type") == Some("DecisionMade")
                && u64_field(l, "index") == Some(gate_at as u64 - 2)
        })
        .expect("the batch stream decides every invocation");
    assert!(
        decided >= SEAL_BATCH,
        "only {decided} events precede the gate; the workload is too small"
    );

    std::thread::scope(|scope| {
        let (line_tx, lines) = mpsc::channel();
        let (blocked_tx, blocked) = mpsc::channel();
        let (open, gate) = mpsc::channel();
        let (trace, ci) = (&trace, &ci);
        let service = scope.spawn(move || {
            let source = Gated {
                arrivals: trace.source(),
                served: 0,
                gate_at,
                blocked: blocked_tx,
                gate,
            };
            let mut sink = TapSink { lines: line_tx };
            Service::new(trace.catalog().clone(), ci, skus::fleet_a())
                .serve_with_sink(source, &mut sticky(), &mut sink)
                .expect("in-order arrivals over the catalog")
        });

        // 1. The source is blocked, and the sink has received an event.
        blocked
            .recv_timeout(HUNG)
            .expect("the service pulls up to the gate");
        let first = lines
            .recv_timeout(HUNG)
            .expect("an event reaches the sink while the source is blocked");

        // 2. While the source is still blocked, the prefix verifies.
        let mut got: Vec<String> = std::iter::once(first).chain(lines.try_iter()).collect();
        let mut walker = ChainWalker::new();
        for line in &got {
            walker.push(line).expect("the mid-run prefix chains");
        }
        assert!(!service.is_finished(), "the service waits at the gate");
        assert!(got.len() < want.len(), "RunEnded is not sealed yet");
        assert_eq!(got, want[..got.len()]);

        // 3. Open the gate: the run ends with the batch replay's lines.
        open.send(()).expect("the source waits at the gate");
        let served = service.join().expect("the service returns");
        got.extend(lines.iter());
        for line in &got[walker.events() as usize..] {
            walker.push(line).expect("the whole stream chains");
        }
        assert_eq!(got, want);
        assert_eq!(walker.tip(), batch.tip().expect("a stream"));
        assert_eq!(served.invocations(), trace.len());
    });
}

/// The message of a panic payload (`panic!` with or without arguments).
fn message(payload: Box<dyn Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => payload
            .downcast_ref::<&str>()
            .map_or_else(|| "<not a string>".to_string(), |s| s.to_string()),
    }
}

/// Run `run` on a thread of its own and return its panic message.
/// Fails when `run` does not panic, or has not returned within [`HUNG`]
/// (the thread is then left behind).
fn panic_of(run: impl FnOnce() + Send + 'static) -> String {
    let (done, outcome) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        let _ = done.send(catch_unwind(AssertUnwindSafe(run)).err().map(message));
    });
    let outcome = outcome
        .recv_timeout(HUNG)
        .expect("the run returns instead of hanging");
    runner.join().expect("the run's panic was caught");
    outcome.expect("the run panics")
}

/// A sink whose every `emit` panics.
struct Refusing;

impl EventSink for Refusing {
    const ENABLED: bool = true;
    fn emit(&mut self, _event: &SequencedEvent) {
        panic!("the sink refused an event");
    }
}

fn run_with<K: EventSink>(scheduler: &mut Sticky, sink: &mut K) {
    let (trace, ci) = (workload(), ci());
    Simulation::new(&trace, &ci, skus::fleet_a()).run_with_sink(scheduler, sink);
}

fn serve_with<K: EventSink>(scheduler: &mut Sticky, sink: &mut K) {
    let (trace, ci) = (workload(), ci());
    Service::new(trace.catalog().clone(), &ci, skus::fleet_a())
        .serve_with_sink(trace.source(), scheduler, sink)
        .expect("in-order arrivals over the catalog");
}

/// A panic in the sink's `emit` runs on the sealer thread; the caller
/// of the sequential run and of the live service gets it with its own
/// message.
#[test]
fn a_sink_panic_reaches_the_caller_with_its_own_message() {
    let want = "the sink refused an event";
    assert_eq!(panic_of(|| run_with(&mut sticky(), &mut Refusing)), want);
    assert_eq!(panic_of(|| serve_with(&mut sticky(), &mut Refusing)), want);
}

/// `JsonlSink` panics on a failed write: `/dev/full` fails every write
/// once the sink's buffer fills.
#[cfg(target_os = "linux")]
#[test]
fn a_failed_jsonl_write_reaches_the_caller_with_its_own_message() {
    let full = || JsonlSink::create("/dev/full").expect("/dev/full opens for writing");
    let want = "telemetry: JSONL sink write failed";
    let msg = panic_of(move || run_with(&mut sticky(), &mut full()));
    assert!(msg.starts_with(want), "{msg}");
    let msg = panic_of(move || serve_with(&mut sticky(), &mut full()));
    assert!(msg.starts_with(want), "{msg}");
}

/// A scheduler that panics mid-run, after the sealer has sealed batches,
/// surfaces its own message, and the call returns: the sealer ends when
/// the unwinding run drops its end of the channel.
#[test]
fn a_scheduler_panic_reaches_the_caller_and_stops_the_sealer() {
    let at = workload().len() / 2;
    let want = format!("scheduler gave up at invocation {at}");
    let quitter = move || Sticky {
        give_up_at: Some(at),
    };
    let msg = panic_of(move || run_with(&mut quitter(), &mut CaptureSink::default()));
    assert_eq!(msg, want);
    let msg = panic_of(move || serve_with(&mut quitter(), &mut CaptureSink::default()));
    assert_eq!(msg, want);
}
