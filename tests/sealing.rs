//! Every traced run seals its stream while it goes (`ecolife_sim::stream`):
//! a live service's and a sharded run's sinks hold a verifiable chain
//! prefix before the run ends, a sharded run's barrier hand-offs add up
//! to the sequential stream, the stepping API seals through the same
//! sealer, and a panic on either side of the sealer thread — the sink's
//! or the scheduler's — reaches the caller with its own message instead
//! of a channel error or a hang. The interleavings are forced with
//! channels; the timeouts only turn a hang into a failure.

use ecolife::prelude::*;
use ecolife::sim::stream::SEAL_BATCH;
use ecolife::sim::{shard_of, Decision, InvocationCtx, KeepAliveChoice};
use ecolife::telemetry::{str_field, u64_field, ChainWalker, SequencedEvent};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, Sender};
use std::time::Duration;

/// How long a test waits on a run before calling it hung.
const HUNG: Duration = Duration::from_secs(120);

/// A point a run stops at: on reaching it, the run reports that it is
/// blocked, then waits for the gate to open (or for the test thread to
/// drop its end, on a failure).
struct Gate {
    at: usize,
    blocked: Sender<()>,
    open: Receiver<()>,
}

impl Gate {
    /// Stop here if `n` is the gate's point.
    fn pass(&self, n: usize) {
        if n == self.at {
            let _ = self.blocked.send(());
            let _ = self.open.recv();
        }
    }
}

/// Run where warm (else node 0), keep alive two minutes there; with
/// `give_up_at`, panic on reaching that invocation; with `gate`, stop at
/// its invocation.
struct Sticky {
    give_up_at: Option<usize>,
    gate: Option<Gate>,
}

fn sticky() -> Sticky {
    Sticky {
        give_up_at: None,
        gate: None,
    }
}

impl Scheduler for Sticky {
    fn name(&self) -> &'static str {
        "sticky"
    }
    fn decide(&mut self, ctx: &InvocationCtx<'_>) -> Decision {
        if self.give_up_at == Some(ctx.index) {
            panic!("scheduler gave up at invocation {}", ctx.index);
        }
        if let Some(gate) = &self.gate {
            gate.pass(ctx.index);
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

/// Position in `lines` of the decision for invocation `index`.
fn decision_of(lines: &[&str], index: usize) -> usize {
    lines
        .iter()
        .position(|l| {
            str_field(l, "type") == Some("DecisionMade")
                && u64_field(l, "index") == Some(index as u64)
        })
        .expect("the stream decides every invocation")
}

/// Start `run` on a thread of its own, handing it a gate at invocation
/// `at` and a sink that taps every sealed line. While the run waits at
/// the gate, the lines sealed so far chain and are a strict prefix of
/// `want`; once the gate opens, the run ends with exactly `want`.
fn verifies_while_blocked(want: &CaptureSink, at: usize, run: impl FnOnce(Gate, TapSink) + Send) {
    let want_lines = want.lines();
    std::thread::scope(|scope| {
        let (line_tx, lines) = mpsc::channel();
        let (blocked_tx, blocked) = mpsc::channel();
        let (open, gate) = mpsc::channel();
        let gate = Gate {
            at,
            blocked: blocked_tx,
            open: gate,
        };
        let runner = scope.spawn(move || run(gate, TapSink { lines: line_tx }));

        // 1. The run is blocked, and the sink has received an event.
        blocked
            .recv_timeout(HUNG)
            .expect("the run reaches the gate");
        let first = lines
            .recv_timeout(HUNG)
            .expect("an event reaches the sink while the run is blocked");

        // 2. While the run is still blocked, the prefix verifies.
        let mut got: Vec<String> = std::iter::once(first).chain(lines.try_iter()).collect();
        let mut walker = ChainWalker::new();
        for line in &got {
            walker.push(line).expect("the mid-run prefix chains");
        }
        assert!(!runner.is_finished(), "the run waits at the gate");
        assert!(got.len() < want_lines.len(), "RunEnded is not sealed yet");
        assert_eq!(got, want_lines[..got.len()]);

        // 3. Open the gate: the run ends with the wanted lines.
        open.send(()).expect("the run waits at the gate");
        runner.join().expect("the run returns");
        got.extend(lines.iter());
        for line in &got[walker.events() as usize..] {
            walker.push(line).expect("the whole stream chains");
        }
        assert_eq!(got, want_lines);
        assert_eq!(walker.tip(), want.tip().expect("a stream"));
    });
}

/// A trace's arrivals that stop at the gate's arrival.
struct Gated<'t> {
    arrivals: ecolife::trace::TraceSource<'t>,
    served: usize,
    gate: Gate,
}

impl InvocationSource for Gated<'_> {
    fn next_invocation(&mut self) -> Option<Invocation> {
        self.gate.pass(self.served);
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

    // Block the source after `gate_at` arrivals. Every event anchored
    // below index `gate_at - 1` is final once that index is ingested,
    // and these fill at least one batch: the decision of index
    // `gate_at - 2` comes after all of them in the sealed stream.
    let gate_at = trace.len() / 2;
    let decided = decision_of(&batch.lines(), gate_at - 2);
    assert!(
        decided >= SEAL_BATCH,
        "only {decided} events precede the gate; the workload is too small"
    );

    let (trace, ci) = (&trace, &ci);
    verifies_while_blocked(&batch, gate_at, |gate, mut sink| {
        let source = Gated {
            arrivals: trace.source(),
            served: 0,
            gate,
        };
        let served = Service::new(trace.catalog().clone(), ci, skus::fleet_a())
            .serve_with_sink(source, &mut sticky(), &mut sink)
            .expect("in-order arrivals over the catalog");
        assert_eq!(served.invocations(), trace.len());
    });
}

/// A sharded run hands its shards' final events to the sealer at each
/// period barrier: while a shard's scheduler is blocked late in the
/// run, the sink holds a chain prefix that verifies, and the finished
/// stream is the sequential run's, line for line.
#[test]
fn a_sharded_stream_verifies_mid_run_and_ends_as_the_sequential_run() {
    let trace = workload();
    let ci = ci();
    let sim = Simulation::new(&trace, &ci, skus::fleet_a());
    let mut sequential = CaptureSink::default();
    sim.run_with_sink(&mut sticky(), &mut sequential);

    // Block the scheduler at a late invocation. Once the reconcile of
    // its period has run, every event anchored below the period's first
    // index is final, and these fill at least one batch.
    let gate_at = trace.len() * 3 / 4;
    let minute_ms = trace.invocations()[gate_at].t_ms / MINUTE_MS * MINUTE_MS;
    let first = trace
        .invocations()
        .partition_point(|inv| inv.t_ms < minute_ms);
    let decided = decision_of(&sequential.lines(), first);
    assert!(
        decided >= 2 * SEAL_BATCH,
        "only {decided} events precede the gate's period; the workload is too small"
    );

    let owner = shard_of(trace.invocations()[gate_at].func, 2);
    verifies_while_blocked(&sequential, gate_at, |gate, mut sink| {
        let gate = std::cell::RefCell::new(Some(gate));
        let metrics = sim.run_sharded_with_sink(
            |shard| Sticky {
                give_up_at: None,
                gate: if shard == owner {
                    gate.borrow_mut().take()
                } else {
                    None
                },
            },
            &ShardOptions::new(2).with_threads(1),
            &mut sink,
        );
        assert_eq!(metrics.reconcile_revocations, 0);
    });
}

/// Sequential ≡ sharded, lines and tip, on a stream long enough for
/// dozens of barrier hand-offs: a hand-off that cuts above the period's
/// first index, or that runs before the period's reconcile, seals a
/// batch below the last sealed key and fails the chain's assert.
#[test]
fn barrier_hand_offs_add_up_to_the_sequential_stream() {
    let trace = SynthTraceConfig {
        n_functions: 200,
        duration_min: 240,
        ..SynthTraceConfig::small(21)
    }
    .generate(&WorkloadCatalog::sebs());
    let ci = ci();
    let fleet = skus::fleet_three_generations();
    let pinned = || FixedPolicy::pinned(fleet.newest(), 2);
    let sim = Simulation::new(&trace, &ci, fleet.clone());
    let mut sequential = CaptureSink::default();
    sim.run_with_sink(&mut pinned(), &mut sequential);
    assert!(
        sequential.len() >= 32 * SEAL_BATCH,
        "{} events are too few for dozens of hand-offs",
        sequential.len()
    );

    for (shards, threads) in [(2, 1), (8, 2)] {
        let mut sharded = CaptureSink::default();
        let opts = ShardOptions::new(shards).with_threads(threads);
        let metrics = sim.run_sharded_with_sink(|_| pinned(), &opts, &mut sharded);
        assert_eq!(metrics.reconcile_revocations, 0, "{shards}×{threads}");
        assert_eq!(sharded.lines(), sequential.lines(), "{shards}×{threads}");
        assert_eq!(sharded.tip(), sequential.tip(), "{shards}×{threads}");
    }
}

/// Drive a [`Sticky`] scheduler over the trace through the engine's
/// stepping API (`begin` / `ingest` / `finish` / `seal`), sealing
/// through `sink`.
fn stepped<K: EventSink>(sim: &Simulation<'_>, trace: &Trace, sink: &mut K) -> RunMetrics {
    let engine = sim.engine();
    let mut scheduler = sticky();
    let mut state = engine.begin();
    scheduler.prepare(trace);
    for (index, inv) in trace.invocations().iter().enumerate() {
        engine.ingest::<_, K>(&mut state, index, inv, &mut scheduler);
    }
    engine.finish::<K>(&mut state);
    engine.seal(state, sink)
}

/// `Engine::seal` seals the whole collected stream through the one
/// sealer: with a sink, the stepped run's lines and tip are
/// `run_with_sink`'s; with `NullSink`, its records are.
#[test]
fn the_stepping_api_seals_as_run_with_sink() {
    let trace = workload();
    let ci = ci();
    let sim = Simulation::new(&trace, &ci, skus::fleet_a());
    let mut want = CaptureSink::default();
    let reference = sim.run_with_sink(&mut sticky(), &mut want);

    let mut got = CaptureSink::default();
    let traced = stepped(&sim, &trace, &mut got);
    assert_eq!(got.lines(), want.lines());
    assert_eq!(got.tip(), want.tip());
    assert_eq!(traced.records, reference.records);

    let untraced = stepped(&sim, &trace, &mut NullSink);
    assert_eq!(untraced.records, reference.records);
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

/// The drivers every panic test runs: the sequential replay, the live
/// service, and the sharded replay (2 shards) on 1 and 2 threads.
#[derive(Debug, Clone, Copy)]
enum Driver {
    Sequential,
    Served,
    Sharded(usize),
}

const DRIVERS: [Driver; 4] = [
    Driver::Sequential,
    Driver::Served,
    Driver::Sharded(1),
    Driver::Sharded(2),
];

/// Run the workload through `driver`, every scheduler from `scheduler`,
/// sealing through `sink`.
fn drive<K: EventSink>(driver: Driver, scheduler: impl Fn() -> Sticky, sink: &mut K) {
    let (trace, ci) = (workload(), ci());
    match driver {
        Driver::Sequential => {
            Simulation::new(&trace, &ci, skus::fleet_a()).run_with_sink(&mut scheduler(), sink);
        }
        Driver::Served => {
            Service::new(trace.catalog().clone(), &ci, skus::fleet_a())
                .serve_with_sink(trace.source(), &mut scheduler(), sink)
                .expect("in-order arrivals over the catalog");
        }
        Driver::Sharded(threads) => {
            let opts = ShardOptions::new(2).with_threads(threads);
            Simulation::new(&trace, &ci, skus::fleet_a()).run_sharded_with_sink(
                |_| scheduler(),
                &opts,
                sink,
            );
        }
    }
}

/// A panic in the sink's `emit` runs on the sealer thread; the caller
/// of every driver gets it with its own message.
#[test]
fn a_sink_panic_reaches_the_caller_with_its_own_message() {
    for driver in DRIVERS {
        let msg = panic_of(move || drive(driver, sticky, &mut Refusing));
        assert_eq!(msg, "the sink refused an event", "{driver:?}");
    }
}

/// `JsonlSink` panics on a failed write: `/dev/full` fails every write
/// once the sink's buffer fills.
#[cfg(target_os = "linux")]
#[test]
fn a_failed_jsonl_write_reaches_the_caller_with_its_own_message() {
    for driver in DRIVERS {
        let msg = panic_of(move || {
            let mut full = JsonlSink::create("/dev/full").expect("/dev/full opens for writing");
            drive(driver, sticky, &mut full)
        });
        assert!(
            msg.starts_with("telemetry: JSONL sink write failed"),
            "{driver:?}: {msg}"
        );
    }
}

/// A scheduler that panics mid-run, after the sealer has sealed batches,
/// surfaces its own message, and the call returns: the sealer ends when
/// the unwinding run drops its end of the channel.
#[test]
fn a_scheduler_panic_reaches_the_caller_and_stops_the_sealer() {
    let at = workload().len() / 2;
    let quitter = move || Sticky {
        give_up_at: Some(at),
        gate: None,
    };
    for driver in DRIVERS {
        let msg = panic_of(move || drive(driver, quitter, &mut CaptureSink::default()));
        assert_eq!(
            msg,
            format!("scheduler gave up at invocation {at}"),
            "{driver:?}"
        );
    }
}
