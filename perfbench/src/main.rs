//! The repository's benchmark: four workloads, each timed end to end
//! and, in a separate traced run, split across the crates' layers by
//! wrapping the calls into their public APIs.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload replay_bare --seed 1 --seconds 16 --trace 0
//! ```
//!
//! See `perfbench/README.md` for the workloads, the metrics and what
//! each per-layer metric is expected to move.

mod calib;
mod planner;
mod probe;
mod replay;
mod report;
mod service;
mod stats;
mod sys;

use ecolife_sim::RunMetrics;
use report::Outcome;
use std::time::{Duration, Instant};

/// Seed of the synthetic function population (profiles, popularity,
/// arrival classes) every run of a workload shares. `--seed` picks the
/// rest: the phase of the arrival day, the carbon-intensity series
/// (`planner_pso`'s is flat), and `service_chaos_traced`'s burst
/// positions and fault-plan seed. A fresh population per seed would make
/// run-to-run differences measure the population draw (a 300-function
/// trace's throughput moved ±30% between draws) instead of the program.
pub const POPULATION_SEED: u64 = 41;

/// The workload's synthetic trace: a fixed population, its arrival day
/// rotated by a seed-chosen phase.
pub fn synth_trace(n_functions: usize, minutes: u64, seed: u64) -> ecolife_trace::Trace {
    ecolife_trace::SynthTraceConfig {
        n_functions,
        duration_min: minutes,
        seed: POPULATION_SEED,
        ..Default::default()
    }
    .with_phase_offset_min(ecolife_trace::splitmix64(seed) % minutes)
    .generate_scaled(&ecolife_trace::WorkloadCatalog::sebs())
}

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const WORKLOADS: &[&str] = &[
    "replay_bare",
    "ecolife_pressured",
    "service_chaos_traced",
    "planner_pso",
];

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "replay_bare" => replay::replay_bare(&args),
        "ecolife_pressured" => replay::ecolife_pressured(&args),
        "service_chaos_traced" => service::service_chaos(&args),
        "planner_pso" => planner::planner_pso(&args),
        _ => unreachable!("workload validated by parse_args"),
    };
    println!(
        "{}",
        outcome.report_json(&args.workload, args.seed, args.trace)
    );
    println!("{}", outcome.result_json(args.trace));
    if !outcome.correct() {
        std::process::exit(1);
    }
}

/// Set-up repetitions: at least this many, and more until
/// [`SETUP_BUDGET_S`] is spent (up to [`SETUP_MAX_REPS`]), so that even a
/// sub-millisecond set-up is a median of many samples.
const SETUP_MIN_REPS: usize = 3;
const SETUP_BUDGET_S: f64 = 0.25;
const SETUP_MAX_REPS: usize = 5_000;

/// Build the workload's inputs repeatedly (dropping all but the last)
/// and return them with the median build time. Repeating the set-up
/// steadies `setup_s` against one slow allocation or page-in; the whole
/// series is one host-scaled pass.
pub fn timed_setup<T>(mut build: impl FnMut() -> T) -> (T, calib::Passes) {
    let mut passes = calib::Passes::default();
    let inputs = passes.time_own(|| {
        let mut secs = Vec::new();
        let mut last = None;
        while secs.len() < SETUP_MIN_REPS
            || (secs.iter().sum::<f64>() < SETUP_BUDGET_S && secs.len() < SETUP_MAX_REPS)
        {
            drop(last.take());
            let start = Instant::now();
            last = Some(std::hint::black_box(build()));
            secs.push(start.elapsed().as_secs_f64());
        }
        (last.expect("at least one set-up"), stats::median(&secs))
    });
    (inputs, passes)
}

/// Run `pass` back to back until `seconds` have passed, and at least
/// `min_passes` times. Each pass times its own measured region, so its
/// output checks stay outside it.
pub fn repeat_for(seconds: f64, min_passes: usize, mut pass: impl FnMut(usize)) {
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut done = 0;
    while done < min_passes || start.elapsed() < budget {
        pass(done);
        done += 1;
    }
}

/// Cores this process may use.
pub fn cpus() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// Seconds `f` took, and its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = std::hint::black_box(f());
    (start.elapsed().as_secs_f64(), out)
}

/// Cost of one `Instant::now()` pair — what the engine's built-in
/// `decision_overhead_ns` timer pays per decision.
pub fn instant_pair_ns() -> f64 {
    const N: u32 = 200_000;
    let start = Instant::now();
    let mut sink = 0u64;
    for _ in 0..N {
        let a = Instant::now();
        let b = Instant::now();
        sink = sink.wrapping_add(probe::ns_between(a, b));
    }
    std::hint::black_box(sink);
    start.elapsed().as_nanos() as f64 / N as f64
}

/// The simulated outcome of one run, as the workloads report it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimSummary {
    pub invocations: u64,
    pub carbon_g: f64,
    /// Nearest-rank P95 service time (ms); a refused invocation counts
    /// as missing every latency limit.
    pub p95_ms: u64,
    pub cold_start_pct: f64,
    pub failed_pct: f64,
}

impl SimSummary {
    pub fn of(m: &RunMetrics) -> SimSummary {
        let n = m.records.len() as u64;
        let refused = m.records.iter().filter(|r| r.rejected).count() as u64;
        assert_eq!(
            refused,
            m.rejected + m.crash_rejected,
            "refusal counters disagree with records"
        );
        let served = n - refused;
        let cold = m.records.iter().filter(|r| !r.rejected && !r.warm).count() as u64;
        let mut times: Vec<u64> = m
            .records
            .iter()
            .map(|r| if r.rejected { u64::MAX } else { r.service_ms })
            .collect();
        times.sort_unstable();
        SimSummary {
            invocations: n,
            carbon_g: m.total_carbon_g(),
            p95_ms: stats::nearest_rank(&times, 0.95).unwrap_or(0),
            cold_start_pct: if served == 0 {
                0.0
            } else {
                100.0 * cold as f64 / served as f64
            },
            failed_pct: report::failed_pct(n, m.rejected, m.crash_rejected),
        }
    }

    /// Record the simulated metrics: the gated per-invocation forms and
    /// the named totals.
    pub fn report(&self, out: &mut Outcome) {
        out.e2e(
            "carbon_mg_per_inv",
            1e3 * self.carbon_g / self.invocations.max(1) as f64,
        );
        out.e2e("cold_start_pct", self.cold_start_pct);
        out.named("carbon_kg", self.carbon_g / 1e3, "kg");
        out.named("service_p95_ms", self.p95_ms as f64, "ms");
        out.named("cold_start_pct", self.cold_start_pct, "%");
        out.named("failed_pct", self.failed_pct, "%");
        out.named("invocations", self.invocations as f64, "count");
    }
}

/// Shared tail of every workload: set-up time, peak memory.
pub fn finish_common(out: &mut Outcome, setup: &calib::Passes) {
    out.e2e("setup_s", setup.scaled());
    out.named("setup_s", setup.scaled(), "s");
    out.named("setup_raw_s", setup.raw(), "s");
    let peak = sys::window_peak_mib();
    out.e2e("peak_rss_mib", peak);
    out.named("peak_rss_mib", peak, "MiB");
}

/// Write the sampled spans of a traced run to `.bench_out/`.
pub fn write_spans(args: &Args, spans: &[probe::Span]) {
    use std::fmt::Write as _;
    let mut text = String::with_capacity(spans.len() * 96);
    for s in spans {
        let _ = writeln!(
            text,
            "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns
        );
    }
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, text)) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}
