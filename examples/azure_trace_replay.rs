//! Replay a Microsoft-Azure-format invocation trace.
//!
//! The parser accepts the public "Serverless in the Wild" CSV schema
//! (HashOwner, HashApp, HashFunction, Trigger, per-minute counts), plus
//! optional `duration_ms`/`memory_mib` columns; every trace function is
//! mapped onto the closest SeBS profile by (memory, duration) exactly as
//! the paper describes.
//!
//! Run with: `cargo run --release --example azure_trace_replay [file.csv]`
//!
//! A file that cannot be read or parsed prints the reason (the parser's
//! errors carry the line number) to stderr and exits with status 1.

use ecolife::prelude::*;
use ecolife::trace::azure;
use std::process::exit;

/// A small embedded sample in the Azure schema (used when no file is
/// given): three functions with different triggers and rhythms.
const SAMPLE: &str = "\
HashOwner,HashApp,HashFunction,Trigger,duration_ms,memory_mib,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15
o1,app1,video,http,2100,512,1,0,1,1,0,1,1,0,1,1,0,1,1,0,1
o1,app1,bfs,queue,5800,256,2,1,2,2,1,2,2,1,2,2,1,2,2,1,2
o2,app2,dna,timer,11500,4096,1,0,0,0,0,1,0,0,0,0,1,0,0,0,0
";

fn main() {
    let text = match std::env::args().nth(1) {
        Some(path) => std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("azure_trace_replay: cannot read {path}: {e}");
            exit(1)
        }),
        None => {
            println!("(no trace file given — replaying the embedded sample)\n");
            SAMPLE.to_string()
        }
    };

    let catalog = WorkloadCatalog::sebs();
    let rows = azure::parse_invocations_csv(&text).unwrap_or_else(|e| {
        eprintln!("azure_trace_replay: invalid Azure-format CSV: {e}");
        exit(1)
    });
    println!("parsed {} trace functions:", rows.len());
    for row in &rows {
        let mapped = catalog.closest_match(
            row.memory_mib.unwrap_or(170),
            row.duration_ms.unwrap_or(1_000),
        );
        println!(
            "  {:<8} trigger={:<6} {} invocations -> {}",
            row.function,
            row.trigger,
            row.total_invocations(),
            catalog.profile(mapped).name
        );
    }

    let trace = azure::rows_to_trace(&rows, &catalog, 7);
    // Cover the trace's last arrival with half an hour to spare, and
    // never fewer than 60 minutes: the series is generated minute by
    // minute, so a longer one starts with the same samples and the
    // embedded sample's output does not depend on this sizing.
    let minutes = (trace.horizon_ms() / MINUTE_MS + 30).max(60);
    let ci = CarbonIntensityTrace::synthetic(Region::Caiso, minutes as usize, 7);
    let fleet = skus::fleet_a();

    let mut ecolife = EcoLife::new(fleet.clone(), EcoLifeConfig::default());
    let (summary, metrics) = run_scheme(&trace, &ci, &fleet, &mut ecolife);

    println!(
        "\nreplay: {} invocations, mean service {:.0} ms, P95 {} ms",
        summary.invocations, summary.mean_service_ms, summary.p95_service_ms
    );
    println!(
        "carbon: {:.3} g total ({:.3} g operational, {:.3} g embodied, {:.3} g keep-alive)",
        summary.total_carbon_g,
        summary.operational_g,
        summary.embodied_g,
        summary.keepalive_carbon_g
    );
    println!(
        "warm starts: {}/{} ({:.0}%)",
        metrics.warm_starts(),
        metrics.invocations(),
        100.0 * summary.warm_rate
    );
}
