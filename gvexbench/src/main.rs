//! The GVEX benchmark: one command per workload, one result line.
//!
//! ```text
//! cargo run --release --manifest-path gvexbench/Cargo.toml -- \
//!     --workload <explain_batch|ingest_window|serve_mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload generates its inputs from `--seed`, sets itself up
//! several times (the median is `setup_s`), measures for `--seconds`
//! seconds through the public APIs only (`gvex_core::Engine` /
//! `Snapshot`, the `gvex_serve` server and `Client`), and checks its
//! outputs. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end metrics of `BENCHMARK.json`; with
//! `--trace 1` the run also replays each layer's public entry points
//! under spans recorded here (never inside the program) and the metrics
//! are the per-layer ones. The line before it (`detail: {...}`) records
//! the configuration, the workload's own named figures, the view
//! digests, and per-op-class attempted/failed counts.
//!
//! `BENCHMARK.json` lists `explain_batch` and `ingest_window`;
//! `serve_mixed` runs on its own and inside `explain_batch`'s traced run
//! (see `serve` for why it is not listed).
//!
//! Durable engines write under `.bench_work/` in the working directory.
//! Their fsyncs land in whatever the host filesystem provides (in a
//! container, usually the page cache), so write latencies are the
//! host's, not a storage device's.

mod common;
mod explain;
mod heap;
mod ingest;
mod layers;
mod serve;
mod trace;

use common::Outcome;
use std::process::ExitCode;

#[global_allocator]
static HEAP: heap::Counting = heap::Counting;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).cloned().ok_or(format!("{flag} needs a value"))
    };
    let seconds: f64 = get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args {
        workload: get("--workload")?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gvexbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run: fn(&Args, &common::WorkDir) -> Outcome = match args.workload.as_str() {
        "explain_batch" => explain::run,
        "serve_mixed" => serve::run,
        "ingest_window" => ingest::run,
        other => {
            eprintln!("gvexbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let work = match common::WorkDir::create(&args.workload) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("gvexbench: cannot create the work directory: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&args, &work);
    drop(work);
    println!("detail: {}", serde_json::to_string(&outcome.detail).unwrap_or_default());
    println!("{}", outcome.result_line());
    if outcome.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("gvexbench: output check failed: {}", outcome.problems.join("; "));
        ExitCode::from(1)
    }
}
