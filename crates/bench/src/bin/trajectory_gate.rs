//! Bench-trajectory gate: diffs freshly produced `BENCH_*.json`
//! payloads against the copies committed to the repository and fails
//! CI when the perf trajectory regresses.
//!
//! Payloads are parsed through [`gvex_bench::gate::Report`], the schema
//! the bench bins write, so the pass rule, the direction default and
//! the regression bands live in one place. Four checks per file:
//!
//! 1. every gate in the fresh payload carries `"pass": true` — the
//!    bench binary also exits non-zero under `--check`, but the
//!    committed artifact must agree with the exit code;
//! 2. no fresh gate carries `"scaled_for_host": true` while the
//!    payload's own `host.cores` reports a wide machine (>= 4 cores) —
//!    scaled-down thresholds are a narrow-host concession, and a wide
//!    CI runner silently running the easy bar would hollow the gate
//!    out;
//! 3. gated metrics have not regressed against the committed
//!    trajectory (see [`gvex_bench::gate::Gate::regressed_from`]: 0.5×
//!    for bigger-is-better metrics, 2× for `"direction": "min"`
//!    budgets);
//! 4. every gate of the committed payload is still in the fresh one —
//!    a dropped gate would otherwise pass checks 1–3 unseen.
//!
//! Metrics present in the fresh payload but absent from the committed
//! copy are new — they pass check 3 by default and start anchoring the
//! trajectory once committed. A missing committed file is reported but
//! not fatal (the PR introducing a payload has nothing to diff
//! against); a missing or unparsable fresh file is fatal.
//!
//! Usage: `trajectory_gate --fresh DIR [--committed DIR] FILE...`
//! (`--committed` defaults to the current directory). Exit 0 iff every
//! check passes; 2 when no file is named.

use gvex_bench::gate::Report;
use std::path::Path;

fn load(path: &Path) -> Result<Report, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path:?}: {e}"))?;
    let value = serde_json::from_str(&text).map_err(|e| format!("parse {path:?}: {e}"))?;
    Report::from_json(&value).map_err(|e| format!("{path:?}: {e}"))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let get =
        |flag: &str| args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned();
    let fresh_dir = get("--fresh").unwrap_or_else(|| "fresh".to_string());
    let committed_dir = get("--committed").unwrap_or_else(|| ".".to_string());
    let mut files: Vec<String> = Vec::new();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--fresh" | "--committed" => i += 2,
            a if a.starts_with("--") => i += 1,
            a => {
                files.push(a.to_string());
                i += 1;
            }
        }
    }
    if files.is_empty() {
        eprintln!("usage: trajectory_gate --fresh DIR [--committed DIR] FILE...");
        std::process::exit(2);
    }

    let mut failures: Vec<String> = Vec::new();
    for file in &files {
        let fresh = match load(&Path::new(&fresh_dir).join(file)) {
            Ok(r) => r,
            Err(e) => {
                failures.push(format!("{file}: fresh payload unreadable ({e})"));
                continue;
            }
        };
        failures.extend(fresh.failures().into_iter().map(|f| format!("{file}: {f}")));

        let committed = match load(&Path::new(&committed_dir).join(file)) {
            Ok(r) => r,
            Err(_) => {
                println!("{file}: no committed copy — trajectory starts here");
                continue;
            }
        };
        for line in fresh.trajectory(&committed) {
            match line {
                Ok(note) => println!("{file}: {note}"),
                Err(failure) => failures.push(format!("{file}: {failure}")),
            }
        }
    }

    if failures.is_empty() {
        println!("trajectory gate: {} payloads checked, no regressions", files.len());
    } else {
        for f in &failures {
            eprintln!("TRAJECTORY GATE FAILED: {f}");
        }
        std::process::exit(1);
    }
}
