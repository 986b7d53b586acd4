//! The gate harness shared by the CI benches.
//!
//! `bench_quick`, `loadgen`, `paging_bench` and `stream_bench` each
//! build one [`Report`] per `BENCH_PR{n}.json` payload and hand it to a
//! [`Run`], which writes it into `--out-dir` and, under `--check`,
//! reports every failed [`Gate`] and exits 1 once the bench has run all
//! its sections. `trajectory_gate` parses the same payloads back into
//! [`Report`]s, so a gate's pass rule, its direction default and its
//! regression band are decided here and nowhere else.
//!
//! Payload schema: `{"pr", "host": {"cores"}, <context sections>,
//! "results": [...], "gates": [...]}`. Each gate is `{"metric",
//! "threshold", "value", "pass"}` plus `"scaled_for_host"` on a
//! cores-tiered gate and `"direction": "min"` on a smaller-is-better
//! one. The earliest committed payloads carry a singular `"gate"`
//! object instead of the array; [`Report::from_json`] reads both.

use serde_json::{json, Value};
use std::path::PathBuf;
use std::time::Instant;

/// Which side of its threshold a gate's value must land on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Bigger is better: pass when `value >= threshold`. The default
    /// when a payload names no direction.
    Max,
    /// Smaller is better (budgets): pass when `value <= threshold`.
    /// Payloads mark it `"direction": "min"`.
    Min,
}

/// One CI gate: a measured metric against the threshold it must clear.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// `<result name>.<field>`: the key the trajectory is tracked by.
    pub metric: String,
    /// The measured value.
    pub value: f64,
    /// The bar `value` is compared with (inclusive).
    pub threshold: f64,
    /// Which side of `threshold` passes.
    pub direction: Direction,
    /// `Some(_)` on a cores-tiered gate: `true` when the host was too
    /// narrow for the full bar and a lower tier applied.
    pub scaled_for_host: Option<bool>,
    pass: bool,
}

impl Gate {
    fn compared(metric: &str, value: f64, threshold: f64, direction: Direction) -> Self {
        let pass = match direction {
            Direction::Max => value >= threshold,
            Direction::Min => value <= threshold,
        };
        Self {
            metric: metric.to_string(),
            value,
            threshold,
            direction,
            scaled_for_host: None,
            pass,
        }
    }

    /// Bigger-is-better gate: passes when `value >= threshold`.
    pub fn at_least(metric: &str, value: f64, threshold: f64) -> Self {
        Self::compared(metric, value, threshold, Direction::Max)
    }

    /// Smaller-is-better gate: passes when `value <= threshold`.
    pub fn at_most(metric: &str, value: f64, threshold: f64) -> Self {
        Self::compared(metric, value, threshold, Direction::Min)
    }

    /// Bigger-is-better gate whose bar depends on the parallelism the
    /// host can express: `tiers[0]` on `>= 4` cores (the full bar),
    /// `tiers[1]` on 2–3 cores, `tiers[2]` on one core. Any lower tier
    /// marks the gate `scaled_for_host`.
    pub fn at_least_for_cores(metric: &str, value: f64, cores: usize, tiers: [f64; 3]) -> Self {
        let threshold = match cores {
            4.. => tiers[0],
            2..=3 => tiers[1],
            _ => tiers[2],
        };
        let mut gate = Self::at_least(metric, value, threshold);
        gate.scaled_for_host = Some(threshold < tiers[0]);
        gate
    }

    /// Narrows the threshold rule by a condition the value alone does
    /// not show (e.g. `shards_touched == 1`, or a second counter that
    /// must also be nonzero).
    pub fn and(mut self, condition: bool) -> Self {
        self.pass &= condition;
        self
    }

    /// Whether the gate passed (as measured, or as its payload records).
    pub fn pass(&self) -> bool {
        self.pass
    }

    /// Whether this (fresh) value regressed past the noise band against
    /// the `committed` one: below 0.5× for bigger-is-better metrics,
    /// above 2× for budgets. The band absorbs runner noise while still
    /// catching order-of-magnitude cliffs.
    pub fn regressed_from(&self, committed: &Gate) -> bool {
        match self.direction {
            Direction::Max => self.value < committed.value * 0.5,
            Direction::Min => self.value > committed.value * 2.0,
        }
    }

    /// The gate as a payload object.
    pub fn to_json(&self) -> Value {
        let mut fields = vec![
            ("metric".to_string(), json!(self.metric)),
            ("threshold".to_string(), json!(self.threshold)),
            ("value".to_string(), json!(self.value)),
            ("pass".to_string(), json!(self.pass)),
        ];
        if let Some(scaled) = self.scaled_for_host {
            fields.push(("scaled_for_host".to_string(), json!(scaled)));
        }
        if self.direction == Direction::Min {
            fields.push(("direction".to_string(), json!("min")));
        }
        Value::Object(fields)
    }

    /// Parses a payload gate object. A gate needs a `metric` name; a
    /// missing or non-numeric value or threshold reads as NaN, which
    /// never counts as a regression, and a missing `pass` as a failure.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        let Some(Value::String(metric)) = v.get_field("metric") else {
            return Err("gate without a metric name".to_string());
        };
        let number = |key: &str| v.get_field(key).and_then(num).unwrap_or(f64::NAN);
        let direction = match v.get_field("direction") {
            Some(Value::String(d)) if d == "min" => Direction::Min,
            _ => Direction::Max,
        };
        let flag = |key: &str| match v.get_field(key) {
            Some(Value::Bool(b)) => Some(*b),
            _ => None,
        };
        Ok(Self {
            metric: metric.clone(),
            value: number("value"),
            threshold: number("threshold"),
            direction,
            scaled_for_host: flag("scaled_for_host"),
            pass: flag("pass") == Some(true),
        })
    }
}

impl std::fmt::Display for Gate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let op = match self.direction {
            Direction::Max => ">=",
            Direction::Min => "<=",
        };
        write!(f, "{} = {:.4} (needs {op} {:.4})", self.metric, self.value, self.threshold)
    }
}

fn num(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        _ => None,
    }
}

/// One `BENCH_PR{n}.json` payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    pr: u32,
    cores: usize,
    sections: Vec<(String, Value)>,
    results: Vec<Value>,
    gates: Vec<Gate>,
}

impl Report {
    /// An empty payload for PR `pr`, recording this host's core count.
    pub fn new(pr: u32) -> Self {
        Self {
            pr,
            cores: host_cores(),
            sections: Vec::new(),
            results: Vec::new(),
            gates: Vec::new(),
        }
    }

    /// Adds a context section (workload shape, database size, ...).
    pub fn section(mut self, name: &str, value: Value) -> Self {
        self.sections.push((name.to_string(), value));
        self
    }

    /// Adds one entry of `results`.
    pub fn result(mut self, value: Value) -> Self {
        self.results.push(value);
        self
    }

    /// Adds a gate.
    pub fn gate(mut self, gate: Gate) -> Self {
        self.gates.push(gate);
        self
    }

    /// The payload's file name, `BENCH_PR{n}.json`.
    pub fn file_name(&self) -> String {
        format!("BENCH_PR{}.json", self.pr)
    }

    /// What a fresh payload must show on its own: every gate passed, and
    /// no gate ran a host-scaled threshold on a wide (>= 4-core) host,
    /// where that would hollow the gate out. One message per failure.
    pub fn failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        for gate in &self.gates {
            if !gate.pass {
                out.push(format!("gate {} has pass=false", gate.metric));
            }
            if gate.scaled_for_host == Some(true) && self.cores >= 4 {
                out.push(format!(
                    "gate {} ran a host-scaled threshold on a {}-core runner — wide machines \
                     must clear the full bar",
                    gate.metric, self.cores
                ));
            }
        }
        out
    }

    /// Diffs this fresh payload against the `committed` one, one line
    /// per gate: `Err` when a metric regressed past its band
    /// ([`Gate::regressed_from`]) or a committed gate is missing here,
    /// `Ok` when it holds or is new.
    pub fn trajectory(&self, committed: &Report) -> Vec<Result<String, String>> {
        let mut out = Vec::new();
        for gate in &self.gates {
            let metric = &gate.metric;
            let Some(old) = committed.gates.iter().find(|g| &g.metric == metric) else {
                out.push(Ok(format!("metric {metric} is new — no trajectory to hold")));
                continue;
            };
            let regressed = gate.regressed_from(old);
            let line = format!(
                "metric {metric} {} — fresh {:.4} vs committed {:.4}",
                if regressed { "regressed" } else { "holds" },
                gate.value,
                old.value
            );
            out.push(match (regressed, gate.direction) {
                (false, _) => Ok(line),
                (true, Direction::Max) => Err(format!("{line} (fell below 0.5x)")),
                (true, Direction::Min) => Err(format!("{line} (budget metric, > 2x slower)")),
            });
        }
        for old in &committed.gates {
            if !self.gates.iter().any(|g| g.metric == old.metric) {
                out.push(Err(format!(
                    "committed gate {} is missing from the fresh payload",
                    old.metric
                )));
            }
        }
        out
    }

    /// The payload as JSON.
    pub fn to_json(&self) -> Value {
        let mut fields = vec![
            ("pr".to_string(), json!(self.pr)),
            ("host".to_string(), json!({ "cores": self.cores as u64 })),
        ];
        fields.extend(self.sections.iter().cloned());
        fields.push(("results".to_string(), Value::Array(self.results.clone())));
        fields.push((
            "gates".to_string(),
            Value::Array(self.gates.iter().map(Gate::to_json).collect()),
        ));
        Value::Object(fields)
    }

    /// Parses a payload; the gates come from the `"gates"` array or the
    /// singular `"gate"` object of the earliest payloads.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        let Value::Object(fields) = v else { return Err("payload is not an object".to_string()) };
        let pr = v.get_field("pr").and_then(num).ok_or("payload without a pr number")?;
        let cores = v.get_field("host").and_then(|h| h.get_field("cores")).and_then(num);
        let results = match v.get_field("results") {
            Some(Value::Array(items)) => items.clone(),
            _ => Vec::new(),
        };
        let gates = match (v.get_field("gates"), v.get_field("gate")) {
            (Some(Value::Array(items)), _) => items.iter().map(Gate::from_json).collect(),
            (None, Some(gate)) => Gate::from_json(gate).map(|g| vec![g]),
            _ => Err("payload without gates".to_string()),
        }?;
        let sections = fields
            .iter()
            .filter(|(k, _)| !matches!(k.as_str(), "pr" | "host" | "results" | "gates" | "gate"))
            .cloned()
            .collect();
        Ok(Self { pr: pr as u32, cores: cores.unwrap_or(0.0) as usize, sections, results, gates })
    }
}

/// The two options every gated bench takes, and the tally of gates
/// that failed across the reports it wrote.
#[derive(Debug)]
pub struct Run {
    check: bool,
    out_dir: PathBuf,
    failed: usize,
}

impl Run {
    /// Reads `[--check] [--out-dir DIR]` from the command line; any other
    /// argument prints the usage and exits 2.
    pub fn from_args() -> Self {
        Self::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("{e}\nusage: [--check] [--out-dir DIR]");
            std::process::exit(2);
        })
    }

    fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut run = Self { check: false, out_dir: PathBuf::from("."), failed: 0 };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--check" => run.check = true,
                "--out-dir" => {
                    run.out_dir = args.next().ok_or("--out-dir needs a directory")?.into()
                }
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(run)
    }

    /// Writes `report` as `<out-dir>/BENCH_PR{n}.json`. Under `--check`
    /// it also names each failed gate and each gate whose threshold was
    /// scaled down for a narrow host.
    pub fn write(&mut self, report: Report) {
        std::fs::create_dir_all(&self.out_dir).expect("create the --out-dir directory");
        let path = self.out_dir.join(report.file_name());
        let text = serde_json::to_string_pretty(&report.to_json()).expect("serializable");
        std::fs::write(&path, text + "\n").expect("write bench json");
        eprintln!("wrote {}", path.display());
        if !self.check {
            return;
        }
        for gate in &report.gates {
            if gate.scaled_for_host == Some(true) {
                eprintln!(
                    "GATE SCALED DOWN: {} threshold {:.2} (the full bar needs >= 4 cores; host \
                     has {})",
                    gate.metric, gate.threshold, report.cores
                );
            }
            if !gate.pass {
                eprintln!("GATE FAILED: {}: {gate}", report.file_name());
                self.failed += 1;
            }
        }
    }

    /// Ends the bench: exit 1 if `--check` is set and any gate failed.
    pub fn finish(self) {
        if self.failed > 0 {
            eprintln!("{} gate(s) failed", self.failed);
            std::process::exit(1);
        }
    }
}

/// The host's core count, recorded in every payload and used to tier
/// the parallelism-dependent gates.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The `p`-quantile (`0 ≤ p ≤ 1`) of `samples` by nearest rank, sorting
/// them in place; 0 for no samples.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    samples[((samples.len() - 1) as f64 * p).round() as usize]
}

/// Median wall-clock milliseconds of `reps` runs of `f`.
pub fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    percentile(&mut samples, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate_json(fields: &str) -> Value {
        serde_json::from_str(fields).expect("valid json")
    }

    #[test]
    fn thresholds_are_inclusive_in_both_directions() {
        assert!(Gate::at_least("m", 1.0, 1.0).pass());
        assert!(!Gate::at_least("m", 0.999, 1.0).pass());
        assert!(Gate::at_most("m", 2.0, 2.0).pass());
        assert!(!Gate::at_most("m", 2.001, 2.0).pass());
        assert!(Gate::at_most("m", 0.0, 0.0).pass());
    }

    #[test]
    fn extra_condition_narrows_the_rule() {
        assert!(Gate::at_least("shards_touched", 1.0, 1.0).and(true).pass());
        assert!(!Gate::at_least("shards_touched", 2.0, 1.0).and(false).pass());
        assert!(!Gate::at_least("reads", 5.0, 1.0).and(false).pass());
    }

    #[test]
    fn cores_tiers_pick_the_bar_and_flag_scaling() {
        let tiers = [2.0, 1.2, 0.0];
        let one = Gate::at_least_for_cores("s", 1.1, 1, tiers);
        assert_eq!((one.threshold, one.scaled_for_host, one.pass()), (0.0, Some(true), true));
        let two = Gate::at_least_for_cores("s", 1.1, 2, tiers);
        assert_eq!((two.threshold, two.scaled_for_host, two.pass()), (1.2, Some(true), false));
        let three = Gate::at_least_for_cores("s", 1.2, 3, tiers);
        assert_eq!((three.threshold, three.pass()), (1.2, true));
        let four = Gate::at_least_for_cores("s", 1.9, 4, tiers);
        assert_eq!((four.threshold, four.scaled_for_host, four.pass()), (2.0, Some(false), false));
        let shard = Gate::at_least_for_cores("s", 0.9, 1, [1.3, 1.0, 0.85]);
        assert_eq!((shard.threshold, shard.pass()), (0.85, true));
        assert_eq!(Gate::at_least_for_cores("s", 1.0, 2, [1.3, 1.0, 0.85]).threshold, 1.0);
        assert_eq!(Gate::at_least_for_cores("s", 1.0, 8, [1.3, 1.0, 0.85]).threshold, 1.3);
    }

    #[test]
    fn gate_json_keeps_the_payload_fields() {
        let tiered = Gate::at_least_for_cores("a.speedup", 1.5, 1, [2.0, 1.2, 0.0]);
        assert_eq!(
            tiered.to_json(),
            gate_json(
                r#"{"metric": "a.speedup", "threshold": 0.0, "value": 1.5, "pass": true,
                    "scaled_for_host": true}"#
            )
        );
        let budget = Gate::at_most("b.ms", 3.0, 10.0);
        assert_eq!(
            budget.to_json(),
            gate_json(
                r#"{"metric": "b.ms", "threshold": 10.0, "value": 3.0, "pass": true,
                    "direction": "min"}"#
            )
        );
        for gate in [tiered, budget, Gate::at_least("c", 0.5, 1.0)] {
            assert_eq!(Gate::from_json(&gate.to_json()), Ok(gate));
        }
    }

    #[test]
    fn parsed_gates_default_to_bigger_is_better_and_fail_without_pass() {
        let g = Gate::from_json(&gate_json(r#"{"metric": "m", "value": 3}"#)).unwrap();
        assert_eq!(g.direction, Direction::Max);
        assert!(!g.pass());
        assert!(g.threshold.is_nan());
        assert!(Gate::from_json(&gate_json(r#"{"value": 1.0, "pass": true}"#)).is_err());
    }

    #[test]
    fn trajectory_bands_are_half_and_double() {
        let old = Gate::at_least("speedup", 10.0, 1.0);
        assert!(!Gate::at_least("speedup", 5.0, 1.0).regressed_from(&old));
        assert!(Gate::at_least("speedup", 4.99, 1.0).regressed_from(&old));
        assert!(!Gate::at_least("speedup", 100.0, 1.0).regressed_from(&old));
        let old = Gate::at_most("ms", 10.0, 100.0);
        assert!(!Gate::at_most("ms", 20.0, 100.0).regressed_from(&old));
        assert!(Gate::at_most("ms", 20.01, 100.0).regressed_from(&old));
        assert!(!Gate::at_most("ms", 0.1, 100.0).regressed_from(&old));
        // A value a payload could not carry never counts as a regression.
        let nan = Gate::from_json(&gate_json(r#"{"metric": "speedup", "value": null}"#)).unwrap();
        assert!(!nan.regressed_from(&Gate::at_least("speedup", 10.0, 1.0)));
    }

    fn report(cores: usize, gates: Vec<Gate>) -> Report {
        Report { cores, gates, ..Report::new(5) }
    }

    #[test]
    fn fresh_payload_fails_on_a_failed_gate_or_a_scaled_gate_on_a_wide_host() {
        let scaled = Gate::at_least_for_cores("s", 1.5, 2, [2.0, 1.2, 0.0]);
        assert!(report(2, vec![scaled.clone()]).failures().is_empty());
        // A payload claiming 4 cores with a scaled-down gate was forged or
        // mis-tiered: the full bar applies.
        assert_eq!(report(4, vec![scaled]).failures().len(), 1);
        let failed = report(1, vec![Gate::at_least("r", 0.0, 1.0), Gate::at_least("q", 2.0, 1.0)]);
        assert_eq!(failed.failures(), vec!["gate r has pass=false".to_string()]);
    }

    #[test]
    fn trajectory_flags_regressions_and_dropped_gates() {
        let committed =
            report(1, vec![Gate::at_least("a", 10.0, 1.0), Gate::at_most("b", 10.0, 99.0)]);
        let same = report(1, vec![Gate::at_least("a", 6.0, 1.0), Gate::at_most("b", 15.0, 99.0)]);
        assert!(same.trajectory(&committed).iter().all(Result::is_ok));
        let slower = report(1, vec![Gate::at_least("a", 4.0, 1.0), Gate::at_most("b", 25.0, 99.0)]);
        assert_eq!(slower.trajectory(&committed).iter().filter(|r| r.is_err()).count(), 2);
        // A gate in the committed payload but not in the fresh one fails,
        // even though every fresh gate passes and holds.
        let dropped =
            report(1, vec![Gate::at_least("a", 10.0, 1.0), Gate::at_least("new", 1.0, 1.0)]);
        let lines = dropped.trajectory(&committed);
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines.iter().filter_map(|r| r.as_ref().err()).collect::<Vec<_>>(),
            vec!["committed gate b is missing from the fresh payload"]
        );
        assert!(dropped.failures().is_empty());
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = Report::new(9)
            .section("database", json!({ "graphs": 10u64 }))
            .result(json!({ "name": "r", "x": 1.5f64 }))
            .gate(Gate::at_most("r.x", 1.5, 2.0))
            .gate(Gate::at_least("r.y", 0.0, 1.0));
        assert_eq!(report.file_name(), "BENCH_PR9.json");
        let text = serde_json::to_string_pretty(&report.to_json()).unwrap();
        let back = Report::from_json(&serde_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.cores, host_cores());
        assert!(back.gates[0].pass() && !back.gates[1].pass());
    }

    #[test]
    fn committed_singular_gate_payload_still_parses() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_PR2.json");
        let text = std::fs::read_to_string(path).expect("committed BENCH_PR2.json");
        let payload: Value = serde_json::from_str(&text).unwrap();
        assert!(payload.get_field("gate").is_some() && payload.get_field("gates").is_none());
        let report = Report::from_json(&payload).unwrap();
        assert_eq!(report.file_name(), "BENCH_PR2.json");
        assert_eq!(report.gates.len(), 1);
        let gate = &report.gates[0];
        assert_eq!(gate.metric, "masked_propagation_epoch.speedup");
        assert_eq!((gate.threshold, gate.direction), (1.0, Direction::Max));
        assert!(gate.pass());
    }

    #[test]
    fn payload_without_gates_is_rejected() {
        assert!(Report::from_json(&gate_json(r#"{"pr": 3, "results": []}"#)).is_err());
        assert!(Report::from_json(&gate_json(r#"{"gates": []}"#)).is_err());
        let bad = gate_json(r#"{"pr": 3, "gates": [{"value": 1.0}]}"#);
        assert!(Report::from_json(&bad).is_err());
    }

    #[test]
    fn only_check_and_out_dir_are_accepted() {
        let args = |a: &[&str]| Run::parse(a.iter().map(|s| s.to_string()));
        let run = args(&["--check", "--out-dir", "fresh"]).unwrap();
        assert!(run.check);
        assert_eq!(run.out_dir, PathBuf::from("fresh"));
        let run = args(&[]).unwrap();
        assert!(!run.check);
        assert_eq!(run.out_dir, PathBuf::from("."));
        assert!(args(&["--out-dir"]).is_err());
        assert!(args(&["--out", "BENCH_PR2.json"]).is_err());
        assert!(args(&["--nodes", "512"]).is_err());
    }

    #[test]
    fn percentile_is_nearest_rank_and_median_matches_the_middle_sample() {
        let mut odd = vec![5.0, 1.0, 3.0];
        assert_eq!(percentile(&mut odd, 0.5), 3.0);
        let mut even = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&mut even, 0.5), 3.0);
        let mut hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut hundred, 0.99), 99.0);
        assert_eq!(percentile(&mut hundred, 1.0), 100.0);
        assert_eq!(percentile(&mut hundred, 0.0), 1.0);
        assert_eq!(percentile(&mut [], 0.5), 0.0);
    }
}
