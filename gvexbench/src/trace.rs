//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Every span is one call into one layer's public entry point: a name and
//! a duration. Spans are kept in memory and summarised when the traced
//! run ends: per layer, the call count, the busy time and its share of
//! the traced capacity (wall time × threads), plus the capacity no span
//! covers. Nothing here reaches into the program; it is only called.

use serde_json::{json, Value};
use std::sync::Mutex;
use std::time::Instant;

pub struct Tracer {
    spans: Mutex<Vec<(&'static str, f64)>>,
}

/// One layer's totals.
pub struct Layer {
    pub name: &'static str,
    pub count: u64,
    pub busy_s: f64,
}

impl Layer {
    /// Mean duration per call, in the given unit scale (1e3 = ms).
    pub fn mean(&self, scale: f64) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.busy_s * scale / self.count as f64
        }
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self { spans: Mutex::new(Vec::new()) }
    }

    /// Runs `f` inside a span `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.record(name, t.elapsed().as_secs_f64());
        r
    }

    /// Records an already-measured span.
    pub fn record(&self, name: &'static str, dur_s: f64) {
        self.spans.lock().expect("span log").push((name, dur_s));
    }

    /// Per-layer totals in first-seen order.
    pub fn layers(&self) -> Vec<Layer> {
        let spans = self.spans.lock().expect("span log");
        let mut out: Vec<Layer> = Vec::new();
        for &(name, dur_s) in spans.iter() {
            match out.iter_mut().find(|l| l.name == name) {
                Some(l) => {
                    l.count += 1;
                    l.busy_s += dur_s;
                }
                None => out.push(Layer { name, count: 1, busy_s: dur_s }),
            }
        }
        out
    }

    pub fn layer(&self, name: &str) -> Option<Layer> {
        self.layers().into_iter().find(|l| l.name == name)
    }

    /// Every layer's busy time and share of `capacity_s`, plus the
    /// unattributed share: capacity that no span covers.
    pub fn summary(&self, capacity_s: f64) -> (Value, f64) {
        let capacity = capacity_s.max(1e-9);
        let layers = self.layers();
        let busy: f64 = layers.iter().map(|l| l.busy_s).sum();
        let unattributed = (1.0 - busy / capacity).max(0.0);
        let per_layer: Vec<(String, Value)> = layers
            .iter()
            .map(|l| {
                let share = l.busy_s / capacity;
                (
                    l.name.to_string(),
                    json!({ "calls": l.count, "busy_s": l.busy_s, "share": share }),
                )
            })
            .collect();
        let value = json!({
            "capacity_s": capacity_s,
            "layers": Value::Object(per_layer),
            "unattributed_share": unattributed,
        });
        (value, unattributed)
    }
}
