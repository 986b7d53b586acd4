use crate::Matrix;
use std::cmp::Ordering;

/// Total-order comparison of two *scores* (things being maximized),
/// ranking NaN below every real value.
///
/// A NaN score (a degenerate model output) must *lose* any
/// maximization: plain `total_cmp` would rank positive NaN above `+∞`
/// — silently preferring garbage — and `partial_cmp().unwrap()` would
/// panic mid-explain. Use in `max_by(|a, b| cmp_score(a, b))` or a
/// descending `sort_by(|a, b| cmp_score(b, a))`.
pub fn cmp_score(a: f64, b: f64) -> Ordering {
    nan_to(a, f64::NEG_INFINITY).total_cmp(&nan_to(b, f64::NEG_INFINITY))
}

/// Total-order comparison of two *costs* (things being minimized),
/// ranking NaN above every real value so it also loses any
/// minimization — the mirror of [`cmp_score`], for `min_by`.
pub fn cmp_cost(a: f64, b: f64) -> Ordering {
    nan_to(a, f64::INFINITY).total_cmp(&nan_to(b, f64::INFINITY))
}

fn nan_to(x: f64, sub: f64) -> f64 {
    if x.is_nan() {
        sub
    } else {
        x
    }
}

/// Row-wise numerically-stable softmax.
pub fn softmax_rows(logits: &Matrix) -> Matrix {
    let mut out = logits.clone();
    for r in 0..out.rows() {
        softmax_in_place(out.row_mut(r));
    }
    out
}

/// Numerically-stable softmax of one row of logits, in place.
pub fn softmax_in_place(row: &mut [f64]) {
    let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mut sum = 0.0;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    for v in row.iter_mut() {
        *v /= sum;
    }
}

/// Cross-entropy loss of a single softmax row against a class index,
/// together with the gradient w.r.t. the logits (`p - onehot`).
pub fn cross_entropy(logits: &Matrix, target: usize) -> (f64, Matrix) {
    assert_eq!(logits.rows(), 1, "cross_entropy expects a single logit row");
    assert!(target < logits.cols(), "target class out of range");
    let p = softmax_rows(logits);
    let loss = -(p.get(0, target).max(1e-12)).ln();
    let mut grad = p;
    grad.add_at(0, target, -1.0);
    (loss, grad)
}
