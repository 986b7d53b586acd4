use crate::{GcnModel, Propagation};
use gvex_graph::{GraphDb, GraphId};
use gvex_linalg::Matrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Hyper-parameters for [`AdamTrainer`] (§6.1: Adam, lr 1e-3).
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Learning rate (paper: 1e-3).
    pub lr: f64,
    /// Adam β₁.
    pub beta1: f64,
    /// Adam β₂.
    pub beta2: f64,
    /// Adam ε.
    pub eps: f64,
    /// Training epochs. The paper trains 2000 epochs on real data; the
    /// synthetic simulators converge far sooner, so the default is smaller.
    pub epochs: usize,
    /// Stop early once training accuracy reaches this level.
    pub target_accuracy: f64,
    /// Shuffling seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            epochs: 200,
            target_accuracy: 0.995,
            seed: 0,
        }
    }
}

/// Outcome of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Epochs actually run.
    pub epochs_run: usize,
    /// Final mean training loss.
    pub final_loss: f64,
    /// Final training accuracy.
    pub train_accuracy: f64,
}

/// Adam optimizer state for one parameter matrix.
struct AdamState {
    m: Matrix,
    v: Matrix,
}

/// Trains a [`GcnModel`] on a [`GraphDb`] with per-graph Adam steps.
pub struct AdamTrainer {
    cfg: TrainConfig,
    states: Vec<AdamState>,
    t: usize,
}

impl AdamTrainer {
    /// Creates a trainer for `model` with the given config.
    pub fn new(model: &GcnModel, cfg: TrainConfig) -> Self {
        // One state per parameter: layer weights + fc + bias. Shapes are
        // discovered lazily on the first step.
        let _ = model;
        Self { cfg, states: Vec::new(), t: 0 }
    }

    /// Runs training over `train_ids`, returning a report. Propagation
    /// operators are precomputed once per graph.
    pub fn fit(
        &mut self,
        model: &mut GcnModel,
        db: &GraphDb,
        train_ids: &[GraphId],
    ) -> TrainReport {
        let props: Vec<Propagation> = train_ids
            .iter()
            .map(|&id| Propagation::with_aggregator(db.graph(id), model.aggregator()))
            .collect();
        let mut order: Vec<usize> = (0..train_ids.len()).collect();
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        let mut report =
            TrainReport { epochs_run: 0, final_loss: f64::INFINITY, train_accuracy: 0.0 };
        for epoch in 0..self.cfg.epochs {
            order.shuffle(&mut rng);
            let mut loss_sum = 0.0;
            let mut correct = 0usize;
            for &i in &order {
                let id = train_ids[i];
                let g = db.graph(id);
                let target = db.truth(id) as usize;
                let fwd = model.forward(props[i].csr(), g.features());
                let (loss, grads) = model.loss_backward(&fwd, target, false);
                loss_sum += loss;
                if crate::model::argmax(fwd.logits.row(0)) == target {
                    correct += 1;
                }
                self.step(model, &grads);
            }
            report.epochs_run = epoch + 1;
            report.final_loss = loss_sum / train_ids.len().max(1) as f64;
            report.train_accuracy = correct as f64 / train_ids.len().max(1) as f64;
            if report.train_accuracy >= self.cfg.target_accuracy {
                break;
            }
        }
        report
    }

    /// Applies one Adam update from the given gradients.
    pub fn step(&mut self, model: &mut GcnModel, grads: &crate::Gradients) {
        let grad_list: Vec<&Matrix> = grads
            .weights
            .iter()
            .chain(std::iter::once(&grads.fc))
            .chain(std::iter::once(&grads.bias))
            .collect();
        let mut params = model.params_mut();
        if self.states.is_empty() {
            for p in &params {
                self.states.push(AdamState {
                    m: Matrix::zeros(p.rows(), p.cols()),
                    v: Matrix::zeros(p.rows(), p.cols()),
                });
            }
        }
        self.t += 1;
        let (b1, b2) = (self.cfg.beta1, self.cfg.beta2);
        let bc1 = 1.0 - b1.powi(self.t as i32);
        let bc2 = 1.0 - b2.powi(self.t as i32);
        for ((p, g), st) in params.iter_mut().zip(&grad_list).zip(&mut self.states) {
            for idx in 0..p.data().len() {
                let gi = g.data()[idx];
                let m = b1 * st.m.data()[idx] + (1.0 - b1) * gi;
                let v = b2 * st.v.data()[idx] + (1.0 - b2) * gi * gi;
                st.m.data_mut()[idx] = m;
                st.v.data_mut()[idx] = v;
                let mhat = m / bc1;
                let vhat = v / bc2;
                p.data_mut()[idx] -= self.cfg.lr * mhat / (vhat.sqrt() + self.cfg.eps);
            }
        }
    }

    /// Classifies every graph in the db with the trained model and records
    /// predictions (forming the label groups of §2.2); returns accuracy on
    /// `eval_ids`.
    pub fn classify_all(model: &GcnModel, db: &mut GraphDb, eval_ids: &[GraphId]) -> f64 {
        let preds: Vec<(GraphId, u16)> = db.iter().map(|(id, g)| (id, model.predict(g))).collect();
        for (id, p) in preds {
            db.set_predicted(id, p);
        }
        if eval_ids.is_empty() {
            return 1.0;
        }
        let correct = eval_ids.iter().filter(|&&id| db.predicted(id) == Some(db.truth(id))).count();
        correct as f64 / eval_ids.len() as f64
    }
}
