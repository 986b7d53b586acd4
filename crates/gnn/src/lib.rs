//! GCN classifier substrate for GVEX (system S3/S4 in DESIGN.md).
//!
//! The paper evaluates explainers against a 3-layer Graph Convolutional
//! Network (Eq. 1) with max pooling and a fully-connected classification
//! head, trained with Adam (§6.1). No mature Rust GNN stack exists, so this
//! crate implements the whole thing from scratch on top of `gvex-linalg`:
//!
//! - [`Propagation`]: the symmetric-normalized propagation operator
//!   `S = D^-1/2 (A + I) D^-1/2`, stored sparse (CSR) so every
//!   message-passing product is `O(nnz · d)`, plus edge-masked variants
//!   for GNNExplainer-style mask learning that rescale the CSR values
//!   in place instead of rebuilding a `|V|×|V|` matrix per epoch.
//! - [`GcnModel`]: forward inference with cached activations, manual
//!   backprop (weights, input features, and edge/feature masks), and an
//!   inference-only path ([`GcnModel::predict_masked`]) that classifies
//!   node-masked subgraphs in reused per-thread buffers without building
//!   them — what every `predict*` call and the explainers' verification
//!   loop run.
//! - [`AdamTrainer`]: Adam optimization over a [`gvex_graph::GraphDb`].
//! - [`influence`]: the expected-Jacobian feature influence of Eq. 3–4 in
//!   two modes (`RandomWalk` closed form and exact `GatedJacobian`).
//!
//! The explainers in `gvex-core` and `gvex-baselines` treat [`GcnModel`] as
//! a black box — they only consume `predict` / `predict_proba` /
//! `node_embeddings`, which is exactly the model-agnostic contract of the
//! paper (Table 1, "MA").

mod infer;
pub mod influence;
mod model;
mod propagation;
mod train;

pub use influence::{InfluenceMatrix, InfluenceMode};
pub use model::{Forward, GcnModel, Gradients, MaskGradients};
pub use propagation::{Aggregator, Propagation};
pub use train::{AdamTrainer, TrainConfig, TrainReport};

#[cfg(test)]
mod tests;
