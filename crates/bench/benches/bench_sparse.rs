//! Criterion microbenches for the sparse CSR propagation backend vs the
//! dense path: raw operator application, the masked-propagation epoch
//! (the GNNExplainer hot loop), and an end-to-end explain on a 1k-node
//! synthetic graph. `bin/bench_quick.rs` times the same fixtures for the
//! CI perf gate; these benches are the finer-grained local view.

use criterion::{criterion_group, criterion_main, Criterion};
use gvex_baselines::GnnExplainer;
use gvex_bench::perf::{dense_masked_epoch, reference_graph, reference_mask, sparse_masked_epoch};
use gvex_gnn::{GcnModel, Propagation};

fn bench_operator_apply(c: &mut Criterion) {
    let g = reference_graph(512, 42);
    let prop = Propagation::new(&g);
    let dense = prop.csr().to_dense();
    let x = g.features().clone();
    c.bench_function("operator_apply_dense_512", |b| {
        b.iter(|| std::hint::black_box(dense.matmul(&x)))
    });
    c.bench_function("operator_apply_sparse_512", |b| {
        b.iter(|| std::hint::black_box(prop.csr().spmm_dense(&x)))
    });
}

fn bench_masked_epoch(c: &mut Criterion) {
    let g = reference_graph(512, 42);
    let mask = reference_mask(&g, 7);
    let model = GcnModel::new(g.feature_dim(), 32, 2, 3, 1);
    let prop = Propagation::new(&g);
    c.bench_function("masked_epoch_dense_512", |b| {
        b.iter(|| std::hint::black_box(dense_masked_epoch(&model, &prop, &g, &mask, 0)))
    });
    c.bench_function("masked_epoch_sparse_512", |b| {
        b.iter(|| std::hint::black_box(sparse_masked_epoch(&model, &prop, &g, &mask, 0)))
    });
}

fn bench_explain_end_to_end(c: &mut Criterion) {
    let g = reference_graph(1024, 42);
    let model = GcnModel::new(g.feature_dim(), 32, 2, 3, 1);
    let explainer = GnnExplainer { epochs: 3, ..GnnExplainer::default() };
    c.bench_function("gnnexplainer_mask_1k_3_epochs", |b| {
        b.iter(|| std::hint::black_box(explainer.learn_edge_mask(&model, &g, 0)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_operator_apply, bench_masked_epoch, bench_explain_end_to_end
}
criterion_main!(benches);
