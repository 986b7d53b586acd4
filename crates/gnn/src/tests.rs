use crate::{AdamTrainer, GcnModel, InfluenceMatrix, InfluenceMode, Propagation, TrainConfig};
use gvex_graph::{generate, Graph, GraphDb};
use gvex_linalg::{cross_entropy, Matrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_graph() -> Graph {
    let mut g = Graph::new(3);
    let a = g.add_node(0, &[1.0, 0.0, 0.0]);
    let b = g.add_node(1, &[0.0, 1.0, 0.0]);
    let c = g.add_node(2, &[0.0, 0.0, 1.0]);
    let d = g.add_node(0, &[1.0, 0.0, 0.0]);
    g.add_edge(a, b, 0);
    g.add_edge(b, c, 0);
    g.add_edge(c, d, 0);
    g.add_edge(d, a, 0);
    g
}

#[test]
fn propagation_is_symmetric_row_bounded() {
    let g = small_graph();
    let p = Propagation::new(&g);
    let s = p.csr().to_dense();
    for i in 0..4 {
        for j in 0..4 {
            assert!((s.get(i, j) - s.get(j, i)).abs() < 1e-12, "S symmetric");
        }
        let row_sum: f64 = s.row(i).iter().sum();
        assert!(row_sum <= 1.0 + 1e-9, "normalized rows");
    }
    // Self-loops present on the diagonal.
    assert!(s.get(0, 0) > 0.0);
    // Non-edges are zero.
    assert_eq!(s.get(0, 2), 0.0);
}

#[test]
fn propagation_power_zero_is_identity() {
    let g = small_graph();
    let p = Propagation::new(&g);
    assert_eq!(p.power(0), Matrix::identity(4));
}

#[test]
fn masked_propagation_all_ones_matches_unmasked() {
    let g = small_graph();
    let p = Propagation::new(&g);
    let masked = p.masked(&vec![1.0; g.num_edges()]);
    assert_eq!(masked.nnz(), p.csr().nnz(), "mask must not change the structure");
    for i in 0..4 {
        for j in 0..4 {
            assert!((masked.get(i, j) - p.csr().get(i, j)).abs() < 1e-12);
        }
    }
}

#[test]
fn masked_propagation_zero_kills_edges_keeps_self_loops() {
    let g = small_graph();
    let p = Propagation::new(&g);
    let masked = p.masked(&vec![0.0; g.num_edges()]);
    for i in 0..4 {
        for j in 0..4 {
            if i == j {
                assert!(masked.get(i, j) > 0.0);
            } else {
                assert_eq!(masked.get(i, j), 0.0);
            }
        }
    }
}

#[test]
fn forward_shapes() {
    let g = small_graph();
    let model = GcnModel::new(3, 8, 2, 3, 1);
    let fwd = model.forward_graph(&g);
    assert_eq!(fwd.h.len(), 4);
    assert_eq!(fwd.h[3].shape(), (4, 8));
    assert_eq!(fwd.pooled.shape(), (1, 8));
    assert_eq!(fwd.logits.shape(), (1, 2));
}

#[test]
fn empty_graph_prediction_is_total() {
    let g = Graph::new(3);
    let model = GcnModel::new(3, 8, 2, 3, 1);
    let label = model.predict(&g);
    assert!(label < 2);
    let probs = model.predict_proba(&g);
    assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
}

#[test]
fn predict_proba_sums_to_one() {
    let g = small_graph();
    let model = GcnModel::new(3, 8, 4, 2, 7);
    let p = model.predict_proba(&g);
    assert_eq!(p.len(), 4);
    assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    let (label, p2) = model.predict_with_proba(&g);
    assert_eq!(p, p2);
    assert_eq!(
        label as usize,
        p.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0
    );
}

/// Numeric gradient check of the full backward pass (weights, fc, bias, X).
#[test]
fn backward_matches_numeric_gradients() {
    let g = small_graph();
    let prop = Propagation::new(&g);
    let mut model = GcnModel::new(3, 5, 2, 2, 11);
    let target = 1;
    let fwd = model.forward(prop.csr(), g.features());
    let (_, grads) = model.loss_backward(&fwd, target, false);

    let eps = 1e-6;
    let loss_at = |m: &GcnModel, x: &Matrix| {
        let fwd = m.forward(prop.csr(), x);
        cross_entropy(&fwd.logits, target).0
    };

    // Check a few entries of each layer weight via perturbation.
    for l in 0..2 {
        for idx in [0usize, 3, 7] {
            let mut pert = model.clone();
            {
                let mut params = pert.params_for_test();
                params[l].data_mut()[idx] += eps;
            }
            let lp = loss_at(&pert, g.features());
            let mut pert2 = model.clone();
            {
                let mut params = pert2.params_for_test();
                params[l].data_mut()[idx] -= eps;
            }
            let lm = loss_at(&pert2, g.features());
            let num = (lp - lm) / (2.0 * eps);
            let ana = grads.weights[l].data()[idx];
            assert!((num - ana).abs() < 1e-5, "layer {l} idx {idx}: {num} vs {ana}");
        }
    }

    // Input-feature gradient.
    for idx in [0usize, 5, 11] {
        let mut xp = g.features().clone();
        xp.data_mut()[idx] += eps;
        let mut xm = g.features().clone();
        xm.data_mut()[idx] -= eps;
        let num = (loss_at(&model, &xp) - loss_at(&model, &xm)) / (2.0 * eps);
        let ana = grads.x.data()[idx];
        assert!((num - ana).abs() < 1e-5, "x idx {idx}: {num} vs {ana}");
    }
    let _ = &mut model;
}

/// Numeric gradient check of the edge/feature mask gradients.
#[test]
fn mask_gradients_match_numeric() {
    let g = small_graph();
    let prop = Propagation::new(&g);
    let model = GcnModel::new(3, 5, 2, 2, 3);
    let target = 0;
    let edge_mask: Vec<f64> = vec![0.9, 0.4, 0.7, 0.6];
    let feat_mask: Vec<f64> = vec![0.8, 0.5, 1.0];

    let masked_x = |fm: &[f64]| {
        let mut x = g.features().clone();
        for r in 0..x.rows() {
            for (c, &m) in fm.iter().enumerate() {
                x.set(r, c, x.get(r, c) * m);
            }
        }
        x
    };
    let loss_of = |em: &[f64], fm: &[f64]| {
        let s = prop.masked(em);
        let fwd = model.forward(&s, &masked_x(fm));
        cross_entropy(&fwd.logits, target).0
    };

    let s = prop.masked(&edge_mask);
    let fwd = model.forward(&s, &masked_x(&feat_mask));
    let (_, mg) = model.mask_backward(&fwd, target, &prop, g.features(), &feat_mask);

    let eps = 1e-6;
    for e in 0..edge_mask.len() {
        let mut p = edge_mask.clone();
        p[e] += eps;
        let mut m = edge_mask.clone();
        m[e] -= eps;
        let num = (loss_of(&p, &feat_mask) - loss_of(&m, &feat_mask)) / (2.0 * eps);
        assert!((num - mg.edge[e]).abs() < 1e-5, "edge {e}: {num} vs {}", mg.edge[e]);
    }
    for j in 0..feat_mask.len() {
        let mut p = feat_mask.clone();
        p[j] += eps;
        let mut m = feat_mask.clone();
        m[j] -= eps;
        let num = (loss_of(&edge_mask, &p) - loss_of(&edge_mask, &m)) / (2.0 * eps);
        assert!((num - mg.feature[j]).abs() < 1e-5, "feat {j}: {num} vs {}", mg.feature[j]);
    }
}

#[test]
fn training_separates_stars_from_cycles() {
    // Tiny binary task: stars (label 0) vs cycles (label 1).
    let mut db = GraphDb::new();
    for i in 0..12 {
        db.push(generate::star(4 + i % 3, 0, 0, 2), 0);
        db.push(generate::cycle(5 + i % 3, 0, 2), 1);
    }
    let ids: Vec<u32> = (0..db.len() as u32).collect();
    let mut model = GcnModel::new(2, 8, 2, 3, 5);
    let mut trainer =
        AdamTrainer::new(&model, TrainConfig { epochs: 300, lr: 5e-3, ..TrainConfig::default() });
    let report = trainer.fit(&mut model, &db, &ids);
    assert!(report.train_accuracy >= 0.95, "accuracy {}", report.train_accuracy);
    let acc = AdamTrainer::classify_all(&model, &mut db, &ids);
    assert!(acc >= 0.95);
    // Label groups are populated from predictions.
    assert!(!db.label_group(0).is_empty());
    assert!(!db.label_group(1).is_empty());
}

#[test]
fn influence_rows_normalized() {
    let g = small_graph();
    let model = GcnModel::new(3, 6, 2, 3, 2);
    let inf = InfluenceMatrix::compute(&model, &g, InfluenceMode::RandomWalk);
    for v in 0..4u32 {
        let total: f64 = (0..4u32).map(|u| inf.i2(u, v)).sum();
        assert!((total - 1.0).abs() < 1e-9, "I2 normalized over sources for target {v}");
    }
}

#[test]
fn influence_self_strongest_on_path_ends() {
    // On a path, the closed-form influence of a node on itself is largest.
    let g = generate::path(5, 0, 1);
    let model = GcnModel::new(1, 4, 2, 2, 2);
    let inf = InfluenceMatrix::compute(&model, &g, InfluenceMode::RandomWalk);
    assert!(inf.i1(0, 0) > inf.i1(0, 4), "far nodes influence less");
    assert!(inf.i1(0, 1) > inf.i1(0, 3));
}

#[test]
fn influenced_set_grows_with_lower_threshold() {
    let g = small_graph();
    let model = GcnModel::new(3, 6, 2, 3, 2);
    let inf = InfluenceMatrix::compute(&model, &g, InfluenceMode::RandomWalk);
    let hi = inf.influence_score(&[0], 0.5);
    let lo = inf.influence_score(&[0], 0.01);
    assert!(lo >= hi);
    assert!(lo >= 1, "a node influences at least itself at low threshold");
}

#[test]
fn gated_jacobian_close_to_random_walk_for_linearish_net() {
    // With mostly-positive activations the gated Jacobian's normalized
    // ranking should agree with the random-walk closed form.
    let g = generate::path(4, 0, 2);
    let model = GcnModel::new(2, 4, 2, 2, 9);
    let rw = InfluenceMatrix::compute(&model, &g, InfluenceMode::RandomWalk);
    let gj = InfluenceMatrix::compute(&model, &g, InfluenceMode::GatedJacobian);
    // Both modes should rank the self/neighbor influence above the far end.
    assert!(rw.i1(0, 1) > rw.i1(0, 3));
    assert!(gj.i1(0, 1) >= gj.i1(0, 3), "gated {} vs {}", gj.i1(0, 1), gj.i1(0, 3));
}

#[test]
fn adam_step_reduces_loss() {
    let g = small_graph();
    let prop = Propagation::new(&g);
    let mut model = GcnModel::new(3, 6, 2, 2, 13);
    let mut trainer = AdamTrainer::new(&model, TrainConfig { lr: 1e-2, ..TrainConfig::default() });
    let loss0 = {
        let fwd = model.forward(prop.csr(), g.features());
        cross_entropy(&fwd.logits, 1).0
    };
    for _ in 0..50 {
        let fwd = model.forward(prop.csr(), g.features());
        let (_, grads) = model.loss_backward(&fwd, 1, false);
        trainer.step(&mut model, &grads);
    }
    let loss1 = {
        let fwd = model.forward(prop.csr(), g.features());
        cross_entropy(&fwd.logits, 1).0
    };
    assert!(loss1 < loss0, "loss should drop: {loss0} -> {loss1}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn prediction_is_deterministic(seed in 0u64..100) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generate::random_connected(8, 0.3, 0, 2, &mut rng);
        let model = GcnModel::new(2, 4, 3, 2, seed);
        prop_assert_eq!(model.predict(&g), model.predict(&g));
    }

    #[test]
    fn influence_i2_in_unit_interval(seed in 0u64..50) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generate::random_connected(7, 0.3, 0, 2, &mut rng);
        let model = GcnModel::new(2, 4, 2, 3, seed);
        let inf = InfluenceMatrix::compute(&model, &g, InfluenceMode::RandomWalk);
        for v in 0..7u32 {
            for u in 0..7u32 {
                let x = inf.i2(u, v);
                prop_assert!((0.0..=1.0 + 1e-12).contains(&x));
            }
        }
    }

    #[test]
    fn influence_monotone_in_set(seed in 0u64..50) {
        // Eq. 5's I(Vs) is monotone: adding sources cannot shrink Inf.
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generate::random_connected(8, 0.25, 0, 2, &mut rng);
        let model = GcnModel::new(2, 4, 2, 3, seed);
        let inf = InfluenceMatrix::compute(&model, &g, InfluenceMode::RandomWalk);
        let small = inf.influence_score(&[0, 1], 0.1);
        let big = inf.influence_score(&[0, 1, 2, 3], 0.1);
        prop_assert!(big >= small);
    }
}

// --- aggregator variants (model agnosticism substrate) ---

mod aggregators {
    use super::*;
    use crate::Aggregator;

    #[test]
    fn gin_sum_operator_shape() {
        let g = small_graph();
        let p = Propagation::with_aggregator(&g, Aggregator::GinSum(0.5));
        let s = p.csr().to_dense();
        // Diagonal = 1 + eps; edges = 1; non-edges = 0.
        assert!((s.get(0, 0) - 1.5).abs() < 1e-12);
        assert_eq!(s.get(0, 1), 1.0);
        assert_eq!(s.get(0, 2), 0.0);
    }

    #[test]
    fn sage_mean_rows_are_stochastic_after_scaling() {
        let g = small_graph();
        let p = Propagation::with_aggregator(&g, Aggregator::SageMean);
        let s = p.csr().to_dense();
        // Each row: 0.5 self + 0.5 * (1/deg per neighbor) => sums to 1.
        for r in 0..4 {
            let sum: f64 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "row {r} sums to {sum}");
        }
    }

    #[test]
    fn sage_mean_is_not_symmetric_but_backprop_still_correct() {
        // Gradient check with a non-symmetric operator exercises the
        // explicit transpose in backward().
        let g = {
            let mut g = Graph::new(2);
            let a = g.add_node(0, &[1.0, 0.0]);
            let b = g.add_node(0, &[0.0, 1.0]);
            let c = g.add_node(0, &[1.0, 1.0]);
            g.add_edge(a, b, 0);
            g.add_edge(b, c, 0);
            g
        };
        let p = Propagation::with_aggregator(&g, Aggregator::SageMean);
        let s = p.csr();
        assert!((s.get(0, 1) - s.get(1, 0)).abs() > 1e-9, "operator must be asymmetric");
        let model = GcnModel::new(2, 4, 2, 2, 3).with_aggregator(Aggregator::SageMean);
        let fwd = model.forward(s, g.features());
        let (_, grads) = model.loss_backward(&fwd, 1, false);
        let eps = 1e-6;
        for idx in [0usize, 3] {
            let mut xp = g.features().clone();
            xp.data_mut()[idx] += eps;
            let mut xm = g.features().clone();
            xm.data_mut()[idx] -= eps;
            let lp = gvex_linalg::cross_entropy(&model.forward(s, &xp).logits, 1).0;
            let lm = gvex_linalg::cross_entropy(&model.forward(s, &xm).logits, 1).0;
            let num = (lp - lm) / (2.0 * eps);
            assert!((num - grads.x.data()[idx]).abs() < 1e-5, "idx {idx}");
        }
    }

    #[test]
    fn all_aggregators_train_star_vs_cycle() {
        for agg in [Aggregator::GcnSym, Aggregator::GinSum(0.1), Aggregator::SageMean] {
            let mut db = GraphDb::new();
            for i in 0..8 {
                // Degree-bucket features: SAGE-mean is row-stochastic, so
                // constant features are a fixed point and carry no signal;
                // degree features give every aggregator something to use.
                let mut star = generate::star(4 + i % 2, 0, 0, 2);
                star.set_degree_features(6);
                let mut cyc = generate::cycle(5 + i % 2, 0, 2);
                cyc.set_degree_features(6);
                db.push(star, 0);
                db.push(cyc, 1);
            }
            let ids: Vec<u32> = (0..db.len() as u32).collect();
            let mut model = GcnModel::new(6, 8, 2, 3, 5).with_aggregator(agg);
            let mut trainer = AdamTrainer::new(
                &model,
                TrainConfig { epochs: 400, lr: 5e-3, ..TrainConfig::default() },
            );
            let report = trainer.fit(&mut model, &db, &ids);
            assert!(report.train_accuracy >= 0.9, "{agg:?}: {}", report.train_accuracy);
        }
    }

    #[test]
    fn influence_respects_model_aggregator() {
        let g = generate::path(4, 0, 2);
        let gcn = GcnModel::new(2, 4, 2, 2, 9);
        let gin = GcnModel::new(2, 4, 2, 2, 9).with_aggregator(Aggregator::GinSum(0.0));
        let i_gcn = InfluenceMatrix::compute(&gcn, &g, InfluenceMode::RandomWalk);
        let i_gin = InfluenceMatrix::compute(&gin, &g, InfluenceMode::RandomWalk);
        // Raw I1 differ (normalized vs sum aggregation).
        assert!((i_gcn.i1(0, 0) - i_gin.i1(0, 0)).abs() > 1e-9);
    }

    #[test]
    fn class_scores_shape_and_head_consistency() {
        let g = small_graph();
        let model = GcnModel::new(3, 6, 2, 2, 4);
        let emb = model.node_embeddings(&g);
        let scores = model.class_scores(&emb);
        assert_eq!(scores.shape(), (4, 2));
        // A one-node "graph" whose embedding equals a node's embedding
        // must produce logits equal to that node's class score (max pool
        // over a single row is the identity).
        let fwd = model.forward_graph(&g);
        let (pooled_scores, _) = scores.max_pool_rows();
        for c in 0..2 {
            // Pooled logits come from pooled embeddings, which upper-bound
            // per-node scores under max pooling of non-negative relu space;
            // here we only check finiteness and ordering sanity.
            assert!(fwd.logits.get(0, c).is_finite());
            assert!(pooled_scores.get(0, c).is_finite());
        }
    }
}

// --- sparse/dense equivalence (CSR backend vs the dense reference) ---

mod sparse_dense {
    use super::*;
    use crate::Aggregator;
    use gvex_linalg::CsrMatrix;
    use rand::Rng;

    fn all_aggregators() -> [Aggregator; 3] {
        [Aggregator::GcnSym, Aggregator::GinSum(0.3), Aggregator::SageMean]
    }

    /// The masked operator rebuilt densely from the unmasked one, edge by
    /// edge: both entries of edge `e` scaled by `mask[e]`.
    fn dense_masked_rebuild(p: &Propagation, mask: &[f64]) -> Matrix {
        let mut s = p.csr().to_dense();
        for (&(u, v), &m) in p.edge_list().iter().zip(mask) {
            let (u, v) = (u as usize, v as usize);
            s.set(u, v, s.get(u, v) * m);
            s.set(v, u, s.get(v, u) * m);
        }
        s
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Forward application `S · X` agrees between the CSR kernel and
        /// the dense matmul, for every aggregator on random graphs.
        #[test]
        fn forward_application_matches_dense(seed in 0u64..500) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 5 + (seed % 8) as usize;
            let g = generate::random_connected(n, 0.35, 0, 2, &mut rng);
            for agg in all_aggregators() {
                let p = Propagation::with_aggregator(&g, agg);
                let dense = p.csr().to_dense();
                let x = Matrix::glorot(n, 4, &mut rng);
                let sparse = p.apply(&x);
                let reference = dense.matmul(&x);
                for (a, b) in sparse.data().iter().zip(reference.data()) {
                    prop_assert!((a - b).abs() < 1e-9, "{agg:?}: {a} vs {b}");
                }
            }
        }

        /// The masked operator built by CSR value-rescaling equals the
        /// dense-path rebuild entry for entry.
        #[test]
        fn masked_matches_dense_rebuild(seed in 0u64..500) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 5 + (seed % 8) as usize;
            let g = generate::random_connected(n, 0.35, 0, 2, &mut rng);
            let mask: Vec<f64> = (0..g.num_edges()).map(|_| rng.gen_range(0.0..1.0)).collect();
            for agg in all_aggregators() {
                let p = Propagation::with_aggregator(&g, agg);
                let sparse = p.masked(&mask).to_dense();
                let dense = dense_masked_rebuild(&p, &mask);
                for (a, b) in sparse.data().iter().zip(dense.data()) {
                    prop_assert!((a - b).abs() < 1e-9, "{agg:?}: {a} vs {b}");
                }
            }
        }

        /// k-hop application (`power` and `apply_k`) agrees with the dense
        /// matmul chain, including the short-circuited k = 0 and k = 1.
        #[test]
        fn k_hop_matches_dense_chain(seed in 0u64..300, k in 0usize..4) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 5 + (seed % 6) as usize;
            let g = generate::random_connected(n, 0.3, 0, 2, &mut rng);
            for agg in all_aggregators() {
                let p = Propagation::with_aggregator(&g, agg);
                let dense = p.csr().to_dense();
                let mut reference = Matrix::identity(n);
                for _ in 0..k {
                    reference = dense.matmul(&reference);
                }
                let sparse = p.power(k);
                for (a, b) in sparse.data().iter().zip(reference.data()) {
                    prop_assert!((a - b).abs() < 1e-9, "{agg:?} k={k}: {a} vs {b}");
                }
                let x = Matrix::glorot(n, 3, &mut rng);
                let hop = p.apply_k(&x, k);
                let via_power = reference.matmul(&x);
                for (a, b) in hop.data().iter().zip(via_power.data()) {
                    prop_assert!((a - b).abs() < 1e-9, "{agg:?} apply_k k={k}");
                }
            }
        }

        /// CSR transpose agrees with the dense transpose (the backward
        /// pass routes gradients through `Sᵀ`).
        #[test]
        fn transpose_matches_dense(seed in 0u64..300) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 5 + (seed % 8) as usize;
            let g = generate::random_connected(n, 0.35, 0, 2, &mut rng);
            for agg in all_aggregators() {
                let p = Propagation::with_aggregator(&g, agg);
                prop_assert_eq!(p.csr().transpose().to_dense(), p.csr().to_dense().transpose());
            }
        }

        /// Full model forward via the sparse operator equals the forward
        /// via `from_dense` of the dense operator (logits and embeddings).
        #[test]
        fn model_forward_matches_dense_path(seed in 0u64..200) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 5 + (seed % 6) as usize;
            let g = generate::random_connected(n, 0.3, 0, 2, &mut rng);
            for agg in all_aggregators() {
                let model = GcnModel::new(2, 4, 2, 2, seed).with_aggregator(agg);
                let p = Propagation::with_aggregator(&g, agg);
                let sparse = model.forward(p.csr(), g.features());
                let dense =
                    model.forward(&CsrMatrix::from_dense(&p.csr().to_dense()), g.features());
                for (a, b) in sparse.logits.data().iter().zip(dense.logits.data()) {
                    prop_assert!((a - b).abs() < 1e-9, "{agg:?} logits");
                }
                let (hs, hd) = (sparse.h.last().unwrap(), dense.h.last().unwrap());
                for (a, b) in hs.data().iter().zip(hd.data()) {
                    prop_assert!((a - b).abs() < 1e-9, "{agg:?} embeddings");
                }
            }
        }
    }

    /// The sparse slot-aligned mask gradient matches central finite
    /// differences for the asymmetric SAGE operator too (the slot-based
    /// `edge_grad` handles direction-dependent coefficients exactly,
    /// which the old dense `edge_coeff` path could not).
    #[test]
    fn sage_mask_gradients_match_numeric() {
        let g = small_graph();
        let prop = Propagation::with_aggregator(&g, Aggregator::SageMean);
        let model = GcnModel::new(3, 5, 2, 2, 3).with_aggregator(Aggregator::SageMean);
        let target = 0;
        let edge_mask = vec![0.9, 0.4, 0.7, 0.6];
        let feat_mask = vec![0.8, 0.5, 1.0];
        let loss_of = |em: &[f64]| {
            let s = prop.masked(em);
            let fwd = model.forward(&s, g.features());
            cross_entropy(&fwd.logits, target).0
        };
        let s = prop.masked(&edge_mask);
        let fwd = model.forward(&s, g.features());
        let (_, mg) = model.mask_backward(&fwd, target, &prop, g.features(), &feat_mask);
        let eps = 1e-6;
        for e in 0..edge_mask.len() {
            let mut p = edge_mask.clone();
            p[e] += eps;
            let mut m = edge_mask.clone();
            m[e] -= eps;
            let num = (loss_of(&p) - loss_of(&m)) / (2.0 * eps);
            assert!((num - mg.edge[e]).abs() < 1e-5, "edge {e}: {num} vs {}", mg.edge[e]);
        }
    }
}

// --- inference-only masked forward vs the built-subgraph oracle ---

mod masked {
    use super::*;
    use crate::Aggregator;
    use gvex_linalg::softmax_rows;
    use rand::Rng;

    /// A random graph with `n` nodes (possibly 0), random features and
    /// edges drawn with probability `p`, so isolated nodes occur.
    fn random_graph(n: usize, p: f64, dim: usize, rng: &mut StdRng) -> Graph {
        let mut g = Graph::new(dim);
        for _ in 0..n {
            let feats: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            g.add_node(0, &feats);
        }
        for u in 0..n as u32 {
            for v in u + 1..n as u32 {
                if rng.gen_range(0.0..1.0) < p {
                    g.add_edge(u, v, 0);
                }
            }
        }
        g
    }

    /// Label and probabilities of the built induced subgraph through the
    /// training forward pass: the oracle `predict_masked` must equal.
    fn oracle(model: &GcnModel, g: &Graph, keep: &[bool], invert: bool) -> (u16, Vec<f64>) {
        let kept: Vec<u32> =
            (0..g.num_nodes() as u32).filter(|&v| keep[v as usize] != invert).collect();
        let fwd = model.forward_graph(&g.induced_subgraph(&kept).0);
        let probs = softmax_rows(&fwd.logits).row(0).to_vec();
        (crate::model::argmax(fwd.logits.row(0)) as u16, probs)
    }

    /// A graph with `n` nodes and about `m` random edges — cheap to draw
    /// for large `n`.
    fn sparse_graph(n: usize, m: usize, dim: usize, rng: &mut StdRng) -> Graph {
        let mut g = Graph::new(dim);
        for _ in 0..n {
            let feats: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            g.add_node(0, &feats);
        }
        for _ in 0..m {
            let (u, v) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
            if u != v {
                g.add_edge(u, v, 0);
            }
        }
        g
    }

    fn assert_bits_eq(got: &(u16, Vec<f64>), want: &(u16, Vec<f64>), what: &str) {
        assert_eq!(got.0, want.0, "{what}: label");
        let bits = |p: &[f64]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got.1), bits(&want.1), "{what}: probabilities");
    }

    fn aggregators() -> [Aggregator; 3] {
        [Aggregator::GcnSym, Aggregator::GinSum(0.3), Aggregator::SageMean]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// `predict_masked` equals the forward of the built induced
        /// subgraph bit for bit: every aggregator, both mask senses, on
        /// random graphs (empty, one-node and isolated-node cases
        /// included) and random, all-kept and none-kept masks.
        #[test]
        fn predict_masked_matches_built_subgraph(
            seed in 0u64..10_000,
            n in 0usize..14,
            mask_kind in 0u8..4,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let p = rng.gen_range(0.0..0.6);
            let g = random_graph(n, p, 3, &mut rng);
            let keep: Vec<bool> = match mask_kind {
                0 => vec![true; n],
                1 => vec![false; n],
                _ => (0..n).map(|_| rng.gen_range(0.0..1.0) < 0.5).collect(),
            };
            for agg in aggregators() {
                let layers = 1 + (seed % 3) as usize;
                let model = GcnModel::new(3, 5, 3, layers, seed).with_aggregator(agg);
                for invert in [false, true] {
                    let got = model.predict_masked(&g, &keep, invert);
                    assert_bits_eq(&got, &oracle(&model, &g, &keep, invert), &format!("{agg:?} invert={invert}"));
                }
                // The full-graph wrappers run the same path.
                let full = oracle(&model, &g, &vec![true; n], false);
                assert_bits_eq(&model.predict_with_proba(&g), &full, &format!("{agg:?} full"));
                prop_assert_eq!(model.predict(&g), full.0);
                prop_assert_eq!(model.predict_proba(&g), full.1);
            }
        }
    }

    /// One thread's workspace carries over between calls: a large graph,
    /// a small one, the large one again, and one big enough that its
    /// buffers are released afterwards, all agree with the oracle.
    #[test]
    fn workspace_reuse_across_sizes() {
        let mut rng = StdRng::seed_from_u64(17);
        let large = sparse_graph(300, 900, 4, &mut rng);
        let small = random_graph(3, 0.7, 4, &mut rng);
        let huge = sparse_graph(6000, 12_000, 4, &mut rng);
        for agg in aggregators() {
            let model = GcnModel::new(4, 32, 2, 3, 5).with_aggregator(agg);
            for g in [&large, &small, &large, &huge, &small, &large] {
                let keep: Vec<bool> = (0..g.num_nodes()).map(|v| v % 3 != 0).collect();
                for invert in [false, true] {
                    let got = model.predict_masked(g, &keep, invert);
                    let want = oracle(&model, g, &keep, invert);
                    assert_bits_eq(&got, &want, &format!("{agg:?} n={}", g.num_nodes()));
                }
            }
        }
    }

    /// A call made while this thread's workspace is borrowed falls back
    /// to a fresh workspace instead of panicking on the borrow.
    #[test]
    fn reentrant_call_uses_a_fresh_workspace() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = random_graph(12, 0.3, 3, &mut rng);
        let model = GcnModel::new(3, 6, 2, 2, 9);
        let keep: Vec<bool> = (0..12).map(|v| v % 2 == 0).collect();
        let inner = crate::infer::with_workspace(|_| model.predict_masked(&g, &keep, false));
        assert_bits_eq(&inner, &oracle(&model, &g, &keep, false), "re-entrant");
        // The outer workspace is usable again afterwards.
        let after = model.predict_masked(&g, &keep, true);
        assert_bits_eq(&after, &oracle(&model, &g, &keep, true), "after re-entry");
    }

    #[test]
    #[should_panic(expected = "mask length")]
    fn predict_masked_rejects_a_short_mask() {
        let g = small_graph();
        GcnModel::new(3, 4, 2, 1, 1).predict_masked(&g, &[true; 3], false);
    }
}
