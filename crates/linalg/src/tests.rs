use crate::{cmp_cost, cmp_score, cross_entropy, softmax_rows, Matrix};
use proptest::prelude::*;
use rand::SeedableRng;

#[test]
fn zeros_shape_and_content() {
    let m = Matrix::zeros(3, 4);
    assert_eq!(m.shape(), (3, 4));
    assert!(m.data().iter().all(|&x| x == 0.0));
}

#[test]
fn identity_matmul_is_noop() {
    let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
    let i = Matrix::identity(2);
    assert_eq!(a.matmul(&i), a);
    assert_eq!(i.matmul(&a), a);
}

#[test]
fn matmul_known_product() {
    let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
    let b = Matrix::from_rows(&[vec![7.0, 8.0], vec![9.0, 10.0], vec![11.0, 12.0]]);
    let c = a.matmul(&b);
    assert_eq!(c, Matrix::from_rows(&[vec![58.0, 64.0], vec![139.0, 154.0]]));
}

#[test]
#[should_panic(expected = "matmul shape mismatch")]
fn matmul_shape_mismatch_panics() {
    let a = Matrix::zeros(2, 3);
    let b = Matrix::zeros(2, 3);
    let _ = a.matmul(&b);
}

#[test]
fn push_row_builds_the_same_matrix_as_from_rows() {
    let rows = vec![vec![1.0, -2.0, 0.5], vec![0.0, 3.0, -0.0], vec![4.0, 5.0, 6.0]];
    let mut m = Matrix::zeros(0, 3);
    for r in &rows {
        m.push_row(r);
    }
    m.shrink_to_fit();
    let want = Matrix::from_rows(&rows);
    assert_eq!(m.shape(), (3, 3));
    let bits = |x: &Matrix| x.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&m), bits(&want));
}

#[test]
#[should_panic(expected = "row length")]
fn push_row_rejects_a_ragged_row() {
    Matrix::zeros(0, 2).push_row(&[1.0]);
}

#[test]
fn transpose_involution() {
    let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
    assert_eq!(a.transpose().transpose(), a);
    assert_eq!(a.transpose().get(2, 1), 6.0);
}

#[test]
fn add_sub_roundtrip() {
    let a = Matrix::from_rows(&[vec![1.0, -2.0], vec![0.5, 3.0]]);
    let b = Matrix::from_rows(&[vec![4.0, 1.0], vec![-1.0, 2.0]]);
    assert_eq!(a.add(&b).sub(&b), a);
}

#[test]
fn hadamard_elementwise() {
    let a = Matrix::from_rows(&[vec![2.0, 3.0]]);
    let b = Matrix::from_rows(&[vec![5.0, -1.0]]);
    assert_eq!(a.hadamard(&b), Matrix::from_rows(&[vec![10.0, -3.0]]));
}

#[test]
fn relu_and_gate() {
    let a = Matrix::from_rows(&[vec![-1.0, 0.0, 2.0]]);
    assert_eq!(a.relu(), Matrix::from_rows(&[vec![0.0, 0.0, 2.0]]));
    assert_eq!(a.relu_gate(), Matrix::from_rows(&[vec![0.0, 0.0, 1.0]]));
}

#[test]
fn max_pool_values_and_argmax() {
    let a = Matrix::from_rows(&[vec![1.0, 5.0], vec![3.0, 2.0], vec![2.0, 4.0]]);
    let (pooled, arg) = a.max_pool_rows();
    assert_eq!(pooled, Matrix::from_rows(&[vec![3.0, 5.0]]));
    assert_eq!(arg, vec![1, 0]);
}

#[test]
fn mean_pool_rows_average() {
    let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
    assert_eq!(a.mean_pool_rows(), Matrix::from_rows(&[vec![2.0, 3.0]]));
}

#[test]
fn l1_and_frobenius_norms() {
    let a = Matrix::from_rows(&[vec![3.0, -4.0]]);
    assert_eq!(a.l1_norm(), 7.0);
    assert!((a.frobenius_norm() - 5.0).abs() < 1e-12);
}

#[test]
fn gather_rows_selects() {
    let a = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
    let g = a.gather_rows(&[2, 0]);
    assert_eq!(g, Matrix::from_rows(&[vec![3.0], vec![1.0]]));
}

#[test]
fn row_distance_sq_matches_manual() {
    let a = Matrix::from_rows(&[vec![0.0, 0.0], vec![3.0, 4.0]]);
    assert_eq!(a.row_distance_sq(0, &a, 1), 25.0);
}

#[test]
fn softmax_rows_sum_to_one() {
    let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![-5.0, 0.0, 5.0]]);
    let s = softmax_rows(&a);
    for r in 0..2 {
        let sum: f64 = s.row(r).iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!(s.row(r).iter().all(|&p| p > 0.0));
    }
    // Larger logits get larger probabilities.
    assert!(s.get(0, 2) > s.get(0, 1) && s.get(0, 1) > s.get(0, 0));
}

#[test]
fn softmax_is_shift_invariant() {
    let a = Matrix::from_rows(&[vec![100.0, 101.0]]);
    let b = Matrix::from_rows(&[vec![0.0, 1.0]]);
    let sa = softmax_rows(&a);
    let sb = softmax_rows(&b);
    assert!((sa.get(0, 0) - sb.get(0, 0)).abs() < 1e-12);
}

#[test]
fn cross_entropy_gradient_is_p_minus_onehot() {
    let logits = Matrix::from_rows(&[vec![0.2, 0.8, -0.1]]);
    let (loss, grad) = cross_entropy(&logits, 1);
    let p = softmax_rows(&logits);
    assert!(loss > 0.0);
    assert!((grad.get(0, 1) - (p.get(0, 1) - 1.0)).abs() < 1e-12);
    assert!((grad.get(0, 0) - p.get(0, 0)).abs() < 1e-12);
    // Gradient rows sum to zero.
    let sum: f64 = grad.row(0).iter().sum();
    assert!(sum.abs() < 1e-12);
}

#[test]
fn cross_entropy_numeric_gradient_check() {
    let logits = Matrix::from_rows(&[vec![0.3, -0.7, 1.2, 0.05]]);
    let (_, grad) = cross_entropy(&logits, 2);
    let eps = 1e-6;
    for c in 0..4 {
        let mut plus = logits.clone();
        plus.add_at(0, c, eps);
        let mut minus = logits.clone();
        minus.add_at(0, c, -eps);
        let num = (cross_entropy(&plus, 2).0 - cross_entropy(&minus, 2).0) / (2.0 * eps);
        assert!((num - grad.get(0, c)).abs() < 1e-6, "col {c}: {num} vs {}", grad.get(0, c));
    }
}

#[test]
fn glorot_within_limit() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let m = Matrix::glorot(10, 20, &mut rng);
    let limit = (6.0 / 30.0_f64).sqrt();
    assert!(m.data().iter().all(|&x| x.abs() <= limit));
}

#[test]
fn nan_loses_every_ranking() {
    // Descending sort over scores: NaN comes last — after -inf — never
    // first (plain total_cmp would rank positive NaN above +inf).
    let mut scores = [f64::NAN, 1.0, f64::INFINITY, -3.0, f64::NEG_INFINITY];
    scores.sort_by(|a, b| cmp_score(*b, *a));
    assert_eq!(scores[0], f64::INFINITY);
    assert!(scores[scores.len() - 1].is_nan() || scores[scores.len() - 2].is_nan());
    // Minimization over costs: NaN never wins, with either sign bit
    // (NaN produced by `x - x` is negative on common hardware).
    let neg_nan = -f64::NAN;
    let cheapest = [3.0, neg_nan, 0.5, f64::NAN].into_iter().min_by(|a, b| cmp_cost(*a, *b));
    assert_eq!(cheapest, Some(0.5));
    // All-finite rankings are unaffected.
    let best = [0.2, 0.9, 0.5].into_iter().max_by(|a, b| cmp_score(*a, *b));
    assert_eq!(best, Some(0.9));
}

proptest! {
    #[test]
    fn matmul_distributes_over_add(seed in 0u64..1000) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = Matrix::glorot(3, 4, &mut rng);
        let b = Matrix::glorot(4, 2, &mut rng);
        let c = Matrix::glorot(4, 2, &mut rng);
        let lhs = a.matmul(&b.add(&c));
        let rhs = a.matmul(&b).add(&a.matmul(&c));
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn transpose_of_product_is_reversed_product(seed in 0u64..1000) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = Matrix::glorot(3, 5, &mut rng);
        let b = Matrix::glorot(5, 2, &mut rng);
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn scale_is_linear(seed in 0u64..1000, s in -3.0f64..3.0) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = Matrix::glorot(4, 4, &mut rng);
        let lhs = a.scale(s).l1_norm();
        let rhs = a.l1_norm() * s.abs();
        prop_assert!((lhs - rhs).abs() < 1e-9);
    }
}

// --- CsrMatrix ---

mod csr {
    use super::*;
    use crate::CsrMatrix;
    use rand::Rng;

    #[test]
    fn from_triplets_sums_duplicates_and_sorts() {
        let m =
            CsrMatrix::from_triplets(3, 3, &[(2, 0, 5.0), (0, 2, 1.0), (0, 1, 2.0), (0, 2, 3.0)]);
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(0, 2), 4.0, "duplicates summed");
        assert_eq!(m.get(2, 0), 5.0);
        assert_eq!(m.get(1, 1), 0.0, "missing entries read as zero");
        let (cols, _) = m.row(0);
        assert_eq!(cols, &[1, 2], "columns ascending within row");
    }

    #[test]
    fn identity_roundtrip_and_spmv() {
        let i = CsrMatrix::identity(4);
        assert_eq!(i.to_dense(), Matrix::identity(4));
        assert_eq!(i.spmv(&[1.0, 2.0, 3.0, 4.0]), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn dense_roundtrip_drops_zeros() {
        let d = Matrix::from_rows(&[vec![0.0, 1.5], vec![2.0, 0.0]]);
        let s = CsrMatrix::from_dense(&d);
        assert_eq!(s.nnz(), 2);
        assert_eq!(s.to_dense(), d);
    }

    #[test]
    fn transpose_known_and_involution() {
        let d = Matrix::from_rows(&[vec![1.0, 0.0, 2.0], vec![0.0, 3.0, 0.0]]);
        let s = CsrMatrix::from_dense(&d);
        assert_eq!(s.transpose().to_dense(), d.transpose());
        assert_eq!(s.transpose().transpose(), s);
    }

    #[test]
    fn with_values_keeps_structure() {
        let s = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 0, 2.0)]);
        let t = s.with_values(vec![10.0, 20.0]);
        assert_eq!(t.get(0, 0), 10.0);
        assert_eq!(t.get(1, 0), 20.0);
        assert_eq!(t.indptr(), s.indptr());
        assert_eq!(t.indices(), s.indices());
    }

    #[test]
    #[should_panic(expected = "values length must equal nnz")]
    fn with_values_wrong_length_panics() {
        let s = CsrMatrix::identity(2);
        let _ = s.with_values(vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "spmm shape mismatch")]
    fn spmm_shape_mismatch_panics() {
        let s = CsrMatrix::identity(2);
        let _ = s.spmm_dense(&Matrix::zeros(3, 2));
    }

    #[test]
    fn empty_rows_and_zero_sized() {
        let s = CsrMatrix::from_triplets(3, 2, &[]);
        assert_eq!(s.nnz(), 0);
        assert_eq!(s.spmm_dense(&Matrix::filled(2, 5, 1.0)), Matrix::zeros(3, 5));
        let e = CsrMatrix::from_triplets(0, 0, &[]);
        assert_eq!(e.to_dense().shape(), (0, 0));
    }

    /// A random sparse matrix as (dense, csr) pair with matching content.
    fn random_pair(rows: usize, cols: usize, seed: u64) -> (Matrix, CsrMatrix) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut d = Matrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                if rng.gen_bool(0.3) {
                    d.set(r, c, rng.gen_range(-2.0..2.0));
                }
            }
        }
        let s = CsrMatrix::from_dense(&d);
        (d, s)
    }

    proptest! {
        #[test]
        fn spmm_matches_dense_matmul(seed in 0u64..200) {
            let (d, s) = random_pair(7, 5, seed);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xabcd);
            let x = Matrix::glorot(5, 3, &mut rng);
            let sparse = s.spmm_dense(&x);
            let dense = d.matmul(&x);
            for (a, b) in sparse.data().iter().zip(dense.data()) {
                prop_assert!((a - b).abs() < 1e-12);
            }
        }

        #[test]
        fn spmv_matches_spmm_column(seed in 0u64..200) {
            let (_, s) = random_pair(6, 4, seed);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x1234);
            let x: Vec<f64> = (0..4).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let xm = Matrix::from_vec(4, 1, x.clone());
            let via_spmm = s.spmm_dense(&xm);
            let via_spmv = s.spmv(&x);
            for (a, b) in via_spmv.iter().zip(via_spmm.data()) {
                prop_assert!((a - b).abs() < 1e-12);
            }
        }

        #[test]
        fn transpose_matches_dense(seed in 0u64..200) {
            let (d, s) = random_pair(5, 8, seed);
            prop_assert_eq!(s.transpose().to_dense(), d.transpose());
        }
    }

    /// Exercises the parallel row-chunked spmm path (work above the
    /// serial threshold) against the serial dense reference.
    #[test]
    fn large_spmm_parallel_matches_dense() {
        let (d, s) = random_pair(300, 300, 99);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let x = Matrix::glorot(300, 16, &mut rng);
        assert!(s.nnz() * 16 >= 1 << 15, "must cross the parallel threshold");
        let sparse = s.spmm_dense(&x);
        let dense = d.matmul(&x);
        for (a, b) in sparse.data().iter().zip(dense.data()) {
            assert!((a - b).abs() < 1e-9);
        }
    }
}
