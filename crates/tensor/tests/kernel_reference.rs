//! Dense product kernels against a naive reference, bit for bit.
//!
//! `par_props.rs` checks the parallel kernels against their serial twins,
//! which share one block kernel, so a kernel that reordered its reduction
//! would pass there. This suite pins the per-element contract itself: every
//! output element equals the sum `a[i][0]·b[0][j] + a[i][1]·b[1][j] + …`
//! accumulated from `+0.0` with `k` ascending, for every public entry point
//! that runs the dense block kernels:
//! `Matrix::{matmul, t_matmul}`, `par::{matmul, t_matmul}` at 1, 2 and 4
//! threads, and `InferCtx::matmul`.
//!
//! Output widths cover single columns, the 64→2 classifier head, tile tails
//! (31, 33, 65), exact tiles (32, 64) and the 300-d text features. Each width
//! runs at a serving shape and at a shape that clears `par::MIN_PAR_WORK`,
//! so the parallel fan-out really executes. Inputs carry ±0.0 coefficients,
//! whole zero rows (what ReLU emits) and rhs rows holding NaN/±∞ behind an
//! exactly-zero coefficient, whose products must turn the output NaN.

use glint_tensor::{par, InferCtx, Matrix};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const WIDTHS: [usize; 8] = [1, 2, 31, 32, 33, 64, 65, 300];

/// `a × b` as the plain triple loop the kernels must match.
fn reference(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut acc = 0.0f32;
            for k in 0..a.cols() {
                acc += a.get(i, k) * b.get(k, j);
            }
            out.set(i, j, acc);
        }
    }
    out
}

/// Bitwise equality, NaN-safe: same shape, same bit pattern per element.
fn bits_eq(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// An `m × k` lhs: mostly finite values, salted with `+0.0`/`-0.0`
/// coefficients, with row 0 all `+0.0` and (when there is one) row 1 all
/// `-0.0`, like ReLU rows that never fired.
fn lhs(rng: &mut StdRng, m: usize, k: usize) -> Matrix {
    let mut a = Matrix::zeros(m, k);
    for i in 0..m {
        for kk in 0..k {
            let v = match (i, rng.gen_range(0..8usize)) {
                (0, _) => 0.0,
                (1, _) => -0.0,
                (_, 0) => 0.0,
                (_, 1) => -0.0,
                _ => rng.gen_range(-2.0f32..2.0),
            };
            a.set(i, kk, v);
        }
    }
    a
}

/// A `k × n` rhs: finite values, with a NaN, `+∞` or `-∞` planted in up to
/// three columns. Rows of `b` meet every lhs row, so the all-zero lhs rows
/// multiply the planted values by exact zeros.
///
/// Each column holds at most one non-finite value. When two different NaNs
/// meet in one sum (`0 × NaN` is that NaN, `0 × ∞` is the default NaN),
/// Rust leaves unspecified which of them the add returns, so the bits of
/// such an output depend on the compiler's operand order and are not part
/// of the kernel contract. A single NaN source has defined bits.
fn rhs(rng: &mut StdRng, k: usize, n: usize) -> Matrix {
    let mut b = Matrix::zeros(k, n);
    for kk in 0..k {
        for j in 0..n {
            b.set(kk, j, rng.gen_range(-2.0f32..2.0));
        }
    }
    let poisons = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
    let first_col = rng.gen_range(0..n);
    let first_poison = rng.gen_range(0..poisons.len());
    for slot in 0..n.min(poisons.len()) {
        let row = rng.gen_range(0..k);
        let poison = poisons[(first_poison + slot) % poisons.len()];
        b.set(row, (first_col + slot) % n, poison);
    }
    b
}

/// Inner dimension at which a 64-row product of width `n` clears
/// `par::MIN_PAR_WORK`.
fn par_depth(n: usize) -> usize {
    par::MIN_PAR_WORK.div_ceil(64 * n)
}

/// Check every entry point against the reference for one `a × b`.
fn check_all(a: &Matrix, b: &Matrix) -> Result<(), TestCaseError> {
    let want = reference(a, b);
    let shape = format!("{}x{}x{}", a.rows(), a.cols(), b.cols());
    // Output column j is NaN wherever a zero coefficient meets a non-finite
    // rhs entry; the all-zero lhs row 0 meets every rhs row.
    for j in 0..b.cols() {
        if (0..b.rows()).any(|k| !b.get(k, j).is_finite()) {
            prop_assert!(want.get(0, j).is_nan(), "reference lost 0 × non-finite");
        }
    }
    prop_assert!(bits_eq(&a.matmul(b), &want), "Matrix::matmul {shape}");
    let a_t = a.transpose();
    prop_assert!(bits_eq(&a_t.t_matmul(b), &want), "Matrix::t_matmul {shape}");
    for threads in [1usize, 2, 4] {
        par::with_threads(threads, || {
            prop_assert!(
                bits_eq(&par::matmul(a, b), &want),
                "par::matmul {shape} @ {threads}"
            );
            prop_assert!(
                bits_eq(&par::t_matmul(&a_t, b), &want),
                "par::t_matmul {shape} @ {threads}"
            );
            Ok(())
        })?;
    }
    let mut ctx = InferCtx::new();
    // A stale pooled buffer must not leak into the product.
    ctx.release(Matrix::full(a.rows(), b.cols(), f32::NAN));
    prop_assert!(
        bits_eq(&ctx.matmul(a, b), &want),
        "InferCtx::matmul {shape}"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Serving shapes: a handful of nodes over 64- and 300-d inputs.
    #[test]
    fn serving_shapes_match_reference(seed in 0u64..1 << 48) {
        let mut rng = StdRng::seed_from_u64(seed);
        for n in WIDTHS {
            for (m, k) in [(1, 64), (5, 300), (7, 33)] {
                let a = lhs(&mut rng, m, k);
                let b = rhs(&mut rng, k, n);
                check_all(&a, &b)?;
            }
        }
    }

    /// Shapes large enough that `par` splits the output rows over workers.
    #[test]
    fn fan_out_shapes_match_reference(seed in 0u64..1 << 48) {
        let mut rng = StdRng::seed_from_u64(seed);
        for n in WIDTHS {
            let k = par_depth(n);
            let a = lhs(&mut rng, 64, k);
            let b = rhs(&mut rng, k, n);
            check_all(&a, &b)?;
        }
    }
}

/// The exactness argument by hand: products of `-0.0` coefficients with
/// finite values are ±0, and a sum started at `+0.0` stays `+0.0`.
#[test]
fn negative_zero_coefficients_sum_to_positive_zero() {
    let a = Matrix::from_rows(&[vec![-0.0, -0.0, -0.0]]);
    let b = Matrix::from_rows(&[vec![3.0], vec![1.0], vec![-2.0]]);
    assert_eq!(a.matmul(&b).get(0, 0).to_bits(), 0.0f32.to_bits());
    assert_eq!(
        a.transpose().t_matmul(&b).get(0, 0).to_bits(),
        0.0f32.to_bits()
    );
}

/// Empty dimensions on either side: no panic, and an empty inner dimension
/// leaves every sum at `+0.0`.
#[test]
fn degenerate_shapes_match_reference() {
    for (m, k, n) in [(0, 3, 4), (2, 0, 4), (2, 3, 0), (0, 0, 0)] {
        let a = Matrix::full(m, k, 1.5);
        let b = Matrix::full(k, n, -2.0);
        let want = reference(&a, &b);
        assert!(bits_eq(&a.matmul(&b), &want), "matmul {m}x{k}x{n}");
        assert!(
            bits_eq(&a.transpose().t_matmul(&b), &want),
            "t_matmul {m}x{k}x{n}"
        );
        assert!(
            bits_eq(&InferCtx::new().matmul(&a, &b), &want),
            "InferCtx::matmul {m}x{k}x{n}"
        );
    }
}
