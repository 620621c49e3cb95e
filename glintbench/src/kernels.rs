//! Kernel shape table: achieved GFLOP/s of `glint_tensor::par::matmul` at
//! the serving and screening shapes, single-threaded and at the default
//! thread count, plus a single-core 256³ ceiling.

use std::time::{Duration, Instant};

use glint_tensor::{par, Matrix};

use crate::report::{kernel_rows, Metrics};
use crate::stats::median;

/// Timed rounds per shape; the reported rate is their median.
const ROUNDS: usize = 5;
/// Minimum wall time of one round.
const ROUND_TIME: Duration = Duration::from_millis(20);

fn filled(rows: usize, cols: usize, salt: usize) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    for (i, v) in m.data_mut().iter_mut().enumerate() {
        *v = ((i * 7 + salt) % 13) as f32 * 0.1 - 0.6;
    }
    m
}

/// GFLOP/s of `m×k · k×n` at `threads` (0 = the program's default).
pub fn gflops(shape: (usize, usize, usize), threads: usize) -> f64 {
    let (m, k, n) = shape;
    let a = filled(m, k, 1);
    let b = filled(k, n, 2);
    let flop = 2.0 * (m * k * n) as f64;
    let run = || {
        let mut rates = Vec::with_capacity(ROUNDS);
        for _ in 0..3 {
            std::hint::black_box(par::matmul(&a, &b));
        }
        for _ in 0..ROUNDS {
            let start = Instant::now();
            let mut calls = 0u64;
            while start.elapsed() < ROUND_TIME {
                std::hint::black_box(par::matmul(&a, &b));
                calls += 1;
            }
            rates.push(flop * calls as f64 / start.elapsed().as_secs_f64() / 1e9);
        }
        median(&rates)
    };
    if threads == 0 {
        run()
    } else {
        par::with_threads(threads, run)
    }
}

pub fn table(m: &mut Metrics) {
    for (name, shape, threads) in kernel_rows() {
        let rate = gflops(shape, threads);
        eprintln!("[glintbench] kernel {name}: {rate:.2} GFLOP/s");
        m.set(&name, "GFLOP/s", rate);
    }
}
