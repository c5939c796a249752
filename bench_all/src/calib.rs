//! The calibration burst: a fixed piece of single-threaded work whose wall
//! time is the unit every rep is measured in.
//!
//! Raw seconds on a shared VM drift by 10–16 % between identical runs, so
//! a rep is reported as (rep wall ÷ wall of the burst run just before it).
//! Host slow-downs that last longer than a rep hit both and cancel.
//!
//! **This file is frozen.** The burst is the yardstick: changing its code,
//! sizes or constants changes every `rep_norm` ever recorded.
//! It deliberately calls nothing from the repository — were it a
//! `ttg_linalg` kernel, a kernel optimisation would speed up the yardstick
//! with the workload and cancel itself out of the metric.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Matrix order of the compute half (naive `n³` f64 multiply-add, no FMA intrinsic).
const N: usize = 96;
/// Words copied by the memory half (4 MiB of f64 in, 4 MiB out).
const COPY_WORDS: usize = 512 * 1024;
/// Passes over both halves per burst (sized for ≈ 5–8 ms on the reference VM).
const PASSES: usize = 8;

/// Buffers the burst works on; allocated once per process so a burst
/// never pays (or measures) the allocator.
pub struct Calib {
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
    src: Vec<f64>,
    dst: Vec<f64>,
}

impl Calib {
    pub fn new() -> Calib {
        // Fixed, seed-independent contents: the burst must do identical
        // work in every process of every run.
        let fill = |n: usize, k: f64| (0..n).map(|i| (i % 97) as f64 * k + 0.5).collect();
        Calib {
            a: fill(N * N, 1e-3),
            b: fill(N * N, 2e-3),
            c: vec![0.0; N * N],
            src: fill(COPY_WORDS, 1.0),
            dst: vec![0.0; COPY_WORDS],
        }
    }

    /// Run one burst and return its wall time.
    pub fn burst(&mut self) -> Duration {
        let t = Instant::now();
        for _ in 0..PASSES {
            // Naive i-j-k product: the inner loop strides `b` by a row, so
            // the half is bound by load latency and the dependent add chain.
            for i in 0..N {
                for j in 0..N {
                    let mut acc = 0.0f64;
                    for k in 0..N {
                        acc += self.a[i * N + k] * self.b[k * N + j];
                    }
                    self.c[i * N + j] = acc;
                }
            }
            black_box(&mut self.c);
            // Streaming copy well past the last-level cache share of a core.
            self.dst.copy_from_slice(&self.src);
            black_box(&mut self.dst);
        }
        t.elapsed()
    }
}
