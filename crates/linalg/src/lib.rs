//! # ttg-linalg — dense tile kernels and tiled matrices
//!
//! The dense linear-algebra substrate of the reproduction: column-major
//! [`Tile`]s (split-metadata-capable wire type), sequential BLAS/LAPACK-like
//! kernels (GEMM/SYRK/TRSM/POTRF and the min-plus product for
//! Floyd–Warshall), tiled matrices with SPD generators and verification
//! residuals, and the 2-D block-cyclic distribution.

#![warn(missing_docs)]

mod kernels;
mod matrix;
mod micro;
#[cfg(test)]
mod scalar;
mod tile;

pub use kernels::{gemm_nn, gemm_nt, gemm_strided, isa, minplus, potrf_l, syrk_ln, trsm_rlt};
pub use matrix::{Dist2D, TiledMatrix};
pub use tile::Tile;

/// Floating-point operation count of an `n × n` Cholesky factorization
/// (`n³/3` to leading order) — used by cost models and GFLOP/s reporting.
pub fn potrf_flops(n: usize) -> u64 {
    let n = n as u64;
    n * n * n / 3 + n * n / 2
}

/// Flops of a `m × n × k` GEMM (`2·m·n·k`).
pub fn gemm_flops(m: usize, n: usize, k: usize) -> u64 {
    2 * (m as u64) * (n as u64) * (k as u64)
}

#[cfg(test)]
mod tests {
    #[test]
    fn flop_counts() {
        assert_eq!(super::gemm_flops(2, 3, 4), 48);
        assert!(super::potrf_flops(512) > (512u64.pow(3)) / 3);
    }
}
