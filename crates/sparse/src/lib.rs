//! # ttg-sparse — block-sparse matrices and the Yukawa-like generator
//!
//! The irregular substrate of the bspmm benchmark (paper §III-D):
//! irregularly tiled block-sparse matrices with drop-tolerance filtering,
//! a serial reference multiply for verification, and a synthetic generator
//! reproducing the structure of the paper's SARS-CoV-2 Yukawa-operator
//! matrix (clustered atoms, capped tile sizes, exponential norm decay).

#![warn(missing_docs)]

mod block;
mod yukawa;

pub use block::BlockSparse;
pub use yukawa::{generate, YukawaParams};
