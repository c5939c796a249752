//! # ttg-mra — multiwavelet multiresolution analysis substrate
//!
//! From-scratch implementation of the numerical machinery behind the
//! paper's MRA benchmark (§III-E): Legendre scaling bases, Gauss–Legendre
//! quadrature, two-scale filter banks, and adaptive 1-D/3-D function
//! representations with projection, compression (fast wavelet transform),
//! reconstruction, and norm evaluation.

#![warn(missing_docs)]

pub mod function1d;
pub mod function3d;
pub mod legendre;
#[cfg(test)]
mod scalar;
pub mod twoscale;

pub use function1d::{Mra1, Node1};
pub use function3d::{random_gaussians, Coeffs3, Gaussian3, Mra3, Node3};
pub use twoscale::Filters;
