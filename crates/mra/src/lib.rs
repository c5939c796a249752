//! # ttg-mra — multiwavelet multiresolution analysis substrate
//!
//! From-scratch implementation of the numerical machinery behind the
//! paper's MRA benchmark (§III-E): Legendre scaling bases, Gauss–Legendre
//! quadrature, two-scale filter banks, and adaptive 1-D/3-D function
//! representations with projection, compression (fast wavelet transform),
//! reconstruction, and norm evaluation.

#![warn(missing_docs)]

mod function1d;
mod function3d;
mod legendre;
#[cfg(test)]
mod scalar;
mod twoscale;

pub use function3d::{random_gaussians, Coeffs3, Gaussian3, Mra3, Node3};
