//! # ttg-apps — the four benchmark applications of the paper
//!
//! Each application has a TTG implementation (runnable on the PaRSEC-like
//! and MADNESS-like backends) and the comparator baselines the paper
//! measures against:
//!
//! | Module | Paper section | Comparators |
//! |---|---|---|
//! | [`cholesky`] | §III-B, Figs. 5–6 | DPLASMA-like (PTG), ScaLAPACK/SLATE-like (BSP), Chameleon-like |
//! | [`floyd_warshall`] | §III-C, Figs. 7–9 | MPI+OpenMP recursive-tiled (BSP) |
//! | [`bspmm`] | §III-D, Figs. 10–12 | DBCSR-like 2.5D SUMMA (BSP) |
//! | [`mra`] | §III-E, Fig. 13 | native MADNESS (futures + fences) |

#![warn(missing_docs)]

pub mod bspmm;
pub mod cholesky;
mod cost;
pub mod floyd_warshall;
pub mod mra;
