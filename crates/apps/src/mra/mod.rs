//! Adaptive multi-resolution analysis (paper §III-E, Figs. 13a/13b).
//!
//! The benchmark builds the order-`k` multiwavelet representation of N
//! 3-D Gaussians (adaptive projection), then compresses (fast wavelet
//! transform, data flows **up** the tree), reconstructs (down the tree),
//! and computes the norm for verification.
//!
//! * [`ttg`] — barrier-free streaming implementation: all trees flow
//!   through one template graph concurrently; the compress stage uses a
//!   streaming terminal with stream size 2³ = 8 (paper Listing 3);
//! * [`native`] — "native MADNESS" comparator on the [`ttg_madness::world`]
//!   runtime: same numerics with a global fence after every computational
//!   step (projection, compression, reconstruction, norm).

pub mod native;
pub mod ttg;

use ttg_mra::{Gaussian3, Mra3};

/// Workload of one benchmark run.
#[derive(Clone)]
pub struct Workload {
    /// Basis order (paper: 10).
    pub k: usize,
    /// The functions to process (one adaptive tree each).
    pub functions: Vec<Vec<Gaussian3>>,
    /// Truncation threshold.
    pub tol: f64,
    /// Maximum refinement depth.
    pub(crate) max_depth: u8,
}

impl Workload {
    /// Paper-style workload: `n` single-Gaussian functions with random
    /// clustered centers (load imbalance included), scaled-down exponent.
    pub fn gaussians(n: usize, k: usize, expnt: f64, tol: f64, seed: u64) -> Self {
        Workload {
            k,
            functions: ttg_mra::random_gaussians(n, expnt, seed)
                .into_iter()
                .map(|g| vec![g])
                .collect(),
            tol,
            max_depth: 10,
        }
    }
}

/// Reference results computed serially for verification.
pub struct Reference {
    /// Per-function L² norm.
    pub norms: Vec<f64>,
    /// Per-function leaf count (tree size).
    pub leaves: Vec<usize>,
}

/// Serial reference pass over the workload.
pub fn reference(w: &Workload) -> Reference {
    let mra = Mra3::new(w.k);
    let mut norms = Vec::new();
    let mut leaves_count = Vec::new();
    for f in &w.functions {
        let leaves = mra.project_adaptive(f, w.tol, w.max_depth);
        let (root, details) = mra.compress(&leaves);
        let rec = mra.reconstruct(&root, &details);
        assert_eq!(rec.len(), leaves.len());
        norms.push(Mra3::norm_leaves(&leaves));
        leaves_count.push(leaves.len());
    }
    Reference {
        norms,
        leaves: leaves_count,
    }
}

/// Modelled cost of the per-node numerical kernels (ns), order-k basis.
pub(crate) fn node_cost_ns(k: usize) -> u64 {
    // Tensor transform: 3 modes × (2k)³ × 2k multiply-adds.
    let n = 2 * k as u64;
    crate::cost::ns_for_flops(2 * 3 * n * n * n * n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_norms_close_to_analytic() {
        // One centered Gaussian: ‖f‖₂ = (π/(2a))^{3/4} for a well inside
        // the cube.
        let w = Workload {
            k: 8,
            functions: vec![vec![Gaussian3 {
                coeff: 1.0,
                center: [0.5, 0.5, 0.5],
                expnt: 500.0,
            }]],
            tol: 1e-7,
            max_depth: 10,
        };
        let r = reference(&w);
        let analytic = (std::f64::consts::PI / 1000.0).powf(0.75);
        assert!(
            (r.norms[0] - analytic).abs() < 1e-4,
            "{} vs {analytic}",
            r.norms[0]
        );
        assert!(r.leaves[0] >= 8);
    }

    /// The serial pipeline leaves every bit where the parent commit of the
    /// kernel-backed transform (e4429d5, scalar loops) left it: per function
    /// its leaf count and a digest, recorded there, of every coefficient of
    /// the projected leaves, the compressed form and the reconstructed
    /// leaves. Nodes are visited in sorted order — `Reference::norms` itself
    /// sums in `HashMap` order and differs in its last bits from run to run
    /// on either commit.
    #[test]
    fn serial_pipeline_is_bit_identical_to_the_scalar_transform() {
        use std::collections::HashMap;
        use ttg_mra::Node3;

        fn digest(h: &mut u64, blocks: &HashMap<Node3, Vec<f64>>) {
            let mut nodes: Vec<&Node3> = blocks.keys().collect();
            nodes.sort_unstable();
            for x in nodes.into_iter().flat_map(|nd| &blocks[nd]) {
                *h = (*h ^ x.to_bits()).wrapping_mul(0x0100_0000_01b3);
            }
        }

        let bench = Workload::gaussians(6, 6, 800.0, 1e-5, 42);
        let integration = Workload::gaussians(3, 5, 350.0, 1e-5, 21);
        let recorded = [
            (960, 0x2001_8b8c_b84d_dd37),
            (792, 0x3ca9_7e19_a6d2_099e),
            (792, 0x51a1_416d_512c_17f8),
            (848, 0xf600_ef01_cb7e_f9c8),
            (1072, 0xb806_2cdf_9185_1a10),
            (512, 0x029c_823f_1068_8598),
            (1072, 0x248b_c398_a89a_4f7a),
            (1072, 0x62cd_54da_f997_9756),
            (1352, 0x54ee_7627_3367_6d9e),
        ];
        let mut got = Vec::new();
        for w in [bench, integration] {
            let mra = Mra3::new(w.k);
            for f in &w.functions {
                let leaves = mra.project_adaptive(f, w.tol, w.max_depth);
                let (root, details) = mra.compress(&leaves);
                let rec = mra.reconstruct(&root, &details);
                let mut h = 0xcbf2_9ce4_8422_2325;
                digest(&mut h, &leaves);
                digest(&mut h, &HashMap::from([(Node3::root(), root)]));
                digest(&mut h, &details);
                digest(&mut h, &rec);
                got.push((leaves.len(), h));
            }
        }
        assert_eq!(got, recorded, "{got:#018x?}");
    }
}
