//! Synthetic generator reproducing the structure of the paper's bspmm
//! input: the matrix of the Yukawa integral operator `exp(−r/5)/r` in a
//! Gaussian AO basis for a 2,500-atom protein (SARS-CoV-2 main protease).
//!
//! What matters for bspmm performance is the block structure, not chemistry:
//! * atoms cluster spatially (residues/domains) → block norms correlate;
//! * each atom contributes a panel of basis functions; consecutive panels
//!   are grouped into tiles capped at a target size (paper: 256);
//! * the operator decays exponentially with interatomic distance, so tile
//!   norms fall off with cluster distance and small ones are dropped at
//!   per-element Frobenius norm 1e-8.
//!
//! The generator reproduces exactly these features at configurable scale.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::block::BlockSparse;
use ttg_linalg::Tile;

/// Parameters of the synthetic Yukawa-like matrix.
#[derive(Debug, Clone)]
pub struct YukawaParams {
    /// Number of atoms (paper: 2,500).
    pub atoms: usize,
    /// Number of spatial clusters the atoms group into.
    pub clusters: usize,
    /// Spatial extent of the molecule (arbitrary units).
    pub extent: f64,
    /// Basis functions per atom: sampled uniformly from this range
    /// (cc-pVDZ-RIFIT carries tens of functions per atom).
    pub funcs_per_atom: (usize, usize),
    /// Target maximum tile size (paper: 256).
    pub target_tile: usize,
    /// Yukawa screening length (paper kernel: `exp(−r/5)/r`).
    pub screening: f64,
    /// Drop tolerance on the per-element Frobenius norm (paper: 1e-8).
    pub drop_tol: f64,
    /// RNG seed.
    pub seed: u64,
}

impl YukawaParams {
    /// A laptop-scale default preserving the paper's structural ratios.
    pub fn small() -> Self {
        YukawaParams {
            atoms: 150,
            clusters: 12,
            extent: 140.0,
            funcs_per_atom: (8, 20),
            target_tile: 64,
            screening: 5.0,
            drop_tol: 1e-8,
            seed: 2022,
        }
    }

    /// A larger configuration for the scaling figure.
    pub fn medium() -> Self {
        YukawaParams {
            atoms: 400,
            clusters: 24,
            extent: 220.0,
            funcs_per_atom: (8, 24),
            target_tile: 96,
            screening: 5.0,
            drop_tol: 1e-8,
            seed: 2022,
        }
    }
}

/// Output of the generator.
#[derive(Debug, Clone)]
pub struct YukawaMatrix {
    /// The block-sparse operator matrix (symmetric structure).
    pub matrix: BlockSparse,
}

/// Generate the synthetic Yukawa-like operator matrix.
pub fn generate(params: &YukawaParams) -> YukawaMatrix {
    YukawaMatrix {
        matrix: build(params).0,
    }
}

/// The matrix and the spatial centroid of each tile's atoms.
fn build(params: &YukawaParams) -> (BlockSparse, Vec<[f64; 3]>) {
    let mut rng = ChaCha8Rng::seed_from_u64(params.seed);

    // Clustered atom positions.
    let centers: Vec<[f64; 3]> = (0..params.clusters)
        .map(|_| {
            [
                rng.gen_range(0.0..params.extent),
                rng.gen_range(0.0..params.extent),
                rng.gen_range(0.0..params.extent),
            ]
        })
        .collect();
    let cluster_sigma = params.extent / (params.clusters as f64).cbrt() / 3.0;
    let mut atoms: Vec<([f64; 3], usize)> = (0..params.atoms)
        .map(|_| {
            let c = centers[rng.gen_range(0..params.clusters)];
            let pos = [
                c[0] + rng.gen_range(-cluster_sigma..cluster_sigma),
                c[1] + rng.gen_range(-cluster_sigma..cluster_sigma),
                c[2] + rng.gen_range(-cluster_sigma..cluster_sigma),
            ];
            let nf = rng.gen_range(params.funcs_per_atom.0..=params.funcs_per_atom.1);
            (pos, nf)
        })
        .collect();
    // Order atoms along a space-filling-ish key so consecutive atoms are
    // spatially close (the paper groups per-atom panels into tiles).
    atoms.sort_by(|a, b| {
        let ka = a.0[0] + 7.0 * a.0[1] + 49.0 * a.0[2];
        let kb = b.0[0] + 7.0 * b.0[1] + 49.0 * b.0[2];
        ka.partial_cmp(&kb).unwrap()
    });

    // Group consecutive atom panels into tiles of ≤ target_tile functions.
    let mut tile_sizes = Vec::new();
    let mut tile_centers = Vec::new();
    let mut cur = 0usize;
    let mut cur_atoms: Vec<[f64; 3]> = Vec::new();
    for (pos, nf) in &atoms {
        if cur + nf > params.target_tile && cur > 0 {
            tile_sizes.push(cur);
            tile_centers.push(centroid(&cur_atoms));
            cur = 0;
            cur_atoms.clear();
        }
        cur += nf;
        cur_atoms.push(*pos);
    }
    if cur > 0 {
        tile_sizes.push(cur);
        tile_centers.push(centroid(&cur_atoms));
    }

    // Fill blocks whose Yukawa magnitude survives the drop tolerance.
    let nt = tile_sizes.len();
    let mut matrix = BlockSparse::new(tile_sizes.clone(), tile_sizes.clone());
    for i in 0..nt {
        for j in 0..nt {
            let r = dist(&tile_centers[i], &tile_centers[j]).max(1.0);
            let magnitude = (-r / params.screening).exp() / r;
            if magnitude < params.drop_tol {
                continue;
            }
            let (m, n) = (tile_sizes[i], tile_sizes[j]);
            let mut t = Tile::zeros(m, n);
            for jj in 0..n {
                for ii in 0..m {
                    // Random values at the kernel's magnitude scale.
                    t.set(ii, jj, magnitude * rng.gen_range(-1.0..1.0));
                }
            }
            matrix.insert(i, j, t);
        }
    }
    matrix.filter(params.drop_tol);
    (matrix, tile_centers)
}

fn centroid(pts: &[[f64; 3]]) -> [f64; 3] {
    let n = pts.len() as f64;
    let mut c = [0.0; 3];
    for p in pts {
        for d in 0..3 {
            c[d] += p[d] / n;
        }
    }
    c
}

fn dist(a: &[f64; 3], b: &[f64; 3]) -> f64 {
    ((a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2) + (a[2] - b[2]).powi(2)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic() {
        let p = YukawaParams::small();
        let a = generate(&p);
        let b = generate(&p);
        assert_eq!(a.matrix.nnz_blocks(), b.matrix.nnz_blocks());
        assert_eq!(a.matrix.row_sizes, b.matrix.row_sizes);
    }

    #[test]
    fn tiles_respect_target_size() {
        let p = YukawaParams::small();
        let y = generate(&p);
        assert!(y.matrix.row_sizes.iter().all(|&s| s <= p.target_tile));
        assert!(y.matrix.row_sizes.len() > 10, "enough tiles to distribute");
    }

    #[test]
    fn matrix_is_block_sparse_with_full_diagonal() {
        let p = YukawaParams::small();
        let y = generate(&p);
        let fill = y.matrix.fill();
        assert!(fill < 0.9, "significant sparsity, fill = {fill}");
        assert!(fill > 0.01, "not empty, fill = {fill}");
        // Diagonal blocks always survive (r clamped to 1).
        for i in 0..y.matrix.block_rows() {
            assert!(y.matrix.block(i, i).is_some(), "diagonal block {i}");
        }
    }

    #[test]
    fn norms_decay_with_distance() {
        let p = YukawaParams::small();
        let (matrix, tile_centers) = build(&p);
        // Pick the first row: blocks at larger centroid distance must have
        // smaller per-element norms (monotone up to randomness; compare
        // nearest vs farthest present).
        let mut pairs: Vec<(f64, f64)> = (0..matrix.block_cols())
            .filter_map(|j| {
                matrix.block(0, j).map(|t| {
                    (
                        super::dist(&tile_centers[0], &tile_centers[j]),
                        t.norm_fro_per_element(),
                    )
                })
            })
            .collect();
        pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        assert!(pairs.len() >= 2);
        assert!(
            pairs.first().unwrap().1 > pairs.last().unwrap().1,
            "norm decays with distance"
        );
    }

    #[test]
    fn symmetric_structure() {
        let p = YukawaParams::small();
        let y = generate(&p);
        for (&(i, j), _) in y.matrix.iter() {
            assert!(
                y.matrix.block(j, i).is_some(),
                "structure symmetric at ({i},{j})"
            );
        }
    }
}
