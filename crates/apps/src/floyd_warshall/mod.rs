//! Floyd–Warshall all-pairs shortest paths (paper §III-C, Figs. 7–9).
//!
//! The blocked algorithm processes rounds `k = 0..nt`; in each round four
//! kernels update tiles of the distance matrix (Fig. 7):
//! * **A** — the diagonal tile `(k,k)` relaxes through itself;
//! * **B** — row-`k` tiles relax through the updated diagonal tile;
//! * **C** — column-`k` tiles relax through the updated diagonal tile;
//! * **D** — all remaining tiles relax through their row/column tiles.
//!
//! [`ttg`] implements the single-level tiled dataflow version of the paper;
//! [`mpi_openmp`] is the bulk-synchronous comparator (MPI broadcasts along
//! rows/columns + fork-join kernels, barrier per phase).

pub mod mpi_openmp;
pub mod ttg;

use ttg_linalg::{Tile, TiledMatrix};

/// In-place Floyd–Warshall relaxation of the diagonal tile (kernel A):
/// `c[i][j] = min(c[i][j], c[i][t] + c[t][j])`, `t` outermost.
pub fn fw_diag(c: &mut Tile) {
    let n = c.rows();
    for t in 0..n {
        for j in 0..n {
            let ctj = c.get(t, j);
            if ctj == f64::INFINITY {
                continue;
            }
            for i in 0..n {
                let cand = c.get(i, t) + ctj;
                if cand < c.get(i, j) {
                    c.set(i, j, cand);
                }
            }
        }
    }
}

/// Kernel B: row tile `c = C_kj` relaxes through the diagonal tile
/// `a = C_kk` (updated): `c[i][j] = min(c[i][j], a[i][t] + c[t][j])`.
pub fn fw_row(c: &mut Tile, a: &Tile) {
    let n = c.rows();
    for t in 0..n {
        for j in 0..c.cols() {
            let ctj = c.get(t, j);
            if ctj == f64::INFINITY {
                continue;
            }
            for i in 0..n {
                let cand = a.get(i, t) + ctj;
                if cand < c.get(i, j) {
                    c.set(i, j, cand);
                }
            }
        }
    }
}

/// Kernel C: column tile `c = C_ik` relaxes through the diagonal tile
/// `a = C_kk`: `c[i][j] = min(c[i][j], c[i][t] + a[t][j])`.
pub fn fw_col(c: &mut Tile, a: &Tile) {
    let n = a.rows();
    for t in 0..n {
        for j in 0..c.cols() {
            let atj = a.get(t, j);
            if atj == f64::INFINITY {
                continue;
            }
            for i in 0..c.rows() {
                let cand = c.get(i, t) + atj;
                if cand < c.get(i, j) {
                    c.set(i, j, cand);
                }
            }
        }
    }
}

/// Kernel D: independent tile relaxes through its column tile `u = C_ik`
/// and row tile `v = C_kj` (plain min-plus product).
pub fn fw_gen(c: &mut Tile, u: &Tile, v: &Tile) {
    ttg_linalg::minplus(u, v, c);
}

/// Generate a random directed graph as a dense tiled distance matrix:
/// `density` of the edges present with weights in [1, 10); ∞ elsewhere;
/// 0 on the diagonal.
pub fn random_graph(nt: usize, nb: usize, density: f64, seed: u64) -> TiledMatrix {
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let n = nt * nb;
    let mut m = TiledMatrix::zeros(nt, nb);
    for i in 0..n {
        for j in 0..n {
            let w = if i == j {
                0.0
            } else if rng.gen_bool(density) {
                rng.gen_range(1.0..10.0)
            } else {
                f64::INFINITY
            };
            m.set(i, j, w);
        }
    }
    m
}

/// Serial reference: classic element-wise Floyd–Warshall.
pub fn reference(m: &TiledMatrix) -> TiledMatrix {
    let n = m.n();
    let mut d = m.clone();
    for t in 0..n {
        for i in 0..n {
            let dit = d.get(i, t);
            if dit == f64::INFINITY {
                continue;
            }
            for j in 0..n {
                let cand = dit + d.get(t, j);
                if cand < d.get(i, j) {
                    d.set(i, j, cand);
                }
            }
        }
    }
    d
}

/// Serial blocked reference — validates the four kernels against
/// [`reference()`].
pub fn blocked_reference(m: &TiledMatrix) -> TiledMatrix {
    let nt = m.nt();
    let mut d = m.clone();
    for k in 0..nt {
        let mut diag = d.take_tile(k, k);
        fw_diag(&mut diag);
        for j in 0..nt {
            if j != k {
                let mut t = d.take_tile(k, j);
                fw_row(&mut t, &diag);
                *d.tile_mut(k, j) = t;
            }
        }
        for i in 0..nt {
            if i != k {
                let mut t = d.take_tile(i, k);
                fw_col(&mut t, &diag);
                *d.tile_mut(i, k) = t;
            }
        }
        *d.tile_mut(k, k) = diag;
        for i in 0..nt {
            for j in 0..nt {
                if i != k && j != k {
                    let u = d.tile(i, k).clone();
                    let v = d.tile(k, j).clone();
                    fw_gen(d.tile_mut(i, j), &u, &v);
                }
            }
        }
    }
    d
}

/// Flops (min-plus op pairs) of one `nb³` FW kernel.
pub(crate) fn kernel_flops(nb: usize) -> u64 {
    2 * (nb as u64).pow(3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocked_matches_elementwise() {
        for (nt, nb, seed) in [(3, 4, 1), (4, 3, 2), (2, 8, 3)] {
            let g = random_graph(nt, nb, 0.3, seed);
            let a = reference(&g);
            let b = blocked_reference(&g);
            assert!(
                a.max_abs_diff(&b) < 1e-12,
                "nt={nt} nb={nb}: {}",
                a.max_abs_diff(&b)
            );
        }
    }

    #[test]
    fn reference_finds_transitive_paths() {
        // 0 → 1 → 2 cheaper than 0 → 2.
        let mut g = TiledMatrix::zeros(1, 3);
        for i in 0..3 {
            for j in 0..3 {
                g.set(i, j, if i == j { 0.0 } else { f64::INFINITY });
            }
        }
        g.set(0, 1, 1.0);
        g.set(1, 2, 1.0);
        g.set(0, 2, 5.0);
        let d = reference(&g);
        assert_eq!(d.get(0, 2), 2.0);
    }

    #[test]
    fn dense_graph_connects_everything() {
        let g = random_graph(2, 4, 1.0, 9);
        let d = reference(&g);
        for i in 0..8 {
            for j in 0..8 {
                assert!(d.get(i, j).is_finite());
            }
        }
    }
}
