//! Tiled matrices, generators, and the 2-D block-cyclic distribution.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::kernels::{gemm_nt, potrf_l, trsm_rlt};
use crate::tile::Tile;

/// A square matrix stored as an `nt × nt` grid of `nb × nb` tiles.
#[derive(Debug, Clone, PartialEq)]
pub struct TiledMatrix {
    nt: usize,
    nb: usize,
    tiles: Vec<Tile>,
}

impl TiledMatrix {
    /// Zero matrix of `nt × nt` tiles of size `nb`.
    pub fn zeros(nt: usize, nb: usize) -> Self {
        TiledMatrix {
            nt,
            nb,
            tiles: (0..nt * nt).map(|_| Tile::zeros(nb, nb)).collect(),
        }
    }

    /// Matrix of the given tiles, tile `(i, j)` at `i + j * nt`. A tile may
    /// be empty (`0 × 0`): a Cholesky factor is its lower triangle, so its
    /// tiles above the diagonal are, and a gather that moves its tiles in
    /// leaves the ones it never received so. Reading an element of an
    /// empty tile panics.
    pub fn from_tiles(nt: usize, nb: usize, tiles: Vec<Tile>) -> Self {
        assert_eq!(tiles.len(), nt * nt, "tile count");
        TiledMatrix { nt, nb, tiles }
    }

    /// A copy of the lower triangle, diagonal included; the tiles above it
    /// are empty (`0 × 0`). What a Cholesky factorization reads of its
    /// input.
    pub fn lower(&self) -> Self {
        let nt = self.nt;
        let tiles = (0..nt * nt).map(|at| {
            if at % nt >= at / nt {
                self.tiles[at].clone()
            } else {
                Tile::zeros(0, 0)
            }
        });
        TiledMatrix::from_tiles(nt, self.nb, tiles.collect())
    }

    /// Number of tile rows/cols.
    pub fn nt(&self) -> usize {
        self.nt
    }

    /// Tile size.
    pub fn nb(&self) -> usize {
        self.nb
    }

    /// Matrix dimension in elements.
    pub fn n(&self) -> usize {
        self.nt * self.nb
    }

    /// Tile at block coordinates.
    pub fn tile(&self, i: usize, j: usize) -> &Tile {
        &self.tiles[i + j * self.nt]
    }

    /// Mutable tile at block coordinates.
    pub fn tile_mut(&mut self, i: usize, j: usize) -> &mut Tile {
        &mut self.tiles[i + j * self.nt]
    }

    /// The tiles at `reads`, shared, beside the tile at `write`, mutable:
    /// what one kernel call borrows, with no tile copied. Panics if `write`
    /// is among `reads`.
    pub fn kernel_tiles<const N: usize>(
        &mut self,
        reads: [(usize, usize); N],
        write: (usize, usize),
    ) -> ([&Tile; N], &mut Tile) {
        let at = |(i, j): (usize, usize)| i + j * self.nt;
        let w = at(write);
        let reads = reads.map(at);
        let (before, rest) = self.tiles.split_at_mut(w);
        let (out, after) = rest.split_first_mut().expect("tile in range");
        let read = |r: usize| match r.cmp(&w) {
            std::cmp::Ordering::Less => &before[r],
            std::cmp::Ordering::Greater => &after[r - w - 1],
            std::cmp::Ordering::Equal => panic!("tile {write:?} both read and written"),
        };
        (reads.map(read), out)
    }

    /// Take the tile out, leaving an empty (`0 × 0`) one (move semantics
    /// into a TTG).
    pub fn take_tile(&mut self, i: usize, j: usize) -> Tile {
        std::mem::replace(&mut self.tiles[i + j * self.nt], Tile::zeros(0, 0))
    }

    /// Global element accessor.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.tile(i / self.nb, j / self.nb)
            .get(i % self.nb, j % self.nb)
    }

    /// Global element setter.
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        let nb = self.nb;
        self.tile_mut(i / nb, j / nb).set(i % nb, j % nb, v);
    }

    /// Maximum absolute element difference.
    pub fn max_abs_diff(&self, other: &TiledMatrix) -> f64 {
        assert_eq!((self.nt, self.nb), (other.nt, other.nb));
        self.tiles
            .iter()
            .zip(&other.tiles)
            .map(|(a, b)| a.max_abs_diff(b))
            .fold(0.0, f64::max)
    }

    /// Random symmetric positive-definite matrix (diagonally dominated).
    pub fn random_spd(nt: usize, nb: usize, seed: u64) -> Self {
        let n = nt * nb;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut a = TiledMatrix::zeros(nt, nb);
        for i in 0..n {
            for j in 0..=i {
                let v = rng.gen_range(-0.5..0.5);
                a.set(i, j, v);
                a.set(j, i, v);
            }
            let d: f64 = a.get(i, i);
            a.set(i, i, d.abs() + n as f64);
        }
        a
    }

    /// Sequential right-looking tiled Cholesky (reference implementation).
    /// Overwrites `self` with the lower factor `L`, which is its block lower
    /// triangle: the tiles above the diagonal are left empty (`0 × 0`), as
    /// every factor's are, and reading an element of one panics.
    pub fn potrf_reference(&mut self) -> Result<(), usize> {
        let nt = self.nt;
        for k in 0..nt {
            potrf_l(self.tile_mut(k, k)).map_err(|p| k * self.nb + p)?;
            for m in (k + 1)..nt {
                let ([lkk], lmk) = self.kernel_tiles([(k, k)], (m, k));
                trsm_rlt(lkk, lmk);
            }
            for m in (k + 1)..nt {
                // SYRK on the diagonal block.
                let ([lmk], lmm) = self.kernel_tiles([(m, k)], (m, m));
                crate::kernels::syrk_ln(lmk, lmm);
                // GEMMs below the diagonal in column m.
                for i in (m + 1)..nt {
                    let ([lik, lmk], lim) = self.kernel_tiles([(i, k), (m, k)], (i, m));
                    gemm_nt(-1.0, lik, lmk, lim);
                }
            }
            // Row k above the diagonal is no part of the factor.
            for j in (k + 1)..nt {
                *self.tile_mut(k, j) = Tile::zeros(0, 0);
            }
        }
        Ok(())
    }

    /// `‖A − L·Lᵀ‖_max` — verification residual for Cholesky results. `l`
    /// is a factor: only its lower triangle is read, so its tiles above the
    /// diagonal may be (and from every factorization here are) empty.
    pub fn cholesky_residual(original: &TiledMatrix, l: &TiledMatrix) -> f64 {
        assert_eq!((original.nt, original.nb), (l.nt, l.nb));
        let nt = original.nt;
        let nb = original.nb;
        let mut max = 0.0f64;
        for i in 0..nt {
            for j in 0..=i {
                let mut rec = Tile::zeros(nb, nb);
                // `L(i, k) · L(j, k)ᵀ` is zero for `k > j`: `L(j, k)` is
                // above the diagonal.
                for k in 0..=j {
                    gemm_nt(1.0, l.tile(i, k), l.tile(j, k), &mut rec);
                }
                max = max.max(rec.max_abs_diff(original.tile(i, j)));
            }
        }
        max
    }
}

/// 2-D block-cyclic process grid (the distribution used by ScaLAPACK,
/// DPLASMA, and the TTG applications in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dist2D {
    /// Process-grid rows.
    pub p: usize,
    /// Process-grid cols.
    pub q: usize,
}

impl Dist2D {
    /// Build a near-square grid for `ranks` processes.
    pub fn for_ranks(ranks: usize) -> Self {
        let mut p = (ranks as f64).sqrt() as usize;
        while p > 1 && !ranks.is_multiple_of(p) {
            p -= 1;
        }
        let p = p.max(1);
        Dist2D { p, q: ranks / p }
    }

    /// Owner rank of tile `(i, j)`.
    pub fn owner(&self, i: usize, j: usize) -> usize {
        (i % self.p) * self.q + (j % self.q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_indexing_crosses_tiles() {
        let mut a = TiledMatrix::zeros(3, 4);
        a.set(11, 5, 2.5);
        assert_eq!(a.get(11, 5), 2.5);
        assert_eq!(a.tile(2, 1).get(3, 1), 2.5);
    }

    #[test]
    fn reference_cholesky_reconstructs() {
        let a = TiledMatrix::random_spd(4, 8, 42);
        let mut l = a.clone();
        l.potrf_reference().expect("SPD");
        let res = TiledMatrix::cholesky_residual(&a, &l);
        assert!(res < 1e-8, "residual {res}");
    }

    #[test]
    fn reference_cholesky_matches_scalar_cholesky() {
        // Same matrix, tiled two ways, must agree.
        let a1 = TiledMatrix::random_spd(2, 12, 7);
        let mut a2 = TiledMatrix::zeros(4, 6);
        for i in 0..24 {
            for j in 0..24 {
                a2.set(i, j, a1.get(i, j));
            }
        }
        let mut l1 = a1.clone();
        let mut l2 = a2;
        l1.potrf_reference().unwrap();
        l2.potrf_reference().unwrap();
        for i in 0..24 {
            for j in 0..=i {
                assert!((l1.get(i, j) - l2.get(i, j)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn dist2d_balances_and_partitions() {
        let d = Dist2D::for_ranks(6);
        assert_eq!(d.p * d.q, 6);
        let mut counts = vec![0usize; 6];
        for i in 0..12 {
            for j in 0..12 {
                counts[d.owner(i, j)] += 1;
            }
        }
        assert_eq!(counts.iter().sum::<usize>(), 144);
        assert!(counts.iter().all(|&c| c == 24), "balanced: {counts:?}");
    }

    #[test]
    fn dist2d_for_primes_degenerates_gracefully() {
        let d = Dist2D::for_ranks(7);
        assert_eq!(d.p * d.q, 7);
        assert_eq!(d.p, 1);
    }
}
