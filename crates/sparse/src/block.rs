//! Irregularly tiled block-sparse matrices (the bspmm substrate).

use std::collections::HashMap;

use ttg_linalg::{gemm_nn, Tile};

/// A block-sparse matrix with irregular tile sizes: tiles are addressed by
/// block coordinates; absent blocks are exact zeros.
#[derive(Debug, Clone, Default)]
pub struct BlockSparse {
    /// Sizes of the row-tile panels.
    pub row_sizes: Vec<usize>,
    /// Sizes of the column-tile panels.
    pub col_sizes: Vec<usize>,
    blocks: HashMap<(usize, usize), Tile>,
}

impl BlockSparse {
    /// Empty matrix with the given tiling.
    pub fn new(row_sizes: Vec<usize>, col_sizes: Vec<usize>) -> Self {
        BlockSparse {
            row_sizes,
            col_sizes,
            blocks: HashMap::new(),
        }
    }

    /// Number of block rows.
    pub fn block_rows(&self) -> usize {
        self.row_sizes.len()
    }

    /// Number of block cols.
    pub fn block_cols(&self) -> usize {
        self.col_sizes.len()
    }

    /// Matrix dimension in elements (rows, cols).
    pub fn dims(&self) -> (usize, usize) {
        (self.row_sizes.iter().sum(), self.col_sizes.iter().sum())
    }

    /// Insert (or replace) block `(i, j)`. Shape is checked.
    pub fn insert(&mut self, i: usize, j: usize, t: Tile) {
        assert_eq!(t.rows(), self.row_sizes[i], "block row size");
        assert_eq!(t.cols(), self.col_sizes[j], "block col size");
        self.blocks.insert((i, j), t);
    }

    /// Block `(i, j)` if present.
    pub fn block(&self, i: usize, j: usize) -> Option<&Tile> {
        self.blocks.get(&(i, j))
    }

    /// Number of stored (nonzero) blocks.
    pub fn nnz_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Stored fraction of the block grid in [0, 1].
    pub fn fill(&self) -> f64 {
        let total = self.block_rows() * self.block_cols();
        if total == 0 {
            0.0
        } else {
            self.blocks.len() as f64 / total as f64
        }
    }

    /// Iterate stored blocks.
    pub fn iter(&self) -> impl Iterator<Item = (&(usize, usize), &Tile)> {
        self.blocks.iter()
    }

    /// Stored element count (Σ block areas).
    pub fn nnz_elements(&self) -> usize {
        self.blocks.values().map(|t| t.rows() * t.cols()).sum()
    }

    /// Total flops of multiplying `self · other` (2·m·n·k per block pair).
    pub fn multiply_flops(&self, other: &BlockSparse) -> u64 {
        let mut flops = 0u64;
        for (&(_i, k), a) in &self.blocks {
            for j in 0..other.block_cols() {
                if let Some(b) = other.block(k, j) {
                    flops += 2 * (a.rows() * a.cols() * b.cols()) as u64;
                }
            }
        }
        flops
    }

    /// Drop blocks whose per-element Frobenius norm is below `tol`
    /// (the paper's 1e-8 filtering).
    pub(crate) fn filter(&mut self, tol: f64) {
        self.blocks.retain(|_, t| t.norm_fro_per_element() >= tol);
    }

    /// Serial reference block multiply with drop tolerance: `C = A·B`,
    /// then filter. Used to verify the distributed SUMMA implementations.
    pub fn multiply_reference(&self, other: &BlockSparse, tol: f64) -> BlockSparse {
        assert_eq!(self.col_sizes, other.row_sizes, "conforming tilings");
        let mut c = BlockSparse::new(self.row_sizes.clone(), other.col_sizes.clone());
        for (&(i, k), a) in &self.blocks {
            for j in 0..other.block_cols() {
                if let Some(b) = other.block(k, j) {
                    let entry = c
                        .blocks
                        .entry((i, j))
                        .or_insert_with(|| Tile::zeros(self.row_sizes[i], other.col_sizes[j]));
                    gemm_nn(1.0, a, b, entry);
                }
            }
        }
        c.filter(tol);
        c
    }

    /// Densify into a flat row-major buffer (small matrices, verification).
    pub(crate) fn to_dense(&self) -> Vec<Vec<f64>> {
        let (m, n) = self.dims();
        let mut out = vec![vec![0.0; n]; m];
        let row_off = offsets(&self.row_sizes);
        let col_off = offsets(&self.col_sizes);
        for (&(bi, bj), t) in &self.blocks {
            for i in 0..t.rows() {
                for j in 0..t.cols() {
                    out[row_off[bi] + i][col_off[bj] + j] = t.get(i, j);
                }
            }
        }
        out
    }

    /// Maximum absolute element difference between two same-shape matrices.
    pub fn max_abs_diff(&self, other: &BlockSparse) -> f64 {
        let a = self.to_dense();
        let b = other.to_dense();
        assert_eq!(a.len(), b.len());
        let mut max = 0.0f64;
        for (ra, rb) in a.iter().zip(&b) {
            for (x, y) in ra.iter().zip(rb) {
                max = max.max((x - y).abs());
            }
        }
        max
    }
}

/// Prefix offsets of a panel-size list.
pub(crate) fn offsets(sizes: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(sizes.len());
    let mut acc = 0;
    for &s in sizes {
        out.push(acc);
        acc += s;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(v: f64, r: usize, c: usize) -> Tile {
        Tile::from_data(r, c, vec![v; r * c])
    }

    #[test]
    fn insert_and_dims() {
        let mut a = BlockSparse::new(vec![2, 3], vec![1, 2]);
        a.insert(1, 0, filled(1.0, 3, 1));
        assert_eq!(a.dims(), (5, 3));
        assert_eq!(a.nnz_blocks(), 1);
        assert_eq!(a.nnz_elements(), 3);
        assert!((a.fill() - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "block row size")]
    fn insert_rejects_bad_shape() {
        let mut a = BlockSparse::new(vec![2], vec![2]);
        a.insert(0, 0, filled(0.0, 3, 2));
    }

    #[test]
    fn reference_multiply_matches_dense() {
        // A: 2x2 blocks with one zero block; B: full.
        let mut a = BlockSparse::new(vec![2, 2], vec![3, 1]);
        a.insert(0, 0, filled(1.0, 2, 3));
        a.insert(1, 1, filled(2.0, 2, 1));
        let mut b = BlockSparse::new(vec![3, 1], vec![2, 2]);
        b.insert(0, 0, filled(1.0, 3, 2));
        b.insert(0, 1, filled(-1.0, 3, 2));
        b.insert(1, 0, filled(3.0, 1, 2));
        b.insert(1, 1, filled(0.5, 1, 2));

        let c = a.multiply_reference(&b, 0.0);
        let cd = c.to_dense();
        // Dense check.
        let ad = a.to_dense();
        let bd = b.to_dense();
        for i in 0..4 {
            for j in 0..4 {
                let mut s = 0.0;
                for k in 0..4 {
                    s += ad[i][k] * bd[k][j];
                }
                assert!((cd[i][j] - s).abs() < 1e-12, "({i},{j})");
            }
        }
    }

    #[test]
    fn filter_drops_small_blocks() {
        let mut a = BlockSparse::new(vec![2], vec![2, 2]);
        a.insert(0, 0, filled(1e-12, 2, 2));
        a.insert(0, 1, filled(1.0, 2, 2));
        a.filter(1e-8);
        assert_eq!(a.nnz_blocks(), 1);
        assert!(a.block(0, 0).is_none());
    }

    #[test]
    fn multiply_flops_counts_matching_pairs() {
        let mut a = BlockSparse::new(vec![2], vec![2, 2]);
        a.insert(0, 0, filled(1.0, 2, 2));
        let mut b = BlockSparse::new(vec![2, 2], vec![2]);
        b.insert(0, 0, filled(1.0, 2, 2));
        b.insert(1, 0, filled(1.0, 2, 2)); // k=1 has no matching A block
        assert_eq!(a.multiply_flops(&b), 2 * 2 * 2 * 2);
    }
}
