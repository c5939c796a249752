//! Block-sparse matrix-matrix multiplication (paper §III-D, Figs. 10–12).
//!
//! The TTG implementation follows the 2-D SUMMA structure of Fig. 10:
//! tiles are read and broadcast to the process grid once per rank
//! (ReadSp/Bcast), fan out locally to the MultiplyAdd tasks (LBcast), and
//! partial products accumulate into the output tiles through **streaming
//! terminals**; a Coordinator node demonstrates the control-feedback loop.
//! The comparator is a DBCSR-like 2.5D communication-reducing SUMMA
//! ([`dbcsr`]).

pub mod dbcsr;
pub mod ttg;

use ttg_sparse::BlockSparse;

/// Multiplication problem structure precomputed from the sparsity
/// patterns: which row/column tiles participate in each SUMMA round `k`
/// and how many partial products feed each output tile.
#[derive(Debug, Clone, Default)]
pub struct MulPlan {
    /// For each k: the `i` with `A[i,k] ≠ 0`.
    pub(crate) a_rows: Vec<Vec<u32>>,
    /// For each k: the `j` with `B[k,j] ≠ 0`.
    pub(crate) b_cols: Vec<Vec<u32>>,
    /// Number of nonzero terms contributing to `C[i,j]`.
    pub(crate) terms: std::collections::HashMap<(u32, u32), usize>,
    /// Total multiply-add tasks.
    pub total_gemms: usize,
}

/// Build the plan for `C = A · B`.
pub fn plan(a: &BlockSparse, b: &BlockSparse) -> MulPlan {
    let nk = a.block_cols();
    assert_eq!(nk, b.block_rows());
    let mut p = MulPlan {
        a_rows: vec![Vec::new(); nk],
        b_cols: vec![Vec::new(); nk],
        ..Default::default()
    };
    for (&(i, k), _) in a.iter() {
        p.a_rows[k].push(i as u32);
    }
    for (&(k, j), _) in b.iter() {
        p.b_cols[k].push(j as u32);
    }
    for k in 0..nk {
        p.a_rows[k].sort_unstable();
        p.b_cols[k].sort_unstable();
        for &i in &p.a_rows[k] {
            for &j in &p.b_cols[k] {
                *p.terms.entry((i, j)).or_insert(0) += 1;
                p.total_gemms += 1;
            }
        }
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttg_linalg::Tile;

    #[test]
    fn plan_counts_terms() {
        let mut a = BlockSparse::new(vec![2, 2], vec![2, 2]);
        a.insert(0, 0, Tile::zeros(2, 2));
        a.insert(1, 0, Tile::zeros(2, 2));
        a.insert(1, 1, Tile::zeros(2, 2));
        let p = plan(&a, &a);
        // C[1,0]: k=0 (A10·A00) and k=1 (A11·A10) both contribute.
        assert_eq!(p.terms[&(1, 0)], 2);
        // C[1,1]: only k=1 (A11·A11); A[0,1] and hence B[0,1] are absent.
        assert_eq!(p.terms[&(1, 1)], 1);
        assert_eq!(p.total_gemms, p.terms.values().sum::<usize>());
    }
}
