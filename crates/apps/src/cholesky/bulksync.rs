//! Bulk-synchronous and comparator Cholesky variants:
//!
//! * **ScaLAPACK-like** — right-looking panel factorization with blocking
//!   collectives: barrier after the panel and after the trailing update
//!   (no lookahead at all);
//! * **SLATE-like** — same compute flow, one barrier per iteration;
//! * **Chameleon-like** — the same dependency structure *without* barriers
//!   (task-based); the paper observes Chameleon trails DPLASMA/TTG
//!   slightly due to a less efficient communication substrate, which the
//!   projection models with a higher per-message overhead.
//!
//! Kernels run for real while the trace is recorded, so the factor can be
//! verified against the reference.

use ttg_bsp::BspProgram;
use ttg_linalg::{
    gemm_flops, gemm_nt, potrf_flops, potrf_l, syrk_ln, trsm_rlt, Dist2D, TiledMatrix,
};
use ttg_simnet::TraceTask;

use crate::cost::{ns_cubed, ns_for_flops};

/// Synchronization style of the comparator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Style {
    /// Barrier after panel and after update (ScaLAPACK-like).
    ScaLapack,
    /// Barrier after each iteration (SLATE-like, no lookahead).
    Slate,
    /// No barriers: pure task dependencies (Chameleon-like).
    Chameleon,
}

/// Run the comparator: returns the factor (its lower triangle, the tiles
/// above it empty) and the trace for projection.
pub fn run(a: &TiledMatrix, ranks: usize, style: Style) -> (TiledMatrix, Vec<TraceTask>) {
    let nt = a.nt();
    let nb = a.nb();
    let dist = Dist2D::for_ranks(ranks);
    let tile_bytes = (nb * nb * 8 + 16) as u64;

    // Factored in place; the tiles above the diagonal stay empty.
    let mut l = a.lower();
    let mut p = BspProgram::new(ranks);

    let potrf_ns = ns_for_flops(potrf_flops(nb));
    let tri_ns = ns_cubed(nb);
    let gemm_ns = ns_for_flops(gemm_flops(nb, nb, nb));

    // Last task that wrote tile (i, j), with its rank.
    let mut writer: Vec<Vec<(u64, usize)>> = vec![vec![(0, 0); nt]; nt];

    for k in 0..nt {
        let own_kk = dist.owner(k, k);
        // Panel: POTRF + column TRSMs.
        potrf_l(l.tile_mut(k, k)).expect("SPD");
        let (wt, wr) = writer[k][k];
        let potrf_id = p.task(
            own_kk,
            potrf_ns,
            &[(wt, if wr != own_kk { tile_bytes } else { 0 }, wr, 0)],
        );
        writer[k][k] = (potrf_id, own_kk);

        // Chameleon-like runs lack the optimized per-rank broadcast: every
        // consumer task pays its own point-to-point transfer.
        let panel = if style == Style::Chameleon {
            p.bcast_unshared(potrf_id, own_kk, tile_bytes)
        } else {
            p.bcast(potrf_id, own_kk, tile_bytes)
        };
        let mut trsm_ids = vec![(0u64, 0usize); nt];
        for m in (k + 1)..nt {
            let ([lkk], lmk) = l.kernel_tiles([(k, k)], (m, k));
            trsm_rlt(lkk, lmk);
            let own = dist.owner(m, k);
            let (wt, wr) = writer[m][k];
            let id = p.task(
                own,
                tri_ns,
                &[
                    panel[own],
                    (wt, if wr != own { tile_bytes } else { 0 }, wr, 0),
                ],
            );
            writer[m][k] = (id, own);
            trsm_ids[m] = (id, own);
        }
        if style == Style::ScaLapack {
            p.barrier();
        }

        // Trailing update: SYRK on diagonals, GEMM below.
        let mut row_bcast: Vec<Option<Vec<ttg_bsp::BspDep>>> = vec![None; nt];
        for m in (k + 1)..nt {
            row_bcast[m] = Some(if style == Style::Chameleon {
                p.bcast_unshared(trsm_ids[m].0, trsm_ids[m].1, tile_bytes)
            } else {
                p.bcast(trsm_ids[m].0, trsm_ids[m].1, tile_bytes)
            });
        }
        for m in (k + 1)..nt {
            let ([lmk], lmm) = l.kernel_tiles([(m, k)], (m, m));
            syrk_ln(lmk, lmm);
            let own = dist.owner(m, m);
            let (wt, wr) = writer[m][m];
            let id = p.task(
                own,
                tri_ns,
                &[
                    row_bcast[m].as_ref().unwrap()[own],
                    (wt, if wr != own { tile_bytes } else { 0 }, wr, 0),
                ],
            );
            writer[m][m] = (id, own);
            for j in (k + 1)..m {
                let ([lmk, ljk], lmj) = l.kernel_tiles([(m, k), (j, k)], (m, j));
                gemm_nt(-1.0, lmk, ljk, lmj);
                let own = dist.owner(m, j);
                let (wt, wr) = writer[m][j];
                let id = p.task(
                    own,
                    gemm_ns,
                    &[
                        row_bcast[m].as_ref().unwrap()[own],
                        row_bcast[j].as_ref().unwrap()[own],
                        (wt, if wr != own { tile_bytes } else { 0 }, wr, 0),
                    ],
                );
                writer[m][j] = (id, own);
            }
        }
        if style != Style::Chameleon {
            p.barrier();
        }
    }

    (l, p.into_trace())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cholesky::residual;
    use ttg_simnet::{simulate, MachineModel};

    #[test]
    fn all_styles_factor_correctly() {
        let a = TiledMatrix::random_spd(5, 4, 31);
        for style in [Style::ScaLapack, Style::Slate, Style::Chameleon] {
            let (l, trace) = run(&a, 4, style);
            assert!(residual(&a, &l) < 1e-8, "{style:?}");
            assert!(!trace.is_empty());
        }
    }

    #[test]
    fn barriers_cost_time() {
        let a = TiledMatrix::random_spd(8, 8, 32);
        let machine = MachineModel::hawk(4).with_cores(4);
        let t_scal = simulate(&run(&a, 4, Style::ScaLapack).1, &machine).makespan_ns;
        let t_slate = simulate(&run(&a, 4, Style::Slate).1, &machine).makespan_ns;
        let t_cham = simulate(&run(&a, 4, Style::Chameleon).1, &machine).makespan_ns;
        assert!(
            t_scal >= t_slate && t_slate >= t_cham,
            "scal {t_scal} ≥ slate {t_slate} ≥ cham {t_cham}"
        );
        assert!(t_scal > t_cham, "barriers must cost something");
    }
}
