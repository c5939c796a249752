//! MPI+OpenMP-like Floyd–Warshall comparator (paper §III-C, \[27\]):
//! per round, the diagonal kernel runs on its owner, super-tiles are
//! exchanged along rows and columns with blocking MPI broadcasts, kernels
//! within a rank run as fork-join (OpenMP) tasks, and each phase ends in
//! global synchronization. Kernels execute for real while the trace is
//! recorded.

use ttg_bsp::BspProgram;
use ttg_linalg::{Dist2D, TiledMatrix};
use ttg_simnet::TraceTask;

use super::{fw_col, fw_diag, fw_gen, fw_row, kernel_flops};
use crate::cost::ns_for_flops;

/// Run the comparator: returns distances and the trace for projection.
pub fn run(m: &TiledMatrix, ranks: usize) -> (TiledMatrix, Vec<TraceTask>) {
    let nt = m.nt();
    let nb = m.nb();
    let dist = Dist2D::for_ranks(ranks);
    let tile_bytes = (nb * nb * 8 + 16) as u64;
    let kernel_ns = ns_for_flops(kernel_flops(nb));

    let mut d = m.clone();
    let mut p = BspProgram::new(ranks);

    for k in 0..nt {
        // Phase 1: diagonal kernel + broadcast of the diagonal tile.
        let own_kk = dist.owner(k, k);
        let mut diag = d.take_tile(k, k);
        fw_diag(&mut diag);
        let a_id = p.task(own_kk, kernel_ns, &[]);
        // The diagonal tile travels along process row k and column k only
        // (the MPI implementation's row/column communicators).
        let mut a_dests: Vec<usize> = (0..nt)
            .flat_map(|x| [dist.owner(k, x), dist.owner(x, k)])
            .collect();
        a_dests.sort_unstable();
        a_dests.dedup();
        let a_bcast = p.bcast_to(a_id, own_kk, tile_bytes, &a_dests);

        // Phase 2: row and column kernels (fork-join on each rank).
        let mut b_ids = vec![(0u64, 0usize); nt];
        let mut c_ids = vec![(0u64, 0usize); nt];
        for j in 0..nt {
            if j == k {
                continue;
            }
            let own = dist.owner(k, j);
            let mut t = d.take_tile(k, j);
            fw_row(&mut t, &diag);
            *d.tile_mut(k, j) = t;
            b_ids[j] = (p.task(own, kernel_ns, &[a_bcast[own]]), own);
        }
        for i in 0..nt {
            if i == k {
                continue;
            }
            let own = dist.owner(i, k);
            let mut t = d.take_tile(i, k);
            fw_col(&mut t, &diag);
            *d.tile_mut(i, k) = t;
            c_ids[i] = (p.task(own, kernel_ns, &[a_bcast[own]]), own);
        }
        *d.tile_mut(k, k) = diag;
        p.barrier();

        // Phase 3: broadcast row/column super-tiles, apply kernel D.
        let mut row_bcasts: Vec<Option<Vec<ttg_bsp::BspDep>>> = vec![None; nt];
        let mut col_bcasts: Vec<Option<Vec<ttg_bsp::BspDep>>> = vec![None; nt];
        for j in 0..nt {
            if j != k {
                // Row tile (k, j) goes down process column j.
                let mut dests: Vec<usize> = (0..nt).map(|i| dist.owner(i, j)).collect();
                dests.sort_unstable();
                dests.dedup();
                row_bcasts[j] = Some(p.bcast_to(b_ids[j].0, b_ids[j].1, tile_bytes, &dests));
            }
        }
        for i in 0..nt {
            if i != k {
                // Column tile (i, k) goes across process row i.
                let mut dests: Vec<usize> = (0..nt).map(|j| dist.owner(i, j)).collect();
                dests.sort_unstable();
                dests.dedup();
                col_bcasts[i] = Some(p.bcast_to(c_ids[i].0, c_ids[i].1, tile_bytes, &dests));
            }
        }
        for i in 0..nt {
            for j in 0..nt {
                if i == k || j == k {
                    continue;
                }
                let own = dist.owner(i, j);
                let u = d.tile(i, k).clone();
                let v = d.tile(k, j).clone();
                fw_gen(d.tile_mut(i, j), &u, &v);
                p.task(
                    own,
                    kernel_ns,
                    &[
                        col_bcasts[i].as_ref().unwrap()[own],
                        row_bcasts[j].as_ref().unwrap()[own],
                    ],
                );
            }
        }
        p.barrier();
    }

    (d, p.into_trace())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floyd_warshall::{random_graph, reference};
    use ttg_simnet::{simulate, MachineModel};

    #[test]
    fn comparator_is_correct() {
        let g = random_graph(4, 4, 0.3, 41);
        let (d, trace) = run(&g, 4);
        assert!(d.max_abs_diff(&reference(&g)) < 1e-12);
        assert!(!trace.is_empty());
    }

    #[test]
    fn trace_has_two_barriers_per_round() {
        let g = random_graph(3, 2, 0.5, 42);
        let (_d, trace) = run(&g, 2);
        let r = simulate(&trace, &MachineModel::hawk(2).with_cores(2));
        // 3 rounds × 2 barriers × 2 control hops of ≥ latency each.
        assert!(r.makespan_ns > 3 * 2 * 2 * 1_200);
    }
}
