//! DBCSR-like comparator: a 2.5D communication-reducing SUMMA
//! (paper §III-D, \[36\]).
//!
//! The process grid is `g × g × c`: `c` layers each hold a replica of C
//! and process a disjoint slice of the summation index `k`; after the
//! SUMMA rounds the replicas are reduced across layers. Larger `c` trades
//! replication (extra memory + reduction traffic) for smaller per-layer
//! broadcast volume — the property that lets DBCSR keep scaling at 256
//! nodes where the 2-D SUMMA stops (Fig. 12).
//!
//! Kernels run for real (layer partials summed at the end) while the BSP
//! trace is recorded for projection.

use std::collections::HashMap;

use ttg_bsp::BspProgram;
use ttg_linalg::{gemm_flops, gemm_nn, Dist2D, Tile};
use ttg_simnet::TraceTask;
use ttg_sparse::BlockSparse;

use super::plan;
use crate::cost::ns_for_flops;

/// Run the 2.5D SUMMA over `ranks = grid² · layers` processes (if `ranks`
/// is not divisible by `layers`, the layer count is reduced).
pub fn run(
    a: &BlockSparse,
    b: &BlockSparse,
    ranks: usize,
    layers: usize,
    drop_tol: f64,
) -> (BlockSparse, Vec<TraceTask>) {
    let mut layers = layers.max(1);
    while !ranks.is_multiple_of(layers) {
        layers -= 1;
    }
    let grid_ranks = ranks / layers;
    let dist = Dist2D::for_ranks(grid_ranks);
    let mp = plan(a, b);
    let nk = a.block_cols();

    let mut p = BspProgram::new(ranks);
    // Per-layer partial products (computed inline for correctness).
    let mut partials: Vec<HashMap<(usize, usize), Tile>> =
        (0..layers).map(|_| HashMap::new()).collect();

    let tile_bytes = |r: usize, c: usize| (r * c * 8 + 16) as u64;

    // All layers execute their SUMMA rounds concurrently: round `r` of
    // every layer shares one superstep (each layer owns nk/c rounds, so
    // replication divides the number of synchronized rounds by c — half of
    // the 2.5D advantage; the other half is the smaller per-layer grid).
    let rounds_per_layer = nk.div_ceil(layers);
    for round in 0..rounds_per_layer {
        for layer in 0..layers {
            let base = layer * grid_ranks;
            let k_lo = layer * nk / layers;
            let k_hi = (layer + 1) * nk / layers;
            let k = k_lo + round;
            if k >= k_hi {
                continue;
            }
            // SUMMA round: broadcast the participating row/column tiles
            // within the layer grid, then multiply.
            let mut a_deps: HashMap<u32, Vec<ttg_bsp::BspDep>> = HashMap::new();
            let mut b_deps: HashMap<u32, Vec<ttg_bsp::BspDep>> = HashMap::new();
            for &i in &mp.a_rows[k] {
                let owner = base + dist.owner(i as usize, k);
                let t = a.block(i as usize, k).unwrap();
                let read = p.task(owner, 300, &[]);
                // Row broadcast: one copy per process column of the layer.
                let deps: Vec<ttg_bsp::BspDep> = (0..dist.q)
                    .map(|pc| {
                        let dst = base + (i as usize % dist.p) * dist.q + pc;
                        if dst == owner {
                            (read, 0, owner, 0)
                        } else {
                            (read, tile_bytes(t.rows(), t.cols()), owner, p.alloc_msg())
                        }
                    })
                    .collect();
                a_deps.insert(i, deps);
            }
            for &j in &mp.b_cols[k] {
                let owner = base + dist.owner(k, j as usize);
                let t = b.block(k, j as usize).unwrap();
                let read = p.task(owner, 300, &[]);
                let deps: Vec<ttg_bsp::BspDep> = (0..dist.p)
                    .map(|pr| {
                        let dst = base + pr * dist.q + (j as usize % dist.q);
                        if dst == owner {
                            (read, 0, owner, 0)
                        } else {
                            (read, tile_bytes(t.rows(), t.cols()), owner, p.alloc_msg())
                        }
                    })
                    .collect();
                b_deps.insert(j, deps);
            }
            for &i in &mp.a_rows[k] {
                for &j in &mp.b_cols[k] {
                    let owner_in_grid = dist.owner(i as usize, j as usize);
                    let owner = base + owner_in_grid;
                    let at = a.block(i as usize, k).unwrap();
                    let bt = b.block(k, j as usize).unwrap();
                    let cost = ns_for_flops(gemm_flops(at.rows(), bt.cols(), at.cols()));
                    let ad = a_deps[&i][owner_in_grid % dist.q];
                    let bd = b_deps[&j][owner_in_grid / dist.q];
                    p.task(owner, cost, &[ad, bd]);
                    // Real computation into the layer partial.
                    let entry = partials[layer]
                        .entry((i as usize, j as usize))
                        .or_insert_with(|| Tile::zeros(at.rows(), bt.cols()));
                    gemm_nn(1.0, at, bt, entry);
                }
            }
        }
        // DBCSR's shifted SUMMA synchronizes each round (one barrier per
        // concurrent round across all layers).
        p.barrier();
    }

    // Reduce the C replicas across layers onto layer 0 (flat reduction:
    // layer L sends its partial tiles to layer 0).
    if layers > 1 {
        for layer in 1..layers {
            let base = layer * grid_ranks;
            for ((i, j), t) in &partials[layer] {
                let owner_in_grid = dist.owner(*i, *j);
                let src = base + owner_in_grid;
                let read = p.task(src, 200, &[]);
                p.task(
                    owner_in_grid,
                    2_000,
                    &[(read, tile_bytes(t.rows(), t.cols()), src, 0)],
                );
            }
        }
        p.barrier();
    }

    // Final result: sum layer partials, apply the drop tolerance.
    let mut c = BlockSparse::new(a.row_sizes.clone(), b.col_sizes.clone());
    let mut acc: HashMap<(usize, usize), Tile> = HashMap::new();
    for layer_map in partials {
        for (key, t) in layer_map {
            match acc.get_mut(&key) {
                Some(e) => e.add_assign(&t),
                None => {
                    acc.insert(key, t);
                }
            }
        }
    }
    for ((i, j), t) in acc {
        if t.norm_fro_per_element() >= drop_tol {
            c.insert(i, j, t);
        }
    }
    (c, p.into_trace())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttg_simnet::{simulate, MachineModel};
    use ttg_sparse::{generate, YukawaParams};

    fn small_matrix() -> BlockSparse {
        let mut p = YukawaParams::small();
        p.atoms = 60;
        p.target_tile = 32;
        generate(&p).matrix
    }

    #[test]
    fn layered_summa_is_correct() {
        let a = small_matrix();
        let expect = a.multiply_reference(&a, 1e-8);
        for layers in [1, 2, 4] {
            let (c, trace) = run(&a, &a, 8, layers, 1e-8);
            assert!(c.max_abs_diff(&expect) < 1e-10, "layers={layers}");
            assert!(!trace.is_empty());
        }
    }

    #[test]
    fn more_layers_reduce_broadcast_volume_at_scale() {
        // The 2.5D advantage appears at larger process counts: the 2-D
        // grid's broadcast fan-out grows like √R while each 2.5D layer's
        // grid stays small (the paper's 256-node crossover, Fig. 12).
        let a = small_matrix();
        let machine = MachineModel::hawk(64).with_cores(4);
        let (_c1, t1) = run(&a, &a, 64, 1, 1e-8);
        let (_c2, t2) = run(&a, &a, 64, 4, 1e-8);
        let r1 = simulate(&t1, &machine);
        let r2 = simulate(&t2, &machine);
        assert!(
            r2.network_bytes < r1.network_bytes,
            "2.5D {} vs 2D {}",
            r2.network_bytes,
            r1.network_bytes
        );
    }
}
