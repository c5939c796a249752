//! TTG implementation of blocked Floyd–Warshall: a single-level 2-D
//! block-cyclic tile distribution where every tile flows through the
//! round-`k` kernel that owns it and is broadcast to its successor
//! operations independent of other tiles (paper §III-C).
//!
//! The template graph is cyclic: each round's kernels feed the next
//! round's. Which output routes a kernel needs follows from its tile
//! position: the diagonal tile of round `k` can only become a D tile (or
//! the result) in round `k+1`, a row tile can only become a C or D tile,
//! a column tile a B or D tile, while D tiles can become anything.

use std::sync::{Arc, Mutex};

use ttg_core::prelude::*;
use ttg_linalg::{Dist2D, Tile, TiledMatrix};

use super::{fw_col, fw_diag, fw_gen, fw_row, kernel_flops};
use crate::cost::ns_for_flops;

/// Configuration of a TTG FW-APSP run.
#[derive(Clone)]
pub struct Config {
    /// Ranks.
    pub ranks: usize,
    /// Workers per rank.
    pub workers: usize,
    /// Backend.
    pub backend: BackendSpec,
    /// Trace for projection.
    pub trace: bool,
}

type K1 = u64;
type K2 = (u64, u64);
type K3 = (u64, u64, u64);

/// Run distributed blocked FW-APSP; returns the distance matrix and report.
pub fn run(m: &TiledMatrix, cfg: &Config) -> (TiledMatrix, ExecReport) {
    let nt = m.nt() as u64;
    let nb = m.nb();
    let dist = Dist2D::for_ranks(cfg.ranks);

    // INITIATOR moves each tile out of this copy; RESULT moves every tile
    // into the (initially empty) output.
    let input = Arc::new(Mutex::new(m.clone()));
    let output = Arc::new(Mutex::new(vec![Tile::zeros(0, 0); m.nt() * m.nt()]));

    let init_ctl: Edge<K2, Ctl> = Edge::new("init");
    let to_a: Edge<K1, Tile> = Edge::new("to_a");
    let to_b: Edge<K2, Tile> = Edge::new("to_b"); // key (j, k): tile (k, j)
    let to_c: Edge<K2, Tile> = Edge::new("to_c"); // key (i, k): tile (i, k)
    let to_d: Edge<K3, Tile> = Edge::new("to_d"); // key (i, j, k)

    // The four broadcast edges feed kernels that only read the tile: they
    // carry `Arc<Tile>`, so fan-out is a refcount bump per consumer.
    let a_to_b: Edge<K2, Arc<Tile>> = Edge::new("a_to_b"); // diagonal → B
    let a_to_c: Edge<K2, Arc<Tile>> = Edge::new("a_to_c"); // diagonal → C
    let b_to_d: Edge<K3, Arc<Tile>> = Edge::new("b_to_d"); // V = C_kj → D
    let c_to_d: Edge<K3, Arc<Tile>> = Edge::new("c_to_d"); // U = C_ik → D
    let result: Edge<K2, Tile> = Edge::new("result");

    let mut g = GraphBuilder::new();

    // INITIATOR: routes tile (i, j) to its round-0 kernel.
    let input2 = Arc::clone(&input);
    let d2 = dist;
    let initiator = g.make_tt(
        "INITIATOR",
        (init_ctl,),
        (to_a.clone(), to_b.clone(), to_c.clone(), to_d.clone()),
        move |k: &K2| d2.owner(k.0 as usize, k.1 as usize),
        move |k, (_c,): (Ctl,), outs| {
            let (i, j) = *k;
            let tile = input2.lock().unwrap().take_tile(i as usize, j as usize);
            if i == 0 && j == 0 {
                outs.send::<0>(0, tile);
            } else if i == 0 {
                outs.send::<1>((j, 0), tile);
            } else if j == 0 {
                outs.send::<2>((i, 0), tile);
            } else {
                outs.send::<3>((i, j, 0), tile);
            }
        },
    );

    // Kernel A(k): diagonal tile. Next round it is always a D tile (or the
    // final result). Broadcasts the updated diagonal to row and column
    // kernels of this round.
    let d2 = dist;
    let ka = g.make_tt(
        "FW_A",
        (to_a.clone(),),
        (to_d.clone(), result.clone(), a_to_b.clone(), a_to_c.clone()),
        move |k: &K1| d2.owner(*k as usize, *k as usize),
        move |k, (mut tile,): (Tile,), outs| {
            let k = *k;
            fw_diag(&mut tile);
            let row_keys: Vec<K2> = (0..nt).filter(|j| *j != k).map(|j| (j, k)).collect();
            let col_keys: Vec<K2> = (0..nt).filter(|i| *i != k).map(|i| (i, k)).collect();
            let diag = Arc::new(tile.clone());
            outs.broadcast::<2>(&row_keys, Arc::clone(&diag));
            outs.broadcast::<3>(&col_keys, diag);
            if k + 1 == nt {
                outs.send::<1>((k, k), tile);
            } else {
                outs.send::<0>((k, k, k + 1), tile);
            }
        },
    );

    // Kernel B(j, k): row tile (k, j). Next round: C tile if j == k+1,
    // else D tile (i = k ≠ k+1 always). Broadcasts V to D column j.
    let d2 = dist;
    let kb = g.make_tt(
        "FW_B",
        (to_b.clone(), a_to_b),
        (to_c.clone(), to_d.clone(), result.clone(), b_to_d.clone()),
        move |k: &K2| d2.owner(k.1 as usize, k.0 as usize),
        move |key, (mut tile, diag): (Tile, Arc<Tile>), outs| {
            let (j, k) = *key;
            fw_row(&mut tile, &diag);
            let d_keys: Vec<K3> = (0..nt).filter(|i| *i != k).map(|i| (i, j, k)).collect();
            outs.broadcast::<3>(&d_keys, Arc::new(tile.clone()));
            let kk = k + 1;
            if kk == nt {
                outs.send::<2>((k, j), tile);
            } else if j == kk {
                outs.send::<0>((k, kk), tile);
            } else {
                outs.send::<1>((k, j, kk), tile);
            }
        },
    );

    // Kernel C(i, k): column tile (i, k). Next round: B tile if i == k+1,
    // else D tile. Broadcasts U to D row i.
    let d2 = dist;
    let kc = g.make_tt(
        "FW_C",
        (to_c.clone(), a_to_c),
        (to_b.clone(), to_d.clone(), result.clone(), c_to_d.clone()),
        move |k: &K2| d2.owner(k.0 as usize, k.1 as usize),
        move |key, (mut tile, diag): (Tile, Arc<Tile>), outs| {
            let (i, k) = *key;
            fw_col(&mut tile, &diag);
            let d_keys: Vec<K3> = (0..nt).filter(|j| *j != k).map(|j| (i, j, k)).collect();
            outs.broadcast::<3>(&d_keys, Arc::new(tile.clone()));
            let kk = k + 1;
            if kk == nt {
                outs.send::<2>((i, k), tile);
            } else if i == kk {
                outs.send::<0>((k, kk), tile);
            } else {
                outs.send::<1>((i, k, kk), tile);
            }
        },
    );

    // Kernel D(i, j, k): generic tile; all routes reachable next round.
    let d2 = dist;
    let kd = g.make_tt(
        "FW_D",
        (to_d.clone(), c_to_d, b_to_d),
        (
            to_a.clone(),
            to_b.clone(),
            to_c.clone(),
            to_d.clone(),
            result.clone(),
        ),
        move |k: &K3| d2.owner(k.0 as usize, k.1 as usize),
        move |key, (mut tile, u, v): (Tile, Arc<Tile>, Arc<Tile>), outs| {
            let (i, j, k) = *key;
            fw_gen(&mut tile, &u, &v);
            let kk = k + 1;
            if kk == nt {
                outs.send::<4>((i, j), tile);
            } else if i == kk && j == kk {
                outs.send::<0>(kk, tile);
            } else if i == kk {
                outs.send::<1>((j, kk), tile);
            } else if j == kk {
                outs.send::<2>((i, kk), tile);
            } else {
                outs.send::<3>((i, j, kk), tile);
            }
        },
    );

    let out2 = Arc::clone(&output);
    let d2 = dist;
    let nt_tiles = m.nt();
    let res_tt = g.make_tt(
        "RESULT",
        (result,),
        (),
        move |k: &K2| d2.owner(k.0 as usize, k.1 as usize),
        move |k, (tile,): (Tile,), _| {
            out2.lock().unwrap()[k.0 as usize + k.1 as usize * nt_tiles] = tile;
        },
    );

    let cost = ns_for_flops(kernel_flops(nb));
    ka.set_cost_model(move |_| cost).expect("pre-attach");
    kb.set_cost_model(move |_| cost).expect("pre-attach");
    kc.set_cost_model(move |_| cost).expect("pre-attach");
    kd.set_cost_model(move |_| cost).expect("pre-attach");
    initiator.set_cost_model(|_| 200).expect("pre-attach");
    res_tt.set_cost_model(|_| 500).expect("pre-attach");

    // Static verification (active only under --check).
    initiator.set_check_samples(vec![(0, 0), (nt - 1, 0), (nt - 1, nt - 1)]);
    let graph = g.build();
    ttg_check::check_if_enabled(&graph, cfg.ranks, &[(initiator.node_id(), 0)]);
    let exec = Executor::new(
        graph,
        ExecConfig {
            ranks: cfg.ranks,
            workers_per_rank: cfg.workers,
            backend: cfg.backend.clone(),
            trace: cfg.trace,
            faults: None,
            delivery_deadline: None,
            transport: TransportSpec::InProc,
            sched_seed: None,
        },
    );
    let seed = initiator.in_ref::<0>();
    for i in 0..nt {
        for j in 0..nt {
            seed.seed(exec.ctx(), (i, j), Ctl);
        }
    }
    let report = exec.finish();
    let tiles = std::mem::take(&mut *output.lock().unwrap());
    (TiledMatrix::from_tiles(m.nt(), nb, tiles), report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floyd_warshall::{random_graph, reference};

    fn check(cfg: &Config, nt: usize, nb: usize, seed: u64) {
        let g = random_graph(nt, nb, 0.3, seed);
        let expect = reference(&g);
        let (d, _report) = run(&g, cfg);
        assert!(d.max_abs_diff(&expect) < 1e-12);
    }

    #[test]
    fn parsec_multi_rank() {
        let cfg = Config {
            ranks: 4,
            workers: 2,
            backend: ttg_parsec::backend(),
            trace: false,
        };
        check(&cfg, 4, 4, 5);
    }

    #[test]
    fn madness_multi_rank() {
        let cfg = Config {
            ranks: 2,
            workers: 2,
            backend: ttg_madness::backend(),
            trace: false,
        };
        check(&cfg, 3, 5, 6);
    }

    #[test]
    fn single_tile_graph() {
        let cfg = Config {
            ranks: 1,
            workers: 1,
            backend: ttg_parsec::backend(),
            trace: false,
        };
        check(&cfg, 1, 6, 7);
    }

    #[test]
    fn task_counts_match_formula() {
        let cfg = Config {
            ranks: 2,
            workers: 2,
            backend: ttg_parsec::backend(),
            trace: false,
        };
        let nt = 4u64;
        let g = random_graph(nt as usize, 3, 0.4, 8);
        let (_d, report) = run(&g, &cfg);
        let count = |name: &str| report.per_node.iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(count("FW_A"), nt);
        assert_eq!(count("FW_B"), nt * (nt - 1));
        assert_eq!(count("FW_C"), nt * (nt - 1));
        assert_eq!(count("FW_D"), nt * (nt - 1) * (nt - 1));
        assert_eq!(count("RESULT"), nt * nt);
    }
}
