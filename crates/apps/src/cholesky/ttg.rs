//! TTG implementation of dense tiled Cholesky (the flowgraph of Fig. 1 and
//! Listing 1 of the paper).
//!
//! Template tasks: INITIATOR (injects tiles), POTRF (diagonal factor),
//! TRSM (panel solve), SYRK (diagonal update), GEMM (trailing update), and
//! RESULT (collects factor tiles). TRSM fans its tile out to four output
//! terminals in one send, exactly as Listing 1's
//! `ttg::broadcast<0, 1, 2, 3>`.

use std::sync::{Arc, Mutex};

use ttg_core::prelude::*;
use ttg_linalg::{
    gemm_flops, gemm_nt, potrf_flops, potrf_l, syrk_ln, trsm_rlt, Dist2D, Tile, TiledMatrix,
};

use crate::cost::{ns_cubed, ns_for_flops};

/// Configuration of a TTG Cholesky run.
#[derive(Clone)]
pub struct Config {
    /// Ranks (logical processes).
    pub ranks: usize,
    /// Worker threads per rank.
    pub workers: usize,
    /// Backend specification.
    pub backend: BackendSpec,
    /// Record a trace for projection.
    pub trace: bool,
    /// Enable the priority map on the critical path (paper feature).
    pub priorities: bool,
    /// Fault-injection plan for chaos testing (None = perfect network).
    pub faults: Option<FaultPlan>,
    /// Link layer carrying inter-rank traffic (DESIGN §9).
    pub transport: TransportSpec,
}

impl Config {
    /// Small local config for tests.
    #[cfg(test)]
    pub(crate) fn local(backend: BackendSpec) -> Self {
        Config {
            ranks: 2,
            workers: 2,
            backend,
            trace: false,
            priorities: true,
            faults: None,
            transport: TransportSpec::InProc,
        }
    }
}

type K1 = u64;
type K2 = (u64, u64);
type K3 = (u64, u64, u64);

/// Run the factorization; returns the factor and the execution report.
/// The factor is its lower triangle: the tiles above the diagonal are empty
/// (`0 × 0`), and reading an element of one panics. In a multi-process run
/// so are the tiles other ranks own.
pub fn run(a: &TiledMatrix, cfg: &Config) -> (TiledMatrix, ExecReport) {
    let nt_tiles = a.nt();
    let nt = nt_tiles as u64;
    let nb = a.nb();
    let dist = Dist2D::for_ranks(cfg.ranks);

    // INITIATOR moves each tile out of this copy — unless recovery may run
    // it again for a restored rank, which needs the tile still there. It
    // reads the lower triangle only, so only that is copied.
    let input = Arc::new(Mutex::new(a.lower()));
    let rerunnable = cfg.faults.as_ref().is_some_and(|p| p.recovers());
    // RESULT keeps the handles it is given; they are unwrapped into the
    // factor once the run is over and nothing else holds them.
    let output: Arc<Mutex<Vec<Option<Arc<Tile>>>>> =
        Arc::new(Mutex::new(vec![None; nt_tiles * nt_tiles]));

    // Edges (names follow Listing 1).
    // Accumulator chains (to_potrf/trsm_a/syrk_a/gemm_a) carry owned tiles:
    // each consumer mutates its tile in place, so the value plane moves
    // them. Broadcast edges carry `Arc<Tile>` so fan-out is a refcount bump
    // per consumer instead of a tile deep copy.
    let init_ctl: Edge<K2, Ctl> = Edge::new("init_ctl");
    let to_potrf: Edge<K1, Tile> = Edge::new("syrk_potrf");
    let potrf_trsm: Edge<K2, Arc<Tile>> = Edge::new("potrf_trsm");
    let trsm_a: Edge<K2, Tile> = Edge::new("gemm_trsm");
    let syrk_a: Edge<K2, Tile> = Edge::new("syrk_syrk");
    let syrk_l: Edge<K2, Arc<Tile>> = Edge::new("trsm_syrk");
    let gemm_a: Edge<K3, Tile> = Edge::new("gemm_gemm");
    let gemm_li: Edge<K3, Arc<Tile>> = Edge::new("trsm_gemm_row");
    let gemm_lj: Edge<K3, Arc<Tile>> = Edge::new("trsm_gemm_col");
    let result: Edge<K2, Arc<Tile>> = Edge::new("result");

    let mut g = GraphBuilder::new();

    // INITIATOR: one task per tile of the lower triangle, injecting the
    // tile to its first consumer.
    let input2 = Arc::clone(&input);
    let d2 = dist;
    let initiator = g.make_tt(
        "INITIATOR",
        (init_ctl,),
        (
            to_potrf.clone(),
            trsm_a.clone(),
            syrk_a.clone(),
            gemm_a.clone(),
        ),
        move |k: &K2| d2.owner(k.0 as usize, k.1 as usize),
        move |k, (_c,): (Ctl,), outs| {
            let (i, j) = *k;
            let mut input = input2.lock().unwrap();
            let tile = if rerunnable {
                input.tile(i as usize, j as usize).clone()
            } else {
                input.take_tile(i as usize, j as usize)
            };
            drop(input);
            if i == j {
                if i == 0 {
                    outs.send::<0>(0, tile);
                } else {
                    outs.send::<2>((0, i), tile);
                }
            } else if j == 0 {
                outs.send::<1>((i, 0), tile);
            } else {
                outs.send::<3>((i, j, 0), tile);
            }
        },
    );

    // POTRF(k): factor the diagonal tile, broadcast L_kk down the column.
    let d2 = dist;
    let potrf = g.make_tt(
        "POTRF",
        (to_potrf.clone(),),
        (potrf_trsm.clone(), result.clone()),
        move |k: &K1| d2.owner(*k as usize, *k as usize),
        move |k, (mut tile,): (Tile,), outs| {
            potrf_l(&mut tile).unwrap_or_else(|p| panic!("not SPD at tile {k}, pivot {p}"));
            let keys: Vec<K2> = ((k + 1)..nt).map(|m| (m, *k)).collect();
            outs.fanout(Arc::new(tile))
                .to::<1>(&[(*k, *k)])
                .to::<0>(&keys)
                .send();
        },
    );

    // TRSM(m, k): panel solve; broadcast to SYRK and both GEMM sides
    // (the four-terminal broadcast of Listing 1).
    let d2 = dist;
    let trsm = g.make_tt(
        "TRSM",
        (potrf_trsm, trsm_a.clone()),
        (
            result.clone(),
            syrk_l.clone(),
            gemm_li.clone(),
            gemm_lj.clone(),
        ),
        move |k: &K2| d2.owner(k.0 as usize, k.1 as usize),
        move |key, (l_kk, mut a_mk): (Arc<Tile>, Tile), outs| {
            let (m, k) = *key;
            trsm_rlt(&l_kk, &mut a_mk);
            // L_mk is the `L_jk` input of GEMM(i, m, k) for i > m…
            let col_ids: Vec<K3> = ((m + 1)..nt).map(|i| (i, m, k)).collect();
            // …and the `L_ik` input of GEMM(m, j, k) for k < j < m.
            let row_ids: Vec<K3> = ((k + 1)..m).map(|j| (m, j, k)).collect();
            outs.fanout(Arc::new(a_mk))
                .to::<0>(&[(m, k)])
                .to::<1>(&[(k, m)])
                .to::<2>(&row_ids)
                .to::<3>(&col_ids)
                .send();
        },
    );

    // SYRK(k, m): apply the k-th update to diagonal tile m.
    let d2 = dist;
    let syrk = g.make_tt(
        "SYRK",
        (syrk_a.clone(), syrk_l),
        (to_potrf, syrk_a.clone()),
        move |k: &K2| d2.owner(k.1 as usize, k.1 as usize),
        move |key, (mut a_mm, l_mk): (Tile, Arc<Tile>), outs| {
            let (k, m) = *key;
            syrk_ln(&l_mk, &mut a_mm);
            if k + 1 == m {
                outs.send::<0>(m, a_mm);
            } else {
                outs.send::<1>((k + 1, m), a_mm);
            }
        },
    );

    // GEMM(i, j, k): trailing update of tile (i, j) at step k.
    let d2 = dist;
    let gemm = g.make_tt(
        "GEMM",
        (gemm_a.clone(), gemm_li, gemm_lj),
        (trsm_a, gemm_a),
        move |k: &K3| d2.owner(k.0 as usize, k.1 as usize),
        move |key, (mut a_ij, l_ik, l_jk): (Tile, Arc<Tile>, Arc<Tile>), outs| {
            let (i, j, k) = *key;
            gemm_nt(-1.0, &l_ik, &l_jk, &mut a_ij);
            if k + 1 == j {
                outs.send::<0>((i, j), a_ij);
            } else {
                outs.send::<1>((i, j, k + 1), a_ij);
            }
        },
    );

    // RESULT: collect factor tiles.
    let out2 = Arc::clone(&output);
    let d2 = dist;
    let result_tt = g.make_tt(
        "RESULT",
        (result,),
        (),
        move |k: &K2| d2.owner(k.0 as usize, k.1 as usize),
        move |k, (tile,): (Arc<Tile>,), _| {
            out2.lock().unwrap()[k.0 as usize + k.1 as usize * nt_tiles] = Some(tile);
        },
    );

    // Priority maps: keep the panel (critical path) ahead of updates.
    if cfg.priorities {
        let ntp = nt as i32;
        potrf
            .set_priority_map(move |k| 10 * (ntp - *k as i32) + 3)
            .expect("pre-attach");
        trsm.set_priority_map(move |k| 10 * (ntp - k.1 as i32) + 2)
            .expect("pre-attach");
        syrk.set_priority_map(move |k| 10 * (ntp - k.0 as i32) + 1)
            .expect("pre-attach");
        // GEMMs keep priority 0 (FIFO).
    }

    // Cost models for the discrete-event projection.
    potrf
        .set_cost_model(move |_| ns_for_flops(potrf_flops(nb)))
        .expect("pre-attach");
    trsm.set_cost_model(move |_| ns_cubed(nb))
        .expect("pre-attach");
    syrk.set_cost_model(move |_| ns_cubed(nb))
        .expect("pre-attach");
    gemm.set_cost_model(move |_| ns_for_flops(gemm_flops(nb, nb, nb)))
        .expect("pre-attach");
    initiator.set_cost_model(|_| 200).expect("pre-attach");
    result_tt.set_cost_model(|_| 500).expect("pre-attach");

    // Static verification (active only under --check): the initiator
    // terminal is the sole externally seeded input; sample corner tiles so
    // the verifier can probe the block-cyclic keymaps.
    initiator.set_check_samples(vec![(0, 0), (nt - 1, 0), (nt - 1, nt - 1)]);
    let graph = g.build();
    ttg_check::check_if_enabled(&graph, cfg.ranks, &[(initiator.node_id(), 0)]);
    let exec = Executor::new(graph, {
        let mut ec = ExecConfig {
            ranks: cfg.ranks,
            workers_per_rank: cfg.workers,
            backend: cfg.backend.clone(),
            trace: cfg.trace,
            faults: None,
            delivery_deadline: None,
            transport: cfg.transport.clone(),
            sched_seed: None,
        };
        if let Some(plan) = cfg.faults.clone() {
            ec = ec.with_faults(plan);
        }
        ec
    });

    // Seed one initiator control message per lower-triangle tile.
    let seed = initiator.in_ref::<0>();
    for i in 0..nt {
        for j in 0..=i {
            seed.seed(exec.ctx(), (i, j), Ctl);
        }
    }
    let report = exec.finish();
    // The factor: the tiles RESULT collected — in a multi-process run those
    // of this rank — and empty ones everywhere else.
    let l = TiledMatrix::from_tiles(
        nt_tiles,
        nb,
        std::mem::take(&mut *output.lock().unwrap())
            .into_iter()
            .map(|tile| match tile {
                Some(t) => Arc::try_unwrap(t).unwrap_or_else(|t| (*t).clone()),
                None => Tile::zeros(0, 0),
            })
            .collect(),
    );
    (l, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cholesky::residual;

    fn check(cfg: &Config, nt: usize, nb: usize) {
        let a = TiledMatrix::random_spd(nt, nb, 11);
        let (l, report) = run(&a, cfg);
        let res = residual(&a, &l);
        assert!(res < 1e-8, "residual {res}");
        // Task count: nt potrf + nt(nt-1)/2 trsm/result offdiag… just check
        // POTRF count and totals are positive.
        let potrf_count = report
            .per_node
            .iter()
            .find(|(n, _)| *n == "POTRF")
            .unwrap()
            .1;
        assert_eq!(potrf_count, nt as u64);
        let gemm_count = report
            .per_node
            .iter()
            .find(|(n, _)| *n == "GEMM")
            .unwrap()
            .1;
        // Σ_{k<j<i} 1 = nt(nt-1)(nt-2)/6
        assert_eq!(gemm_count, (nt * (nt - 1) * (nt - 2) / 6) as u64);
    }

    #[test]
    fn parsec_backend_4_ranks() {
        let mut cfg = Config::local(ttg_parsec::backend());
        cfg.ranks = 4;
        check(&cfg, 6, 8);
    }

    #[test]
    fn madness_backend_2_ranks() {
        let cfg = Config::local(ttg_madness::backend());
        check(&cfg, 5, 4);
    }

    #[test]
    fn single_rank_no_priorities() {
        let mut cfg = Config::local(ttg_parsec::backend());
        cfg.ranks = 1;
        cfg.priorities = false;
        check(&cfg, 4, 6);
    }

    #[test]
    fn trace_has_all_tasks() {
        let mut cfg = Config::local(ttg_parsec::backend());
        cfg.trace = true;
        let a = TiledMatrix::random_spd(4, 4, 3);
        let (_l, report) = run(&a, &cfg);
        let trace = report.trace.unwrap();
        assert_eq!(trace.len() as u64, report.tasks);
        // Every non-seed dependency must reference a traced task.
        let ids: std::collections::HashSet<u64> = trace.iter().map(|e| e.id).collect();
        for e in &trace {
            for d in &e.deps {
                assert!(d.from_task == 0 || ids.contains(&d.from_task));
            }
        }
    }
}
