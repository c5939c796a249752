//! TTG 2-D SUMMA block-sparse GEMM (the flowgraph of Fig. 10).
//!
//! Template tasks:
//! * `ReadSpA` / `ReadSpB` — inject the nonzero tiles;
//! * `BcastA` / `BcastB` — inter-rank broadcast: tile `A[i,k]` travels once
//!   to every process column with matching work (`B[k,j] ≠ 0`), tile
//!   `B[k,j]` once to every process row;
//! * `LBcastA` / `LBcastB` — rank-local fan-out to the MultiplyAdd tasks
//!   (data is shared, not copied, on the PaRSEC-like backend);
//! * `MultiplyAdd` — one task per nonzero `A[i,k]·B[k,j]` product; partial
//!   results flow into a **streaming terminal** on `Accumulate` whose
//!   per-key stream size is the number of contributing terms;
//! * `Coordinator` — the control-feedback loop of the paper: every
//!   MultiplyAdd reports completion on a streaming `Ctl` terminal, bounded
//!   by the per-rank gemm count (it fires when the rank's work drains).
//!
//! The DAG is data dependent: which tasks exist follows entirely from the
//! input sparsity patterns.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use ttg_core::prelude::*;
use ttg_linalg::{gemm_flops, gemm_nn, Dist2D, Tile};
use ttg_sparse::BlockSparse;

use super::{plan, MulPlan};
use crate::cost::ns_for_flops;

/// Configuration of a TTG bspmm run.
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
    /// Drop tolerance applied to the product (paper: 1e-8).
    pub drop_tol: f64,
    /// Fault-injection plan for chaos testing (None = perfect network).
    pub faults: Option<FaultPlan>,
    /// Link layer carrying inter-rank traffic (DESIGN §9).
    pub transport: TransportSpec,
}

type K2 = (u32, u32);
type K3 = (u32, u32, u32);

/// Run `C = A · B`; returns the product and the execution report.
pub fn run(a: &BlockSparse, b: &BlockSparse, cfg: &Config) -> (BlockSparse, ExecReport) {
    let mp: Arc<MulPlan> = Arc::new(plan(a, b));
    let dist = Dist2D::for_ranks(cfg.ranks);
    let p_rows = dist.p as u32;
    let q_cols = dist.q as u32;
    let grid_owner = move |i: u32, j: u32| dist.owner(i as usize, j as usize);

    // One copy of the inputs' blocks, already behind the handles the reads
    // hand out.
    let shared = |m: &BlockSparse| -> Arc<HashMap<(usize, usize), Arc<Tile>>> {
        Arc::new(m.iter().map(|(at, t)| (*at, Arc::new(t.clone()))).collect())
    };
    let (a_in, b_in) = (shared(a), shared(b));
    let c_out: Arc<Mutex<HashMap<(u32, u32), Tile>>> = Arc::new(Mutex::new(HashMap::new()));

    // Per-rank gemm counts for the Coordinator streams.
    let mut gemms_per_rank: Vec<usize> = vec![0; cfg.ranks];
    for (&(i, j), &n) in &mp.terms {
        gemms_per_rank[grid_owner(i, j)] += n;
    }

    let read_a_ctl: Edge<K2, Ctl> = Edge::new("read_a");
    let read_b_ctl: Edge<K2, Ctl> = Edge::new("read_b");
    // The whole broadcast chain carries `Arc<Tile>`: one erase at the read,
    // refcount bumps through both fan-out stages, zero tile deep copies.
    let bcast_a: Edge<K3, Arc<Tile>> = Edge::new("bcast_a"); // (i, k, pc)
    let bcast_b: Edge<K3, Arc<Tile>> = Edge::new("bcast_b"); // (k, j, pr)
    let ma_a: Edge<K3, Arc<Tile>> = Edge::new("ma_a"); // (i, j, k)
    let ma_b: Edge<K3, Arc<Tile>> = Edge::new("ma_b");
    let acc_in: Edge<K2, Tile> = Edge::new("acc_in");
    let coord_in: Edge<u32, Ctl> = Edge::new("coord"); // key = rank
    let mut g = GraphBuilder::new();

    // ReadSpA(i, k) → BcastA/LBcastA(i, k, pc) for every process column
    // that owns some C(i, j) with B[k, j] ≠ 0.
    let a2 = Arc::clone(&a_in);
    let mp2 = Arc::clone(&mp);
    let read_a = g.make_tt(
        "ReadSpA",
        (read_a_ctl,),
        (bcast_a.clone(),),
        move |k: &K2| grid_owner(k.0, k.1),
        move |key, (_c,): (Ctl,), outs| {
            let (i, k) = *key;
            let tile = Arc::clone(&a2[&(i as usize, k as usize)]);
            let mut pcs: Vec<u32> = mp2.b_cols[k as usize].iter().map(|j| j % q_cols).collect();
            pcs.sort_unstable();
            pcs.dedup();
            let keys: Vec<K3> = pcs.into_iter().map(|pc| (i, k, pc)).collect();
            outs.broadcast::<0>(&keys, tile);
        },
    );

    let b2 = Arc::clone(&b_in);
    let mp2 = Arc::clone(&mp);
    let read_b = g.make_tt(
        "ReadSpB",
        (read_b_ctl,),
        (bcast_b.clone(),),
        move |k: &K2| grid_owner(k.0, k.1),
        move |key, (_c,): (Ctl,), outs| {
            let (k, j) = *key;
            let tile = Arc::clone(&b2[&(k as usize, j as usize)]);
            let mut prs: Vec<u32> = mp2.a_rows[k as usize].iter().map(|i| i % p_rows).collect();
            prs.sort_unstable();
            prs.dedup();
            let keys: Vec<K3> = prs.into_iter().map(|pr| (k, j, pr)).collect();
            outs.broadcast::<0>(&keys, tile);
        },
    );

    // LBcastA(i, k, pc): rank-local fan-out of A[i,k] to MultiplyAdd tasks
    // of the process column pc.
    let mp2 = Arc::clone(&mp);
    let lbcast_a = g.make_tt(
        "LBcastA",
        (bcast_a,),
        (ma_a.clone(),),
        move |k: &K3| ((k.0 % p_rows) * q_cols + k.2) as usize,
        move |key, (tile,): (Arc<Tile>,), outs| {
            let (i, k, pc) = *key;
            let keys: Vec<K3> = mp2.b_cols[k as usize]
                .iter()
                .filter(|j| *j % q_cols == pc)
                .map(|&j| (i, j, k))
                .collect();
            outs.broadcast::<0>(&keys, tile);
        },
    );

    let mp2 = Arc::clone(&mp);
    let lbcast_b = g.make_tt(
        "LBcastB",
        (bcast_b,),
        (ma_b.clone(),),
        move |k: &K3| (k.2 * q_cols + (k.1 % q_cols)) as usize,
        move |key, (tile,): (Arc<Tile>,), outs| {
            let (k, j, pr) = *key;
            let keys: Vec<K3> = mp2.a_rows[k as usize]
                .iter()
                .filter(|i| *i % p_rows == pr)
                .map(|&i| (i, j, k))
                .collect();
            outs.broadcast::<0>(&keys, tile);
        },
    );

    // MultiplyAdd(i, j, k): C[i,j] += A[i,k] · B[k,j]; streams the partial
    // into the accumulator and reports completion to the Coordinator.
    let ma = g.make_tt(
        "MultiplyAdd",
        (ma_a, ma_b),
        (acc_in.clone(), coord_in.clone()),
        move |k: &K3| grid_owner(k.0, k.1),
        move |key, (a_ik, b_kj): (Arc<Tile>, Arc<Tile>), outs| {
            let (i, j, _k) = *key;
            let mut c = Tile::zeros(a_ik.rows(), b_kj.cols());
            gemm_nn(1.0, &a_ik, &b_kj, &mut c);
            outs.send::<0>((i, j), c);
            outs.send::<1>(grid_owner(i, j) as u32, Ctl);
        },
    );

    // Accumulate(i, j): streaming terminal summing the partial products;
    // the per-key stream size is the term count from the plan.
    let c2 = Arc::clone(&c_out);
    let drop_tol = cfg.drop_tol;
    let accumulate = g.make_tt(
        "Accumulate",
        (acc_in,),
        (),
        move |k: &K2| grid_owner(k.0, k.1),
        move |key, (sum,): (Tile,), _| {
            if sum.norm_fro_per_element() >= drop_tol {
                c2.lock().unwrap().insert(*key, sum);
            }
        },
    );
    accumulate
        .set_input_reducer::<0>(|acc, t| acc.add_assign(&t), None)
        .expect("pre-attach");

    // Coordinator(rank): the paper's control-feedback loop — a bounded Ctl
    // stream matching the rank's gemm count.
    let fired: Arc<Mutex<Vec<bool>>> = Arc::new(Mutex::new(vec![false; cfg.ranks]));
    let fired2 = Arc::clone(&fired);
    let coordinator = g.make_tt(
        "Coordinator",
        (coord_in,),
        (),
        move |k: &u32| *k as usize,
        move |k, (_c,): (Ctl,), _| {
            fired2.lock().unwrap()[*k as usize] = true;
        },
    );
    coordinator
        .set_input_reducer::<0>(|_acc, _c| {}, None)
        .expect("pre-attach");

    // Cost models.
    let row_sizes = a.row_sizes.clone();
    let mid_sizes = a.col_sizes.clone();
    let col_sizes = b.col_sizes.clone();
    ma.set_cost_model(move |k: &K3| {
        ns_for_flops(gemm_flops(
            row_sizes[k.0 as usize],
            col_sizes[k.1 as usize],
            mid_sizes[k.2 as usize],
        ))
    })
    .expect("pre-attach");
    read_a.set_cost_model(|_| 300).expect("pre-attach");
    read_b.set_cost_model(|_| 300).expect("pre-attach");
    lbcast_a.set_cost_model(|_| 300).expect("pre-attach");
    lbcast_b.set_cost_model(|_| 300).expect("pre-attach");
    accumulate.set_cost_model(|_| 2_000).expect("pre-attach");
    coordinator.set_cost_model(|_| 200).expect("pre-attach");

    // Static verification (active only under --check): reads are seeded and
    // the accumulate/coordinator streams are driven externally.
    read_a.set_check_samples(vec![(0, 0), (1, 1)]);
    let graph = g.build();
    ttg_check::check_if_enabled(
        &graph,
        cfg.ranks,
        &[
            (read_a.node_id(), 0),
            (read_b.node_id(), 0),
            (accumulate.node_id(), 0),
            (coordinator.node_id(), 0),
        ],
    );
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

    // Configure the dynamic stream sizes, then seed the reads.
    for (&(i, j), &n) in &mp.terms {
        accumulate
            .in_ref::<0>()
            .set_size_external(exec.ctx(), &(i, j), n);
    }
    for (r, &n) in gemms_per_rank.iter().enumerate() {
        if n > 0 {
            coordinator
                .in_ref::<0>()
                .set_size_external(exec.ctx(), &(r as u32), n);
        }
    }
    for (&(i, k), _) in a.iter() {
        read_a
            .in_ref::<0>()
            .seed(exec.ctx(), (i as u32, k as u32), Ctl);
    }
    for (&(k, j), _) in b.iter() {
        read_b
            .in_ref::<0>()
            .seed(exec.ctx(), (k as u32, j as u32), Ctl);
    }

    let rank_is_local: Vec<bool> = (0..cfg.ranks).map(|r| exec.ctx().is_local(r)).collect();
    let report = exec.finish();

    // Coordinator must have observed every rank with work drain. In a
    // multi-process run only this process's coordinator fires locally.
    for (r, &n) in gemms_per_rank.iter().enumerate() {
        if n > 0 && rank_is_local[r] {
            assert!(fired.lock().unwrap()[r], "coordinator silent on rank {r}");
        }
    }

    let mut c = BlockSparse::new(a.row_sizes.clone(), b.col_sizes.clone());
    for ((i, j), tile) in c_out.lock().unwrap().drain() {
        c.insert(i as usize, j as usize, tile);
    }
    (c, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttg_sparse::{generate, YukawaParams};

    fn cfg(ranks: usize, backend: BackendSpec) -> Config {
        Config {
            ranks,
            workers: 2,
            backend,
            trace: false,
            drop_tol: 1e-8,
            faults: None,
            transport: TransportSpec::InProc,
        }
    }

    #[test]
    fn matches_reference_on_yukawa_matrix() {
        let mut p = YukawaParams::small();
        p.atoms = 60;
        p.target_tile = 32;
        let y = generate(&p);
        let a = &y.matrix;
        let expect = a.multiply_reference(a, 1e-8);
        let (c, report) = run(a, a, &cfg(4, ttg_parsec::backend()));
        assert!(c.max_abs_diff(&expect) < 1e-10);
        assert!(report.tasks > 0);
    }

    #[test]
    fn works_on_madness_backend() {
        let mut p = YukawaParams::small();
        p.atoms = 40;
        p.target_tile = 32;
        let y = generate(&p);
        let a = &y.matrix;
        let expect = a.multiply_reference(a, 1e-8);
        let (c, _report) = run(a, a, &cfg(2, ttg_madness::backend()));
        assert!(c.max_abs_diff(&expect) < 1e-10);
    }

    #[test]
    fn gemm_task_count_matches_plan() {
        let mut p = YukawaParams::small();
        p.atoms = 50;
        p.target_tile = 32;
        let y = generate(&p);
        let a = &y.matrix;
        let mp = plan(a, a);
        let (_c, report) = run(a, a, &cfg(3, ttg_parsec::backend()));
        let ma_count = report
            .per_node
            .iter()
            .find(|(n, _)| *n == "MultiplyAdd")
            .unwrap()
            .1;
        assert_eq!(ma_count as usize, mp.total_gemms);
    }
}
