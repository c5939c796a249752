//! TTG implementation of the MRA benchmark: projection, compression,
//! reconstruction, and norm, all streaming through one template graph with
//! no inter-step barriers — "the TTG implementation eliminates all
//! inessential barriers and streams data through the entire DAG" (§III-E).
//!
//! The compress stage is the paper's flagship use of **streaming
//! terminals** (Listing 3): every interior node folds exactly 2³ = 8 child
//! contributions, declared via `set_input_reducer(.., Some(8))`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use parking_lot::Mutex as PlMutex;
use ttg_comm::wire_struct;
use ttg_core::prelude::*;
use ttg_mra::{Coeffs3, Mra3, Node3};

use super::{node_cost_ns, Workload};

type FK = (u32, Node3);

/// One child's s-coefficient block on its way to the parent compress task.
#[derive(Debug, Clone)]
pub struct Blocks {
    /// (child index, coefficients) pairs accumulated by the reducer.
    pub parts: Vec<(u8, Vec<f64>)>,
}
wire_struct!(Blocks { parts });

/// Configuration of a TTG MRA run.
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

/// Results of a run.
pub struct MraResult {
    /// Per-function L² norms (from the tree reduction).
    pub norms: Vec<f64>,
    /// Per-function reconstructed leaf counts.
    pub leaves: Vec<usize>,
    /// Execution report.
    pub report: ExecReport,
}

/// Overdecomposed keymap (public so the native comparator distributes
/// identically): a node is owned by the hash of its ancestor at
/// the target refinement level, so whole subtrees stay local while distinct
/// subtrees scatter randomly (paper: "a task ID map that randomly
/// distributes function tree nodes (and their children) across processes at
/// some target level of refinement").
pub fn node_owner(fid: u32, node: &Node3, ranks: usize) -> usize {
    let target = 2u8.min(node.n);
    let shift = node.n - target;
    let anc = [node.l[0] >> shift, node.l[1] >> shift, node.l[2] >> shift];
    let mut h = fid as u64 ^ 0x9e37_79b9_7f4a_7c15;
    for d in 0..3 {
        h = h
            .wrapping_mul(0x100_0000_01b3)
            .wrapping_add(anc[d] as u64 + ((target as u64) << 40));
    }
    (h % ranks as u64) as usize
}

/// Run the full benchmark pipeline; returns per-function norms, leaf
/// counts, and the execution report.
pub fn run(w: &Workload, cfg: &Config) -> MraResult {
    let mra = Arc::new(Mra3::new(w.k));
    let funcs = Arc::new(w.functions.clone());
    let nf = w.functions.len();
    let tol = w.tol;
    let max_depth = w.max_depth;
    let ranks = cfg.ranks;

    // Rank-local detail stores (compress writes, reconstruct consumes —
    // both keyed identically, so access stays rank-local).
    let details: Arc<Vec<PlMutex<HashMap<FK, Vec<f64>>>>> =
        Arc::new((0..ranks).map(|_| PlMutex::new(HashMap::new())).collect());

    let norms = Arc::new(Mutex::new(vec![0.0f64; nf]));
    let leaf_counts: Arc<Vec<AtomicUsize>> =
        Arc::new((0..nf).map(|_| AtomicUsize::new(0)).collect());

    let proj_ctl: Edge<FK, Ctl> = Edge::new("proj");
    let comp_in: Edge<FK, Blocks> = Edge::new("compress_in");
    let recon_in: Edge<FK, Coeffs3> = Edge::new("reconstruct_in");
    let norm_in: Edge<FK, f64> = Edge::new("norm_in");
    let norm_res: Edge<u32, f64> = Edge::new("norm_result");

    let mut g = GraphBuilder::new();

    // Project(fid, node): refine or emit the 8 leaf blocks to compress.
    let mra2 = Arc::clone(&mra);
    let funcs2 = Arc::clone(&funcs);
    let project = g.make_tt(
        "Project",
        (proj_ctl.clone(),),
        (proj_ctl.clone(), comp_in.clone()),
        move |k: &FK| node_owner(k.0, &k.1, ranks),
        move |key, (_c,): (Ctl,), outs| {
            let (fid, node) = *key;
            let f = &funcs2[fid as usize];
            let (children, dn) = mra2.project_children(f, node);
            if dn <= tol || node.n + 1 >= max_depth {
                for (c, s) in children.into_iter().enumerate() {
                    outs.send::<1>(
                        (fid, node),
                        Blocks {
                            parts: vec![(c as u8, s)],
                        },
                    );
                }
            } else {
                for c in 0..8 {
                    outs.send::<0>((fid, node.child(c)), Ctl);
                }
            }
        },
    );

    // Compress(fid, node): fold 8 child blocks (streaming terminal, size
    // 8), store the detail coefficients, pass s up (or hand the root to
    // reconstruction).
    let mra2 = Arc::clone(&mra);
    let det2 = Arc::clone(&details);
    let compress = g.make_tt(
        "Compress",
        (comp_in.clone(),),
        (comp_in.clone(), recon_in.clone()),
        move |k: &FK| node_owner(k.0, &k.1, ranks),
        move |key, (blocks,): (Blocks,), outs| {
            let (fid, node) = *key;
            let k3 = mra2.k * mra2.k * mra2.k;
            let mut children: [Coeffs3; 8] = Default::default();
            let mut seen = 0u8;
            for (c, s) in blocks.parts {
                children[c as usize] = s;
                seen += 1;
            }
            assert_eq!(seen, 8, "compress needs 2^d children");
            for c in children.iter_mut() {
                if c.is_empty() {
                    *c = vec![0.0; k3];
                }
            }
            let full = mra2.compress8(&children);
            let (s, d) = mra2.split_sd(full);
            det2[outs.rank()].lock().insert((fid, node), d);
            if node.n == 0 {
                outs.send::<1>((fid, node), s);
            } else {
                outs.send::<0>(
                    (fid, node.parent()),
                    Blocks {
                        parts: vec![(node.child_index() as u8, s)],
                    },
                );
            }
        },
    );
    compress
        .set_input_reducer::<0>(|acc, mut more| acc.parts.append(&mut more.parts), Some(8))
        .expect("pre-attach");

    // Reconstruct(fid, node): if a detail block exists the node is
    // interior — rebuild the 8 children; otherwise it is a leaf — emit its
    // norm contribution.
    let mra2 = Arc::clone(&mra);
    let det2 = Arc::clone(&details);
    let lc2 = Arc::clone(&leaf_counts);
    let reconstruct = g.make_tt(
        "Reconstruct",
        (recon_in.clone(),),
        (recon_in.clone(), norm_in.clone()),
        move |k: &FK| node_owner(k.0, &k.1, ranks),
        move |key, (s,): (Coeffs3,), outs| {
            let (fid, node) = *key;
            let detail = det2[outs.rank()].lock().remove(&(fid, node));
            match detail {
                Some(d) => {
                    let full = mra2.merge_sd(&s, d);
                    let children = mra2.reconstruct8(&full);
                    for (c, sc) in children.into_iter().enumerate() {
                        outs.send::<0>((fid, node.child(c)), sc);
                    }
                }
                None => {
                    lc2[fid as usize].fetch_add(1, Ordering::Relaxed);
                    let e: f64 = s.iter().map(|x| x * x).sum();
                    outs.send::<1>((fid, node.parent()), e);
                }
            }
        },
    );

    // NormUp(fid, node): tree reduction of leaf energies, 8 per node.
    let normup = g.make_tt(
        "NormUp",
        (norm_in.clone(),),
        (norm_in.clone(), norm_res.clone()),
        move |k: &FK| node_owner(k.0, &k.1, ranks),
        move |key, (e,): (f64,), outs| {
            let (fid, node) = *key;
            if node.n == 0 {
                outs.send::<1>(fid, e);
            } else {
                outs.send::<0>((fid, node.parent()), e);
            }
        },
    );
    normup
        .set_input_reducer::<0>(|a, b| *a += b, Some(8))
        .expect("pre-attach");

    let norms2 = Arc::clone(&norms);
    let norm_result = g.make_tt(
        "NormResult",
        (norm_res,),
        (),
        move |fid: &u32| *fid as usize % ranks,
        move |fid, (e,): (f64,), _| {
            norms2.lock().unwrap()[*fid as usize] = e.sqrt();
        },
    );

    let k = w.k;
    project
        .set_cost_model(move |_| 2 * node_cost_ns(k))
        .expect("pre-attach");
    compress
        .set_cost_model(move |_| node_cost_ns(k))
        .expect("pre-attach");
    // Reconstruct runs once per tree node, but only the ~1/8 interior
    // nodes perform the inverse transform; leaf instances merely emit a
    // norm contribution. Charge the amortized mix.
    reconstruct
        .set_cost_model(move |_| node_cost_ns(k) / 8 + 500)
        .expect("pre-attach");
    normup.set_cost_model(|_| 500).expect("pre-attach");
    norm_result.set_cost_model(|_| 500).expect("pre-attach");

    // Static verification (active only under --check).
    project.set_check_samples(vec![(0, Node3::root())]);
    let graph = g.build();
    ttg_check::check_if_enabled(&graph, cfg.ranks, &[(project.node_id(), 0)]);
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
    let seed = project.in_ref::<0>();
    for fid in 0..nf {
        seed.seed(exec.ctx(), (fid as u32, Node3::root()), Ctl);
    }
    let report = exec.finish();

    let norms_out = std::mem::take(&mut *norms.lock().unwrap());
    MraResult {
        norms: norms_out,
        leaves: leaf_counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect(),
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mra::reference;

    fn workload() -> Workload {
        Workload::gaussians(4, 5, 400.0, 1e-5, 7)
    }

    fn check(cfg: &Config) {
        let w = workload();
        let expect = reference(&w);
        let got = run(&w, cfg);
        for i in 0..w.functions.len() {
            assert!(
                (got.norms[i] - expect.norms[i]).abs() < 1e-9,
                "fn {i}: {} vs {}",
                got.norms[i],
                expect.norms[i]
            );
            assert_eq!(got.leaves[i], expect.leaves[i], "fn {i} leaves");
        }
    }

    #[test]
    fn parsec_multi_rank() {
        check(&Config {
            ranks: 4,
            workers: 2,
            backend: ttg_parsec::backend(),
            trace: false,
        });
    }

    #[test]
    fn madness_backend() {
        check(&Config {
            ranks: 2,
            workers: 2,
            backend: ttg_madness::backend(),
            trace: false,
        });
    }

    #[test]
    fn no_leftover_details() {
        // After reconstruction every detail block must have been consumed.
        let w = workload();
        let cfg = Config {
            ranks: 3,
            workers: 2,
            backend: ttg_parsec::backend(),
            trace: false,
        };
        let got = run(&w, &cfg);
        assert!(got.report.tasks > 0);
        // Interior nodes = (leaves − 1) / 7 per tree.
        for (i, &l) in got.leaves.iter().enumerate() {
            assert_eq!((l - 1) % 7, 0, "tree {i} leaf count {l}");
        }
    }
}
