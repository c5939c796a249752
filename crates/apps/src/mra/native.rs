//! "Native MADNESS" comparator: the same MRA numerics driven through the
//! SPMD task runtime of [`ttg_madness::world`], with an
//! explicit global fence after every computational step — projection,
//! compression, reconstruction, norm — exactly the structure the paper
//! identifies as the scalability limiter of the native implementation
//! ("the existence of barriers at every step of the computation and
//! re-allocation of data", §III-E).
//!
//! Two entry points:
//! * [`run_world`] — real execution on the `World` runtime (a pool per
//!   rank, global fences), used for correctness and wall-clock timing;
//! * [`run_trace`] — the equivalent level-synchronous BSP trace for
//!   discrete-event projection to paper-scale node counts.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use ttg_bsp::BspProgram;
use ttg_madness::world::World;
use ttg_mra::{Coeffs3, Mra3, Node3};
use ttg_simnet::TraceTask;

use super::{node_cost_ns, Workload};

type FK = (u32, Node3);

use super::ttg::node_owner as owner;

/// Results of the native comparator.
pub struct NativeResult {
    /// Per-function norms.
    pub norms: Vec<f64>,
    /// Per-function leaf counts.
    pub leaves: Vec<usize>,
    /// Wall-clock duration of the four phases.
    pub elapsed: std::time::Duration,
}

/// Real execution on the MADNESS-style world runtime.
pub fn run_world(w: &Workload, ranks: usize, workers: usize) -> NativeResult {
    let world = World::new(ranks, workers);
    let mra = Arc::new(Mra3::new(w.k));
    let nf = w.functions.len();
    let started = std::time::Instant::now();

    // Shared tree stores (the "global namespace" containers; sharded by
    // the same owner map the tasks use).
    let leaves: Arc<Mutex<HashMap<FK, Coeffs3>>> = Arc::new(Mutex::new(HashMap::new()));
    let details: Arc<Mutex<HashMap<FK, Vec<f64>>>> = Arc::new(Mutex::new(HashMap::new()));

    // ---- Step 1: projection (tasks recurse down the trees). -------------
    fn project_node(
        world: &Arc<World>,
        mra: &Arc<Mra3>,
        f: Arc<Vec<ttg_mra::Gaussian3>>,
        fid: u32,
        node: Node3,
        tol: f64,
        max_depth: u8,
        leaves: Arc<Mutex<HashMap<FK, Coeffs3>>>,
        ranks: usize,
    ) {
        let (children, dn) = mra.project_children(&f, node);
        if dn <= tol || node.n + 1 >= max_depth {
            let mut store = leaves.lock();
            for (c, s) in children.into_iter().enumerate() {
                store.insert((fid, node.child(c)), s);
            }
        } else {
            for c in 0..8 {
                let mra2 = Arc::clone(mra);
                let f2 = Arc::clone(&f);
                let leaves2 = Arc::clone(&leaves);
                let child = node.child(c);
                let dst = owner(fid, &child, ranks);
                let w3 = Arc::clone(world);
                world.task(dst, move || {
                    project_node(&w3, &mra2, f2, fid, child, tol, max_depth, leaves2, ranks)
                });
            }
        }
    }
    for (fid, f) in w.functions.iter().enumerate() {
        let f = Arc::new(f.clone());
        let mra2 = Arc::clone(&mra);
        let leaves2 = Arc::clone(&leaves);
        let world2 = Arc::clone(&world);
        let tol = w.tol;
        let max_depth = w.max_depth;
        let dst = owner(fid as u32, &Node3::root(), ranks);
        world.task(dst, move || {
            project_node(
                &world2,
                &mra2,
                f,
                fid as u32,
                Node3::root(),
                tol,
                max_depth,
                leaves2,
                ranks,
            )
        });
    }
    world.fence(); // ---- explicit barrier after projection

    let leaf_map = leaves.lock().clone();
    let leaf_counts: Vec<usize> = (0..nf)
        .map(|fid| leaf_map.keys().filter(|(f, _)| *f == fid as u32).count())
        .collect();

    // ---- Step 2: compression (level-synchronous up-sweep). --------------
    let mut s_at: HashMap<FK, Coeffs3> = leaf_map.clone();
    let mut roots: HashMap<u32, Coeffs3> = HashMap::new();
    let mut level = s_at.keys().map(|(_, n)| n.n).max().unwrap_or(0);
    while level > 0 {
        let this_level: Vec<FK> = s_at.keys().filter(|(_, n)| n.n == level).cloned().collect();
        let mut parents: Vec<FK> = this_level.iter().map(|(f, n)| (*f, n.parent())).collect();
        parents.sort_unstable();
        parents.dedup();
        let results: Arc<Mutex<Vec<(FK, Coeffs3, Vec<f64>)>>> = Arc::new(Mutex::new(Vec::new()));
        for p in parents {
            let mut children: [Coeffs3; 8] = Default::default();
            let k3 = w.k * w.k * w.k;
            for (c, block) in children.iter_mut().enumerate() {
                *block = s_at
                    .remove(&(p.0, p.1.child(c)))
                    .unwrap_or_else(|| vec![0.0; k3]);
            }
            let mra2 = Arc::clone(&mra);
            let res2 = Arc::clone(&results);
            let dst = owner(p.0, &p.1, ranks);
            world.task(dst, move || {
                let full = mra2.compress8(&children);
                let (s, d) = mra2.split_sd(full);
                res2.lock().push((p, s, d));
            });
        }
        world.fence(); // level-synchronous: data re-allocated per level
        for (p, s, d) in results.lock().drain(..) {
            details.lock().insert(p, d);
            if p.1.n == 0 {
                roots.insert(p.0, s);
            } else {
                s_at.insert(p, s);
            }
        }
        level -= 1;
    }
    world.fence(); // ---- explicit barrier after compression

    // ---- Step 3: reconstruction (level-synchronous down-sweep). ---------
    let mut rec: HashMap<FK, Coeffs3> = HashMap::new();
    let mut frontier: Vec<(FK, Coeffs3)> = roots
        .iter()
        .map(|(fid, s)| (((*fid), Node3::root()), s.clone()))
        .collect();
    while !frontier.is_empty() {
        let results: Arc<Mutex<Vec<(FK, Coeffs3)>>> = Arc::new(Mutex::new(Vec::new()));
        let mut next_frontier = Vec::new();
        for (key, s) in frontier {
            match details.lock().remove(&key) {
                None => {
                    rec.insert(key, s);
                }
                Some(d) => {
                    let mra2 = Arc::clone(&mra);
                    let res2 = Arc::clone(&results);
                    let dst = owner(key.0, &key.1, ranks);
                    world.task(dst, move || {
                        let children = mra2.reconstruct8(mra2.merge_sd(&s, d));
                        let mut out = res2.lock();
                        for (c, sc) in children.into_iter().enumerate() {
                            out.push(((key.0, key.1.child(c)), sc));
                        }
                    });
                }
            }
        }
        world.fence(); // level-synchronous down-sweep
        next_frontier.extend(results.lock().drain(..));
        frontier = next_frontier;
    }
    world.fence(); // ---- explicit barrier after reconstruction

    // ---- Step 4: norm. ---------------------------------------------------
    let norms: Arc<Mutex<Vec<f64>>> = Arc::new(Mutex::new(vec![0.0; nf]));
    for fid in 0..nf {
        let partial: Vec<f64> = rec
            .iter()
            .filter(|((f, _), _)| *f == fid as u32)
            .map(|(_, s)| s.iter().map(|x| x * x).sum::<f64>())
            .collect();
        let n2 = Arc::clone(&norms);
        world.task(fid % ranks, move || {
            n2.lock()[fid] = partial.iter().sum::<f64>().sqrt();
        });
    }
    world.fence(); // ---- explicit barrier after norm

    let elapsed = started.elapsed();
    // Verify the reconstruction returned the projected leaves.
    for (key, s) in &rec {
        if let Some(orig) = leaf_map.get(key) {
            let diff = s
                .iter()
                .zip(orig)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            assert!(diff < 1e-9, "leaf {key:?} roundtrip diff {diff}");
        }
    }
    world.shutdown();
    let norms_out = norms.lock().clone();
    NativeResult {
        norms: norms_out,
        leaves: leaf_counts,
        elapsed,
    }
}

/// Build the level-synchronous BSP trace of the same computation for
/// discrete-event projection. Tree shapes come from the serial reference.
pub fn run_trace(w: &Workload, ranks: usize) -> Vec<TraceTask> {
    let mra = Mra3::new(w.k);
    let cost = node_cost_ns(w.k);
    let block_bytes = (w.k * w.k * w.k * 8 + 16) as u64;
    let mut p = BspProgram::new(ranks);

    // Collect per-tree interior nodes by level.
    let mut interior: Vec<Vec<FK>> = Vec::new(); // [level][nodes]
    let mut leaves_per_fid: Vec<Vec<FK>> = Vec::new();
    for (fid, f) in w.functions.iter().enumerate() {
        let leaves = mra.project_adaptive(f, w.tol, w.max_depth);
        let mut nodes: Vec<FK> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for node in leaves.keys() {
            let mut n = *node;
            while n.n > 0 {
                n = n.parent();
                if seen.insert(n) {
                    nodes.push((fid as u32, n));
                }
            }
        }
        for node in &nodes {
            let lvl = node.1.n as usize;
            if interior.len() <= lvl {
                interior.resize(lvl + 1, Vec::new());
            }
            interior[lvl].push(*node);
        }
        leaves_per_fid.push(leaves.keys().map(|n| (fid as u32, *n)).collect());
    }

    // Step 1: projection — one task per interior node (it projects its 8
    // children), all in one superstep, then a barrier.
    for level in interior.iter() {
        for (fid, node) in level {
            p.task(owner(*fid, node, ranks), 2 * cost, &[]);
        }
    }
    p.barrier();

    // Step 2: compression — level-synchronous: one superstep per level,
    // child blocks move to the parent's rank.
    for lvl in (0..interior.len()).rev() {
        for (fid, node) in &interior[lvl] {
            let own = owner(*fid, node, ranks);
            let deps: Vec<ttg_bsp::BspDep> = (0..8)
                .map(|c| {
                    let child = node.child(c);
                    let csrc = owner(*fid, &child, ranks);
                    let prev = p.task(csrc, 0, &[]); // child block handoff
                    (prev, if csrc == own { 0 } else { block_bytes }, csrc, 0)
                })
                .collect();
            p.task(own, cost, &deps);
        }
        p.barrier();
    }

    // Step 3: reconstruction — level-synchronous down-sweep.
    for level in interior.iter() {
        for (fid, node) in level {
            p.task(owner(*fid, node, ranks), cost, &[]);
        }
        p.barrier();
    }

    // Step 4: norm — per-function reduction to one rank.
    for (fid, leaves) in leaves_per_fid.iter().enumerate() {
        let deps: Vec<ttg_bsp::BspDep> = leaves
            .iter()
            .map(|(f, n)| {
                let src = owner(*f, n, ranks);
                let t = p.task(src, 300, &[]);
                (t, 8, src, 0)
            })
            .collect();
        p.task(fid % ranks, 1_000, &deps);
    }
    p.barrier();

    p.into_trace()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mra::reference;

    #[test]
    fn native_world_matches_reference() {
        let w = Workload::gaussians(3, 5, 300.0, 1e-5, 9);
        let expect = reference(&w);
        let got = run_world(&w, 3, 2);
        for i in 0..3 {
            assert!(
                (got.norms[i] - expect.norms[i]).abs() < 1e-9,
                "fn {i}: {} vs {}",
                got.norms[i],
                expect.norms[i]
            );
            assert_eq!(got.leaves[i], expect.leaves[i]);
        }
    }

    #[test]
    fn trace_is_nonempty_and_simulates() {
        let w = Workload::gaussians(2, 4, 200.0, 1e-4, 10);
        let trace = run_trace(&w, 4);
        assert!(!trace.is_empty());
        let r = ttg_simnet::simulate(&trace, &ttg_simnet::MachineModel::seawulf(4));
        assert!(r.makespan_ns > 0);
    }
}
