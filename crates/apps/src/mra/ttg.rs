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
use ttg_comm::{ReadBuf, Wire, WireError, WriteBuf};
use ttg_core::prelude::*;
use ttg_mra::{Coeffs3, Mra3, Node3};

use super::{node_cost_ns, Workload};

type FK = (u32, Node3);

/// A value of the compress stream, in the two shapes it takes.
#[derive(Debug, Clone)]
pub(crate) enum Blocks {
    /// What is sent: one child's s-coefficient block (k³) and its index.
    Child(u8, Coeffs3),
    /// What the reducer folds into, and what Compress then transforms in
    /// place of assembling anything: the parent's (2k)³ tensor with the
    /// blocks of the children in `mask` (bit `c` for child `c`) placed.
    Placed {
        /// The children placed so far.
        mask: u8,
        /// The tensor; the octant of a child not yet placed is zero.
        full: Vec<f64>,
    },
}

impl Blocks {
    /// The stream's reducer. The first fold promotes the accumulator from
    /// the message it arrived as to the tensor. A block whose index is not
    /// a child's, whose child is already placed or whose size is not k³ is
    /// left out, and so is its bit: Compress refuses an incomplete mask.
    fn fold(&mut self, mra: &Mra3, more: Blocks) {
        if let Blocks::Child(..) = self {
            let n = 2 * mra.k;
            let full = vec![0.0; n * n * n];
            let first = std::mem::replace(self, Blocks::Placed { mask: 0, full });
            self.fold(mra, first);
        }
        if let (Blocks::Placed { mask, full }, Blocks::Child(c, block)) = (self, more) {
            let k3 = mra.k * mra.k * mra.k;
            if c < 8 && *mask & (1 << c) == 0 && block.len() == k3 {
                mra.place_child(full, c as usize, &block);
                *mask |= 1 << c;
            }
        }
    }
}

/// One byte for the shape, one for the child index or the mask, then the
/// coefficients.
impl Wire for Blocks {
    fn encode(&self, b: &mut WriteBuf) {
        let (shape, at, data) = match self {
            Blocks::Child(c, block) => (0, *c, block),
            Blocks::Placed { mask, full } => (1, *mask, full),
        };
        b.put_u8(shape);
        b.put_u8(at);
        data.encode(b);
    }
    fn decode(r: &mut ReadBuf<'_>) -> Result<Self, WireError> {
        let (shape, at, data) = (r.get_u8()?, r.get_u8()?, Vec::decode(r)?);
        match shape {
            0 => Ok(Blocks::Child(at, data)),
            1 => Ok(Blocks::Placed {
                mask: at,
                full: data,
            }),
            _ => Err(WireError::new(format!("compress stream shape {shape}"))),
        }
    }
    fn wire_size(&self) -> usize {
        let (Blocks::Child(_, data) | Blocks::Placed { full: data, .. }) = self;
        2 + data.wire_size()
    }
}

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
pub(crate) fn node_owner(fid: u32, node: &Node3, ranks: usize) -> usize {
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
                    outs.send::<1>((fid, node), Blocks::Child(c as u8, s));
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
            let Blocks::Placed { mask: 0xFF, full } = blocks else {
                panic!("compress needs each of the 2^d children exactly once");
            };
            let (s, d) = mra2.split_sd(mra2.compress_tensor(full));
            det2[outs.rank()].lock().insert((fid, node), d);
            if node.n == 0 {
                outs.send::<1>((fid, node), s);
            } else {
                let c = node.child_index() as u8;
                outs.send::<0>((fid, node.parent()), Blocks::Child(c, s));
            }
        },
    );
    let mra2 = Arc::clone(&mra);
    compress
        .set_input_reducer::<0>(move |acc, more| acc.fold(&mra2, more), Some(8))
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
                    let children = mra2.reconstruct8(mra2.merge_sd(&s, d));
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

    /// Eight messages folded by the stream's reducer, as `(index, fill)`.
    fn folded(mra: &Mra3, stream: [(u8, f64); 8]) -> Blocks {
        let k3 = mra.k * mra.k * mra.k;
        let mut stream = stream
            .into_iter()
            .map(|(c, fill)| Blocks::Child(c, vec![fill; k3]));
        let mut acc = stream.next().expect("eight messages");
        for more in stream {
            acc.fold(mra, more);
        }
        acc
    }

    #[test]
    fn reducer_places_each_child_once_and_rejects_the_rest() {
        let mra = Mra3::new(3);
        // Arrival order 3, 4, .., 7, 0, 1, 2.
        let all: [(u8, f64); 8] = std::array::from_fn(|at| ((at as u8 + 3) % 8, at as f64));
        let Blocks::Placed { mask: 0xFF, full } = folded(&mra, all) else {
            panic!("eight distinct children complete the mask");
        };
        let children: [Coeffs3; 8] = std::array::from_fn(|c| vec![((c + 5) % 8) as f64; 27]);
        assert_eq!(mra.compress_tensor(full), mra.compress8(&children));

        // In place of child 5: child 3 again, and indices past the last child.
        for bad in [(3, 9.0), (8, 9.0), (255, 9.0)] {
            let missing = 5;
            let mut stream = all;
            stream[2] = bad;
            let Blocks::Placed { mask, full } = folded(&mra, stream) else {
                panic!("the first fold promotes the accumulator");
            };
            assert_eq!(mask, !(1u8 << missing), "{bad:?}");
            assert!(!full.contains(&9.0), "{bad:?} was placed");
        }
    }

    #[test]
    fn both_shapes_of_the_stream_value_cross_the_wire() {
        let sent = Blocks::Child(6, vec![1.5; 27]);
        let mut acc = sent.clone();
        acc.fold(&Mra3::new(3), Blocks::Child(1, vec![-2.5; 27]));
        for v in [sent, acc] {
            let bytes = ttg_comm::to_bytes(&v);
            assert_eq!(bytes.len(), v.wire_size());
            let back = Blocks::decode(&mut ReadBuf::new(&bytes)).unwrap();
            assert_eq!(format!("{back:?}"), format!("{v:?}"));
        }
        assert!(Blocks::decode(&mut ReadBuf::new(&[2, 0, 0, 0, 0, 0, 0, 0, 0, 0])).is_err());
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
