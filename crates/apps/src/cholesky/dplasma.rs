//! DPLASMA-like comparator: the tiled Cholesky DAG expressed directly in
//! the PTG (Parameterized Task Graph) interface of the PaRSEC-like backend
//! — no TTG layer. In the paper DPLASMA tracks TTG/PaRSEC closely
//! (both are task-based over PaRSEC); the PTG path has slightly lower
//! per-task overhead.

use std::sync::{Arc, Mutex};

use ttg_comm::{ReadBuf, Wire, WireError, WriteBuf};
use ttg_linalg::{
    gemm_flops, gemm_nt, potrf_flops, potrf_l, syrk_ln, trsm_rlt, Dist2D, Tile, TiledMatrix,
};
use ttg_parsec::ptg::{PtgReport, PtgRuntime, TaskClass};

use crate::cost::{ns_cubed, ns_for_flops};

const POTRF: usize = 0;
const TRSM: usize = 1;
const SYRK: usize = 2;
const GEMM: usize = 3;
const RESULT: usize = 4;

/// Input message: PTG activation is count-based, so values carry a role tag
/// (0 = accumulated tile, 1 = first L operand, 2 = second L operand).
#[derive(Debug, Clone)]
pub(crate) struct Msg {
    role: u8,
    tile: Tile,
}

impl Wire for Msg {
    fn encode(&self, b: &mut WriteBuf) {
        b.put_u8(self.role);
        self.tile.encode(b);
    }
    fn decode(r: &mut ReadBuf<'_>) -> Result<Self, WireError> {
        Ok(Msg {
            role: r.get_u8()?,
            tile: Tile::decode(r)?,
        })
    }
}

type K = (u64, u64, u64);

/// Run the DPLASMA-like factorization over `ranks × workers`. The factor
/// is its lower triangle: the tiles above it are empty.
pub fn run(a: &TiledMatrix, ranks: usize, workers: usize, trace: bool) -> (TiledMatrix, PtgReport) {
    run_with_faults(a, ranks, workers, trace, None)
}

/// Like [`run`], but with a fault-injection plan installed on the fabric.
pub fn run_with_faults(
    a: &TiledMatrix,
    ranks: usize,
    workers: usize,
    trace: bool,
    faults: Option<ttg_comm::FaultPlan>,
) -> (TiledMatrix, PtgReport) {
    let nt = a.nt() as u64;
    let nb = a.nb();
    let dist = Dist2D::for_ranks(ranks);
    // RESULT fills the lower triangle; the tiles above it stay empty.
    let empty = || TiledMatrix::from_tiles(a.nt(), nb, vec![Tile::zeros(0, 0); a.nt() * a.nt()]);
    let output = Arc::new(Mutex::new(empty()));

    let own_ij = move |i: u64, j: u64| dist.owner(i as usize, j as usize);

    let classes: Vec<TaskClass<K, Msg>> = vec![
        TaskClass {
            name: "POTRF",
            n_deps: Arc::new(|_| 1),
            owner: Arc::new(move |k: &K| own_ij(k.0, k.0)),
            priority: Arc::new(move |k: &K| 10 * (nt as i32 - k.0 as i32) + 3),
            cost: Some(Arc::new(move |_| ns_for_flops(potrf_flops(nb)))),
            body: Arc::new(move |key, mut vals, ctx| {
                let k = key.0;
                let mut tile = vals.pop().unwrap().tile;
                potrf_l(&mut tile).expect("SPD");
                for m in (k + 1)..nt {
                    ctx.send(
                        TRSM,
                        (m, k, 0),
                        Msg {
                            role: 1,
                            tile: tile.clone(),
                        },
                    );
                }
                ctx.send(RESULT, (k, k, 0), Msg { role: 0, tile });
            }),
        },
        TaskClass {
            name: "TRSM",
            n_deps: Arc::new(|_| 2),
            owner: Arc::new(move |k: &K| own_ij(k.0, k.1)),
            priority: Arc::new(move |k: &K| 10 * (nt as i32 - k.1 as i32) + 2),
            cost: Some(Arc::new(move |_| ns_cubed(nb))),
            body: Arc::new(move |key, vals, ctx| {
                let (m, k, _) = *key;
                let mut l_kk = None;
                let mut a_mk = None;
                for v in vals {
                    if v.role == 1 {
                        l_kk = Some(v.tile);
                    } else {
                        a_mk = Some(v.tile);
                    }
                }
                let (l_kk, mut a_mk) = (l_kk.expect("L_kk"), a_mk.expect("A_mk"));
                trsm_rlt(&l_kk, &mut a_mk);
                ctx.send(
                    SYRK,
                    (k, m, 0),
                    Msg {
                        role: 1,
                        tile: a_mk.clone(),
                    },
                );
                for i in (m + 1)..nt {
                    ctx.send(
                        GEMM,
                        (i, m, k),
                        Msg {
                            role: 2,
                            tile: a_mk.clone(),
                        },
                    );
                }
                for j in (k + 1)..m {
                    ctx.send(
                        GEMM,
                        (m, j, k),
                        Msg {
                            role: 1,
                            tile: a_mk.clone(),
                        },
                    );
                }
                ctx.send(
                    RESULT,
                    (m, k, 0),
                    Msg {
                        role: 0,
                        tile: a_mk,
                    },
                );
            }),
        },
        TaskClass {
            name: "SYRK",
            n_deps: Arc::new(|_| 2),
            owner: Arc::new(move |k: &K| own_ij(k.1, k.1)),
            priority: Arc::new(move |k: &K| 10 * (nt as i32 - k.0 as i32) + 1),
            cost: Some(Arc::new(move |_| ns_cubed(nb))),
            body: Arc::new(move |key, vals, ctx| {
                let (k, m, _) = *key;
                let mut a_mm = None;
                let mut l_mk = None;
                for v in vals {
                    if v.role == 0 {
                        a_mm = Some(v.tile);
                    } else {
                        l_mk = Some(v.tile);
                    }
                }
                let (mut a_mm, l_mk) = (a_mm.expect("A_mm"), l_mk.expect("L_mk"));
                syrk_ln(&l_mk, &mut a_mm);
                if k + 1 == m {
                    ctx.send(
                        POTRF,
                        (m, 0, 0),
                        Msg {
                            role: 0,
                            tile: a_mm,
                        },
                    );
                } else {
                    ctx.send(
                        SYRK,
                        (k + 1, m, 0),
                        Msg {
                            role: 0,
                            tile: a_mm,
                        },
                    );
                }
            }),
        },
        TaskClass {
            name: "GEMM",
            n_deps: Arc::new(|_| 3),
            owner: Arc::new(move |k: &K| own_ij(k.0, k.1)),
            priority: Arc::new(|_| 0),
            cost: Some(Arc::new(move |_| ns_for_flops(gemm_flops(nb, nb, nb)))),
            body: Arc::new(move |key, vals, ctx| {
                let (i, j, k) = *key;
                let mut a_ij = None;
                let mut l_ik = None;
                let mut l_jk = None;
                for v in vals {
                    match v.role {
                        0 => a_ij = Some(v.tile),
                        1 => l_ik = Some(v.tile),
                        _ => l_jk = Some(v.tile),
                    }
                }
                let (mut a_ij, l_ik, l_jk) = (
                    a_ij.expect("A_ij"),
                    l_ik.expect("L_ik"),
                    l_jk.expect("L_jk"),
                );
                gemm_nt(-1.0, &l_ik, &l_jk, &mut a_ij);
                if k + 1 == j {
                    ctx.send(
                        TRSM,
                        (i, j, 0),
                        Msg {
                            role: 0,
                            tile: a_ij,
                        },
                    );
                } else {
                    ctx.send(
                        GEMM,
                        (i, j, k + 1),
                        Msg {
                            role: 0,
                            tile: a_ij,
                        },
                    );
                }
            }),
        },
        TaskClass {
            name: "RESULT",
            n_deps: Arc::new(|_| 1),
            owner: Arc::new(move |k: &K| own_ij(k.0, k.1)),
            priority: Arc::new(|_| 0),
            cost: Some(Arc::new(|_| 200)),
            body: {
                let out = Arc::clone(&output);
                Arc::new(move |key, mut vals, _ctx| {
                    let (i, j, _) = *key;
                    *out.lock().unwrap().tile_mut(i as usize, j as usize) =
                        vals.pop().unwrap().tile;
                })
            },
        },
    ];

    let rt = PtgRuntime::with_faults(classes, ranks, workers, trace, faults);
    for i in 0..nt {
        for j in 0..=i {
            let tile = a.tile(i as usize, j as usize).clone();
            let msg = Msg { role: 0, tile };
            if i == j {
                if i == 0 {
                    rt.seed(POTRF, (0, 0, 0), msg);
                } else {
                    rt.seed(SYRK, (0, i, 0), msg);
                }
            } else if j == 0 {
                rt.seed(TRSM, (i, 0, 0), msg);
            } else {
                rt.seed(GEMM, (i, j, 0), msg);
            }
        }
    }
    let report = rt.finish();
    let l = std::mem::replace(&mut *output.lock().unwrap(), empty());
    (l, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cholesky::residual;

    #[test]
    fn ptg_cholesky_is_correct() {
        let a = TiledMatrix::random_spd(5, 6, 21);
        let (l, report) = run(&a, 3, 2, false);
        assert!(residual(&a, &l) < 1e-8);
        // nt potrf + C(nt,2) trsm + C(nt,2) syrk + C(nt,3) gemm + tri results
        assert_eq!(report.tasks, (5 + 10 + 10 + 10 + 15) as u64);
    }

    #[test]
    fn ptg_trace_is_complete() {
        let a = TiledMatrix::random_spd(4, 4, 22);
        let (_l, report) = run(&a, 2, 2, true);
        let trace = report.trace.unwrap();
        assert_eq!(trace.len() as u64, report.tasks);
    }
}
