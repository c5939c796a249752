//! Randomized property tests on the core invariants: wire codec
//! round-trips, kernel identities, distributed-vs-serial agreement on
//! random inputs, and monotonicity of the machine-model projection.
//!
//! Each property runs over a fixed set of derived seeds (deterministic, no
//! external harness), replacing the original proptest strategies with
//! seeded `ChaCha8Rng` generation of the same input distributions.

use std::collections::HashMap;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use ttg::comm::{from_bytes, to_bytes};
use ttg::linalg::{gemm_nt, Tile, TiledMatrix};
use ttg::simnet::{simulate, MachineModel, TraceTask};

const CASES: u64 = 24;

fn rng_for(test: u64, case: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(0x7467_5f70 ^ (test << 32) ^ case)
}

#[test]
fn codec_roundtrip_nested() {
    for case in 0..CASES {
        let mut rng = rng_for(1, case);
        let n = rng.gen_range(0..12usize);
        let v: Vec<(u32, Vec<f64>, Option<i64>)> = (0..n)
            .map(|_| {
                let m = rng.gen_range(0..8usize);
                (
                    rng.gen::<u32>(),
                    (0..m)
                        .map(|_| {
                            // Include non-finite values: the roundtrip must
                            // preserve the encoding even for NaN/inf.
                            match rng.gen_range(0..8u32) {
                                0 => f64::NAN,
                                1 => f64::INFINITY,
                                _ => rng.gen_range(-1e12..1e12),
                            }
                        })
                        .collect(),
                    rng.gen_bool(0.5).then(|| rng.gen::<u64>() as i64),
                )
            })
            .collect();
        let bytes = to_bytes(&v);
        let w: Vec<(u32, Vec<f64>, Option<i64>)> = from_bytes(&bytes).unwrap();
        // NaN-safe comparison via re-encoding.
        assert_eq!(bytes, to_bytes(&w), "case {case}");
    }
}

#[test]
fn codec_roundtrip_strings() {
    // Mix of ASCII, multi-byte, and escape-sensitive characters.
    const ALPHABET: &[char] = &[
        'a', 'Z', '0', ' ', '"', '\\', '\n', '\t', 'é', 'λ', '中', '🦀', '\u{1}',
    ];
    for case in 0..CASES {
        let mut rng = rng_for(2, case);
        let n = rng.gen_range(0..8usize);
        let v: Vec<String> = (0..n)
            .map(|_| {
                let len = rng.gen_range(0..=24usize);
                (0..len)
                    .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
                    .collect()
            })
            .collect();
        let w: Vec<String> = from_bytes(&to_bytes(&v)).unwrap();
        assert_eq!(v, w, "case {case}");
    }
}

#[test]
fn tile_wire_roundtrip() {
    for case in 0..CASES {
        let mut rng = rng_for(3, case);
        let rows = rng.gen_range(1..6usize);
        let cols = rng.gen_range(1..6usize);
        let t = Tile::from_data(
            rows,
            cols,
            (0..rows * cols).map(|_| rng.gen_range(-5.0..5.0)).collect(),
        );
        let u: Tile = from_bytes(&to_bytes(&t)).unwrap();
        assert_eq!(&t, &u, "case {case}");
        // SplitMd path too.
        let mut md = ttg::comm::WriteBuf::new();
        ttg::comm::Wire::split_encode_md(&t, &mut md);
        let payload = ttg::comm::Wire::split_bytes(&t).unwrap();
        let md = md.into_vec();
        let mut r = ttg::comm::ReadBuf::new(&md);
        let mut v: Tile = ttg::comm::Wire::split_decode_md(&mut r).unwrap();
        ttg::comm::Wire::split_attach(&mut v, payload).unwrap();
        assert_eq!(t, v, "case {case}");
    }
}

#[test]
fn potrf_reconstructs_random_spd() {
    for case in 0..CASES {
        let mut rng = rng_for(4, case);
        let nt = rng.gen_range(1..4usize);
        let nb = rng.gen_range(2..6usize);
        let a = TiledMatrix::random_spd(nt, nb, rng.gen::<u64>());
        let mut l = a.clone();
        assert!(l.potrf_reference().is_ok(), "case {case}");
        assert!(TiledMatrix::cholesky_residual(&a, &l) < 1e-8, "case {case}");
    }
}

#[test]
fn gemm_is_linear() {
    for case in 0..CASES {
        let mut rng = rng_for(5, case);
        let alpha = rng.gen_range(-2.0..2.0);
        let n = 4;
        let mk = |rng: &mut ChaCha8Rng| {
            Tile::from_data(n, n, (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect())
        };
        let a = mk(&mut rng);
        let b = mk(&mut rng);
        // gemm(alpha) == alpha * gemm(1) elementwise.
        let mut c1 = Tile::zeros(n, n);
        gemm_nt(alpha, &a, &b, &mut c1);
        let mut c2 = Tile::zeros(n, n);
        gemm_nt(1.0, &a, &b, &mut c2);
        for j in 0..n {
            for i in 0..n {
                assert!(
                    (c1.get(i, j) - alpha * c2.get(i, j)).abs() < 1e-12,
                    "case {case} at ({i},{j})"
                );
            }
        }
    }
}

#[test]
fn fw_distributed_matches_reference() {
    // Spawns a full runtime per case; a smaller case count keeps the
    // wall-clock comparable to the original 24 proptest cases.
    for case in 0..12 {
        let mut rng = rng_for(6, case);
        let nt = rng.gen_range(1..4usize);
        let nb = rng.gen_range(2..5usize);
        let density = rng.gen_range(0.1..0.9);
        let ranks = rng.gen_range(1..5usize);
        let g = ttg::apps::floyd_warshall::random_graph(nt, nb, density, rng.gen::<u64>());
        let expect = ttg::apps::floyd_warshall::reference(&g);
        let cfg = ttg::apps::floyd_warshall::ttg::Config {
            ranks,
            workers: 1,
            backend: ttg::parsec::backend(),
            trace: false,
        };
        let (d, _) = ttg::apps::floyd_warshall::ttg::run(&g, &cfg);
        assert!(d.max_abs_diff(&expect) < 1e-12, "case {case}");
    }
}

#[test]
fn des_makespan_respects_classical_bounds() {
    // Strict core-count monotonicity is FALSE for list scheduling
    // (Graham's anomalies) — random search found counterexamples — so we
    // check the provable bounds instead: for communication-free DAGs,
    // critical path ≤ makespan ≤ serial sum, the unbounded-core makespan
    // equals the critical path, and one core yields the serial sum.
    for case in 0..CASES {
        let mut rng = rng_for(7, case);
        let mut tasks: Vec<TraceTask> = Vec::new();
        let mut depth: HashMap<u64, u64> = HashMap::new();
        let mut prev: Vec<u64> = vec![0];
        let mut id = 1u64;
        for _ in 0..5 {
            let width = rng.gen_range(1..6);
            let mut layer = Vec::new();
            for _ in 0..width {
                let dep = prev[rng.gen_range(0..prev.len())];
                let cost = rng.gen_range(10..5_000);
                tasks.push(TraceTask {
                    id,
                    rank: 0,
                    cost_ns: cost,
                    priority: 0,
                    deps: vec![(dep, 0, 0, 0)],
                });
                let d = depth.get(&dep).copied().unwrap_or(0) + cost;
                depth.insert(id, d);
                layer.push(id);
                id += 1;
            }
            prev = layer;
        }
        let critical_path = depth.values().copied().max().unwrap_or(0);
        let total: u64 = tasks.iter().map(|t| t.cost_ns).sum();
        let m = |c: usize| MachineModel {
            nodes: 1,
            cores_per_node: c,
            latency_ns: 500,
            bytes_per_ns: 8.0,
            msg_overhead_ns: 100,
            task_overhead_ns: 0,
        };
        let serial = simulate(&tasks, &m(1)).makespan_ns;
        assert_eq!(serial, total, "one core serializes everything");
        let unbounded = simulate(&tasks, &m(4096)).makespan_ns;
        assert_eq!(unbounded, critical_path, "case {case}");
        for cores in [2usize, 3, 5] {
            let r = simulate(&tasks, &m(cores)).makespan_ns;
            assert!(r >= critical_path && r <= serial, "case {case}");
            // Greedy work-conserving schedules obey Graham's 2-approx bound.
            assert!(r <= critical_path + total / cores as u64, "case {case}");
        }
    }
}

#[test]
fn des_higher_bandwidth_never_slower_on_chains() {
    for case in 0..CASES {
        let mut rng = rng_for(8, case);
        // A pure chain across ranks: bandwidth monotonicity is guaranteed
        // (general DAGs may reorder under contention).
        let n = rng.gen_range(2..12);
        let tasks: Vec<TraceTask> = (1..=n)
            .map(|id| TraceTask {
                id,
                rank: (id % 2) as usize,
                cost_ns: rng.gen_range(10..1_000),
                priority: 0,
                deps: vec![(
                    id - 1,
                    if id > 1 { rng.gen_range(1..100_000) } else { 0 },
                    ((id + 1) % 2) as usize,
                    0,
                )],
            })
            .collect();
        let m = |bw: f64| MachineModel {
            nodes: 2,
            cores_per_node: 2,
            latency_ns: 800,
            bytes_per_ns: bw,
            msg_overhead_ns: 200,
            task_overhead_ns: 0,
        };
        let slow = simulate(&tasks, &m(1.0)).makespan_ns;
        let fast = simulate(&tasks, &m(25.0)).makespan_ns;
        assert!(fast <= slow, "case {case}");
    }
}

#[test]
fn bspmm_random_sparsity_matches_reference() {
    for case in 0..12 {
        let mut rng = rng_for(9, case);
        let fill = rng.gen_range(0.15..0.9);
        let nt = 4usize;
        let sizes: Vec<usize> = (0..nt).map(|_| rng.gen_range(2..5usize)).collect();
        let mut a = ttg::sparse::BlockSparse::new(sizes.clone(), sizes.clone());
        for i in 0..nt {
            for j in 0..nt {
                if i == j || rng.gen_bool(fill) {
                    let t = Tile::from_data(
                        sizes[i],
                        sizes[j],
                        (0..sizes[i] * sizes[j])
                            .map(|_| rng.gen_range(-1.0..1.0))
                            .collect(),
                    );
                    a.insert(i, j, t);
                }
            }
        }
        let expect = a.multiply_reference(&a, 0.0);
        let cfg = ttg::apps::bspmm::ttg::Config {
            ranks: 2,
            workers: 1,
            backend: ttg::parsec::backend(),
            trace: false,
            drop_tol: 0.0,
            faults: None,
            transport: ttg::comm::TransportSpec::InProc,
        };
        let (c, _) = ttg::apps::bspmm::ttg::run(&a, &a, &cfg);
        assert!(c.max_abs_diff(&expect) < 1e-10, "case {case}");
    }
}
