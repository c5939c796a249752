//! End-to-end semantic tests of the TTG model: message matching, broadcast,
//! streaming terminals, protocols, backends, and data-dependent task flow.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ttg_comm::{ReadBuf, Wire, WireError, WireKind, WriteBuf};
use ttg_core::prelude::*;
use ttg_core::LocalPass;
use ttg_runtime::SchedulerKind;

fn parsec_like() -> BackendSpec {
    BackendSpec::default_spec()
}

fn madness_like() -> BackendSpec {
    BackendSpec {
        name: "madness-like",
        scheduler: SchedulerKind::Central,
        local_pass: LocalPass::Copy,
        supports_splitmd: false,
        optimized_broadcast: true,
        honor_priorities: false,
        msg_overhead_ns: 0,
        task_overhead_ns: 0,
    }
}

/// Diamond DAG: source fans out to two middles, both feed a join.
fn run_diamond(backend: BackendSpec, ranks: usize) {
    let src_out_a: Edge<u32, i64> = Edge::new("a");
    let src_out_b: Edge<u32, i64> = Edge::new("b");
    let mid_a_out: Edge<u32, i64> = Edge::new("ma");
    let mid_b_out: Edge<u32, i64> = Edge::new("mb");
    let start: Edge<u32, i64> = Edge::new("start");

    let mut g = GraphBuilder::new();
    let source = g.make_tt(
        "source",
        (start,),
        (src_out_a.clone(), src_out_b.clone()),
        |k: &u32| *k as usize,
        |k, (x,): (i64,), outs| {
            outs.send::<0>(*k, x + 1);
            outs.send::<1>(*k, x + 2);
        },
    );
    let _mid_a = g.make_tt(
        "mid_a",
        (src_out_a,),
        (mid_a_out.clone(),),
        |k: &u32| (*k as usize) + 1,
        |k, (x,): (i64,), outs| outs.send::<0>(*k, x * 10),
    );
    let _mid_b = g.make_tt(
        "mid_b",
        (src_out_b,),
        (mid_b_out.clone(),),
        |k: &u32| (*k as usize) + 2,
        |k, (x,): (i64,), outs| outs.send::<0>(*k, x * 100),
    );
    let results = Arc::new(Mutex::new(Vec::new()));
    let res2 = Arc::clone(&results);
    let _join = g.make_tt(
        "join",
        (mid_a_out, mid_b_out),
        (),
        |k: &u32| (*k as usize) + 3,
        move |k, (a, b): (i64, i64), _| res2.lock().unwrap().push((*k, a + b)),
    );

    let exec = Executor::new(g.build(), ExecConfig::distributed(ranks, 2, backend));
    for k in 0..8u32 {
        source.in_ref::<0>().seed(exec.ctx(), k, k as i64);
    }
    let report = exec.finish();
    assert_eq!(report.tasks, 8 * 4);
    let mut out = results.lock().unwrap().clone();
    out.sort();
    let expect: Vec<(u32, i64)> = (0..8)
        .map(|k| (k, (k as i64 + 1) * 10 + (k as i64 + 2) * 100))
        .collect();
    assert_eq!(out, expect);
}

#[test]
fn diamond_parsec_multi_rank() {
    run_diamond(parsec_like(), 4);
}

#[test]
fn diamond_madness_multi_rank() {
    run_diamond(madness_like(), 4);
}

#[test]
fn diamond_single_rank() {
    run_diamond(parsec_like(), 1);
}

#[test]
fn broadcast_serializes_once_per_destination_rank() {
    // One task broadcasts one value to 12 keys spread over 4 ranks;
    // the optimized path serializes once and sends 3 remote AMs.
    let start: Edge<u32, u64> = Edge::new("start");
    let fan: Edge<u32, u64> = Edge::new("fan");
    let mut g = GraphBuilder::new();
    let src = g.make_tt(
        "src",
        (start,),
        (fan.clone(),),
        |_| 0usize,
        |_, (x,): (u64,), outs| {
            let keys: Vec<u32> = (0..12).collect();
            outs.broadcast::<0>(&keys, x);
        },
    );
    let count = Arc::new(AtomicU64::new(0));
    let c2 = Arc::clone(&count);
    let _dst = g.make_tt(
        "dst",
        (fan,),
        (),
        |k: &u32| (*k % 4) as usize,
        move |_, (_x,): (u64,), _| {
            c2.fetch_add(1, Ordering::SeqCst);
        },
    );
    let exec = Executor::new(g.build(), ExecConfig::distributed(4, 1, parsec_like()));
    src.in_ref::<0>().seed(exec.ctx(), 0, 7);
    let report = exec.finish();
    assert_eq!(count.load(Ordering::SeqCst), 12);
    assert_eq!(report.comm.serializations, 1, "one serialization pass");
    assert_eq!(report.comm.am_count, 3, "one AM per remote rank");
}

#[test]
fn naive_broadcast_serializes_per_key() {
    let mut backend = parsec_like();
    backend.optimized_broadcast = false;

    let start: Edge<u32, u64> = Edge::new("start");
    let fan: Edge<u32, u64> = Edge::new("fan");
    let mut g = GraphBuilder::new();
    let src = g.make_tt(
        "src",
        (start,),
        (fan.clone(),),
        |_| 0usize,
        |_, (x,): (u64,), outs| {
            let keys: Vec<u32> = (0..12).collect();
            outs.broadcast::<0>(&keys, x);
        },
    );
    let _dst = g.make_tt(
        "dst",
        (fan,),
        (),
        |k: &u32| (*k % 4) as usize,
        move |_, (_x,): (u64,), _| {},
    );
    let exec = Executor::new(g.build(), ExecConfig::distributed(4, 1, backend));
    src.in_ref::<0>().seed(exec.ctx(), 0, 7);
    let report = exec.finish();
    // 9 of the 12 keys live on remote ranks: 9 serializations, 9 AMs.
    assert_eq!(report.comm.serializations, 9);
    assert_eq!(report.comm.am_count, 9);
}

/// One producer on rank 0 broadcasts one value to 12 keys spread over 4
/// ranks (3 local, 3 remote ranks × 3 keys): the per-protocol byte/send
/// accounting must stay pinned so wire-path changes are provably
/// semantics-preserving.
fn run_broadcast_accounting<V: ttg_core::Data + Clone>(
    backend: BackendSpec,
    v: V,
) -> ttg_comm::StatsSnapshot {
    let start: Edge<u32, V> = Edge::new("start");
    let fan: Edge<u32, V> = Edge::new("fan");
    let mut g = GraphBuilder::new();
    let src = g.make_tt(
        "src",
        (start,),
        (fan.clone(),),
        |_| 0usize,
        |_, (x,): (V,), outs| {
            let keys: Vec<u32> = (0..12).collect();
            outs.broadcast::<0>(&keys, x);
        },
    );
    let _dst = g.make_tt(
        "dst",
        (fan,),
        (),
        |k: &u32| (*k % 4) as usize,
        |_, (_x,): (V,), _| {},
    );
    let exec = Executor::new(g.build(), ExecConfig::distributed(4, 1, backend));
    src.in_ref::<0>().seed(exec.ctx(), 0, v);
    exec.finish().comm
}

#[test]
fn broadcast_accounting_optimized_inline() {
    // 9 remote keys collapse to 3 rank-level sends: 6 sends saved, each
    // carrying the 8-byte u64 payload.
    let comm = run_broadcast_accounting(parsec_like(), 7u64);
    assert_eq!(comm.serializations, 1);
    assert_eq!(comm.bcast_sends_saved, 6);
    assert_eq!(comm.bcast_bytes_saved, 6 * 8);
}

#[test]
fn broadcast_accounting_naive() {
    let mut backend = parsec_like();
    backend.optimized_broadcast = false;
    let comm = run_broadcast_accounting(backend, 7u64);
    assert_eq!(comm.serializations, 9, "one serialization per remote key");
    assert_eq!(comm.bcast_sends_saved, 0);
    assert_eq!(comm.bcast_bytes_saved, 0);
}

#[test]
fn broadcast_accounting_splitmd() {
    // SplitMd registers the 8000-byte payload once; the dedup savings are
    // counted against the payload, not the tiny metadata message.
    let blob = Blob {
        data: (0..1000).map(|i| i as f64).collect(),
    };
    let comm = run_broadcast_accounting(parsec_like(), blob);
    assert_eq!(comm.serializations, 1);
    assert_eq!(comm.bcast_sends_saved, 6);
    assert_eq!(comm.bcast_bytes_saved, 6 * 8000);
    assert_eq!(comm.rma_gets, 3, "one RMA fetch per remote rank");
}

#[test]
fn concurrent_matching_inserts_fire_each_task_exactly_once() {
    // Two producer templates running on 8 workers race their sends into the
    // same consumer: same-key races (terminals 0 and 1 of one key meet in
    // one matching-table entry) and different-key races (shard contention)
    // must both resolve to exactly one firing per key.
    const KEYS: u32 = 256;
    let sa: Edge<u32, u64> = Edge::new("sa");
    let sb: Edge<u32, u64> = Edge::new("sb");
    let ta: Edge<u32, u64> = Edge::new("ta");
    let tb: Edge<u32, u64> = Edge::new("tb");
    let mut g = GraphBuilder::new();
    let pa = g.make_tt(
        "pa",
        (sa,),
        (ta.clone(),),
        |_| 0usize,
        |k, (x,): (u64,), outs| outs.send::<0>(*k, x),
    );
    let pb = g.make_tt(
        "pb",
        (sb,),
        (tb.clone(),),
        |_| 0usize,
        |k, (x,): (u64,), outs| outs.send::<0>(*k, x + 1),
    );
    let fired: Arc<Vec<AtomicU64>> = Arc::new((0..KEYS).map(|_| AtomicU64::new(0)).collect());
    let f2 = Arc::clone(&fired);
    let _join = g.make_tt(
        "join",
        (ta, tb),
        (),
        |_| 0usize,
        move |k, (a, b): (u64, u64), _| {
            assert_eq!(b, a + 1, "inputs of key {k} mismatched");
            f2[*k as usize].fetch_add(1, Ordering::SeqCst);
        },
    );
    let exec = Executor::new(g.build(), ExecConfig::local(8));
    for k in 0..KEYS {
        pa.in_ref::<0>().seed(exec.ctx(), k, k as u64);
        pb.in_ref::<0>().seed(exec.ctx(), k, k as u64);
    }
    let report = exec.finish();
    assert_eq!(report.tasks, 3 * KEYS as u64);
    for (k, c) in fired.iter().enumerate() {
        let n = c.load(Ordering::SeqCst);
        assert_eq!(n, 1, "join for key {k} fired {n} times");
    }
}

#[test]
fn streaming_terminal_with_static_size() {
    // 2^d children stream into one compress-style task (paper Listing 3).
    let inputs: Edge<u32, f64> = Edge::new("stream_in");
    let results = Arc::new(Mutex::new(Vec::new()));
    let res2 = Arc::clone(&results);
    let mut g = GraphBuilder::new();
    let acc = g.make_tt(
        "accumulate",
        (inputs,),
        (),
        |k: &u32| (*k % 2) as usize,
        move |k, (sum,): (f64,), _| res2.lock().unwrap().push((*k, sum)),
    );
    acc.set_input_reducer::<0>(|a, b| *a += b, Some(8))
        .expect("pre-attach");

    let exec = Executor::new(g.build(), ExecConfig::distributed(2, 2, parsec_like()));
    for k in 0..3u32 {
        for i in 0..8 {
            acc.in_ref::<0>().seed(exec.ctx(), k, (i + 1) as f64);
        }
    }
    let report = exec.finish();
    assert_eq!(report.tasks, 3);
    let mut out = results.lock().unwrap().clone();
    out.sort_by_key(|(k, _)| *k);
    assert_eq!(out, vec![(0, 36.0), (1, 36.0), (2, 36.0)]);
    // The first message of a stream seeds its accumulator; the other 7 fold.
    assert_eq!(core_count(&report, "reducer_folds"), 3 * 7);
}

#[test]
fn streaming_terminal_with_dynamic_size() {
    // A controller task decides per-key stream sizes at run time.
    let ctl: Edge<u32, Ctl> = Edge::new("ctl");
    let data: Edge<u32, u64> = Edge::new("data");
    let results = Arc::new(Mutex::new(Vec::new()));
    let res2 = Arc::clone(&results);

    let mut g = GraphBuilder::new();
    let acc = g.make_tt(
        "acc",
        (data.clone(),),
        (),
        |k: &u32| (*k % 2) as usize,
        move |k, (sum,): (u64,), _| res2.lock().unwrap().push((*k, sum)),
    );
    acc.set_input_reducer::<0>(|a, b| *a += b, None)
        .expect("pre-attach");

    let acc_in = acc.in_ref::<0>();
    let driver = g.make_tt(
        "driver",
        (ctl,),
        (data,),
        |_| 0usize,
        move |_, (_c,): (Ctl,), outs| {
            // Key k receives k+1 messages of value 1 each.
            for k in 0..4u32 {
                acc_in.set_size(outs, &k, (k + 1) as usize);
                for _ in 0..=k {
                    outs.send::<0>(k, 1);
                }
            }
        },
    );

    let exec = Executor::new(g.build(), ExecConfig::distributed(2, 2, parsec_like()));
    driver.in_ref::<0>().seed(exec.ctx(), 0, Ctl);
    exec.finish();
    let mut out = results.lock().unwrap().clone();
    out.sort_by_key(|(k, _)| *k);
    assert_eq!(out, vec![(0, 1), (1, 2), (2, 3), (3, 4)]);
}

#[test]
fn finalize_closes_unbounded_stream() {
    let ctl: Edge<u32, Ctl> = Edge::new("ctl");
    let data: Edge<u32, u64> = Edge::new("data");
    let results = Arc::new(Mutex::new(Vec::new()));
    let res2 = Arc::clone(&results);

    let mut g = GraphBuilder::new();
    let acc = g.make_tt(
        "acc",
        (data.clone(),),
        (),
        |_k: &u32| 1usize, // force cross-rank finalize
        move |k, (sum,): (u64,), _| res2.lock().unwrap().push((*k, sum)),
    );
    acc.set_input_reducer::<0>(|a, b| *a += b, None)
        .expect("pre-attach");

    let acc_in = acc.in_ref::<0>();
    let driver = g.make_tt(
        "driver",
        (ctl,),
        (data,),
        |_| 0usize,
        move |_, (_c,): (Ctl,), outs| {
            for _ in 0..5 {
                outs.send::<0>(9, 10);
            }
            acc_in.finalize(outs, &9);
        },
    );

    let exec = Executor::new(g.build(), ExecConfig::distributed(2, 1, parsec_like()));
    driver.in_ref::<0>().seed(exec.ctx(), 0, Ctl);
    exec.finish();
    assert_eq!(results.lock().unwrap().clone(), vec![(9, 50)]);
}

/// A splitmd-capable payload: metadata is the length, the payload is the
/// raw f64 buffer.
#[derive(Debug, Clone, PartialEq)]
struct Blob {
    data: Vec<f64>,
}

impl Wire for Blob {
    const KIND: WireKind = WireKind::SplitMd;
    fn encode(&self, b: &mut WriteBuf) {
        self.data.encode(b);
    }
    fn decode(r: &mut ReadBuf<'_>) -> Result<Self, WireError> {
        Ok(Blob {
            data: Vec::<f64>::decode(r)?,
        })
    }
    fn split_encode_md(&self, b: &mut WriteBuf) {
        b.put_usize(self.data.len());
    }
    fn split_decode_md(r: &mut ReadBuf<'_>) -> Result<Self, WireError> {
        let n = r.get_usize()?;
        Ok(Blob {
            data: Vec::with_capacity(n),
        })
    }
    fn split_bytes(&self) -> Option<&[u8]> {
        ttg_comm::f64s_as_bytes(&self.data)
    }
    fn split_attach(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        self.data = ttg_comm::bytes_to_f64s(bytes);
        Ok(())
    }
}

fn run_blob_transfer(backend: BackendSpec) -> (ttg_comm::StatsSnapshot, Vec<f64>) {
    let start: Edge<u32, Blob> = Edge::new("start");
    let hop: Edge<u32, Blob> = Edge::new("hop");
    let results = Arc::new(Mutex::new(Vec::new()));
    let res2 = Arc::clone(&results);
    let mut g = GraphBuilder::new();
    let src = g.make_tt(
        "src",
        (start,),
        (hop.clone(),),
        |_| 0usize,
        |_, (blob,): (Blob,), outs| outs.send::<0>(1, blob),
    );
    let _dst = g.make_tt(
        "dst",
        (hop,),
        (),
        |_| 1usize, // remote
        move |_, (blob,): (Blob,), _| res2.lock().unwrap().extend(blob.data),
    );
    let exec = Executor::new(g.build(), ExecConfig::distributed(2, 1, backend));
    let blob = Blob {
        data: (0..1000).map(|i| i as f64).collect(),
    };
    src.in_ref::<0>().seed(exec.ctx(), 0, blob);
    let report = exec.finish();
    let out = results.lock().unwrap().clone();
    (report.comm, out)
}

#[test]
fn splitmd_uses_rma_on_supporting_backend() {
    let (comm, out) = run_blob_transfer(parsec_like());
    assert_eq!(out.len(), 1000);
    assert_eq!(out[999], 999.0);
    assert_eq!(comm.rma_gets, 1, "payload fetched via RMA");
    assert_eq!(comm.rma_bytes, 8000);
    // Only metadata went through the eager AM: far smaller than payload.
    assert!(comm.am_bytes < 200, "am_bytes = {}", comm.am_bytes);
}

#[test]
fn splitmd_falls_back_to_inline_without_support() {
    let (comm, out) = run_blob_transfer(madness_like());
    assert_eq!(out.len(), 1000);
    assert_eq!(comm.rma_gets, 0);
    assert!(comm.am_bytes > 8000, "whole object inline");
}

#[test]
fn copy_backend_copies_share_backend_does_not() {
    // One value consumed by 3 local tasks.
    fn run(backend: BackendSpec) -> u64 {
        let start: Edge<u32, Vec<u64>> = Edge::new("start");
        let fan: Edge<u32, Vec<u64>> = Edge::new("fan");
        let mut g = GraphBuilder::new();
        let src = g.make_tt(
            "src",
            (start,),
            (fan.clone(),),
            |_| 0usize,
            |_, (v,): (Vec<u64>,), outs| outs.broadcast::<0>(&[0, 1, 2], v),
        );
        let _dst = g.make_tt(
            "dst",
            (fan,),
            (),
            |_| 0usize, // all on rank 0: pure local traffic
            |_, (v,): (Vec<u64>,), _| assert_eq!(v.len(), 64),
        );
        // One worker: with more, a consumer can take its value while the
        // producer still holds the original Arc, and the COW copy count
        // becomes schedule-dependent (up to 3, same as the copy backend).
        let exec = Executor::new(g.build(), ExecConfig::distributed(1, 1, backend));
        src.in_ref::<0>().seed(exec.ctx(), 0, vec![0; 64]);
        exec.finish().comm.data_copies
    }
    let copies_share = run(parsec_like());
    let copies_copy = run(madness_like());
    assert_eq!(copies_copy, 3, "copy backend: one deep copy per consumer");
    // Share backend: consumers share the Arc; only a consumer that takes
    // the value while later consumers still hold it pays a COW copy.
    assert!(
        copies_share < copies_copy,
        "share {} vs copy {}",
        copies_share,
        copies_copy
    );
}

#[test]
fn data_dependent_iteration_through_cyclic_template_graph() {
    // Collatz: the template graph has a self-loop; the executed DAG depends
    // on the data (paper: "each TTG encodes a set of possible DAGs").
    let loop_edge: Edge<u32, u64> = Edge::new("loop");
    let done: Edge<u32, u64> = Edge::new("done");
    let results = Arc::new(Mutex::new(Vec::new()));
    let res2 = Arc::clone(&results);

    let mut g = GraphBuilder::new();
    let step = g.make_tt(
        "collatz",
        (loop_edge.clone(),),
        (loop_edge.clone(), done.clone()),
        |k: &u32| (*k % 3) as usize,
        |k, (x,): (u64,), outs| {
            if x == 1 {
                outs.send::<1>(*k, x);
            } else if x % 2 == 0 {
                outs.send::<0>(*k, x / 2);
            } else {
                outs.send::<0>(*k, 3 * x + 1);
            }
        },
    );
    let _sink = g.make_tt(
        "sink",
        (done,),
        (),
        |_| 0usize,
        move |k, (x,): (u64,), _| res2.lock().unwrap().push((*k, x)),
    );

    let exec = Executor::new(g.build(), ExecConfig::distributed(3, 1, parsec_like()));
    // Task id is reused across iterations? No — Collatz on key k would
    // collide in the matching table. Use distinct keys per seed instead:
    // each seed walks its own orbit with key k.
    step.in_ref::<0>().seed(exec.ctx(), 0, 27);
    let report = exec.finish();
    assert_eq!(results.lock().unwrap().clone(), vec![(0, 1)]);
    // Collatz orbit of 27 has 111 steps before reaching 1.
    assert_eq!(report.tasks, 112 + 1);
}

#[test]
fn pure_control_flow_with_ctl() {
    let ping: Edge<u64, Ctl> = Edge::new("ping");
    let count = Arc::new(AtomicU64::new(0));
    let c2 = Arc::clone(&count);
    let mut g = GraphBuilder::new();
    let relay = g.make_tt(
        "relay",
        (ping.clone(),),
        (ping.clone(),),
        |k: &u64| (*k % 4) as usize,
        move |k, (_c,): (Ctl,), outs| {
            if *k < 100 {
                outs.send::<0>(*k + 1, Ctl);
            }
            c2.fetch_add(1, Ordering::SeqCst);
        },
    );
    let exec = Executor::new(g.build(), ExecConfig::distributed(4, 1, parsec_like()));
    relay.in_ref::<0>().seed(exec.ctx(), 0, Ctl);
    let report = exec.finish();
    assert_eq!(count.load(Ordering::SeqCst), 101);
    assert_eq!(report.tasks, 101);
    // Each Ctl AM carries only the header + key: zero data bytes.
    assert!(report.comm.am_count >= 75, "ring hops are mostly remote");
}

#[test]
fn task_ids_of_producer_and_consumer_may_differ_in_type() {
    // TRSM-style: 2-tuple tasks emit messages keyed by 3-tuples.
    let start: Edge<(u32, u32), f64> = Edge::new("start");
    let to3: Edge<(u32, u32, u32), f64> = Edge::new("to3");
    let results = Arc::new(Mutex::new(Vec::new()));
    let res2 = Arc::clone(&results);
    let mut g = GraphBuilder::new();
    let src = g.make_tt(
        "two",
        (start,),
        (to3.clone(),),
        |k: &(u32, u32)| (k.0 + k.1) as usize,
        |k, (x,): (f64,), outs| {
            for m in 0..3u32 {
                outs.send::<0>((k.0, k.1, m), x + m as f64);
            }
        },
    );
    let _dst = g.make_tt(
        "three",
        (to3,),
        (),
        |k: &(u32, u32, u32)| (k.0 + k.1 + k.2) as usize,
        move |k, (x,): (f64,), _| res2.lock().unwrap().push((*k, x)),
    );
    let exec = Executor::new(g.build(), ExecConfig::distributed(2, 1, parsec_like()));
    src.in_ref::<0>().seed(exec.ctx(), (1, 2), 0.5);
    exec.finish();
    let mut out = results.lock().unwrap().clone();
    out.sort_by_key(|(k, _)| *k);
    assert_eq!(
        out,
        vec![((1, 2, 0), 0.5), ((1, 2, 1), 1.5), ((1, 2, 2), 2.5)]
    );
}

#[test]
fn trace_records_tasks_and_dependencies() {
    let start: Edge<u32, u64> = Edge::new("start");
    let mid: Edge<u32, u64> = Edge::new("mid");
    let mut g = GraphBuilder::new();
    let a = g.make_tt(
        "a",
        (start,),
        (mid.clone(),),
        |_| 0usize,
        |k, (x,): (u64,), outs| outs.send::<0>(*k, x + 1),
    );
    let _b = g.make_tt("b", (mid,), (), |_| 1usize, |_, (_x,): (u64,), _| {});
    let exec = Executor::new(
        g.build(),
        ExecConfig::distributed(2, 1, parsec_like()).with_trace(),
    );
    a.in_ref::<0>().seed(exec.ctx(), 0, 1);
    let report = exec.finish();
    let trace = report.trace.expect("trace enabled");
    assert_eq!(trace.len(), 2);
    let ev_a = trace.iter().find(|e| e.name == "a").unwrap();
    let ev_b = trace.iter().find(|e| e.name == "b").unwrap();
    assert_eq!(ev_a.deps.len(), 1);
    assert_eq!(ev_a.deps[0].from_task, 0, "seeded");
    assert_eq!(ev_b.deps.len(), 1);
    assert_eq!(ev_b.deps[0].from_task, ev_a.id, "b consumed a's output");
    assert!(ev_b.deps[0].bytes > 0, "crossed a rank boundary");
    assert_eq!(ev_b.rank, 1);
}

// ---- multi-terminal fan-out (Listing 1's `ttg::broadcast<0, 1, 2, 3>`) ----

/// What a fan-out consumer saw: `(consumer, rank, allocation, content)`.
type Seen = Vec<(String, usize, usize, f64)>;

/// A payload whose allocation the consumers can identify.
trait Probe: ttg_core::Data {
    fn probe(&self) -> (usize, f64);
}

impl Probe for Vec<f64> {
    fn probe(&self) -> (usize, f64) {
        (self.as_ptr() as usize, self.iter().sum())
    }
}

impl Probe for Arc<Vec<f64>> {
    fn probe(&self) -> (usize, f64) {
        (**self).probe()
    }
}

impl Probe for Blob {
    fn probe(&self) -> (usize, f64) {
        self.data.probe()
    }
}

/// One task on rank 0 sends `v` to three terminals keyed by three types —
/// 12 consumers: 3 on rank 0 and 4, 3 and 2 on ranks 1 to 3 — and to a
/// fourth terminal nobody consumes; one key is named twice. `fanout`: in
/// one multi-terminal send, otherwise terminal by terminal.
fn run_fan<V: Probe>(backend: BackendSpec, fanout: bool, v: V) -> (ExecReport, Seen) {
    let start: Edge<u32, V> = Edge::new("start");
    let a: Edge<u32, V> = Edge::new("a");
    let b: Edge<(u32, u32), V> = Edge::new("b");
    let c: Edge<u64, V> = Edge::new("c");
    let nobody: Edge<u32, V> = Edge::new("nobody");
    let mut g = GraphBuilder::new();
    let src = g.make_tt(
        "src",
        (start,),
        (a.clone(), b.clone(), c.clone(), nobody),
        |_| 0usize,
        move |_, (v,): (V,), outs| {
            let ka = [0u32, 1, 2, 3, 4, 5, 1];
            let kb = [(0u32, 1u32), (0, 2), (1, 3)];
            let kc = [10u64, 11, 13];
            if fanout {
                outs.fanout(v)
                    .to::<0>(&ka)
                    .to::<1>(&kb)
                    .to::<2>(&kc)
                    .to::<3>(&[1, 2])
                    .send();
            } else {
                outs.broadcast::<0>(&ka, v.clone());
                outs.broadcast::<1>(&kb, v.clone());
                outs.broadcast::<2>(&kc, v.clone());
                outs.broadcast::<3>(&[1, 2], v);
            }
        },
    );
    let seen: Arc<Mutex<Seen>> = Arc::default();
    let note = |name: &'static str| {
        let seen = Arc::clone(&seen);
        move |key: String, v: &V, rank: usize| {
            let (ptr, sum) = v.probe();
            seen.lock()
                .unwrap()
                .push((format!("{name}{key}"), rank, ptr, sum));
        }
    };
    let (na, nb, nc) = (note("a"), note("b"), note("c"));
    g.make_tt(
        "ta",
        (a,),
        (),
        |k: &u32| (*k % 4) as usize,
        move |k, (v,): (V,), o| na(format!("{k:?}"), &v, o.rank()),
    );
    g.make_tt(
        "tb",
        (b,),
        (),
        |k: &(u32, u32)| ((k.0 + k.1) % 4) as usize,
        move |k, (v,): (V,), o| nb(format!("{k:?}"), &v, o.rank()),
    );
    g.make_tt(
        "tc",
        (c,),
        (),
        |k: &u64| (*k % 4) as usize,
        move |k, (v,): (V,), o| nc(format!("{k:?}"), &v, o.rank()),
    );
    let exec = Executor::new(
        g.build(),
        ExecConfig::distributed(4, 1, backend).with_trace(),
    );
    src.in_ref::<0>().seed(exec.ctx(), 0, v);
    let report = exec.finish();
    assert!(report.comm_errors.is_empty() && report.stuck.is_empty());
    let mut seen = std::mem::take(&mut *seen.lock().unwrap());
    seen.sort_by(|x, y| x.0.cmp(&y.0));
    (report, seen)
}

fn core_count(report: &ExecReport, name: &'static str) -> u64 {
    (0..4)
        .map(|r| {
            report
                .telemetry
                .counter(&ttg_telemetry::MetricKey::ranked(r, "core", name))
        })
        .sum()
}

/// Consumers of a fan-out run, without the allocation they saw.
fn deliveries(seen: &Seen) -> Vec<(String, usize, f64)> {
    seen.iter().map(|s| (s.0.clone(), s.1, s.3)).collect()
}

#[test]
fn fanout_sends_one_am_per_rank_and_shares_one_allocation() {
    let payload: Arc<Vec<f64>> = Arc::new((0..300).map(f64::from).collect());
    let origin = payload.probe().0;
    let (report, seen) = run_fan(parsec_like(), true, Arc::clone(&payload));
    // 12 consumers, each exactly once (key 1 of terminal 0 was named twice).
    assert_eq!(seen.len(), 12);
    assert_eq!(report.tasks, 13);
    // 9 of them on other ranks: one AM per rank, one serialization.
    assert_eq!(report.comm.am_count, 3);
    assert_eq!(report.comm.serializations, 1);
    assert_eq!(report.comm.bcast_sends_saved, 6);
    assert_eq!(report.comm.bcast_bytes_saved, 6 * (8 + 300 * 8));
    // Every rank's consumers alias one allocation — on rank 0 the sender's.
    for rank in 0..4 {
        let mut ptrs: Vec<usize> = seen.iter().filter(|s| s.1 == rank).map(|s| s.2).collect();
        ptrs.dedup();
        assert_eq!(ptrs.len(), 1, "rank {rank} holds {} copies", ptrs.len());
        assert_eq!(ptrs[0] == origin, rank == 0);
    }
    // Erased once at the sender and once per receiving rank; `Arc`
    // payloads never pay a copy-on-write clone.
    assert_eq!(core_count(&report, "values_shared"), 4);
    assert_eq!(core_count(&report, "local_shared"), 12);
    assert_eq!(core_count(&report, "cow_clones"), 0);
    assert_eq!(report.comm.data_copies, 0);
    // The terminal nobody consumes is still reported (TTG031).
    assert_eq!(core_count(&report, "dropped_sends"), 2);
    // The consumers of one AM share its transfer id: simnet replays one
    // transfer per rank.
    let trace = report.trace.as_ref().expect("traced");
    for rank in 1..4 {
        let mut msgs: Vec<u64> = trace
            .iter()
            .filter(|e| e.rank == rank)
            .map(|e| e.deps[0].msg)
            .collect();
        msgs.dedup();
        assert!(msgs.len() == 1 && msgs[0] != 0, "rank {rank}: {msgs:?}");
    }

    // Same deliveries as the sends issued terminal by terminal, which ship
    // the value once per (terminal, rank).
    let (by_terminal, seen_by_terminal) = run_fan(parsec_like(), false, payload);
    assert_eq!(deliveries(&seen), deliveries(&seen_by_terminal));
    assert_eq!(by_terminal.comm.am_count, 3 + 2 + 3);
    assert_eq!(by_terminal.comm.serializations, 3);
    assert_eq!(core_count(&by_terminal, "dropped_sends"), 2);
}

#[test]
fn fanout_in_copy_mode_copies_per_consumer() {
    let payload: Vec<f64> = (0..300).map(f64::from).collect();
    let (report, seen) = run_fan(madness_like(), true, payload.clone());
    assert_eq!(seen.len(), 12);
    assert_eq!(report.comm.am_count, 3);
    assert_eq!(report.comm.serializations, 1);
    let mut ptrs: Vec<usize> = seen.iter().map(|s| s.2).collect();
    ptrs.sort_unstable();
    ptrs.dedup();
    assert_eq!(ptrs.len(), 12, "every consumer owns a private copy");
    assert_eq!(core_count(&report, "local_copies"), 3);
    let (_, seen_by_terminal) = run_fan(madness_like(), false, payload);
    assert_eq!(deliveries(&seen), deliveries(&seen_by_terminal));
}

#[test]
fn fanout_of_a_splitmd_value_registers_one_region() {
    // In one address space the value travels two-stage: metadata in the
    // three AMs, the payload read once per rank out of one region.
    let blob = Blob {
        data: (0..1000).map(f64::from).collect(),
    };
    let (report, seen) = run_fan(parsec_like(), true, blob.clone());
    assert_eq!(seen.len(), 12);
    assert_eq!(report.comm.am_count, 3);
    assert_eq!(report.comm.serializations, 1);
    assert_eq!(report.comm.rma_gets, 3);
    assert_eq!(report.comm.rma_bytes, 3 * 8000);
    assert_eq!(report.comm.bcast_bytes_saved, 6 * 8000);
    assert!(report.comm.am_bytes < 1000, "metadata only");
    assert!(seen.iter().all(|s| s.3 == blob.probe().1));
}
