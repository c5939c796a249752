//! The Chrome-trace layout of a real execution draws every task after the
//! tasks it depends on, though task ids (taken from per-thread blocks) are
//! no topological order.

use std::collections::HashMap;

use ttg_core::prelude::*;
use ttg_core::{layout_task_slices, TaskEvent};

/// Check that every laid-out task starts no earlier than each of its
/// traced producers finishes, and that no two tasks overlap on one lane.
fn assert_layout_respects_dependencies(trace: &[TaskEvent], lanes: usize) {
    let slices = layout_task_slices(trace, lanes);
    assert_eq!(slices.len(), trace.len(), "every task is laid out");
    let by_id: HashMap<u64, (u64, u64)> = slices
        .iter()
        .map(|s| {
            let id = s.name.rsplit('#').next().unwrap().parse().unwrap();
            (id, (s.start_ns, s.start_ns + s.dur_ns))
        })
        .collect();
    for ev in trace {
        let (start, _) = by_id[&ev.id];
        for d in ev.deps.iter().filter(|d| d.from_task != 0) {
            let (_, producer_end) = by_id[&d.from_task];
            assert!(
                start >= producer_end,
                "task {} starts at {start}, before its producer {} ends at {producer_end}",
                ev.id,
                d.from_task
            );
        }
    }
    let mut lanes_busy: HashMap<(u32, u32), Vec<(u64, u64)>> = HashMap::new();
    for s in &slices {
        lanes_busy
            .entry((s.rank, s.tid))
            .or_default()
            .push((s.start_ns, s.start_ns + s.dur_ns));
    }
    for spans in lanes_busy.values_mut() {
        spans.sort_unstable();
        for w in spans.windows(2) {
            assert!(w[0].1 <= w[1].0, "two tasks overlap on one lane: {w:?}");
        }
    }
}

#[test]
fn a_consumer_launched_from_an_older_id_block_is_drawn_after_its_producer() {
    let seeds: Edge<u64, u64> = Edge::new("seeds");
    let mid: Edge<u64, u64> = Edge::new("mid");
    let left: Edge<u64, u64> = Edge::new("left");
    let right: Edge<u64, u64> = Edge::new("right");
    let mut g = GraphBuilder::new();
    let a = g.make_tt(
        "a",
        (seeds,),
        (mid.clone(),),
        |_: &u64| 0usize,
        |k, (v,): (u64,), outs| outs.send::<0>(*k, v + 1),
    );
    g.make_tt(
        "b",
        (mid,),
        (left.clone(),),
        |_: &u64| 0usize,
        |k, (v,): (u64,), outs| outs.send::<0>(*k, v + 1),
    );
    let c = g.make_tt(
        "c",
        (left, right),
        (),
        |_: &u64| 0usize,
        |_k, (_l, _r): (u64, u64), _outs| {},
    );
    let exec = Executor::new(g.build(), ExecConfig::local(1).with_trace());
    // `a` is launched here, from this thread's id block; `b` on the worker,
    // from a block taken later. Once `b` has run, `c` is launched here
    // again: its id comes from the older block, below its producer's.
    a.in_ref::<0>().seed(exec.ctx(), 0, 0);
    exec.wait();
    c.in_ref::<1>().seed(exec.ctx(), 0, 0);
    let report = exec.finish();

    let trace = report.trace.expect("tracing was on");
    let id_of = |name: &str| trace.iter().find(|e| e.name == name).unwrap().id;
    let (b, c) = (id_of("b"), id_of("c"));
    assert!(
        c < b,
        "c ({c}) should have a smaller id than its producer b ({b})"
    );
    assert_layout_respects_dependencies(&trace, 2);
}

#[test]
fn a_wavefront_on_two_ranks_of_two_workers_lays_out_in_dependency_order() {
    const N: u32 = 24;
    let right: Edge<(u32, u32), u64> = Edge::new("right");
    let down: Edge<(u32, u32), u64> = Edge::new("down");
    let mut g = GraphBuilder::new();
    let cell = g.make_tt(
        "cell",
        (right.clone(), down.clone()),
        (right, down),
        // Neighbours sit on different ranks: every value crosses ranks.
        |&(i, j): &(u32, u32)| ((i + j) % 2) as usize,
        |&(i, j), (l, u): (u64, u64), outs| {
            let v = l + u + 1;
            if j + 1 < N {
                outs.send::<0>((i, j + 1), v);
            }
            if i + 1 < N {
                outs.send::<1>((i + 1, j), v);
            }
        },
    );
    let exec = Executor::new(
        g.build(),
        ExecConfig::distributed(2, 2, BackendSpec::default()).with_trace(),
    );
    for k in 0..N {
        cell.in_ref::<0>().seed(exec.ctx(), (k, 0), 0);
        cell.in_ref::<1>().seed(exec.ctx(), (0, k), 0);
    }
    let report = exec.finish();

    assert_eq!(report.tasks, u64::from(N * N));
    let trace = report.trace.expect("tracing was on");
    assert_layout_respects_dependencies(&trace, 2);
}
