//! The trace records when each task ran, and the recorded times agree with
//! the dependencies and with the workers: a task is ready no earlier than
//! its producers started, a worker runs one task at a time, and a consumer
//! that ran on its producer's worker started after the producer ended.
//! Task ids (taken from per-thread blocks) are no topological order, so
//! nothing here relies on them.
//!
//! Across workers or ranks a consumer may start before its producer ends:
//! a producer's value leaves mid-body, so that is not checked.

use std::collections::HashMap;

use ttg_core::prelude::*;
use ttg_core::{chrome_trace, TaskEvent};

/// Check the recorded times of every task and every traced dependency.
fn assert_recorded_times_hold(trace: &[TaskEvent]) {
    let by_id: HashMap<u64, &TaskEvent> = trace.iter().map(|e| (e.id, e)).collect();
    assert_eq!(by_id.len(), trace.len(), "task ids are unique");
    for ev in trace {
        assert!(
            ev.ready_ns <= ev.start_ns && ev.start_ns <= ev.end_ns,
            "task {} is ready at {}, starts at {}, ends at {}",
            ev.id,
            ev.ready_ns,
            ev.start_ns,
            ev.end_ns
        );
        for d in ev.deps.iter().filter(|d| d.from_task != 0) {
            let p = by_id[&d.from_task];
            assert!(
                ev.ready_ns >= p.start_ns,
                "task {} is ready at {}, before its producer {} started at {}",
                ev.id,
                ev.ready_ns,
                p.id,
                p.start_ns
            );
            if (p.rank, p.worker) == (ev.rank, ev.worker) {
                assert!(
                    ev.start_ns >= p.end_ns,
                    "task {} starts at {} on its producer {}'s worker, which ends at {}",
                    ev.id,
                    ev.start_ns,
                    p.id,
                    p.end_ns
                );
            }
        }
    }
    let mut lanes: HashMap<(usize, u32), Vec<(u64, u64)>> = HashMap::new();
    for ev in trace {
        lanes
            .entry((ev.rank, ev.worker))
            .or_default()
            .push((ev.start_ns, ev.end_ns));
    }
    for spans in lanes.values_mut() {
        spans.sort_unstable();
        for w in spans.windows(2) {
            assert!(w[0].1 <= w[1].0, "two tasks overlap on one worker: {w:?}");
        }
    }
}

#[test]
fn a_consumer_launched_from_an_older_id_block_is_ready_after_its_producer_ran() {
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
    let by_name = |name: &str| trace.iter().find(|e| e.name == name).unwrap();
    let (b, c) = (by_name("b"), by_name("c"));
    assert!(
        c.id < b.id,
        "c ({}) should have a smaller id than its producer b ({})",
        c.id,
        b.id
    );
    // `c` became ready only when its second input was seeded, after `b`.
    assert!(c.ready_ns >= b.end_ns);
    assert_recorded_times_hold(&trace);
}

#[test]
fn a_wavefront_on_two_ranks_of_two_workers_records_consistent_times() {
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
    assert_eq!(trace.len(), (N * N) as usize);
    assert!(trace.iter().all(|e| e.worker < 2 && e.model_ns.is_none()));
    assert_recorded_times_hold(&trace);

    let json = chrome_trace(&trace);
    ttg_telemetry::json::validate(&json).expect("the export is valid JSON");
    assert_eq!(json.matches("\"ph\":\"X\"").count(), trace.len());
    for ev in &trace {
        assert_eq!(
            json.matches(&format!("\"name\":\"cell#{}\"", ev.id))
                .count(),
            1,
            "task {} is one event",
            ev.id
        );
    }
}
