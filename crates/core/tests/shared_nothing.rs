//! The task path writes nothing shared across ranks (DESIGN §5): a queued
//! job holds no handle on the context or its node, a pool moves the shared
//! quiescence count only when it turns busy or idle, and task ids come from
//! per-thread blocks yet stay unique.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

use ttg_core::prelude::*;

#[test]
fn queued_jobs_hold_no_handle_on_the_context_or_the_node() {
    const QUEUED: u64 = 1_000;
    let (started_tx, started_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let (started_tx, release_rx) = (Mutex::new(started_tx), Mutex::new(release_rx));

    let seeds: Edge<u64, u64> = Edge::new("seeds");
    let mut g = GraphBuilder::new();
    let tt = g.make_tt(
        "gate",
        (seeds,),
        (),
        |_: &u64| 0usize,
        move |k, (_v,): (u64,), _outs| {
            // Task 0 holds the one worker until the others are queued.
            if *k == 0 {
                started_tx.lock().unwrap().send(()).unwrap();
                release_rx.lock().unwrap().recv().unwrap();
            }
        },
    );
    let graph = g.build();
    let node = Arc::clone(&graph.nodes()[0]);
    let exec = Executor::new(graph, ExecConfig::local(1));
    let seed = tt.in_ref::<0>();
    seed.seed(exec.ctx(), 0, 0);
    started_rx.recv().unwrap();

    let (ctx_before, node_before) = (Arc::strong_count(exec.ctx()), Arc::strong_count(&node));
    for k in 1..=QUEUED {
        seed.seed(exec.ctx(), k, k);
    }
    let (ctx_after, node_after) = (Arc::strong_count(exec.ctx()), Arc::strong_count(&node));
    release_tx.send(()).unwrap();
    let report = exec.finish();

    assert_eq!(report.tasks, QUEUED + 1);
    assert_eq!(
        ctx_after, ctx_before,
        "{QUEUED} queued jobs took handles on the context"
    );
    assert_eq!(
        node_after, node_before,
        "{QUEUED} queued jobs took handles on their node"
    );
}

#[test]
fn a_chain_moves_the_quiescence_epoch_a_handful_of_times() {
    const LINKS: u64 = 10_000;
    let next: Edge<u64, u64> = Edge::new("next");
    let mut g = GraphBuilder::new();
    let step = g.make_tt(
        "step",
        (next.clone(),),
        (next,),
        |_: &u64| 0usize,
        |k, (v,): (u64,), outs| {
            if *k < LINKS {
                outs.send::<0>(k + 1, v + 1);
            }
        },
    );
    let exec = Executor::new(g.build(), ExecConfig::local(1));
    let ctx = Arc::clone(exec.ctx());
    step.in_ref::<0>().seed(exec.ctx(), 0, 0);
    let report = exec.finish();

    assert_eq!(report.tasks, LINKS + 1);
    // The pool turns busy at the seed and stays busy to the chain's end:
    // each link queues its successor before it finishes.
    let epoch = ctx.quiescence.epoch();
    assert!(
        epoch <= 4,
        "{} tasks moved the shared quiescence epoch {epoch} times",
        LINKS + 1
    );
}

#[test]
fn task_ids_are_unique_across_ranks_and_workers() {
    const KEYS: u64 = 4_000;
    let seeds: Edge<u64, u64> = Edge::new("seeds");
    let across: Edge<u64, u64> = Edge::new("across");
    let mut g = GraphBuilder::new();
    let src = g.make_tt(
        "src",
        (seeds,),
        (across.clone(),),
        |k: &u64| (*k % 2) as usize,
        |k, (v,): (u64,), outs| outs.send::<0>(*k, v + 1),
    );
    let saw_both = Arc::new(AtomicBool::new(false));
    let saw = Arc::clone(&saw_both);
    g.make_tt(
        "dst",
        (across,),
        (),
        // The other rank than the source's: every value crosses ranks.
        |k: &u64| ((*k + 1) % 2) as usize,
        move |_k, (_v,): (u64,), outs| {
            if outs.rank() == 1 {
                saw.store(true, Ordering::Relaxed);
            }
        },
    );
    let exec = Executor::new(
        g.build(),
        ExecConfig::distributed(2, 2, BackendSpec::default()).with_trace(),
    );
    for k in 0..KEYS {
        src.in_ref::<0>().seed(exec.ctx(), k, k);
    }
    let report = exec.finish();

    assert_eq!(report.tasks, 2 * KEYS);
    assert!(saw_both.load(Ordering::Relaxed));
    let trace = report.trace.expect("tracing was on");
    assert_eq!(trace.len() as u64, 2 * KEYS);
    let mut ids = HashSet::new();
    for ev in &trace {
        assert!(ev.id >= 1, "task id 0 is reserved for seeds");
        assert!(ids.insert(ev.id), "task id {} handed out twice", ev.id);
    }
    // A transfer id comes from the same blocks: none is a task's.
    for ev in &trace {
        for d in ev.deps.iter().filter(|d| d.msg != 0) {
            assert!(!ids.contains(&d.msg), "transfer id {} is a task id", d.msg);
        }
    }
}
