//! Scheduler integration tests: the pool's batched successor activation
//! and locality plumbing (DESIGN §10) observed end-to-end through a real
//! executor's telemetry snapshot.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use ttg::core::prelude::*;
use ttg::telemetry::MetricKey;

/// One source task fans out to many successors on the same rank. The
/// batch scope active during the source's body must group the successor
/// submissions: far fewer wake announcements than tasks, with the batch
/// size showing up in `tasks_batched`.
#[test]
fn fanout_batches_successor_activation() {
    const FAN: u64 = 64;

    let seeds: Edge<u64, u64> = Edge::new("seeds");
    let work: Edge<u64, u64> = Edge::new("work");

    let mut g = GraphBuilder::new();
    let src = g.make_tt(
        "fan",
        (seeds.clone(),),
        (work.clone(),),
        |_k: &u64| 0usize,
        |_k, (x,): (u64,), outs| {
            for i in 0..FAN {
                outs.send::<0>(i, x + i);
            }
        },
    );
    let done = Arc::new(AtomicUsize::new(0));
    let done2 = Arc::clone(&done);
    let _sink = g.make_tt(
        "sink",
        (work,),
        (),
        |_k: &u64| 0usize,
        move |_k, (_x,): (u64,), _outs| {
            done2.fetch_add(1, Ordering::SeqCst);
        },
    );

    let exec = Executor::new(
        g.build(),
        ExecConfig::distributed(1, 2, BackendSpec::default()),
    );
    src.in_ref::<0>().seed(exec.ctx(), 0, 7);
    let report = exec.finish();

    assert_eq!(report.tasks, FAN + 1);
    assert_eq!(done.load(Ordering::SeqCst), FAN as usize);

    let snap = &report.telemetry;
    let wakeups = snap.counter(&MetricKey::ranked(0, "sched", "wakeups"));
    let batched = snap.counter(&MetricKey::ranked(0, "sched", "tasks_batched"));
    let submitted = snap.counter(&MetricKey::ranked(0, "sched", "submitted"));
    assert_eq!(submitted, FAN + 1);
    assert!(
        batched >= FAN / 2,
        "fan-out successors were not batched: tasks_batched={batched}"
    );
    assert!(
        wakeups < submitted,
        "batching must cost fewer wakeups ({wakeups}) than submissions ({submitted})"
    );
}

/// The ready-queue high-water gauge must register the backlog a fan-out
/// creates, and a seeded executor must stay correct (the steal RNG seed
/// only permutes victim order, never the outcome).
#[test]
fn seeded_run_is_correct_and_tracks_backlog() {
    for seed in [0u64, 1, 0xDEAD_BEEF] {
        let seeds: Edge<u64, u64> = Edge::new("seeds");
        let work: Edge<u64, u64> = Edge::new("work");

        let mut g = GraphBuilder::new();
        let src = g.make_tt(
            "fan",
            (seeds.clone(),),
            (work.clone(),),
            |_k: &u64| 0usize,
            |_k, (x,): (u64,), outs| {
                for i in 0..32u64 {
                    outs.send::<0>(i, x + i);
                }
            },
        );
        let sum = Arc::new(AtomicUsize::new(0));
        let sum2 = Arc::clone(&sum);
        let _sink = g.make_tt(
            "sink",
            (work,),
            (),
            |_k: &u64| 0usize,
            move |_k, (x,): (u64,), _outs| {
                sum2.fetch_add(x as usize, Ordering::SeqCst);
            },
        );

        let cfg = ExecConfig::distributed(1, 4, BackendSpec::default()).with_sched_seed(seed);
        let exec = Executor::new(g.build(), cfg);
        src.in_ref::<0>().seed(exec.ctx(), 0, 0);
        let report = exec.finish();

        assert_eq!(report.tasks, 33);
        assert_eq!(sum.load(Ordering::SeqCst), (0..32).sum::<u64>() as usize);
        let key = MetricKey::ranked(0, "sched", "ready_hwm");
        let hwm = match report.telemetry.get(&key) {
            Some(ttg::telemetry::MetricValue::Gauge(v)) => *v,
            other => panic!("seed {seed}: ready_hwm gauge missing: {other:?}"),
        };
        assert!(hwm > 0, "seed {seed}: backlog gauge never moved");
    }
}
