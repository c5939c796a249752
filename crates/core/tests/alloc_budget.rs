//! The allocation budget of the task-activation path, as a tracked test:
//! the baseline is the assertion. Between its last input arriving and its
//! body running a task costs one heap allocation — its job — and the
//! budgets below leave one spare for the pool's queues growing. A counting
//! global allocator (per thread, so tests running beside each other do not
//! see one another) measures a steady state on 1 rank × 1 worker, where
//! every allocation of the path happens on the one worker thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ttg_core::prelude::*;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// `const`-initialised thread-local without a destructor, so touching it
// allocates nothing and is valid at any point of a thread's life.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) made by the calling thread so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

const WARM_UP: u64 = 2_000;
const MEASURED: u64 = 10_000;
const BUDGET: u64 = 2;

/// Runs tasks `0..=WARM_UP + MEASURED` of a graph whose task `k` calls
/// `probe(k)` from its body, and returns the allocations per task the
/// worker thread made between tasks `WARM_UP` and `WARM_UP + MEASURED`.
fn per_task(run: impl FnOnce(Arc<dyn Fn(u64) + Send + Sync>)) -> f64 {
    let marks = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
    let m2 = Arc::clone(&marks);
    run(Arc::new(move |k| {
        if k == WARM_UP {
            m2[0].store(allocs(), Ordering::SeqCst);
        } else if k == WARM_UP + MEASURED {
            m2[1].store(allocs(), Ordering::SeqCst);
        }
    }));
    let spent = marks[1].load(Ordering::SeqCst) - marks[0].load(Ordering::SeqCst);
    spent as f64 / MEASURED as f64
}

#[test]
fn chain_of_one_input_tasks_stays_in_budget() {
    let got = per_task(|probe| {
        let next: Edge<u64, u64> = Edge::new("next");
        let mut g = GraphBuilder::new();
        let step = g.make_tt(
            "step",
            (next.clone(),),
            (next,),
            |_| 0usize,
            move |k, (v,): (u64,), outs| {
                probe(*k);
                if *k < WARM_UP + MEASURED {
                    outs.send::<0>(*k + 1, v + 1);
                }
            },
        );
        let exec = Executor::new(g.build(), ExecConfig::local(1));
        step.in_ref::<0>().seed(exec.ctx(), 0, 0);
        assert_eq!(exec.finish().tasks, WARM_UP + MEASURED + 1);
    });
    assert!(
        got <= BUDGET as f64,
        "{got} allocations per 1-input task, budget {BUDGET}"
    );
}

#[test]
fn three_input_template_stays_in_budget() {
    let got = per_task(|probe| {
        let a: Edge<u64, u64> = Edge::new("a");
        let b: Edge<u64, u64> = Edge::new("b");
        let c: Edge<u64, u64> = Edge::new("c");
        let mut g = GraphBuilder::new();
        let join = g.make_tt(
            "join",
            (a.clone(), b.clone(), c.clone()),
            (a, b, c),
            |_| 0usize,
            move |k, (x, y, z): (u64, u64, u64), outs| {
                assert_eq!((x, y, z), (*k, *k + 1, *k + 2));
                probe(*k);
                if *k < WARM_UP + MEASURED {
                    outs.send::<2>(*k + 1, z + 1);
                    outs.send::<0>(*k + 1, x + 1);
                    outs.send::<1>(*k + 1, y + 1);
                }
            },
        );
        let exec = Executor::new(g.build(), ExecConfig::local(1));
        join.in_ref::<0>().seed(exec.ctx(), 0, 0);
        join.in_ref::<1>().seed(exec.ctx(), 0, 1);
        join.in_ref::<2>().seed(exec.ctx(), 0, 2);
        assert_eq!(exec.finish().tasks, WARM_UP + MEASURED + 1);
    });
    assert!(
        got <= BUDGET as f64,
        "{got} allocations per 3-input task, budget {BUDGET}"
    );
}

/// A broadcast as wide as Floyd–Warshall's (23 keys) must not build a set
/// to learn that its keys are distinct. The edge has no consumer, so the
/// send ends right after the key check and the count is that check's.
// A `checked` build records the dropped send, which allocates its report.
#[cfg(not(feature = "checked"))]
#[test]
fn duplicate_free_broadcast_of_23_keys_allocates_nothing() {
    let start: Edge<u64, u64> = Edge::new("start");
    let dangling: Edge<u64, u64> = Edge::new("dangling");
    let spent = Arc::new(AtomicU64::new(u64::MAX));
    let s2 = Arc::clone(&spent);
    let mut g = GraphBuilder::new();
    let caster = g.make_tt(
        "caster",
        (start,),
        (dangling,),
        |_| 0usize,
        move |_, (v,): (u64,), outs| {
            let keys: Vec<u64> = (0..23).collect();
            let before = allocs();
            outs.broadcast::<0>(&keys, v);
            s2.store(allocs() - before, Ordering::SeqCst);
        },
    );
    let exec = Executor::new(g.build(), ExecConfig::local(1));
    caster.in_ref::<0>().seed(exec.ctx(), 0, 0);
    exec.finish();
    assert_eq!(spent.load(Ordering::SeqCst), 0);
}

/// A repeated key is dropped on either side of the scan/set boundary: the
/// 1-input sink, which would fire twice, fires once per distinct key.
#[test]
fn duplicated_broadcast_key_delivers_once_at_every_width() {
    for width in [2u64, 9, 33] {
        let start: Edge<u64, u64> = Edge::new("start");
        let fan: Edge<u64, u64> = Edge::new("fan");
        let mut g = GraphBuilder::new();
        let caster = g.make_tt(
            "caster",
            (start,),
            (fan.clone(),),
            |_| 0usize,
            move |_, (v,): (u64,), outs| {
                // `width` keys, the last a repeat of the first.
                let mut keys: Vec<u64> = (0..width - 1).collect();
                keys.push(0);
                outs.broadcast::<0>(&keys, v);
            },
        );
        let fired = Arc::new(Mutex::new(Vec::new()));
        let f2 = Arc::clone(&fired);
        let _sink = g.make_tt(
            "sink",
            (fan,),
            (),
            |_| 0usize,
            move |k, (_v,): (u64,), _| f2.lock().unwrap().push(*k),
        );
        let exec = Executor::new(g.build(), ExecConfig::local(1));
        caster.in_ref::<0>().seed(exec.ctx(), 0, 0);
        exec.finish();
        let mut fired = fired.lock().unwrap().clone();
        fired.sort_unstable();
        assert_eq!(fired, (0..width - 1).collect::<Vec<_>>(), "width {width}");
    }
}

/// One scope, two ranks: the tasks a body readies on its own rank and on
/// another (in-process seeding reaches any rank's table) flush as one group
/// per rank, each in spawn order. Equal non-zero priorities make a rank's
/// single worker run its group in submission order, so the order the tasks
/// ran in is the order the flush submitted them in.
#[test]
fn mixed_rank_flush_keeps_spawn_order_within_each_rank() {
    const KEYS: u64 = 64;
    let start: Edge<u64, u64> = Edge::new("start");
    let work: Edge<u64, u64> = Edge::new("work");
    let ran = Arc::new(Mutex::new(Vec::new()));
    let r2 = Arc::clone(&ran);
    let mut g = GraphBuilder::new();
    let sink = g.make_tt(
        "sink",
        (work,),
        (),
        |k: &u64| (*k % 2) as usize,
        move |k, (_v,): (u64,), outs| r2.lock().unwrap().push((outs.rank(), *k)),
    );
    sink.set_priority_map(|_| 1).expect("pre-attach");
    let into_sink = sink.in_ref::<0>();
    let spawner = g.make_tt(
        "spawner",
        (start,),
        (),
        |_| 0usize,
        move |_, (_v,): (u64,), outs| {
            // Runs inside its job's scope on rank 0's worker.
            for k in 0..KEYS {
                into_sink.seed(outs.ctx(), k, k);
            }
        },
    );
    let exec = Executor::new(
        g.build(),
        ExecConfig::distributed(2, 1, BackendSpec::default_spec()),
    );
    spawner.in_ref::<0>().seed(exec.ctx(), 0, 0);
    assert_eq!(exec.finish().tasks, KEYS + 1);
    let ran = ran.lock().unwrap();
    for rank in 0..2 {
        let keys: Vec<u64> = ran.iter().filter(|r| r.0 == rank).map(|r| r.1).collect();
        let spawned: Vec<u64> = (0..KEYS).filter(|k| (*k % 2) as usize == rank).collect();
        assert_eq!(keys, spawned, "rank {rank}");
    }
}
