#![cfg(all(test, ttg_model))]
//! Model case of the coordinated rollback (DESIGN §13): the shipped
//! [`Gate`], [`Recovery`], [`Paused`] and ledger on the reliable layer's
//! queue-backed harness, explored by `ttg_model::explore`
//! (`RUSTFLAGS="--cfg ttg_model" cargo test -p ttg-comm --lib`).
//!
//! Two ranks, one logical message into each: `x`, a seed into rank 1, and
//! `y`, which rank 1 sends to rank 0 when it processes `x`. Delivery does
//! what the executor's delivery threads do: it passes the gate, classifies
//! a copy (`rx_accept`), and processes and settles a fresh one. Rank 1's
//! runs on a thread of its own, rank 0's on the main thread once the
//! threads are done.
//! The coordinator does what `Executor::wait` does: once a cut is due or a
//! kill latched, it pauses progress, raises the gate, waits until no
//! delivery is inside, and takes the cut or rolls every rank back to the
//! last one. The pause outlasts a retry budget — the clock moves only
//! inside it — while a progress thread runs its passes. What a rank has
//! processed stands for its matching tables: a cut records it and a
//! rollback restores it.
//!
//! Chosen up front: a cut at the start, whenever one falls due, or never;
//! no kill, a kill of rank 1 at its second reception (a duplicate of `x`)
//! or of rank 0 at its first; whether each message's first transmission is
//! duplicated.
//!
//! Invariants: in the final timeline each rank processed its message once,
//! the ledger balances and no error was recorded (no settle past issued,
//! no message given up); and a run that never rolled back retransmitted
//! nothing, since time spent paused counts against no retry budget.
//!
//! A pass that runs inside a pause resends there; giving a message up
//! takes a second pass a backoff later, more preemptions than this case
//! explores. [`pause`] checks that on its own, with no retry to spend.

use super::{Gate, Paused, Recovery};
use crate::buf::WriteBuf;
use crate::chaos::harness::Harness;
use crate::fault::{FaultPlan, RetryPolicy};
use crate::links::Rank;
use std::sync::{Arc, Mutex};
use std::time::Duration;
use ttg_model::sync::Ordering::SeqCst;
use ttg_model::{explore, nondet, thread, time, Config};

/// The logical time unit: every retry backoff is one, so a budget is two.
const UNIT: Duration = Duration::from_millis(1);
/// How long a pause lasts: longer than a whole retry budget.
const PAUSE: Duration = Duration::from_millis(3);
/// The sentinel sender of a seed.
const EXT: Rank = usize::MAX;
/// Copies rank 1's delivery thread takes, and checks the coordinator makes,
/// while the threads run.
const STEPS: usize = 2;
/// Rounds the main thread runs once the threads are done, at most.
const ROUNDS: usize = 4;

/// When the cut is taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CutAt {
    Start,
    Due,
    Never,
}

/// One run: the harness, the gate, and what the case keeps beside the
/// protocol (std mutexes: no scheduling point).
struct Run {
    h: Harness,
    gate: Gate,
    dup: bool,
    /// Messages each rank processed in the current timeline.
    processed: Mutex<[usize; 2]>,
    /// The last cut: the comm section, and what each rank had processed.
    cut: Mutex<Option<(Vec<u8>, [usize; 2])>>,
}

/// Send one message, its first copy duplicated if the run says so.
fn send(run: &Run, from: Rank, to: Rank) {
    run.h.send(from, to, vec![to as u8]);
    if run.dup {
        let mut q = run.h.queues[to].lock();
        if let Some(copy) = q.back().cloned() {
            q.push_back(copy);
        }
    }
}

/// Rank `r`'s delivery thread takes one copy; `false` when none waits.
fn deliver(run: &Run, r: Rank) -> bool {
    let h = &run.h;
    let Some((from, _, seq, _)) = h.queues[r].lock().pop_front() else {
        return false;
    };
    let events = h.ledger.events();
    run.gate.enter(events);
    if h.cs.rx_accept(&h.port(), r, from, seq) {
        run.processed.lock().unwrap()[r] += 1;
        if r == 1 {
            send(run, 1, 0);
        }
        h.port().settle(h.cs.link_idx(from, r));
    }
    run.gate.leave(events);
    true
}

fn take_cut(run: &Run, paused: &Paused<'_>) {
    let mut comm = WriteBuf::new();
    paused.export_cut(&mut comm);
    let processed = *run.processed.lock().unwrap();
    *run.cut.lock().unwrap() = Some((comm.as_slice().to_vec(), processed));
}

/// The coordinator's check: a latched kill rolls every rank back, a due
/// cut is taken.
fn coordinate(run: &Run) {
    let h = &run.h;
    let rec = Recovery {
        cs: &h.cs,
        port: h.port(),
    };
    if !rec.cut_due() && rec.killed_ranks().is_empty() {
        return;
    }
    let paused = rec.pause();
    run.gate.raise();
    let events = h.ledger.events();
    loop {
        let epoch = events.prepare();
        if run.gate.stopped() {
            events.cancel();
            break;
        }
        events.wait(epoch);
    }
    time::advance(PAUSE);
    if rec.killed_ranks().is_empty() {
        take_cut(run, &paused);
        drop(paused);
    } else {
        let cut = run.cut.lock().unwrap().clone();
        let (comm, processed) = match cut {
            Some((bytes, processed)) => (Some(rec.decode_cut(&bytes).unwrap()), processed),
            None => (None, [0, 0]),
        };
        *run.processed.lock().unwrap() = processed;
        paused.rollback(comm);
    }
    run.gate.lower();
}

fn rollback() {
    let cut_at = [CutAt::Start, CutAt::Due, CutAt::Never][nondet(3) as usize];
    let kill = [None, Some((1, 2)), Some((0, 1))][nondet(3) as usize];
    let dup = nondet(2) == 1;
    let every = if cut_at == CutAt::Due { 1 } else { 1_000 };
    let mut plan = FaultPlan::seeded(0)
        .with_ack_flush(Duration::ZERO)
        .with_recovery(every);
    plan.retry = RetryPolicy {
        base: UNIT,
        cap: UNIT,
        max_retries: 1,
    };
    if let Some((rank, after)) = kill {
        plan = plan.with_kill(rank, after);
    }
    let run = Arc::new(Run {
        h: Harness::new(2, plan),
        gate: Gate::default(),
        dup,
        processed: Mutex::new([0, 0]),
        cut: Mutex::new(None),
    });
    let h = &run.h;
    if cut_at == CutAt::Start {
        let rec = Recovery {
            cs: &h.cs,
            port: h.port(),
        };
        take_cut(&run, &rec.pause());
    }
    send(&run, EXT, 1);
    let spawn = |name, f: fn(&Run)| {
        let run = Arc::clone(&run);
        thread::spawn_named(name, move || f(&run))
    };
    let threads = [
        spawn("deliver1", |run| {
            (0..STEPS).for_each(|_| _ = deliver(run, 1))
        }),
        spawn("coordinator", |run| {
            (0..STEPS).for_each(|_| coordinate(run))
        }),
        spawn("progress", |run| run.h.progress()),
    ];
    for t in threads {
        t.join();
    }
    let killed = || h.cs.killed.iter().any(|k| k.load(SeqCst));
    for _ in 0..ROUNDS {
        coordinate(&run);
        while deliver(&run, 0) || deliver(&run, 1) {}
        h.progress();
        if h.in_flight() == 0 && !killed() {
            break;
        }
    }
    let errors = h.errors.lock().clone();
    assert!(errors.is_empty(), "{errors:?} ({cut_at:?}, kill {kill:?})");
    assert!(!killed(), "a kill left unrolled");
    let processed = *run.processed.lock().unwrap();
    assert_eq!(
        processed,
        [1, 1],
        "exactly-once broken ({cut_at:?}, kill {kill:?})"
    );
    assert_eq!(h.in_flight(), 0, "ledger: {}", h.ledger.describe());
    if h.stats.restores.get() == 0 {
        let retries = h.stats.am_retries.get();
        assert_eq!(retries, 0, "a pause counted against a retry budget");
    }
}

/// A pause against a progress pass, on their own: a message to rank 1
/// waits unacknowledged with no retry left (`max_retries` 0), the
/// coordinator pauses for longer than its backoff, and the progress thread
/// runs one pass. A pass that ran inside the pause would find the message
/// overdue and give it up, as one that waited on a long task did before the
/// pause held the passes off. Invariant: nothing is given up.
fn pause() {
    let mut plan = FaultPlan::seeded(0)
        .with_ack_flush(Duration::ZERO)
        .with_recovery(1_000);
    plan.retry = RetryPolicy {
        base: UNIT,
        cap: UNIT,
        max_retries: 0,
    };
    let h = Arc::new(Harness::new(2, plan));
    h.send(0, 1, vec![1]);
    let progress = {
        let h = Arc::clone(&h);
        thread::spawn_named("progress", move || h.progress())
    };
    let rec = Recovery {
        cs: &h.cs,
        port: h.port(),
    };
    let paused = rec.pause();
    time::advance(PAUSE);
    drop(paused);
    progress.join();
    let errors = h.errors.lock().clone();
    assert!(
        errors.is_empty(),
        "the pause ran a retry budget: {errors:?}"
    );
}

/// The preemption bound the cases explore exhaustively.
const BOUND: usize = 1;

#[test]
fn rollback_case() {
    let stats = explore(Config::bounded(BOUND), rollback)
        .unwrap_or_else(|v| panic!("model case rollback: {v}"));
    println!("model recover::rollback bound={BOUND} {stats}");
    assert!(stats.exhaustive && stats.schedules > 1, "rollback: {stats}");
}

#[test]
fn pause_case() {
    let stats =
        explore(Config::bounded(BOUND), pause).unwrap_or_else(|v| panic!("model case pause: {v}"));
    println!("model recover::pause bound={BOUND} {stats}");
    assert!(stats.exhaustive && stats.schedules > 1, "pause: {stats}");
}
