//! Model cases of the reliable layer: the shipped [`ChaosState`] explored
//! by `ttg_model::explore` (`RUSTFLAGS="--cfg ttg_model" cargo test -p
//! ttg-comm --lib`). The queue-backed [`Harness`] runs on the threads a
//! fabric has — one delivery thread per rank and the progress thread — and
//! the facade's `Instant` is the run's logical clock, which only the model
//! moves, so a deadline passes exactly where a case says it does.
//!
//! Each file under `crates/comm/mutants/` is a patch to the shipped source
//! whose header names the case here that must report a violation; CI
//! applies them one at a time.

use super::harness::Harness;
use super::*;
use crate::fault::RetryPolicy;
use crate::recover::Recovery;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;
use ttg_model::{explore, nondet, thread, time, Config};

/// The preemption bound both cases explore exhaustively.
const BOUND: usize = 2;

fn run(name: &str, case: fn()) {
    let stats =
        explore(Config::bounded(BOUND), case).unwrap_or_else(|v| panic!("model case {name}: {v}"));
    println!("model chaos::{name} bound={BOUND} {stats}");
    assert!(stats.exhaustive && stats.schedules > 1, "{name}: {stats}");
}

/// `seq` reported lost, from the error sink.
fn reported_lost(h: &Harness, seq: u64) -> bool {
    let errors = h.errors.lock();
    let lost = |e: &&CommError| e.kind == CommErrorKind::RetryBudgetExhausted;
    errors.iter().filter(lost).any(|e| e.seq == Some(seq))
}

/// Every message settled once, and nothing recorded but the losses.
fn balanced(h: &Harness) {
    let errors = h.errors.lock();
    let other = errors
        .iter()
        .find(|e| e.kind != CommErrorKind::RetryBudgetExhausted);
    assert!(other.is_none(), "unexpected error: {other:?}");
    drop(errors);
    assert_eq!(h.in_flight(), 0, "ledger: {}", h.ledger.describe());
}

/// Seq 1 goes out once; with zero backoff and one retry, the progress
/// thread's first pass resends it and its second gives it up. Rank 1's
/// delivery thread takes the copies meanwhile. The accept (`rx_accept`)
/// and the poison claim (`retransmit_scan`) both go through the receive
/// window, so seq 1 ends delivered or reported lost, never both, and
/// settles once.
fn dedup() {
    let mut plan = FaultPlan::seeded(0);
    plan.retry = RetryPolicy {
        base: Duration::ZERO,
        cap: Duration::ZERO,
        max_retries: 1,
    };
    let h = Arc::new(Harness::new(2, plan));
    h.send(0, 1, vec![1]);
    let rank1 = {
        let h = Arc::clone(&h);
        thread::spawn_named("rank1", move || {
            (0..2).filter_map(|_| h.pump(1)).filter(|&f| f).count()
        })
    };
    let progress = {
        let h = Arc::clone(&h);
        thread::spawn_named("progress", move || {
            h.progress();
            h.progress();
        })
    };
    let mut delivered = rank1.join();
    progress.join();
    while let Some(fresh) = h.pump(1) {
        delivered += fresh as usize;
    }
    let lost = reported_lost(&h, 1) as usize;
    assert!(
        delivered + lost == 1,
        "seq 1 delivered {delivered} times and lost {lost} times"
    );
    balanced(&h);
}

#[test]
fn dedup_case() {
    run("dedup", dedup);
}

/// The logical time unit of the `ack` case: the ack flush waits one, the
/// first retransmission two, the second four.
const UNIT: Duration = Duration::from_millis(1);
/// Rounds the link runs on the main thread once the threads are done, at
/// most: past every deadline seqs 1 and 2 can arm (the shipped code needs
/// six).
const ROUNDS: usize = 8;

/// The one fault of an `ack` run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    None,
    /// The first copy of seq 1 never reaches rank 1.
    FirstCopy,
    /// The n-th ack batch (1-based) never reaches rank 0.
    Batch(usize),
    /// A batch sent before a rollback reaches rank 0 after it.
    StaleBatch,
}

/// One `ack` run: the harness, its fault, and what the case knows beside
/// the protocol (a std mutex: no scheduling point).
struct Run {
    h: Harness,
    fault: Fault,
    ghost: std::sync::Mutex<Ghost>,
}

/// The seqs an ack batch retired, and the batches that reached rank 0.
#[derive(Default)]
struct Ghost {
    retired: BTreeSet<u64>,
    batches: usize,
}

/// Rank 0's delivery thread: take one ack batch and apply it, as the
/// fabric applies a `Frame::AckRange`, noting what it retired. An entry's
/// `delivered` flag is set when rank 1 accepts a copy of the entry's own
/// epoch, before the seq is noted for an ack.
fn apply_ack(run: &Run) -> Option<()> {
    let (h, ghost) = (&run.h, &run.ghost);
    let (acker, ranges) = h.acks[0].lock().pop_front()?;
    let nth = {
        let mut g = ghost.lock().unwrap();
        g.batches += 1;
        g.batches
    };
    if run.fault == Fault::Batch(nth) {
        return Some(()); // lost on the wire
    }
    let li = h.cs.link_idx(0, acker);
    let held = || -> BTreeMap<u64, bool> {
        let link = h.cs.links[li].lock();
        link.unacked
            .iter()
            .map(|(&s, e)| (s, e.delivered))
            .collect()
    };
    let before = held();
    h.cs.apply_ack_ranges(li, &ranges);
    let after = held();
    let mut g = ghost.lock().unwrap();
    for (&seq, &delivered) in before.iter().filter(|(s, _)| !after.contains_key(s)) {
        assert!(delivered, "seq {seq} retired without rank 1 accepting it");
        g.retired.insert(seq);
    }
    Some(())
}

/// Rank 0 sends seqs 1 and 2 to rank 1. Rank 1's delivery thread takes
/// two copies, rank 0's applies one ack batch, and the progress thread
/// moves the clock one unit and runs a pass. Then the link runs on the
/// main thread, a round at a time — send one more seq if the run has
/// later traffic, deliver what arrived, apply what was acked, move the
/// clock on a unit and run a pass — until seqs 1 and 2 are settled, or
/// for `ROUNDS` rounds, past every deadline they can arm.
///
/// One fault is chosen up front: none, the first copy of seq 1 lost, the
/// first or second ack batch lost, or, after every rank rolls back to the
/// start, a batch acking the seq 1 sent before the rollback. A seq is
/// retired only if rank 1 accepted it in the current epoch, and at the end
/// seqs 1 and 2 are each retired or reported lost, never both.
fn ack() {
    let fault = [
        Fault::None,
        Fault::FirstCopy,
        Fault::Batch(1),
        Fault::Batch(2),
        Fault::StaleBatch,
    ][nondet(5) as usize];
    let later_traffic = nondet(2) == 1;
    let mut plan = FaultPlan::seeded(0).with_ack_flush(UNIT);
    plan.retry = RetryPolicy {
        base: UNIT,
        cap: 4 * UNIT,
        max_retries: 1,
    };
    if fault == Fault::StaleBatch {
        plan = plan.with_recovery(1_000);
    }
    let mut h = Harness::new(2, plan);
    h.ack_wire = true;
    let run = Arc::new(Run {
        h,
        fault,
        ghost: Default::default(),
    });
    let (h, ghost) = (&run.h, &run.ghost);
    if fault == Fault::StaleBatch {
        // Seq 1 lands and its batch leaves; then every rank rolls back.
        h.send(0, 1, vec![0]);
        h.pump(1);
        time::advance(UNIT);
        h.progress();
        Recovery {
            cs: &h.cs,
            port: h.port(),
        }
        .pause()
        .rollback(None);
    }
    h.send(0, 1, vec![1]);
    h.send(0, 1, vec![2]);
    if fault == Fault::FirstCopy {
        h.queues[1].lock().pop_front();
    }
    let spawn = |name, f: fn(&Run)| {
        let run = Arc::clone(&run);
        thread::spawn_named(name, move || f(&run))
    };
    let threads = [
        spawn("rank1", |run| {
            run.h.pump(1);
            run.h.pump(1);
        }),
        spawn("rank0", |run| {
            apply_ack(run);
        }),
        spawn("progress", |run| {
            time::advance(UNIT);
            run.h.progress();
        }),
    ];
    for t in threads {
        t.join();
    }
    let settled = |seq| ghost.lock().unwrap().retired.contains(&seq) || reported_lost(h, seq);
    for _ in 0..ROUNDS {
        if settled(1) && settled(2) {
            break;
        }
        if later_traffic {
            h.send(0, 1, vec![3]);
        }
        while h.pump(1).is_some() {}
        while apply_ack(&run).is_some() {}
        time::advance(UNIT);
        h.progress();
    }
    let retired = ghost.lock().unwrap().retired.clone();
    for seq in [1, 2] {
        let (r, l) = (retired.contains(&seq), reported_lost(h, seq));
        assert!(
            r || l,
            "seq {seq} neither retired nor reported lost after the rounds \
             ({fault:?}, later traffic {later_traffic})"
        );
        assert!(!(r && l), "seq {seq} both retired and reported lost");
    }
    balanced(h);
}

#[test]
fn ack_case() {
    run("ack", ack);
}
