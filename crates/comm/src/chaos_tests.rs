#![cfg(all(test, not(ttg_model)))]
//! Tests of the reliable layer's state machine, driven on one thread
//! through the queue-backed [`Harness`] against the wall clock.

use super::harness::Harness;
use super::*;
use crate::recover::Recovery;
use std::time::Duration;

#[test]
fn reliable_layer_sequences_and_delivers_exactly_once() {
    let h = Harness::new(2, FaultPlan::seeded(1));
    for _ in 0..10 {
        h.send(0, 1, vec![1]);
    }
    let mut fresh = 0;
    while let Some(f) = h.pump(1) {
        fresh += f as usize;
    }
    assert_eq!(fresh, 10);
    assert_eq!(h.in_flight(), 0);
    assert_eq!(h.stats.snapshot().am_dedup_hits, 0);
}

#[test]
fn dropped_packets_are_retransmitted() {
    // The deterministic rolls differ per attempt, so with drop=0.5 and
    // enough budget every packet eventually passes.
    let mut plan = FaultPlan::seeded(11).with_drop(0.5);
    plan.retry.base = Duration::from_micros(50);
    plan.retry.cap = Duration::from_micros(400);
    let h = Harness::new(2, plan);
    let n = 40;
    for _ in 0..n {
        h.send(0, 1, vec![3]);
    }
    let mut fresh = 0;
    let deadline = Instant::now() + Duration::from_secs(10);
    while fresh < n && Instant::now() < deadline {
        h.progress();
        while let Some(f) = h.pump(1) {
            fresh += f as usize;
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    assert_eq!(fresh, n, "all logical packets must eventually deliver");
    assert_eq!(h.in_flight(), 0);
    let s = h.stats.snapshot();
    assert!(s.am_retries > 0, "drops must force retransmissions");
    assert!(s.am_dropped_injected > 0);
}

#[test]
fn batched_acks_retire_unacked_in_few_flushes() {
    // Default plan: 100 µs flush timer, no loss. Twenty messages must
    // be acknowledged by far fewer flush events, and every sequence
    // must be covered by a batched range.
    let h = Harness::new(2, FaultPlan::seeded(31));
    let n = 20;
    for _ in 0..n {
        h.send(0, 1, vec![6]);
    }
    while h.pump(1).is_some() {}
    let deadline = Instant::now() + Duration::from_secs(5);
    while h.stats.snapshot().acks_batched < n && Instant::now() < deadline {
        std::thread::sleep(Duration::from_micros(100));
        h.progress();
    }
    let s = h.stats.snapshot();
    assert_eq!(s.acks_batched, n, "every sequence must be range-acked");
    assert!(s.ack_flushes >= 1);
    assert!(
        s.ack_flushes < n,
        "batching must use fewer flushes ({}) than messages ({n})",
        s.ack_flushes
    );
    assert!(h.cs.links[h.cs.link_idx(0, 1)].lock().unacked.is_empty());
    assert_eq!(h.in_flight(), 0);
}

#[test]
fn acks_leave_when_due() {
    // With the flush deadline at 5 s nothing leaves before it: not from
    // the receiving thread, not from the tick, not with reverse traffic.
    let plan = FaultPlan::seeded(33).with_ack_flush(Duration::from_secs(5));
    let mut h = Harness::new(2, plan);
    h.send(0, 1, vec![7]);
    assert_eq!(h.pump(1), Some(true));
    h.progress();
    h.send(1, 0, vec![8]);
    assert_eq!(h.pump(0), Some(true));
    h.progress();
    assert_eq!(h.stats.snapshot().ack_flushes, 0, "flushed before due");
    // Past the deadline (moved here rather than waited out), the next
    // note flushes its batch from the receiving thread, with no tick.
    h.cs.plan.ack_flush = Duration::from_millis(1);
    std::thread::sleep(Duration::from_millis(2));
    h.send(0, 1, vec![9]);
    assert_eq!(h.pump(1), Some(true));
    let s = h.stats.snapshot();
    assert_eq!((s.ack_flushes, s.acks_batched), (1, 2));
    assert!(h.cs.links[h.cs.link_idx(0, 1)].lock().unacked.is_empty());
    // The reverse batch saw no later note: the tick sends it.
    assert_eq!(h.cs.links[h.cs.link_idx(1, 0)].lock().unacked.len(), 1);
    h.progress();
    assert_eq!(h.stats.snapshot().ack_flushes, 2);
    assert!(h.cs.links[h.cs.link_idx(1, 0)].lock().unacked.is_empty());
    assert_eq!(h.in_flight(), 0);
}

/// A plan whose first retransmission deadline, `backoff(1)`, is 10 ms:
/// long beside the 100 µs ack flush and the tests' steps.
fn slow_retry_plan(seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::seeded(seed);
    plan.retry.base = Duration::from_millis(5);
    plan
}

#[test]
fn a_lagging_receiver_whose_acks_flow_causes_no_retransmission() {
    // 256 in flight on a lossless link. The receiver takes them eight at
    // a time and falls more than twice `backoff(1)` behind, so most
    // entries pass their own deadline unacked. Its acks keep leaving as
    // they fall due, though: no hole, and a link clock that restarts
    // with every ack — no evidence of loss, no retransmission.
    let plan = slow_retry_plan(41);
    let backoff = plan.retry.backoff(1);
    let h = Harness::new(2, plan);
    let t0 = Instant::now();
    for _ in 0..256 {
        h.send(0, 1, vec![1; 64]);
    }
    let mut fresh = 0;
    while !h.queues[1].lock().is_empty() {
        for _ in 0..8 {
            fresh += h.pump(1).unwrap_or(false) as usize;
        }
        std::thread::sleep(backoff / 8);
        h.progress();
    }
    assert!(t0.elapsed() > 2 * backoff, "the receiver did not lag");
    assert_eq!(fresh, 256);
    std::thread::sleep(Duration::from_micros(200));
    h.progress();
    let s = h.stats.snapshot();
    assert_eq!(s.am_retries, 0, "{} spurious retransmissions", s.am_retries);
    assert_eq!(s.acks_batched, 256);
    assert!(h.cs.links[h.cs.link_idx(0, 1)].lock().unacked.is_empty());
    assert_eq!(h.in_flight(), 0);
}

#[test]
fn a_silent_link_resends_only_its_oldest_entry() {
    // The receiver stalls past every entry's deadline and no ack moves: a
    // scheduling hiccup as likely as a loss. Silence is evidence against
    // the link, not against each entry, so only the oldest is resent, as
    // TCP resends its earliest segment; once acks flow, nothing else is.
    let plan = slow_retry_plan(53);
    let backoff = plan.retry.backoff(1);
    let h = Harness::new(2, plan);
    for _ in 0..8 {
        h.send(0, 1, vec![4]);
    }
    std::thread::sleep(backoff * 3 / 2);
    h.progress();
    assert_eq!(h.stats.snapshot().am_retries, 1);
    let resent = h.queues[1].lock().back().map(|c| c.2);
    assert_eq!(resent, Some(1), "the oldest entry is the one resent");
    while h.pump(1).is_some() {}
    std::thread::sleep(Duration::from_micros(200));
    h.progress();
    let s = h.stats.snapshot();
    assert_eq!((s.am_retries, s.am_dedup_hits), (1, 1));
    assert!(h.cs.links[h.cs.link_idx(0, 1)].lock().unacked.is_empty());
    assert_eq!(h.in_flight(), 0);
}

#[test]
fn a_lost_tail_is_resent_once_the_link_falls_silent() {
    // The last seq of a burst is lost. Nothing above it can be retired,
    // so it is no hole: it waits for the link clock, which the ack of
    // the rest of the burst restarted — `backoff(1)` after that ack, not
    // at its own deadline, which passes first.
    let plan = slow_retry_plan(43);
    let backoff = plan.retry.backoff(1);
    let h = Harness::new(2, plan);
    for _ in 0..8 {
        h.send(0, 1, vec![2]);
    }
    let (_, _, tail, _) = h.queues[1].lock().pop_back().expect("eight copies");
    assert_eq!(tail, 8);
    std::thread::sleep(backoff * 3 / 4);
    let acked_from = Instant::now();
    while h.pump(1).is_some() {}
    std::thread::sleep(Duration::from_micros(200));
    h.progress();
    let li = h.cs.link_idx(0, 1);
    let held: Vec<u64> = h.cs.links[li]
        .lock()
        .unacked
        .iter()
        .map(|(seq, _)| seq)
        .collect();
    assert_eq!(held, vec![tail], "the rest of the burst is retired");
    let deadline = Instant::now() + Duration::from_secs(5);
    while h.stats.snapshot().am_retries == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_micros(100));
        h.progress();
    }
    assert_eq!(h.stats.snapshot().am_retries, 1);
    assert!(
        acked_from.elapsed() >= backoff,
        "resent {:?} after the burst's ack, before the link fell silent",
        acked_from.elapsed()
    );
    assert_eq!(h.pump(1), Some(true));
    std::thread::sleep(Duration::from_micros(200));
    h.progress();
    assert!(h.cs.links[li].lock().unacked.is_empty());
    assert_eq!(h.in_flight(), 0);
}

#[test]
fn a_hole_is_resent_at_its_own_deadline_while_the_link_makes_progress() {
    // Seq 3 of a stream is lost. Every step sends one more seq, takes
    // what arrived and ticks, so acks retire seqs above the hole every
    // step and the link clock never runs `backoff(1)`: only the hole rule
    // can resend seq 3, and it does once seq 3's own deadline passes.
    let plan = slow_retry_plan(47);
    let backoff = plan.retry.backoff(1);
    let h = Harness::new(2, plan);
    let t0 = Instant::now();
    for _ in 0..8 {
        h.send(0, 1, vec![3]);
    }
    let (_, _, lost, _) = h.queues[1].lock().remove(2).expect("eight copies");
    assert_eq!(lost, 3);
    let deadline = t0 + Duration::from_secs(5);
    while h.stats.snapshot().am_retries == 0 && Instant::now() < deadline {
        h.send(0, 1, vec![3]);
        while h.pump(1).is_some() {}
        std::thread::sleep(backoff / 8);
        h.progress();
    }
    assert!(t0.elapsed() >= backoff, "resent before its own deadline");
    assert_eq!(h.stats.snapshot().am_retries, 1, "only the hole is resent");
    let resent: Vec<u64> = h.queues[1].lock().iter().map(|c| c.2).collect();
    assert_eq!(resent, vec![lost]);
    assert_eq!(h.pump(1), Some(true));
    std::thread::sleep(Duration::from_micros(200));
    h.progress();
    assert!(h.cs.links[h.cs.link_idx(0, 1)].lock().unacked.is_empty());
    assert_eq!(h.in_flight(), 0);
}

#[test]
fn an_ack_that_opens_a_hole_past_its_deadline_makes_the_next_pass_resend_it() {
    // Seq 2 of four is lost. Seq 1's ack restarts the link clock, so when
    // seq 2's own deadline passes it is neither a hole nor silent long
    // enough, and the pass that finds so schedules the scan for the
    // silence deadline. The ack of seqs 3 and 4 then opens the hole: the
    // retransmit scan is due at once, not at that later deadline — the
    // retiring ack re-arms the progress clock.
    let plan = slow_retry_plan(59);
    let backoff = plan.retry.backoff(1);
    let h = Harness::new(2, plan);
    let t0 = Instant::now();
    for _ in 0..4 {
        h.send(0, 1, vec![5]);
    }
    let (_, _, lost, _) = h.queues[1].lock().remove(1).expect("four copies");
    assert_eq!(lost, 2);
    std::thread::sleep(backoff / 2);
    assert_eq!(h.pump(1), Some(true), "seq 1 lands");
    std::thread::sleep(Duration::from_micros(200));
    h.progress(); // its ack retires seq 1 and restarts the clock
    std::thread::sleep((t0 + backoff + backoff / 10).saturating_duration_since(Instant::now()));
    h.progress(); // seq 2 is overdue, but no hole and no silence yet
    while h.pump(1).is_some() {}
    std::thread::sleep(Duration::from_micros(200));
    h.progress(); // the ack of seqs 3 and 4 opens the hole below them
    assert_eq!(h.stats.snapshot().am_retries, 1, "the hole waited");
    let resent: Vec<u64> = h.queues[1].lock().iter().map(|c| c.2).collect();
    assert_eq!(resent, vec![lost]);
    assert_eq!(h.pump(1), Some(true));
    std::thread::sleep(Duration::from_micros(200));
    h.progress();
    assert!(h.cs.links[h.cs.link_idx(0, 1)].lock().unacked.is_empty());
    assert_eq!(h.in_flight(), 0);
}

#[test]
fn dead_link_exhausts_budget_and_reports() {
    // Rank 1 never takes a packet off its queue: nothing is accepted,
    // the budget runs out, and the loss is reported.
    let mut plan = FaultPlan::seeded(5).with_kill(1, 0);
    plan.retry = crate::fault::RetryPolicy {
        base: Duration::from_micros(20),
        cap: Duration::from_micros(100),
        max_retries: 3,
    };
    let h = Harness::new(2, plan);
    h.send(0, 1, vec![4, 4]);
    assert_eq!(h.in_flight(), 1);
    let deadline = Instant::now() + Duration::from_secs(5);
    while h.in_flight() > 0 && Instant::now() < deadline {
        h.progress();
        std::thread::sleep(Duration::from_micros(50));
    }
    assert_eq!(h.in_flight(), 0, "an abandoned packet must settle");
    let errors = std::mem::take(&mut *h.errors.lock());
    assert_eq!(errors.len(), 1, "exactly one loss report");
    assert_eq!(errors[0].kind, CommErrorKind::RetryBudgetExhausted);
    assert_eq!(errors[0].code(), "TTG040");
    assert_eq!(errors[0].from, Some(0));
    assert_eq!(errors[0].to, Some(1));
    assert_eq!(h.stats.snapshot().am_retry_exhausted, 1);
}

#[test]
fn a_killed_peer_reports_every_in_flight_entry_within_one_budget() {
    // 256 in flight to a rank killed without recovery, under the default
    // retry policy. Only the oldest entry is resent on the silent link,
    // so only it spends its budget (≈ 0.18 s); when it gives up, the link
    // is dead and the other 255 go with it. Spent one after another, the
    // budgets would take 256 × 0.18 s ≈ 46 s.
    let plan = FaultPlan::seeded(61).with_kill(1, 1);
    let max_retries = plan.retry.max_retries;
    let h = Harness::new(2, plan);
    let t0 = Instant::now();
    for _ in 0..256 {
        h.send(0, 1, vec![5; 64]);
    }
    while h.pump(1).is_some() {}
    assert!(h.cs.killed[1].load(Ordering::SeqCst));
    let deadline = t0 + Duration::from_secs(10);
    while h.in_flight() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_micros(100));
        h.progress();
    }
    let took = t0.elapsed();
    assert_eq!(h.in_flight(), 0, "{} entries unreported", h.in_flight());
    assert!(took < Duration::from_secs(2), "reported after {took:?}");
    let s = h.stats.snapshot();
    assert_eq!(
        (s.am_retries, s.am_retry_exhausted),
        (max_retries as u64, 256)
    );
    let errors = std::mem::take(&mut *h.errors.lock());
    assert_eq!(errors.len(), 256);
    assert!(errors.iter().all(|e| e.code() == "TTG040"));
}

#[test]
fn a_refused_ack_batch_is_retired_through_shared_memory() {
    // The ack link is closed for good: the frame, ranges and all, is
    // refused. What it covered the receiver accepted, and `delivered`
    // says so: the flush retires those entries instead of leaving them to
    // be resent until their budgets run out.
    let h = Harness::new(2, slow_retry_plan(67));
    h.refuse_acks.store(true, Ordering::SeqCst);
    for _ in 0..8 {
        h.send(0, 1, vec![6]);
    }
    let (_, _, lost, _) = h.queues[1].lock().pop_back().expect("eight copies");
    while h.pump(1).is_some() {}
    std::thread::sleep(Duration::from_micros(200));
    h.progress();
    let li = h.cs.link_idx(0, 1);
    let held: Vec<u64> = h.cs.links[li]
        .lock()
        .unacked
        .iter()
        .map(|(seq, _)| seq)
        .collect();
    assert_eq!(held, vec![lost], "only the copy never received is held");
    let s = h.stats.snapshot();
    assert_eq!((s.ack_flushes, s.am_retries), (1, 0));
}

#[test]
fn delayed_packets_are_released_by_progress() {
    let mut plan = FaultPlan::seeded(21).with_delay(1.0);
    plan.delay_us = (100, 200);
    let h = Harness::new(2, plan);
    h.send(0, 1, vec![5]);
    // Held: nothing arrives immediately.
    assert_eq!(h.pump(1), None);
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut fresh = 0;
    while fresh == 0 && Instant::now() < deadline {
        h.progress();
        if let Some(true) = h.pump(1) {
            fresh += 1;
        }
        std::thread::sleep(Duration::from_micros(50));
    }
    assert_eq!(fresh, 1);
    assert!(h.stats.snapshot().am_delayed_injected >= 1);
}

#[test]
fn a_copy_or_an_ack_from_before_a_rollback_is_dropped() {
    let h = Harness::new(2, FaultPlan::seeded(3).with_recovery(1_000));
    let rec = Recovery {
        cs: &h.cs,
        port: h.port(),
    };
    // A seed and a rank's send, both in flight when every rank rolls back
    // to the start: the seed is re-armed, the send is gone with its link.
    h.cs.send(&h.port(), usize::MAX, 1, 7, vec![1]);
    h.send(0, 1, vec![2]);
    rec.pause().rollback(None);
    assert_eq!(h.in_flight(), 1, "only the seed is issued at the start");
    assert_eq!(h.pump(1), Some(false), "the seed's first copy predates it");
    assert_eq!(h.pump(1), Some(false), "so does the send's");
    let seed = h.cs.link_idx(usize::MAX, 1);
    h.cs.apply_ack_ranges(seed, &[(1, 1)]);
    assert_eq!(h.cs.links[seed].lock().unacked.len(), 1, "an old ack");
    h.progress();
    assert_eq!(h.pump(1), Some(true), "the re-armed seed lands");
    assert_eq!(h.in_flight(), 0);
    assert_eq!(h.stats.snapshot().replayed_sends, 1);
}

#[test]
fn the_rollback_epoch_wraps_within_its_bits() {
    // 300 rollbacks carry the epoch past 255: a copy and an ack of the
    // current epoch still pass its fence.
    let h = Harness::new(2, FaultPlan::seeded(3).with_recovery(1_000));
    let rec = Recovery {
        cs: &h.cs,
        port: h.port(),
    };
    for _ in 0..300 {
        rec.pause().rollback(None);
    }
    assert_eq!(h.cs.epoch.load(Ordering::SeqCst), 300 % 256);
    h.send(0, 1, vec![1]);
    assert_eq!(h.pump(1), Some(true), "a current copy is fresh");
    std::thread::sleep(Duration::from_micros(200));
    h.progress();
    let li = h.cs.link_idx(0, 1);
    assert!(
        h.cs.links[li].lock().unacked.is_empty(),
        "its ack retires it"
    );
    assert_eq!(h.in_flight(), 0);
}

#[test]
fn a_pause_counts_against_no_retry_budget() {
    // An entry on its last retry waits out a pause ten budgets long with
    // its copy unread: on resume it is still held, and its copy is fresh.
    let mut plan = FaultPlan::seeded(5).with_recovery(1_000);
    plan.retry = crate::fault::RetryPolicy {
        base: Duration::from_millis(1),
        cap: Duration::from_millis(5),
        max_retries: 2,
    };
    let h = Harness::new(2, plan);
    let rec = Recovery {
        cs: &h.cs,
        port: h.port(),
    };
    h.send(0, 1, vec![3]);
    let li = h.cs.link_idx(0, 1);
    let attempts = || h.cs.links[li].lock().unacked.oldest().unwrap().1.attempts;
    let deadline = Instant::now() + Duration::from_secs(5);
    while attempts() < 2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_micros(100));
        h.progress();
    }
    assert_eq!(attempts(), 2, "the entry is on its last retry");
    let paused = rec.pause();
    std::thread::sleep(Duration::from_millis(110));
    drop(paused);
    h.progress();
    let errors = std::mem::take(&mut *h.errors.lock());
    assert!(errors.is_empty(), "{errors:?}");
    assert_eq!(h.pump(1), Some(true), "the first copy is fresh");
    assert_eq!(h.in_flight(), 0);
}
