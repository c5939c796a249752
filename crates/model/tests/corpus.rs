//! The protocol-model corpus: every correct protocol must explore
//! exhaustively without a violation, and every known-bad mutation must be
//! caught deterministically. The printed per-model schedule counts are the
//! coverage evidence CI archives.

use std::sync::{Arc, Mutex};
use ttg_model::protocols::{batch, corpus, event, handshake, matching, rollback, term};
use ttg_model::{Config, Sample, ViolationKind};

#[test]
fn corpus_correct_protocols_pass_exhaustively() {
    for entry in corpus() {
        let cfg = Config::bounded(entry.default_bound);
        let stats = (entry.run)(cfg).unwrap_or_else(|v| {
            panic!("{}: unexpected violation:\n{v}", entry.name);
        });
        println!(
            "model {:<18} bound={} {}",
            entry.name, entry.default_bound, stats
        );
        assert!(
            stats.exhaustive,
            "{}: exploration not exhaustive",
            entry.name
        );
        assert!(stats.schedules > 1, "{}: trivial exploration", entry.name);
    }
}

#[test]
fn event_count_mutation_found_without_sleep_sets_too() {
    // The pruning must never hide a bug: the same mutation is caught with
    // sleep sets disabled (and with them on, strictly fewer runs).
    let mut cfg = Config::bounded(3);
    cfg.sleep_sets = false;
    let v = event::check(cfg, event::Mutation::BumpOutsideLock)
        .expect_err("mutation must be caught without sleep sets");
    assert_eq!(v.kind, ViolationKind::Deadlock);
}

#[test]
fn sleep_sets_prune_without_changing_coverage_verdict() {
    let with = event::check(Config::bounded(2), event::Mutation::None).unwrap();
    let mut cfg = Config::bounded(2);
    cfg.sleep_sets = false;
    let without = event::check(cfg, event::Mutation::None).unwrap();
    assert!(with.exhaustive && without.exhaustive);
    assert!(
        with.schedules <= without.schedules,
        "sleep sets explored more ({}) than plain DFS ({})",
        with.schedules,
        without.schedules
    );
    assert!(with.pruned > 0, "sleep sets never pruned anything");
}

#[test]
fn event_count_commit_without_prepare_sleeps_through_the_signal() {
    let v = event::check(Config::bounded(3), event::Mutation::CommitWithoutPrepare)
        .expect_err("mutation must be caught");
    assert_eq!(v.kind, ViolationKind::Deadlock, "got: {v}");
    assert!(v.message.contains("waiting on condvar"), "got: {v}");
}

#[test]
fn event_count_bump_outside_the_lock_is_a_lost_wakeup() {
    let v = event::check(Config::bounded(3), event::Mutation::BumpOutsideLock)
        .expect_err("mutation must be caught");
    assert_eq!(v.kind, ViolationKind::Deadlock, "got: {v}");
    assert!(v.message.contains("waiting on condvar"), "got: {v}");
}

#[test]
fn batch_skip_seq_bump_strands_tasks() {
    let v = batch::check(Config::bounded(2), batch::Mutation::SkipSeqBump)
        .expect_err("mutation must be caught");
    assert_eq!(v.kind, ViolationKind::Deadlock, "got: {v}");
}

#[test]
fn batch_registering_units_after_the_enqueue_reads_idle_with_work_queued() {
    let v = batch::check(Config::bounded(2), batch::Mutation::RegisterAfterEnqueue)
        .expect_err("mutation must be caught");
    assert_eq!(v.kind, ViolationKind::Assert, "got: {v}");
    assert!(v.message.contains("idle with work queued"), "got: {v}");
}

#[test]
fn batch_releasing_the_pool_unit_at_dequeue_reads_idle_with_a_job_running() {
    let v = batch::check(Config::bounded(2), batch::Mutation::ReleaseAtDequeue)
        .expect_err("mutation must be caught");
    assert_eq!(v.kind, ViolationKind::Assert, "got: {v}");
    assert!(v.message.contains("idle with work queued"), "got: {v}");
}

#[test]
fn matching_check_then_act_breaks_exactly_once() {
    let v = matching::check(Config::bounded(3), matching::Mutation::CheckThenAct)
        .expect_err("mutation must be caught");
    assert_eq!(v.kind, ViolationKind::Assert, "got: {v}");
    assert!(v.message.contains("exactly-once"), "got: {v}");
}

#[test]
fn rollback_with_a_rank_left_running_at_the_cut_is_caught() {
    // The cut reads rank 1's link mid-packet: processed, not yet settled.
    let v = rollback::check(Config::bounded(1), rollback::Mutation::Unpaused)
        .expect_err("mutation must be caught");
    assert_eq!(v.kind, ViolationKind::Assert, "got: {v}");
    assert!(v.message.contains("ledger imbalance"), "got: {v}");
}

#[test]
fn rollback_dedup_hit_settling_is_caught() {
    let v = rollback::check(Config::bounded(1), rollback::Mutation::DedupSettles)
        .expect_err("mutation must be caught");
    assert_eq!(v.kind, ViolationKind::Assert, "got: {v}");
    assert!(v.message.contains("settled past issued"), "got: {v}");
}

#[test]
fn rollback_without_the_epoch_fence_is_caught() {
    let v = rollback::check(Config::bounded(1), rollback::Mutation::NoFence)
        .expect_err("mutation must be caught");
    assert_eq!(v.kind, ViolationKind::Assert, "got: {v}");
    assert!(v.message.contains("settled past issued"), "got: {v}");
}

#[test]
fn term_declaring_on_one_round_trusts_a_stale_idle_reply() {
    // Two preemptions reach it (the coordinator after rank 1's reply, rank
    // 1's handler after its send), but the representative the sleep sets
    // keep of that class of schedules spends a third: bound 3, ~3k runs
    // (bound 2 finds it only with pruning off, after 277k).
    let v = term::check(Config::bounded(3), term::Mutation::OneRound)
        .expect_err("mutation must be caught");
    assert_eq!(v.kind, ViolationKind::Assert, "got: {v}");
    assert!(v.message.contains("terminated early"), "got: {v}");
}

#[test]
fn term_settling_before_the_handler_balances_over_an_unsent_reply() {
    let v = term::check(Config::bounded(3), term::Mutation::SettleBeforeHandler)
        .expect_err("mutation must be caught");
    assert_eq!(v.kind, ViolationKind::Assert, "got: {v}");
    assert!(v.message.contains("terminated early"), "got: {v}");
}

#[test]
fn handshake_fresh_reader_codec_reproduces_pr7_desync() {
    // The PR 7 bug, un-reverted in model form: must be found even with
    // zero preemptions (the bug needs no racing writer, just an unlucky
    // read boundary, which nondet read sizes enumerate).
    let v = handshake::check(Config::bounded(0), handshake::Mutation::FreshReaderCodec)
        .expect_err("the shipped handshake bug must be reproduced");
    assert_eq!(v.kind, ViolationKind::Assert, "got: {v}");
    assert!(
        v.message.contains("dropped") || v.message.contains("desynced"),
        "got: {v}"
    );
}

#[test]
fn handshake_bulk_handoff_dropping_its_staged_prefix_starves_the_reader() {
    // The bulk receive path's own hand-off (staged bytes → the payload's
    // buffer): forgetting the payload bytes staged with the header is the
    // same class of bug one layer down, and needs no preemption either.
    let v = handshake::check(
        Config::bounded(0),
        handshake::Mutation::BulkDropsStagedPrefix,
    )
    .expect_err("bytes dropped at the bulk hand-off must be found");
    assert_eq!(v.kind, ViolationKind::Assert, "got: {v}");
    assert!(v.message.contains("dropped"), "got: {v}");
}

#[test]
fn violations_replay_deterministically() {
    let a = event::check(Config::bounded(3), event::Mutation::BumpOutsideLock).unwrap_err();
    let b = event::check(Config::bounded(3), event::Mutation::BumpOutsideLock).unwrap_err();
    assert_eq!(a.trace, b.trace, "same config must find the same schedule");
    assert_eq!(a.stats.runs(), b.stats.runs());
}

#[test]
fn iterative_bounding_reports_per_bound_coverage() {
    let per_bound = ttg_model::explore_iterative(Config::default(), 2, || {
        let flag = std::sync::Arc::new(ttg_model::shadow::AtomicBool::new(false));
        let f2 = std::sync::Arc::clone(&flag);
        let t = ttg_model::thread::spawn(move || {
            f2.store(true, ttg_model::sync::Ordering::SeqCst);
        });
        let _ = flag.load(ttg_model::sync::Ordering::SeqCst);
        t.join();
    })
    .unwrap();
    assert_eq!(per_bound.len(), 3);
    for s in &per_bound {
        assert!(s.exhaustive);
    }
    // More preemptions allowed => at least as many schedules.
    assert!(per_bound[0].schedules <= per_bound[2].schedules);
}

#[test]
fn a_clock_read_sees_an_advance_in_either_order_and_after_a_join() {
    use std::collections::BTreeSet;
    use std::time::Duration;
    use ttg_model::time::{advance, Instant};
    let seen = Arc::new(Mutex::new(BTreeSet::new()));
    let record = Arc::clone(&seen);
    let tick = Duration::from_millis(1);
    let stats = ttg_model::explore(Config::bounded(2), move || {
        let t0 = Instant::now();
        let h = ttg_model::thread::spawn(move || advance(tick));
        let t1 = Instant::now();
        h.join();
        assert_eq!(t0.elapsed(), tick, "a joined advance is seen");
        let read = t1.saturating_duration_since(t0);
        record.lock().unwrap().insert(read);
    })
    .unwrap();
    assert!(stats.exhaustive);
    let both = BTreeSet::from([Duration::ZERO, tick]);
    assert_eq!(*seen.lock().unwrap(), both, "reads race the advance");
}

#[test]
fn sampling_mode_is_seeded_and_bounded() {
    let cfg = Config {
        sample: Some(Sample { seed: 42, runs: 64 }),
        ..Config::default()
    };
    let s = event::check(cfg, event::Mutation::None).unwrap();
    assert!(!s.exhaustive);
    assert_eq!(s.runs(), 64);
}

#[test]
#[ignore = "mutation gate: exercised explicitly by CI's model-smoke job"]
fn mutation_gate_pr7_handshake_desync() {
    // CI runs this (ignored-by-default) test to assert the checker keeps
    // finding the shipped PR 7 handshake desync when its fix is reverted.
    let v = handshake::check(Config::bounded(1), handshake::Mutation::FreshReaderCodec)
        .expect_err("checker lost the ability to find the PR 7 desync");
    println!("PR 7 desync reproduced:\n{v}");
    // And the fixed protocol stays clean under the same budget.
    let stats = handshake::check(Config::bounded(1), handshake::Mutation::None)
        .expect("fixed handshake must pass");
    assert!(stats.exhaustive);
}
