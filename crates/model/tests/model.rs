//! The explorer on the `event_count` case: the correct event count must
//! explore exhaustively without a violation, each known-bad mutation must
//! be caught deterministically, and the reductions and the logical clock
//! must keep their promises. The printed schedule counts are the coverage
//! evidence CI archives.

use std::sync::{Arc, Mutex};
use std::time::Duration;
use ttg_model::event::{check, Mutation};
use ttg_model::time::{advance, Instant};
use ttg_model::{Config, Sample, ViolationKind};

#[test]
fn event_count_passes_exhaustively() {
    let stats = check(Config::bounded(3), Mutation::None).unwrap_or_else(|v| panic!("{v}"));
    println!("model event_count bound=3 {stats}");
    assert!(stats.exhaustive && stats.schedules > 1, "{stats}");
}

#[test]
fn event_count_mutation_found_without_sleep_sets_too() {
    // The pruning must never hide a bug: the same mutation is caught with
    // sleep sets disabled (and with them on, strictly fewer runs).
    let mut cfg = Config::bounded(3);
    cfg.sleep_sets = false;
    let v = check(cfg, Mutation::BumpOutsideLock)
        .expect_err("mutation must be caught without sleep sets");
    assert_eq!(v.kind, ViolationKind::Deadlock);
}

#[test]
fn sleep_sets_prune_without_changing_coverage_verdict() {
    let with = check(Config::bounded(2), Mutation::None).unwrap();
    let mut cfg = Config::bounded(2);
    cfg.sleep_sets = false;
    let without = check(cfg, Mutation::None).unwrap();
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
    let v = check(Config::bounded(3), Mutation::CommitWithoutPrepare)
        .expect_err("mutation must be caught");
    assert_eq!(v.kind, ViolationKind::Deadlock, "got: {v}");
    assert!(v.message.contains("waiting on condvar"), "got: {v}");
}

#[test]
fn event_count_bump_outside_the_lock_is_a_lost_wakeup() {
    let v =
        check(Config::bounded(3), Mutation::BumpOutsideLock).expect_err("mutation must be caught");
    assert_eq!(v.kind, ViolationKind::Deadlock, "got: {v}");
    assert!(v.message.contains("waiting on condvar"), "got: {v}");
}

#[test]
fn violations_replay_deterministically() {
    let a = check(Config::bounded(3), Mutation::BumpOutsideLock).unwrap_err();
    let b = check(Config::bounded(3), Mutation::BumpOutsideLock).unwrap_err();
    assert_eq!(a.trace, b.trace, "same config must find the same schedule");
    assert_eq!(a.stats.runs(), b.stats.runs());
}

#[test]
fn iterative_bounding_reports_per_bound_coverage() {
    let per_bound = ttg_model::explore_iterative(Config::default(), 2, || {
        let t = ttg_model::thread::spawn(|| advance(Duration::from_millis(1)));
        let _ = Instant::now();
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
    let s = check(cfg, Mutation::None).unwrap();
    assert!(!s.exhaustive);
    assert_eq!(s.runs(), 64);
}
