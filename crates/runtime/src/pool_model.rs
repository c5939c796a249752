//! Model case of a pool's group submit and its quiescence unit: the
//! shipped [`WorkerPool`] and [`Quiescence`] explored by
//! `ttg_model::explore` (`RUSTFLAGS="--cfg ttg_model" cargo test -p
//! ttg-runtime --lib`), its workers model threads running the shipped
//! worker loop.
//!
//! A submitter — a running task, or a packet in flight, which holds a unit
//! of its own until its submit returns — hands a one-worker pool a group of
//! two jobs in one `submit_batch`, while a waiter parks until the execution
//! reads quiescent (`wait_quiescent`). Invariant: by then every job has run
//! and the submit has returned. A job stranded on a parked pool shows as a
//! deadlock. (A second worker costs 35 times the schedules at this bound
//! and catches no more of the mutants.)

use super::*;
use ttg_model::{explore, thread, Config};

/// The preemption bound the case explores exhaustively.
const BOUND: usize = 2;
/// Jobs in the group.
const JOBS: usize = 2;

fn batch() {
    let q = Arc::new(Quiescence::new());
    let pool = Arc::new(WorkerPool::new(
        1,
        SchedulerKind::Central,
        Arc::clone(&q),
        "pool",
    ));
    let executed = Arc::new(AtomicUsize::new(0));
    let submitted = Arc::new(AtomicBool::new(false));
    q.activity_started();
    let submitter = {
        let (pool, q) = (Arc::clone(&pool), Arc::clone(&q));
        let (executed, submitted) = (Arc::clone(&executed), Arc::clone(&submitted));
        thread::spawn_named("submitter", move || {
            let job = |_| {
                let executed = Arc::clone(&executed);
                Job::new(move || _ = executed.fetch_add(1, Ordering::SeqCst))
            };
            pool.submit_batch((0..JOBS).map(job).collect());
            submitted.store(true, Ordering::SeqCst);
            q.activity_finished();
        })
    };
    let waiter = {
        let q = Arc::clone(&q);
        thread::spawn_named("waiter", move || {
            q.wait_quiescent();
            let executed = executed.load(Ordering::SeqCst);
            let submitted = submitted.load(Ordering::SeqCst);
            assert!(
                executed == JOBS && submitted,
                "quiescence read idle with work queued: executed {executed} of {JOBS}, \
                 submit returned: {submitted}"
            );
        })
    };
    submitter.join();
    waiter.join();
    pool.shutdown();
}

#[test]
fn batch_case() {
    let stats =
        explore(Config::bounded(BOUND), batch).unwrap_or_else(|v| panic!("model case batch: {v}"));
    println!("model pool::batch bound={BOUND} {stats}");
    assert!(stats.exhaustive && stats.schedules > 1, "batch: {stats}");
}
