//! Model of a pool's batched submit and its two-level quiescence count
//! (`WorkerPool::submit_group` and `job_done` in
//! `crates/runtime/src/pool.rs`, fed by `crates/core/src/batch.rs`): a
//! group of jobs is enqueued together and announced with a *single* epoch
//! bump (the pool's `EventCount` then wakes one parked worker per job; the
//! model wakes all, a superset). The pool counts its own queued and running
//! jobs (`busy`) and is one unit of the execution's quiescence count
//! (`active`): the submit whose add finds `busy` at 0 registers the unit
//! before the first job is queued, and the job whose finish brings `busy`
//! back to 0 releases it.
//!
//! Invariants checked across all interleavings of two workers and one
//! batching submitter:
//! - every job in the batch executes (no task stranded — a stranded task
//!   shows up as a deadlocked sleeping worker);
//! - the submit path performs exactly one announce for the whole group;
//! - the quiescence count reads idle only once every job has run and the
//!   submitter (a running task, or a packet in flight, which holds a unit
//!   of its own until its submit returns) is done.
//!
//! [`Mutation::SkipSeqBump`] notifies without bumping the epoch: workers
//! already parked re-check their stale snapshot, re-pass the predicate,
//! and go back to sleep over a non-empty queue — the checker finds the
//! stranded-task deadlock. [`Mutation::RegisterAfterEnqueue`] queues the
//! group before registering the pool's unit: the workers drain the pool
//! and release a unit that does not exist yet, and the count reads idle
//! while the submit is still in progress. [`Mutation::ReleaseAtDequeue`]
//! counts only queued jobs: the unit goes when the last job is taken, and
//! the count reads idle while that job still runs.

use crate::explore::{explore, Config, Stats, Violation};
use crate::shadow::{AtomicBool, AtomicU64, AtomicUsize, Condvar, Mutex};
use crate::sync::Ordering::SeqCst;
use crate::thread;
use std::sync::Arc;

/// Known-bad variants of the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// The correct protocol.
    None,
    /// Announce the batch with `notify_all` but without bumping
    /// `wake_seq`, so already-parked workers re-sleep on their stale
    /// epoch snapshot.
    SkipSeqBump,
    /// Register the pool's quiescence unit after the group is queued.
    RegisterAfterEnqueue,
    /// Count a job out of `busy` when it is taken, not when it finishes.
    ReleaseAtDequeue,
}

const JOBS: usize = 2;

struct Shared {
    wake_seq: AtomicU64,
    sleep_lock: Mutex<()>,
    wake: Condvar,
    queue: Mutex<Vec<u64>>,
    executed: AtomicUsize,
    /// Announces performed by the submit path (not by finishing workers).
    submit_announces: AtomicUsize,
    /// The pool's queued and running jobs.
    busy: AtomicU64,
    /// Quiescence units: the pool's one while it is busy, plus the
    /// submitter's own until its submit returns.
    active: AtomicU64,
    /// Set by the submitter as its submit returns.
    submitted: AtomicBool,
}

/// Release one quiescence unit. Whoever brings the counter to zero is what
/// the termination detector sees as idle: every job must have run, and the
/// submit returned, by then.
fn finish_unit(sh: &Shared) {
    let before = sh.active.fetch_sub(1, SeqCst);
    assert!(before > 0, "a unit was released before it was registered");
    if before == 1 {
        let executed = sh.executed.load(SeqCst);
        let submitted = sh.submitted.load(SeqCst);
        assert!(
            executed == JOBS && submitted,
            "quiescence read idle with work queued: executed {executed} of {JOBS}, \
             submit returned: {submitted}"
        );
    }
}

/// Count one job out of the pool; the one that leaves it idle releases
/// the pool's unit.
fn leave_pool(sh: &Shared) {
    if sh.busy.fetch_sub(1, SeqCst) == 1 {
        finish_unit(sh);
    }
}

fn announce_all(sh: &Shared) {
    {
        let _g = sh.sleep_lock.lock();
        sh.wake_seq.fetch_add(1, SeqCst);
    }
    sh.wake.notify_all();
}

fn worker(sh: &Shared, mutation: Mutation) {
    loop {
        let seq = sh.wake_seq.load(SeqCst);
        if sh.executed.load(SeqCst) == JOBS {
            return;
        }
        if sh.queue.lock().pop().is_some() {
            if mutation == Mutation::ReleaseAtDequeue {
                leave_pool(sh);
            }
            let done = sh.executed.fetch_add(1, SeqCst) + 1;
            if mutation != Mutation::ReleaseAtDequeue {
                leave_pool(sh);
            }
            if done == JOBS {
                // Last finisher broadcasts so idle peers can exit (the
                // model's stand-in for pool shutdown).
                announce_all(sh);
            }
            continue;
        }
        let mut g = sh.sleep_lock.lock();
        while sh.wake_seq.load(SeqCst) == seq && sh.executed.load(SeqCst) < JOBS {
            sh.wake.wait(&mut g);
        }
        drop(g);
    }
}

/// Two workers, one submitter batching two jobs.
fn model(mutation: Mutation) {
    let sh = Arc::new(Shared {
        wake_seq: AtomicU64::named(0, "wake_seq"),
        sleep_lock: Mutex::named((), "sleep_lock"),
        wake: Condvar::new(),
        queue: Mutex::named(Vec::new(), "queue"),
        executed: AtomicUsize::named(0, "executed"),
        submit_announces: AtomicUsize::named(0, "submit_announces"),
        busy: AtomicU64::named(0, "busy"),
        active: AtomicU64::named(1, "active"),
        submitted: AtomicBool::named(false, "submitted"),
    });

    let workers: Vec<_> = (0..2)
        .map(|i| {
            let sh = Arc::clone(&sh);
            thread::spawn_named(&format!("worker{i}"), move || worker(&sh, mutation))
        })
        .collect();

    let submitter = {
        let sh = Arc::clone(&sh);
        thread::spawn_named("submitter", move || {
            // The group is counted, and an idle pool's unit registered,
            // before its first job can finish…
            let was_idle = sh.busy.fetch_add(JOBS as u64, SeqCst) == 0;
            if was_idle && mutation != Mutation::RegisterAfterEnqueue {
                sh.active.fetch_add(1, SeqCst);
            }
            {
                // …the whole batch lands under one queue lock…
                let mut q = sh.queue.lock();
                for j in 0..JOBS as u64 {
                    q.push(j);
                }
            }
            if was_idle && mutation == Mutation::RegisterAfterEnqueue {
                sh.active.fetch_add(1, SeqCst);
            }
            // …and is announced exactly once.
            sh.submit_announces.fetch_add(1, SeqCst);
            match mutation {
                Mutation::SkipSeqBump => sh.wake.notify_all(),
                _ => announce_all(&sh),
            }
            // The submit returned: the submitter's own unit goes.
            sh.submitted.store(true, SeqCst);
            finish_unit(&sh);
        })
    };

    submitter.join();
    for w in workers {
        w.join();
    }
    let executed = sh.executed.load(SeqCst);
    assert!(
        executed == JOBS,
        "batch stranded jobs: executed {executed} of {JOBS}"
    );
    let announces = sh.submit_announces.load(SeqCst);
    assert!(
        announces == 1,
        "batch submit announced {announces} times, want exactly 1"
    );
}

/// Explore the protocol under `cfg`.
pub fn check(cfg: Config, mutation: Mutation) -> Result<Stats, Box<Violation>> {
    explore(cfg, move || model(mutation))
}
