//! Model of the worker pool's event-counter sleep protocol
//! (`crates/runtime/src/pool.rs`), in the single-phase form it had before
//! the pool parked on [`crate::sync::EventCount`] (whose two-phase form
//! the `event_count` case explores). The epoch/lock pairing checked here
//! is the one the event count keeps.
//!
//! Protocol under check — worker side:
//! ```text
//! loop {
//!     seq = wake_seq.load();           // snapshot BEFORE re-check
//!     if let Some(job) = find_job()     { run(job); }
//!     else {
//!         lock(sleep_lock);
//!         while wake_seq.load() == seq  { wait(wake, sleep_lock); }
//!         unlock(sleep_lock);
//!     }
//! }
//! ```
//! Submitter side: `push(job); { lock(sleep_lock); wake_seq += 1; } notify`.
//!
//! The invariant: a submit concurrent with a parking worker leaves the job
//! claimed or the worker awake — never a sleeping worker with a queued
//! job. The load-bearing detail is bumping `wake_seq` *under* `sleep_lock`:
//! the worker's predicate check and its wait are made atomic against the
//! bump, because the submitter cannot bump while the worker holds the lock
//! and the wait releases the lock atomically. The
//! [`Mutation::BumpOutsideLock`] variant drops that, letting the
//! bump+notify land between the worker's predicate check and its wait —
//! the notify hits no waiter, the stale predicate re-passes, and the
//! worker sleeps forever on a non-empty queue. The checker reports it as a
//! deadlock with the exact interleaving.

use crate::explore::{explore, Config, Stats, Violation};
use crate::shadow::{AtomicU64, Condvar, Mutex};
use crate::sync::Ordering::SeqCst;
use crate::thread;
use std::sync::Arc;

/// Known-bad variants of the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// The correct protocol.
    None,
    /// Bump `wake_seq` without holding `sleep_lock` (the classic lost
    /// wakeup this protocol exists to prevent).
    BumpOutsideLock,
}

struct Shared {
    wake_seq: AtomicU64,
    sleep_lock: Mutex<()>,
    wake: Condvar,
    queue: Mutex<Vec<u64>>,
}

fn announce(sh: &Shared, mutation: Mutation) {
    match mutation {
        Mutation::None => {
            let _g = sh.sleep_lock.lock();
            sh.wake_seq.fetch_add(1, SeqCst);
        }
        Mutation::BumpOutsideLock => {
            sh.wake_seq.fetch_add(1, SeqCst);
        }
    }
    sh.wake.notify_one();
}

/// The model: one worker racing one submitter over a single job.
fn model(mutation: Mutation) {
    let sh = Arc::new(Shared {
        wake_seq: AtomicU64::named(0, "wake_seq"),
        sleep_lock: Mutex::named((), "sleep_lock"),
        wake: Condvar::new(),
        queue: Mutex::named(Vec::new(), "queue"),
    });

    let worker = {
        let sh = Arc::clone(&sh);
        thread::spawn_named("worker", move || {
            loop {
                // Snapshot the epoch before re-checking for work; any
                // submit after this point bumps the epoch and defeats the
                // wait predicate below.
                let seq = sh.wake_seq.load(SeqCst);
                if sh.queue.lock().pop().is_some() {
                    // Job claimed: the worker's part of the invariant holds.
                    return;
                }
                let mut g = sh.sleep_lock.lock();
                while sh.wake_seq.load(SeqCst) == seq {
                    sh.wake.wait(&mut g);
                }
                drop(g);
            }
        })
    };

    let submitter = {
        let sh = Arc::clone(&sh);
        thread::spawn_named("submitter", move || {
            sh.queue.lock().push(7);
            announce(&sh, mutation);
        })
    };

    submitter.join();
    // If the wakeup was lost, the worker sleeps forever here and the
    // scheduler reports the deadlock (with the schedule that caused it).
    worker.join();
}

/// Explore the protocol under `cfg`.
pub fn check(cfg: Config, mutation: Mutation) -> Result<Stats, Box<Violation>> {
    explore(cfg, move || model(mutation))
}
