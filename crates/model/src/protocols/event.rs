//! Model of [`crate::sync::EventCount`], the runtime's one sleeping
//! primitive — the same definition, instantiated here over the shadow
//! primitives — with a deadline-bounded commit.
//!
//! Protocol under check — sleeper side (every waiting thread of the
//! runtime: a parking worker, the termination wait, the progress thread):
//! ```text
//! loop {
//!     epoch = ev.prepare();                 // count me, snapshot the epoch
//!     if condition() { ev.cancel(); return; }
//!     if !ev.wait_until(epoch, deadline) { return; }  // deadline passed
//! }
//! ```
//! Signaller side: change the condition, then `ev.signal_all()`.
//!
//! Invariant: the sleeper never sleeps through a published event — with a
//! deadline beyond every signal (the shadow condvar's other choice), a lost
//! wakeup is a deadlock — and every sleeper it counted is gone at the end.
//!
//! Mutations: [`Mutation::CommitWithoutPrepare`] takes the epoch snapshot
//! (and the sleeper count) after the re-check, so a signal landing between
//! them reads nobody asleep and is lost; [`Mutation::BumpOutsideLock`]
//! signals by bumping the epoch without the lock, so the bump can land
//! between the committer's epoch comparison and its wait. Both strand the
//! sleeper.

use crate::explore::{explore, Config, Stats, Violation};
use crate::shadow::{AtomicBool, AtomicU64, AtomicUsize, Condvar, Mutex};
use crate::sync::Ordering;
use crate::thread;
use std::sync::Arc;
use std::time::Instant;

crate::sync::event_count!();

/// Known-bad variants of the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// The correct protocol.
    None,
    /// The sleeper re-checks before it prepares.
    CommitWithoutPrepare,
    /// The signaller bumps the epoch without holding the lock.
    BumpOutsideLock,
}

struct Shared {
    ev: EventCount,
    /// The condition the sleeper waits for.
    published: AtomicBool,
}

fn sleeper(sh: &Shared, mutation: Mutation) {
    let deadline = Instant::now();
    loop {
        let epoch = if mutation == Mutation::CommitWithoutPrepare {
            if sh.published.load(Ordering::SeqCst) {
                return;
            }
            sh.ev.prepare()
        } else {
            let epoch = sh.ev.prepare();
            if sh.published.load(Ordering::SeqCst) {
                sh.ev.cancel();
                return;
            }
            epoch
        };
        if !sh.ev.wait_until(epoch, deadline) {
            return; // the deadline passed: the caller reports, not hangs
        }
    }
}

fn signaller(sh: &Shared, mutation: Mutation) {
    sh.published.store(true, Ordering::SeqCst);
    match mutation {
        Mutation::BumpOutsideLock => {
            if sh.ev.sleepers.load(Ordering::SeqCst) > 0 {
                sh.ev.seq.fetch_add(1, Ordering::SeqCst);
                sh.ev.cv.notify_all();
            }
        }
        _ => sh.ev.signal_all(),
    }
}

/// One sleeper, one signaller.
fn model(mutation: Mutation) {
    let sh = Arc::new(Shared {
        ev: EventCount::new(),
        published: AtomicBool::named(false, "published"),
    });
    let s = {
        let sh = Arc::clone(&sh);
        thread::spawn_named("sleeper", move || sleeper(&sh, mutation))
    };
    let t = {
        let sh = Arc::clone(&sh);
        thread::spawn_named("signaller", move || signaller(&sh, mutation))
    };
    t.join();
    // A lost wakeup leaves the sleeper on the condvar forever: the
    // scheduler reports the deadlock with the schedule that caused it.
    s.join();
    let left = sh.ev.sleepers.load(Ordering::SeqCst);
    assert!(left == 0, "{left} sleepers still counted after the wait");
}

/// Explore the protocol under `cfg`.
pub fn check(cfg: Config, mutation: Mutation) -> Result<Stats, Box<Violation>> {
    explore(cfg, move || model(mutation))
}
