//! The switchable sync facade. Production crates import their atomics,
//! locks and thread spawns from here instead of std/parking_lot:
//!
//! - In a normal build this module is zero-cost re-exports of the real
//!   types — nothing changes.
//! - Under the `checked` feature the locks are parking_lot's wrapped to
//!   record the order they are taken in (`lockdep`: a cycle is TTG050,
//!   two locks built at one site held at once TTG051).
//! - Under `RUSTFLAGS="--cfg ttg_model"` the same names resolve to the
//!   scheduler-routed shadow primitives from `crate::shadow`, so every
//!   atomic load/store/RMW and lock acquire becomes a schedule-exploration
//!   yield point, a spawned thread a model thread, and `Instant` the run's
//!   logical clock ([`crate::time`]), which only the model moves.
//!
//! [`EventCount`] — the one sleeping primitive of the runtime (DESIGN §5,
//! "Wake discipline") — is defined once over the facade types, so it is
//! automatically model-checkable too; the `event_count` case
//! ([`crate::event`]) instantiates the same definition over the
//! shadow primitives and explores it.

pub use std::sync::atomic::Ordering;

#[cfg(not(ttg_model))]
pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};

#[cfg(not(ttg_model))]
pub use std::time::Instant;

#[cfg(ttg_model)]
pub use crate::time::Instant;

#[cfg(all(not(ttg_model), not(feature = "checked")))]
pub use parking_lot::{Condvar, Mutex, MutexGuard};

#[cfg(all(not(ttg_model), feature = "checked"))]
pub use crate::lockdep::{Condvar, Mutex, MutexGuard};

#[cfg(not(ttg_model))]
pub use std::thread::JoinHandle;

/// Spawn a thread named `name`: a `std::thread` in a normal build, a model
/// thread under `--cfg ttg_model`.
#[cfg(not(ttg_model))]
pub fn spawn<T: Send + 'static>(
    name: String,
    f: impl FnOnce() -> T + Send + 'static,
) -> std::io::Result<JoinHandle<T>> {
    std::thread::Builder::new().name(name).spawn(f)
}

/// A model thread behind the `std::thread::JoinHandle` API.
#[cfg(ttg_model)]
pub struct JoinHandle<T>(crate::thread::JoinHandle<T>);

#[cfg(ttg_model)]
impl<T> JoinHandle<T> {
    /// Wait for the thread to finish (a schedule point).
    pub fn join(self) -> std::thread::Result<T> {
        Ok(self.0.join())
    }
}

/// Spawn a model thread named `name`.
#[cfg(ttg_model)]
pub fn spawn<T: Send + 'static>(
    name: String,
    f: impl FnOnce() -> T + Send + 'static,
) -> std::io::Result<JoinHandle<T>> {
    Ok(JoinHandle(crate::thread::spawn_named(&name, f)))
}

#[cfg(ttg_model)]
pub use crate::shadow::{AtomicBool, AtomicU64, AtomicUsize, Condvar, Mutex, MutexGuard};

/// Defines `EventCount` over whatever `AtomicU64`, `AtomicUsize`, `Mutex`,
/// `Condvar` and `Instant` are in scope where it is invoked: the facade's
/// here, the shadow primitives in the `event_count` case.
macro_rules! event_count {
    () => {
        /// Event count for lost-wakeup-free sleeping (Taskflow's two-phase
        /// notifier). A sleeper
        /// 1. **prepares**: registers as a sleeper and snapshots the epoch;
        /// 2. **re-checks** the condition it is about to sleep on;
        /// 3. **commits** ([`wait`](Self::wait) / [`wait_until`](Self::wait_until))
        ///    with that epoch, or **cancels** if the re-check found what it
        ///    waits for.
        ///
        /// A signaller changes the condition first, then signals. Because
        /// the sleeper is counted before its re-check, a signaller that
        /// reads no sleeper ran before the re-check and the re-check sees
        /// its change; one that reads a sleeper bumps the epoch *under the
        /// lock*, so the bump cannot slip between the committer's epoch
        /// comparison and its wait. With nobody asleep a signal costs one
        /// atomic load.
        pub struct EventCount {
            seq: AtomicU64,
            sleepers: AtomicUsize,
            lock: Mutex<()>,
            cv: Condvar,
        }

        impl EventCount {
            /// An event count nobody sleeps on yet. Under `checked` its
            /// lock's class is the caller's source location.
            #[cfg_attr(feature = "checked", track_caller)]
            pub fn new() -> Self {
                EventCount {
                    seq: AtomicU64::new(0),
                    sleepers: AtomicUsize::new(0),
                    lock: Mutex::new(()),
                    cv: Condvar::new(),
                }
            }

            /// Phase one: count the caller as a sleeper and return the
            /// epoch to commit with. Must be followed by the re-check and
            /// then exactly one of [`wait`](Self::wait),
            /// [`wait_until`](Self::wait_until) or [`cancel`](Self::cancel).
            pub fn prepare(&self) -> u64 {
                self.sleepers.fetch_add(1, Ordering::SeqCst);
                self.seq.load(Ordering::SeqCst)
            }

            /// Leave after [`prepare`](Self::prepare) without sleeping.
            pub fn cancel(&self) {
                self.sleepers.fetch_sub(1, Ordering::SeqCst);
            }

            /// Commit: sleep until a signal moves the epoch past `epoch`.
            pub fn wait(&self, epoch: u64) {
                let mut g = self.lock.lock();
                while self.seq.load(Ordering::SeqCst) == epoch {
                    self.cv.wait(&mut g);
                }
                drop(g);
                self.cancel();
            }

            /// Commit with a deadline: sleep until a signal moves the epoch
            /// past `epoch` or `deadline` passes. Returns whether a signal
            /// ended the wait.
            pub fn wait_until(&self, epoch: u64, deadline: Instant) -> bool {
                let mut g = self.lock.lock();
                let mut signalled = true;
                while self.seq.load(Ordering::SeqCst) == epoch {
                    if self.cv.wait_until(&mut g, deadline).timed_out() {
                        signalled = self.seq.load(Ordering::SeqCst) != epoch;
                        break;
                    }
                }
                drop(g);
                self.cancel();
                signalled
            }

            /// Publish an event and wake one sleeper.
            pub fn signal_one(&self) {
                self.signal(1);
            }

            /// Publish an event and wake up to `n` sleepers (never more
            /// than are counted).
            pub fn signal(&self, n: usize) {
                let sleepers = self.sleepers.load(Ordering::SeqCst);
                if sleepers == 0 || n == 0 {
                    return;
                }
                self.bump();
                for _ in 0..n.min(sleepers) {
                    self.cv.notify_one();
                }
            }

            /// Publish an event and wake every sleeper.
            pub fn signal_all(&self) {
                if self.sleepers.load(Ordering::SeqCst) == 0 {
                    return;
                }
                self.bump();
                self.cv.notify_all();
            }

            /// Takes the lock with nothing under it, so signalling while
            /// another lock is held cannot close a lock-order cycle.
            fn bump(&self) {
                let _g = self.lock.lock();
                self.seq.fetch_add(1, Ordering::SeqCst);
            }
        }

        impl Default for EventCount {
            fn default() -> Self {
                Self::new()
            }
        }
    };
}

pub(crate) use event_count;

event_count!();

#[cfg(test)]
#[cfg(not(ttg_model))]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    #[test]
    fn a_signal_with_nobody_asleep_is_a_no_op() {
        let ev = EventCount::new();
        ev.signal_all();
        ev.signal(3);
        assert_eq!(ev.seq.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn a_signal_after_prepare_ends_the_commit() {
        let ev = Arc::new(EventCount::new());
        let epoch = ev.prepare();
        let e2 = Arc::clone(&ev);
        let t = std::thread::spawn(move || e2.signal_one());
        ev.wait(epoch);
        t.join().unwrap();
        assert_eq!(ev.sleepers.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn wait_until_returns_at_the_deadline_without_a_signal() {
        let ev = EventCount::new();
        let epoch = ev.prepare();
        let start = Instant::now();
        assert!(!ev.wait_until(epoch, start + Duration::from_millis(20)));
        assert!(start.elapsed() >= Duration::from_millis(20));
        assert_eq!(ev.sleepers.load(Ordering::SeqCst), 0);
    }
}
