//! Shadow synchronization primitives: API-compatible stand-ins for the
//! std/parking_lot types whose every operation is a scheduler yield point.
//! The `event_count` case uses these directly; production crates get them
//! transparently through [`crate::sync`] when built with `--cfg ttg_model`.
//!
//! All state lives behind real (parking_lot) locks, but the scheduler
//! serializes model threads, so those locks are never contended — they
//! just make the types `Sync` without `unsafe`.

/// Declares an item `pub` where the [`crate::sync`] facade re-exports it
/// (`--cfg ttg_model`), and crate-private otherwise, where only the
/// `event_count` case uses it.
macro_rules! facade_pub {
    ($(#[$m:meta])* $kw:ident $($rest:tt)*) => {
        #[cfg(ttg_model)]
        $(#[$m])* pub $kw $($rest)*
        #[cfg(not(ttg_model))]
        $(#[$m])* pub(crate) $kw $($rest)*
    };
}

use std::ops::{Deref, DerefMut};
use std::sync::atomic::Ordering;

use crate::sched::{self, sync_op, Op, OpKind};
use crate::time::Deadline;

// ------------------------------------------------------------------ atomics

facade_pub! {
    /// Shadow counterpart of a std atomic; memory orderings are accepted for
    /// API compatibility and treated as SeqCst (the model explores
    /// sequentially consistent interleavings only).
    struct Atomic<T> {
        id: sched::ObjId,
        v: parking_lot::Mutex<T>,
    }
}

facade_pub! {
    /// Shadow `AtomicBool`.
    type AtomicBool = Atomic<bool>;
}
facade_pub! {
    /// Shadow `AtomicU64`.
    type AtomicU64 = Atomic<u64>;
}
facade_pub! {
    /// Shadow `AtomicUsize`.
    type AtomicUsize = Atomic<usize>;
}

impl<T: Copy + PartialEq> Atomic<T> {
    facade_pub! {
        fn new(v: T) -> Self {
            Self::named(v, "atomic")
        }
    }

    /// Like `new`, with a name that shows up in violation traces.
    pub(crate) fn named(v: T, name: &str) -> Self {
        let (s, _) = sched::current();
        Atomic {
            id: s.register_obj(name, "atomic"),
            v: parking_lot::Mutex::new(v),
        }
    }

    facade_pub! {
        fn load(&self, _o: Ordering) -> T {
            sync_op(OpKind::Read, self.id);
            *self.v.lock()
        }
    }

    facade_pub! {
        fn store(&self, val: T, _o: Ordering) {
            sync_op(OpKind::Write, self.id);
            *self.v.lock() = val;
        }
    }

    /// Apply `f` as one read-modify-write; returns the old value.
    fn rmw(&self, f: impl FnOnce(T) -> T) -> T {
        sync_op(OpKind::Rmw, self.id);
        let mut g = self.v.lock();
        let old = *g;
        *g = f(old);
        old
    }
}

/// The read-modify-writes only production code calls, through the facade.
#[cfg(ttg_model)]
impl<T: Copy + PartialEq> Atomic<T> {
    pub fn swap(&self, val: T, _o: Ordering) -> T {
        self.rmw(|_| val)
    }

    pub fn compare_exchange(
        &self,
        current: T,
        new: T,
        _success: Ordering,
        _failure: Ordering,
    ) -> Result<T, T> {
        let old = self.rmw(|v| if v == current { new } else { v });
        if old == current {
            Ok(old)
        } else {
            Err(old)
        }
    }
}

facade_pub! {
    /// The integers a shadow atomic counts with.
    trait Int: Copy + Ord {
        fn wrapping_add(self, v: Self) -> Self;
        fn wrapping_sub(self, v: Self) -> Self;
    }
}

impl Int for u64 {
    fn wrapping_add(self, v: u64) -> u64 {
        u64::wrapping_add(self, v)
    }
    fn wrapping_sub(self, v: u64) -> u64 {
        u64::wrapping_sub(self, v)
    }
}

impl Int for usize {
    fn wrapping_add(self, v: usize) -> usize {
        usize::wrapping_add(self, v)
    }
    fn wrapping_sub(self, v: usize) -> usize {
        usize::wrapping_sub(self, v)
    }
}

impl<T: Int> Atomic<T> {
    facade_pub! {
        fn fetch_add(&self, val: T, _o: Ordering) -> T {
            self.rmw(|v| v.wrapping_add(val))
        }
    }

    facade_pub! {
        fn fetch_sub(&self, val: T, _o: Ordering) -> T {
            self.rmw(|v| v.wrapping_sub(val))
        }
    }

    #[cfg(ttg_model)]
    pub fn fetch_min(&self, val: T, _o: Ordering) -> T {
        self.rmw(|v| v.min(val))
    }
}

// -------------------------------------------------------------------- mutex

facade_pub! {
    /// Shadow mutex: `lock()` is a yield point that blocks (in scheduler
    /// terms) until the model mutex is free.
    struct Mutex<T> {
        id: sched::ObjId,
        inner: parking_lot::Mutex<T>,
    }
}

impl<T> Mutex<T> {
    facade_pub! {
        fn new(v: T) -> Self {
            let (s, _) = sched::current();
            Mutex {
                id: s.register_obj("Mutex", "mutex"),
                inner: parking_lot::Mutex::new(v),
            }
        }
    }

    facade_pub! {
        fn lock(&self) -> MutexGuard<'_, T> {
            sync_op(OpKind::Lock, self.id);
            let inner = if std::thread::panicking() {
                // Unwinding, unscheduled. The run aborted as the panic began,
                // so a holder parked inside its critical section unwinds too
                // and lets go.
                self.inner.lock()
            } else {
                self.inner
                    .try_lock()
                    .expect("model mutex granted but OS lock contended")
            };
            MutexGuard {
                lock: self,
                inner: Some(inner),
            }
        }
    }
}

facade_pub! {
    /// Guard whose drop is the `Unlock` yield point.
    struct MutexGuard<'a, T> {
        lock: &'a Mutex<T>,
        inner: Option<parking_lot::MutexGuard<'a, T>>,
    }
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard released")
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard released")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if self.inner.take().is_none() {
            return;
        }
        if std::thread::panicking() {
            // Unwinding (assertion failure or run abort): free the model
            // mutex without a schedule point so the dying thread neither
            // blocks nor double-panics.
            let (s, _) = sched::current();
            s.force_unlock(self.lock.id);
        } else {
            sync_op(OpKind::Unlock, self.lock.id);
        }
    }
}

// -------------------------------------------------------------------- queue

/// Unbounded FIFO whose push and pop are yield points; `pop` blocks (in
/// scheduler terms) while it is empty. A case's stand-in for a link or a
/// delivery queue: one scheduling point per transfer.
pub struct Queue<T> {
    id: sched::ObjId,
    items: parking_lot::Mutex<std::collections::VecDeque<T>>,
}

impl<T> Queue<T> {
    pub fn new() -> Self {
        let (s, _) = sched::current();
        Queue {
            id: s.register_obj("Queue", "queue"),
            items: parking_lot::Mutex::new(std::collections::VecDeque::new()),
        }
    }

    pub fn push(&self, item: T) {
        sync_op(OpKind::Push, self.id);
        self.items.lock().push_back(item);
    }

    pub fn pop(&self) -> T {
        sync_op(OpKind::Pop, self.id);
        let item = self.items.lock().pop_front();
        item.expect("a pop granted on an empty queue")
    }
}

impl<T> Default for Queue<T> {
    fn default() -> Self {
        Self::new()
    }
}

// ------------------------------------------------------------------ condvar

facade_pub! {
    /// Shadow condition variable. No spurious wakeups are modeled: a waiter
    /// only resumes after a notify (callers still need the usual predicate
    /// loop, which the models under check do have).
    struct Condvar {
        id: sched::ObjId,
    }
}

impl Condvar {
    facade_pub! {
        fn new() -> Self {
            let (s, _) = sched::current();
            Condvar {
                id: s.register_obj("Condvar", "condvar"),
            }
        }
    }

    facade_pub! {
        fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
            let (s, tid) = sched::current();
            let mutex_id = guard.lock.id;
            // Atomically (in model terms) release the mutex and park.
            guard.inner = None;
            s.yield_op(
                tid,
                Op {
                    kind: OpKind::CvWait,
                    obj: self.id,
                    arg: mutex_id,
                },
            );
            s.cv_block(tid);
            // Scheduled again with the mutex re-granted.
            guard.inner = Some(
                guard
                    .lock
                    .inner
                    .try_lock()
                    .expect("model mutex re-granted but OS lock contended"),
            );
        }
    }

    facade_pub! {
        /// Timed wait. The model has no clock: the timeout is taken as firing
        /// immediately, which is always a legal execution of a timed wait (the
        /// caller's predicate loop must absorb it like a spurious wakeup).
        /// The mutex is still released and reacquired across yield points, so
        /// other threads interleave exactly as they could in a real timeout.
        fn wait_for<T>(
            &self,
            guard: &mut MutexGuard<'_, T>,
            _timeout: std::time::Duration,
        ) -> WaitTimeoutResult {
            let m = guard.lock;
            guard.inner = None;
            sync_op(OpKind::Unlock, m.id);
            sync_op(OpKind::Lock, m.id);
            guard.inner = Some(
                m.inner
                    .try_lock()
                    .expect("model mutex re-granted but OS lock contended"),
            );
            WaitTimeoutResult(true)
        }
    }

    facade_pub! {
        /// Wait with a deadline, wall-clock or logical. Either way the
        /// deadline is a nondeterministic choice: it fires at once (as
        /// [`wait_for`](Self::wait_for) models a timeout) or lies beyond every
        /// notify — an untimed wait, in which a lost wakeup is a deadlock the
        /// explorer reports.
        fn wait_until<T>(
            &self,
            guard: &mut MutexGuard<'_, T>,
            _deadline: impl Deadline,
        ) -> WaitTimeoutResult {
            if sched::nondet(2) == 1 {
                return self.wait_for(guard, std::time::Duration::ZERO);
            }
            self.wait(guard);
            WaitTimeoutResult(false)
        }
    }

    facade_pub! {
        fn notify_one(&self) {
            let (s, tid) = sched::current();
            s.yield_op(
                tid,
                Op {
                    kind: OpKind::CvNotify,
                    obj: self.id,
                    arg: 0,
                },
            );
        }
    }

    facade_pub! {
        fn notify_all(&self) {
            let (s, tid) = sched::current();
            s.yield_op(
                tid,
                Op {
                    kind: OpKind::CvNotify,
                    obj: self.id,
                    arg: u64::MAX,
                },
            );
        }
    }
}

facade_pub! {
    /// Result of [`Condvar::wait_for`]; mirrors the parking_lot API.
    #[derive(Debug, Clone, Copy)]
    struct WaitTimeoutResult(bool);
}

impl WaitTimeoutResult {
    /// Whether the wait ended by timeout rather than a notification.
    pub(crate) fn timed_out(&self) -> bool {
        self.0
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore, Config};
    use std::sync::Arc;

    /// Locks its mutex when dropped, as `Paused`'s drop locks every link.
    struct LocksOnDrop(Arc<Mutex<()>>);

    impl Drop for LocksOnDrop {
        fn drop(&mut self) {
            drop(self.0.lock());
        }
    }

    #[test]
    fn an_assertion_unwinding_into_a_held_lock_is_reported() {
        let v = explore(Config::bounded(2), || {
            let m = Arc::new(Mutex::new(()));
            let held = Arc::new(AtomicBool::new(false));
            let holder = {
                let (m, held) = (Arc::clone(&m), Arc::clone(&held));
                crate::thread::spawn_named("holder", move || {
                    let _guard = m.lock();
                    held.store(true, Ordering::SeqCst);
                    held.store(false, Ordering::SeqCst);
                })
            };
            let _locks = LocksOnDrop(m);
            assert!(!held.load(Ordering::SeqCst), "found the lock held");
            holder.join();
        })
        .expect_err("the holder can be preempted inside its critical section");
        assert!(v.message.contains("found the lock held"), "{v}");
    }
}
