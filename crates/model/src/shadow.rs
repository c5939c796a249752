//! Shadow synchronization primitives: API-compatible stand-ins for the
//! std/parking_lot types whose every operation is a scheduler yield point.
//! The protocol models use these directly; production crates get them
//! transparently through [`crate::sync`] when built with `--cfg ttg_model`.
//!
//! All state lives behind real (parking_lot) locks, but the scheduler
//! serializes model threads, so those locks are never contended — they
//! just make the types `Sync` without `unsafe`.

use std::collections::VecDeque;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::sched::{self, sync_op, Op, OpKind};

// ------------------------------------------------------------------ atomics

macro_rules! shadow_atomic_common {
    ($name:ident, $ty:ty) => {
        /// Shadow counterpart of the std atomic; memory orderings are
        /// accepted for API compatibility and treated as SeqCst (the model
        /// explores sequentially consistent interleavings only).
        pub struct $name {
            id: sched::ObjId,
            v: parking_lot::Mutex<$ty>,
        }

        impl $name {
            pub fn new(v: $ty) -> Self {
                Self::named(v, stringify!($name))
            }

            /// Like `new`, with a name that shows up in violation traces.
            pub fn named(v: $ty, name: &str) -> Self {
                let (s, _) = sched::current();
                $name {
                    id: s.register_obj(name, "atomic"),
                    v: parking_lot::Mutex::new(v),
                }
            }

            pub fn load(&self, _o: Ordering) -> $ty {
                sync_op(OpKind::Read, self.id);
                *self.v.lock()
            }

            pub fn store(&self, val: $ty, _o: Ordering) {
                sync_op(OpKind::Write, self.id);
                *self.v.lock() = val;
            }

            pub fn swap(&self, val: $ty, _o: Ordering) -> $ty {
                sync_op(OpKind::Rmw, self.id);
                std::mem::replace(&mut *self.v.lock(), val)
            }

            pub fn compare_exchange(
                &self,
                current: $ty,
                new: $ty,
                _success: Ordering,
                _failure: Ordering,
            ) -> Result<$ty, $ty> {
                sync_op(OpKind::Rmw, self.id);
                let mut g = self.v.lock();
                if *g == current {
                    *g = new;
                    Ok(current)
                } else {
                    Err(*g)
                }
            }
        }
    };
}

macro_rules! shadow_atomic_int {
    ($name:ident, $ty:ty) => {
        shadow_atomic_common!($name, $ty);

        impl $name {
            pub fn fetch_add(&self, val: $ty, _o: Ordering) -> $ty {
                sync_op(OpKind::Rmw, self.id);
                let mut g = self.v.lock();
                let old = *g;
                *g = old.wrapping_add(val);
                old
            }

            pub fn fetch_sub(&self, val: $ty, _o: Ordering) -> $ty {
                sync_op(OpKind::Rmw, self.id);
                let mut g = self.v.lock();
                let old = *g;
                *g = old.wrapping_sub(val);
                old
            }

            pub fn fetch_max(&self, val: $ty, _o: Ordering) -> $ty {
                sync_op(OpKind::Rmw, self.id);
                let mut g = self.v.lock();
                let old = *g;
                *g = old.max(val);
                old
            }

            pub fn fetch_min(&self, val: $ty, _o: Ordering) -> $ty {
                sync_op(OpKind::Rmw, self.id);
                let mut g = self.v.lock();
                let old = *g;
                *g = old.min(val);
                old
            }
        }
    };
}

shadow_atomic_int!(AtomicUsize, usize);
shadow_atomic_int!(AtomicU64, u64);
shadow_atomic_int!(AtomicU32, u32);
shadow_atomic_common!(AtomicBool, bool);

impl AtomicBool {
    pub fn fetch_or(&self, val: bool, _o: Ordering) -> bool {
        sync_op(OpKind::Rmw, self.id);
        let mut g = self.v.lock();
        let old = *g;
        *g = old | val;
        old
    }

    pub fn fetch_and(&self, val: bool, _o: Ordering) -> bool {
        sync_op(OpKind::Rmw, self.id);
        let mut g = self.v.lock();
        let old = *g;
        *g = old & val;
        old
    }
}

// -------------------------------------------------------------------- mutex

/// Shadow mutex: `lock()` is a yield point that blocks (in scheduler
/// terms) until the model mutex is free.
pub struct Mutex<T> {
    id: sched::ObjId,
    inner: parking_lot::Mutex<T>,
}

impl<T> Mutex<T> {
    pub fn new(v: T) -> Self {
        Self::named(v, "Mutex")
    }

    /// Like `new`, with a name that shows up in violation traces.
    pub fn named(v: T, name: &str) -> Self {
        let (s, _) = sched::current();
        Mutex {
            id: s.register_obj(name, "mutex"),
            inner: parking_lot::Mutex::new(v),
        }
    }

    pub fn lock(&self) -> MutexGuard<'_, T> {
        sync_op(OpKind::Lock, self.id);
        MutexGuard {
            lock: self,
            inner: Some(
                self.inner
                    .try_lock()
                    .expect("model mutex granted but OS lock contended"),
            ),
        }
    }
}

/// Guard whose drop is the `Unlock` yield point.
pub struct MutexGuard<'a, T> {
    lock: &'a Mutex<T>,
    inner: Option<parking_lot::MutexGuard<'a, T>>,
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

// ------------------------------------------------------------------ condvar

/// Shadow condition variable. No spurious wakeups are modeled: a waiter
/// only resumes after a notify (callers still need the usual predicate
/// loop, which the models under check do have).
pub struct Condvar {
    id: sched::ObjId,
}

impl Condvar {
    pub fn new() -> Self {
        let (s, _) = sched::current();
        Condvar {
            id: s.register_obj("Condvar", "condvar"),
        }
    }

    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
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

    /// Timed wait. The model has no clock: the timeout is taken as firing
    /// immediately, which is always a legal execution of a timed wait (the
    /// caller's predicate loop must absorb it like a spurious wakeup).
    /// The mutex is still released and reacquired across yield points, so
    /// other threads interleave exactly as they could in a real timeout.
    pub fn wait_for<T>(
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

    /// Wait with a deadline. The model has no clock, so the deadline is a
    /// nondeterministic choice: it fires at once (as [`wait_for`](Self::wait_for)
    /// models a timeout) or lies beyond every notify — an untimed wait, in
    /// which a lost wakeup is a deadlock the explorer reports.
    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        _deadline: std::time::Instant,
    ) -> WaitTimeoutResult {
        if sched::nondet(2) == 1 {
            return self.wait_for(guard, std::time::Duration::ZERO);
        }
        self.wait(guard);
        WaitTimeoutResult(false)
    }

    pub fn notify_one(&self) {
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

    pub fn notify_all(&self) {
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

/// Result of [`Condvar::wait_for`]; mirrors the parking_lot API.
#[derive(Debug, Clone, Copy)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// Whether the wait ended by timeout rather than a notification.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Self::new()
    }
}

// ------------------------------------------------------------------ channel

struct ChanShared<T> {
    id: sched::ObjId,
    q: parking_lot::Mutex<VecDeque<T>>,
    senders: std::sync::atomic::AtomicUsize,
}

/// Receiving on a closed, drained channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

/// Sending half of an unbounded model channel.
pub struct Sender<T>(Arc<ChanShared<T>>);

/// Receiving half of an unbounded model channel.
pub struct Receiver<T>(Arc<ChanShared<T>>);

/// Unbounded MPSC channel whose send/recv are yield points; `recv` blocks
/// (in scheduler terms) until a message or disconnection arrives.
pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
    let (s, _) = sched::current();
    let shared = Arc::new(ChanShared {
        id: s.register_obj("channel", "chan"),
        q: parking_lot::Mutex::new(VecDeque::new()),
        senders: std::sync::atomic::AtomicUsize::new(1),
    });
    (Sender(Arc::clone(&shared)), Receiver(shared))
}

impl<T> Sender<T> {
    pub fn send(&self, v: T) {
        sync_op(OpKind::Send, self.0.id);
        self.0.q.lock().push_back(v);
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.0.senders.fetch_add(1, Ordering::SeqCst);
        Sender(Arc::clone(&self.0))
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        if self.0.senders.fetch_sub(1, Ordering::SeqCst) != 1 {
            return;
        }
        let (s, tid) = sched::current();
        if std::thread::panicking() {
            s.force_close_chan(self.0.id);
        } else {
            s.chan_close(tid, self.0.id);
        }
    }
}

impl<T> Receiver<T> {
    pub fn recv(&self) -> Result<T, RecvError> {
        sync_op(OpKind::Recv, self.0.id);
        // Granted: either a message is queued or the channel closed empty.
        self.0.q.lock().pop_front().ok_or(RecvError)
    }
}
