//! Minimal, API-compatible stand-in for the subset of `parking_lot` used by
//! this workspace, implemented over `std::sync`. The container image has no
//! network access to crates.io, so the real crate cannot be fetched; this
//! shim keeps the source-level API (`lock()` returning a guard directly,
//! `Condvar::wait(&mut guard)`) while delegating to the standard library.
//!
//! Poisoning is deliberately ignored (parking_lot has no poisoning): a
//! panicked holder does not poison the lock for everyone else.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{self, PoisonError};
use std::time::{Duration, Instant};

/// Mutual exclusion primitive (no poisoning, like `parking_lot::Mutex`).
#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    inner: sync::Mutex<T>,
}

/// RAII guard for [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized> {
    // `Option` so Condvar::wait can temporarily take the std guard out.
    inner: Option<sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// Create a mutex protecting `t`.
    pub const fn new(t: T) -> Self {
        Mutex {
            inner: sync::Mutex::new(t),
        }
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: Some(self.inner.lock().unwrap_or_else(PoisonError::into_inner)),
        }
    }

    /// Try to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard { inner: Some(g) }),
            Err(sync::TryLockError::Poisoned(p)) => Some(MutexGuard {
                inner: Some(p.into_inner()),
            }),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard taken during wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard taken during wait")
    }
}

/// Result of a timed [`Condvar`] wait.
#[derive(Debug, Clone, Copy)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    /// Whether the wait ended because the timeout elapsed.
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// Condition variable compatible with [`Mutex`].
///
/// It counts its waiters, as upstream does: a waiter is counted from
/// before it releases the caller's mutex until it holds it again, so a
/// notify that finds none has nobody to wake and makes no syscall.
#[derive(Default)]
pub struct Condvar {
    inner: sync::Condvar,
    waiters: AtomicUsize,
}

impl Condvar {
    /// Create a condition variable.
    pub const fn new() -> Self {
        Condvar {
            inner: sync::Condvar::new(),
            waiters: AtomicUsize::new(0),
        }
    }

    /// Block until notified, releasing the guard's lock while waiting.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let g = guard.inner.take().expect("guard taken during wait");
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let g = self.inner.wait(g).unwrap_or_else(PoisonError::into_inner);
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        guard.inner = Some(g);
    }

    /// Block until notified or `timeout` elapses.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let g = guard.inner.take().expect("guard taken during wait");
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let (g, res) = match self.inner.wait_timeout(g, timeout) {
            Ok((g, r)) => (g, r),
            Err(p) => p.into_inner(),
        };
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        guard.inner = Some(g);
        WaitTimeoutResult {
            timed_out: res.timed_out(),
        }
    }

    /// Block until notified or `deadline` passes.
    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Instant,
    ) -> WaitTimeoutResult {
        let now = Instant::now();
        if now >= deadline {
            return WaitTimeoutResult { timed_out: true };
        }
        self.wait_for(guard, deadline - now)
    }

    /// Wake one waiter, if any waits.
    pub fn notify_one(&self) {
        if self.waiters.load(Ordering::SeqCst) > 0 {
            self.inner.notify_one();
        }
    }

    /// Wake all waiters, if any wait.
    pub fn notify_all(&self) {
        if self.waiters.load(Ordering::SeqCst) > 0 {
            self.inner.notify_all();
        }
    }
}

/// Reader-writer lock (no poisoning).
#[derive(Default)]
pub struct RwLock<T: ?Sized> {
    inner: sync::RwLock<T>,
}

/// Shared-read guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: sync::RwLockReadGuard<'a, T>,
}

/// Exclusive-write guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: sync::RwLockWriteGuard<'a, T>,
}

impl<T> RwLock<T> {
    /// Create an RwLock protecting `t`.
    pub const fn new(t: T) -> Self {
        RwLock {
            inner: sync::RwLock::new(t),
        }
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire a shared read lock.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard {
            inner: self.inner.read().unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// Acquire an exclusive write lock.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard {
            inner: self.inner.write().unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn condvar_wait_for_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        let r = cv.wait_for(&mut g, Duration::from_millis(5));
        assert!(r.timed_out());
    }

    #[test]
    fn condvar_notify_wakes() {
        let m = Arc::new(Mutex::new(false));
        let cv = Arc::new(Condvar::new());
        let (m2, cv2) = (Arc::clone(&m), Arc::clone(&cv));
        let t = std::thread::spawn(move || {
            let mut done = m2.lock();
            *done = true;
            cv2.notify_all();
        });
        let mut done = m.lock();
        while !*done {
            cv.wait(&mut done);
        }
        t.join().unwrap();
    }

    #[test]
    fn notify_without_a_waiter_is_a_no_op() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        cv.notify_one();
        cv.notify_all();
        assert_eq!(cv.waiters.load(Ordering::SeqCst), 0);
        // Nothing was stored for a later waiter: it waits out its timeout.
        let mut g = m.lock();
        assert!(cv.wait_for(&mut g, Duration::from_millis(5)).timed_out());
        assert_eq!(cv.waiters.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn ping_pong_loses_no_wakeup() {
        const ROUNDS: u64 = 100_000;
        // Each thread takes its turn `ROUNDS` times: the main thread at an
        // even count, the other at an odd one.
        let turn = Arc::new((Mutex::new(0u64), Condvar::new()));
        let play = |turn: &(Mutex<u64>, Condvar), parity: u64| {
            let (m, cv) = turn;
            let mut t = m.lock();
            for _ in 0..ROUNDS {
                while *t % 2 != parity {
                    cv.wait(&mut t);
                }
                *t += 1;
                cv.notify_one();
            }
        };
        let t2 = Arc::clone(&turn);
        let other = std::thread::spawn(move || play(&t2, 1));
        play(&turn, 0);
        other.join().unwrap();
        assert_eq!(*turn.0.lock(), 2 * ROUNDS);
    }

    #[test]
    fn timeouts_racing_notify_all_lose_no_wakeup() {
        // Waiters with short timeouts re-wait until the generation they
        // saw moves on; the notifier bumps it while they time out around
        // it. Every waiter must see every generation end.
        const GENERATIONS: u64 = 2_000;
        let gen = Arc::new((Mutex::new(0u64), Condvar::new()));
        let waiters: Vec<_> = (0..3)
            .map(|_| {
                let g2 = Arc::clone(&gen);
                std::thread::spawn(move || {
                    let (m, cv) = &*g2;
                    let mut g = m.lock();
                    while *g < GENERATIONS {
                        let seen = *g;
                        while *g == seen {
                            cv.wait_for(&mut g, Duration::from_micros(50));
                        }
                    }
                })
            })
            .collect();
        let (m, cv) = &*gen;
        for _ in 0..GENERATIONS {
            *m.lock() += 1;
            cv.notify_all();
        }
        for w in waiters {
            w.join().unwrap();
        }
        assert_eq!(cv.waiters.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn rwlock_read_write() {
        let l = RwLock::new(7);
        assert_eq!(*l.read(), 7);
        *l.write() = 9;
        assert_eq!(*l.read(), 9);
    }

    #[test]
    fn lock_survives_panicked_holder() {
        let m = Arc::new(Mutex::new(0));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        assert_eq!(*m.lock(), 0);
    }
}
