//! Observed lock order, for the `checked` feature (TTG050/TTG051). The
//! facade's [`Mutex`], [`MutexGuard`] and [`Condvar`] wrap parking_lot's
//! and record, as Linux lockdep does, the order in which a process really
//! takes its locks; no table declares it.
//!
//! A lock's class is where it was built: [`Mutex::new`] keeps its caller's
//! source location, so every lock built at one line, a striped
//! `(0..n).map(|_| Mutex::new(..))` included, is one class. Each thread
//! keeps the stack of the locks it holds. Taking a lock of class `C` while
//! holding one of class `H` records the edge `H → C` in one process-wide
//! graph; an acquire that holds nothing records nothing. Two findings end
//! the process before the acquire can block:
//!
//! - **TTG050**: a new edge closes a cycle in the graph. Two threads taking
//!   those locks in the recorded orders can deadlock, even if no run so far
//!   has.
//! - **TTG051**: the thread already holds a lock of the class it takes. Two
//!   threads crossing two instances in opposite orders deadlock, and the
//!   same instance deadlocks alone.
//!
//! The report names every construction site on the cycle and the thread's
//! held stack, and the process aborts: no pool or test harness
//! `catch_unwind` can swallow it. The graph is guarded by a
//! `std::sync::Mutex`, which this module does not track.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::io::Write as _;
use std::ops::{Deref, DerefMut};
use std::panic::Location;
use std::sync::PoisonError;
use std::time::{Duration, Instant};

/// A lock class: the source location its locks are built at.
type Class = &'static Location<'static>;

thread_local! {
    /// The locks this thread holds, outermost first: class and address.
    static HELD: RefCell<Vec<(Class, usize)>> = const { RefCell::new(Vec::new()) };
}

/// Every `(held, taken)` class pair any thread has taken so far.
static ORDER: std::sync::Mutex<Vec<(Class, Class)>> = std::sync::Mutex::new(Vec::new());

/// A mutex whose acquires record the process's lock order.
#[derive(Debug)]
pub struct Mutex<T: ?Sized> {
    class: Class,
    inner: parking_lot::Mutex<T>,
}

impl<T> Mutex<T> {
    /// A mutex of the class of the caller's source location.
    #[track_caller]
    pub fn new(v: T) -> Self {
        Mutex {
            class: Location::caller(),
            inner: parking_lot::Mutex::new(v),
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    /// A mutex of the class of the caller's source location (a derived
    /// `Default`'s: the struct it is a field of).
    #[track_caller]
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Record the acquire, then block until the lock is free.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let addr = std::ptr::from_ref(self).cast::<()>() as usize;
        acquire(self.class, addr);
        MutexGuard {
            addr,
            inner: self.inner.lock(),
        }
    }
}

/// A held [`Mutex`]; dropping it takes the lock off the thread's stack.
pub struct MutexGuard<'a, T: ?Sized> {
    addr: usize,
    inner: parking_lot::MutexGuard<'a, T>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // A guard dropped during thread teardown finds no stack: nothing
        // is left to order against.
        let _ = HELD.try_with(|held| {
            let mut held = held.borrow_mut();
            if let Some(i) = held.iter().rposition(|&(_, a)| a == self.addr) {
                held.remove(i);
            }
        });
    }
}

/// parking_lot's condition variable over the tracked guard. A wait leaves
/// its lock on the thread's stack: the thread takes nothing else until the
/// lock is its own again.
#[derive(Default)]
pub struct Condvar(parking_lot::Condvar);

impl Condvar {
    /// A condition variable nobody waits on yet.
    pub fn new() -> Self {
        Condvar(parking_lot::Condvar::new())
    }

    /// Block until notified, releasing the guard's lock while waiting.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        self.0.wait(&mut guard.inner);
    }

    /// Block until notified or `timeout` elapses.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> parking_lot::WaitTimeoutResult {
        self.0.wait_for(&mut guard.inner, timeout)
    }

    /// Block until notified or `deadline` passes.
    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Instant,
    ) -> parking_lot::WaitTimeoutResult {
        self.0.wait_until(&mut guard.inner, deadline)
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wake all waiters.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

/// Put the lock at `addr` of `class` on this thread's stack, first
/// recording the edge from each lock the thread holds, or ending the
/// process with the finding the acquire completes.
fn acquire(class: Class, addr: usize) {
    // An acquire during thread teardown has no stack to order against.
    let _ = HELD.try_with(|held| {
        let mut held = held.borrow_mut();
        if !held.is_empty() {
            if held.iter().any(|&(h, _)| h == class) {
                let mut report = format!(
                    "error[TTG051]: a thread takes a lock built at {class} while it holds \
                     one built there\n"
                );
                held_stack(&mut report, &held);
                abort(report);
            }
            let mut order = ORDER.lock().unwrap_or_else(PoisonError::into_inner);
            for &(h, _) in held.iter() {
                if order.contains(&(h, class)) {
                    continue;
                }
                if let Some(cycle) = path(&order, class, h, &mut Vec::new()) {
                    let mut report = format!(
                        "error[TTG050]: lock order cycle: a lock built at {class} is taken \
                         while one built at {h} is held, and the recorded order already \
                         takes them the other way\n  cycle:\n"
                    );
                    for site in std::iter::once(h).chain(cycle) {
                        let _ = writeln!(report, "    {site}");
                    }
                    held_stack(&mut report, &held);
                    abort(report);
                }
                order.push((h, class));
            }
        }
        held.push((class, addr));
    });
}

/// The classes from `from` to `to` along recorded edges, both ends
/// included, if `to` is reachable without passing a class in `seen`.
fn path(
    order: &[(Class, Class)],
    from: Class,
    to: Class,
    seen: &mut Vec<Class>,
) -> Option<Vec<Class>> {
    if from == to {
        return Some(vec![to]);
    }
    if seen.contains(&from) {
        return None;
    }
    seen.push(from);
    order
        .iter()
        .filter(|&&(o, _)| o == from)
        .find_map(|&(_, next)| {
            let mut rest = path(order, next, to, seen)?;
            rest.insert(0, from);
            Some(rest)
        })
}

fn held_stack(report: &mut String, held: &[(Class, usize)]) {
    let thread = std::thread::current();
    let _ = writeln!(
        report,
        "  held by thread '{}', outermost first:",
        thread.name().unwrap_or("<unnamed>")
    );
    for (class, addr) in held {
        let _ = writeln!(report, "    {class} (lock at {addr:#x})");
    }
}

/// Print `report` past any output capture and end the process.
fn abort(report: String) -> ! {
    let _ = std::io::stderr().lock().write_all(report.as_bytes());
    std::process::abort();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::process::Command;

    /// Two locks built at two sites, as the child and the parent see them.
    fn two_sites() -> (Mutex<()>, Mutex<()>) {
        (Mutex::new(()), Mutex::new(()))
    }

    /// Two locks built at one site.
    fn stripes() -> Vec<Mutex<()>> {
        (0..2).map(|_| Mutex::new(())).collect()
    }

    /// Run `test` of this binary alone in a child process; its stderr.
    fn child(test: &str) -> String {
        let exe = std::env::current_exe().expect("the test binary's path");
        let out = Command::new(exe)
            .args([
                "--exact",
                test,
                "--ignored",
                "--nocapture",
                "--test-threads=1",
            ])
            .output()
            .expect("run the test binary");
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(!out.status.success(), "the child finished: {err}");
        err
    }

    #[test]
    #[ignore = "aborts the process; run in a child by a_reversed_nesting_is_a_ttg050"]
    fn child_reverses_a_nesting() {
        let (a, b) = two_sites();
        {
            let _a = a.lock();
            let _b = b.lock();
        }
        let _b = b.lock();
        let _a = a.lock();
    }

    #[test]
    fn a_reversed_nesting_is_a_ttg050() {
        let err = child("lockdep::tests::child_reverses_a_nesting");
        let (a, b) = two_sites();
        assert!(err.contains("error[TTG050]"), "{err}");
        let cycle = format!(
            "  cycle:\n    {}\n    {}\n    {}\n",
            b.class, a.class, b.class
        );
        assert!(err.contains(&cycle), "{err}");
        assert!(err.contains(&format!("    {} (lock at", b.class)), "{err}");
    }

    #[test]
    #[ignore = "aborts the process; run in a child by two_locks_of_one_site_are_a_ttg051"]
    fn child_holds_two_locks_of_one_site() {
        let stripes = stripes();
        let _first = stripes[0].lock();
        let _second = stripes[1].lock();
    }

    #[test]
    fn two_locks_of_one_site_are_a_ttg051() {
        let err = child("lockdep::tests::child_holds_two_locks_of_one_site");
        let site = stripes()[0].class;
        assert!(
            err.contains(&format!(
                "error[TTG051]: a thread takes a lock built at {site}"
            )),
            "{err}"
        );
        assert!(err.contains(&format!("    {site} (lock at")), "{err}");
    }

    #[test]
    fn a_consistent_order_and_single_holds_pass() {
        let (a, b) = two_sites();
        for _ in 0..2 {
            let _a = a.lock();
            let _b = b.lock();
        }
        drop(a.lock());
        drop(b.lock());
        assert!(HELD.with(|held| held.borrow().is_empty()));
    }
}
