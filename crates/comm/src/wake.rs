//! The comm layer's share of the wake discipline (DESIGN §5): nothing here
//! sleeps on a tick. (The termination waits park on the execution's event
//! count, which the in-flight ledger signals: `crate::ledger`.)
//!
//! [`ProgressClock`] is the schedule of the reliable layer's progress
//! thread: it parks until the earliest instant `progress()` could act, and
//! a site that arms an earlier deadline wakes it. Waking early is harmless;
//! waking late is a bug, so every deadline published here is a lower
//! bound.

use std::time::{Duration, Instant};
use ttg_model::sync::{AtomicU64, EventCount, Ordering};

/// `park_until` while the thread runs a pass: every site arms into
/// `armed`, which the thread folds in before it parks.
const AWAKE: u64 = 0;
/// No deadline.
const NEVER: u64 = u64::MAX;

/// When the reliable layer's progress thread must next run. Instants are
/// kept as nanoseconds since `origin` so they fit in atomics.
pub(crate) struct ProgressClock {
    origin: Instant,
    /// What the thread parks on.
    wake: EventCount,
    /// The parked thread's own deadline; [`AWAKE`] during a pass.
    park_until: AtomicU64,
    /// The earliest deadline armed since the thread last folded them in.
    armed: AtomicU64,
    /// Lower bound on when the retransmit scan could next act.
    retransmit_at: AtomicU64,
}

impl ProgressClock {
    pub(crate) fn new() -> ProgressClock {
        ProgressClock {
            origin: Instant::now(),
            wake: EventCount::new(),
            park_until: AtomicU64::new(NEVER),
            armed: AtomicU64::new(NEVER),
            retransmit_at: AtomicU64::new(NEVER),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        // +1 keeps the origin itself distinct from `AWAKE`.
        (at.saturating_duration_since(self.origin).as_nanos() as u64).saturating_add(1)
    }

    fn instant(&self, ns: u64) -> Instant {
        self.origin + Duration::from_nanos(ns.saturating_sub(1))
    }

    /// Something `progress()` acts on falls due at `at`: wake the thread
    /// if it would sleep past it. The deadline is recorded before
    /// `park_until` is read, so a thread mid-pass folds it in before it
    /// parks; a parked one is signalled only if it would wake too late.
    pub(crate) fn arm(&self, at: Instant) {
        let t = self.ns(at);
        if t < self.armed.load(Ordering::SeqCst) {
            self.armed.fetch_min(t, Ordering::SeqCst);
        }
        let parked = self.park_until.load(Ordering::SeqCst);
        if parked != AWAKE && t < parked {
            self.wake.signal_all();
        }
    }

    /// A retransmit or silence deadline at `at`: the scan must run then.
    pub(crate) fn arm_retransmit(&self, at: Instant) {
        let t = self.ns(at);
        if t < self.retransmit_at.load(Ordering::SeqCst) {
            self.retransmit_at.fetch_min(t, Ordering::SeqCst);
        }
        self.arm(at);
    }

    /// Whether the retransmit scan is due at `now`. A `true` clears the
    /// due time: the scan re-arms what it leaves pending.
    pub(crate) fn take_retransmit(&self, now: Instant) -> bool {
        if self.ns(now) < self.retransmit_at.load(Ordering::SeqCst) {
            return false;
        }
        self.retransmit_at.swap(NEVER, Ordering::SeqCst);
        true
    }

    /// When the retransmit scan is next due, if ever.
    pub(crate) fn retransmit_at(&self) -> Option<Instant> {
        let t = self.retransmit_at.load(Ordering::SeqCst);
        (t != NEVER).then(|| self.instant(t))
    }

    /// Phase one of a pass: count the thread as a sleeper (a signal from
    /// here on ends its park at once) and route arms into `armed`.
    pub(crate) fn begin_pass(&self) -> u64 {
        let epoch = self.wake.prepare();
        self.park_until.store(AWAKE, Ordering::SeqCst);
        epoch
    }

    /// Leave after [`begin_pass`](Self::begin_pass) without parking.
    pub(crate) fn cancel(&self) {
        self.wake.cancel();
    }

    /// Park until `next` (the pass's earliest deadline), an earlier armed
    /// one, or a signal.
    pub(crate) fn park(&self, epoch: u64, next: Option<Instant>) {
        let mut until = next.map_or(NEVER, |t| self.ns(t));
        self.park_until.store(until, Ordering::SeqCst);
        // Arms that read `AWAKE` recorded their deadline before the store
        // above, so this swap sees them.
        let armed = self.armed.swap(NEVER, Ordering::SeqCst);
        if armed < until {
            until = armed;
            self.park_until.store(until, Ordering::SeqCst);
        }
        if until == NEVER {
            self.wake.wait(epoch);
        } else {
            self.wake.wait_until(epoch, self.instant(until));
        }
    }

    /// Wake the thread now (shutdown, or a fabric going away).
    pub(crate) fn poke(&self) {
        self.wake.signal_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_arm_later_than_the_park_does_not_wake_an_earlier_one_does() {
        let c = ProgressClock::new();
        let now = Instant::now();
        let epoch = c.begin_pass();
        c.park_until
            .store(c.ns(now + Duration::from_millis(10)), Ordering::SeqCst);
        c.arm(now + Duration::from_millis(20));
        assert!(
            !c.wake.wait_until(epoch, Instant::now()),
            "later arm woke it"
        );
        let epoch = c.begin_pass();
        c.park_until
            .store(c.ns(now + Duration::from_millis(10)), Ordering::SeqCst);
        c.arm(now + Duration::from_millis(1));
        assert!(
            c.wake.wait_until(epoch, Instant::now()),
            "earlier arm slept"
        );
    }

    #[test]
    fn an_arm_during_a_pass_shortens_the_park() {
        let c = ProgressClock::new();
        let epoch = c.begin_pass();
        let soon = Instant::now() + Duration::from_millis(2);
        c.arm(soon);
        let t = Instant::now();
        c.park(epoch, Some(t + Duration::from_secs(5)));
        assert!(t.elapsed() < Duration::from_secs(1), "slept past the arm");
        assert!(Instant::now() >= soon);
    }

    #[test]
    fn the_retransmit_scan_runs_only_once_due() {
        let c = ProgressClock::new();
        let now = Instant::now();
        assert!(!c.take_retransmit(now), "nothing armed, nothing due");
        c.arm_retransmit(now + Duration::from_millis(1));
        assert!(!c.take_retransmit(now));
        assert!(c.take_retransmit(now + Duration::from_millis(1)));
        assert_eq!(c.retransmit_at(), None);
    }
}
