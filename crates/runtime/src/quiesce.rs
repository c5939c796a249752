//! Global quiescence detection.
//!
//! A TTG execution terminates when no task is running or queued anywhere and
//! no message is in flight — messages are the only way new tasks appear, so
//! this state is stable. The paper relies on the backend runtimes' global
//! termination detection; here it is one rule — two consecutive identical
//! all-idle observations with as many messages received as sent — and
//! [`Quiescence`] is the epoch-validated activity counter each process
//! feeds it with: read directly by the executor when every rank shares its
//! address space (exact and cheap), reported to rank 0 in `TermReply`
//! frames by a multi-process rank.
//!
//! Waiters park on the execution's [`EventCount`], which the counter
//! signals each time it reaches zero.

use std::sync::Arc;
use ttg_model::sync::{AtomicU64, EventCount, Ordering};

/// Epoch-validated activity counter.
///
/// `active` counts units of pending work: a worker pool with jobs queued or
/// running is one unit, whatever the number of its jobs (the pool counts
/// those itself), and so is a backend's unprocessed message. `epoch`
/// increments on every activity *start*, which lets a detector rule out the
/// race where activity briefly reached zero and then resumed between two
/// observations.
pub struct Quiescence {
    active: AtomicU64,
    epoch: AtomicU64,
    /// Signalled when `active` reaches zero.
    events: Arc<EventCount>,
}

impl Default for Quiescence {
    fn default() -> Self {
        Self::new()
    }
}

impl Quiescence {
    /// Create an idle tracker with an event count of its own.
    pub fn new() -> Self {
        Self::with_events(Arc::new(EventCount::new()))
    }

    /// Create an idle tracker that signals `events` (the execution's, which
    /// its fabric signals too) each time the activity count reaches zero.
    pub fn with_events(events: Arc<EventCount>) -> Self {
        Quiescence {
            active: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            events,
        }
    }

    /// The event count waiters park on.
    pub(crate) fn events(&self) -> &Arc<EventCount> {
        &self.events
    }

    /// Record the start of a unit of activity.
    #[inline]
    pub fn activity_started(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        self.active.fetch_add(1, Ordering::SeqCst);
    }

    /// Record the end of a unit of activity; the last one signals.
    #[inline]
    pub fn activity_finished(&self) {
        let prev = self.active.fetch_sub(1, Ordering::SeqCst);
        debug_assert!(prev > 0, "activity underflow");
        if prev == 1 {
            self.events.signal_all();
        }
    }

    /// Current number of active units.
    pub fn active(&self) -> u64 {
        self.active.load(Ordering::SeqCst)
    }

    /// Current epoch (total activity starts so far).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// One quiescence probe: returns `Some(epoch)` if no activity was
    /// observable, to be confirmed by a second probe at the same epoch.
    pub fn probe(&self) -> Option<u64> {
        let e = self.epoch();
        if self.active() == 0 {
            Some(e)
        } else {
            None
        }
    }

    /// Two-phase check: quiescent iff two consecutive probes observe zero
    /// activity at the same epoch. Any activity started in between bumps the
    /// epoch and invalidates the first probe.
    pub fn is_quiescent(&self) -> bool {
        match self.probe() {
            None => false,
            Some(e1) => match self.probe() {
                Some(e2) => e1 == e2,
                None => false,
            },
        }
    }

    /// Park until quiescent. Any activity that makes the check fail ends
    /// in a zero crossing, which signals.
    pub fn wait_quiescent(&self) {
        loop {
            let epoch = self.events.prepare();
            if self.is_quiescent() {
                self.events.cancel();
                return;
            }
            self.events.wait(epoch);
        }
    }
}

impl std::fmt::Debug for Quiescence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Quiescence")
            .field("active", &self.active())
            .field("epoch", &self.epoch())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_quiescent() {
        let q = Quiescence::new();
        assert!(q.is_quiescent());
        assert_eq!(q.active(), 0);
    }

    #[test]
    fn activity_blocks_quiescence() {
        let q = Quiescence::new();
        q.activity_started();
        assert!(!q.is_quiescent());
        q.activity_finished();
        assert!(q.is_quiescent());
        assert_eq!(q.epoch(), 1);
    }

    #[test]
    fn nested_activity() {
        let q = Quiescence::new();
        q.activity_started();
        q.activity_started();
        q.activity_finished();
        assert!(!q.is_quiescent());
        q.activity_finished();
        assert!(q.is_quiescent());
    }

    #[test]
    fn wait_quiescent_unblocks() {
        let q = Arc::new(Quiescence::new());
        q.activity_started();
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            q2.activity_finished();
        });
        q.wait_quiescent();
        assert!(q.is_quiescent());
        h.join().unwrap();
    }

    #[test]
    fn epoch_detects_transient_wakeup() {
        // Simulates the race the two-phase probe protects against.
        let q = Quiescence::new();
        let e1 = q.probe().unwrap();
        q.activity_started();
        q.activity_finished();
        // Second probe sees zero activity but a different epoch.
        let e2 = q.probe().unwrap();
        assert_ne!(e1, e2);
    }
}
