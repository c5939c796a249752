//! Logical time: what the [`crate::sync`] facade's `Instant` is under
//! `--cfg ttg_model`.
//!
//! A model run has one clock, at zero when the run starts, and only a
//! model thread moves it, with [`advance`]. Reading it ([`Instant::now`])
//! and moving it are scheduling points on one shadow object, so the
//! explorer orders a read against an advance like any read against a
//! write. Code that takes its time from the facade sees the deadlines the
//! model lets pass, and no others: a flush not yet due, a backoff not yet
//! run out, however the threads interleave.

use std::ops::{Add, AddAssign};
use std::time::Duration;

use crate::sched::{self, Op, OpKind, CLOCK};

/// A point on the run's logical clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Instant(Duration);

impl Instant {
    /// The run's logical now: a read of the clock.
    pub fn now() -> Instant {
        let (s, tid) = sched::current();
        s.yield_op(tid, Op::new(OpKind::Read, CLOCK));
        Instant(s.clock())
    }

    /// Time from `earlier` to `self`, zero if `earlier` is later.
    pub fn saturating_duration_since(&self, earlier: Instant) -> Duration {
        self.0.saturating_sub(earlier.0)
    }

    /// Logical time since `self`.
    pub fn elapsed(&self) -> Duration {
        Instant::now().saturating_duration_since(*self)
    }
}

impl Add<Duration> for Instant {
    type Output = Instant;
    fn add(self, d: Duration) -> Instant {
        Instant(self.0 + d)
    }
}

impl AddAssign<Duration> for Instant {
    fn add_assign(&mut self, d: Duration) {
        self.0 += d;
    }
}

/// Move the run's clock on by `d`: a write of the clock.
pub fn advance(d: Duration) {
    let (s, tid) = sched::current();
    s.yield_op(tid, Op::new(OpKind::Write, CLOCK));
    s.advance_clock(d);
}

/// What a shadow deadline wait accepts: the wall-clock instant the
/// transport passes or the logical one. The wait ignores it
/// ([`crate::shadow::Condvar::wait_until`]).
pub trait Deadline {}

impl Deadline for std::time::Instant {}

impl Deadline for Instant {}
