//! Lock-discipline annotations for the worker pool, consumed by the
//! `ttg-check` lock-order analysis (diagnostics TTG050/TTG051).
//!
//! The pool holds at most one of these mutexes at a time. The park
//! protocol is the sensitive spot: the `EventCount` a worker parks on
//! bumps its epoch under its own lock and notifies *after* dropping it,
//! and a committing worker compares the epoch under the same lock —
//! correctness comes from the lock/counter pairing, never from nesting.
//! The per-worker `bound` queues are striped; a worker drops its own
//! queue's lock before poaching a peer's.

/// Every mutex class in the pool, by field name.
pub const LOCK_CLASSES: &[&str] = &[
    "pool.bound.q",
    "pool.prio",
    "pool.central",
    "pool.wake.lock",
    "pool.threads",
];

/// Permitted nestings, outer acquired first. The pool sanctions none.
pub const LOCK_ORDER: &[(&str, &str)] = &[];

/// Striped classes: one `bound.q` per worker, never two held at once.
pub const STRIPED_LOCKS: &[(&str, bool)] = &[("pool.bound.q", false)];
