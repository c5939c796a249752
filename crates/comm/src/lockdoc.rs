//! Lock-discipline annotations for the comm fabric, consumed by the
//! `ttg-check` lock-order analysis (diagnostics TTG050/TTG051).
//!
//! The fabric follows a **single-lock discipline**: with one documented
//! exception, no code path holds two of these mutexes at once. The
//! reliable-layer paths are written specifically to keep the dedup-window
//! locks and the per-link retransmit locks disjoint in time — `rx_accept`
//! takes the window lock as a statement temporary and drops it before
//! touching link state, and `progress()` collects retransmit candidates
//! under the link lock in a scoped block before consulting any window.
//!
//! These tables are the machine-checkable record of that discipline. If a
//! future change nests locks, it must add the `(outer, inner)` pair here —
//! and `ttg-check` will reject the addition if it closes a cycle.

/// Every mutex class in the fabric, by field name.
pub const LOCK_CLASSES: &[&str] = &[
    "fabric.errors",
    "fabric.receivers",
    "fabric.links",
    "fabric.windows",
    "fabric.delayq",
    "fabric.regions",
    "fabric.released",
    "fabric.barrier_entered",
    "fabric.barrier_released",
    "fabric.term",
    "fabric.idle_probe",
];

/// Permitted nestings, outer acquired first.
///
/// `drive_termination` refreshes the coordinator's own observation while
/// holding the termination state (`term` guard live across
/// `observe_local`, which locks `idle_probe`). That is the fabric's only
/// sanctioned two-lock hold.
pub const LOCK_ORDER: &[(&str, &str)] = &[("fabric.term", "fabric.idle_probe")];

/// Striped classes (one instance per rank or per directed link) and
/// whether holding two instances at once is permitted via ascending-index
/// acquisition. Neither is: no fabric path holds two links or two windows
/// simultaneously.
pub const STRIPED_LOCKS: &[(&str, bool)] = &[("fabric.links", false), ("fabric.windows", false)];
