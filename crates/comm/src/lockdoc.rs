//! Lock-discipline annotations for the comm crate, consumed by the
//! `ttg-check` lock-order analysis (diagnostics TTG050/TTG051).
//!
//! What holds: outside recovery no code path holds two of these mutexes at
//! once, with two exceptions (`control.term` across `control.idle_probe`;
//! `flush_acks` keeps `chaos.pending_acks` until its batch is sent or
//! retired from `chaos.links`, so batches arrive in the order taken). The
//! dedup-window and retransmit locks stay disjoint in time — `progress()`
//! collects retransmit candidates under the link lock in a scoped block
//! before consulting any window. Classification may flush, and only after
//! its locks are released.
//!
//! The two event counts — the execution's (`ledger.events`, signalled by
//! the in-flight ledger and the error sink) and the progress thread's
//! (`wake.clock`) — take their lock only to bump an epoch, holding nothing
//! inside it, so taking one under another lock cannot close a cycle.
//! Arming the progress clock happens with no chaos lock held but
//! `chaos.pass`. The ledger's counts are atomics; a window claim settles
//! under the window lock (and records its TTG040 there) within a pass, so
//! a cut, which excludes passes, sees the claim and the settle both or
//! neither.
//!
//! Under a recovery-enabled plan there is one more hierarchy:
//! `chaos.pass` is held through a progress pass, and by the coordinator
//! for a whole pause (`recover::Paused`), so the two exclude each other.
//! Everything a pass takes nests under it; a cut and a rollback take the
//! windows, the links (one at a time), the seed log, the ack batches and
//! the delay queue under it, never two of them at once. The pause gate
//! lives in the executor (`ttg-core`'s lockdoc): a delivery thread passes
//! it before `rx_accept` and after `packet_processed`, holding no comm
//! lock. No delivery thread or task takes `chaos.pass`, so the
//! coordinator may wait for them while it holds it.
//!
//! These tables are the machine-checkable record of that discipline. If a
//! future change nests locks, it must add the `(outer, inner)` pair here —
//! and `ttg-check` will reject the addition if it closes a cycle.

/// Every mutex class in the crate, named `module.field`.
pub const LOCK_CLASSES: &[&str] = &[
    "fabric.errors",
    "links.receivers",
    "chaos.links",
    "chaos.windows",
    "chaos.pending_acks",
    "chaos.delayq",
    "chaos.seeds",
    "chaos.pass",
    "rma.live",
    "rma.released",
    "control.barrier_entered",
    "control.barrier_released",
    "control.term",
    "control.idle_probe",
    "ledger.events",
    "wake.clock",
];

/// Permitted nestings, outer acquired first.
///
/// `drive_termination` refreshes the coordinator's own observation while
/// holding the termination state (`term` guard live across
/// `observe_local`, which locks `idle_probe`); `flush_acks`, above. The
/// `chaos.pass` edges are the recovery hierarchy described in the module
/// header. The `ledger.events` and `fabric.errors` edges are the settles
/// made under chaos locks: a window claim, under its window lock and
/// within a pass.
pub const LOCK_ORDER: &[(&str, &str)] = &[
    ("control.term", "control.idle_probe"),
    ("chaos.pending_acks", "chaos.links"),
    ("chaos.pass", "chaos.links"),
    ("chaos.pass", "chaos.windows"),
    ("chaos.pass", "chaos.pending_acks"),
    ("chaos.pass", "chaos.delayq"),
    ("chaos.pass", "chaos.seeds"),
    ("chaos.pass", "ledger.events"),
    ("chaos.pass", "fabric.errors"),
    ("chaos.pass", "wake.clock"),
    ("chaos.windows", "ledger.events"),
    ("chaos.windows", "fabric.errors"),
];

/// Striped classes (one instance per rank or per directed link) and
/// whether holding two instances at once is permitted via ascending-index
/// acquisition. None is: no path holds two instances of one class — a
/// cut and a rollback walk the links and windows one lock at a time.
pub const STRIPED_LOCKS: &[(&str, bool)] = &[
    ("chaos.links", false),
    ("chaos.windows", false),
    ("chaos.pending_acks", false),
    ("rma.live", false),
    ("rma.released", false),
];
