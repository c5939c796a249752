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
//! Arming the progress clock happens with no chaos lock held. The ledger's
//! counts are atomics; two settles happen under chaos locks so that a
//! restore's re-statement cannot race them: a content-log consumption
//! under the classification guard, a window claim under the window lock
//! (which records its TTG040 there too).
//!
//! Under a recovery-enabled plan there is one deliberate hierarchy:
//! `rx_accept_am` holds the destination rank's `chaos.link_inc` guard
//! across its whole classification — window, content log, the delivered
//! mark on the sender's link entry, the ack note — and `restore_rank`'s
//! per-receiver surgery takes the same guard first, so a packet is
//! classified entirely before or entirely after the cut; the surgery then
//! empties the receiver's pending ack batch and installs the restored
//! link state under the batch lock. Nothing takes `link_inc` while holding
//! one of the four classes under it, so the relation stays acyclic.
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
    "chaos.link_inc",
    "chaos.content_logs",
    "chaos.replay_log",
    "chaos.snapshot_sink",
    "chaos.recovery_log",
    "recover.blobs",
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
/// `link_inc` edges are the recovery hierarchy described in the module
/// header (`rx_accept_am` takes all four under it; `restore_rank` takes
/// `windows`, `content_logs`, and `pending_acks` then `links`). The
/// `ledger.events` and `fabric.errors` edges are the settles made under
/// chaos locks: a consumption inside classification, a window claim.
pub const LOCK_ORDER: &[(&str, &str)] = &[
    ("control.term", "control.idle_probe"),
    ("chaos.pending_acks", "chaos.links"),
    ("chaos.link_inc", "chaos.windows"),
    ("chaos.link_inc", "chaos.content_logs"),
    ("chaos.link_inc", "chaos.links"),
    ("chaos.link_inc", "chaos.pending_acks"),
    ("chaos.link_inc", "ledger.events"),
    ("chaos.link_inc", "fabric.errors"),
    ("chaos.windows", "ledger.events"),
    ("chaos.windows", "fabric.errors"),
];

/// Striped classes (one instance per rank or per directed link) and
/// whether holding two instances at once is permitted via ascending-index
/// acquisition. None is: no path holds two instances of one class —
/// `restore_rank` walks the receivers one `link_inc` guard at a time.
pub const STRIPED_LOCKS: &[(&str, bool)] = &[
    ("chaos.links", false),
    ("chaos.windows", false),
    ("chaos.pending_acks", false),
    ("chaos.link_inc", false),
    ("chaos.content_logs", false),
    ("chaos.replay_log", false),
    ("rma.live", false),
    ("rma.released", false),
];
