//! Lock-discipline annotations for the socket transport, consumed by the
//! `ttg-check` lock-order analysis (diagnostics TTG050/TTG051).
//!
//! The transport holds at most one of these mutexes at a time.
//! `install_stream` replaces the writer-half slot through a statement
//! temporary (the `stream` guard is dropped before `ready` is taken), and
//! the bounded send queue's blocking push/pop wait on condvars tied to the
//! single `sendq.state` lock rather than acquiring anything else: that
//! lock guards the whole pending `WireBatch` (coalescing buffer and the
//! bulk bodies queued by ownership alike — one field class), frames are
//! encoded into it under the lock, and the writer takes it by swap, so no
//! write happens under `sendq.state`. The writer writes, and after a
//! failed write waits for its reader's exit mark, under `conn.stream`
//! alone; an exiting reader takes `conn.stream` alone to publish that
//! mark.

/// Every mutex class in the transport, by field name.
pub const LOCK_CLASSES: &[&str] = &[
    "sendq.state",
    "conn.stream",
    "endpoint.ready",
    "endpoint.threads",
    "endpoint.addrs",
];

/// Permitted nestings, outer acquired first. The transport sanctions none.
pub const LOCK_ORDER: &[(&str, &str)] = &[];

/// Striped classes: one send queue and one stream slot per peer, never
/// two of either held at once.
pub const STRIPED_LOCKS: &[(&str, bool)] = &[("sendq.state", false), ("conn.stream", false)];
