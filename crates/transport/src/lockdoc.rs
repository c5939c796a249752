//! Lock-discipline annotations for the socket transport, consumed by the
//! `ttg-check` lock-order analysis (diagnostics TTG050/TTG051).
//!
//! The transport holds at most one of these mutexes at a time. A
//! connection's stream is set once, when it is installed, and read without
//! a lock. The bounded send queue's blocking push/pop wait on condvars tied
//! to the single `sendq.state` lock rather than acquiring anything else:
//! that lock guards the whole pending `WireBatch` (coalescing buffer and the
//! bulk bodies queued by ownership alike — one field class), frames are
//! encoded into it under the lock, and the writer takes it by swap, so no
//! write happens under `sendq.state`. Every other wait — a reader for the
//! sink, a writer for its connection or, after a failed write, for its
//! reader's exit — parks on `endpoint.ready` alone.

/// Every mutex class in the transport, by field name.
pub const LOCK_CLASSES: &[&str] = &["sendq.state", "endpoint.ready", "endpoint.threads"];

/// Permitted nestings, outer acquired first. The transport sanctions none.
pub const LOCK_ORDER: &[(&str, &str)] = &[];

/// Striped classes: one send queue per peer, never two held at once.
pub const STRIPED_LOCKS: &[(&str, bool)] = &[("sendq.state", false)];
