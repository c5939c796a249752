//! Lock-discipline annotations for the core matching path, consumed by
//! the `ttg-check` lock-order analysis (diagnostics TTG050/TTG051).
//!
//! The matching table is sharded by key hash; an insert or extract locks
//! exactly one shard, and a completed match releases the shard **before**
//! launching the assembled task (the launch may re-enter `send` on an
//! arbitrary other shard, so launching under the lock would deadlock).
//! That release-then-launch rule is the whole discipline of the matching
//! path.
//!
//! Under a recovery plan, every delivery thread also passes the pause gate
//! (`recovery::Gate`, DESIGN §13) at its packet boundary: it enters before
//! `rx_accept` and leaves after `packet_processed`. The gate is two
//! atomics and an event count. A thread counts itself inside before it
//! looks at the gate, and the coordinator raises the gate before it looks
//! at the count, then waits on the execution's event count, which the last
//! thread out signals. A delivery thread holds no lock while it waits at
//! the gate. The coordinator holds one: the comm layer's `chaos.pass`, for
//! the whole pause, so no progress pass resends or gives up anything
//! meanwhile. Nothing it waits for takes that lock — no delivery thread or
//! task does — and under it the coordinator takes, one at a time, the
//! matching shards (a cut's export, a rollback's import) and the lock of
//! the sink cuts persist through (`recovery.sink`). Its log of TTG046s
//! (`recovery.recovered`) is taken alone, after the pause.

/// Every mutex class on the matching path, by field name.
pub const LOCK_CLASSES: &[&str] = &["node.shards", "recovery.sink", "recovery.recovered"];

/// Permitted nestings, outer acquired first: the coordinator's pause
/// (above) over the matching shards and the sink.
pub const LOCK_ORDER: &[(&str, &str)] = &[
    ("ttg-comm::chaos.pass", "node.shards"),
    ("ttg-comm::chaos.pass", "recovery.sink"),
];

/// Striped classes: one lock per matching shard; re-entrant sends take a
/// different shard only after the first is released, never both.
pub const STRIPED_LOCKS: &[(&str, bool)] = &[("node.shards", false)];
