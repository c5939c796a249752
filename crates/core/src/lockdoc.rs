//! Lock-discipline annotations for the core matching path, consumed by
//! the `ttg-check` lock-order analysis (diagnostics TTG050/TTG051).
//!
//! The matching table is sharded by key hash; an insert or extract locks
//! exactly one shard, and a completed match releases the shard **before**
//! launching the assembled task (the launch may re-enter `send` on an
//! arbitrary other shard, so launching under the lock would deadlock).
//! That release-then-launch rule is the whole discipline.

/// Every mutex class on the matching path, by field name.
pub const LOCK_CLASSES: &[&str] = &["node.shards"];

/// Permitted nestings, outer acquired first. The core sanctions none.
pub const LOCK_ORDER: &[(&str, &str)] = &[];

/// Striped classes: one lock per matching shard; re-entrant sends take a
/// different shard only after the first is released, never both.
pub const STRIPED_LOCKS: &[(&str, bool)] = &[("node.shards", false)];
