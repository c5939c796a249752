//! ttg-model — deterministic schedule-exploration model checker for the
//! ttg concurrency core.
//!
//! A loom/CHESS-style stateless-search checker, built in-repo with no
//! external dependencies (same policy as `shims/`). A model is a plain
//! closure over code that takes its atomics, locks, spawns and clock from
//! the [`sync`] facade, compiled with `--cfg ttg_model` so that they are
//! the scheduler's shadow primitives and logical clock; the
//! [`explore`] driver re-executes it under every schedule up to a
//! preemption bound, with sleep-set pruning of equivalent interleavings
//! and optional seeded random sampling for larger state spaces. A failing
//! schedule comes back as a [`Violation`] carrying the exact interleaving.
//!
//! The checker explores shipped code: a crate's model cases, compiled
//! with `--cfg ttg_model` and kept beside the code they check, drive its
//! own functions through the [`sync`] facade (the pause gate, cut and
//! rollback and the reliable layer's dedup window and acks in `ttg-comm`,
//! its termination protocol, the transport's handshake handoff, the
//! pool's group submit, the matching table). Each crate's `mutants/`
//! holds patches that break its source; CI applies each and requires the
//! case its `Case:` line names to report a violation. Here stays only
//! [`event`]: the event count every sleeper parks on, the production
//! definition itself over the shadow primitives, which `ttg-check
//! --model` runs and reports in the standard diagnostic format. A case's
//! fake links are [`Queue`]s, one scheduling point per transfer.

pub mod event;
mod explore;
mod sched;
mod shadow;
pub mod sync;
pub mod thread;
pub mod time;

pub use explore::{explore, explore_iterative, Config, Sample, Stats, Violation, ViolationKind};
pub use sched::nondet;
pub use shadow::Queue;
