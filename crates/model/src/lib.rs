//! ttg-model — deterministic schedule-exploration model checker for the
//! ttg concurrency core.
//!
//! A loom/CHESS-style stateless-search checker, built in-repo with no
//! external dependencies (same policy as `shims/`). A model is a plain
//! closure using the shadow primitives in [`shadow`] (or, for production
//! code compiled with `--cfg ttg_model`, the [`sync`] facade); the
//! [`explore`] driver re-executes it under every schedule up to a
//! preemption bound, with sleep-set pruning of equivalent interleavings
//! and optional seeded random sampling for larger state spaces. A failing
//! schedule comes back as a [`Violation`] carrying the exact interleaving.
//!
//! [`protocols`] holds model-sized extractions of the real protocols this
//! repo depends on (worker sleep/wake, the event count every sleeper parks
//! on — the production definition itself — batched submit, sharded matching,
//! dedup window, reliable acks and retransmission, coordinated rollback,
//! multi-process termination, transport handshake), each with invariants
//! and known-bad mutations the checker must catch. `ttg-check --model`
//! runs that corpus and reports in the standard diagnostic format.

pub mod explore;
pub mod protocols;
pub mod sched;
pub mod shadow;
pub mod sync;
pub mod thread;

pub use explore::{explore, explore_iterative, Config, Sample, Stats, Violation, ViolationKind};
pub use sched::nondet;
