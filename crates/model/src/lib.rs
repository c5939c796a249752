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
//! [`protocols`] is the corpus: the event count every sleeper parks on
//! (the production definition itself) and model-sized extractions of
//! batched submit, sharded matching, coordinated rollback, multi-process
//! termination and the transport handshake, each with invariants and
//! known-bad mutations the checker must catch. `ttg-check --model` runs
//! it and reports in the standard diagnostic format. The reliable layer's
//! dedup window and ack protocol are explored as shipped: `ttg-comm`'s
//! `chaos` model cases drive `ChaosState` itself under `--cfg ttg_model`,
//! on the facade's logical clock ([`time`]).

pub mod explore;
pub mod protocols;
pub mod sched;
pub mod shadow;
pub mod sync;
pub mod thread;
pub mod time;

pub use explore::{explore, explore_iterative, Config, Sample, Stats, Violation, ViolationKind};
pub use sched::nondet;
