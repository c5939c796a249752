//! # ttg-runtime — per-rank schedulers and termination detection
//!
//! The low-level task-execution machinery underneath the TTG model:
//!
//! * [`WorkerPool`] — worker pools running [`Job`]s with the two scheduling
//!   disciplines of the paper's backends ([`SchedulerKind`]: work-stealing
//!   + priority heap vs. central queue);
//! * [`Quiescence`] — the shared-counter activity tracker executors read to
//!   implement `wait()`.
//!
//! Every thread here that waits parks on an [`EventCount`](ttg_model::sync::EventCount), the one
//! sleeping primitive (DESIGN §5, "Wake discipline").

#![warn(missing_docs)]

mod pool;
mod quiesce;

pub use pool::{Job, SchedulerKind, WorkerPool};
pub use quiesce::Quiescence;
