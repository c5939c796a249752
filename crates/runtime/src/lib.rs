//! # ttg-runtime — per-rank schedulers and termination detection
//!
//! The low-level task-execution machinery underneath the TTG model:
//!
//! * [`pool`] — worker pools with the two scheduling disciplines of the
//!   paper's backends (work-stealing + priority heap vs. central queue);
//! * [`quiesce`] — the shared-counter activity tracker executors read to
//!   implement `wait()`.
//!
//! Every thread here that waits parks on an [`EventCount`], the one
//! sleeping primitive (DESIGN §5, "Wake discipline").

#![warn(missing_docs)]

pub mod lockdoc;
pub mod pool;
pub mod quiesce;

pub use pool::{Job, SchedulerKind, WorkerPool};
pub use quiesce::Quiescence;
pub use ttg_model::sync::EventCount;
