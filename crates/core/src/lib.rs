//! # ttg-core — the Template Task Graph programming model in Rust
//!
//! A Rust implementation of TTG as described in *"Generalized Flow-Graph
//! Programming Using Template Task-Graphs: Initial Implementation and
//! Assessment"* (IPDPS 2022). An algorithm is expressed as a graph of
//! **template tasks** connected by strongly typed **edges**; each message
//! carries a **task ID** (control) and **data**. A task instance is created
//! once all input terminals of a template have received a message with the
//! same task ID. The DAG of task instances is discovered dynamically and
//! distributedly — no process ever holds the whole DAG.
//!
//! ```
//! use ttg_core::prelude::*;
//!
//! // A two-stage pipeline: double a number, then print-collect it.
//! let nums: Edge<u64, i64> = Edge::new("nums");
//! let doubled: Edge<u64, i64> = Edge::new("doubled");
//!
//! let mut g = GraphBuilder::new();
//! let doubler = g.make_tt(
//!     "double",
//!     (nums.clone(),),
//!     (doubled.clone(),),
//!     |k: &u64| *k as usize, // keymap: task k runs on rank k % n
//!     |k, (x,): (i64,), outs| outs.send::<0>(*k, x * 2),
//! );
//! let sink = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
//! let sink2 = sink.clone();
//! let _collect = g.make_tt(
//!     "collect",
//!     (doubled,),
//!     (),
//!     |_k: &u64| 0usize,
//!     move |k, (x,): (i64,), _outs| sink2.lock().unwrap().push((*k, x)),
//! );
//!
//! let exec = Executor::new(g.build(), ExecConfig::distributed(2, 2, BackendSpec::default()));
//! for k in 0..4u64 {
//!     doubler.in_ref::<0>().seed(exec.ctx(), k, k as i64 + 10);
//! }
//! let report = exec.finish();
//! assert_eq!(report.tasks, 8);
//! let mut out = sink.lock().unwrap().clone();
//! out.sort();
//! assert_eq!(out, vec![(0, 20), (1, 22), (2, 24), (3, 26)]);
//! ```
//!
//! A program sees [`prelude`]: graph, template tasks, terminals, edges,
//! keymaps and the executor. Beside it the crate exports only what the
//! layers around it name: the task trace ([`TaskEvent`], [`chrome_trace`]),
//! the diagnostics records ([`StuckEntry`], [`Violation`],
//! [`MutationError`]) and the AM header ([`am`], which the hostile-input
//! tests forge frames with). Matching, streaming, launch and delivery stay
//! inside.

#![warn(missing_docs)]

pub mod am;
mod backend;
pub(crate) mod batch;
mod ctx;
mod edge;
mod executor;
mod export;
mod graph;
mod inspect;
mod node;
mod outs;
mod recovery;
mod trace;
mod tuples;
mod types;

pub use backend::BackendSpec;
pub use executor::ExecReport;
pub use export::chrome_trace;
pub use graph::Graph;
pub use inspect::{MutationError, StuckEntry, Violation};
pub use trace::{Dep, TaskEvent, TraceRecorder};
pub use ttg_comm::{CommError, CommErrorKind};
pub use types::{Data, Key, LocalPass};

/// Everything needed to write a TTG program.
pub mod prelude {
    pub use crate::backend::BackendSpec;
    pub use crate::edge::Edge;
    pub use crate::executor::{ExecConfig, ExecReport, Executor};
    pub use crate::graph::{Graph, GraphBuilder, TtHandle};
    pub use crate::outs::{Fanout, InRef, Outs};
    pub use crate::types::{Ctl, LocalPass};
    pub use ttg_comm::{FaultPlan, RemoteHandle, TransportKind, TransportSpec, Wire, WireKind};
}
