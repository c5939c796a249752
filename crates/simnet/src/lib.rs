//! # ttg-simnet — trace-driven discrete-event machine simulation
//!
//! The paper evaluates on 1–256 nodes of two clusters (Hawk, Seawulf). This
//! crate projects executions recorded on the in-process fabric onto such
//! machines: the application runs for real (producing a trace of task
//! instances, modelled durations, and the bytes each dependency moved
//! between ranks), and the simulator replays the trace on a LogGP-style
//! machine model — `P` nodes × `C` cores, per-message latency, per-byte
//! bandwidth, NIC serialization — yielding a projected makespan.
//!
//! Scaling *shape* (who wins, where curves flatten) is determined by the
//! DAG structure and communication volume, which are real; absolute numbers
//! depend on the calibrated cost models and are not expected to match the
//! paper (see `DESIGN.md`).

#![warn(missing_docs)]

pub mod des;
mod machines;

pub use des::{simulate, SimResult, TraceTask};
pub use machines::MachineModel;
