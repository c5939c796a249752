//! # ttg-comm — serialization and the simulated distributed fabric
//!
//! This crate provides the communication substrate of the TTG reproduction:
//!
//! * [`buf`] — append-only/read-forward binary buffers (the paper's custom
//!   high-performance in-memory archives);
//! * [`wire`] — the [`Wire`] trait with three transfer protocols mirroring
//!   the paper (§II-C): trivial (`memcpy`), generic archive
//!   (Boost.Serialization analog), and split-metadata (two-stage RMA);
//! * [`pool`] — a bounded free-list that recycles hot-path wire buffers
//!   instead of reallocating one per message;
//! * [`fabric`] — an in-process fabric of logical ranks with active
//!   messages, emulated one-sided RMA, barriers, and traffic counters;
//! * [`fault`] — seeded, deterministic fault injection ([`FaultPlan`]):
//!   per-link drop/duplicate/reorder/delay probabilities and scripted rank
//!   deaths, parseable from a `--faults seed=K,drop=p` CLI spec;
//! * [`reliable`] — the reliable-delivery protocol run under a fault plan:
//!   per-link sequence numbers, receive-side dedup windows, ack +
//!   exponential-backoff retransmit with a bounded retry budget.
//!
//! The fabric replaces MPI + InfiniBand from the paper's testbeds; see
//! `DESIGN.md` for the substitution argument and §8 for the fault model.

#![warn(missing_docs)]

pub mod buf;
pub mod fabric;
pub mod fault;
pub mod lockdoc;
pub mod recover;
pub mod reliable;
pub mod wire;

// The wire-buffer pool moved down into `ttg-transport` so the socket mesh
// can encode frames through it without a dependency cycle; re-exported
// here unchanged for the existing `ttg_comm::pool` users.
pub use ttg_transport::pool;

pub use buf::{ReadBuf, WireError, WriteBuf};
pub use fabric::{
    CommError, CommErrorKind, Fabric, FabricStats, Packet, Rank, RegionId, RmaError, SendError,
    StatsSnapshot,
};
pub use fault::{FaultPlan, KillScript, RetryPolicy};
pub use pool::{pool_stats, PoolStats};
pub use recover::{FileSnapshotSink, MemorySnapshotSink, SharedSnapshotSink, SnapshotSink};
pub use reliable::SeqWindow;
// Link-layer selection re-exported so executors and apps need no direct
// ttg-transport dependency (DESIGN §9).
pub use ttg_transport::{RemoteHandle, TransportError, TransportKind, TransportSpec};
pub use wire::{bytes_to_f64s, f64s_to_bytes, from_bytes, to_bytes, Wire, WireKind};
