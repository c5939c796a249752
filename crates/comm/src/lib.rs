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
//! * [`fabric`] — the [`Fabric`] of logical ranks: construction,
//!   `send_am`, physical delivery, the one receive dispatch, shutdown. What
//!   it composes lives in modules that see a narrow *port* (named in each
//!   module's header; DESIGN §9 has the map), never the fabric: [`links`]
//!   (the link layer as data), [`chaos`] over [`reliable`] (the reliable
//!   layer a [`FaultPlan`] installs), [`recover`] (the global cut and the rollback),
//!   [`control`] (a multi-process rank's barrier and termination),
//!   [`rma`] (one-sided regions), [`stats`], [`error`], [`ledger`] (the
//!   in-flight ledger), [`wake`] (the progress thread's schedule);
//! * [`fault`] — seeded, deterministic fault injection ([`FaultPlan`]):
//!   per-link drop/duplicate/reorder/delay probabilities and scripted rank
//!   deaths, parseable from a `--faults seed=K,drop=p` CLI spec.
//!
//! The fabric replaces MPI + InfiniBand from the paper's testbeds; see
//! `DESIGN.md` for the substitution argument and §8 for the fault model.

#![warn(missing_docs)]

pub mod buf;
pub mod chaos;
pub mod control;
pub mod error;
pub mod fabric;
pub mod fault;
pub mod ledger;
pub mod links;
pub mod lockdoc;
pub mod recover;
pub mod reliable;
pub mod rma;
pub mod stats;
pub mod wake;
pub mod wire;

// The wire-buffer pool moved down into `ttg-transport` so the socket mesh
// can encode frames through it without a dependency cycle; re-exported
// here unchanged for the existing `ttg_comm::pool` users.
pub use ttg_transport::pool;

pub use buf::{ReadBuf, WireError, WriteBuf};
pub use error::{CommError, CommErrorKind, RmaError, SendError};
pub use fabric::Fabric;
pub use fault::{FaultPlan, KillScript, RetryPolicy};
pub use links::{Packet, Rank};
pub use pool::{pool_stats, PoolStats};
pub use recover::Recovery;
pub use reliable::SeqWindow;
pub use rma::RegionId;
pub use stats::{FabricStats, StatsSnapshot};
// Link-layer selection re-exported so executors and apps need no direct
// ttg-transport dependency (DESIGN §9).
pub use ttg_transport::{RemoteHandle, TransportError, TransportKind, TransportSpec};
pub use wire::{bytes_to_f64s, f64s_to_bytes, from_bytes, to_bytes, Wire, WireKind};
