//! # ttg-comm — serialization and the simulated distributed fabric
//!
//! This crate provides the communication substrate of the TTG reproduction.
//! What it exports is what the layers above it name:
//!
//! * the [`Wire`] trait with three transfer protocols mirroring the paper
//!   (§II-C): trivial (`memcpy`), generic archive (Boost.Serialization
//!   analog), and split-metadata (two-stage RMA), written into
//!   [`WriteBuf`] and read from [`ReadBuf`] (the paper's custom
//!   high-performance in-memory archives);
//! * [`pool`] — a bounded free-list that recycles hot-path wire buffers
//!   instead of reallocating one per message;
//! * the [`Fabric`] of logical ranks: construction, `send_am`, physical
//!   delivery, the one receive dispatch, shutdown; its [`Packet`]s, its
//!   counters ([`StatsSnapshot`]) and its structured errors ([`CommError`]);
//! * [`FaultPlan`] — seeded, deterministic fault injection: per-link
//!   drop/duplicate/reorder/delay probabilities and scripted rank deaths
//!   ([`KillScript`]), parseable from a `--faults seed=K,drop=p` CLI spec;
//! * [`recover`] — the comm half of coordinated rollback ([`Recovery`]).
//!
//! Everything the fabric composes is private to the crate and sees a narrow
//! *port* (named in each module's header; DESIGN §9 has the map), never the
//! fabric: `links` (the link layer as data), `chaos` over `reliable` (the
//! reliable layer a [`FaultPlan`] installs), `control` (a multi-process
//! rank's barrier and termination), `rma` (one-sided regions), `stats`,
//! `error`, `ledger` (the in-flight ledger) and `wake` (the progress
//! thread's schedule).
//!
//! The fabric replaces MPI + InfiniBand from the paper's testbeds; see
//! `DESIGN.md` for the substitution argument and §8 for the fault model.

#![warn(missing_docs)]

mod buf;
mod chaos;
mod control;
mod error;
mod fabric;
mod fault;
mod ledger;
mod links;
pub mod recover;
mod reliable;
mod rma;
mod stats;
mod wake;
mod wire;

// The wire-buffer pool moved down into `ttg-transport` so the socket mesh
// can encode frames through it without a dependency cycle; re-exported
// here unchanged for the existing `ttg_comm::pool` users.
pub use ttg_transport::pool;

pub use buf::{ReadBuf, WireError, WriteBuf};
pub use error::{CommError, CommErrorKind};
pub use fabric::Fabric;
pub use fault::{FaultPlan, KillScript, RetryPolicy};
pub use links::Packet;
pub use pool::{pool_stats, PoolStats};
pub use recover::Recovery;
pub use stats::StatsSnapshot;
// Link-layer selection re-exported so executors and apps need no direct
// ttg-transport dependency (DESIGN §9).
pub use ttg_transport::{RemoteHandle, TransportKind, TransportSpec};
pub use wire::{bytes_to_f64s, f64s_to_bytes, from_bytes, to_bytes, Wire, WireKind};
