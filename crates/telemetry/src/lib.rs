//! # ttg-telemetry — the runtime's metrics
//!
//! A **metrics registry** ([`Registry`]): lock-light atomic counters,
//! gauges, and log₂-bucket histograms keyed by `(rank, subsystem, name)`.
//! Handle creation takes a short-lived shard lock; every subsequent update
//! is a single relaxed atomic op on a shared cell. Snapshots are cheap,
//! diffable, and serialize to JSON. A component declares its handles with
//! [`metrics!`], one table row per metric. [`json`] escapes strings for
//! the serializers and validates exported documents.
//!
//! Time is not this crate's: when a task ran is recorded by the execution's
//! own trace (`ttg_core::TaskEvent`), which `ttg_core::chrome_trace`
//! exports.

#![warn(missing_docs)]

pub mod json;
mod metrics;
mod table;

pub use metrics::{Counter, Gauge, Histogram, MetricKey, MetricValue, Padded, Registry, Snapshot};
pub use table::Reading;
