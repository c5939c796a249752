//! # ttg-telemetry — unified runtime observability
//!
//! Three layers, mirroring what the paper's assessment actually measures:
//!
//! 1. **Metrics registry** ([`Registry`]): lock-light atomic counters,
//!    gauges, and log₂-bucket histograms keyed by
//!    `(rank, subsystem, name)`. Handle creation takes a short-lived shard
//!    lock; every subsequent update is a single relaxed atomic op on a
//!    shared cell. Snapshots are cheap, diffable, and serialize to JSON.
//!    A component declares its handles with [`metrics!`], one table row per
//!    metric.
//! 2. **Span tracing** ([`span()`] and its guard): RAII begin/end timestamps
//!    recorded into per-thread buffers, plus instant events for one-shot
//!    occurrences (wire transfers). Recording is gated by a global runtime
//!    toggle ([`set_enabled`]) and costs nothing when off beyond one
//!    relaxed load.
//! 3. **Chrome trace-event export** ([`ChromeTraceBuilder`]): merges spans,
//!    task events, and wire transfers onto one timeline in the Chrome
//!    trace-event JSON format (loadable in Perfetto / `chrome://tracing`),
//!    with ranks as processes and scheduler threads as threads.
//!
//! Compile-time gating lives in the *instrumented* crates: they only emit
//! span/instant calls when built with their `telemetry` cargo feature. This
//! crate itself is always fully functional so its correctness is covered by
//! tier-1 tests.

#![warn(missing_docs)]

mod chrome;
pub mod json;
mod metrics;
pub mod span;
mod table;

pub use chrome::{ChromeTraceBuilder, TaskSlice};
pub use metrics::{Counter, Gauge, Histogram, MetricKey, MetricValue, Padded, Registry, Snapshot};
pub use span::{drain_events, instant, set_enabled, span, span_for_rank, thread_names};
pub use table::Reading;
