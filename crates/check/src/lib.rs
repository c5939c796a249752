//! # ttg-check — static graph verifier and runtime graph sanitizer
//!
//! Template task graphs fail in characteristic ways: an input terminal
//! nobody produces (tasks never assemble), an edge nobody consumes (sends
//! silently vanish), a keymap that disagrees with itself across ranks, a
//! half-matched key left in a matching table (a silent hang). This crate
//! turns each of those into a **coded, rustc-style diagnostic**:
//!
//! ```text
//! error[TTG001]: input terminal 1 of 'gemm' has no producer and no declared seed
//!   --> node 'gemm', terminal 1, edge 'c_in'
//!   = help: connect a producer to edge 'c_in' or seed it via in_ref::<1>()
//! ```
//!
//! Two halves:
//!
//! * **Static verification** ([`verify`]) walks a built
//!   [`Graph`] before anything runs: terminal/edge
//!   topology (TTG001/TTG002), reducer configuration (TTG003), sampled
//!   keymap probing (TTG004/TTG005), seed-reachability (TTG006), duplicate
//!   names (TTG007). Post-attach mutations surface as TTG010 through
//!   [`MutationError`](ttg_core::MutationError).
//! * **Runtime sanitization** ([`report_from_exec`]) converts what an
//!   execution left behind into the same diagnostics: the `checked` cargo
//!   feature's structured violations (TTG020–TTG026, TTG031) and the
//!   termination-time stuck-key sweep (TTG030).
//!
//! Binaries wire the whole thing through one flag: call
//! [`enable_from_args`] at startup and [`check_if_enabled`] after building
//! the graph; with `--check` on the command line the verifier runs, prints
//! to stderr, writes `results/check_report.json`, and exits non-zero on
//! errors. Without the flag, nothing happens.
//!
//! A third half: **concurrency diagnostics** over the runtime stack itself
//! rather than a user graph — lock-order analysis of the crates' annotated
//! lock sets (TTG050/TTG051), wire-protocol state-machine checks
//! (TTG052/TTG053), and a `--model` mode ([`model_from_args`]) that
//! exhaustively explores `ttg-model`'s `event_count` case and reports
//! TTG054 violations / TTG055 coverage in the same JSON report schema.
//!
//! The crate exports exactly those entry points ([`verify`],
//! [`report_from_exec`], [`stuck_diagnostic`], the `--check`/`--model`
//! switches) and the [`Diagnostic`] records with their [`Severity`]; the
//! passes themselves are private.

#![warn(missing_docs)]

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use ttg_core::Graph;

mod locks;
mod model;
mod protocol;
mod report;
mod sanitize;
mod verify;

pub use model::model_from_args;
use report::Report;
pub use report::{Diagnostic, Severity};
pub use sanitize::{report_from_exec, stuck_diagnostic};
pub use verify::verify;

/// Default location of the exported JSON report.
pub(crate) const REPORT_PATH: &str = "results/check_report.json";

static ENABLED: AtomicBool = AtomicBool::new(false);
static LAST_SUMMARY: Mutex<Option<Summary>> = Mutex::new(None);

/// Counts from the most recent [`check_if_enabled`] run, for embedding in
/// other artifacts (the fig5 pipeline records these next to its metrics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Summary {
    /// Template tasks inspected.
    pub nodes: usize,
    /// Distinct edges inspected.
    pub edges: usize,
    /// Error-severity findings.
    pub errors: usize,
    /// Warning-severity findings.
    pub warnings: usize,
    /// Note-severity findings.
    pub notes: usize,
}

impl From<&Report> for Summary {
    fn from(r: &Report) -> Self {
        Summary {
            nodes: r.nodes,
            edges: r.edges,
            errors: r.errors(),
            warnings: r.warnings(),
            notes: r.notes(),
        }
    }
}

/// Turn verification on for this process ([`check_if_enabled`] becomes
/// active).
pub fn enable() {
    ENABLED.store(true, Ordering::SeqCst);
}

/// Whether verification is on.
pub(crate) fn enabled() -> bool {
    ENABLED.load(Ordering::SeqCst)
}

/// Enable verification when `--check` appears on the command line; returns
/// the resulting enabled state. Binaries call this once at startup.
pub fn enable_from_args() -> bool {
    if std::env::args().any(|a| a == "--check") {
        enable();
    }
    enabled()
}

/// Summary of the most recent [`check_if_enabled`] run in this process,
/// if one happened.
pub fn last_summary() -> Option<Summary> {
    *LAST_SUMMARY.lock().expect("summary lock poisoned")
}

/// If verification is enabled, verify `graph`, print the diagnostics to
/// stderr, export `results/check_report.json`, and **exit the process with status 1**
/// when any error-severity finding exists. Returns the report (or `None`
/// when disabled) so callers can inspect warnings.
///
/// `seeds` is the list of externally seeded `(node id, terminal)` pairs —
/// build it from the [`InRef`](ttg_core::prelude::InRef)s the caller seeds through
/// (`(r.node_id(), r.terminal())`).
pub fn check_if_enabled(graph: &Graph, n_ranks: usize, seeds: &[(u32, usize)]) -> Option<Report> {
    if !enabled() {
        return None;
    }
    let report = verify::verify(graph, n_ranks, seeds);
    report.print_stderr();
    *LAST_SUMMARY.lock().expect("summary lock poisoned") = Some(Summary::from(&report));
    let path = Path::new(REPORT_PATH);
    match report.write_json(path) {
        Ok(()) => eprintln!("ttg-check: wrote {}", path.display()),
        Err(e) => eprintln!("ttg-check: could not write {}: {e}", path.display()),
    }
    if report.errors() > 0 {
        eprintln!(
            "error: graph verification failed with {} error(s)",
            report.errors()
        );
        std::process::exit(1);
    }
    Some(report)
}
