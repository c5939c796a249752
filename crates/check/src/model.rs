//! `--model` mode: run the `ttg-model` protocol corpus and report the
//! outcome in the checker's diagnostic vocabulary (TTG054/TTG055).
//!
//! Each corpus entry is a model-sized extraction of a real concurrency
//! protocol (worker sleep/wake, batched submit, sharded matching, the
//! reliable dedup window and ack protocol, the coordinated rollback, the
//! transport handshake) explored exhaustively up to its preemption bound.
//! A violated invariant becomes a **TTG054 error** carrying the failing
//! schedule; a clean exhaustive exploration becomes a **TTG055 note**
//! recording the coverage (schedules explored, pruned, truncated) so CI
//! artifacts show what "passed" meant.
//!
//! Wired into binaries next to `--check`: [`model_from_args`] runs the
//! corpus when `--model` appears on the command line, prints the report,
//! writes [`MODEL_REPORT_PATH`] in the same `ttg-check-report/1` JSON
//! schema as the static verifier, and exits the process (non-zero iff a
//! model failed). Lock-order (TTG050/TTG051) and wire-protocol
//! (TTG052/TTG053) findings over the crates' annotations ride along in
//! the same report — `--model` is the one-stop concurrency audit.

use std::path::Path;

use crate::report::{Diagnostic, Report};
use crate::{locks, protocol};
use ttg_model::Config;

/// Default location of the exported model-check JSON report.
pub const MODEL_REPORT_PATH: &str = "results/model_report.json";

/// How many trailing schedule steps of a failing trace to embed in the
/// diagnostic (full traces can run to hundreds of steps).
const TRACE_TAIL: usize = 12;

/// Run the model-checker corpus plus the static lock-order and
/// wire-protocol analyses, merged into one report. The report counts
/// corpus models as "nodes" and explored schedules as "edges".
pub fn run_corpus() -> Report {
    let entries = ttg_model::protocols::corpus();
    let mut report = Report::new(entries.len(), 0);
    for e in &entries {
        match (e.run)(Config::bounded(e.default_bound)) {
            Ok(stats) => {
                report.edges += stats.schedules;
                report.push(
                    Diagnostic::note(
                        "TTG055",
                        format!(
                            "model '{}' holds \"{}\": {} at preemption bound {}",
                            e.name, e.invariant, stats, e.default_bound
                        ),
                    )
                    .on_node(e.name),
                );
            }
            Err(v) => {
                let tail: Vec<&str> = v
                    .trace
                    .iter()
                    .rev()
                    .take(TRACE_TAIL)
                    .rev()
                    .map(String::as_str)
                    .collect();
                report.edges += v.stats.runs();
                report.push(
                    Diagnostic::error(
                        "TTG054",
                        format!(
                            "model '{}' violates \"{}\" ({:?}): {}",
                            e.name, e.invariant, v.kind, v.message
                        ),
                    )
                    .on_node(e.name)
                    .for_key(format!("schedule {}", v.stats.runs()))
                    .with_help(format!(
                        "deterministic repro; failing schedule tail: {}",
                        tail.join(" | ")
                    )),
                );
            }
        }
    }
    for d in locks::analyze(&locks::annotated()).diagnostics {
        report.push(d);
    }
    for d in protocol::analyze(&protocol::transport_spec()).diagnostics {
        report.push(d);
    }
    report
}

/// If `--model` appears on the command line, run [`run_corpus`], print the
/// report to stderr, write [`MODEL_REPORT_PATH`], and **exit the process**
/// (status 1 iff any error-severity finding). Returns quietly when the
/// flag is absent. Binaries call this once at startup, next to
/// [`crate::enable_from_args`].
pub fn model_from_args() {
    if !std::env::args().any(|a| a == "--model") {
        return;
    }
    let report = run_corpus();
    report.print_stderr();
    let path = Path::new(MODEL_REPORT_PATH);
    match report.write_json(path) {
        Ok(()) => eprintln!("ttg-check: wrote {}", path.display()),
        Err(e) => eprintln!("ttg-check: could not write {}: {e}", path.display()),
    }
    if report.errors() > 0 {
        eprintln!(
            "error: model checking failed with {} error(s)",
            report.errors()
        );
        std::process::exit(1);
    }
    std::process::exit(0);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_clean_and_reports_coverage() {
        let report = run_corpus();
        assert!(!report.has_code("TTG054"), "{}", report.render());
        assert!(report.is_clean(), "{}", report.render());
        // One TTG055 coverage note per corpus model.
        assert_eq!(
            report
                .diagnostics
                .iter()
                .filter(|d| d.code == "TTG055")
                .count(),
            ttg_model::protocols::corpus().len()
        );
        assert!(report.edges > 100, "coverage counter looks wrong");
        // The merged report round-trips through the schema-checked JSON.
        assert!(report.to_json().contains("ttg-check-report/1"));
    }

    #[test]
    fn violations_become_ttg054() {
        // Drive one known-bad mutation through the same rendering path the
        // corpus uses, so a regression in trace capture shows up here.
        let v = ttg_model::protocols::wake::check(
            Config::bounded(3),
            ttg_model::protocols::wake::Mutation::BumpOutsideLock,
        )
        .expect_err("mutation must be caught");
        let d = Diagnostic::error("TTG054", v.message.clone())
            .for_key(format!("schedule {}", v.stats.runs()));
        assert!(!v.trace.is_empty(), "violation lost its schedule trace");
        assert_eq!(d.code, "TTG054");
    }
}
