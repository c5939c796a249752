//! `--model` mode: run the `event_count` model and report the outcome in
//! the checker's diagnostic vocabulary (TTG054/TTG055).
//!
//! `event_count` explores the event count every sleeper parks on — the
//! production definition over the model checker's shadow primitives —
//! exhaustively up to its preemption bound. The other concurrent protocols
//! are explored as shipped by model cases beside their code, compiled with
//! `--cfg ttg_model`: CI runs those (`cargo test --lib` per crate), not
//! `--model`. A violated invariant becomes a **TTG054 error** carrying the
//! failing schedule; a clean exhaustive exploration becomes a **TTG055
//! note** recording the coverage (schedules explored, pruned, truncated)
//! so CI artifacts show what "passed" meant.
//!
//! Wired into binaries next to `--check`: [`model_from_args`] runs the
//! model when `--model` appears on the command line, prints the report,
//! writes [`MODEL_REPORT_PATH`] in the same `ttg-check-report/1` JSON
//! schema as the static verifier, and exits the process (non-zero iff a
//! model failed). Lock-order (TTG050/TTG051) and wire-protocol
//! (TTG052/TTG053) findings over the crates' annotations ride along in
//! the same report — `--model` is the one-stop concurrency audit.

use std::path::Path;

use crate::report::{Diagnostic, Report};
use crate::{locks, protocol};
use ttg_model::event::{self, Mutation};
use ttg_model::{Config, Stats, Violation};

/// Default location of the exported model-check JSON report.
pub(crate) const MODEL_REPORT_PATH: &str = "results/model_report.json";

/// How many trailing schedule steps of a failing trace to embed in the
/// diagnostic (full traces can run to hundreds of steps).
const TRACE_TAIL: usize = 12;

/// The one model `--model` explores, and its invariant.
const EVENT_COUNT: &str = "event_count";
const INVARIANT: &str = "event count with a deadline: a sleeper that prepares, re-checks and \
                         commits never sleeps through a signal, and leaves no sleeper counted";
/// The preemption bound it explores exhaustively at.
const BOUND: usize = 3;

/// The report entry for one exploration of `event_count`.
fn diagnose(outcome: Result<Stats, Box<Violation>>, report: &mut Report) {
    match outcome {
        Ok(stats) => {
            report.edges += stats.schedules;
            report.push(
                Diagnostic::note(
                    "TTG055",
                    format!(
                        "model '{EVENT_COUNT}' holds \"{INVARIANT}\": {stats} at preemption \
                         bound {BOUND}"
                    ),
                )
                .on_node(EVENT_COUNT),
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
                        "model '{EVENT_COUNT}' violates \"{INVARIANT}\" ({:?}): {}",
                        v.kind, v.message
                    ),
                )
                .on_node(EVENT_COUNT)
                .for_key(format!("schedule {}", v.stats.runs()))
                .with_help(format!(
                    "deterministic repro; failing schedule tail: {}",
                    tail.join(" | ")
                )),
            );
        }
    }
}

/// Explore `event_count`, then run the static lock-order and
/// wire-protocol analyses, merged into one report. The report counts the
/// model as a "node" and explored schedules as "edges".
pub(crate) fn run_corpus() -> Report {
    let mut report = Report::new(1, 0);
    diagnose(
        event::check(Config::bounded(BOUND), Mutation::None),
        &mut report,
    );
    for d in locks::analyze(&locks::annotated()).diagnostics {
        report.push(d);
    }
    for d in protocol::analyze(&protocol::transport_spec()).diagnostics {
        report.push(d);
    }
    report
}

/// If `--model` appears on the command line, run the model corpus, print the
/// report to stderr, write `results/model_report.json`, and **exit the process**
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
        // One TTG055 coverage note: the event count's.
        let notes = report.diagnostics.iter().filter(|d| d.code == "TTG055");
        assert_eq!(notes.count(), 1);
        assert!(report.edges > 1, "coverage counter looks wrong");
        // The merged report round-trips through the schema-checked JSON.
        assert!(report.to_json().contains("ttg-check-report/1"));
    }

    #[test]
    fn violations_become_ttg054() {
        // Drive a known-bad mutation through the rendering path the clean
        // run takes, so a regression in trace capture shows up here.
        let mut report = Report::new(1, 0);
        diagnose(
            event::check(Config::bounded(BOUND), Mutation::BumpOutsideLock),
            &mut report,
        );
        let d = &report.diagnostics[0];
        assert_eq!(d.code, "TTG054");
        assert!(d.message.contains("Deadlock"), "{}", report.render());
        assert!(report.edges > 0, "the failing run is counted");
    }
}
