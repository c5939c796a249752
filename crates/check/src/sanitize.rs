//! Runtime-report sanitization: turn the structured records an execution
//! leaves behind ([`ExecReport::violations`] from the `checked` feature's
//! matching-path instrumentation, [`ExecReport::stuck`] from the
//! termination-time matching-table sweep) into the same coded diagnostics
//! the static verifier emits.

use ttg_core::{CommError, CommErrorKind, ExecReport, StuckEntry, Violation};

use crate::report::{Diagnostic, Report};

/// Diagnostic for one runtime violation. The code comes from
/// [`Violation::code`]; the violation's own display text (minus the code
/// prefix) becomes the message.
pub(crate) fn violation_diagnostic(v: &Violation) -> Diagnostic {
    let full = v.to_string();
    let message = full
        .strip_prefix(v.code())
        .map(str::trim_start)
        .unwrap_or(&full)
        .to_string();
    let mut d = Diagnostic::error(v.code(), message);
    match v {
        Violation::ExactlyOnce {
            node,
            terminal,
            key,
        }
        | Violation::SetSizeOnPlain {
            node,
            terminal,
            key,
        }
        | Violation::DoubleFinalize {
            node,
            terminal,
            key,
        }
        | Violation::FinalizeUnknownKey {
            node,
            terminal,
            key,
        }
        | Violation::FinalizeNonStream {
            node,
            terminal,
            key,
        }
        | Violation::StreamWithoutReducer {
            node,
            terminal,
            key,
        } => {
            d = d.on_node(*node).on_terminal(*terminal).for_key(key.clone());
        }
        Violation::StreamOverrun {
            node,
            terminal,
            key,
            ..
        }
        | Violation::SizeBelowReceived {
            node,
            terminal,
            key,
            ..
        } => {
            d = d.on_node(*node).on_terminal(*terminal).for_key(key.clone());
        }
        Violation::EmptyStream { node, key } => {
            d = d.on_node(*node).for_key(key.clone());
        }
        Violation::DroppedSend { edge, .. } => {
            d = d.on_edge(edge.clone());
        }
    }
    d
}

/// Diagnostic `TTG030` for one stuck (partially matched) key: the
/// structured form of a deadlock that would otherwise be a silent hang.
pub fn stuck_diagnostic(s: &StuckEntry) -> Diagnostic {
    let mut d = Diagnostic::error("TTG030", format!("stuck key at termination: {s}"))
        .on_node(s.node)
        .for_key(s.key.clone())
        .on_rank(s.rank)
        .with_help(
            "every input terminal must receive a message (or a complete stream) \
             for this key; check the producers of the listed terminals",
        );
    if let Some((t, _)) = s.missing.first() {
        d = d.on_terminal(*t);
    }
    d
}

/// Diagnostic `TTG040`–`TTG048` for one structured communication failure
/// (see DESIGN §8 and §13): retry-budget exhaustion, deadline misses, and
/// snapshot/recovery failures are hard errors (data was lost or the run
/// gave up); a post-shutdown send on a closed channel is
/// only a warning (expected during teardown races), and a `RankRecovered`
/// event is informational — a kill that the runtime survived.
pub(crate) fn comm_diagnostic(e: &CommError) -> Diagnostic {
    let mut d = match e.kind {
        CommErrorKind::ChannelClosed => Diagnostic::warning(e.code(), e.to_string()),
        CommErrorKind::RankRecovered => Diagnostic::warning(e.code(), e.to_string()),
        _ => Diagnostic::error(e.code(), e.to_string()),
    };
    if let Some(to) = e.to {
        d = d.on_rank(to);
    }
    d = match e.kind {
        CommErrorKind::RetryBudgetExhausted => d.with_help(
            "a message exhausted its retransmission budget — the destination \
             rank is dead or the link loss rate exceeds what the retry policy \
             can absorb; raise `retries=`/`rto_us=` in the fault spec or fix \
             the dead rank",
        ),
        CommErrorKind::DeadlineMissed => d.with_help(
            "the execution did not reach quiescence within its delivery \
             deadline; inspect comm_errors and the stuck-key report for the \
             blocked messages",
        ),
        CommErrorKind::ChannelClosed => d.with_help(
            "a send raced the destination rank's shutdown; harmless during \
             teardown, a bug if it appears mid-run",
        ),
        CommErrorKind::TransportFailure => d.with_help(
            "the socket link layer failed mid-run (connect refused, peer \
             reset, framing garbage); check the peer process and the \
             transport spec",
        ),
        CommErrorKind::RankRecovered => d.with_help(
            "informational: a killed rank was restored from its last \
             snapshot and its logged sends replayed; see DESIGN \u{a7}13",
        ),
        CommErrorKind::SnapshotFailed => d.with_help(
            "a periodic state snapshot could not be captured or persisted; \
             the previous snapshot remains the restore point — check the \
             snapshot sink (disk space, permissions)",
        ),
        CommErrorKind::RecoveryFailed => d.with_help(
            "a rank restore/replay attempt failed; the rank stays dead and \
             the run degrades to fail-and-report — inspect the paired \
             TTG040/TTG041 diagnostics for the data that was lost",
        ),
        _ => d,
    };
    d
}

/// Convert an execution's runtime findings into a coded report.
///
/// Empty `violations`, `stuck`, and `comm_errors` produce a clean report.
/// Violations keep their [`Violation::code`]s (TTG02x, TTG031); each stuck
/// key becomes a `TTG030` error; communication failures become
/// `TTG040`–`TTG048` diagnostics.
pub fn report_from_exec(exec: &ExecReport) -> Report {
    let mut report = Report::new(exec.per_node.len(), 0);
    for v in &exec.violations {
        report.push(violation_diagnostic(v));
    }
    for s in &exec.stuck {
        report.push(stuck_diagnostic(s));
    }
    for e in &exec.comm_errors {
        report.push(comm_diagnostic(e));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Severity;

    fn err(kind: CommErrorKind) -> CommError {
        CommError::new(kind, "test").link(0, 1).handler(7).seq(42)
    }

    #[test]
    fn comm_error_codes_map_to_ttg04x() {
        let cases = [
            (CommErrorKind::RetryBudgetExhausted, "TTG040"),
            (CommErrorKind::DeadlineMissed, "TTG041"),
            (CommErrorKind::ChannelClosed, "TTG042"),
            (CommErrorKind::DeliveryFailed, "TTG043"),
            (CommErrorKind::UnknownRegion, "TTG044"),
            (CommErrorKind::TransportFailure, "TTG045"),
            (CommErrorKind::RankRecovered, "TTG046"),
            (CommErrorKind::SnapshotFailed, "TTG047"),
            (CommErrorKind::RecoveryFailed, "TTG048"),
        ];
        for (kind, code) in cases {
            let d = comm_diagnostic(&err(kind));
            assert_eq!(d.code, code);
        }
    }

    #[test]
    fn channel_closed_is_warning_rest_are_errors() {
        assert_eq!(
            comm_diagnostic(&err(CommErrorKind::ChannelClosed)).severity,
            Severity::Warning
        );
        assert_eq!(
            comm_diagnostic(&err(CommErrorKind::RetryBudgetExhausted)).severity,
            Severity::Error
        );
        assert_eq!(
            comm_diagnostic(&err(CommErrorKind::DeadlineMissed)).severity,
            Severity::Error
        );
    }
}
