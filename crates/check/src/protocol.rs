//! Wire-protocol state-machine checks (diagnostics TTG052/TTG053).
//!
//! The transport annotates its frame vocabulary
//! ([`ttg_transport::frame::WIRE_KINDS`]) and the fabric publishes which
//! kinds some layer of the stack actually terminates
//! ([`ttg_comm::fabric::CONSUMED_FRAME_KINDS`]). Joining the two catches
//! the protocol bugs that otherwise surface as silent hangs:
//!
//! * **TTG052 — send without matching terminal.** A kind the wire defines
//!   but no receive path consumes: every such frame vanishes at the peer,
//!   and whatever was waiting on its effect waits forever. The same code
//!   also covers a declared request/response pair whose response kind does
//!   not exist.
//! * **TTG053 — ack without seq.** An acknowledgement kind that does not
//!   carry the sequence number it acknowledges cannot clear the sender's
//!   retransmit entry; the reliable layer retransmits until the retry
//!   budget converts a healthy link into a structured failure.

use std::collections::BTreeSet;

use crate::report::{Diagnostic, Report};
use ttg_transport::frame::KindSpec;

/// A wire protocol to check: the annotated frame vocabulary plus the kinds
/// the receiving stack terminates.
#[derive(Debug, Clone)]
pub(crate) struct WireSpec {
    /// Protocol name (diagnostic location).
    pub(crate) name: &'static str,
    /// `(kind, is_ack, has_seq, expected_response)` annotations.
    pub(crate) kinds: &'static [KindSpec],
    /// Kinds consumed somewhere in the stack.
    pub(crate) consumed: &'static [&'static str],
}

/// The production protocol: transport frame table joined with the fabric's
/// consumed-kind list.
pub(crate) fn transport_spec() -> WireSpec {
    WireSpec {
        name: "ttg-transport/ttg-comm",
        kinds: ttg_transport::frame::WIRE_KINDS,
        consumed: ttg_comm::fabric::CONSUMED_FRAME_KINDS,
    }
}

/// Analyze one protocol; the report counts kinds as "nodes" and declared
/// request/response pairs as "edges".
pub(crate) fn analyze(spec: &WireSpec) -> Report {
    let consumed: BTreeSet<&str> = spec.consumed.iter().copied().collect();
    let defined: BTreeSet<&str> = spec.kinds.iter().map(|k| k.0).collect();
    let mut report = Report::new(spec.kinds.len(), 0);

    for (name, is_ack, has_seq, response) in spec.kinds {
        if !consumed.contains(name) {
            report.push(
                Diagnostic::error(
                    "TTG052",
                    format!("frame kind '{name}' is sent but no receive path consumes it"),
                )
                .on_node(spec.name)
                .on_edge(*name)
                .with_help(
                    "every frame the wire defines needs a terminal: add a dispatch arm \
                     (and list the kind in CONSUMED_FRAME_KINDS) or drop the kind",
                ),
            );
        }
        if let Some(resp) = response {
            report.edges += 1;
            if !defined.contains(resp) {
                report.push(
                    Diagnostic::error(
                        "TTG052",
                        format!(
                            "frame kind '{name}' declares response '{resp}', which the \
                             protocol does not define"
                        ),
                    )
                    .on_node(spec.name)
                    .on_edge(*name)
                    .with_help("a request whose response kind does not exist can never complete"),
                );
            }
        }
        if *is_ack && !*has_seq {
            report.push(
                Diagnostic::error(
                    "TTG053",
                    format!(
                        "acknowledgement kind '{name}' carries no sequence number \
                         identifying what it acknowledges"
                    ),
                )
                .on_node(spec.name)
                .on_edge(*name)
                .with_help(
                    "without the seq the sender cannot clear its retransmit entry; the \
                     packet retries until the budget converts it into a delivery failure",
                ),
            );
        }
    }
    // A consumed-kind entry for a kind the wire no longer defines is stale
    // documentation, not a hang: flag it as a warning.
    for name in &consumed {
        if !defined.contains(name) {
            report.push(
                Diagnostic::warning(
                    "TTG052",
                    format!("consumed-kind list names '{name}', which the wire does not define"),
                )
                .on_node(spec.name)
                .on_edge(*name)
                .with_help("remove the stale entry from CONSUMED_FRAME_KINDS"),
            );
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn production_protocol_is_clean() {
        let report = analyze(&transport_spec());
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.nodes, ttg_transport::frame::WIRE_KINDS.len());
    }

    #[test]
    fn unconsumed_kind_fires_ttg052() {
        let spec = WireSpec {
            name: "synthetic",
            kinds: &[("Ping", false, false, None)],
            consumed: &[],
        };
        let report = analyze(&spec);
        assert!(report.has_code("TTG052"), "{}", report.render());
        assert_eq!(report.errors(), 1);
    }

    #[test]
    fn missing_response_kind_fires_ttg052() {
        let spec = WireSpec {
            name: "synthetic",
            kinds: &[("Ping", false, false, Some("Pong"))],
            consumed: &["Ping"],
        };
        let report = analyze(&spec);
        assert!(report.has_code("TTG052"));
        assert!(report.diagnostics[0].message.contains("Pong"));
    }

    #[test]
    fn production_protocol_covers_ack_range() {
        // The batched-acknowledgement control frame must be registered on
        // both sides of the join: defined by the wire with ack+seq
        // annotations (so TTG053 applies to it) and listed as consumed
        // (so TTG052 would fire if its dispatch arm were removed).
        let spec = transport_spec();
        let entry = spec
            .kinds
            .iter()
            .find(|k| k.0 == "AckRange")
            .expect("wire must define AckRange");
        assert!(entry.1, "AckRange is an acknowledgement kind");
        assert!(entry.2, "AckRange carries the sequences it acknowledges");
        assert!(
            spec.consumed.contains(&"AckRange"),
            "link_rx must be registered as AckRange's terminal"
        );
    }

    #[test]
    fn seqless_ranged_ack_fires_ttg053() {
        // Corpus case for the batched-ack shape: an AckRange-like kind
        // whose ranges were dropped from the encoding can never clear the
        // sender's retransmit entries.
        let spec = WireSpec {
            name: "synthetic",
            kinds: &[("Am", false, true, None), ("AckRange", true, false, None)],
            consumed: &["Am", "AckRange"],
        };
        let report = analyze(&spec);
        assert!(report.has_code("TTG053"), "{}", report.render());
        assert_eq!(report.errors(), 1);
        assert!(report.diagnostics[0].message.contains("AckRange"));
    }

    #[test]
    fn seqless_ack_fires_ttg053() {
        let spec = WireSpec {
            name: "synthetic",
            kinds: &[("Ack", true, false, None)],
            consumed: &["Ack"],
        };
        let report = analyze(&spec);
        assert!(report.has_code("TTG053"), "{}", report.render());
    }

    #[test]
    fn stale_consumed_entry_warns() {
        let spec = WireSpec {
            name: "synthetic",
            kinds: &[("Ping", false, false, None)],
            consumed: &["Ping", "Gone"],
        };
        let report = analyze(&spec);
        assert_eq!(report.warnings(), 1, "{}", report.render());
        assert_eq!(report.errors(), 0);
    }
}
