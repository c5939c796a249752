//! Model-sized extractions of the real concurrency protocols in this
//! repo, each checked against its stated invariant. Every model comes in a
//! correct flavor (must pass exhaustively) and one or more *mutations* —
//! faithful reproductions of bugs the protocol defends against (including
//! one that actually shipped: the transport handshake byte-drop) — which
//! the checker must find.

pub mod batch;
pub mod event;
pub mod handshake;
pub mod matching;
pub mod rollback;
pub mod term;

use crate::explore::{Config, Stats, Violation};

/// One corpus entry: a correct protocol model plus how to run it.
pub struct CorpusEntry {
    /// Stable name (used in reports and CI logs).
    pub name: &'static str,
    /// What the model checks, one line.
    pub invariant: &'static str,
    /// Run the correct model under `cfg`.
    pub run: fn(Config) -> Result<Stats, Box<Violation>>,
    /// Preemption bound at which the model is known to explore
    /// exhaustively in well under a minute.
    pub default_bound: usize,
}

/// The checker corpus: every protocol model, correct flavor.
pub fn corpus() -> Vec<CorpusEntry> {
    vec![
        CorpusEntry {
            name: "event_count",
            invariant: "event count with a deadline: a sleeper that prepares, re-checks and \
                        commits never sleeps through a signal, and leaves no sleeper counted",
            run: |cfg| event::check(cfg, event::Mutation::None),
            default_bound: 3,
        },
        CorpusEntry {
            name: "batch",
            invariant: "batched submit: one wake_seq bump per group, no task stranded, and \
                        a pool's quiescence unit registered when it turns busy, before \
                        the first enqueue, and released when its last job finishes",
            run: |cfg| batch::check(cfg, batch::Mutation::None),
            default_bound: 2,
        },
        CorpusEntry {
            name: "matching_insert",
            invariant: "sharded matching: racing put/take of one key matches exactly once",
            run: |cfg| matching::check(cfg, matching::Mutation::None),
            default_bound: 3,
        },
        CorpusEntry {
            name: "rollback",
            invariant: "coordinated rollback: a kill rolls every rank back to the last \
                        global cut, and the epoch fences pre-rollback copies and acks, \
                        keeping exactly-once delivery and a balanced ledger across a \
                        kill at a cut commit, a second kill in the re-execution, and \
                        duplicated and pre-rollback copies landing after the rollback",
            run: |cfg| rollback::check(cfg, rollback::Mutation::None),
            default_bound: 1,
        },
        CorpusEntry {
            name: "term_probe",
            invariant: "multi-process termination: two identical all-idle rounds with \
                        balanced sent/received totals are declared only when no \
                        message is in transit or unprocessed and no rank is running",
            run: |cfg| term::check(cfg, term::Mutation::None),
            default_bound: 2,
        },
        CorpusEntry {
            name: "handshake_reader",
            invariant: "transport handshake/reader: no byte of frames riding behind \
                        Hello is lost across the codec handoff, nor a staged byte of a \
                        bulk frame across the handoff to its payload buffer",
            run: |cfg| handshake::check(cfg, handshake::Mutation::None),
            default_bound: 2,
        },
    ]
}
