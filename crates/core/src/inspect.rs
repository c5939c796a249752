//! Graph introspection and runtime-sanitizer vocabulary.
//!
//! The static verifier in `ttg-check` walks a built [`Graph`](crate::Graph)
//! through the type-erased [`AnyNode`](crate::node::AnyNode) interface; the
//! types here are what that interface speaks: edge/terminal topology
//! declarations recorded at `make_tt` time, sampled keymap probes, the
//! stuck-key entries collected from the matching tables at termination, and
//! the structured violations the `checked` runtime sanitizer records instead
//! of panicking.

use std::fmt;

use ttg_model::sync::Mutex;

/// Identity of one edge as recorded on a node's input/output terminal lists.
///
/// Edge ids are process-globally unique (allocated by [`crate::Edge::new`]),
/// so two terminals naming the same id are connected through the same edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeDecl {
    /// Process-unique edge id.
    pub edge_id: u64,
    /// Edge name given at construction (diagnostics only, not unique).
    pub name: String,
}

/// Declared reducer configuration of one input terminal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReducerDecl {
    /// Expected stream length for every key (`None` = unbounded, must be
    /// closed per key with `set_size`/`finalize`).
    pub default_size: Option<usize>,
}

/// Outcome of evaluating a node's keymap over registered sample keys.
#[derive(Debug, Clone, Default)]
pub struct KeymapProbe {
    /// Keys (debug-rendered) whose raw keymap value was `>= n_ranks`,
    /// with the value returned.
    pub out_of_range: Vec<(String, usize)>,
    /// Keys for which two evaluations returned different ranks.
    pub nondeterministic: Vec<String>,
}

/// A partially matched task ID left in a matching table at termination:
/// the anatomy of a silent hang.
#[derive(Debug, Clone)]
pub struct StuckEntry {
    /// Name of the owning template task.
    pub node: &'static str,
    /// Rank whose table holds the entry.
    pub rank: usize,
    /// The stuck task ID, debug-rendered.
    pub key: String,
    /// Incomplete terminals: `(terminal index, state description)`.
    pub missing: Vec<(usize, String)>,
    /// Terminals that did receive a complete input.
    pub filled: Vec<usize>,
}

impl fmt::Display for StuckEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "node '{}' key {} on rank {}: ",
            self.node, self.key, self.rank
        )?;
        let parts: Vec<String> = self
            .missing
            .iter()
            .map(|(t, state)| format!("terminal {t} {state}"))
            .collect();
        write!(f, "waiting on {}", parts.join(", "))?;
        if !self.filled.is_empty() {
            let filled: Vec<String> = self.filled.iter().map(usize::to_string).collect();
            write!(f, " (terminals {} already matched)", filled.join(", "))?;
        }
        Ok(())
    }
}

/// Error returned when a node map is mutated after the executor froze it
/// (diagnostic code `TTG010`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MutationError {
    /// Template task the mutation targeted.
    pub node: &'static str,
    /// The mutating operation (`"set_keymap"`, …).
    pub what: &'static str,
}

impl fmt::Display for MutationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TTG010: {} on template task '{}' after executor attach — \
             node maps are frozen when the graph is attached",
            self.what, self.node
        )
    }
}

impl std::error::Error for MutationError {}

/// A matching-path misuse observed by the runtime sanitizer (`checked`
/// feature). Without the feature each of these is a panic deep in the hot
/// path (or a silent data loss); with it, the message is dropped and the
/// violation is reported structurally through
/// [`ExecReport::violations`](crate::ExecReport).
#[derive(Debug, Clone)]
pub enum Violation {
    /// Second message for a key on a terminal with no reducer (`TTG020`).
    ExactlyOnce {
        /// Template task name.
        node: &'static str,
        /// Input terminal index.
        terminal: usize,
        /// Offending task ID, debug-rendered.
        key: String,
    },
    /// Message past the declared stream size, or after finalize (`TTG021`).
    StreamOverrun {
        /// Template task name.
        node: &'static str,
        /// Input terminal index.
        terminal: usize,
        /// Offending task ID, debug-rendered.
        key: String,
        /// Messages already folded.
        received: usize,
    },
    /// `set_stream_size` on a terminal already holding a plain (non-stream)
    /// input (`TTG022`).
    SetSizeOnPlain {
        /// Template task name.
        node: &'static str,
        /// Input terminal index.
        terminal: usize,
        /// Offending task ID, debug-rendered.
        key: String,
    },
    /// Declared stream size below the already-received count (`TTG022`).
    SizeBelowReceived {
        /// Template task name.
        node: &'static str,
        /// Input terminal index.
        terminal: usize,
        /// Offending task ID, debug-rendered.
        key: String,
        /// The declared size.
        size: usize,
        /// Messages already folded.
        received: usize,
    },
    /// `finalize` on an already-finalized stream (`TTG023`).
    DoubleFinalize {
        /// Template task name.
        node: &'static str,
        /// Input terminal index.
        terminal: usize,
        /// Offending task ID, debug-rendered.
        key: String,
    },
    /// `finalize` for a key with no pending entry (`TTG023`).
    FinalizeUnknownKey {
        /// Template task name.
        node: &'static str,
        /// Input terminal index.
        terminal: usize,
        /// Offending task ID, debug-rendered.
        key: String,
    },
    /// `finalize` on a non-streaming terminal (`TTG023`).
    FinalizeNonStream {
        /// Template task name.
        node: &'static str,
        /// Input terminal index.
        terminal: usize,
        /// Offending task ID, debug-rendered.
        key: String,
    },
    /// A stream completed with zero messages: no identity value to launch
    /// the task with (`TTG024`).
    EmptyStream {
        /// Template task name.
        node: &'static str,
        /// Offending task ID, debug-rendered.
        key: String,
    },
    /// A data message arrived on a terminal turned into a stream (via
    /// `set_stream_size`) that has no reducer installed (`TTG026`).
    StreamWithoutReducer {
        /// Template task name.
        node: &'static str,
        /// Input terminal index.
        terminal: usize,
        /// Offending task ID, debug-rendered.
        key: String,
    },
    /// Sends on an edge with zero consumer terminals were dropped
    /// (`TTG031`). Always counted in the `core/dropped_sends` metric; the
    /// structured record is only kept under `checked`.
    DroppedSend {
        /// Edge name.
        edge: String,
        /// Number of destination keys whose value was dropped.
        keys: usize,
    },
}

impl Violation {
    /// Diagnostic code of this violation (see DESIGN §6 for the table).
    pub fn code(&self) -> &'static str {
        match self {
            Violation::ExactlyOnce { .. } => "TTG020",
            Violation::StreamOverrun { .. } => "TTG021",
            Violation::SetSizeOnPlain { .. } | Violation::SizeBelowReceived { .. } => "TTG022",
            Violation::DoubleFinalize { .. }
            | Violation::FinalizeUnknownKey { .. }
            | Violation::FinalizeNonStream { .. } => "TTG023",
            Violation::EmptyStream { .. } => "TTG024",
            Violation::StreamWithoutReducer { .. } => "TTG026",
            Violation::DroppedSend { .. } => "TTG031",
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ", self.code())?;
        match self {
            Violation::ExactlyOnce {
                node,
                terminal,
                key,
            } => write!(
                f,
                "exactly-once violation: duplicate input on terminal {terminal} of '{node}' \
                 for key {key} (no reducer installed); message dropped"
            ),
            Violation::StreamOverrun {
                node,
                terminal,
                key,
                received,
            } => write!(
                f,
                "send after stream close: terminal {terminal} of '{node}' for key {key} \
                 already received {received} message(s); message dropped"
            ),
            Violation::SetSizeOnPlain {
                node,
                terminal,
                key,
            } => write!(
                f,
                "set_stream_size on non-streaming terminal {terminal} of '{node}' for key {key}"
            ),
            Violation::SizeBelowReceived {
                node,
                terminal,
                key,
                size,
                received,
            } => write!(
                f,
                "stream size {size} below already-received {received} on terminal {terminal} \
                 of '{node}' for key {key}"
            ),
            Violation::DoubleFinalize {
                node,
                terminal,
                key,
            } => write!(
                f,
                "stream finalized twice on terminal {terminal} of '{node}' for key {key}"
            ),
            Violation::FinalizeUnknownKey {
                node,
                terminal,
                key,
            } => write!(
                f,
                "finalize on terminal {terminal} of '{node}' for unknown key {key} \
                 (no messages received)"
            ),
            Violation::FinalizeNonStream {
                node,
                terminal,
                key,
            } => write!(
                f,
                "finalize on non-streaming terminal {terminal} of '{node}' for key {key}"
            ),
            Violation::EmptyStream { node, key } => write!(
                f,
                "empty finalized stream on '{node}' for key {key}: no identity value, \
                 task not launched"
            ),
            Violation::StreamWithoutReducer {
                node,
                terminal,
                key,
            } => write!(
                f,
                "data message on streaming terminal {terminal} of '{node}' for key {key} \
                 with no reducer installed; message dropped"
            ),
            Violation::DroppedSend { edge, keys } => write!(
                f,
                "edge '{edge}' has no consumer terminal: {keys} send(s) silently dropped"
            ),
        }
    }
}

/// Thread-safe violation log owned by the runtime context. Recording only
/// happens from `checked` call sites (plus zero-consumer edge drops); with
/// the feature off the log stays empty and costs one untouched mutex per
/// execution.
#[derive(Default)]
pub(crate) struct Sanitizer {
    log: Mutex<Vec<Violation>>,
}

impl Sanitizer {
    /// Append a violation.
    #[cfg(feature = "checked")]
    pub(crate) fn record(&self, v: Violation) {
        self.log.lock().push(v);
    }

    /// Drain the log (done once by `Executor::finish`).
    pub(crate) fn take(&self) -> Vec<Violation> {
        std::mem::take(&mut *self.log.lock())
    }
}
