//! Diagnostic vocabulary and the check report: rustc-style rendering plus a
//! schema-stable JSON export.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use ttg_core::MutationError;

/// How serious a diagnostic is.
///
/// Errors make verification fail (non-zero exit under `--check`); warnings
/// are reported but non-fatal; notes are advisories that do not count
/// against a graph being considered clean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// The graph cannot behave as written — verification fails.
    Error,
    /// Suspicious but runnable (e.g. sends that will be dropped).
    Warning,
    /// Advisory (e.g. an unbounded stream that must be closed manually).
    Note,
}

impl Severity {
    /// The rustc-style label (`error` / `warning` / `note`).
    pub(crate) fn label(&self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Note => "note",
        }
    }
}

/// One coded finding about a graph, static or runtime.
///
/// The optional fields locate the finding; whichever are set are rendered
/// on the `-->` line and exported to JSON.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Severity class.
    pub severity: Severity,
    /// Stable diagnostic code (`TTG001`…, see DESIGN §6).
    pub code: &'static str,
    /// Human-readable, one-line description.
    pub message: String,
    /// Template task name.
    pub node: Option<String>,
    /// Input/output terminal index on `node`.
    pub terminal: Option<usize>,
    /// Edge name.
    pub edge: Option<String>,
    /// Task ID (debug-rendered).
    pub key: Option<String>,
    /// Rank the finding was observed on.
    pub rank: Option<usize>,
    /// Suggested fix, rendered as a `= help:` line.
    pub(crate) help: Option<String>,
}

impl Diagnostic {
    fn new(severity: Severity, code: &'static str, message: impl Into<String>) -> Self {
        Diagnostic {
            severity,
            code,
            message: message.into(),
            node: None,
            terminal: None,
            edge: None,
            key: None,
            rank: None,
            help: None,
        }
    }

    /// An error-severity diagnostic.
    pub fn error(code: &'static str, message: impl Into<String>) -> Self {
        Self::new(Severity::Error, code, message)
    }

    /// A warning-severity diagnostic.
    pub(crate) fn warning(code: &'static str, message: impl Into<String>) -> Self {
        Self::new(Severity::Warning, code, message)
    }

    /// A note-severity diagnostic.
    pub(crate) fn note(code: &'static str, message: impl Into<String>) -> Self {
        Self::new(Severity::Note, code, message)
    }

    /// Attach the template task name.
    pub fn on_node(mut self, node: impl Into<String>) -> Self {
        self.node = Some(node.into());
        self
    }

    /// Attach the terminal index.
    pub fn on_terminal(mut self, t: usize) -> Self {
        self.terminal = Some(t);
        self
    }

    /// Attach the edge name.
    pub fn on_edge(mut self, edge: impl Into<String>) -> Self {
        self.edge = Some(edge.into());
        self
    }

    /// Attach the task ID.
    pub(crate) fn for_key(mut self, key: impl Into<String>) -> Self {
        self.key = Some(key.into());
        self
    }

    /// Attach the observing rank.
    pub(crate) fn on_rank(mut self, rank: usize) -> Self {
        self.rank = Some(rank);
        self
    }

    /// Attach a `= help:` suggestion.
    pub fn with_help(mut self, help: impl Into<String>) -> Self {
        self.help = Some(help.into());
        self
    }

    /// Render in the rustc style:
    ///
    /// ```text
    /// error[TTG001]: input terminal 1 of 'gemm' has no producer and no seed
    ///   --> node 'gemm', terminal 1, edge 'c_in'
    ///   = help: connect a producer to edge 'c_in' or seed it via in_ref::<1>()
    /// ```
    pub fn render(&self) -> String {
        let mut out = format!(
            "{}[{}]: {}\n",
            self.severity.label(),
            self.code,
            self.message
        );
        let mut loc: Vec<String> = Vec::new();
        if let Some(n) = &self.node {
            loc.push(format!("node '{n}'"));
        }
        if let Some(t) = self.terminal {
            loc.push(format!("terminal {t}"));
        }
        if let Some(e) = &self.edge {
            loc.push(format!("edge '{e}'"));
        }
        if let Some(k) = &self.key {
            loc.push(format!("key {k}"));
        }
        if let Some(r) = self.rank {
            loc.push(format!("rank {r}"));
        }
        if !loc.is_empty() {
            let _ = writeln!(out, "  --> {}", loc.join(", "));
        }
        if let Some(h) = &self.help {
            let _ = writeln!(out, "  = help: {h}");
        }
        out
    }

    fn json_into(&self, out: &mut String) {
        use ttg_telemetry::json::escape;
        let _ = write!(
            out,
            "{{\"code\":\"{}\",\"severity\":\"{}\",\"message\":\"{}\"",
            self.code,
            self.severity.label(),
            escape(&self.message),
        );
        if let Some(n) = &self.node {
            let _ = write!(out, ",\"node\":\"{}\"", escape(n));
        }
        if let Some(t) = self.terminal {
            let _ = write!(out, ",\"terminal\":{t}");
        }
        if let Some(e) = &self.edge {
            let _ = write!(out, ",\"edge\":\"{}\"", escape(e));
        }
        if let Some(k) = &self.key {
            let _ = write!(out, ",\"key\":\"{}\"", escape(k));
        }
        if let Some(r) = self.rank {
            let _ = write!(out, ",\"rank\":{r}");
        }
        if let Some(h) = &self.help {
            let _ = write!(out, ",\"help\":\"{}\"", escape(h));
        }
        out.push('}');
    }
}

/// Post-attach node-map mutation: diagnostic `TTG010`.
impl From<&MutationError> for Diagnostic {
    fn from(e: &MutationError) -> Self {
        Diagnostic::error(
            "TTG010",
            format!(
                "{} on template task '{}' after executor attach",
                e.what, e.node
            ),
        )
        .on_node(e.node)
        .with_help("node maps freeze when the graph is attached; configure before Executor::new")
    }
}

/// The result of one verification or sanitization pass.
#[derive(Debug, Clone)]
pub struct Report {
    /// All findings, in discovery order.
    pub diagnostics: Vec<Diagnostic>,
    /// Template tasks inspected.
    pub nodes: usize,
    /// Distinct edges inspected.
    pub edges: usize,
}

impl Report {
    /// An empty report over a graph of `nodes` template tasks and `edges`
    /// distinct edges.
    pub(crate) fn new(nodes: usize, edges: usize) -> Self {
        Report {
            diagnostics: Vec::new(),
            nodes,
            edges,
        }
    }

    /// Append a finding.
    pub(crate) fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.count(Severity::Warning)
    }

    /// Number of note-severity findings.
    pub fn notes(&self) -> usize {
        self.count(Severity::Note)
    }

    fn count(&self, s: Severity) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == s).count()
    }

    /// No errors and no warnings (notes are allowed).
    pub fn is_clean(&self) -> bool {
        self.errors() == 0 && self.warnings() == 0
    }

    /// Whether any finding carries `code`.
    pub fn has_code(&self, code: &str) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Distinct codes present, sorted.
    pub fn codes(&self) -> Vec<&'static str> {
        let mut v: Vec<&'static str> = self.diagnostics.iter().map(|d| d.code).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Render every diagnostic plus a one-line summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render());
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "ttg-check: {} node(s), {} edge(s): {} error(s), {} warning(s), {} note(s)",
            self.nodes,
            self.edges,
            self.errors(),
            self.warnings(),
            self.notes()
        );
        out
    }

    /// Print [`Self::render`] to stderr.
    pub(crate) fn print_stderr(&self) {
        eprint!("{}", self.render());
    }

    /// Serialize as a single JSON document (`ttg-check-report/1` schema).
    ///
    /// The output is asserted well-formed with the in-repo strict JSON
    /// validator before it is returned.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.diagnostics.len() * 128);
        let _ = write!(
            out,
            "{{\"schema\":\"ttg-check-report/1\",\"nodes\":{},\"edges\":{},\
             \"errors\":{},\"warnings\":{},\"notes\":{},\"diagnostics\":[",
            self.nodes,
            self.edges,
            self.errors(),
            self.warnings(),
            self.notes()
        );
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            d.json_into(&mut out);
        }
        out.push_str("]}");
        if let Err((off, msg)) = ttg_telemetry::json::validate(&out) {
            panic!("ttg-check produced invalid JSON at byte {off}: {msg}");
        }
        out
    }

    /// Write [`Self::to_json`] to `path`, creating parent directories.
    pub(crate) fn write_json(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_json())
    }
}
