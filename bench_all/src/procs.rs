//! The processes the benchmark starts: how it re-executes itself, the line
//! protocol between a parent and its child, and the rank child of
//! `chol_procs_uds`.
//!
//! Every child → parent message is one stdout line starting with
//! [`PREFIX`]; anything else on a child's stdout is ignored. A child exits
//! when its stdin closes or its parent dies, so no failure of a parent can
//! leave an orphan.

use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

use crate::layers::Counts;
use crate::workloads::{NodeCounts, ProcsProblem};

pub const PREFIX: &str = "@bench_all ";

/// Environment variable carrying the arguments of a re-entered process
/// (joined by the unit separator), see [`reenter`].
pub const REENTER: &str = "BENCH_ALL_REENTER";

/// A command that runs this program again with `args`.
///
/// The arguments travel in the environment, not on the command line: under
/// `cargo test` the executable is libtest's harness, which owns the
/// command line, and the `reenter` test hands control to `run` instead.
pub fn reenter(args: &[&str]) -> Command {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = Command::new(exe);
    #[cfg(test)]
    cmd.args(["tests::reenter", "--exact", "--nocapture"]);
    cmd.env(REENTER, args.join("\u{1f}"));
    cmd
}

/// The arguments this process was re-entered with, if it was.
pub fn reentered_args() -> Option<Vec<String>> {
    let joined = std::env::var(REENTER).ok()?;
    Some(joined.split('\u{1f}').map(str::to_string).collect())
}

/// Exit as soon as the parent process is gone (a child must never outlive
/// a crashed or killed parent).
pub fn exit_with_parent() {
    let parent = std::os::unix::process::parent_id();
    std::thread::Builder::new()
        .name("parent-watch".into())
        .spawn(move || loop {
            if std::os::unix::process::parent_id() != parent {
                std::process::exit(3);
            }
            std::thread::sleep(std::time::Duration::from_millis(100));
        })
        .expect("spawn parent watcher");
}

pub fn say(line: &str) {
    println!("{PREFIX}{line}");
}

/// Next protocol line from a child, without the prefix. `Err` when the
/// child closed its stdout (it exited or crashed).
pub fn next_line(out: &mut impl BufRead) -> Result<String, String> {
    let mut line = String::new();
    loop {
        line.clear();
        match out.read_line(&mut line) {
            Ok(0) => return Err("child closed its output".into()),
            Ok(_) => {
                if let Some(rest) = line.trim_end().strip_prefix(PREFIX) {
                    return Ok(rest.to_string());
                }
            }
            Err(e) => return Err(format!("reading child output: {e}")),
        }
    }
}

// ---------------------------------------------------------------- rank child

/// Parent-side handle of rank 1 of `chol_procs_uds`: a long-lived child
/// that runs one rank of one rep per `rep` command.
pub struct RankChild {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl RankChild {
    pub fn spawn(seed: u64, smoke: bool) -> Result<RankChild, String> {
        let seed = seed.to_string();
        let mut child = reenter(&["rank-child", &seed, if smoke { "1" } else { "0" }])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn of the rank child failed: {e}"))?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        Ok(RankChild {
            child,
            stdin,
            stdout,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Block until the child has built its problem and reference.
    pub fn wait_ready(&mut self) -> Result<(), String> {
        match next_line(&mut self.stdout)?.as_str() {
            "ready" => Ok(()),
            other => Err(format!("rank child said '{other}' instead of 'ready'")),
        }
    }

    /// Tell the child to connect into `dir` and run its rank.
    pub fn start_rep(&mut self, dir: &Path, traced: bool) -> Result<(), String> {
        writeln!(self.stdin, "rep {} {}", u8::from(traced), dir.display())
            .and_then(|()| self.stdin.flush())
            .map_err(|e| format!("rank child is gone: {e}"))
    }

    /// Collect the child's side of the rep: its counters, per-template
    /// task counts, and its verification verdict.
    pub fn finish_rep(&mut self) -> Result<(Counts, NodeCounts, Option<String>), String> {
        let line = next_line(&mut self.stdout)?;
        let mut parts = line.splitn(3, " | ");
        let (verdict, counts, nodes) = (
            parts.next().unwrap_or(""),
            parts.next().unwrap_or(""),
            parts.next().unwrap_or(""),
        );
        let error = match verdict.strip_prefix("done ") {
            Some("ok") => None,
            Some(msg) => Some(msg.to_string()),
            None => return Err(format!("rank child said '{line}'")),
        };
        let counts = Counts::from_line(counts).ok_or("rank child sent malformed counters")?;
        let nodes = nodes
            .split_ascii_whitespace()
            .map(|cell| {
                let (name, n) = cell.split_once('=')?;
                Some((name.to_string(), n.parse().ok()?))
            })
            .collect::<Option<NodeCounts>>()
            .ok_or("rank child sent malformed task counts")?;
        Ok((counts, nodes, error))
    }
}

impl Drop for RankChild {
    fn drop(&mut self) {
        // Closing stdin is the quit signal; kill covers a child stuck in a
        // rep. Either way the child is reaped before the parent moves on.
        let _ = writeln!(self.stdin, "quit");
        let _ = self.stdin.flush();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return,
                Ok(None) if std::time::Instant::now() < deadline => {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                _ => break,
            }
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Entry point of the rank child: `rank-child <seed> <smoke>`.
pub fn rank_child_main(args: &[String]) -> i32 {
    exit_with_parent();
    let (Some(seed), Some(smoke)) = (
        args.first().and_then(|s| s.parse::<u64>().ok()),
        args.get(1).map(|s| s == "1"),
    ) else {
        eprintln!("bench_all rank child: bad arguments {args:?}");
        return 2;
    };
    let problem = ProcsProblem::new(seed, smoke);
    say("ready");
    for line in std::io::stdin().lock().lines() {
        let Ok(line) = line else { break };
        let Some(rest) = line.strip_prefix("rep ") else {
            break; // "quit" or anything unexpected ends the child
        };
        let Some((traced, dir)) = rest.split_once(' ') else {
            break;
        };
        let run = problem.run_rank(1, Path::new(dir), traced == "1", &[]);
        let nodes: Vec<String> = run
            .per_node
            .iter()
            .map(|(name, n)| format!("{name}={n}"))
            .collect();
        say(&format!(
            "done {} | {} | {}",
            run.error.as_deref().unwrap_or("ok").replace('|', "/"),
            run.counts.to_line(),
            nodes.join(" ")
        ));
    }
    0
}
