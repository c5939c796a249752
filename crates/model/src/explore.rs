//! The schedule explorer: re-executes a model closure over schedules,
//! either exhaustively (DFS over the decision tree, preemption-bounded,
//! sleep-set pruned) or by seeded random sampling for state spaces too big
//! to enumerate.
//!
//! # Sleep sets and the preemption bound
//!
//! The two reductions do not compose exactly. Sleep-set pruning keeps one
//! schedule of each class that differs only in the order of independent
//! operations, and the DFS order — not the preemption count — decides which
//! one: the kept representative may spend more preemptions than the
//! cheapest schedule of its class. So a bug reachable within `k`
//! preemptions can hide at bound `k` with pruning on, every schedule of its
//! class that fits the bound having been pruned in favour of one that does
//! not. A termination model's declare-on-one-round mutation was the
//! instance seen: two preemptions reach it, but its representative spent a
//! third, so bound 2 explored clean and bound 3 caught it (bound 2 found it
//! only with [`Config::sleep_sets`] off, after ~277k runs). A clean result
//! at bound `k` therefore says "no violating class whose representative
//! fits in `k` preemptions": a regression test for a bug known to need `k`
//! preemptions runs at `k + 1`, or with pruning off.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Once};

use crate::sched::{AbortReason, ModelAbort, PrefixStep, Rec, Scheduler};

/// Exploration parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// Maximum preemptions (context switches away from a still-runnable
    /// thread) per schedule. `None` = unbounded (full interleaving space).
    pub preemption_bound: Option<usize>,
    /// Per-run scheduling-decision cap; exceeding it marks the schedule
    /// truncated instead of looping forever on a livelock.
    pub max_steps: usize,
    /// Total schedule budget; hitting it ends exploration non-exhaustively.
    pub max_schedules: usize,
    /// `Some` switches from exhaustive DFS to seeded random sampling.
    pub sample: Option<Sample>,
    /// Sleep-set pruning of schedules that only commute independent ops.
    /// On by default; turn off to measure the reduction or to debug it.
    pub sleep_sets: bool,
}

/// Random-sampling mode: `runs` schedules driven by splitmix64 from `seed`.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Base seed; run `i` uses `seed + i`.
    pub seed: u64,
    /// Number of schedules to sample.
    pub runs: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            preemption_bound: Some(2),
            max_steps: 50_000,
            max_schedules: 1_000_000,
            sample: None,
            sleep_sets: true,
        }
    }
}

impl Config {
    /// Exhaustive DFS with the given preemption bound.
    pub fn bounded(preemptions: usize) -> Self {
        Config {
            preemption_bound: Some(preemptions),
            ..Config::default()
        }
    }
}

/// What an exploration covered.
#[derive(Debug, Clone, Default)]
pub struct Stats {
    /// Complete schedules executed to the end.
    pub schedules: usize,
    /// Branches cut by sleep-set pruning (redundant interleavings).
    pub pruned: usize,
    /// Runs stopped at the step cap.
    pub truncated: usize,
    /// Completed schedules keyed by how many preemptions they used.
    pub by_preemptions: BTreeMap<usize, usize>,
    /// Whether the decision tree was fully enumerated within the bound
    /// (false when the schedule budget ran out or in sampling mode).
    pub exhaustive: bool,
    /// Longest schedule seen, in scheduling decisions.
    pub max_depth: usize,
}

impl Stats {
    /// Total runs started, complete or not.
    pub fn runs(&self) -> usize {
        self.schedules + self.pruned + self.truncated
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let by: Vec<String> = self
            .by_preemptions
            .iter()
            .map(|(p, n)| format!("{p}p:{n}"))
            .collect();
        write!(
            f,
            "{} schedules ({}; {} pruned, {} truncated, depth<={}) [{}]",
            self.schedules,
            if self.exhaustive {
                "exhaustive"
            } else {
                "partial"
            },
            self.pruned,
            self.truncated,
            self.max_depth,
            by.join(" ")
        )
    }
}

/// How a schedule violated the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// An invariant assertion failed.
    Assert,
    /// Threads remain but none can make progress (lost wakeup, lock cycle,
    /// stranded task…).
    Deadlock,
}

/// A failing schedule: the invariant broken plus the exact interleaving.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Assertion failure or deadlock.
    pub kind: ViolationKind,
    /// Panic message / list of stuck threads.
    pub message: String,
    /// The executed operations of the failing schedule, in order.
    pub trace: Vec<String>,
    /// Coverage up to (and including) the failing run.
    pub stats: Stats,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} after {} runs: {}",
            match self.kind {
                ViolationKind::Assert => "assertion violation",
                ViolationKind::Deadlock => "deadlock",
            },
            self.stats.runs(),
            self.message
        )?;
        writeln!(f, "failing schedule:")?;
        for (i, step) in self.trace.iter().enumerate() {
            writeln!(f, "  {i:3} {step}")?;
        }
        Ok(())
    }
}

/// Explore all schedules of `f` under `cfg`. Returns coverage stats, or the
/// first violating schedule found.
pub fn explore(cfg: Config, f: impl Fn() + Send + Sync + 'static) -> Result<Stats, Box<Violation>> {
    install_quiet_panic_hook();
    let f: Arc<dyn Fn() + Send + Sync> = Arc::new(f);
    let mut stats = Stats::default();

    if let Some(sample) = cfg.sample {
        for i in 0..sample.runs {
            let sched = Arc::new(Scheduler::new(
                cfg.clone(),
                Vec::new(),
                Some(sample.seed.wrapping_add(i as u64)),
            ));
            run_once(&sched, f.clone());
            record(&sched, &mut stats)?;
        }
        stats.exhaustive = false;
        return Ok(stats);
    }

    let mut prefix: Vec<PrefixStep> = Vec::new();
    loop {
        let sched = Arc::new(Scheduler::new(cfg.clone(), prefix.clone(), None));
        run_once(&sched, f.clone());
        let recs = record(&sched, &mut stats)?;
        if stats.runs() >= cfg.max_schedules {
            stats.exhaustive = false;
            return Ok(stats);
        }
        match next_prefix(&recs) {
            Some(p) => prefix = p,
            None => {
                stats.exhaustive = true;
                return Ok(stats);
            }
        }
    }
}

/// Iterative context bounding: explore at preemption bounds `0..=bound`,
/// returning per-bound stats (cheap shallow bounds first, so simple bugs
/// surface with the shortest possible counterexample schedule).
pub fn explore_iterative(
    cfg: Config,
    bound: usize,
    f: impl Fn() + Send + Sync + 'static + Clone,
) -> Result<Vec<Stats>, Box<Violation>> {
    let mut all = Vec::new();
    for b in 0..=bound {
        let mut c = cfg.clone();
        c.preemption_bound = Some(b);
        all.push(explore(c, f.clone())?);
    }
    Ok(all)
}

/// Fold one finished run into `stats`, or surface its violation.
fn record(sched: &Arc<Scheduler>, stats: &mut Stats) -> Result<Vec<Rec>, Box<Violation>> {
    let (recs, abort, preemptions, steps) = sched.outcome();
    stats.max_depth = stats.max_depth.max(steps);
    match abort {
        None => {
            stats.schedules += 1;
            *stats.by_preemptions.entry(preemptions).or_default() += 1;
            Ok(recs)
        }
        Some(AbortReason::Pruned) => {
            stats.pruned += 1;
            Ok(recs)
        }
        Some(AbortReason::DepthExceeded) => {
            stats.truncated += 1;
            Ok(recs)
        }
        Some(AbortReason::Assert(message)) => Err(Box::new(Violation {
            kind: ViolationKind::Assert,
            message,
            trace: sched.trace(),
            stats: stats.clone(),
        })),
        Some(AbortReason::Deadlock(message)) => Err(Box::new(Violation {
            kind: ViolationKind::Deadlock,
            message,
            trace: sched.trace(),
            stats: stats.clone(),
        })),
    }
}

/// Execute `f` once under `sched` as model thread 0 and wait for the run
/// (and the body of every model thread it spawned) to finish.
fn run_once(sched: &Arc<Scheduler>, f: Arc<dyn Fn() + Send + Sync>) {
    let tid = sched.register_thread("main".into());
    let s2 = Arc::clone(sched);
    let exited = crate::thread::run_pooled(Box::new(move || {
        crate::thread::run_model_thread(s2, tid, move || f())
    }));
    sched.exits.lock().push(exited);
    sched.start();
    sched.wait_done();
    let exits: Vec<_> = sched.exits.lock().drain(..).collect();
    for exited in exits {
        let _ = exited.recv();
    }
}

/// DFS frontier: find the deepest decision with an unexplored alternative
/// and build the replay prefix that diverges there. `None` = tree done.
fn next_prefix(recs: &[Rec]) -> Option<Vec<PrefixStep>> {
    for i in (0..recs.len()).rev() {
        match &recs[i] {
            Rec::Choice { arity, chosen } if chosen + 1 < *arity => {
                let mut p = to_prefix(&recs[..i]);
                p.push(PrefixStep::Choice { chosen: chosen + 1 });
                return Some(p);
            }
            Rec::Sched {
                cands,
                chosen,
                explored,
                sleep_in,
            } => {
                let mut done = explored.clone();
                done.push(*chosen);
                // A sleeping candidate's branch is covered by an equivalent
                // earlier schedule; skip it (that is the sleep-set pruning).
                if let Some(&next) = cands
                    .iter()
                    .find(|t| !done.contains(t) && !sleep_in.contains(t))
                {
                    let mut p = to_prefix(&recs[..i]);
                    p.push(PrefixStep::Sched {
                        chosen: next,
                        explored: done,
                    });
                    return Some(p);
                }
            }
            _ => {}
        }
    }
    None
}

fn to_prefix(recs: &[Rec]) -> Vec<PrefixStep> {
    recs.iter()
        .map(|r| match r {
            Rec::Sched {
                chosen, explored, ..
            } => PrefixStep::Sched {
                chosen: *chosen,
                explored: explored.clone(),
            },
            Rec::Choice { chosen, .. } => PrefixStep::Choice { chosen: *chosen },
        })
        .collect()
}

/// Model assertion failures are expected events during exploration (that is
/// what the checker looks for); keep the default panic hook from spamming
/// stderr with them. Panics outside model threads print as usual.
fn install_quiet_panic_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if crate::sched::in_model() {
                // End the run as the panic starts, not once it has unwound:
                // a thread parked inside a critical section unwinds too,
                // releasing what this thread's drops may lock. A panic is
                // a violation even if the code under test catches it.
                if info.payload().downcast_ref::<ModelAbort>().is_none() {
                    let (s, _) = crate::sched::current();
                    s.fail(crate::thread::panic_message(info.payload()));
                }
                return;
            }
            prev(info);
        }));
    });
}
