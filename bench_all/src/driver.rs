//! The top-level process: spawns workers, aggregates their reports into
//! the end-to-end and per-layer metrics, and keeps the run clean — every
//! child reaped, every file removed, on every exit path.

use std::collections::BTreeMap;
use std::io::BufReader;
use std::process::{Child, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::json::{self, Value};
use crate::procfs::{self, TempDir, RUN_MARKER};
use crate::procs;
use crate::stats::{mean, median};
use crate::worker::{unix_ns, Plan, Report};
use crate::{Scope, END_TO_END, PER_LAYER};

/// Workers per untraced run, one after the other, each a fresh process
/// that sets the workload up and runs its share of the timed seconds. The
/// acceptance contract asks for several set-ups per run and their median;
/// and peak memory, a maximum over a process's reps with a heavy upper
/// tail, repeats 3-5 times better as the mean of four processes than from
/// one process four times as long (README, "One worker or four").
pub const WORKERS_PER_RUN: usize = 4;

/// A run aims to be done within this many times its timed seconds (and no
/// less than `MIN_RUN_LIFE`), set-up, warm-up, probes and teardown
/// included; a run on the reference VM takes about 1.3 times. The workers
/// share it as their `Plan::life` and shed reps to keep it, so that a
/// stretch in which the shared host is slow costs reps, not the run.
const RUN_LIFE_FACTOR: f64 = 4.0;
const MIN_RUN_LIFE: Duration = Duration::from_secs(40);

/// Time a worker may take beyond its `life` before the driver kills it (a
/// worker keeps its life only as well as it can foresee its next rep).
const WORKER_GRACE: Duration = Duration::from_secs(45);

#[derive(Debug, Clone)]
pub struct RunOpts {
    pub seed: u64,
    /// Timed seconds of one run of one workload (all its workers together).
    pub seconds: f64,
    pub trace: bool,
    /// With `trace`: also run the workload-independent layer probes.
    pub probes: bool,
    pub smoke: bool,
    /// Instant by which the whole invocation must be done.
    pub deadline: Instant,
}

/// One workload's aggregated result.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// What a reader of the run's numbers should know; not failures.
    pub notes: Vec<String>,
    /// The metrics this run had to measure: every end-to-end metric, or
    /// the per-layer metrics whose scope covers the workload.
    pub expected: Vec<&'static str>,
    /// End-to-end metrics (untraced runs).
    pub e2e: BTreeMap<String, f64>,
    /// Per-layer metrics (traced runs).
    pub layers: BTreeMap<String, f64>,
    pub reps: usize,
    /// Each worker's own values, one line per end-to-end metric plus the
    /// burst and rep medians: how far processes disagree.
    pub per_worker: Vec<String>,
    pub cal_p50_ms: f64,
    pub digest: String,
}

impl Outcome {
    /// Every rep verified, nothing failed, every expected metric measured.
    pub fn correct(&self) -> bool {
        let measured = |name: &&str| {
            let value = self.e2e.get(*name).or_else(|| self.layers.get(*name));
            value.is_some_and(|v| v.is_finite())
        };
        self.failed == 0 && self.attempted >= 1 && self.expected.iter().all(measured)
    }
}

/// Kill and reap `child` (a worker that overran or whose report is in).
fn reap(child: &mut Child, grace: Duration) {
    let until = Instant::now() + grace;
    while Instant::now() < until {
        if matches!(child.try_wait(), Ok(Some(_))) {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let _ = child.kill();
    let _ = child.wait();
}

/// Run one child of this program (`args`) until it sends its report line
/// or `limit` passes. Whatever happens to it — clean exit, failed rep,
/// watchdog, panic, overrun — on return it and every process it started
/// are gone and its directory (`w-<run_id>-<n>`) is removed.
pub fn run_child(args: &[&str], limit: Instant, run_id: &str) -> Result<Report, String> {
    let dir =
        TempDir::create(&format!("w-{run_id}")).map_err(|e| format!("worker directory: {e}"))?;
    let mut child = procs::reenter(args)
        // The worker runs inside its directory and names everything it
        // creates relative to it: a Unix socket path is capped near 100
        // bytes, and this keeps every one short wherever the checkout
        // sits. The library puts a socket mesh's files under `temp_dir()`;
        // pointing that here too means nothing is written outside the
        // checkout and the driver can remove it all.
        .current_dir(dir.path())
        .env("TMPDIR", ".")
        .env(procfs::WORK_DIR, ".")
        .env(RUN_MARKER, run_id)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn of the worker failed: {e}"))?;
    let stdout = child.stdout.take().expect("piped stdout");
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut out = BufReader::new(stdout);
        while let Ok(line) = procs::next_line(&mut out) {
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    let mut result = Err("worker exited without a report".to_string());
    loop {
        match rx.recv_timeout(limit.saturating_duration_since(Instant::now())) {
            Ok(line) => {
                if let Some(why) = line.strip_prefix("watchdog ") {
                    result = Err(format!("{why}: the worker ended itself"));
                    break;
                }
                if let Some(body) = line.strip_prefix("report ") {
                    result = json::parse(body)
                        .ok()
                        .as_ref()
                        .and_then(Report::from_json)
                        .ok_or_else(|| "worker sent a malformed report".to_string());
                    break;
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                result = Err("worker overran its time limit and was killed".into());
                let _ = child.kill();
                break;
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    reap(&mut child, Duration::from_secs(5));
    let _ = reader.join();
    // The rank child exits on its own once its parent is gone; make sure.
    let leftover = procfs::reap_marked(run_id, Duration::from_secs(3));
    if !leftover.is_empty() {
        return Err(format!(
            "processes {leftover:?} outlived their worker and were killed"
        ));
    }
    result
}

fn run_worker(plan: &Plan, deadline: Instant, run_id: &str) -> Result<Report, String> {
    let args = plan.to_args();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let limit = Instant::now() + Duration::from_secs_f64(plan.life) + WORKER_GRACE;
    run_child(&args, limit.min(deadline), run_id)
}

/// Run one workload: `WORKERS_PER_RUN` untraced workers sharing the timed
/// seconds, or one traced worker.
pub fn run_workload(name: &str, opts: &RunOpts) -> Outcome {
    // Unique per call, so concurrent runs in one process (the tests) do
    // not mistake each other's workers for leftovers.
    static RUNS: AtomicU64 = AtomicU64::new(0);
    let run_id = format!(
        "{}-{}",
        std::process::id(),
        RUNS.fetch_add(1, Ordering::Relaxed)
    );
    let workers = if opts.trace { 1 } else { WORKERS_PER_RUN };
    // A traced worker splits its time: untraced reps (the counters), then
    // half as long traced, then the probes.
    let seconds = if opts.trace {
        opts.seconds * 0.4
    } else {
        opts.seconds / workers as f64
    };
    let mut out = Outcome {
        expected: if opts.trace {
            PER_LAYER
                .iter()
                .filter(|(.., scope)| scope.covers(name) && (opts.probes || *scope != Scope::Probe))
                .map(|(n, ..)| *n)
                .collect()
        } else {
            END_TO_END.iter().map(|(n, ..)| *n).collect()
        },
        ..Outcome::default()
    };
    let mut reports: Vec<Report> = Vec::new();
    let life_end = Instant::now()
        + Duration::from_secs_f64(opts.seconds * RUN_LIFE_FACTOR).max(MIN_RUN_LIFE);
    for w in 0..workers {
        // What is left of the run's life, shared by the workers to come.
        let life = life_end.saturating_duration_since(Instant::now()).as_secs_f64()
            / (workers - w) as f64;
        if life <= 0.0 && !reports.is_empty() {
            out.notes.push(format!(
                "the machine is slow: the run's time was used up after {w} of {workers} workers"
            ));
            break;
        }
        let plan = Plan {
            workload: name.to_string(),
            seed: opts.seed,
            seconds,
            life,
            trace: opts.trace,
            probes: opts.probes,
            smoke: opts.smoke,
            spawned_unix_ns: unix_ns(),
        };
        match run_worker(&plan, opts.deadline, &run_id) {
            Ok(r) => {
                out.attempted += r.attempted;
                out.failed += r.failed;
                out.errors.extend(r.errors.iter().cloned());
                reports.push(r);
            }
            Err(e) => {
                out.attempted += 1;
                out.failed += 1;
                out.errors.push(format!("worker {w}: {e}"));
            }
        }
    }

    // One value per worker and metric (`rep_norm`: the median over the
    // worker's reps). Across workers `setup_s` takes the median, as the
    // contract asks; the others take the mean, which for four light-tailed
    // samples is steadier than their median — peak memory in particular is
    // bimodal between processes, and a median of few flips between modes.
    let mut column = |name: &str, pick: fn(&Report) -> f64, combine: fn(&[f64]) -> f64| {
        let values: Vec<f64> = reports.iter().map(pick).collect();
        let cells: Vec<String> = values.iter().map(|v| format!("{v:.3}")).collect();
        out.per_worker
            .push(format!("{name} per worker: {}", cells.join(" ")));
        if values.is_empty() || values.iter().any(|v| !v.is_finite()) {
            f64::NAN
        } else {
            combine(&values)
        }
    };
    let e2e = [
        ("rep_norm", column("rep_norm", |r| median(&r.norm), mean)),
        (
            "peak_rss_mb",
            column("peak_rss_mb", |r| r.peak_rss_mb, mean),
        ),
        ("setup_s", column("setup_s", |r| r.setup_s, median)),
    ];
    column("run.cpu_norm", Report::cpu_norm, mean);
    out.cal_p50_ms = column("cal_p50_ms", |r| median(&r.cal_ms), median);
    column("rep_p50_ms", |r| median(&r.rep_ms), median);
    out.e2e = e2e.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
    out.reps = reports.iter().map(|r| r.norm.len()).sum();
    if let Some(r) = reports.into_iter().next() {
        out.digest = r.digest;
        out.layers = r.layers;
    }
    out
}

/// What a reader needs to trust a row.
pub fn header(opts: &RunOpts) -> Vec<String> {
    let tool = |cmd: &str, args: &[&str]| -> String {
        std::process::Command::new(cmd)
            .args(args)
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".into())
    };
    vec![
        format!("bench_all: commit {}", tool("git", &["rev-parse", "HEAD"])),
        format!(
            "bench_all: nproc {}, {}",
            std::thread::available_parallelism().map_or(0, |n| n.get()),
            tool("rustc", &["--version"])
        ),
        format!(
            "bench_all: seed {}, {} s per workload{}{}",
            opts.seed,
            opts.seconds,
            if opts.trace { ", traced" } else { "" },
            if opts.smoke { ", smoke" } else { "" }
        ),
    ]
}

/// The result line of the acceptance contract.
pub fn contract_line(out: &Outcome, trace: bool) -> String {
    let metric = |name: &str, unit: &str, values: &BTreeMap<String, f64>| {
        // The contract wants every metric on every line: one outside its
        // scope on this workload reads 0, and so does one that could not
        // be measured (`correct` is false in that case).
        let value = values.get(name).copied().filter(|v| v.is_finite());
        let fields = [
            ("value", Value::Num(value.unwrap_or(0.0))),
            ("unit", Value::Str(unit.into())),
        ];
        (name.to_string(), Value::object(fields))
    };
    let metrics: Vec<(String, Value)> = if trace {
        PER_LAYER
            .iter()
            .map(|(n, u, ..)| metric(n, u, &out.layers))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u, _)| metric(n, u, &out.e2e))
            .collect()
    };
    Value::object([
        ("correct", Value::Bool(out.correct())),
        ("attempted", Value::Num(out.attempted.max(1) as f64)),
        ("failed", Value::Num(out.failed as f64)),
        ("metrics", Value::object(metrics)),
    ])
    .render()
}
