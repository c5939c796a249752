//! One worker process: one workload, set up once, then reps.
//!
//! ```text
//! build inputs from the seed → reference result → rank child (if any)
//!   → warm-up reps (discarded) → [clock for setup_s stops]
//!   → timed reps: calibration burst, rep, verify — until the time is up
//!   → (--trace only) traced reps, kernel model, layer probes, span file
//!   → report line on stdout
//! ```
//!
//! A fresh process per workload keeps `VmHWM`, allocator state and thread
//! placement from leaking between workloads. The first executions in a
//! process are 1.5–1.7× slower than the following ones, hence the warm-up.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use crate::calib::Calib;
use crate::json::Value;
use crate::layers::{attribute, count_metrics, Counts};
use crate::probes;
use crate::procfs;
use crate::procs;
use crate::spans::Spans;
use crate::stats::{median, quantile};
use crate::workloads::{self, NodeCounts, Rep, SpanAt, Workload, RANKS, WORKERS};
use crate::{Scope, PER_LAYER};

/// Discarded reps before the timed section.
const WARMUP_REPS: usize = 5;
/// Fewest timed reps of a worker, however short its share of the timed
/// seconds (four workers a run: at least 52 reps) — unless the machine is
/// so slow that they would not fit the worker's `life`.
const MIN_TIMED_REPS: usize = 13;
/// A rep that takes longer than this is a failed rep and ends the worker.
const REP_WATCHDOG: Duration = Duration::from_secs(60);

/// What one worker is asked to do.
#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: String,
    pub seed: u64,
    /// Length of the timed, untraced section.
    pub seconds: f64,
    /// Seconds, from its start, within which the worker should be done. A
    /// soft cap for a machine that has become slow: the host is shared, and
    /// while a neighbour is busy a rep of the socket workloads has taken
    /// 17 times its usual time. Warm-up and `MIN_TIMED_REPS` give way to
    /// it (at least one rep of each remains), so a slow stretch yields a
    /// run from few reps, not a run that overruns and counts as failed.
    pub life: f64,
    /// Also run traced reps and the layer probes, and write the span file.
    pub trace: bool,
    /// With `trace`: also run the workload-independent layer probes.
    pub probes: bool,
    /// 1 warm-up rep, 3 timed reps, tiny inputs and probes.
    pub smoke: bool,
    /// When the driver spawned this worker (Unix ns): origin of `setup_s`.
    pub spawned_unix_ns: u128,
}

pub fn unix_ns() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos())
}

impl Plan {
    pub fn to_args(&self) -> Vec<String> {
        vec![
            "worker".into(),
            self.workload.clone(),
            self.seed.to_string(),
            self.seconds.to_string(),
            self.life.to_string(),
            u8::from(self.trace).to_string(),
            u8::from(self.probes).to_string(),
            u8::from(self.smoke).to_string(),
            self.spawned_unix_ns.to_string(),
        ]
    }

    fn from_args(args: &[String]) -> Option<Plan> {
        Some(Plan {
            workload: args.first()?.clone(),
            seed: args.get(1)?.parse().ok()?,
            seconds: args.get(2)?.parse().ok()?,
            life: args.get(3)?.parse().ok()?,
            trace: args.get(4)? == "1",
            probes: args.get(5)? == "1",
            smoke: args.get(6)? == "1",
            spawned_unix_ns: args.get(7)?.parse().ok()?,
        })
    }
}

/// What a worker reports back.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// Timed reps started (plus failed warm-up reps and a failed set-up).
    pub attempted: u64,
    pub failed: u64,
    /// First few failure messages.
    pub errors: Vec<String>,
    /// Per timed rep: rep wall ÷ wall of the burst before it.
    pub norm: Vec<f64>,
    /// Per timed rep: raw wall, ms.
    pub rep_ms: Vec<f64>,
    /// Per timed rep: burst wall, ms.
    pub cal_ms: Vec<f64>,
    /// Per timed rep: CPU the process tree used during the rep, ms.
    pub cpu_ms: Vec<f64>,
    pub peak_rss_mb: f64,
    pub setup_s: f64,
    /// Hash of the seed-drawn inputs, hex.
    pub digest: String,
    /// Per-layer metrics (`--trace` workers only).
    pub layers: BTreeMap<String, f64>,
}

impl Report {
    /// CPU work per rep in burst units: CPU seconds of the process tree
    /// during the timed reps ÷ (reps × median burst wall).
    pub fn cpu_norm(&self) -> f64 {
        self.cpu_ms.iter().sum::<f64>() / (self.cpu_ms.len() as f64 * median(&self.cal_ms))
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(msg);
        }
    }

    pub fn to_json(&self) -> Value {
        let nums = |v: &[f64]| Value::Arr(v.iter().map(|x| Value::Num(*x)).collect());
        Value::object([
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "errors",
                Value::Arr(self.errors.iter().cloned().map(Value::Str).collect()),
            ),
            ("norm", nums(&self.norm)),
            ("rep_ms", nums(&self.rep_ms)),
            ("cal_ms", nums(&self.cal_ms)),
            ("cpu_ms", nums(&self.cpu_ms)),
            ("peak_rss_mb", Value::Num(self.peak_rss_mb)),
            ("setup_s", Value::Num(self.setup_s)),
            ("digest", Value::Str(self.digest.clone())),
            (
                "layers",
                Value::object(self.layers.iter().map(|(k, v)| (k.clone(), Value::Num(*v)))),
            ),
        ])
    }

    pub fn from_json(v: &Value) -> Option<Report> {
        let nums =
            |key: &str| -> Option<Vec<f64>> { v.get(key)?.arr().iter().map(Value::num).collect() };
        Some(Report {
            attempted: v.get("attempted")?.num()? as u64,
            failed: v.get("failed")?.num()? as u64,
            errors: v
                .get("errors")?
                .arr()
                .iter()
                .filter_map(|e| e.str().map(str::to_string))
                .collect(),
            norm: nums("norm")?,
            rep_ms: nums("rep_ms")?,
            cal_ms: nums("cal_ms")?,
            // A metric that could not be computed travels as null.
            // A sample `/proc` did not give travels as null.
            cpu_ms: v
                .get("cpu_ms")?
                .arr()
                .iter()
                .map(|x| x.num().unwrap_or(f64::NAN))
                .collect(),
            peak_rss_mb: v.get("peak_rss_mb")?.num().unwrap_or(f64::NAN),
            setup_s: v.get("setup_s")?.num().unwrap_or(f64::NAN),
            digest: v.get("digest")?.str()?.to_string(),
            layers: v
                .get("layers")?
                .obj()?
                .iter()
                .filter_map(|(k, x)| Some((k.clone(), x.num()?)))
                .collect(),
        })
    }
}

fn emit(report: &Report) {
    procs::say(&format!("report {}", report.to_json().render()));
}

/// When the running rep started, as ms since `origin` plus one; 0 while no
/// rep is running. Written by the rep loop, read by the watchdog.
type RepClock = Arc<AtomicU64>;

/// End the process if a rep overruns: a hung rep must become a failed
/// run, never a hung benchmark. The blocked threads cannot be cancelled,
/// so the process says why and exits; the driver counts the failure, the
/// rank child follows (its stdin closes), and the driver removes the files.
fn spawn_watchdog(origin: Instant, clock: RepClock) {
    std::thread::Builder::new()
        .name("rep-watchdog".into())
        .spawn(move || loop {
            std::thread::sleep(Duration::from_millis(200));
            let started = clock.load(Ordering::SeqCst);
            let now = origin.elapsed().as_millis() as u64 + 1;
            if started != 0 && now - started > REP_WATCHDOG.as_millis() as u64 {
                procs::say(&format!("watchdog a rep exceeded {REP_WATCHDOG:?}"));
                std::process::exit(4);
            }
        })
        .expect("spawn rep watchdog");
}

/// The successful reps of one phase (untraced or traced).
#[derive(Default)]
struct Phase {
    norm: Vec<f64>,
    rep_ms: Vec<f64>,
    cal_ms: Vec<f64>,
    exec_ms: Vec<f64>,
    counts: Vec<Counts>,
    /// Task counts of the last rep (they repeat exactly).
    per_node: NodeCounts,
    /// Per rep: CPU the process tree used while the rep clock ran, ms.
    cpu_ms: Vec<f64>,
}

/// The rep loop's state.
struct Reps {
    calib: Calib,
    spans: Spans,
    origin: Instant,
    clock: RepClock,
    next_rep: usize,
}

impl Reps {
    /// One rep under the watchdog: calibration burst (its wall time is
    /// returned), then the workload.
    fn one(&mut self, wl: &mut dyn Workload, traced: bool) -> (Duration, Rep) {
        let n = self.next_rep;
        self.next_rep += 1;
        let now = self.origin.elapsed().as_millis() as u64 + 1;
        self.clock.store(now, Ordering::SeqCst);
        let calib = &mut self.calib;
        let out = self.spans.record("rep", Some(n), None, |spans, parent| {
            let burst = spans.record("burst", Some(n), Some(parent), |_, _| calib.burst());
            let at = SpanAt {
                spans,
                rep: n,
                parent,
            };
            (burst, wl.rep(traced, at))
        });
        self.clock.store(0, Ordering::SeqCst);
        out
    }

    /// Reps until `seconds` are used (smoke: exactly three), and at least
    /// one; then no further rep that would end after `soft_end`, judged by
    /// the longest so far. Failures go to `report`; only untraced reps
    /// count as attempted.
    fn phase(
        &mut self,
        wl: &mut dyn Workload,
        plan: &Plan,
        traced: bool,
        seconds: f64,
        soft_end: Instant,
        report: &mut Report,
    ) -> Phase {
        let mut p = Phase::default();
        let min_reps = if plan.smoke { 3 } else { MIN_TIMED_REPS };
        let budget = Duration::from_secs_f64(if plan.smoke { 0.0 } else { seconds });
        let started = Instant::now();
        let mut attempts = 0;
        let mut longest = Duration::ZERO;
        while attempts < min_reps || started.elapsed() < budget {
            if attempts > 0 && Instant::now() + longest > soft_end {
                break;
            }
            attempts += 1;
            let rep_started = Instant::now();
            let (burst, rep) = self.one(wl, traced);
            longest = longest.max(rep_started.elapsed());
            report.attempted += u64::from(!traced);
            if let Some(e) = rep.error {
                report.fail(format!("rep {attempts}: {e}"));
                continue;
            }
            p.norm.push(rep.wall.as_secs_f64() / burst.as_secs_f64());
            p.rep_ms.push(rep.wall.as_secs_f64() * 1e3);
            p.cal_ms.push(burst.as_secs_f64() * 1e3);
            p.exec_ms.push(rep.exec.as_secs_f64() * 1e3);
            p.counts.push(rep.counts);
            p.per_node = rep.per_node;
            p.cpu_ms.push(rep.cpu_s.unwrap_or(f64::NAN) * 1e3);
        }
        p
    }
}

/// Entry point of a worker process: `worker <plan…>`.
pub fn worker_main(args: &[String]) -> i32 {
    procs::exit_with_parent();
    let Some(plan) = Plan::from_args(args) else {
        eprintln!("bench_all worker: bad arguments {args:?}");
        return 2;
    };
    emit(&run(&plan));
    0
}

fn run(plan: &Plan) -> Report {
    let mut report = Report::default();
    let origin = Instant::now();
    let clock: RepClock = Arc::new(AtomicU64::new(0));
    spawn_watchdog(origin, Arc::clone(&clock));
    let mut reps = Reps {
        calib: Calib::new(),
        spans: Spans::new(),
        origin,
        clock,
        next_rep: 0,
    };

    let built = reps.spans.record("setup", None, None, |_, _| {
        workloads::build(&plan.workload, plan.seed, plan.smoke)
    });
    let mut wl = match built {
        Ok(wl) => wl,
        Err(e) => {
            report.attempted += 1;
            report.fail(format!("set-up failed: {e}"));
            return report;
        }
    };
    report.digest = format!("{:016x}", wl.digest());
    // Where each part of the worker's life should end at the latest (a
    // traced worker goes on to traced reps, the kernel model and the
    // probes). On a machine at its usual speed none of these is reached.
    let soft_end = |share: f64| origin + Duration::from_secs_f64(plan.life * share);
    let (warm_end, timed_end, traced_end) = if plan.trace {
        (soft_end(0.2), soft_end(0.5), soft_end(0.7))
    } else {
        (soft_end(0.4), soft_end(1.0), soft_end(1.0))
    };
    let mut longest = Duration::ZERO;
    for i in 0..if plan.smoke { 1 } else { WARMUP_REPS } {
        if i > 0 && Instant::now() + longest > warm_end {
            break;
        }
        let rep_started = Instant::now();
        if let Some(e) = reps.one(wl.as_mut(), false).1.error {
            report.attempted += 1;
            report.fail(format!("warm-up rep {i}: {e}"));
        }
        longest = longest.max(rep_started.elapsed());
    }

    // ---- timed section ------------------------------------------------
    report.setup_s = unix_ns().saturating_sub(plan.spawned_unix_ns) as f64 / 1e9;
    let timed = reps.phase(
        wl.as_mut(),
        plan,
        false,
        plan.seconds,
        timed_end,
        &mut report,
    );
    let n_reps = timed.norm.len() as f64;
    report.peak_rss_mb = std::iter::once(std::process::id())
        .chain(wl.children())
        .map(|pid| procfs::peak_rss_mib(pid).unwrap_or(f64::NAN))
        .sum();
    report.norm.clone_from(&timed.norm);
    report.rep_ms.clone_from(&timed.rep_ms);
    report.cal_ms.clone_from(&timed.cal_ms);
    report.cpu_ms.clone_from(&timed.cpu_ms);
    if !plan.trace {
        return report;
    }

    // ---- per-layer numbers ---------------------------------------------
    let mut layers: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, v: f64| layers.insert(name.to_string(), v);
    let rep_p50 = median(&timed.rep_ms);
    let med_count = |name: &str| -> f64 {
        let per_rep: Vec<f64> = timed.counts.iter().map(|c| c.get(name)).collect();
        median(&per_rep)
    };
    put("run.rep_p50_ms", rep_p50);
    put("run.rep_p90_ms", quantile(&timed.rep_ms, 0.9));
    put(
        "run.tasks_per_s",
        if rep_p50 > 0.0 {
            med_count("tasks") / (rep_p50 / 1e3)
        } else {
            0.0
        },
    );
    put("run.cpu_norm", report.cpu_norm());
    put("run.cal_p50_ms", median(&timed.cal_ms));
    put("run.reps", n_reps);
    let covers = |scope: Scope| scope.covers(&plan.workload);
    let exec_p50 = median(&timed.exec_ms);
    put("apps.exec_ms", exec_p50);
    let build_gather: Vec<f64> = timed
        .rep_ms
        .iter()
        .zip(&timed.exec_ms)
        .map(|(rep, exec)| rep - exec)
        .collect();
    put("apps.build_gather_ms", median(&build_gather));

    // Counts are per rep; the median over reps is the value itself for the
    // ones that repeat exactly.
    let per_rep: Vec<_> = timed.counts.iter().map(count_metrics).collect();
    for (i, (name, _)) in count_metrics(&Counts::zero()).iter().enumerate() {
        let values: Vec<f64> = per_rep.iter().map(|m| m[i].1).collect();
        put(name, median(&values));
    }

    // Traced reps: the program's own task/dependency recorder is the only
    // in-program tracing there is; its cost is the ratio of the two runs.
    if covers(Scope::Apps) {
        let traced = reps.phase(
            wl.as_mut(),
            plan,
            true,
            plan.seconds / 2.0,
            traced_end,
            &mut report,
        );
        let (on, off) = (median(&traced.norm), median(&timed.norm));
        if off > 0.0 && !traced.norm.is_empty() {
            put("trace.overhead_frac", on / off - 1.0);
        }
    }

    // Kernel model and the three-way attribution of worker-thread time.
    let kernel_s = reps.spans.record("kernel-model", None, None, |_, _| {
        wl.kernel_s(&timed.per_node)
    });
    if let Some(kernel_s) = kernel_s {
        put("linalg.kernel_s", kernel_s);
        let attr = attribute(
            kernel_s,
            med_count("idle_ns") / 1e9,
            (RANKS * WORKERS) as f64,
            exec_p50 / 1e3,
        );
        put("attr.kernel_frac", attr.kernel_frac);
        put("attr.idle_frac", attr.idle_frac);
        put("attr.overhead_frac", attr.overhead_frac);
    }

    // The workload is done: stop its threads and rank child before the
    // probes, so they measure an otherwise idle process.
    drop(wl);
    let scale = if plan.smoke { 0.02 } else { 1.0 };
    let probed = reps.spans.record("probes", None, None, |_, _| {
        let mut out = Vec::new();
        if covers(Scope::Procs) {
            out.push((
                "launch.spawn_ms".to_string(),
                probes::launch_spawn_ms(scale)?,
            ));
        }
        if plan.probes {
            out.extend(probes::run_all(scale)?);
        }
        Ok::<_, String>(out)
    });
    match probed {
        Ok(probes) => layers.extend(probes),
        Err(e) => {
            report.attempted += 1;
            report.fail(format!("layer probe failed: {e}"));
        }
    }
    // A layer that does not run on this workload has no row there.
    layers.retain(|name, _| {
        PER_LAYER
            .iter()
            .any(|(n, .., scope)| n == name && covers(*scope))
    });
    report.layers = layers;

    let path = procfs::scratch_root().join(format!("trace-{}.json", plan.workload));
    if let Err(e) = reps.spans.write_chrome(&path, &plan.workload) {
        eprintln!("bench_all: cannot write {}: {e}", path.display());
    }
    report
}
