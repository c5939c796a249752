//! `bench_all`: the repository's one benchmark — seven workloads, three
//! gated end-to-end metrics, and a per-layer attribution taken from outside
//! the program. See `README.md` next to this file.
//!
//! ```text
//! bench_all                                   every workload, end-to-end table
//! bench_all --trace                           every workload, per-layer table + span files
//! bench_all --workload W --seed S --seconds T --trace 0|1
//!                                             one workload; last stdout line is the
//!                                             result object of the acceptance contract
//! bench_all --smoke                           3 reps, tiny inputs and probes
//! bench_all --sets K [--out F.json]           K suites, worst pairwise disagreement
//! bench_all --compare A.json B.json           parent vs change, per cell
//! ```

mod calib;
mod driver;
mod json;
mod layers;
mod probes;
mod procfs;
mod procs;
mod spans;
mod stats;
mod suite;
mod wire;
mod worker;
mod workloads;

use std::time::{Duration, Instant};

/// End-to-end metrics: (name, unit, bound). All are lower-is-better; the
/// bound is the share of the parent's median a change may worsen it by.
///
/// A bound also has to hold the metric's own spread between ten runs of
/// one commit, or the acceptance driver refuses the benchmark. The issue's
/// 0.10 for `rep_norm` does not on this shared host: over 27 ten-run sets
/// its quartile spread was 2–6 % in calm hours and passed 10 % four times
/// and 15 % once (17.1 %) while a neighbour was busy, whichever way the
/// workers' values are combined (README, "Measured repeatability").
///
/// `rep_fail_frac` of the issue is not a metric here: the acceptance
/// contract forbids metrics that are normally 0 and carries failed and
/// attempted reps in its own `failed`/`attempted` fields.
pub const END_TO_END: [(&str, &str, f64); 3] = [
    // Median over timed reps of (rep wall ÷ wall of the burst before it).
    ("rep_norm", "ratio", 0.25),
    // Σ VmHWM of the worker and its rank children.
    ("peak_rss_mb", "MiB", 0.10),
    // Worker spawn → first timed rep. Raw seconds (the contract fixes the
    // unit), which drift with the host by more than a tenth between
    // windows. 0.25 is the largest bound the contract allows.
    ("setup_s", "s", 0.25),
];

/// Where a per-layer metric is measured: a layer that does not run on a
/// workload has no row there.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scope {
    /// Every workload.
    Every,
    /// The four applications, not the raw-fabric workloads (which have no
    /// executor: no `core`, no `runtime`).
    Apps,
    /// The workloads whose ranks talk through sockets; the other three use
    /// in-process links and never enter `transport`.
    Sockets,
    /// The applications with a kernel model (all but `mra_tree`).
    Modelled,
    /// `chol_procs_uds`, the one workload that starts rank processes.
    Procs,
    /// A timed call into a layer's public functions. It does not depend on
    /// the workload: a suite runs the probes once, with its first workload.
    Probe,
}
use Scope::{Apps, Every, Modelled, Probe, Procs, Sockets};

impl Scope {
    pub fn covers(self, workload: &str) -> bool {
        let wire = workload.starts_with("wire_");
        match self {
            Every | Probe => true,
            Apps => !wire,
            Sockets => !["chol_compute", "fw_fine", "mra_tree"].contains(&workload),
            Modelled => !wire && workload != "mra_tree",
            Procs => workload == "chol_procs_uds",
        }
    }
}

/// Per-layer metrics: (name, unit, better, where it is measured).
pub const PER_LAYER: [(&str, &str, &str, Scope); 66] = [
    ("run.rep_p50_ms", "ms", "lower", Every),
    ("run.rep_p90_ms", "ms", "lower", Every),
    ("run.tasks_per_s", "1/s", "higher", Apps),
    // The issue's `cpu_norm`: CPU seconds of the process tree during the
    // timed reps ÷ (reps × median burst wall). Not gated: it left its
    // 0.10 bound on `wire_bulk` and `bspmm_tcp_reliable` in sets where
    // `rep_norm` stayed inside (README), and the issue says to move such
    // a metric here rather than widen its bound.
    ("run.cpu_norm", "ratio", "lower", Every),
    ("run.cal_p50_ms", "ms", "lower", Every),
    ("run.reps", "count", "higher", Every),
    ("apps.exec_ms", "ms", "lower", Apps),
    ("apps.build_gather_ms", "ms", "lower", Apps),
    ("core.tasks", "count", "lower", Apps),
    ("core.values_shared", "count", "higher", Apps),
    ("core.deep_copies_avoided", "count", "higher", Apps),
    ("core.cow_clones", "count", "lower", Apps),
    ("core.cloned_bytes", "B", "lower", Apps),
    ("core.task_ns", "ns", "lower", Probe),
    ("core.match_insert_ns", "ns", "lower", Probe),
    ("runtime.idle_s", "s", "lower", Apps),
    ("runtime.wakeups", "count", "lower", Apps),
    ("runtime.steals", "count", "lower", Apps),
    ("runtime.steal_misses", "count", "lower", Apps),
    ("runtime.local_hits", "count", "higher", Apps),
    ("runtime.tasks_batched", "count", "higher", Apps),
    ("runtime.ready_hwm", "count", "lower", Apps),
    ("runtime.submit_ns", "ns", "lower", Probe),
    ("runtime.submit_batch16_ns", "ns", "lower", Probe),
    ("comm.am_count", "count", "lower", Every),
    ("comm.am_bytes", "B", "lower", Every),
    ("comm.rma_gets", "count", "lower", Every),
    ("comm.rma_bytes", "B", "lower", Every),
    ("comm.local_deliveries", "count", "higher", Every),
    ("comm.serializations", "count", "lower", Every),
    ("comm.data_copies", "count", "lower", Every),
    ("comm.bcast_sends_saved", "count", "higher", Every),
    ("comm.am_retries", "count", "lower", Every),
    ("comm.am_dedup_hits", "count", "lower", Every),
    ("comm.ack_flushes", "count", "lower", Every),
    ("comm.acks_per_msg", "ratio", "lower", Every),
    ("comm.retries_per_msg", "ratio", "lower", Every),
    ("comm.encode_mb_s", "MB/s", "higher", Probe),
    ("comm.decode_mb_s", "MB/s", "higher", Probe),
    ("comm.rtt_us.inproc_64b.p50", "us", "lower", Probe),
    ("comm.rtt_us.inproc_64b.p90", "us", "lower", Probe),
    ("comm.rtt_us.uds_64b.p50", "us", "lower", Probe),
    ("comm.rtt_us.uds_64b.p90", "us", "lower", Probe),
    ("comm.rtt_us.uds_64b_reliable.p50", "us", "lower", Probe),
    ("comm.rtt_us.uds_64b_reliable.p90", "us", "lower", Probe),
    ("comm.rtt_us.uds_64k.p50", "us", "lower", Probe),
    ("comm.rtt_us.uds_64k.p90", "us", "lower", Probe),
    ("transport.tx_bytes", "B", "lower", Sockets),
    ("transport.tx_writes", "count", "lower", Sockets),
    ("transport.frames_per_write", "ratio", "higher", Sockets),
    ("transport.queue_hwm", "count", "lower", Sockets),
    ("transport.connects", "count", "lower", Sockets),
    ("transport.reconnects", "count", "lower", Sockets),
    ("transport.pool_hit_rate", "ratio", "higher", Sockets),
    ("transport.frame_encode_ns", "ns", "lower", Probe),
    ("transport.frame_feed_ns", "ns", "lower", Probe),
    ("transport.connect_ms", "ms", "lower", Probe),
    ("linalg.gemm_gflops.nb128", "Gflop/s", "higher", Probe),
    ("linalg.gemm_gflops.nb32", "Gflop/s", "higher", Probe),
    ("linalg.minplus_ns.nb8", "ns", "lower", Probe),
    ("linalg.kernel_s", "s", "lower", Modelled),
    ("launch.spawn_ms", "ms", "lower", Procs),
    ("attr.kernel_frac", "ratio", "higher", Modelled),
    ("attr.idle_frac", "ratio", "lower", Modelled),
    ("attr.overhead_frac", "ratio", "lower", Modelled),
    ("trace.overhead_frac", "ratio", "lower", Apps),
];

/// Count metrics that depend on thread timing (marked `~` in the README);
/// every other count repeats exactly for a given seed.
pub const APPROXIMATE: [&str; 20] = [
    "runtime.idle_s",
    "runtime.wakeups",
    "runtime.steals",
    "runtime.steal_misses",
    "runtime.local_hits",
    "runtime.tasks_batched",
    "runtime.ready_hwm",
    "core.values_shared",
    "core.deep_copies_avoided",
    "comm.am_retries",
    "comm.am_dedup_hits",
    "comm.ack_flushes",
    "comm.acks_per_msg",
    "comm.retries_per_msg",
    "transport.tx_bytes",
    "transport.tx_writes",
    "transport.frames_per_write",
    "transport.queue_hwm",
    "transport.connects",
    "transport.pool_hit_rate",
];

/// Hard cap on one invocation with `--workload` (the contract allows 180 s).
const CONTRACT_DEADLINE: Duration = Duration::from_secs(165);

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    sets: usize,
    out: Option<String>,
    compare: Option<(String, String)>,
}

fn usage() -> ! {
    eprintln!(
        "usage: bench_all [--workload NAME] [--seed S] [--seconds T] [--trace [0|1]] \
         [--smoke] [--sets K] [--out FILE] | --compare A.json B.json\n\
         workloads: {}",
        workloads::WORKLOADS.map(|(n, _)| n).join(", ")
    );
    std::process::exit(2);
}

fn parse_cli(args: &[String]) -> Cli {
    let mut cli = Cli {
        workload: None,
        seed: 42,
        seconds: None,
        trace: false,
        smoke: false,
        sets: 1,
        out: None,
        compare: None,
    };
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let mut value = |what: &str| -> String {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("{what} expects a value");
                usage()
            })
        };
        fn num<T: std::str::FromStr>(s: String) -> T {
            s.parse().unwrap_or_else(|_| {
                eprintln!("'{s}' is not a valid number");
                usage()
            })
        }
        match a.as_str() {
            "--workload" => cli.workload = Some(value("--workload")),
            "--seed" => cli.seed = num(value("--seed")),
            "--seconds" => cli.seconds = Some(num(value("--seconds"))),
            "--sets" => cli.sets = num(value("--sets")),
            "--out" => cli.out = Some(value("--out")),
            "--smoke" => cli.smoke = true,
            "--trace" => {
                // The contract passes `--trace 0|1`; a bare `--trace` means 1.
                cli.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--compare" => cli.compare = Some((value("--compare"), value("--compare"))),
            _ => {
                eprintln!("unknown argument '{a}'");
                usage()
            }
        }
    }
    if let Some(w) = &cli.workload {
        if !workloads::WORKLOADS.iter().any(|(n, _)| n == w) {
            eprintln!("unknown workload '{w}'");
            usage();
        }
    }
    if cli.sets == 0 || cli.seconds.is_some_and(|s| !(s > 0.0 && s <= 600.0)) {
        eprintln!("--sets must be at least 1 and --seconds in (0, 600]");
        usage();
    }
    cli
}

/// Run the program with `args` (without the executable name); returns the
/// exit code. Also the entry of re-executed children, see `procs::reenter`.
fn run(args: &[String]) -> i32 {
    match args.first().map(String::as_str) {
        Some("worker") => return worker::worker_main(&args[1..]),
        Some("rank-child") => return procs::rank_child_main(&args[1..]),
        Some("noop") => return 0,
        _ => {}
    }
    let cli = parse_cli(args);
    if let Some((a, b)) = &cli.compare {
        return suite::compare(a, b);
    }
    let started = Instant::now();
    let contract = cli.workload.is_some() && cli.sets == 1 && cli.out.is_none();
    let opts = driver::RunOpts {
        seed: cli.seed,
        seconds: cli.seconds.unwrap_or(12.0),
        trace: cli.trace,
        probes: cli.trace,
        smoke: cli.smoke,
        deadline: if contract {
            started + CONTRACT_DEADLINE
        } else {
            started + Duration::from_secs(24 * 3600)
        },
    };
    let Some(name) = cli.workload.as_deref().filter(|_| contract) else {
        return suite::run(&opts, cli.workload.as_deref(), cli.sets, cli.out.as_deref());
    };
    // One workload, answered in the acceptance contract's format: context
    // first, the result object as the last line of stdout.
    driver::header(&opts).iter().for_each(|l| println!("{l}"));
    let out = driver::run_workload(name, &opts);
    println!(
        "bench_all: {name}: {} timed reps, run.cal_p50_ms {:.3}, input digest {}",
        out.reps, out.cal_p50_ms, out.digest
    );
    for line in &out.per_worker {
        println!("bench_all: {name}: {line}");
    }
    // Notes and failures go to both streams: whoever keeps only one still
    // sees why.
    for n in &out.notes {
        println!("note {name}: {n}");
        eprintln!("bench_all: note {name}: {n}");
    }
    for e in &out.errors {
        println!("FAILED {name}: {e}");
        eprintln!("bench_all: FAILED {name}: {e}");
    }
    if !out.correct() && out.errors.is_empty() {
        eprintln!("bench_all: {name}: a metric could not be measured (it reads 0 below)");
    }
    println!("{}", driver::contract_line(&out, opts.trace));
    0
}

fn main() {
    let args: Vec<String> = match procs::reentered_args() {
        Some(args) => args,
        None => std::env::args().skip(1).collect(),
    };
    std::process::exit(run(&args));
}

#[cfg(test)]
mod tests;
