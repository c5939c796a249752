//! Tests of the whole harness (`cargo test --release --manifest-path bench_all/Cargo.toml`).
//! They spawn real workers and rank children through `procs::reenter`,
//! which under test re-executes this test binary into [`reenter`].

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use super::*;
use crate::driver::{contract_line, run_child, run_workload, Outcome, RunOpts};
use crate::workloads::WORKLOADS;

/// Not a test of its own: the entry point of every process the other
/// tests spawn. A no-op when the test binary runs normally.
#[test]
fn reenter() {
    if let Some(args) = procs::reentered_args() {
        std::process::exit(run(&args));
    }
}

fn smoke(seed: u64, trace: bool) -> RunOpts {
    RunOpts {
        seed,
        seconds: 1.0,
        trace,
        probes: trace,
        smoke: true,
        deadline: Instant::now() + Duration::from_secs(120),
    }
}

fn name_ok(name: &str) -> bool {
    let body = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(body)
}

fn unit_ok(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn metric_and_workload_names_are_well_formed_and_unique() {
    let mut seen = BTreeSet::new();
    for (name, unit, bound) in END_TO_END {
        assert!(name_ok(name) && unit_ok(unit), "{name} [{unit}]");
        assert!((0.0..=0.25).contains(&bound), "{name}: bound {bound}");
        assert!(seen.insert(name), "{name} listed twice");
    }
    for (name, unit, better, _) in PER_LAYER {
        assert!(name_ok(name) && unit_ok(unit), "{name} [{unit}]");
        assert!(better == "lower" || better == "higher", "{name}: {better}");
        assert!(seen.insert(name), "{name} listed twice");
    }
    for (name, why) in WORKLOADS {
        assert!(name_ok(name), "{name}");
        assert!(why.len() <= 200 && !why.contains('\n'), "{name}: why");
        assert!(seen.insert(name), "{name} listed twice");
    }
    for name in APPROXIMATE {
        assert!(
            PER_LAYER.iter().any(|(n, ..)| *n == name),
            "{name} is marked approximate but is not a layer metric"
        );
    }
    assert!(END_TO_END
        .iter()
        .any(|(n, u, _)| *n == "setup_s" && *u == "s"));
}

/// `BENCHMARK.json` at the repository root is written by hand; it must say
/// what the code does.
#[test]
fn benchmark_json_matches_the_tables() {
    let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
    let keys: Vec<&str> = doc.obj().unwrap().keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let field = |v: &json::Value, k: &str| v.get(k).and_then(|x| x.str()).unwrap().to_string();

    let listed: Vec<(String, String)> = doc
        .get("workloads")
        .unwrap()
        .arr()
        .iter()
        .map(|w| (field(w, "name"), field(w, "why")))
        .collect();
    let ours: Vec<(String, String)> = WORKLOADS
        .iter()
        .map(|(n, w)| (n.to_string(), w.to_string()))
        .collect();
    assert_eq!(listed, ours);

    let listed: Vec<(String, String, String, f64)> = doc
        .get("end_to_end")
        .unwrap()
        .arr()
        .iter()
        .map(|m| {
            (
                field(m, "name"),
                field(m, "unit"),
                field(m, "better"),
                m.get("bound").unwrap().num().unwrap(),
            )
        })
        .collect();
    let ours: Vec<(String, String, String, f64)> = END_TO_END
        .iter()
        .map(|(n, u, b)| (n.to_string(), u.to_string(), "lower".to_string(), *b))
        .collect();
    assert_eq!(listed, ours);

    let listed: Vec<(String, String, String)> = doc
        .get("per_layer")
        .unwrap()
        .arr()
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
        .collect();
    let ours: Vec<(String, String, String)> = PER_LAYER
        .iter()
        .map(|(n, u, b, _)| (n.to_string(), u.to_string(), b.to_string()))
        .collect();
    assert_eq!(listed, ours);

    let paths: Vec<&str> = doc
        .get("paths")
        .unwrap()
        .arr()
        .iter()
        .filter_map(|p| p.str())
        .collect();
    assert_eq!(paths, ["bench_all"]);
    let seconds = doc.get("run_seconds").unwrap().num().unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
}

#[test]
fn cli_accepts_the_contract_flags() {
    let args = |s: &str| -> Vec<String> { s.split(' ').map(str::to_string).collect() };
    let cli = parse_cli(&args("--workload fw_fine --seed 9 --seconds 10 --trace 0"));
    assert_eq!(cli.workload.as_deref(), Some("fw_fine"));
    assert_eq!((cli.seed, cli.seconds, cli.trace), (9, Some(10.0), false));
    assert!(parse_cli(&args("--workload fw_fine --trace 1")).trace);
    assert!(parse_cli(&args("--trace --smoke")).trace);
    assert!(parse_cli(&args("--trace --smoke")).smoke);
}

#[test]
fn contract_line_has_exactly_the_contract_keys() {
    let mut out = Outcome {
        attempted: 12,
        expected: END_TO_END.iter().map(|(n, ..)| *n).collect(),
        ..Outcome::default()
    };
    for (name, ..) in END_TO_END {
        out.e2e.insert(name.into(), 1.25);
    }
    let line = json::parse(&contract_line(&out, false)).unwrap();
    let keys: Vec<&str> = line.obj().unwrap().keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(line.get("correct"), Some(&json::Value::Bool(true)));
    let metrics = line.get("metrics").unwrap().obj().unwrap();
    assert_eq!(metrics.len(), END_TO_END.len());
    assert_eq!(metrics["setup_s"].get("unit").unwrap().str(), Some("s"));
    // A traced line carries every layer metric, whatever the workload's
    // scope; an expected one that is missing makes the result incorrect.
    out.expected = vec!["core.tasks"];
    let traced = json::parse(&contract_line(&out, true)).unwrap();
    assert_eq!(traced.get("correct"), Some(&json::Value::Bool(false)));
    assert_eq!(
        traced.get("metrics").unwrap().obj().unwrap().len(),
        PER_LAYER.len()
    );
}

#[test]
fn smoke_reports_every_end_to_end_metric_for_all_workloads() {
    for (name, _) in WORKLOADS {
        let out = run_workload(name, &smoke(42, false));
        assert_eq!(out.failed, 0, "{name}: {:?}", out.errors);
        assert_eq!(out.reps, 3 * driver::WORKERS_PER_RUN, "{name}");
        for (metric, ..) in END_TO_END {
            let v = out.e2e.get(metric).copied();
            assert!(v.is_some_and(f64::is_finite), "{name}: {metric} = {v:?}");
        }
        assert!(
            out.e2e["rep_norm"] > 0.0 && out.e2e["peak_rss_mb"] > 1.0,
            "{name}"
        );
        assert!(out.correct(), "{name}");
    }
}

#[test]
fn traced_smoke_counts_repeat_and_attribution_sums_to_one() {
    for (name, _) in WORKLOADS {
        let first = run_workload(name, &smoke(42, true));
        let again = run_workload(name, &smoke(42, true));
        // As a suite runs every workload but its first: without the probes.
        let other = run_workload(
            name,
            &RunOpts {
                probes: false,
                ..smoke(7, true)
            },
        );
        for (out, probes) in [(&first, true), (&again, true), (&other, false)] {
            assert!(out.correct(), "{name}: {:?}", out.errors);
            // Exactly the metrics whose scope covers the workload.
            let listed: BTreeSet<&str> = PER_LAYER
                .iter()
                .filter(|(.., scope)| scope.covers(name) && (probes || *scope != Scope::Probe))
                .map(|(n, ..)| *n)
                .collect();
            let got: BTreeSet<&str> = out.layers.keys().map(String::as_str).collect();
            assert_eq!(got, listed, "{name}: layer metric set");
            if Scope::Modelled.covers(name) {
                let sum = out.layers["attr.kernel_frac"]
                    + out.layers["attr.idle_frac"]
                    + out.layers["attr.overhead_frac"];
                assert!((sum - 1.0).abs() < 1e-9, "{name}: attr sums to {sum}");
            }
        }
        // Counts that do not depend on thread timing repeat exactly.
        let exact = layers::count_metrics(&layers::Counts::zero());
        for (metric, _) in exact.iter().filter(|(m, _)| !APPROXIMATE.contains(m)) {
            // `None` on both sides where the workload has no such row.
            assert_eq!(
                first.layers.get(*metric),
                again.layers.get(*metric),
                "{name}: {metric} differs between two runs of seed 42"
            );
        }
        // Another seed is another input.
        assert_eq!(first.digest, again.digest, "{name}");
        assert_ne!(first.digest, other.digest, "{name}");
        let trace = procfs::scratch_root().join(format!("trace-{name}.json"));
        let spans = std::fs::read_to_string(&trace).expect("span file written");
        assert!(ttg_telemetry::json::validate(&spans).is_ok(), "{name}");
    }
}

/// Nothing run `run_id` started is still alive, and none of its worker
/// directories is left behind.
fn assert_clean(run_id: &str) {
    assert_eq!(procfs::marked_processes(run_id), Vec::<u32>::new());
    let prefix = format!("w-{run_id}-");
    let left: Vec<_> = std::fs::read_dir(procfs::scratch_root())
        .expect("scratch root exists")
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with(&prefix))
        .collect();
    assert!(left.is_empty(), "worker directories left behind: {left:?}");
}

#[test]
fn a_worker_that_dies_without_a_report_is_a_failure_and_leaves_nothing() {
    let run_id = format!("{}-silent", std::process::id());
    let limit = Instant::now() + Duration::from_secs(30);
    let got = run_child(&["noop"], limit, &run_id);
    assert_eq!(got.unwrap_err(), "worker exited without a report");
    assert_clean(&run_id);
}

#[test]
fn a_failed_set_up_is_a_failed_rep() {
    let run_id = format!("{}-setup", std::process::id());
    let plan = worker::Plan {
        workload: "no_such_workload".into(),
        seed: 1,
        seconds: 0.1,
        life: 30.0,
        trace: false,
        probes: false,
        smoke: true,
        spawned_unix_ns: worker::unix_ns(),
    };
    let args = plan.to_args();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let limit = Instant::now() + Duration::from_secs(30);
    let report = run_child(&args, limit, &run_id).expect("a report");
    assert_eq!((report.attempted, report.failed), (1, 1));
    assert!(report.errors[0].contains("unknown workload"));
    assert_clean(&run_id);
}

/// The hang path: a worker (with a live rank child) that overruns its
/// limit is killed; the rank child must not survive it.
#[test]
fn an_overrunning_worker_is_killed_with_its_rank_child() {
    let run_id = format!("{}-hang", std::process::id());
    let plan = worker::Plan {
        workload: "chol_procs_uds".into(),
        seed: 1,
        seconds: 60.0,
        life: 240.0,
        trace: false,
        probes: false,
        smoke: false,
        spawned_unix_ns: worker::unix_ns(),
    };
    let args = plan.to_args();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let limit = Instant::now() + Duration::from_secs(3);
    let got = run_child(&args, limit, &run_id);
    assert_eq!(
        got.unwrap_err(),
        "worker overran its time limit and was killed"
    );
    assert_clean(&run_id);
}

/// The slow-machine path: a worker whose `life` is used up sheds warm-up
/// and timed reps down to one of each and still reports, correct.
#[test]
fn a_worker_out_of_life_sheds_reps_and_still_reports() {
    let run_id = format!("{}-slow", std::process::id());
    let plan = worker::Plan {
        workload: "chol_procs_uds".into(),
        seed: 1,
        seconds: 60.0,
        life: 0.0,
        trace: false,
        probes: false,
        smoke: false,
        spawned_unix_ns: worker::unix_ns(),
    };
    let args = plan.to_args();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let limit = Instant::now() + Duration::from_secs(30);
    let report = run_child(&args, limit, &run_id).expect("a report");
    assert_eq!((report.attempted, report.failed), (1, 0), "{report:?}");
    assert_eq!(report.norm.len(), 1);
    assert!(report.setup_s > 0.0 && report.peak_rss_mb > 0.0);
    assert_clean(&run_id);
}
