//! The human-facing modes: run every workload and print the tables
//! (`--sets K` repeats the suite and reports how far the sets disagree),
//! save them (`--out`), and compare two saved files (`--compare`).

use std::collections::BTreeMap;

use crate::driver::{header, run_workload, Outcome, RunOpts};
use crate::json::{self, Value};
use crate::stats::{iqr_share, median};
use crate::workloads::WORKLOADS;
use crate::{END_TO_END, PER_LAYER};

type Set = BTreeMap<String, Outcome>;

fn print_e2e(set: &Set) {
    print!("{:<20}", "workload");
    for (name, unit, _) in END_TO_END {
        print!("{:>18}", format!("{name} [{unit}]"));
    }
    println!("{:>8}{:>8}{:>12}", "reps", "failed", "cal_p50_ms");
    for (name, _) in WORKLOADS {
        let Some(o) = set.get(name) else { continue };
        print!("{name:<20}");
        for (metric, ..) in END_TO_END {
            print!("{:>18.4}", o.e2e.get(metric).copied().unwrap_or(f64::NAN));
        }
        println!("{:>8}{:>8}{:>12.3}", o.reps, o.failed, o.cal_p50_ms);
    }
}

/// One row per metric, one column per workload; `-` where the layer does
/// not run on the workload (or the probe ran with another one).
fn print_layers(set: &Set) {
    println!("\nper-layer metrics (from the traced run)");
    print!("{:<36}", "metric [unit]");
    for (name, _) in WORKLOADS {
        if set.contains_key(name) {
            print!("{:>20}", name);
        }
    }
    println!();
    for (metric, unit, ..) in PER_LAYER {
        print!("{:<36}", format!("{metric} [{unit}]"));
        for (name, _) in WORKLOADS {
            match set.get(name).map(|o| o.layers.get(metric)) {
                Some(Some(v)) => print!("{v:>20.4}"),
                Some(None) => print!("{:>20}", "-"),
                None => {}
            }
        }
        println!();
    }
}

fn print_failures(set: &Set) {
    for (name, o) in set {
        for n in &o.notes {
            println!("note {name}: {n}");
        }
        for e in &o.errors {
            println!("FAILED {name}: {e}");
        }
    }
}

/// For every workload × end-to-end metric, how far the sets disagree:
/// the largest value over the smallest, minus one. Returns whether every
/// cell stays within its bound.
fn print_disagreement(sets: &[Set]) -> bool {
    println!(
        "\nworst pairwise disagreement between the {} sets (bound)",
        sets.len()
    );
    let mut within = true;
    for (name, _) in WORKLOADS {
        print!("{name:<20}");
        for (metric, _, bound) in END_TO_END {
            let values: Vec<f64> = sets
                .iter()
                .filter_map(|s| s.get(name)?.e2e.get(metric).copied())
                .collect();
            let (lo, hi) = values.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), v| {
                (lo.min(*v), hi.max(*v))
            });
            let spread = if values.len() < 2 {
                f64::NAN
            } else {
                hi / lo - 1.0
            };
            // NaN (a missing cell) must count as a disagreement too.
            let ok = spread <= bound;
            within &= ok;
            print!(
                "{:>24}",
                format!(
                    "{metric} {:.1}% ({:.0}%){}",
                    spread * 100.0,
                    bound * 100.0,
                    if ok { "" } else { " !" }
                )
            );
        }
        println!();
    }
    within
}

fn set_json(set: &Set) -> Value {
    let nums = |m: &BTreeMap<String, f64>| {
        Value::object(m.iter().map(|(k, v)| (k.clone(), Value::Num(*v))))
    };
    Value::object(set.iter().map(|(name, o)| {
        (
            name.clone(),
            Value::object([
                ("e2e", nums(&o.e2e)),
                ("layers", nums(&o.layers)),
                ("attempted", Value::Num(o.attempted as f64)),
                ("failed", Value::Num(o.failed as f64)),
                ("reps", Value::Num(o.reps as f64)),
                ("cal_p50_ms", Value::Num(o.cal_p50_ms)),
            ]),
        )
    }))
}

/// Run the suite (`only` = one workload). Returns the process exit code.
pub fn run(opts: &RunOpts, only: Option<&str>, sets: usize, out: Option<&str>) -> i32 {
    let head = header(opts);
    head.iter().for_each(|l| println!("{l}"));
    let mut all: Vec<Set> = Vec::new();
    let mut prev_cal: Option<f64> = None;
    let mut failed = false;
    for k in 0..sets {
        let mut set = Set::new();
        for (name, _) in WORKLOADS {
            if only.is_some_and(|o| o != name) {
                continue;
            }
            eprintln!("bench_all: set {k}: {name} …");
            // The probes do not depend on the workload: once per set.
            let opts = RunOpts {
                probes: opts.trace && set.is_empty(),
                ..opts.clone()
            };
            let o = run_workload(name, &opts);
            failed |= !o.correct();
            set.insert(name.to_string(), o);
        }
        println!("\nset {k}");
        if opts.trace {
            print_layers(&set);
        } else {
            print_e2e(&set);
        }
        print_failures(&set);
        let cals: Vec<f64> = set.values().map(|o| o.cal_p50_ms).collect();
        let cal = median(&cals);
        println!("run.cal_p50_ms of the set: {cal:.3}");
        if let Some(prev) = prev_cal {
            if ((cal - prev) / prev).abs() > 0.10 {
                println!(
                    "warning: burst median moved {prev:.3} → {cal:.3} ms since the previous \
                     set (> 10 %): the machine moved, not the code"
                );
            }
        }
        prev_cal = Some(cal);
        all.push(set);
    }
    if sets > 1 && !opts.trace {
        failed |= !print_disagreement(&all);
    }
    if let Some(path) = out {
        let doc = Value::object([
            (
                "header",
                Value::Arr(head.into_iter().map(Value::Str).collect()),
            ),
            ("seed", Value::Num(opts.seed as f64)),
            ("seconds", Value::Num(opts.seconds)),
            ("sets", Value::Arr(all.iter().map(set_json).collect())),
        ]);
        if let Err(e) = std::fs::write(path, doc.render()) {
            eprintln!("bench_all: cannot write {path}: {e}");
            return 1;
        }
        println!("wrote {path}");
    }
    i32::from(failed)
}

/// Values of one workload × metric across the sets of a saved file.
fn cell(doc: &Value, workload: &str, metric: &str) -> Vec<f64> {
    doc.get("sets")
        .map(Value::arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|set| set.get(workload)?.get("e2e")?.get(metric)?.num())
        .collect()
}

#[derive(Debug, PartialEq, Clone, Copy)]
pub enum Verdict {
    Ok,
    /// The change's median is worse than the parent's by more than the bound.
    Regressed,
    /// A side's own run-to-run spread exceeds the bound: no verdict.
    Unresolved,
    Missing,
}

/// Judge one cell. All end-to-end metrics are lower-is-better.
pub fn judge(a: &[f64], b: &[f64], bound: f64) -> (f64, Verdict) {
    if a.is_empty() || b.is_empty() {
        return (f64::NAN, Verdict::Missing);
    }
    let delta = median(b) / median(a) - 1.0;
    let verdict = if iqr_share(a) > bound || iqr_share(b) > bound {
        Verdict::Unresolved
    } else if delta > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (delta, verdict)
}

/// `--compare A.json B.json`: A is the parent, B the change. Exit code 1
/// when any cell regressed.
pub fn compare(path_a: &str, path_b: &str) -> i32 {
    let load = |p: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (a, b) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_all: {e}");
            return 2;
        }
    };
    println!(
        "{:<20}{:<14}{:>12}{:>12}{:>10}{:>8}  verdict",
        "workload", "metric", "A median", "B median", "delta", "bound"
    );
    let mut regressed = false;
    for (name, _) in WORKLOADS {
        for (metric, _, bound) in END_TO_END {
            let (va, vb) = (cell(&a, name, metric), cell(&b, name, metric));
            let (delta, verdict) = judge(&va, &vb, bound);
            regressed |= verdict == Verdict::Regressed;
            println!(
                "{name:<20}{metric:<14}{:>12.4}{:>12.4}{:>9.1}%{:>7.0}%  {}",
                median(&va),
                median(&vb),
                delta * 100.0,
                bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Missing => "missing",
                }
            );
        }
    }
    i32::from(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_marks_regressions_and_noise() {
        let steady = [1.00, 1.01, 0.99, 1.00];
        assert_eq!(
            judge(&steady, &[1.05, 1.04, 1.06, 1.05], 0.10).1,
            Verdict::Ok
        );
        assert_eq!(
            judge(&steady, &[1.15, 1.14, 1.16, 1.15], 0.10).1,
            Verdict::Regressed
        );
        // An improvement is never a regression.
        assert_eq!(judge(&steady, &[0.5, 0.5, 0.5, 0.5], 0.10).1, Verdict::Ok);
        // A side that cannot repeat itself within the bound gives no verdict.
        assert_eq!(
            judge(&steady, &[1.0, 1.4, 0.8, 1.3], 0.10).1,
            Verdict::Unresolved
        );
        assert_eq!(judge(&[], &steady, 0.10).1, Verdict::Missing);
        // One value a side: no spread to hold against it.
        assert_eq!(judge(&[1.0], &[1.2], 0.10).1, Verdict::Regressed);
    }
}
