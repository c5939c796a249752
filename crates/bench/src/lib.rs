//! # ttg-bench — the figure harness
//!
//! One binary per table/figure of the paper's evaluation section (see
//! `DESIGN.md` for the index) and the table/projection helpers they share;
//! measuring the runtime itself is `bench_all`'s job, not this crate's.
//! Applications run for real on the in-process fabric at laptop scale;
//! recorded traces are projected onto Hawk-like and Seawulf-like machine
//! models by `ttg-simnet` to regenerate the figures' node ranges. Absolute
//! numbers are not expected to match the paper — shapes, groupings, and
//! crossovers are (see `EXPERIMENTS.md`).

#![warn(missing_docs)]

use ttg_core::{BackendSpec, TaskEvent};
use ttg_simnet::{des::from_core_trace, simulate, MachineModel, SimResult, TraceTask};

/// A named series of (x, y) points for table output.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub(crate) name: String,
    /// Data points.
    pub(crate) points: Vec<(f64, f64)>,
}

impl Series {
    /// Create an empty series.
    pub fn new(name: impl Into<String>) -> Self {
        Series {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Append a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }
}

/// Print a figure as an aligned text table: one row per x value, one
/// column per series (the same rows/series the paper plots).
pub fn print_table(title: &str, x_label: &str, y_label: &str, series: &[Series]) {
    println!("\n=== {title} ===");
    println!("(y = {y_label})");
    let mut xs: Vec<f64> = series
        .iter()
        .flat_map(|s| s.points.iter().map(|(x, _)| *x))
        .collect();
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs.dedup();
    print!("{:>12}", x_label);
    for s in series {
        print!("{:>18}", s.name);
    }
    println!();
    for x in xs {
        print!("{x:>12.0}");
        for s in series {
            match s.points.iter().find(|(px, _)| (px - x).abs() < 1e-9) {
                Some((_, y)) => print!("{y:>18.2}"),
                None => print!("{:>18}", "-"),
            }
        }
        println!();
    }
}

/// Project a ttg-core trace onto a machine model with the backend's
/// software overheads applied.
pub fn project(trace: &[TaskEvent], machine: MachineModel, backend: &BackendSpec) -> SimResult {
    let tasks = from_core_trace(trace);
    let m = machine.with_backend_overheads(backend.msg_overhead_ns, backend.task_overhead_ns);
    simulate(&tasks, &m)
}

/// Project a raw trace (BSP comparators, PTG) onto a machine model.
pub fn project_raw(trace: &[TraceTask], machine: MachineModel) -> SimResult {
    simulate(trace, &machine)
}

/// GFLOP/s achieved for `flops` work in `ns` projected time.
pub fn gflops(flops: u64, makespan_ns: u64) -> f64 {
    if makespan_ns == 0 {
        0.0
    } else {
        flops as f64 / makespan_ns as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_and_gflops() {
        let mut s = Series::new("x");
        s.push(1.0, 2.0);
        assert_eq!(s.points.len(), 1);
        assert!((gflops(8_000, 1_000) - 8.0).abs() < 1e-12);
        assert_eq!(gflops(1, 0), 0.0);
    }
}
