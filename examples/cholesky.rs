//! Distributed tiled Cholesky factorization through the TTG flowgraph of
//! the paper's Fig. 1, on both backends, with residual verification and a
//! projection onto a Hawk-like 16-node machine.
//!
//! Run with: `cargo run --release --example cholesky`
//!
//! Chaos testing: pass `--faults seed=42,drop=0.05` (see `FaultPlan::parse`
//! for the full spec grammar) to run the same factorization over a faulty
//! network with reliable delivery. Residuals must be identical; the example
//! asserts the injection actually fired (`am_retries > 0`).

use ttg::apps::cholesky::{self, ttg as chol};
use ttg::comm::{FaultPlan, TransportSpec};
use ttg::linalg::TiledMatrix;
use ttg::simnet::{des::from_core_trace, simulate, MachineModel};

fn main() {
    // `--check` verifies the graph before each run (see ttg::check).
    ttg::check::enable_from_args();
    let faults = FaultPlan::from_args();
    // `--transport tcp|uds` carries inter-rank frames over real sockets.
    let transport = TransportSpec::from_args();
    let nt = 8;
    let nb = 32;
    let a = TiledMatrix::random_spd(nt, nb, 42);
    println!(
        "factoring a {}×{} SPD matrix ({nt}×{nt} tiles of {nb}²), {} kernels",
        a.n(),
        a.n(),
        ttg::linalg::isa()
    );
    if let Some(plan) = &faults {
        println!(
            "chaos: seed={} drop={} dup={} reorder={} delay={}",
            plan.seed, plan.drop, plan.dup, plan.reorder, plan.delay
        );
    }

    for backend in [ttg::parsec::backend(), ttg::madness::backend()] {
        let name = backend.name;
        let cfg = chol::Config {
            ranks: 4,
            workers: 2,
            backend,
            trace: true,
            priorities: true,
            faults: faults.clone(),
            transport: transport.clone(),
        };
        let (l, report) = chol::run(&a, &cfg);
        let residual = cholesky::residual(&a, &l);
        println!("\nbackend {name}:");
        println!("  residual ‖A − L·Lᵀ‖_max = {residual:.3e}");
        println!(
            "  tasks = {}, inter-rank msgs = {}, RMA bytes = {}, copies = {}",
            report.tasks, report.comm.am_count, report.comm.rma_bytes, report.comm.data_copies
        );
        let core_sum = |name: &'static str| -> u64 {
            (0..cfg.ranks)
                .map(|r| {
                    report
                        .telemetry
                        .counter(&ttg::telemetry::MetricKey::ranked(r, "core", name))
                })
                .sum()
        };
        println!(
            "  value plane: shared = {}, deep copies avoided = {}, cow clones = {} ({} B cloned)",
            core_sum("values_shared"),
            core_sum("deep_copies_avoided"),
            core_sum("cow_clones"),
            core_sum("cloned_bytes")
        );
        assert!(residual < 1e-8);

        if let Some(plan) = &faults {
            println!(
                "  chaos: retries = {}, dropped = {}, dup = {}, delayed = {}, dedup hits = {}, comm errors = {}",
                report.comm.am_retries,
                report.comm.am_dropped_injected,
                report.comm.am_dup_injected,
                report.comm.am_delayed_injected,
                report.comm.am_dedup_hits,
                report.comm_errors.len()
            );
            for e in &report.comm_errors {
                eprintln!("  comm error: {e}");
            }
            // CI gate: with losses configured the injection must not be
            // inert, and no message may have been permanently lost.
            if plan.drop > 0.0 {
                assert!(
                    report.comm.am_retries > 0,
                    "fault injection inert: drop={} but no retransmissions",
                    plan.drop
                );
            }
            assert!(
                report.comm_errors.is_empty(),
                "unexpected comm errors under recoverable faults"
            );
            assert!(report.stuck.is_empty(), "stuck keys under chaos");
        }

        // Project the run onto a 16-node Hawk-like machine.
        let tasks = from_core_trace(report.trace.as_ref().unwrap());
        let sim = simulate(&tasks, &MachineModel::hawk(4));
        println!(
            "  projected on 4 Hawk nodes: {:.2} ms, {:.1} GFLOP/s, utilization {:.1}%",
            sim.makespan_ns as f64 / 1e6,
            cholesky::total_flops(nt, nb) as f64 / sim.makespan_ns as f64,
            sim.utilization * 100.0
        );
    }
}
