//! Run a distributed tiled Cholesky factorization and export the execution
//! as a Chrome trace-event file loadable in Perfetto (https://ui.perfetto.dev)
//! or `chrome://tracing`, plus a metrics snapshot as JSON.
//!
//! Run with: `cargo run --release --example trace_export`
//!
//! Every task is drawn where and when it ran: one slice per task on its
//! rank's worker lane, from its recorded start to its recorded end.

use ttg::apps::cholesky::{self, ttg as chol};
use ttg::linalg::TiledMatrix;

fn main() {
    let nt = 6;
    let nb = 24;
    let a = TiledMatrix::random_spd(nt, nb, 7);
    let cfg = chol::Config {
        ranks: 4,
        workers: 2,
        backend: ttg::parsec::backend(),
        trace: true,
        priorities: true,
        faults: None,
        transport: ttg::comm::TransportSpec::InProc,
    };
    let (l, report) = chol::run(&a, &cfg);
    assert!(cholesky::residual(&a, &l) < 1e-8);
    println!(
        "factored {nt}×{nt} tiles on {} ranks: {} tasks in {:?}",
        cfg.ranks, report.tasks, report.elapsed
    );

    // Chrome trace: the recorded task trace, one lane per rank and worker.
    let trace = report.trace.as_ref().expect("trace was enabled");
    let json = ttg::core::chrome_trace(trace);
    std::fs::write("cholesky_trace.json", &json).expect("write trace");
    println!(
        "wrote cholesky_trace.json ({} events) — open in https://ui.perfetto.dev",
        json.matches("\"ph\":").count()
    );

    // Metrics snapshot: every counter the run produced, as JSON.
    let metrics = report.telemetry.to_json();
    std::fs::write("cholesky_metrics.json", &metrics).expect("write metrics");
    let bytes_total = report.comm.am_bytes + report.comm.rma_bytes;
    println!(
        "wrote cholesky_metrics.json — {} AMs, {} wire bytes, {} broadcast bytes deduplicated",
        report.comm.am_count, bytes_total, report.comm.bcast_bytes_saved
    );
}
