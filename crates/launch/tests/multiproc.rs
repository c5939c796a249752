//! End-to-end multi-process smoke tests: drive the `ttg-launch` binary the
//! way CI does and require the bit-identical (cholesky) / tolerance-bound
//! (bspmm) verification against the single-process reference to pass.
//!
//! Sizes are kept small — each test spawns real OS processes that must
//! handshake over real sockets, factor/multiply, and compare.

use std::process::Command;

fn launch(args: &[&str]) {
    let exe = env!("CARGO_BIN_EXE_ttg-launch");
    let out = Command::new(exe)
        .args(args)
        .output()
        .expect("spawn ttg-launch");
    assert!(
        out.status.success(),
        "ttg-launch {args:?} failed ({}):\n--- stdout ---\n{}\n--- stderr ---\n{}",
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn cholesky_two_processes_over_uds_bit_identical() {
    launch(&[
        "--ranks",
        "2",
        "--workers",
        "2",
        "--transport",
        "uds",
        "--nt",
        "5",
        "--nb",
        "8",
        "cholesky",
    ]);
}

#[test]
fn cholesky_two_processes_over_tcp_bit_identical() {
    launch(&[
        "--ranks",
        "2",
        "--workers",
        "2",
        "--transport",
        "tcp",
        "--nt",
        "5",
        "--nb",
        "8",
        "cholesky",
    ]);
}

#[test]
fn bspmm_two_processes_over_uds_matches_reference() {
    launch(&[
        "--ranks",
        "2",
        "--workers",
        "2",
        "--transport",
        "uds",
        "bspmm",
    ]);
}

/// The chaos-recovery path end to end: rank 1 is scripted to abort
/// mid-factorization, the parent must reap the whole job, clear stale
/// per-rank results, relaunch without the kill script, and still verify
/// bit-identical factors — leaving no stray child processes behind.
#[test]
fn cholesky_uds_killed_rank_recovers_job_bit_identical() {
    let exe = env!("CARGO_BIN_EXE_ttg-launch");
    // A marker only this test's process tree carries, so the leftover
    // scan below cannot confuse children of the other tests in this file.
    let marker = format!("TTG_E2E_RECOVERY_MARKER={}", std::process::id());
    let (key, val) = marker.split_once('=').unwrap();
    let out = Command::new(exe)
        .args([
            "--ranks",
            "2",
            "--workers",
            "2",
            "--transport",
            "uds",
            "--nt",
            "5",
            "--nb",
            "8",
            "--timeout-secs",
            "120",
            "--faults",
            "seed=7,kill=1@3,recover=64",
            "cholesky",
        ])
        .env(key, val)
        .output()
        .expect("spawn ttg-launch");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let dump = || format!("--- stdout ---\n{stdout}\n--- stderr ---\n{stderr}");
    assert!(
        out.status.success(),
        "launch failed ({}):\n{}",
        out.status,
        dump()
    );
    assert!(
        stderr.contains("scripted kill"),
        "rank 1 never hit its kill script:\n{}",
        dump()
    );
    assert!(
        stdout.contains("recovering the job"),
        "parent never recovered the job:\n{}",
        dump()
    );
    assert!(
        stdout.contains("matches the single-process run"),
        "recovered job failed verification:\n{}",
        dump()
    );

    // No leftover children: nothing on the system still carries this
    // test's marker in its environment (the parent reaped every child it
    // killed, and the relaunched ranks exited before the parent did).
    let mut leftovers = Vec::new();
    if let Ok(entries) = std::fs::read_dir("/proc") {
        for e in entries.flatten() {
            let name = e.file_name();
            let Some(pid) = name
                .to_str()
                .filter(|s| s.bytes().all(|b| b.is_ascii_digit()))
            else {
                continue;
            };
            if let Ok(env) = std::fs::read(e.path().join("environ")) {
                if env.split(|&b| b == 0).any(|kv| kv == marker.as_bytes()) {
                    leftovers.push(pid.to_string());
                }
            }
        }
    }
    assert!(
        leftovers.is_empty(),
        "leftover ttg-launch children still running: pids {leftovers:?}\n{}",
        dump()
    );
}
