//! Chaos property tests: the applications must produce bit-identical
//! results under seeded drop/duplicate/reorder injection, with exactly one
//! execution per task key, because the reliable-delivery layer restores
//! exactly-once logical delivery over the faulty physical network.
//!
//! Also covers the degraded path: a rank killed mid-run must surface as a
//! structured `CommError` in the report within the delivery deadline, not
//! as a hang or an abort.

use std::time::Duration;

use ttg::apps::{bspmm, cholesky};
use ttg::comm::{CommErrorKind, FaultPlan, RetryPolicy, TransportSpec};
use ttg::core::ExecReport;
use ttg::linalg::TiledMatrix;
use ttg::sparse::{generate, YukawaParams};

/// The acceptance-criteria plan: drop 5%, duplicate 2%, reorder 5%.
fn chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan::seeded(seed)
        .with_drop(0.05)
        .with_dup(0.02)
        .with_reorder(0.05)
        .with_retry(RetryPolicy {
            base: Duration::from_micros(100),
            cap: Duration::from_millis(5),
            max_retries: 16,
        })
}

#[test]
fn cholesky_chaos_sweep_matches_fault_free_on_both_backends() {
    let a = TiledMatrix::random_spd(6, 8, 2024);

    let (mut total_dropped, mut total_retries) = (0u64, 0u64);
    for backend in [ttg::parsec::backend(), ttg::madness::backend()] {
        let name = backend.name;
        let clean_cfg = cholesky::ttg::Config {
            ranks: 4,
            workers: 2,
            backend: backend.clone(),
            trace: false,
            priorities: true,
            faults: None,
            transport: TransportSpec::InProc,
        };
        let (l_clean, r_clean) = cholesky::ttg::run(&a, &clean_cfg);

        for seed in [1u64, 42, 777] {
            let cfg = cholesky::ttg::Config {
                faults: Some(chaos_plan(seed)),
                backend: backend.clone(),
                ..clean_cfg.clone()
            };
            let (l, r) = cholesky::ttg::run(&a, &cfg);
            // Residuals identical to the fault-free run: same tile values
            // bit-for-bit (the k-sequenced accumulator chains fix the
            // floating-point reduction order regardless of arrival order).
            assert_eq!(
                l.max_abs_diff(&l_clean),
                0.0,
                "{name} seed {seed}: chaos changed the factor"
            );
            // Exactly one execution per task key.
            assert_eq!(
                r.per_node, r_clean.per_node,
                "{name} seed {seed}: task counts diverged"
            );
            assert!(
                r.comm_errors.is_empty(),
                "{name} seed {seed}: {:?}",
                r.comm_errors
            );
            assert!(r.stuck.is_empty());
            total_dropped += r.comm.am_dropped_injected;
            total_retries += r.comm.am_retries;
        }
    }
    // Injection must have actually exercised the reliable layer somewhere
    // in the sweep (an individual seed may legitimately roll zero drops on
    // a run this small, so the activity assertion is on the aggregate).
    assert!(total_dropped > 0, "no drops injected across the sweep");
    assert!(total_retries > 0, "drops were never retransmitted");
}

#[test]
fn ptg_cholesky_survives_the_same_chaos() {
    let a = TiledMatrix::random_spd(6, 8, 31);
    let mut reference = a.clone();
    reference.potrf_reference().unwrap();
    let (l, report) = cholesky::dplasma::run_with_faults(&a, 3, 2, false, Some(chaos_plan(42)));
    assert!(l.max_abs_diff(&reference) < 1e-9);
    assert!(report.comm_errors.is_empty(), "{:?}", report.comm_errors);
    assert!(report.comm.am_retries > 0);
}

#[test]
fn bspmm_chaos_sweep_matches_fault_free() {
    let mut p = YukawaParams::small();
    p.atoms = 60;
    p.target_tile = 32;
    let y = generate(&p);
    let a = &y.matrix;

    let clean_cfg = bspmm::ttg::Config {
        ranks: 4,
        workers: 2,
        backend: ttg::parsec::backend(),
        trace: false,
        drop_tol: 1e-8,
        faults: None,
        transport: TransportSpec::InProc,
    };
    let (c_clean, r_clean) = bspmm::ttg::run(a, a, &clean_cfg);

    for seed in [3u64, 42] {
        let cfg = bspmm::ttg::Config {
            faults: Some(chaos_plan(seed)),
            ..clean_cfg.clone()
        };
        let (c, r) = bspmm::ttg::run(a, a, &cfg);
        // The streaming reducer folds in arrival order, but each (i,j)
        // accumulator is a single task instance consuming a fixed multiset
        // of GEMM products; reordering the fold of IEEE sums is the only
        // freedom, so allow a tiny epsilon.
        assert!(
            c.max_abs_diff(&c_clean) < 1e-12,
            "seed {seed}: chaos changed the product"
        );
        assert_eq!(
            r.per_node, r_clean.per_node,
            "seed {seed}: task counts diverged"
        );
        assert!(r.comm_errors.is_empty(), "seed {seed}: {:?}", r.comm_errors);
        assert!(r.comm.am_retries > 0, "seed {seed}: injection inert");
    }
}

#[test]
fn dedup_hits_surface_under_forced_duplication() {
    let a = TiledMatrix::random_spd(5, 8, 11);
    let cfg = cholesky::ttg::Config {
        ranks: 4,
        workers: 2,
        backend: ttg::parsec::backend(),
        trace: false,
        priorities: true,
        faults: Some(FaultPlan::seeded(5).with_dup(1.0)),
        transport: TransportSpec::InProc,
    };
    let (l, report) = cholesky::ttg::run(&a, &cfg);
    let mut reference = a.clone();
    reference.potrf_reference().unwrap();
    assert!(l.max_abs_diff(&reference) < 1e-9);
    assert!(report.comm.am_dup_injected > 0);
    assert!(
        report.comm.am_dedup_hits > 0,
        "duplicates must hit the dedup window"
    );
    assert!(report.comm_errors.is_empty());
}

#[test]
fn killed_rank_reports_comm_error_within_deadline() {
    // Kill rank 3 after its first packets: sends to it exhaust their
    // retry budget; the run must come back within the delivery deadline
    // carrying structured TTG040 records instead of hanging or aborting.
    // (The three TRSMs of step 0 that feed rank 3 send it one AM each — the
    // second reception, should it be a spurious retransmit of the first,
    // still leaves a fresh send to find the rank dead.) The retry budget,
    // ≈ 0.23 s, outlasts a scheduling stall of a live rank on a loaded
    // 2-core host, so only the dead rank exhausts it.
    let a = TiledMatrix::random_spd(6, 8, 99);
    let plan = FaultPlan::seeded(13)
        .with_kill(3, 2)
        .with_retry(RetryPolicy {
            base: Duration::from_millis(2),
            cap: Duration::from_millis(100),
            max_retries: 6,
        });
    let cfg = cholesky::ttg::Config {
        ranks: 4,
        workers: 2,
        backend: ttg::parsec::backend(),
        trace: false,
        priorities: true,
        faults: Some(plan),
        transport: TransportSpec::InProc,
    };
    let started = std::time::Instant::now();
    let (_l, report) = cholesky::ttg::run(&a, &cfg);
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "degraded run must respect the delivery deadline"
    );
    let exhausted: Vec<_> = (report.comm_errors.iter())
        .filter(|e| e.kind == CommErrorKind::RetryBudgetExhausted)
        .collect();
    assert!(
        !exhausted.is_empty(),
        "expected TTG040 retry-budget errors against the killed rank, got {:?}",
        report.comm_errors
    );
    // The dead rank's own sends exhaust too (it sends nothing).
    assert!(
        exhausted
            .iter()
            .all(|e| e.to == Some(3) || e.from == Some(3)),
        "a TTG040 between live ranks: {exhausted:?}"
    );
    assert!(report.comm.am_retry_exhausted > 0);
}

#[test]
fn killed_rank_recovers_and_completes_bit_identical() {
    // The same scripted death as above, but with recovery enabled. The
    // run must now *complete* — rank 1 is killed after 200 accepted
    // packets, and every rank rolls back to the last global cut and
    // re-executes from it — and the factor must be bit-identical to the
    // fault-free run, with zero comm errors.
    let a = TiledMatrix::random_spd(20, 8, 2024);
    let clean_cfg = cholesky::ttg::Config {
        ranks: 4,
        workers: 2,
        backend: ttg::parsec::backend(),
        trace: false,
        priorities: true,
        faults: None,
        transport: TransportSpec::InProc,
    };
    let (l_clean, _) = cholesky::ttg::run(&a, &clean_cfg);

    let plan = FaultPlan::seeded(7).with_kill(1, 200).with_recovery(64);
    let cfg = cholesky::ttg::Config {
        faults: Some(plan),
        ..clean_cfg.clone()
    };
    let (l, r) = cholesky::ttg::run(&a, &cfg);
    assert_eq!(
        l.max_abs_diff(&l_clean),
        0.0,
        "recovered run changed the factor"
    );
    assert!(r.comm_errors.is_empty(), "{:?}", r.comm_errors);
    assert!(r.stuck.is_empty(), "{:?}", r.stuck);
    assert!(r.comm.snapshots_taken > 0, "no snapshot was ever taken");
    assert!(r.comm.snapshot_bytes > 0);
    assert!(r.comm.snapshot_pause_p50_ns > 0);
    assert!(r.comm.restores > 0, "the killed rank was never restored");
    assert!(r.comm.recoveries > 0, "no recovery completed");
    assert!(r.comm.replayed_sends > 0, "nothing was replayed");
    assert!(
        r.recovery_events
            .iter()
            .any(|e| e.kind == CommErrorKind::RankRecovered && e.to == Some(1)),
        "expected a TTG046 RankRecovered event for rank 1, got {:?}",
        r.recovery_events
    );
}

#[test]
fn rank_killed_before_first_snapshot_restores_to_empty_and_replays() {
    // The cut interval is set beyond the run's packet count, so the kill
    // lands before any cut exists. Every rank rolls back to the start of
    // the run and the seeds are re-armed: the run must still complete
    // bit-identically.
    let a = TiledMatrix::random_spd(6, 8, 515);
    let clean_cfg = cholesky::ttg::Config {
        ranks: 4,
        workers: 2,
        backend: ttg::parsec::backend(),
        trace: false,
        priorities: true,
        faults: None,
        transport: TransportSpec::InProc,
    };
    let (l_clean, _) = cholesky::ttg::run(&a, &clean_cfg);

    let plan = FaultPlan::seeded(3)
        .with_kill(1, 5)
        .with_recovery(1_000_000);
    let cfg = cholesky::ttg::Config {
        faults: Some(plan),
        ..clean_cfg.clone()
    };
    let (l, r) = cholesky::ttg::run(&a, &cfg);
    assert_eq!(
        l.max_abs_diff(&l_clean),
        0.0,
        "replay-only recovery changed the factor"
    );
    assert!(r.comm_errors.is_empty(), "{:?}", r.comm_errors);
    assert_eq!(
        r.comm.snapshots_taken, 0,
        "interval should never be reached"
    );
    assert!(r.comm.restores > 0);
    assert!(r.comm.replayed_sends > 0);
    assert!(r.comm.recoveries > 0);
}

/// A fault during recovery ends bit-identical to the fault-free factor,
/// or as a coded TTG047/TTG048 — inside the delivery deadline, never as a
/// hang or a panic.
fn recovers_or_reports_coded(name: &str, plan: FaultPlan) {
    let a = TiledMatrix::random_spd(10, 8, 4242);
    let clean_cfg = cholesky::ttg::Config {
        ranks: 4,
        workers: 2,
        backend: ttg::parsec::backend(),
        trace: false,
        priorities: true,
        faults: None,
        transport: TransportSpec::InProc,
    };
    let (l_clean, _) = cholesky::ttg::run(&a, &clean_cfg);
    let cfg = cholesky::ttg::Config {
        faults: Some(plan),
        ..clean_cfg
    };
    let started = std::time::Instant::now();
    let (l, r) = cholesky::ttg::run(&a, &cfg);
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "{name}: past the delivery deadline"
    );
    assert!(
        r.comm.restores > 0,
        "{name}: the killed rank was never restored"
    );
    if r.comm_errors.is_empty() {
        assert_eq!(l.max_abs_diff(&l_clean), 0.0, "{name}: factor changed");
        assert!(r.stuck.is_empty(), "{name}: {:?}", r.stuck);
    } else {
        assert!(
            r.comm_errors
                .iter()
                .all(|e| matches!(e.code(), "TTG047" | "TTG048")),
            "{name}: {:?}",
            r.comm_errors
        );
    }
}

#[test]
fn a_kill_landing_at_a_snapshot_commit_recovers() {
    // A cut falls due at rank 1's 48th reception: the kill lands on the
    // packet that makes it due (a rollback instead of the cut), or on the
    // first one after the commit.
    for after in [48, 49] {
        let plan = FaultPlan::seeded(11).with_kill(1, after).with_recovery(48);
        recovers_or_reports_coded(&format!("kill 1@{after}, snapshot every 48"), plan);
    }
}

#[test]
fn a_killed_rank_0_recovers() {
    let plan = FaultPlan::seeded(5).with_kill(0, 40).with_recovery(16);
    recovers_or_reports_coded("kill 0@40", plan);
}

#[test]
fn a_kill_before_the_first_snapshot_under_dup_and_reorder_recovers() {
    let plan = FaultPlan::seeded(23)
        .with_dup(0.05)
        .with_reorder(0.1)
        .with_kill(2, 6)
        .with_recovery(1_000_000)
        .with_retry(RetryPolicy {
            base: Duration::from_micros(200),
            cap: Duration::from_millis(10),
            max_retries: 16,
        });
    recovers_or_reports_coded("kill 2@6 under dup+reorder", plan);
}

/// A 20-tile factor on 4 ranks under `plan` over `transport`, which must
/// roll back and end bit-identical to the fault-free run.
fn rolls_back_bit_identical(plan: FaultPlan, transport: TransportSpec) -> ExecReport {
    let a = TiledMatrix::random_spd(20, 8, 2024);
    let clean_cfg = cholesky::ttg::Config {
        ranks: 4,
        workers: 2,
        backend: ttg::parsec::backend(),
        trace: false,
        priorities: true,
        faults: None,
        transport: TransportSpec::InProc,
    };
    let (l_clean, _) = cholesky::ttg::run(&a, &clean_cfg);
    let cfg = cholesky::ttg::Config {
        faults: Some(plan),
        transport,
        ..clean_cfg
    };
    let (l, r) = cholesky::ttg::run(&a, &cfg);
    assert_eq!(l.max_abs_diff(&l_clean), 0.0, "rollback changed the factor");
    assert!(r.comm_errors.is_empty(), "{:?}", r.comm_errors);
    assert!(r.stuck.is_empty(), "{:?}", r.stuck);
    assert!(r.comm.restores > 0, "nothing was rolled back");
    r
}

#[test]
fn two_ranks_killed_in_one_run_roll_back_bit_identical() {
    // Rank 1 dies at its 200th reception and rank 2 at its 250th; each
    // death rolls every rank back to the last global cut.
    let plan = FaultPlan::seeded(7)
        .with_kill(1, 200)
        .with_kill(2, 250)
        .with_recovery(64);
    let r = rolls_back_bit_identical(plan, TransportSpec::InProc);
    for rank in [1, 2] {
        assert!(
            r.recovery_events
                .iter()
                .any(|e| e.kind == CommErrorKind::RankRecovered && e.to == Some(rank)),
            "no TTG046 names rank {rank}: {:?}",
            r.recovery_events
        );
    }
}

#[test]
fn a_second_kill_in_the_re_execution_rolls_back_again() {
    // Rank 1 dies at its 200th reception. The rollback puts its count back
    // to the cut's, and it dies again 30 receptions on in the re-execution,
    // before the next cut: the run rolls back to the same cut twice.
    let plan = FaultPlan::seeded(9)
        .with_kill(1, 200)
        .with_kill(1, 230)
        .with_recovery(64);
    let r = rolls_back_bit_identical(plan, TransportSpec::InProc);
    assert!(r.comm.restores >= 2, "{} rollbacks", r.comm.restores);
}

#[test]
fn a_rollback_over_the_tcp_mesh_under_delay_and_reorder_is_bit_identical() {
    // Over the TCP mesh, with delay and reorder injection holding copies
    // back: data frames and ack batches sent before the rollback may still
    // be on a socket or in a channel when it ends. Their seqs carry the old
    // epoch, and the rolled-back ranks drop them. (That a given stale
    // frame is dropped is shown one frame at a time by the fabric's and
    // the reliable layer's unit tests.)
    let plan = FaultPlan::seeded(17)
        .with_delay(0.05)
        .with_reorder(0.1)
        .with_kill(2, 150)
        .with_recovery(48);
    let r = rolls_back_bit_identical(plan, TransportSpec::Tcp);
    assert!(r.comm.transport_tx_bytes > 0, "no frame crossed a socket");
}

/// Eight chains of 40 hops over 4 ranks with 2 workers each, under
/// `plan`. The first task rank 1 runs sleeps three retry budgets (`stall`):
/// whatever pauses every rank meanwhile waits for it. The chains' ends,
/// sorted, and the report.
fn stalled_chains(plan: Option<FaultPlan>, stall: bool) -> (Vec<u64>, ExecReport) {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex};
    use ttg::core::prelude::*;

    let retry = RetryPolicy::default();
    let budget: Duration = (1..=retry.max_retries + 1).map(|k| retry.backoff(k)).sum();
    let ends = Arc::new(Mutex::new(Vec::new()));
    let (out, stalled) = (Arc::clone(&ends), AtomicBool::new(!stall));
    let rank = |k: &u64| (*k % 7) as usize % 4;
    let step: Edge<u64, u64> = Edge::new("step");
    let mut g = GraphBuilder::new();
    let tt = g.make_tt(
        "hop",
        (step.clone(),),
        (step,),
        rank,
        move |k, (v,): (u64,), outs| {
            if rank(k) == 1 && !stalled.swap(true, Ordering::SeqCst) {
                std::thread::sleep(3 * budget);
            }
            if k % 1000 < 40 {
                outs.send::<0>(k + 1, v.wrapping_mul(3) ^ k);
            } else {
                out.lock().unwrap().push(v);
            }
        },
    );
    let mut cfg = ExecConfig::distributed(4, 2, BackendSpec::default())
        .with_deadline(Duration::from_secs(20));
    if let Some(plan) = plan {
        cfg = cfg.with_faults(plan);
    }
    let exec = Executor::new(g.build(), cfg);
    let seed = tt.in_ref::<0>();
    for c in 0..8u64 {
        seed.seed(exec.ctx(), c * 1000, c);
    }
    let r = exec.finish();
    let mut ends = std::mem::take(&mut *ends.lock().unwrap());
    ends.sort_unstable();
    (ends, r)
}

#[test]
fn a_cut_that_waits_on_a_task_longer_than_the_retry_budget_loses_nothing() {
    // Cuts fall due every 4 receptions: one comes due while rank 1 sleeps,
    // and every rank stays paused until it wakes. The pause holds the
    // retransmit scan off and does not count against any retry budget:
    // no copy waiting in a paused rank's channel is given up.
    let (clean, _) = stalled_chains(None, false);
    let (ends, r) = stalled_chains(Some(FaultPlan::seeded(31).with_recovery(4)), true);
    assert!(r.comm_errors.is_empty(), "{:?}", r.comm_errors);
    assert_eq!(ends, clean, "a chain's end changed or went missing");
    assert!(r.comm.snapshots_taken > 0, "no cut was taken");
}

#[test]
fn a_rollback_that_waits_on_a_task_longer_than_the_retry_budget_loses_nothing() {
    // Rank 1 dies at its 30th reception, while its other worker keeps the
    // chains moving and the first sleeps. The rollback waits for the
    // sleeper; until then nothing toward or from a rank is given up.
    let (clean, _) = stalled_chains(None, false);
    let plan = FaultPlan::seeded(37)
        .with_kill(1, 30)
        .with_recovery(1_000_000);
    let (ends, r) = stalled_chains(Some(plan), true);
    assert!(r.comm_errors.is_empty(), "{:?}", r.comm_errors);
    assert_eq!(ends, clean, "a chain's end changed or went missing");
    assert!(r.comm.restores > 0, "nothing was rolled back");
}

#[test]
fn ack_batching_is_bit_identical_under_chaos() {
    // The batched ack path — the one ack protocol, batches sent when due —
    // must restore exactly-once delivery under drop/dup/reorder injection: the
    // factor stays bit-identical to the fault-free run. The run must also
    // actually batch — far fewer ack flush events than logical messages.
    let a = TiledMatrix::random_spd(6, 8, 515);
    let clean_cfg = cholesky::ttg::Config {
        ranks: 4,
        workers: 2,
        backend: ttg::parsec::backend(),
        trace: false,
        priorities: true,
        faults: None,
        transport: TransportSpec::InProc,
    };
    let (l_clean, _) = cholesky::ttg::run(&a, &clean_cfg);

    for seed in [7u64, 99] {
        let batched_cfg = cholesky::ttg::Config {
            faults: Some(chaos_plan(seed)),
            ..clean_cfg.clone()
        };
        let (l_batched, r_batched) = cholesky::ttg::run(&a, &batched_cfg);
        assert_eq!(
            l_batched.max_abs_diff(&l_clean),
            0.0,
            "seed {seed}: batched acks changed the factor"
        );
        assert!(
            r_batched.comm_errors.is_empty(),
            "seed {seed}: {:?}",
            r_batched.comm_errors
        );
        assert!(
            r_batched.comm.ack_flushes < r_batched.comm.am_count,
            "seed {seed}: batching inert ({} flushes for {} messages)",
            r_batched.comm.ack_flushes,
            r_batched.comm.am_count
        );
    }
}

#[test]
fn cholesky_chaos_over_tcp_transport_matches_clean_run() {
    // The full stack at once: fault injection (drop + dup + retry) running
    // ABOVE the TCP socket mesh — the reliable layer must restore
    // exactly-once delivery while every chaos-surviving frame crosses a
    // real socket. Results stay bit-identical to the clean channel run.
    let a = TiledMatrix::random_spd(6, 8, 2024);
    let clean_cfg = cholesky::ttg::Config {
        ranks: 4,
        workers: 2,
        backend: ttg::parsec::backend(),
        trace: false,
        priorities: true,
        faults: None,
        transport: TransportSpec::InProc,
    };
    let (l_clean, _) = cholesky::ttg::run(&a, &clean_cfg);

    let cfg = cholesky::ttg::Config {
        faults: Some(chaos_plan(42)),
        transport: TransportSpec::Tcp,
        ..clean_cfg
    };
    let (l, report) = cholesky::ttg::run(&a, &cfg);
    assert_eq!(
        l.max_abs_diff(&l_clean),
        0.0,
        "chaos over TCP changed the factor"
    );
    assert!(report.comm.am_retries > 0, "injection inert over TCP");
    assert!(
        report.comm.transport_tx_bytes > 0,
        "chaos frames never touched the socket"
    );
    assert!(report.comm_errors.is_empty(), "{:?}", report.comm_errors);
}
