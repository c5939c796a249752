//! The wake discipline (DESIGN §5): every waiting thread parks on the event
//! that ends its wait, and no timer thread runs beside the workers. Read
//! from `/proc`: a waiting thread's context switches, an idle process's CPU
//! time, and how late a deadline-bounded wait returns.
//!
//! The tests share one process and measure it, so they run one at a time
//! (a panicking one poisons the lock; the others take it anyway).

use std::sync::Mutex;
use std::time::{Duration, Instant};

use ttg::comm::{CommErrorKind, Fabric, FaultPlan, Packet};
use ttg::core::prelude::*;

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// A graph of one task, on rank 1 of 2, whose body sleeps for `runs`.
fn one_slow_task(runs: Duration, cfg: ExecConfig) -> Executor {
    let start: Edge<u32, Ctl> = Edge::new("start");
    let mut g = GraphBuilder::new();
    let slow = g.make_tt(
        "slow",
        (start,),
        (),
        |_: &u32| 1usize,
        move |_, (_ctl,): (Ctl,), _| std::thread::sleep(runs),
    );
    let exec = Executor::new(g.build(), cfg);
    slow.in_ref::<0>().seed(exec.ctx(), 0, Ctl);
    exec
}

/// A field of `/proc/thread-self/status`.
fn thread_status(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/thread-self/status").expect("procfs");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .unwrap_or_else(|| panic!("no {field} in /proc/thread-self/status"));
    line.trim().parse().expect("a count")
}

/// utime + stime of this process, in clock ticks (fields 14 and 15 of
/// `/proc/self/stat`, counted after the parenthesised command name).
fn process_cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs");
    let after_comm = &stat[stat.rfind(')').expect("comm field") + 2..];
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    // `after_comm` starts at field 3 (state).
    fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime")
}

#[test]
fn the_waiting_thread_parks_while_a_task_runs() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let exec = one_slow_task(
        Duration::from_millis(200),
        ExecConfig::distributed(2, 1, ttg::parsec::backend()),
    );
    let before = thread_status("voluntary_ctxt_switches");
    let started = Instant::now();
    exec.wait();
    let waited = started.elapsed();
    let switches = thread_status("voluntary_ctxt_switches") - before;
    let report = exec.finish();
    assert_eq!(report.tasks, 1);
    assert!(report.comm_errors.is_empty(), "{:?}", report.comm_errors);
    assert!(
        waited >= Duration::from_millis(150),
        "returned early: {waited:?}"
    );
    // A poll every 50 µs would switch ~4 000 times in 200 ms; a park
    // switches once per event that could end it.
    assert!(
        switches < 20,
        "the waiting thread switched {switches} times in {waited:?}"
    );
}

#[test]
fn an_idle_fabric_under_a_plan_burns_no_cpu() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let fabric = Fabric::with_faults(4, Some(FaultPlan::seeded(1)));
    let rx1 = fabric.take_receiver(1);
    fabric.send_am(0, 1, 7, vec![1, 2, 3]).expect("send");
    let Ok(Packet::Am { from, seq, .. }) = rx1.recv() else {
        panic!("rank 1's channel closed");
    };
    assert!(fabric.rx_accept(1, from, seq));
    fabric.packet_processed();
    // Let the ack batch fall due and retire the entry: afterwards nothing
    // is pending, so the progress thread has no deadline to wake for.
    let settled = Instant::now() + Duration::from_secs(5);
    while fabric.stats().snapshot().ack_flushes == 0 {
        assert!(Instant::now() < settled, "the ack batch never left");
        std::thread::sleep(Duration::from_millis(1));
    }
    std::thread::sleep(Duration::from_millis(20));
    let before = process_cpu_ticks();
    std::thread::sleep(Duration::from_secs(1));
    let ticks = process_cpu_ticks() - before;
    // One tick is 10 ms at the usual 100 Hz: under 1 % of a core means no
    // tick at all. A 100 µs progress tick costs several.
    assert_eq!(
        ticks, 0,
        "an idle 4-rank fabric used {ticks} CPU ticks in 1 s"
    );
    assert!(fabric.take_errors().is_empty());
    fabric.shutdown_all();
}

#[test]
fn a_deadline_miss_returns_on_time_and_names_what_it_waited_on() {
    // TTG041: a task on rank 0 hands its key to one on rank 1, which blocks
    // 300 ms against a 50 ms delivery deadline. The wait's timed commit
    // returns at the deadline, and the record names the packets in flight
    // with the ledger's issued − settled per link, the active units and,
    // under a plan, what the reliable layer holds per link.
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let deadline = Duration::from_millis(50);
    let cfg = ExecConfig::distributed(2, 1, ttg::parsec::backend())
        .with_faults(FaultPlan::seeded(1))
        .with_deadline(deadline);
    let start: Edge<u32, Ctl> = Edge::new("start");
    let hop: Edge<u32, Ctl> = Edge::new("hop");
    let mut g = GraphBuilder::new();
    let first = g.make_tt(
        "first",
        (start,),
        (hop.clone(),),
        |_: &u32| 0usize,
        |k, (ctl,): (Ctl,), outs| outs.send::<0>(*k, ctl),
    );
    g.make_tt(
        "slow",
        (hop,),
        (),
        |_: &u32| 1usize,
        |_, (_ctl,): (Ctl,), _| std::thread::sleep(Duration::from_millis(300)),
    );
    let exec = Executor::new(g.build(), cfg);
    first.in_ref::<0>().seed(exec.ctx(), 0, Ctl);
    let started = Instant::now();
    exec.wait();
    let waited = started.elapsed();
    assert!(
        waited >= deadline && waited < deadline + Duration::from_millis(20),
        "the wait returned after {waited:?} against a {deadline:?} deadline"
    );
    // `finish` waits again, and misses its own deadline too.
    let report = exec.finish();
    let first = report.comm_errors.first().expect("a deadline-miss record");
    assert_eq!(first.kind, CommErrorKind::DeadlineMissed, "{first:?}");
    assert_eq!(first.code(), "TTG041");
    let record = first.to_string();
    for names in [
        "1 active units",
        "packets in flight",
        "issued−settled by link: 0→1 1−1",
        "unacked by link",
        "pending ack batches",
    ] {
        assert!(record.contains(names), "{names:?} missing from: {record}");
    }
}
