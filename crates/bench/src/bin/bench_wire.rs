//! Wire-path throughput benchmark: many-small-message workloads over the
//! socket mesh, measuring what the batching overhaul (DESIGN §12) buys.
//!
//! Two workloads per transport:
//!
//! * **Burst ping/pong** — rank 0 fires a burst of pings at rank 1, which
//!   echoes each one; sweeping the payload size from 64 B to 64 KiB shows
//!   where the per-frame syscall cost dominates (small frames) versus the
//!   memcpy cost (large frames).
//! * **Fan-out** — rank 0 sprays small messages round-robin at three
//!   receivers with no reverse traffic, the pattern that exercises the
//!   writer's frame coalescing and the timer-driven ack flush path.
//!
//! Two kinds of rows:
//!
//! * **Wire** (`wire/...` rows) — the raw wire path with no fault plan:
//!   msgs/s, mean frames-per-write, and how many frames took the bulk
//!   path. There is one wire path; the one-frame-per-write baseline it
//!   was measured against (2.3–2.5× at ≤ 1 KiB) is recorded in the
//!   committed `results/bench_wire.json` and was deleted afterwards.
//! * **Ack batching** (`acks/...` rows) — the reliable layer on a
//!   lossless plan, reporting ack flushes per logical message. There is
//!   one ack protocol; the "immediate" arm it was measured against
//!   (0.74× UDS / 0.67× TCP on ping/pong — an arm that removed the
//!   sender's entry through shared memory and put no frame on any wire)
//!   is recorded in the committed `results/bench_wire.json` and was
//!   deleted afterwards.
//!
//! Emits `results/bench_wire.json`; run with `--smoke` for CI-sized
//! samples (gates: coalescing engaged, bulk frames direct,
//! acks-per-message < 1.0 on the 4-rank UDS fan-out), `--out <path>` to
//! redirect. Full mode additionally asserts > 2 frames per write and
//! < 0.5 acks per message on the fan-out.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ttg_comm::{Fabric, FaultPlan, Packet, RetryPolicy, TransportSpec};

/// Payload sizes swept by the ping/pong workload.
const SIZES: [usize; 5] = [64, 256, 1024, 4096, 65536];

/// Fan-out payload size: small frames, the coalescing sweet spot.
const FANOUT_SIZE: usize = 256;

/// Ping/pong messages kept in flight (see [`ping_pong`]).
const PING_WINDOW: u64 = 256;

/// Seed for the (lossless) fault plans: the reliable layer runs its full
/// sequencing/ack machinery, deterministic across invocations.
const SEED: u64 = 42;

/// One measurement mode: which lever is under test.
#[derive(Clone, Copy)]
enum Mode {
    /// No fault plan — the raw wire path.
    Wire,
    /// Lossless fault plan — the reliable layer and its batched
    /// acknowledgements.
    Acks,
}

struct Config {
    smoke: bool,
    out: String,
}

impl Config {
    fn from_args() -> Config {
        let mut smoke = false;
        let mut out = String::from("results/bench_wire.json");
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--smoke" => smoke = true,
                "--out" => out = args.next().expect("--out needs a path"),
                other => {
                    eprintln!("unknown flag {other}; known: --smoke, --out <path>");
                    std::process::exit(2);
                }
            }
        }
        Config { smoke, out }
    }
}

/// A relaxed retry schedule: the default 300 µs base is tuned for chaos
/// tests and would inject spurious retransmissions into a throughput
/// burst whose queues legitimately hold packets longer than that. Acks
/// still clear entries promptly (100 µs flush timer), so the schedule
/// never fires on a healthy run.
fn retry() -> RetryPolicy {
    RetryPolicy {
        base: Duration::from_millis(50),
        cap: Duration::from_millis(200),
        max_retries: 12,
    }
}

/// Build a fabric for the requested mode.
fn fabric(n: usize, spec: &TransportSpec, mode: Mode) -> Arc<Fabric> {
    let plan = match mode {
        Mode::Wire => None,
        Mode::Acks => Some(FaultPlan::seeded(SEED).with_retry(retry())),
    };
    Fabric::with_transport(n, plan, spec).expect("mesh construction")
}

/// One measured run's outcome.
struct RunStats {
    msgs_per_s: f64,
    frames_per_write: f64,
    acks_per_msg: f64,
    coalesced: u64,
    abandoned: u64,
    direct: u64,
}

fn finish(f: &Arc<Fabric>, msgs: u64, elapsed: Duration) -> RunStats {
    let s = f.stats().snapshot();
    let writes = s.transport_tx_writes.max(1);
    RunStats {
        msgs_per_s: msgs as f64 / elapsed.as_secs_f64(),
        frames_per_write: (s.transport_tx_writes + s.transport_tx_frames_coalesced) as f64
            / writes as f64,
        acks_per_msg: s.ack_flushes as f64 / s.am_count.max(1) as f64,
        coalesced: s.transport_tx_frames_coalesced,
        abandoned: s.transport_tx_frames_abandoned,
        direct: s
            .transport_tx_direct_frames
            .min(s.transport_rx_direct_frames),
    }
}

/// Streaming ping/pong: rank 0 keeps [`PING_WINDOW`] messages of `size`
/// bytes in flight to rank 1, which echoes each fresh delivery; every
/// pong received refills the window until `pings` have been exchanged.
/// Total logical messages = 2 × pings. The bounded window keeps the
/// measurement in steady state — an unbounded burst just measures the
/// receive channel's backlog dynamics (tens of MB of live payloads, pool
/// misses on every acquire) instead of the per-message wire cost.
fn ping_pong(spec: &TransportSpec, size: usize, pings: u64, mode: Mode) -> RunStats {
    let f = fabric(2, spec, mode);
    let rx0 = f.take_receiver(0);
    let rx1 = f.take_receiver(1);
    let echo = {
        let f = Arc::clone(&f);
        std::thread::spawn(move || {
            while let Ok(Packet::Am {
                from, seq, payload, ..
            }) = rx1.recv()
            {
                if f.rx_accept(1, from, seq) {
                    f.packet_processed();
                    // Echo with the same payload size, running the same
                    // pooled buffer lifecycle as the executor: the
                    // consumed payload is recycled and the reply buffer
                    // acquired. A send refused during teardown is
                    // expected, not a failure.
                    let len = payload.len();
                    ttg_comm::pool::recycle(payload);
                    let mut reply = ttg_comm::pool::acquire(len);
                    reply.resize(len, 7u8);
                    let _ = f.send_am(1, 0, 7, reply);
                }
            }
        })
    };
    let send_ping = |f: &Arc<Fabric>| {
        let mut ping = ttg_comm::pool::acquire(size);
        ping.resize(size, 3u8);
        f.send_am(0, 1, 7, ping).expect("ping send");
    };
    // Untimed warmup: fill the pool's magazines, grow the kernel socket
    // buffers, and settle thread placement before the clock starts.
    let warmup = (pings / 10).max(PING_WINDOW);
    let total = warmup + pings;
    let mut start = Instant::now();
    let mut sent = 0u64;
    while sent < PING_WINDOW.min(total) {
        send_ping(&f);
        sent += 1;
    }
    let mut pongs = 0u64;
    while pongs < total {
        match rx0.recv() {
            Ok(Packet::Am {
                from, seq, payload, ..
            }) => {
                if f.rx_accept(0, from, seq) {
                    f.packet_processed();
                    pongs += 1;
                    if pongs == warmup {
                        start = Instant::now();
                    }
                    if sent < total {
                        send_ping(&f);
                        sent += 1;
                    }
                }
                ttg_comm::pool::recycle(payload);
            }
            _ => break,
        }
    }
    let elapsed = start.elapsed();
    assert_eq!(pongs, total, "every ping must be echoed");
    f.shutdown_all();
    echo.join().expect("echo thread");
    finish(&f, 2 * pings, elapsed)
}

/// Fan-out: rank 0 sprays `msgs` messages round-robin at ranks 1..n with
/// no reverse traffic (under the reliable layer, acks travel by flush
/// timer only).
fn fan_out(spec: &TransportSpec, n: usize, msgs: u64, mode: Mode) -> RunStats {
    let f = fabric(n, spec, mode);
    let received = Arc::new(AtomicU64::new(0));
    let mut sinks = Vec::new();
    for rank in 1..n {
        let rx = f.take_receiver(rank);
        let f = Arc::clone(&f);
        let received = Arc::clone(&received);
        sinks.push(std::thread::spawn(move || {
            while let Ok(Packet::Am {
                from, seq, payload, ..
            }) = rx.recv()
            {
                if f.rx_accept(rank, from, seq) {
                    f.packet_processed();
                    received.fetch_add(1, Ordering::SeqCst);
                }
                ttg_comm::pool::recycle(payload);
            }
        }));
    }
    let start = Instant::now();
    for i in 0..msgs {
        let to = 1 + (i as usize % (n - 1));
        let mut body = ttg_comm::pool::acquire(FANOUT_SIZE);
        body.resize(FANOUT_SIZE, 5u8);
        f.send_am(0, to, 7, body).expect("fan-out send");
    }
    let deadline = Instant::now() + Duration::from_secs(120);
    while received.load(Ordering::SeqCst) < msgs {
        assert!(
            Instant::now() < deadline,
            "fan-out stalled at {}/{msgs}",
            received.load(Ordering::SeqCst)
        );
        std::thread::sleep(Duration::from_micros(200));
    }
    let elapsed = start.elapsed();
    f.shutdown_all();
    for s in sinks {
        s.join().expect("sink thread");
    }
    finish(&f, msgs, elapsed)
}

/// One result row.
fn json_row(
    name: &str,
    transport: &str,
    workload: &str,
    axis: &str,
    size: usize,
    msgs: u64,
    on: &RunStats,
) -> String {
    format!(
        "{{\"name\":\"{name}\",\"transport\":\"{transport}\",\
         \"workload\":\"{workload}\",\"axis\":\"{axis}\",\"size\":{size},\
         \"msgs\":{msgs},\"on_msgs_per_s\":{:.1},\
         \"frames_per_write\":{:.3},\"acks_per_msg\":{:.4},\
         \"tx_frames_coalesced\":{},\"tx_frames_abandoned\":{},\
         \"direct_frames\":{}}}",
        on.msgs_per_s, on.frames_per_write, on.acks_per_msg, on.coalesced, on.abandoned, on.direct,
    )
}

fn main() {
    let cfg = Config::from_args();
    let (pings_small, pings_big, fanout_msgs) = if cfg.smoke {
        (3_000, 300, 5_000)
    } else {
        (30_000, 2_000, 80_000)
    };
    println!(
        "bench_wire ({} mode): the wire path, and ack batching",
        if cfg.smoke { "smoke" } else { "full" }
    );

    let mut rows = Vec::new();
    let transports: &[(TransportSpec, &str)] =
        &[(TransportSpec::Uds, "uds"), (TransportSpec::Tcp, "tcp")];

    // ---- the wire path (raw, no fault plan) ---------------------------
    let sizes: &[usize] = if cfg.smoke { &[64, 65536] } else { &SIZES };
    for (spec, tname) in transports {
        if cfg.smoke && *tname == "tcp" {
            continue; // CI budget: UDS covers the gated path
        }
        for &size in sizes {
            let pings = if size >= 4096 { pings_big } else { pings_small };
            let on = ping_pong(spec, size, pings, Mode::Wire);
            println!(
                "  wire/pingpong/{tname}/{size}B: {:.0} msgs/s, {:.2} frames/write, \
                 {} frames direct",
                on.msgs_per_s, on.frames_per_write, on.direct,
            );
            assert!(on.coalesced > 0, "{tname}/{size}: coalescing never engaged");
            assert_eq!(on.abandoned, 0, "{tname}/{size}: frames abandoned");
            // Bodies of 64 KiB must take the bulk path both ways, 64 B
            // ones never.
            if size == 65536 {
                assert!(
                    on.direct >= 2 * pings,
                    "{tname}/{size}: {} direct",
                    on.direct
                );
            } else if size == 64 {
                assert_eq!(on.direct, 0, "{tname}/{size}: small frames went direct");
            }
            rows.push(json_row(
                &format!("wire/pingpong/{tname}/{size}"),
                tname,
                "pingpong",
                "wire",
                size,
                2 * pings,
                &on,
            ));
        }
        let on = fan_out(spec, 4, fanout_msgs, Mode::Wire);
        println!(
            "  wire/fanout/{tname}/{FANOUT_SIZE}B: {:.0} msgs/s, {:.2} frames/write",
            on.msgs_per_s, on.frames_per_write,
        );
        assert!(on.coalesced > 0, "fanout/{tname}: coalescing never engaged");
        assert_eq!(on.abandoned, 0, "fanout/{tname}: frames abandoned");
        if !cfg.smoke {
            assert!(
                on.frames_per_write > 2.0,
                "fanout/{tname}: mean frames-per-write {:.2} below the 2.0 floor",
                on.frames_per_write
            );
        }
        rows.push(json_row(
            &format!("wire/fanout/{tname}/{FANOUT_SIZE}"),
            tname,
            "fanout",
            "wire",
            FANOUT_SIZE,
            fanout_msgs,
            &on,
        ));
    }

    // ---- axis 2: ack batching (reliable layer, lossless plan) --------
    for (spec, tname) in transports {
        if cfg.smoke && *tname == "tcp" {
            continue;
        }
        let on = fan_out(spec, 4, fanout_msgs, Mode::Acks);
        println!(
            "  acks/fanout/{tname}/{FANOUT_SIZE}B: {:.3} acks/msg, {:.0} msgs/s",
            on.acks_per_msg, on.msgs_per_s,
        );
        assert!(
            on.acks_per_msg < 1.0,
            "acks/fanout/{tname}: batching must beat one ack per message, got {:.3}",
            on.acks_per_msg
        );
        if !cfg.smoke {
            assert!(
                on.acks_per_msg < 0.5,
                "acks/fanout/{tname}: acks-per-message {:.3} above the 0.5 ceiling",
                on.acks_per_msg
            );
        }
        rows.push(json_row(
            &format!("acks/fanout/{tname}/{FANOUT_SIZE}"),
            tname,
            "fanout",
            "ack-batching",
            FANOUT_SIZE,
            fanout_msgs,
            &on,
        ));
        // Ping/pong under the reliable layer: acks piggyback on the
        // reverse traffic (reported, not gated — each pong can carry at
        // most the acks accumulated since the previous one).
        let pings = if cfg.smoke { 2_000 } else { 10_000 };
        let on = ping_pong(spec, 256, pings, Mode::Acks);
        println!(
            "  acks/pingpong/{tname}/256B: {:.3} acks/msg",
            on.acks_per_msg,
        );
        assert!(
            on.acks_per_msg < 1.0,
            "acks/pingpong/{tname}: batching inert"
        );
        rows.push(json_row(
            &format!("acks/pingpong/{tname}/256"),
            tname,
            "pingpong",
            "ack-batching",
            256,
            2 * pings,
            &on,
        ));
    }

    let doc = format!(
        "{{\"benchmark\":\"bench_wire\",\"smoke\":{},\"seed\":{},\"results\":[{}]}}",
        cfg.smoke,
        SEED,
        rows.join(","),
    );
    debug_assert!(ttg_telemetry::json::validate(&doc).is_ok());
    if let Some(dir) = std::path::Path::new(&cfg.out).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create results dir");
        }
    }
    std::fs::write(&cfg.out, &doc).expect("write bench json");
    println!("wrote {} ({} rows)", cfg.out, rows.len());
}
