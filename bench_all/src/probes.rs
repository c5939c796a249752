//! Timed calls into each layer's public functions: what one hop on the
//! message path costs in isolation. They do not depend on the workload, so
//! a suite runs them once (in its first traced worker, after the reps);
//! sizes shrink with `scale` for `--smoke`.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use ttg_comm::{FaultPlan, TransportSpec};
use ttg_core::prelude::*;
use ttg_linalg::Tile;
use ttg_runtime::{Job, Quiescence, SchedulerKind, WorkerPool};
use ttg_transport::{Frame, FrameCodec, TransportKind};

use crate::stats::{median, quantile};
use crate::wire::{EchoMode, EchoPair};
use crate::workloads::time_call;

fn scaled(base: u64, scale: f64, floor: u64) -> u64 {
    ((base as f64 * scale) as u64).max(floor)
}

/// Every metric of `Scope::Probe` by name. `scale` = 1 is the full size.
pub fn run_all(scale: f64) -> Result<Vec<(String, f64)>, String> {
    let mut out: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, v: f64| out.push((name.to_string(), v));

    put("core.task_ns", core_task_ns(scaled(200_000, scale, 2_000)));
    put(
        "core.match_insert_ns",
        core_match_insert_ns(scaled(100_000, scale, 2_000)),
    );

    let jobs = scaled(200_000, scale, 4_000) as usize;
    put("runtime.submit_ns", runtime_submit_ns(jobs, 1));
    put("runtime.submit_batch16_ns", runtime_submit_ns(jobs, 16));

    let (enc, dec) = comm_wire_mb_s();
    put("comm.encode_mb_s", enc);
    put("comm.decode_mb_s", dec);
    let small = scaled(10_000, scale, 200) as usize;
    let big = scaled(4_000, scale, 100) as usize;
    for (name, spec, plan, size, n) in [
        ("inproc_64b", TransportSpec::InProc, false, 64, small),
        ("uds_64b", TransportSpec::Uds, false, 64, small),
        ("uds_64b_reliable", TransportSpec::Uds, true, 64, small),
        ("uds_64k", TransportSpec::Uds, false, 64 * 1024, big),
    ] {
        let (p50, p90) = comm_rtt_us(&spec, plan, size, n)?;
        put(&format!("comm.rtt_us.{name}.p50"), p50);
        put(&format!("comm.rtt_us.{name}.p90"), p90);
    }

    let (encode, feed) = transport_frame_ns();
    put("transport.frame_encode_ns", encode);
    put("transport.frame_feed_ns", feed);
    put(
        "transport.connect_ms",
        transport_connect_ms(scaled(20, scale, 3) as usize)?,
    );

    put("linalg.gemm_gflops.nb128", linalg_gemm_gflops(128));
    put("linalg.gemm_gflops.nb32", linalg_gemm_gflops(32));
    put("linalg.minplus_ns.nb8", linalg_minplus_ns(8));
    Ok(out)
}

fn one_rank() -> ExecConfig {
    ExecConfig::distributed(1, 1, ttg_parsec::backend())
}

/// `core`: a chain of `n` empty-bodied tasks on 1 rank × 1 worker, each
/// sending the next key to itself — send, match, submit, dispatch, nothing
/// else. ns per task.
fn core_task_ns(n: u64) -> f64 {
    let chain: Edge<u64, u64> = Edge::new("chain");
    let mut g = GraphBuilder::new();
    let step = g.make_tt(
        "step",
        (chain.clone(),),
        (chain,),
        |_| 0usize,
        move |k: &u64, (v,): (u64,), outs| {
            if *k + 1 < n {
                outs.send::<0>(*k + 1, v);
            }
        },
    );
    let exec = Executor::new(g.build(), one_rank());
    step.in_ref::<0>().seed(exec.ctx(), 0, 0);
    let report = exec.finish();
    assert_eq!(report.tasks, n, "chain must run every link");
    report.elapsed.as_secs_f64() * 1e9 / n as f64
}

/// `core`: one producer task sends `n` keys to both inputs of a two-input
/// template; every key costs two matching-table operations (insert, then
/// complete) and an empty task. ns per matched key.
fn core_match_insert_ns(n: u64) -> f64 {
    let start: Edge<u64, Ctl> = Edge::new("start");
    let left: Edge<u64, u64> = Edge::new("left");
    let right: Edge<u64, u64> = Edge::new("right");
    let mut g = GraphBuilder::new();
    let src = g.make_tt(
        "src",
        (start,),
        (left.clone(), right.clone()),
        |_| 0usize,
        move |_, (_c,): (Ctl,), outs| {
            for k in 0..n {
                outs.send::<0>(k, k);
            }
            for k in 0..n {
                outs.send::<1>(k, k);
            }
        },
    );
    let _pair = g.make_tt(
        "pair",
        (left, right),
        (),
        |_| 0usize,
        |_, (_a, _b): (u64, u64), _| {},
    );
    let exec = Executor::new(g.build(), one_rank());
    src.in_ref::<0>().seed(exec.ctx(), 0, Ctl);
    let report = exec.finish();
    assert_eq!(report.tasks, n + 1, "every key must match");
    report.elapsed.as_secs_f64() * 1e9 / n as f64
}

/// `runtime`: flood a 2-worker work-stealing pool with no-op jobs in
/// groups of `group` (1 = `submit`, else `submit_batch`). ns per job,
/// submission to quiescence.
fn runtime_submit_ns(jobs: usize, group: usize) -> f64 {
    let q = Arc::new(Quiescence::new());
    let pool = WorkerPool::new(2, SchedulerKind::WorkStealing, Arc::clone(&q), "probe");
    let t = Instant::now();
    let mut sent = 0;
    while sent < jobs {
        let n = group.min(jobs - sent);
        if group == 1 {
            pool.submit(Job::new(|| {}));
        } else {
            pool.submit_batch((0..n).map(|_| Job::new(|| {})).collect());
        }
        sent += n;
    }
    q.wait_quiescent();
    let per_job = t.elapsed().as_secs_f64() * 1e9 / jobs as f64;
    assert_eq!(pool.executed(), jobs as u64, "every job must run");
    pool.shutdown();
    per_job
}

/// `comm`: `Wire` encode and decode of a 90×90 tile (64.8 kB). MB/s.
fn comm_wire_mb_s() -> (f64, f64) {
    let tile = Tile::from_data(90, 90, (0..8100).map(|i| i as f64 * 0.5).collect());
    let bytes = ttg_comm::to_bytes(&tile);
    let mb = bytes.len() as f64 / 1e6;
    let enc = time_call(|| {
        black_box(ttg_comm::to_bytes(black_box(&tile)));
    });
    let dec = time_call(|| {
        black_box(ttg_comm::from_bytes::<Tile>(black_box(&bytes)).expect("decodes"));
    });
    (mb / enc, mb / dec)
}

/// `comm`: round trip of one `size`-byte message at a time between two
/// ranks of a raw fabric. (p50, p90) in µs over `n` samples.
fn comm_rtt_us(
    spec: &TransportSpec,
    reliable: bool,
    size: usize,
    n: usize,
) -> Result<(f64, f64), String> {
    let plan = reliable.then(|| FaultPlan::seeded(1));
    let mut pair = EchoPair::new(spec, plan, EchoMode::Each)?;
    let mut samples = Vec::with_capacity(n);
    // A tenth of the samples again as untimed warm-up (pool magazines,
    // socket buffers, thread placement).
    for i in 0..n + n / 10 {
        let mut m = ttg_comm::pool::acquire(size);
        m.resize(size, 3);
        let t = Instant::now();
        pair.send(m)?;
        let pong = pair.recv()?;
        let rtt = t.elapsed();
        if pong.len() != size {
            return Err(format!("pong of {} bytes, sent {size}", pong.len()));
        }
        ttg_comm::pool::recycle(pong);
        if i >= n / 10 {
            samples.push(rtt.as_secs_f64() * 1e6);
        }
    }
    Ok((median(&samples), quantile(&samples, 0.9)))
}

/// `transport`: encode one 64 B AM frame, and decode it back through
/// `FrameCodec::feed` out of a buffer of 1024 of them. ns per frame each.
fn transport_frame_ns() -> (f64, f64) {
    const FRAMES: usize = 1024;
    let frame = Frame::Am {
        from: 0,
        handler: 7,
        seq: 1,
        payload: vec![5; 64],
    };
    let mut buf = Vec::with_capacity(FRAMES * 96);
    let encode = time_call(|| {
        buf.clear();
        for _ in 0..FRAMES {
            frame.encode(&mut buf);
        }
        black_box(&buf);
    }) / FRAMES as f64;
    let feed = time_call(|| {
        let mut codec = FrameCodec::new();
        let mut seen = 0usize;
        codec
            .feed(&buf, &mut |f| {
                black_box(&f);
                seen += 1;
            })
            .expect("well-formed frames");
        assert_eq!(seen, FRAMES);
    }) / FRAMES as f64;
    (encode * 1e9, feed * 1e9)
}

/// `transport`: bring up a 2-rank UDS mesh (bind, dial, handshake). ms.
fn transport_connect_ms(n: usize) -> Result<f64, String> {
    let mut samples = Vec::with_capacity(n);
    for _ in 0..n {
        let reg = ttg_telemetry::Registry::new();
        let t = Instant::now();
        let mesh =
            ttg_transport::local_mesh(TransportKind::Uds, 2, &reg).map_err(|e| e.to_string())?;
        samples.push(t.elapsed().as_secs_f64() * 1e3);
        drop(mesh);
    }
    Ok(median(&samples))
}

fn square(nb: usize, k: f64) -> Tile {
    Tile::from_data(
        nb,
        nb,
        (0..nb * nb).map(|i| (i % 13) as f64 * k + 1.0).collect(),
    )
}

/// `linalg`: `gemm_nt` on `nb`-wide tiles. Gflop/s.
fn linalg_gemm_gflops(nb: usize) -> f64 {
    let (a, b) = (square(nb, 1e-2), square(nb, 2e-2));
    let mut c = Tile::zeros(nb, nb);
    let per_call = time_call(|| ttg_linalg::gemm_nt(-1.0, &a, &b, black_box(&mut c)));
    ttg_linalg::gemm_flops(nb, nb, nb) as f64 / per_call / 1e9
}

/// `linalg`: min-plus product on `nb`-wide tiles of finite weights. ns.
fn linalg_minplus_ns(nb: usize) -> f64 {
    let (a, b) = (square(nb, 0.5), square(nb, 0.25));
    let mut c = square(nb, 1.0);
    time_call(|| ttg_linalg::minplus(&a, &b, black_box(&mut c))) * 1e9
}

/// `launch`: start a copy of this program that exits at once, and reap it
/// (fork, exec, dynamic loading, runtime start-up). ms. Measured on the
/// workload that starts rank processes, not with the other probes.
pub fn launch_spawn_ms(scale: f64) -> Result<f64, String> {
    let n = scaled(8, scale, 2) as usize;
    let mut samples = Vec::with_capacity(n);
    for _ in 0..n {
        let t = Instant::now();
        let status = crate::procs::reenter(&["noop"])
            .stdout(std::process::Stdio::null())
            .status()
            .map_err(|e| format!("spawn failed: {e}"))?;
        samples.push(t.elapsed().as_secs_f64() * 1e3);
        if !status.success() {
            return Err(format!("no-op child exited with {status}"));
        }
    }
    Ok(median(&samples))
}
