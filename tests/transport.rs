//! Tier-1 transport integration: the same application run must produce the
//! same answer whichever link layer carries the inter-rank frames. In-mesh
//! mode all ranks still live in one process, but every inter-rank active
//! message crosses a real TCP or Unix-domain socket — the full frame codec,
//! handshake, and bounded send-queue path under the unchanged fabric.

use std::io::Write;
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ttg::apps::cholesky;
use ttg::comm::{TransportSpec, Wire, WriteBuf};
use ttg::core::am::{am_header, MSG_DATA_SPLITMD};
use ttg::core::prelude::*;
use ttg::linalg::{Dist2D, Tile, TiledMatrix};
use ttg::transport::frame::MAGIC;
use ttg::transport::{local_mesh, remote_endpoint, AddrSpec, Endpoint, Frame, PROTOCOL_VERSION};

fn factor(a: &TiledMatrix, transport: TransportSpec) -> (TiledMatrix, ttg::core::ExecReport) {
    let cfg = cholesky::ttg::Config {
        ranks: 4,
        workers: 2,
        backend: ttg::parsec::backend(),
        trace: false,
        priorities: true,
        faults: None,
        transport,
    };
    cholesky::ttg::run(a, &cfg)
}

#[test]
fn cholesky_identical_across_link_layers() {
    let a = TiledMatrix::random_spd(6, 8, 314);
    let (l_chan, r_chan) = factor(&a, TransportSpec::InProc);
    assert!(cholesky::residual(&a, &l_chan) < 1e-8);
    assert_eq!(
        r_chan.comm.transport_tx_bytes, 0,
        "in-process channels must not report socket traffic"
    );

    for (spec, name) in [(TransportSpec::Tcp, "tcp"), (TransportSpec::Uds, "uds")] {
        let (l, r) = factor(&a, spec);
        // The accumulation chains fix the floating-point order, so the
        // factor is bit-identical no matter what carried the messages.
        assert_eq!(
            l.max_abs_diff(&l_chan),
            0.0,
            "{name}: factor differs from the channel run"
        );
        assert_eq!(r.per_node, r_chan.per_node, "{name}: task counts diverged");
        assert!(r.comm_errors.is_empty(), "{name}: {:?}", r.comm_errors);
        // The socket mesh really carried the inter-rank traffic.
        assert!(
            r.comm.transport_tx_bytes > 0,
            "{name}: no bytes on the wire"
        );
        assert!(r.comm.transport_rx_bytes > 0, "{name}: nothing received");
        assert!(r.comm.transport_connects > 0, "{name}: no connections made");
        assert_eq!(
            r.comm.transport_handshake_failures, 0,
            "{name}: handshakes failed"
        );
    }
}

#[test]
fn gathered_write_of_mixed_frames_decodes_losslessly() {
    // The coalescing writer ships many frames in one syscall, so the
    // receive path must decode a single byte burst holding a full mix of
    // control and data frames without losing or reordering any of them.
    // Emulate the worst case by hand: one write() carrying the handshake
    // Hello, a data Am, a bulk Am (its body is received in place, DESIGN
    // §12) and a batched AckRange back to back, from a hand-made rank 1 of
    // a 2-rank TCP job whose rank 0 waits at rendezvous.
    let reg = Arc::new(ttg::telemetry::Registry::new());
    let dir = std::env::temp_dir().join(format!("ttg-gathered-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let rank0 = {
        let (dir, reg) = (dir.clone(), Arc::clone(&reg));
        std::thread::spawn(move || remote_endpoint(TransportKind::Tcp, 0, 2, &dir, &reg))
    };
    let addr = loop {
        let text = std::fs::read_to_string(dir.join("rank-0.addr")).unwrap_or_default();
        if let Some(AddrSpec::Tcp(addr)) = AddrSpec::parse(&text) {
            break addr;
        }
        std::thread::sleep(Duration::from_millis(5));
    };

    let mut burst = Vec::new();
    Frame::Hello {
        magic: MAGIC,
        version: PROTOCOL_VERSION,
        rank: 1,
        ranks: 2,
    }
    .encode(&mut burst);
    let payload: Vec<u8> = (0..257u32).map(|i| (i % 251) as u8).collect();
    Frame::Am {
        from: 1,
        handler: 42,
        seq: 77,
        payload: payload.clone(),
    }
    .encode(&mut burst);
    let bulk = Frame::Am {
        from: 1,
        handler: 43,
        seq: 78,
        payload: (0..70_000u32).map(|i| (i % 241) as u8).collect(),
    };
    bulk.encode(&mut burst);
    let ranges = vec![(1u64, 64u64), (70, 70), (80, 95)];
    Frame::AckRange {
        from: 1,
        ranges: ranges.clone(),
    }
    .encode(&mut burst);

    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&burst).unwrap();
    let ep = rank0.join().unwrap().expect("rank 0 admits rank 1");
    let got: Arc<Mutex<Vec<(usize, Frame)>>> = Arc::new(Mutex::new(Vec::new()));
    let sink_got = Arc::clone(&got);
    ep.start(Arc::new(move |src, res| {
        if let Ok(f) = res {
            sink_got.lock().unwrap().push((src, f));
        }
    }));

    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        {
            let frames = got.lock().unwrap();
            // Hello is handshake-internal; the sink must see exactly the
            // two Ams and the AckRange, in order, byte-for-byte intact.
            let relevant: Vec<&(usize, Frame)> = frames
                .iter()
                .filter(|(_, f)| matches!(f, Frame::Am { .. } | Frame::AckRange { .. }))
                .collect();
            if relevant.len() == 3 {
                assert_eq!(relevant[0].0, 1, "Am attributed to the dialing rank");
                assert_eq!(
                    relevant[0].1,
                    Frame::Am {
                        from: 1,
                        handler: 42,
                        seq: 77,
                        payload: payload.clone(),
                    },
                    "Am must decode losslessly from the gathered burst"
                );
                assert_eq!(relevant[1].1, bulk, "bulk Am in mid-batch");
                assert_eq!(
                    relevant[2].1,
                    Frame::AckRange {
                        from: 1,
                        ranges: ranges.clone(),
                    },
                    "AckRange must decode losslessly behind the bulk Am"
                );
                break;
            }
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for the three frames, have {}",
            got.lock().unwrap().len()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    ep.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Bytes in a frame body of the bulk streams below.
const BODY: usize = 64 * 1024;

fn body_sum(payload: &[u8]) -> u64 {
    payload.iter().map(|&b| u64::from(b)).sum()
}

#[test]
fn bulk_streams_both_ways_with_reader_replies_stay_inside_the_byte_bound() {
    // Two ranks stream 64 KiB bodies at each other at once while a third
    // thread probes rank 1, whose replies are queued from its reader thread
    // into the link its own stream keeps full. The byte bound must hold the
    // streams without ever holding a reply (two readers waiting on each
    // other's queues would hang right here), every body must arrive intact,
    // and the queues must have stayed within the bound.
    const MSGS: u64 = 300;
    const PROBES: u64 = 40;
    for kind in [TransportKind::Uds, TransportKind::Tcp] {
        let reg = ttg::telemetry::Registry::new();
        let eps = local_mesh(kind, 2, &reg).expect("mesh");
        // (bodies received, their byte sum) per rank; replies at rank 0.
        let seen: Arc<Mutex<[(u64, u64); 2]>> = Arc::default();
        let replies: Arc<Mutex<Vec<u64>>> = Arc::default();
        for (me, ep) in eps.iter().enumerate() {
            let (seen, replies) = (Arc::clone(&seen), Arc::clone(&replies));
            let back = ep.link(1 - me);
            ep.start(Arc::new(move |_, res| {
                match res.expect("no transport error") {
                    Frame::Am { payload, .. } => {
                        let mut seen = seen.lock().unwrap();
                        seen[me].0 += 1;
                        seen[me].1 += body_sum(&payload);
                    }
                    Frame::TermProbe { round } => back
                        .send(Frame::TermReply {
                            from: me as u32,
                            round,
                            sent: 0,
                            recvd: 0,
                            epoch: 0,
                            idle: false,
                        })
                        .expect("reply queued"),
                    Frame::TermReply { round, .. } => replies.lock().unwrap().push(round),
                    other => panic!("unexpected {other:?}"),
                }
            }));
        }
        let want_sum: u64 = std::thread::scope(|s| {
            let streams: Vec<_> = (0..2usize)
                .map(|from| {
                    let link = eps[from].link(1 - from);
                    s.spawn(move || {
                        let mut sum = 0;
                        for seq in 0..MSGS {
                            let payload: Vec<u8> = (0..BODY)
                                .map(|i| (i as u64 * 7 + seq + from as u64) as u8)
                                .collect();
                            sum += body_sum(&payload);
                            let frame = Frame::Am {
                                from: from as u32,
                                handler: 1,
                                seq,
                                payload,
                            };
                            link.send(frame).expect("stream send");
                        }
                        sum
                    })
                })
                .collect();
            let probe = eps[0].link(1);
            let replies = Arc::clone(&replies);
            s.spawn(move || {
                for round in 0..PROBES {
                    probe.send(Frame::TermProbe { round }).expect("probe send");
                    let deadline = Instant::now() + Duration::from_secs(30);
                    while (replies.lock().unwrap().len() as u64) <= round {
                        assert!(
                            Instant::now() < deadline,
                            "{kind}: probe {round} unanswered"
                        );
                        std::thread::sleep(Duration::from_micros(200));
                    }
                }
            });
            streams
                .into_iter()
                .map(|h| h.join().expect("stream thread"))
                .sum()
        });
        let deadline = Instant::now() + Duration::from_secs(30);
        while seen.lock().unwrap().iter().any(|s| s.0 < MSGS) {
            assert!(
                Instant::now() < deadline,
                "{kind}: streams incomplete: {:?}",
                seen.lock().unwrap()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let seen = *seen.lock().unwrap();
        assert_eq!(seen[0].0 + seen[1].0, 2 * MSGS, "{kind}: frame count");
        assert_eq!(seen[0].1 + seen[1].1, want_sum, "{kind}: body checksums");
        assert_eq!(
            *replies.lock().unwrap(),
            (0..PROBES).collect::<Vec<_>>(),
            "{kind}: replies"
        );
        // The transport's byte bound (1 MiB, private to it) admits one
        // frame past itself; the only ungated frame here is the one reply
        // in flight.
        let bound = (1 << 20) + (BODY + 21) + 64;
        for r in 0..2 {
            let key = ttg::telemetry::MetricKey::ranked(r, "transport", "queue_bytes_hwm");
            let hwm = reg.gauge(key).get();
            assert!(
                hwm > BODY as i64,
                "{kind}: gauge for peer {r} never moved: {hwm}"
            );
            assert!(
                hwm <= bound as i64,
                "{kind}: {hwm} B queued for peer {r}, bound {bound}"
            );
        }
        // Readers count a frame after handing it to the sink: join them.
        for ep in &eps {
            ep.shutdown();
        }
        let snap = reg.snapshot();
        let direct = |name| snap.counter(&ttg::telemetry::MetricKey::global("transport", name));
        assert_eq!(direct("tx_direct_frames"), 2 * MSGS, "{kind}");
        assert_eq!(direct("rx_direct_frames"), 2 * MSGS, "{kind}");
    }
}

/// One `TransportSpec::Remote` per rank of an `n`-rank UDS mesh living in
/// this process: each executor built on one is a rank of a multi-process
/// job in everything but its pid.
fn remote_specs(n: usize) -> Vec<TransportSpec> {
    let reg = Arc::new(ttg::telemetry::Registry::new());
    local_mesh(TransportKind::Uds, n, &reg)
        .expect("uds mesh")
        .into_iter()
        .map(|ep| {
            TransportSpec::Remote(RemoteHandle {
                endpoint: ep as Arc<dyn Endpoint>,
                registry: Arc::clone(&reg),
            })
        })
        .collect()
}

/// Run `rank_main(rank, spec)` for every spec on its own thread (SPMD).
fn run_ranks<T: Send>(
    specs: Vec<TransportSpec>,
    rank_main: impl Fn(usize, TransportSpec) -> T + Sync,
) -> Vec<T> {
    std::thread::scope(|s| {
        let handles: Vec<_> = specs
            .into_iter()
            .enumerate()
            .map(|(r, spec)| {
                let rank_main = &rank_main;
                s.spawn(move || rank_main(r, spec))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread panicked"))
            .collect()
    })
}

#[test]
fn remote_cholesky_pushes_tiles_and_stays_bit_exact() {
    // Between processes a tile rides inside its AM whatever its size: a
    // small frame below 32 KiB, a bulk frame (body written from and read
    // into its own buffer, DESIGN §12) from there on. 64 x 64 doubles are
    // exactly the boundary.
    for (nt, nb) in [(8, 4), (4, 64), (4, 96)] {
        let a = TiledMatrix::random_spd(nt, nb, 2718);
        let mut reference = a.clone();
        reference.potrf_reference().expect("input is SPD");

        let runs = run_ranks(remote_specs(2), |_, transport| {
            let cfg = cholesky::ttg::Config {
                ranks: 2,
                workers: 1,
                backend: ttg::parsec::backend(),
                trace: false,
                priorities: true,
                faults: None,
                transport,
            };
            cholesky::ttg::run(&a, &cfg)
        });

        let dist = Dist2D::for_ranks(2);
        for i in 0..nt {
            for j in 0..=i {
                // Each rank's output holds exactly the tiles it owns.
                let (l, _) = &runs[dist.owner(i, j)];
                assert_eq!(
                    l.tile(i, j).data(),
                    reference.tile(i, j).data(),
                    "nb {nb}: factor tile ({i}, {j}) differs from the serial reference"
                );
            }
        }
        for (rank, (_, report)) in runs.iter().enumerate() {
            assert!(
                report.comm_errors.is_empty(),
                "nb {nb}, rank {rank}: {:?}",
                report.comm_errors
            );
            assert!(report.stuck.is_empty(), "nb {nb}, rank {rank}: stuck keys");
        }
        // Both ranks share one registry, so either report carries the job's
        // counters.
        let comm = &runs[0].1.comm;
        assert_eq!(
            comm.rma_gets, 0,
            "nb {nb}: a one-sided read across processes"
        );
        assert!(comm.am_bytes > 0, "nb {nb}: no tile crossed the ranks");
        // Every bulk body is written from its own buffer. Whether it is also
        // *read* into one depends on where the read boundary falls, except
        // for a frame larger than the reader's 64 KiB buffer (96 x 96).
        let bulk = nb >= 64;
        assert_eq!(comm.transport_tx_direct_frames > 0, bulk, "nb {nb}");
        assert!(bulk || comm.transport_rx_direct_frames == 0, "nb {nb}");
        assert!(nb < 96 || comm.transport_rx_direct_frames > 0, "nb {nb}");
    }
}

#[test]
fn remote_streams_of_splitmd_values_fold_every_value() {
    // Rank 1 streams tiles (a splitmd type: pushed inside their AMs between
    // processes) into a reducing terminal on rank 0. Key 0 is closed by a
    // size sent *ahead* of the values (a count: it may pass them); key 1 by
    // a `finalize` sent *behind* all 24, which must close the stream on the
    // full fold — inline delivery on the one delivery thread is in order.
    const N: u64 = 24;
    for nb in [4usize, 64, 96] {
        let runs = run_ranks(remote_specs(2), |_, transport| {
            let start: Edge<u32, Ctl> = Edge::new("start");
            let values: Edge<u32, Tile> = Edge::new("values");
            let mut g = GraphBuilder::new();
            let folded = Arc::new(Mutex::new(Vec::new()));
            let sink = Arc::clone(&folded);
            let reduce = g.make_tt(
                "reduce",
                (values.clone(),),
                (),
                |_: &u32| 0usize,
                move |k, (sum,): (Tile,), _| sink.lock().unwrap().push((*k, sum)),
            );
            reduce
                .set_input_reducer::<0>(|acc, t| acc.add_assign(&t), None)
                .expect("pre-attach");
            let stream = reduce.in_ref::<0>();
            let produce = g.make_tt(
                "produce",
                (start,),
                (values,),
                |_: &u32| 1usize,
                move |k, (_c,): (Ctl,), outs| {
                    if *k == 0 {
                        stream.set_size(outs, k, N as usize);
                    }
                    for v in 1..=N {
                        outs.send::<0>(*k, Tile::from_data(nb, nb, vec![v as f64; nb * nb]));
                    }
                    if *k == 1 {
                        stream.finalize(outs, k);
                    }
                },
            );
            let cfg = ExecConfig::distributed(2, 1, ttg::parsec::backend())
                .with_transport(transport)
                .with_deadline(Duration::from_secs(60));
            let exec = Executor::new(g.build(), cfg);
            for k in 0..2u32 {
                produce.in_ref::<0>().seed(exec.ctx(), k, Ctl);
            }
            let report = exec.finish();
            let folded = std::mem::take(&mut *folded.lock().unwrap());
            (folded, report)
        });

        for (rank, (_, report)) in runs.iter().enumerate() {
            assert!(
                report.comm_errors.is_empty(),
                "nb {nb}, rank {rank}: {:?}",
                report.comm_errors
            );
            assert!(report.stuck.is_empty(), "rank {rank}: {:?}", report.stuck);
        }
        let (mut folded, report) = runs.into_iter().next().expect("rank 0 ran");
        folded.sort_by_key(|(k, _)| *k);
        assert_eq!(
            folded.len(),
            2,
            "nb {nb}: both streams must close exactly once"
        );
        let full = (N * (N + 1) / 2) as f64;
        for (k, sum) in &folded {
            assert!(
                sum.data().len() == nb * nb && sum.data().iter().all(|x| *x == full),
                "nb {nb}: stream {k} closed on a partial fold"
            );
        }
        assert_eq!(report.comm.rma_gets, 0, "nb {nb}");
        // One AM per value, one for the size, one for the finalize.
        assert_eq!(report.comm.am_count, 2 * N + 2, "nb {nb}");
        assert_eq!(
            report.comm.transport_tx_direct_frames,
            if nb >= 64 { 2 * N } else { 0 },
            "nb {nb}: exactly the values of 32 KiB and more are bulk frames"
        );
        assert!(nb < 96 || report.comm.transport_rx_direct_frames > 0);
    }
}

/// Encode a data AM (`ttg::core::am`) with one group by hand.
fn data_am(
    msg_type: u8,
    region_and_owner: Option<(u64, u64)>,
    (node, terminal): (u32, u16),
    key: u32,
    value: impl FnOnce(&mut WriteBuf),
) -> Vec<u8> {
    let mut am = WriteBuf::new();
    am_header(&mut am, 7, msg_type, terminal);
    am.put_u64(1); // source rank
    if let Some((region, owner)) = region_and_owner {
        am.put_u64(region);
        am.put_u64(owner);
    }
    am.put_u32(1); // consumers
    let mut group = WriteBuf::new();
    group.put_u32(node);
    group.put_u16(terminal);
    group.put_u32(1);
    key.encode(&mut group);
    am.put_u32(group.len() as u32);
    am.put_bytes(group.as_slice());
    value(&mut am);
    am.into_vec()
}

#[test]
fn splitmd_metadata_naming_a_foreign_owner_fails_coded_not_hung() {
    // Rank 0 is a real executor; rank 1 is this test, speaking the wire
    // protocol by hand: it enters the start barrier, ships one splitmd
    // metadata AM naming a region in its own address space — which no
    // one-sided read reaches from another process — and answers the
    // termination probes. The delivery must fail as one coded TTG043, ask
    // the peer for nothing, and leave rank 0 free to terminate.
    let reg = Arc::new(ttg::telemetry::Registry::new());
    let eps = local_mesh(TransportKind::Uds, 2, &reg).expect("uds mesh");
    let to_rank0 = eps[1].link(0);
    let probe_reply = eps[1].link(0);
    let unexpected = Arc::new(Mutex::new(Vec::new()));
    let seen = Arc::clone(&unexpected);
    eps[1].start(Arc::new(move |_, res| match res {
        Ok(Frame::TermProbe { round }) => {
            let _ = probe_reply.send(Frame::TermReply {
                from: 1,
                round,
                sent: 1,
                recvd: 0,
                epoch: 0,
                idle: true,
            });
        }
        Ok(Frame::BarrierRelease { .. } | Frame::TermDone | Frame::Bye { .. }) => {}
        other => seen.lock().unwrap().push(format!("{other:?}")),
    }));

    let values: Edge<u32, Tile> = Edge::new("values");
    let mut g = GraphBuilder::new();
    let consume = g.make_tt(
        "consume",
        (values,),
        (),
        |_: &u32| 0usize,
        |_, (_t,): (Tile,), _| panic!("the value never arrives"),
    );
    let deadline = Duration::from_secs(60);
    let cfg = ExecConfig::distributed(2, 1, ttg::parsec::backend())
        .with_transport(TransportSpec::Remote(RemoteHandle {
            endpoint: Arc::clone(&eps[0]) as Arc<dyn Endpoint>,
            registry: Arc::clone(&reg),
        }))
        .with_deadline(deadline);
    let exec = Executor::new(g.build(), cfg);

    to_rank0
        .send(Frame::BarrierEnter { from: 1, epoch: 1 })
        .unwrap();
    let am = data_am(
        MSG_DATA_SPLITMD,
        Some((42, 1)),
        (consume.node_id(), 0),
        5,
        |am| Tile::zeros(4, 4).split_encode_md(am),
    );
    to_rank0
        .send(Frame::Am {
            from: 1,
            handler: consume.node_id(),
            seq: 0,
            payload: am,
        })
        .unwrap();

    let started = Instant::now();
    let report = exec.finish();
    assert!(
        started.elapsed() < deadline / 4,
        "took {:?}",
        started.elapsed()
    );
    let codes: Vec<&str> = report.comm_errors.iter().map(|e| e.code()).collect();
    assert_eq!(codes, ["TTG043"], "{:?}", report.comm_errors);
    assert!(
        report.comm_errors[0]
            .detail
            .contains("not hosted in this process"),
        "{:?}",
        report.comm_errors
    );
    assert_eq!(report.tasks, 0);
    assert_eq!(report.comm.rma_gets, 0);
    for ep in &eps {
        ep.shutdown();
    }
    assert_eq!(
        *unexpected.lock().unwrap(),
        Vec::<String>::new(),
        "rank 0 must send nothing back but the protocol's own frames"
    );
}
