//! Teardown of a socket mesh whose peer left with traffic in flight
//! (found by `bench_all`: 2–10 s stalls, hidden there behind a settle).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ttg_telemetry::Registry;
use ttg_transport::{local_mesh, Endpoint, Frame, TransportKind};

#[test]
fn a_mesh_whose_peer_left_mid_traffic_tears_down_at_once() {
    // Rank 0 leaves while rank 1 still has data and acks queued for it:
    // rank 1's writer meets a closed socket, possibly before its reader
    // met the Bye. Neither side's shutdown may wait on the other.
    for round in 0..50 {
        let reg = Registry::new();
        let eps = local_mesh(TransportKind::Uds, 2, &reg).expect("mesh");
        for ep in &eps {
            ep.start(Arc::new(|_, _| {}));
        }
        let stop = Arc::new(AtomicBool::new(false));
        let senders: Vec<_> = [(0, 1), (1, 0)]
            .into_iter()
            .map(|(from, to)| {
                let (link, stop) = (eps[from].link(to), Arc::clone(&stop));
                std::thread::spawn(move || {
                    let mut seq = 0;
                    while !stop.load(Ordering::SeqCst) {
                        seq += 1;
                        let data = Frame::Am {
                            from: from as u32,
                            handler: 1,
                            seq,
                            payload: vec![seq as u8; if seq % 2 == 0 { 64 * 1024 } else { 64 }],
                        };
                        let ack = Frame::AckRange {
                            from: from as u32,
                            ranges: vec![(1, seq)],
                        };
                        if link.send(data).is_err() || link.send(ack).is_err() {
                            break;
                        }
                    }
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(2));
        for ep in &eps {
            let t = Instant::now();
            ep.shutdown();
            let took = t.elapsed();
            assert!(
                took < Duration::from_millis(200),
                "round {round}: rank {} took {took:?} to shut down",
                ep.rank()
            );
        }
        stop.store(true, Ordering::SeqCst);
        for s in senders {
            s.join().expect("sender thread");
        }
    }
}
