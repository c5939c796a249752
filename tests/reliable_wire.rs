//! The reliable layer on a real socket and a lossless link: 64 B ping/pong
//! between two ranks over Unix sockets with 256 messages in flight — the
//! shape of `bench_all`'s `wire_small`. A receiver that falls behind while
//! its acks keep flowing is no evidence of loss, so nearly nothing is
//! retransmitted; and ack batches leave when due, not one per message.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ttg::comm::{Fabric, FaultPlan, Packet, TransportSpec};

const HANDLER: u32 = 7;
const MESSAGES: u64 = 5_000;
const IN_FLIGHT: u64 = 256;

#[test]
fn lossless_ping_pong_neither_retransmits_nor_acks_per_message() {
    let fabric = Fabric::with_transport(2, Some(FaultPlan::seeded(42)), &TransportSpec::Uds)
        .expect("a two-rank UDS mesh");
    let (rx0, rx1) = (fabric.take_receiver(0), fabric.take_receiver(1));
    let f = Arc::clone(&fabric);
    let echo = std::thread::spawn(move || {
        while let Ok(Packet::Am {
            from, seq, payload, ..
        }) = rx1.recv()
        {
            if f.rx_accept(1, from, seq) {
                f.packet_processed();
                let _ = f.send_am(1, 0, HANDLER, payload);
            }
        }
    });

    let ping = |i: u64| {
        let mut body = vec![0u8; 64];
        body[..8].copy_from_slice(&i.to_le_bytes());
        fabric.send_am(0, 1, HANDLER, body).expect("ping sent");
    };
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut sent = 0;
    while sent < IN_FLIGHT {
        ping(sent);
        sent += 1;
    }
    let (mut pongs, mut index_sum) = (0, 0);
    while pongs < MESSAGES {
        assert!(Instant::now() < deadline, "{pongs} of {MESSAGES} pongs");
        let Ok(Packet::Am {
            from, seq, payload, ..
        }) = rx0.recv()
        else {
            panic!("rank 0's channel closed");
        };
        if !fabric.rx_accept(0, from, seq) {
            continue;
        }
        fabric.packet_processed();
        pongs += 1;
        index_sum += u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
        if sent < MESSAGES {
            ping(sent);
            sent += 1;
        }
    }
    assert_eq!(index_sum, MESSAGES * (MESSAGES - 1) / 2, "every ping once");

    let s = fabric.stats().snapshot();
    fabric.shutdown_all();
    echo.join().expect("echo thread");
    assert!(fabric.take_errors().is_empty());
    assert_eq!(s.am_count, 2 * MESSAGES);
    let per_msg = |n: u64| n as f64 / s.am_count as f64;
    assert!(
        per_msg(s.am_retries) <= 0.05,
        "{} retransmissions for {} messages on a lossless link",
        s.am_retries,
        s.am_count
    );
    assert!(
        per_msg(s.ack_flushes) <= 0.2,
        "{} ack flushes for {} messages",
        s.ack_flushes,
        s.am_count
    );
}
