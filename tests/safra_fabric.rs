//! Safra's termination detection driven over the simulated fabric: the
//! token travels as real active messages between rank threads while the
//! ranks exchange basic messages — the faithful distributed-memory
//! protocol a multi-node port of the executor would use.
//!
//! The chaos variant runs the same protocol under 100% duplicate injection
//! and shows Safra's message balance stays correct because the receive-side
//! dedup window makes `on_receive` fire once per *logical* message: physical
//! retransmits and duplicates never unbalance the count.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use ttg::comm::{Fabric, FaultPlan, Packet, ReadBuf, WriteBuf};
use ttg::runtime::{Color, SafraRank, Token};

const AM_BASIC: u32 = 1;
const AM_TOKEN: u32 = 2;

fn encode_token(t: &Token) -> Vec<u8> {
    let mut b = WriteBuf::new();
    b.put_i64(t.count);
    b.put_u8(matches!(t.color, Color::Black) as u8);
    b.into_vec()
}

fn decode_token(bytes: &[u8]) -> Token {
    let mut r = ReadBuf::new(bytes);
    Token {
        count: r.get_i64().unwrap(),
        color: if r.get_u8().unwrap() != 0 {
            Color::Black
        } else {
            Color::White
        },
    }
}

fn run_ring(fabric: Arc<Fabric>, n: usize) -> u64 {
    let detected = Arc::new(AtomicBool::new(false));
    let processed = Arc::new(AtomicU64::new(0));

    let mut handles = Vec::new();
    for rank in 0..n {
        let fabric = Arc::clone(&fabric);
        let rx = fabric.take_receiver(rank);
        let detected = Arc::clone(&detected);
        let processed = Arc::clone(&processed);
        handles.push(std::thread::spawn(move || {
            let safra = SafraRank::new(rank, n);
            // Each rank starts with some work: forward `hops` basic
            // messages around the ring before going passive.
            let mut pending_work = if rank == 0 { 1u32 } else { 0 };
            let mut launched = false;
            loop {
                // Launch the basic-message wave once.
                if pending_work > 0 && !launched {
                    launched = true;
                    safra.on_send();
                    fabric
                        .send_am(rank, (rank + 1) % n, AM_BASIC, vec![12])
                        .unwrap();
                    pending_work = 0;
                }
                // Drain incoming packets.
                while let Ok(pkt) = rx.try_recv() {
                    match pkt {
                        Packet::Am {
                            handler,
                            payload,
                            from,
                            seq,
                        } => {
                            // Reliable-delivery gate: under chaos, injected
                            // duplicates are rejected here and never reach
                            // Safra's logical message count.
                            if !fabric.rx_accept(rank, from, seq) {
                                continue;
                            }
                            match handler {
                                AM_BASIC => {
                                    safra.on_receive();
                                    let hops = processed.fetch_add(1, Ordering::SeqCst);
                                    // Keep the wave alive for 12 hops.
                                    if hops < 12 {
                                        safra.on_send();
                                        fabric
                                            .send_am(rank, (rank + 1) % n, AM_BASIC, vec![12])
                                            .unwrap();
                                    }
                                }
                                AM_TOKEN => {
                                    safra.accept_token(decode_token(&payload));
                                }
                                _ => unreachable!(),
                            }
                            fabric.packet_processed();
                        }
                        Packet::Shutdown => return,
                    }
                }
                // Passive between packets: run the Safra rules; the token
                // travels as a real active message.
                if let Some((next, token)) = safra.try_forward(true) {
                    fabric
                        .send_am(rank, next, AM_TOKEN, encode_token(&token))
                        .unwrap();
                }
                if rank == 0 && safra.terminated() {
                    detected.store(true, Ordering::SeqCst);
                }
                if detected.load(Ordering::SeqCst) {
                    return;
                }
                std::thread::sleep(std::time::Duration::from_micros(50));
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert!(detected.load(Ordering::SeqCst));
    processed.load(Ordering::SeqCst)
}

#[test]
fn safra_detects_termination_over_the_fabric() {
    let n = 4;
    let fabric = Fabric::new(n);
    let processed = run_ring(Arc::clone(&fabric), n);
    // Termination must not be declared before the wave finished.
    assert!(processed >= 12);
}

#[test]
fn safra_counts_logical_messages_under_duplication() {
    // Every physical packet is duplicated; Safra still terminates with a
    // balanced logical count because duplicates are rejected pre-delivery.
    let n = 4;
    let plan = FaultPlan::seeded(42).with_dup(1.0);
    let fabric = Fabric::with_faults(n, Some(plan));
    let processed = run_ring(Arc::clone(&fabric), n);
    assert!(processed >= 12);
    // Exactly 13 logical basic messages despite ~2x physical traffic.
    assert_eq!(processed, 13);
    let s = fabric.stats().snapshot();
    assert!(s.am_dup_injected > 0, "duplication must have fired");
    assert!(s.am_dedup_hits > 0, "duplicates must have been rejected");
}
