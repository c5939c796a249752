//! Model of the reliable layer's anti-replay dedup window
//! (`crates/comm/src/reliable.rs` `SeqWindow`) interacting with the retry
//! exhaustion ("poison") path in `crates/comm/src/chaos.rs` (`progress`).
//!
//! A 4-slot miniature of the 1024-bit window faces the same races as the
//! real one: two retransmitted copies of one seq, newer seqs sliding the
//! window over it, and the sender's progress thread poisoning the seq when
//! retries exhaust. Invariants over all interleavings:
//! - a seq is delivered at most once (the dedup guarantee);
//! - a seq is never both delivered and counted lost (the poison path must
//!   use the window as arbiter, not just the ack flag, because the flag is
//!   set outside the window lock).
//!
//! Mutations: [`Mutation::DoubleAcceptRace`] splits the window's
//! check-and-mark into two lock sections (two copies both look fresh →
//! double delivery); [`Mutation::PoisonIgnoresWindow`] makes poison trust
//! the ack flag alone (a delivery whose flag store is still in flight gets
//! double-accounted as lost).

use crate::explore::{explore, Config, Stats, Violation};
use crate::shadow::{AtomicBool, AtomicUsize, Mutex};
use crate::sync::Ordering::SeqCst;
use crate::thread;
use std::sync::Arc;

/// Known-bad variants of the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// The correct protocol.
    None,
    /// Window accept checks the duplicate bit and sets it in separate
    /// critical sections.
    DoubleAcceptRace,
    /// Poison counts a loss from `!delivered_flag` alone, without letting
    /// the window arbitrate.
    PoisonIgnoresWindow,
}

const WIN: u64 = 4;

/// 4-slot miniature of `SeqWindow`: `high` + bitmap of the last WIN seqs.
struct MiniWindow {
    high: u64,
    bits: u8,
}

impl MiniWindow {
    fn new() -> Self {
        MiniWindow { high: 0, bits: 0 }
    }

    /// Exactly-once accept: true iff `seq` was never accepted and is still
    /// inside the window.
    fn accept(&mut self, seq: u64) -> bool {
        if seq == 0 || seq + WIN <= self.high {
            // Sentinel, or slid out of the window: late copy, reject.
            return false;
        }
        if seq > self.high {
            let shift = seq - self.high;
            self.bits = if shift >= 8 { 0 } else { self.bits << shift };
            self.bits |= 1;
            self.high = seq;
            true
        } else {
            let bit = 1u8 << (self.high - seq);
            if self.bits & bit != 0 {
                false
            } else {
                self.bits |= bit;
                true
            }
        }
    }

    /// Duplicate probe without marking (used by the racy mutation).
    fn seen(&self, seq: u64) -> bool {
        if seq == 0 || seq + WIN <= self.high {
            return true;
        }
        if seq > self.high {
            return false;
        }
        self.bits & (1u8 << (self.high - seq)) != 0
    }
}

struct Shared {
    window: Mutex<MiniWindow>,
    /// Ack ground truth, set by the deliverer *after* the window section
    /// (mirroring the separate links-lock in fabric).
    delivered_flag: AtomicBool,
    delivered: AtomicUsize,
    lost: AtomicUsize,
}

/// One retransmitted copy of `seq` arriving at the receiver.
fn deliver(sh: &Shared, seq: u64, mutation: Mutation) {
    let claimed = match mutation {
        Mutation::DoubleAcceptRace => {
            // TOCTOU on the duplicate bit: probe, drop the lock, mark.
            let fresh = !sh.window.lock().seen(seq);
            if fresh {
                let mut w = sh.window.lock();
                let high = w.high.max(seq);
                let shift = high - w.high;
                w.bits = if shift >= 8 { 0 } else { w.bits << shift };
                w.high = high;
                if seq + WIN > high {
                    w.bits |= 1u8 << (high - seq);
                }
                true
            } else {
                false
            }
        }
        _ => sh.window.lock().accept(seq),
    };
    if claimed && seq == 1 {
        sh.delivered.fetch_add(1, SeqCst);
        sh.delivered_flag.store(true, SeqCst);
    }
}

/// Sender-side retry exhaustion for `seq`: account it lost unless it made
/// it through. The window must arbitrate the claim.
fn poison(sh: &Shared, seq: u64, mutation: Mutation) {
    if sh.delivered_flag.load(SeqCst) {
        return;
    }
    let claimed = match mutation {
        Mutation::PoisonIgnoresWindow => true,
        _ => sh.window.lock().accept(seq),
    };
    if claimed {
        sh.lost.fetch_add(1, SeqCst);
    }
}

/// Two retransmit copies of seq 1, a slider (seqs 2 and 5) aging it out of
/// the window, and one poison from the sender's progress thread.
fn model(mutation: Mutation) {
    let sh = Arc::new(Shared {
        window: Mutex::named(MiniWindow::new(), "window"),
        delivered_flag: AtomicBool::named(false, "delivered_flag"),
        delivered: AtomicUsize::named(0, "delivered"),
        lost: AtomicUsize::named(0, "lost"),
    });

    let mk = |name: &str, f: Box<dyn FnOnce() + Send>| thread::spawn_named(name, f);
    let sh1 = Arc::clone(&sh);
    let sh2 = Arc::clone(&sh);
    let sh3 = Arc::clone(&sh);
    let sh4 = Arc::clone(&sh);
    let ts = vec![
        mk("copy1", Box::new(move || deliver(&sh1, 1, mutation))),
        mk("copy2", Box::new(move || deliver(&sh2, 1, mutation))),
        mk(
            "slider",
            Box::new(move || {
                deliver(&sh3, 2, mutation);
                deliver(&sh3, 5, mutation);
            }),
        ),
        mk("poison", Box::new(move || poison(&sh4, 1, mutation))),
    ];
    for t in ts {
        t.join();
    }

    let delivered = sh.delivered.load(SeqCst);
    let lost = sh.lost.load(SeqCst);
    assert!(delivered <= 1, "seq 1 delivered {delivered} times");
    assert!(
        !(delivered > 0 && lost > 0),
        "seq 1 double-accounted: delivered {delivered} and lost {lost}"
    );
}

/// Explore the protocol under `cfg`.
pub fn check(cfg: Config, mutation: Mutation) -> Result<Stats, Box<Violation>> {
    explore(cfg, move || model(mutation))
}
