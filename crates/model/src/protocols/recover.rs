//! Model of the checkpoint/restore in-flight ledger
//! (`crates/comm/src/recover.rs` `restore_rank` + `chaos.rs` `rx_accept_am`,
//! DESIGN §13) under snapshot-vs-in-flight-ack interleavings.
//!
//! One logical message from a recoverable rank races three actors: its live
//! in-flight copy delivering at the peer, the peer's ack coming back and
//! removing the sender entry, and a snapshot cut + crash + restore on the
//! sender. The restore scan retires the in-flight slot of every entry that
//! is neither delivered nor already replay-marked, installs the snapshot's
//! entry with the replay mark set (`LinkTx::import` semantics), and
//! re-drives it with a per-transmission slot that settles whether the peer
//! dedups or delivers the copy. The subtle rule under test is the ack-tail
//! *prepay*: a live copy that delivers fresh and finds its sender entry
//! replay-marked must re-credit the slot the scan retired, because its own
//! `packet_processed` will debit it a second time. Invariants over all
//! interleavings:
//! - the ledger balances: every credit is debited exactly once, so the
//!   in-flight counter returns to its starting bias;
//! - the message is delivered exactly once (the peer's window does not
//!   roll back with the sender, so replays dedup against it).
//!
//! Mutations: [`Mutation::NoPrepay`] drops the ack-tail re-credit (the
//! scan-then-deliver interleaving debits the slot twice);
//! [`Mutation::ScanRetiresDelivered`] lets the restore scan retire
//! delivered-but-unacked entries (whose slot `packet_processed` already
//! settled — the exact double-retire the real scan's `!delivered` guard
//! prevents).

use crate::explore::{explore, Config, Stats, Violation};
use crate::shadow::{AtomicUsize, Mutex};
use crate::sync::Ordering::SeqCst;
use crate::thread;
use std::sync::Arc;

/// Known-bad variants of the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// The correct protocol.
    None,
    /// A live delivery that finds its entry replay-marked does not
    /// re-credit the slot the restore scan retired.
    NoPrepay,
    /// The restore scan retires every unmarked entry, delivered or not.
    ScanRetiresDelivered,
}

/// The ledger starts biased so a buggy double-debit shows up as a missing
/// credit instead of an unsigned underflow.
const BIAS: usize = 8;

/// Sender-side unacked entry, a two-flag miniature of `reliable::Unacked`.
#[derive(Clone, Copy)]
struct Entry {
    delivered: bool,
    replayed: bool,
}

struct Shared {
    /// Peer-side dedup state for the one modeled seq. The peer does not
    /// crash, so this never rolls back.
    window_seen: Mutex<bool>,
    /// The sender's unacked entry (`links[r→t]` slot for the one seq).
    link: Mutex<Option<Entry>>,
    /// The in-flight ledger, starting at `BIAS + 1` (one live send).
    in_flight: AtomicUsize,
    delivered: AtomicUsize,
}

/// Test-and-set the peer's window slot: true iff this copy is fresh.
fn window_accept(sh: &Shared) -> bool {
    let mut w = sh.window_seen.lock();
    if *w {
        false
    } else {
        *w = true;
        true
    }
}

/// The live in-flight copy arriving at the peer: window accept, ack tail
/// (prepay + delivered-mark, atomically under the links lock), then
/// `packet_processed`.
fn live_copy(sh: &Shared, mutation: Mutation) {
    if !window_accept(sh) {
        // Duplicate live copy: dropped, no ledger action.
        return;
    }
    {
        let mut l = sh.link.lock();
        if let Some(e) = l.as_mut() {
            if e.replayed && mutation != Mutation::NoPrepay {
                // Ack-tail prepay: the scan retired this entry's slot, but
                // this delivery's packet_processed will debit one too.
                sh.in_flight.fetch_add(1, SeqCst);
            }
            e.delivered = true;
        }
    }
    sh.delivered.fetch_add(1, SeqCst);
    sh.in_flight.fetch_sub(1, SeqCst);
}

/// The peer's ack returning: remove the entry it settles. Gated on the
/// delivered mark because an ack exists only after a delivery.
fn ack(sh: &Shared) {
    let mut l = sh.link.lock();
    if l.as_ref().is_some_and(|e| e.delivered) {
        *l = None;
    }
}

/// Snapshot cut racing the ack, then crash + restore: scan-retire, install
/// the snapshot entry replay-marked, re-drive it with its own slot.
fn snapshot_then_restore(sh: &Shared, mutation: Mutation) {
    let snap = *sh.link.lock();
    {
        let mut l = sh.link.lock();
        let scan_hit = match (&*l, mutation) {
            (Some(e), Mutation::ScanRetiresDelivered) => !e.replayed,
            (Some(e), _) => !e.delivered && !e.replayed,
            (None, _) => false,
        };
        if scan_hit {
            sh.in_flight.fetch_sub(1, SeqCst);
        }
        *l = snap.map(|e| Entry {
            replayed: true,
            ..e
        });
    }
    if snap.is_some() {
        // Replay transmission: one channel slot per replayed copy, settled
        // whether the peer dedups it or delivers-then-processes it.
        sh.in_flight.fetch_add(1, SeqCst);
        if window_accept(sh) {
            sh.delivered.fetch_add(1, SeqCst);
        }
        sh.in_flight.fetch_sub(1, SeqCst);
    }
}

fn model(mutation: Mutation) {
    let sh = Arc::new(Shared {
        window_seen: Mutex::named(false, "window"),
        link: Mutex::named(
            Some(Entry {
                delivered: false,
                replayed: false,
            }),
            "link",
        ),
        in_flight: AtomicUsize::named(BIAS + 1, "in_flight"),
        delivered: AtomicUsize::named(0, "delivered"),
    });

    let mk = |name: &str, f: Box<dyn FnOnce() + Send>| thread::spawn_named(name, f);
    let sh1 = Arc::clone(&sh);
    let sh2 = Arc::clone(&sh);
    let sh3 = Arc::clone(&sh);
    let ts = vec![
        mk("copy", Box::new(move || live_copy(&sh1, mutation))),
        mk("ack", Box::new(move || ack(&sh2))),
        mk(
            "restore",
            Box::new(move || snapshot_then_restore(&sh3, mutation)),
        ),
    ];
    for t in ts {
        t.join();
    }

    let delivered = sh.delivered.load(SeqCst);
    let in_flight = sh.in_flight.load(SeqCst);
    assert_eq!(
        delivered, 1,
        "exactly-once broken: message delivered {delivered} times"
    );
    assert_eq!(
        in_flight,
        BIAS,
        "ledger imbalance: in_flight ended {} off its bias",
        in_flight as isize - BIAS as isize
    );
}

/// Explore the protocol under `cfg`.
pub fn check(cfg: Config, mutation: Mutation) -> Result<Stats, Box<Violation>> {
    explore(cfg, move || model(mutation))
}
