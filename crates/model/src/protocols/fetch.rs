//! Model of a parked cross-process splitmd fetch racing the termination
//! probe (`crates/comm/src/fabric.rs` `RemoteFetch::park` / `rma_complete`
//! / `rma_sweep_expired` / `rma_abandon_parked` against `observe_local`,
//! DESIGN §9).
//!
//! One metadata AM reaches a rank's delivery thread, which parks the fetch
//! of its payload and moves on. Three things can end the fetch: the owner's
//! response re-entering the packet channel, the wait loop's sweep queueing
//! an expiry, and shutdown draining the waiter table — and the first two
//! can both be in the channel at once. Meanwhile the coordinator keeps
//! reading the rank's in-flight ledger and declares termination after two
//! idle observations. Invariants over all interleavings:
//! - `TermDone` is never sent while the completion is parked: the fetch
//!   takes its in-flight slot while the AM that asked for it still holds
//!   its own, and gives it up only after the completion ran;
//! - the completion runs exactly once, whichever of response, timeout and
//!   shutdown get to it, and the ledger returns to its starting bias.
//!
//! Mutations: [`Mutation::SlotAfterAmRetired`] takes the fetch's slot only
//! after the AM's was retired (the ledger reads drained in between, with
//! the completion already parked); [`Mutation::CompleteWithoutClaim`] runs
//! the completion on every packet that finds a waiter, without taking it
//! out of the table first (response and expiry both complete it).

use crate::explore::{explore, Config, Stats, Violation};
use crate::shadow::{channel, AtomicBool, AtomicUsize, Mutex, Sender};
use crate::sync::Ordering::SeqCst;
use crate::thread;
use std::sync::Arc;

/// Known-bad variants of the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// The correct protocol.
    None,
    /// The parked fetch takes its in-flight slot after the metadata AM's
    /// slot was retired instead of before.
    SlotAfterAmRetired,
    /// A packet that finds the fetch parked runs its completion but leaves
    /// the waiter in the table.
    CompleteWithoutClaim,
}

/// The ledger starts biased so a double retire shows up as a missing
/// credit instead of an unsigned underflow.
const BIAS: usize = 4;

/// What travels through the rank's packet channel.
enum Pkt {
    /// The splitmd metadata AM.
    Am,
    /// `Packet::Rma` with the owner's answer.
    Data,
    /// `Packet::Rma` with the sweep's expiry.
    Expired,
    Shutdown,
}

struct Shared {
    /// `Fabric::in_flight`, starting at `BIAS + 1`: `remote_rx` took the
    /// AM's slot when it enqueued it.
    in_flight: AtomicUsize,
    /// `rma_waiters` for the one modeled request: `Some(expiring)`.
    waiter: Mutex<Option<bool>>,
    /// Ground truth for the first invariant: a completion exists and has
    /// not run yet.
    parked: AtomicBool,
    completions: AtomicUsize,
}

/// `RemoteFetch::park` followed by the AM's `packet_processed`.
fn park(sh: &Shared, req: &Sender<()>, mutation: Mutation) {
    let late_slot = mutation == Mutation::SlotAfterAmRetired;
    if !late_slot {
        sh.in_flight.fetch_add(1, SeqCst);
    }
    *sh.waiter.lock() = Some(false);
    sh.parked.store(true, SeqCst);
    req.send(());
    sh.in_flight.fetch_sub(1, SeqCst);
    if late_slot {
        sh.in_flight.fetch_add(1, SeqCst);
    }
}

/// `rma_complete` / `rma_abandon_parked`: claim the waiter, run the
/// completion outside the lock, retire the fetch's slot.
fn complete(sh: &Shared, mutation: Mutation) {
    let claimed = {
        let mut w = sh.waiter.lock();
        match mutation {
            Mutation::CompleteWithoutClaim => w.is_some(),
            _ => w.take().is_some(),
        }
    };
    if claimed {
        sh.completions.fetch_add(1, SeqCst);
        sh.parked.store(false, SeqCst);
        sh.in_flight.fetch_sub(1, SeqCst);
    }
}

fn model(mutation: Mutation) {
    let sh = Arc::new(Shared {
        in_flight: AtomicUsize::named(BIAS + 1, "in_flight"),
        waiter: Mutex::named(None, "rma_waiters"),
        parked: AtomicBool::named(false, "parked"),
        completions: AtomicUsize::named(0, "completions"),
    });
    let (pkt_tx, pkt_rx) = channel::<Pkt>();
    let (req_tx, req_rx) = channel::<()>();
    pkt_tx.send(Pkt::Am);

    // The rank's one delivery thread.
    let delivery = {
        let sh = Arc::clone(&sh);
        thread::spawn_named("delivery", move || {
            while let Ok(pkt) = pkt_rx.recv() {
                match pkt {
                    Pkt::Am => park(&sh, &req_tx, mutation),
                    Pkt::Data | Pkt::Expired => complete(&sh, mutation),
                    Pkt::Shutdown => break,
                }
            }
            // `rma_abandon_parked` as the loop ends.
            complete(&sh, Mutation::None);
        })
    };

    // The owner's transport thread plus this rank's reader: `RmaReq` in,
    // `RmaResp` re-entering the packet channel.
    let owner = {
        let tx = pkt_tx.clone();
        thread::spawn_named("owner", move || {
            if req_rx.recv().is_ok() {
                tx.send(Pkt::Data);
            }
        })
    };

    // Rank 0's wait loop: sweep (the deadline is already past, so timeout
    // races the response), probe, and finally give up and shut down.
    let coordinator = {
        let sh = Arc::clone(&sh);
        thread::spawn_named("wait_loop", move || {
            let expire = {
                let mut w = sh.waiter.lock();
                match w.as_mut() {
                    Some(expiring) if !*expiring => {
                        *expiring = true;
                        true
                    }
                    _ => false,
                }
            };
            if expire {
                pkt_tx.send(Pkt::Expired);
            }
            let idle = |sh: &Shared| sh.in_flight.load(SeqCst) == BIAS;
            if idle(&sh) && idle(&sh) {
                assert!(
                    !sh.parked.load(SeqCst),
                    "TermDone sent while a completion is parked"
                );
            }
            pkt_tx.send(Pkt::Shutdown);
        })
    };

    coordinator.join();
    owner.join();
    delivery.join();

    let completions = sh.completions.load(SeqCst);
    let in_flight = sh.in_flight.load(SeqCst);
    assert_eq!(
        completions, 1,
        "exactly-once broken: completion ran {completions} times"
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
