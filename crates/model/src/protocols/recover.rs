//! Model of the checkpoint/restore in-flight ledger
//! (`crates/comm/src/ledger.rs`, `recover.rs` `restore_rank`, `chaos.rs`
//! `rx_accept_am` and the retransmit scan, DESIGN §13).
//!
//! Two ranks: `r` is killed and restored from a snapshot taken before the
//! run below starts; `f` stays up. Two logical messages:
//! - `a`, `f → r`: sent live while `r` dies. Its first copy is the packet
//!   the kill script fires on, a duplicate may follow it (and land after
//!   the restore), and `f` retransmits it once `r` is back. The restore
//!   replays it from `f`'s log.
//! - `c`, `r → f`: sent before the snapshot and still unacked in it. Its
//!   live copy, under `r`'s old incarnation, races the restore's surgery
//!   into `f`; the snapshot's entry comes back and its retransmission,
//!   under the new incarnation (maybe duplicated), meets the live original
//!   in `f`'s content log.
//!
//! A nondeterministic second kill of `r` fires on the reception of the
//! replayed copy of `a`: a kill during replay, and a second restore.
//!
//! Invariants: `r` processes `a` exactly once in its final timeline (a
//! restore's matching-table import rolls back what it processed), `f`
//! processes `c` exactly once, and the ledger balances.
//!
//! Two ledgers run the same schedule:
//! - [`Ledger::Shipped`], the one shared counter and its four rules: the
//!   restore scan retires undelivered entries and marks the peers' ones
//!   replayed, each replayed transmission carries a slot of its own, a
//!   live copy finding its entry replayed prepays, and a content-log hit
//!   settles. Replayed copies pass the kill latch and are enqueued before
//!   it clears. It fails: the second kill lets the first replay's copy be
//!   processed on top of the second restore's import, and the copy the
//!   second restore replays is fresh in the window it installs (exactly
//!   once broken; the counter itself balances).
//! - [`Ledger::PerLink`], the shipped one: per link, monotone `issued` and
//!   `settled` counts. A restore re-states the rows: a row into `r` takes
//!   its snapshot's settled count; a row out of `r` closes the dead
//!   incarnation at what the peer settled and issues one send per restored
//!   entry. A packet accepted under a row's previous statement does not
//!   settle it. A killed rank accepts nothing, replays included, and the
//!   restore replays after clearing the latch.
//!
//! Mutations of the per-link ledger: [`Mutation::RestoreByDelta`] retires
//! undelivered entries instead of re-stating (the shipped scan on the new
//! counts); [`Mutation::DedupSettles`] lets a window dedup hit settle.

use crate::explore::{explore, Config, Stats, Violation};
use crate::sched::nondet;
use crate::shadow::{channel, AtomicBool, AtomicUsize, Mutex, Receiver, Sender};
use crate::sync::Ordering::SeqCst;
use crate::thread;
use std::sync::Arc;

/// Which ledger the model runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ledger {
    /// The shared counter and its four recovery rules, as shipped until
    /// the per-link ledger replaced them.
    Shipped,
    /// Per-link monotone counts, re-stated on restore.
    PerLink,
}

/// Known-bad variants of the per-link ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// The protocol as written.
    None,
    /// The restore adjusts the counts by delta (settles every undelivered
    /// entry it discards) instead of re-stating the rows.
    RestoreByDelta,
    /// A window dedup hit settles its row.
    DedupSettles,
}

/// The shared counter starts biased so a double debit reads as a missing
/// credit instead of an unsigned wrap.
const BIAS: usize = 8;

/// Row of `a` (`f → r`) and of `c` (`r → f`).
const A: usize = 0;
const C: usize = 1;
const ROW_NAMES: [&str; 2] = ["f→r", "r→f"];

/// One physical copy: the sender incarnation it carries and whether it is
/// a replayed copy (`REPLAY_BIT`).
#[derive(Clone, Copy)]
struct Copy {
    inc: usize,
    replay: bool,
}

/// A sender's unacked entry.
#[derive(Clone, Copy)]
struct Entry {
    inc: usize,
    delivered: bool,
    replayed: bool,
}

/// One link's statement: `ledger.rs`'s two counts plus the statement
/// epoch a restore bumps (one word in the real code).
#[derive(Default)]
struct Row {
    issued: usize,
    settled: usize,
    epoch: usize,
}

/// `f`'s receive state for the row from `r`: the incarnation seen, the
/// window slot of `c`'s raw seq, and `c`'s content-log tally. The shipped
/// log banks a token per delivery and spends one per consumption; the
/// per-link one counts deliveries and the copies the sender's current
/// incarnation has accounted for (reset when the incarnation rises).
struct FromR {
    inc: usize,
    seen: bool,
    banked: usize,
    delivered: usize,
    accounted: usize,
}

struct Shared {
    ledger: Ledger,
    mutation: Mutation,
    kills: usize,
    // ---- rank r ----
    killed: AtomicBool,
    /// Receptions at `r` (the kill script's count).
    received: AtomicUsize,
    second_kill_fired: AtomicBool,
    /// `r`'s window slot for `a` (also its classification lock).
    window_r: Mutex<bool>,
    /// Processings of `a` in `r`'s current timeline.
    a_processed: AtomicUsize,
    /// `f`'s unacked entry for `a`.
    entry_a: Mutex<Option<Entry>>,
    // ---- rank f ----
    from_r: Mutex<FromR>,
    c_processed: AtomicUsize,
    /// `r`'s unacked entry for `c`.
    entry_c: Mutex<Option<Entry>>,
    // ---- the ledgers ----
    in_flight: AtomicUsize,
    rows: [Mutex<Row>; 2],
}

impl Shared {
    fn issue(&self, row: usize) {
        match self.ledger {
            Ledger::Shipped => {
                self.in_flight.fetch_add(1, SeqCst);
            }
            Ledger::PerLink => self.rows[row].lock().issued += 1,
        }
    }

    /// Settle one message on `row` under the statement `epoch` (`None`:
    /// the caller holds the lock a restore re-states the row under).
    fn settle(&self, row: usize, epoch: Option<usize>) {
        match self.ledger {
            Ledger::Shipped => {
                self.in_flight.fetch_sub(1, SeqCst);
            }
            Ledger::PerLink => {
                let mut r = self.rows[row].lock();
                if epoch.is_some_and(|e| e != r.epoch) {
                    return; // accepted under the previous statement
                }
                assert!(
                    r.settled < r.issued,
                    "settled past issued on {} (TTG048)",
                    ROW_NAMES[row]
                );
                r.settled += 1;
            }
        }
    }

    fn epoch(&self, row: usize) -> usize {
        self.rows[row].lock().epoch
    }
}

/// `r`'s comm thread: the kill script, classification, processing, ack.
fn rank_r(sh: &Shared, chan: Receiver<Copy>, kill: Sender<()>) {
    while let Ok(copy) = chan.recv() {
        let n = sh.received.fetch_add(1, SeqCst) + 1;
        let second = copy.replay && sh.kills == 2 && !sh.second_kill_fired.swap(true, SeqCst);
        if n == 1 || second {
            sh.killed.store(true, SeqCst);
            kill.send(());
        }
        let killed = sh.killed.load(SeqCst);
        let epoch = {
            let mut w = sh.window_r.lock();
            match sh.ledger {
                Ledger::Shipped if killed && !copy.replay => continue,
                Ledger::PerLink if killed => continue,
                _ => {}
            }
            if *w {
                match sh.ledger {
                    Ledger::Shipped if copy.replay => sh.settle(A, None),
                    Ledger::PerLink if sh.mutation == Mutation::DedupSettles => sh.settle(A, None),
                    _ => {}
                }
                continue;
            }
            *w = true;
            if let Some(e) = sh.entry_a.lock().as_mut() {
                if sh.ledger == Ledger::Shipped && !copy.replay && e.replayed {
                    sh.in_flight.fetch_add(1, SeqCst); // the ack-tail prepay
                }
                e.delivered = true;
            }
            sh.epoch(A)
        };
        sh.a_processed.fetch_add(1, SeqCst);
        sh.settle(A, Some(epoch));
        let mut e = sh.entry_a.lock();
        if e.is_some_and(|e| e.delivered) {
            *e = None;
        }
    }
}

/// `f`'s comm thread, for the copies of `c`.
fn rank_f(sh: &Shared, chan: Receiver<Copy>) {
    while let Ok(copy) = chan.recv() {
        let epoch = {
            let mut fr = sh.from_r.lock();
            let replay_slot = sh.ledger == Ledger::Shipped && copy.replay;
            if copy.inc < fr.inc {
                if replay_slot {
                    sh.settle(C, None);
                }
                continue; // stale: the dead incarnation's seq space
            }
            if fr.seen {
                if replay_slot || sh.mutation == Mutation::DedupSettles {
                    sh.settle(C, None);
                }
                continue;
            }
            fr.seen = true;
            let mut entry = sh.entry_c.lock();
            let mine = entry.as_mut().filter(|e| e.inc == copy.inc);
            let hit = match sh.ledger {
                Ledger::Shipped => fr.inc > 0 && fr.banked > 0,
                Ledger::PerLink => fr.accounted < fr.delivered,
            };
            if hit {
                // A content-log hit: consumed, one terminal outcome.
                fr.banked = fr.banked.saturating_sub(1);
                fr.accounted += 1;
                if let Some(e) = mine {
                    e.delivered = true;
                }
                drop(entry);
                sh.settle(C, None);
                continue;
            }
            fr.banked += 1;
            fr.delivered += 1;
            fr.accounted += 1;
            if let Some(e) = mine {
                if sh.ledger == Ledger::Shipped && !copy.replay && e.replayed {
                    sh.in_flight.fetch_add(1, SeqCst);
                }
                e.delivered = true;
            }
            sh.epoch(C)
        };
        sh.c_processed.fetch_add(1, SeqCst);
        sh.settle(C, Some(epoch));
        let mut e = sh.entry_c.lock();
        if e.is_some_and(|e| e.delivered) {
            *e = None;
        }
    }
}

/// `f`'s sending side for `a`: the live send (maybe duplicated), then one
/// retransmission once `r` is back, if `a` is still unacked.
fn peer(sh: &Shared, to_r: Sender<Copy>, restored: Receiver<()>) {
    sh.issue(A);
    *sh.entry_a.lock() = Some(Entry {
        inc: 0,
        delivered: false,
        replayed: false,
    });
    let live = Copy {
        inc: 0,
        replay: false,
    };
    to_r.send(live);
    if nondet(2) == 1 {
        to_r.send(live);
    }
    let _ = restored.recv();
    let marked = match *sh.entry_a.lock() {
        None => return,
        Some(e) => e.replayed,
    };
    match sh.ledger {
        Ledger::Shipped if marked => {
            // A replay-marked entry retransmits with the marker and a slot
            // of its own, past fault injection.
            sh.in_flight.fetch_add(1, SeqCst);
            to_r.send(Copy {
                inc: 0,
                replay: true,
            });
        }
        _ => to_r.send(live),
    }
}

/// The recovery watchdog: one restore per kill.
fn watchdog(
    sh: &Shared,
    kills: Receiver<()>,
    to_r: Sender<Copy>,
    to_f: Sender<Copy>,
    restored: Sender<()>,
) {
    for k in 1..=sh.kills {
        if kills.recv().is_err() {
            return;
        }
        // The matching tables come back from the snapshot first.
        sh.a_processed.store(0, SeqCst);
        match sh.ledger {
            Ledger::Shipped => restore_shipped(sh, k, &to_r, &to_f),
            Ledger::PerLink => restore_per_link(sh, k, &to_r, &to_f),
        }
        if k == 1 {
            restored.send(());
        }
    }
}

fn restore_shipped(sh: &Shared, k: usize, to_r: &Sender<Copy>, to_f: &Sender<Copy>) {
    {
        // Surgery on `f`'s row from `r`, and the scan of `r`'s own row.
        let mut fr = sh.from_r.lock();
        fr.inc = k;
        fr.seen = false;
        let mut e = sh.entry_c.lock();
        if e.is_some_and(|e| !e.delivered && !e.replayed) {
            sh.in_flight.fetch_sub(1, SeqCst);
        }
        *e = Some(Entry {
            inc: k,
            delivered: false,
            replayed: true,
        });
    }
    *sh.window_r.lock() = false;
    {
        let mut e = sh.entry_a.lock();
        if let Some(e) = e.as_mut().filter(|e| !e.delivered && !e.replayed) {
            e.replayed = true;
            sh.in_flight.fetch_sub(1, SeqCst);
        }
    }
    // Replay while the latch still holds, then clear it.
    sh.in_flight.fetch_add(1, SeqCst);
    to_r.send(Copy {
        inc: 0,
        replay: true,
    });
    sh.killed.store(false, SeqCst);
    // The scan's retransmission of the restored entry.
    sh.in_flight.fetch_add(1, SeqCst);
    to_f.send(Copy {
        inc: k,
        replay: true,
    });
}

fn restore_per_link(sh: &Shared, k: usize, to_r: &Sender<Copy>, to_f: &Sender<Copy>) {
    let by_delta = sh.mutation == Mutation::RestoreByDelta;
    {
        // Row r→f, under `f`'s classification lock: close the dead
        // incarnation at what `f` settled; the snapshot's entry is the new
        // incarnation's one send.
        let mut fr = sh.from_r.lock();
        fr.inc = k;
        fr.seen = false;
        fr.accounted = 0;
        let mut e = sh.entry_c.lock();
        let mut row = sh.rows[C].lock();
        if by_delta {
            if e.is_some_and(|e| !e.delivered) {
                row.settled += 1;
            }
        } else {
            row.issued = row.settled + 1;
            row.epoch += 1;
        }
        *e = Some(Entry {
            inc: k,
            delivered: false,
            replayed: false,
        });
    }
    {
        // Row f→r, under `r`'s classification lock: the snapshot's
        // settled count (nothing of `a` was settled at the cut).
        let mut w = sh.window_r.lock();
        *w = false;
        let mut row = sh.rows[A].lock();
        if by_delta {
            if sh.entry_a.lock().is_some_and(|e| !e.delivered) {
                row.settled += 1;
            }
        } else {
            row.settled = 0;
            row.epoch += 1;
        }
    }
    sh.killed.store(false, SeqCst);
    to_r.send(Copy {
        inc: 0,
        replay: true,
    });
    // The scan retransmits the restored entry like any other: faults
    // apply, so it may arrive twice.
    let copy = Copy {
        inc: k,
        replay: false,
    };
    to_f.send(copy);
    if nondet(2) == 1 {
        to_f.send(copy);
    }
}

fn model(ledger: Ledger, mutation: Mutation) {
    let kills = 1 + nondet(2) as usize;
    let sh = Arc::new(Shared {
        ledger,
        mutation,
        kills,
        killed: AtomicBool::named(false, "killed"),
        received: AtomicUsize::named(0, "received"),
        second_kill_fired: AtomicBool::named(false, "second_kill"),
        window_r: Mutex::named(false, "window_r"),
        a_processed: AtomicUsize::named(0, "a_processed"),
        entry_a: Mutex::named(None, "entry_a"),
        from_r: Mutex::named(
            FromR {
                inc: 0,
                seen: false,
                banked: 0,
                delivered: 0,
                accounted: 0,
            },
            "from_r",
        ),
        c_processed: AtomicUsize::named(0, "c_processed"),
        // `c` was sent before the snapshot: issued, unacked, one live copy
        // on its way to `f`.
        entry_c: Mutex::named(
            Some(Entry {
                inc: 0,
                delivered: false,
                replayed: false,
            }),
            "entry_c",
        ),
        in_flight: AtomicUsize::named(BIAS + 1, "in_flight"),
        rows: [
            Mutex::named(Row::default(), "row_a"),
            Mutex::named(
                Row {
                    issued: 1,
                    ..Row::default()
                },
                "row_c",
            ),
        ],
    });
    let (to_r, chan_r) = channel();
    let (to_f, chan_f) = channel();
    let (kill_tx, kill_rx) = channel();
    let (restored_tx, restored_rx) = channel();
    to_f.send(Copy {
        inc: 0,
        replay: false,
    });
    let to_r2 = to_r.clone();
    let spawn = |name: &str, f: Box<dyn FnOnce(&Shared) + Send>| {
        let sh = Arc::clone(&sh);
        thread::spawn_named(name, move || f(&sh))
    };
    let ts = vec![
        spawn("r", Box::new(move |sh| rank_r(sh, chan_r, kill_tx))),
        spawn("f", Box::new(move |sh| rank_f(sh, chan_f))),
        spawn("peer", Box::new(move |sh| peer(sh, to_r, restored_rx))),
        spawn(
            "watchdog",
            Box::new(move |sh| watchdog(sh, kill_rx, to_r2, to_f, restored_tx)),
        ),
    ];
    for t in ts {
        t.join();
    }

    let a = sh.a_processed.load(SeqCst);
    let c = sh.c_processed.load(SeqCst);
    assert_eq!(a, 1, "exactly-once broken: r processed a {a} times");
    assert_eq!(c, 1, "exactly-once broken: f processed c {c} times");
    match ledger {
        Ledger::Shipped => {
            let left = sh.in_flight.load(SeqCst);
            assert_eq!(
                left,
                BIAS,
                "ledger imbalance: in_flight ended {} off its bias",
                left as isize - BIAS as isize
            );
        }
        Ledger::PerLink => {
            for (i, row) in sh.rows.iter().enumerate() {
                let row = row.lock();
                assert_eq!(
                    row.issued, row.settled,
                    "ledger imbalance on {}: issued {} settled {}",
                    ROW_NAMES[i], row.issued, row.settled
                );
            }
        }
    }
}

/// Explore `ledger` (with `mutation`, for the per-link one) under `cfg`.
pub fn check(cfg: Config, ledger: Ledger, mutation: Mutation) -> Result<Stats, Box<Violation>> {
    explore(cfg, move || model(ledger, mutation))
}
