//! Model of the reliable layer's acknowledgement and retransmission
//! protocol (`crates/comm/src/chaos.rs` `send` / `rx_accept_am` /
//! `flush_acks` / `progress`, over the state machines of
//! `crates/comm/src/reliable.rs` `PendingAcks` and `LinkTx`, DESIGN §12).
//!
//! One directed link. A sender thread sends seqs 1 and 2; a send that
//! finds nothing outstanding starts the link clock. A receiver thread
//! takes what the wire holds, classifies it through the receive window,
//! notes it in the ack accumulator and, when the note finds the batch due
//! (its oldest seq has waited `ACK_FLUSH`), flushes it. A tick thread
//! advances the clock by one unit, flushes a due batch, and resends an
//! entry past its deadline (`backoff(attempts + 1)` after its last
//! transmission) only on evidence of loss: a *hole* — its seq is below
//! the highest seq an ack retired — or *silence* — it is the oldest entry
//! and the link clock has run `backoff(attempts + 1)`. An entry whose
//! budget is spent is abandoned through the poison claim; when it is the
//! oldest and the clock has run a whole budget, the link is dead and every
//! entry past its deadline is abandoned with it. A flush takes
//! the batch and retires the entries its ranges cover with the
//! accumulator still locked; retiring any is progress: it raises the
//! highest retired seq and restarts the clock.
//!
//! Time is the tick's counter. After the three threads finish, the link
//! runs on for `ROUNDS` rounds on the model's main thread — deliver what
//! the wire holds, tick — with prompt delivery. One fault is chosen up
//! front: none, the first copy of seq 1 lost on the wire, or the first or
//! second ack flush lost; and whether the sender streams one later seq
//! per round (later traffic, whose acks keep restarting the clock) or the
//! link falls quiet. Either way every deadline the protocol can arm for
//! seqs 1 and 2 has passed by the end: that is their quiescence.
//!
//! Invariants:
//! - no seq is retired without the receiver having accepted it;
//! - at quiescence seqs 1 and 2 are each retired or reported lost, never
//!   both.
//!
//! Mutations: [`Mutation::CumulativeAck`] acks from seq 1 up to the
//! highest seq noted, as if acks were cumulative (a range covers a seq the
//! receiver never accepted); [`Mutation::NoTickFlush`] leaves the flush to
//! the receiving thread alone, so after a lost flush with no later traffic
//! the re-noted seqs never leave and the sender abandons a delivered seq
//! silently; [`Mutation::HoleRuleOff`] resends on silence only, so a lost
//! seq below retired ones waits on a clock that the later traffic's acks
//! keep restarting.

use crate::explore::{explore, Config, Stats, Violation};
use crate::sched::nondet;
use crate::shadow::{AtomicU64, Mutex};
use crate::sync::Ordering::SeqCst;
use crate::thread;
use std::collections::VecDeque;
use std::sync::Arc;

/// Known-bad variants of the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// The protocol as shipped.
    None,
    /// A flush acks `1..=highest noted` instead of the noted ranges.
    CumulativeAck,
    /// The tick never flushes: a batch leaves only when a later note on
    /// the receiving thread finds it due.
    NoTickFlush,
    /// An overdue entry is resent on silence only, never for a hole.
    HoleRuleOff,
}

/// The one fault of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    None,
    /// The first transmission of seq 1 never reaches the receiver.
    DropFirstCopyOfSeq1,
    /// The `n`-th ack flush (1-based) is lost.
    LoseFlush(u64),
}

/// Retransmissions before an entry is abandoned.
const MAX_RETRIES: u32 = 1;
/// Ticks the oldest seq of a batch waits before the batch is sent.
const ACK_FLUSH: u64 = 1;
/// Rounds the link runs after the threads finish.
const ROUNDS: u64 = 8;

/// Ticks before retransmission `attempt` (1-based): 2, 4, 4, ...
fn backoff(attempt: u32) -> u64 {
    (1u64 << attempt).min(4)
}

/// Ticks one entry takes to spend its retries, the last wait included.
fn budget() -> u64 {
    (1..=MAX_RETRIES + 1).map(backoff).sum()
}

fn bit(seq: u64) -> u64 {
    1 << seq
}

/// A sent, unacknowledged seq (`reliable::Unacked`).
struct Entry {
    seq: u64,
    attempts: u32,
    next_retry: u64,
}

/// Sender-side link state (`reliable::LinkTx`).
#[derive(Default)]
struct Tx {
    unacked: Vec<Entry>,
    retired_high: u64,
    clock: Option<u64>,
}

/// Receiver-side ack accumulator (`reliable::PendingAcks`), as a bit set.
#[derive(Default)]
struct Acks {
    noted: u64,
    oldest: Option<u64>,
    flushes: u64,
}

impl Acks {
    fn due(&self, now: u64) -> bool {
        self.oldest.is_some_and(|t| now >= t + ACK_FLUSH)
    }
}

/// Inclusive ranges of the seqs set in `bits`, ascending.
fn ranges_of(bits: u64) -> Vec<(u64, u64)> {
    let mut out: Vec<(u64, u64)> = Vec::new();
    for seq in (0..64).filter(|s| bits & bit(*s) != 0) {
        match out.last_mut() {
            Some(r) if r.1 + 1 == seq => r.1 = seq,
            _ => out.push((seq, seq)),
        }
    }
    out
}

struct Shared {
    mutation: Mutation,
    fault: Fault,
    now: AtomicU64,
    tx: Mutex<Tx>,
    wire: Mutex<VecDeque<u64>>,
    /// The receive window: seqs accepted or claimed by the poison path.
    window: Mutex<u64>,
    acks: Mutex<Acks>,
    /// Ghost state for the invariants (not part of the protocol): seqs the
    /// receiver accepted, seqs an ack retired, seqs reported lost.
    accepted: std::sync::atomic::AtomicU64,
    retired: std::sync::atomic::AtomicU64,
    lost: std::sync::atomic::AtomicU64,
}

impl Shared {
    fn ghost(&self, g: &std::sync::atomic::AtomicU64) -> u64 {
        g.load(SeqCst)
    }

    /// `ChaosState::send`: hold the entry, then transmit.
    fn send(&self, seq: u64) {
        let now = self.now.load(SeqCst);
        {
            let mut tx = self.tx.lock();
            if tx.unacked.is_empty() {
                tx.clock = Some(now);
            }
            tx.unacked.push(Entry {
                seq,
                attempts: 0,
                next_retry: now + backoff(1),
            });
        }
        self.transmit(seq, 0);
    }

    fn transmit(&self, seq: u64, attempt: u32) {
        if self.fault == Fault::DropFirstCopyOfSeq1 && seq == 1 && attempt == 0 {
            return;
        }
        self.wire.lock().push_back(seq);
    }

    /// `rx_accept_am`: classify through the window, note for the ack,
    /// and flush the batch if the note finds it due.
    fn receive(&self, seq: u64) {
        let fresh = {
            let mut w = self.window.lock();
            let fresh = *w & bit(seq) == 0;
            *w |= bit(seq);
            fresh
        };
        if fresh {
            self.accepted.fetch_or(bit(seq), SeqCst);
        }
        let now = self.now.load(SeqCst);
        let due = {
            let mut a = self.acks.lock();
            a.oldest.get_or_insert(now);
            a.noted |= bit(seq);
            a.due(now)
        };
        if due {
            self.flush();
        }
    }

    /// Deliver everything the wire holds.
    fn deliver_all(&self) {
        loop {
            let Some(seq) = self.wire.lock().pop_front() else {
                return;
            };
            self.receive(seq);
        }
    }

    /// `flush_acks`: take the accumulator, roll the flush's loss, retire
    /// what its ranges cover (`LinkTx::retire`) before releasing it.
    fn flush(&self) {
        let mut a = self.acks.lock();
        if a.noted == 0 {
            return;
        }
        a.flushes += 1;
        a.oldest = None;
        let (noted, ordinal) = (std::mem::take(&mut a.noted), a.flushes);
        if self.fault == Fault::LoseFlush(ordinal) {
            return;
        }
        let ranges = match self.mutation {
            Mutation::CumulativeAck => vec![(1, 63 - u64::from(noted.leading_zeros()))],
            _ => ranges_of(noted),
        };
        let now = self.now.load(SeqCst);
        let mut tx = self.tx.lock();
        for (first, last) in ranges {
            for seq in first..=last {
                let Some(i) = tx.unacked.iter().position(|e| e.seq == seq) else {
                    continue;
                };
                tx.unacked.remove(i);
                tx.retired_high = tx.retired_high.max(seq);
                tx.clock = Some(now);
                assert!(
                    self.ghost(&self.accepted) & bit(seq) != 0,
                    "seq {seq} retired without the receiver having accepted it"
                );
                self.retired.fetch_or(bit(seq), SeqCst);
            }
        }
    }

    /// One progress pass: advance the clock, flush a due batch, resend
    /// overdue entries that show evidence of loss, abandon exhausted ones.
    fn tick(&self) {
        let now = self.now.fetch_add(1, SeqCst) + 1;
        if self.mutation != Mutation::NoTickFlush && self.acks.lock().due(now) {
            self.flush();
        }
        let (mut resend, mut give_up) = (Vec::new(), Vec::new());
        {
            let mut tx = self.tx.lock();
            let (high, clock) = (tx.retired_high, tx.clock);
            let oldest = tx.unacked.iter().map(|e| e.seq).min();
            let dead =
                tx.unacked.iter().any(|e| {
                    Some(e.seq) == oldest && e.attempts >= MAX_RETRIES && now >= e.next_retry
                }) && clock.is_none_or(|c| now >= c + budget());
            tx.unacked.retain_mut(|e| {
                if now < e.next_retry {
                    return true;
                }
                if dead || e.attempts >= MAX_RETRIES {
                    give_up.push(e.seq);
                    return false;
                }
                let hole = e.seq < high && self.mutation != Mutation::HoleRuleOff;
                let silent = clock
                    .is_none_or(|c| oldest == Some(e.seq) && now >= c + backoff(e.attempts + 1));
                if hole || silent {
                    e.attempts += 1;
                    e.next_retry = now + backoff(e.attempts + 1);
                    resend.push((e.seq, e.attempts));
                }
                true
            });
        }
        for (seq, attempt) in resend.drain(..) {
            self.transmit(seq, attempt);
        }
        for seq in give_up.drain(..) {
            // The poison claim: the window arbitrates delivered vs lost.
            let claimed = {
                let mut w = self.window.lock();
                let claimed = *w & bit(seq) == 0;
                *w |= bit(seq);
                claimed
            };
            if claimed {
                self.lost.fetch_or(bit(seq), SeqCst);
            }
        }
    }
}

fn model(mutation: Mutation) {
    let fault = [
        Fault::None,
        Fault::DropFirstCopyOfSeq1,
        Fault::LoseFlush(1),
        Fault::LoseFlush(2),
    ][nondet(4) as usize];
    let later_traffic = nondet(2) == 1;
    let ghost = || std::sync::atomic::AtomicU64::new(0);
    let sh = Arc::new(Shared {
        mutation,
        fault,
        now: AtomicU64::named(0, "now"),
        tx: Mutex::named(Tx::default(), "tx"),
        wire: Mutex::named(VecDeque::new(), "wire"),
        window: Mutex::named(0, "window"),
        acks: Mutex::named(Acks::default(), "acks"),
        accepted: ghost(),
        retired: ghost(),
        lost: ghost(),
    });
    let mk = |name: &str, f: Box<dyn FnOnce(&Shared) + Send>| {
        let sh = Arc::clone(&sh);
        thread::spawn_named(name, move || f(&sh))
    };
    let ts = vec![
        mk(
            "sender",
            Box::new(|sh| {
                sh.send(1);
                sh.send(2);
            }),
        ),
        mk(
            "receiver",
            Box::new(|sh| {
                for _ in 0..2 {
                    let Some(seq) = sh.wire.lock().pop_front() else {
                        continue;
                    };
                    sh.receive(seq);
                }
            }),
        ),
        mk("tick", Box::new(|sh| sh.tick())),
    ];
    for t in ts {
        t.join();
    }
    for round in 0..ROUNDS {
        if later_traffic {
            sh.send(3 + round);
        }
        sh.deliver_all();
        sh.tick();
    }

    let (retired, lost) = (sh.ghost(&sh.retired), sh.ghost(&sh.lost));
    for seq in [1, 2] {
        let (r, l) = (retired & bit(seq) != 0, lost & bit(seq) != 0);
        assert!(
            r || l,
            "seq {seq} neither retired nor reported lost at quiescence ({fault:?}, \
             later traffic {later_traffic})"
        );
        assert!(!(r && l), "seq {seq} both retired and reported lost");
    }
}

/// Explore the protocol under `cfg`.
pub fn check(cfg: Config, mutation: Mutation) -> Result<Stats, Box<Violation>> {
    explore(cfg, move || model(mutation))
}
