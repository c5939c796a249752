//! Model of the coordinated rollback (DESIGN §13): the pause gate, the
//! global cut and the rollback that restores every rank from it
//! (`crates/comm/src/recover.rs`, `Executor::wait`), and the one global
//! epoch that fences pre-rollback copies (`crates/comm/src/chaos.rs`
//! `rx_accept` and `apply_ack_ranges`).
//!
//! Two ranks over the reliable layer, one logical message into each:
//! - `x`, into rank 1, is in flight at the start: issued, unacked, one copy
//!   on the wire. It stands for a seed, which a rollback to no cut
//!   re-injects.
//! - `y`, into rank 0, is sent by rank 1's task when rank 1 processes `x`.
//!
//! Each rank's delivery thread takes a copy off its wire and passes the
//! pause gate. A killed rank receives nothing. Otherwise the thread counts
//! the reception (the kill script), drops the copy if that killed its rank
//! or the copy carries another epoch, and classifies it through its
//! window. A fresh copy is processed and settles
//! its ledger row. Every copy not dropped is acked, and the ack carries the
//! epoch. A reader thread applies acks at the sender under the link lock
//! and drops another epoch's.
//!
//! The coordinator takes the cut and rolls back. For either it raises the
//! gate and waits until no delivery thread is inside. A cut then exports
//! every rank. A rollback bumps the epoch, imports every rank from the
//! cut (or from the start, when no cut was taken), clears the kill latch
//! and re-arms what the cut held unacked. Then the gate is lowered. Once
//! the threads are done, the main thread runs the fabric to quiescence one
//! step at a time: the coordinator's check, deliveries, acks, and a
//! retransmission of whatever is still unacked.
//!
//! Choices made up front:
//! - whether a cut is taken: never, at the start, or once rank 1's fresh
//!   accept makes it due;
//! - the reception the kill fires on: rank 1's second, a duplicate of `x`
//!   right at a cut commit, or rank 0's first;
//! - whether the first transmission of each message is duplicated;
//! - whether rank 1 is killed a second time, on its first reception in the
//!   re-execution after the first rollback.
//!
//! Invariants: in the final timeline rank 1 processes `x` once and rank 0
//! processes `y` once, no settle passes its row's issued count (TTG048),
//! and both rows balance.
//!
//! Mutations: [`Mutation::Unpaused`] lets rank 1's delivery thread ignore
//! the gate; [`Mutation::DedupSettles`] lets a window dedup hit settle its
//! row; [`Mutation::NoFence`] takes copies and acks of another epoch as
//! current.

use crate::explore::{explore, Config, Stats, Violation};
use crate::sched::nondet;
use crate::shadow::{AtomicBool, AtomicU64, Condvar, Mutex};
use crate::sync::Ordering::SeqCst;
use crate::thread;
use std::collections::VecDeque;
use std::sync::Arc;

/// Known-bad variants of the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// The protocol as shipped.
    None,
    /// Rank 1's delivery thread does not stop at the gate.
    Unpaused,
    /// A window dedup hit settles its row.
    DedupSettles,
    /// No epoch fence: a copy or an ack of another epoch counts.
    NoFence,
}

/// When the cut is taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CutAt {
    Never,
    Start,
    Due,
}

/// Rounds the main thread runs once the threads are done.
const ROUNDS: usize = 4;
/// Copies a delivery thread takes, and acks the reader applies, while
/// the coordinator runs.
const STEPS: usize = 2;

/// The state of the link into one rank that a cut holds.
#[derive(Clone, Copy, Default)]
struct Link {
    /// The sender's entry is unacked (`LinkTx::unacked`).
    unacked: bool,
    /// The receiver's window has seen the one seq.
    seen: bool,
    /// Processings by the receiver in the current timeline (its matching
    /// tables).
    processed: usize,
    /// The receiving rank's receptions (the kill script's count).
    received: usize,
    /// The ledger row.
    issued: usize,
    settled: usize,
}

/// Where the run starts, and what a rollback to no cut restores: `x` is
/// issued and unacked.
fn start() -> [Link; 2] {
    let x = Link {
        unacked: true,
        issued: 1,
        ..Link::default()
    };
    [Link::default(), x]
}

#[derive(Default)]
struct Gate {
    raised: bool,
    inside: usize,
}

struct Shared {
    mutation: Mutation,
    cut_at: CutAt,
    /// The kill script: (rank, reception).
    kill: (usize, usize),
    dup: bool,
    kill_again: bool,
    epoch: AtomicU64,
    gate: Mutex<Gate>,
    gate_cv: Condvar,
    /// Per receiving rank: its link's state (one lock: a rank's window,
    /// tables and ledger row change together at a packet boundary).
    links: [Mutex<Link>; 2],
    /// Per receiving rank: data copies on the wire into it (their epochs).
    wires: [Mutex<VecDeque<u64>>; 2],
    /// Per receiving rank: acks on the wire back to its sender.
    acks: [Mutex<VecDeque<u64>>; 2],
    killed: [AtomicBool; 2],
    kill_fired: AtomicBool,
    second_fired: AtomicBool,
    cut_due: AtomicBool,
    cut: Mutex<Option<[Link; 2]>>,
    rollbacks: AtomicU64,
    /// Transmissions of each message so far (the first may be duplicated).
    transmissions: [AtomicU64; 2],
}

impl Shared {
    fn fence(&self, epoch: u64) -> bool {
        self.mutation != Mutation::NoFence && epoch != self.epoch.load(SeqCst)
    }

    /// One transmission toward rank `to`, subject to the faults.
    fn transmit(&self, to: usize) {
        if self.killed[to].load(SeqCst) || self.killed[1 - to].load(SeqCst) {
            return;
        }
        let first = self.transmissions[to].fetch_add(1, SeqCst) == 0;
        let epoch = self.epoch.load(SeqCst);
        let mut wire = self.wires[to].lock();
        wire.push_back(epoch);
        if first && self.dup {
            wire.push_back(epoch);
        }
    }

    fn enter(&self, r: usize) {
        if r == 1 && self.mutation == Mutation::Unpaused {
            return;
        }
        let mut g = self.gate.lock();
        while g.raised {
            self.gate_cv.wait(&mut g);
        }
        g.inside += 1;
    }

    fn leave(&self, r: usize) {
        if r == 1 && self.mutation == Mutation::Unpaused {
            return;
        }
        self.gate.lock().inside -= 1;
        self.gate_cv.notify_all();
    }

    /// Rank `r`'s delivery thread takes one copy; `false` when its wire
    /// is empty.
    fn deliver(&self, r: usize) -> bool {
        let Some(epoch) = self.wires[r].lock().pop_front() else {
            return false;
        };
        self.enter(r);
        self.classify(r, epoch);
        self.leave(r);
        true
    }

    fn classify(&self, r: usize, epoch: u64) {
        if self.killed[r].load(SeqCst) {
            return;
        }
        let received = {
            let mut l = self.links[r].lock();
            l.received += 1;
            l.received
        };
        let first_kill = (r, received) == self.kill && !self.kill_fired.swap(true, SeqCst);
        let again = self.kill_again
            && r == 1
            && self.rollbacks.load(SeqCst) == 1
            && !self.second_fired.swap(true, SeqCst);
        if first_kill || again {
            self.killed[r].store(true, SeqCst);
        }
        if self.killed[r].load(SeqCst) || self.fence(epoch) {
            return;
        }
        let fresh = {
            let mut l = self.links[r].lock();
            let fresh = !std::mem::replace(&mut l.seen, true);
            if fresh {
                l.processed += 1;
            }
            fresh
        };
        if fresh && r == 1 {
            // Rank 1's task sends `y`; `x` makes the cut due.
            {
                let mut y = self.links[0].lock();
                y.issued += 1;
                y.unacked = true;
            }
            self.transmit(0);
            if self.cut_at == CutAt::Due {
                self.cut_due.store(true, SeqCst);
            }
        }
        if fresh || self.mutation == Mutation::DedupSettles {
            let mut l = self.links[r].lock();
            assert!(
                l.settled < l.issued,
                "settled past issued into rank {r} (TTG048)"
            );
            l.settled += 1;
        }
        self.acks[r].lock().push_back(self.epoch.load(SeqCst));
    }

    /// The sender of the link into `r` applies one ack; `false` when none
    /// waits.
    fn apply_ack(&self, r: usize) -> bool {
        let Some(epoch) = self.acks[r].lock().pop_front() else {
            return false;
        };
        let mut l = self.links[r].lock();
        if !self.fence(epoch) {
            l.unacked = false;
        }
        true
    }

    /// The coordinator's check: a kill rolls back, a due cut is taken.
    fn coordinate(&self) {
        let killed = || self.killed.iter().any(|k| k.load(SeqCst));
        if !killed() && !self.cut_due.load(SeqCst) {
            return;
        }
        {
            let mut g = self.gate.lock();
            g.raised = true;
            while g.inside > 0 {
                self.gate_cv.wait(&mut g);
            }
        }
        if killed() {
            self.rollback();
        } else if self.cut_due.swap(false, SeqCst) {
            self.take_cut();
        }
        self.gate.lock().raised = false;
        self.gate_cv.notify_all();
    }

    fn take_cut(&self) {
        let cut = [*self.links[0].lock(), *self.links[1].lock()];
        *self.cut.lock() = Some(cut);
    }

    fn rollback(&self) {
        self.epoch.fetch_add(1, SeqCst);
        let cut = self.cut.lock().unwrap_or_else(start);
        for r in 0..2 {
            *self.links[r].lock() = cut[r];
            self.killed[r].store(false, SeqCst);
        }
        self.cut_due.store(false, SeqCst);
        self.rollbacks.fetch_add(1, SeqCst);
        for (r, link) in cut.iter().enumerate() {
            if link.unacked {
                self.transmit(r);
            }
        }
    }
}

fn model(mutation: Mutation) {
    let cut_at = [CutAt::Start, CutAt::Due, CutAt::Never][nondet(3) as usize];
    let kill = [(1, 2), (0, 1)][nondet(2) as usize];
    let dup = nondet(2) == 1;
    let kill_again = nondet(2) == 1;
    let links = start();
    let sh = Arc::new(Shared {
        mutation,
        cut_at,
        kill,
        dup,
        kill_again,
        epoch: AtomicU64::named(0, "epoch"),
        gate: Mutex::named(Gate::default(), "gate"),
        gate_cv: Condvar::new(),
        links: [
            Mutex::named(links[0], "link_into_0"),
            Mutex::named(links[1], "link_into_1"),
        ],
        wires: [
            Mutex::named(VecDeque::new(), "wire_0"),
            Mutex::named(VecDeque::new(), "wire_1"),
        ],
        acks: [
            Mutex::named(VecDeque::new(), "acks_0"),
            Mutex::named(VecDeque::new(), "acks_1"),
        ],
        killed: [
            AtomicBool::named(false, "killed_0"),
            AtomicBool::named(false, "killed_1"),
        ],
        kill_fired: AtomicBool::named(false, "kill_fired"),
        second_fired: AtomicBool::named(false, "second_fired"),
        cut_due: AtomicBool::named(cut_at == CutAt::Start, "cut_due"),
        cut: Mutex::named(None, "cut"),
        rollbacks: AtomicU64::named(0, "rollbacks"),
        transmissions: [AtomicU64::named(0, "tx_y"), AtomicU64::named(0, "tx_x")],
    });
    sh.transmit(1);
    let spawn = |name: &str, f: fn(&Shared)| {
        let sh = Arc::clone(&sh);
        thread::spawn_named(name, move || f(&sh))
    };
    let threads = [
        spawn("deliver_0", |sh| (0..STEPS).for_each(|_| _ = sh.deliver(0))),
        spawn("deliver_1", |sh| (0..STEPS).for_each(|_| _ = sh.deliver(1))),
        spawn("reader", |sh| {
            (0..STEPS).for_each(|_| _ = sh.apply_ack(0) || sh.apply_ack(1))
        }),
        spawn("coordinator", |sh| (0..2).for_each(|_| sh.coordinate())),
    ];
    for t in threads {
        t.join();
    }
    for _ in 0..ROUNDS {
        sh.coordinate();
        while sh.deliver(0) || sh.deliver(1) {}
        while sh.apply_ack(0) || sh.apply_ack(1) {}
        let mut quiet = sh.killed.iter().all(|k| !k.load(SeqCst));
        for r in 0..2 {
            if sh.links[r].lock().unacked {
                quiet = false;
                sh.transmit(r);
            }
        }
        if quiet {
            break;
        }
    }
    assert!(
        sh.killed.iter().all(|k| !k.load(SeqCst)),
        "a kill left unrolled"
    );
    for (r, what) in [(1, "x"), (0, "y")] {
        let l = *sh.links[r].lock();
        assert_eq!(
            l.processed, 1,
            "exactly-once broken: rank {r} processed {what} {} times",
            l.processed
        );
        assert_eq!(
            l.issued, l.settled,
            "ledger imbalance into rank {r}: issued {} settled {}",
            l.issued, l.settled
        );
    }
}

/// Explore the protocol (with `mutation`) under `cfg`.
pub fn check(cfg: Config, mutation: Mutation) -> Result<Stats, Box<Violation>> {
    explore(cfg, move || model(mutation))
}
