//! Model of the termination rule of a multi-process job
//! (`crates/comm/src/control.rs` `ControlPlane::drive_termination` +
//! `observe_local`, with the ledger rows of `crates/comm/src/ledger.rs` as
//! `Fabric::send_am`, the receive dispatch `Fabric::link_rx` and
//! `Fabric::packet_processed` keep them, DESIGN §9): rank 0 declares
//! termination after two consecutive identical all-idle observations of
//! every rank whose sent and received totals balance.
//!
//! Two ranks, rank 0 coordinating. Rank 0's one seeded task sends one basic
//! message to rank 1, whose handler may (a nondeterministic choice) send
//! one reply. Every hop is its own thread, as in the real stack: the task,
//! each rank's link reader, each rank's delivery thread, and the
//! coordinator's wait loop. The accounting is the ledger's: a sender
//! issues on its outbound row *before* the link send (that is `sent`); a
//! reader issues on its inbound row as the frame comes off the wire, then
//! enqueues; a delivery thread settles the inbound row once the handler is
//! done (that is `recvd`: a reception counts when it is processed). A rank
//! is idle when its pool is (only rank 0 has a task) and its inbound rows
//! balance. The coordinator takes rank 1's observation, then its own — at
//! different times, each a sequence of separate loads — and the rest of the
//! job runs in between.
//!
//! Replies are deferred as the shipped wait loops defer them: rank 0
//! starts a round only once it reads drained, and rank 1 answers a probe
//! only once it reads drained — a busy rank's parked wait loop sends the
//! reply when the balance of its inbound rows wakes it (here: a `drained`
//! channel the delivery thread and the task signal).
//!
//! Invariant: when `done` is set no message is unprocessed and no rank is
//! active. Checked from the other side: nothing that is still work — the
//! task running, a frame leaving the wire, a handler starting or finishing
//! — may find `done` already set.
//!
//! Mutations: [`Mutation::OneRound`] declares on the first balanced
//! all-idle round (rank 1's stale idle reply plus a later 0→1→0 exchange
//! balances the sums while rank 1's handler is still running);
//! [`Mutation::SettleBeforeHandler`] counts the reception before the
//! handler has run, so the sums balance while its reply is unsent.
//! Counting a reception when it is processed leaves no order inside the
//! reader to get wrong: the two reader mutations this model had
//! (`CountAfterEnqueue`, `CountBeforeSlot`: the reception counted apart
//! from the packet's in-flight slot) have no counterpart left.
//!
//! Not modelled: the activity epoch each observation also carries. It
//! guards against a pool that went busy and idle again between two rounds
//! without touching a counter; here every activation is a reception.

use crate::explore::{explore, Config, Stats, Violation};
use crate::sched::nondet;
use crate::shadow::{channel, AtomicBool, AtomicUsize, Receiver, Sender};
use crate::sync::Ordering::SeqCst;
use crate::thread;
use std::sync::Arc;

/// Known-bad variants of the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// The correct protocol.
    None,
    /// Declare on the first balanced all-idle round, without waiting for a
    /// second, identical one.
    OneRound,
    /// The delivery thread settles the inbound row (counts the reception)
    /// before the handler runs.
    SettleBeforeHandler,
}

/// Rounds the coordinator polls before the model gives up (the real loop
/// polls until its deadline; safety needs no more than the two rounds a
/// declaration takes plus one that can go stale).
const ROUNDS: usize = 3;

struct Shared {
    /// Issued on each rank's outbound row: messages it put on the wire.
    sent: [AtomicUsize; 2],
    /// Issued on each rank's inbound row: frames that came off the wire.
    arrived: [AtomicUsize; 2],
    /// Settled on each rank's inbound row: receptions processed.
    recvd: [AtomicUsize; 2],
    /// Rank 0's pool: its one seeded task (rank 1 has none).
    active0: AtomicUsize,
    done: AtomicBool,
}

impl Shared {
    /// Work found `done` set: termination was declared over it.
    fn still_work(&self, what: &str) {
        assert!(
            !self.done.load(SeqCst),
            "terminated early: {what} after done was declared"
        );
    }

    /// `Fabric::send_am` between processes: issue, then the link send.
    fn send(&self, from: usize, wire: &Sender<()>) {
        self.sent[from].fetch_add(1, SeqCst);
        wire.send(());
    }

    /// `ControlPlane::observe_local`: `(sent, recvd, idle)`. The settled
    /// count is read before the issued one, as the ledger reads them.
    fn observe(&self, r: usize) -> (usize, usize, bool) {
        let pool_idle = r != 0 || self.active0.load(SeqCst) == 0;
        let sent = self.sent[r].load(SeqCst);
        let recvd = self.recvd[r].load(SeqCst);
        let idle = pool_idle && self.arrived[r].load(SeqCst) == recvd;
        (sent, recvd, idle)
    }

    /// A delivery thread's settle; reaching the inbound balance signals
    /// the rank's wait loop.
    fn settle(&self, me: usize, drained: &Sender<()>) {
        let recvd = self.recvd[me].fetch_add(1, SeqCst) + 1;
        if self.arrived[me].load(SeqCst) == recvd {
            drained.send(());
        }
    }
}

/// Rank `me`'s link reader (the `Am` arm of the receive dispatch).
fn reader(sh: &Shared, me: usize, wire: Receiver<()>, queue: Sender<()>) {
    while wire.recv().is_ok() {
        sh.still_work("a frame left the wire");
        sh.arrived[me].fetch_add(1, SeqCst);
        queue.send(());
    }
}

/// Rank `me`'s delivery thread; `reply` is the wire its handler may answer
/// on (rank 1's only: the reply triggers nothing).
fn deliver(
    sh: &Shared,
    me: usize,
    queue: Receiver<()>,
    reply: Option<Sender<()>>,
    drained: Sender<()>,
    mutation: Mutation,
) {
    let early = mutation == Mutation::SettleBeforeHandler;
    while queue.recv().is_ok() {
        sh.still_work("a handler started");
        if early {
            sh.settle(me, &drained);
        }
        if let Some(wire) = &reply {
            if nondet(2) == 1 {
                sh.send(me, wire);
            }
        }
        sh.still_work("a handler finished");
        if !early {
            sh.settle(me, &drained);
        }
    }
}

/// Rank `r`'s observation once it reads drained: a rank answers a probe
/// only when locally drained, and a busy rank's parked wait loop sends the
/// deferred reply when a drain signal wakes it (the signals queue, so none
/// is lost). Once every signaller has exited the counts are final.
fn drained_observation(sh: &Shared, r: usize, drained: &Receiver<()>) -> (usize, usize, bool) {
    loop {
        let o = sh.observe(r);
        if o.2 || drained.recv().is_err() {
            return o;
        }
    }
}

/// Rank 0's wait loop: `ControlPlane::drive_termination`, with the probe
/// round trip collapsed into reading rank 1's counters where its wait loop
/// would. A round starts only once rank 0 is drained, and rank 1's reply
/// waits until rank 1 is.
fn coordinator(sh: &Shared, mutation: Mutation, drained: [Receiver<()>; 2]) {
    let mut prev = None;
    for _ in 0..ROUNDS {
        drained_observation(sh, 0, &drained[0]);
        let cur = [drained_observation(sh, 1, &drained[1]), sh.observe(0)];
        let all_idle = cur.iter().all(|o| o.2);
        let balanced = cur[0].0 + cur[1].0 == cur[0].1 + cur[1].1;
        let stable = prev == Some(cur) || mutation == Mutation::OneRound;
        if all_idle && balanced && stable {
            sh.done.store(true, SeqCst);
            return;
        }
        prev = Some(cur);
    }
}

fn model(mutation: Mutation) {
    let counters = |name: &str| [0, 1].map(|r| AtomicUsize::named(0, &format!("{name}{r}")));
    let sh = Arc::new(Shared {
        sent: counters("sent"),
        arrived: counters("arrived"),
        recvd: counters("recvd"),
        active0: AtomicUsize::named(1, "active0"),
        done: AtomicBool::named(false, "done"),
    });
    // wire[r] carries frames to rank r's reader, queue[r] packets to its
    // delivery thread. Each closes when its one sender is done, so the
    // threads downstream of it run out of work and exit.
    let (wire1_tx, wire1_rx) = channel();
    let (queue1_tx, queue1_rx) = channel();
    let (wire0_tx, wire0_rx) = channel();
    let (queue0_tx, queue0_rx) = channel();
    // drained[r] carries the moments rank r's inbound rows balance to its
    // wait loop.
    let (drained0_tx, drained0_rx) = channel();
    let (drained1_tx, drained1_rx) = channel();
    let task_drained = drained0_tx.clone();

    let mk = |name: &str, f: Box<dyn FnOnce(&Shared) + Send>| {
        let sh = Arc::clone(&sh);
        thread::spawn_named(name, move || f(&sh))
    };
    let ts = vec![
        mk(
            "task0",
            Box::new(move |sh| {
                sh.still_work("the seeded task ran");
                sh.send(0, &wire1_tx);
                sh.active0.fetch_sub(1, SeqCst);
                task_drained.send(());
            }),
        ),
        mk(
            "reader1",
            Box::new(move |sh| reader(sh, 1, wire1_rx, queue1_tx)),
        ),
        mk(
            "deliver1",
            Box::new(move |sh| deliver(sh, 1, queue1_rx, Some(wire0_tx), drained1_tx, mutation)),
        ),
        mk(
            "reader0",
            Box::new(move |sh| reader(sh, 0, wire0_rx, queue0_tx)),
        ),
        mk(
            "deliver0",
            Box::new(move |sh| deliver(sh, 0, queue0_rx, None, drained0_tx, mutation)),
        ),
        mk(
            "wait0",
            Box::new(move |sh| coordinator(sh, mutation, [drained0_rx, drained1_rx])),
        ),
    ];
    for t in ts {
        t.join();
    }
}

/// Explore the protocol under `cfg`.
pub fn check(cfg: Config, mutation: Mutation) -> Result<Stats, Box<Violation>> {
    explore(cfg, move || model(mutation))
}
