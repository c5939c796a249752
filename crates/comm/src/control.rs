//! The control plane of a multi-process rank: the message protocols that
//! stand in for what ranks sharing an address space read from shared
//! memory — the barrier and termination detection, both coordinated by
//! rank 0 (DESIGN §9).
//!
//! Termination is one rule everywhere: two consecutive identical all-idle
//! observations of every rank whose sent and received totals balance. Both
//! read the in-flight ledger's rows (`crate::ledger`): with every rank in
//! one address space the executor reads them directly; here each rank
//! reports the messages it put on the wire and the ones it processed in
//! `TermProbe`/`TermReply` frames, and is idle when its pool is and its
//! inbound rows balance. Rounds run
//! only between drained ranks: rank 0 starts one only once it is locally
//! drained, and a rank answers a probe only once it is — a busy rank defers
//! the reply, and its parked wait loop sends it when the drain wakes it.
//! Every termination frame signals the execution's event count, on which
//! the wait loops park (`control_model.rs` explores the protocol).
//!
//! Port: [`ControlPort`] — this rank's links (send, with failures reported
//! where the fabric reports them) and the in-flight ledger.

use std::collections::HashMap;
use std::sync::Arc;
use ttg_model::sync::{AtomicBool, AtomicU64, Condvar, EventCount, Mutex, Ordering};
use ttg_transport::Frame;

use crate::ledger::Ledger;
use crate::links::Rank;

/// What the control plane sees of the fabric that hosts it.
pub(crate) trait ControlPort {
    /// Send `frame` on the link `from → to` (`from` is this rank); a
    /// failure is recorded by the port (TTG045, or a counted no-op during
    /// teardown).
    fn send_control(&self, from: Rank, to: Rank, frame: Frame);
    /// The in-flight ledger: this rank's termination totals and whether its
    /// inbound rows balance.
    fn ledger(&self) -> &Ledger;
}

/// One rank's (sent, received, quiescence) observation, exchanged by the
/// termination protocol.
#[derive(Clone, PartialEq, Eq)]
struct TermObs {
    sent: u64,
    recvd: u64,
    epoch: u64,
    idle: bool,
}

/// State of the termination detector. On rank 0: it probes all ranks each
/// round and declares termination after two consecutive rounds with
/// identical all-idle observations whose global sent and received counts
/// balance. On any other rank: the probe it has not answered yet.
#[derive(Default)]
struct TermDriver {
    round: u64,
    probed: bool,
    /// Peers' replies to the current round.
    replies: HashMap<Rank, TermObs>,
    prev: Option<Vec<TermObs>>,
    /// A probe that arrived while this rank was busy.
    deferred: Option<u64>,
}

/// Callback reporting whether this process is locally idle and its
/// activity epoch (installed by the executor).
pub(crate) type IdleProbe = Box<dyn Fn() -> (bool, u64) + Send + Sync>;

/// State of a multi-process rank's barrier and termination protocols.
pub(crate) struct ControlPlane {
    /// This process's rank.
    pub(crate) me: Rank,
    n: usize,
    /// Set when the coordinator declares global termination.
    done: AtomicBool,
    idle_probe: Mutex<Option<IdleProbe>>,
    /// Barrier epochs this rank has entered so far.
    barrier_seq: AtomicU64,
    /// Highest released barrier epoch (waiters block on `barrier_cv`).
    barrier_released: Mutex<u64>,
    barrier_cv: Condvar,
    /// Coordinator only: entry counts per in-progress epoch.
    barrier_entered: Mutex<HashMap<u64, usize>>,
    /// The coordinator's round state. `drive_termination` keeps it across
    /// `observe_local`, which takes `idle_probe`: the control plane's one
    /// nesting.
    term: Mutex<TermDriver>,
    /// Scripted self-abort: kill this process after receiving this many
    /// AM frames (remote `kill=r@n` fault plans; the launcher's watchdog
    /// recovers the job).
    kill_after: Option<u64>,
    /// AM frames received so far (drives `kill_after`).
    rx_frames: AtomicU64,
    /// The execution's event count: the wait loop parks on it.
    events: Arc<EventCount>,
}

impl ControlPlane {
    pub(crate) fn new(
        me: Rank,
        n: usize,
        kill_after: Option<u64>,
        events: Arc<EventCount>,
    ) -> ControlPlane {
        ControlPlane {
            me,
            n,
            done: AtomicBool::new(false),
            idle_probe: Mutex::new(None),
            barrier_seq: AtomicU64::new(0),
            barrier_released: Mutex::new(0),
            barrier_cv: Condvar::new(),
            barrier_entered: Mutex::new(HashMap::new()),
            term: Mutex::new(TermDriver::default()),
            kill_after,
            rx_frames: AtomicU64::new(0),
            events,
        }
    }

    /// An AM frame arrived from a peer process: run the kill script.
    pub(crate) fn frame_arrived(&self) {
        let got = self.rx_frames.fetch_add(1, Ordering::SeqCst) + 1;
        if self.kill_after.is_some_and(|after| got >= after) {
            // Scripted death of a real OS process: the launcher's watchdog
            // reaps this child and recovers the job (DESIGN §13).
            eprintln!(
                "rank {}: scripted kill after {got} received frames",
                self.me
            );
            std::process::abort();
        }
    }

    /// Has the coordinator declared global termination?
    pub(crate) fn done(&self) -> bool {
        self.done.load(Ordering::SeqCst)
    }

    pub(crate) fn install_idle_probe(&self, probe: IdleProbe) {
        *self.idle_probe.lock() = Some(probe);
    }

    /// Terminate one barrier or termination frame from a peer. The other
    /// kinds end in the fabric's dispatch, which is what hands frames here;
    /// they are listed, not wildcarded, so a new kind fails to compile
    /// until it is given an end.
    pub(crate) fn on_frame(&self, port: &dyn ControlPort, frame: Frame) {
        match frame {
            Frame::BarrierEnter { epoch, .. } => {
                if self.me == 0 {
                    self.barrier_arrive(port, epoch);
                }
            }
            Frame::BarrierRelease { epoch } => self.release(epoch),
            Frame::TermProbe { round } => {
                self.term.lock().deferred = Some(round);
                self.answer_probe(port);
                self.events.signal_all();
            }
            Frame::TermReply {
                from,
                round,
                sent,
                recvd,
                epoch,
                idle,
            } => {
                let mut term = self.term.lock();
                if round == term.round {
                    term.replies.insert(
                        from as Rank,
                        TermObs {
                            sent,
                            recvd,
                            epoch,
                            idle,
                        },
                    );
                }
                drop(term);
                self.events.signal_all();
            }
            Frame::TermDone => {
                self.done.store(true, Ordering::SeqCst);
                self.events.signal_all();
            }
            Frame::Hello { .. } | Frame::Am { .. } | Frame::AckRange { .. } | Frame::Bye { .. } => {
            }
        }
    }

    /// This rank's termination observation: locally idle (executor probe
    /// AND its inbound rows balance) plus the send/receive totals.
    fn observe_local(&self, port: &dyn ControlPort) -> TermObs {
        let (idle, epoch) = match &*self.idle_probe.lock() {
            Some(p) => p(),
            None => (false, 0),
        };
        let ledger = port.ledger();
        let (sent, recvd) = ledger.cross_totals(self.me);
        TermObs {
            sent,
            recvd,
            epoch,
            idle: idle && ledger.in_flight() == 0,
        }
    }

    /// This rank's step of the termination protocol, taken by its wait
    /// loop after each wake: rank 0 drives a round, any other rank answers
    /// the probe it deferred while busy.
    pub(crate) fn step(&self, port: &dyn ControlPort) {
        if self.me == 0 {
            self.drive_termination(port);
        } else {
            self.answer_probe(port);
        }
    }

    /// Reply to the pending probe if this rank is locally drained (else it
    /// stays pending until the wait loop's next step).
    fn answer_probe(&self, port: &dyn ControlPort) {
        let mut term = self.term.lock();
        let Some(round) = term.deferred else { return };
        let o = self.observe_local(port);
        if !o.idle {
            return;
        }
        term.deferred = None;
        drop(term);
        port.send_control(
            self.me,
            0,
            Frame::TermReply {
                from: self.me as u32,
                round,
                sent: o.sent,
                recvd: o.recvd,
                epoch: o.epoch,
                idle: o.idle,
            },
        );
    }

    /// Rank 0's step of the termination detector. Each round probes every
    /// rank for `(sent, recvd, epoch, idle)`; two consecutive rounds of
    /// identical all-idle observations with globally balanced send/receive
    /// counts prove no message is in flight anywhere, and `TermDone` is
    /// broadcast. Acts only while rank 0 is locally drained, so rounds do
    /// not run during busy phases; a round that fails starts the next at
    /// once.
    fn drive_termination(&self, port: &dyn ControlPort) {
        let mut term = self.term.lock();
        loop {
            if self.done() || !self.observe_local(port).idle {
                return;
            }
            if !term.probed {
                term.probed = true;
                let round = term.round;
                drop(term);
                for r in 1..self.n {
                    port.send_control(0, r, Frame::TermProbe { round });
                }
                term = self.term.lock();
            }
            if term.replies.len() < self.n - 1 {
                return;
            }
            let own = self.observe_local(port);
            let peer = |r: Rank| term.replies[&r].clone();
            let cur: Vec<TermObs> = std::iter::once(own).chain((1..self.n).map(peer)).collect();
            let all_idle = cur.iter().all(|o| o.idle);
            let sent: u64 = cur.iter().map(|o| o.sent).sum();
            let recvd: u64 = cur.iter().map(|o| o.recvd).sum();
            let stable = term.prev.as_deref() == Some(&cur[..]);
            if all_idle && sent == recvd && stable {
                drop(term);
                self.done.store(true, Ordering::SeqCst);
                for r in 1..self.n {
                    port.send_control(0, r, Frame::TermDone);
                }
                return;
            }
            term.prev = Some(cur);
            term.replies.clear();
            term.round += 1;
            term.probed = false;
        }
    }

    /// Block until all ranks reach the barrier: everyone sends
    /// `BarrierEnter` for their next epoch ordinal to rank 0, which
    /// broadcasts `BarrierRelease` once all `n` ranks have entered. All
    /// ranks must call this the same number of times (SPMD), so ordinals
    /// align without clock agreement.
    pub(crate) fn barrier(&self, port: &dyn ControlPort) {
        let epoch = self.barrier_seq.fetch_add(1, Ordering::SeqCst) + 1;
        if self.me == 0 {
            self.barrier_arrive(port, epoch);
        } else {
            port.send_control(
                self.me,
                0,
                Frame::BarrierEnter {
                    from: self.me as u32,
                    epoch,
                },
            );
        }
        let mut released = self.barrier_released.lock();
        while *released < epoch {
            self.barrier_cv.wait(&mut released);
        }
    }

    /// Coordinator-side barrier entry for `epoch`; releases everyone once
    /// all `n` ranks have entered.
    fn barrier_arrive(&self, port: &dyn ControlPort, epoch: u64) {
        let complete = {
            let mut entered = self.barrier_entered.lock();
            let c = entered.entry(epoch).or_insert(0);
            *c += 1;
            if *c == self.n {
                entered.remove(&epoch);
                true
            } else {
                false
            }
        };
        if complete {
            for r in 1..self.n {
                port.send_control(0, r, Frame::BarrierRelease { epoch });
            }
            self.release(epoch);
        }
    }

    fn release(&self, epoch: u64) {
        let mut released = self.barrier_released.lock();
        if epoch > *released {
            *released = epoch;
        }
        self.barrier_cv.notify_all();
    }
}

#[cfg(all(test, ttg_model))]
#[path = "control_model.rs"]
mod model;
