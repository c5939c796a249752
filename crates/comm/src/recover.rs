//! The comm-layer half of a coordinated rollback (DESIGN §13): export of a
//! global cut, its decoding, and the rollback of every rank to it.
//!
//! The coordinator — the executor's wait loop — pauses every delivery
//! thread at its packet boundary and drains every pool first, holding a
//! [`Paused`] that keeps the progress pass and every retry budget still.
//! A cut then exports every rank's comm state. A rollback, once a kill
//! script fired, puts every rank back as the last cut recorded it (or as
//! the run began, when none was committed) and bumps the one rollback
//! epoch that fences the copies and acks sent before it. Then it re-arms every restored
//! unacked entry and every seed; the restored windows dedup what the cut
//! had already processed.
//!
//! Port: the `ChaosPort` of the crate's `chaos` module.

use ttg_model::sync::{AtomicBool, AtomicUsize, EventCount, Instant, MutexGuard, Ordering::SeqCst};

use crate::buf::{ReadBuf, WireError, WriteBuf};
use crate::chaos::{ChaosPort, ChaosState};
use crate::links::Rank;
use crate::reliable::{next_epoch, LinkTx, SeqWindow, Unacked};

/// The pause gate. A delivery thread enters it before `rx_accept`
/// classifies a packet and leaves once the packet is processed or
/// discarded. A thread counts itself inside before it looks at the gate,
/// and the coordinator raises the gate before it looks at the count: either
/// the thread sees the gate raised and backs out, or the coordinator sees
/// it inside and waits for it to leave. A delivery thread waits at the gate
/// holding no lock; the coordinator waits holding the pass lock
/// ([`Paused`]), which nothing it waits for takes.
pub struct Gate {
    raised: AtomicBool,
    inside: AtomicUsize,
    /// Where a delivery thread waits for the gate to be lowered.
    lowered: EventCount,
}

impl Default for Gate {
    fn default() -> Gate {
        Gate {
            raised: AtomicBool::new(false),
            inside: AtomicUsize::new(0),
            lowered: EventCount::new(),
        }
    }
}

impl Gate {
    /// Enter, waiting while the gate is raised. `events` is the
    /// execution's event count, which the coordinator waits on.
    #[inline]
    pub fn enter(&self, events: &EventCount) {
        loop {
            self.inside.fetch_add(1, SeqCst);
            if !self.raised.load(SeqCst) {
                return;
            }
            self.leave(events);
            let epoch = self.lowered.prepare();
            if self.raised.load(SeqCst) {
                self.lowered.wait(epoch);
            } else {
                self.lowered.cancel();
            }
        }
    }

    /// Leave; under a raised gate, wake the coordinator.
    #[inline]
    pub fn leave(&self, events: &EventCount) {
        self.inside.fetch_sub(1, SeqCst);
        if self.raised.load(SeqCst) {
            events.signal_all();
        }
    }

    /// Stop every delivery at its next packet boundary.
    pub fn raise(&self) {
        self.raised.store(true, SeqCst);
    }

    /// Whether no delivery thread is inside (read after [`raise`](Self::raise)).
    pub fn stopped(&self) -> bool {
        self.inside.load(SeqCst) == 0
    }

    /// Let the deliveries go on.
    pub fn lower(&self) {
        self.raised.store(false, SeqCst);
        self.lowered.signal_all();
    }
}

/// The comm layer's half of a decoded cut: per rank its packet counter
/// and receive windows, every ledger row, and every rank's outgoing links.
pub struct CommCut {
    rx_packets: Vec<u64>,
    windows: Vec<Vec<SeqWindow>>,
    rows: Vec<(u64, u64)>,
    links: Vec<LinkTx>,
}

impl CommCut {
    /// The state before the first message: what a rollback with no
    /// committed cut restores.
    fn empty(n: usize) -> CommCut {
        CommCut {
            rx_packets: vec![0; n],
            windows: vec![vec![SeqWindow::new(); n + 1]; n],
            rows: vec![(0, 0); (n + 1) * n],
            links: (0..n * n).map(|_| LinkTx::default()).collect(),
        }
    }
}

/// The cut and rollback surface an executor drives, handed out by the
/// fabric when its fault plan enables recovery.
pub struct Recovery<'a> {
    pub(crate) cs: &'a ChaosState,
    pub(crate) port: ChaosPort<'a>,
}

impl Recovery<'_> {
    /// Whether some rank has accepted `recover` packets since the
    /// last cut.
    pub fn cut_due(&self) -> bool {
        let cs = self.cs;
        let every = cs.plan.recover.expect("recovery without a cut interval");
        (0..cs.n).any(|r| cs.rx_packets[r].load(SeqCst) >= cs.last_snap[r].load(SeqCst) + every)
    }

    /// Ranks killed by script since the last rollback.
    pub fn killed_ranks(&self) -> Vec<Rank> {
        let killed = &self.cs.killed;
        (0..killed.len())
            .filter(|&r| killed[r].load(SeqCst))
            .collect()
    }

    /// Hold the reliable layer's progress off until the returned guard
    /// drops: taken before the coordinator raises its gate and kept until
    /// it lowers it (DESIGN §13).
    pub fn pause(&self) -> Paused<'_> {
        let pass = self.cs.pass.lock();
        Paused {
            rec: self,
            since: Some(Instant::now()),
            _pass: pass,
        }
    }

    /// Decode the comm section of a cut.
    pub fn decode_cut(&self, bytes: &[u8]) -> Result<CommCut, WireError> {
        let n = self.cs.n;
        let mut rd = ReadBuf::new(bytes);
        let got = rd.get_u64()?;
        if got != n as u64 {
            return Err(WireError::new(format!(
                "cut holds {got} ranks, the fabric {n}"
            )));
        }
        let mut cut = CommCut::empty(n);
        for c in cut.rx_packets.iter_mut() {
            *c = rd.get_u64()?;
        }
        for w in cut.windows.iter_mut().flatten() {
            *w = SeqWindow::import(&mut rd)?;
        }
        for row in cut.rows.iter_mut() {
            *row = (rd.get_u64()?, rd.get_u64()?);
        }
        let now = Instant::now();
        for link in cut.links.iter_mut() {
            *link = LinkTx::import(&mut rd, now)?;
        }
        Ok(cut)
    }
}

/// Every rank paused, as the comm layer sees it ([`Recovery::pause`]): no
/// progress pass resends, gives up, flushes or releases anything while the
/// pools drain, and a cut or a rollback runs under it. Dropping it moves
/// every retry clock on by the pause and arms the retransmit scan.
pub struct Paused<'a> {
    rec: &'a Recovery<'a>,
    /// When the pause began; `None` once a rollback replaced every clock.
    since: Option<Instant>,
    _pass: MutexGuard<'a, ()>,
}

impl Paused<'_> {
    /// Export every rank's comm state: packet counters, receive windows,
    /// ledger rows, and outgoing links (seq counters and in-flight
    /// payloads). Called with every pool idle: the global cut (DESIGN §13).
    pub fn export_cut(&self, b: &mut WriteBuf) {
        let (cs, ledger) = (self.rec.cs, self.rec.port.ledger);
        let n = cs.n;
        b.put_u64(n as u64);
        for r in 0..n {
            let received = cs.rx_packets[r].load(SeqCst);
            // The next cut falls due from this one, committed or not.
            cs.last_snap[r].store(received, SeqCst);
            b.put_u64(received);
        }
        for windows in &cs.windows {
            for w in windows.lock().iter() {
                w.export(b);
            }
        }
        for li in 0..(n + 1) * n {
            b.put_u64(ledger.issued(li));
            b.put_u64(ledger.settled(li));
        }
        for link in &cs.links[..n * n] {
            link.lock().export(b);
        }
    }

    /// Roll every rank back to `cut` (`None`: to the start of the run).
    /// The caller has drained every pool and restored the matching tables.
    /// The epoch moves on first: the copies and acks sent before the
    /// rollback are dropped wherever they land. Ledger rows come back
    /// verbatim, except the sentinel's issued counts: seeds are not rolled
    /// back, and every one is re-armed. Pending ack batches and the delay
    /// queue are emptied, and the kill latches cleared. Returns how many
    /// entries and seeds were re-armed.
    pub fn rollback(mut self, cut: Option<CommCut>) -> u64 {
        let (cs, port) = (self.rec.cs, &self.rec.port);
        let (n, ledger) = (cs.n, port.ledger);
        cs.epoch.store(next_epoch(cs.epoch.load(SeqCst)), SeqCst);
        let cut = cut.unwrap_or_else(|| CommCut::empty(n));
        for (r, windows) in cut.windows.into_iter().enumerate() {
            cs.rx_packets[r].store(cut.rx_packets[r], SeqCst);
            cs.last_snap[r].store(cut.rx_packets[r], SeqCst);
            *cs.windows[r].lock() = windows;
        }
        for (li, &(issued, settled)) in cut.rows.iter().enumerate() {
            let issued = if li < n * n {
                issued
            } else {
                ledger.issued(li)
            };
            ledger.restore(li, issued, settled);
        }
        let mut rearmed = 0;
        for (li, link) in cut.links.into_iter().enumerate() {
            rearmed += link.unacked.len() as u64;
            *cs.links[li].lock() = link;
        }
        // The sentinel's links keep their seqs: every seed goes back in
        // as unsent, on a link with no clock (every entry resent at once).
        let now = Instant::now();
        let seeds = cs.seeds.lock().clone();
        for (to, seq, handler, payload) in seeds {
            let entry = Unacked {
                handler,
                payload,
                attempts: 0,
                next_retry: now,
                delivered: false,
            };
            let mut link = cs.links[n * n + to].lock();
            link.clock = None;
            link.unacked.insert(seq, entry);
            rearmed += 1;
        }
        for acks in &cs.pending_acks {
            let _ = acks.lock().take();
        }
        cs.delayq.lock().clear();
        let killed = cs.killed.iter().filter(|k| k.swap(false, SeqCst)).count();
        // Every re-armed entry is due at once, not a pause later.
        self.since = None;
        port.stats.restores.inc();
        port.stats.recoveries.add(killed as u64);
        port.stats.replayed_sends.add(rearmed);
        rearmed
    }
}

impl Drop for Paused<'_> {
    fn drop(&mut self) {
        let cs = self.rec.cs;
        if let Some(since) = self.since {
            // A copy left unread in a paused rank's channel is not late.
            let paused = since.elapsed();
            for link in &cs.links {
                let mut link = link.lock();
                link.clock = link.clock.map(|c| c + paused);
                for e in link.unacked.values_mut() {
                    e.next_retry += paused;
                }
            }
        }
        cs.clock.arm_retransmit(Instant::now());
    }
}

#[cfg(all(test, ttg_model))]
#[path = "recover_model.rs"]
mod model;
