//! The chaos + reliable-delivery layer a [`FaultPlan`] installs between
//! `send_am` and the wire: seeded drop/duplicate/delay/reorder decisions
//! and scripted rank deaths on the way down, sequence numbers, dedup
//! windows, ack batches sent when due and bounded retransmission on
//! evidence of loss (the state machines of [`crate::reliable`]) to restore
//! exactly-once logical delivery on the way up (DESIGN §8, §12). Every
//! seq and ack carries the rollback epoch; the cut and the rollback live
//! in [`crate::recover`] (DESIGN §13).
//!
//! Port: [`ChaosPort`] — a wire that delivers one physical copy or one
//! batched ack ([`ChaosWire`]), the stats, the in-flight ledger and the
//! error sink. The fabric implements the wire; the tests use queues.

use std::sync::Arc;
use std::time::Duration;
use ttg_model::sync::{AtomicBool, AtomicU64, Instant, Mutex, Ordering};

use crate::error::{CommError, CommErrorKind, SendError};
use crate::fault::{salt, FaultPlan};
use crate::ledger::{name_links, Ledger};
use crate::links::Rank;
use crate::reliable::{
    pack_seq, unpack_seq, AckRanges, AckSent, LinkTx, PendingAcks, SeqWindow, Unacked,
};
use crate::stats::FabricStats;
use crate::wake::ProgressClock;

/// The wire under the reliable layer.
pub(crate) trait ChaosWire {
    /// Hand one physical copy of a sequenced packet to the wire. A closed
    /// channel or link is counted and recorded by the wire itself.
    fn deliver(
        &self,
        from: Rank,
        to: Rank,
        handler: u32,
        seq: u64,
        payload: &Arc<Vec<u8>>,
    ) -> Result<(), SendError>;
    /// Put `acker`'s batched acknowledgement on a wire toward `sender`.
    /// Ranges handed back, the caller applies through shared memory.
    fn send_ack_range(&self, acker: Rank, sender: Rank, ranges: AckRanges) -> AckSent;
}

/// What the reliable layer sees of the fabric that hosts it.
pub(crate) struct ChaosPort<'a> {
    pub(crate) wire: &'a dyn ChaosWire,
    pub(crate) stats: &'a FabricStats,
    pub(crate) ledger: &'a Ledger,
    /// The error sink (drained into execution reports).
    pub(crate) errors: &'a Mutex<Vec<CommError>>,
}

impl ChaosPort<'_> {
    /// Record a structured failure and wake the execution's waiters.
    pub(crate) fn record_error(&self, e: CommError) {
        self.errors.lock().push(e);
        self.ledger.events().signal_all();
    }

    /// Settle one message on ledger row `li` (see [`Ledger::settle`]); a
    /// settle the row cannot take is recorded.
    pub(crate) fn settle(&self, li: usize) {
        if let Err(e) = self.ledger.settle(li) {
            self.record_error(e);
        }
    }
}

/// A physical packet held back by delay/reorder injection.
pub(crate) struct Delayed {
    due: Instant,
    to: Rank,
    handler: u32,
    from: Rank,
    seq: u64,
    payload: Arc<Vec<u8>>,
}

/// State of the chaos + reliable-delivery layer (present only when a
/// [`FaultPlan`] is installed on an in-process fabric).
pub(crate) struct ChaosState {
    pub(crate) plan: FaultPlan,
    pub(crate) n: usize,
    /// Sender-side link state, indexed `link_row(from) * n + to` where
    /// `link_row` maps out-of-fabric sentinel senders to row `n`.
    pub(crate) links: Vec<Mutex<LinkTx>>,
    /// Receive-side dedup windows: per destination rank, one window per
    /// incoming link row (`n + 1` rows).
    pub(crate) windows: Vec<Mutex<Vec<SeqWindow>>>,
    /// Receive-side batched-ack accumulators, indexed like `links` (entry
    /// `link_idx(from, to)` holds the acks rank `to` owes rank `from`).
    pub(crate) pending_acks: Vec<Mutex<PendingAcks>>,
    /// Packets held by delay/reorder injection.
    pub(crate) delayq: Mutex<Vec<Delayed>>,
    /// Sequenced packets received per rank (drives kill scripts and cuts).
    pub(crate) rx_packets: Vec<AtomicU64>,
    /// Ranks killed by script: all their traffic is silently dropped.
    pub(crate) killed: Vec<AtomicBool>,
    /// Per-kill-script "already fired" latches: a rollback restores the
    /// packet counters, and must not re-trigger the same scripted death.
    kill_fired: Vec<AtomicBool>,
    /// The rollback epoch (modulo 256), packed into every seq and ack bound.
    pub(crate) epoch: AtomicU64,
    /// Under recovery, every seed sent on the sentinel's rows, as
    /// `(to, seq, handler, payload)`: the sentinel never rolls back, so a
    /// rollback re-arms them all.
    pub(crate) seeds: Mutex<Vec<(Rank, u64, u32, Arc<Vec<u8>>)>>,
    /// Per rank: received-packet count at the last cut (a cut falls due
    /// `recover` packets later).
    pub(crate) last_snap: Vec<AtomicU64>,
    /// Held through a progress pass under recovery, and for a whole pause
    /// ([`crate::recover::Paused`]): the two exclude each other. Every
    /// other lock of this state nests under it: a cut and a rollback take
    /// the windows, the links, the seed log, the ack batches and the delay
    /// queue one at a time under it, and a window claim settles (and
    /// records its TTG040) under its window lock within a pass, so a cut
    /// sees the claim and the settle both or neither. No delivery thread
    /// or task takes it, so the coordinator may wait for them while it
    /// holds it.
    pub(crate) pass: Mutex<()>,
    /// When the progress thread must next run `progress()`.
    pub(crate) clock: Arc<ProgressClock>,
}

impl ChaosState {
    pub(crate) fn new(plan: FaultPlan, n: usize) -> ChaosState {
        let per_rank = || (0..n).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        ChaosState {
            kill_fired: plan.kills.iter().map(|_| AtomicBool::new(false)).collect(),
            plan,
            n,
            links: (0..(n + 1) * n)
                .map(|_| Mutex::new(LinkTx::default()))
                .collect(),
            windows: (0..n)
                .map(|_| Mutex::new(vec![SeqWindow::new(); n + 1]))
                .collect(),
            pending_acks: (0..(n + 1) * n)
                .map(|_| Mutex::new(PendingAcks::default()))
                .collect(),
            delayq: Mutex::new(Vec::new()),
            rx_packets: per_rank(),
            killed: (0..n).map(|_| AtomicBool::new(false)).collect(),
            epoch: AtomicU64::new(0),
            seeds: Mutex::new(Vec::new()),
            last_snap: per_rank(),
            pass: Mutex::new(()),
            clock: Arc::new(ProgressClock::new()),
        }
    }

    /// Whether the plan enables coordinated rollback.
    #[inline]
    pub(crate) fn recovering(&self) -> bool {
        self.plan.recover.is_some()
    }

    /// Map a sending rank to its link-table row; out-of-fabric sentinel
    /// senders (external seeding uses `usize::MAX`) share row `n`.
    #[inline]
    pub(crate) fn link_row(&self, from: Rank) -> usize {
        from.min(self.n)
    }

    #[inline]
    pub(crate) fn link_idx(&self, from: Rank, to: Rank) -> usize {
        self.link_row(from) * self.n + to
    }

    /// The sender a link-table row stands for ([`link_row`](Self::link_row)
    /// backwards; the sentinel row reads as `usize::MAX`).
    pub(crate) fn row_sender(&self, row: usize) -> Rank {
        if row == self.n {
            usize::MAX
        } else {
            row
        }
    }

    /// Whether this layer carries `from → to`. Loopback normally bypasses
    /// it (process-internal delivery cannot fail); under recovery even
    /// rank-local sends are sequenced: a message in flight at a cut is an
    /// unacked entry the cut holds, and a rollback re-arms it.
    #[inline]
    pub(crate) fn carries(&self, from: Rank, to: Rank) -> bool {
        from != to || self.recovering()
    }

    /// Enter one logical message into the reliable layer: issue it on the
    /// ledger, sequence it, hold it for retransmission (a seed under
    /// recovery also in the seed log), and make the first transmission
    /// attempt.
    pub(crate) fn send(
        &self,
        port: &ChaosPort<'_>,
        from: Rank,
        to: Rank,
        handler: u32,
        payload: Vec<u8>,
    ) {
        let li = port.ledger.issue(from, to);
        let payload = Arc::new(payload);
        let now = Instant::now();
        let next_retry = now + self.plan.retry.backoff(1);
        let (seq, arms) = {
            let mut link = self.links[li].lock();
            let seq = link.assign_seq();
            // The entry is a retransmit candidate of its own only as the
            // oldest of a link (its clock starts here) or on a restored
            // link without one; behind others, only an ack can make it one.
            let arms = link.unacked.is_empty() || link.clock.is_none();
            if link.unacked.is_empty() {
                link.clock = Some(now);
            }
            link.unacked.insert(
                seq,
                Unacked {
                    handler,
                    payload: Arc::clone(&payload),
                    attempts: 0,
                    next_retry,
                    delivered: false,
                },
            );
            (seq, arms)
        };
        if arms {
            self.clock.arm_retransmit(next_retry);
        }
        if self.recovering() && from >= self.n {
            let seed = (to, seq, handler, Arc::clone(&payload));
            self.seeds.lock().push(seed);
        }
        self.transmit(port, from, to, handler, seq, &payload, 0);
    }

    /// One physical transmission attempt of a sequenced packet, subject to
    /// the fault plan. `attempt` is 0 for the original send and the retry
    /// ordinal for retransmissions (distinct fault rolls per attempt). The
    /// wire seq carries the rollback epoch in its top bits (epoch 0 packs
    /// to the raw seq itself: a run that never rolls back is bit-identical
    /// on the wire).
    fn transmit(
        &self,
        port: &ChaosPort<'_>,
        from: Rank,
        to: Rank,
        handler: u32,
        seq: u64,
        payload: &Arc<Vec<u8>>,
        attempt: u32,
    ) {
        let seq = pack_seq(self.epoch.load(Ordering::SeqCst), seq);
        let link = self.link_idx(from, to) as u64;
        // A killed rank neither sends nor receives.
        if self.killed[to].load(Ordering::SeqCst)
            || (from < self.n && self.killed[from].load(Ordering::SeqCst))
        {
            port.stats.am_dropped_injected.inc();
            return;
        }
        let plan = &self.plan;
        if plan.drop > 0.0 && plan.roll(salt::DROP, link, seq, attempt) < plan.drop {
            port.stats.am_dropped_injected.inc();
            return;
        }
        let copies = if plan.dup > 0.0 && plan.roll(salt::DUP, link, seq, attempt) < plan.dup {
            port.stats.am_dup_injected.inc();
            2
        } else {
            1
        };
        for copy in 0..copies {
            // Per-copy hold decision: a long delay or a short hold that
            // lets later packets overtake (reordering).
            let copy_salt = copy as u64 * 16;
            let hold = if plan.delay > 0.0
                && plan.roll(salt::DELAY + copy_salt, link, seq, attempt) < plan.delay
            {
                Some(plan.delay_for(link, seq, attempt))
            } else if plan.reorder > 0.0
                && plan.roll(salt::REORDER + copy_salt, link, seq, attempt) < plan.reorder
            {
                // Short hold: a fraction of the long-delay floor.
                Some(plan.delay_for(link, seq, attempt) / 4)
            } else {
                None
            };
            match hold {
                Some(d) => {
                    port.stats.am_delayed_injected.inc();
                    let due = Instant::now() + d;
                    self.delayq.lock().push(Delayed {
                        due,
                        to,
                        handler,
                        from,
                        seq,
                        payload: Arc::clone(payload),
                    });
                    self.clock.arm(due);
                }
                None => {
                    // Channel/link closure is already counted and recorded
                    // by the wire; the reliable layer will retransmit or
                    // abandon with its own reporting.
                    let _ = port.wire.deliver(from, to, handler, seq, payload);
                }
            }
        }
    }

    /// Receive-side classification of a sequenced packet: `true` means the
    /// packet is a fresh logical delivery and must be processed; `false`
    /// means it is a duplicate, from before the last rollback, or addressed
    /// to a dead rank, and must be discarded without counting as a logical
    /// receive.
    ///
    /// Every receipt of the current epoch is noted for acknowledgement
    /// (subject to simulated ack loss, which only causes spurious
    /// retransmits — never double delivery).
    pub(crate) fn rx_accept(&self, port: &ChaosPort<'_>, to: Rank, from: Rank, seq: u64) -> bool {
        if seq == 0 || !self.carries(from, to) {
            return true;
        }
        if self.killed[to].load(Ordering::SeqCst) {
            return false; // a killed rank receives nothing
        }
        let (epoch, raw) = unpack_seq(seq);
        let received = self.rx_packets[to].fetch_add(1, Ordering::SeqCst) + 1;
        for (ki, k) in self.plan.kills.iter().enumerate() {
            if k.rank == to
                && received >= k.after_packets
                && !self.kill_fired[ki].load(Ordering::SeqCst)
            {
                // Latch: a rollback restores the packet counter and must
                // not re-trigger the same scripted death. The latch wakes
                // the execution's waiters: the coordinator rolls back.
                self.kill_fired[ki].store(true, Ordering::SeqCst);
                self.killed[to].store(true, Ordering::SeqCst);
                port.ledger.events().signal_all();
            }
        }
        if self
            .plan
            .recover
            .is_some_and(|every| received == self.last_snap[to].load(Ordering::SeqCst) + every)
        {
            // A cut is due: the coordinator takes it.
            port.ledger.events().signal_all();
        }
        if self.killed[to].load(Ordering::SeqCst) {
            return false;
        }
        if epoch != self.epoch.load(Ordering::SeqCst) {
            // Sent before the last rollback: the link it belonged to has
            // been put back as the cut recorded it.
            port.stats.am_dedup_hits.inc();
            return false;
        }
        let link = self.link_idx(from, to);
        let fresh = self.windows[to].lock()[self.link_row(from)].accept(raw);
        if !fresh {
            port.stats.am_dedup_hits.inc();
        }
        // Acknowledge on every receipt (duplicates re-ack, covering a
        // previously lost ack). The receiver's acceptance itself is always
        // recorded on the sender entry via `delivered`; only the ack
        // traffic is lossy: the sequence parks in the per-link range
        // accumulator and leaves with its batch once the batch is due.
        if let Some(e) = self.links[link].lock().unacked.get_mut(&raw) {
            e.delivered = true;
        }
        let (now, mut pa) = (Instant::now(), self.pending_acks[link].lock());
        let arms = pa.is_empty();
        pa.note(raw, now);
        let due = pa.due(now, self.plan.ack_flush);
        drop(pa); // a due batch leaves with no chaos lock held
        if due {
            self.flush_acks(port, link);
        } else if arms {
            self.clock.arm(now + self.plan.ack_flush);
        }
        fresh
    }

    /// Flush one link's accumulated acknowledgements: drain the range
    /// accumulator and retire the covered sequences from the sender's
    /// retransmit map — via the wire where one carries the pair, or by
    /// direct shared-memory removal on the channel wire and for
    /// out-of-fabric sentinel senders, which have no inbound link.
    ///
    /// Under injected loss a whole flush can be dropped (one ack roll per
    /// flush, not per message). Recovery needs no extra machinery: the
    /// sender retransmits, the receiver's dedup hit re-notes the
    /// sequences, and a later flush covers them.
    /// The accumulator stays locked until its batch is sent or applied: a
    /// batch overtaking an earlier one would show the sender a false hole.
    /// So a refused batch retires from `links[li]` under it, and that is
    /// the order of the two: an accumulator, then a link, never the
    /// reverse.
    fn flush_acks(&self, port: &ChaosPort<'_>, li: usize) {
        let mut pa = self.pending_acks[li].lock();
        if pa.is_empty() {
            return;
        }
        let (mut ranges, ordinal) = pa.take();
        port.stats.ack_flushes.inc();
        let plan = &self.plan;
        if plan.drop > 0.0
            && plan.roll(salt::ACK, li as u64, ranges[0].0, ordinal as u32) < plan.drop
        {
            return; // whole flush lost; retransmits re-note the seqs
        }
        port.stats
            .acks_batched
            .add(ranges.iter().map(|&(a, b)| b - a + 1).sum());
        let epoch = self.epoch.load(Ordering::SeqCst);
        for r in &mut ranges {
            *r = (pack_seq(epoch, r.0), pack_seq(epoch, r.1));
        }
        let (sender_row, acker) = (li / self.n, li % self.n);
        // On a wire, the receive dispatch applies the ranges on arrival.
        let sent = if sender_row < self.n {
            port.wire.send_ack_range(acker, sender_row, ranges)
        } else {
            Err(Some(ranges))
        };
        if let Err(back) = sent {
            // A refused batch covered seqs the receiver marked `delivered`.
            let mut link = self.links[li].lock();
            let ranges = back.unwrap_or_else(|| {
                let acked = link.unacked.iter().filter(|(_, e)| e.delivered);
                acked
                    .map(|(&seq, _)| (pack_seq(epoch, seq), pack_seq(epoch, seq)))
                    .collect()
            });
            let due = self.retire(&mut link, &ranges);
            drop((link, pa));
            self.arm_retransmit(due);
        }
    }

    /// Retire every sequence covered by `ranges` (bounds packed with their
    /// epoch) from link `li`'s retransmit map.
    pub(crate) fn apply_ack_ranges(&self, li: usize, ranges: &[(u64, u64)]) {
        let due = self.retire(&mut self.links[li].lock(), ranges);
        self.arm_retransmit(due);
    }

    /// Retire `ranges` from `link`, returning when what is left falls due
    /// (a hole may have opened below a retired seq, or an entry become the
    /// oldest), for the caller to arm once the locks are released. The
    /// epoch is read under the link lock, which a rollback replaces the
    /// link under after it bumps the epoch: an ack from before the
    /// rollback retires nothing of the restored link.
    fn retire(&self, link: &mut LinkTx, ranges: &[(u64, u64)]) -> Option<Instant> {
        let epoch = self.epoch.load(Ordering::SeqCst);
        link.retire(ranges, epoch, Instant::now());
        link.next_due(&self.plan.retry)
    }

    fn arm_retransmit(&self, due: Option<Instant>) {
        if let Some(at) = due {
            self.clock.arm_retransmit(at);
        }
    }

    /// One pass of the reliability progress engine: release due delayed
    /// packets, flush aged acks, and — once its deadline has passed —
    /// retransmit overdue unacked packets that show evidence of loss and
    /// abandon packets whose retry budget is spent. Returns the earliest
    /// instant a later pass could act (a lower bound), if any.
    pub(crate) fn progress(&self, port: &ChaosPort<'_>) -> Option<Instant> {
        let _pass = self.recovering().then(|| self.pass.lock());
        let now = Instant::now();
        // Release held packets whose due time has passed.
        let (due, mut next) = {
            let mut q = self.delayq.lock();
            let mut due = Vec::new();
            let mut i = 0;
            while i < q.len() {
                if q[i].due <= now {
                    due.push(q.swap_remove(i));
                } else {
                    i += 1;
                }
            }
            (due, q.iter().map(|d| d.due).min())
        };
        for d in due {
            if self.killed[d.to].load(Ordering::SeqCst) {
                port.stats.am_dropped_injected.inc();
                continue;
            }
            let _ = port
                .wire
                .deliver(d.from, d.to, d.handler, d.seq, &d.payload);
        }
        // Flush ack accumulators whose oldest entry has aged past the
        // flush deadline — before the retransmit scan, so a due ack beats
        // a spurious retransmission of the packets it covers.
        for li in 0..self.pending_acks.len() {
            let at = self.pending_acks[li].lock().due_at(self.plan.ack_flush);
            match at {
                Some(at) if at <= now => self.flush_acks(port, li),
                at => next = earliest(next, at),
            }
        }
        // A kill latched under recovery: every link is about to roll back,
        // and the rollback re-arms the scan. Nothing is resent or given up.
        let doomed = self.recovering() && self.killed.iter().any(|k| k.load(Ordering::SeqCst));
        if self.clock.take_retransmit(now) && !doomed {
            let at = self.retransmit_scan(port, now);
            self.arm_retransmit(at);
        }
        earliest(next, self.clock.retransmit_at())
    }

    /// Retransmit / abandon overdue unacked packets; returns when the
    /// entries left next fall due.
    fn retransmit_scan(&self, port: &ChaosPort<'_>, now: Instant) -> Option<Instant> {
        let mut next = None;
        // `budget`: how long one entry takes to spend its retries, the
        // last wait included.
        let retry = &self.plan.retry;
        let budget: Duration = (1..=retry.max_retries + 1).map(|k| retry.backoff(k)).sum();
        for (li, l) in self.links.iter().enumerate() {
            let (from_row, to) = (li / self.n, li % self.n);
            let from = self.row_sender(from_row);
            let mut retransmit: Vec<(u64, u32, Arc<Vec<u8>>, u32)> = Vec::new();
            let mut exhausted: Vec<(u64, u32, u32, bool)> = Vec::new();
            // The link's lock ends with this block: no window is taken
            // under it.
            {
                let mut link = l.lock();
                if link.unacked.is_empty() {
                    continue;
                }
                // Evidence of loss: a hole below retired seqs, or a link
                // silent for the oldest entry's backoff (resent alone, as
                // TCP resends its earliest segment; a restored link: all).
                // Silent a whole budget with its oldest entry spent, the
                // link is dead: every entry past its deadline goes too.
                let (high, clock) = (link.retired_high, link.clock);
                let silent_for = |d| clock.is_none_or(|c| now.saturating_duration_since(c) >= d);
                let oldest = link.unacked.keys().min().copied();
                let dead = oldest.is_some_and(|seq| {
                    let e = &link.unacked[&seq];
                    e.attempts >= retry.max_retries && now >= e.next_retry && silent_for(budget)
                });
                let mut give_up: Vec<u64> = Vec::new();
                for (&seq, e) in link.unacked.iter_mut() {
                    if now < e.next_retry {
                        continue;
                    }
                    if dead || e.attempts >= retry.max_retries {
                        give_up.push(seq);
                        continue;
                    }
                    let silence = retry.backoff(e.attempts + 1);
                    let silent = clock.is_none() || (oldest == Some(seq) && silent_for(silence));
                    if seq >= high && !silent {
                        continue; // no hole, no silence: no evidence of loss
                    }
                    e.attempts += 1;
                    e.next_retry = now + retry.backoff(e.attempts + 1);
                    retransmit.push((seq, e.handler, Arc::clone(&e.payload), e.attempts));
                }
                for seq in give_up {
                    let e = link.unacked.remove(&seq).expect("seq just listed");
                    exhausted.push((seq, e.handler, e.attempts, e.delivered));
                }
                next = earliest(next, link.next_due(retry));
            }
            for (seq, handler, payload, attempt) in retransmit {
                port.stats.am_retries.inc();
                self.transmit(port, from, to, handler, seq, &payload, attempt);
            }
            for (seq, handler, attempts, delivered) in exhausted {
                // Claim the sequence number in the receiver's window: if
                // the claim succeeds the packet was never (and will never
                // be) logically delivered — report the loss and settle it.
                // If it fails, the receiver accepted a copy at some point
                // (the ack was lost); nothing was lost. The window stays
                // locked through the settle, within the pass a cut
                // excludes: a cut sees the claim and the settle, or neither.
                if delivered {
                    continue;
                }
                let mut windows = self.windows[to].lock();
                if windows[from_row].accept(seq) {
                    port.stats.am_retry_exhausted.inc();
                    port.record_error(
                        CommError::new(
                            CommErrorKind::RetryBudgetExhausted,
                            format!(
                                "abandoned after {attempts} of {} retransmissions",
                                retry.max_retries
                            ),
                        )
                        .link((from != usize::MAX).then_some(from), to)
                        .handler(handler)
                        .seq(seq),
                    );
                    // The settle goes last: once the ledger reads drained
                    // the run may finish and collect its report, and the
                    // loss must already be in it.
                    port.settle(li);
                }
                drop(windows);
            }
        }
        next
    }

    /// What the reliable layer still holds, for a deadline-miss record:
    /// per directed link (`from→to`, the seeding sentinel as `ext`), the
    /// unacked entries and the seqs waiting in its pending ack batch.
    pub(crate) fn describe_pending(&self) -> String {
        let count = |c: u64| (c > 0).then(|| c.to_string());
        let unacked = name_links(self.n, |li| {
            count(self.links[li].lock().unacked.len() as u64)
        });
        let acks = name_links(self.n, |li| count(self.pending_acks[li].lock().pending()));
        format!("unacked by link: {unacked}; pending ack batches (seqs) by link: {acks}")
    }
}

/// The earlier of two optional deadlines.
fn earliest(a: Option<Instant>, b: Option<Instant>) -> Option<Instant> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

#[cfg(test)]
#[path = "chaos_harness.rs"]
pub(crate) mod harness;

#[cfg(all(test, not(ttg_model)))]
#[path = "chaos_tests.rs"]
mod tests;

#[cfg(all(test, ttg_model))]
#[path = "chaos_model.rs"]
mod model;
