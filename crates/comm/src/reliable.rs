//! Reliable active-message delivery: sequence numbers, receive-side
//! deduplication, and sender-side retransmission state.
//!
//! When a [`FaultPlan`](crate::FaultPlan) is installed on a fabric, every
//! inter-rank AM is assigned a per-link sequence number and held by the
//! sender until acknowledged. The receiver runs a sliding anti-replay
//! window ([`SeqWindow`]) per incoming link: the first copy of a sequence
//! number is *fresh* (delivered, acked), every later copy — an injected
//! duplicate, a spurious retransmit, a reordered stray — is a *duplicate*
//! and is dropped before it can double-fire a task. Exactly-once **logical**
//! delivery therefore holds no matter what the physical layer does, and
//! termination detection (the fabric's in-flight ledger) counts logical
//! messages only.
//!
//! A packet reordered so far that it falls behind the window is treated as
//! a duplicate; its sender never sees an ack and eventually exhausts the
//! retry budget, converting the loss into a structured
//! [`CommError`](crate::CommError) instead of a silent hang. Window sizing
//! is therefore a liveness/metadata trade-off, not a correctness one — see
//! `DESIGN.md` §8.
//!
//! Acknowledgements are **batched** ([`PendingAcks`], DESIGN §12): accepted
//! seqs coalesce into ranges, sent once the oldest has waited `ack_flush`.
//! Retransmission needs **evidence of loss** ([`LinkTx`]): a hole below
//! retired seqs (RFC 2018), or a link clock that ran the backoff without
//! an ack retiring anything (RFC 6298 §5) — a receiver that lags while its
//! acks keep flowing causes no retransmission.
//!
//! A wire seq and an ack bound carry the rollback epoch in their top bits
//! ([`pack_seq`]): after a rollback (DESIGN §13) a copy or an ack sent
//! before it is dropped.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;
use ttg_model::sync::Instant;

use crate::buf::{ReadBuf, WireError, WriteBuf};
use crate::fault::RetryPolicy;

/// Bits of a wire sequence number — and of an `AckRange` bound — that
/// carry the rollback epoch (DESIGN §13).
///
/// A rollback restarts every link from the last global cut, so after it a
/// raw seq can name a different message. A copy or an ack sent before the
/// rollback carries the older epoch and is dropped. Epoch 0 packs to the
/// raw seq itself: a run that never rolls back is bit-identical on the
/// wire. The epoch counts modulo `2^EPOCH_BITS` ([`next_epoch`]): a copy
/// would have to outlive 256 rollbacks to pass for a current one.
pub(crate) const EPOCH_BITS: u32 = 8;
const SEQ_BITS: u32 = 64 - EPOCH_BITS;

const SEQ_MASK: u64 = (1 << SEQ_BITS) - 1;

/// The rollback epoch after `epoch`, wrapping within [`EPOCH_BITS`].
#[inline]
pub(crate) fn next_epoch(epoch: u64) -> u64 {
    (epoch + 1) & ((1 << EPOCH_BITS) - 1)
}

/// Pack a rollback epoch into the high bits of a raw sequence number.
#[inline]
pub(crate) fn pack_seq(epoch: u64, raw: u64) -> u64 {
    debug_assert!(epoch < 1 << EPOCH_BITS, "epoch overflows its bits");
    debug_assert!(raw <= SEQ_MASK, "raw seq overflows epoch packing");
    (epoch << SEQ_BITS) | (raw & SEQ_MASK)
}

/// Split a wire sequence number into (epoch, raw seq).
#[inline]
pub(crate) fn unpack_seq(wire: u64) -> (u64, u64) {
    (wire >> SEQ_BITS, wire & SEQ_MASK)
}

/// Sequence numbers tracked per window: packets more than `WINDOW` behind
/// the link's high-water mark are classified duplicates unconditionally.
pub(crate) const WINDOW: usize = 1024;

const WORDS: usize = WINDOW / 64;

/// Receive-side anti-replay window for one incoming link (IPsec-style
/// ring bitmap).
///
/// Sequence numbers start at 1 and are *mostly* contiguous; the bitmap
/// absorbs reordering up to [`WINDOW`] packets deep.
#[derive(Debug, Clone)]
pub(crate) struct SeqWindow {
    /// Highest sequence number accepted so far (0 = none yet).
    high: u64,
    /// Ring bitmap over the last `WINDOW` sequence numbers.
    bits: [u64; WORDS],
}

impl Default for SeqWindow {
    fn default() -> Self {
        SeqWindow {
            high: 0,
            bits: [0; WORDS],
        }
    }
}

impl SeqWindow {
    /// Fresh window.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn bit(seq: u64) -> (usize, u64) {
        let slot = (seq % WINDOW as u64) as usize;
        (slot / 64, 1u64 << (slot % 64))
    }

    #[inline]
    fn test_and_set(&mut self, seq: u64) -> bool {
        let (w, m) = Self::bit(seq);
        let was = self.bits[w] & m != 0;
        self.bits[w] |= m;
        !was
    }

    /// Classify `seq`: `true` = first sighting (deliver it), `false` =
    /// duplicate or beyond-window stray (drop it).
    pub(crate) fn accept(&mut self, seq: u64) -> bool {
        if seq == 0 {
            // 0 is the "unsequenced" sentinel; never tracked.
            return true;
        }
        if seq + (WINDOW as u64) <= self.high {
            // Too old: its slot has been reused. Dropping a *fresh* packet
            // here is safe: the sender keeps retransmitting and, failing
            // that, reports retry-budget exhaustion.
            return false;
        }
        if seq > self.high {
            // Advance: clear the slots the window slides over.
            let start = self.high + 1;
            let clear_from = start.max(seq.saturating_sub(WINDOW as u64 - 1));
            for s in clear_from..seq {
                let (w, m) = Self::bit(s);
                self.bits[w] &= !m;
            }
            self.high = seq;
            let (w, m) = Self::bit(seq);
            self.bits[w] |= m;
            return true;
        }
        self.test_and_set(seq)
    }

    /// Serialize the full window state (high-water mark + ring bitmap)
    /// into a snapshot buffer.
    pub(crate) fn export(&self, b: &mut WriteBuf) {
        b.put_u64(self.high);
        for w in &self.bits {
            b.put_u64(*w);
        }
    }

    /// Restore a window previously written by [`SeqWindow::export`].
    pub(crate) fn import(r: &mut ReadBuf<'_>) -> Result<SeqWindow, WireError> {
        let high = r.get_u64()?;
        let mut bits = [0u64; WORDS];
        for w in bits.iter_mut() {
            *w = r.get_u64()?;
        }
        Ok(SeqWindow { high, bits })
    }
}

/// One unacknowledged logical packet held for retransmission.
#[derive(Debug, Clone)]
pub(crate) struct Unacked {
    /// Destination handler.
    pub(crate) handler: u32,
    /// Serialized payload (shared with in-flight physical copies).
    pub(crate) payload: Arc<Vec<u8>>,
    /// Retransmissions performed so far.
    pub(crate) attempts: u32,
    /// Backoff deadline: resent past it on evidence of loss, or abandoned.
    pub(crate) next_retry: Instant,
    /// Set by the receiver the moment a copy is accepted. The *ack*
    /// (removal from this table) may be lost by fault injection, but the
    /// delivered flag is ground truth: an exhausted entry that was
    /// delivered is dropped silently instead of reported lost.
    pub(crate) delivered: bool,
}

/// The sent, unacknowledged packets of one link, ordered by seq: a send
/// appends at the back, an in-order ack pops the front, and anything else
/// binary-searches. It holds one slot per entry, never one per seq between
/// its oldest and its newest, so a hole costs nothing.
#[derive(Debug, Default)]
pub(crate) struct Outstanding {
    entries: VecDeque<(u64, Unacked)>,
    /// Entries resent at least once. With none, no entry is spent, and
    /// [`LinkTx::next_due`] looks no further than the front and the holes.
    retried: usize,
}

impl Outstanding {
    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// The entry with the lowest seq.
    pub(crate) fn oldest(&self) -> Option<(u64, &Unacked)> {
        self.entries.front().map(|(seq, e)| (*seq, e))
    }

    /// Every entry, in ascending seq.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &Unacked)> {
        self.entries.iter().map(|(seq, e)| (*seq, e))
    }

    /// Hold `e` under `seq`, replacing an entry held under it.
    pub(crate) fn insert(&mut self, seq: u64, e: Unacked) {
        self.retried += usize::from(e.attempts > 0);
        match self.entries.back() {
            Some(&(last, _)) if last >= seq => {
                match self.entries.binary_search_by_key(&seq, |&(s, _)| s) {
                    Ok(i) => {
                        let old = std::mem::replace(&mut self.entries[i].1, e);
                        self.retried -= usize::from(old.attempts > 0);
                    }
                    Err(i) => self.entries.insert(i, (seq, e)),
                }
            }
            _ => self.entries.push_back((seq, e)),
        }
    }

    /// Mark `seq` accepted by the receiver, if it is held.
    pub(crate) fn mark_delivered(&mut self, seq: u64) {
        if let Ok(i) = self.entries.binary_search_by_key(&seq, |&(s, _)| s) {
            self.entries[i].1.delivered = true;
        }
    }

    /// Keep the entries `keep` returns `true` for, in ascending seq; it may
    /// change what it keeps.
    pub(crate) fn retain_mut(&mut self, mut keep: impl FnMut(u64, &mut Unacked) -> bool) {
        self.entries.retain_mut(|(seq, e)| keep(*seq, e));
        self.retried = self.entries.iter().filter(|(_, e)| e.attempts > 0).count();
    }

    /// Drop every entry in `first..=last`, returning the highest seq
    /// dropped, if any.
    fn remove_range(&mut self, first: u64, last: u64) -> Option<u64> {
        let lo = self.entries.partition_point(|&(s, _)| s < first);
        let hi = self.entries.partition_point(|&(s, _)| s <= last);
        if lo >= hi {
            return None;
        }
        let high = self.entries[hi - 1].0;
        for (_, e) in self.entries.drain(lo..hi) {
            self.retried -= usize::from(e.attempts > 0);
        }
        Some(high)
    }

    /// How many entries sit below `seq`.
    fn below(&self, seq: u64) -> usize {
        self.entries.partition_point(|&(s, _)| s < seq)
    }
}

/// Sender-side state of one directed link.
#[derive(Debug, Default)]
pub(crate) struct LinkTx {
    /// Last sequence number assigned (numbers start at 1).
    pub(crate) next_seq: u64,
    /// In-flight (sent, unacked) packets, ordered by sequence number.
    pub(crate) unacked: Outstanding,
    /// Highest seq an ack has retired: an entry below it is a hole.
    pub(crate) retired_high: u64,
    /// Retransmission clock, started by a send that finds nothing pending
    /// and restarted by each retiring ack; `None` on a restored link.
    pub(crate) clock: Option<Instant>,
}

impl LinkTx {
    /// Assign the next sequence number on this link.
    pub(crate) fn assign_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq
    }

    /// Retire every held seq `ranges` covers, skipping a range packed with
    /// another epoch than `epoch` ([`pack_seq`]); retiring any is progress.
    pub(crate) fn retire(&mut self, ranges: &[(u64, u64)], epoch: u64, now: Instant) {
        let current = ranges
            .iter()
            .filter(|&&(first, _)| unpack_seq(first).0 == epoch);
        for &(first, last) in current {
            let (first, last) = (unpack_seq(first).1, unpack_seq(last).1);
            if let Some(seq) = self.unacked.remove_range(first, last) {
                self.retired_high = self.retired_high.max(seq);
                self.clock = Some(now);
            }
        }
    }

    /// The earliest instant the retransmit scan could act on this link:
    /// an entry past its deadline is resent or abandoned only when it is
    /// spent, sits below a retired seq (a hole), or is the oldest on a link
    /// silent for its backoff (a restored link, with no clock, counts as
    /// silent). `None`: only an ack can make an entry actionable.
    pub(crate) fn next_due(&self, retry: &RetryPolicy) -> Option<Instant> {
        let oldest = self.unacked.oldest().map(|(seq, _)| seq);
        let due = |(seq, e): (u64, &Unacked)| match self.clock {
            _ if e.attempts >= retry.max_retries || seq < self.retired_high => Some(e.next_retry),
            None => Some(e.next_retry),
            Some(c) if oldest == Some(seq) => {
                Some(e.next_retry.max(c + retry.backoff(e.attempts + 1)))
            }
            Some(_) => None,
        };
        // Past the holes and the front, only a spent entry can be due, or
        // any entry of a restored link.
        let any_spent = self.unacked.retried > 0 || retry.max_retries == 0;
        let scan = if any_spent || self.clock.is_none() {
            self.unacked.len()
        } else {
            self.unacked.below(self.retired_high).max(1)
        };
        self.unacked.iter().take(scan).filter_map(due).min()
    }

    /// Move the link clock and every deadline `by` later: time a pause
    /// kept the receivers from reading does not count as silence.
    pub(crate) fn postpone(&mut self, by: Duration) {
        self.clock = self.clock.map(|c| c + by);
        for (_, e) in self.unacked.entries.iter_mut() {
            e.next_retry += by;
        }
    }

    /// Serialize the sender-side link state: the seq counter plus every
    /// in-flight packet in ascending seq (payload included — a rollback
    /// re-arms it without re-running the task that produced it).
    pub(crate) fn export(&self, b: &mut WriteBuf) {
        b.put_u64(self.next_seq);
        b.put_u64(self.unacked.len() as u64);
        for (seq, u) in self.unacked.iter() {
            b.put_u64(seq);
            b.put_u32(u.handler);
            b.put_u8(u.delivered as u8);
            b.put_len_bytes(&u.payload);
        }
    }

    /// Restore link state written by [`LinkTx::export`]. Retry clocks
    /// restart from `now`: attempts reset to zero and every entry is due
    /// immediately — the link clock is not running — so the progress pass
    /// after a rollback re-arms the whole in-flight set (receiver windows
    /// dedup the copies the cut had already processed).
    pub(crate) fn import(r: &mut ReadBuf<'_>, now: Instant) -> Result<LinkTx, WireError> {
        let next_seq = r.get_u64()?;
        let n = r.get_u64()?;
        // An entry takes at least 21 bytes: an untrusted count reserves no
        // more than the bytes left could hold.
        let mut entries = Vec::with_capacity(n.min(r.remaining() as u64 / 21) as usize);
        for _ in 0..n {
            let seq = r.get_u64()?;
            let handler = r.get_u32()?;
            let delivered = r.get_u8()? != 0;
            let payload = Arc::new(r.get_len_bytes()?.to_vec());
            let e = Unacked {
                handler,
                payload,
                attempts: 0,
                next_retry: now,
                delivered,
            };
            entries.push((seq, e));
        }
        // `export` writes ascending seqs; other bytes are put in order,
        // and of two entries under one seq the first read is kept.
        entries.sort_by_key(|&(seq, _)| seq);
        entries.dedup_by_key(|&mut (seq, _)| seq);
        let unacked = Outstanding {
            entries: entries.into(),
            retried: 0,
        };
        Ok(LinkTx {
            next_seq,
            unacked,
            ..LinkTx::default()
        })
    }
}

/// Inclusive `(first, last)` seq ranges of one ack batch, ascending.
pub(crate) type AckRanges = Vec<(u64, u64)>;
/// `Err(Some(..))`: no wire carries the pair; `Err(None)`: the link refused.
pub(crate) type AckSent = Result<(), Option<AckRanges>>;

/// Receive-side accumulator of acknowledgements owed on one incoming link.
///
/// Instead of answering every accepted message with its own ack, the
/// receiver notes accepted sequence numbers here, coalescing them into
/// inclusive `(first, last)` ranges. The fabric flushes the accumulator
/// as one batched acknowledgement once it is [`due`](Self::due): checked
/// by the receiving thread after every note and by the progress tick, so
/// the last batch of a burst leaves too. In-order traffic degenerates to a
/// single ever-growing range, i.e. a cumulative ack.
///
/// Duplicates are re-noted on arrival: if a flush was lost, the sender's
/// retransmit produces a dedup hit whose re-note re-arms the ack, so the
/// entry is always cleared eventually (liveness does not depend on any
/// single flush surviving).
#[derive(Debug, Default)]
pub(crate) struct PendingAcks {
    /// Inclusive, sorted, non-overlapping ranges of accepted seqs.
    ranges: AckRanges,
    /// When the oldest currently-pending ack was noted (timer anchor).
    oldest: Option<Instant>,
    /// Flush ordinal, used to salt per-flush loss rolls deterministically.
    flushes: u64,
}

impl PendingAcks {
    /// Record that `seq` was accepted (or re-accepted) at `now`.
    pub(crate) fn note(&mut self, seq: u64, now: Instant) {
        if self.oldest.is_none() {
            self.oldest = Some(now);
        }
        // Binary search for the insertion point, then merge with the
        // neighbors if adjacent. The common case — in-order delivery —
        // extends the last range in O(1).
        match self.ranges.binary_search_by(|&(first, last)| {
            if seq < first {
                std::cmp::Ordering::Greater
            } else if seq > last {
                std::cmp::Ordering::Less
            } else {
                std::cmp::Ordering::Equal
            }
        }) {
            Ok(_) => {} // already covered (duplicate re-note)
            Err(i) => {
                let glues_left = i > 0 && self.ranges[i - 1].1 + 1 == seq;
                let glues_right = i < self.ranges.len() && seq + 1 == self.ranges[i].0;
                match (glues_left, glues_right) {
                    (true, true) => {
                        self.ranges[i - 1].1 = self.ranges[i].1;
                        self.ranges.remove(i);
                    }
                    (true, false) => self.ranges[i - 1].1 = seq,
                    (false, true) => self.ranges[i].0 = seq,
                    (false, false) => self.ranges.insert(i, (seq, seq)),
                }
            }
        }
    }

    /// Whether any acks are pending.
    pub(crate) fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Whether the oldest pending ack has waited at least `flush_after`.
    pub(crate) fn due(&self, now: Instant, flush_after: Duration) -> bool {
        self.due_at(flush_after).is_some_and(|at| now >= at)
    }

    /// When the batch falls due (`None` while nothing is pending).
    pub(crate) fn due_at(&self, flush_after: Duration) -> Option<Instant> {
        self.oldest.map(|t| t + flush_after)
    }

    /// Drain the pending ranges for one flush, returning them together
    /// with the flush ordinal (for deterministic loss salting).
    pub(crate) fn take(&mut self) -> (AckRanges, u64) {
        self.oldest = None;
        self.flushes += 1;
        (std::mem::take(&mut self.ranges), self.flushes)
    }

    /// Total sequence numbers covered by the pending ranges.
    pub(crate) fn pending(&self) -> u64 {
        self.ranges.iter().map(|&(f, l)| l - f + 1).sum()
    }
}

#[cfg(all(test, not(ttg_model)))]
#[path = "reliable_table_tests.rs"]
mod table_tests;

#[cfg(test)]
#[cfg(not(ttg_model))]
mod tests {
    use super::*;

    #[test]
    fn in_order_stream_is_all_fresh() {
        let mut w = SeqWindow::new();
        for s in 1..=10_000u64 {
            assert!(w.accept(s), "seq {s} wrongly flagged duplicate");
        }
        assert_eq!(w.high, 10_000);
    }

    #[test]
    fn duplicates_are_rejected_everywhere_in_window() {
        let mut w = SeqWindow::new();
        for s in 1..=100u64 {
            assert!(w.accept(s));
        }
        for s in 1..=100u64 {
            assert!(!w.accept(s), "duplicate of {s} accepted");
        }
        // Still accepts genuinely new traffic afterwards.
        assert!(w.accept(101));
    }

    #[test]
    fn reordering_within_window_is_fresh_exactly_once() {
        let mut w = SeqWindow::new();
        assert!(w.accept(5));
        assert!(w.accept(2));
        assert!(w.accept(1));
        assert!(w.accept(4));
        assert!(w.accept(3));
        for s in 1..=5u64 {
            assert!(!w.accept(s));
        }
    }

    #[test]
    fn wraparound_reuses_slots_correctly() {
        // Drive far past several multiples of WINDOW; the ring must keep
        // classifying fresh/duplicate correctly as slots are reused.
        let mut w = SeqWindow::new();
        let n = 5 * WINDOW as u64 + 13;
        for s in 1..=n {
            assert!(w.accept(s));
            assert!(!w.accept(s), "seq {s} double-accepted at wraparound");
        }
        // A duplicate from exactly one window back is recognized as such.
        assert!(!w.accept(n - WINDOW as u64 + 1));
    }

    #[test]
    fn reorder_beyond_window_is_dropped() {
        let mut w = SeqWindow::new();
        // Skip seq 1, deliver a window's worth after it.
        for s in 2..(2 + WINDOW as u64) {
            assert!(w.accept(s));
        }
        // Seq 1 now trails the window: classified duplicate (the sender's
        // retry budget converts this into a structured loss report).
        assert!(!w.accept(1));
    }

    #[test]
    fn gap_jump_larger_than_window_clears_stale_state() {
        let mut w = SeqWindow::new();
        for s in 1..=10u64 {
            assert!(w.accept(s));
        }
        let far = 10 + 3 * WINDOW as u64;
        assert!(w.accept(far));
        // Everything at or below far-WINDOW is now stale.
        assert!(!w.accept(10));
        // Within the new window but unseen: fresh.
        assert!(w.accept(far - 5));
        assert!(!w.accept(far - 5));
    }

    #[test]
    fn window_edge_is_exact() {
        // The stale cutoff is seq + WINDOW <= high: with high = WINDOW + 1,
        // seq 1 sits exactly at the cutoff and seq 2 exactly inside it.
        let mut w = SeqWindow::new();
        for s in 3..=(WINDOW as u64 + 1) {
            assert!(w.accept(s));
        }
        assert_eq!(w.high, WINDOW as u64 + 1);
        // Never delivered, but its slot is out the back of the window:
        // dropped, and the sender's retry budget reports the loss.
        assert!(!w.accept(1), "stale seq at the exact edge accepted");
        // One inside the edge and never seen: fresh, exactly once.
        assert!(w.accept(2), "in-window seq at the exact edge dropped");
        assert!(!w.accept(2));
    }

    #[test]
    fn window_slide_racing_late_retransmit_never_double_delivers() {
        // Deliver seq 5, lose its ack, and let the link race ahead while
        // the sender retransmits. Wherever the retransmit lands relative
        // to the sliding edge — still in the bitmap, or already stale —
        // it must classify duplicate.
        let mut w = SeqWindow::new();
        for s in 1..=5u64 {
            assert!(w.accept(s));
        }
        // Slide until seq 5 is the oldest in-window slot (high - WINDOW + 1).
        for s in 6..=(4 + WINDOW as u64) {
            assert!(w.accept(s));
        }
        assert_eq!(w.high, 4 + WINDOW as u64);
        assert!(
            !w.accept(5),
            "retransmit inside the window double-delivered"
        );
        // One more packet pushes seq 5 out the back: now the stale path
        // rejects it (and everything older).
        assert!(w.accept(5 + WINDOW as u64));
        assert!(
            !w.accept(5),
            "retransmit behind the window double-delivered"
        );
    }

    #[test]
    fn poison_then_slide_keeps_exactly_once_accounting() {
        // The retry-exhaustion path "poisons" a seq by claiming it through
        // the same window that delivery uses (the window is the arbiter:
        // whoever accepts first — delivery or loss accounting — wins).
        let mut w = SeqWindow::new();
        for s in 1..=6u64 {
            assert!(w.accept(s));
        }
        // Sender gives up on seq 7; the poison claim must win exactly once.
        assert!(w.accept(7), "poison claim rejected");
        // A straggler copy of 7 arriving after the poison: duplicate, so
        // the packet can never be counted both lost and delivered.
        assert!(!w.accept(7), "late copy delivered after poison");
        // The window slides on (including past 7 entirely); the straggler
        // stays rejected through both regimes and new traffic stays fresh.
        for s in 8..=(7 + WINDOW as u64) {
            assert!(w.accept(s), "fresh seq {s} rejected after poison");
        }
        assert!(!w.accept(7), "late copy delivered after poison and slide");
        assert!(w.accept(8 + WINDOW as u64));
    }

    #[test]
    fn sentinel_zero_is_always_accepted() {
        let mut w = SeqWindow::new();
        assert!(w.accept(0));
        assert!(w.accept(0));
        assert_eq!(w.high, 0);
    }

    #[test]
    fn link_assigns_monotonic_seqs_from_one() {
        let mut l = LinkTx::default();
        assert_eq!(l.assign_seq(), 1);
        assert_eq!(l.assign_seq(), 2);
        assert_eq!(l.assign_seq(), 3);
    }

    #[test]
    fn pending_acks_coalesce_in_order_traffic_to_one_range() {
        let mut p = PendingAcks::default();
        let now = Instant::now();
        for s in 1..=100u64 {
            p.note(s, now);
        }
        assert_eq!(p.pending(), 100);
        let (ranges, flush_no) = p.take();
        assert_eq!(ranges, vec![(1, 100)]);
        assert_eq!(flush_no, 1);
        assert!(p.is_empty());
        assert_eq!(p.pending(), 0);
    }

    #[test]
    fn pending_acks_merge_out_of_order_and_ignore_duplicates() {
        let mut p = PendingAcks::default();
        let now = Instant::now();
        for s in [5u64, 1, 3, 2, 9, 4, 5, 1] {
            p.note(s, now);
        }
        assert_eq!(p.pending(), 6);
        let (ranges, _) = p.take();
        // 1..=5 glued from both sides (including the 3 bridging 2 and 4);
        // 9 stands alone.
        assert_eq!(ranges, vec![(1, 5), (9, 9)]);
    }

    #[test]
    fn pending_acks_due_tracks_oldest_note() {
        let mut p = PendingAcks::default();
        let t0 = Instant::now();
        assert!(!p.due(t0, Duration::from_micros(100)), "empty is never due");
        p.note(1, t0);
        assert!(!p.due(t0, Duration::from_micros(100)));
        assert!(p.due(t0 + Duration::from_micros(100), Duration::from_micros(100)));
        // A later note does not push the deadline out: oldest anchors it.
        p.note(2, t0 + Duration::from_micros(90));
        assert!(p.due(t0 + Duration::from_micros(100), Duration::from_micros(100)));
        // Take clears the anchor; the next note re-arms it.
        let _ = p.take();
        assert!(!p.due(t0 + Duration::from_secs(1), Duration::from_micros(100)));
        p.note(3, t0 + Duration::from_secs(1));
        assert!(p.due(t0 + Duration::from_secs(2), Duration::from_micros(100)));
    }

    #[test]
    fn pending_acks_flush_ordinal_increments() {
        let mut p = PendingAcks::default();
        let now = Instant::now();
        p.note(1, now);
        assert_eq!(p.take().1, 1);
        p.note(2, now);
        assert_eq!(p.take().1, 2);
    }

    fn roundtrip(w: &SeqWindow) -> SeqWindow {
        let mut b = WriteBuf::new();
        w.export(&mut b);
        SeqWindow::import(&mut ReadBuf::new(b.as_slice())).unwrap()
    }

    #[test]
    fn window_export_import_mid_slide_preserves_classification() {
        // Snapshot a window mid-slide — high-water mark deep into the
        // stream, with a scatter of holes still open inside the window —
        // and check the restored copy classifies exactly like the live one.
        let mut w = SeqWindow::new();
        for s in 1..=5_000u64 {
            if s % 7 != 0 || s + (WINDOW as u64) <= 5_000 {
                w.accept(s);
            }
        }
        let mut r = roundtrip(&w);
        assert_eq!(r.high, w.high);
        for s in 1..=5_100u64 {
            assert_eq!(
                w.accept(s),
                r.accept(s),
                "restored window diverged at seq {s}"
            );
        }
    }

    #[test]
    fn poisoned_seq_state_survives_restore() {
        // A poison-claimed seq (the fabric marks an exhausted undelivered
        // seq as seen so a late stray cannot double-fire) must still read
        // as a duplicate after export/import.
        let mut w = SeqWindow::new();
        for s in 1..=50u64 {
            w.accept(s);
        }
        assert!(w.accept(60), "poison claim should be fresh");
        let mut r = roundtrip(&w);
        assert!(!r.accept(60), "poison claim lost across restore");
        assert!(r.accept(55), "unrelated in-window seq wrongly rejected");
    }

    #[test]
    fn rearmed_retransmit_lands_in_restored_window_exactly_once() {
        // After a rollback a window restored from the cut sees the same
        // seqs re-armed: those the cut had processed must dedup, the first
        // later copy must land, and only once.
        let mut w = SeqWindow::new();
        for s in 1..=10u64 {
            w.accept(s);
        }
        let mut r = roundtrip(&w);
        for s in 1..=10u64 {
            assert!(!r.accept(s), "pre-snapshot seq {s} replayed twice");
        }
        assert!(r.accept(11), "fresh replay must land");
        assert!(!r.accept(11), "fresh replay landed twice");
    }

    #[test]
    fn linktx_export_import_rearms_retries() {
        let mut tx = LinkTx::default();
        let now = Instant::now();
        for _ in 0..3 {
            let seq = tx.assign_seq();
            tx.unacked.insert(
                seq,
                Unacked {
                    handler: 7,
                    payload: Arc::new(vec![seq as u8; 4]),
                    attempts: 5,
                    next_retry: now + Duration::from_secs(100),
                    delivered: seq == 2,
                },
            );
        }
        tx.retire(&[(3, 3), (pack_seq(1, 1), pack_seq(1, 2))], 0, now);
        assert_eq!((tx.retired_high, tx.clock), (3, Some(now)));
        let mut b = WriteBuf::new();
        tx.export(&mut b);
        let got = LinkTx::import(&mut ReadBuf::new(b.as_slice()), now).unwrap();
        assert_eq!(got.next_seq, 3);
        assert_eq!(got.unacked.len(), 2);
        // No retired seq and no running clock: every entry is due at once.
        assert_eq!((got.retired_high, got.clock), (0, None));
        for (seq, u) in got.unacked.iter() {
            assert_eq!(u.attempts, 0, "attempts must reset on restore");
            assert!(u.next_retry <= now, "restored entries must be due");
            assert_eq!(u.delivered, seq == 2);
            assert_eq!(u.payload.as_slice(), &vec![seq as u8; 4]);
        }
    }

    #[test]
    fn epoch_packing_roundtrip() {
        for epoch in [0u64, 1, 5, 255] {
            for raw in [1u64, 42, SEQ_MASK] {
                let wire = pack_seq(epoch, raw);
                assert_eq!(unpack_seq(wire), (epoch, raw));
            }
        }
        // Epoch 0 leaves the wire seq identical to the raw seq, so runs
        // that never roll back are bit-identical on the wire.
        assert_eq!(pack_seq(0, 77), 77);
    }
}
