//! Checkpoint/restore recovery of a script-killed rank (DESIGN §13): the
//! pluggable snapshot persistence, and the comm-layer half of a snapshot
//! and of a restore over the reliable layer's [`ChaosState`].
//!
//! The executor periodically exports each rank's recovery state — matching
//! tables, dedup windows, seq counters, and in-flight messages — as one
//! opaque byte blob per rank and hands it to a [`SnapshotSink`]. On rank
//! death it loads the last stored blob and restores from it; a rank with
//! no stored snapshot restores to empty state, which is also correct (the
//! sender-side replay logs cover the run from message one — pure
//! message-logging recovery, just slower).
//!
//! Port: the [`ChaosPort`] of [`crate::chaos`].

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use ttg_model::sync::Ordering;

use parking_lot::Mutex;

use crate::buf::{ReadBuf, WireError, WriteBuf};
use crate::chaos::{ChaosPort, ChaosState};
use crate::error::{CommError, CommErrorKind};
use crate::links::Rank;
use crate::reliable::{pack_seq, ContentLog, LinkTx, SeqWindow, REPLAY_BIT};

/// Where per-rank recovery snapshots live. `store` fully replaces the
/// previous snapshot for the rank; `load` returns the latest stored blob.
pub trait SnapshotSink: Send + Sync {
    /// Persist rank `rank`'s snapshot, replacing any previous one.
    fn store(&self, rank: usize, bytes: &[u8]) -> std::io::Result<()>;
    /// Load the latest snapshot for `rank` (`None` = never stored).
    fn load(&self, rank: usize) -> std::io::Result<Option<Vec<u8>>>;
}

/// In-memory sink (what the executor installs: an in-process restore
/// happens within one address space and needs no filesystem traffic).
#[derive(Default)]
pub struct MemorySnapshotSink {
    blobs: Mutex<HashMap<usize, Vec<u8>>>,
}

impl MemorySnapshotSink {
    /// Empty sink.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SnapshotSink for MemorySnapshotSink {
    fn store(&self, rank: usize, bytes: &[u8]) -> std::io::Result<()> {
        self.blobs.lock().insert(rank, bytes.to_vec());
        Ok(())
    }

    fn load(&self, rank: usize) -> std::io::Result<Option<Vec<u8>>> {
        Ok(self.blobs.lock().get(&rank).cloned())
    }
}

/// The checkpoint/restore surface an executor drives, handed out by the
/// fabric when its fault plan enables recovery: the reliable layer's state
/// plus the port it runs against.
pub struct Recovery<'a> {
    pub(crate) cs: &'a ChaosState,
    pub(crate) port: ChaosPort<'a>,
}

impl Recovery<'_> {
    /// Whether rank `r` has accepted enough packets since its last
    /// snapshot for a new one to be due.
    pub fn snapshot_due(&self, r: Rank) -> bool {
        let cs = self.cs;
        let Some(every) = cs.plan.recover else {
            return false;
        };
        !cs.killed[r].load(Ordering::SeqCst)
            && cs.rx_packets[r].load(Ordering::SeqCst)
                >= cs.last_snap[r].load(Ordering::SeqCst) + every
    }

    /// Ranks killed by script, for recovery to bring back.
    pub fn killed_ranks(&self) -> Vec<Rank> {
        let killed = &self.cs.killed;
        (0..killed.len())
            .filter(|&r| killed[r].load(Ordering::SeqCst))
            .collect()
    }

    /// Export rank `r`'s comm-layer recovery state: incoming dedup
    /// windows, packet counter, content logs, and outgoing link state
    /// (seq counters + in-flight payloads). Called on `r`'s comm thread
    /// between deliveries, with `r`'s worker pool idle — that pair of
    /// conditions is the consistent cut (DESIGN §13).
    pub fn export_rank(&self, r: Rank, b: &mut WriteBuf) {
        let cs = self.cs;
        {
            let windows = cs.windows[r].lock();
            b.put_u64(windows.len() as u64);
            for w in windows.iter() {
                w.export(b);
            }
        }
        b.put_u64(cs.rx_packets[r].load(Ordering::SeqCst));
        {
            let logs = cs.content_logs[r].lock();
            b.put_u64(logs.len() as u64);
            for log in logs.iter() {
                log.export(b);
            }
        }
        b.put_u64(cs.n as u64);
        for t in 0..cs.n {
            cs.links[cs.link_idx(r, t)].lock().export(b);
        }
    }

    /// Persist a completed snapshot blob for rank `r` through the sink
    /// and advance the rank's snapshot bookkeeping. A sink that fails is a
    /// TTG047 record; the previous snapshot remains the restore point.
    pub fn commit_snapshot(&self, r: Rank, blob: &[u8]) -> Result<(), String> {
        let (cs, port) = (self.cs, &self.port);
        let sink = cs.snapshot_sink.lock().clone();
        let Some(sink) = sink else {
            return Err("no snapshot sink installed".into());
        };
        if let Err(e) = sink.store(r, blob) {
            port.record_error(
                CommError::new(CommErrorKind::SnapshotFailed, e.to_string()).link(None, r),
            );
            return Err(e.to_string());
        }
        cs.last_snap[r].store(cs.rx_packets[r].load(Ordering::SeqCst), Ordering::SeqCst);
        port.stats.snapshots_taken.inc();
        port.stats.snapshot_bytes.add(blob.len() as u64);
        Ok(())
    }

    /// Load rank `r`'s last stored snapshot blob, if any.
    pub fn load_snapshot(&self, r: Rank) -> Option<Vec<u8>> {
        let sink = self.cs.snapshot_sink.lock().clone()?;
        sink.load(r).ok().flatten()
    }

    /// Restore rank `r`'s comm-layer state from a snapshot section
    /// (`None` = restore to empty: valid, because the sender-side replay
    /// logs cover the run from its first message), bump the rank's send
    /// incarnation, clear its killed flag, and replay every logged
    /// message toward it. The caller must have restored the rank's
    /// matching tables first and verified its worker pool is idle.
    pub fn restore_rank(&self, r: Rank, section: Option<&[u8]>) -> Result<(), WireError> {
        let (cs, port) = (self.cs, &self.port);
        let n = cs.n;
        let now = Instant::now();
        // Decode the snapshot (or synthesize empty state).
        let mut windows: Vec<SeqWindow> = vec![SeqWindow::new(); n + 1];
        let mut rx_packets = 0u64;
        let mut logs: Vec<ContentLog> = (0..n + 1).map(|_| ContentLog::new()).collect();
        let mut out_links: Vec<LinkTx> = (0..n).map(|_| LinkTx::default()).collect();
        if let Some(bytes) = section {
            let mut rd = ReadBuf::new(bytes);
            let nw = rd.get_u64()? as usize;
            windows = (0..nw)
                .map(|_| SeqWindow::import(&mut rd))
                .collect::<Result<_, _>>()?;
            rx_packets = rd.get_u64()?;
            let nl = rd.get_u64()? as usize;
            logs = (0..nl)
                .map(|_| ContentLog::import(&mut rd))
                .collect::<Result<_, _>>()?;
            let no = rd.get_u64()? as usize;
            out_links = (0..no)
                .map(|_| LinkTx::import(&mut rd, now))
                .collect::<Result<_, _>>()?;
        }
        // New incarnation for the restored rank's outgoing rows. Every
        // receiver's row for `r` is reset and moved to content-consult
        // mode *here*, atomically with the in-flight retirement scan:
        // the per-receiver step takes the same locks, in the same order,
        // as `rx_accept_am` (`link_inc[t]` → `windows[t]` → `links`), so
        // a message toward `t` classifies either entirely before or
        // entirely after the surgery — never half-way.
        let new_inc = cs.incarnations[r].fetch_add(1, Ordering::SeqCst) + 1;
        let row_r = cs.link_row(r);
        // Ledger rule: a live logical send holds exactly one `in_flight`
        // increment, retired exactly once — by `packet_processed`, by a
        // content-dedup consume, by retry exhaustion, or here: any entry
        // of the pre-crash `LinkTx` that is neither delivered (those
        // settle through the receiver/ack path) nor replayed (restored
        // entries were already retired by the scan that stranded them)
        // is discarded with the dead link, so its increment is refunded
        // now. Replay-marked copies are outside the ledger entirely
        // (their accept pre-pays the decrement), so no compensation
        // arithmetic is needed.
        let mut retired = 0u64;
        let mut out_links = out_links.into_iter();
        for t in 0..n {
            let restored = out_links.next().unwrap_or_default();
            if t == r {
                // Loopback: sender and receiver state are restored from
                // the *same snapshot instant*, so the restored window
                // dedups the restored link's retransmits exactly. The
                // live pre-crash entries are discarded with the dead
                // link (undelivered ones retired, like the cross-rank
                // rows), and the rank's own row incarnation is bumped
                // *without* resetting the window — the snapshot window
                // is installed right below — so leftover pre-kill copies
                // in this rank's own channel backlog classify stale and
                // drop, while replayed and re-executed copies under the
                // new incarnation classify Equal against snapshot state.
                // The live raw-seq counter is kept: re-executed sends
                // continue the raw space, so they can never collide with
                // replayed old raws whose acks are still arriving.
                let mut incs = cs.link_inc[r].lock();
                if incs[row_r] < new_inc {
                    incs[row_r] = new_inc;
                }
                let mut link = cs.links[cs.link_idx(r, r)].lock();
                retired += link
                    .unacked
                    .values()
                    .filter(|e| !e.delivered && !e.replayed)
                    .count() as u64;
                let live_next = link.next_seq;
                *link = restored;
                link.next_seq = link.next_seq.max(live_next);
                continue;
            }
            let mut incs = cs.link_inc[t].lock();
            if incs[row_r] < new_inc {
                incs[row_r] = new_inc;
                cs.windows[t].lock()[row_r] = SeqWindow::new();
            }
            let mut link = cs.links[cs.link_idx(r, t)].lock();
            retired += link
                .unacked
                .values()
                .filter(|e| !e.delivered && !e.replayed)
                .count() as u64;
            *link = restored;
        }
        port.in_flight.settle(retired as usize);
        // Install the restored receive-side state.
        *cs.windows[r].lock() = windows;
        cs.rx_packets[r].store(rx_packets, Ordering::SeqCst);
        *cs.content_logs[r].lock() = logs;
        // Drop stale batched acks the dead incarnation owed or was owed.
        for t in 0..n {
            let _ = cs.pending_acks[cs.link_idx(t, r)].lock().take();
            let _ = cs.pending_acks[cs.link_idx(r, t)].lock().take();
        }
        port.stats.restores.inc();
        // Replay while `killed[r]` is still latched: replay-marked
        // copies bypass the killed gate and fault injection, while any
        // concurrent live send toward `r` still drops at the gate. With
        // FIFO channel delivery this orders every replayed copy ahead
        // of the first post-restore send toward `r`. The restored
        // window dedups pre-snapshot seqs; the content log dedups
        // re-executed duplicates.
        let mut replayed = 0u64;
        for source_row in 0..=n {
            let li = source_row * n + r;
            let from = cs.row_sender(source_row);
            // Collect the log *before* scanning the live link below:
            // `send` inserts the unacked entry before pushing the log,
            // so any logged-but-unscanned send is also unmarked-and-live
            // and settles through its own retransmit path — there is no
            // interleaving where a send is both replayed here and left
            // holding its in-flight slot.
            let entries: Vec<(u64, u64, u32, Arc<Vec<u8>>)> = cs.replay_log[li]
                .lock()
                .iter()
                .map(|e| (e.inc, e.seq, e.handler, Arc::clone(&e.payload)))
                .collect();
            if source_row != r {
                // Peer (and sentinel-seed) sends toward `r` that never
                // reached it: the replay just collected re-drives their
                // content, so retire each one's in-flight slot and mark
                // the entry replayed — its future retransmits carry the
                // replay marker, window-dedup against the copy delivered
                // below, and a later restore scan skips it.
                let mut link = cs.links[li].lock();
                for e in link.unacked.values_mut() {
                    if !e.delivered && !e.replayed {
                        e.replayed = true;
                        retired += 1;
                        port.in_flight.settle(1);
                    }
                }
            }
            for (inc, seq, handler, payload) in entries {
                // Diagonal replays are re-packed under the rank's new
                // incarnation: surgery bumped the rank's own row, so a
                // copy under the logged (pre-crash) incarnation would be
                // stale-dropped on arrival.
                let inc = if source_row == r { new_inc } else { inc };
                let seq = pack_seq(inc, seq) | REPLAY_BIT;
                cs.transmit_packed(port, from, r, handler, seq, &payload, 0);
                replayed += 1;
            }
        }
        port.stats.replayed_sends.add(replayed);
        port.stats.recoveries.inc();
        // Only now does the rank rejoin the live fabric. Its links thaw,
        // and the restored entries are due at once: the scan runs now.
        cs.killed[r].store(false, Ordering::SeqCst);
        cs.clock.arm_retransmit(Instant::now());
        cs.recovery_log.lock().push(
            CommError::new(
                CommErrorKind::RankRecovered,
                format!(
                    "restored from {} snapshot, replayed {replayed} logged sends, \
                     retired {retired} undelivered pre-crash sends",
                    if section.is_some() {
                        "last"
                    } else {
                        "no (empty)"
                    },
                ),
            )
            .link(None, r),
        );
        Ok(())
    }

    /// Drain the informational recovery events (TTG046).
    pub fn take_events(&self) -> Vec<CommError> {
        std::mem::take(&mut *self.cs.recovery_log.lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_sink_replaces_and_loads() {
        let s = MemorySnapshotSink::new();
        assert!(s.load(0).unwrap().is_none());
        s.store(0, b"one").unwrap();
        s.store(0, b"two").unwrap();
        assert_eq!(s.load(0).unwrap().unwrap(), b"two");
    }
}
