//! Checkpoint/restore recovery of a script-killed rank (DESIGN §13): the
//! pluggable snapshot persistence, and the comm-layer half of a snapshot
//! and of a restore over the reliable layer's [`ChaosState`].
//!
//! The executor periodically exports each rank's recovery state — matching
//! tables, dedup windows, the settled counts of its inbound ledger rows,
//! seq counters, and in-flight messages — as one opaque byte blob per rank
//! and hands it to a [`SnapshotSink`]. On rank
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
use crate::reliable::{pack_seq, ContentLog, LinkTx, SeqWindow};

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
    /// windows with the settled counts of the ledger rows they guard,
    /// packet counter, content logs, and outgoing link state (seq counters
    /// and in-flight payloads). Called on `r`'s comm thread between
    /// deliveries, with `r`'s worker pool idle — that pair of conditions is
    /// the consistent cut (DESIGN §13).
    pub fn export_rank(&self, r: Rank, b: &mut WriteBuf) {
        let cs = self.cs;
        {
            // Under the window lock: a window claim settles under it too.
            let windows = cs.windows[r].lock();
            b.put_u64(windows.len() as u64);
            for (row, w) in windows.iter().enumerate() {
                w.export(b);
                b.put_u64(self.port.ledger.settled(row * cs.n + r));
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
    /// logs cover the run from its first message), re-state its ledger
    /// rows, bump the rank's send incarnation, clear its killed flag, and
    /// replay every logged message toward it. The caller must have
    /// restored the rank's matching tables first and verified its worker
    /// pool is idle.
    pub fn restore_rank(&self, r: Rank, section: Option<&[u8]>) -> Result<(), WireError> {
        let (cs, port) = (self.cs, &self.port);
        let (n, ledger) = (cs.n, port.ledger);
        let now = Instant::now();
        // Decode the snapshot (or synthesize empty state).
        let mut windows: Vec<SeqWindow> = vec![SeqWindow::new(); n + 1];
        let mut settled = vec![0u64; n + 1];
        let mut rx_packets = 0u64;
        let mut logs: Vec<ContentLog> = (0..n + 1).map(|_| ContentLog::new()).collect();
        let mut out_links: Vec<LinkTx> = (0..n).map(|_| LinkTx::default()).collect();
        if let Some(bytes) = section {
            let mut rd = ReadBuf::new(bytes);
            let nw = rd.get_u64()? as usize;
            if nw != n + 1 {
                return Err(WireError::new(format!(
                    "snapshot holds {nw} receive rows, the fabric {}",
                    n + 1
                )));
            }
            for row in 0..nw {
                windows[row] = SeqWindow::import(&mut rd)?;
                settled[row] = rd.get_u64()?;
            }
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
        // New incarnation for `r`'s outgoing rows; each receiver's row for
        // `r` is reset under its classification guard (and the window lock
        // a claim settles under), so a message classifies entirely before
        // or after the surgery. The acks `t` owes the dead incarnation go
        // under the batch lock a flush holds until it retires: an old ack
        // must not retire a restored entry that reuses its seq.
        let new_inc = cs.incarnations[r].fetch_add(1, Ordering::SeqCst) + 1;
        let row_r = cs.link_row(r);
        let mut loop_fresh = 0;
        let mut out_links = out_links.into_iter();
        for t in 0..n {
            let restored = out_links.next().unwrap_or_default();
            let li = cs.link_idx(r, t);
            let mut incs = cs.link_inc[t].lock();
            incs[row_r] = incs[row_r].max(new_inc);
            if t == r {
                // Loopback: both ends come back from the same instant; its
                // row is re-stated with the inbound ones, and what settles
                // on it from here is the restored entries not yet seen.
                let mut seen = windows[row_r].clone();
                let fresh = restored.unacked.keys().filter(|&&seq| seen.accept(seq));
                loop_fresh = fresh.count() as u64;
            } else {
                {
                    // The dead incarnation ends at what `t` settled (what it
                    // accepted and has not processed settles nothing); the
                    // restored entries are the new one's first sends.
                    let mut w = cs.windows[t].lock();
                    w[row_r] = SeqWindow::new();
                    let done = ledger.settled(li);
                    ledger.restate(li, Some(done + restored.unacked.len() as u64), done);
                }
                cs.content_logs[t].lock()[row_r].new_incarnation();
            }
            let mut owed = cs.pending_acks[li].lock();
            let _ = owed.take();
            *cs.links[li].lock() = restored;
        }
        {
            // Rows into `r` take the snapshot's settled counts.
            let mut w = cs.windows[r].lock();
            for (row, &done) in settled.iter().enumerate() {
                let issued = (row == row_r).then_some(done + loop_fresh);
                ledger.restate(row * n + r, issued, done);
            }
            *w = windows;
        }
        cs.rx_packets[r].store(rx_packets, Ordering::SeqCst);
        *cs.content_logs[r].lock() = logs;
        port.stats.restores.inc();
        // The rank rejoins, then its peers' and the sentinel's logged sends
        // are replayed: the restored window dedups what the snapshot saw.
        // (Its loopback it re-sends: restored entries, re-executed tasks.)
        cs.killed[r].store(false, Ordering::SeqCst);
        let mut replayed = 0u64;
        for source_row in (0..=n).filter(|&row| row != row_r) {
            let li = source_row * n + r;
            let from = cs.row_sender(source_row);
            let entries: Vec<(u64, u64, u32, Arc<Vec<u8>>)> = cs.replay_log[li]
                .lock()
                .iter()
                .map(|e| (e.inc, e.seq, e.handler, Arc::clone(&e.payload)))
                .collect();
            for (inc, seq, handler, payload) in entries {
                // A replayed copy has no retransmit entry behind it, so no
                // fault is injected into it. It carries the incarnation its
                // original carried (the sender's may have risen since).
                let _ = port
                    .wire
                    .deliver(from, r, handler, pack_seq(inc, seq), &payload);
                replayed += 1;
            }
        }
        port.stats.replayed_sends.add(replayed);
        port.stats.recoveries.inc();
        // The restored entries are due at once: the scan runs now.
        cs.clock.arm_retransmit(Instant::now());
        cs.recovery_log.lock().push(
            CommError::new(
                CommErrorKind::RankRecovered,
                format!(
                    "restored from {} snapshot, replayed {replayed} logged sends",
                    section.map_or("no (empty)", |_| "last"),
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
