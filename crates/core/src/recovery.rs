//! The coordinator of in-process recovery (DESIGN §13): a kill rolls
//! every rank back to the last global cut.
//!
//! The executor's wait loop takes every cut and every rollback. It holds
//! the reliable layer's progress off ([`Paused`]: no retry budget runs
//! while it waits), raises the [`Gate`] that every delivery thread passes
//! at its packet boundary, and waits until no delivery is inside it and
//! every worker pool is idle.
//! With delivery paused only tasks can ready tasks, so the drain needs no
//! bound. Then it either exports every rank into one sealed global blob
//! and commits it through the [`SnapshotSink`], or — once a kill script
//! fired — imports every rank from the last blob and lets the comm layer
//! roll back ([`Recovery::rollback`]). Then it lowers the gate.

use std::sync::Arc;
use std::time::Instant;

use ttg_comm::recover::{CommCut, Gate, Paused};
use ttg_comm::{CommError, CommErrorKind, ReadBuf, Recovery, WireError, WriteBuf};
use ttg_model::sync::Mutex;

use crate::ctx::RuntimeCtx;

/// Where the last global cut lives. `store` replaces the previous cut;
/// `load` returns the latest stored one.
pub(crate) trait SnapshotSink: Send + Sync {
    /// Persist a cut, replacing any previous one.
    fn store(&self, bytes: &[u8]) -> std::io::Result<()>;
    /// Load the latest cut (`None` = never stored).
    fn load(&self) -> std::io::Result<Option<Vec<u8>>>;
}

/// In-memory sink (what the executor installs: a rollback happens within
/// one address space and needs no filesystem traffic).
#[derive(Default)]
pub(crate) struct MemorySnapshotSink {
    blob: Mutex<Option<Vec<u8>>>,
}

impl MemorySnapshotSink {
    /// Empty sink.
    pub(crate) fn new() -> Self {
        Self::default()
    }
}

impl SnapshotSink for MemorySnapshotSink {
    fn store(&self, bytes: &[u8]) -> std::io::Result<()> {
        *self.blob.lock() = Some(bytes.to_vec());
        Ok(())
    }

    fn load(&self) -> std::io::Result<Option<Vec<u8>>> {
        Ok(self.blob.lock().clone())
    }
}

/// What the coordinator of a recovery-enabled execution holds: the gate
/// its delivery threads pass, the sink its cuts persist through, and one
/// TTG046 per killed rank it rolled back — kept apart from the error sink,
/// so a fully recovered run still reports zero comm errors.
pub(crate) struct Coordinator {
    pub(crate) gate: Gate,
    /// Taken under the comm layer's pass lock, as the matching stripes a
    /// cut exports and a rollback imports are, one at a time.
    pub(crate) sink: Mutex<Arc<dyn SnapshotSink>>,
    /// Taken alone, after the pause.
    pub(crate) recovered: Mutex<Vec<CommError>>,
}

impl Coordinator {
    pub(crate) fn new() -> Coordinator {
        Coordinator {
            gate: Gate::default(),
            sink: Mutex::new(Arc::new(MemorySnapshotSink::new())),
            recovered: Mutex::new(Vec::new()),
        }
    }

    /// Pause every rank at its packet boundary and wait for every pool to
    /// drain. Then roll every rank back if a kill script fired, or take
    /// the due cut, and resume. `false`: the rollback failed (a TTG048 is
    /// recorded) and the run cannot go on.
    pub(crate) fn coordinate(&self, ctx: &RuntimeCtx, rec: &Recovery<'_>) -> bool {
        let started = Instant::now();
        // The progress pass stops first (it may be handing copies to the
        // delivery threads the gate is about to stop), and stays stopped
        // until the gate is lowered: no retry budget runs meanwhile.
        let paused = rec.pause();
        self.gate.raise();
        let (events, pools) = (ctx.fabric.events(), ctx.pools.get().expect("pools missing"));
        loop {
            let epoch = events.prepare();
            let stopped = self.gate.stopped();
            if stopped && pools.iter().all(|p| p.idle_or_signal_drain()) {
                events.cancel();
                break;
            }
            events.wait(epoch);
        }
        let ok = if rec.killed_ranks().is_empty() {
            self.take_cut(ctx, &paused);
            drop(paused);
            let pause_ns = &ctx.fabric.stats().snapshot_pause_ns;
            pause_ns.record_duration(started.elapsed());
            true
        } else {
            self.roll_back(ctx, rec, paused)
        };
        self.gate.lower();
        ok
    }

    /// Compose, seal and commit one global cut: the comm section, then one
    /// length-prefixed matching-table section per node and rank. Failures
    /// are structured TTG047 records, never panics, and leave the previous
    /// cut the rollback point.
    fn take_cut(&self, ctx: &RuntimeCtx, paused: &Paused<'_>) {
        let nodes = ctx.nodes.get().expect("graph not attached");
        let failed = |detail: String| CommError::new(CommErrorKind::SnapshotFailed, detail);
        let mut body = WriteBuf::new();
        let mut comm = WriteBuf::new();
        paused.export_cut(&mut comm);
        body.put_len_bytes(comm.as_slice());
        body.put_u32(nodes.len() as u32);
        for node in nodes {
            for r in 0..ctx.n_ranks() {
                let mut sect = WriteBuf::new();
                if let Err(e) = node.export_rank(r, &mut sect) {
                    let what = format!("matching-table export of {} failed: {e}", node.node_name());
                    let e = failed(what).link(None, r).handler(node.node_id());
                    return ctx.fabric.record_error(e);
                }
                body.put_len_bytes(sect.as_slice());
            }
        }
        let blob = seal(body.as_slice());
        match self.sink.lock().store(&blob) {
            Ok(()) => {
                let stats = ctx.fabric.stats();
                stats.snapshots_taken.inc();
                stats.snapshot_bytes.add(blob.len() as u64);
            }
            Err(e) => ctx.fabric.record_error(failed(e.to_string())),
        }
    }

    /// Roll every rank back to the last committed cut — or, when none was
    /// committed, to the start of the run: the matching tables first, then
    /// the comm layer. A cut that does not load, unseal or decode is a
    /// structured TTG048 and ends the run — degraded, not panicked.
    fn roll_back(&self, ctx: &RuntimeCtx, rec: &Recovery<'_>, paused: Paused<'_>) -> bool {
        let loaded = self.sink.lock().load();
        let loaded = loaded.map_err(|e| WireError::new(format!("cut load failed: {e}")));
        let restored = loaded.and_then(|blob| match blob {
            Some(blob) => import_cut(ctx, rec, unseal(&blob)?).map(Some),
            None => {
                for node in ctx.nodes.get().expect("graph not attached") {
                    (0..ctx.n_ranks()).for_each(|r| node.clear_rank(r));
                }
                Ok(None)
            }
        });
        match restored {
            Ok(cut) => {
                let from = if cut.is_some() {
                    "the last cut"
                } else {
                    "the start (no cut)"
                };
                let killed = rec.killed_ranks();
                let rearmed = paused.rollback(cut);
                let detail = format!("rolled every rank back to {from}; re-armed {rearmed} sends");
                let report =
                    |r| CommError::new(CommErrorKind::RankRecovered, &detail).link(None, r);
                self.recovered.lock().extend(killed.into_iter().map(report));
                true
            }
            Err(e) => {
                let detail = format!("rollback failed: {e}");
                ctx.fabric
                    .record_error(CommError::new(CommErrorKind::RecoveryFailed, detail));
                false
            }
        }
    }
}

/// Import every rank's matching tables from a cut's body and decode its
/// comm section.
fn import_cut(ctx: &RuntimeCtx, rec: &Recovery<'_>, body: &[u8]) -> Result<CommCut, WireError> {
    let nodes = ctx.nodes.get().expect("graph not attached");
    let mut rd = ReadBuf::new(body);
    let comm = rec.decode_cut(rd.get_len_bytes()?)?;
    let n_nodes = rd.get_u32()? as usize;
    if n_nodes != nodes.len() {
        return Err(WireError::new(format!(
            "cut names {n_nodes} nodes but the graph has {}",
            nodes.len()
        )));
    }
    for node in nodes {
        for r in 0..ctx.n_ranks() {
            node.import_rank(r, &mut ReadBuf::new(rd.get_len_bytes()?))?;
        }
    }
    Ok(comm)
}

/// Seal a cut for the sink: a 64-bit FNV-1a checksum ahead of its body.
fn seal(body: &[u8]) -> Vec<u8> {
    let mut blob = Vec::with_capacity(8 + body.len());
    blob.extend_from_slice(&fnv1a(body).to_le_bytes());
    blob.extend_from_slice(body);
    blob
}

/// The body of a sealed cut, or a [`WireError`] when the checksum does
/// not hold (a truncated or corrupted blob).
fn unseal(blob: &[u8]) -> Result<&[u8], WireError> {
    let sum = ReadBuf::new(blob).get_u64()?;
    let body = &blob[8..];
    if fnv1a(body) != sum {
        return Err(WireError::new("cut checksum mismatch"));
    }
    Ok(body)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use std::sync::Mutex as StdMutex;
    use std::time::Duration;

    const CHAINS: u64 = 8;
    const LEN: u64 = 40;

    /// `CHAINS` chains of `LEN` steps hopping across 4 ranks under `plan`,
    /// cuts persisted through `sink`: the executor, seeded, and where the
    /// chains' ends land. With `cut_first` the coordinator takes one cut
    /// before any seed, so a kill finds a cut to roll back to however
    /// soon it fires.
    fn chains(
        plan: FaultPlan,
        sink: Arc<dyn SnapshotSink>,
        cut_first: bool,
    ) -> (Executor, Arc<StdMutex<Vec<u64>>>) {
        let ends = Arc::new(StdMutex::new(Vec::new()));
        let out = Arc::clone(&ends);
        let step: Edge<u64, u64> = Edge::new("step");
        let mut g = GraphBuilder::new();
        let tt = g.make_tt(
            "hop",
            (step.clone(),),
            (step,),
            |k: &u64| (*k % 7) as usize % 4,
            move |k, (v,): (u64,), outs| {
                if k % 1000 < LEN {
                    outs.send::<0>(k + 1, v.wrapping_mul(3) ^ k);
                } else {
                    out.lock().unwrap().push(v);
                }
            },
        );
        let cfg = ExecConfig::distributed(4, 1, BackendSpec::default_spec())
            .with_faults(plan)
            .with_deadline(Duration::from_secs(10));
        let exec = Executor::new(g.build(), cfg);
        *exec.coordinator().sink.lock() = sink;
        if cut_first {
            let rec = exec
                .ctx()
                .fabric
                .recovery()
                .expect("the plan enables recovery");
            assert!(
                exec.coordinator().coordinate(exec.ctx(), &rec),
                "the first cut"
            );
        }
        let seed = tt.in_ref::<0>();
        for c in 0..CHAINS {
            seed.seed(exec.ctx(), c * 1000, c);
        }
        (exec, ends)
    }

    /// A sink that hands back the stored cut with one bit flipped.
    struct Corrupting(MemorySnapshotSink);

    impl SnapshotSink for Corrupting {
        fn store(&self, bytes: &[u8]) -> std::io::Result<()> {
            self.0.store(bytes)
        }
        fn load(&self) -> std::io::Result<Option<Vec<u8>>> {
            let blob = self.0.load()?;
            Ok(blob.map(|mut b| {
                let mid = b.len() / 2;
                b[mid] ^= 0x10;
                b
            }))
        }
    }

    #[test]
    fn a_cut_that_does_not_load_ends_the_run_with_a_ttg048() {
        let plan = FaultPlan::seeded(1).with_kill(1, 30).with_recovery(8);
        let sink = Arc::new(Corrupting(MemorySnapshotSink::new()));
        let (exec, _) = chains(plan, sink, true);
        let started = Instant::now();
        let r = exec.finish();
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "past the deadline"
        );
        assert!(r.comm.snapshots_taken > 0, "the kill must land after a cut");
        let codes: Vec<&str> = r.comm_errors.iter().map(|e| e.code()).collect();
        assert!(codes.contains(&"TTG048"), "{:?}", r.comm_errors);
        assert!(r.recovery_events.is_empty(), "{:?}", r.recovery_events);
    }

    #[test]
    fn a_damaged_cut_is_a_wire_error_and_never_a_panic() {
        let sink = Arc::new(MemorySnapshotSink::new());
        let plan = FaultPlan::seeded(2).with_recovery(8);
        let (exec, ends) = chains(plan, Arc::clone(&sink) as Arc<dyn SnapshotSink>, false);
        let ctx = Arc::clone(exec.ctx());
        let r = exec.finish();
        assert!(r.comm_errors.is_empty(), "{:?}", r.comm_errors);
        assert_eq!(ends.lock().unwrap().len() as u64, CHAINS);
        let blob = sink.load().unwrap().expect("a cut was committed");
        let rec = ctx.fabric.recovery().expect("the plan enables recovery");
        let restore = |blob: &[u8]| unseal(blob).and_then(|body| import_cut(&ctx, &rec, body));
        assert!(restore(&blob).is_ok(), "the cut itself decodes");
        for len in 0..blob.len() {
            assert!(restore(&blob[..len]).is_err(), "prefix of {len} bytes");
        }
        let body = unseal(&blob).unwrap();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..1_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let bit = (x % (blob.len() as u64 * 8)) as usize;
            let mut bad = blob.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(restore(&bad).is_err(), "bit {bit} flipped");
            // Behind the seal, the decoders meet the flip themselves: any
            // outcome but a panic (or an allocation the bytes do not back).
            let mut bad = body.to_vec();
            bad[bit / 8 % body.len()] ^= 1 << (bit % 8);
            let _ = import_cut(&ctx, &rec, &bad);
        }
        for len in 0..body.len() {
            assert!(
                import_cut(&ctx, &rec, &body[..len]).is_err(),
                "body of {len} bytes"
            );
        }
    }

    #[test]
    fn a_cut_the_sink_refuses_is_a_ttg047_and_not_a_rollback_point() {
        struct FullDisk;
        impl SnapshotSink for FullDisk {
            fn store(&self, _: &[u8]) -> std::io::Result<()> {
                Err(std::io::Error::other("disk full"))
            }
            fn load(&self) -> std::io::Result<Option<Vec<u8>>> {
                Ok(None)
            }
        }
        let plan = FaultPlan::seeded(3).with_recovery(8);
        let (exec, ends) = chains(plan, Arc::new(FullDisk), false);
        let r = exec.finish();
        assert_eq!(ends.lock().unwrap().len() as u64, CHAINS);
        assert_eq!(r.comm.snapshots_taken, 0, "a refused cut is not counted");
        assert!(!r.comm_errors.is_empty());
        assert!(
            r.comm_errors.iter().all(|e| e.code() == "TTG047"),
            "{:?}",
            r.comm_errors
        );
    }

    #[test]
    fn a_seal_refuses_every_truncation_and_every_bit_flip() {
        let body: Vec<u8> = (0..64u8).collect();
        let blob = seal(&body);
        assert_eq!(unseal(&blob).unwrap(), &body[..]);
        for len in 0..blob.len() {
            assert!(unseal(&blob[..len]).is_err(), "prefix of {len} bytes");
        }
        for bit in 0..blob.len() * 8 {
            let mut bad = blob.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(unseal(&bad).is_err(), "bit {bit} flipped");
        }
    }
}
