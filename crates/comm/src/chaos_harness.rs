//! A queue-backed [`ChaosWire`] for driving a [`ChaosState`] without a
//! fabric: on one thread against the wall clock (`chaos_tests.rs`), and on
//! model threads against the logical clock (`chaos_model.rs`, under
//! `--cfg ttg_model`).

use super::*;
use std::collections::VecDeque;
use ttg_telemetry::Registry;

/// One delivered physical copy: `(from, handler, seq, payload)`.
type Copy = (Rank, u32, u64, Arc<Vec<u8>>);

/// A queue-backed [`ChaosWire`] with the counters and sink a
/// [`ChaosPort`] names.
pub(crate) struct Harness {
    pub(crate) cs: ChaosState,
    pub(crate) stats: FabricStats,
    pub(crate) ledger: Ledger,
    pub(crate) errors: Mutex<Vec<CommError>>,
    pub(crate) queues: Vec<Mutex<VecDeque<Copy>>>,
    /// Answer every ack batch as a closed link does: refused, ranges lost.
    pub(crate) refuse_acks: AtomicBool,
    /// Carry ack batches as frames on `acks`, for the sender's delivery
    /// thread to apply, as a socket does; otherwise the flushing thread
    /// applies them through shared memory, as the channel wire does.
    pub(crate) ack_wire: bool,
    /// Ack batches in flight to each rank, as `(acker, ranges)`.
    pub(crate) acks: Vec<Mutex<VecDeque<(Rank, AckRanges)>>>,
}

impl ChaosWire for Harness {
    fn deliver(
        &self,
        from: Rank,
        to: Rank,
        handler: u32,
        seq: u64,
        payload: &Arc<Vec<u8>>,
    ) -> Result<(), SendError> {
        self.queues[to]
            .lock()
            .push_back((from, handler, seq, Arc::clone(payload)));
        Ok(())
    }

    fn send_ack_range(&self, acker: Rank, sender: Rank, ranges: AckRanges) -> AckSent {
        if self.ack_wire {
            self.acks[sender].lock().push_back((acker, ranges));
            return Ok(());
        }
        let refused = self.refuse_acks.load(Ordering::SeqCst);
        Err((!refused).then_some(ranges))
    }
}

impl Harness {
    pub(crate) fn new(n: usize, plan: FaultPlan) -> Harness {
        Harness {
            cs: ChaosState::new(plan, n),
            stats: FabricStats::register(&Registry::new(), n),
            ledger: Ledger::new(n, None, Arc::new(ttg_model::sync::EventCount::new())),
            errors: Mutex::new(Vec::new()),
            queues: (0..n).map(|_| Mutex::new(VecDeque::new())).collect(),
            refuse_acks: AtomicBool::new(false),
            ack_wire: false,
            acks: (0..n).map(|_| Mutex::new(VecDeque::new())).collect(),
        }
    }

    pub(crate) fn port(&self) -> ChaosPort<'_> {
        ChaosPort {
            wire: self,
            stats: &self.stats,
            ledger: &self.ledger,
            errors: &self.errors,
        }
    }

    pub(crate) fn send(&self, from: Rank, to: Rank, payload: Vec<u8>) {
        self.cs.send(&self.port(), from, to, 7, payload);
    }

    pub(crate) fn progress(&self) {
        self.cs.progress(&self.port());
    }

    pub(crate) fn in_flight(&self) -> u64 {
        self.ledger.in_flight()
    }

    /// Take one copy off `rank`'s queue, classify it, and retire it if
    /// fresh (what a delivery thread does); `None` when nothing waits.
    pub(crate) fn pump(&self, rank: Rank) -> Option<bool> {
        let (from, _, seq, _) = self.queues[rank].lock().pop_front()?;
        let fresh = self.cs.rx_accept(&self.port(), rank, from, seq);
        if fresh {
            self.port().settle(self.cs.link_idx(from, rank));
        }
        Some(fresh)
    }
}
