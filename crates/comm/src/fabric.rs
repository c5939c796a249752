//! Simulated distributed communication fabric.
//!
//! The paper runs on MPI clusters; this module replaces the physical wire
//! with a fabric of `n` logical **ranks** — all in this process, or one per
//! process. Everything above the wire is real: inter-rank messages are
//! serialized into byte buffers and travel through channels or sockets (the
//! *eager* / active-message path), and large payloads can be registered as
//! memory **regions** and fetched one-sidedly by the receiver (the *RMA*
//! path used by the split-metadata protocol).
//!
//! This file keeps the [`Fabric`] itself: construction, `send_am`, physical
//! delivery, the one receive dispatch, and shutdown. What it composes lives
//! in modules that see a narrow port, never the fabric (the crate docs
//! list them).

use std::cell::Cell;
use std::sync::{Arc, Barrier, Weak};
use ttg_model::sync::{AtomicBool, EventCount, Mutex, Ordering};

use crossbeam_channel::Receiver;
use ttg_telemetry::Registry;
use ttg_transport::{Frame, TransportError, TransportSpec};

use crate::chaos::{ChaosPort, ChaosState, ChaosWire};
use crate::control::{ControlPlane, ControlPort};
use crate::error::{CommError, CommErrorKind, RmaError, SendError};
use crate::fault::FaultPlan;
use crate::ledger::Ledger;
use crate::links::{Links, Packet, Rank};
use crate::recover::Recovery;
use crate::reliable::{AckRanges, AckSent};
use crate::rma::{RegionId, RegionTable};
use crate::stats::FabricStats;
use crate::wake::ProgressClock;

/// The fabric connecting `n` ranks — in one process over channels or a
/// socket mesh, or one rank per process over [`TransportSpec::Remote`].
pub struct Fabric {
    n: usize,
    links: Links,
    /// Present only in a multi-process rank, where the barrier and
    /// termination detection are message protocols.
    control: Option<ControlPlane>,
    /// Present only under a [`FaultPlan`] with every rank in this process
    /// (a multi-process rank takes its kill script from a plan and nothing
    /// else: it shares no ack/dedup state with its peers).
    chaos: Option<ChaosState>,
    rma: RegionTable,
    barrier: Barrier,
    telemetry: Arc<Registry>,
    stats: FabricStats,
    /// The in-flight ledger: per-link issued/settled counts. The settle
    /// that balances it signals the execution's event count, which the
    /// termination waits park on.
    ledger: Ledger,
    /// Structured comm failures (drained into execution reports).
    errors: Mutex<Vec<CommError>>,
    /// Set by `shutdown_all`: late transport errors are teardown noise, and
    /// the progress thread exits.
    stopping: AtomicBool,
}

impl Fabric {
    /// Create a fabric with `n` ranks, optionally under a [`FaultPlan`].
    ///
    /// Installing a plan activates the reliable-delivery layer (sequence
    /// numbers, dedup windows, ack/retransmit) and spawns a progress
    /// thread that drives retransmission timers and delayed-packet
    /// release. The thread holds only a weak reference: it exits on
    /// [`shutdown_all`](Self::shutdown_all) or when the fabric is dropped.
    pub fn with_faults(n: usize, plan: Option<FaultPlan>) -> Arc<Fabric> {
        Self::with_transport(n, plan, &TransportSpec::InProc)
            .expect("in-process fabric construction is infallible")
    }

    /// Create a fabric with `n` ranks over the given link layer, optionally
    /// under a [`FaultPlan`].
    ///
    /// * [`TransportSpec::InProc`] — the channel wire.
    /// * [`TransportSpec::Tcp`] / [`TransportSpec::Uds`] — all ranks stay
    ///   in this process but inter-rank AMs cross real sockets. The chaos
    ///   and reliable-delivery layers sit unchanged above the sockets.
    /// * [`TransportSpec::Remote`] — this process is one rank of a
    ///   multi-process job; barrier and termination detection run as
    ///   message protocols over the endpoint. Of a fault plan only kill
    ///   scripts are accepted (the ack/dedup state is shared-memory).
    pub fn with_transport(
        n: usize,
        plan: Option<FaultPlan>,
        spec: &TransportSpec,
    ) -> Result<Arc<Fabric>, CommError> {
        assert!(n > 0, "fabric needs at least one rank");
        let transport_err =
            |detail: String| CommError::new(CommErrorKind::TransportFailure, detail);
        let events = Arc::new(EventCount::new());
        let (telemetry, control, chaos) = match spec {
            TransportSpec::Remote(h) => {
                let (me, ranks) = (h.endpoint.rank(), h.endpoint.n_ranks());
                let kill_after = match &plan {
                    Some(plan) => plan.remote_kill_after(me).map_err(transport_err)?,
                    None => None,
                };
                if ranks != n {
                    return Err(transport_err(format!(
                        "endpoint is rank {me}/{ranks} but the fabric wants {n} ranks"
                    )));
                }
                // The fabric adopts the remote endpoint's registry so
                // `FabricStats` and the transport share counter cells.
                let control = ControlPlane::new(me, n, kill_after, Arc::clone(&events));
                (Arc::clone(&h.registry), Some(control), None)
            }
            _ => {
                let chaos = plan.map(|plan| ChaosState::new(plan, n));
                (Arc::new(Registry::new()), None, chaos)
            }
        };
        let links = Links::build(n, spec, &telemetry).map_err(|e| transport_err(e.to_string()))?;
        let control_rank = control.as_ref().map(|cp| cp.me);
        let fabric = Arc::new(Fabric {
            n,
            links,
            control,
            chaos,
            rma: RegionTable::new(n),
            barrier: Barrier::new(n),
            stats: FabricStats::register(&telemetry, n),
            telemetry,
            ledger: Ledger::new(n, control_rank, events),
            errors: Mutex::new(Vec::new()),
            stopping: AtomicBool::new(false),
        });
        // Install receive sinks now that the fabric exists. Sinks hold only
        // a weak reference: endpoint reader threads never keep the fabric
        // alive past its last strong handle.
        fabric.links.start(|to| {
            let weak = Arc::downgrade(&fabric);
            Arc::new(move |src, res| {
                if let Some(f) = weak.upgrade() {
                    f.link_rx(to, src, res);
                }
            })
        });
        if let Some(cs) = &fabric.chaos {
            let (weak, clock) = (Arc::downgrade(&fabric), Arc::clone(&cs.clock));
            std::thread::Builder::new()
                .name("fabric-reliable".into())
                .spawn(move || progress_loop(weak, clock))
                .expect("failed to spawn fabric progress thread");
        }
        Ok(fabric)
    }

    /// Number of ranks.
    pub fn num_ranks(&self) -> usize {
        self.n
    }

    /// Fabric-wide communication counters.
    pub fn stats(&self) -> &FabricStats {
        &self.stats
    }

    /// The metrics registry this fabric's counters live in. Snapshots taken
    /// here include everything [`StatsSnapshot`](crate::StatsSnapshot) reports plus the per-rank
    /// `tx_bytes`/`rx_bytes` breakdown, keyed under subsystem `"comm"`.
    pub fn telemetry(&self) -> &Arc<Registry> {
        &self.telemetry
    }

    /// The execution's event count: signalled when the in-flight ledger
    /// balances, when an error is recorded, when a kill script fires, and —
    /// in a multi-process rank — by the termination frames. Termination
    /// waits park on it, and so does the executor's activity counter's zero
    /// crossing.
    pub fn events(&self) -> &Arc<EventCount> {
        self.ledger.events()
    }

    /// Record a structured communication failure.
    pub fn record_error(&self, e: CommError) {
        self.chaos_port().record_error(e);
    }

    /// Drain the accumulated communication failures.
    pub fn take_errors(&self) -> Vec<CommError> {
        std::mem::take(&mut *self.errors.lock())
    }

    /// Take ownership of rank `rank`'s packet receiver. Panics if taken twice.
    pub fn take_receiver(&self, rank: Rank) -> Receiver<Packet> {
        self.links.take_receiver(rank)
    }

    /// `Some(rank)` when this fabric is one rank of a multi-process job;
    /// `None` when all ranks live in this process. What differs between
    /// the two — who accounts for an AM, how a barrier and termination are
    /// decided, whether a one-sided read reaches a peer — is selected by
    /// this, which the fabric observes, not by an option.
    pub fn local_rank(&self) -> Option<Rank> {
        self.control.as_ref().map(|cp| cp.me)
    }

    /// Send an active message from `from` to `to`. Counts wire traffic only
    /// when the ranks differ; rank-local AMs are loopback deliveries.
    ///
    /// Under a [`FaultPlan`] the message enters the reliable layer: it is
    /// sequenced, held for retransmission until acknowledged, and its
    /// physical copies are subject to injected faults. Loopback messages
    /// bypass the chaos layer (process-internal delivery cannot fail).
    ///
    /// A send to a rank whose channel is closed (post-shutdown teardown)
    /// is a counted no-op reported as a `SendError` — never a panic.
    pub fn send_am(
        &self,
        from: Rank,
        to: Rank,
        handler: u32,
        payload: Vec<u8>,
    ) -> Result<(), SendError> {
        let bytes = payload.len() as u64;
        if let Some(cp) = self.control.as_ref().filter(|cp| to != cp.me) {
            // SPMD gating: in a multi-process job every process runs the
            // same graph code, so a send whose destination lives in
            // another process is either (a) ours to put on the wire
            // (`from == me`), or (b) another process's responsibility —
            // including external seeds (sentinel `from >= n`), which each
            // process delivers for its own rank only.
            if from != cp.me {
                return Ok(());
            }
            self.stats.am_count.inc();
            self.stats.am_bytes.add(bytes);
            self.stats.tx_bytes[from].add(bytes);
            // Issued before the send, so the receiver can never have
            // processed a message its sender has not counted.
            let li = self.ledger.issue(from, to);
            return self
                .phys_deliver(from, to, handler, 0, payload)
                .inspect_err(|_| self.settle(li));
        }
        if let Some(cs) = self.chaos.as_ref().filter(|cs| cs.carries(from, to)) {
            self.stats.count_am(from, to, bytes);
            cs.send(&self.chaos_port(), from, to, handler, payload);
            return Ok(());
        }
        // Issue the packet *before* it is enqueued: once the channel has
        // it, the receiver may process and settle it at any moment.
        let li = self.ledger.issue(from, to);
        self.phys_deliver(from, to, handler, 0, payload)
            .inspect(|()| self.stats.count_am(from, to, bytes))
            .inspect_err(|_| self.settle(li))
    }

    /// Hand one physical packet to the wire. Loopback (`from == to`),
    /// external-seed sentinels (`from >= n`), and everything on the
    /// channel wire go through the destination rank's channel; a pair a
    /// socket link carries crosses it instead and re-enters through
    /// `link_rx` on the destination side.
    fn phys_deliver(
        &self,
        from: Rank,
        to: Rank,
        handler: u32,
        seq: u64,
        payload: Vec<u8>,
    ) -> Result<(), SendError> {
        match self.links.get(from, to) {
            Some(link) => {
                let sent = link.send(Frame::Am {
                    from: from as u32,
                    handler,
                    seq,
                    payload,
                });
                self.link_sent(from, to, Some(handler), sent)
            }
            None => self.enqueue(from, to, handler, seq, payload),
        }
    }

    /// Put one AM into rank `to`'s channel; a closed channel (the rank shut
    /// down) is a counted no-op.
    fn enqueue(
        &self,
        from: Rank,
        to: Rank,
        handler: u32,
        seq: u64,
        payload: Vec<u8>,
    ) -> Result<(), SendError> {
        if self.links.enqueue(from, to, handler, seq, payload) {
            return Ok(());
        }
        self.stats.post_shutdown_sends.inc();
        Err(SendError { from, to })
    }

    /// What a link's answer to a send means here: a failure is a TTG045 —
    /// except `Closed` and anything during teardown, which are expected
    /// traffic loss, counted like a channel closed post-shutdown.
    fn link_sent(
        &self,
        from: Rank,
        to: Rank,
        handler: Option<u32>,
        sent: Result<(), TransportError>,
    ) -> Result<(), SendError> {
        let Err(e) = sent else { return Ok(()) };
        if matches!(e, TransportError::Closed { .. }) || self.stopping.load(Ordering::SeqCst) {
            self.stats.post_shutdown_sends.inc();
        } else {
            self.record_error(
                CommError::new(CommErrorKind::TransportFailure, e.to_string())
                    .link(from, to)
                    .handler(handler),
            );
        }
        Err(SendError { from, to })
    }

    /// The one receive dispatch, installed as the sink of every endpoint:
    /// rank `to` received `res` from rank `src`. Runs on the endpoint's
    /// reader threads. Each frame kind ends in exactly one arm, and the
    /// lint forbids a wildcard: a new kind is a compile error here until
    /// somebody terminates it.
    #[deny(clippy::wildcard_enum_match_arm)]
    fn link_rx(&self, to: Rank, src: Rank, res: Result<Frame, TransportError>) {
        let frame = match res {
            Ok(frame) => frame,
            Err(e) => {
                // Connection-level trouble is a TTG045, unless the fabric is
                // tearing down or the job has already terminated.
                let over = self.stopping.load(Ordering::SeqCst)
                    || self.control.as_ref().is_some_and(|cp| cp.done());
                if !over {
                    self.record_error(
                        CommError::new(CommErrorKind::TransportFailure, e.to_string())
                            .link(src, to),
                    );
                }
                return;
            }
        };
        match frame {
            Frame::Am {
                from,
                handler,
                seq,
                payload,
            } => {
                // Between processes this ledger issues the frame as it comes
                // off the wire; within one process the sender issued it.
                // It settles when processed (`control_model.rs`).
                let arrived = self.control.as_ref().map(|cp| {
                    cp.frame_arrived();
                    self.stats.rx_bytes[to].add(payload.len() as u64);
                    self.ledger.issue(from as usize, to)
                });
                let queued = self.enqueue(from as usize, to, handler, seq, payload);
                if let (Err(_), Some(li)) = (queued, arrived) {
                    self.settle(li);
                }
            }
            Frame::AckRange { ranges, .. } => {
                // A peer's batched acknowledgement: `to` is the original
                // data sender, `src` the acker. Retire the covered
                // sequences from the sender-side retransmit map.
                if let Some(cs) = &self.chaos {
                    cs.apply_ack_ranges(cs.link_idx(to, src), &ranges);
                }
            }
            Frame::BarrierEnter { .. }
            | Frame::BarrierRelease { .. }
            | Frame::TermProbe { .. }
            | Frame::TermReply { .. }
            | Frame::TermDone => {
                if let Some(cp) = &self.control {
                    cp.on_frame(self, frame);
                }
            }
            // Handshake and teardown end inside the transport.
            Frame::Hello { .. } | Frame::Bye { .. } => {}
        }
    }

    /// Multi-process only: install the executor's idleness probe, input to
    /// the termination protocol. The probe must not capture the fabric (it
    /// would leak the reference cycle); capturing the quiescence tracker
    /// is enough.
    pub fn install_idle_probe(&self, probe: Box<dyn Fn() -> (bool, u64) + Send + Sync>) {
        if let Some(cp) = &self.control {
            cp.install_idle_probe(probe);
        }
    }

    /// Multi-process only: has the coordinator declared global
    /// termination? A `false` has also taken this rank's step of the
    /// protocol, which acts only while the rank is locally drained: rank 0
    /// starts or evaluates a probe round, any other rank sends the reply it
    /// deferred while busy. The caller parks on [`events`](Self::events)
    /// between calls. Always `true` on in-process fabrics, where local
    /// quiescence is global quiescence.
    pub fn poll_termination(&self) -> bool {
        self.control.as_ref().is_none_or(|cp| {
            cp.done() || {
                cp.step(self);
                cp.done()
            }
        })
    }

    /// Block until all ranks reach the barrier (used by BSP comparators
    /// and the multi-process start/stop fences): a shared-memory barrier
    /// when every rank is in this process, the control plane's coordinator
    /// protocol otherwise.
    pub fn barrier(&self) {
        match &self.control {
            Some(cp) => cp.barrier(self),
            None => {
                self.barrier.wait();
            }
        }
    }

    fn chaos_port(&self) -> ChaosPort<'_> {
        ChaosPort {
            wire: self,
            stats: &self.stats,
            ledger: &self.ledger,
            errors: &self.errors,
        }
    }

    /// Settle one message on ledger row `li`, recording a settle the row
    /// cannot take.
    fn settle(&self, li: usize) {
        self.chaos_port().settle(li);
    }

    /// Receive-side classification of a sequenced packet: `true` means the
    /// packet is a fresh logical delivery and must be processed — then
    /// reported with [`packet_processed`](Self::packet_processed) on the
    /// same thread; `false` means it is a duplicate, from before the last
    /// rollback, or addressed to a dead rank, and must be discarded without
    /// counting as a logical receive.
    pub fn rx_accept(&self, to: Rank, from: Rank, seq: u64) -> bool {
        if let Some(cs) = &self.chaos {
            if !cs.rx_accept(&self.chaos_port(), to, from, seq) {
                return false;
            }
        }
        let li = self.ledger.link(from, to);
        ACCEPTED.set(Some((self as *const Fabric as usize, li)));
        true
    }

    /// Report the packet this thread last accepted
    /// ([`rx_accept`](Self::rx_accept)) as fully processed: it settles on
    /// its link, which the termination detector reads. A call with no
    /// accepted packet behind it is a TTG048.
    pub fn packet_processed(&self) {
        match ACCEPTED.take() {
            Some((id, li)) if id == self as *const Fabric as usize => self.settle(li),
            _ => self.record_error(CommError::new(
                CommErrorKind::RecoveryFailed,
                "ledger: a packet reported processed that this thread never accepted",
            )),
        }
    }

    /// Number of packets issued but not yet settled (processed).
    pub fn packets_in_flight(&self) -> usize {
        self.ledger.in_flight() as usize
    }

    /// What this process is waiting on, for a deadline-miss record: the
    /// packets in flight with issued − settled per link and, under a fault
    /// plan, the reliable layer's unacked entries and pending ack batches
    /// per link.
    pub fn describe_wait(&self) -> String {
        let in_flight = format!(
            "{} packets in flight; issued−settled by link: {}",
            self.packets_in_flight(),
            self.ledger.describe()
        );
        match &self.chaos {
            Some(cs) => format!("{in_flight}; {}", cs.describe_pending()),
            None => in_flight,
        }
    }

    /// The cut and rollback surface, when the fault plan enables recovery.
    /// Never in a multi-process rank: nothing in a multi-process job could
    /// load its cut — the launcher recovers a killed process by
    /// relaunching the job.
    pub fn recovery(&self) -> Option<Recovery<'_>> {
        let cs = self.chaos.as_ref().filter(|cs| cs.recovering())?;
        let port = self.chaos_port();
        Some(Recovery { cs, port })
    }

    /// Whether the fault plan enables [`recovery`](Self::recovery). A cut
    /// holds only what the reliable layer sequenced, so rank-local sends
    /// then take the wire (see `ChaosState::carries`), and every value
    /// rides inside its AM: no cut holds the region table (DESIGN §13).
    pub fn recovering(&self) -> bool {
        self.chaos.as_ref().is_some_and(|cs| cs.recovering())
    }

    /// Deliver a shutdown packet to every rank, stop the reliability
    /// progress thread, and close the link layer (flushing pending sends
    /// and notifying peers).
    pub fn shutdown_all(&self) {
        self.stopping.store(true, Ordering::SeqCst);
        if let Some(cs) = &self.chaos {
            cs.clock.poke();
        }
        self.links.shutdown();
    }

    /// Register `data` as an RMA-readable region owned by `owner`.
    ///
    /// The region is released (and `on_release` runs) after `expected_gets`
    /// fetches. `expected_gets == 0` releases immediately.
    pub fn register_region(
        &self,
        owner: Rank,
        data: Arc<Vec<u8>>,
        expected_gets: usize,
        on_release: Option<Box<dyn FnOnce() + Send>>,
    ) -> RegionId {
        self.rma.register(owner, data, expected_gets, on_release)
    }

    /// One-sided fetch of a region owned by `owner`: the caller obtains a
    /// zero-copy handle to the region bytes, read in place without
    /// involving the owner's CPU — which is only possible where the
    /// owner's region table is in this address space (every in-process
    /// fabric; a multi-process rank reaches only its own). Any other owner
    /// is `RmaError::ForeignOwner`, returned without an error record of
    /// its own: the failed delivery is the report.
    ///
    /// The fetch that satisfies the region's expected count triggers its
    /// release. A duplicate or late fetch of an already-released region is
    /// answered idempotently from a bounded cache of recently released
    /// regions; a fetch of a region the owner never held (or that has been
    /// evicted) ends in `RmaError::UnknownRegion` and a TTG044 record —
    /// never a panic.
    pub fn rma_fetch(
        &self,
        caller: Rank,
        owner: Rank,
        id: RegionId,
    ) -> Result<Arc<Vec<u8>>, RmaError> {
        if owner >= self.n || self.local_rank().is_some_and(|me| me != owner) {
            return Err(RmaError::ForeignOwner { caller, owner, id });
        }
        let fetched = self.rma.fetch(&self.stats, caller, owner, id);
        fetched.inspect_err(|_| {
            self.record_error(
                CommError::new(CommErrorKind::UnknownRegion, format!("region {id}"))
                    .link(owner, caller)
                    .seq(id),
            );
        })
    }
}

/// The wire the reliable layer transmits on: a payload it keeps in its
/// retransmit map goes out on a socket link from the shared buffer (the
/// link encodes from the borrow or queues another handle on it); only the
/// channel wire, which hands an owned `Vec` to the receiver, copies it.
impl ChaosWire for Fabric {
    fn deliver(
        &self,
        from: Rank,
        to: Rank,
        handler: u32,
        seq: u64,
        payload: &Arc<Vec<u8>>,
    ) -> Result<(), SendError> {
        match self.links.get(from, to) {
            Some(link) => {
                let sent = link.send_am_shared(from as u32, handler, seq, payload);
                self.link_sent(from, to, Some(handler), sent)
            }
            None => self.enqueue(from, to, handler, seq, (**payload).clone()),
        }
    }

    fn send_ack_range(&self, acker: Rank, sender: Rank, ranges: AckRanges) -> AckSent {
        let Some(link) = self.links.get(acker, sender) else {
            return Err(Some(ranges));
        };
        let frame = Frame::AckRange {
            from: acker as u32,
            ranges,
        };
        link.send(frame).map_err(|_| None)
    }
}

impl ControlPort for Fabric {
    fn send_control(&self, from: Rank, to: Rank, frame: Frame) {
        let link = self.links.get(from, to);
        let link = link.expect("a multi-process rank holds a link to every peer");
        let _ = self.link_sent(from, to, None, link.send(frame));
    }

    fn ledger(&self) -> &Ledger {
        &self.ledger
    }
}

impl Drop for Fabric {
    fn drop(&mut self) {
        // The progress thread parks holding only a weak reference: wake it
        // to find the fabric gone.
        if let Some(cs) = &self.chaos {
            cs.clock.poke();
        }
    }
}

thread_local! {
    /// The packet this thread accepted and has not yet reported processed:
    /// (ledger, row). Acceptance and processing happen on the receiving
    /// thread, one packet at a time.
    static ACCEPTED: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

/// Body of the reliability progress thread: runs a pass of the
/// retransmission, ack and delayed-release engine, then parks until the
/// earliest instant the next pass could act or a site arms an earlier one
/// — no tick — until the fabric shuts down or is dropped.
fn progress_loop(fabric: Weak<Fabric>, clock: Arc<ProgressClock>) {
    loop {
        let epoch = clock.begin_pass();
        let next = match fabric.upgrade() {
            Some(f) if !f.stopping.load(Ordering::SeqCst) => {
                f.chaos.as_ref().and_then(|cs| cs.progress(&f.chaos_port()))
            }
            _ => return clock.cancel(),
        };
        clock.park(epoch, next);
    }
}

#[cfg(test)]
#[cfg(not(ttg_model))]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};
    use ttg_model::sync::AtomicU64;
    use ttg_transport::{local_mesh, Endpoint, RemoteHandle, SocketEndpoint, TransportKind};

    /// Wait for one AM on `rx` (socket delivery is asynchronous).
    fn recv_am(rx: &Receiver<Packet>) -> Packet {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Ok(p) = rx.try_recv() {
                return p;
            }
            assert!(Instant::now() < deadline, "no packet within deadline");
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    #[test]
    fn am_roundtrip_between_ranks() {
        for spec in [TransportSpec::InProc, TransportSpec::Tcp] {
            let fabric = Fabric::with_transport(2, None, &spec).unwrap();
            let rx1 = fabric.take_receiver(1);
            fabric.send_am(0, 1, 7, vec![1, 2, 3]).unwrap();
            match recv_am(&rx1) {
                Packet::Am {
                    handler,
                    from,
                    seq,
                    payload,
                } => {
                    assert_eq!(handler, 7);
                    assert_eq!(from, 0);
                    assert_eq!(seq, 0);
                    assert_eq!(payload, vec![1, 2, 3]);
                }
                other => panic!("{spec:?}: unexpected packet {other:?}"),
            }
            assert!(fabric.rx_accept(1, 0, 0));
            fabric.packet_processed();
            assert_eq!(fabric.packets_in_flight(), 0);
            let s = fabric.stats().snapshot();
            assert_eq!((s.am_count, s.am_bytes), (1, 3));
            // Only a socket mesh touches a socket.
            let crossed = s.transport_tx_bytes > 0 && s.transport_rx_bytes > 0;
            let sockets = matches!(spec, TransportSpec::Tcp);
            assert_eq!(crossed, sockets, "{spec:?}: {s:?}");
            assert_eq!(s.transport_connects >= 1, sockets);
            fabric.shutdown_all();
        }
    }

    #[test]
    fn local_am_not_counted_as_wire_traffic() {
        let fabric = Fabric::with_faults(1, None);
        let rx = fabric.take_receiver(0);
        fabric.send_am(0, 0, 1, vec![0; 64]).unwrap();
        let _ = rx.recv().unwrap();
        let s = fabric.stats().snapshot();
        assert_eq!(s.am_count, 0);
        assert_eq!(s.am_bytes, 0);
        assert_eq!(s.local_deliveries, 1);
    }

    #[test]
    fn send_to_closed_rank_is_counted_error_not_panic() {
        let fabric = Fabric::with_faults(2, None);
        {
            let _rx = fabric.take_receiver(1);
            // Receiver dropped here: rank 1's channel closes.
        }
        let err = fabric
            .send_am(0, 1, 7, vec![1, 2, 3])
            .expect_err("closed channel must error");
        assert_eq!(err, SendError { from: 0, to: 1 });
        let s = fabric.stats().snapshot();
        assert_eq!(s.post_shutdown_sends, 1);
        // No phantom in-flight packet and no wire accounting for the no-op.
        assert_eq!(fabric.packets_in_flight(), 0);
        assert_eq!(s.am_count, 0);
    }

    #[test]
    fn unknown_region_is_structured_error_not_panic() {
        let fabric = Fabric::with_faults(2, None);
        let err = fabric
            .rma_fetch(1, 0, 999)
            .expect_err("unknown region must error");
        assert_eq!(
            err,
            RmaError::UnknownRegion {
                caller: 1,
                owner: 0,
                id: 999
            }
        );
        let errors = fabric.take_errors();
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].kind, CommErrorKind::UnknownRegion);
        assert_eq!(errors[0].code(), "TTG044");
    }

    #[test]
    fn barrier_synchronizes_ranks() {
        let fabric = Fabric::with_faults(4, None);
        let counter = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let f = Arc::clone(&fabric);
            let c = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                c.fetch_add(1, Ordering::SeqCst);
                f.barrier();
                // After the barrier every rank must observe all increments.
                assert_eq!(c.load(Ordering::SeqCst), 4);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn shutdown_reaches_every_rank() {
        let fabric = Fabric::with_faults(2, None);
        let rx0 = fabric.take_receiver(0);
        let rx1 = fabric.take_receiver(1);
        fabric.shutdown_all();
        assert!(matches!(rx0.recv().unwrap(), Packet::Shutdown));
        assert!(matches!(rx1.recv().unwrap(), Packet::Shutdown));
    }

    // ---- the reliable layer, through the fabric ----------------------
    // (its own state machine is tested against a queue wire in `chaos`)

    #[test]
    fn injected_duplicates_are_deduped() {
        // The same forced duplication over the channel wire and over real
        // sockets: logical delivery and the logical count stay exact.
        for spec in [TransportSpec::InProc, TransportSpec::Uds] {
            let plan = FaultPlan::seeded(3).with_dup(1.0);
            let fabric = Fabric::with_transport(2, Some(plan), &spec).unwrap();
            let rx1 = fabric.take_receiver(1);
            let n = 5;
            for _ in 0..n {
                fabric.send_am(0, 1, 7, vec![2]).unwrap();
            }
            let (mut fresh, mut dups) = (0, 0);
            let deadline = Instant::now() + Duration::from_secs(10);
            while (fresh < n || dups < n) && Instant::now() < deadline {
                if let Some(cs) = &fabric.chaos {
                    cs.progress(&fabric.chaos_port());
                }
                while let Ok(Packet::Am { from, seq, .. }) = rx1.try_recv() {
                    if fabric.rx_accept(1, from, seq) {
                        fabric.packet_processed();
                        fresh += 1;
                    } else {
                        dups += 1;
                    }
                }
                std::thread::sleep(Duration::from_micros(100));
            }
            assert_eq!(
                fresh, n,
                "{spec:?}: logical delivery must stay exactly-once"
            );
            assert_eq!(fabric.packets_in_flight(), 0);
            let s = fabric.stats().snapshot();
            // Latency can outlast the retry timer, and every retransmit
            // attempt rolls its own dup decision — so at least one per send.
            assert!(dups >= n && s.am_dedup_hits >= n, "{spec:?}: {s:?}");
            assert!(s.am_dup_injected >= n, "{spec:?}: {s:?}");
            assert_eq!(s.am_count, n, "logical AM count unaffected by duplication");
            let crossed = s.transport_tx_bytes > 0;
            assert_eq!(crossed, matches!(spec, TransportSpec::Uds), "{spec:?}");
            fabric.shutdown_all();
        }
    }

    #[test]
    fn a_frame_on_a_socket_from_before_a_rollback_is_dropped() {
        // A data frame is on the socket mesh while every rank rolls back
        // to the start. The next send on its link reuses its raw seq; only
        // the epoch tells the two apart: the old frame is dropped, the new
        // one delivered. (Retries wait seconds: no copy but these two.)
        let slow = crate::fault::RetryPolicy {
            base: Duration::from_secs(5),
            cap: Duration::from_secs(5),
            max_retries: 1,
        };
        let plan = FaultPlan::seeded(13).with_recovery(1_000).with_retry(slow);
        let fabric = Fabric::with_transport(2, Some(plan), &TransportSpec::Uds).unwrap();
        let rx1 = fabric.take_receiver(1);
        fabric.send_am(0, 1, 7, vec![1]).unwrap();
        fabric.recovery().expect("recovery").pause().rollback(None);
        fabric.send_am(0, 1, 7, vec![2]).unwrap();
        let mut got = Vec::new();
        for _ in 0..2 {
            let Ok(Packet::Am {
                from, seq, payload, ..
            }) = rx1.recv()
            else {
                panic!("the mesh closed");
            };
            if fabric.rx_accept(1, from, seq) {
                fabric.packet_processed();
                got.push(payload);
            }
            assert_eq!(crate::reliable::unpack_seq(seq).1, 1);
        }
        assert_eq!(got, vec![vec![2]], "only the send after the rollback");
        assert_eq!(fabric.stats().snapshot().am_dedup_hits, 1);
        assert!(fabric.stats().snapshot().transport_tx_bytes > 0);
        assert_eq!(fabric.packets_in_flight(), 0);
        fabric.shutdown_all();
    }

    #[test]
    fn loopback_bypasses_chaos() {
        let plan = FaultPlan::seeded(2).with_drop(1.0);
        let fabric = Fabric::with_faults(2, Some(plan));
        let rx0 = fabric.take_receiver(0);
        fabric.send_am(0, 0, 1, vec![9]).unwrap();
        // Local delivery is immediate even under 100% drop.
        assert!(matches!(rx0.recv().unwrap(), Packet::Am { seq: 0, .. }));
        assert_eq!(fabric.stats().snapshot().local_deliveries, 1);
    }

    #[test]
    fn mesh_loopback_and_sentinel_stay_on_channels() {
        let fabric = Fabric::with_transport(2, None, &TransportSpec::Uds).unwrap();
        let rx0 = fabric.take_receiver(0);
        let tx_before = fabric.stats().snapshot().transport_tx_bytes;
        fabric.send_am(0, 0, 1, vec![9]).unwrap();
        fabric.send_am(usize::MAX, 0, 1, vec![8]).unwrap();
        assert!(matches!(recv_am(&rx0), Packet::Am { from: 0, .. }));
        assert!(matches!(
            recv_am(&rx0),
            Packet::Am {
                from: usize::MAX,
                ..
            }
        ));
        let s = fabric.stats().snapshot();
        assert_eq!(
            s.transport_tx_bytes, tx_before,
            "process-internal deliveries must not touch the socket"
        );
        assert_eq!(s.local_deliveries, 1);
        fabric.shutdown_all();
    }

    // ---- one rank of a multi-process job -----------------------------

    /// A process-shaped spec for rank `me` of 2: one endpoint of an
    /// in-process socket mesh (shut the mesh down when done).
    fn remote_spec(kind: TransportKind, me: Rank) -> (Vec<Arc<SocketEndpoint>>, TransportSpec) {
        let registry = Arc::new(Registry::new());
        let eps = local_mesh(kind, 2, &registry).unwrap();
        let endpoint = Arc::clone(&eps[me]) as Arc<dyn Endpoint>;
        (
            eps,
            TransportSpec::Remote(RemoteHandle { endpoint, registry }),
        )
    }

    #[test]
    fn a_remote_rank_takes_only_its_kill_script_from_a_fault_plan() {
        let (eps, spec) = remote_spec(TransportKind::Tcp, 1);
        // Anything `FaultPlan::remote_kill_after` refuses is a TTG045 at
        // bring-up: dice, and the death of the coordinator.
        for plan in [
            FaultPlan::seeded(1).with_drop(0.05),
            FaultPlan::seeded(1).with_kill(0, 5),
        ] {
            let err = Fabric::with_transport(2, Some(plan), &spec)
                .err()
                .expect("plan must be refused in remote mode");
            assert_eq!(err.kind, CommErrorKind::TransportFailure);
            assert_eq!(err.code(), "TTG045");
        }
        // kill=1@n on a real process-shaped endpoint is accepted — and that
        // is all of the plan that engages: no reliable layer, and no
        // snapshots nobody in a multi-process job could load.
        let plan = FaultPlan::seeded(1)
            .with_kill(1, 1_000_000)
            .with_recovery(64);
        let f = Fabric::with_transport(2, Some(plan), &spec)
            .expect("kill-only plan must be accepted in remote mode");
        assert!(f.recovery().is_none() && !f.recovering());
        f.shutdown_all();
        for ep in &eps {
            ep.shutdown();
        }
    }

    #[test]
    fn a_region_outside_this_address_space_is_a_structured_error() {
        // A multi-process rank reads only its own region table; an
        // in-process fabric only the ranks it has. Neither case records an
        // error of its own (the failed delivery is the report) or panics
        // on an owner index a peer chose.
        let (eps, spec) = remote_spec(TransportKind::Uds, 0);
        let f = Fabric::with_transport(2, None, &spec).unwrap();
        let own = f.register_region(0, Arc::new(vec![4u8; 8]), 1, None);
        assert_eq!(*f.rma_fetch(0, 0, own).unwrap(), vec![4u8; 8]);
        for owner in [1, 2, usize::MAX] {
            assert_eq!(
                f.rma_fetch(0, owner, 7),
                Err(RmaError::ForeignOwner {
                    caller: 0,
                    owner,
                    id: 7
                })
            );
        }
        assert!(f.take_errors().is_empty());
        f.shutdown_all();
        for ep in &eps {
            ep.shutdown();
        }
        let local = Fabric::with_faults(2, None);
        assert!(matches!(
            local.rma_fetch(0, 2, 1),
            Err(RmaError::ForeignOwner { owner: 2, .. })
        ));
    }
}
