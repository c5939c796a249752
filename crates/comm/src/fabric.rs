//! Simulated distributed communication fabric.
//!
//! The paper runs on MPI clusters; this module replaces the physical wire
//! with an in-process fabric of `n` logical **ranks**. Everything above the
//! wire is real: inter-rank messages are serialized into byte buffers and
//! travel through channels (the *eager* / active-message path), and large
//! payloads can be registered as memory **regions** and fetched one-sidedly
//! by the receiver (the *RMA* path used by the split-metadata protocol).
//!
//! RMA is emulated by letting the requesting rank read the registered region
//! directly, without involving the owner's CPU threads — exactly the property
//! real RDMA hardware provides. Once every expected consumer has fetched a
//! region it is released and its completion callback runs (the paper's
//! "sender is notified to release the source object").
//!
//! ## Faults and reliable delivery
//!
//! By default the channels are a perfect network. Installing a
//! [`FaultPlan`] (see [`Fabric::with_faults`]) interposes a chaos layer on
//! every inter-rank AM — seeded drop/duplicate/delay/reorder decisions and
//! scripted rank deaths — together with a reliable-delivery protocol
//! (per-link sequence numbers, receive-side dedup windows, ack +
//! exponential-backoff retransmit with a bounded retry budget; see
//! [`crate::reliable`]). Logical delivery stays exactly-once; a packet that
//! exhausts its retry budget is converted into a structured [`CommError`]
//! instead of a panic or a silent hang. Errors from any comm path
//! accumulate in the fabric's error sink and surface in execution reports.

use std::collections::HashMap;
use std::sync::{Arc, Barrier, Weak};
use std::time::{Duration, Instant};
use ttg_model::sync::{AtomicBool, AtomicU64, AtomicUsize, Condvar, Mutex, Ordering};

use crossbeam_channel::{unbounded, Receiver, Sender};
use ttg_telemetry::{Counter, Gauge, Histogram, MetricKey, Registry};
use ttg_transport::{
    local_mesh, Endpoint, Frame, Link, TransportError, TransportKind, TransportSpec,
};

use crate::buf::{ReadBuf, WireError, WriteBuf};
use crate::fault::{salt, FaultPlan};
use crate::recover::SnapshotSink;
use crate::reliable::{
    content_key, is_replay, pack_seq, unpack_seq, ContentLog, LinkTx, PendingAcks, SeqWindow,
    Unacked, REPLAY_BIT,
};

/// Logical process rank within the fabric.
pub type Rank = usize;

/// Identifier of a registered RMA region, unique per fabric.
pub type RegionId = u64;

/// Released regions kept around to answer duplicated or late one-sided
/// fetches idempotently instead of aborting the owner.
const RELEASED_CACHE: usize = 64;

/// Frame kinds some layer of the stack consumes, cross-referenced by the
/// `ttg-check` protocol analysis against the transport's
/// [`WIRE_KINDS`](ttg_transport::frame::WIRE_KINDS) table (TTG052: a kind
/// the wire defines but nobody terminates means sends silently vanish).
///
/// `Hello` and `Bye` terminate inside the transport (handshake and reader
/// teardown); `Ack` terminates in the reliable layer's accept path;
/// `AckRange` — the batched form — terminates in the mesh receive
/// dispatch (`mesh_rx`), which clears the acked retransmit entries; the
/// rest terminate in the fabric's receive dispatch (`remote_rx`).
pub const CONSUMED_FRAME_KINDS: &[&str] = &[
    "Hello",
    "Am",
    "Ack",
    "AckRange",
    "BarrierEnter",
    "BarrierRelease",
    "TermProbe",
    "TermReply",
    "TermDone",
    "Bye",
];

/// Retransmit/delay progress-thread tick.
const PROGRESS_TICK: Duration = Duration::from_micros(100);

/// A packet travelling between ranks.
#[derive(Debug)]
pub enum Packet {
    /// Active message: invoke `handler` on the destination with `payload`.
    Am {
        /// Destination-side handler index (e.g. template-task id).
        handler: u32,
        /// Sending rank.
        from: Rank,
        /// Per-link sequence number under reliable delivery (0 when the
        /// reliable layer is off or the message is rank-local).
        seq: u64,
        /// Serialized message body.
        payload: Vec<u8>,
    },
    /// Orderly shutdown of the destination's progress loop.
    Shutdown,
}

/// Why a send could not be handed to the fabric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SendError {
    /// Sending rank (may be the external-seed sentinel).
    pub from: Rank,
    /// Destination rank whose channel is gone.
    pub to: Rank,
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fabric channel to rank {} closed (send from rank {})",
            self.to, self.from
        )
    }
}

impl std::error::Error for SendError {}

/// Why a one-sided fetch failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RmaError {
    /// The region id is not registered on the owner (already fully
    /// released and evicted from the idempotency cache, or never existed).
    UnknownRegion {
        /// Fetching rank.
        caller: Rank,
        /// Alleged owner.
        owner: Rank,
        /// The unknown region id.
        id: RegionId,
    },
    /// The named owner's region table is not in this address space: a
    /// rank of another process (which no one-sided read reaches — values
    /// cross processes inside their AM), or no rank of the job at all.
    ForeignOwner {
        /// Fetching rank.
        caller: Rank,
        /// The owner the metadata named.
        owner: Rank,
        /// The region id being fetched.
        id: RegionId,
    },
}

impl std::fmt::Display for RmaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RmaError::UnknownRegion { caller, owner, id } => write!(
                f,
                "rma_get of unknown region {id} on rank {owner} (caller rank {caller})"
            ),
            RmaError::ForeignOwner { caller, owner, id } => write!(
                f,
                "rma_get of region {id}: its owner, rank {owner}, is not hosted in \
                 this process (caller rank {caller})"
            ),
        }
    }
}

impl std::error::Error for RmaError {}

/// Classification of a structured communication failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommErrorKind {
    /// A logical packet was abandoned after exhausting its retransmission
    /// budget (dead link / dead rank).
    RetryBudgetExhausted,
    /// A send hit a closed per-rank channel (destination shut down).
    ChannelClosed,
    /// An active message arrived but its delivery failed (decode error,
    /// missing region, handler fault).
    DeliveryFailed,
    /// A one-sided fetch named a region the owner does not hold.
    UnknownRegion,
    /// The execution did not reach quiescence within its delivery
    /// deadline.
    DeadlineMissed,
    /// The link layer failed: connect refused, peer reset, handshake
    /// mismatch, or framing garbage (socket transports only).
    TransportFailure,
    /// A killed rank was restored from its last snapshot and its logged
    /// messages replayed (informational: recorded in the recovery log,
    /// not the error sink).
    RankRecovered,
    /// A periodic state snapshot could not be captured or persisted; the
    /// previous snapshot remains the restore point.
    SnapshotFailed,
    /// A rank restore/replay attempt failed; the rank stays dead and the
    /// run degrades to the PR 5 fail-and-report path.
    RecoveryFailed,
}

impl CommErrorKind {
    /// Stable diagnostic code (rendered by `ttg-check`, DESIGN §8).
    pub fn code(&self) -> &'static str {
        match self {
            CommErrorKind::RetryBudgetExhausted => "TTG040",
            CommErrorKind::DeadlineMissed => "TTG041",
            CommErrorKind::ChannelClosed => "TTG042",
            CommErrorKind::DeliveryFailed => "TTG043",
            CommErrorKind::UnknownRegion => "TTG044",
            CommErrorKind::TransportFailure => "TTG045",
            CommErrorKind::RankRecovered => "TTG046",
            CommErrorKind::SnapshotFailed => "TTG047",
            CommErrorKind::RecoveryFailed => "TTG048",
        }
    }
}

/// A structured communication failure, recorded in the fabric's error sink
/// instead of panicking, and surfaced through execution reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommError {
    /// What went wrong.
    pub kind: CommErrorKind,
    /// Sending rank, when known.
    pub from: Option<Rank>,
    /// Destination rank, when known.
    pub to: Option<Rank>,
    /// Destination handler (template-task id), when known.
    pub handler: Option<u32>,
    /// Link sequence number, when known.
    pub seq: Option<u64>,
    /// Human-readable context.
    pub detail: String,
}

impl CommError {
    /// Stable diagnostic code of this error's kind.
    pub fn code(&self) -> &'static str {
        self.kind.code()
    }
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {:?}", self.code(), self.kind)?;
        if let (Some(from), Some(to)) = (self.from, self.to) {
            write!(f, " on link {from}->{to}")?;
        } else if let Some(to) = self.to {
            write!(f, " on rank {to}")?;
        }
        if let Some(seq) = self.seq {
            write!(f, " seq {seq}")?;
        }
        if !self.detail.is_empty() {
            write!(f, ": {}", self.detail)?;
        }
        Ok(())
    }
}

impl From<SendError> for CommError {
    fn from(e: SendError) -> Self {
        CommError {
            kind: CommErrorKind::ChannelClosed,
            from: Some(e.from),
            to: Some(e.to),
            handler: None,
            seq: None,
            detail: e.to_string(),
        }
    }
}

struct Region {
    data: Arc<Vec<u8>>,
    remaining: usize,
    on_release: Option<Box<dyn FnOnce() + Send>>,
}

/// Aggregate communication counters for a fabric (all ranks).
///
/// Since the telemetry migration these are handles into the fabric's
/// [`Registry`] (subsystem `"comm"`), so the same cells feed both this
/// legacy accessor and registry snapshots/JSON exports. Updates remain
/// single relaxed atomic ops, as with the previous ad-hoc `AtomicU64`s.
#[derive(Debug)]
pub struct FabricStats {
    /// Active messages sent between distinct ranks (logical count: fault
    /// retransmits and injected duplicates are not re-counted here).
    am_count: Counter,
    /// Bytes moved through active messages.
    am_bytes: Counter,
    /// One-sided region fetches.
    rma_gets: Counter,
    /// Bytes moved through RMA fetches.
    rma_bytes: Counter,
    /// Messages delivered without leaving the rank.
    local_deliveries: Counter,
    /// Number of serialization passes performed (copies into wire buffers).
    serializations: Counter,
    /// Number of deep data copies performed by backends (clone-on-send).
    data_copies: Counter,
    /// Broadcast sends avoided by the optimized one-AM-per-rank broadcast.
    bcast_sends_saved: Counter,
    /// Bytes not re-serialized thanks to broadcast deduplication.
    bcast_bytes_saved: Counter,
    /// Physical retransmissions performed by the reliable layer.
    am_retries: Counter,
    /// Physical packets dropped by fault injection (incl. dead-rank drops).
    am_dropped_injected: Counter,
    /// Physical packets duplicated by fault injection.
    am_dup_injected: Counter,
    /// Physical packets held back (delay/reorder injection).
    am_delayed_injected: Counter,
    /// Duplicate receptions rejected by the receive-side dedup window.
    am_dedup_hits: Counter,
    /// Logical packets abandoned after the retry budget ran out.
    am_retry_exhausted: Counter,
    /// Acknowledgement flush events: one per batched-ack range set sent
    /// (or, under immediate acks, one per per-message ack), so
    /// acks-per-message = `ack_flushes / am_count`.
    ack_flushes: Counter,
    /// Sequence numbers acknowledged through batched range flushes.
    acks_batched: Counter,
    /// Of those, seqs whose flush piggybacked on reverse-direction data
    /// (the rest went out on the flush timer).
    acks_piggybacked: Counter,
    /// Sends that hit a closed channel (post-shutdown no-ops).
    post_shutdown_sends: Counter,
    /// Late/duplicate one-sided fetches answered from the released-region
    /// idempotency cache.
    rma_stale_gets: Counter,
    /// Entries evicted from the released-region LRU cache to make room.
    rma_released_evictions: Counter,
    /// Time one active message spends in its handler on the rank's
    /// delivery thread, ns (decode, matching-table inserts, batch flush).
    am_deliver_ns: Histogram,
    /// Executions that missed their delivery deadline.
    delivery_deadline_misses: Counter,
    /// Per-rank bytes put on the wire (AM payloads + RMA reads served).
    tx_bytes: Vec<Counter>,
    /// Per-rank bytes taken off the wire.
    rx_bytes: Vec<Counter>,
    /// Link-layer bytes handed to the OS (subsystem `"transport"`; zero on
    /// the in-process wire, which has no framing overhead to measure).
    transport_tx_bytes: Counter,
    /// Link-layer bytes read off the wire.
    transport_rx_bytes: Counter,
    /// Successful connection establishments (dial or accept + handshake).
    transport_connects: Counter,
    /// Connections re-established after a mid-run failure.
    transport_reconnects: Counter,
    /// Handshakes refused (magic/version/rank mismatch).
    transport_handshake_failures: Counter,
    /// Writer-thread write syscalls (one per gathered batch).
    transport_tx_writes: Counter,
    /// Frames that rode a coalesced write instead of paying for their own.
    transport_tx_frames_coalesced: Counter,
    /// Frames a writer dropped after reconnect recovery failed.
    transport_tx_frames_abandoned: Counter,
    /// Frames whose body bypassed the coalescing buffer / the read buffer.
    transport_tx_direct_frames: Counter,
    transport_rx_direct_frames: Counter,
    /// Per-peer send-queue high-water marks (frames, bytes).
    transport_queue_hwm: Vec<Gauge>,
    transport_queue_bytes_hwm: Vec<Gauge>,
    /// Per-rank scheduler ready-queue high-water marks (jobs on one
    /// worker's queues).
    sched_ready_hwm: Vec<Gauge>,
    /// Recovery: per-rank state snapshots captured.
    snapshots_taken: Counter,
    /// Recovery: bytes persisted through the snapshot sink.
    snapshot_bytes: Counter,
    /// Recovery: snapshots restored into a rank.
    restores: Counter,
    /// Recovery: killed ranks brought back to life.
    recoveries: Counter,
    /// Recovery: logged messages retransmitted during replay.
    replayed_sends: Counter,
    /// Recovery: replayed/re-executed messages dropped by content dedup.
    replay_dedup_hits: Counter,
}

/// Plain snapshot of [`FabricStats`] counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Active messages sent between distinct ranks (logical).
    pub am_count: u64,
    /// Bytes moved through active messages.
    pub am_bytes: u64,
    /// One-sided region fetches.
    pub rma_gets: u64,
    /// Bytes moved through RMA fetches.
    pub rma_bytes: u64,
    /// Messages delivered without leaving the rank.
    pub local_deliveries: u64,
    /// Serialization passes.
    pub serializations: u64,
    /// Deep data copies by backends.
    pub data_copies: u64,
    /// Broadcast sends avoided by deduplication.
    pub bcast_sends_saved: u64,
    /// Bytes not re-serialized thanks to broadcast deduplication.
    pub bcast_bytes_saved: u64,
    /// Physical retransmissions by the reliable layer.
    pub am_retries: u64,
    /// Packets dropped by fault injection.
    pub am_dropped_injected: u64,
    /// Packets duplicated by fault injection.
    pub am_dup_injected: u64,
    /// Packets held back by delay/reorder injection.
    pub am_delayed_injected: u64,
    /// Duplicates rejected by the dedup window.
    pub am_dedup_hits: u64,
    /// Logical packets abandoned (retry budget exhausted).
    pub am_retry_exhausted: u64,
    /// Ack flush events (batched range sets, or per-message immediate
    /// acks): acks-per-message = `ack_flushes / am_count`.
    pub ack_flushes: u64,
    /// Sequence numbers acknowledged via batched ranges.
    pub acks_batched: u64,
    /// Batched-acked seqs that piggybacked on reverse-direction data.
    pub acks_piggybacked: u64,
    /// Post-shutdown sends absorbed as counted no-ops.
    pub post_shutdown_sends: u64,
    /// Late/duplicate RMA fetches served idempotently.
    pub rma_stale_gets: u64,
    /// Released-region LRU cache evictions.
    pub rma_released_evictions: u64,
    /// Median time an active message spends in its handler on the
    /// delivery thread, ns (upper bound of its log₂ bucket; 0 when none
    /// was delivered).
    pub am_deliver_p50_ns: u64,
    /// 99th-percentile handler time of an active message, ns (bucket
    /// bound).
    pub am_deliver_p99_ns: u64,
    /// Delivery-deadline misses.
    pub delivery_deadline_misses: u64,
    /// Link-layer bytes handed to the OS (socket transports).
    pub transport_tx_bytes: u64,
    /// Link-layer bytes read off the wire (socket transports).
    pub transport_rx_bytes: u64,
    /// Link-layer connection establishments.
    pub transport_connects: u64,
    /// Link-layer reconnections after mid-run failures.
    pub transport_reconnects: u64,
    /// Link-layer handshakes refused.
    pub transport_handshake_failures: u64,
    /// Writer-thread write syscalls. Frames-per-write =
    /// `(transport_tx_writes + transport_tx_frames_coalesced) /
    /// transport_tx_writes`.
    pub transport_tx_writes: u64,
    /// Frames that rode a coalesced write instead of their own syscall.
    pub transport_tx_frames_coalesced: u64,
    /// Frames abandoned by a writer after failed reconnect recovery.
    pub transport_tx_frames_abandoned: u64,
    /// Highest per-peer send-queue depth ever observed (frames; the
    /// lifetime mark, surviving transport reconnects — the per-connection
    /// `send_queue_hwm` gauge resets on every establishment).
    pub transport_queue_hwm: u64,
    /// The same mark in queued wire bytes (the transport's byte bound plus
    /// one frame, unless ungated control frames piled up).
    pub transport_queue_bytes_hwm: u64,
    /// Frames sent with their body written from the buffer that held it.
    pub transport_tx_direct_frames: u64,
    /// Frames whose body was read from the socket into its final buffer.
    pub transport_rx_direct_frames: u64,
    /// Highest single-worker ready-queue depth observed across ranks
    /// (jobs; mirrors `transport_queue_hwm` for the scheduler).
    pub sched_ready_hwm: u64,
    /// Recovery: per-rank state snapshots captured.
    pub snapshots_taken: u64,
    /// Recovery: bytes persisted through the snapshot sink.
    pub snapshot_bytes: u64,
    /// Recovery: snapshots restored into a rank.
    pub restores: u64,
    /// Recovery: killed ranks brought back to life.
    pub recoveries: u64,
    /// Recovery: logged messages retransmitted during replay.
    pub replayed_sends: u64,
    /// Recovery: replayed/re-executed messages dropped by content dedup.
    pub replay_dedup_hits: u64,
}

impl FabricStats {
    fn new(reg: &Registry, n: usize) -> Self {
        let c = |name| reg.counter(MetricKey::global("comm", name));
        let t = |name| reg.counter(MetricKey::global("transport", name));
        let per_rank = |subsystem: &'static str, name: &'static str| -> Vec<Gauge> {
            (0..n)
                .map(|r| reg.gauge(MetricKey::ranked(r, subsystem, name)))
                .collect()
        };
        FabricStats {
            am_count: c("am_count"),
            am_bytes: c("am_bytes"),
            rma_gets: c("rma_gets"),
            rma_bytes: c("rma_bytes"),
            local_deliveries: c("local_deliveries"),
            serializations: c("serializations"),
            data_copies: c("data_copies"),
            bcast_sends_saved: c("bcast_sends_saved"),
            bcast_bytes_saved: c("bcast_bytes_saved"),
            am_retries: c("am_retries"),
            am_dropped_injected: c("am_dropped_injected"),
            am_dup_injected: c("am_dup_injected"),
            am_delayed_injected: c("am_delayed_injected"),
            am_dedup_hits: c("am_dedup_hits"),
            am_retry_exhausted: c("am_retry_exhausted"),
            ack_flushes: c("ack_flushes"),
            acks_batched: c("acks_batched"),
            acks_piggybacked: c("acks_piggybacked"),
            post_shutdown_sends: c("post_shutdown_sends"),
            rma_stale_gets: c("rma_stale_gets"),
            rma_released_evictions: c("rma_released_evictions"),
            am_deliver_ns: reg.histogram(MetricKey::global("comm", "am_deliver_ns")),
            delivery_deadline_misses: c("delivery_deadline_misses"),
            tx_bytes: (0..n)
                .map(|r| reg.counter(MetricKey::ranked(r, "comm", "tx_bytes")))
                .collect(),
            rx_bytes: (0..n)
                .map(|r| reg.counter(MetricKey::ranked(r, "comm", "rx_bytes")))
                .collect(),
            // Same keys `ttg_transport::TransportMetrics::register` uses:
            // the registry dedups, so these handles share cells with the
            // transport's own counters.
            transport_tx_bytes: t("tx_bytes"),
            transport_rx_bytes: t("rx_bytes"),
            transport_connects: t("connects"),
            transport_reconnects: t("reconnects"),
            transport_handshake_failures: t("handshake_failures"),
            transport_tx_writes: t("tx_writes"),
            transport_tx_frames_coalesced: t("tx_frames_coalesced"),
            transport_tx_frames_abandoned: t("tx_frames_abandoned"),
            transport_tx_direct_frames: t("tx_direct_frames"),
            transport_rx_direct_frames: t("rx_direct_frames"),
            transport_queue_hwm: per_rank("transport", "send_queue_hwm_lifetime"),
            transport_queue_bytes_hwm: per_rank("transport", "send_queue_bytes_hwm_lifetime"),
            // Same keys the per-rank worker pools register under: the
            // registry dedups, so these handles share the pools' cells.
            sched_ready_hwm: per_rank("sched", "ready_hwm"),
            snapshots_taken: c("snapshots_taken"),
            snapshot_bytes: c("snapshot_bytes"),
            restores: c("restores"),
            recoveries: c("recoveries"),
            replayed_sends: c("replayed_sends"),
            replay_dedup_hits: c("replay_dedup_hits"),
        }
    }

    /// Capture the current counter values.
    pub fn snapshot(&self) -> StatsSnapshot {
        let am_deliver = self.am_deliver_ns.snapshot();
        StatsSnapshot {
            am_count: self.am_count.get(),
            am_bytes: self.am_bytes.get(),
            rma_gets: self.rma_gets.get(),
            rma_bytes: self.rma_bytes.get(),
            local_deliveries: self.local_deliveries.get(),
            serializations: self.serializations.get(),
            data_copies: self.data_copies.get(),
            bcast_sends_saved: self.bcast_sends_saved.get(),
            bcast_bytes_saved: self.bcast_bytes_saved.get(),
            am_retries: self.am_retries.get(),
            am_dropped_injected: self.am_dropped_injected.get(),
            am_dup_injected: self.am_dup_injected.get(),
            am_delayed_injected: self.am_delayed_injected.get(),
            am_dedup_hits: self.am_dedup_hits.get(),
            am_retry_exhausted: self.am_retry_exhausted.get(),
            ack_flushes: self.ack_flushes.get(),
            acks_batched: self.acks_batched.get(),
            acks_piggybacked: self.acks_piggybacked.get(),
            post_shutdown_sends: self.post_shutdown_sends.get(),
            rma_stale_gets: self.rma_stale_gets.get(),
            rma_released_evictions: self.rma_released_evictions.get(),
            am_deliver_p50_ns: am_deliver.quantile_upper_bound(0.5),
            am_deliver_p99_ns: am_deliver.quantile_upper_bound(0.99),
            delivery_deadline_misses: self.delivery_deadline_misses.get(),
            transport_tx_bytes: self.transport_tx_bytes.get(),
            transport_rx_bytes: self.transport_rx_bytes.get(),
            transport_connects: self.transport_connects.get(),
            transport_reconnects: self.transport_reconnects.get(),
            transport_handshake_failures: self.transport_handshake_failures.get(),
            transport_tx_writes: self.transport_tx_writes.get(),
            transport_tx_frames_coalesced: self.transport_tx_frames_coalesced.get(),
            transport_tx_frames_abandoned: self.transport_tx_frames_abandoned.get(),
            transport_tx_direct_frames: self.transport_tx_direct_frames.get(),
            transport_rx_direct_frames: self.transport_rx_direct_frames.get(),
            transport_queue_hwm: highest(&self.transport_queue_hwm),
            transport_queue_bytes_hwm: highest(&self.transport_queue_bytes_hwm),
            sched_ready_hwm: highest(&self.sched_ready_hwm),
            snapshots_taken: self.snapshots_taken.get(),
            snapshot_bytes: self.snapshot_bytes.get(),
            restores: self.restores.get(),
            recoveries: self.recoveries.get(),
            replayed_sends: self.replayed_sends.get(),
            replay_dedup_hits: self.replay_dedup_hits.get(),
        }
    }
}

/// The highest of a set of per-rank high-water gauges.
fn highest(marks: &[Gauge]) -> u64 {
    marks
        .iter()
        .map(|g| g.get().max(0) as u64)
        .max()
        .unwrap_or(0)
}

impl StatsSnapshot {
    /// Total bytes that crossed rank boundaries (eager + RMA).
    pub fn total_bytes(&self) -> u64 {
        self.am_bytes + self.rma_bytes
    }
}

/// A physical packet held back by delay/reorder injection.
struct Delayed {
    due: Instant,
    to: Rank,
    handler: u32,
    from: Rank,
    seq: u64,
    payload: Arc<Vec<u8>>,
}

/// State of the chaos + reliable-delivery layer (present only when a
/// [`FaultPlan`] is installed).
struct ChaosState {
    plan: FaultPlan,
    /// Sender-side link state, indexed `link_row(from) * n + to` where
    /// `link_row` maps out-of-fabric sentinel senders to row `n`.
    links: Vec<Mutex<LinkTx>>,
    /// Receive-side dedup windows: per destination rank, one window per
    /// incoming link row (`n + 1` rows).
    windows: Vec<Mutex<Vec<SeqWindow>>>,
    /// Receive-side batched-ack accumulators, indexed like `links` (entry
    /// `link_idx(from, to)` holds the acks rank `to` owes rank `from`).
    /// Unused (always empty) when `plan.immediate_acks` is set.
    pending_acks: Vec<Mutex<PendingAcks>>,
    /// Packets held by delay/reorder injection.
    delayq: Mutex<Vec<Delayed>>,
    /// Sequenced packets received per rank (drives kill scripts).
    rx_packets: Vec<AtomicU64>,
    /// Ranks killed by script: all their traffic is silently dropped.
    killed: Vec<AtomicBool>,
    /// Progress-thread stop flag (set on fabric shutdown).
    stop: AtomicBool,
    /// Recovery (`FaultPlan::recover`): snapshot interval in accepted
    /// packets, `None` = recovery off (the pre-PR-10 fail-and-report path).
    recover: Option<u64>,
    /// Per-kill-script "already fired" latches: a restored rank's replayed
    /// packet counter must not re-trigger the same scripted death.
    kill_fired: Vec<AtomicBool>,
    /// Per-sender-row incarnation, packed into the top bits of every wire
    /// seq. Bumped when the rank restores; the sentinel row `n` never
    /// restarts and stays at 0.
    incarnations: Vec<AtomicU64>,
    /// Per destination rank: last incarnation seen on each incoming link
    /// row. A higher incarnation resets that row's window and switches the
    /// row to content-log consultation.
    link_inc: Vec<Mutex<Vec<u64>>>,
    /// Per destination rank: content multiset of delivered messages, one
    /// log per incoming link row (consulted after a sender restart).
    content_logs: Vec<Mutex<Vec<ContentLog>>>,
    /// Per directed link (indexed like `links`): every logical message
    /// ever sent, parked for replay toward a restored receiver.
    replay_log: Vec<Mutex<Vec<ReplayEntry>>>,
    /// Per rank: fresh logical accepts since the rank's last snapshot
    /// (in-flight compensation at restore, see `restore_rank_comm`).
    accepted_since_snap: Vec<AtomicU64>,
    /// Per rank: logical sends originated since the rank's last snapshot.
    sent_since_snap: Vec<AtomicU64>,
    /// Per rank: received-packet count at the last snapshot (drives the
    /// `snapshot_due` interval check).
    last_snap: Vec<AtomicU64>,
}

/// One logical message parked in a link's replay log.
struct ReplayEntry {
    /// Raw (unpacked) link sequence number at send time.
    seq: u64,
    /// Sender-row incarnation the message was originally packed with.
    /// Replay re-packs with this value, not the current one: a restored
    /// sender's reset `LinkTx` reissues the same raw seqs under its new
    /// incarnation, so replaying old messages under the new incarnation
    /// would collide with re-executed sends in the receive window.
    inc: u64,
    handler: u32,
    payload: Arc<Vec<u8>>,
}

/// Which link layer carries inter-rank frames (DESIGN §9).
enum LinkLayer {
    /// In-process channels — the historical wire, zero behavior change.
    Channels,
    /// All ranks in this process, but inter-rank AMs cross real sockets
    /// (TCP loopback or UDS). Everything above the wire — chaos layer,
    /// acks, RMA, barrier, termination — stays shared-memory.
    Mesh {
        /// Element `r` is rank `r`'s endpoint.
        endpoints: Vec<Arc<dyn Endpoint>>,
        /// `links[from * n + to]`, `None` on the diagonal. Cached at
        /// construction: `Endpoint::link` builds a fresh `Arc` per call,
        /// which is an allocation the per-message send path can skip.
        links: Vec<Option<Arc<dyn Link>>>,
    },
    /// This process is **one rank** of a multi-process job. Barrier and
    /// termination detection become message protocols; no one-sided read
    /// reaches a peer, so values cross inside their AM.
    Remote(Box<RemoteState>),
}

/// One rank's (sent, received, quiescence) observation, exchanged by the
/// distributed termination protocol.
#[derive(Clone, PartialEq, Eq)]
struct TermObs {
    sent: u64,
    recvd: u64,
    epoch: u64,
    idle: bool,
}

/// Coordinator-side state of the counter-based termination detector:
/// rank 0 probes all ranks each round and declares termination after two
/// consecutive rounds with identical all-idle observations whose global
/// sent and received counts balance.
#[derive(Default)]
struct TermDriver {
    round: u64,
    probed: bool,
    replies: HashMap<Rank, TermObs>,
    prev: Option<Vec<TermObs>>,
}

/// Callback reporting whether this process is locally idle and its
/// activity epoch (installed by the executor; see
/// [`Fabric::install_idle_probe`]).
type IdleProbe = Box<dyn Fn() -> (bool, u64) + Send + Sync>;

/// State of a multi-process rank: its connected endpoint plus the
/// message-protocol replacements for the shared-memory barrier and
/// termination paths.
struct RemoteState {
    endpoint: Arc<dyn Endpoint>,
    /// This process's rank.
    me: Rank,
    /// One send link per peer (`None` at `me`), cached at construction:
    /// `Endpoint::link` builds a fresh `Arc` per call.
    links: Vec<Option<Arc<dyn Link>>>,
    /// Inter-process AMs sent / received by this rank (termination input).
    sent: AtomicU64,
    recvd: AtomicU64,
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
    term: Mutex<TermDriver>,
    /// Scripted self-abort: kill this process after receiving this many
    /// AM frames (remote `kill=r@n` fault plans; the launcher's watchdog
    /// recovers the job).
    kill_after: Option<u64>,
    /// AM frames received so far (drives `kill_after`).
    rx_frames: AtomicU64,
}

impl RemoteState {
    fn new(endpoint: Arc<dyn Endpoint>, kill_after: Option<u64>) -> RemoteState {
        let me = endpoint.rank();
        let links = (0..endpoint.n_ranks())
            .map(|peer| (peer != me).then(|| endpoint.link(peer)))
            .collect();
        RemoteState {
            endpoint,
            me,
            links,
            sent: AtomicU64::new(0),
            recvd: AtomicU64::new(0),
            done: AtomicBool::new(false),
            idle_probe: Mutex::new(None),
            barrier_seq: AtomicU64::new(0),
            barrier_released: Mutex::new(0),
            barrier_cv: Condvar::new(),
            barrier_entered: Mutex::new(HashMap::new()),
            term: Mutex::new(TermDriver::default()),
            kill_after,
            rx_frames: AtomicU64::new(0),
        }
    }

    /// The cached send link to `peer` (never `me`).
    fn link(&self, peer: Rank) -> &dyn Link {
        self.links[peer]
            .as_deref()
            .expect("a rank holds no link to itself")
    }
}

/// Default interval between recovery snapshots, accepted packets.
pub const DEFAULT_SNAPSHOT_INTERVAL: u64 = 128;

/// The fabric connecting `n` ranks — in one process over channels or a
/// socket mesh, or one rank per process over [`TransportSpec::Remote`].
pub struct Fabric {
    n: usize,
    senders: Vec<Sender<Packet>>,
    receivers: Mutex<Vec<Option<Receiver<Packet>>>>,
    regions: Vec<Mutex<HashMap<RegionId, Region>>>,
    /// Recently released regions, kept to answer duplicate/late gets.
    released: Vec<Mutex<Vec<(RegionId, Arc<Vec<u8>>)>>>,
    next_region: AtomicU64,
    barrier: Barrier,
    telemetry: Arc<Registry>,
    stats: FabricStats,
    in_flight: AtomicUsize,
    /// Structured comm failures (drained into execution reports).
    errors: Mutex<Vec<CommError>>,
    chaos: Option<ChaosState>,
    wire: LinkLayer,
    /// Set by `shutdown_all`: late transport errors are teardown noise.
    stopping: AtomicBool,
    /// Where recovery snapshots persist (installed by the executor when
    /// the fault plan enables recovery).
    snapshot_sink: Mutex<Option<Arc<dyn SnapshotSink>>>,
    /// Informational recovery events (TTG046), kept apart from the error
    /// sink so a fully recovered run still reports zero comm errors.
    recovery_log: Mutex<Vec<CommError>>,
}

impl Fabric {
    /// Create a fabric with `n` ranks and a perfect network.
    pub fn new(n: usize) -> Arc<Fabric> {
        Self::with_faults(n, None)
    }

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
    /// * [`TransportSpec::InProc`] — the historical channel wire.
    /// * [`TransportSpec::Tcp`] / [`TransportSpec::Uds`] — all ranks stay
    ///   in this process but inter-rank AMs cross real sockets. The chaos
    ///   and reliable-delivery layers sit unchanged above the sockets.
    /// * [`TransportSpec::Remote`] — this process is one rank of a
    ///   multi-process job; barrier and termination detection run as
    ///   message protocols over the endpoint. Fault plans are not
    ///   supported here (the ack/dedup state is shared-memory).
    pub fn with_transport(
        n: usize,
        plan: Option<FaultPlan>,
        spec: &TransportSpec,
    ) -> Result<Arc<Fabric>, CommError> {
        assert!(n > 0, "fabric needs at least one rank");
        let transport_err = |detail: String| CommError {
            kind: CommErrorKind::TransportFailure,
            from: None,
            to: None,
            handler: None,
            seq: None,
            detail,
        };
        let telemetry = match spec {
            // The fabric adopts the remote endpoint's registry so
            // `FabricStats` and the transport share counter cells.
            TransportSpec::Remote(h) => Arc::clone(&h.registry),
            _ => Arc::new(Registry::new()),
        };
        let wire = match spec {
            TransportSpec::InProc => LinkLayer::Channels,
            TransportSpec::Tcp | TransportSpec::Uds => {
                let kind = if matches!(spec, TransportSpec::Tcp) {
                    TransportKind::Tcp
                } else {
                    TransportKind::Uds
                };
                let endpoints: Vec<Arc<dyn Endpoint>> = local_mesh(kind, n, &telemetry)
                    .map_err(|e| transport_err(e.to_string()))?
                    .into_iter()
                    .map(|ep| ep as Arc<dyn Endpoint>)
                    .collect();
                let mut links = Vec::with_capacity(n * n);
                for f in 0..n {
                    for t in 0..n {
                        links.push((f != t).then(|| endpoints[f].link(t)));
                    }
                }
                LinkLayer::Mesh { endpoints, links }
            }
            TransportSpec::Remote(h) => {
                // Kill scripts are meaningful on real processes: the rank
                // whose threshold fires aborts itself and the launcher's
                // watchdog recovers the job. Probabilistic link faults
                // stay rejected — multi-process ranks share no ack/dedup
                // state, so per-packet dice have nothing to act on.
                let mut kill_after: Option<u64> = None;
                if let Some(plan) = &plan {
                    if !plan.is_kill_only() {
                        return Err(transport_err(
                            "probabilistic fault injection (drop/dup/reorder/delay) \
                             requires an in-process transport (inproc/tcp/uds); \
                             multi-process ranks share no ack/dedup state — \
                             remote mode accepts kill=r@n scripts only"
                                .into(),
                        ));
                    }
                    if plan.kills.iter().any(|k| k.rank == 0) {
                        return Err(transport_err(
                            "kill=0 is not recoverable in remote mode: rank 0 \
                             coordinates the barrier and termination protocols"
                                .into(),
                        ));
                    }
                    kill_after = plan
                        .kills
                        .iter()
                        .filter(|k| k.rank == h.endpoint.rank())
                        .map(|k| k.after_packets)
                        .min();
                }
                if h.endpoint.n_ranks() != n {
                    return Err(transport_err(format!(
                        "endpoint is rank {}/{} but the fabric wants {n} ranks",
                        h.endpoint.rank(),
                        h.endpoint.n_ranks()
                    )));
                }
                LinkLayer::Remote(Box::new(RemoteState::new(
                    Arc::clone(&h.endpoint),
                    kill_after,
                )))
            }
        };
        let mut senders = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(Some(rx));
        }
        let stats = FabricStats::new(&telemetry, n);
        let chaos = plan.map(|plan| ChaosState {
            recover: plan.recover,
            kill_fired: plan.kills.iter().map(|_| AtomicBool::new(false)).collect(),
            plan,
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
            rx_packets: (0..n).map(|_| AtomicU64::new(0)).collect(),
            killed: (0..n).map(|_| AtomicBool::new(false)).collect(),
            stop: AtomicBool::new(false),
            incarnations: (0..n + 1).map(|_| AtomicU64::new(0)).collect(),
            link_inc: (0..n).map(|_| Mutex::new(vec![0u64; n + 1])).collect(),
            content_logs: (0..n)
                .map(|_| Mutex::new((0..n + 1).map(|_| ContentLog::new()).collect()))
                .collect(),
            replay_log: (0..(n + 1) * n).map(|_| Mutex::new(Vec::new())).collect(),
            accepted_since_snap: (0..n).map(|_| AtomicU64::new(0)).collect(),
            sent_since_snap: (0..n).map(|_| AtomicU64::new(0)).collect(),
            last_snap: (0..n).map(|_| AtomicU64::new(0)).collect(),
        });
        let fabric = Arc::new(Fabric {
            n,
            senders,
            receivers: Mutex::new(receivers),
            regions: (0..n).map(|_| Mutex::new(HashMap::new())).collect(),
            released: (0..n).map(|_| Mutex::new(Vec::new())).collect(),
            next_region: AtomicU64::new(1),
            barrier: Barrier::new(n),
            telemetry,
            stats,
            in_flight: AtomicUsize::new(0),
            errors: Mutex::new(Vec::new()),
            chaos,
            wire,
            stopping: AtomicBool::new(false),
            snapshot_sink: Mutex::new(None),
            recovery_log: Mutex::new(Vec::new()),
        });
        // Install receive sinks now that the fabric exists. Sinks hold only
        // a weak reference: endpoint reader threads never keep the fabric
        // alive past its last strong handle.
        match &fabric.wire {
            LinkLayer::Channels => {}
            LinkLayer::Mesh { endpoints, .. } => {
                for (r, ep) in endpoints.iter().enumerate() {
                    let weak = Arc::downgrade(&fabric);
                    ep.start(Arc::new(move |src, res| {
                        if let Some(f) = weak.upgrade() {
                            f.mesh_rx(r, src, res);
                        }
                    }));
                }
            }
            LinkLayer::Remote(rs) => {
                let weak = Arc::downgrade(&fabric);
                rs.endpoint.start(Arc::new(move |src, res| {
                    if let Some(f) = weak.upgrade() {
                        f.remote_rx(src, res);
                    }
                }));
            }
        }
        if fabric.chaos.is_some() {
            let weak = Arc::downgrade(&fabric);
            std::thread::Builder::new()
                .name("fabric-reliable".into())
                .spawn(move || progress_loop(weak))
                .expect("failed to spawn fabric progress thread");
        }
        Ok(fabric)
    }

    /// Number of ranks.
    pub fn num_ranks(&self) -> usize {
        self.n
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.chaos.as_ref().map(|c| &c.plan)
    }

    /// Fabric-wide communication counters.
    pub fn stats(&self) -> &FabricStats {
        &self.stats
    }

    /// The metrics registry this fabric's counters live in. Snapshots taken
    /// here include everything [`FabricStats`] reports plus the per-rank
    /// `tx_bytes`/`rx_bytes` breakdown, keyed under subsystem `"comm"`.
    pub fn telemetry(&self) -> &Arc<Registry> {
        &self.telemetry
    }

    /// Record a structured communication failure.
    pub fn record_error(&self, e: CommError) {
        self.errors.lock().push(e);
    }

    /// Drain the accumulated communication failures.
    pub fn take_errors(&self) -> Vec<CommError> {
        std::mem::take(&mut *self.errors.lock())
    }

    /// Record a delivery-deadline miss (called by executors when a
    /// bounded wait gives up).
    pub fn count_deadline_miss(&self) {
        self.stats.delivery_deadline_misses.inc();
    }

    /// Take ownership of rank `rank`'s packet receiver. Panics if taken twice.
    pub fn take_receiver(&self, rank: Rank) -> Receiver<Packet> {
        self.receivers.lock()[rank]
            .take()
            .expect("receiver already taken for this rank")
    }

    /// Map a sending rank to its link-table row; out-of-fabric sentinel
    /// senders (external seeding uses `usize::MAX`) share row `n`.
    #[inline]
    fn link_row(&self, from: Rank) -> usize {
        if from < self.n {
            from
        } else {
            self.n
        }
    }

    #[inline]
    fn link_idx(&self, from: Rank, to: Rank) -> usize {
        self.link_row(from) * self.n + to
    }

    fn count_wire_am(&self, from: Rank, to: Rank, bytes: u64) {
        self.stats.am_count.inc();
        self.stats.am_bytes.add(bytes);
        // `from` may be an out-of-fabric sentinel (external seeding
        // uses usize::MAX); only real ranks have a tx counter.
        if let Some(tx) = self.stats.tx_bytes.get(from) {
            tx.add(bytes);
        }
        self.stats.rx_bytes[to].add(bytes);
        #[cfg(feature = "telemetry")]
        ttg_telemetry::instant(
            Some(to as u32),
            "comm",
            "am",
            &[("from", from as u64), ("bytes", bytes)],
        );
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
    /// is a counted no-op reported as [`SendError`] — never a panic.
    pub fn send_am(
        &self,
        from: Rank,
        to: Rank,
        handler: u32,
        payload: Vec<u8>,
    ) -> Result<(), SendError> {
        let bytes = payload.len() as u64;
        if let LinkLayer::Remote(rs) = &self.wire {
            if to != rs.me {
                // SPMD gating: in a multi-process job every process runs
                // the same graph code, so a send whose destination lives in
                // another process is either (a) ours to put on the wire
                // (`from == me`), or (b) another process's responsibility
                // — including external seeds (sentinel `from >= n`), which
                // each process delivers for its own rank only.
                if from != rs.me {
                    return Ok(());
                }
                self.stats.am_count.inc();
                self.stats.am_bytes.add(bytes);
                self.stats.tx_bytes[from].add(bytes);
                rs.sent.fetch_add(1, Ordering::SeqCst);
                // No local in-flight bump: the receiving process accounts
                // for the packet when its sink enqueues it.
                return match rs.link(to).send(Frame::Am {
                    from: from as u32,
                    handler,
                    seq: 0,
                    payload,
                }) {
                    Ok(()) => Ok(()),
                    Err(e) => {
                        rs.sent.fetch_sub(1, Ordering::SeqCst);
                        self.transport_send_failed(from, to, Some(handler), e);
                        Err(SendError { from, to })
                    }
                };
            }
            // Destination is this process: fall through to the local
            // channel (loopback and external-seed deliveries).
        }
        let chaos_carries = match &self.chaos {
            // Under recovery even rank-local sends are sequenced and
            // logged: a restored rank's re-executed tasks re-send their
            // loopback outputs, and only the seq/content machinery can
            // dedup those against the copies delivered before the crash.
            // Remote mode never engages this layer: its fault plans are
            // kill scripts acting on the process itself.
            Some(cs) => {
                !matches!(self.wire, LinkLayer::Remote(_)) && (from != to || cs.recover.is_some())
            }
            None => false,
        };
        if chaos_carries {
            if let Some(cs) = &self.chaos {
                if from != to {
                    self.count_wire_am(from, to, bytes);
                } else {
                    self.stats.local_deliveries.inc();
                }
                self.in_flight.fetch_add(1, Ordering::SeqCst);
                if cs.recover.is_some() {
                    if let Some(c) = cs.sent_since_snap.get(from) {
                        c.fetch_add(1, Ordering::SeqCst);
                    }
                }
                let payload = Arc::new(payload);
                let seq = {
                    let mut link = cs.links[self.link_idx(from, to)].lock();
                    let seq = link.assign_seq();
                    link.unacked.insert(
                        seq,
                        Unacked {
                            handler,
                            payload: Arc::clone(&payload),
                            attempts: 0,
                            next_retry: Instant::now() + cs.plan.retry.backoff(1),
                            delivered: false,
                            replayed: false,
                        },
                    );
                    seq
                };
                if cs.recover.is_some() {
                    cs.replay_log[self.link_idx(from, to)].lock().push(ReplayEntry {
                        seq,
                        inc: cs.incarnations[self.link_row(from)].load(Ordering::SeqCst),
                        handler,
                        payload: Arc::clone(&payload),
                    });
                }
                // Piggyback: flush any acks `from` owes `to` first, so on
                // a socket mesh the AckRange frame lands in the same
                // coalesced write as this data frame. Sentinel senders
                // (`from >= n`) receive nothing and never owe acks.
                if from < self.n && from != to {
                    self.flush_acks(cs, self.link_idx(to, from), true);
                }
                self.transmit(cs, from, to, handler, seq, &payload, 0, false);
                return Ok(());
            }
        }
        // Count the packet in flight *before* it is enqueued: once the
        // channel has it, the receiver may process and retire it at any
        // moment, and a late increment would let the in-flight gauge dip
        // through zero — briefly convincing the termination detector the
        // fabric is drained while a delivery is still being handled.
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        match self.phys_deliver(from, to, handler, 0, payload) {
            Ok(()) => {
                if from != to {
                    self.count_wire_am(from, to, bytes);
                } else {
                    self.stats.local_deliveries.inc();
                }
                Ok(())
            }
            Err(e) => {
                self.in_flight.fetch_sub(1, Ordering::SeqCst);
                Err(e)
            }
        }
    }

    /// Record a TTG045 for a failed outbound transport send. `Closed`
    /// during teardown is expected traffic loss, counted like a channel
    /// closed post-shutdown instead.
    fn transport_send_failed(&self, from: Rank, to: Rank, handler: Option<u32>, e: TransportError) {
        if matches!(e, TransportError::Closed { .. }) || self.stopping.load(Ordering::SeqCst) {
            self.stats.post_shutdown_sends.inc();
            return;
        }
        self.record_error(CommError {
            kind: CommErrorKind::TransportFailure,
            from: Some(from),
            to: Some(to),
            handler,
            seq: None,
            detail: e.to_string(),
        });
    }

    /// Hand one physical packet to the wire. Loopback (`from == to`),
    /// external-seed sentinels (`from >= n`), and everything on the
    /// channel link layer go through the per-rank channel; real inter-rank
    /// packets on a socket mesh cross the endpoint link instead and
    /// re-enter through `mesh_rx` on the destination side.
    fn phys_deliver(
        &self,
        from: Rank,
        to: Rank,
        handler: u32,
        seq: u64,
        payload: Vec<u8>,
    ) -> Result<(), SendError> {
        if let Some(link) = self.mesh_link(from, to) {
            let sent = link.send(Frame::Am {
                from: from as u32,
                handler,
                seq,
                payload,
            });
            return self.mesh_sent(from, to, handler, sent);
        }
        match self.senders[to].send(Packet::Am {
            handler,
            from,
            seq,
            payload,
        }) {
            Ok(()) => Ok(()),
            Err(_) => {
                self.stats.post_shutdown_sends.inc();
                Err(SendError { from, to })
            }
        }
    }

    /// [`Fabric::phys_deliver`] for a payload the reliable layer keeps in
    /// its retransmit map: a mesh link encodes from the shared buffer (or
    /// queues another handle on it); only the channel path, which hands an
    /// owned `Vec` to the receiver, copies it.
    fn phys_deliver_shared(
        &self,
        from: Rank,
        to: Rank,
        handler: u32,
        seq: u64,
        payload: &Arc<Vec<u8>>,
    ) -> Result<(), SendError> {
        match self.mesh_link(from, to) {
            Some(link) => {
                let sent = link.send_am_shared(from as u32, handler, seq, payload);
                self.mesh_sent(from, to, handler, sent)
            }
            None => self.phys_deliver(from, to, handler, seq, (**payload).clone()),
        }
    }

    /// The socket link carrying `from → to`, if that pair crosses one:
    /// loopback and external-seed sentinels (`from >= n`) never do.
    fn mesh_link(&self, from: Rank, to: Rank) -> Option<&Arc<dyn Link>> {
        match &self.wire {
            LinkLayer::Mesh { links, .. } if from != to && from < self.n => {
                links[from * self.n + to].as_ref()
            }
            _ => None,
        }
    }

    fn mesh_sent(
        &self,
        from: Rank,
        to: Rank,
        handler: u32,
        sent: Result<(), TransportError>,
    ) -> Result<(), SendError> {
        sent.map_err(|e| {
            self.transport_send_failed(from, to, Some(handler), e);
            SendError { from, to }
        })
    }

    /// Socket-mesh receive sink for rank `to`: re-enter arriving AM frames
    /// into the rank's packet channel; surface connection-level errors as
    /// structured TTG045s (unless the fabric is tearing down).
    ///
    /// The full set of frame kinds the stack consumes somewhere is recorded
    /// in [`CONSUMED_FRAME_KINDS`]; keep it in sync with this dispatch.
    fn mesh_rx(&self, to: Rank, src: Rank, res: Result<Frame, TransportError>) {
        match res {
            Ok(Frame::Am {
                from,
                handler,
                seq,
                payload,
            }) => {
                if self.senders[to]
                    .send(Packet::Am {
                        handler,
                        from: from as usize,
                        seq,
                        payload,
                    })
                    .is_err()
                {
                    self.stats.post_shutdown_sends.inc();
                }
            }
            Ok(Frame::AckRange { ranges, .. }) => {
                // A peer's batched acknowledgement: `to` is the original
                // data sender, `src` the acker. Retire the covered
                // sequences from the sender-side retransmit map.
                if let Some(cs) = &self.chaos {
                    self.apply_ack_ranges(cs, self.link_idx(to, src), &ranges);
                }
            }
            Ok(_) => {} // control frames are transport-internal
            Err(e) => {
                if !self.stopping.load(Ordering::SeqCst) {
                    self.record_error(CommError {
                        kind: CommErrorKind::TransportFailure,
                        from: Some(src),
                        to: Some(to),
                        handler: None,
                        seq: None,
                        detail: e.to_string(),
                    });
                }
            }
        }
    }

    /// Multi-process receive sink: dispatch frames from peer processes.
    /// Runs on the endpoint's reader threads.
    fn remote_rx(&self, src: Rank, res: Result<Frame, TransportError>) {
        let LinkLayer::Remote(rs) = &self.wire else {
            return;
        };
        let frame = match res {
            Ok(frame) => frame,
            Err(e) => {
                if !self.stopping.load(Ordering::SeqCst) && !rs.done.load(Ordering::SeqCst) {
                    self.record_error(CommError {
                        kind: CommErrorKind::TransportFailure,
                        from: Some(src),
                        to: Some(rs.me),
                        handler: None,
                        seq: None,
                        detail: e.to_string(),
                    });
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
                let got = rs.rx_frames.fetch_add(1, Ordering::SeqCst) + 1;
                if let Some(after) = rs.kill_after {
                    if got >= after {
                        // Scripted death of a real OS process: the
                        // launcher's watchdog reaps this child and
                        // recovers the job (DESIGN §13).
                        eprintln!(
                            "rank {}: scripted kill after {got} received frames",
                            rs.me
                        );
                        std::process::abort();
                    }
                }
                self.stats.rx_bytes[rs.me].add(payload.len() as u64);
                rs.recvd.fetch_add(1, Ordering::SeqCst);
                self.in_flight.fetch_add(1, Ordering::SeqCst);
                if self.senders[rs.me]
                    .send(Packet::Am {
                        handler,
                        from: from as usize,
                        seq,
                        payload,
                    })
                    .is_err()
                {
                    self.in_flight.fetch_sub(1, Ordering::SeqCst);
                    self.stats.post_shutdown_sends.inc();
                }
            }
            Frame::BarrierEnter { epoch, .. } => {
                if rs.me == 0 {
                    self.barrier_arrive(rs, epoch);
                }
            }
            Frame::BarrierRelease { epoch } => {
                let mut released = rs.barrier_released.lock();
                if epoch > *released {
                    *released = epoch;
                }
                rs.barrier_cv.notify_all();
            }
            Frame::TermProbe { round } => {
                let o = self.observe_local(rs);
                let reply = Frame::TermReply {
                    from: rs.me as u32,
                    round,
                    sent: o.sent,
                    recvd: o.recvd,
                    epoch: o.epoch,
                    idle: o.idle,
                };
                if let Err(e) = rs.link(0).send(reply) {
                    self.transport_send_failed(rs.me, 0, None, e);
                }
            }
            Frame::TermReply {
                from,
                round,
                sent,
                recvd,
                epoch,
                idle,
            } => {
                let mut term = rs.term.lock();
                if round == term.round {
                    term.replies.insert(
                        from as usize,
                        TermObs {
                            sent,
                            recvd,
                            epoch,
                            idle,
                        },
                    );
                }
            }
            Frame::TermDone => {
                rs.done.store(true, Ordering::SeqCst);
            }
            // Handshake and teardown frames are transport-internal; ack
            // frames (single and ranged) only exist under the
            // (in-process) reliable layer.
            Frame::Hello { .. }
            | Frame::Ack { .. }
            | Frame::AckRange { .. }
            | Frame::Bye { .. } => {}
        }
    }

    /// This rank's termination observation: locally idle (executor probe
    /// AND no packets in flight) plus the send/receive totals.
    fn observe_local(&self, rs: &RemoteState) -> TermObs {
        let (idle, epoch) = match &*rs.idle_probe.lock() {
            Some(p) => p(),
            None => (false, 0),
        };
        TermObs {
            sent: rs.sent.load(Ordering::SeqCst),
            recvd: rs.recvd.load(Ordering::SeqCst),
            epoch,
            idle: idle && self.in_flight.load(Ordering::SeqCst) == 0,
        }
    }

    /// Multi-process only: install the executor's idleness probe, input to
    /// the distributed termination detector. The probe must not capture
    /// the fabric (it would leak the reference cycle); capturing the
    /// quiescence tracker is enough.
    pub fn install_idle_probe(&self, probe: Box<dyn Fn() -> (bool, u64) + Send + Sync>) {
        if let LinkLayer::Remote(rs) = &self.wire {
            *rs.idle_probe.lock() = Some(probe);
        }
    }

    /// Multi-process only: has the coordinator declared global
    /// termination? Always `true` on in-process fabrics, where local
    /// quiescence is global quiescence.
    pub fn remote_done(&self) -> bool {
        match &self.wire {
            LinkLayer::Remote(rs) => rs.done.load(Ordering::SeqCst),
            _ => true,
        }
    }

    /// `Some(rank)` when this fabric is one rank of a multi-process job;
    /// `None` when all ranks live in this process.
    pub fn local_rank(&self) -> Option<Rank> {
        match &self.wire {
            LinkLayer::Remote(rs) => Some(rs.me),
            _ => None,
        }
    }

    /// Short name of the link layer this fabric runs on.
    pub fn transport_name(&self) -> &'static str {
        match &self.wire {
            LinkLayer::Channels => "inproc",
            LinkLayer::Mesh { endpoints, .. } => endpoints[0].kind().name(),
            LinkLayer::Remote(rs) => match rs.endpoint.kind() {
                TransportKind::Tcp => "remote-tcp",
                TransportKind::Uds => "remote-uds",
                TransportKind::InProc => "remote-inproc",
            },
        }
    }

    /// One step of the distributed termination detector, driven by rank
    /// 0's wait loop (no-op elsewhere). Each round probes every rank for
    /// `(sent, recvd, epoch, idle)`; two consecutive rounds of identical
    /// all-idle observations with globally balanced send/receive counts
    /// prove no message is in flight anywhere, and `TermDone` is
    /// broadcast.
    pub fn drive_termination(&self) {
        let LinkLayer::Remote(rs) = &self.wire else {
            return;
        };
        if rs.me != 0 || rs.done.load(Ordering::SeqCst) {
            return;
        }
        let mut term = rs.term.lock();
        if !term.probed {
            term.probed = true;
            let round = term.round;
            drop(term);
            for r in 1..self.n {
                if let Err(e) = rs.link(r).send(Frame::TermProbe { round }) {
                    self.transport_send_failed(0, r, None, e);
                }
            }
            return;
        }
        // Refresh our own observation every poll so the coordinator's
        // idleness is current when the last remote reply lands.
        let own = self.observe_local(rs);
        term.replies.insert(0, own);
        if term.replies.len() < self.n {
            return;
        }
        let cur: Vec<TermObs> = (0..self.n).map(|r| term.replies[&r].clone()).collect();
        let all_idle = cur.iter().all(|o| o.idle);
        let sent: u64 = cur.iter().map(|o| o.sent).sum();
        let recvd: u64 = cur.iter().map(|o| o.recvd).sum();
        let stable = term.prev.as_deref() == Some(&cur[..]);
        if all_idle && sent == recvd && stable {
            drop(term);
            rs.done.store(true, Ordering::SeqCst);
            for r in 1..self.n {
                if let Err(e) = rs.link(r).send(Frame::TermDone) {
                    self.transport_send_failed(0, r, None, e);
                }
            }
        } else {
            term.prev = Some(cur);
            term.replies.clear();
            term.round += 1;
            term.probed = false;
        }
    }

    /// Coordinator-side barrier entry for `epoch`; releases everyone once
    /// all `n` ranks have entered.
    fn barrier_arrive(&self, rs: &RemoteState, epoch: u64) {
        let complete = {
            let mut entered = rs.barrier_entered.lock();
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
                if let Err(e) = rs.link(r).send(Frame::BarrierRelease { epoch }) {
                    self.transport_send_failed(0, r, None, e);
                }
            }
            let mut released = rs.barrier_released.lock();
            if epoch > *released {
                *released = epoch;
            }
            rs.barrier_cv.notify_all();
        }
    }

    /// One physical transmission attempt of a sequenced packet, subject to
    /// the fault plan. `attempt` is 0 for the original send and the retry
    /// ordinal for retransmissions (distinct fault rolls per attempt).
    fn transmit(
        &self,
        cs: &ChaosState,
        from: Rank,
        to: Rank,
        handler: u32,
        seq: u64,
        payload: &Arc<Vec<u8>>,
        attempt: u32,
        replay: bool,
    ) {
        // Wire seq carries the sender row's incarnation in its top bits so
        // receivers can tell a restarted sender's fresh seq space from
        // stale pre-crash traffic. Incarnation 0 (no restarts) packs to
        // the raw seq itself: recovery-off wires are bit-identical.
        // Entries that came back with a restored `LinkTx` transmit under
        // the *new* incarnation (the receiver's row was reset by the
        // restore surgery) with the replay marker set.
        let mut seq = pack_seq(
            cs.incarnations[self.link_row(from)].load(Ordering::SeqCst),
            seq,
        );
        if replay {
            seq |= REPLAY_BIT;
        }
        self.transmit_packed(cs, from, to, handler, seq, payload, attempt);
    }

    /// [`Fabric::transmit`] with an already-packed wire seq. Replay uses
    /// this directly: a replayed message must carry the incarnation its
    /// original transmission carried, not the sender row's current one —
    /// otherwise replayed old raw seqs collide with the restored rank's
    /// re-executed sends (whose reset `LinkTx` reissues the same raw seqs
    /// under the new incarnation) and the receive window drops whichever
    /// arrives second even when task scheduling reordered the content.
    fn transmit_packed(
        &self,
        cs: &ChaosState,
        from: Rank,
        to: Rank,
        handler: u32,
        seq: u64,
        payload: &Arc<Vec<u8>>,
        attempt: u32,
    ) {
        let link = self.link_idx(from, to) as u64;
        if is_replay(seq) {
            // Replayed copies are a recovery re-drive, not wire traffic:
            // they bypass the killed gate (restore re-drives the rank
            // while it is still latched dead) and fault injection (a
            // replayed loopback copy has no backing retransmit entry — an
            // injected drop would lose it forever). Each copy carries its
            // own in-flight slot from enqueue to classification —
            // otherwise the termination detector could see a drained
            // fabric while replays still sit unclassified in a channel.
            self.in_flight.fetch_add(1, Ordering::SeqCst);
            if self
                .phys_deliver_shared(from, to, handler, seq, payload)
                .is_err()
            {
                self.in_flight.fetch_sub(1, Ordering::SeqCst);
            }
            return;
        }
        // A killed rank neither sends nor receives.
        if cs.killed[to].load(Ordering::SeqCst)
            || (from < self.n && cs.killed[from].load(Ordering::SeqCst))
        {
            self.stats.am_dropped_injected.inc();
            return;
        }
        let plan = &cs.plan;
        if plan.drop > 0.0 && plan.roll(salt::DROP, link, seq, attempt) < plan.drop {
            self.stats.am_dropped_injected.inc();
            return;
        }
        let copies = if plan.dup > 0.0 && plan.roll(salt::DUP, link, seq, attempt) < plan.dup {
            self.stats.am_dup_injected.inc();
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
                    self.stats.am_delayed_injected.inc();
                    cs.delayq.lock().push(Delayed {
                        due: Instant::now() + d,
                        to,
                        handler,
                        from,
                        seq,
                        payload: Arc::clone(payload),
                    });
                }
                None => {
                    // Channel/link closure is already counted and recorded
                    // inside `phys_deliver`; the reliable layer will
                    // retransmit or abandon with its own reporting.
                    let _ = self.phys_deliver_shared(from, to, handler, seq, payload);
                }
            }
        }
    }

    /// Receive-side classification of a sequenced packet: `true` means the
    /// packet is a fresh logical delivery and must be processed; `false`
    /// means it is a duplicate (or addressed to a dead rank) and must be
    /// discarded without counting as a logical receive.
    ///
    /// Fresh deliveries acknowledge the sender (subject to simulated ack
    /// loss, which only causes spurious retransmits — never double
    /// delivery).
    pub fn rx_accept(&self, to: Rank, from: Rank, seq: u64) -> bool {
        self.rx_accept_am(to, from, seq, 0, &[])
    }

    /// Like [`Fabric::rx_accept`], but with the packet's handler and
    /// payload so recovery-enabled fabrics can log delivered content and
    /// consult the log after a sender restart. Call sites that never run
    /// under recovery may keep using the payload-less wrapper.
    pub fn rx_accept_am(
        &self,
        to: Rank,
        from: Rank,
        seq: u64,
        handler: u32,
        payload: &[u8],
    ) -> bool {
        let Some(cs) = &self.chaos else { return true };
        if seq == 0 || (from == to && cs.recover.is_none()) {
            return true;
        }
        let replay = is_replay(seq);
        let (inc, raw) = unpack_seq(seq);
        let received = cs.rx_packets[to].fetch_add(1, Ordering::SeqCst) + 1;
        for (ki, k) in cs.plan.kills.iter().enumerate() {
            if k.rank == to && received >= k.after_packets && !cs.kill_fired[ki].load(Ordering::SeqCst)
            {
                // Latch: a restored rank's replayed packet counter must
                // not re-trigger the same scripted death.
                cs.kill_fired[ki].store(true, Ordering::SeqCst);
                cs.killed[to].store(true, Ordering::SeqCst);
            }
        }
        if cs.killed[to].load(Ordering::SeqCst) && !replay {
            // A killed rank receives nothing — except replayed copies,
            // which the restore sweep drives while the rank is still
            // latched dead. That ordering (replay enqueued before the
            // latch clears) plus channel FIFO guarantees every replayed
            // loopback copy is classified before any re-executed send's
            // fresh incarnation can retire the old seq space.
            return false;
        }
        let row = self.link_row(from);
        let mut consult = false;
        // Under recovery, the incarnation guard is held across the whole
        // classification — window, content log, and the delivered mark on
        // the sender entry. The restore's per-receiver surgery takes the
        // same lock, so each in-flight copy is classified either entirely
        // before the surgery (its delivered flag is visible to the retire
        // scan) or entirely after (the incarnation bump stale-drops it);
        // no copy can be half-classified across the cut and double-retire
        // an in-flight slot.
        let _inc_guard = if cs.recover.is_some() {
            let mut incs = cs.link_inc[to].lock();
            match inc.cmp(&incs[row]) {
                std::cmp::Ordering::Greater => {
                    // The sender restarted: its new seq space starts over,
                    // so the old window is meaningless. Reset it and rely
                    // on the content log to drop replayed duplicates.
                    incs[row] = inc;
                    cs.windows[to].lock()[row] = SeqWindow::new();
                }
                std::cmp::Ordering::Less => {
                    // Stale copy from a previous incarnation of the
                    // sender: its seq space is retired, drop unacked.
                    self.stats.am_dedup_hits.inc();
                    if replay {
                        // A replayed copy settles its own channel slot on
                        // every terminal outcome.
                        self.in_flight.fetch_sub(1, Ordering::SeqCst);
                    }
                    return false;
                }
                std::cmp::Ordering::Equal => {}
            }
            consult = incs[row] > 0;
            Some(incs)
        } else {
            None
        };
        let fresh = cs.windows[to].lock()[row].accept(raw);
        if !fresh {
            self.stats.am_dedup_hits.inc();
            if replay {
                // Duplicate replayed copy (e.g. a marked entry's
                // retransmit racing the sweep's logged copy): settle the
                // channel slot this transmission carried.
                self.in_flight.fetch_sub(1, Ordering::SeqCst);
            }
        }
        let mut deliver = fresh;
        if fresh && cs.recover.is_some() && !payload.is_empty() {
            let key = Self::am_content_key(handler, payload);
            let mut logs = cs.content_logs[to].lock();
            if consult && logs[row].consume(key) {
                self.stats.replay_dedup_hits.inc();
                // Retire one slot either way: a live re-execution
                // duplicate holds its logical send's slot (it will never
                // reach `packet_processed`); a replayed copy holds the
                // per-transmission channel slot it was enqueued with.
                self.in_flight.fetch_sub(1, Ordering::SeqCst);
                deliver = false;
            } else {
                logs[row].record(key);
            }
        }
        if deliver && cs.recover.is_some() {
            cs.accepted_since_snap[to].fetch_add(1, Ordering::SeqCst);
            // A delivered replayed copy keeps its per-transmission slot:
            // the executor's `packet_processed` retires it — the original
            // logical send is no longer on the ledger (retired when first
            // processed, or by a restore scan).
        }
        let seq = raw;
        // Acknowledge on every receipt (duplicates re-ack, covering a
        // previously lost ack). The receiver's acceptance itself is always
        // recorded on the sender entry via `delivered`; only the ack
        // traffic is lossy.
        let link = self.link_idx(from, to);
        if cs.plan.immediate_acks {
            // Legacy one-ack-per-message mode: the ack "packet" is rolled
            // and applied right here. Each receipt is one flush event so
            // acks-per-message reads ~1.0 on this path.
            let mut tx = cs.links[link].lock();
            if let Some(e) = tx.unacked.get_mut(&seq) {
                if deliver && !replay && e.replayed {
                    // The entry's slot was retired by a restore scan, but
                    // this copy is the original transmit landing after the
                    // latch cleared — pre-pay its `packet_processed` like
                    // a replay-marked delivery. (The `delivered` mark and
                    // the scan share this lock, so exactly one of them
                    // settles the slot.)
                    self.in_flight.fetch_add(1, Ordering::SeqCst);
                }
                e.delivered = true;
                let ack_lost = cs.plan.drop > 0.0
                    && cs.plan.roll(salt::ACK, link as u64, seq, e.attempts) < cs.plan.drop;
                if !ack_lost {
                    tx.unacked.remove(&seq);
                }
            }
            self.stats.ack_flushes.inc();
        } else {
            // Batched mode: record acceptance on the sender entry, then
            // park the sequence in the per-link range accumulator. The
            // actual ack travels later — piggybacked on the next data
            // frame to the sender or pushed out by the flush timer.
            {
                let mut tx = cs.links[link].lock();
                if let Some(e) = tx.unacked.get_mut(&seq) {
                    if deliver && !replay && e.replayed {
                        // See the immediate-acks branch: original transmit
                        // of a scan-retired entry — pre-pay its slot.
                        self.in_flight.fetch_add(1, Ordering::SeqCst);
                    }
                    e.delivered = true;
                }
            }
            cs.pending_acks[link].lock().note(seq, Instant::now());
        }
        deliver
    }

    /// Content identity of a node active message (layout: `ttg_core::am`).
    /// The node-AM header is `[from_task u64][msg_type u8][terminal u16]`,
    /// followed in a data message by `[src_rank u64]`. Two fields are
    /// transient provenance, not logical content, and must be masked out
    /// of the identity: `from_task` (bytes 0..8 — a re-executed producer is
    /// allocated a fresh task id, but its message is the same message), and
    /// for split-metadata messages the `[region u64][owner u64]` pair at
    /// bytes 19..35 (RMA ids change when a restarted task re-registers its
    /// output). What follows — consumer groups and value — is content.
    fn am_content_key(handler: u32, payload: &[u8]) -> u128 {
        if payload.len() >= 35 && payload[8] == 1 {
            content_key(handler, &[&payload[8..19], &payload[35..]])
        } else if payload.len() >= 8 {
            content_key(handler, &[&payload[8..]])
        } else {
            content_key(handler, &[payload])
        }
    }

    /// Flush one link's accumulated acknowledgements: drain the range
    /// accumulator and retire the covered sequences from the sender's
    /// retransmit map — via an [`Frame::AckRange`] control frame on socket
    /// meshes (so the ack shares the coalesced wire write with data), or
    /// by direct shared-memory removal on the channel layer and for
    /// out-of-fabric sentinel senders, which have no inbound link.
    ///
    /// Under injected loss a whole flush can be dropped (one ack roll per
    /// flush, not per message). Recovery needs no extra machinery: the
    /// sender retransmits, the receiver's dedup hit re-notes the
    /// sequences, and a later flush covers them.
    fn flush_acks(&self, cs: &ChaosState, li: usize, piggyback: bool) {
        let (ranges, ordinal) = {
            let mut pa = cs.pending_acks[li].lock();
            if pa.is_empty() {
                return;
            }
            pa.take()
        };
        self.stats.ack_flushes.inc();
        if piggyback {
            self.stats.acks_piggybacked.inc();
        }
        let plan = &cs.plan;
        if plan.drop > 0.0
            && plan.roll(salt::ACK, li as u64, ranges[0].0, ordinal as u32) < plan.drop
        {
            return; // whole flush lost; retransmits re-note the seqs
        }
        self.stats
            .acks_batched
            .add(ranges.iter().map(|&(a, b)| b - a + 1).sum());
        let sender_row = li / self.n;
        let acker = li % self.n;
        if sender_row < self.n {
            if let Some(link) = self.mesh_link(acker, sender_row) {
                let frame = Frame::AckRange {
                    from: acker as u32,
                    ranges: ranges.clone(),
                };
                if link.send(frame).is_ok() {
                    return; // applied on arrival in `mesh_rx`
                }
                // Wire teardown must not strand retransmit state: fall
                // through to direct removal.
            }
        }
        self.apply_ack_ranges(cs, li, &ranges);
    }

    /// Retire every sequence covered by `ranges` from link `li`'s
    /// retransmit map (shared-memory ack application).
    fn apply_ack_ranges(&self, cs: &ChaosState, li: usize, ranges: &[(u64, u64)]) {
        let mut tx = cs.links[li].lock();
        for &(first, last) in ranges {
            for seq in first..=last {
                tx.unacked.remove(&seq);
            }
        }
    }

    /// One pass of the reliability progress engine: release due delayed
    /// packets, retransmit overdue unacked packets, abandon packets whose
    /// retry budget is spent. Called periodically by the progress thread;
    /// exposed for deterministic single-threaded tests.
    pub fn progress(&self) {
        let Some(cs) = &self.chaos else { return };
        let now = Instant::now();
        // Release held packets whose due time has passed.
        let due: Vec<Delayed> = {
            let mut q = cs.delayq.lock();
            let mut due = Vec::new();
            let mut i = 0;
            while i < q.len() {
                if q[i].due <= now {
                    due.push(q.swap_remove(i));
                } else {
                    i += 1;
                }
            }
            due
        };
        for d in due {
            if cs.killed[d.to].load(Ordering::SeqCst) {
                self.stats.am_dropped_injected.inc();
                continue;
            }
            let _ = self.phys_deliver_shared(d.from, d.to, d.handler, d.seq, &d.payload);
        }
        // Flush ack accumulators whose oldest entry has aged past the
        // flush deadline — before the retransmit scan, so a due ack beats
        // a spurious retransmission of the packets it covers.
        if !cs.plan.immediate_acks {
            for li in 0..cs.pending_acks.len() {
                if cs.pending_acks[li].lock().due(now, cs.plan.ack_flush) {
                    self.flush_acks(cs, li, false);
                }
            }
        }
        // Retransmit / abandon overdue unacked packets.
        for (li, l) in cs.links.iter().enumerate() {
            let from_row = li / self.n;
            let from: Rank = if from_row == self.n {
                usize::MAX
            } else {
                from_row
            };
            let to: Rank = li % self.n;
            // Recovery freeze: packets toward a killed-but-recoverable
            // rank park in `unacked` instead of burning retries — the
            // restore path replays them, so exhausting the budget here
            // would both poison the restored window and fabricate TTG040s.
            // Rows *from* the killed rank freeze too: their transmits are
            // dropped anyway, the restore discards the entries, and the
            // restored rank's re-executed tasks re-send the content.
            if cs.recover.is_some()
                && (cs.killed[to].load(Ordering::SeqCst)
                    || (from_row < self.n && cs.killed[from_row].load(Ordering::SeqCst)))
            {
                continue;
            }
            let mut retransmit: Vec<(u64, u32, Arc<Vec<u8>>, u32, bool)> = Vec::new();
            let mut exhausted: Vec<(u64, u32, bool, bool)> = Vec::new();
            {
                let mut link = l.lock();
                if link.unacked.is_empty() {
                    continue;
                }
                let mut give_up: Vec<u64> = Vec::new();
                for (&seq, e) in link.unacked.iter_mut() {
                    if now < e.next_retry {
                        continue;
                    }
                    if e.attempts >= cs.plan.retry.max_retries {
                        give_up.push(seq);
                        continue;
                    }
                    e.attempts += 1;
                    e.next_retry = now + cs.plan.retry.backoff(e.attempts + 1);
                    retransmit.push((seq, e.handler, Arc::clone(&e.payload), e.attempts, e.replayed));
                }
                for seq in give_up {
                    let e = link.unacked.remove(&seq).unwrap();
                    exhausted.push((seq, e.handler, e.delivered, e.replayed));
                }
            }
            for (seq, handler, payload, attempt, replayed) in retransmit {
                self.stats.am_retries.inc();
                self.transmit(cs, from, to, handler, seq, &payload, attempt, replayed);
            }
            for (seq, handler, delivered, replayed) in exhausted {
                // Claim the sequence number in the receiver's window: if
                // the claim succeeds the packet was never (and will never
                // be) logically delivered — report the loss and retire the
                // in-flight slot. If it fails, the receiver accepted a
                // copy at some point (the ack was lost); nothing was lost.
                let row = self.link_row(from);
                let claimed = !delivered && cs.windows[to].lock()[row].accept(seq);
                if claimed {
                    self.stats.am_retry_exhausted.inc();
                    self.record_error(CommError {
                        kind: CommErrorKind::RetryBudgetExhausted,
                        from: (from != usize::MAX).then_some(from),
                        to: Some(to),
                        handler: Some(handler),
                        seq: Some(seq),
                        detail: format!(
                            "abandoned after {} retransmissions",
                            cs.plan.retry.max_retries
                        ),
                    });
                    // The slot goes last: once the count reads drained the
                    // run may finish and collect its report, and the loss
                    // must already be in it.
                    if !replayed {
                        // A restored entry's slot was already retired by
                        // the restore scan; only live sends still hold one.
                        self.in_flight.fetch_sub(1, Ordering::SeqCst);
                    }
                }
            }
        }
    }

    /// Mark a previously sent packet as fully processed (used by the
    /// termination detector to know when the fabric has drained).
    pub fn packet_processed(&self) {
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
    }

    /// Number of packets sent but not yet fully processed.
    pub fn packets_in_flight(&self) -> usize {
        self.in_flight.load(Ordering::SeqCst)
    }

    /// Record the time one active message spent in its handler on a
    /// rank's delivery thread.
    pub fn count_am_delivered(&self, spent: Duration) {
        self.stats
            .am_deliver_ns
            .record(spent.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Install the sink recovery snapshots persist through.
    pub fn install_snapshot_sink(&self, sink: Arc<dyn SnapshotSink>) {
        *self.snapshot_sink.lock() = Some(sink);
    }

    /// Whether the installed fault plan enables checkpoint/restore.
    pub fn recovery_enabled(&self) -> bool {
        self.chaos
            .as_ref()
            .is_some_and(|cs| cs.recover.is_some())
    }

    /// Snapshot cadence of the installed fault plan, in accepted packets
    /// (`None` = recovery off).
    pub fn snapshot_interval(&self) -> Option<u64> {
        self.chaos.as_ref().and_then(|cs| cs.recover)
    }

    /// Whether rank-local logical sends must flow through the wire path
    /// instead of short-circuiting into the matching table.
    ///
    /// Message-logging recovery is only sound if *every* logical message a
    /// rank depends on is either captured in a snapshot or replayable from
    /// a sender's log. A rank restored from an empty snapshot rebuilds its
    /// state purely from replayed sends, so local seeds and loopback task
    /// outputs must be sequenced on the diagonal link like any other
    /// traffic. Remote mode recovers by job-level restart and keeps the
    /// fast local path.
    pub fn wire_local_sends(&self) -> bool {
        self.recovery_enabled() && self.local_rank().is_none()
    }

    /// Whether rank `r` has accepted enough packets since its last
    /// snapshot for a new one to be due.
    pub fn snapshot_due(&self, r: Rank) -> bool {
        let Some(cs) = &self.chaos else { return false };
        let Some(every) = cs.recover else { return false };
        !cs.killed[r].load(Ordering::SeqCst)
            && cs.rx_packets[r].load(Ordering::SeqCst)
                >= cs.last_snap[r].load(Ordering::SeqCst) + every
    }

    /// Ranks killed by script that recovery should bring back.
    pub fn ranks_needing_recovery(&self) -> Vec<Rank> {
        let Some(cs) = &self.chaos else { return Vec::new() };
        if cs.recover.is_none() {
            return Vec::new();
        }
        (0..self.n)
            .filter(|&r| cs.killed[r].load(Ordering::SeqCst))
            .collect()
    }

    /// Export rank `r`'s comm-layer recovery state: incoming dedup
    /// windows, packet counter, content logs, and outgoing link state
    /// (seq counters + in-flight payloads). Called on `r`'s comm thread
    /// between deliveries, with `r`'s worker pool idle — that pair of
    /// conditions is the consistent cut (DESIGN §13).
    pub fn export_rank_comm(&self, r: Rank, b: &mut WriteBuf) {
        let Some(cs) = &self.chaos else { return };
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
        b.put_u64(self.n as u64);
        for t in 0..self.n {
            cs.links[self.link_idx(r, t)].lock().export(b);
        }
    }

    /// Persist a completed snapshot blob for rank `r` through the sink
    /// and advance the rank's snapshot bookkeeping.
    pub fn commit_snapshot(&self, r: Rank, blob: &[u8]) -> Result<(), String> {
        let sink = self.snapshot_sink.lock().clone();
        let Some(sink) = sink else {
            return Err("no snapshot sink installed".into());
        };
        if let Err(e) = sink.store(r, blob) {
            self.record_error(CommError {
                kind: CommErrorKind::SnapshotFailed,
                from: None,
                to: Some(r),
                handler: None,
                seq: None,
                detail: e.to_string(),
            });
            return Err(e.to_string());
        }
        if let Some(cs) = &self.chaos {
            cs.last_snap[r].store(cs.rx_packets[r].load(Ordering::SeqCst), Ordering::SeqCst);
            cs.accepted_since_snap[r].store(0, Ordering::SeqCst);
            cs.sent_since_snap[r].store(0, Ordering::SeqCst);
        }
        self.stats.snapshots_taken.inc();
        self.stats.snapshot_bytes.add(blob.len() as u64);
        Ok(())
    }

    /// Load rank `r`'s last stored snapshot blob, if any.
    pub fn load_snapshot(&self, r: Rank) -> Option<Vec<u8>> {
        let sink = self.snapshot_sink.lock().clone()?;
        sink.load(r).ok().flatten()
    }

    /// Restore rank `r`'s comm-layer state from a snapshot section
    /// (`None` = restore to empty: valid, because the sender-side replay
    /// logs cover the run from its first message), bump the rank's send
    /// incarnation, clear its killed flag, and replay every logged
    /// message toward it. The caller must have restored the rank's
    /// matching tables first and verified its worker pool is idle.
    pub fn restore_rank_comm(&self, r: Rank, section: Option<&[u8]>) -> Result<(), WireError> {
        let Some(cs) = &self.chaos else {
            return Err(WireError::new("restore without a fault plan"));
        };
        let now = Instant::now();
        // Decode the snapshot (or synthesize empty state).
        let mut windows: Vec<SeqWindow> = vec![SeqWindow::new(); self.n + 1];
        let mut rx_packets = 0u64;
        let mut logs: Vec<ContentLog> = (0..self.n + 1).map(|_| ContentLog::new()).collect();
        let mut out_links: Vec<LinkTx> = (0..self.n).map(|_| LinkTx::default()).collect();
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
        let row_r = self.link_row(r);
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
        for t in 0..self.n {
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
                let mut link = cs.links[self.link_idx(r, r)].lock();
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
            let mut link = cs.links[self.link_idx(r, t)].lock();
            retired += link
                .unacked
                .values()
                .filter(|e| !e.delivered && !e.replayed)
                .count() as u64;
            *link = restored;
        }
        self.in_flight.fetch_sub(retired as usize, Ordering::SeqCst);
        // Install the restored receive-side state.
        *cs.windows[r].lock() = windows;
        cs.rx_packets[r].store(rx_packets, Ordering::SeqCst);
        *cs.content_logs[r].lock() = logs;
        cs.accepted_since_snap[r].store(0, Ordering::SeqCst);
        cs.sent_since_snap[r].store(0, Ordering::SeqCst);
        // Drop stale batched acks the dead incarnation owed or was owed.
        for t in 0..self.n {
            let _ = cs.pending_acks[self.link_idx(t, r)].lock().take();
            let _ = cs.pending_acks[self.link_idx(r, t)].lock().take();
        }
        self.stats.restores.inc();
        // Replay while `killed[r]` is still latched: replay-marked
        // copies bypass the killed gate and fault injection, while any
        // concurrent live send toward `r` still drops at the gate. With
        // FIFO channel delivery this orders every replayed copy ahead
        // of the first post-restore send toward `r`. The restored
        // window dedups pre-snapshot seqs; the content log dedups
        // re-executed duplicates.
        let mut replayed = 0u64;
        for source_row in 0..=self.n {
            let li = source_row * self.n + r;
            let from: Rank = if source_row == self.n {
                usize::MAX
            } else {
                source_row
            };
            // Collect the log *before* scanning the live link below:
            // `send_am` inserts the unacked entry before pushing the log,
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
                        self.in_flight.fetch_sub(1, Ordering::SeqCst);
                    }
                }
            }
            for (inc, seq, handler, payload) in entries {
                // Diagonal replays are re-packed under the rank's new
                // incarnation: surgery bumped the rank's own row, so a
                // copy under the logged (pre-crash) incarnation would be
                // stale-dropped on arrival.
                let inc = if source_row == r { new_inc } else { inc };
                self.transmit_packed(
                    cs,
                    from,
                    r,
                    handler,
                    pack_seq(inc, seq) | REPLAY_BIT,
                    &payload,
                    0,
                );
                replayed += 1;
            }
        }
        self.stats.replayed_sends.add(replayed);
        self.stats.recoveries.inc();
        // Only now does the rank rejoin the live fabric.
        cs.killed[r].store(false, Ordering::SeqCst);
        self.recovery_log.lock().push(CommError {
            kind: CommErrorKind::RankRecovered,
            from: None,
            to: Some(r),
            handler: None,
            seq: None,
            detail: format!(
                "restored from {} snapshot, replayed {replayed} logged sends, \
                 retired {retired} undelivered pre-crash sends",
                if section.is_some() { "last" } else { "no (empty)" },
            ),
        });
        Ok(())
    }

    /// Drain the informational recovery events (TTG046).
    pub fn take_recovery_events(&self) -> Vec<CommError> {
        std::mem::take(&mut *self.recovery_log.lock())
    }

    /// Deliver a shutdown packet to every rank, stop the reliability
    /// progress thread, and close the link layer (flushing pending sends
    /// and notifying peers).
    pub fn shutdown_all(&self) {
        self.stopping.store(true, Ordering::SeqCst);
        if let Some(cs) = &self.chaos {
            cs.stop.store(true, Ordering::SeqCst);
        }
        for tx in &self.senders {
            let _ = tx.send(Packet::Shutdown);
        }
        match &self.wire {
            LinkLayer::Channels => {}
            LinkLayer::Mesh { endpoints, .. } => {
                for ep in endpoints {
                    ep.shutdown();
                }
            }
            LinkLayer::Remote(rs) => rs.endpoint.shutdown(),
        }
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
        if expected_gets == 0 {
            if let Some(f) = on_release {
                f();
            }
            return 0;
        }
        let id = self.next_region.fetch_add(1, Ordering::Relaxed);
        self.regions[owner].lock().insert(
            id,
            Region {
                data,
                remaining: expected_gets,
                on_release,
            },
        );
        id
    }

    /// One-sided fetch of a region owned by `owner`: the caller obtains a
    /// zero-copy handle to the region bytes, read in place without
    /// involving the owner's CPU — which is only possible where the
    /// owner's region table is in this address space (every in-process
    /// fabric; a multi-process rank reaches only its own). Any other owner
    /// is [`RmaError::ForeignOwner`], returned without an error record of
    /// its own: the failed delivery is the report.
    ///
    /// The fetch that satisfies the region's expected count triggers its
    /// release. A duplicate or late fetch of an already-released region is
    /// answered idempotently from a bounded cache of recently released
    /// regions; a fetch of a region the owner never held (or that has been
    /// evicted) ends in [`RmaError::UnknownRegion`] and a TTG044 record —
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
        let looked_up = {
            let mut table = self.regions[owner].lock();
            match table.get_mut(&id) {
                None => None,
                Some(region) => {
                    let data = Arc::clone(&region.data);
                    region.remaining -= 1;
                    if region.remaining == 0 {
                        let region = table.remove(&id).unwrap();
                        Some((data, region.on_release, true))
                    } else {
                        Some((data, None, false))
                    }
                }
            }
        };
        let (data, release) = match looked_up {
            Some((data, release, consumed)) => {
                if consumed {
                    // Fully consumed: remember the bytes so duplicate or
                    // late gets racing this removal stay answerable. The
                    // cache is LRU: least-recently-served entries (front)
                    // are evicted first, so a region still fielding late
                    // duplicates survives churn from newer releases.
                    let mut cache = self.released[owner].lock();
                    if cache.len() >= RELEASED_CACHE {
                        cache.remove(0);
                        self.stats.rma_released_evictions.inc();
                    }
                    cache.push((id, Arc::clone(&data)));
                }
                (data, release)
            }
            None => {
                // Region gone from the live table: duplicate/late get.
                // A hit refreshes the entry to the back of the LRU order.
                let cached = {
                    let mut cache = self.released[owner].lock();
                    cache.iter().position(|(rid, _)| *rid == id).map(|pos| {
                        let entry = cache.remove(pos);
                        let data = Arc::clone(&entry.1);
                        cache.push(entry);
                        data
                    })
                };
                match cached {
                    Some(d) => {
                        self.stats.rma_stale_gets.inc();
                        // Served idempotently; no release side effects and
                        // no double-counted wire traffic.
                        return Ok(d);
                    }
                    None => {
                        self.record_error(CommError {
                            kind: CommErrorKind::UnknownRegion,
                            from: Some(owner),
                            to: Some(caller),
                            handler: None,
                            seq: Some(id),
                            detail: format!("region {id}"),
                        });
                        return Err(RmaError::UnknownRegion { caller, owner, id });
                    }
                }
            }
        };
        if caller != owner {
            let bytes = data.len() as u64;
            self.stats.rma_gets.inc();
            self.stats.rma_bytes.add(bytes);
            self.stats.tx_bytes[owner].add(bytes);
            self.stats.rx_bytes[caller].add(bytes);
            #[cfg(feature = "telemetry")]
            ttg_telemetry::instant(
                Some(caller as u32),
                "comm",
                "rma_get",
                &[("owner", owner as u64), ("bytes", bytes)],
            );
        }
        if let Some(f) = release {
            f();
        }
        Ok(data)
    }

    /// Number of live (unreleased) regions owned by `rank`.
    pub fn live_regions(&self, rank: Rank) -> usize {
        self.regions[rank].lock().len()
    }

    /// Block until all ranks reach the barrier (used by BSP comparators
    /// and the multi-process start/stop fences).
    ///
    /// In-process fabrics use a shared-memory barrier. Multi-process ranks
    /// run a coordinator protocol instead: everyone sends `BarrierEnter`
    /// for their next epoch ordinal to rank 0, which broadcasts
    /// `BarrierRelease` once all `n` ranks have entered. All ranks must
    /// call `barrier()` the same number of times (SPMD), so ordinals align
    /// without clock agreement.
    pub fn barrier(&self) {
        let LinkLayer::Remote(rs) = &self.wire else {
            self.barrier.wait();
            return;
        };
        let epoch = rs.barrier_seq.fetch_add(1, Ordering::SeqCst) + 1;
        if rs.me == 0 {
            self.barrier_arrive(rs, epoch);
        } else if let Err(e) = rs.link(0).send(Frame::BarrierEnter {
            from: rs.me as u32,
            epoch,
        }) {
            self.transport_send_failed(rs.me, 0, None, e);
        }
        let mut released = rs.barrier_released.lock();
        while *released < epoch {
            rs.barrier_cv.wait(&mut released);
        }
    }

    /// Record that a serialization pass happened (for the copy-count
    /// ablation).
    pub fn count_serialization(&self) {
        self.stats.serializations.inc();
    }

    /// Record a deep data copy performed by a backend.
    pub fn count_data_copy(&self) {
        self.stats.data_copies.inc();
    }

    /// Record what the optimized broadcast saved versus naive per-key
    /// sends: `sends_saved` skipped AMs and `bytes_saved` re-serialized
    /// payload bytes that never had to be produced.
    pub fn count_broadcast_dedup(&self, sends_saved: u64, bytes_saved: u64) {
        self.stats.bcast_sends_saved.add(sends_saved);
        self.stats.bcast_bytes_saved.add(bytes_saved);
    }
}

/// Body of the reliability progress thread: ticks the retransmission and
/// delayed-release engine until the fabric shuts down or is dropped.
fn progress_loop(fabric: Weak<Fabric>) {
    loop {
        let Some(f) = fabric.upgrade() else { return };
        if let Some(cs) = &f.chaos {
            if cs.stop.load(Ordering::SeqCst) {
                return;
            }
        }
        f.progress();
        drop(f);
        std::thread::sleep(PROGRESS_TICK);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn am_roundtrip_between_ranks() {
        let fabric = Fabric::new(2);
        let rx1 = fabric.take_receiver(1);
        fabric.send_am(0, 1, 7, vec![1, 2, 3]).unwrap();
        match rx1.recv().unwrap() {
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
            other => panic!("unexpected packet {:?}", other),
        }
        let s = fabric.stats().snapshot();
        assert_eq!(s.am_count, 1);
        assert_eq!(s.am_bytes, 3);
        fabric.packet_processed();
        assert_eq!(fabric.packets_in_flight(), 0);
    }

    #[test]
    fn local_am_not_counted_as_wire_traffic() {
        let fabric = Fabric::new(1);
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
        let fabric = Fabric::new(2);
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
    fn rma_region_lifecycle() {
        let fabric = Fabric::new(3);
        let released = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&released);
        let data = Arc::new(vec![9u8; 128]);
        let id = fabric.register_region(
            0,
            data,
            2,
            Some(Box::new(move || flag.store(true, Ordering::SeqCst))),
        );
        assert_eq!(fabric.live_regions(0), 1);

        let d1 = fabric.rma_fetch(1, 0, id).unwrap();
        assert_eq!(d1.len(), 128);
        assert!(!released.load(Ordering::SeqCst));
        assert_eq!(fabric.live_regions(0), 1);

        let d2 = fabric.rma_fetch(2, 0, id).unwrap();
        assert_eq!(d2.len(), 128);
        assert!(released.load(Ordering::SeqCst));
        assert_eq!(fabric.live_regions(0), 0);

        let s = fabric.stats().snapshot();
        assert_eq!(s.rma_gets, 2);
        assert_eq!(s.rma_bytes, 256);
    }

    #[test]
    fn duplicate_get_after_release_is_idempotent() {
        let fabric = Fabric::new(2);
        let id = fabric.register_region(0, Arc::new(vec![5u8; 16]), 1, None);
        let first = fabric.rma_fetch(1, 0, id).unwrap();
        assert_eq!(fabric.live_regions(0), 0);
        // A duplicated/late get racing the release: answered from the
        // idempotency cache, no panic, no double release.
        let dup = fabric.rma_fetch(1, 0, id).unwrap();
        assert_eq!(*dup, *first);
        let s = fabric.stats().snapshot();
        assert_eq!(s.rma_stale_gets, 1);
        // Wire traffic counted once only (the idempotent answer is free).
        assert_eq!(s.rma_gets, 1);
    }

    #[test]
    fn released_cache_is_lru_with_bounded_size_and_eviction_counter() {
        let fabric = Fabric::new(2);
        // Release the probe region first, then churn the cache to one slot
        // short of evicting it.
        let probe = fabric.register_region(0, Arc::new(vec![9u8; 8]), 1, None);
        let _ = fabric.rma_fetch(1, 0, probe).unwrap();
        for _ in 0..RELEASED_CACHE - 1 {
            let id = fabric.register_region(0, Arc::new(vec![0u8; 8]), 1, None);
            let _ = fabric.rma_fetch(1, 0, id).unwrap();
        }
        assert_eq!(fabric.stats().snapshot().rma_released_evictions, 0);
        // A stale hit refreshes the probe to most-recently-used...
        let dup = fabric.rma_fetch(1, 0, probe).unwrap();
        assert_eq!(*dup, vec![9u8; 8]);
        // ...so the next release evicts the oldest *other* entry and the
        // probe stays answerable, while the cache stays at its cap.
        let id = fabric.register_region(0, Arc::new(vec![0u8; 8]), 1, None);
        let _ = fabric.rma_fetch(1, 0, id).unwrap();
        let s = fabric.stats().snapshot();
        assert_eq!(s.rma_released_evictions, 1);
        let dup2 = fabric.rma_fetch(1, 0, probe).unwrap();
        assert_eq!(*dup2, vec![9u8; 8]);
        // Without the LRU refresh the probe (oldest insert) would have
        // been the eviction victim and this get would be UnknownRegion.
    }

    #[test]
    fn unknown_region_is_structured_error_not_panic() {
        let fabric = Fabric::new(2);
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
    fn zero_consumer_region_releases_immediately() {
        let fabric = Fabric::new(1);
        let released = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&released);
        fabric.register_region(
            0,
            Arc::new(vec![1]),
            0,
            Some(Box::new(move || flag.store(true, Ordering::SeqCst))),
        );
        assert!(released.load(Ordering::SeqCst));
        assert_eq!(fabric.live_regions(0), 0);
    }

    #[test]
    fn barrier_synchronizes_ranks() {
        let fabric = Fabric::new(4);
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
    fn stats_and_registry_share_cells() {
        let fabric = Fabric::new(2);
        let _rx = fabric.take_receiver(1);
        fabric.send_am(0, 1, 3, vec![7u8; 40]).unwrap();
        fabric.count_serialization();
        fabric.count_broadcast_dedup(5, 320);

        let legacy = fabric.stats().snapshot();
        let reg = fabric.telemetry().snapshot();
        assert_eq!(
            reg.counter(&MetricKey::global("comm", "am_count")),
            legacy.am_count
        );
        assert_eq!(reg.counter(&MetricKey::global("comm", "am_bytes")), 40);
        assert_eq!(
            reg.counter(&MetricKey::global("comm", "serializations")),
            legacy.serializations
        );
        assert_eq!(
            reg.counter(&MetricKey::global("comm", "bcast_sends_saved")),
            5
        );
        assert_eq!(legacy.bcast_bytes_saved, 320);
        assert_eq!(reg.counter(&MetricKey::ranked(0, "comm", "tx_bytes")), 40);
        assert_eq!(reg.counter(&MetricKey::ranked(1, "comm", "rx_bytes")), 40);
        assert_eq!(reg.counter(&MetricKey::ranked(1, "comm", "tx_bytes")), 0);
    }

    #[test]
    fn shutdown_reaches_every_rank() {
        let fabric = Fabric::new(2);
        let rx0 = fabric.take_receiver(0);
        let rx1 = fabric.take_receiver(1);
        fabric.shutdown_all();
        assert!(matches!(rx0.recv().unwrap(), Packet::Shutdown));
        assert!(matches!(rx1.recv().unwrap(), Packet::Shutdown));
    }

    // ---- reliable-delivery layer -------------------------------------

    /// Drain one packet, classify through `rx_accept`, return whether it
    /// was fresh.
    fn pump(fabric: &Fabric, rx: &Receiver<Packet>, rank: Rank) -> Option<bool> {
        match rx.try_recv().ok()? {
            Packet::Am { from, seq, .. } => {
                let fresh = fabric.rx_accept(rank, from, seq);
                if fresh {
                    fabric.packet_processed();
                }
                Some(fresh)
            }
            Packet::Shutdown => None,
        }
    }

    #[test]
    fn reliable_layer_sequences_and_delivers_exactly_once() {
        let plan = FaultPlan::seeded(1);
        let fabric = Fabric::with_faults(2, Some(plan));
        let rx1 = fabric.take_receiver(1);
        for _ in 0..10 {
            fabric.send_am(0, 1, 7, vec![1]).unwrap();
        }
        let mut fresh = 0;
        while let Some(f) = pump(&fabric, &rx1, 1) {
            if f {
                fresh += 1;
            }
        }
        assert_eq!(fresh, 10);
        assert_eq!(fabric.packets_in_flight(), 0);
        assert_eq!(fabric.stats().snapshot().am_dedup_hits, 0);
    }

    #[test]
    fn injected_duplicates_are_deduped() {
        let plan = FaultPlan::seeded(3).with_dup(1.0);
        let fabric = Fabric::with_faults(2, Some(plan));
        let rx1 = fabric.take_receiver(1);
        for _ in 0..5 {
            fabric.send_am(0, 1, 7, vec![2]).unwrap();
        }
        let mut fresh = 0;
        let mut dups = 0;
        while let Some(f) = pump(&fabric, &rx1, 1) {
            if f {
                fresh += 1;
            } else {
                dups += 1;
            }
        }
        assert_eq!(fresh, 5, "logical delivery must stay exactly-once");
        assert_eq!(dups, 5, "every duplicate must be rejected");
        let s = fabric.stats().snapshot();
        assert_eq!(s.am_dup_injected, 5);
        assert_eq!(s.am_dedup_hits, 5);
        assert_eq!(s.am_count, 5, "logical AM count unaffected by duplication");
        assert_eq!(fabric.packets_in_flight(), 0);
    }

    #[test]
    fn dropped_packets_are_retransmitted() {
        // Drop every original transmission (attempt 0) — the deterministic
        // rolls differ per attempt, so retransmits eventually pass. Use a
        // plan with drop=0.5 and enough budget.
        let mut plan = FaultPlan::seeded(11).with_drop(0.5);
        plan.retry.base = Duration::from_micros(50);
        plan.retry.cap = Duration::from_micros(400);
        let fabric = Fabric::with_faults(2, Some(plan));
        let rx1 = fabric.take_receiver(1);
        let n = 40;
        for _ in 0..n {
            fabric.send_am(0, 1, 7, vec![3]).unwrap();
        }
        let mut fresh = 0;
        let deadline = Instant::now() + Duration::from_secs(10);
        while fresh < n && Instant::now() < deadline {
            // The progress thread is running, but tick explicitly too so
            // the test does not depend on scheduler timing.
            fabric.progress();
            while let Some(f) = pump(&fabric, &rx1, 1) {
                if f {
                    fresh += 1;
                }
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        assert_eq!(fresh, n, "all logical packets must eventually deliver");
        assert_eq!(fabric.packets_in_flight(), 0);
        let s = fabric.stats().snapshot();
        assert!(s.am_retries > 0, "drops must force retransmissions");
        assert!(s.am_dropped_injected > 0);
    }

    #[test]
    fn batched_acks_retire_unacked_in_few_flushes() {
        // Default plan: batching on, 100 µs flush timer, no loss. Twenty
        // messages must be acknowledged by far fewer flush events, and
        // every sequence must be covered by a batched range.
        let plan = FaultPlan::seeded(31);
        let fabric = Fabric::with_faults(2, Some(plan));
        let rx1 = fabric.take_receiver(1);
        let n = 20;
        for _ in 0..n {
            fabric.send_am(0, 1, 7, vec![6]).unwrap();
        }
        while pump(&fabric, &rx1, 1).is_some() {}
        // Let the flush timer come due, then tick explicitly so the test
        // does not depend on the progress thread's scheduling.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            fabric.progress();
            let s = fabric.stats().snapshot();
            if s.acks_batched == n || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        let s = fabric.stats().snapshot();
        assert_eq!(s.acks_batched, n, "every sequence must be range-acked");
        assert!(s.ack_flushes >= 1);
        assert!(
            s.ack_flushes < n,
            "batching must use fewer flushes ({}) than messages ({n})",
            s.ack_flushes
        );
        // No retransmissions: the flush beat the 300 µs retry backoff.
        assert_eq!(fabric.packets_in_flight(), 0);
    }

    #[test]
    fn acks_piggyback_on_reverse_traffic() {
        // Disable the flush timer (5 s) so the only way the ack can move
        // is by riding the next reverse-direction data frame.
        let plan = FaultPlan::seeded(33).with_ack_flush(Duration::from_secs(5));
        let fabric = Fabric::with_faults(2, Some(plan));
        let rx0 = fabric.take_receiver(0);
        let rx1 = fabric.take_receiver(1);
        fabric.send_am(0, 1, 7, vec![7]).unwrap();
        assert_eq!(pump(&fabric, &rx1, 1), Some(true));
        let s = fabric.stats().snapshot();
        assert_eq!(s.ack_flushes, 0, "timer off: nothing flushed yet");
        // Reverse traffic carries the pending ack.
        fabric.send_am(1, 0, 7, vec![8]).unwrap();
        assert_eq!(pump(&fabric, &rx0, 0), Some(true));
        let s = fabric.stats().snapshot();
        assert_eq!(s.acks_piggybacked, 1);
        assert_eq!(s.acks_batched, 1);
        assert_eq!(s.ack_flushes, 1);
        assert_eq!(fabric.packets_in_flight(), 0);
    }

    #[test]
    fn immediate_ack_mode_flushes_once_per_message() {
        // The A/B baseline lever: one flush event per received message,
        // nothing batched, nothing piggybacked.
        let plan = FaultPlan::seeded(35).with_immediate_acks();
        let fabric = Fabric::with_faults(2, Some(plan));
        let rx1 = fabric.take_receiver(1);
        let n = 10;
        for _ in 0..n {
            fabric.send_am(0, 1, 7, vec![9]).unwrap();
        }
        while pump(&fabric, &rx1, 1).is_some() {}
        let s = fabric.stats().snapshot();
        assert_eq!(s.ack_flushes, n, "one ack per message in immediate mode");
        assert_eq!(s.acks_batched, 0);
        assert_eq!(s.acks_piggybacked, 0);
        assert_eq!(fabric.packets_in_flight(), 0);
    }

    #[test]
    fn dead_link_exhausts_budget_and_reports() {
        // Rank 1 dies before anything arrives: every packet to it is
        // dropped, the budget runs out, and the loss is reported.
        let mut plan = FaultPlan::seeded(5).with_kill(1, 0);
        plan.retry = crate::fault::RetryPolicy {
            base: Duration::from_micros(20),
            cap: Duration::from_micros(100),
            max_retries: 3,
        };
        let fabric = Fabric::with_faults(2, Some(plan));
        let _rx1 = fabric.take_receiver(1);
        fabric.send_am(0, 1, 9, vec![4, 4]).unwrap();
        assert_eq!(fabric.packets_in_flight(), 1);
        let deadline = Instant::now() + Duration::from_secs(5);
        while fabric.packets_in_flight() > 0 && Instant::now() < deadline {
            fabric.progress();
            std::thread::sleep(Duration::from_micros(50));
        }
        assert_eq!(
            fabric.packets_in_flight(),
            0,
            "abandoned packet must retire its in-flight slot"
        );
        let errors = fabric.take_errors();
        assert_eq!(errors.len(), 1, "exactly one loss report");
        assert_eq!(errors[0].kind, CommErrorKind::RetryBudgetExhausted);
        assert_eq!(errors[0].code(), "TTG040");
        assert_eq!(errors[0].from, Some(0));
        assert_eq!(errors[0].to, Some(1));
        let s = fabric.stats().snapshot();
        assert_eq!(s.am_retry_exhausted, 1);
    }

    #[test]
    fn delayed_packets_are_released_by_progress() {
        let mut plan = FaultPlan::seeded(21).with_delay(1.0);
        plan.delay_us = (100, 200);
        let fabric = Fabric::with_faults(2, Some(plan));
        let rx1 = fabric.take_receiver(1);
        fabric.send_am(0, 1, 7, vec![5]).unwrap();
        // Held: nothing arrives immediately.
        assert!(rx1.try_recv().is_err());
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut fresh = 0;
        while fresh == 0 && Instant::now() < deadline {
            fabric.progress();
            if let Some(true) = pump(&fabric, &rx1, 1) {
                fresh += 1;
            }
            std::thread::sleep(Duration::from_micros(50));
        }
        assert_eq!(fresh, 1);
        assert!(fabric.stats().snapshot().am_delayed_injected >= 1);
    }

    // ---- socket-mesh link layer --------------------------------------

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
    fn tcp_mesh_carries_inter_rank_ams() {
        let fabric = Fabric::with_transport(2, None, &TransportSpec::Tcp).unwrap();
        let rx1 = fabric.take_receiver(1);
        fabric.send_am(0, 1, 7, vec![1, 2, 3]).unwrap();
        match recv_am(&rx1) {
            Packet::Am {
                handler,
                from,
                payload,
                ..
            } => {
                assert_eq!(handler, 7);
                assert_eq!(from, 0);
                assert_eq!(payload, vec![1, 2, 3]);
            }
            other => panic!("unexpected packet {other:?}"),
        }
        fabric.packet_processed();
        let s = fabric.stats().snapshot();
        assert_eq!(s.am_count, 1);
        assert!(
            s.transport_tx_bytes > 0 && s.transport_rx_bytes > 0,
            "AM must have crossed the socket: {s:?}"
        );
        assert!(s.transport_connects >= 1);
        fabric.shutdown_all();
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

    #[test]
    fn chaos_over_uds_mesh_delivers_exactly_once() {
        let plan = FaultPlan::seeded(3).with_dup(1.0);
        let fabric = Fabric::with_transport(2, Some(plan), &TransportSpec::Uds).unwrap();
        let rx1 = fabric.take_receiver(1);
        let n = 5;
        for _ in 0..n {
            fabric.send_am(0, 1, 7, vec![2]).unwrap();
        }
        let mut fresh = 0;
        let deadline = Instant::now() + Duration::from_secs(10);
        while fresh < n && Instant::now() < deadline {
            fabric.progress();
            while let Ok(Packet::Am { from, seq, .. }) = rx1.try_recv() {
                if fabric.rx_accept(1, from, seq) {
                    fabric.packet_processed();
                    fresh += 1;
                }
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        assert_eq!(fresh, n, "logical delivery must stay exactly-once");
        assert_eq!(fabric.packets_in_flight(), 0);
        let s = fabric.stats().snapshot();
        // Socket latency can outlast the retry timer, and every retransmit
        // attempt rolls its own dup decision — so at least one per send.
        assert!(s.am_dup_injected >= n as u64);
        assert!(s.transport_tx_bytes > 0, "chaos copies crossed the socket");
        fabric.shutdown_all();
    }

    #[test]
    fn remote_spec_rejects_probabilistic_fault_plans() {
        // Build a 2-process-style endpoint pair in-process via the
        // transport's own mesh to get a RemoteHandle-shaped spec.
        let reg = Arc::new(Registry::new());
        let eps = ttg_transport::local_mesh(ttg_transport::TransportKind::Tcp, 2, &reg).unwrap();
        let handle = ttg_transport::RemoteHandle {
            endpoint: Arc::clone(&eps[0]) as Arc<dyn Endpoint>,
            registry: Arc::clone(&reg),
        };
        let res = Fabric::with_transport(
            2,
            Some(FaultPlan::seeded(1).with_drop(0.05)),
            &TransportSpec::Remote(handle),
        );
        let err = match res {
            Ok(_) => panic!("probabilistic fault plan over remote must be refused"),
            Err(e) => e,
        };
        assert_eq!(err.kind, CommErrorKind::TransportFailure);
        assert_eq!(err.code(), "TTG045");
        for ep in &eps {
            ep.shutdown();
        }
    }

    #[test]
    fn remote_spec_accepts_kill_scripts_but_not_kill_zero() {
        let reg = Arc::new(Registry::new());
        let eps = ttg_transport::local_mesh(ttg_transport::TransportKind::Tcp, 2, &reg).unwrap();
        let handle = ttg_transport::RemoteHandle {
            endpoint: Arc::clone(&eps[1]) as Arc<dyn Endpoint>,
            registry: Arc::clone(&reg),
        };
        // kill=1@n on a real process-shaped endpoint is accepted...
        let f = Fabric::with_transport(
            2,
            Some(FaultPlan::seeded(1).with_kill(1, 1_000_000)),
            &TransportSpec::Remote(handle.clone()),
        )
        .expect("kill-only plan must be accepted in remote mode");
        f.shutdown_all();
        // ...but killing the coordinator is refused with a clear TTG045.
        let res = Fabric::with_transport(
            2,
            Some(FaultPlan::seeded(1).with_kill(0, 5)),
            &TransportSpec::Remote(handle),
        );
        let err = res.err().expect("kill=0 must be refused");
        assert_eq!(err.code(), "TTG045");
        assert!(err.detail.contains("rank 0"), "{}", err.detail);
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
        let reg = Arc::new(Registry::new());
        let eps = ttg_transport::local_mesh(ttg_transport::TransportKind::Uds, 2, &reg).unwrap();
        let handle = ttg_transport::RemoteHandle {
            endpoint: Arc::clone(&eps[0]) as Arc<dyn Endpoint>,
            registry: Arc::clone(&reg),
        };
        let f = Fabric::with_transport(2, None, &TransportSpec::Remote(handle)).unwrap();
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
        let local = Fabric::new(2);
        assert!(matches!(
            local.rma_fetch(0, 2, 1),
            Err(RmaError::ForeignOwner { owner: 2, .. })
        ));
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
}
