//! The fabric's traffic counters: handles into its telemetry [`Registry`]
//! plus the plain-value [`StatsSnapshot`] execution reports carry.

use std::time::Duration;

use ttg_telemetry::{Counter, Gauge, Histogram, MetricKey, Registry};

use crate::links::Rank;

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
    pub(crate) am_count: Counter,
    /// Bytes moved through active messages.
    pub(crate) am_bytes: Counter,
    /// One-sided region fetches.
    pub(crate) rma_gets: Counter,
    /// Bytes moved through RMA fetches.
    pub(crate) rma_bytes: Counter,
    /// Messages delivered without leaving the rank.
    pub(crate) local_deliveries: Counter,
    /// Number of serialization passes performed (copies into wire buffers).
    pub(crate) serializations: Counter,
    /// Number of deep data copies performed by backends (clone-on-send).
    pub(crate) data_copies: Counter,
    /// Broadcast sends avoided by the optimized one-AM-per-rank broadcast.
    pub(crate) bcast_sends_saved: Counter,
    /// Bytes not re-serialized thanks to broadcast deduplication.
    pub(crate) bcast_bytes_saved: Counter,
    /// Physical retransmissions performed by the reliable layer.
    pub(crate) am_retries: Counter,
    /// Physical packets dropped by fault injection (incl. dead-rank drops).
    pub(crate) am_dropped_injected: Counter,
    /// Physical packets duplicated by fault injection.
    pub(crate) am_dup_injected: Counter,
    /// Physical packets held back (delay/reorder injection).
    pub(crate) am_delayed_injected: Counter,
    /// Duplicate receptions rejected by the receive-side dedup window.
    pub(crate) am_dedup_hits: Counter,
    /// Logical packets abandoned after the retry budget ran out.
    pub(crate) am_retry_exhausted: Counter,
    /// Acknowledgement flush events: one per batched-ack range set sent,
    /// so acks-per-message = `ack_flushes / am_count`.
    pub(crate) ack_flushes: Counter,
    /// Sequence numbers acknowledged through batched range flushes.
    pub(crate) acks_batched: Counter,
    /// Sends that hit a closed channel (post-shutdown no-ops).
    pub(crate) post_shutdown_sends: Counter,
    /// Late/duplicate one-sided fetches answered from the released-region
    /// idempotency cache.
    pub(crate) rma_stale_gets: Counter,
    /// Entries evicted from the released-region LRU cache to make room.
    pub(crate) rma_released_evictions: Counter,
    /// Time one active message spends in its handler on the rank's
    /// delivery thread, ns (decode, matching-table inserts, batch flush).
    pub(crate) am_deliver_ns: Histogram,
    /// Executions that missed their delivery deadline.
    pub(crate) delivery_deadline_misses: Counter,
    /// Per-rank bytes put on the wire (AM payloads + RMA reads served).
    pub(crate) tx_bytes: Vec<Counter>,
    /// Per-rank bytes taken off the wire.
    pub(crate) rx_bytes: Vec<Counter>,
    /// Link-layer bytes handed to the OS (subsystem `"transport"`; zero on
    /// the in-process wire, which has no framing overhead to measure).
    pub(crate) transport_tx_bytes: Counter,
    /// Link-layer bytes read off the wire.
    pub(crate) transport_rx_bytes: Counter,
    /// Successful connection establishments (dial or accept + handshake).
    pub(crate) transport_connects: Counter,
    /// Connections re-established after a mid-run failure.
    pub(crate) transport_reconnects: Counter,
    /// Handshakes refused (magic/version/rank mismatch).
    pub(crate) transport_handshake_failures: Counter,
    /// Writer-thread write syscalls (one per gathered batch).
    pub(crate) transport_tx_writes: Counter,
    /// Frames that rode a coalesced write instead of paying for their own.
    pub(crate) transport_tx_frames_coalesced: Counter,
    /// Frames a writer dropped after reconnect recovery failed.
    pub(crate) transport_tx_frames_abandoned: Counter,
    /// Frames whose body bypassed the coalescing buffer / the read buffer.
    pub(crate) transport_tx_direct_frames: Counter,
    pub(crate) transport_rx_direct_frames: Counter,
    /// Per-peer send-queue high-water marks (frames, bytes).
    pub(crate) transport_queue_hwm: Vec<Gauge>,
    pub(crate) transport_queue_bytes_hwm: Vec<Gauge>,
    /// Per-rank scheduler ready-queue high-water marks (jobs on one
    /// worker's queues).
    pub(crate) sched_ready_hwm: Vec<Gauge>,
    /// Recovery: per-rank state snapshots captured.
    pub(crate) snapshots_taken: Counter,
    /// Recovery: bytes persisted through the snapshot sink.
    pub(crate) snapshot_bytes: Counter,
    /// Recovery: snapshots restored into a rank.
    pub(crate) restores: Counter,
    /// Recovery: killed ranks brought back to life.
    pub(crate) recoveries: Counter,
    /// Recovery: logged messages retransmitted during replay.
    pub(crate) replayed_sends: Counter,
    /// Recovery: replayed/re-executed messages dropped by content dedup.
    pub(crate) replay_dedup_hits: Counter,
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
    /// Ack flush events (one per batched range set):
    /// acks-per-message = `ack_flushes / am_count`.
    pub ack_flushes: u64,
    /// Sequence numbers acknowledged via batched ranges.
    pub acks_batched: u64,
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
    pub(crate) fn new(reg: &Registry, n: usize) -> Self {
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

    /// Sender-side accounting of one logical active message of `bytes`
    /// bytes: wire traffic when the ranks differ, a loopback delivery
    /// otherwise.
    pub(crate) fn count_am(&self, from: Rank, to: Rank, bytes: u64) {
        if from == to {
            self.local_deliveries.inc();
            return;
        }
        self.am_count.inc();
        self.am_bytes.add(bytes);
        // `from` may be an out-of-fabric sentinel (external seeding
        // uses usize::MAX); only real ranks have a tx counter.
        if let Some(tx) = self.tx_bytes.get(from) {
            tx.add(bytes);
        }
        self.rx_bytes[to].add(bytes);
        #[cfg(feature = "telemetry")]
        ttg_telemetry::instant(
            Some(to as u32),
            "comm",
            "am",
            &[("from", from as u64), ("bytes", bytes)],
        );
    }

    /// Record the time one active message spent in its handler on a
    /// rank's delivery thread.
    pub fn count_am_delivered(&self, spent: Duration) {
        self.am_deliver_ns
            .record(spent.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Record a delivery-deadline miss (called by executors when a
    /// bounded wait gives up).
    pub fn count_deadline_miss(&self) {
        self.delivery_deadline_misses.inc();
    }

    /// Record that a serialization pass happened (for the copy-count
    /// ablation).
    pub fn count_serialization(&self) {
        self.serializations.inc();
    }

    /// Record a deep data copy performed by a backend.
    pub fn count_data_copy(&self) {
        self.data_copies.inc();
    }

    /// Record what the optimized broadcast saved versus naive per-key
    /// sends: `sends_saved` skipped AMs and `bytes_saved` re-serialized
    /// payload bytes that never had to be produced.
    pub fn count_broadcast_dedup(&self, sends_saved: u64, bytes_saved: u64) {
        self.bcast_sends_saved.add(sends_saved);
        self.bcast_bytes_saved.add(bytes_saved);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_and_registry_share_cells() {
        let reg = Registry::new();
        let stats = FabricStats::new(&reg, 2);
        stats.count_am(0, 1, 40);
        stats.count_serialization();
        stats.count_broadcast_dedup(5, 320);

        let legacy = stats.snapshot();
        let reg = reg.snapshot();
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
}
