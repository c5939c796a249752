//! The fabric's traffic counters: one table row per metric, which makes
//! the handles into the fabric's telemetry registry and the plain-value
//! [`StatsSnapshot`] execution reports carry.

use ttg_transport::TransportMetrics;

use crate::links::Rank;

ttg_telemetry::metrics! {
    /// Aggregate communication counters for a fabric (all ranks), under
    /// subsystem `"comm"` in the fabric's registry. A registry snapshot and
    /// [`FabricStats::snapshot`] read the same cells; every update is a
    /// single relaxed atomic op.
    #[derive(Debug)]
    pub struct FabricStats for ranks {
        /// Active messages sent between distinct ranks (logical count: fault
        /// retransmits and injected duplicates are not re-counted here).
        pub(crate) am_count: counter("comm", "am_count"),
        /// Bytes moved through active messages.
        pub(crate) am_bytes: counter("comm", "am_bytes"),
        /// One-sided region fetches.
        pub(crate) rma_gets: counter("comm", "rma_gets"),
        /// Bytes moved through RMA fetches.
        pub(crate) rma_bytes: counter("comm", "rma_bytes"),
        /// Messages delivered without leaving the rank.
        pub(crate) local_deliveries: counter("comm", "local_deliveries"),
        /// Serialization passes (copies into wire buffers).
        pub serializations: counter("comm", "serializations"),
        /// Deep data copies performed by backends (clone-on-send).
        pub data_copies: counter("comm", "data_copies"),
        /// Broadcast sends avoided by the optimized one-AM-per-rank broadcast.
        pub(crate) bcast_sends_saved: counter("comm", "bcast_sends_saved"),
        /// Bytes not re-serialized thanks to broadcast deduplication.
        pub(crate) bcast_bytes_saved: counter("comm", "bcast_bytes_saved"),
        /// Physical retransmissions performed by the reliable layer.
        pub(crate) am_retries: counter("comm", "am_retries"),
        /// Physical packets dropped by fault injection (incl. dead-rank drops).
        pub(crate) am_dropped_injected: counter("comm", "am_dropped_injected"),
        /// Physical packets duplicated by fault injection.
        pub(crate) am_dup_injected: counter("comm", "am_dup_injected"),
        /// Physical packets held back (delay/reorder injection).
        pub(crate) am_delayed_injected: counter("comm", "am_delayed_injected"),
        /// Duplicate receptions rejected by the receive-side dedup window.
        pub(crate) am_dedup_hits: counter("comm", "am_dedup_hits"),
        /// Logical packets abandoned after the retry budget ran out.
        pub(crate) am_retry_exhausted: counter("comm", "am_retry_exhausted"),
        /// Acknowledgement flush events: one per batched-ack range set sent,
        /// so acks-per-message = `ack_flushes / am_count`.
        pub(crate) ack_flushes: counter("comm", "ack_flushes"),
        /// Sequence numbers acknowledged through batched range flushes.
        pub(crate) acks_batched: counter("comm", "acks_batched"),
        /// Sends that hit a closed channel (post-shutdown no-ops).
        pub(crate) post_shutdown_sends: counter("comm", "post_shutdown_sends"),
        /// Late/duplicate one-sided fetches answered from the released-region
        /// idempotency cache.
        pub(crate) rma_stale_gets: counter("comm", "rma_stale_gets"),
        /// Entries evicted from the released-region LRU cache to make room.
        pub(crate) rma_released_evictions: counter("comm", "rma_released_evictions"),
        /// Time one active message spends in its handler on the rank's
        /// delivery thread, ns (decode, matching-table inserts, batch flush).
        pub am_deliver_ns: histogram("comm", "am_deliver_ns")
            => am_deliver_p50_ns, am_deliver_p99_ns,
        /// Time every rank stays paused for one global cut, ns: the wait
        /// for delivery to stop and the pools to drain, plus composing and
        /// committing the cut.
        pub snapshot_pause_ns: histogram("comm", "snapshot_pause_ns")
            => snapshot_pause_p50_ns, snapshot_pause_p99_ns,
        /// Per-rank bytes put on the wire (AM payloads + RMA reads served).
        pub(crate) tx_bytes: ranked counter("comm", "tx_bytes"),
        /// Per-rank bytes taken off the wire.
        pub(crate) rx_bytes: ranked counter("comm", "rx_bytes"),
        /// Highest single-worker ready-queue depth observed across ranks
        /// (jobs). The row belongs to the worker pools' table; comm cannot
        /// depend on the runtime crate, so it re-attaches to the pools'
        /// cells by key here.
        pub(crate) sched_ready_hwm: ranked gauge("sched", "ready_hwm"),
        /// Recovery: global cuts committed.
        pub snapshots_taken: counter("comm", "snapshots_taken"),
        /// Recovery: bytes persisted through the snapshot sink.
        pub snapshot_bytes: counter("comm", "snapshot_bytes"),
        /// Recovery: rollbacks of every rank to the last cut.
        pub(crate) restores: counter("comm", "restores"),
        /// Recovery: killed ranks brought back by a rollback.
        pub(crate) recoveries: counter("comm", "recoveries"),
        /// Recovery: unacked entries and seeds a rollback re-armed.
        pub(crate) replayed_sends: counter("comm", "replayed_sends"),
        /// The link layer's counters (zero on the in-process wire, which has
        /// no framing to measure).
        pub(crate) transport: TransportMetrics {
            /// Link-layer bytes handed to the OS (socket transports).
            transport_tx_bytes: tx_bytes,
            /// Link-layer bytes read off the wire (socket transports).
            transport_rx_bytes: rx_bytes,
            /// Link-layer connection establishments.
            transport_connects: connects,
            /// Link-layer reconnections after mid-run failures: always 0 (a
            /// connection lives as long as its endpoint); `bench_all` reads it.
            transport_reconnects: reconnects,
            /// Link-layer handshakes refused.
            transport_handshake_failures: handshake_failures,
            /// Writer-thread write syscalls. Frames-per-write =
            /// `(transport_tx_writes + transport_tx_frames_coalesced) /
            /// transport_tx_writes`.
            transport_tx_writes: tx_writes,
            /// Frames that rode a coalesced write instead of their own syscall.
            transport_tx_frames_coalesced: tx_frames_coalesced,
            /// Frames sent with their body written from the buffer that held it.
            transport_tx_direct_frames: tx_direct_frames,
            /// Frames whose body was read from the socket into its final buffer.
            transport_rx_direct_frames: rx_direct_frames,
            /// Highest per-peer send-queue depth ever observed (frames).
            transport_queue_hwm: queue_hwm,
            /// The same mark in queued wire bytes (the transport's byte bound
            /// plus one frame, unless ungated control frames piled up).
            transport_queue_bytes_hwm: queue_bytes_hwm,
        },
    }
    /// Plain values of [`FabricStats`], as execution reports carry them.
    pub struct StatsSnapshot;
}

impl FabricStats {
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
    }

    /// Record what the optimized broadcast saved versus naive per-key
    /// sends: `sends_saved` skipped AMs and `bytes_saved` re-serialized
    /// payload bytes that never had to be produced.
    pub fn count_broadcast_dedup(&self, sends_saved: u64, bytes_saved: u64) {
        self.bcast_sends_saved.add(sends_saved);
        self.bcast_bytes_saved.add(bytes_saved);
    }
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
    use ttg_telemetry::{MetricKey, MetricValue, Registry};

    /// The snapshot field a registry key surfaces as: comm keys under their
    /// own name, the other subsystems behind their name as a prefix.
    fn field_of(key: &MetricKey) -> String {
        match (key.subsystem, key.name) {
            ("comm", name) => name.to_string(),
            (subsystem, name) => format!("{subsystem}_{name}"),
        }
    }

    #[test]
    fn every_snapshot_field_reads_its_rows_cell() {
        let reg = Registry::new();
        let stats = FabricStats::register(&reg, 2);
        // A distinct value in every cell, through its handle: histograms
        // get one observation in a bucket of their own.
        let keys: Vec<(MetricKey, MetricValue)> = reg.snapshot().entries.into_iter().collect();
        for (i, (key, kind)) in keys.iter().enumerate() {
            let v = 100 + i as u64;
            match kind {
                MetricValue::Counter(_) => reg.counter(*key).add(v),
                MetricValue::Gauge(_) => reg.gauge(*key).set(v as i64),
                MetricValue::Histogram(_) => reg.histogram(*key).record(1 << (i % 60)),
            }
        }

        // What each field must read, derived from the registry alone.
        let cells = reg.snapshot();
        let mut want: Vec<(String, u64)> = Vec::new();
        for (key, value) in &cells.entries {
            let field = field_of(key);
            match value {
                MetricValue::Counter(v) if key.rank.is_none() => want.push((field, *v)),
                MetricValue::Histogram(h) => {
                    let base = field.trim_end_matches("_ns");
                    want.push((format!("{base}_p50_ns"), h.quantile_upper_bound(0.5)));
                    want.push((format!("{base}_p99_ns"), h.quantile_upper_bound(0.99)));
                }
                // A per-rank gauge surfaces as its highest cell: rank 1's,
                // which comes later in key order and so got the larger value.
                MetricValue::Gauge(_) if key.rank == Some(1) => {
                    want.push((field, cells.gauge(key) as u64))
                }
                _ => {}
            }
        }
        // Kept in the registry but read by no report: the transport's
        // abandoned-frame count.
        want.retain(|(f, _)| f != "transport_tx_frames_abandoned");
        want.sort();

        let mut got: Vec<(String, u64)> = stats
            .snapshot()
            .fields()
            .into_iter()
            .map(|(f, v)| (f.to_string(), v))
            .collect();
        got.sort();
        assert_eq!(got, want);

        // The per-rank traffic counters, which no snapshot field reads.
        stats.count_am(0, 1, 40);
        let moved = reg.snapshot().diff(&cells);
        let bytes = |r, name| moved.counter(&MetricKey::ranked(r, "comm", name));
        assert_eq!(bytes(0, "tx_bytes"), 40);
        assert_eq!(bytes(1, "rx_bytes"), 40);
        assert_eq!(bytes(1, "tx_bytes") + bytes(0, "rx_bytes"), 0);
    }
}
