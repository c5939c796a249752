//! The transport trait contract: [`Endpoint`] / [`Link`] plus structured
//! [`TransportError`]s and the telemetry handle bundle.
//!
//! An `Endpoint` is one rank's attachment to the fabric's link layer. It
//! owns one `Link` per peer (ordered, framed, reliable-at-the-byte-level
//! delivery — TCP/UDS semantics) and delivers incoming frames through a
//! caller-installed
//! [`Sink`]. Everything above this contract — the fabric's reliable
//! ack/retry layer, fault injection, RMA emulation — is transport-agnostic.

use std::sync::Arc;

use crate::frame::Frame;

/// Logical process rank (the same `usize` as `ttg-comm`'s, without the dependency).
pub(crate) type Rank = usize;

/// Which link-layer implementation a fabric runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// In-process channels: the fabric's own per-rank channels are the
    /// wire, so this kind names a transport without [`Endpoint`]s.
    InProc,
    /// TCP over loopback/network sockets.
    Tcp,
    /// Unix-domain stream sockets.
    Uds,
}

impl TransportKind {
    /// Stable lowercase name (CLI flag value / display).
    pub(crate) fn name(&self) -> &'static str {
        match self {
            TransportKind::InProc => "inproc",
            TransportKind::Tcp => "tcp",
            TransportKind::Uds => "uds",
        }
    }

    /// Parse a CLI flag value.
    pub fn parse(s: &str) -> Option<TransportKind> {
        match s {
            "inproc" => Some(TransportKind::InProc),
            "tcp" => Some(TransportKind::Tcp),
            "uds" | "unix" => Some(TransportKind::Uds),
            _ => None,
        }
    }
}

impl std::fmt::Display for TransportKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Structured connection/link failure — never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The peer's listener did not accept within the dial budget.
    ConnectRefused {
        /// Peer rank being dialed.
        peer: Rank,
        /// OS-level detail.
        detail: String,
    },
    /// An established connection failed mid-stream (reset, broken pipe,
    /// unexpected EOF).
    PeerReset {
        /// Peer rank on the failed connection.
        peer: Rank,
        /// OS-level detail.
        detail: String,
    },
    /// The peer spoke a different protocol (bad magic, version skew,
    /// unexpected rank or rank count).
    HandshakeMismatch {
        /// Peer rank (as expected by the local side).
        peer: Rank,
        /// What disagreed.
        detail: String,
    },
    /// The link was shut down; no further sends are possible.
    Closed {
        /// Peer rank of the closed link.
        peer: Rank,
    },
    /// The peer's byte stream could not be decoded into frames.
    Framing {
        /// Peer rank that sent the garbage.
        peer: Rank,
        /// Codec diagnosis.
        detail: String,
    },
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::ConnectRefused { peer, detail } => {
                write!(f, "connect to rank {peer} refused: {detail}")
            }
            TransportError::PeerReset { peer, detail } => {
                write!(f, "connection to rank {peer} reset: {detail}")
            }
            TransportError::HandshakeMismatch { peer, detail } => {
                write!(f, "handshake with rank {peer} failed: {detail}")
            }
            TransportError::Closed { peer } => write!(f, "link to rank {peer} closed"),
            TransportError::Framing { peer, detail } => {
                write!(f, "framing error from rank {peer}: {detail}")
            }
        }
    }
}

impl std::error::Error for TransportError {}

/// Receiver callback installed with [`Endpoint::start`].
///
/// Called from transport-internal reader threads with `(source_rank,
/// frame_or_error)`. Errors report connection-level trouble attributed to
/// that peer; after a fatal error no further frames arrive from it (a
/// connection is never re-established).
pub type Sink = Arc<dyn Fn(Rank, Result<Frame, TransportError>) + Send + Sync>;

/// An ordered, framed, one-directional send channel to a single peer.
///
/// `send` enqueues onto a **bounded** per-peer queue and blocks when the
/// queue is full (backpressure, not unbounded buffering); it returns an
/// error only when the link is closed for good.
pub trait Link: Send + Sync {
    /// Rank this link delivers to.
    fn peer(&self) -> Rank;
    /// Enqueue one frame for delivery, blocking under backpressure.
    fn send(&self, frame: Frame) -> Result<(), TransportError>;
    /// Enqueue an `Am` whose payload the caller keeps sharing (the reliable
    /// layer's retransmit map): the link encodes from the borrow or queues
    /// another handle on the buffer, never an owned copy.
    fn send_am_shared(
        &self,
        from: u32,
        handler: u32,
        seq: u64,
        payload: &Arc<Vec<u8>>,
    ) -> Result<(), TransportError>;
}

/// One rank's attachment to the link layer.
pub trait Endpoint: Send + Sync {
    /// This endpoint's rank.
    fn rank(&self) -> Rank;
    /// Total ranks in the job.
    fn n_ranks(&self) -> usize;
    /// Which implementation this is.
    fn kind(&self) -> TransportKind;
    /// The send link to `to`. Panics if `to` is out of range or `self`.
    fn link(&self, to: Rank) -> Arc<dyn Link>;
    /// Install the receive sink and begin delivering frames. Frames that
    /// arrived before `start` are buffered and delivered in order.
    fn start(&self, sink: Sink);
    /// Flush pending sends, notify peers (`Bye`), and close connections.
    fn shutdown(&self);
}

ttg_telemetry::metrics! {
    /// Telemetry handles shared by all transport implementations, registered
    /// under subsystem `"transport"` in the fabric's registry; the fabric's
    /// `FabricStats` holds them, so its snapshot carries the link layer.
    #[derive(Clone, Debug)]
    pub struct TransportMetrics for ranks {
        /// Bytes handed to the OS (or peer channel) across all links, bulk
        /// bodies included.
        pub tx_bytes: counter("transport", "tx_bytes"),
        /// Bytes read off the wire across all links.
        pub rx_bytes: counter("transport", "rx_bytes"),
        /// Successful connection establishments (dial or accept + handshake).
        pub connects: counter("transport", "connects"),
        /// Connections re-established after a mid-run failure: always 0, since
        /// a connection lives as long as its endpoint. Kept for the
        /// benchmark's `transport.reconnects` row.
        pub reconnects: counter("transport", "reconnects"),
        /// Handshakes refused (magic/version/rank mismatch).
        pub handshake_failures: counter("transport", "handshake_failures"),
        /// Write syscalls issued by writer threads (one per gathered batch).
        pub tx_writes: counter("transport", "tx_writes"),
        /// Frames that rode an already-scheduled write instead of paying for
        /// their own syscall: each write of a k-frame batch adds `k - 1`.
        /// Frames-per-write = `(tx_writes + tx_frames_coalesced) / tx_writes`.
        pub tx_frames_coalesced: counter("transport", "tx_frames_coalesced"),
        /// Frames a writer dropped because its write failed and the peer had
        /// not said `Bye`: the batch in hand when the connection was lost.
        /// The writer then ends and its queue closes; this counter is the
        /// transport's only record of the loss.
        pub(crate) tx_frames_abandoned: counter("transport", "tx_frames_abandoned"),
        /// Frames whose body went to the socket from the buffer that held it
        /// (queued by ownership, written vectored) instead of being copied.
        pub tx_direct_frames: counter("transport", "tx_direct_frames"),
        /// Frames whose body was read from the socket into its final buffer.
        pub rx_direct_frames: counter("transport", "rx_direct_frames"),
        /// Per-peer send-queue high-water marks (frames), never reset: a
        /// connection lives as long as its endpoint.
        pub queue_hwm: ranked gauge("transport", "queue_hwm"),
        /// As `queue_hwm`, in queued wire bytes.
        pub queue_bytes_hwm: ranked gauge("transport", "queue_bytes_hwm"),
    }
}

impl TransportMetrics {
    /// Raise the high-water marks of `peer`'s send queue to at least
    /// `frames` and `bytes`.
    pub(crate) fn note_queue(&self, peer: Rank, frames: usize, bytes: usize) {
        for (marks, v) in [(&self.queue_hwm, frames), (&self.queue_bytes_hwm, bytes)] {
            // Load first: this runs on every send, and a raise is rare.
            if let Some(g) = marks.get(peer).filter(|g| v as i64 > g.get()) {
                g.set_max(v as i64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_marks_only_rise() {
        let reg = ttg_telemetry::Registry::new();
        let m = TransportMetrics::register(&reg, 2);
        m.note_queue(1, 7, 700);
        m.note_queue(1, 3, 900); // below the frame mark, above the byte mark
        assert_eq!((m.queue_hwm[1].get(), m.queue_bytes_hwm[1].get()), (7, 900));
        assert_eq!((m.queue_hwm[0].get(), m.queue_bytes_hwm[0].get()), (0, 0));
        // Out-of-range peers are ignored, not a panic.
        m.note_queue(9, 1, 1);
    }
}
