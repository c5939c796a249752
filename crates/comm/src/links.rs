//! The link layer as data (DESIGN §9): one channel per rank, one endpoint
//! per rank this process hosts over a socket, and one table of the links
//! those endpoints own. Every transport is this one shape, differently
//! filled; nothing above it asks which transport it is.
//!
//! The channels are the in-process wire: loopback, external seeds and every
//! frame that arrives over a socket end in the destination rank's channel
//! on every transport, and on [`TransportSpec::InProc`] inter-rank AMs
//! travel through it too. This module sees nothing of the fabric: it
//! returns what a send did and leaves accounting and reporting to the
//! caller.

use std::sync::Arc;
use ttg_model::sync::Mutex;

use crossbeam_channel::{unbounded, Receiver, Sender};
use ttg_telemetry::Registry;
use ttg_transport::{
    local_mesh, Endpoint, Link, Sink, TransportError, TransportKind, TransportSpec,
};

/// Logical process rank within the fabric.
pub(crate) type Rank = usize;

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

pub(crate) struct Links {
    n: usize,
    senders: Vec<Sender<Packet>>,
    receivers: Mutex<Vec<Option<Receiver<Packet>>>>,
    /// One per rank this process hosts over a socket: none for `InProc`,
    /// `n` for `Tcp`/`Uds`, one for `Remote`.
    endpoints: Vec<Arc<dyn Endpoint>>,
    /// `table[from * n + to]`: the socket link carrying `from → to`, cached
    /// at construction (`Endpoint::link` builds a fresh `Arc` per call).
    /// `None` on the diagonal, for a `from` another process hosts, and
    /// everywhere on the channel wire.
    table: Vec<Option<Arc<dyn Link>>>,
}

impl Links {
    /// Bring up the link layer `spec` names for an `n`-rank job.
    pub(crate) fn build(
        n: usize,
        spec: &TransportSpec,
        telemetry: &Arc<Registry>,
    ) -> Result<Links, TransportError> {
        // A mesh: all `n` ranks here, inter-rank frames over real sockets.
        let mesh = |kind| -> Result<Vec<Arc<dyn Endpoint>>, TransportError> {
            let endpoints = local_mesh(kind, n, telemetry)?;
            Ok(endpoints.into_iter().map(|ep| ep as _).collect())
        };
        let endpoints = match spec {
            TransportSpec::InProc => Vec::new(),
            TransportSpec::Tcp => mesh(TransportKind::Tcp)?,
            TransportSpec::Uds => mesh(TransportKind::Uds)?,
            TransportSpec::Remote(h) => vec![Arc::clone(&h.endpoint)],
        };
        let mut table: Vec<Option<Arc<dyn Link>>> = (0..n * n).map(|_| None).collect();
        for ep in &endpoints {
            let from = ep.rank();
            for to in (0..n).filter(|&to| to != from) {
                table[from * n + to] = Some(ep.link(to));
            }
        }
        let (senders, receivers) = (0..n)
            .map(|_| {
                let (tx, rx) = unbounded();
                (tx, Some(rx))
            })
            .unzip();
        Ok(Links {
            n,
            senders,
            receivers: Mutex::new(receivers),
            endpoints,
            table,
        })
    }

    /// Take ownership of rank `rank`'s packet receiver. Panics if taken
    /// twice.
    pub(crate) fn take_receiver(&self, rank: Rank) -> Receiver<Packet> {
        self.receivers.lock()[rank]
            .take()
            .expect("receiver already taken for this rank")
    }

    /// The socket link carrying `from → to`, if that pair crosses one:
    /// loopback and external-seed sentinels (`from >= n`) never do, nor
    /// does any pair on the channel wire.
    pub(crate) fn get(&self, from: Rank, to: Rank) -> Option<&Arc<dyn Link>> {
        if from == to || from >= self.n {
            return None;
        }
        self.table[from * self.n + to].as_ref()
    }

    /// Put one AM into rank `to`'s channel; `false` when the channel is
    /// closed (the rank shut down).
    pub(crate) fn enqueue(
        &self,
        from: Rank,
        to: Rank,
        handler: u32,
        seq: u64,
        payload: Vec<u8>,
    ) -> bool {
        let packet = Packet::Am {
            handler,
            from,
            seq,
            payload,
        };
        self.senders[to].send(packet).is_ok()
    }

    /// Install the receive sink of every endpoint; `sink_for(rank)` builds
    /// the one for the endpoint of `rank`.
    pub(crate) fn start(&self, sink_for: impl Fn(Rank) -> Sink) {
        for ep in &self.endpoints {
            ep.start(sink_for(ep.rank()));
        }
    }

    /// Deliver a shutdown packet to every rank and close every endpoint
    /// (flushing pending sends and notifying peers).
    pub(crate) fn shutdown(&self) {
        for tx in &self.senders {
            let _ = tx.send(Packet::Shutdown);
        }
        for ep in &self.endpoints {
            ep.shutdown();
        }
    }
}
