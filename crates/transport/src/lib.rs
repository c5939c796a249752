//! `ttg-transport`: the pluggable link layer under the TTG fabric.
//!
//! The fabric (`ttg_comm::Fabric`) models everything *above* the wire —
//! active messages, the reliable ack/retry layer, fault injection, RMA
//! emulation. This crate models the wire itself: framed byte delivery,
//! connection lifecycle, and peer addressing, behind the
//! [`Endpoint`]/[`Link`] trait pair (DESIGN §9).
//!
//! One implementation ships, over two socket kinds:
//!
//! * [`local_mesh`] over [`TransportKind::Tcp`] — TCP loopback;
//! * [`local_mesh`] over [`TransportKind::Uds`] — Unix sockets;
//!
//! plus [`remote_endpoint`], which connects one rank of a
//! **multi-process** job (one OS process per rank, spawned by the
//! `ttg-launch` binary) through a file-based rendezvous directory.
//! [`TransportKind::InProc`] names the wire that needs none of this: the
//! fabric's own per-rank channels (there is no in-process `Link`).
//!
//! Executors select a transport with [`TransportSpec`] via
//! `ExecConfig::transport`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frame;
mod link;
pub mod pool;
mod socket;

use std::sync::Arc;

use ttg_telemetry::Registry;

pub use frame::{Frame, FrameCodec, FrameError, WireBatch, MAX_FRAME, PROTOCOL_VERSION};
use link::Rank;
pub use link::{Endpoint, Link, Sink, TransportError, TransportKind, TransportMetrics};
pub use socket::{local_mesh, remote_endpoint, AddrSpec, SocketEndpoint};

/// Which link layer an execution should run on, carried by
/// `ExecConfig::transport`.
#[derive(Clone, Default)]
pub enum TransportSpec {
    /// All ranks in one process over the fabric's in-process channels.
    #[default]
    InProc,
    /// All ranks in one process, but inter-rank active messages cross real
    /// TCP-loopback sockets.
    Tcp,
    /// As [`TransportSpec::Tcp`] over Unix-domain sockets.
    Uds,
    /// This process is **one rank** of a multi-process job; the handle
    /// carries its already-connected endpoint (built by `ttg-launch` via
    /// [`remote_endpoint`]).
    Remote(RemoteHandle),
}

impl std::fmt::Debug for TransportSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportSpec::InProc => f.write_str("InProc"),
            TransportSpec::Tcp => f.write_str("Tcp"),
            TransportSpec::Uds => f.write_str("Uds"),
            TransportSpec::Remote(h) => write!(
                f,
                "Remote(rank {}/{} over {})",
                h.endpoint.rank(),
                h.endpoint.n_ranks(),
                h.endpoint.kind()
            ),
        }
    }
}

impl TransportSpec {
    /// The in-process socket-mesh spec for `kind`, or `InProc`.
    pub(crate) fn mesh(kind: TransportKind) -> TransportSpec {
        match kind {
            TransportKind::InProc => TransportSpec::InProc,
            TransportKind::Tcp => TransportSpec::Tcp,
            TransportKind::Uds => TransportSpec::Uds,
        }
    }

    /// Parse `--transport {inproc|tcp|uds}` from the process arguments
    /// (examples/benches CLI). Unknown values abort with a usage message;
    /// an absent flag means [`TransportSpec::InProc`].
    pub fn from_args() -> TransportSpec {
        let mut args = std::env::args();
        while let Some(a) = args.next() {
            let value = if a == "--transport" {
                args.next()
            } else if let Some(v) = a.strip_prefix("--transport=") {
                Some(v.to_string())
            } else {
                continue;
            };
            let Some(v) = value else { break };
            match TransportKind::parse(&v) {
                Some(k) => return TransportSpec::mesh(k),
                None => {
                    eprintln!("unknown --transport '{v}' (expected inproc, tcp, or uds)");
                    std::process::exit(2);
                }
            }
        }
        TransportSpec::InProc
    }
}

/// An already-connected remote endpoint plus the metrics registry its
/// transport counters were registered in. The fabric adopts this registry
/// so `FabricStats` and the transport see the same cells.
#[derive(Clone)]
pub struct RemoteHandle {
    /// This rank's connected endpoint.
    pub endpoint: Arc<dyn Endpoint>,
    /// Registry the endpoint's [`TransportMetrics`] live in.
    pub registry: Arc<Registry>,
}

impl RemoteHandle {
    /// Connect rank `me` of an `n`-rank multi-process job over `kind`,
    /// using rendezvous directory `dir`.
    pub fn connect(
        kind: TransportKind,
        me: Rank,
        n: usize,
        dir: &std::path::Path,
    ) -> Result<RemoteHandle, TransportError> {
        let registry = Arc::new(Registry::new());
        let endpoint = socket::remote_endpoint(kind, me, n, dir, &registry)?;
        Ok(RemoteHandle { endpoint, registry })
    }
}
