//! Socket transports: TCP and Unix-domain stream sockets.
//!
//! One [`SocketEndpoint`] per rank owns a listener plus one connection per
//! peer. The canonical topology is a full mesh established at startup:
//! rank `i` **dials** every rank `j < i` and **accepts** from every rank
//! `j > i`, so each pair shares exactly one duplex connection. Both
//! directions of the handshake exchange a `Hello` frame (magic, protocol
//! version, rank id, rank count) and refuse mismatches with a structured
//! [`TransportError::HandshakeMismatch`].
//!
//! A connection lives as long as its endpoint: it is established once, at
//! mesh or rendezvous time, and closed by `shutdown`. As under MPI, a lost
//! peer is a job-level failure (`ttg-launch` relaunches the job): a
//! connection that fails mid-run is reported once as
//! [`TransportError::PeerReset`], and its link then refuses sends with
//! [`TransportError::Closed`]. The accept loop keeps running only to refuse
//! strangers, a `Hello` naming an already connected rank among them.
//!
//! Per peer there is a **bounded** send queue (backpressure: `Link::send`
//! blocks when the queue is full) drained by a dedicated writer thread, and
//! a reader thread that feeds an incremental [`FrameCodec`] and hands
//! complete frames to the endpoint's sink.
//!
//! The writer is a **coalescing** drain (DESIGN §12): each wakeup takes
//! everything already queued — one [`WireBatch`], handed over by swap —
//! and writes it with a vectored write: small frames from the buffer they
//! were encoded into at push time, bulk bodies from the buffers that were
//! queued by ownership. The reader mirrors it ([`FrameCodec::read_from`]):
//! small frames decode out of the read buffer, a bulk body is read from
//! the socket into its final, pooled buffer. The queue admits an `Am` only
//! while it holds fewer than [`SEND_QUEUE_CAP`] frames and less than
//! [`SEND_QUEUE_BYTES`] bytes; every other kind is admitted at once.

use std::io::{ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use ttg_model::sync::{AtomicBool, Condvar, Mutex, Ordering};

use ttg_telemetry::Registry;

use crate::frame::{read_first, Frame, FrameCodec, WireBatch, MAGIC, PROTOCOL_VERSION};
use crate::link::{Endpoint, Link, Rank, Sink, TransportError, TransportKind, TransportMetrics};

/// Queued frames at which `Link::send` blocks an `Am`.
const SEND_QUEUE_CAP: usize = 1024;
/// Budget for one dial: retries × pause (listeners may not be up yet).
const DIAL_RETRIES: u32 = 300;
const DIAL_PAUSE: Duration = Duration::from_millis(20);
/// Budget for the peer's `Hello`, waited for in [`HANDSHAKE_POLL`] slices
/// so a stopping endpoint leaves a handshake nobody will answer at once.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);
const HANDSHAKE_POLL: Duration = Duration::from_millis(50);
/// How long rendezvous waits for all peers before giving up.
const RENDEZVOUS_TIMEOUT: Duration = Duration::from_secs(60);
/// Queued bytes at which `Link::send` blocks an `Am` (one frame is always
/// admitted, so the queue peaks below this plus one frame): enough for the
/// producer to refill while the writer is in one `writev`, and ~2 MiB per
/// streaming link instead of the frame cap's 64 MiB (measured: DESIGN
/// §12). Frames sent from a receive path (acks, barrier,
/// termination) are held by neither bound: two readers waiting on each
/// other's queues would deadlock.
const SEND_QUEUE_BYTES: usize = 1 << 20;
/// How long a writer whose write failed waits for its reader to reach the
/// peer's `Bye` (or end of stream) before treating the failure as a fault.
const BYE_GRACE: Duration = Duration::from_millis(100);

// ---------------------------------------------------------------- streams

/// A connected stream of either family.
enum Stream {
    /// TCP connection.
    Tcp(TcpStream),
    /// Unix-domain connection.
    Uds(UnixStream),
}

impl Stream {
    fn shutdown_both(&self) {
        let _ = match self {
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            Stream::Uds(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }

    fn set_read_timeout(&self, t: Option<Duration>) {
        let _ = match self {
            Stream::Tcp(s) => s.set_read_timeout(t),
            Stream::Uds(s) => s.set_read_timeout(t),
        };
    }

    fn tune(&self) {
        // Frames are latency-sensitive task messages; never Nagle them.
        if let Stream::Tcp(s) = self {
            let _ = s.set_nodelay(true);
        }
    }

    /// One [`FrameCodec::read_from`] step, through the native stream so a
    /// bulk body lands in its buffer's spare capacity without being zeroed
    /// first.
    fn read_step<F: FnMut(Frame)>(
        &self,
        codec: &mut FrameCodec,
        buf: &mut [u8],
        out: &mut F,
    ) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => codec.read_from(&mut &*s, buf, out),
            Stream::Uds(s) => codec.read_from(&mut &*s, buf, out),
        }
    }
}

impl Write for &Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => (&*s).write(buf),
            Stream::Uds(s) => (&*s).write(buf),
        }
    }
    fn write_vectored(&mut self, bufs: &[std::io::IoSlice<'_>]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => (&*s).write_vectored(bufs),
            Stream::Uds(s) => (&*s).write_vectored(bufs),
        }
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A peer address of either family, with a stable text form used by the
/// file-based rendezvous (`tcp:IP:PORT` / `uds:PATH`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AddrSpec {
    /// TCP socket address.
    Tcp(std::net::SocketAddr),
    /// Unix-domain socket path.
    Uds(PathBuf),
}

impl AddrSpec {
    /// Render the rendezvous-file text form.
    pub(crate) fn to_text(&self) -> String {
        match self {
            AddrSpec::Tcp(a) => format!("tcp:{a}"),
            AddrSpec::Uds(p) => format!("uds:{}", p.display()),
        }
    }

    /// Parse the rendezvous-file text form.
    pub fn parse(s: &str) -> Option<AddrSpec> {
        let s = s.trim();
        if let Some(rest) = s.strip_prefix("tcp:") {
            return rest.parse().ok().map(AddrSpec::Tcp);
        }
        if let Some(rest) = s.strip_prefix("uds:") {
            return Some(AddrSpec::Uds(PathBuf::from(rest)));
        }
        None
    }

    fn connect(&self) -> std::io::Result<Stream> {
        Ok(match self {
            AddrSpec::Tcp(a) => Stream::Tcp(TcpStream::connect(a)?),
            AddrSpec::Uds(p) => Stream::Uds(UnixStream::connect(p)?),
        })
    }
}

enum Listener {
    Tcp(TcpListener),
    Uds(UnixListener, PathBuf),
}

impl Listener {
    fn accept(&self) -> std::io::Result<Stream> {
        Ok(match self {
            Listener::Tcp(l) => Stream::Tcp(l.accept()?.0),
            Listener::Uds(l, _) => Stream::Uds(l.accept()?.0),
        })
    }

    fn addr(&self) -> AddrSpec {
        match self {
            Listener::Tcp(l) => AddrSpec::Tcp(l.local_addr().expect("tcp listener addr")),
            Listener::Uds(_, p) => AddrSpec::Uds(p.clone()),
        }
    }
}

// ------------------------------------------------------- bounded send queue

/// Bounded MPSC frame queue (the crossbeam shim offers only unbounded
/// channels, so backpressure is implemented here directly). Frames go into
/// one [`WireBatch`] at push time, under the queue lock; the writer takes
/// the whole backlog by swapping its own emptied batch in, so no byte is
/// copied on the way out and a batch self-sizes to the arrival rate.
struct SendQ {
    /// The queue's one lock. A blocking push or pop waits on the condvars
    /// tied to it and takes nothing else under it, and the writer writes
    /// only after its swap: no socket write happens under `state`.
    state: Mutex<QState>,
    not_full: Condvar,
    not_empty: Condvar,
}

#[derive(Default)]
struct QState {
    batch: WireBatch,
    closed: bool,
    /// Set when the writer thread exits: everything it took is written
    /// (or abandoned with a report).
    writer_gone: bool,
}

impl SendQ {
    fn new() -> SendQ {
        SendQ {
            state: Mutex::new(QState::default()),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
        }
    }

    /// Push one frame (appended by `add`). A `gated` push first waits for
    /// a frame slot and for less than [`SEND_QUEUE_BYTES`] queued; an
    /// ungated one never waits. Returns the queue's (frames, bytes) or
    /// `Err` if closed.
    fn push(&self, gated: bool, add: impl FnOnce(&mut WireBatch)) -> Result<(usize, usize), ()> {
        let mut st = self.state.lock();
        while !st.closed
            && gated
            && (st.batch.frames() >= SEND_QUEUE_CAP || st.batch.bytes() >= SEND_QUEUE_BYTES)
        {
            self.not_full.wait(&mut st);
        }
        if st.closed {
            return Err(());
        }
        add(&mut st.batch);
        self.not_empty.notify_one();
        Ok((st.batch.frames(), st.batch.bytes()))
    }

    /// Blocking pop of the whole backlog, by swap with `out` (which must
    /// be empty). `false` means the queue is closed *and* drained.
    fn pop(&self, out: &mut WireBatch) -> bool {
        let mut st = self.state.lock();
        loop {
            if st.batch.frames() > 0 {
                std::mem::swap(&mut st.batch, out);
                self.not_full.notify_all();
                return true;
            }
            if st.closed {
                return false;
            }
            self.not_empty.wait(&mut st);
        }
    }

    /// Wait until the writer of a closed queue has written everything and
    /// exited (its exit notifies `not_full`), or `deadline` passes. An
    /// empty queue is not enough: the writer may still hold the last batch
    /// it took, unwritten.
    fn wait_writer_gone(&self, deadline: Instant) {
        let mut st = self.state.lock();
        while !st.writer_gone && Instant::now() < deadline {
            self.not_full.wait_until(&mut st, deadline);
        }
    }

    /// Close the queue: further pushes fail. With `Some(frame)` that frame
    /// is appended first (ignoring the bounds) and what is pending still
    /// drains; with `None` the writer is gone and the backlog is dropped.
    fn close_with(&self, frame: Option<Frame>) {
        let mut st = self.state.lock();
        match frame {
            Some(f) if !st.closed => st.batch.push(f),
            Some(_) => {}
            None => {
                st.batch.clear();
                st.writer_gone = true;
            }
        }
        st.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

/// Whether a push of `frame` waits for the queue's bounds: only an `Am`
/// does, as every other kind can be sent from a receive path (see
/// [`SEND_QUEUE_BYTES`]).
fn gated(frame: &Frame) -> bool {
    matches!(frame, Frame::Am { .. })
}

// ------------------------------------------------------------- connections

/// Per-peer connection state: the bounded queue plus the connection,
/// established once and kept until shutdown.
struct ConnSlot {
    q: SendQ,
    /// The connection, set once by `install_stream`. Its reader and its
    /// writer share it, and shutting it down ends both.
    stream: OnceLock<Stream>,
    /// Peer announced orderly shutdown (`Bye`): EOF is not an error.
    orderly: AtomicBool,
    /// The reader has exited: it read the connection to its `Bye`, its end
    /// or an error (see `write_batches`).
    reader_done: AtomicBool,
    /// This connection's failure has been reported: the reader and the
    /// writer may both meet it, and it is reported once.
    failed: AtomicBool,
}

/// A handshaken connection: the stream, the decoder that read the peer's
/// `Hello` (it may hold the start of the next frame) and the frames that
/// came in behind the `Hello` in the same reads.
struct Handshaken {
    peer: Rank,
    stream: Stream,
    codec: FrameCodec,
    behind: Vec<Frame>,
}

struct Inner {
    me: Rank,
    n: usize,
    kind: TransportKind,
    listener: Listener,
    /// `conns[p]` is `None` only for `p == me`.
    conns: Vec<Option<ConnSlot>>,
    sink: OnceLock<Sink>,
    stop: AtomicBool,
    metrics: TransportMetrics,
    /// Number of peers with an established connection, guarded for
    /// rendezvous waiting.
    ready: Mutex<usize>,
    /// Notified under the `ready` lock when a connection is up, when the
    /// sink is installed, when a reader exits and at shutdown: every
    /// thread of the endpoint that waits, parks here ([`Inner::park`]).
    ready_cv: Condvar,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Inner {
    fn slot(&self, peer: Rank) -> &ConnSlot {
        self.conns[peer].as_ref().expect("conn slot")
    }

    /// Park on `ready_cv` until `probe` yields, or give up (`None`) once
    /// the endpoint stops or `deadline` passes. What `probe` reads is
    /// published before `ready_cv` is notified under the `ready` lock, so
    /// the check below cannot miss it.
    fn park<T>(&self, deadline: Option<Instant>, probe: impl Fn() -> Option<T>) -> Option<T> {
        let mut r = self.ready.lock();
        loop {
            if let Some(v) = probe() {
                return Some(v);
            }
            if self.stop.load(Ordering::SeqCst) || deadline.is_some_and(|d| Instant::now() >= d) {
                return None;
            }
            match deadline {
                Some(d) => {
                    self.ready_cv.wait_until(&mut r, d);
                }
                None => self.ready_cv.wait(&mut r),
            }
        }
    }

    /// Wake everything parked on `ready_cv` (its state changed).
    fn notify_ready(&self) {
        let _r = self.ready.lock();
        self.ready_cv.notify_all();
    }

    /// The connection to `peer` failed with `err`. Unless the peer said
    /// `Bye` or this endpoint is stopping — then the connection merely
    /// ended — that is a fault, reported once per connection; `true` says
    /// it was one. Either way the connection is shut down: its reader
    /// returns, its writer's next write fails and ends the writer, and the
    /// peer's reader meets the end.
    fn fail(&self, peer: Rank, err: TransportError) -> bool {
        let slot = self.slot(peer);
        let fault = !self.stop.load(Ordering::SeqCst) && !slot.orderly.load(Ordering::SeqCst);
        if fault && !slot.failed.swap(true, Ordering::SeqCst) {
            if let Some(s) = self.sink.get() {
                s(peer, Err(err));
            }
        }
        if let Some(s) = slot.stream.get() {
            s.shutdown_both();
        }
        fault
    }

    /// Install a handshaken connection and spawn its reader. A connection
    /// lives as long as the endpoint: a `Hello` naming a rank that is
    /// already connected is refused, counted as a failed handshake.
    fn install_stream(self: &Arc<Self>, h: Handshaken) {
        let Handshaken {
            peer,
            stream,
            codec,
            behind,
        } = h;
        stream.tune();
        if self.stop.load(Ordering::SeqCst) {
            return;
        }
        if self.slot(peer).stream.set(stream).is_err() {
            self.metrics.handshake_failures.inc();
            return;
        }
        self.metrics.connects.inc();
        {
            let mut r = self.ready.lock();
            *r += 1;
            self.ready_cv.notify_all();
        }
        let inner = Arc::clone(self);
        let h = std::thread::Builder::new()
            .name(format!("ttg-rx-{}-{}", self.me, peer))
            .spawn(move || inner.reader_loop(peer, codec, behind))
            .expect("spawn transport reader");
        self.threads.lock().push(h);
    }

    fn reader_loop(self: Arc<Self>, peer: Rank, mut codec: FrameCodec, behind: Vec<Frame>) {
        if let Some(sink) = self.park(None, || self.sink.get().cloned()) {
            if let Err(e) = self.read_frames(peer, &mut codec, behind, &sink) {
                self.fail(peer, e);
            }
        }
        self.slot(peer).reader_done.store(true, Ordering::SeqCst);
        self.notify_ready();
    }

    /// Deliver `behind` (the frames that rode in behind the peer's
    /// `Hello`), then read the connection until the peer's `Bye` (`Ok`) or
    /// a failure.
    fn read_frames(
        &self,
        peer: Rank,
        codec: &mut FrameCodec,
        behind: Vec<Frame>,
        sink: &Sink,
    ) -> Result<(), TransportError> {
        let slot = self.slot(peer);
        let stream = slot.stream.get().expect("installed before its reader");
        let mut buf = vec![0u8; 64 * 1024];
        let bye = std::cell::Cell::new(false);
        let mut deliver = |frame: Frame| match frame {
            Frame::Bye { .. } => bye.set(true),
            // Handshakes happen before install; a late Hello is harmless
            // chatter.
            Frame::Hello { .. } => {}
            frame => sink(peer, Ok(frame)),
        };
        behind.into_iter().for_each(&mut deliver);
        let reset = |detail: String| TransportError::PeerReset { peer, detail };
        while !bye.get() {
            let bulk_before = codec.bulk_frames();
            let got = stream.read_step(codec, &mut buf, &mut deliver);
            self.metrics
                .rx_direct_frames
                .add(codec.bulk_frames() - bulk_before);
            match got {
                Ok(0) => return Err(reset("unexpected eof".into())),
                Ok(k) => self.metrics.rx_bytes.add(k as u64),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::InvalidData => {
                    let detail = e.to_string();
                    return Err(TransportError::Framing { peer, detail });
                }
                // Includes a stream that ended inside a bulk body.
                Err(e) => return Err(reset(e.to_string())),
            }
        }
        slot.orderly.store(true, Ordering::SeqCst);
        Ok(())
    }

    fn writer_loop(self: Arc<Self>, peer: Rank) {
        let slot = self.slot(peer);
        // Frames queued during rendezvous wait here for the connection.
        if let Some(stream) = self.park(None, || slot.stream.get()) {
            self.write_batches(peer, stream);
        }
        // No writer, no queue: what is left is dropped, and senders get
        // `Closed` instead of blocking on a queue nobody drains.
        slot.q.close_with(None);
    }

    fn write_batches(&self, peer: Rank, stream: &Stream) {
        let slot = self.slot(peer);
        // Swapped with the queue's batch on every wakeup.
        let mut batch = WireBatch::default();
        loop {
            batch.clear();
            if !slot.q.pop(&mut batch) {
                return; // queue closed and drained
            }
            let frames = batch.frames() as u64;
            if let Err(e) = batch.write_to(&mut &*stream) {
                // Usually the peer closed after its `Bye`, which our reader
                // may not have reached yet: let it read the connection to
                // its end before calling this a fault.
                self.park(Some(Instant::now() + BYE_GRACE), || {
                    slot.reader_done.load(Ordering::SeqCst).then_some(())
                });
                let detail = format!("send failed: {e}");
                if self.fail(peer, TransportError::PeerReset { peer, detail }) {
                    // The batch is lost: make the loss countable, not just
                    // printable.
                    self.metrics.tx_frames_abandoned.add(frames);
                }
                return;
            }
            self.metrics.tx_bytes.add(batch.bytes() as u64);
            self.metrics.tx_writes.inc();
            self.metrics.tx_frames_coalesced.add(frames - 1);
            self.metrics
                .tx_direct_frames
                .add(batch.bulk_frames() as u64);
        }
    }

    /// Dial `peer` at `addr` with retry (its listener may not be up yet)
    /// and run the initiator side of the handshake.
    fn dial(&self, peer: Rank, addr: &AddrSpec) -> Result<Handshaken, TransportError> {
        let mut last = String::new();
        for _ in 0..DIAL_RETRIES {
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            match addr.connect() {
                Ok(stream) => return self.handshake(stream, Some(peer)),
                Err(e) => {
                    last = e.to_string();
                    std::thread::sleep(DIAL_PAUSE);
                }
            }
        }
        Err(TransportError::ConnectRefused { peer, detail: last })
    }

    /// Exchange `Hello` frames on a fresh stream. Both sides write first,
    /// then read (frames are tiny; no deadlock through socket buffers).
    /// The `Hello` is read through the reader's own path, and whatever the
    /// same reads pulled in behind it is handed over with the decoder (see
    /// [`Handshaken`]). On any disagreement counts a handshake failure and
    /// returns [`TransportError::HandshakeMismatch`].
    fn handshake(
        &self,
        stream: Stream,
        expect: Option<Rank>,
    ) -> Result<Handshaken, TransportError> {
        let fail = |detail: String| {
            self.metrics.handshake_failures.inc();
            Err(TransportError::HandshakeMismatch {
                peer: expect.unwrap_or(usize::MAX),
                detail,
            })
        };
        stream.set_read_timeout(Some(HANDSHAKE_POLL));
        let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
        let hello = Frame::Hello {
            magic: MAGIC,
            version: PROTOCOL_VERSION,
            rank: self.me as u32,
            ranks: self.n as u32,
        };
        if let Err(e) = (&stream).write_all(&hello.encode_vec()) {
            return fail(format!("hello send failed: {e}"));
        }
        let retry = |e: &std::io::Error| {
            matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
                && Instant::now() < deadline
                && !self.stop.load(Ordering::SeqCst)
        };
        let first = match &stream {
            Stream::Tcp(s) => read_first(&mut &*s, retry),
            Stream::Uds(s) => read_first(&mut &*s, retry),
        };
        let (codec, mut got) = match first {
            Ok(first) => first,
            Err(e) if e.kind() == ErrorKind::UnexpectedEof => {
                return fail("peer closed during handshake".into())
            }
            Err(e) => return fail(format!("hello read failed: {e}")),
        };
        let frame = got.remove(0);
        let Frame::Hello {
            magic,
            version,
            rank,
            ranks,
        } = frame
        else {
            return fail(format!("expected Hello, got {frame:?}"));
        };
        if magic != MAGIC {
            return fail(format!("bad magic {magic:#x}"));
        }
        if version != PROTOCOL_VERSION {
            return fail(format!("protocol version {version} != {PROTOCOL_VERSION}"));
        }
        if ranks as usize != self.n {
            return fail(format!(
                "peer believes job has {ranks} ranks, not {}",
                self.n
            ));
        }
        let rank = rank as usize;
        if rank >= self.n || rank == self.me {
            return fail(format!("peer claims invalid rank {rank}"));
        }
        match expect {
            Some(want) if rank != want => {
                return fail(format!("dialed rank {want} but reached rank {rank}"))
            }
            // Rank `i` dials every `j < i`: no lower rank dials this one.
            None if rank < self.me => return fail(format!("lower rank {rank} dialed")),
            _ => {}
        }
        stream.set_read_timeout(None);
        Ok(Handshaken {
            peer: rank,
            stream,
            codec,
            behind: got,
        })
    }

    fn accept_loop(self: Arc<Self>) {
        while !self.stop.load(Ordering::SeqCst) {
            match self.listener.accept() {
                // The shutdown dummy-dial.
                Ok(_) if self.stop.load(Ordering::SeqCst) => return,
                Ok(stream) => {
                    // A refused handshake is counted in handshake_failures;
                    // the stranger's stream just drops.
                    if let Ok(h) = self.handshake(stream, None) {
                        self.install_stream(h);
                    }
                }
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }

    /// Block until `want` peer connections are established.
    fn wait_ready(&self, want: usize, timeout: Duration) -> Result<(), TransportError> {
        let deadline = Instant::now() + timeout;
        let mut r = self.ready.lock();
        while *r < want {
            let now = Instant::now();
            if now >= deadline {
                let have = *r;
                drop(r);
                return Err(TransportError::ConnectRefused {
                    peer: usize::MAX,
                    detail: format!("rendezvous timeout: {have}/{want} peers connected"),
                });
            }
            self.ready_cv.wait_for(&mut r, deadline - now);
        }
        Ok(())
    }
}

/// One rank's endpoint of a TCP or UDS mesh.
pub struct SocketEndpoint {
    inner: Arc<Inner>,
}

impl SocketEndpoint {}

struct SocketLink {
    inner: Arc<Inner>,
    peer: Rank,
}

impl SocketLink {
    /// Queue one frame (appended by `add`), a `gated` one blocking under
    /// backpressure.
    fn push(&self, gated: bool, add: impl FnOnce(&mut WireBatch)) -> Result<(), TransportError> {
        match self.inner.slot(self.peer).q.push(gated, add) {
            Ok((frames, bytes)) => {
                self.inner.metrics.note_queue(self.peer, frames, bytes);
                Ok(())
            }
            Err(()) => Err(TransportError::Closed { peer: self.peer }),
        }
    }
}

impl Link for SocketLink {
    fn peer(&self) -> Rank {
        self.peer
    }

    fn send(&self, frame: Frame) -> Result<(), TransportError> {
        self.push(gated(&frame), |batch| batch.push(frame))
    }

    fn send_am_shared(
        &self,
        from: u32,
        handler: u32,
        seq: u64,
        payload: &Arc<Vec<u8>>,
    ) -> Result<(), TransportError> {
        self.push(true, |batch| {
            batch.push_am_shared(from, handler, seq, payload)
        })
    }
}

impl Endpoint for SocketEndpoint {
    fn rank(&self) -> Rank {
        self.inner.me
    }

    fn n_ranks(&self) -> usize {
        self.inner.n
    }

    fn kind(&self) -> TransportKind {
        self.inner.kind
    }

    fn link(&self, to: Rank) -> Arc<dyn Link> {
        assert!(
            to < self.inner.n && to != self.inner.me,
            "bad link target {to}"
        );
        Arc::new(SocketLink {
            inner: Arc::clone(&self.inner),
            peer: to,
        })
    }

    fn start(&self, sink: Sink) {
        // Readers park until the sink is installed; this releases them.
        let _ = self.inner.sink.set(sink);
        self.inner.notify_ready();
    }

    fn shutdown(&self) {
        let inner = &self.inner;
        if inner.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Releases readers waiting for the sink and writers waiting for a
        // connection that never came, or for their reader.
        inner.notify_ready();
        // Queue a Bye on every link and close the queues: writers flush
        // everything pending (including the Bye) and exit.
        let bye = Frame::Bye {
            from: inner.me as u32,
        };
        for slot in inner.conns.iter().flatten() {
            slot.q.close_with(Some(bye.clone()));
        }
        // Unblock the accept loop with a dummy dial to our own listener.
        let _ = inner.listener.addr().connect();
        // Let each writer flush everything, its Bye included, and exit
        // (within a bound), then shut the connections down so blocked
        // readers return.
        let threads = std::mem::take(&mut *inner.threads.lock());
        let deadline = Instant::now() + Duration::from_secs(2);
        for slot in inner.conns.iter().flatten() {
            slot.q.wait_writer_gone(deadline);
            if let Some(s) = slot.stream.get() {
                s.shutdown_both();
            }
        }
        for t in threads {
            let _ = t.join();
        }
        if let Listener::Uds(_, path) = &inner.listener {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for SocketEndpoint {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn bind_listener(kind: TransportKind, uds_path: Option<PathBuf>) -> std::io::Result<Listener> {
    Ok(match kind {
        TransportKind::Tcp => Listener::Tcp(TcpListener::bind(("127.0.0.1", 0))?),
        TransportKind::Uds => {
            let path = uds_path.expect("uds listener needs a socket path");
            let _ = std::fs::remove_file(&path);
            Listener::Uds(UnixListener::bind(&path)?, path)
        }
        TransportKind::InProc => unreachable!("inproc has no listener"),
    })
}

fn new_inner(
    me: Rank,
    n: usize,
    kind: TransportKind,
    listener: Listener,
    reg: &Registry,
) -> Arc<Inner> {
    let inner = Arc::new(Inner {
        me,
        n,
        kind,
        listener,
        conns: (0..n)
            .map(|p| {
                (p != me).then(|| ConnSlot {
                    q: SendQ::new(),
                    stream: OnceLock::new(),
                    orderly: AtomicBool::new(false),
                    reader_done: AtomicBool::new(false),
                    failed: AtomicBool::new(false),
                })
            })
            .collect(),
        sink: OnceLock::new(),
        stop: AtomicBool::new(false),
        metrics: TransportMetrics::register(reg, n),
        ready: Mutex::new(0),
        ready_cv: Condvar::new(),
        threads: Mutex::new(Vec::new()),
    });
    // Writer threads exist for the endpoint's lifetime; the accept loop
    // admits the peers that dial this rank and refuses everyone else.
    let mut threads = inner.threads.lock();
    for p in 0..n {
        if p == me {
            continue;
        }
        let i = Arc::clone(&inner);
        threads.push(
            std::thread::Builder::new()
                .name(format!("ttg-tx-{me}-{p}"))
                .spawn(move || i.writer_loop(p))
                .expect("spawn transport writer"),
        );
    }
    let i = Arc::clone(&inner);
    threads.push(
        std::thread::Builder::new()
            .name(format!("ttg-accept-{me}"))
            .spawn(move || i.accept_loop())
            .expect("spawn transport acceptor"),
    );
    drop(threads);
    inner
}

/// Fresh directory for a mesh/job's Unix sockets and rendezvous files.
fn scratch_dir(tag: &str) -> std::io::Result<PathBuf> {
    let base = std::env::temp_dir();
    for salt in 0.. {
        let dir = base.join(format!("ttg-{tag}-{}-{salt}", std::process::id()));
        match std::fs::create_dir(&dir) {
            Ok(()) => return Ok(dir),
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
            Err(e) => return Err(e),
        }
    }
    unreachable!()
}

fn io_err(peer: Rank, e: std::io::Error) -> TransportError {
    TransportError::ConnectRefused {
        peer,
        detail: e.to_string(),
    }
}

/// Build a fully connected `n`-rank socket mesh inside one process (the
/// fabric's tier-1 socket mode): every inter-rank frame crosses a real
/// TCP-loopback or Unix-domain socket. Element `r` is rank `r`'s endpoint;
/// all share `reg` for transport counters.
pub fn local_mesh(
    kind: TransportKind,
    n: usize,
    reg: &Registry,
) -> Result<Vec<Arc<SocketEndpoint>>, TransportError> {
    let uds_dir = if kind == TransportKind::Uds {
        Some(scratch_dir("mesh").map_err(|e| io_err(usize::MAX, e))?)
    } else {
        None
    };
    let mut inners = Vec::with_capacity(n);
    for me in 0..n {
        let path = uds_dir.as_ref().map(|d| d.join(format!("rank-{me}.sock")));
        let listener = bind_listener(kind, path).map_err(|e| io_err(me, e))?;
        inners.push(new_inner(me, n, kind, listener, reg));
    }
    // Rank i dials every j < i; accepts fill in the rest.
    for inner in inners.iter() {
        for (j, peer) in inners[..inner.me].iter().enumerate() {
            inner.install_stream(inner.dial(j, &peer.listener.addr())?);
        }
    }
    for inner in inners.iter() {
        inner.wait_ready(n - 1, RENDEZVOUS_TIMEOUT)?;
    }
    Ok(inners
        .into_iter()
        .map(|inner| Arc::new(SocketEndpoint { inner }))
        .collect())
}

/// Atomically publish this rank's address in the rendezvous directory.
fn write_addr_file(dir: &Path, rank: Rank, addr: &AddrSpec) -> std::io::Result<()> {
    let tmp = dir.join(format!(".rank-{rank}.addr.tmp"));
    std::fs::write(&tmp, addr.to_text())?;
    std::fs::rename(&tmp, dir.join(format!("rank-{rank}.addr")))
}

/// Poll for a peer's published address.
fn read_addr_file(dir: &Path, rank: Rank, deadline: Instant) -> Result<AddrSpec, TransportError> {
    let path = dir.join(format!("rank-{rank}.addr"));
    loop {
        if let Ok(text) = std::fs::read_to_string(&path) {
            if let Some(addr) = AddrSpec::parse(&text) {
                return Ok(addr);
            }
        }
        if Instant::now() >= deadline {
            return Err(TransportError::ConnectRefused {
                peer: rank,
                detail: format!("no rendezvous file {} in time", path.display()),
            });
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Build one rank's endpoint of a **multi-process** job (tier-2): bind a
/// listener, publish its address in the shared rendezvous directory `dir`,
/// dial every lower rank as its address appears, and accept every higher
/// rank. Blocks until the full mesh is up or `RENDEZVOUS_TIMEOUT` passes.
pub fn remote_endpoint(
    kind: TransportKind,
    me: Rank,
    n: usize,
    dir: &Path,
    reg: &Registry,
) -> Result<Arc<SocketEndpoint>, TransportError> {
    assert!(me < n, "rank {me} out of range for {n} ranks");
    let path = (kind == TransportKind::Uds).then(|| dir.join(format!("rank-{me}.sock")));
    let listener = bind_listener(kind, path).map_err(|e| io_err(me, e))?;
    let addr = listener.addr();
    let inner = new_inner(me, n, kind, listener, reg);
    write_addr_file(dir, me, &addr).map_err(|e| io_err(me, e))?;
    let deadline = Instant::now() + RENDEZVOUS_TIMEOUT;
    for j in 0..me {
        let peer_addr = read_addr_file(dir, j, deadline)?;
        inner.install_stream(inner.dial(j, &peer_addr)?);
    }
    inner.wait_ready(n.saturating_sub(1), RENDEZVOUS_TIMEOUT)?;
    Ok(Arc::new(SocketEndpoint { inner }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex as PMutex;
    use std::io::Read;
    use ttg_telemetry::MetricKey;

    fn collect_sink() -> (Sink, Arc<PMutex<Vec<(Rank, Frame)>>>) {
        let got: Arc<PMutex<Vec<(Rank, Frame)>>> = Arc::new(PMutex::new(Vec::new()));
        let g = Arc::clone(&got);
        let sink: Sink = Arc::new(move |src, ev| {
            if let Ok(f) = ev {
                g.lock().push((src, f));
            }
        });
        (sink, got)
    }

    fn error_sink() -> (Sink, Arc<PMutex<Vec<TransportError>>>) {
        let errors: Arc<PMutex<Vec<TransportError>>> = Arc::new(PMutex::new(Vec::new()));
        let e = Arc::clone(&errors);
        let sink: Sink = Arc::new(move |_, ev| {
            if let Err(err) = ev {
                e.lock().push(err);
            }
        });
        (sink, errors)
    }

    fn wait_for<F: Fn() -> bool>(cond: F, what: &str) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "timeout waiting for {what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn counter(reg: &Registry, name: &'static str) -> u64 {
        reg.snapshot()
            .counter(&MetricKey::global("transport", name))
    }

    fn hello_from(rank: u32) -> Vec<u8> {
        Frame::Hello {
            magic: MAGIC,
            version: PROTOCOL_VERSION,
            rank,
            ranks: 2,
        }
        .encode_vec()
    }

    /// Rank 0 of a 2-rank TCP job that rank 1 has not dialed yet: the test
    /// dials in as rank 1.
    fn lone_endpoint(reg: &Registry) -> (SocketEndpoint, std::net::SocketAddr) {
        let listener = bind_listener(TransportKind::Tcp, None).expect("listener");
        let ep = SocketEndpoint {
            inner: new_inner(0, 2, TransportKind::Tcp, listener, reg),
        };
        let AddrSpec::Tcp(addr) = ep.inner.listener.addr() else {
            panic!("tcp addr")
        };
        (ep, addr)
    }

    /// The endpoint dropped the stranger's connection: it reads to EOF
    /// (past the endpoint's own `Hello`).
    fn assert_dropped(mut s: TcpStream) {
        let mut buf = [0u8; 64];
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        loop {
            match s.read(&mut buf) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(e) => panic!("expected EOF, got {e}"),
            }
        }
    }

    fn mesh_roundtrip(kind: TransportKind) {
        let reg = Registry::new();
        let eps = local_mesh(kind, 3, &reg).expect("mesh");
        let mut gots = Vec::new();
        for ep in &eps {
            let (sink, got) = collect_sink();
            ep.start(sink);
            gots.push(got);
        }
        // 0 -> 2 ordered burst, 2 -> 0 single, 1 -> 0 single.
        for seq in 1..=20u64 {
            eps[0]
                .link(2)
                .send(Frame::Am {
                    from: 0,
                    handler: 9,
                    seq,
                    payload: vec![seq as u8; 100],
                })
                .unwrap();
        }
        eps[2].link(0).send(Frame::TermProbe { round: 1 }).unwrap();
        eps[1].link(0).send(Frame::TermProbe { round: 2 }).unwrap();
        wait_for(|| gots[2].lock().len() == 20, "rank 2 frames");
        wait_for(|| gots[0].lock().len() == 2, "rank 0 frames");
        // Per-link FIFO: rank 2 sees 0's burst in sequence order.
        let r2 = gots[2].lock();
        for (i, (src, f)) in r2.iter().enumerate() {
            assert_eq!(*src, 0);
            match f {
                Frame::Am { seq, payload, .. } => {
                    assert_eq!(*seq, i as u64 + 1);
                    assert_eq!(payload.len(), 100);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        drop(r2);
        // Writer accounting: every queued frame either had its own write
        // or rode a coalesced one — 22 frames were sent above. (Handshake
        // Hellos are written inline, outside the writer counters.) A
        // writer counts its write after it returned: wait for the last.
        let counted = || counter(&reg, "tx_writes") + counter(&reg, "tx_frames_coalesced");
        wait_for(|| counted() >= 22, "the writers' counts");
        assert_eq!(counted(), 22, "frames-per-write accounting");
        // Telemetry: connections were counted, bytes moved, hwm recorded.
        let snap = reg.snapshot();
        assert_eq!(snap.counter(&MetricKey::global("transport", "connects")), 6);
        assert!(snap.counter(&MetricKey::global("transport", "tx_bytes")) > 2000);
        assert!(snap.counter(&MetricKey::global("transport", "rx_bytes")) > 2000);
        assert_eq!(
            snap.counter(&MetricKey::global("transport", "tx_frames_abandoned")),
            0
        );
        assert!(snap.gauge(&MetricKey::ranked(2, "transport", "queue_hwm")) >= 1);
        for ep in &eps {
            ep.shutdown();
        }
    }

    #[test]
    fn tcp_mesh_roundtrip_ordered() {
        mesh_roundtrip(TransportKind::Tcp);
    }

    #[test]
    fn uds_mesh_roundtrip_ordered() {
        mesh_roundtrip(TransportKind::Uds);
    }

    #[test]
    fn a_burst_queued_before_the_connection_leaves_in_one_write() {
        // The writer waits for its connection and then takes the whole
        // backlog: the burst follows the endpoint's Hello, in order, in one
        // gathered write.
        let reg = Registry::new();
        let (ep, addr) = lone_endpoint(&reg);
        let am = |seq: u64| Frame::Am {
            from: 0,
            handler: 9,
            seq,
            payload: vec![seq as u8; 100],
        };
        for seq in 1..=20 {
            ep.link(1).send(am(seq)).unwrap();
        }
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&hello_from(1)).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let (mut codec, mut got, mut buf) = (FrameCodec::new(), Vec::new(), [0u8; 4096]);
        while got.len() < 21 {
            let k = s.read(&mut buf).unwrap();
            assert!(k > 0, "stream ended after {} frames", got.len());
            codec.feed(&buf[..k], &mut |f| got.push(f)).unwrap();
        }
        assert!(matches!(got[0], Frame::Hello { rank: 0, .. }));
        assert_eq!(got[1..], (1..=20).map(am).collect::<Vec<_>>());
        // The writer counts a write after it returned, ending with the
        // frames that rode along.
        wait_for(
            || counter(&reg, "tx_frames_coalesced") > 0,
            "the write's count",
        );
        let writes = (
            counter(&reg, "tx_writes"),
            counter(&reg, "tx_frames_coalesced"),
        );
        assert_eq!(writes, (1, 19));
        ep.shutdown();
    }

    #[test]
    fn frames_right_behind_hello_are_not_lost() {
        // Regression: the accept-side handshake used to read the peer's
        // Hello into a throwaway decoder, silently dropping any bytes of
        // the frames behind it and desynchronizing the stream (seen as
        // flaky multi-process barrier hangs). Write Hello, an Am and a bulk
        // Am in a single burst: both must reach the sink, the second with
        // its head read by the handshake and its body received in place.
        let reg = Registry::new();
        let (ep, addr) = lone_endpoint(&reg);
        let (sink, got) = collect_sink();
        ep.start(sink);
        let mut s = TcpStream::connect(addr).unwrap();
        let mut burst = hello_from(1);
        Frame::Am {
            from: 1,
            handler: 3,
            seq: 9,
            payload: vec![7u8; 32],
        }
        .encode(&mut burst);
        let bulk = Frame::Am {
            from: 1,
            handler: 3,
            seq: 10,
            payload: (0..70_000u32).map(|i| (i % 251) as u8).collect(),
        };
        bulk.encode(&mut burst);
        s.write_all(&burst).unwrap();
        wait_for(|| got.lock().len() == 2, "both ams riding behind the hello");
        let got = got.lock();
        assert!(matches!(got[0], (1, Frame::Am { seq: 9, .. })));
        assert_eq!(got[1], (1, bulk));
        drop(got);
        ep.shutdown();
    }

    #[test]
    fn handshake_mismatch_is_counted_and_refused() {
        let reg = Registry::new();
        let eps = local_mesh(TransportKind::Tcp, 2, &reg).expect("mesh");
        let (sink, _got) = collect_sink();
        eps[0].start(sink);
        let AddrSpec::Tcp(addr) = eps[0].inner.listener.addr() else {
            panic!("tcp addr")
        };
        // A stranger with the wrong magic dials rank 0's listener.
        let mut s = TcpStream::connect(addr).unwrap();
        let bad = Frame::Hello {
            magic: 0xDEAD_BEEF,
            version: PROTOCOL_VERSION,
            rank: 1,
            ranks: 2,
        };
        s.write_all(&bad.encode_vec()).unwrap();
        wait_for(
            || counter(&reg, "handshake_failures") >= 1,
            "handshake failure count",
        );
        assert_dropped(s);
        for ep in &eps {
            ep.shutdown();
        }
    }

    #[test]
    fn a_strangers_hello_for_a_connected_rank_is_refused() {
        // A valid Hello claiming rank 1, with an Am behind it, after the
        // mesh is up: refused and counted, and rank 1 keeps its link.
        let reg = Registry::new();
        let eps = local_mesh(TransportKind::Tcp, 2, &reg).expect("mesh");
        let (sink, got) = collect_sink();
        eps[0].start(sink);
        let AddrSpec::Tcp(addr) = eps[0].inner.listener.addr() else {
            panic!("tcp addr")
        };
        let mut s = TcpStream::connect(addr).unwrap();
        let mut burst = hello_from(1);
        Frame::Am {
            from: 1,
            handler: 3,
            seq: 666,
            payload: vec![6u8; 8],
        }
        .encode(&mut burst);
        s.write_all(&burst).unwrap();
        wait_for(
            || counter(&reg, "handshake_failures") == 1,
            "the stranger's refusal",
        );
        assert_dropped(s);
        eps[1].link(0).send(Frame::TermProbe { round: 7 }).unwrap();
        wait_for(|| !got.lock().is_empty(), "rank 1's frame");
        for ep in &eps {
            ep.shutdown();
        }
        assert_eq!(*got.lock(), vec![(1, Frame::TermProbe { round: 7 })]);
        assert_eq!(
            (counter(&reg, "connects"), counter(&reg, "reconnects")),
            (2, 0)
        );
    }

    fn cut_connection(kind: TransportKind) {
        // A connection cut without Bye is a lost peer: each side reports it
        // once, both links close, nothing redials, and teardown is prompt.
        let reg = Registry::new();
        let eps = local_mesh(kind, 2, &reg).expect("mesh");
        let mut errors = Vec::new();
        for ep in &eps {
            let (sink, errs) = error_sink();
            ep.start(sink);
            errors.push(errs);
        }
        let stream = eps[0].inner.slot(1).stream.get().expect("connected");
        stream.shutdown_both();
        let cut = Instant::now();
        for (from, to) in [(0, 1), (1, 0)] {
            // A frame sent before its side has met the cut is abandoned.
            let link = eps[from].link(to);
            while link.send(Frame::TermDone) != Err(TransportError::Closed { peer: to }) {
                let open = cut.elapsed();
                assert!(
                    open < Duration::from_millis(500),
                    "{kind}: {from}->{to} open"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        for ep in &eps {
            let t = Instant::now();
            ep.shutdown();
            let took = t.elapsed();
            assert!(
                took < Duration::from_millis(200),
                "{kind}: shutdown {took:?}"
            );
        }
        for (r, errs) in errors.iter().enumerate() {
            let errs = errs.lock();
            let once = matches!(errs[..], [TransportError::PeerReset { .. }]);
            assert!(once, "{kind}: rank {r} reported {:?}", &errs[..]);
        }
        assert_eq!(counter(&reg, "reconnects"), 0);
        assert!(counter(&reg, "tx_frames_abandoned") >= 2);
    }

    #[test]
    fn tcp_cut_connection_is_reported_once_and_closes_both_links() {
        cut_connection(TransportKind::Tcp);
    }

    #[test]
    fn uds_cut_connection_is_reported_once_and_closes_both_links() {
        cut_connection(TransportKind::Uds);
    }

    #[test]
    fn version_skew_is_refused() {
        let reg = Registry::new();
        let eps = local_mesh(TransportKind::Tcp, 2, &reg).expect("mesh");
        let AddrSpec::Tcp(addr) = eps[1].inner.listener.addr() else {
            panic!("tcp addr")
        };
        let mut s = TcpStream::connect(addr).unwrap();
        let skewed = Frame::Hello {
            magic: MAGIC,
            version: PROTOCOL_VERSION + 1,
            rank: 0,
            ranks: 2,
        };
        s.write_all(&skewed.encode_vec()).unwrap();
        wait_for(
            || counter(&reg, "handshake_failures") >= 1,
            "version-skew refusal",
        );
        for ep in &eps {
            ep.shutdown();
        }
    }

    #[test]
    fn closed_link_reports_structured_error() {
        let reg = Registry::new();
        let eps = local_mesh(TransportKind::Tcp, 2, &reg).expect("mesh");
        eps[0].shutdown();
        let err = eps[0].link(1).send(Frame::TermDone).unwrap_err();
        assert_eq!(err, TransportError::Closed { peer: 1 });
        eps[1].shutdown();
    }

    #[test]
    fn send_queue_hands_over_by_swap_and_gates_ams_by_bytes() {
        let am = |n: usize| Frame::Am {
            from: 0,
            handler: 1,
            seq: 9,
            payload: vec![3u8; n],
        };
        let q = Arc::new(SendQ::new());
        // Small, bulk and control frames leave together, by swap.
        for f in [am(80), am(70_000), Frame::TermDone] {
            q.push(true, |b| b.push(f)).unwrap();
        }
        let mut batch = WireBatch::default();
        assert!(q.pop(&mut batch));
        assert_eq!((batch.frames(), batch.bulk_frames()), (3, 1));
        // The byte bound admits one frame past itself, holds the next
        // gated push until the writer pops, and never holds an ungated one.
        let mut bytes = 0;
        while bytes < SEND_QUEUE_BYTES {
            bytes = q.push(true, |b| b.push(am(65_536))).unwrap().1;
        }
        assert!(bytes < SEND_QUEUE_BYTES + 65_536 + 32);
        q.push(false, |b| b.push(am(65_536))).unwrap();
        let gated = {
            let (q, frame) = (Arc::clone(&q), am(65_536));
            std::thread::spawn(move || q.push(true, |b| b.push(frame)).map(|_| ()))
        };
        std::thread::sleep(Duration::from_millis(30));
        assert!(!gated.is_finished(), "a gated push passed a full queue");
        batch.clear();
        assert!(q.pop(&mut batch));
        assert_eq!(gated.join().unwrap(), Ok(()));
        // Close with a final frame: the tail drains, then pop reports the
        // end and pushes fail.
        q.close_with(Some(Frame::TermDone));
        batch.clear();
        assert!(q.pop(&mut batch));
        assert_eq!(batch.frames(), 2);
        batch.clear();
        assert!(!q.pop(&mut batch));
        assert!(q.push(false, |b| b.push(Frame::TermDone)).is_err());
    }

    #[test]
    fn a_full_queue_holds_an_am_and_never_a_receive_path_frame() {
        let am = || Frame::Am {
            from: 0,
            handler: 1,
            seq: 9,
            payload: vec![3u8; 8],
        };
        // No writer pops: the queue fills to its frame cap.
        let q = Arc::new(SendQ::new());
        for _ in 0..SEND_QUEUE_CAP {
            let f = am();
            q.push(gated(&f), |b| b.push(f)).unwrap();
        }
        let ack = Frame::AckRange {
            from: 1,
            ranges: vec![(1, SEND_QUEUE_CAP as u64)],
        };
        let (frames, _) = q.push(gated(&ack), |b| b.push(ack)).unwrap();
        assert_eq!(frames, SEND_QUEUE_CAP + 1, "the ack passed the cap");
        let held = {
            let (q, f) = (Arc::clone(&q), am());
            std::thread::spawn(move || q.push(gated(&f), |b| b.push(f)).map(|_| ()))
        };
        std::thread::sleep(Duration::from_millis(30));
        assert!(!held.is_finished(), "an Am passed a full queue");
        let mut batch = WireBatch::default();
        assert!(q.pop(&mut batch));
        assert_eq!(held.join().unwrap(), Ok(()));
    }

    #[test]
    fn addr_spec_text_roundtrip() {
        let t = AddrSpec::Tcp("127.0.0.1:4455".parse().unwrap());
        assert_eq!(AddrSpec::parse(&t.to_text()), Some(t));
        let u = AddrSpec::Uds(PathBuf::from("/tmp/x.sock"));
        assert_eq!(AddrSpec::parse(&u.to_text()), Some(u));
        assert_eq!(AddrSpec::parse("carrier-pigeon:coop"), None);
    }
}
