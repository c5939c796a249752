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
//! Per peer there is a **bounded** send queue (backpressure: `Link::send`
//! blocks when the queue is full) drained by a dedicated writer thread, and
//! a reader thread that feeds an incremental [`FrameCodec`] and hands
//! complete frames to the endpoint's sink. A mid-run connection failure is
//! reported as a structured error; the dialing side additionally attempts
//! one redial (counted in `reconnects`), and the accepting side keeps its
//! listener open for the endpoint's lifetime so a redialed peer is
//! re-admitted.
//!
//! The writer is a **coalescing** drain (DESIGN §12): each wakeup takes
//! everything already queued — one [`WireBatch`], handed over by swap —
//! and writes it with a vectored write: small frames from the buffer they
//! were encoded into at push time, bulk bodies from the buffers that were
//! queued by ownership. The reader mirrors it ([`FrameCodec::read_from`]):
//! small frames decode out of the read buffer, a bulk body is read from
//! the socket into its final, pooled buffer. The queue holds at most
//! [`SEND_QUEUE_CAP`] frames and admits an `Am` only while it holds less
//! than [`SEND_QUEUE_BYTES`] bytes.

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use ttg_model::sync::{AtomicBool, AtomicU64, Condvar, Mutex, Ordering};

use ttg_telemetry::Registry;

use crate::frame::{Frame, FrameCodec, WireBatch, MAGIC, PROTOCOL_VERSION};
use crate::link::{Endpoint, Link, Rank, Sink, TransportError, TransportKind, TransportMetrics};

/// Frames a single peer queue may hold before `Link::send` blocks.
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
/// How long a writer waits for the accept loop to replace a broken
/// connection before abandoning the frame.
const REPLACE_WAIT: Duration = Duration::from_secs(3);
/// Queued bytes at which `Link::send` blocks an `Am` (one frame is always
/// admitted, so the queue peaks below this plus one frame): enough for the
/// producer to refill while the writer is in one `writev`, and ~2 MiB per
/// streaming link instead of the frame cap's 64 MiB (measured: DESIGN
/// §12). Frames sent from a receive path (acks, barrier,
/// termination) are not held by it: two readers waiting on each other's
/// queues would deadlock.
const SEND_QUEUE_BYTES: usize = 1 << 20;
/// How long a writer whose write failed waits for its reader to reach the
/// peer's `Bye` (or end of stream) before treating the failure as a fault.
const BYE_GRACE: Duration = Duration::from_millis(100);
/// Backstop timeout for a writer parked on `stream_cv` while its stream is
/// down. Reconnection (`install_stream`) and shutdown both notify the
/// condvar, so the writer wakes immediately in the normal case; the
/// timeout only bounds the window of a notify racing the park itself.
const WRITER_WAKE_BACKSTOP: Duration = Duration::from_millis(500);

// ---------------------------------------------------------------- streams

/// A connected stream of either family.
enum Stream {
    /// TCP connection.
    Tcp(TcpStream),
    /// Unix-domain connection.
    Uds(UnixStream),
}

impl Stream {
    fn try_clone(&self) -> std::io::Result<Stream> {
        Ok(match self {
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
            Stream::Uds(s) => Stream::Uds(s.try_clone()?),
        })
    }

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
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Uds(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Uds(s) => s.write(buf),
        }
    }
    fn write_vectored(&mut self, bufs: &[std::io::IoSlice<'_>]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write_vectored(bufs),
            Stream::Uds(s) => s.write_vectored(bufs),
        }
    }
    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Uds(s) => s.flush(),
        }
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
    pub fn to_text(&self) -> String {
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

    /// Blocking bounded push: waits for a frame slot and, if `byte_gated`,
    /// for less than [`SEND_QUEUE_BYTES`] queued; then `add` appends one
    /// frame. Returns the queue's (frames, bytes) or `Err` if closed.
    fn push(
        &self,
        byte_gated: bool,
        add: impl FnOnce(&mut WireBatch),
    ) -> Result<(usize, usize), ()> {
        let mut st = self.state.lock();
        while !st.closed
            && (st.batch.frames() >= SEND_QUEUE_CAP
                || (byte_gated && st.batch.bytes() >= SEND_QUEUE_BYTES))
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

// ------------------------------------------------------------- connections

/// Per-peer connection state: the bounded queue plus the writer-half
/// stream slot, replaced on reconnection.
struct ConnSlot {
    q: SendQ,
    stream: Mutex<Option<Stream>>,
    stream_cv: Condvar,
    /// Bumped on every (re)establishment; readers use it to tell
    /// "connection replaced" apart from "connection died".
    generation: AtomicU64,
    /// Peer announced orderly shutdown (`Bye`): EOF is not an error.
    orderly: AtomicBool,
    /// Generation of the last connection whose reader has exited, i.e.
    /// read it to its `Bye`, its end or an error (see `write_batches`).
    reader_done: AtomicU64,
}

struct Inner {
    me: Rank,
    n: usize,
    kind: TransportKind,
    listener: Listener,
    /// Known peer addresses (dial targets); populated for dialed peers and
    /// used for redial after a mid-run failure.
    addrs: Mutex<Vec<Option<AddrSpec>>>,
    /// `conns[p]` is `None` only for `p == me`.
    conns: Vec<Option<ConnSlot>>,
    sink: OnceLock<Sink>,
    stop: AtomicBool,
    metrics: TransportMetrics,
    /// Number of peers with an established connection (first generations
    /// only), guarded for rendezvous waiting.
    ready: Mutex<usize>,
    /// Notified when a first connection is up, when the sink is installed
    /// and at shutdown: readers wait on it for the sink.
    ready_cv: Condvar,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Inner {
    /// Park until the sink is installed (`None`: the endpoint stopped
    /// first). Both are published before `ready_cv` is notified under the
    /// `ready` lock, so the check below cannot miss them.
    fn sink_wait(&self) -> Option<Sink> {
        let mut r = self.ready.lock();
        loop {
            if let Some(s) = self.sink.get() {
                return Some(Arc::clone(s));
            }
            if self.stop.load(Ordering::SeqCst) {
                return None;
            }
            self.ready_cv.wait(&mut r);
        }
    }

    /// Wake everything parked on `ready_cv` (its state changed).
    fn notify_ready(&self) {
        let _r = self.ready.lock();
        self.ready_cv.notify_all();
    }

    fn emit(&self, peer: Rank, ev: Result<Frame, TransportError>) {
        if let Some(s) = self.sink.get() {
            s(peer, ev);
        }
    }

    /// Install a freshly handshaken stream for `peer` and spawn its reader.
    ///
    /// `codec` is the handshake's decoder, carried over because the read
    /// that produced the peer's `Hello` may have pulled in the first bytes
    /// of whatever the peer sent next; starting the reader with a fresh
    /// decoder would silently drop them and desynchronize the stream.
    fn install_stream(self: &Arc<Self>, peer: Rank, stream: Stream, codec: FrameCodec) {
        stream.tune();
        let slot = self.conns[peer].as_ref().expect("conn slot");
        let reader_half = match stream.try_clone() {
            Ok(s) => s,
            Err(e) => {
                self.emit(
                    peer,
                    Err(TransportError::PeerReset {
                        peer,
                        detail: format!("clone failed: {e}"),
                    }),
                );
                return;
            }
        };
        let generation = slot.generation.fetch_add(1, Ordering::SeqCst) + 1;
        if let Some(displaced) = slot.stream.lock().replace(stream) {
            // A replaced connection's reader would otherwise block on the
            // dead socket forever — and shutdown would hang joining it.
            // The generation bump above keeps its exit quiet.
            displaced.shutdown_both();
        }
        slot.stream_cv.notify_all();
        if generation == 1 {
            self.metrics.connects.inc();
            let mut r = self.ready.lock();
            *r += 1;
            self.ready_cv.notify_all();
        } else {
            self.metrics.reconnects.inc();
            // A replaced connection gets a fresh per-peer send-queue
            // high-water mark, so post-reconnect readings describe the
            // live connection instead of the dead one's peak (frames
            // queued before the first connection count against it). The
            // lifetime mark in the registry keeps the all-time peak.
            self.metrics.reset_queue_hwm(peer);
        }
        let inner = Arc::clone(self);
        let h = std::thread::Builder::new()
            .name(format!("ttg-rx-{}-{}", self.me, peer))
            .spawn(move || inner.reader_loop(peer, reader_half, generation, codec))
            .expect("spawn transport reader");
        self.threads.lock().push(h);
    }

    fn reader_loop(
        self: Arc<Self>,
        peer: Rank,
        stream: Stream,
        generation: u64,
        mut codec: FrameCodec,
    ) {
        let slot = self.conns[peer].as_ref().expect("conn slot");
        if let Some(sink) = self.sink_wait() {
            self.read_frames(peer, &stream, generation, &mut codec, &sink);
        }
        // Under the stream lock, so a writer between its check and its
        // wait cannot miss the wakeup.
        let _guard = slot.stream.lock();
        slot.reader_done.store(generation, Ordering::SeqCst);
        slot.stream_cv.notify_all();
    }

    fn read_frames(
        &self,
        peer: Rank,
        stream: &Stream,
        generation: u64,
        codec: &mut FrameCodec,
        sink: &Sink,
    ) {
        let slot = self.conns[peer].as_ref().expect("conn slot");
        let mut buf = vec![0u8; 64 * 1024];
        let bye = std::cell::Cell::new(false);
        let mut deliver = |frame: Frame| match frame {
            Frame::Bye { .. } => bye.set(true),
            // Handshakes happen before install; a late Hello is harmless
            // chatter.
            Frame::Hello { .. } => {}
            frame => sink(peer, Ok(frame)),
        };
        let reset = |detail: String| {
            let quiet = self.stop.load(Ordering::SeqCst)
                || slot.orderly.load(Ordering::SeqCst)
                || slot.generation.load(Ordering::SeqCst) != generation;
            if !quiet {
                sink(peer, Err(TransportError::PeerReset { peer, detail }));
            }
        };
        // Frames that rode in behind the peer's Hello sit staged in the
        // codec; an empty feed drains them before the socket is touched.
        let fed = codec.feed(&[], &mut deliver);
        let mut step: std::io::Result<Option<usize>> = fed.map(|()| None).map_err(Into::into);
        loop {
            match step {
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::InvalidData => {
                    let detail = e.to_string();
                    return sink(peer, Err(TransportError::Framing { peer, detail }));
                }
                // Includes a stream that ended inside a bulk body.
                Err(e) => return reset(e.to_string()),
                Ok(Some(0)) => return reset("unexpected eof".into()),
                Ok(_) if bye.get() => return slot.orderly.store(true, Ordering::SeqCst),
                Ok(_) => {}
            }
            // Read through the native stream so a bulk body lands in its
            // buffer's spare capacity without being zeroed first.
            let bulk_before = codec.bulk_frames();
            let got = match stream {
                Stream::Tcp(s) => codec.read_from(&mut &*s, &mut buf, &mut deliver),
                Stream::Uds(s) => codec.read_from(&mut &*s, &mut buf, &mut deliver),
            };
            if let Ok(k) = got {
                self.metrics.rx_bytes.add(k as u64);
            }
            self.metrics
                .rx_direct_frames
                .add(codec.bulk_frames() - bulk_before);
            step = got.map(Some);
        }
    }

    fn writer_loop(self: Arc<Self>, peer: Rank) {
        let slot = self.conns[peer].as_ref().expect("conn slot");
        self.write_batches(peer, slot);
        // No writer, no queue: what is left is dropped, and senders get
        // `Closed` instead of blocking on a queue nobody drains.
        slot.q.close_with(None);
    }

    fn write_batches(self: &Arc<Self>, peer: Rank, slot: &ConnSlot) {
        // Swapped with the queue's batch on every wakeup; the batch stays
        // whole until its write succeeded, so a retry resends all of it.
        let mut batch = WireBatch::default();
        'batches: loop {
            batch.clear();
            if !slot.q.pop(&mut batch) {
                return; // queue closed and drained
            }
            let frames = batch.frames() as u64;
            let mut abandon_detail: Option<String> = None;
            for attempt in 0..2 {
                // Wait for an established stream (rendezvous may still be
                // in progress when the first frames are queued).
                let mut guard = slot.stream.lock();
                while guard.is_none() && !self.stop.load(Ordering::SeqCst) {
                    slot.stream_cv.wait_for(&mut guard, WRITER_WAKE_BACKSTOP);
                }
                let Some(stream) = guard.as_mut() else {
                    return; // stopping with no connection: discard
                };
                match batch.write_to(stream) {
                    Ok(()) => {
                        self.metrics.tx_bytes.add(batch.bytes() as u64);
                        self.metrics.tx_writes.inc();
                        self.metrics.tx_frames_coalesced.add(frames - 1);
                        self.metrics
                            .tx_direct_frames
                            .add(batch.bulk_frames() as u64);
                        drop(guard);
                        continue 'batches;
                    }
                    Err(e) => {
                        // Usually the peer closed after its `Bye`, which our
                        // reader may not have reached yet: let it read the
                        // connection to its end before redialing.
                        let generation = slot.generation.load(Ordering::SeqCst);
                        let deadline = Instant::now() + BYE_GRACE;
                        let ended = || {
                            self.stop.load(Ordering::SeqCst) || slot.orderly.load(Ordering::SeqCst)
                        };
                        while !ended() && slot.reader_done.load(Ordering::SeqCst) < generation {
                            let now = Instant::now();
                            if now >= deadline {
                                break;
                            }
                            slot.stream_cv.wait_for(&mut guard, deadline - now);
                        }
                        if ended() {
                            return;
                        }
                        // Drop the broken stream so nobody reuses it
                        // (unless it was replaced while we waited).
                        if slot.generation.load(Ordering::SeqCst) == generation {
                            if let Some(s) = guard.take() {
                                s.shutdown_both();
                            }
                        }
                        drop(guard);
                        if attempt == 0 && self.recover(peer) {
                            // Retry the whole batch once on the replaced
                            // connection. A partial write is harmless: the
                            // reconnect resets both codecs, and duplicates
                            // are the reliable layer's problem.
                            continue;
                        }
                        abandon_detail = Some(format!("send failed: {e}"));
                        break;
                    }
                }
            }
            if let Some(detail) = abandon_detail {
                // Recovery failed: the batch is lost. Make the loss
                // countable, not just printable.
                self.metrics.tx_frames_abandoned.add(frames);
                self.emit(peer, Err(TransportError::PeerReset { peer, detail }));
            }
        }
    }

    /// Try to re-establish the connection to `peer` after a failure:
    /// redial if this side originally dialed, otherwise wait briefly for
    /// the peer to redial into our persistent listener.
    fn recover(self: &Arc<Self>, peer: Rank) -> bool {
        let addr = self.addrs.lock()[peer].clone();
        match addr {
            Some(addr) if peer < self.me => match self.dial(peer, &addr) {
                Ok((stream, codec)) => {
                    self.install_stream(peer, stream, codec);
                    true
                }
                Err(_) => false,
            },
            _ => {
                // Wait for the peer to redial into our persistent
                // listener; the accept path's `install_stream` notifies
                // `stream_cv` the moment the replacement is in, so this
                // wakes immediately on reconnect rather than on a poll
                // tick (shutdown notifies the same condvar).
                let slot = self.conns[peer].as_ref().expect("conn slot");
                let deadline = Instant::now() + REPLACE_WAIT;
                let mut guard = slot.stream.lock();
                while guard.is_none() {
                    if self.stop.load(Ordering::SeqCst) {
                        return false;
                    }
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    slot.stream_cv.wait_for(&mut guard, deadline - now);
                }
                guard.is_some()
            }
        }
    }

    /// Dial `peer` at `addr` with retry (its listener may not be up yet)
    /// and run the initiator side of the handshake. Returns the stream plus
    /// the handshake's decoder (it may hold bytes of frames the peer sent
    /// right behind its `Hello`; see [`Inner::install_stream`]).
    fn dial(&self, peer: Rank, addr: &AddrSpec) -> Result<(Stream, FrameCodec), TransportError> {
        let mut last = String::new();
        for _ in 0..DIAL_RETRIES {
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            match addr.connect() {
                Ok(mut stream) => {
                    let (got, codec) = self.handshake(&mut stream, Some(peer))?;
                    debug_assert_eq!(got, peer);
                    return Ok((stream, codec));
                }
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
    /// Returns the peer's rank together with the decoder used to read the
    /// `Hello` — the caller must keep feeding that decoder (not a fresh
    /// one), because the same `read` may already have pulled in the start
    /// of the peer's next frames. On any disagreement counts a handshake
    /// failure and returns [`TransportError::HandshakeMismatch`].
    fn handshake(
        &self,
        stream: &mut Stream,
        expect: Option<Rank>,
    ) -> Result<(Rank, FrameCodec), TransportError> {
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
        if let Err(e) = stream.write_all(&hello.encode_vec()) {
            return fail(format!("hello send failed: {e}"));
        }
        let mut codec = FrameCodec::new();
        let mut buf = [0u8; 256];
        let frame = loop {
            match codec.next() {
                Ok(Some(f)) => break f,
                Ok(None) => {}
                Err(e) => return fail(format!("bad hello: {e}")),
            }
            match stream.read(&mut buf) {
                Ok(0) => return fail("peer closed during handshake".into()),
                Ok(k) => codec.push(&buf[..k]),
                Err(e)
                    if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
                        && Instant::now() < deadline
                        && !self.stop.load(Ordering::SeqCst) => {}
                Err(e) => return fail(format!("hello read failed: {e}")),
            }
        };
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
        if let Some(want) = expect {
            if rank != want {
                return fail(format!("dialed rank {want} but reached rank {rank}"));
            }
        }
        stream.set_read_timeout(None);
        Ok((rank, codec))
    }

    fn accept_loop(self: Arc<Self>) {
        loop {
            if self.stop.load(Ordering::SeqCst) {
                return;
            }
            match self.listener.accept() {
                Ok(mut stream) => {
                    if self.stop.load(Ordering::SeqCst) {
                        return; // the shutdown dummy-dial
                    }
                    match self.handshake(&mut stream, None) {
                        Ok((peer, codec)) => self.install_stream(peer, stream, codec),
                        Err(_) => {
                            // Counted in handshake_failures; the stranger's
                            // stream just drops.
                        }
                    }
                }
                Err(_) => {
                    if self.stop.load(Ordering::SeqCst) {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
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

impl SocketEndpoint {
    /// The address this endpoint's listener is bound to (rendezvous and
    /// tests).
    pub fn listen_addr(&self) -> AddrSpec {
        self.inner.listener.addr()
    }
}

struct SocketLink {
    inner: Arc<Inner>,
    peer: Rank,
}

impl SocketLink {
    /// Queue one frame (appended by `add`), blocking under backpressure.
    fn push(
        &self,
        byte_gated: bool,
        add: impl FnOnce(&mut WireBatch),
    ) -> Result<(), TransportError> {
        let slot = self.inner.conns[self.peer].as_ref().expect("conn slot");
        match slot.q.push(byte_gated, add) {
            Ok((frames, bytes)) => {
                self.inner.metrics.note_queue_len(self.peer, frames);
                self.inner.metrics.note_queue_bytes(self.peer, bytes);
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
        // Only `Am`s wait for queue bytes: every other kind can be sent
        // from a receive path (see `SEND_QUEUE_BYTES`).
        self.push(matches!(frame, Frame::Am { .. }), |batch| batch.push(frame))
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
        inner.notify_ready();
        // Queue a Bye on every link and close the queues: writers flush
        // everything pending (including the Bye) and exit.
        let bye = Frame::Bye {
            from: inner.me as u32,
        };
        for slot in inner.conns.iter().flatten() {
            slot.q.close_with(Some(bye.clone()));
            slot.stream_cv.notify_all();
        }
        // Unblock the accept loop with a dummy dial to our own listener.
        let _ = inner.listener.addr().connect();
        // Let each writer flush everything, its Bye included, and exit
        // (within a bound), then hard-close the streams so blocked readers
        // unblock.
        let threads = std::mem::take(&mut *inner.threads.lock());
        let deadline = Instant::now() + Duration::from_secs(2);
        for slot in inner.conns.iter().flatten() {
            slot.q.wait_writer_gone(deadline);
            if let Some(s) = slot.stream.lock().take() {
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
        addrs: Mutex::new(vec![None; n]),
        conns: (0..n)
            .map(|p| {
                (p != me).then(|| ConnSlot {
                    q: SendQ::new(),
                    stream: Mutex::new(None),
                    stream_cv: Condvar::new(),
                    generation: AtomicU64::new(0),
                    orderly: AtomicBool::new(false),
                    reader_done: AtomicU64::new(0),
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
    // keeps the listener serving (re)connections.
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
    let addrs: Vec<AddrSpec> = inners.iter().map(|i| i.listener.addr()).collect();
    for i in inners.iter() {
        let mut a = i.addrs.lock();
        for (p, addr) in addrs.iter().enumerate() {
            if p != i.me {
                a[p] = Some(addr.clone());
            }
        }
    }
    // Rank i dials every j < i; accepts fill in the rest.
    for inner in inners.iter() {
        for j in 0..inner.me {
            let (stream, codec) = inner.dial(j, &addrs[j])?;
            inner.install_stream(j, stream, codec);
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
/// rank. Blocks until the full mesh is up or [`RENDEZVOUS_TIMEOUT`] passes.
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
        inner.addrs.lock()[j] = Some(peer_addr.clone());
        let (stream, codec) = inner.dial(j, &peer_addr)?;
        inner.install_stream(j, stream, codec);
    }
    inner.wait_ready(n.saturating_sub(1), RENDEZVOUS_TIMEOUT)?;
    Ok(Arc::new(SocketEndpoint { inner }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex as PMutex;
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

    fn wait_for<F: Fn() -> bool>(cond: F, what: &str) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "timeout waiting for {what}");
            std::thread::sleep(Duration::from_millis(2));
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
        // 0 -> 2 ordered burst, 2 -> 0 single, 1 -> 0 single. The burst is
        // queued while the test holds that link's stream, so its writer can
        // take it in at most two batches: the gather below is certain.
        let slot = eps[0].inner.conns[2].as_ref().expect("conn slot");
        let held = slot.stream.lock();
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
        drop(held);
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
        // Telemetry: connections were counted, bytes moved, hwm recorded.
        let snap = reg.snapshot();
        assert!(snap.counter(&MetricKey::global("transport", "connects")) >= 3);
        assert!(snap.counter(&MetricKey::global("transport", "tx_bytes")) > 2000);
        assert!(snap.counter(&MetricKey::global("transport", "rx_bytes")) > 2000);
        // Writer accounting: every queued frame either had its own write
        // or rode a coalesced one — 22 frames were sent above. (Handshake
        // Hellos are written inline, outside the writer counters.)
        let writes = snap.counter(&MetricKey::global("transport", "tx_writes"));
        let coalesced = snap.counter(&MetricKey::global("transport", "tx_frames_coalesced"));
        assert!(writes >= 1, "no writer writes counted");
        assert_eq!(writes + coalesced, 22, "frames-per-write accounting");
        assert!(coalesced >= 18, "the writer gathered {coalesced} of 20");
        assert_eq!(
            snap.counter(&MetricKey::global("transport", "tx_frames_abandoned")),
            0
        );
        assert!(snap.gauge(&MetricKey::ranked(2, "transport", "send_queue_hwm")) >= 1);
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
    fn frames_right_behind_hello_are_not_lost() {
        // Regression: the accept-side handshake used to read the peer's
        // Hello into a throwaway decoder, silently dropping any bytes of
        // the frames behind it and desynchronizing the stream (seen as
        // flaky multi-process barrier hangs). Write Hello, an Am and a bulk
        // Am in a single burst: both must reach the sink, the second with
        // its head staged by the handshake and its body received in place.
        let reg = Registry::new();
        let eps = local_mesh(TransportKind::Tcp, 2, &reg).expect("mesh");
        let (sink, got) = collect_sink();
        eps[0].start(sink);
        let AddrSpec::Tcp(addr) = eps[0].listen_addr() else {
            panic!("tcp addr")
        };
        let mut s = TcpStream::connect(addr).unwrap();
        let mut burst = Frame::Hello {
            magic: MAGIC,
            version: PROTOCOL_VERSION,
            rank: 1,
            ranks: 2,
        }
        .encode_vec();
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
        for ep in &eps {
            ep.shutdown();
        }
    }

    #[test]
    fn handshake_mismatch_is_counted_and_refused() {
        let reg = Registry::new();
        let eps = local_mesh(TransportKind::Tcp, 2, &reg).expect("mesh");
        let (sink, _got) = collect_sink();
        eps[0].start(sink);
        let AddrSpec::Tcp(addr) = eps[0].listen_addr() else {
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
            || {
                reg.snapshot()
                    .counter(&MetricKey::global("transport", "handshake_failures"))
                    >= 1
            },
            "handshake failure count",
        );
        // The stranger's connection is dropped (EOF on read).
        let mut buf = [0u8; 64];
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        loop {
            match s.read(&mut buf) {
                Ok(0) => break,
                Ok(_) => continue, // the listener's own Hello reply
                Err(e) => panic!("expected EOF, got {e}"),
            }
        }
        for ep in &eps {
            ep.shutdown();
        }
    }

    #[test]
    fn version_skew_is_refused() {
        let reg = Registry::new();
        let eps = local_mesh(TransportKind::Tcp, 2, &reg).expect("mesh");
        let AddrSpec::Tcp(addr) = eps[1].listen_addr() else {
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
            || {
                reg.snapshot()
                    .counter(&MetricKey::global("transport", "handshake_failures"))
                    >= 1
            },
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
    fn addr_spec_text_roundtrip() {
        let t = AddrSpec::Tcp("127.0.0.1:4455".parse().unwrap());
        assert_eq!(AddrSpec::parse(&t.to_text()), Some(t));
        let u = AddrSpec::Uds(PathBuf::from("/tmp/x.sock"));
        assert_eq!(AddrSpec::parse(&u.to_text()), Some(u));
        assert_eq!(AddrSpec::parse("carrier-pigeon:coop"), None);
    }
}
