//! Wire frame format and incremental codec.
//!
//! Every transport delivers the same unit: a length-prefixed **frame**.
//! The on-wire layout is
//!
//! ```text
//! | len: u32 LE | kind: u8 | body ... |
//! ```
//!
//! where `len` counts the `kind` byte plus the body (so `len >= 1`) and all
//! multi-byte integers are little-endian. The decoder is incremental: bytes
//! arrive in arbitrary chunks (sockets split frames at any boundary,
//! including inside the length prefix) and complete frames are surfaced as
//! they materialize. Frames longer than [`MAX_FRAME`] are rejected as
//! malformed instead of allocating unboundedly — a garbage or hostile peer
//! must not be able to OOM a rank.
//!
//! An `Am` whose payload reaches `BULK_MIN` takes the **bulk path**
//! (DESIGN §12): [`WireBatch`] queues
//! the body by ownership and writes it with a vectored write, and
//! [`FrameCodec::read_from`] reads it from the socket straight into its
//! final buffer. The bytes on the wire are those of [`Frame::encode`].

use std::io::{IoSlice, Read, Write};
use std::sync::Arc;

/// Handshake magic: `"TTGW"` as a little-endian u32.
pub const MAGIC: u32 = 0x5747_5454;

/// Wire protocol version; bumped on any incompatible frame-format change.
/// Peers with mismatched versions refuse the connection at handshake.
/// (v2: added the `AckRange` batched-acknowledgement control frame; v3:
/// retired the one-sided fetch request/response pair; v4: retired the
/// per-message `Ack`, which nothing sent — kinds 2, 3 and 4 stay
/// unassigned.)
pub const PROTOCOL_VERSION: u16 = 4;

/// Upper bound on the encoded size (kind + body) of a single frame.
pub const MAX_FRAME: usize = 64 << 20;

/// Smallest `Am` payload that takes the bulk path. Below it the
/// copies it saves cost less than the reads it adds — one for the head,
/// the body's own — where the read buffer would have taken several frames
/// in one (measured: DESIGN §12).
const BULK_MIN: usize = 32 * 1024;
/// First allocation for a bulk body being received; beyond it the buffer
/// grows with the bytes that arrive, not with the length announced.
const BULK_FIRST_ALLOC: usize = 256 * 1024;
/// Encoded bytes of an `Am` before its payload.
const AM_HEAD: usize = 4 + 1 + 4 + 4 + 8;

/// A unit of transport-level communication.
///
/// `Hello`/`Bye` belong to connection lifecycle; `Am`/`AckRange` carry the
/// fabric's active-message and reliable-delivery traffic; the remaining
/// kinds implement the message-based protocols that replace shared-memory
/// shortcuts when ranks live in separate OS processes (the barrier and
/// distributed termination detection).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Handshake, exchanged in both directions when a connection opens.
    Hello {
        /// Must equal [`MAGIC`].
        magic: u32,
        /// Must equal [`PROTOCOL_VERSION`].
        version: u16,
        /// Rank of the sending endpoint.
        rank: u32,
        /// Total rank count the sender believes the job has.
        ranks: u32,
    },
    /// Active message addressed to the receiving rank.
    Am {
        /// Sending rank (or `u32::MAX` for out-of-fabric sentinel senders).
        from: u32,
        /// Destination-side handler index.
        handler: u32,
        /// Reliable-layer sequence number (0 when the layer is off).
        seq: u64,
        /// Serialized message body.
        payload: Vec<u8>,
    },
    /// Batched acknowledgement: a set of inclusive sequence-number ranges
    /// accepted on the link from the receiver back to the original sender.
    /// One `AckRange` answers up to a window's worth of messages; the
    /// reliable layer sends one once the oldest seq it covers has waited
    /// the fault plan's `ack_flush`.
    AckRange {
        /// Rank acknowledging (the AMs' destination).
        from: u32,
        /// Inclusive `(first, last)` sequence ranges, sorted ascending and
        /// non-overlapping.
        ranges: Vec<(u64, u64)>,
    },
    /// Barrier arrival notice, sent to the rank-0 coordinator.
    BarrierEnter {
        /// Arriving rank.
        from: u32,
        /// Barrier ordinal (ranks hit barriers in the same program order).
        epoch: u64,
    },
    /// Barrier release broadcast from the coordinator.
    BarrierRelease {
        /// Barrier ordinal being released.
        epoch: u64,
    },
    /// Termination probe from the rank-0 coordinator.
    TermProbe {
        /// Probe round.
        round: u64,
    },
    /// A rank's answer to a termination probe: its message counters and
    /// local idleness at the time the probe was processed.
    TermReply {
        /// Replying rank.
        from: u32,
        /// Probe round being answered.
        round: u64,
        /// Remote AMs this rank has sent so far.
        sent: u64,
        /// Remote AMs this rank has received so far.
        recvd: u64,
        /// Local activity epoch (detects work between two probe rounds).
        epoch: u64,
        /// Whether the rank was locally idle.
        idle: bool,
    },
    /// Global-termination announcement from the coordinator.
    TermDone,
    /// Orderly connection close notice; the peer's reader exits quietly.
    Bye {
        /// Departing rank.
        from: u32,
    },
}

/// Why a byte stream could not be decoded into frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The length prefix announced a frame larger than [`MAX_FRAME`].
    TooLarge {
        /// Announced frame length.
        len: usize,
    },
    /// The frame body was truncated, had an unknown kind, or was otherwise
    /// structurally invalid.
    Malformed {
        /// Human-readable description.
        detail: String,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TooLarge { len } => {
                write!(f, "frame length {len} exceeds cap {MAX_FRAME}")
            }
            FrameError::Malformed { detail } => write!(f, "malformed frame: {detail}"),
        }
    }
}

impl std::error::Error for FrameError {}

const K_HELLO: u8 = 0;
const K_AM: u8 = 1;
const K_BARRIER_ENTER: u8 = 5;
const K_BARRIER_RELEASE: u8 = 6;
const K_TERM_PROBE: u8 = 7;
const K_TERM_REPLY: u8 = 8;
const K_TERM_DONE: u8 = 9;
const K_BYE: u8 = 10;
const K_ACK_RANGE: u8 = 11;

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_am_fields(out: &mut Vec<u8>, from: u32, handler: u32, seq: u64) {
    out.push(K_AM);
    put_u32(out, from);
    put_u32(out, handler);
    put_u64(out, seq);
}
/// Back-patch the length prefix of the frame encoded at `start`; `detached`
/// counts trailing bytes that travel outside `out` (a bulk body).
fn patch_len(out: &mut [u8], start: usize, detached: usize) {
    let len = (out.len() - start - 4 + detached) as u32;
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
}

impl Frame {
    /// Append the length-prefixed encoding of this frame to `out`.
    /// Returns the number of bytes appended.
    pub fn encode(&self, out: &mut Vec<u8>) -> usize {
        let start = out.len();
        let tail = self.encode_head(out);
        out.extend_from_slice(tail);
        patch_len(out, start, 0);
        out.len() - start
    }

    /// Append everything but the trailing byte field (`Am.payload`; empty
    /// for other kinds), which is returned. The length prefix is left for
    /// [`patch_len`].
    fn encode_head(&self, out: &mut Vec<u8>) -> &[u8] {
        put_u32(out, 0); // length back-patched by `patch_len`
        match self {
            Frame::Hello {
                magic,
                version,
                rank,
                ranks,
            } => {
                out.push(K_HELLO);
                put_u32(out, *magic);
                put_u16(out, *version);
                put_u32(out, *rank);
                put_u32(out, *ranks);
            }
            Frame::Am {
                from,
                handler,
                seq,
                payload,
            } => {
                put_am_fields(out, *from, *handler, *seq);
                return payload;
            }
            Frame::AckRange { from, ranges } => {
                out.push(K_ACK_RANGE);
                put_u32(out, *from);
                put_u32(out, ranges.len() as u32);
                for (first, last) in ranges {
                    put_u64(out, *first);
                    put_u64(out, *last);
                }
            }
            Frame::BarrierEnter { from, epoch } => {
                out.push(K_BARRIER_ENTER);
                put_u32(out, *from);
                put_u64(out, *epoch);
            }
            Frame::BarrierRelease { epoch } => {
                out.push(K_BARRIER_RELEASE);
                put_u64(out, *epoch);
            }
            Frame::TermProbe { round } => {
                out.push(K_TERM_PROBE);
                put_u64(out, *round);
            }
            Frame::TermReply {
                from,
                round,
                sent,
                recvd,
                epoch,
                idle,
            } => {
                out.push(K_TERM_REPLY);
                put_u32(out, *from);
                put_u64(out, *round);
                put_u64(out, *sent);
                put_u64(out, *recvd);
                put_u64(out, *epoch);
                out.push(u8::from(*idle));
            }
            Frame::TermDone => out.push(K_TERM_DONE),
            Frame::Bye { from } => {
                out.push(K_BYE);
                put_u32(out, *from);
            }
        }
        &[]
    }

    /// Encode into a fresh buffer.
    pub fn encode_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        self.encode(&mut out);
        out
    }
}

/// Encoded frames awaiting one gathered write (the socket send queue's
/// storage, DESIGN §12). Small frames and the heads of bulk frames are
/// encoded back to back into one coalescing buffer; a bulk body is held
/// by ownership next to the offset it follows and reaches the socket by
/// vectored write, never copied in user space.
#[derive(Default)]
pub struct WireBatch {
    wire: Vec<u8>,
    /// `(offset in wire the body follows, body)`, ascending. A body is the
    /// sender's own buffer or another handle on the one a reliable
    /// retransmit entry shares.
    bodies: Vec<(usize, Arc<Vec<u8>>)>,
    frames: usize,
    body_bytes: usize,
}

impl WireBatch {
    /// Append `frame`; an `Am` payload buffer that was copied (not
    /// queued) goes back to the pool.
    pub fn push(&mut self, frame: Frame) {
        let start = self.wire.len();
        let tail = frame.encode_head(&mut self.wire);
        let bulk = tail.len() >= BULK_MIN;
        if !bulk {
            self.wire.extend_from_slice(tail);
        }
        let body = match frame {
            Frame::Am { payload, .. } if bulk => Some(Arc::new(payload)),
            Frame::Am { payload, .. } => {
                crate::pool::recycle(payload);
                None
            }
            _ => None,
        };
        self.seal(start, body);
    }

    /// Append an `Am` whose payload the caller keeps sharing (the reliable
    /// layer's retransmit map): copied from the borrow when small, queued
    /// as another handle on the same buffer when bulk.
    pub fn push_am_shared(&mut self, from: u32, handler: u32, seq: u64, payload: &Arc<Vec<u8>>) {
        let start = self.wire.len();
        put_u32(&mut self.wire, 0);
        put_am_fields(&mut self.wire, from, handler, seq);
        let bulk = payload.len() >= BULK_MIN;
        if !bulk {
            self.wire.extend_from_slice(payload);
        }
        self.seal(start, bulk.then(|| Arc::clone(payload)));
    }

    /// Finish the frame encoded at `start`, whose trailing bytes are
    /// either already in the buffer or detached as `body`.
    fn seal(&mut self, start: usize, body: Option<Arc<Vec<u8>>>) {
        let detached = body.as_ref().map_or(0, |b| b.len());
        patch_len(&mut self.wire, start, detached);
        if let Some(b) = body {
            self.bodies.push((self.wire.len(), b));
            self.body_bytes += detached;
        }
        self.frames += 1;
    }

    /// Frames held.
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// Wire bytes held (coalescing buffer plus bulk bodies).
    pub fn bytes(&self) -> usize {
        self.wire.len() + self.body_bytes
    }

    /// Frames whose body is queued by ownership.
    pub fn bulk_frames(&self) -> usize {
        self.bodies.len()
    }

    /// Write every byte to `w`, in frame order, as vectored writes straight
    /// from the buffers held; short writes are resumed. The batch is left
    /// intact, so a failed write can be retried whole on a new connection.
    pub fn write_to<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        let mut io: Vec<IoSlice<'_>> = Vec::with_capacity(2 * self.bodies.len() + 1);
        let mut at = 0;
        for (off, body) in &self.bodies {
            io.push(IoSlice::new(&self.wire[at..*off]));
            io.push(IoSlice::new(body));
            at = *off;
        }
        io.push(IoSlice::new(&self.wire[at..]));
        io.retain(|s| !s.is_empty());
        let mut left = &mut io[..];
        while !left.is_empty() {
            match w.write_vectored(left) {
                Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
                Ok(n) => IoSlice::advance_slices(&mut left, n),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Empty the batch, keeping its buffers' capacity; a bulk body nobody
    /// else holds goes back to the pool.
    pub fn clear(&mut self) {
        self.wire.clear();
        for (_, body) in self.bodies.drain(..) {
            if let Ok(v) = Arc::try_unwrap(body) {
                crate::pool::recycle(v);
            }
        }
        self.frames = 0;
        self.body_bytes = 0;
    }
}

/// Body-decoding cursor over one frame's bytes.
struct Cur<'a> {
    b: &'a [u8],
    at: usize,
}

impl<'a> Cur<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if self.at + n > self.b.len() {
            return Err(FrameError::Malformed {
                detail: format!("body truncated at byte {}", self.at),
            });
        }
        let s = &self.b[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, FrameError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    /// The remaining bytes, in a buffer from the wire-buffer pool: AM
    /// payloads are the hot decode path and the executor recycles them
    /// after handler dispatch, closing the acquire/recycle loop.
    fn rest_pooled(&mut self) -> Vec<u8> {
        let tail = &self.b[self.at..];
        self.at = self.b.len();
        if tail.is_empty() {
            return Vec::new(); // also what a bulk frame's head decodes to
        }
        let mut s = crate::pool::acquire(tail.len());
        s.extend_from_slice(tail);
        s
    }
}

fn decode_body(kind: u8, body: &[u8]) -> Result<Frame, FrameError> {
    let mut c = Cur { b: body, at: 0 };
    let frame = match kind {
        K_HELLO => Frame::Hello {
            magic: c.u32()?,
            version: c.u16()?,
            rank: c.u32()?,
            ranks: c.u32()?,
        },
        K_AM => Frame::Am {
            from: c.u32()?,
            handler: c.u32()?,
            seq: c.u64()?,
            payload: c.rest_pooled(),
        },
        K_ACK_RANGE => {
            let from = c.u32()?;
            let count = c.u32()? as usize;
            // The count must match the body exactly: a mismatch means a
            // corrupted frame, and trusting a hostile count would let a
            // 12-byte frame demand a multi-gigabyte allocation.
            if c.b.len() - c.at != count * 16 {
                return Err(FrameError::Malformed {
                    detail: format!(
                        "AckRange count {count} disagrees with {} body bytes",
                        c.b.len() - c.at
                    ),
                });
            }
            let mut ranges = Vec::with_capacity(count);
            for _ in 0..count {
                let first = c.u64()?;
                let last = c.u64()?;
                if first > last {
                    return Err(FrameError::Malformed {
                        detail: format!("AckRange pair {first}..{last} is inverted"),
                    });
                }
                ranges.push((first, last));
            }
            Frame::AckRange { from, ranges }
        }
        K_BARRIER_ENTER => Frame::BarrierEnter {
            from: c.u32()?,
            epoch: c.u64()?,
        },
        K_BARRIER_RELEASE => Frame::BarrierRelease { epoch: c.u64()? },
        K_TERM_PROBE => Frame::TermProbe { round: c.u64()? },
        K_TERM_REPLY => Frame::TermReply {
            from: c.u32()?,
            round: c.u64()?,
            sent: c.u64()?,
            recvd: c.u64()?,
            epoch: c.u64()?,
            idle: c.u8()? != 0,
        },
        K_TERM_DONE => Frame::TermDone,
        K_BYE => Frame::Bye { from: c.u32()? },
        k => {
            return Err(FrameError::Malformed {
                detail: format!("unknown frame kind {k}"),
            })
        }
    };
    Ok(frame)
}

/// A bulk frame being received: decoded head, body so far, body length.
struct Bulk {
    head: Frame,
    dest: Vec<u8>,
    total: usize,
}

/// So [`FrameCodec::read_from`] has one error type: a stream that does not
/// decode is `InvalidData`, a kind no socket read produces.
impl From<FrameError> for std::io::Error {
    fn from(e: FrameError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

/// Incremental frame decoder.
///
/// Feed arbitrary byte chunks with [`feed`](Self::feed) — or let
/// [`read_from`](Self::read_from) pull them off a stream — and complete
/// frames are handed to the callback as they materialize. Memory use is
/// bounded by the largest in-flight frame plus one read chunk.
#[derive(Default)]
pub struct FrameCodec {
    /// A partial frame (or bulk head), staged until it is whole.
    buf: Vec<u8>,
    bulk: Option<Bulk>,
    /// The last read completed a bulk body: a run of them usually
    /// follows, so peek only the next head and stay on the direct path.
    after_bulk: bool,
    bulk_frames: u64,
}

impl FrameCodec {
    /// Create an empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Frames so far whose body was received in place (the bulk path).
    pub fn bulk_frames(&self) -> u64 {
        self.bulk_frames
    }

    /// Decode every complete frame in `bytes` straight from the caller's
    /// read buffer, calling `out` per frame. Only a trailing partial frame
    /// is copied into internal storage (completed by the next call); if it
    /// announces a bulk body, its bytes move into their final buffer
    /// instead and [`read_from`](Self::read_from) reads the rest there.
    /// An error poisons the stream: the caller must drop the connection,
    /// since after a framing error there is no way to resynchronize.
    pub fn feed<F: FnMut(Frame)>(
        &mut self,
        mut bytes: &[u8],
        out: &mut F,
    ) -> Result<(), FrameError> {
        loop {
            if let Some(b) = self.bulk.as_mut() {
                let take = (b.total - b.dest.len()).min(bytes.len());
                b.dest.extend_from_slice(&bytes[..take]);
                bytes = &bytes[take..];
                if b.dest.len() < b.total {
                    return Ok(());
                }
                out(self.finish_bulk());
            } else if !self.buf.is_empty() {
                // Top the staged partial frame up to what it needs in one
                // piece; the need grows (and the prefix is checked) once
                // the length and the kind byte are known.
                let (want, body) = contiguous_need(&self.buf)?;
                if self.buf.len() < want {
                    if bytes.is_empty() {
                        return Ok(());
                    }
                    let take = (want - self.buf.len()).min(bytes.len());
                    self.buf.extend_from_slice(&bytes[..take]);
                    bytes = &bytes[take..];
                } else {
                    if body > 0 {
                        self.bulk = Some(bulk_head(&self.buf, body)?);
                    } else {
                        out(decode_body(self.buf[4], &self.buf[5..])?);
                    }
                    self.buf.clear();
                }
            } else if bytes.is_empty() {
                return Ok(());
            } else {
                let (want, body) = contiguous_need(bytes)?;
                if bytes.len() < want {
                    self.buf.extend_from_slice(bytes);
                    return Ok(());
                }
                if body > 0 {
                    self.bulk = Some(bulk_head(&bytes[..want], body)?);
                } else {
                    out(decode_body(bytes[4], &bytes[5..want])?);
                }
                bytes = &bytes[want..];
            }
        }
    }

    fn finish_bulk(&mut self) -> Frame {
        let Bulk { mut head, dest, .. } = self.bulk.take().expect("bulk in progress");
        if let Frame::Am { payload, .. } = &mut head {
            *payload = dest;
        }
        self.bulk_frames += 1;
        head
    }

    /// One step of the receive path: read from `r` and hand every frame
    /// that completes to `out`. While a bulk body is incomplete the read
    /// goes into the body's own buffer (its spare capacity: no staging, no
    /// zeroing) until the body is whole; otherwise it goes through
    /// `scratch` and [`feed`](Self::feed). Returns the bytes
    /// read; `Ok(0)` is end of stream, `UnexpectedEof` one that ended inside
    /// a bulk body, `InvalidData` (a [`FrameError`] inside) a poisoned one.
    pub fn read_from<R: Read, F: FnMut(Frame)>(
        &mut self,
        r: &mut R,
        scratch: &mut [u8],
        out: &mut F,
    ) -> std::io::Result<usize> {
        if let Some(b) = self.bulk.as_mut() {
            let need = b.total - b.dest.len();
            let got = r.take(need as u64).read_to_end(&mut b.dest)?;
            if got < need {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            out(self.finish_bulk());
            self.after_bulk = true;
            return Ok(got);
        }
        let cap = if self.after_bulk {
            AM_HEAD.min(scratch.len())
        } else {
            scratch.len()
        };
        self.after_bulk = false;
        let got = r.read(&mut scratch[..cap])?;
        self.feed(&scratch[..got], out)?;
        Ok(got)
    }
}

/// Read `r` until its first frame completes, through the decoder the
/// reader loop carries on with: returns that decoder and every frame the
/// reads completed, the first one first. A read may pull in frames behind
/// the first, or the start of one that the decoder stages, and a fresh
/// decoder would lose them. A read error `retry` accepts is tried again;
/// the end of the stream is `UnexpectedEof`.
pub(crate) fn read_first<R: Read>(
    r: &mut R,
    retry: impl Fn(&std::io::Error) -> bool,
) -> std::io::Result<(FrameCodec, Vec<Frame>)> {
    let mut codec = FrameCodec::new();
    let mut got = Vec::new();
    let mut buf = [0u8; 256];
    while got.is_empty() {
        match codec.read_from(r, &mut buf, &mut |f| got.push(f)) {
            Ok(0) => return Err(std::io::ErrorKind::UnexpectedEof.into()),
            Ok(_) => {}
            Err(e) if retry(&e) => {}
            Err(e) => return Err(e),
        }
    }
    Ok((codec, got))
}

/// How many leading bytes of the frame starting at `b` (any prefix of it)
/// must be contiguous to decode — a bulk frame's head, else the whole
/// frame — and the length of the bulk body behind them (else 0).
fn contiguous_need(b: &[u8]) -> Result<(usize, usize), FrameError> {
    if b.len() < 4 {
        return Ok((5, 0));
    }
    let len = frame_len(b)?;
    match b.get(4) {
        None => Ok((5, 0)),
        Some(&K_AM) if 4 + len >= AM_HEAD + BULK_MIN => Ok((AM_HEAD, 4 + len - AM_HEAD)),
        Some(_) => Ok((4 + len, 0)),
    }
}

/// Decode a bulk frame's head and allocate the buffer its `body` bytes
/// will be received into.
fn bulk_head(head: &[u8], body: usize) -> Result<Bulk, FrameError> {
    Ok(Bulk {
        head: decode_body(head[4], &head[5..])?,
        dest: crate::pool::acquire(body.min(BULK_FIRST_ALLOC)),
        total: body,
    })
}

/// Validate a length prefix (4 LE bytes) and return the frame length.
fn frame_len(hdr: &[u8]) -> Result<usize, FrameError> {
    let len = u32::from_le_bytes(hdr[..4].try_into().unwrap()) as usize;
    if len == 0 {
        return Err(FrameError::Malformed {
            detail: "zero-length frame (missing kind byte)".into(),
        });
    }
    if len > MAX_FRAME {
        return Err(FrameError::TooLarge { len });
    }
    Ok(len)
}

#[cfg(all(test, ttg_model))]
#[path = "frame_model.rs"]
mod model;

#[cfg(test)]
mod tests {
    use super::*;

    /// Feed `bytes` to `c` in one piece: the frames that completed, or the
    /// poison.
    fn decode(c: &mut FrameCodec, bytes: &[u8]) -> Result<Vec<Frame>, FrameError> {
        let mut got = Vec::new();
        c.feed(bytes, &mut |f| got.push(f))?;
        Ok(got)
    }

    fn roundtrip(f: &Frame) -> Frame {
        let mut got = decode(&mut FrameCodec::new(), &f.encode_vec()).unwrap();
        assert_eq!(got.len(), 1, "one frame, no trailing frame");
        got.remove(0)
    }

    #[test]
    fn every_kind_roundtrips() {
        let frames = [
            Frame::Hello {
                magic: MAGIC,
                version: PROTOCOL_VERSION,
                rank: 3,
                ranks: 4,
            },
            Frame::Am {
                from: 1,
                handler: 9,
                seq: 77,
                payload: vec![1, 2, 3, 4, 5],
            },
            Frame::AckRange {
                from: 2,
                ranges: vec![(1, 64), (70, 70), (80, 1024)],
            },
            Frame::AckRange {
                from: 0,
                ranges: Vec::new(),
            },
            Frame::BarrierEnter { from: 3, epoch: 2 },
            Frame::BarrierRelease { epoch: 2 },
            Frame::TermProbe { round: 8 },
            Frame::TermReply {
                from: 2,
                round: 8,
                sent: 100,
                recvd: 99,
                epoch: 1234,
                idle: true,
            },
            Frame::TermDone,
            Frame::Bye { from: 0 },
        ];
        for f in &frames {
            assert_eq!(&roundtrip(f), f, "roundtrip of {f:?}");
        }
    }

    #[test]
    fn partial_reads_one_byte_at_a_time() {
        // The harshest split: every byte arrives alone, including the four
        // bytes of the length prefix.
        let f = Frame::Am {
            from: 0,
            handler: 7,
            seq: 3,
            payload: vec![0xAB; 37],
        };
        let bytes = f.encode_vec();
        let mut c = FrameCodec::new();
        let (last, head) = bytes.split_last().unwrap();
        for (i, b) in head.iter().enumerate() {
            let got = decode(&mut c, std::slice::from_ref(b)).unwrap();
            assert!(got.is_empty(), "frame surfaced early at {i}");
        }
        assert_eq!(decode(&mut c, &[*last]).unwrap(), [f]);
    }

    #[test]
    fn split_length_prefix_across_chunks() {
        let f = Frame::TermProbe { round: 99 };
        let bytes = f.encode_vec();
        let mut c = FrameCodec::new();
        // Two bytes of the prefix, then the rest.
        assert!(decode(&mut c, &bytes[..2]).unwrap().is_empty());
        assert_eq!(decode(&mut c, &bytes[2..]).unwrap(), [f]);
    }

    #[test]
    fn multiple_frames_in_one_chunk_plus_tail() {
        let a = Frame::TermProbe { round: 1 };
        let b = Frame::BarrierRelease { epoch: 4 };
        let tail = Frame::Bye { from: 2 };
        let mut bytes = a.encode_vec();
        bytes.extend(b.encode_vec());
        let tail_bytes = tail.encode_vec();
        bytes.extend_from_slice(&tail_bytes[..3]); // partial third frame
        let mut c = FrameCodec::new();
        assert_eq!(decode(&mut c, &bytes).unwrap(), [a, b]);
        assert_eq!(decode(&mut c, &tail_bytes[3..]).unwrap(), [tail]);
    }

    #[test]
    fn feed_poisons_on_garbage() {
        let mut c = FrameCodec::new();
        let mut bytes = Frame::TermProbe { round: 1 }.encode_vec();
        bytes.extend_from_slice(&0u32.to_le_bytes()); // zero-length frame
        let mut got = Vec::new();
        let err = c.feed(&bytes, &mut |f| got.push(f));
        assert!(matches!(err, Err(FrameError::Malformed { .. })));
        assert_eq!(got.len(), 1, "frames before the poison still decode");
    }

    #[test]
    fn zero_length_payload_is_a_valid_am() {
        let f = Frame::Am {
            from: 2,
            handler: 0,
            seq: 0,
            payload: Vec::new(),
        };
        assert_eq!(roundtrip(&f), f);
    }

    /// The poison `bytes` decode to, fed whole and fed one byte at a time
    /// (the staged path): both must agree.
    fn poison(bytes: &[u8]) -> FrameError {
        let whole = decode(&mut FrameCodec::new(), bytes).unwrap_err();
        let mut c = FrameCodec::new();
        let staged = bytes
            .iter()
            .find_map(|b| decode(&mut c, std::slice::from_ref(b)).err());
        assert_eq!(staged.as_ref(), Some(&whole), "staged path");
        whole
    }

    #[test]
    fn zero_length_frame_is_rejected() {
        // A frame must carry at least its kind byte; len == 0 is garbage.
        let e = poison(&0u32.to_le_bytes());
        assert!(matches!(e, FrameError::Malformed { .. }));
    }

    #[test]
    fn oversized_frame_is_rejected_before_allocation() {
        let mut bytes = (MAX_FRAME as u32 + 1).to_le_bytes().to_vec();
        bytes.push(K_AM);
        assert!(matches!(poison(&bytes), FrameError::TooLarge { .. }));
    }

    #[test]
    fn truncated_body_is_malformed() {
        // Announce a TermProbe but deliver fewer body bytes than the field
        // needs: len covers them, content does not exist → kind decode must
        // fail, not panic.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&3u32.to_le_bytes()); // kind + 2 body bytes
        bytes.push(K_TERM_PROBE);
        bytes.extend_from_slice(&[0, 0]); // TermProbe wants 8 bytes
        assert!(matches!(poison(&bytes), FrameError::Malformed { .. }));
    }

    #[test]
    fn ack_range_with_lying_count_is_malformed() {
        // Body carries one pair but the count field claims 2^28: the
        // decoder must reject the mismatch without allocating for it.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(1 + 4 + 4 + 16u32).to_le_bytes());
        bytes.push(11); // K_ACK_RANGE
        bytes.extend_from_slice(&1u32.to_le_bytes()); // from
        bytes.extend_from_slice(&(1u32 << 28).to_le_bytes()); // count
        bytes.extend_from_slice(&[0u8; 16]); // one pair
        assert!(matches!(poison(&bytes), FrameError::Malformed { .. }));
    }

    #[test]
    fn ack_range_with_inverted_pair_is_malformed() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(1 + 4 + 4 + 16u32).to_le_bytes());
        bytes.push(11); // K_ACK_RANGE
        bytes.extend_from_slice(&1u32.to_le_bytes()); // from
        bytes.extend_from_slice(&1u32.to_le_bytes()); // count
        bytes.extend_from_slice(&9u64.to_le_bytes()); // first
        bytes.extend_from_slice(&3u64.to_le_bytes()); // last < first
        assert!(matches!(poison(&bytes), FrameError::Malformed { .. }));
    }

    #[test]
    fn unknown_kind_is_malformed() {
        // 2, 3 and 4 were the per-message ack and the one-sided fetch
        // pair: retired kinds are as unknown as never-assigned ones.
        for kind in [2u8, 3, 4, 200] {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(&1u32.to_le_bytes());
            bytes.push(kind);
            assert!(
                matches!(poison(&bytes), FrameError::Malformed { .. }),
                "kind {kind} decoded"
            );
        }
    }
}
