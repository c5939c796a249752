//! Model of the transport handshake → reader-loop codec handoff
//! (`crates/transport/src/socket.rs`).
//!
//! The accept side decodes the peer's Hello with an incremental frame
//! codec; any bytes of frames riding right behind the Hello in the same
//! read land in that codec's buffer. The fix shipped in PR 7 carries the
//! handshake codec into the reader loop; the bug it fixed — reading the
//! Hello into a throwaway codec and starting the reader with a fresh one —
//! silently dropped those buffered bytes, desyncing the stream (reader
//! starves, barrier never releases, ~35% of 2-rank launches hung).
//!
//! The model drives a miniature length-prefixed codec over a byte stream
//! written as one Hello+Am+Am burst, with *nondeterministic read sizes*
//! ([`crate::nondet`]) standing in for TCP's arbitrary read boundaries.
//! Invariant: the reader decodes both AM frames intact. Under
//! [`Mutation::FreshReaderCodec`] (the PR 7 bug un-fixed) every chunking
//! where a read pulls Hello plus trailing bytes drops those bytes — the
//! checker reports the starved reader deterministically.
//!
//! The second AM is a **bulk** frame (payload ≥ [`BULK_MIN`]): once its
//! header is staged the codec allocates the payload's own buffer, moves in
//! the payload bytes it already staged, and the reader reads the rest of
//! the stream straight into that buffer (DESIGN §12). Any read boundary
//! may leave any prefix of that frame staged — by the handshake's codec as
//! well — so byte conservation now spans two hand-offs.
//! [`Mutation::BulkDropsStagedPrefix`] forgets the staged payload bytes
//! when the buffer is allocated.

use crate::explore::{explore, Config, Stats, Violation};
use crate::sched::nondet;
use crate::shadow::{Condvar, Mutex};
use crate::thread;
use std::collections::VecDeque;
use std::sync::Arc;

/// Known-bad variants of the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// The fix: the handshake codec (with any buffered trailing bytes)
    /// becomes the reader's codec.
    None,
    /// The PR 7 bug: the reader starts with a fresh codec, dropping
    /// whatever the handshake read pulled in behind the Hello.
    FreshReaderCodec,
    /// The bulk hand-off allocates the payload buffer but leaves behind
    /// the payload bytes already staged with the header.
    BulkDropsStagedPrefix,
}

const KIND_HELLO: u8 = 1;
const KIND_AM: u8 = 2;
/// Smallest payload received in place (the miniature of the transport's).
const BULK_MIN: usize = 3;

/// Miniature of the transport frame codec: `len u8 | kind u8 | payload`,
/// incremental feed/decode with partial-frame buffering, and the bulk
/// path: a staged header announcing `len >= BULK_MIN` turns into a
/// payload buffer of its own that the reader fills directly.
struct MiniCodec {
    buf: Vec<u8>,
    /// `(kind, payload so far, announced length)` of the bulk frame being
    /// received.
    bulk: Option<(u8, Vec<u8>, usize)>,
    mutation: Mutation,
}

impl MiniCodec {
    fn new(mutation: Mutation) -> Self {
        MiniCodec {
            buf: Vec::new(),
            bulk: None,
            mutation,
        }
    }

    fn feed(&mut self, bytes: &[u8]) {
        match &mut self.bulk {
            Some((_, dest, _)) => dest.extend_from_slice(bytes),
            None => self.buf.extend_from_slice(bytes),
        }
    }

    /// Bytes the bulk frame in progress still lacks: the reader reads at
    /// most that many, straight into [`feed`](Self::feed).
    fn bulk_need(&self) -> Option<usize> {
        self.bulk
            .as_ref()
            .map(|(_, dest, total)| total - dest.len())
    }

    fn next_frame(&mut self) -> Option<(u8, Vec<u8>)> {
        if let Some((_, dest, total)) = &self.bulk {
            if dest.len() < *total {
                return None;
            }
            let (kind, dest, _) = self.bulk.take().expect("bulk in progress");
            return Some((kind, dest));
        }
        if self.buf.len() < 2 {
            return None;
        }
        let len = self.buf[0] as usize;
        if len >= BULK_MIN {
            // Header complete: hand off to the payload's own buffer,
            // moving in what was staged behind the header.
            let kind = self.buf[1];
            let mut staged: Vec<u8> = self.buf.drain(..).skip(2).collect();
            assert!(staged.len() <= len, "the bulk frame is the model's last");
            if self.mutation == Mutation::BulkDropsStagedPrefix {
                staged.clear();
            }
            self.bulk = Some((kind, staged, len));
            return self.next_frame();
        }
        if self.buf.len() < 2 + len {
            return None;
        }
        let kind = self.buf[1];
        let payload = self.buf[2..2 + len].to_vec();
        self.buf.drain(..2 + len);
        Some((kind, payload))
    }
}

fn frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut f = vec![payload.len() as u8, kind];
    f.extend_from_slice(payload);
    f
}

/// The shared byte stream: a socket's receive direction.
struct Stream {
    state: Mutex<(VecDeque<u8>, bool)>,
    readable: Condvar,
}

impl Stream {
    /// Blocking read returning 1..=min(3, `max`) bytes (the explorer
    /// enumerates every split), or `None` at EOF.
    fn read_some(&self, max: usize) -> Option<Vec<u8>> {
        let mut g = self.state.lock();
        loop {
            let (buf, eof) = &mut *g;
            if !buf.is_empty() {
                let cap = buf.len().min(3).min(max) as u64;
                let n = nondet(cap) as usize + 1;
                return Some(buf.drain(..n).collect());
            }
            if *eof {
                return None;
            }
            self.readable.wait(&mut g);
        }
    }
}

/// A small AM and a bulk one (`BULK_MIN` bytes).
fn am_payloads() -> [Vec<u8>; 2] {
    [vec![0xAA, 0xBB], vec![0xC1, 0xC2, 0xC3]]
}

/// Writer bursts Hello + two AMs in one write; reader does the handshake
/// then the reader loop, with both codec handoffs under test.
fn model(mutation: Mutation) {
    let stream = Arc::new(Stream {
        state: Mutex::named((VecDeque::new(), false), "stream"),
        readable: Condvar::new(),
    });

    let writer = {
        let stream = Arc::clone(&stream);
        thread::spawn_named("writer", move || {
            let [am1, am2] = am_payloads();
            let mut burst = frame(KIND_HELLO, &[7]);
            burst.extend(frame(KIND_AM, &am1));
            burst.extend(frame(KIND_AM, &am2));
            {
                let mut g = stream.state.lock();
                g.0.extend(burst);
                g.1 = true;
            }
            stream.readable.notify_all();
        })
    };

    let reader = {
        let stream = Arc::clone(&stream);
        thread::spawn_named("reader", move || {
            // Handshake: decode frames until the Hello arrives.
            let mut hs_codec = MiniCodec::new(mutation);
            let hello = loop {
                if let Some(f) = hs_codec.next_frame() {
                    break f;
                }
                match stream.read_some(usize::MAX) {
                    Some(bytes) => hs_codec.feed(&bytes),
                    None => panic!("eof before hello"),
                }
            };
            assert!(hello.0 == KIND_HELLO, "first frame not a hello");

            // Reader loop: the codec handoff under test.
            let mut codec = match mutation {
                Mutation::FreshReaderCodec => MiniCodec::new(mutation),
                _ => hs_codec,
            };
            let mut ams: Vec<Vec<u8>> = Vec::new();
            while ams.len() < 2 {
                if let Some((kind, payload)) = codec.next_frame() {
                    assert!(kind == KIND_AM, "stream desynced: bad frame kind {kind}");
                    ams.push(payload);
                    continue;
                }
                // A bulk payload is read in place, and never past its end.
                match stream.read_some(codec.bulk_need().unwrap_or(usize::MAX)) {
                    Some(bytes) => codec.feed(&bytes),
                    None => panic!(
                        "stream ended with {} of 2 AM frames decoded: bytes dropped \
                         at a codec handoff",
                        ams.len()
                    ),
                }
            }
            let [am1, am2] = am_payloads();
            assert!(ams[0] == am1 && ams[1] == am2, "AM payloads corrupted");
        })
    };

    writer.join();
    reader.join();
}

/// Explore the protocol under `cfg`.
pub fn check(cfg: Config, mutation: Mutation) -> Result<Stats, Box<Violation>> {
    explore(cfg, move || model(mutation))
}
