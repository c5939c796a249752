//! Property tests of the two halves of the socket wire path (DESIGN §12)
//! through the crate's public surface: whatever way the byte stream is
//! cut, `FrameCodec::read_from` decodes the frames that were sent, and
//! whatever a `Write` accepts per call, `WireBatch::write_to` emits the
//! bytes `Frame::encode` defines. No threads, no sockets: CI also runs
//! this file under `--cfg ttg_model`.

use std::io::{IoSlice, Read, Write};
use std::sync::Arc;

use ttg_transport::frame::MAGIC;
use ttg_transport::{Frame, FrameCodec, WireBatch, PROTOCOL_VERSION};

/// splitmix64: the tests' only randomness, seeded per case.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.next() as u8).collect()
    }
}

/// A stream of every regime: control frames, small, empty and bulk `Am`s,
/// bulk frames back to back and a bulk frame last. Body sizes straddle the
/// bulk threshold (32 KiB).
fn mixed_frames(rng: &mut Rng) -> Vec<Frame> {
    let am = |rng: &mut Rng, seq: u64, n: usize| Frame::Am {
        from: 1,
        handler: 7,
        seq,
        payload: rng.bytes(n),
    };
    let (small, bulk) = (rng.below(900), 32 * 1024 + rng.below(5000));
    vec![
        am(rng, 1, small),
        Frame::AckRange {
            from: 1,
            ranges: vec![(1, 9), (20, 20)],
        },
        am(rng, 2, bulk),
        am(rng, 3, 40_000),
        am(rng, 4, 36_000),
        Frame::TermDone,
        Frame::TermProbe { round: 5 },
        am(rng, 6, 32 * 1024 - 1),
        am(rng, 7, 100),
        Frame::BarrierRelease { epoch: 3 },
        am(rng, 8, 0),
        am(rng, 9, 32 * 1024),
    ]
}

fn encode_all(frames: &[Frame]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for f in frames {
        f.encode(&mut bytes);
    }
    bytes
}

/// Serves `data` in pieces that end at the given cut offsets.
struct Cut<'a> {
    data: &'a [u8],
    at: usize,
    cuts: &'a [usize],
}

impl Read for Cut<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let stop = self
            .cuts
            .iter()
            .copied()
            .find(|&c| c > self.at)
            .unwrap_or(self.data.len());
        let n = buf.len().min(stop - self.at);
        buf[..n].copy_from_slice(&self.data[self.at..self.at + n]);
        self.at += n;
        Ok(n)
    }
}

/// Decode `data`, cut at `cuts`, through the reader path; the first
/// `staged` bytes of it were read by the handshake, in one piece.
fn read_all(data: &[u8], staged: usize, cuts: &[usize]) -> (Vec<Frame>, u64) {
    let mut codec = FrameCodec::new();
    let mut got = Vec::new();
    let mut out = |f: Frame| got.push(f);
    codec
        .feed(&data[..staged], &mut out)
        .expect("staged bytes decode");
    let mut r = Cut {
        data: &data[staged..],
        at: 0,
        cuts,
    };
    let mut scratch = vec![0u8; 64 * 1024];
    while codec
        .read_from(&mut r, &mut scratch, &mut out)
        .expect("stream decodes")
        > 0
    {}
    (got, codec.bulk_frames())
}

#[test]
fn any_cut_of_a_mixed_stream_decodes_to_the_frames_sent() {
    let mut rng = Rng(0x5eed);
    let frames = mixed_frames(&mut rng);
    let bytes = encode_all(&frames);
    // Frame boundaries, to aim single cuts at heads and length prefixes.
    let mut bounds = vec![0];
    for f in &frames {
        bounds.push(bounds.last().unwrap() + f.encode_vec().len());
    }
    // Every single cut within 40 bytes of a frame boundary (all the ways
    // a prefix, a kind byte and a bulk head can straddle two reads), and
    // a stride through the bodies.
    let near = |c: usize| bounds.iter().any(|&b| c.abs_diff(b) <= 40);
    let mut direct = 0;
    for cut in (1..bytes.len()).filter(|&c| near(c) || c % 1009 == 0) {
        let (got, bulk) = read_all(&bytes, 0, &[cut]);
        assert_eq!(got, frames, "cut at {cut}");
        direct += bulk;
    }
    assert!(direct > 0, "no frame took the direct path");
    // Seeded random cuts: from a handful of large pieces to a dust of
    // small ones (reads of a few bytes inside heads and bodies alike).
    for seed in 0..60u64 {
        let mut rng = Rng(seed);
        let pieces = 1 << (1 + rng.below(12));
        let mut cuts: Vec<usize> = (0..pieces)
            .map(|_| 1 + rng.below(bytes.len() - 1))
            .collect();
        cuts.sort_unstable();
        assert_eq!(read_all(&bytes, 0, &cuts).0, frames, "seed {seed}");
    }
}

#[test]
fn feed_decodes_whatever_the_chunk_size() {
    // `feed` on its own (no reader): the same stream in chunks of every
    // size up to a few frame heads, then in strides up to one chunk.
    let mut rng = Rng(3);
    let frames = mixed_frames(&mut rng);
    let bytes = encode_all(&frames);
    for chunk in (1..=70).chain((71..bytes.len() + 4096).step_by(4099)) {
        let mut codec = FrameCodec::new();
        let mut got = Vec::new();
        for part in bytes.chunks(chunk) {
            codec.feed(part, &mut |f| got.push(f)).expect("decodes");
        }
        assert_eq!(got, frames, "chunk size {chunk}");
    }
}

#[test]
fn a_bulk_frame_staged_by_the_handshake_loses_no_byte() {
    // The handshake reads through the reader's decoder; whatever it pulled
    // in behind the peer's Hello — here any part of a small Am and of the bulk Am
    // behind it, from a sliver of a length prefix to a head plus body
    // bytes — must reach the reader path.
    let mut rng = Rng(7);
    let hello = Frame::Hello {
        magic: MAGIC,
        version: PROTOCOL_VERSION,
        rank: 1,
        ranks: 2,
    };
    let frames = vec![
        hello.clone(),
        mixed_frames(&mut rng).swap_remove(2),
        Frame::TermDone,
    ];
    let bytes = encode_all(&frames);
    let hello_len = hello.encode_vec().len();
    for staged in (hello_len..hello_len + 1300).chain([bytes.len() - 3, bytes.len()]) {
        let (got, _) = read_all(&bytes, staged, &[]);
        assert_eq!(got, frames, "{staged} bytes staged by the handshake");
    }
}

#[test]
fn truncation_inside_a_bulk_body_is_an_io_error_not_a_panic() {
    let frame = Frame::Am {
        from: 0,
        handler: 1,
        seq: 2,
        payload: vec![9u8; 50_000],
    };
    let bytes = frame.encode_vec();
    for keep in [10, 22, 1000, bytes.len() - 1] {
        let mut codec = FrameCodec::new();
        let mut r = &bytes[..keep];
        let mut scratch = vec![0u8; 4096];
        let mut frames = 0;
        let end = loop {
            match codec.read_from(&mut r, &mut scratch, &mut |_| frames += 1) {
                Ok(0) => break None,
                Ok(_) => {}
                Err(e) => break Some(e),
            }
        };
        // A stream that ends inside a body being read in place is reported
        // by that read; one that ends inside the head is a plain EOF, which
        // the reader loop reports (both become `PeerReset`).
        match end {
            Some(e) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof),
            None => assert!(keep < 21, "EOF inside the body went unreported"),
        }
        assert_eq!(frames, 0, "a truncated frame must not surface");
    }
}

/// A `Write` that takes between 1 and `k` bytes per call, vectored or not.
struct Stingy {
    out: Vec<u8>,
    k: usize,
    rng: Rng,
    vectored: bool,
}

impl Write for Stingy {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = buf.len().min(1 + self.rng.below(self.k));
        self.out.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
        if !self.vectored {
            // What `Write` does by default: the first non-empty slice.
            let first = bufs
                .iter()
                .find(|b| !b.is_empty())
                .map_or(&[][..], |b| &**b);
            return self.write(first);
        }
        let mut left = 1 + self.rng.below(self.k);
        let mut n = 0;
        for b in bufs {
            let take = b.len().min(left);
            self.out.extend_from_slice(&b[..take]);
            n += take;
            left -= take;
        }
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn a_batch_written_in_slivers_is_the_bytes_encode_defines() {
    let mut rng = Rng(11);
    let frames = mixed_frames(&mut rng);
    let want = encode_all(&frames);
    let shared = Arc::new(rng.bytes(48_000));
    let mut batch = WireBatch::default();
    for f in &frames {
        batch.push(f.clone());
    }
    // The reliable layer's entry points: a bulk and a small shared body.
    batch.push_am_shared(2, 5, 77, &shared);
    batch.push_am_shared(2, 5, 78, &Arc::new(vec![1, 2, 3]));
    let mut want = want;
    for (seq, body) in [(77, (*shared).clone()), (78, vec![1, 2, 3])] {
        Frame::Am {
            from: 2,
            handler: 5,
            seq,
            payload: body,
        }
        .encode(&mut want);
    }
    assert_eq!(batch.frames(), frames.len() + 2);
    assert_eq!(batch.bytes(), want.len());
    assert_eq!(
        batch.bulk_frames(),
        5,
        "bodies of 32 KiB and more are queued, not copied"
    );
    assert_eq!(
        Arc::strong_count(&shared),
        2,
        "a shared bulk body is held, not cloned"
    );
    for (k, vectored) in [
        (1, false),
        (7, true),
        (4096, false),
        (50_000, true),
        (1 << 20, true),
    ] {
        let mut w = Stingy {
            out: Vec::new(),
            k,
            rng: Rng(k as u64),
            vectored,
        };
        // Every pass writes the same batch: writing leaves it intact, as a
        // retry on a new connection needs.
        batch.write_to(&mut w).expect("stingy write");
        assert_eq!(
            w.out, want,
            "at most {k} bytes per call, vectored {vectored}"
        );
    }
    batch.clear();
    assert_eq!(
        (batch.frames(), batch.bytes(), Arc::strong_count(&shared)),
        (0, 0, 1)
    );
}
