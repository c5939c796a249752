#![cfg(all(test, ttg_model))]
//! Model case of the handshake's decoder handoff (DESIGN §12): the shipped
//! [`read_first`] and [`FrameCodec`] explored by `ttg_model::explore`
//! (`RUSTFLAGS="--cfg ttg_model" cargo test -p ttg-transport --lib`).
//!
//! A peer writes its `Hello`, a small AM and a bulk AM in one burst. The
//! handshake reads the `Hello` with `read_first`; the reader loop delivers
//! the frames that came in behind it, then reads on through the decoder
//! `read_first` handed over, as `read_frames` in `socket.rs` does. Each
//! read of the stream ends at a point the explorer chooses (`nondet`) — in
//! a length prefix, at a frame boundary, in a bulk head, a byte into a bulk
//! body — as TCP may cut a stream anywhere. A bulk body is read into its
//! own buffer, so bytes cross two handoffs: from the handshake's reads to
//! the reader's, and from the staged head to the body's buffer.
//!
//! Invariant: the reader gets the three frames intact and in order.

use super::*;
use ttg_model::{explore, nondet, Config};

/// A stream whose reads end where the explorer chooses: at any cut point
/// the caller's buffer reaches, or where the buffer ends.
struct Wire {
    bytes: Vec<u8>,
    pos: usize,
    cuts: Vec<usize>,
}

impl Read for Wire {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let end = self.bytes.len().min(self.pos + buf.len());
        let inside = |&c: &usize| self.pos < c && c < end;
        let mut ends: Vec<usize> = self.cuts.iter().copied().filter(inside).collect();
        ends.push(end);
        let to = ends[nondet(ends.len() as u64) as usize];
        let n = to - self.pos;
        buf[..n].copy_from_slice(&self.bytes[self.pos..to]);
        self.pos = to;
        Ok(n)
    }
}

/// The peer's burst: its `Hello`, a small AM and a bulk one.
fn burst() -> [Frame; 3] {
    let am = |seq, payload| Frame::Am {
        from: 1,
        handler: 7,
        seq,
        payload,
    };
    let hello = Frame::Hello {
        magic: MAGIC,
        version: PROTOCOL_VERSION,
        rank: 1,
        ranks: 2,
    };
    let body = (0..BULK_MIN).map(|i| i as u8).collect();
    [hello, am(1, vec![0xAA, 0xBB]), am(2, body)]
}

fn handshake() {
    let frames = burst();
    let mut bytes = Vec::new();
    let lens: Vec<usize> = frames.iter().map(|f| f.encode(&mut bytes)).collect();
    let (hello, small) = (lens[0], lens[0] + lens[1]);
    let head = small + AM_HEAD;
    let cuts = vec![2, hello, hello + 2, small, small + 3, head, head + 1];
    let total = bytes.len();
    let mut wire = Wire {
        bytes,
        pos: 0,
        cuts: [cuts, vec![total - 1]].concat(),
    };
    let (mut codec, mut got) = read_first(&mut wire, |_| false).expect("the Hello is read");
    assert_eq!(got[0], frames[0], "the first frame is the Hello");
    let mut buf = vec![0u8; 64 * 1024];
    while got.len() < frames.len() {
        match codec.read_from(&mut wire, &mut buf, &mut |f| got.push(f)) {
            Ok(0) => panic!(
                "the stream ended with {} of 2 frames behind the Hello: bytes lost at a handoff",
                got.len() - 1
            ),
            Ok(_) => {}
            Err(e) => panic!("stream desynced: {e}"),
        }
    }
    assert!(got[..] == frames[..], "frames corrupted");
}

#[test]
fn handshake_case() {
    let stats = explore(Config::bounded(0), handshake)
        .unwrap_or_else(|v| panic!("model case handshake: {v}"));
    println!("model frame::handshake bound=0 {stats}");
    assert!(
        stats.exhaustive && stats.schedules > 1,
        "handshake: {stats}"
    );
}
