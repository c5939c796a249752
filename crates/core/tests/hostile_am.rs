//! No active message panics the delivery thread, whatever a peer put in
//! it: a matching-table misuse, an address the graph does not have or a
//! count that lies arrives as one coded TTG043 (`DeliveryFailed`) and the
//! rank goes on delivering. Every AM here is written by hand (format:
//! `ttg_core::am`) and injected as if rank 1 had sent it.
//!
//! The same misuses met by a task body's own send are bugs of this program
//! and still panic (`edge_cases.rs`); `checked` builds record them as
//! sanitizer violations instead (crates/check/tests/sanitizer.rs).
#![cfg(not(feature = "checked"))]

use std::sync::Arc;

use ttg_comm::{ReadBuf, RegionBytes, Wire, WireError, WireKind, WriteBuf};
use ttg_core::am::{am_header, MSG_DATA_INLINE, MSG_DATA_SPLITMD, MSG_FINALIZE, MSG_SET_SIZE};
use ttg_core::prelude::*;

/// A splitmd value: the metadata is its length, the payload its `f64`s.
#[derive(Clone)]
struct Floats {
    len: usize,
    data: Vec<f64>,
}

impl Wire for Floats {
    const KIND: WireKind = WireKind::SplitMd;
    fn encode(&self, b: &mut WriteBuf) {
        self.data.encode(b);
    }
    fn decode(r: &mut ReadBuf<'_>) -> Result<Self, WireError> {
        let data = Vec::<f64>::decode(r)?;
        Ok(Floats {
            len: data.len(),
            data,
        })
    }
    fn split_encode_md(&self, b: &mut WriteBuf) {
        b.put_usize(self.len);
    }
    fn split_decode_md(r: &mut ReadBuf<'_>) -> Result<Self, WireError> {
        let len = r.get_usize()?;
        Ok(Floats {
            len,
            data: Vec::new(),
        })
    }
    fn split_bytes(&self) -> Option<&[u8]> {
        ttg_comm::f64s_as_bytes(&self.data)
    }
    fn split_attach(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        if bytes.len() != self.len * 8 {
            return Err(WireError::new(format!(
                "payload of {} B for {} f64s",
                bytes.len(),
                self.len
            )));
        }
        self.data = ttg_comm::bytes_to_f64s(bytes);
        Ok(())
    }
}

/// Template tasks of the graph under attack, all on rank 0: node ids.
struct Rig {
    exec: Executor,
    /// `(u64, u64)`, no reducer.
    join: u32,
    /// `(u64 folded by an unbounded reducer, u64)`.
    fold: u32,
    /// `(u64 folded by a reducer of stream size 1, u64)`.
    one: u32,
    /// `(u64 folded by an unbounded reducer,)`.
    solo: u32,
    /// `(String,)`.
    text: u32,
    /// `(Arc<Floats>,)`, by splitmd.
    floats: u32,
}

fn rig() -> Rig {
    let mut g = GraphBuilder::new();
    let pair = || -> (Edge<u32, u64>, Edge<u32, u64>) { (Edge::new("a"), Edge::new("b")) };
    let join = g.make_tt("join", pair(), (), |_| 0usize, |_, _: (u64, u64), _| {});
    let fold = g.make_tt("fold", pair(), (), |_| 0usize, |_, _: (u64, u64), _| {});
    let one = g.make_tt("one", pair(), (), |_| 0usize, |_, _: (u64, u64), _| {});
    let s: Edge<u32, u64> = Edge::new("s");
    let solo = g.make_tt("solo", (s,), (), |_| 0usize, |_, _: (u64,), _| {});
    let t: Edge<u32, String> = Edge::new("t");
    let text = g.make_tt("text", (t,), (), |_| 0usize, |_, _: (String,), _| {});
    let f: Edge<u32, Arc<Floats>> = Edge::new("f");
    let floats = g.make_tt("floats", (f,), (), |_| 0usize, |_, _: (Arc<Floats>,), _| {});
    fold.set_input_reducer::<0>(|a, b| *a += b, None).unwrap();
    one.set_input_reducer::<0>(|a, b| *a += b, Some(1)).unwrap();
    solo.set_input_reducer::<0>(|a, b| *a += b, None).unwrap();
    let ids = (
        join.node_id(),
        fold.node_id(),
        one.node_id(),
        solo.node_id(),
        text.node_id(),
        floats.node_id(),
    );
    let exec = Executor::new(
        g.build(),
        ExecConfig::distributed(2, 1, BackendSpec::default_spec()),
    );
    Rig {
        exec,
        join: ids.0,
        fold: ids.1,
        one: ids.2,
        solo: ids.3,
        text: ids.4,
        floats: ids.5,
    }
}

/// A data AM carrying `v` to `keys` of one `(node, terminal)` group,
/// announcing `consumers` of them.
fn value_to(node: u32, terminal: u16, keys: &[u32], consumers: u32, v: u64) -> Vec<u8> {
    let mut am = WriteBuf::new();
    am_header(&mut am, 0, MSG_DATA_INLINE, terminal);
    am.put_u64(1); // source rank
    put_group(&mut am, node, terminal, keys, consumers);
    v.encode(&mut am);
    am.into_vec()
}

/// The consumer count and the one `(node, terminal)` group of a data AM.
fn put_group(am: &mut WriteBuf, node: u32, terminal: u16, keys: &[u32], consumers: u32) {
    am.put_u32(consumers);
    let mut group = WriteBuf::new();
    group.put_u32(node);
    group.put_u16(terminal);
    group.put_u32(keys.len() as u32);
    for k in keys {
        k.encode(&mut group);
    }
    am.put_u32(group.len() as u32);
    am.put_bytes(group.as_slice());
}

fn value(node: u32, terminal: u16, key: u32) -> Vec<u8> {
    value_to(node, terminal, &[key], 1, 5)
}

fn set_size(terminal: u16, key: u32, n: u64) -> Vec<u8> {
    let mut am = WriteBuf::new();
    am_header(&mut am, 0, MSG_SET_SIZE, terminal);
    key.encode(&mut am);
    am.put_u64(n);
    am.into_vec()
}

fn finalize(terminal: u16, key: u32) -> Vec<u8> {
    let mut am = WriteBuf::new();
    am_header(&mut am, 0, MSG_FINALIZE, terminal);
    key.encode(&mut am);
    am.into_vec()
}

/// Deliver `ams` (handler, bytes) to rank 0 in order, then a well-formed
/// pair that must still fire `join`. The last of `ams` must fail with
/// exactly one TTG043 naming `why`; everything before it must deliver.
fn provoke(r: Rig, ams: &[(u32, Vec<u8>)], why: &str) {
    let fabric = &r.exec.ctx().fabric;
    for (handler, am) in ams {
        fabric.send_am(1, 0, *handler, am.clone()).unwrap();
    }
    fabric.send_am(1, 0, r.join, value(r.join, 0, 99)).unwrap();
    fabric.send_am(1, 0, r.join, value(r.join, 1, 99)).unwrap();
    let bad = ams.last().expect("an AM to provoke with").0;
    let report = r.exec.finish();
    assert_eq!(report.comm_errors.len(), 1, "{:?}", report.comm_errors);
    let e = &report.comm_errors[0];
    assert_eq!(e.code(), "TTG043", "{e}");
    assert_eq!(
        (e.from, e.to, e.handler),
        (Some(1), Some(0), Some(bad)),
        "{e}"
    );
    assert!(e.detail.contains(why), "{e}");
    assert_eq!(report.tasks, 1, "the delivery thread must live on");
}

#[test]
fn duplicate_plain_input() {
    let r = rig();
    let am = (r.join, value(r.join, 0, 7));
    provoke(
        r,
        &[am.clone(), am],
        "duplicate input on terminal 0 of join",
    );
}

#[test]
fn stream_overrun() {
    // The stream of size 1 is full after one value; its task still waits
    // for terminal 1.
    let r = rig();
    let am = (r.one, value(r.one, 0, 7));
    provoke(r, &[am.clone(), am], "stream overrun on terminal 0 of one");
}

#[test]
fn value_into_a_stream_slot_without_reducer() {
    // A size turns a plain terminal's empty slot into a stream nobody folds.
    let r = rig();
    let ams = [(r.join, set_size(0, 7, 2)), (r.join, value(r.join, 0, 7))];
    provoke(r, &ams, "stream slot without reducer on terminal 0 of join");
}

#[test]
fn stream_size_below_received() {
    let r = rig();
    let v = (r.fold, value(r.fold, 0, 7));
    let ams = [v.clone(), v, (r.fold, set_size(0, 7, 1))];
    provoke(r, &ams, "stream size 1 below already-received 2 on fold");
}

#[test]
fn set_size_on_a_filled_plain_terminal() {
    let r = rig();
    let ams = [(r.join, value(r.join, 0, 7)), (r.join, set_size(0, 7, 3))];
    provoke(r, &ams, "set_stream_size on non-streaming terminal of join");
}

#[test]
fn finalize_of_an_unknown_key() {
    let r = rig();
    let ams = [(r.fold, finalize(0, 7))];
    provoke(r, &ams, "finalize on fold for unknown key 7");
}

#[test]
fn finalize_of_a_plain_terminal() {
    let r = rig();
    let ams = [(r.join, value(r.join, 0, 7)), (r.join, finalize(0, 7))];
    provoke(r, &ams, "finalize on non-streaming terminal of join");
}

#[test]
fn size_zero_closes_a_stream_with_no_value() {
    let r = rig();
    let ams = [(r.solo, set_size(0, 7, 0))];
    provoke(r, &ams, "empty finalized stream on solo for key 7");
}

#[test]
fn addresses_the_graph_does_not_have() {
    let r = rig();
    let ams = [(r.join, value(r.join, 9, 7))];
    provoke(r, &ams, "join has no input terminal 9");

    let r = rig();
    let ams = [(r.join, set_size(2, 7, 1))];
    provoke(r, &ams, "join has no input terminal 2");

    // A group naming a node outside the graph, and a handler that is one.
    let r = rig();
    let mut am = (r.join, value(r.join, 0, 7));
    am.1[27..31].copy_from_slice(&77u32.to_le_bytes());
    provoke(r, &[am], "no template task 77");

    let r = rig();
    let ams = [(77, value(r.join, 0, 7))];
    provoke(r, &ams, "no template task 77");
}

#[test]
fn group_naming_a_terminal_of_another_type() {
    // The value is decoded once, by the header's terminal; handing the
    // `u64` to a `String` terminal would panic the task that takes it.
    let r = rig();
    let mut am = (r.join, value(r.join, 0, 7));
    am.1[27..31].copy_from_slice(&r.text.to_le_bytes());
    provoke(r, &[am], "terminal 0 of text takes another type");
}

#[test]
fn more_keys_than_announced() {
    for announced in [0, 1] {
        let r = rig();
        let ams = [(r.join, value_to(r.join, 0, &[7, 8], announced, 5))];
        provoke(r, &ams, "more keys than the message announced");
    }
}

#[test]
fn a_region_shorter_than_its_metadata() {
    // Rank 1's region holds two `f64`s; the metadata announces four.
    let r = rig();
    let fabric = &r.exec.ctx().fabric;
    let region = fabric.register_region(1, RegionBytes::copy_of(&[0u8; 16]), 1, None);
    let mut am = WriteBuf::new();
    am_header(&mut am, 0, MSG_DATA_SPLITMD, 0);
    am.put_u64(1); // source rank
    am.put_u64(region);
    am.put_u64(1); // owner
    put_group(&mut am, r.floats, 0, &[7], 1);
    am.put_usize(4);
    let ams = [(r.floats, am.into_vec())];
    provoke(r, &ams, "payload of 16 B for 4 f64s");
}

#[test]
fn truncated_anywhere() {
    // Every proper prefix of a well-formed AM is a decode error.
    let r = rig();
    let whole = value(r.join, 0, 7);
    drop(r.exec.finish());
    for cut in 0..whole.len() {
        let r = rig();
        let ams = [(r.join, whole[..cut].to_vec())];
        provoke(r, &ams, "buffer underrun");
    }
}
