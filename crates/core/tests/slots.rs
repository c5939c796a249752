//! The matching entry on both sides of its inline/spill boundary (4
//! terminals inline, a `Vec` beyond): templates of 2 to 5 inputs fire once
//! with their values in terminal order, a half-filled entry survives a
//! checkpoint round trip bit for bit, a late streaming terminal folds and
//! finalizes, and a duplicate input keeps its diagnostic.

use std::sync::{Arc, Mutex};

use ttg_comm::{ReadBuf, WriteBuf};
use ttg_core::prelude::*;

macro_rules! word {
    ($v:ident) => {
        u64
    };
}

/// `$name`: a template with one `u64` input per `$v: $i` fires exactly once
/// per key, values in terminal order, whichever terminal arrives last.
macro_rules! fires_once_in_terminal_order {
    ($name:ident; $($v:ident : $i:literal),+) => {
        #[test]
        fn $name() {
            const KEYS: u64 = 32;
            let fired = Arc::new(Mutex::new(Vec::new()));
            let f2 = Arc::clone(&fired);
            let mut g = GraphBuilder::new();
            let join = g.make_tt(
                "join",
                ($(Edge::<u64, u64>::new(stringify!($v)),)+),
                (),
                |_| 0usize,
                move |k, ($($v,)+): ($(word!($v),)+), _| {
                    f2.lock().unwrap().push((*k, vec![$($v),+]));
                },
            );
            let exec = Executor::new(g.build(), ExecConfig::local(2));
            // Terminal `k mod n` arrives last for key `k`.
            let n = [$($i),+].len() as u64;
            for k in 0..KEYS {
                $(if $i != k % n {
                    join.in_ref::<$i>().seed(exec.ctx(), k, 10 * k + $i);
                })+
            }
            for k in 0..KEYS {
                $(if $i == k % n {
                    join.in_ref::<$i>().seed(exec.ctx(), k, 10 * k + $i);
                })+
            }
            assert_eq!(exec.finish().tasks, KEYS);
            let mut fired = fired.lock().unwrap().clone();
            fired.sort();
            let expect: Vec<(u64, Vec<u64>)> =
                (0..KEYS).map(|k| (k, vec![$(10 * k + $i),+])).collect();
            assert_eq!(fired, expect);
        }
    };
}

fires_once_in_terminal_order!(two_inputs; a: 0, b: 1);
fires_once_in_terminal_order!(three_inputs; a: 0, b: 1, c: 2);
fires_once_in_terminal_order!(four_inputs; a: 0, b: 1, c: 2, d: 3);
fires_once_in_terminal_order!(five_inputs; a: 0, b: 1, c: 2, d: 3, e: 4);

/// Exports rank 0 of node `id`, imports the bytes back over it, exports
/// again: the two snapshots must not differ in a bit.
fn snapshot_round_trip(exec: &Executor, id: u32) {
    let node = exec.ctx().node(id).expect("node id");
    let mut first = WriteBuf::new();
    node.export_rank(0, &mut first).expect("export");
    node.import_rank(0, &mut ReadBuf::new(first.as_slice()))
        .expect("import");
    let mut second = WriteBuf::new();
    node.export_rank(0, &mut second).expect("re-export");
    assert!(first.len() > 8, "the half-filled entry is in the snapshot");
    assert_eq!(first.as_slice(), second.as_slice());
}

#[test]
fn half_filled_inline_entry_round_trips() {
    let out = Arc::new(Mutex::new(None));
    let o2 = Arc::clone(&out);
    let mut g = GraphBuilder::new();
    let join = g.make_tt(
        "join4",
        (
            Edge::<u64, u64>::new("a"),
            Edge::<u64, u64>::new("b"),
            Edge::<u64, u64>::new("c"),
            Edge::<u64, u64>::new("d"),
        ),
        (),
        |_| 0usize,
        move |_, vals: (u64, u64, u64, u64), _| *o2.lock().unwrap() = Some(vals),
    );
    let exec = Executor::new(g.build(), ExecConfig::local(1));
    join.in_ref::<0>().seed(exec.ctx(), 7, 70);
    join.in_ref::<2>().seed(exec.ctx(), 7, 72);
    snapshot_round_trip(&exec, join.node_id());
    join.in_ref::<3>().seed(exec.ctx(), 7, 73);
    join.in_ref::<1>().seed(exec.ctx(), 7, 71);
    assert_eq!(exec.finish().tasks, 1);
    assert_eq!(*out.lock().unwrap(), Some((70, 71, 72, 73)));
}

#[test]
fn half_filled_spilled_entry_round_trips() {
    let out = Arc::new(Mutex::new(None));
    let o2 = Arc::clone(&out);
    let mut g = GraphBuilder::new();
    let join = g.make_tt(
        "join5",
        (
            Edge::<u64, u64>::new("a"),
            Edge::<u64, u64>::new("b"),
            Edge::<u64, u64>::new("c"),
            Edge::<u64, u64>::new("d"),
            Edge::<u64, u64>::new("e"),
        ),
        (),
        |_| 0usize,
        move |_, vals: (u64, u64, u64, u64, u64), _| *o2.lock().unwrap() = Some(vals),
    );
    let exec = Executor::new(g.build(), ExecConfig::local(1));
    join.in_ref::<4>().seed(exec.ctx(), 7, 74);
    join.in_ref::<1>().seed(exec.ctx(), 7, 71);
    snapshot_round_trip(&exec, join.node_id());
    join.in_ref::<0>().seed(exec.ctx(), 7, 70);
    join.in_ref::<3>().seed(exec.ctx(), 7, 73);
    join.in_ref::<2>().seed(exec.ctx(), 7, 72);
    assert_eq!(exec.finish().tasks, 1);
    assert_eq!(*out.lock().unwrap(), Some((70, 71, 72, 73, 74)));
}

/// The last inline slot as a stream: an unbounded reducer on terminal 3 of
/// 4 folds what a driver task sends it and closes when that task finalizes.
#[test]
fn stream_on_terminal_three_of_four_folds_and_finalizes() {
    let start: Edge<u64, u64> = Edge::new("start");
    let parts: Edge<u64, u64> = Edge::new("parts");
    let out = Arc::new(Mutex::new(None));
    let o2 = Arc::clone(&out);
    let mut g = GraphBuilder::new();
    let join = g.make_tt(
        "join4",
        (
            Edge::<u64, u64>::new("a"),
            Edge::<u64, u64>::new("b"),
            Edge::<u64, u64>::new("c"),
            parts.clone(),
        ),
        (),
        |_| 0usize,
        move |_, vals: (u64, u64, u64, u64), _| *o2.lock().unwrap() = Some(vals),
    );
    join.set_input_reducer::<3>(|acc, v| *acc += v, None)
        .expect("pre-attach");
    let stream = join.in_ref::<3>();
    let driver = g.make_tt(
        "driver",
        (start,),
        (parts,),
        |_| 0usize,
        move |k, (n,): (u64,), outs| {
            for v in 1..=n {
                outs.send::<0>(*k, v);
            }
            stream.finalize(outs, k);
        },
    );
    let exec = Executor::new(g.build(), ExecConfig::local(1));
    join.in_ref::<0>().seed(exec.ctx(), 7, 70);
    join.in_ref::<1>().seed(exec.ctx(), 7, 71);
    join.in_ref::<2>().seed(exec.ctx(), 7, 72);
    driver.in_ref::<0>().seed(exec.ctx(), 7, 5);
    let report = exec.finish();
    assert_eq!(report.tasks, 2);
    assert_eq!(*out.lock().unwrap(), Some((70, 71, 72, 15)));
}

fn duplicate_on_three_input_key() -> ExecReport {
    let mut g = GraphBuilder::new();
    let join = g.make_tt(
        "join3",
        (
            Edge::<u64, u64>::new("a"),
            Edge::<u64, u64>::new("b"),
            Edge::<u64, u64>::new("c"),
        ),
        (),
        |_| 0usize,
        |_, _: (u64, u64, u64), _| {},
    );
    let exec = Executor::new(g.build(), ExecConfig::local(1));
    join.in_ref::<0>().seed(exec.ctx(), 7, 1);
    join.in_ref::<1>().seed(exec.ctx(), 7, 2);
    join.in_ref::<1>().seed(exec.ctx(), 7, 3);
    exec.finish()
}

/// The text is the parent commit's, to the letter.
#[cfg(not(feature = "checked"))]
#[test]
#[should_panic(
    expected = "duplicate input on terminal 1 of join3 for key 7 (no reducer installed)"
)]
fn duplicate_input_on_a_three_input_key_keeps_its_diagnostic() {
    duplicate_on_three_input_key();
}

#[cfg(feature = "checked")]
#[test]
fn duplicate_input_on_a_three_input_key_keeps_its_diagnostic() {
    let report = duplicate_on_three_input_key();
    assert_eq!(report.tasks, 0);
    let texts: Vec<String> = report.violations.iter().map(|v| v.to_string()).collect();
    assert_eq!(
        texts,
        [
            "TTG020 exactly-once violation: duplicate input on terminal 1 of 'join3' \
          for key 7 (no reducer installed); message dropped"
        ]
    );
}
