//! Quickstart: build a small template task graph, run it over 4 simulated
//! ranks, and inspect the execution report.
//!
//! The graph mirrors the paper's core concepts: typed edges carrying
//! (task ID, data) messages, a keymap placing tasks on ranks, a broadcast,
//! and a streaming terminal reducing a bounded message stream.
//!
//! Run with: `cargo run --release --example quickstart`
//!
//! With `--model`, skip the demo and run the concurrency audit instead:
//! the ttg-model `event_count` case (exhaustive schedule exploration) plus
//! the lock-order and wire-protocol analyses, exported to
//! `results/model_report.json`.

use std::sync::{Arc, Mutex};

use ttg::core::prelude::*;

fn main() {
    // `--model` runs the concurrency audit and exits (see ttg::check).
    ttg::check::model_from_args();

    // Edges: each carries (task ID, data) messages.
    let start: Edge<u32, Ctl> = Edge::new("start");
    let values: Edge<u32, f64> = Edge::new("values");
    let sums: Edge<u32, f64> = Edge::new("sums");

    let mut g = GraphBuilder::new();

    // GENERATE(k): fan out 8 values toward the reducer for key k % 4.
    let generate = g.make_tt(
        "generate",
        (start,),
        (values.clone(),),
        |k: &u32| *k as usize % 4, // keymap: task k runs on rank k % 4
        |k, (_ctl,): (Ctl,), outs| {
            for i in 0..8 {
                outs.send::<0>(*k % 4, (*k * 10 + i) as f64);
            }
        },
    );

    // REDUCE(k): a streaming terminal folds the incoming stream; each key
    // expects 8 × (#generators mapping to it) messages.
    let reduce = g.make_tt(
        "reduce",
        (values,),
        (sums.clone(),),
        |k: &u32| (*k + 1) as usize % 4,
        |k, (total,): (f64,), outs| outs.send::<0>(*k, total),
    );
    reduce
        .set_input_reducer::<0>(|acc, v| *acc += v, Some(16))
        .expect("pre-attach"); // 2 generators/key

    let results = Arc::new(Mutex::new(Vec::new()));
    let results2 = Arc::clone(&results);
    let _sink = g.make_tt(
        "sink",
        (sums,),
        (),
        |_| 0usize,
        move |k, (total,): (f64,), _| results2.lock().unwrap().push((*k, total)),
    );

    // With `--check`, statically verify the graph before running: terminal
    // topology, reducer configuration, sampled keymap probing, and
    // seed-reachability, reported rustc-style and exported to
    // results/check_report.json (see ttg::check).
    generate.set_check_samples((0..8).collect());
    ttg::check::enable_from_args();
    let graph = g.build();
    ttg::check::check_if_enabled(&graph, 4, &[(generate.node_id(), 0)]);

    // Run on 4 ranks × 2 workers over the simulated fabric.
    let exec = Executor::new(graph, ExecConfig::distributed(4, 2, ttg::parsec::backend()));
    for k in 0..8u32 {
        generate.in_ref::<0>().seed(exec.ctx(), k, Ctl);
    }
    let report = exec.finish();

    let mut out = results.lock().unwrap().clone();
    out.sort_by_key(|(k, _)| *k);
    println!("per-key stream sums: {out:?}");
    println!("tasks executed: {} ({:?})", report.tasks, report.per_node);
    println!(
        "inter-rank messages: {} ({} bytes)",
        report.comm.am_count,
        report.comm.total_bytes()
    );
    assert_eq!(out.len(), 4);
}
