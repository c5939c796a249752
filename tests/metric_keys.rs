//! The registry's key names are a contract: `bench_all` and `ttg-launch`
//! read the `core/*` and `sched/*` rows by name, so a renamed key would
//! silently zero a benchmark row instead of failing to compile.

use std::collections::BTreeMap;

use ttg::core::prelude::*;

/// Every key a 2-rank in-process execution registers, as `subsystem/name`;
/// `[r]` marks a key registered once per rank.
const KEYS: &[&str] = &[
    "comm/ack_flushes",
    "comm/acks_batched",
    "comm/am_bytes",
    "comm/am_count",
    "comm/am_dedup_hits",
    "comm/am_delayed_injected",
    "comm/am_deliver_ns",
    "comm/am_dropped_injected",
    "comm/am_dup_injected",
    "comm/am_retries",
    "comm/am_retry_exhausted",
    "comm/bcast_bytes_saved",
    "comm/bcast_sends_saved",
    "comm/data_copies",
    "comm/local_deliveries",
    "comm/post_shutdown_sends",
    "comm/recoveries",
    "comm/replayed_sends",
    "comm/restores",
    "comm/rma_bytes",
    "comm/rma_gets",
    "comm/rma_released_evictions",
    "comm/rma_stale_gets",
    "comm/rx_bytes[r]",
    "comm/serializations",
    "comm/snapshot_bytes",
    "comm/snapshot_pause_ns",
    "comm/snapshots_taken",
    "comm/tx_bytes[r]",
    "core/activations[r]",
    "core/cloned_bytes[r]",
    "core/cow_clones[r]",
    "core/deep_copies_avoided[r]",
    "core/dropped_sends[r]",
    "core/local_copies[r]",
    "core/local_shared[r]",
    "core/reducer_folds[r]",
    "core/values_shared[r]",
    "sched/executed[r]",
    "sched/idle_ns[r]",
    "sched/local_hits[r]",
    "sched/queue_depth[r]",
    "sched/ready_hwm[r]",
    "sched/steal_misses[r]",
    "sched/steals[r]",
    "sched/submitted[r]",
    "sched/tasks_batched[r]",
    "sched/wakeups[r]",
    "transport/connects",
    "transport/handshake_failures",
    "transport/queue_bytes_hwm[r]",
    "transport/queue_hwm[r]",
    "transport/reconnects",
    "transport/rx_bytes",
    "transport/rx_direct_frames",
    "transport/tx_bytes",
    "transport/tx_direct_frames",
    "transport/tx_frames_abandoned",
    "transport/tx_frames_coalesced",
    "transport/tx_writes",
];

#[test]
fn two_rank_execution_registers_the_pinned_key_set() {
    let hops: Edge<u32, u64> = Edge::new("hops");
    let mut g = GraphBuilder::new();
    let hop = g.make_tt(
        "hop",
        (hops.clone(),),
        (hops,),
        |k: &u32| (*k % 2) as usize,
        |k, (x,): (u64,), outs| {
            if *k < 4 {
                outs.send::<0>(k + 1, x + 1);
            }
        },
    );
    let exec = Executor::new(
        g.build(),
        ExecConfig::distributed(2, 1, BackendSpec::default()),
    );
    hop.in_ref::<0>().seed(exec.ctx(), 0, 0);
    let report = exec.finish();
    assert_eq!(report.tasks, 5);

    // Entries iterate in key order, so each name sees its ranks ascending.
    let mut ranks_of: BTreeMap<String, Vec<Option<u32>>> = BTreeMap::new();
    for key in report.telemetry.entries.keys() {
        let name = format!("{}/{}", key.subsystem, key.name);
        ranks_of.entry(name).or_default().push(key.rank);
    }
    let got: Vec<String> = ranks_of
        .into_iter()
        .map(|(name, ranks)| match ranks[..] {
            [None] => name,
            [Some(0), Some(1)] => format!("{name}[r]"),
            _ => panic!("{name} registered for ranks {ranks:?}"),
        })
        .collect();
    let mut want: Vec<&str> = KEYS.to_vec();
    want.sort();
    assert_eq!(got, want);
}
