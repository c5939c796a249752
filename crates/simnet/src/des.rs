//! The discrete-event simulator core.
//!
//! Input: a list of [`TraceTask`]s — the executed task instances with their
//! modelled durations and data dependencies (producer task, bytes moved,
//! source rank). Output: the projected makespan on a
//! [`MachineModel`], plus utilization and communication statistics.
//!
//! Each node owns `cores_per_node` identical cores and a ready queue served
//! earliest-ready first (higher priority, then smaller id, breaking ties); a
//! task runs on the node its rank maps to. Each node has one outgoing and
//! one incoming NIC channel that serialize transfers (cut-through,
//! LogGP-like).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use crate::machines::MachineModel;

/// One executed task instance from a trace.
#[derive(Debug, Clone)]
pub struct TraceTask {
    /// Unique id. Ids order nothing: `ttg-core` takes them from per-thread
    /// blocks, so a consumer may have a smaller id than its producer; they
    /// only break ties, deterministically.
    pub id: u64,
    /// Rank (= node) the task executed on.
    pub rank: usize,
    /// Modelled compute duration in nanoseconds.
    pub cost_ns: u64,
    /// Scheduler priority: higher-priority tasks win core allocation and
    /// NIC service when ready simultaneously (the paper's priority-map
    /// feature; 0 = none).
    pub priority: i32,
    /// Dependencies: (producer id or 0 for seeds, bytes, src rank,
    /// shared-transfer id or 0).
    pub deps: Vec<(u64, u64, usize, u64)>,
}

/// Build simulator input from a `ttg-core` trace. A task costs its cost
/// model's duration when it has one, else its measured one.
pub fn from_core_trace(events: &[ttg_core::TaskEvent]) -> Vec<TraceTask> {
    events
        .iter()
        .map(|e| TraceTask {
            id: e.id,
            rank: e.rank,
            cost_ns: e.model_ns.unwrap_or(e.end_ns.saturating_sub(e.start_ns)),
            priority: e.priority,
            deps: e
                .deps
                .iter()
                .map(|d| (d.from_task, d.bytes, d.src_rank, d.msg))
                .collect(),
        })
        .collect()
}

/// Result of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Projected end-to-end time in nanoseconds.
    pub makespan_ns: u64,
    /// Total compute work in nanoseconds (sum of task costs).
    pub(crate) total_work_ns: u64,
    /// Bytes that crossed node boundaries.
    pub network_bytes: u64,
    /// Number of inter-node transfers.
    pub network_msgs: u64,
    /// Average core utilization in [0, 1].
    pub utilization: f64,
    /// Tasks simulated.
    pub(crate) tasks: usize,
}

// Event key: (time, kind, −priority, id, task index). At equal times:
// finishes are processed before arrivals; among arrivals, higher priority
// wins, then the smaller id (a deterministic tie-break, not arrival
// order). Ids are unique, so the index never decides.
type EvKey = (u64, u8, i64, u64, usize);
const EV_DONE: u8 = 0;
const EV_ARRIVE: u8 = 1;

/// Simulate `tasks` on `machine`. Ranks in the trace are mapped onto nodes
/// by `rank % machine.nodes`.
pub fn simulate(tasks: &[TraceTask], machine: &MachineModel) -> SimResult {
    assert!(machine.nodes > 0 && machine.cores_per_node > 0);
    let node_of = |rank: usize| rank % machine.nodes;
    let nprio = |i: usize| -(tasks[i].priority as i64);

    // Index tasks and successor lists.
    let index: HashMap<u64, usize> = tasks.iter().enumerate().map(|(i, t)| (t.id, i)).collect();
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); tasks.len()];
    let mut remaining: Vec<usize> = vec![0; tasks.len()];
    for (i, t) in tasks.iter().enumerate() {
        for &(from, _, _, _) in &t.deps {
            if from == 0 {
                continue; // external seed: satisfied at t=0
            }
            let p = *index
                .get(&from)
                .unwrap_or_else(|| panic!("dep on unknown task {from}"));
            succs[p].push(i);
            remaining[i] += 1;
        }
    }
    // Serve high-priority consumers first at the NIC (priority-aware
    // communication scheduling), then by id for determinism.
    for list in succs.iter_mut() {
        list.sort_by_key(|&i| (nprio(i), tasks[i].id));
        list.dedup();
    }

    // Per-node resources. A ready queue is a min-heap on (ready time,
    // −priority, id, task index).
    let mut cores_busy: Vec<usize> = vec![0; machine.nodes];
    let mut queues: Vec<BinaryHeap<Reverse<(u64, i64, u64, usize)>>> =
        vec![BinaryHeap::new(); machine.nodes];
    let mut nic_out: Vec<u64> = vec![0; machine.nodes];
    let mut nic_in: Vec<u64> = vec![0; machine.nodes];

    // Latest input arrival seen so far, per task.
    let mut ready_at: Vec<u64> = vec![0; tasks.len()];

    // Seed tasks become ready at t=0.
    let mut events: BinaryHeap<Reverse<EvKey>> = BinaryHeap::new();
    for (i, t) in tasks.iter().enumerate() {
        if remaining[i] == 0 {
            events.push(Reverse((0, EV_ARRIVE, nprio(i), t.id, i)));
        }
    }

    let mut makespan = 0u64;
    let mut network_bytes = 0u64;
    let mut network_msgs = 0u64;
    // Arrival cache for shared transfers (optimized broadcast: several
    // consumers piggyback on one AM).
    let mut shared_arrivals: HashMap<u64, u64> = HashMap::new();

    while let Some(Reverse((now, kind, _, id, i))) = events.pop() {
        let node = node_of(tasks[i].rank);
        if kind == EV_ARRIVE {
            queues[node].push(Reverse((now, nprio(i), id, i)));
        } else {
            cores_busy[node] -= 1;
            // Resolve each successor dependency that this task feeds.
            for &s in &succs[i] {
                let st = &tasks[s];
                let dst_node = node_of(st.rank);
                // A successor may consume several outputs of the same
                // producer; handle each matching dep edge once by
                // counting them all here (they share the arrival path).
                let mut n_edges = 0usize;
                for &(from, bytes, src, msg) in &st.deps {
                    if from != id {
                        continue;
                    }
                    n_edges += 1;
                    // The trace's source rank may be a forwarding rank.
                    let src_node = node_of(src);
                    let arrival = if bytes == 0 || src_node == dst_node {
                        now
                    } else if let Some(&arr) = shared_arrivals.get(&msg) {
                        arr // msg 0 ("not shared") is never cached
                    } else {
                        let begin = now.max(nic_out[src_node]).max(nic_in[dst_node]);
                        let end = begin + machine.transfer_ns(bytes);
                        nic_out[src_node] = end;
                        nic_in[dst_node] = end;
                        network_bytes += bytes;
                        network_msgs += 1;
                        let arr = end + machine.msg_overhead_ns;
                        if msg != 0 {
                            shared_arrivals.insert(msg, arr);
                        }
                        arr
                    };
                    ready_at[s] = ready_at[s].max(arrival);
                }
                remaining[s] -= n_edges;
                if remaining[s] == 0 {
                    events.push(Reverse((ready_at[s], EV_ARRIVE, nprio(s), st.id, s)));
                }
            }
        }
        // Fill the free cores of the node this event touched.
        while cores_busy[node] < machine.cores_per_node {
            let Some(Reverse((_, _, next_id, next))) = queues[node].pop() else {
                break;
            };
            cores_busy[node] += 1;
            let end = now + tasks[next].cost_ns + machine.task_overhead_ns;
            makespan = makespan.max(end);
            events.push(Reverse((end, EV_DONE, 0, next_id, next)));
        }
    }

    let total_work_ns: u64 = tasks.iter().map(|t| t.cost_ns).sum();
    let capacity = makespan as f64 * (machine.nodes * machine.cores_per_node) as f64;
    SimResult {
        makespan_ns: makespan,
        total_work_ns,
        network_bytes,
        network_msgs,
        utilization: if capacity > 0.0 {
            total_work_ns as f64 / capacity
        } else {
            0.0
        },
        tasks: tasks.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine(nodes: usize, cores: usize) -> MachineModel {
        MachineModel {
            nodes,
            cores_per_node: cores,
            latency_ns: 1_000,
            bytes_per_ns: 10.0,
            msg_overhead_ns: 0,
            task_overhead_ns: 0,
        }
    }

    fn chain(n: u64, cost: u64, bytes: u64, alternate_ranks: bool) -> Vec<TraceTask> {
        (1..=n)
            .map(|id| TraceTask {
                id,
                priority: 0,
                rank: if alternate_ranks {
                    (id % 2) as usize
                } else {
                    0
                },
                cost_ns: cost,
                deps: vec![(
                    id - 1,
                    if id > 1 { bytes } else { 0 },
                    if alternate_ranks {
                        ((id + 1) % 2) as usize
                    } else {
                        0
                    },
                    0,
                )],
            })
            .collect()
    }

    #[test]
    fn serial_chain_sums_costs() {
        let tasks = chain(10, 100, 0, false);
        let r = simulate(&tasks, &machine(1, 4));
        assert_eq!(r.makespan_ns, 1000);
        assert_eq!(r.network_msgs, 0);
    }

    #[test]
    fn remote_chain_pays_latency_per_hop() {
        let tasks = chain(10, 100, 10, true);
        let r = simulate(&tasks, &machine(2, 4));
        // 10 tasks × 100ns + 9 hops × (1000 + 1)ns
        assert_eq!(r.makespan_ns, 1000 + 9 * 1001);
        assert_eq!(r.network_msgs, 9);
        assert_eq!(r.network_bytes, 90);
    }

    #[test]
    fn a_core_trace_projects_from_its_cost_model_else_from_its_recorded_times() {
        // `a` has a cost model: its 9 µs of recorded time do not count. `b`
        // has none and ran from 1 000 to 1 750 ns.
        let ev = |id, model_ns, start_ns, end_ns, deps: Vec<ttg_core::Dep>| ttg_core::TaskEvent {
            id,
            node: 0,
            name: "t",
            rank: 0,
            worker: 0,
            ready_ns: start_ns,
            start_ns,
            end_ns,
            model_ns,
            priority: 0,
            deps,
        };
        let from_a = ttg_core::Dep {
            from_task: 1,
            bytes: 0,
            src_rank: 0,
            msg: 0,
        };
        let trace = [
            ev(1, Some(500), 100, 9_100, vec![]),
            ev(2, None, 1_000, 1_750, vec![from_a]),
        ];
        let tasks = from_core_trace(&trace);
        let costs: Vec<u64> = tasks.iter().map(|t| t.cost_ns).collect();
        assert_eq!(costs, [500, 750]);
        assert_eq!(tasks[1].deps, [(1, 0, 0, 0)]);
        assert_eq!(simulate(&tasks, &machine(1, 4)).makespan_ns, 500 + 750);
    }

    #[test]
    fn independent_tasks_run_in_parallel() {
        let tasks: Vec<TraceTask> = (1..=8)
            .map(|id| TraceTask {
                id,
                priority: 0,
                rank: 0,
                cost_ns: 100,
                deps: vec![(0, 0, 0, 0)],
            })
            .collect();
        let r4 = simulate(&tasks, &machine(1, 4));
        let r8 = simulate(&tasks, &machine(1, 8));
        let r1 = simulate(&tasks, &machine(1, 1));
        assert_eq!(r1.makespan_ns, 800);
        assert_eq!(r4.makespan_ns, 200);
        assert_eq!(r8.makespan_ns, 100);
        assert!(r8.utilization <= 1.0 + 1e-9);
    }

    #[test]
    fn fork_join_respects_dependencies() {
        // 1 → {2,3,4} → 5
        let mut tasks = vec![TraceTask {
            id: 1,
            priority: 0,
            rank: 0,
            cost_ns: 10,
            deps: vec![(0, 0, 0, 0)],
        }];
        for id in 2..=4 {
            tasks.push(TraceTask {
                id,
                priority: 0,
                rank: 0,
                cost_ns: 50,
                deps: vec![(1, 0, 0, 0)],
            });
        }
        tasks.push(TraceTask {
            id: 5,
            priority: 0,
            rank: 0,
            cost_ns: 10,
            deps: vec![(2, 0, 0, 0), (3, 0, 0, 0), (4, 0, 0, 0)],
        });
        let r = simulate(&tasks, &machine(1, 4));
        assert_eq!(r.makespan_ns, 10 + 50 + 10);
        let r1 = simulate(&tasks, &machine(1, 1));
        assert_eq!(r1.makespan_ns, 10 + 150 + 10);
    }

    #[test]
    fn nic_serializes_concurrent_transfers() {
        // Two producers on node 0 each feed a consumer on node 1 with a
        // large message; the second transfer queues behind the first.
        let tasks = vec![
            TraceTask {
                id: 1,
                priority: 0,
                rank: 0,
                cost_ns: 10,
                deps: vec![(0, 0, 0, 0)],
            },
            TraceTask {
                id: 2,
                priority: 0,
                rank: 0,
                cost_ns: 10,
                deps: vec![(0, 0, 0, 0)],
            },
            TraceTask {
                id: 3,
                priority: 0,
                rank: 1,
                cost_ns: 1,
                deps: vec![(1, 100_000, 0, 0)],
            },
            TraceTask {
                id: 4,
                priority: 0,
                rank: 1,
                cost_ns: 1,
                deps: vec![(2, 100_000, 0, 0)],
            },
        ];
        let m = machine(2, 4);
        let r = simulate(&tasks, &m);
        let one_transfer = m.transfer_ns(100_000); // 1000 + 10_000
                                                   // Second consumer cannot start before both serialized transfers.
        assert!(r.makespan_ns >= 10 + 2 * one_transfer);
        assert_eq!(r.network_msgs, 2);
    }

    #[test]
    fn more_cores_never_slower() {
        // Random-ish layered DAG.
        let mut tasks = Vec::new();
        let mut id = 1u64;
        let mut prev_layer: Vec<u64> = vec![0];
        for layer in 0..6 {
            let width = 3 + (layer * 7) % 5;
            let mut this_layer = Vec::new();
            for j in 0..width {
                let dep = prev_layer[j % prev_layer.len()];
                tasks.push(TraceTask {
                    id,
                    priority: 0,
                    rank: j % 2,
                    cost_ns: 50 + (id % 7) * 13,
                    deps: vec![(dep, if dep == 0 { 0 } else { 64 }, (j + 1) % 2, 0)],
                });
                this_layer.push(id);
                id += 1;
            }
            prev_layer = this_layer;
        }
        let mut last = u64::MAX;
        for cores in [1, 2, 4, 8] {
            let r = simulate(&tasks, &machine(2, cores));
            assert!(
                r.makespan_ns <= last,
                "cores={cores}: {} > {}",
                r.makespan_ns,
                last
            );
            last = r.makespan_ns;
        }
    }

    #[test]
    fn local_messages_are_free_of_network() {
        let tasks = chain(5, 10, 1_000_000, false); // bytes set but same rank
        let r = simulate(&tasks, &machine(4, 1));
        assert_eq!(r.network_msgs, 0);
        assert_eq!(r.makespan_ns, 50);
    }

    /// splitmix64 step: the golden traces below are a pure function of
    /// their ordinal.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Random DAG trace `n`: 5–304 tasks with strided ids on 1–9 ranks
    /// folded onto 1–6 nodes × 1–4 cores, priorities −2…2, up to three
    /// dependency edges per task (repeated producers, zero-byte edges,
    /// forwarding source ranks and shared-transfer ids included) and random
    /// α/β/overheads.
    fn random_trace(n: u64) -> (Vec<TraceTask>, MachineModel) {
        let mut s = n.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        let mut r = |m: u64| splitmix(&mut s) % m;
        let ranks = 1 + r(9) as usize;
        let m = MachineModel {
            nodes: 1 + r(6) as usize,
            cores_per_node: 1 + r(4) as usize,
            latency_ns: r(3_000),
            bytes_per_ns: 0.5 + r(400) as f64 / 16.0,
            msg_overhead_ns: r(1_000),
            task_overhead_ns: r(500),
        };
        let mut tasks: Vec<TraceTask> = Vec::new();
        for i in 0..5 + r(300) {
            let rank = r(ranks as u64) as usize;
            let mut deps = Vec::new();
            for _ in 0..r(4).min(i) {
                let p = &tasks[r(i) as usize];
                let bytes = if r(4) == 0 { 0 } else { 1 + r(100_000) };
                let src = if r(8) == 0 {
                    r(ranks as u64) as usize
                } else {
                    p.rank
                };
                let msg = if r(3) == 0 {
                    p.id * 16 + rank as u64 + 1
                } else {
                    0
                };
                deps.push((p.id, bytes, src, msg));
            }
            if deps.is_empty() && r(2) == 0 {
                deps.push((0, 0, rank, 0));
            }
            tasks.push(TraceTask {
                id: 3 * i + 1,
                rank,
                cost_ns: 1 + r(5_000),
                priority: r(5) as i32 - 2,
                deps,
            });
        }
        (tasks, m)
    }

    /// `(makespan_ns, network_bytes, network_msgs)` of `random_trace(0..40)`,
    /// computed with the engine as it stood before the scheduler-policy lab
    /// and the fault projection were cut out of it (PR 22's parent commit).
    const GOLDEN: [(u64, u64, u64); 40] = [
        (104_770, 0, 0),
        (189_333, 5_470_467, 103),
        (559_339, 0, 0),
        (346_827, 5_700_416, 107),
        (149_580, 2_652_870, 54),
        (529_445, 10_819_604, 221),
        (361_313, 2_694_828, 53),
        (947_686, 11_422_363, 230),
        (469_493, 0, 0),
        (637_795, 10_203_594, 204),
        (402_202, 3_988_852, 74),
        (456_611, 7_986_881, 170),
        (142_481, 3_806_535, 79),
        (661_294, 9_287_568, 180),
        (116_350, 1_250_635, 27),
        (400_364, 0, 0),
        (67_262, 0, 0),
        (426_564, 8_742_426, 176),
        (680_069, 10_284_193, 204),
        (144_828, 2_518_217, 56),
        (644_295, 0, 0),
        (391_952, 7_017_367, 149),
        (430_505, 7_916_091, 163),
        (434_811, 9_439_252, 196),
        (221_155, 0, 0),
        (7_037_712, 6_551_073, 130),
        (10_503, 0, 0),
        (959_142, 10_912_028, 211),
        (1_230_592, 12_308_252, 248),
        (421_856, 0, 0),
        (683_579, 11_803_826, 236),
        (274_168, 0, 0),
        (54_604, 0, 0),
        (174_260, 5_560_466, 112),
        (333_406, 6_232_722, 128),
        (128_065, 2_046_740, 35),
        (843_166, 9_602_239, 190),
        (350_694, 6_240_819, 120),
        (107_101, 0, 0),
        (976_736, 4_311_515, 84),
    ];

    #[test]
    fn golden_traces_project_exactly() {
        for (n, want) in GOLDEN.iter().enumerate() {
            let (tasks, m) = random_trace(n as u64);
            let r = simulate(&tasks, &m);
            let got = (r.makespan_ns, r.network_bytes, r.network_msgs);
            assert_eq!(got, *want, "trace {n}");
        }
    }
}
