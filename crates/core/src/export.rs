//! Chrome trace-event export of an execution.
//!
//! Bridges the runtime's [`TaskEvent`] trace (which carries durations and
//! dependencies but no absolute timestamps) into the telemetry crate's
//! [`ChromeTraceBuilder`]. Tasks are laid out on a synthetic timeline by a
//! greedy list schedule — per rank, `workers_per_rank` lanes, each task
//! starting no earlier than its dependencies finish — which reconstructs a
//! plausible Gantt chart from the dependency structure alone. Live span
//! events recorded by the `telemetry` feature (task spans, comm instants)
//! can be merged on top by the caller via [`chrome_trace`].

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use ttg_telemetry::{ChromeTraceBuilder, TaskSlice};

use crate::trace::TaskEvent;

/// Lay `events` out on a synthetic timeline: per rank, `workers_per_rank`
/// lanes; each task starts at the later of (a) the finish time of its
/// latest dependency and (b) the earliest lane availability on its rank.
/// Returns slices suitable for [`ChromeTraceBuilder::add_task_slice`], in
/// the order they were laid out.
///
/// Tasks are laid out in a topological order of the trace's dependencies
/// (Kahn's algorithm, the smallest ready id first). Id order is not one:
/// ids come from per-thread blocks, so a task launched on a thread whose
/// block was taken early has a smaller id than its producer. A dependency
/// on a task the trace does not hold is satisfied at time 0. (A trace of
/// an execution has no cycle; events on one in a malformed trace are left
/// out rather than drawn before their producers.)
pub fn layout_task_slices(events: &[TaskEvent], workers_per_rank: usize) -> Vec<TaskSlice> {
    let lanes_per_rank = workers_per_rank.max(1);
    let index: HashMap<u64, usize> = events.iter().enumerate().map(|(i, e)| (e.id, i)).collect();
    // pending[i] = dependencies of event i not yet laid out;
    // succs[p] = one entry per dependency on event p.
    let mut pending = vec![0usize; events.len()];
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); events.len()];
    for (i, ev) in events.iter().enumerate() {
        for d in ev.deps.iter().filter(|d| d.from_task != 0) {
            if let Some(&p) = index.get(&d.from_task) {
                succs[p].push(i);
                pending[i] += 1;
            }
        }
    }
    let mut ready: BinaryHeap<Reverse<(u64, usize)>> = (0..events.len())
        .filter(|&i| pending[i] == 0)
        .map(|i| Reverse((events[i].id, i)))
        .collect();
    // finish[i] = synthetic completion time of event i, once laid out.
    let mut finish = vec![0u64; events.len()];
    // lane_free[rank] = per-lane next-free time.
    let mut lane_free: HashMap<usize, Vec<u64>> = HashMap::new();
    let mut out = Vec::with_capacity(events.len());
    while let Some(Reverse((_, i))) = ready.pop() {
        let ev = &events[i];
        let dep_ready = ev
            .deps
            .iter()
            .filter(|d| d.from_task != 0)
            .filter_map(|d| index.get(&d.from_task).map(|&p| finish[p]))
            .max()
            .unwrap_or(0);
        let lanes = lane_free
            .entry(ev.rank)
            .or_insert_with(|| vec![0; lanes_per_rank]);
        let (lane, free) = lanes
            .iter()
            .copied()
            .enumerate()
            .min_by_key(|&(_, t)| t)
            .expect("at least one lane");
        let start = dep_ready.max(free);
        let dur = ev.cost_ns.max(1);
        lanes[lane] = start + dur;
        finish[i] = start + dur;
        out.push(TaskSlice {
            name: format!("{}#{}", ev.name, ev.id),
            rank: ev.rank as u32,
            tid: lane as u32,
            start_ns: start,
            dur_ns: dur,
            args: [
                Some(("node", ev.node as u64)),
                Some(("deps", ev.deps.len() as u64)),
            ],
        });
        for &s in &succs[i] {
            pending[s] -= 1;
            if pending[s] == 0 {
                ready.push(Reverse((events[s].id, s)));
            }
        }
    }
    out
}

/// Build a complete Chrome trace-event JSON document from a task trace,
/// merging any span/instant events recorded live by the telemetry layer
/// (drains the global span buffers, so spans appear in one export only).
pub fn chrome_trace(events: &[TaskEvent], workers_per_rank: usize) -> String {
    let mut b = ChromeTraceBuilder::new();
    b.add_thread_names(ttg_telemetry::thread_names());
    b.add_events(ttg_telemetry::drain_events());
    for s in layout_task_slices(events, workers_per_rank) {
        b.add_task_slice(s);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Dep;

    fn ev(id: u64, rank: usize, cost: u64, deps: &[u64]) -> TaskEvent {
        TaskEvent {
            id,
            node: 0,
            name: "t",
            rank,
            cost_ns: cost,
            priority: 0,
            deps: deps
                .iter()
                .map(|&d| Dep {
                    from_task: d,
                    bytes: 0,
                    src_rank: 0,
                    msg: 0,
                })
                .collect(),
        }
    }

    #[test]
    fn layout_respects_dependencies_and_lanes() {
        // 1 and 2 are independent on rank 0 (2 lanes → parallel); 3 depends
        // on both and must start after the later one finishes.
        let events = vec![
            ev(1, 0, 100, &[]),
            ev(2, 0, 300, &[]),
            ev(3, 0, 50, &[1, 2]),
        ];
        let slices = layout_task_slices(&events, 2);
        assert_eq!(slices.len(), 3);
        assert_eq!(slices[0].start_ns, 0);
        assert_eq!(slices[1].start_ns, 0);
        assert_ne!(
            (slices[0].rank, slices[0].tid),
            (slices[1].rank, slices[1].tid),
            "independent tasks share a lane"
        );
        assert_eq!(slices[2].start_ns, 300);
    }

    #[test]
    fn a_successor_with_a_smaller_id_starts_after_its_producer() {
        // Ids come from per-thread blocks: 2 was launched on a thread whose
        // block was taken before the producer 300's. Two lanes, so only the
        // dependency keeps 2 from starting at 0.
        let events = vec![
            ev(1, 0, 10, &[]),
            ev(2, 0, 50, &[300]),
            ev(300, 0, 100, &[1]),
        ];
        let slices = layout_task_slices(&events, 2);
        let names: Vec<&str> = slices.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["t#1", "t#300", "t#2"]);
        assert_eq!(slices[1].start_ns, 10);
        assert_eq!(slices[2].start_ns, 110);
    }

    #[test]
    fn a_dependency_outside_the_trace_is_satisfied_at_zero() {
        let slices = layout_task_slices(&[ev(7, 0, 10, &[99])], 1);
        assert_eq!(slices.len(), 1);
        assert_eq!(slices[0].start_ns, 0);
    }

    #[test]
    fn single_lane_serializes_per_rank() {
        let events = vec![ev(1, 1, 100, &[]), ev(2, 1, 100, &[])];
        let slices = layout_task_slices(&events, 1);
        assert_eq!(slices[0].start_ns + slices[0].dur_ns, slices[1].start_ns);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_balanced_pairs() {
        let events = vec![ev(1, 0, 100, &[]), ev(2, 1, 200, &[1])];
        let json = chrome_trace(&events, 2);
        ttg_telemetry::json::validate(&json).expect("export must be valid JSON");
        assert_eq!(
            json.matches("\"ph\":\"B\"").count(),
            json.matches("\"ph\":\"E\"").count()
        );
        assert!(json.contains("\"name\":\"rank 1\""));
    }
}
