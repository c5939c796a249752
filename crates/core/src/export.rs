//! Chrome trace-event export of an execution.
//!
//! Draws the runtime's [`TaskEvent`] trace as recorded: one complete
//! (`"ph":"X"`) event per task at its start and duration, on the lane of
//! the worker that ran it — ranks as processes (`pid = rank + 1`), workers
//! as threads (`tid = worker`). A worker runs one task at a time, so the
//! events of one lane never overlap. Loadable in Perfetto and
//! `chrome://tracing`; timestamps (`ts`, `dur`) are microseconds.

use std::collections::BTreeSet;

use ttg_telemetry::json::escape;

use crate::trace::TaskEvent;

/// Build a complete Chrome trace-event JSON document from a task trace.
/// Each task's args are its dependency count (`deps`) and the bytes its
/// inputs carried across ranks (`in_bytes`).
pub fn chrome_trace(events: &[TaskEvent]) -> String {
    let lanes: BTreeSet<(usize, u32)> = events.iter().map(|e| (e.rank, e.worker)).collect();
    let ranks: BTreeSet<usize> = lanes.iter().map(|&(rank, _)| rank).collect();
    let mut out: Vec<String> = Vec::with_capacity(ranks.len() + lanes.len() + events.len());
    for rank in ranks {
        out.push(format!(
            "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{},\"tid\":0,\
             \"args\":{{\"name\":\"rank {rank}\"}}}}",
            rank + 1
        ));
    }
    for (rank, worker) in lanes {
        out.push(format!(
            "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{},\"tid\":{worker},\
             \"args\":{{\"name\":\"worker {worker}\"}}}}",
            rank + 1
        ));
    }
    for e in events {
        let in_bytes: u64 = e.deps.iter().map(|d| d.bytes).sum();
        out.push(format!(
            "{{\"ph\":\"X\",\"name\":\"{}#{}\",\"cat\":\"task\",\"ts\":{},\"dur\":{},\
             \"pid\":{},\"tid\":{},\"args\":{{\"deps\":{},\"in_bytes\":{in_bytes}}}}}",
            escape(e.name),
            e.id,
            micros(e.start_ns),
            micros(e.end_ns.saturating_sub(e.start_ns)),
            e.rank + 1,
            e.worker,
            e.deps.len(),
        ));
    }
    format!(
        "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\"}}",
        out.join(",")
    )
}

/// `ns` as a decimal count of microseconds.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Dep;

    fn ev(
        id: u64,
        rank: usize,
        worker: u32,
        start_ns: u64,
        end_ns: u64,
        deps: &[u64],
    ) -> TaskEvent {
        TaskEvent {
            id,
            node: 0,
            name: "t",
            rank,
            worker,
            ready_ns: start_ns,
            start_ns,
            end_ns,
            model_ns: None,
            priority: 0,
            deps: deps
                .iter()
                .map(|&d| Dep {
                    from_task: d,
                    bytes: 64,
                    src_rank: 0,
                    msg: 0,
                })
                .collect(),
        }
    }

    #[test]
    fn each_task_is_one_complete_event_at_its_recorded_time() {
        let events = vec![
            ev(1, 0, 1, 1_500, 2_250, &[]),
            ev(2, 1, 0, 3_000, 4_000, &[1, 1]),
        ];
        let json = chrome_trace(&events);
        ttg_telemetry::json::validate(&json).expect("export must be valid JSON");
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains(
            "\"name\":\"t#1\",\"cat\":\"task\",\"ts\":1.500,\"dur\":0.750,\"pid\":1,\"tid\":1"
        ));
        assert!(json.contains("\"args\":{\"deps\":2,\"in_bytes\":128}"));
        assert!(json.contains("\"name\":\"rank 1\""));
        assert!(json.contains("\"pid\":1,\"tid\":1,\"args\":{\"name\":\"worker 1\"}"));
    }
}
