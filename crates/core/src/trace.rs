//! Execution trace capture.
//!
//! When enabled, every executed task instance is recorded together with its
//! data dependencies (which task produced each of its inputs, how many bytes
//! crossed which rank boundary) and a modelled or measured duration. The
//! `ttg-simnet` crate replays these traces on a machine model to project
//! performance at the paper's node counts.

use parking_lot::Mutex;

/// One satisfied input dependency of a task instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dep {
    /// Task that produced the input (0 = external seed).
    pub from_task: u64,
    /// Serialized size if the message crossed ranks, else 0.
    pub bytes: u64,
    /// Rank the message was sent from.
    pub src_rank: usize,
    /// Physical transfer id: dependencies sharing a `msg ≠ 0` travelled in
    /// the same active message (optimized broadcast) and share one wire
    /// transfer in the projection. `0` = a transfer of its own.
    pub msg: u64,
}

/// One executed task instance.
#[derive(Debug, Clone)]
pub struct TaskEvent {
    /// Unique id (1-based; 0 is reserved for external seeds).
    pub id: u64,
    /// Template-task id within the graph.
    pub node: u32,
    /// Template-task name.
    pub name: &'static str,
    /// Rank the task executed on.
    pub rank: usize,
    /// Modelled duration (ns) if a cost model is set, else measured.
    pub cost_ns: u64,
    /// Scheduler priority the task ran with (0 unless a priority map was
    /// set and the backend honors priorities).
    pub priority: i32,
    /// Input dependencies.
    pub deps: Vec<Dep>,
}

/// Thread-safe trace sink.
#[derive(Debug, Default)]
pub struct TraceRecorder {
    events: Mutex<Vec<TaskEvent>>,
}

impl TraceRecorder {
    /// Create an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one task event.
    pub fn record(&self, ev: TaskEvent) {
        self.events.lock().push(ev);
    }

    /// Drain all recorded events (sorted by task id for determinism).
    pub fn take(&self) -> Vec<TaskEvent> {
        let mut v = std::mem::take(&mut *self.events.lock());
        v.sort_by_key(|e| e.id);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_take_sorted() {
        let t = TraceRecorder::new();
        for id in [3u64, 1, 2] {
            t.record(TaskEvent {
                id,
                node: 0,
                name: "n",
                rank: 0,
                cost_ns: 10,
                priority: 0,
                deps: vec![],
            });
        }
        let evs = t.take();
        assert_eq!(evs.iter().map(|e| e.id).collect::<Vec<_>>(), vec![1, 2, 3]);
        assert!(t.take().is_empty());
    }
}
