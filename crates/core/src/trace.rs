//! Execution trace capture.
//!
//! When enabled, every executed task instance is recorded together with its
//! data dependencies (which task produced each of its inputs, how many bytes
//! crossed which rank boundary), the worker that ran it and when: the time
//! its last input arrived, and the times its body started and ended. The
//! `ttg-simnet` crate replays these traces on a machine model to project
//! performance at the paper's node counts; `chrome_trace` draws them.

use std::time::Instant;

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

/// One executed task instance. Times are nanoseconds since the epoch of
/// the [`TraceRecorder`] that recorded it.
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
    /// Worker of the executing pool that ran the task.
    pub worker: u32,
    /// When the input that completed the task's match arrived and the task
    /// was launched.
    pub ready_ns: u64,
    /// When the task body started.
    pub start_ns: u64,
    /// When the task body ended.
    pub end_ns: u64,
    /// The cost model's duration (ns), when the template task has one.
    pub model_ns: Option<u64>,
    /// Scheduler priority the task ran with (0 unless a priority map was
    /// set and the backend honors priorities).
    pub priority: i32,
    /// Input dependencies.
    pub deps: Vec<Dep>,
}

/// Thread-safe trace sink with its own clock epoch.
#[derive(Debug)]
pub struct TraceRecorder {
    epoch: Instant,
    events: Mutex<Vec<TaskEvent>>,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceRecorder {
    /// Create an empty recorder whose epoch is now.
    pub fn new() -> Self {
        TraceRecorder {
            epoch: Instant::now(),
            events: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since this recorder's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `body`, the task `ev` was made for at its launch, and record it
    /// with the worker that ran it and the body's start and end.
    pub fn run(&self, mut ev: TaskEvent, worker: Option<u32>, body: impl FnOnce()) {
        ev.worker = worker.unwrap_or(0);
        ev.start_ns = self.now_ns();
        body();
        ev.end_ns = self.now_ns();
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
    fn run_records_the_worker_and_times_and_take_sorts() {
        let t = TraceRecorder::new();
        for id in [3u64, 1, 2] {
            let ev = TaskEvent {
                id,
                node: 0,
                name: "n",
                rank: 0,
                worker: 0,
                ready_ns: t.now_ns(),
                start_ns: 0,
                end_ns: 0,
                model_ns: None,
                priority: 0,
                deps: vec![],
            };
            t.run(ev, Some(id as u32), || {
                std::thread::sleep(std::time::Duration::from_micros(50))
            });
        }
        let evs = t.take();
        assert_eq!(evs.iter().map(|e| e.id).collect::<Vec<_>>(), vec![1, 2, 3]);
        for e in &evs {
            assert_eq!(e.worker, e.id as u32);
            assert!(e.ready_ns <= e.start_ns);
            assert!(e.end_ns >= e.start_ns + 50_000, "{e:?}");
        }
        assert!(t.take().is_empty());
    }
}
