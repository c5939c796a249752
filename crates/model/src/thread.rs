//! Model threads: controlled [`spawn`]/[`JoinHandle::join`] whose
//! interleaving the scheduler owns. Each model thread runs on a real OS
//! thread, but the baton-passing in the scheduler ensures only one runs
//! at a time and registration happens serially in the spawner, so thread
//! identity is deterministic across replays.
//!
//! The OS threads are pooled: an exploration runs thousands of schedules
//! of a handful of model threads each, and creating an OS thread per model
//! thread per schedule was about a quarter of its time. A pooled thread
//! keeps its thread-locals from one model thread to the next, so code
//! under test must not leave one bound past the body that set it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};

use crate::sched::{self, ModelAbort, Op, OpKind, Scheduler, Tid};

/// Handle to a spawned model thread.
pub struct JoinHandle<T> {
    tid: Tid,
    result: Arc<parking_lot::Mutex<Option<T>>>,
}

impl<T> JoinHandle<T> {
    /// Block (as a schedule point) until the thread finishes, then take its
    /// return value.
    pub fn join(self) -> T {
        let (s, tid) = sched::current();
        s.yield_op(
            tid,
            Op {
                kind: OpKind::Join,
                obj: sched::thread_obj(self.tid),
                arg: self.tid as u64,
            },
        );
        self.result
            .lock()
            .take()
            .expect("joined model thread left no result")
    }
}

/// Spawn a named model thread running `f` under the current run's
/// scheduler. It becomes schedulable immediately; whether it runs before
/// the spawner's next operation is the explorer's decision.
pub fn spawn_named<T, F>(name: &str, f: F) -> JoinHandle<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let (s, _) = sched::current();
    let tid = s.register_thread(name.to_string());
    let result = Arc::new(parking_lot::Mutex::new(None));
    let slot = Arc::clone(&result);
    let s2 = Arc::clone(&s);
    let exited = run_pooled(Box::new(move || {
        run_model_thread(s2, tid, move || {
            let out = f();
            *slot.lock() = Some(out);
        })
    }));
    s.exits.lock().push(exited);
    JoinHandle { tid, result }
}

/// [`spawn_named`] with an automatic name.
pub fn spawn<T, F>(f: F) -> JoinHandle<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    spawn_named("thread", f)
}

/// What a pooled OS thread runs next, and where it reports that it
/// returned.
type Body = (Box<dyn FnOnce() + Send>, mpsc::Sender<()>);

/// Pooled OS threads waiting for a body.
static IDLE: parking_lot::Mutex<Vec<mpsc::Sender<Body>>> = parking_lot::Mutex::new(Vec::new());

/// Run `body` on an idle pooled OS thread, or on a new one. The receiver
/// yields once `body` has returned.
pub(crate) fn run_pooled(body: Box<dyn FnOnce() + Send>) -> mpsc::Receiver<()> {
    let (exited, on_exit) = mpsc::channel();
    let idle = IDLE.lock().pop();
    let thread = idle.unwrap_or_else(|| {
        let (thread, bodies) = mpsc::channel::<Body>();
        let me = thread.clone();
        std::thread::Builder::new()
            .name("ttg-model".into())
            .spawn(move || {
                for (body, exited) in bodies {
                    body();
                    IDLE.lock().push(me.clone());
                    let _ = exited.send(());
                }
            })
            .expect("spawn model thread");
        thread
    });
    thread
        .send((body, exited))
        .expect("a pooled model thread never exits");
    on_exit
}

/// Body of every model OS thread: bind the scheduler, wait for the first
/// grant, run the payload, classify how it ended.
pub(crate) fn run_model_thread(s: Arc<Scheduler>, tid: Tid, f: impl FnOnce()) {
    sched::set_current(Some((Arc::clone(&s), tid)));
    let res = catch_unwind(AssertUnwindSafe(|| {
        s.wait_start(tid);
        f();
    }));
    let failure = match res {
        Ok(()) => None,
        // Run-abort unwinds are bookkeeping, not failures of this thread.
        Err(p) if p.downcast_ref::<ModelAbort>().is_some() => None,
        Err(p) => Some(panic_message(&*p)),
    };
    s.thread_exit(tid, failure);
    sched::set_current(None);
}

pub(crate) fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "model thread panicked (non-string payload)".to_string()
    }
}
