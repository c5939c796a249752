//! The deterministic scheduler: every synchronization operation performed
//! through the shadow primitives ([`crate::shadow`]) becomes a *yield
//! point* where the currently running model thread parks and this module
//! decides who executes next. One run of a model follows one schedule; the
//! explorer ([`crate::explore`]) re-executes the model over all schedules
//! up to a preemption bound.
//!
//! Execution is strictly serial: at most one model thread is ever runnable,
//! so shadow atomics can apply their effects with plain operations and the
//! only nondeterminism left in a model is the schedule itself (plus
//! explicit [`nondet`] choice points). Replay works by recording every
//! decision — which thread ran, which nondet branch was taken — and feeding
//! the prefix back in on the next run.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::explore::Config;

/// Model thread index (0 = the root closure).
pub(crate) type Tid = usize;

/// Identifier of a shadow object (atomic, mutex, condvar, thread).
pub(crate) type ObjId = u64;

/// The run's logical clock ([`crate::time`]): object 0 of every run.
pub(crate) const CLOCK: ObjId = 0;

/// What a pending synchronization operation does, for enabledness and
/// independence classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OpKind {
    /// Atomic load.
    Read,
    /// Atomic store.
    Write,
    /// Atomic read-modify-write (fetch_add, compare_exchange, swap…).
    Rmw,
    /// Mutex acquisition (enabled only while the mutex is free).
    Lock,
    /// Mutex release.
    Unlock,
    /// Condvar wait: atomically release the mutex and start waiting.
    CvWait,
    /// Condvar notify (one or all).
    CvNotify,
    /// First scheduling of a freshly spawned thread.
    Start,
    /// Join on another model thread (enabled once it finished).
    Join,
    /// Queue push.
    Push,
    /// Queue pop (enabled while the queue holds an item).
    Pop,
}

/// One pending operation: the kind plus the object it touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Op {
    /// Operation class.
    pub(crate) kind: OpKind,
    /// Target object.
    pub(crate) obj: ObjId,
    /// Kind-specific payload: notify-all flag, mutex of a CvWait, join
    /// target…
    pub(crate) arg: u64,
}

impl Op {
    pub(crate) fn new(kind: OpKind, obj: ObjId) -> Self {
        Op { kind, obj, arg: 0 }
    }
}

/// Two operations are *dependent* when reordering them can change the
/// outcome: they touch the same object and at least one mutates it. The
/// sleep-set pruning in the explorer only commutes independent pairs.
pub(crate) fn conflicts(a: &Op, b: &Op) -> bool {
    if a.obj != b.obj {
        return false;
    }
    // Same object: only two pure reads commute.
    !(a.kind == OpKind::Read && b.kind == OpKind::Read)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TState {
    /// Has (or is about to declare) a pending op; schedulable when the op
    /// is enabled.
    Ready,
    /// Parked in a condvar wait; not schedulable until notified.
    CvWaiting,
    /// Thread function returned (or was aborted).
    Finished,
}

struct ThreadInfo {
    state: TState,
    pending: Option<Op>,
    /// Human-readable origin, for violation traces.
    name: String,
    /// What the thread waits on for the baton: a switch wakes one thread.
    baton: Arc<Condvar>,
}

#[derive(Debug, Clone, Copy)]
enum ObjState {
    MutexFree,
    MutexHeld(Tid),
    /// A queue and the items it holds.
    Queue(usize),
    /// Stateless from the scheduler's perspective.
    Plain,
}

/// One recorded decision of a run.
#[derive(Debug, Clone)]
pub(crate) enum Rec {
    /// A thread-scheduling decision.
    Sched {
        /// All legal candidate threads at this node (enabled, within the
        /// preemption bound), in deterministic preference order.
        cands: Vec<Tid>,
        /// Which candidate ran.
        chosen: Tid,
        /// Candidates already fully explored at this node by earlier
        /// sibling branches (DFS bookkeeping + sleep-set seeds).
        explored: Vec<Tid>,
        /// Sleep set inherited at this node (candidates whose branches an
        /// equivalent earlier schedule already covers).
        sleep_in: Vec<Tid>,
    },
    /// An explicit nondeterministic-input decision ([`nondet`]).
    Choice {
        /// Number of alternatives.
        arity: u64,
        /// Which one was taken.
        chosen: u64,
    },
}

/// One executed segment of a run: an operation, or a nondet choice.
#[derive(Debug, Clone, Copy)]
enum Step {
    Op(Tid, Op),
    Choice { arity: u64, chosen: u64 },
}

/// The choices a replay prefix pins down (one per decision point).
#[derive(Debug, Clone)]
pub(crate) enum PrefixStep {
    Sched { chosen: Tid, explored: Vec<Tid> },
    Choice { chosen: u64 },
}

/// Why a run ended without completing normally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum AbortReason {
    /// A model assertion failed (panic in a model thread).
    Assert(String),
    /// No thread can make progress but some have not finished.
    Deadlock(String),
    /// The run exceeded the configured step cap (possible livelock).
    DepthExceeded,
    /// A sleep-set-redundant branch was cut short (not a failure).
    Pruned,
}

struct Inner {
    threads: Vec<ThreadInfo>,
    current: Option<Tid>,
    /// Thread that executed the previous segment (preemption accounting).
    prev: Option<Tid>,
    objs: HashMap<ObjId, ObjState>,
    obj_names: HashMap<ObjId, String>,
    /// FIFO wait queues per condvar: (waiter, mutex to re-acquire).
    cv_waiters: HashMap<ObjId, Vec<(Tid, ObjId)>>,
    next_obj: ObjId,
    /// Decisions recorded this run.
    recs: Vec<Rec>,
    /// Prefix to replay (from the explorer's DFS frontier).
    replay: Vec<PrefixStep>,
    cursor: usize,
    preemptions: usize,
    /// Current sleep set: threads whose pending op need not be explored
    /// here because an equivalent schedule already covers it.
    sleep: Vec<Tid>,
    steps: usize,
    aborting: bool,
    abort_reason: Option<AbortReason>,
    done: bool,
    finished_threads: usize,
    /// Executed segments, formatted only for a violation report.
    trace: Vec<Step>,
    cfg: Config,
    /// splitmix64 state for sampling mode (`None` = exhaustive DFS).
    sample_rng: Option<u64>,
    /// Logical time since the run started ([`crate::time`]).
    clock: Duration,
}

/// Panic payload used to unwind model threads when a run is cut short.
pub(crate) struct ModelAbort;

/// The per-run scheduler shared by all model threads of that run.
pub(crate) struct Scheduler {
    inner: Mutex<Inner>,
    /// What the explorer waits on for the end of the run.
    cv: Condvar,
    /// One per controlled thread: yields once its body has returned
    /// (awaited at run teardown).
    pub(crate) exits: Mutex<Vec<std::sync::mpsc::Receiver<()>>>,
}

thread_local! {
    static CURRENT: RefCell<Option<(Arc<Scheduler>, Tid)>> = const { RefCell::new(None) };
}

/// The scheduler driving the current model thread. Panics outside a model
/// run: shadow primitives only work under [`crate::explore`].
pub(crate) fn current() -> (Arc<Scheduler>, Tid) {
    CURRENT.with(|c| {
        c.borrow()
            .clone()
            .expect("ttg-model shadow primitive used outside a model run")
    })
}

/// Whether the calling thread is a controlled model thread.
pub(crate) fn in_model() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

pub(crate) fn set_current(s: Option<(Arc<Scheduler>, Tid)>) {
    CURRENT.with(|c| *c.borrow_mut() = s);
}

fn splitmix64(z: &mut u64) -> u64 {
    *z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut x = *z;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Scheduler {
    pub(crate) fn new(cfg: Config, replay: Vec<PrefixStep>, sample_seed: Option<u64>) -> Self {
        Scheduler {
            inner: Mutex::new(Inner {
                threads: Vec::new(),
                current: None,
                prev: None,
                objs: HashMap::from([(CLOCK, ObjState::Plain)]),
                obj_names: HashMap::from([(CLOCK, "clock".to_string())]),
                cv_waiters: HashMap::new(),
                next_obj: 1,
                recs: Vec::new(),
                replay,
                cursor: 0,
                preemptions: 0,
                sleep: Vec::new(),
                steps: 0,
                aborting: false,
                abort_reason: None,
                done: false,
                finished_threads: 0,
                trace: Vec::new(),
                cfg,
                sample_rng: sample_seed,
                clock: Duration::ZERO,
            }),
            cv: Condvar::new(),
            exits: Mutex::new(Vec::new()),
        }
    }

    // ------------------------------------------------------------ objects

    /// Register a shadow object; `name` feeds violation traces.
    pub(crate) fn register_obj(&self, name: &str, kind: &'static str) -> ObjId {
        let mut g = self.inner.lock();
        let id = g.next_obj;
        g.next_obj += 1;
        let state = match kind {
            "mutex" => ObjState::MutexFree,
            "queue" => ObjState::Queue(0),
            _ => ObjState::Plain,
        };
        g.objs.insert(id, state);
        g.obj_names.insert(id, name.to_string());
        id
    }

    fn obj_name(g: &Inner, id: ObjId) -> String {
        match g.obj_names.get(&id) {
            Some(n) => format!("{n}#{id}"),
            None => format!("obj#{id}"),
        }
    }

    /// The run's logical time.
    pub(crate) fn clock(&self) -> Duration {
        self.inner.lock().clock
    }

    pub(crate) fn advance_clock(&self, d: Duration) {
        self.inner.lock().clock += d;
    }

    // ------------------------------------------------------- thread admin

    /// Register a new model thread with its `Start` op pending, making it
    /// schedulable. Called serially from the spawning (model) thread, so
    /// registration order is deterministic across replays.
    pub(crate) fn register_thread(&self, name: String) -> Tid {
        let mut g = self.inner.lock();
        let tid = g.threads.len();
        g.threads.push(ThreadInfo {
            state: TState::Ready,
            pending: Some(Op::new(OpKind::Start, thread_obj(tid))),
            name,
            baton: Arc::new(Condvar::new()),
        });
        tid
    }

    /// Kick off the run: schedule the first thread. Called by the explorer
    /// after the root thread is registered.
    pub(crate) fn start(&self) {
        let mut g = self.inner.lock();
        self.schedule_next(&mut g);
        self.pass_baton(&g);
    }

    /// Wake the thread the baton went to or, once the run is over or
    /// aborting, every thread and the explorer.
    fn pass_baton(&self, g: &Inner) {
        if g.aborting || g.done {
            for t in &g.threads {
                t.baton.notify_all();
            }
            self.cv.notify_all();
        } else if let Some(t) = g.current {
            g.threads[t].baton.notify_one();
        }
    }

    fn wait_baton(g: &mut MutexGuard<'_, Inner>, tid: Tid) {
        let baton = Arc::clone(&g.threads[tid].baton);
        baton.wait(g);
    }

    /// Block the explorer until the run completes (all threads finished).
    pub(crate) fn wait_done(&self) {
        let mut g = self.inner.lock();
        while !g.done {
            self.cv.wait(&mut g);
        }
    }

    /// How the finished run went: its decisions (taken), how it ended,
    /// its preemptions and its scheduling decisions.
    pub(crate) fn outcome(&self) -> (Vec<Rec>, Option<AbortReason>, usize, usize) {
        let mut g = self.inner.lock();
        let recs = std::mem::take(&mut g.recs);
        (recs, g.abort_reason.clone(), g.preemptions, g.steps)
    }

    /// The run's executed operations in order, for a violation report.
    pub(crate) fn trace(&self) -> Vec<String> {
        let g = self.inner.lock();
        let step = |s: &Step| match *s {
            Step::Op(tid, op) => format!(
                "T{tid}({}) {:?} {}",
                g.threads[tid].name,
                op.kind,
                Self::obj_name(&g, op.obj)
            ),
            Step::Choice { arity, chosen } => format!("choice {chosen}/{arity}"),
        };
        g.trace.iter().map(step).collect()
    }

    /// First scheduling of a thread: wait for the baton without declaring a
    /// new op (the `Start` op was installed at registration).
    pub(crate) fn wait_start(&self, tid: Tid) {
        let mut g = self.inner.lock();
        while g.current != Some(tid) {
            if g.aborting {
                drop(g);
                std::panic::panic_any(ModelAbort);
            }
            Self::wait_baton(&mut g, tid);
        }
        let op = g.threads[tid].pending.expect("start op pending");
        self.apply_effect(&mut g, tid, op);
        if g.aborting {
            drop(g);
            std::panic::panic_any(ModelAbort);
        }
    }

    /// Model thread finished (normally, by assertion failure, or aborted).
    pub(crate) fn thread_exit(&self, tid: Tid, failure: Option<String>) {
        let mut g = self.inner.lock();
        g.threads[tid].state = TState::Finished;
        g.threads[tid].pending = None;
        g.finished_threads += 1;
        if let Some(msg) = failure {
            if !g.aborting {
                g.abort_reason = Some(AbortReason::Assert(msg));
                g.aborting = true;
            }
        }
        if g.finished_threads == g.threads.len() {
            g.done = true;
            g.current = None;
        } else if g.current == Some(tid) {
            g.current = None;
            self.schedule_next(&mut g);
        }
        self.pass_baton(&g);
    }

    /// A model thread began to panic: abort the run with its message now.
    /// Skipped when the panic struck inside the scheduler, which holds its
    /// lock: the thread's exit reports it.
    pub(crate) fn fail(&self, msg: String) {
        let Some(mut g) = self.inner.try_lock() else {
            return;
        };
        if !g.aborting {
            g.abort_reason = Some(AbortReason::Assert(msg));
            g.aborting = true;
        }
        self.pass_baton(&g);
    }

    // -------------------------------------------------------- yield point

    /// Core protocol: declare the op this thread is about to perform, hand
    /// the baton to the scheduler, and return once this thread is granted
    /// execution (with the op's scheduler-side effects applied).
    pub(crate) fn yield_op(&self, tid: Tid, op: Op) {
        if std::thread::panicking() {
            // A drop on the way out of an aborted run (a guard that locks,
            // a clock shift): no schedule point, no second panic.
            return;
        }
        let mut g = self.inner.lock();
        g.threads[tid].pending = Some(op);
        if g.current == Some(tid) {
            g.current = None;
            self.schedule_next(&mut g);
            self.pass_baton(&g);
        }
        while g.current != Some(tid) {
            if g.aborting {
                drop(g);
                std::panic::panic_any(ModelAbort);
            }
            Self::wait_baton(&mut g, tid);
        }
        // Granted. Apply scheduler-side effects while still holding the
        // state lock; the caller then performs the data part serially.
        self.apply_effect(&mut g, tid, op);
        if g.aborting {
            drop(g);
            std::panic::panic_any(ModelAbort);
        }
    }

    fn apply_effect(&self, g: &mut Inner, tid: Tid, op: Op) {
        g.trace.push(Step::Op(tid, op));
        match op.kind {
            OpKind::Lock => {
                debug_assert!(matches!(g.objs.get(&op.obj), Some(ObjState::MutexFree)));
                g.objs.insert(op.obj, ObjState::MutexHeld(tid));
            }
            OpKind::Unlock => {
                g.objs.insert(op.obj, ObjState::MutexFree);
            }
            OpKind::Push | OpKind::Pop => {
                if let Some(ObjState::Queue(n)) = g.objs.get_mut(&op.obj) {
                    *n = if op.kind == OpKind::Push {
                        *n + 1
                    } else {
                        *n - 1
                    };
                }
            }
            OpKind::CvWait => {
                // Release the mutex (arg) and move to the condvar's FIFO.
                let mutex = op.arg;
                g.objs.insert(mutex, ObjState::MutexFree);
                g.cv_waiters.entry(op.obj).or_default().push((tid, mutex));
                g.threads[tid].state = TState::CvWaiting;
                g.threads[tid].pending = None;
            }
            OpKind::CvNotify => {
                let all = op.arg == u64::MAX;
                let waiters = g.cv_waiters.entry(op.obj).or_default();
                let n = if all {
                    waiters.len()
                } else {
                    waiters.len().min(1)
                };
                let woken: Vec<(Tid, ObjId)> = waiters.drain(..n).collect();
                for (w, mutex) in woken {
                    // A notified waiter re-competes for the mutex.
                    g.threads[w].state = TState::Ready;
                    g.threads[w].pending = Some(Op::new(OpKind::Lock, mutex));
                }
            }
            _ => {}
        }
    }

    /// Mark a mutex free without a schedule point. Used when a guard drops
    /// during unwinding (assertion failure / run abort): yielding there
    /// would either block a dying thread or double-panic.
    pub(crate) fn force_unlock(&self, obj: ObjId) {
        let mut g = self.inner.lock();
        g.objs.insert(obj, ObjState::MutexFree);
        self.pass_baton(&g);
    }

    /// Explicit nondeterminism: branch over `arity` alternatives. Returns
    /// the chosen alternative; the explorer enumerates all of them.
    pub(crate) fn choose(&self, _tid: Tid, arity: u64) -> u64 {
        assert!(arity > 0, "nondet() needs at least one alternative");
        let mut g = self.inner.lock();
        if g.aborting {
            drop(g);
            std::panic::panic_any(ModelAbort);
        }
        let chosen = if g.cursor < g.replay.len() {
            match &g.replay[g.cursor] {
                PrefixStep::Choice { chosen } => *chosen,
                PrefixStep::Sched { .. } => {
                    panic!("ttg-model: nondeterministic execution (choice point drifted)")
                }
            }
        } else if let Some(rng) = g.sample_rng.as_mut() {
            splitmix64(rng) % arity
        } else {
            0
        };
        g.cursor += 1;
        g.recs.push(Rec::Choice { arity, chosen });
        g.trace.push(Step::Choice { arity, chosen });
        chosen
    }

    // --------------------------------------------------------- scheduling

    fn op_enabled(g: &Inner, op: &Op) -> bool {
        match op.kind {
            OpKind::Lock => matches!(g.objs.get(&op.obj), Some(ObjState::MutexFree)),
            OpKind::Pop => matches!(g.objs.get(&op.obj), Some(ObjState::Queue(n)) if *n > 0),
            OpKind::Join => {
                let target = op.arg as usize;
                g.threads
                    .get(target)
                    .is_some_and(|t| t.state == TState::Finished)
            }
            _ => true,
        }
    }

    fn enabled_threads(g: &Inner) -> Vec<(Tid, Op)> {
        g.threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.state == TState::Ready)
            .filter_map(|(i, t)| t.pending.map(|op| (i, op)))
            .filter(|(_, op)| Self::op_enabled(g, op))
            .collect()
    }

    /// Pick the next thread to run. Called with no current thread.
    fn schedule_next(&self, g: &mut Inner) {
        if g.aborting || g.done {
            return;
        }
        g.steps += 1;
        if g.steps > g.cfg.max_steps {
            g.aborting = true;
            g.abort_reason = Some(AbortReason::DepthExceeded);
            return;
        }
        let enabled = Self::enabled_threads(g);
        if enabled.is_empty() {
            if g.finished_threads < g.threads.len() {
                // Nobody can move but threads remain: deadlock.
                let stuck: Vec<String> = g
                    .threads
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| t.state != TState::Finished)
                    .map(|(i, t)| match t.state {
                        TState::CvWaiting => format!("T{i}({}) waiting on condvar", t.name),
                        _ => match t.pending {
                            Some(op) => {
                                let holder = match g.objs.get(&op.obj) {
                                    Some(ObjState::MutexHeld(h)) => format!(" held by T{h}"),
                                    _ => String::new(),
                                };
                                format!(
                                    "T{i}({}) blocked at {:?} {}{holder}",
                                    t.name,
                                    op.kind,
                                    Self::obj_name(g, op.obj)
                                )
                            }
                            None => format!("T{i}({}) blocked", t.name),
                        },
                    })
                    .collect();
                g.aborting = true;
                g.abort_reason = Some(AbortReason::Deadlock(stuck.join("; ")));
            }
            return;
        }

        // Candidate order: continuing the previous thread is free; switching
        // away from a still-runnable thread costs a preemption, so when the
        // bound is used up only the previous thread remains a candidate.
        let prev_entry = g
            .prev
            .and_then(|p| enabled.iter().find(|(t, _)| *t == p).copied());
        let prev_enabled = prev_entry.is_some();
        let may_preempt = g.cfg.preemption_bound.is_none_or(|b| g.preemptions < b);
        let mut cands: Vec<(Tid, Op)> = Vec::new();
        if let Some(e) = prev_entry {
            cands.push(e);
        }
        for &(t, op) in &enabled {
            if Some(t) == g.prev {
                continue;
            }
            if prev_enabled && !may_preempt {
                continue;
            }
            cands.push((t, op));
        }

        // DFS bookkeeping from the replay prefix: branches already explored
        // at this node by earlier siblings.
        let replaying = g.cursor < g.replay.len();
        let explored: Vec<Tid> = if replaying {
            match &g.replay[g.cursor] {
                PrefixStep::Sched { explored, .. } => explored.clone(),
                PrefixStep::Choice { .. } => {
                    panic!("ttg-model: nondeterministic execution (sched point drifted)")
                }
            }
        } else {
            Vec::new()
        };
        let sleep_in = g.sleep.clone();
        // Fold explored siblings into the sleep set: their subtrees are
        // done, so this branch need not re-run their ops until a dependent
        // op wakes them.
        if g.cfg.sleep_sets {
            for &t in &explored {
                if !g.sleep.contains(&t) {
                    g.sleep.push(t);
                }
            }
        }

        let chosen_tid = if replaying {
            let PrefixStep::Sched { chosen, .. } = &g.replay[g.cursor] else {
                unreachable!()
            };
            let chosen = *chosen;
            assert!(
                cands.iter().any(|(t, _)| *t == chosen),
                "ttg-model: nondeterministic execution (replayed thread not schedulable)"
            );
            chosen
        } else if let Some(rng) = g.sample_rng.as_mut() {
            cands[(splitmix64(rng) % cands.len() as u64) as usize].0
        } else {
            // DFS frontier: first candidate not asleep. If every candidate
            // sleeps, an equivalent schedule already covers this branch.
            let sleeping = |t: Tid| g.cfg.sleep_sets && g.sleep.contains(&t);
            match cands.iter().find(|(t, _)| !sleeping(*t)) {
                Some(&(t, _)) => t,
                None => {
                    g.aborting = true;
                    g.abort_reason = Some(AbortReason::Pruned);
                    return;
                }
            }
        };
        g.cursor += 1;

        let chosen_op = cands.iter().find(|(t, _)| *t == chosen_tid).unwrap().1;
        if prev_enabled && Some(chosen_tid) != g.prev {
            g.preemptions += 1;
        }
        g.recs.push(Rec::Sched {
            cands: cands.iter().map(|(t, _)| *t).collect(),
            chosen: chosen_tid,
            explored,
            sleep_in,
        });
        // Sleep-set update: the chosen thread wakes; sleepers whose pending
        // op conflicts with the executed op wake too (their branch is no
        // longer equivalent); independent sleepers stay asleep.
        let sleep = std::mem::take(&mut g.sleep);
        g.sleep = sleep
            .into_iter()
            .filter(|&t| t != chosen_tid)
            .filter(|&t| {
                g.threads[t]
                    .pending
                    .is_none_or(|op| !conflicts(&op, &chosen_op))
            })
            .collect();
        g.prev = Some(chosen_tid);
        g.current = Some(chosen_tid);
    }

    // ------------------------------------------------- cv-wait completion

    /// Second phase of a condvar wait: after the `CvWait` op was granted
    /// (mutex released, thread parked), block until a notify re-arms this
    /// thread's pending `Lock` and the scheduler grants it.
    pub(crate) fn cv_block(&self, tid: Tid) {
        let mut g = self.inner.lock();
        if g.current == Some(tid) {
            g.current = None;
            self.schedule_next(&mut g);
            self.pass_baton(&g);
        }
        loop {
            if g.aborting {
                drop(g);
                std::panic::panic_any(ModelAbort);
            }
            if g.threads[tid].state == TState::Ready && g.current == Some(tid) {
                break;
            }
            Self::wait_baton(&mut g, tid);
        }
        // Scheduled with the re-acquire Lock op granted: apply it.
        let op = g.threads[tid].pending.expect("cv reacquire op");
        debug_assert_eq!(op.kind, OpKind::Lock);
        self.apply_effect(&mut g, tid, op);
    }
}

/// Object id namespace for threads (Join/Start ops).
pub(crate) fn thread_obj(tid: Tid) -> ObjId {
    u64::MAX - tid as u64
}

// ----------------------------------------------------------- public helpers

/// Declare-and-perform helper used by the shadow primitives: yields with
/// `kind` on `obj`, returning once granted.
pub(crate) fn sync_op(kind: OpKind, obj: ObjId) {
    let (s, tid) = current();
    s.yield_op(tid, Op::new(kind, obj));
}

/// Explicit nondeterministic branch: the explorer enumerates `0..arity`.
///
/// Use for input nondeterminism that is not a thread interleaving — e.g.
/// how many bytes a socket read returns.
pub fn nondet(arity: u64) -> u64 {
    let (s, tid) = current();
    s.choose(tid, arity)
}
