//! Per-rank task scheduler.
//!
//! Two scheduler flavors mirror the two backends of the paper:
//!
//! * [`SchedulerKind::WorkStealing`] — each worker owns a deque; overflow and
//!   external submissions go through a shared injector; idle workers steal
//!   (the PaRSEC-like configuration). Tasks with non-zero priority are kept
//!   in a shared priority heap that workers drain first, so priority-map
//!   hints shorten the critical path (paper §II, priority feature).
//! * [`SchedulerKind::Central`] — one global FIFO protected by a lock (the
//!   MADNESS-like configuration: simpler, more contention, no stealing,
//!   priorities ignored).

use std::cmp::Ordering as CmpOrdering;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;
use std::time::Instant;
use ttg_model::sync::{
    AtomicBool, AtomicU64, AtomicUsize, EventCount, JoinHandle, Mutex, Ordering,
};

use crossbeam_deque::{Injector, Stealer, Worker};
use ttg_telemetry::{Padded, Registry};

use crate::quiesce::Quiescence;

/// Scheduling discipline for a [`WorkerPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Per-worker deques + injector + stealing; priority heap honored.
    WorkStealing,
    /// Single central FIFO queue; priorities ignored.
    Central,
}

/// A schedulable unit of work. A job runs with a borrow of its worker's
/// context `C` (see [`WorkerPool::with_options`]): what every job of the
/// pool needs, the worker holds once for its lifetime, instead of each
/// queued job holding a handle of its own.
pub struct Job<C = ()> {
    /// Larger runs earlier (only in work-stealing pools).
    pub(crate) priority: i32,
    /// Preferred worker whose cache likely holds this job's inputs.
    /// Zero-priority jobs carrying a hint are enqueued on that worker's
    /// bound queue instead of the shared injector (work-stealing pools
    /// only); other workers may still poach them when the preferred
    /// worker falls behind.
    pub(crate) locality: Option<u32>,
    f: Box<dyn FnOnce(&C) + Send + 'static>,
}

impl Job {
    /// Create a job with priority 0.
    pub fn new(f: impl FnOnce() + Send + 'static) -> Self {
        Self::with_priority(0, f)
    }

    /// Create a job with an explicit priority.
    pub fn with_priority(priority: i32, f: impl FnOnce() + Send + 'static) -> Self {
        Job::in_context(priority, move |_: &()| f())
    }
}

impl<C> Job<C> {
    /// Create a job that runs with a borrow of its worker's context.
    pub fn in_context(priority: i32, f: impl FnOnce(&C) + Send + 'static) -> Self {
        Job {
            priority,
            locality: None,
            f: Box::new(f),
        }
    }

    /// Tag the job with a preferred worker (see `Job::locality`).
    pub fn with_locality(mut self, worker: u32) -> Self {
        self.locality = Some(worker);
        self
    }
}

struct PrioJob<C> {
    priority: i32,
    seq: u64,
    job: Job<C>,
}

impl<C> PartialEq for PrioJob<C> {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}
impl<C> Eq for PrioJob<C> {}
impl<C> PartialOrd for PrioJob<C> {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl<C> Ord for PrioJob<C> {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // Max-heap on priority; FIFO (min seq) among equal priorities.
        self.priority
            .cmp(&other.priority)
            .then(other.seq.cmp(&self.seq))
    }
}

ttg_telemetry::metrics! {
    /// Scheduler counters of one rank's pool, under subsystem `"sched"`
    /// (in a registry of their own when the pool has none, so counting
    /// always works and export is opt-in).
    struct PoolMetrics for rank {
        /// Jobs accepted by `submit`.
        submitted: counter("sched", "submitted"),
        /// Jobs executed to completion.
        executed: counter("sched", "executed"),
        /// Successful steals from a peer worker's deque or bound queue.
        steals: counter("sched", "steals"),
        /// Nanoseconds workers spent parked waiting for work.
        idle_ns: counter("sched", "idle_ns"),
        /// Jobs submitted but not yet picked up for execution.
        queue_depth: gauge("sched", "queue_depth"),
        /// Wake events announced to parked workers (one per submit, one per
        /// batch — fewer wakeups per task means cheaper activation).
        wakeups: counter("sched", "wakeups"),
        /// Jobs that rode a multi-job `submit_batch` group.
        tasks_batched: counter("sched", "tasks_batched"),
        /// Jobs a worker took from its own bound (locality) queue.
        local_hits: counter("sched", "local_hits"),
        /// Full steal scans that found nothing anywhere.
        steal_misses: counter("sched", "steal_misses"),
        /// High-water mark of any single worker's ready-queue depth (bound
        /// queue + deque), mirroring the transport's `queue_hwm`.
        ready_hwm: gauge("sched", "ready_hwm"),
    }
}

/// One worker's locality (bound) queue: zero-priority jobs whose inputs
/// are expected to be hot in that worker's cache. FIFO, peer-stealable.
struct Bound<C> {
    q: Mutex<VecDeque<Job<C>>>,
    /// Occupancy mirror so peers can skip the lock when empty.
    len: AtomicUsize,
}

impl<C> Bound<C> {
    fn new() -> Self {
        Bound {
            q: Mutex::new(VecDeque::new()),
            len: AtomicUsize::new(0),
        }
    }

    fn push(&self, job: Job<C>) -> usize {
        let mut q = self.q.lock();
        q.push_back(job);
        let n = q.len();
        self.len.store(n, Ordering::Release);
        n
    }

    fn pop(&self) -> Option<Job<C>> {
        if self.len.load(Ordering::Acquire) == 0 {
            return None;
        }
        let mut q = self.q.lock();
        let job = q.pop_front();
        self.len.store(q.len(), Ordering::Release);
        job
    }
}

struct Shared<C> {
    injector: Injector<Job<C>>,
    stealers: Vec<Stealer<Job<C>>>,
    /// Per-worker locality queues (work-stealing pools; same length as
    /// `stealers`). A queue's lock is taken per job: [`Padded`].
    bound: Vec<Padded<Bound<C>>>,
    prio: Mutex<BinaryHeap<PrioJob<C>>>,
    /// Heap occupancy mirror, maintained under the `prio` lock. Lets the
    /// common zero-priority dispatch skip the heap mutex entirely.
    prio_count: AtomicUsize,
    central: Mutex<VecDeque<Job<C>>>,
    kind: SchedulerKind,
    shutdown: AtomicBool,
    seq: AtomicU64,
    /// Where idle workers park: signalled by every submit (one worker per
    /// job, up to the number asleep) and by shutdown (all).
    wake: EventCount,
    metrics: PoolMetrics,
    /// Jobs accepted and not yet finished: queued or running. Only this
    /// rank's workers and its submitters write it.
    busy: AtomicU64,
    /// The execution's tracker, in which a busy pool is one unit: it is
    /// registered when `busy` leaves 0 and released when it returns there,
    /// so the shared count moves per idle period, not per job.
    quiescence: Arc<Quiescence>,
    /// Set by [`WorkerPool::idle_or_signal_drain`]: the job that drains the
    /// pool signals the quiescence tracker's event count.
    signal_drain: AtomicBool,
}

impl<C> Shared<C> {
    /// See [`WorkerPool::is_idle`].
    fn is_idle(&self) -> bool {
        self.busy.load(Ordering::SeqCst) == 0
    }

    /// Account one finished job. The one that drains the pool releases its
    /// quiescence unit and, when the pool is watched, signals.
    fn job_done(&self) {
        self.metrics.executed.inc();
        if self.busy.fetch_sub(1, Ordering::SeqCst) != 1 {
            return;
        }
        self.quiescence.activity_finished();
        // Both sides are SeqCst: either the watcher's idle read sees the
        // drain, or this flag read sees the watcher's store.
        if self.signal_drain.swap(false, Ordering::SeqCst) {
            self.quiescence.events().signal_all();
        }
    }

    /// Pop the highest-priority heap job, if any, keeping the occupancy
    /// mirror in sync.
    fn pop_prio(&self) -> Option<Job<C>> {
        if self.prio_count.load(Ordering::Acquire) == 0 {
            return None;
        }
        let mut heap = self.prio.lock();
        let pj = heap.pop();
        self.prio_count.store(heap.len(), Ordering::Release);
        pj.map(|p| p.job)
    }

    fn find_job(&self, local: &Worker<Job<C>>, me: usize, rng: &mut u64) -> Option<Job<C>> {
        match self.kind {
            SchedulerKind::Central => self.central.lock().pop_front(),
            SchedulerKind::WorkStealing => {
                // Priority heap first: critical-path tasks preempt FIFO work.
                if let Some(job) = self.pop_prio() {
                    return Some(job);
                }
                // Own bound queue next: cache-hot successors this worker
                // spawned for itself.
                if let Some(job) = self.bound[me].pop() {
                    self.metrics.local_hits.inc();
                    return Some(job);
                }
                if let Some(job) = local.pop() {
                    return Some(job);
                }
                // Refill from the injector, then steal from peers. The scan
                // starts at a random peer so concurrent thieves spread out
                // instead of all hammering worker 0's deque.
                loop {
                    match self.injector.steal_batch_and_pop(local) {
                        crossbeam_deque::Steal::Success(job) => {
                            // The refill just grew this worker's deque;
                            // sample it for the high-water gauge.
                            self.note_depth(me, self.bound[me].len.load(Ordering::Acquire));
                            return Some(job);
                        }
                        crossbeam_deque::Steal::Retry => continue,
                        crossbeam_deque::Steal::Empty => break,
                    }
                }
                let n = self.stealers.len();
                let start = (xorshift64(rng) as usize) % n;
                for i in 0..n {
                    let victim = (start + i) % n;
                    if victim == me {
                        continue;
                    }
                    loop {
                        match self.stealers[victim].steal() {
                            crossbeam_deque::Steal::Success(job) => {
                                self.metrics.steals.inc();
                                return Some(job);
                            }
                            crossbeam_deque::Steal::Retry => continue,
                            crossbeam_deque::Steal::Empty => break,
                        }
                    }
                }
                // Last resort: poach localized jobs whose preferred worker
                // has fallen behind.
                for i in 0..n {
                    let victim = (start + i) % n;
                    if victim == me {
                        continue;
                    }
                    if let Some(job) = self.bound[victim].pop() {
                        self.metrics.steals.inc();
                        return Some(job);
                    }
                }
                self.metrics.steal_misses.inc();
                None
            }
        }
    }

    /// Queue `job` without waking anybody (callers pair this with
    /// [`Shared::announce_work`] or a single batch announcement).
    fn enqueue_job(&self, job: Job<C>) {
        match self.kind {
            SchedulerKind::Central => self.central.lock().push_back(job),
            SchedulerKind::WorkStealing => {
                if job.priority != 0 {
                    let seq = self.seq.fetch_add(1, Ordering::Relaxed);
                    let mut heap = self.prio.lock();
                    heap.push(PrioJob {
                        priority: job.priority,
                        seq,
                        job,
                    });
                    self.prio_count.store(heap.len(), Ordering::Release);
                } else if let Some(w) = job
                    .locality
                    .map(|w| w as usize)
                    .filter(|&w| w < self.bound.len())
                {
                    let depth = self.bound[w].push(job);
                    self.note_depth(w, depth);
                } else {
                    self.injector.push(job);
                }
            }
        }
    }

    /// Record worker `w`'s ready-queue depth into the high-water gauges.
    fn note_depth(&self, w: usize, bound_depth: usize) {
        let depth = bound_depth + self.stealers[w].len();
        self.metrics.ready_hwm.set_max(depth as i64);
    }

    /// Announce `n` queued jobs: wake one parked worker per job, up to the
    /// number asleep. A worker that prepared to park before the jobs were
    /// queued is counted, so it is either woken or finds them on its
    /// re-check: wakeups cannot be lost (`ttg-model`'s `event_count`).
    fn announce(&self, n: usize) {
        self.metrics.wakeups.inc();
        self.wake.signal(n);
    }
}

/// Cheap per-worker PRNG for the randomized steal scan.
fn xorshift64(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// splitmix64 finalizer (same mixer as the comm layer's fault injector).
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Initial steal-scan RNG state for worker `worker`. With a seed, each
/// worker gets its own deterministic splitmix64-derived stream so steal
/// victim order — and thus benchmark runs — is reproducible; without one,
/// the stream is drawn from OS entropy (`RandomState`).
fn steal_rng_seed(steal_seed: Option<u64>, worker: usize) -> u64 {
    let s = match steal_seed {
        Some(seed) => splitmix64(seed ^ splitmix64(worker as u64)),
        None => {
            use std::hash::{BuildHasher, Hasher};
            let mut h = std::collections::hash_map::RandomState::new().build_hasher();
            h.write_usize(worker);
            h.finish()
        }
    };
    s | 1
}

thread_local! {
    /// `(pool identity, worker index)` of the current thread, when it is a
    /// pool worker. The identity is the `Shared` allocation address, so a
    /// pool can recognize its own workers among many pools.
    static CURRENT_WORKER: std::cell::Cell<Option<(usize, u32)>> =
        const { std::cell::Cell::new(None) };
}

/// A pool of worker threads executing [`Job`]s for one logical rank. Each
/// worker holds its own clone of the context `C` its jobs run with.
pub struct WorkerPool<C = ()> {
    /// [`Padded`]: `busy` moves per job, and the pools of two ranks are
    /// made one after the other.
    shared: Arc<Padded<Shared<C>>>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl WorkerPool {
    /// Spawn `workers` threads with the given scheduling discipline.
    ///
    /// The pool is one unit of `quiescence` from the submission that finds
    /// it idle until the job that leaves it idle finishes. Scheduler metrics
    /// count into standalone cells; use [`WorkerPool::with_telemetry`] to
    /// register them for export.
    pub fn new(
        workers: usize,
        kind: SchedulerKind,
        quiescence: Arc<Quiescence>,
        name: &str,
    ) -> Self {
        Self::with_telemetry(workers, kind, quiescence, name, None)
    }

    /// Like [`WorkerPool::new`], but registers the pool's scheduler metrics
    /// (`submitted`, `executed`, `steals`, `idle_ns`, `queue_depth`,
    /// `wakeups`, `tasks_batched`, `local_hits`, `steal_misses`,
    /// `ready_hwm`) in `registry` under subsystem `"sched"`, attributed to
    /// `rank`.
    pub fn with_telemetry(
        workers: usize,
        kind: SchedulerKind,
        quiescence: Arc<Quiescence>,
        name: &str,
        registry: Option<(&Registry, usize)>,
    ) -> Self {
        Self::with_options(workers, kind, quiescence, name, registry, None, ())
    }
}

impl<C: Clone + Send + 'static> WorkerPool<C> {
    /// Like [`WorkerPool::with_telemetry`], with an optional seed for the
    /// steal-victim PRNG streams (see `steal_rng_seed`; `None` keeps
    /// the entropy default) and the context `cx` every job runs with: each
    /// worker takes one clone of it for its lifetime.
    pub fn with_options(
        workers: usize,
        kind: SchedulerKind,
        quiescence: Arc<Quiescence>,
        name: &str,
        registry: Option<(&Registry, usize)>,
        steal_seed: Option<u64>,
        cx: C,
    ) -> Self {
        assert!(workers > 0, "pool needs at least one worker");
        let locals: Vec<Worker<Job<C>>> = (0..workers).map(|_| Worker::new_lifo()).collect();
        let stealers = locals.iter().map(|w| w.stealer()).collect();
        let shared = Arc::new(Padded::new(Shared {
            injector: Injector::new(),
            stealers,
            bound: (0..workers).map(|_| Padded::new(Bound::new())).collect(),
            prio: Mutex::new(BinaryHeap::new()),
            prio_count: AtomicUsize::new(0),
            central: Mutex::new(VecDeque::new()),
            kind,
            shutdown: AtomicBool::new(false),
            signal_drain: AtomicBool::new(false),
            seq: AtomicU64::new(0),
            wake: EventCount::new(),
            metrics: match registry {
                Some((reg, rank)) => PoolMetrics::register(reg, rank),
                None => PoolMetrics::register(&Registry::new(), 0),
            },
            busy: AtomicU64::new(0),
            quiescence,
        }));
        let mut threads = Vec::with_capacity(workers);
        for (i, local) in locals.into_iter().enumerate() {
            let shared = Arc::clone(&shared);
            let rng = steal_rng_seed(steal_seed, i);
            let cx = cx.clone();
            threads.push(
                ttg_model::sync::spawn(format!("{name}-w{i}"), move || {
                    worker_loop(shared, local, i, rng, cx)
                })
                .expect("failed to spawn worker"),
            );
        }
        WorkerPool {
            shared,
            threads: Mutex::new(threads),
        }
    }

    /// Submit a job for execution.
    pub fn submit(&self, job: Job<C>) {
        self.submit_group(std::iter::once(job));
    }

    /// Submit a group of jobs with a single wake announcement: one epoch
    /// bump covers the whole successor group instead of one per job, and
    /// wakes at most one parked worker per job (Taskflow-style batched
    /// activation).
    pub fn submit_batch(&self, jobs: Vec<Job<C>>) {
        self.submit_group(jobs.into_iter());
    }

    /// [`submit_batch`](Self::submit_batch) for a group that already sits
    /// in a buffer of the caller's. The group is counted with one add
    /// *before* the first job is queued, and a pool the add finds idle
    /// registers its quiescence unit first: a worker may finish a job the
    /// moment it is queued, and the count and unit must exist by then.
    pub fn submit_group(&self, jobs: impl ExactSizeIterator<Item = Job<C>>) {
        let n = jobs.len();
        if n == 0 {
            return;
        }
        if self.shared.busy.fetch_add(n as u64, Ordering::SeqCst) == 0 {
            self.shared.quiescence.activity_started();
        }
        self.shared.metrics.submitted.add(n as u64);
        self.shared.metrics.queue_depth.add(n as i64);
        for job in jobs {
            self.shared.enqueue_job(job);
        }
        if n > 1 {
            // A group of one is just a submit; don't count it as batched.
            self.shared.metrics.tasks_batched.add(n as u64);
        }
        self.shared.announce(n);
    }

    /// Index of the calling thread within this pool, if it is one of this
    /// pool's workers. Used to tag spawned successors with a locality hint
    /// so they land on the bound queue of the worker whose cache is warm.
    pub fn current_worker(&self) -> Option<u32> {
        let ident = Arc::as_ptr(&self.shared) as usize;
        CURRENT_WORKER
            .with(std::cell::Cell::get)
            .and_then(|(id, idx)| (id == ident).then_some(idx))
    }

    /// Total jobs executed so far.
    pub fn executed(&self) -> u64 {
        self.shared.metrics.executed.get()
    }

    /// Whether every accepted job has run to completion: no job queued, no
    /// job mid-execution. A submit counts its group before queuing it, so
    /// a concurrent submit can only make an idle pool look busy, never the
    /// reverse — the recovery drive loop relies on that one-sided error.
    /// When it reads busy, the worker that
    /// drains the pool signals the quiescence tracker's event count, so a
    /// waiter that prepared on it before asking cannot miss the drain.
    pub fn idle_or_signal_drain(&self) -> bool {
        self.shared.signal_drain.store(true, Ordering::SeqCst);
        self.shared.is_idle()
    }

    /// Stop accepting progress and join all workers. Pending jobs are
    /// dropped (and a busy pool's quiescence unit released). Idempotent.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Workers between their shutdown check and their park are counted
        // sleepers: the signal reaches them.
        self.shared.wake.signal_all();
        for t in self.threads.lock().drain(..) {
            t.join().expect("worker panicked");
        }
        // Drop the jobs that never ran (they may hold handles on whatever
        // owns this pool), then the unit they kept the pool busy with.
        let pop = || match self.shared.kind {
            SchedulerKind::Central => self.shared.central.lock().pop_front(),
            SchedulerKind::WorkStealing => self
                .shared
                .pop_prio()
                .or_else(|| match self.shared.injector.steal() {
                    crossbeam_deque::Steal::Success(j) => Some(j),
                    _ => None,
                })
                .or_else(|| self.shared.bound.iter().find_map(|b| b.pop())),
        };
        while pop().is_some() {}
        if self.shared.busy.swap(0, Ordering::SeqCst) != 0 {
            self.shared.quiescence.activity_finished();
        }
    }
}

fn worker_loop<C>(
    shared: Arc<Padded<Shared<C>>>,
    local: Worker<Job<C>>,
    me: usize,
    mut rng: u64,
    cx: C,
) {
    CURRENT_WORKER.with(|c| c.set(Some((Arc::as_ptr(&shared) as usize, me as u32))));
    // However the loop ends, the thread stops naming this pool's worker:
    // a model thread's OS thread runs other model threads after it.
    struct Unbind;
    impl Drop for Unbind {
        fn drop(&mut self) {
            CURRENT_WORKER.with(|c| c.set(None));
        }
    }
    let _unbind = Unbind;
    loop {
        if let Some(job) = shared.find_job(&local, me, &mut rng) {
            shared.metrics.queue_depth.add(-1);
            (job.f)(&cx);
            shared.job_done();
            continue;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        // Two-phase park: prepare (counted as a sleeper, epoch snapshot),
        // re-check for work that raced in, then commit until a submit or
        // shutdown moves the epoch.
        let epoch = shared.wake.prepare();
        if let Some(job) = shared.find_job(&local, me, &mut rng) {
            shared.wake.cancel();
            shared.metrics.queue_depth.add(-1);
            (job.f)(&cx);
            shared.job_done();
            continue;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            shared.wake.cancel();
            return;
        }
        let parked = Instant::now();
        shared.wake.wait(epoch);
        shared
            .metrics
            .idle_ns
            .add(parked.elapsed().as_nanos() as u64);
    }
}

#[cfg(all(test, ttg_model))]
#[path = "pool_model.rs"]
mod model;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;
    use ttg_telemetry::MetricKey;

    fn run_pool(kind: SchedulerKind, workers: usize, jobs: usize) {
        let q = Arc::new(Quiescence::new());
        let pool = WorkerPool::new(workers, kind, Arc::clone(&q), "test");
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..jobs {
            let c = Arc::clone(&counter);
            pool.submit(Job::new(move || {
                c.fetch_add(1, Ordering::SeqCst);
            }));
        }
        q.wait_quiescent();
        assert_eq!(counter.load(Ordering::SeqCst), jobs);
        assert_eq!(pool.executed(), jobs as u64);
        pool.shutdown();
    }

    #[test]
    fn work_stealing_runs_all_jobs() {
        run_pool(SchedulerKind::WorkStealing, 4, 1000);
    }

    #[test]
    fn central_runs_all_jobs() {
        run_pool(SchedulerKind::Central, 4, 1000);
    }

    #[test]
    fn single_worker() {
        run_pool(SchedulerKind::WorkStealing, 1, 100);
    }

    #[test]
    fn jobs_can_spawn_jobs() {
        let q = Arc::new(Quiescence::new());
        let pool = Arc::new(WorkerPool::new(
            2,
            SchedulerKind::WorkStealing,
            Arc::clone(&q),
            "spawn",
        ));
        let counter = Arc::new(AtomicUsize::new(0));
        // Binary recursion: each job below depth 6 spawns two children.
        fn recurse(pool: &Arc<WorkerPool>, counter: &Arc<AtomicUsize>, depth: usize) {
            counter.fetch_add(1, Ordering::SeqCst);
            if depth < 6 {
                for _ in 0..2 {
                    let p = Arc::clone(pool);
                    let c = Arc::clone(counter);
                    pool.submit(Job::new(move || recurse(&p, &c, depth + 1)));
                }
            }
        }
        let p = Arc::clone(&pool);
        let c = Arc::clone(&counter);
        pool.submit(Job::new(move || recurse(&p, &c, 0)));
        q.wait_quiescent();
        assert_eq!(counter.load(Ordering::SeqCst), (1 << 7) - 1);
        match Arc::try_unwrap(pool) {
            Ok(p) => p.shutdown(),
            Err(_) => panic!("pool still referenced"),
        }
    }

    #[test]
    fn priorities_run_first_when_single_worker() {
        // Saturate the single worker with a blocker, then enqueue a low and
        // a high priority job; the high one must execute first.
        let q = Arc::new(Quiescence::new());
        let pool = WorkerPool::new(1, SchedulerKind::WorkStealing, Arc::clone(&q), "prio");
        let order = Arc::new(Mutex::new(Vec::new()));
        let gate = Arc::new(AtomicBool::new(false));

        let g = Arc::clone(&gate);
        pool.submit(Job::new(move || {
            while !g.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_micros(10));
            }
        }));
        // Give the blocker time to start.
        std::thread::sleep(Duration::from_millis(10));

        for (prio, tag) in [(1, "low"), (10, "high"), (5, "mid")] {
            let o = Arc::clone(&order);
            pool.submit(Job::with_priority(prio, move || {
                o.lock().push(tag);
            }));
        }
        gate.store(true, Ordering::SeqCst);
        q.wait_quiescent();
        assert_eq!(*order.lock(), vec!["high", "mid", "low"]);
        pool.shutdown();
    }

    #[test]
    fn metrics_track_submissions_steals_and_idle() {
        let reg = Registry::new();
        let q = Arc::new(Quiescence::new());
        let pool = WorkerPool::with_telemetry(
            4,
            SchedulerKind::WorkStealing,
            Arc::clone(&q),
            "metrics",
            Some((&reg, 2)),
        );
        let counter = Arc::new(AtomicUsize::new(0));
        // Submit jobs that themselves spawn children so local deques fill
        // and peers have something to steal.
        for _ in 0..64 {
            let c = Arc::clone(&counter);
            pool.submit(Job::new(move || {
                c.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_micros(50));
            }));
        }
        q.wait_quiescent();

        let m = &pool.shared.metrics;
        assert_eq!(pool.executed(), 64);
        assert_eq!(m.queue_depth.get(), 0);
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter(&MetricKey::ranked(2, "sched", "submitted")),
            64
        );
        assert_eq!(snap.counter(&MetricKey::ranked(2, "sched", "executed")), 64);
        assert_eq!(
            snap.counter(&MetricKey::ranked(2, "sched", "steals")),
            m.steals.get()
        );
        // Idle time is recorded when a parked worker wakes, so a fixed sleep
        // can race the bookkeeping. Poke the pool with extra jobs — each
        // submit wakes a parked worker, which logs its idle span — and poll
        // with a bounded retry instead of a one-shot sleep.
        let mut extra = 0u64;
        for _ in 0..200 {
            if m.idle_ns.get() > 0 {
                break;
            }
            let c = Arc::clone(&counter);
            pool.submit(Job::new(move || {
                c.fetch_add(1, Ordering::SeqCst);
            }));
            extra += 1;
            q.wait_quiescent();
            std::thread::sleep(Duration::from_micros(500));
        }
        assert!(m.idle_ns.get() > 0, "workers never recorded idle time");
        assert_eq!(pool.executed(), 64 + extra);
        pool.shutdown();
    }

    #[test]
    fn equal_priorities_run_in_submission_order() {
        // The priority heap breaks ties on the submission sequence number,
        // so same-priority jobs keep FIFO semantics instead of heap order.
        let q = Arc::new(Quiescence::new());
        let pool = WorkerPool::new(1, SchedulerKind::WorkStealing, Arc::clone(&q), "fifo-tie");
        let order = Arc::new(Mutex::new(Vec::new()));
        let gate = Arc::new(AtomicBool::new(false));

        let g = Arc::clone(&gate);
        pool.submit(Job::new(move || {
            while !g.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_micros(10));
            }
        }));
        std::thread::sleep(Duration::from_millis(10));

        for i in 0..16 {
            let o = Arc::clone(&order);
            pool.submit(Job::with_priority(5, move || {
                o.lock().push(i);
            }));
        }
        gate.store(true, Ordering::SeqCst);
        q.wait_quiescent();
        assert_eq!(*order.lock(), (0..16).collect::<Vec<_>>());
        pool.shutdown();
    }

    #[test]
    fn submit_batch_runs_in_order_with_one_wakeup() {
        // A batch targeting one worker's bound queue must execute in spawn
        // order and cost a single wake announcement, with the batch size
        // recorded in `tasks_batched` and the queue depth in `ready_hwm`.
        let q = Arc::new(Quiescence::new());
        let pool = WorkerPool::new(1, SchedulerKind::WorkStealing, Arc::clone(&q), "batch");
        let order = Arc::new(Mutex::new(Vec::new()));
        let gate = Arc::new(AtomicBool::new(false));

        let g = Arc::clone(&gate);
        pool.submit(Job::new(move || {
            while !g.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_micros(10));
            }
        }));
        std::thread::sleep(Duration::from_millis(10));
        let m = &pool.shared.metrics;
        let wakeups_before = m.wakeups.get();

        let batch: Vec<Job> = (0..8)
            .map(|i| {
                let o = Arc::clone(&order);
                Job::new(move || {
                    o.lock().push(i);
                })
                .with_locality(0)
            })
            .collect();
        pool.submit_batch(batch);
        assert_eq!(m.wakeups.get() - wakeups_before, 1, "one wakeup per batch");
        assert_eq!(m.tasks_batched.get(), 8);

        gate.store(true, Ordering::SeqCst);
        q.wait_quiescent();
        assert_eq!(*order.lock(), (0..8).collect::<Vec<_>>());
        assert!(m.local_hits.get() > 0, "bound-queue pops count local hits");
        assert!(m.ready_hwm.get() >= 8, "high-water mark saw the batch");
        pool.shutdown();
    }

    #[test]
    fn concurrent_priority_submits_never_lose_or_underflow() {
        // Racing priority submits against draining workers must neither
        // lose jobs nor leave the priority-count bookkeeping negative
        // (which would strand jobs in the heap at shutdown).
        let q = Arc::new(Quiescence::new());
        let pool = Arc::new(WorkerPool::new(
            4,
            SchedulerKind::WorkStealing,
            Arc::clone(&q),
            "prio-race",
        ));
        let counter = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let pool = Arc::clone(&pool);
                let counter = Arc::clone(&counter);
                std::thread::spawn(move || {
                    for i in 0..500 {
                        let c = Arc::clone(&counter);
                        pool.submit(Job::with_priority((t * 500 + i) % 7, move || {
                            c.fetch_add(1, Ordering::SeqCst);
                        }));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        q.wait_quiescent();
        assert_eq!(counter.load(Ordering::SeqCst), 2000);
        assert_eq!(pool.executed(), 2000);
        assert_eq!(pool.shared.metrics.queue_depth.get(), 0);
        match Arc::try_unwrap(pool) {
            Ok(p) => p.shutdown(),
            Err(_) => panic!("pool still referenced"),
        }
    }

    #[test]
    fn shutdown_releases_pending_quiescence_units() {
        let q = Arc::new(Quiescence::new());
        let pool = WorkerPool::new(1, SchedulerKind::Central, Arc::clone(&q), "drop");
        // Block the worker, then enqueue jobs that will never run.
        let gate = Arc::new(AtomicBool::new(false));
        let g = Arc::clone(&gate);
        pool.submit(Job::new(move || {
            while !g.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_micros(10));
            }
        }));
        std::thread::sleep(Duration::from_millis(5));
        for _ in 0..3 {
            pool.submit(Job::new(|| {}));
        }
        gate.store(true, Ordering::SeqCst);
        // Let the blocker finish, then shut down racing with the queued jobs;
        // whatever did not run must still be released.
        pool.shutdown();
        assert!(q.is_quiescent());
    }
}
