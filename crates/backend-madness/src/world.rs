//! A miniature MADNESS-style parallel runtime: futures, task submission,
//! global-namespace containers with one-sided access and remote method
//! invocation, and global fences.
//!
//! The paper (§II-D) lists the central elements of the MADNESS runtime:
//! (a) futures for hiding latency and managing dependencies, (b) global
//! namespaces with one-sided access, (c) remote method invocation on
//! objects in global namespaces, and (d) an SPMD model with a thread pool
//! and a thread dedicated to serving remote active messages. This module
//! provides all four at the scale needed by the "native MADNESS" MRA
//! comparator, including the per-step `fence()` barriers whose cost the
//! paper measures.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crossbeam_channel::{unbounded, Receiver, Sender};
use parking_lot::{Condvar, Mutex};
use ttg_runtime::{Job, Quiescence, SchedulerKind, WorkerPool};
use ttg_telemetry::Registry;

/// A write-once future in the MADNESS style.
pub struct MadFuture<T> {
    state: Arc<(Mutex<Option<T>>, Condvar)>,
}

impl<T> Clone for MadFuture<T> {
    fn clone(&self) -> Self {
        MadFuture {
            state: Arc::clone(&self.state),
        }
    }
}

impl<T> Default for MadFuture<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> MadFuture<T> {
    /// Create an unset future.
    pub fn new() -> Self {
        MadFuture {
            state: Arc::new((Mutex::new(None), Condvar::new())),
        }
    }

    /// Fulfil the future. Panics if set twice.
    pub fn set(&self, v: T) {
        let (lock, cv) = &*self.state;
        let mut slot = lock.lock();
        assert!(slot.is_none(), "future set twice");
        *slot = Some(v);
        cv.notify_all();
    }

    /// Whether the future has been fulfilled.
    pub fn probe(&self) -> bool {
        self.state.0.lock().is_some()
    }

    /// Block until fulfilled and take the value.
    pub fn get(&self) -> T {
        let (lock, cv) = &*self.state;
        let mut slot = lock.lock();
        while slot.is_none() {
            cv.wait(&mut slot);
        }
        slot.take().unwrap()
    }
}

enum AmMsg {
    Run(Box<dyn FnOnce() + Send>),
    Stop,
}

ttg_telemetry::metrics! {
    // Per-rank backend counters: the copy behavior of the global namespace
    // (one-sided gets clone at the owner; inserts and RMI moves are
    // zero-copy).
    struct WorldMetrics for ranks {
        /// Tasks submitted.
        tasks: ranked counter("backend", "tasks"),
        /// Active messages served.
        ams: ranked counter("backend", "ams"),
        /// Values cloned at the owner by a one-sided get.
        copies: ranked counter("backend", "copies"),
        /// Values moved without a copy (inserts and RMI moves).
        zero_copy: ranked counter("backend", "zero_copy"),
    }
}

struct WorldInner {
    n_ranks: usize,
    pools: Vec<WorkerPool>,
    am_tx: Vec<Sender<AmMsg>>,
    quiescence: Arc<Quiescence>,
    telemetry: Arc<Registry>,
    metrics: WorldMetrics,
}

/// A handle on the SPMD "world": `n` ranks, each with a worker pool and a
/// dedicated active-message server thread.
pub struct World {
    inner: Arc<WorldInner>,
    am_threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl World {
    /// Create a world of `ranks` ranks × `workers` threads.
    pub fn new(ranks: usize, workers: usize) -> Arc<World> {
        let quiescence = Arc::new(Quiescence::new());
        let telemetry = Arc::new(Registry::new());
        let pools = (0..ranks)
            .map(|r| {
                WorkerPool::with_telemetry(
                    workers,
                    SchedulerKind::Central,
                    Arc::clone(&quiescence),
                    &format!("mad{r}"),
                    Some((&telemetry, r)),
                )
            })
            .collect();
        let mut am_tx = Vec::with_capacity(ranks);
        let mut am_rx: Vec<Receiver<AmMsg>> = Vec::with_capacity(ranks);
        for _ in 0..ranks {
            let (tx, rx) = unbounded();
            am_tx.push(tx);
            am_rx.push(rx);
        }
        let metrics = WorldMetrics::register(&telemetry, ranks);
        let inner = Arc::new(WorldInner {
            n_ranks: ranks,
            pools,
            am_tx,
            quiescence: Arc::clone(&quiescence),
            telemetry,
            metrics,
        });
        let mut am_threads = Vec::with_capacity(ranks);
        for (r, rx) in am_rx.into_iter().enumerate() {
            let q = Arc::clone(&quiescence);
            am_threads.push(
                std::thread::Builder::new()
                    .name(format!("mad-am-{r}"))
                    .spawn(move || {
                        #[cfg(feature = "telemetry")]
                        ttg_telemetry::span::name_current_thread(format!("mad-am-{r}"));
                        #[cfg(not(feature = "telemetry"))]
                        let _ = r;
                        while let Ok(AmMsg::Run(am)) = rx.recv() {
                            am();
                            q.activity_finished();
                        }
                    })
                    .expect("failed to spawn AM server"),
            );
        }
        Arc::new(World {
            inner,
            am_threads: Mutex::new(am_threads),
        })
    }

    /// Number of ranks.
    pub fn n_ranks(&self) -> usize {
        self.inner.n_ranks
    }

    /// The world's telemetry registry (`sched` and `backend` subsystems).
    pub fn telemetry(&self) -> &Arc<Registry> {
        &self.inner.telemetry
    }

    /// Submit a task to `rank`'s pool; returns a future for its result.
    pub fn task<T: Send + 'static>(
        &self,
        rank: usize,
        f: impl FnOnce() -> T + Send + 'static,
    ) -> MadFuture<T> {
        let fut = MadFuture::new();
        let fut2 = fut.clone();
        self.inner.metrics.tasks[rank].inc();
        self.inner.pools[rank].submit(Job::new(move || {
            fut2.set(f());
        }));
        fut
    }

    /// Send an active message to `rank`'s AM server thread.
    pub fn am(&self, rank: usize, f: impl FnOnce() + Send + 'static) {
        self.inner.quiescence.activity_started();
        self.inner.metrics.ams[rank].inc();
        self.inner.am_tx[rank]
            .send(AmMsg::Run(Box::new(f)))
            .expect("world closed");
    }

    /// Global fence: block until every task and active message everywhere
    /// has completed. Mirrors MADNESS `world.gop.fence()`, the barrier the
    /// native MRA implementation issues after every computational step.
    pub fn fence(&self) {
        self.inner.quiescence.wait_quiescent();
    }

    /// Shut the world down (joins AM servers and pools). Idempotent; also
    /// invoked by `Drop`.
    pub fn shutdown(&self) {
        self.fence();
        let mut threads = self.am_threads.lock();
        if threads.is_empty() {
            return;
        }
        for tx in &self.inner.am_tx {
            let _ = tx.send(AmMsg::Stop);
        }
        for t in threads.drain(..) {
            t.join().expect("AM server panicked");
        }
        for p in &self.inner.pools {
            p.shutdown();
        }
    }
}

/// A distributed key→value container with one-sided access and remote
/// method invocation ("global namespace" of the MADNESS runtime).
///
/// Ownership of a key is determined by hashing; operations are executed on
/// the owner rank via active messages, never blocking the caller except for
/// value-returning gets.
pub struct WorldContainer<K, V> {
    world: Arc<World>,
    shards: Arc<Vec<Mutex<HashMap<K, V>>>>,
}

impl<K, V> Clone for WorldContainer<K, V> {
    fn clone(&self) -> Self {
        WorldContainer {
            world: Arc::clone(&self.world),
            shards: Arc::clone(&self.shards),
        }
    }
}

impl<K, V> WorldContainer<K, V>
where
    K: Eq + Hash + Clone + Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    /// Create an empty container over `world`.
    pub fn new(world: &Arc<World>) -> Self {
        WorldContainer {
            world: Arc::clone(world),
            shards: Arc::new(
                (0..world.n_ranks())
                    .map(|_| Mutex::new(HashMap::new()))
                    .collect(),
            ),
        }
    }

    /// Rank owning key `k`.
    pub fn owner(&self, k: &K) -> usize {
        let mut h = DefaultHasher::new();
        k.hash(&mut h);
        (h.finish() as usize) % self.world.n_ranks()
    }

    /// Insert (one-sided): executes on the owner rank. The value is moved,
    /// never copied.
    pub fn insert(&self, k: K, v: V) {
        let owner = self.owner(&k);
        let shards = Arc::clone(&self.shards);
        self.world.inner.metrics.zero_copy[owner].inc();
        self.world.am(owner, move || {
            shards[owner].lock().insert(k, v);
        });
    }

    /// Remote method invocation: run `op` on the (default-constructed if
    /// absent) value owned for `k`.
    pub fn send_op(&self, k: K, op: impl FnOnce(&mut V) + Send + 'static)
    where
        V: Default,
    {
        let owner = self.owner(&k);
        let shards = Arc::clone(&self.shards);
        self.world.inner.metrics.zero_copy[owner].inc();
        self.world.am(owner, move || {
            let mut shard = shards[owner].lock();
            let v = shard.entry(k).or_default();
            op(v);
        });
    }

    /// One-sided get returning a future (clones the value at the owner).
    pub fn get(&self, k: &K) -> MadFuture<Option<V>>
    where
        V: Clone,
    {
        let owner = self.owner(k);
        let k = k.clone();
        let shards = Arc::clone(&self.shards);
        let fut = MadFuture::new();
        let fut2 = fut.clone();
        self.world.inner.metrics.copies[owner].inc();
        self.world.am(owner, move || {
            fut2.set(shards[owner].lock().get(&k).cloned());
        });
        fut
    }

    /// Number of entries stored locally on `rank`.
    pub fn local_len(&self, rank: usize) -> usize {
        self.shards[rank].lock().len()
    }

    /// Total entries across all ranks (requires global quiet to be exact).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Whether the container is empty everywhere.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Drop for World {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;
    use ttg_telemetry::MetricKey;

    #[test]
    fn futures_and_tasks() {
        let world = World::new(2, 2);
        let f = world.task(1, || 6 * 7);
        assert_eq!(f.get(), 42);
        world.fence();
    }

    #[test]
    fn fence_waits_for_all_tasks() {
        let world = World::new(2, 2);
        let counter = Arc::new(AtomicUsize::new(0));
        for r in 0..2 {
            for _ in 0..50 {
                let c = Arc::clone(&counter);
                world.task(r, move || {
                    std::thread::sleep(Duration::from_micros(100));
                    c.fetch_add(1, Ordering::SeqCst);
                });
            }
        }
        world.fence();
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn container_one_sided_ops() {
        let world = World::new(4, 1);
        let c: WorldContainer<u64, i64> = WorldContainer::new(&world);
        for k in 0..64u64 {
            c.insert(k, k as i64 * 2);
        }
        world.fence();
        assert_eq!(c.len(), 64);
        assert_eq!(c.get(&21).get(), Some(42));
        assert_eq!(c.get(&1000).get(), None);
        // RMI: in-place update at the owner.
        c.send_op(21, |v| *v += 1);
        world.fence();
        assert_eq!(c.get(&21).get(), Some(43));
    }

    #[test]
    fn container_distributes_across_ranks() {
        let world = World::new(4, 1);
        let c: WorldContainer<u64, u64> = WorldContainer::new(&world);
        for k in 0..256u64 {
            c.insert(k, k);
        }
        world.fence();
        let counts: Vec<usize> = (0..4).map(|r| c.local_len(r)).collect();
        assert_eq!(counts.iter().sum::<usize>(), 256);
        // No rank should own everything.
        assert!(counts.iter().all(|&n| n < 256));
    }

    #[test]
    fn telemetry_counts_backend_activity() {
        let world = World::new(2, 1);
        let c: WorldContainer<u64, i64> = WorldContainer::new(&world);
        c.insert(1, 10);
        c.insert(2, 20);
        world.fence();
        assert_eq!(c.get(&1).get(), Some(10));
        world.fence();
        let snap = world.telemetry().snapshot();
        let total = |name: &'static str| -> u64 {
            (0..2)
                .map(|r| snap.counter(&MetricKey::ranked(r, "backend", name)))
                .sum()
        };
        assert_eq!(total("zero_copy"), 2, "two moved inserts");
        assert_eq!(total("copies"), 1, "one cloning get");
        assert_eq!(total("ams"), 3, "every container op is one AM");
    }

    #[test]
    fn future_probe_and_clone() {
        let f: MadFuture<u8> = MadFuture::new();
        assert!(!f.probe());
        let g = f.clone();
        f.set(9);
        assert!(g.probe());
        assert_eq!(g.get(), 9);
    }
}
