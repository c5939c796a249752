//! A miniature MADNESS-style parallel runtime: task submission on an SPMD
//! set of ranks, each with its own worker pool, and global fences.
//!
//! The paper (§II-D) lists the central elements of the MADNESS runtime:
//! futures, global namespaces with one-sided access, remote method
//! invocation, and an SPMD model with a thread pool per rank. The "native
//! MADNESS" MRA comparator needs only the last of these and the per-step
//! `fence()` barriers whose cost the paper measures, so that is what this
//! module provides.

use std::sync::Arc;

use ttg_runtime::{Job, Quiescence, SchedulerKind, WorkerPool};

/// A handle on the SPMD "world": `n` ranks, each with a worker pool.
pub struct World {
    pools: Vec<WorkerPool>,
    quiescence: Arc<Quiescence>,
}

impl World {
    /// Create a world of `ranks` ranks × `workers` threads.
    pub fn new(ranks: usize, workers: usize) -> Arc<World> {
        let quiescence = Arc::new(Quiescence::new());
        let pools = (0..ranks)
            .map(|r| {
                WorkerPool::new(
                    workers,
                    SchedulerKind::Central,
                    Arc::clone(&quiescence),
                    &format!("mad{r}"),
                )
            })
            .collect();
        Arc::new(World { pools, quiescence })
    }

    /// Submit a task to `rank`'s pool; a later [`World::fence`] waits for it.
    pub fn task(&self, rank: usize, f: impl FnOnce() + Send + 'static) {
        self.pools[rank].submit(Job::new(f));
    }

    /// Global fence: block until every task everywhere has completed.
    /// Mirrors MADNESS `world.gop.fence()`, the barrier the native MRA
    /// implementation issues after every computational step.
    pub fn fence(&self) {
        self.quiescence.wait_quiescent();
    }

    /// Shut the world down (joins the pools). Idempotent; also invoked by
    /// `Drop`.
    pub fn shutdown(&self) {
        self.fence();
        for p in &self.pools {
            p.shutdown();
        }
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
}
