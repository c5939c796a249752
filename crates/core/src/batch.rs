//! Batched successor activation.
//!
//! When a task body (or an AM delivery on the comm thread) completes, the
//! nodes it fed may launch several newly ready tasks — and each launch
//! used to pay its own pool submit, with its own wake announcement. A
//! [`BatchScope`] collects the jobs spawned while a parent work item runs
//! in thread-local storage and flushes them on drop as one group per
//! destination rank: one announcement covers the whole successor group and
//! wakes at most one parked worker per job (Taskflow-style batched
//! notification, DESIGN §10). The buffer is the thread's own and outlives
//! the scope, so a scope allocates nothing.
//!
//! Quiescence stays airtight: jobs are buffered only while the parent
//! work item is still active (its job keeps its pool busy — or the
//! in-flight packet on the comm thread is not retired — until after the
//! scope drops and the pools have counted every child).

use std::cell::RefCell;
use std::sync::Arc;

use crate::ctx::RuntimeCtx;

type Job = ttg_runtime::Job<Arc<RuntimeCtx>>;

/// Largest buffer a thread keeps between scopes; one burst of seeds must
/// not pin its high-water mark for the rest of the run.
const KEEP_CAP: usize = 1024;

/// This thread's batch: whether a scope is open, and the jobs spawned under
/// it, tagged with their destination rank.
struct Pending {
    open: bool,
    jobs: Vec<(usize, Job)>,
}

thread_local! {
    static PENDING: RefCell<Pending> = const {
        RefCell::new(Pending {
            open: false,
            jobs: Vec::new(),
        })
    };
}

/// RAII guard that batches successor submissions on the current thread.
/// Re-entrant: nested scopes are no-ops and the outermost one flushes.
pub(crate) struct BatchScope<'a> {
    ctx: &'a RuntimeCtx,
    owner: bool,
}

impl<'a> BatchScope<'a> {
    /// Open a scope; until it drops, [`enqueue`] buffers instead of
    /// submitting.
    pub(crate) fn enter(ctx: &'a RuntimeCtx) -> Self {
        let owner = PENDING.with(|p| !std::mem::replace(&mut p.borrow_mut().open, true));
        BatchScope { ctx, owner }
    }
}

impl Drop for BatchScope<'_> {
    fn drop(&mut self) {
        if !self.owner {
            return;
        }
        // Nothing below spawns, so the buffer stays borrowed while it drains.
        PENDING.with(|p| {
            let mut p = p.borrow_mut();
            p.open = false;
            let jobs = &mut p.jobs;
            // One group per destination rank, spawn order kept within each
            // (the sort is stable). Every job is for one rank, but for a
            // delivery that readies tasks of several in-process ranks.
            if jobs.iter().any(|j| j.0 != jobs[0].0) {
                jobs.sort_by_key(|j| j.0);
            }
            while let Some(&(rank, _)) = jobs.first() {
                let n = jobs.iter().take_while(|j| j.0 == rank).count();
                let group = jobs.drain(..n).map(|j| j.1);
                self.ctx.pool(rank).submit_group(group);
            }
            if jobs.capacity() > KEEP_CAP {
                *jobs = Vec::new();
            }
        });
    }
}

/// Route a spawned job: buffered when a batch scope is active on this
/// thread, direct submit otherwise (external seeds, user threads).
pub(crate) fn enqueue(rank: usize, job: Job, ctx: &RuntimeCtx) {
    let unbuffered = PENDING.with(|p| {
        let mut p = p.borrow_mut();
        if p.open {
            p.jobs.push((rank, job));
            None
        } else {
            Some(job)
        }
    });
    if let Some(job) = unbuffered {
        ctx.pool(rank).submit(job);
    }
}
