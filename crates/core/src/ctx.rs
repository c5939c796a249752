//! Shared per-execution runtime context.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use ttg_comm::Fabric;
use ttg_runtime::{Quiescence, WorkerPool};
use ttg_telemetry::Counter;

use crate::backend::BackendSpec;
use crate::node::AnyNode;
use crate::trace::TraceRecorder;

ttg_telemetry::metrics! {
    /// Per-rank core-layer counters, registered in the fabric's telemetry
    /// registry under subsystem `"core"` so they appear in the same snapshot
    /// as the comm and scheduler metrics. Each handle is indexed by rank.
    pub struct CoreMetrics for ranks {
        /// Task instances that became ready and were submitted.
        pub(crate) activations: ranked counter("core", "activations"),
        /// Messages a streaming reducer folded into its accumulator.
        pub(crate) reducer_folds: ranked counter("core", "reducer_folds"),
        /// Local deliveries that deep-copied the value (MADNESS-like `Copy`
        /// mode).
        pub(crate) local_copies: ranked counter("core", "local_copies"),
        /// Local deliveries that passed the value zero-copy (move or shared
        /// `Arc`).
        pub(crate) local_shared: ranked counter("core", "local_shared"),
        /// Sends dropped because their edge has no consumer.
        pub(crate) dropped_sends: ranked counter("core", "dropped_sends"),
        /// Fan-out values erased once into a shared (`Arc`) handle instead
        /// of being deep-copied per consumer.
        pub(crate) values_shared: ranked counter("core", "values_shared"),
        /// Consumers that obtained their input from a shared handle without
        /// paying a deep copy (moved out at refcount 1, or the clone was a
        /// refcount bump).
        pub(crate) deep_copies_avoided: ranked counter("core", "deep_copies_avoided"),
        /// Consumers that raced live readers of a shared value and paid a
        /// copy-on-write clone.
        pub(crate) cow_clones: ranked counter("core", "cow_clones"),
        /// Bytes those copy-on-write clones copied.
        pub(crate) cloned_bytes: ranked counter("core", "cloned_bytes"),
    }
}

impl CoreMetrics {
    /// A consumer on `rank` raced live readers of a shared value and paid a
    /// copy-on-write clone of `bytes` bytes.
    pub(crate) fn count_cow_clone(&self, rank: usize, bytes: u64) {
        self.cow_clones[rank].inc();
        self.cloned_bytes[rank].add(bytes);
    }

    /// Sends dropped so far across all ranks.
    pub fn dropped_sends_total(&self) -> u64 {
        self.dropped_sends.iter().map(Counter::get).sum()
    }
}

/// A rank's worker pool: each worker holds one handle on the context for
/// its lifetime, and every job runs with a borrow of it.
pub(crate) type TaskPool = WorkerPool<Arc<RuntimeCtx>>;

/// Task ids a thread takes from its context at a time: allocating one
/// writes only the thread's own block, and the context's counter once a
/// block.
const TASK_ID_BLOCK: u64 = 256;

/// Source of context serials, which tell a thread's block of task ids
/// which context it was taken from.
static NEXT_CTX_SERIAL: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The calling thread's block of task ids: `(context serial, next,
    /// end)`.
    static TASK_IDS: Cell<(u64, u64, u64)> = const { Cell::new((0, 0, 0)) };
}

/// Everything a task or a delivery path needs at run time: the fabric, the
/// per-rank pools, the backend configuration, the quiescence tracker, and
/// the optional trace recorder.
pub struct RuntimeCtx {
    /// The simulated communication fabric.
    pub fabric: Arc<Fabric>,
    /// Per-rank worker pools (set once by the executor).
    pub(crate) pools: OnceLock<Vec<TaskPool>>,
    /// Global quiescence tracker backing `Executor::wait`; it signals the
    /// fabric's event count, so one wait parks on both.
    pub quiescence: Arc<Quiescence>,
    /// Active backend configuration.
    pub(crate) backend: BackendSpec,
    /// Trace recorder, present when tracing is enabled.
    pub(crate) trace: Option<TraceRecorder>,
    /// All template-task nodes, indexed by node id (set once).
    pub(crate) nodes: OnceLock<Vec<Arc<dyn AnyNode>>>,
    /// Core-layer counters (activations, folds, local-pass behavior).
    pub metrics: CoreMetrics,
    /// Runtime-sanitizer violation log (populated by `checked` call sites
    /// and zero-consumer edge drops; drained into the execution report).
    pub(crate) sanitizer: crate::inspect::Sanitizer,
    serial: u64,
    /// Start of the next block of task ids.
    next_task_block: AtomicU64,
}

impl RuntimeCtx {
    /// Create a context over `fabric` with the given backend.
    pub(crate) fn new(fabric: Arc<Fabric>, backend: BackendSpec, trace: bool) -> Arc<Self> {
        let metrics = CoreMetrics::register(fabric.telemetry(), fabric.num_ranks());
        let quiescence = Arc::new(Quiescence::with_events(Arc::clone(fabric.events())));
        Arc::new(RuntimeCtx {
            fabric,
            pools: OnceLock::new(),
            quiescence,
            backend,
            trace: if trace {
                Some(TraceRecorder::new())
            } else {
                None
            },
            nodes: OnceLock::new(),
            metrics,
            sanitizer: crate::inspect::Sanitizer::default(),
            serial: NEXT_CTX_SERIAL.fetch_add(1, Ordering::Relaxed),
            next_task_block: AtomicU64::new(1),
        })
    }

    /// Number of ranks in this execution.
    pub(crate) fn n_ranks(&self) -> usize {
        self.fabric.num_ranks()
    }

    /// Whether `rank`'s tasks run in this process. Always true on an
    /// in-process fabric; on a multi-process rank only its own.
    pub fn is_local(&self, rank: usize) -> bool {
        self.fabric.local_rank().is_none_or(|me| me == rank)
    }

    /// The worker pool of `rank`.
    ///
    /// A multi-process rank hosts exactly one pool (its own), so every
    /// rank maps to it — callers always name ranks whose work is local,
    /// which in that mode is only this one.
    pub(crate) fn pool(&self, rank: usize) -> &TaskPool {
        let pools = self.pools.get().expect("executor not started");
        if pools.len() == 1 {
            &pools[0]
        } else {
            &pools[rank]
        }
    }

    /// Allocate a task id unique within this context (≥ 1; 0 means
    /// "external seed"), from the calling thread's block.
    pub(crate) fn alloc_task_id(&self) -> u64 {
        TASK_IDS.with(|ids| {
            let (serial, mut next, mut end) = ids.get();
            if serial != self.serial || next == end {
                next = self
                    .next_task_block
                    .fetch_add(TASK_ID_BLOCK, Ordering::Relaxed);
                end = next + TASK_ID_BLOCK;
            }
            ids.set((self.serial, next + 1, end));
            next
        })
    }

    /// Look up a node by id (`None`: the graph has no such node — ids also
    /// arrive in messages).
    pub fn node(&self, id: u32) -> Option<&Arc<dyn AnyNode>> {
        self.nodes
            .get()
            .expect("graph not attached")
            .get(id as usize)
    }
}
