//! Shared per-execution runtime context.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use ttg_comm::Fabric;
use ttg_runtime::{Quiescence, WorkerPool};
use ttg_telemetry::{Counter, MetricKey};

use crate::backend::BackendSpec;
use crate::node::AnyNode;
use crate::trace::TraceRecorder;

/// Per-rank core-layer counters, registered in the fabric's telemetry
/// registry under subsystem `"core"` so they appear in the same snapshot
/// as the comm and scheduler metrics.
pub struct CoreMetrics {
    activations: Vec<Counter>,
    reducer_folds: Vec<Counter>,
    local_copies: Vec<Counter>,
    local_shared: Vec<Counter>,
    dropped_sends: Vec<Counter>,
    values_shared: Vec<Counter>,
    deep_copies_avoided: Vec<Counter>,
    cow_clones: Vec<Counter>,
    cloned_bytes: Vec<Counter>,
}

impl CoreMetrics {
    fn new(fabric: &Fabric) -> Self {
        let reg = fabric.telemetry();
        let n = fabric.num_ranks();
        let per_rank = |name: &'static str| -> Vec<Counter> {
            (0..n)
                .map(|r| reg.counter(MetricKey::ranked(r, "core", name)))
                .collect()
        };
        CoreMetrics {
            activations: per_rank("activations"),
            reducer_folds: per_rank("reducer_folds"),
            local_copies: per_rank("local_copies"),
            local_shared: per_rank("local_shared"),
            dropped_sends: per_rank("dropped_sends"),
            values_shared: per_rank("values_shared"),
            deep_copies_avoided: per_rank("deep_copies_avoided"),
            cow_clones: per_rank("cow_clones"),
            cloned_bytes: per_rank("cloned_bytes"),
        }
    }

    /// A task instance became ready and was submitted on `rank`.
    pub fn count_activation(&self, rank: usize) {
        self.activations[rank].inc();
    }

    /// A streaming reducer folded one message on `rank`.
    pub fn count_reducer_fold(&self, rank: usize) {
        self.reducer_folds[rank].inc();
    }

    /// A local delivery deep-copied the value (MADNESS-like `Copy` mode).
    pub fn count_local_copy(&self, rank: usize) {
        self.local_copies[rank].inc();
    }

    /// A local delivery passed the value zero-copy (move or shared `Arc`).
    pub fn count_local_shared(&self, rank: usize) {
        self.local_shared[rank].inc();
    }

    /// Task activations so far on `rank`.
    pub fn activations(&self, rank: usize) -> u64 {
        self.activations[rank].get()
    }

    /// Reducer folds so far on `rank`.
    pub fn reducer_folds(&self, rank: usize) -> u64 {
        self.reducer_folds[rank].get()
    }

    /// Local deep copies so far on `rank`.
    pub fn local_copies(&self, rank: usize) -> u64 {
        self.local_copies[rank].get()
    }

    /// Zero-copy local deliveries so far on `rank`.
    pub fn local_shared(&self, rank: usize) -> u64 {
        self.local_shared[rank].get()
    }

    /// A fan-out value was erased once into a shared (`Arc`) handle on
    /// `rank` instead of being deep-copied per consumer.
    pub fn count_value_shared(&self, rank: usize) {
        self.values_shared[rank].inc();
    }

    /// A consumer on `rank` obtained its input from a shared handle without
    /// paying a deep copy (moved out at refcount 1, or the clone was a
    /// refcount bump).
    pub fn count_deep_copy_avoided(&self, rank: usize) {
        self.deep_copies_avoided[rank].inc();
    }

    /// A consumer on `rank` raced live readers of a shared value and paid a
    /// copy-on-write clone of `bytes` bytes.
    pub fn count_cow_clone(&self, rank: usize, bytes: u64) {
        self.cow_clones[rank].inc();
        self.cloned_bytes[rank].add(bytes);
    }

    /// Values erased into shared handles so far on `rank`.
    pub fn values_shared(&self, rank: usize) -> u64 {
        self.values_shared[rank].get()
    }

    /// Deep copies avoided by the COW value plane so far on `rank`.
    pub fn deep_copies_avoided(&self, rank: usize) -> u64 {
        self.deep_copies_avoided[rank].get()
    }

    /// Copy-on-write clones so far on `rank`.
    pub fn cow_clones(&self, rank: usize) -> u64 {
        self.cow_clones[rank].get()
    }

    /// Bytes deep-copied by COW clones so far on `rank`.
    pub fn cloned_bytes(&self, rank: usize) -> u64 {
        self.cloned_bytes[rank].get()
    }

    /// `n` sends on `rank` were dropped because their edge has no consumer.
    pub fn count_dropped_sends(&self, rank: usize, n: u64) {
        self.dropped_sends[rank].add(n);
    }

    /// Sends dropped so far on `rank` (zero-consumer edges).
    pub fn dropped_sends(&self, rank: usize) -> u64 {
        self.dropped_sends[rank].get()
    }

    /// Sends dropped so far across all ranks.
    pub fn dropped_sends_total(&self) -> u64 {
        self.dropped_sends.iter().map(Counter::get).sum()
    }
}

/// Everything a task or a delivery path needs at run time: the fabric, the
/// per-rank pools, the backend configuration, the quiescence tracker, and
/// the optional trace recorder.
pub struct RuntimeCtx {
    /// The simulated communication fabric.
    pub fabric: Arc<Fabric>,
    /// Per-rank worker pools (set once by the executor).
    pub pools: OnceLock<Vec<WorkerPool>>,
    /// Global quiescence tracker backing `Executor::wait`.
    pub quiescence: Arc<Quiescence>,
    /// Active backend configuration.
    pub backend: BackendSpec,
    /// Trace recorder, present when tracing is enabled.
    pub trace: Option<TraceRecorder>,
    /// All template-task nodes, indexed by node id (set once).
    pub nodes: OnceLock<Vec<Arc<dyn AnyNode>>>,
    /// Core-layer counters (activations, folds, local-pass behavior).
    pub metrics: CoreMetrics,
    /// Runtime-sanitizer violation log (populated by `checked` call sites
    /// and zero-consumer edge drops; drained into the execution report).
    pub sanitizer: crate::inspect::Sanitizer,
    next_task: AtomicU64,
}

impl RuntimeCtx {
    /// Create a context over `fabric` with the given backend.
    pub fn new(fabric: Arc<Fabric>, backend: BackendSpec, trace: bool) -> Arc<Self> {
        let metrics = CoreMetrics::new(&fabric);
        Arc::new(RuntimeCtx {
            fabric,
            pools: OnceLock::new(),
            quiescence: Arc::new(Quiescence::new()),
            backend,
            trace: if trace {
                Some(TraceRecorder::new())
            } else {
                None
            },
            nodes: OnceLock::new(),
            metrics,
            sanitizer: crate::inspect::Sanitizer::default(),
            next_task: AtomicU64::new(1),
        })
    }

    /// Number of ranks in this execution.
    pub fn n_ranks(&self) -> usize {
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
    pub fn pool(&self, rank: usize) -> &WorkerPool {
        let pools = self.pools.get().expect("executor not started");
        if pools.len() == 1 {
            &pools[0]
        } else {
            &pools[rank]
        }
    }

    /// Allocate a globally unique task id (≥ 1; 0 means "external seed").
    pub fn alloc_task_id(&self) -> u64 {
        self.next_task.fetch_add(1, Ordering::Relaxed)
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
