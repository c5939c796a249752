//! Type-erased template-task internals.
//!
//! A template task ("TT") matches incoming messages by task ID across all of
//! its input terminals; when every terminal has a complete input for some ID
//! a task instance is created and scheduled (paper §II). The public, fully
//! typed API lives in `graph`/`outs`; this module implements task launch,
//! the delivery of active messages (whose wire format and decoded value,
//! [`crate::am::Arrival`], are `am`'s), export/import of a rank's pending
//! entries, and diagnostics. The matching table is `table`; streaming
//! terminals are `stream`.

use std::any::{Any, TypeId};
use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;
use ttg_comm::{ReadBuf, WireError, WriteBuf};

use crate::am::{Arrival, MSG_DATA_INLINE, MSG_DATA_SPLITMD, MSG_FINALIZE, MSG_SET_SIZE};
use crate::ctx::RuntimeCtx;
use crate::inspect::{EdgeDecl, KeymapProbe, MutationError, ReducerDecl, StuckEntry};
use crate::trace::{Dep, TaskEvent};
use crate::types::{ErasedVal, Key};

#[cfg(feature = "checked")]
use crate::inspect::Violation;

/// A misuse of the matching table (a duplicate input, a stream overrun, a
/// stream operation on a plain terminal…). `checked` builds record it as a
/// sanitizer violation and carry on. Otherwise it is an error: a bug in this
/// program's graph when a task body's own send meets it — [`or_panic`], as
/// it always has — and a failed delivery (TTG043) when it arrives in an AM,
/// whose bytes a peer chose.
macro_rules! misuse {
    ($ctx:expr, $violation:expr, $($msg:tt)+) => {{
        #[cfg(feature = "checked")]
        {
            $ctx.sanitizer.record($violation);
            return Ok(());
        }
        #[cfg(not(feature = "checked"))]
        return Err(WireError::new(format!($($msg)+)));
    }};
}

mod stream;
mod table;

pub(crate) use table::Inputs;
use table::{PendingE, ShardedTable, SlotE, Stripe};

/// Outcome of a matching-table call made on behalf of a task body (or a
/// seed) of this process: see [`misuse`].
pub(crate) fn or_panic(r: Result<(), WireError>) {
    if let Err(e) = r {
        panic!("{}", e.msg);
    }
}

/// Type-erased reduction operator for a streaming terminal.
pub(crate) type ErasedReduce = Arc<dyn Fn(&mut Box<dyn Any + Send>, ErasedVal) + Send + Sync>;

/// Type-erased conversion of the first stream message into the accumulator.
pub(crate) type ErasedInit = Arc<dyn Fn(ErasedVal) -> Box<dyn Any + Send> + Send + Sync>;

/// Reducer installed on an input terminal (paper §II-B streaming terminals).
#[derive(Clone)]
pub(crate) struct ReducerSpec {
    /// Converts the first message into the accumulator.
    pub(crate) init: ErasedInit,
    /// Folds one more message into the accumulator.
    pub(crate) op: ErasedReduce,
    /// Default expected stream length (None = unbounded, requires
    /// finalize or a per-key size).
    pub(crate) default_size: Option<usize>,
}

/// Fixed (construction-time) per-terminal vtable.
pub struct InputMeta {
    /// The terminal's value type: a data AM's value, decoded once, may only
    /// be handed to terminals of it.
    pub(crate) value_type: TypeId,
    /// Decode an inline value from an AM.
    pub(crate) decode:
        Arc<dyn Fn(&mut ReadBuf<'_>) -> Result<Box<dyn Any + Send>, WireError> + Send + Sync>,
    /// Decode a split-metadata value: metadata cursor + RMA payload bytes.
    pub(crate) decode_splitmd: Arc<
        dyn Fn(&mut ReadBuf<'_>, &[u8]) -> Result<Box<dyn Any + Send>, WireError> + Send + Sync,
    >,
    /// Clone an erased boxed value (for multi-key deliveries in `Copy`
    /// local-pass mode).
    pub(crate) clone_boxed: Arc<dyn Fn(&(dyn Any + Send)) -> Box<dyn Any + Send> + Send + Sync>,
    /// Promote an erased boxed value into a shared handle (for multi-key
    /// deliveries in `Share` local-pass mode: piggybacked consumers alias
    /// one allocation instead of each receiving a deep copy).
    pub(crate) to_shared:
        Arc<dyn Fn(Box<dyn Any + Send>) -> Arc<dyn Any + Send + Sync> + Send + Sync>,
    /// Re-encode a live slot value in place (checkpoint export). Fails on a
    /// type mismatch, which aborts the snapshot attempt gracefully.
    pub(crate) encode:
        Arc<dyn Fn(&ErasedVal, &mut WriteBuf) -> Result<(), WireError> + Send + Sync>,
    /// Re-encode a stream accumulator (checkpoint export). Fails when the
    /// accumulator type differs from the terminal's wire type — such
    /// terminals make the owning rank unsnapshottable, not broken.
    pub(crate) encode_boxed:
        Arc<dyn Fn(&(dyn Any + Send), &mut WriteBuf) -> Result<(), WireError> + Send + Sync>,
}

/// Why a slot did not take a value (see [`NodeInner::refuse`]).
enum Refused {
    /// A plain terminal already holds its one value.
    Duplicate,
    /// The stream was complete after this many messages.
    Overrun(usize),
    /// A `set_stream_size` made a stream of a terminal without a reducer.
    NoReducer,
}

/// Type-erased interface of a template task, used by the executor's
/// communication threads and diagnostics.
pub trait AnyNode: Send + Sync {
    /// This node as `Any`, for a typed lookup by id ([`NodeInner::lookup`]).
    fn as_any(&self) -> &dyn Any;
    /// Size the per-rank matching tables (called once by the executor).
    /// `workers_per_rank` sizes the lock stripes of each table.
    fn attach(&self, n_ranks: usize, workers_per_rank: usize);
    /// Deliver a serialized active message addressed to this node (format:
    /// [`crate::am`]). The bytes may be a peer's: whatever they hold, the
    /// outcome is a delivery or an error, never a panic.
    fn deliver_am(
        &self,
        rank: usize,
        payload: &[u8],
        ctx: &Arc<RuntimeCtx>,
    ) -> Result<(), WireError>;
    /// Deliver one group of a data AM: hand `arrival`'s value to `n` task
    /// IDs of `terminal`, decoded from `keys`.
    fn deliver_group(
        &self,
        rank: usize,
        terminal: usize,
        n: usize,
        keys: &mut ReadBuf<'_>,
        arrival: &mut Arrival,
        dep: Dep,
        ctx: &Arc<RuntimeCtx>,
    ) -> Result<(), WireError>;
    /// Node id within its graph.
    fn node_id(&self) -> u32;
    /// Node name.
    fn node_name(&self) -> &'static str;
    /// Tasks executed so far.
    fn tasks_executed(&self) -> u64;
    /// Pending (incomplete) task IDs across all ranks.
    fn pending(&self) -> usize;
    /// Number of input terminals.
    fn num_inputs(&self) -> usize;
    /// Edge identity of each input terminal (index = terminal).
    fn input_edges(&self) -> Vec<EdgeDecl>;
    /// Edge identity of each output terminal (index = terminal).
    fn output_edges(&self) -> Vec<EdgeDecl>;
    /// Declared reducer of each input terminal (index = terminal).
    fn reducer_decls(&self) -> Vec<Option<ReducerDecl>>;
    /// Evaluate the keymap over the registered sample keys (twice per key,
    /// to catch nondeterminism). `None` when no samples were registered.
    fn probe_keymap(&self, n_ranks: usize) -> Option<KeymapProbe>;
    /// Detailed view of every partially matched key still pending across
    /// all ranks: the stuck-key deadlock report.
    fn pending_detail(&self) -> Vec<StuckEntry>;
    /// Serialize rank `rank`'s matching-table state into `b` (checkpoint
    /// section; DESIGN §13). Fails when a live slot cannot be re-encoded.
    fn export_rank(&self, rank: usize, b: &mut WriteBuf) -> Result<(), WireError>;
    /// Replace rank `rank`'s matching-table state with the snapshot in `r`.
    fn import_rank(&self, rank: usize, r: &mut ReadBuf<'_>) -> Result<(), WireError>;
    /// Drop rank `rank`'s matching-table state (a rollback to the start).
    fn clear_rank(&self, rank: usize);
}

type InvokeFn<K> = Arc<dyn Fn(&K, Inputs, u64, usize, &Arc<RuntimeCtx>) + Send + Sync>;
type KeyMapFn<K> = Arc<dyn Fn(&K) -> usize + Send + Sync>;
type PrioMapFn<K> = Arc<dyn Fn(&K) -> i32 + Send + Sync>;
type CostMapFn<K> = Arc<dyn Fn(&K) -> u64 + Send + Sync>;

/// Node maps snapshotted at attach time. Registration (`set_keymap`,
/// `set_reducer`, …) happens while the graph is built, behind `RwLock`s;
/// once the executor attaches the node those maps are immutable, so the hot
/// paths (`owner`, `insert`, `launch`) read this lock-free snapshot instead
/// of hammering the lock words — which become contended cachelines when
/// several workers insert into one node concurrently.
struct FrozenMaps<K: Key> {
    keymap: KeyMapFn<K>,
    reducers: Vec<Option<ReducerSpec>>,
    priomap: Option<PrioMapFn<K>>,
    costmap: Option<CostMapFn<K>>,
}

/// The shared implementation behind every template task.
pub struct NodeInner<K: Key> {
    /// Node id within the graph.
    pub(crate) id: u32,
    /// Node name (for traces and debugging).
    pub(crate) name: &'static str,
    /// Number of input terminals.
    pub(crate) n_inputs: usize,
    tables: OnceLock<Vec<ShardedTable<K>>>,
    frozen: OnceLock<FrozenMaps<K>>,
    keymap: RwLock<KeyMapFn<K>>,
    priomap: RwLock<Option<PrioMapFn<K>>>,
    costmap: RwLock<Option<CostMapFn<K>>>,
    metas: Vec<InputMeta>,
    reducers: Vec<RwLock<Option<ReducerSpec>>>,
    invoke: OnceLock<InvokeFn<K>>,
    topo: OnceLock<(Vec<EdgeDecl>, Vec<EdgeDecl>)>,
    check_samples: RwLock<Vec<K>>,
}

impl<K: Key> NodeInner<K> {
    /// Construct a node; `metas` has one entry per input terminal.
    pub(crate) fn new(
        id: u32,
        name: &'static str,
        metas: Vec<InputMeta>,
        keymap: KeyMapFn<K>,
    ) -> Arc<Self> {
        let n_inputs = metas.len();
        Arc::new(NodeInner {
            id,
            name,
            n_inputs,
            tables: OnceLock::new(),
            frozen: OnceLock::new(),
            keymap: RwLock::new(keymap),
            priomap: RwLock::new(None),
            costmap: RwLock::new(None),
            metas,
            reducers: (0..n_inputs).map(|_| RwLock::new(None)).collect(),
            invoke: OnceLock::new(),
            topo: OnceLock::new(),
            check_samples: RwLock::new(Vec::new()),
        })
    }

    /// Node `id` of the graph `ctx` runs, whose keys are `K`: how a job and
    /// an edge's consumer port reach their node without holding it.
    pub(crate) fn lookup(ctx: &RuntimeCtx, id: u32) -> &Self {
        ctx.node(id)
            .and_then(|n| n.as_any().downcast_ref())
            .unwrap_or_else(|| panic!("node {id} is not a template task of this key type"))
    }

    /// Install the task body (done once by `make_tt`).
    pub(crate) fn set_invoke(&self, f: InvokeFn<K>) {
        if self.invoke.set(f).is_err() {
            panic!("invoke already set for node {}", self.name);
        }
    }

    /// Record the edge identities of the input and output terminals (done
    /// once by `make_tt`; consumed by the static verifier).
    pub(crate) fn set_topology(&self, inputs: Vec<EdgeDecl>, outputs: Vec<EdgeDecl>) {
        if self.topo.set((inputs, outputs)).is_err() {
            panic!("topology already set for node {}", self.name);
        }
    }

    /// Register sample keys for static keymap probing (`ttg-check`
    /// diagnostics TTG004/TTG005). Cheap to call unconditionally: the keys
    /// are only evaluated when a verifier runs.
    pub(crate) fn set_check_samples(&self, keys: Vec<K>) {
        *self.check_samples.write() = keys;
    }

    fn guard_mutation(&self, what: &'static str) -> Result<(), MutationError> {
        if self.frozen.get().is_some() {
            return Err(MutationError {
                node: self.name,
                what,
            });
        }
        Ok(())
    }

    /// Install a streaming reducer on terminal `t`. Fails with `TTG010`
    /// once the executor has frozen the node maps.
    pub(crate) fn set_reducer(&self, t: usize, spec: ReducerSpec) -> Result<(), MutationError> {
        self.guard_mutation("set_reducer")?;
        *self.reducers[t].write() = Some(spec);
        Ok(())
    }

    /// Replace the keymap. Fails with `TTG010` after executor attach.
    pub(crate) fn set_keymap(&self, f: KeyMapFn<K>) -> Result<(), MutationError> {
        self.guard_mutation("set_keymap")?;
        *self.keymap.write() = f;
        Ok(())
    }

    /// Install a priority map. Fails with `TTG010` after executor attach.
    pub(crate) fn set_priomap(&self, f: PrioMapFn<K>) -> Result<(), MutationError> {
        self.guard_mutation("set_priority_map")?;
        *self.priomap.write() = Some(f);
        Ok(())
    }

    /// Install a cost model for trace-based projection. Fails with `TTG010`
    /// after executor attach.
    pub(crate) fn set_costmap(&self, f: CostMapFn<K>) -> Result<(), MutationError> {
        self.guard_mutation("set_cost_model")?;
        *self.costmap.write() = Some(f);
        Ok(())
    }

    /// Rank owning task `k` (bounded by the fabric size).
    pub(crate) fn owner(&self, k: &K, n_ranks: usize) -> usize {
        match self.frozen.get() {
            Some(f) => (f.keymap)(k) % n_ranks,
            None => (self.keymap.read())(k) % n_ranks,
        }
    }

    /// Vtable of terminal `t`, a number read off the wire.
    fn checked_meta(&self, t: usize) -> Result<&InputMeta, WireError> {
        self.metas
            .get(t)
            .ok_or_else(|| WireError::new(format!("{} has no input terminal {t}", self.name)))
    }

    fn table(&self, rank: usize, k: &K) -> &Stripe<K> {
        self.tables.get().expect("node not attached")[rank].shard(k)
    }

    /// Insert a value for `(k, terminal)` into rank `rank`'s table,
    /// launching the task if this completes all inputs. The map is consulted
    /// once: an entry the value completes leaves with its key, and a key
    /// whose first message completes it (every 1-input template) never
    /// enters.
    pub(crate) fn insert(
        &self,
        rank: usize,
        terminal: usize,
        k: K,
        val: ErasedVal,
        dep: Dep,
        ctx: &Arc<RuntimeCtx>,
    ) -> Result<(), WireError> {
        debug_assert_eq!(self.owner(&k, ctx.n_ranks()), rank, "misrouted message");
        let table = &self.tables.get().expect("node not attached")[rank];
        let fill = |entry: &mut PendingE| self.fill(entry, rank, terminal, val, dep, ctx);
        match table.arrive(k, self.n_inputs, fill) {
            Ok(Some((k, entry))) => self.launch(rank, k, entry, ctx),
            Ok(None) => Ok(()),
            Err((m, k)) => self.refuse(m, terminal, &k, ctx),
        }
    }

    /// Hand `val` to `terminal`'s slot of `entry`: stored, or folded into the
    /// terminal's stream.
    fn fill(
        &self,
        entry: &mut PendingE,
        rank: usize,
        terminal: usize,
        val: ErasedVal,
        dep: Dep,
        ctx: &RuntimeCtx,
    ) -> Result<(), Refused> {
        // Provenance is only consumed by the tracer at launch; skip the
        // per-message Vec growth entirely when tracing is off.
        if ctx.trace.is_some() {
            entry.deps.push(dep);
        }
        let reducer = self.frozen.get().expect("node not attached").reducers[terminal].as_ref();
        let slot = entry.slots.get_mut(terminal);
        match slot {
            SlotE::Empty => match reducer {
                Some(spec) => {
                    *slot = SlotE::Stream {
                        acc: Some((spec.init)(val)),
                        received: 1,
                        expected: spec.default_size,
                        finalized: false,
                    };
                }
                None => *slot = SlotE::Plain(val),
            },
            SlotE::Plain(_) => return Err(Refused::Duplicate),
            SlotE::Stream {
                acc,
                received,
                expected,
                finalized,
            } => {
                if *finalized || expected.is_some_and(|e| *received >= e) {
                    return Err(Refused::Overrun(*received));
                }
                // `None`: the terminal was turned into a stream by a
                // `set_stream_size` without a reducer installed.
                let spec = reducer.ok_or(Refused::NoReducer)?;
                match acc {
                    Some(a) => {
                        (spec.op)(a, val);
                        ctx.metrics.reducer_folds[rank].inc();
                    }
                    None => *acc = Some((spec.init)(val)),
                }
                *received += 1;
            }
        }
        Ok(())
    }

    /// The diagnosis of a value [`fill`](Self::fill) refused, which needs
    /// the key the entry was borrowed from.
    // Only the `checked` report names the context and the stream's count.
    #[cfg_attr(not(feature = "checked"), allow(unused_variables))]
    fn refuse(
        &self,
        why: Refused,
        terminal: usize,
        k: &K,
        ctx: &RuntimeCtx,
    ) -> Result<(), WireError> {
        match why {
            Refused::Duplicate => misuse!(
                ctx,
                Violation::ExactlyOnce {
                    node: self.name,
                    terminal,
                    key: format!("{k:?}"),
                },
                "duplicate input on terminal {} of {} for key {:?} (no reducer installed)",
                terminal,
                self.name,
                k
            ),
            Refused::Overrun(received) => misuse!(
                ctx,
                Violation::StreamOverrun {
                    node: self.name,
                    terminal,
                    key: format!("{k:?}"),
                    received,
                },
                "stream overrun on terminal {} of {} for key {:?}",
                terminal,
                self.name,
                k
            ),
            Refused::NoReducer => misuse!(
                ctx,
                Violation::StreamWithoutReducer {
                    node: self.name,
                    terminal,
                    key: format!("{k:?}"),
                },
                "stream slot without reducer on terminal {} of {} for key {:?}",
                terminal,
                self.name,
                k
            ),
        }
    }

    fn launch(
        &self,
        rank: usize,
        k: K,
        entry: PendingE,
        ctx: &Arc<RuntimeCtx>,
    ) -> Result<(), WireError> {
        if entry
            .slots
            .as_slice()
            .iter()
            .any(|s| matches!(s, SlotE::Stream { acc: None, .. }))
        {
            misuse!(
                ctx,
                Violation::EmptyStream {
                    node: self.name,
                    key: format!("{k:?}"),
                },
                "empty finalized stream on {} for key {:?}: no identity value",
                self.name,
                k
            );
        }
        let task_id = ctx.alloc_task_id();
        let frozen = self.frozen.get().expect("node not attached");
        let prio = if ctx.backend.honor_priorities {
            frozen.priomap.as_ref().map_or(0, |f| f(&k))
        } else {
            0
        };
        let id = self.id;
        let PendingE { slots, deps } = entry;
        let inputs = Inputs::from(slots);
        ctx.metrics.activations[rank].inc();
        let pool = ctx.pool(rank);
        // A traced task carries its record from here, where its last input
        // arrived; the job fills in who ran it and when. The clock is read
        // only for a trace to consume.
        let traced = ctx.trace.as_ref().map(|tr| {
            Box::new(TaskEvent {
                id: task_id,
                node: id,
                name: self.name,
                rank,
                worker: 0,
                ready_ns: tr.now_ns(),
                start_ns: 0,
                end_ns: 0,
                model_ns: frozen.costmap.as_ref().map(|f| f(&k)),
                priority: prio,
                deps,
            })
        });
        // The job holds no handle: it runs with its worker's context and
        // finds its node there by id.
        let mut job = ttg_runtime::Job::in_context(prio, move |ctx: &Arc<RuntimeCtx>| {
            // Declared first so it drops last: successors spawned by this
            // body flush as one batch after the trace record, while this
            // job keeps its pool busy.
            let _batch = crate::batch::BatchScope::enter(ctx);
            let node = Self::lookup(ctx, id);
            let invoke = node
                .invoke
                .get()
                .unwrap_or_else(|| panic!("node {} has no task body", node.name));
            match (traced, &ctx.trace) {
                (Some(ev), Some(tr)) => tr.run(*ev, ctx.pool(rank).current_worker(), || {
                    invoke(&k, inputs, task_id, rank, ctx)
                }),
                _ => invoke(&k, inputs, task_id, rank, ctx),
            }
            node.tables.get().expect("node not attached")[rank]
                .executed
                .fetch_add(1, Ordering::Relaxed);
        });
        // Successors spawned by a worker inherit that worker's cache: bind
        // them to it so the pool's locality queue serves them hot.
        if let Some(w) = pool.current_worker() {
            job = job.with_locality(w);
        }
        crate::batch::enqueue(rank, job, ctx);
        Ok(())
    }
}

impl<K: Key> AnyNode for NodeInner<K> {
    fn as_any(&self) -> &dyn Any {
        self
    }

    fn attach(&self, n_ranks: usize, workers_per_rank: usize) {
        let tables = (0..n_ranks)
            .map(|_| ShardedTable::new(2 * workers_per_rank))
            .collect();
        if self.tables.set(tables).is_err() {
            panic!("node {} attached twice", self.name);
        }
        let frozen = FrozenMaps {
            keymap: self.keymap.read().clone(),
            reducers: self.reducers.iter().map(|r| r.read().clone()).collect(),
            priomap: self.priomap.read().clone(),
            costmap: self.costmap.read().clone(),
        };
        if self.frozen.set(frozen).is_err() {
            panic!("node {} attached twice", self.name);
        }
    }

    fn deliver_am(
        &self,
        rank: usize,
        payload: &[u8],
        ctx: &Arc<RuntimeCtx>,
    ) -> Result<(), WireError> {
        let mut r = ReadBuf::new(payload);
        let from_task = r.get_u64()?;
        let msg_type = r.get_u8()?;
        let terminal = r.get_u16()? as usize;
        let meta = self.checked_meta(terminal)?;
        match msg_type {
            MSG_DATA_INLINE | MSG_DATA_SPLITMD => {
                let src_rank = r.get_u64()? as usize;
                // Stage 2 of splitmd: one-sided fetch of the payload. A
                // region that is gone, or one this process cannot read, is
                // a structured wire error (surfaced as a CommError by the
                // comm thread), not a process abort.
                let fetched = if msg_type == MSG_DATA_SPLITMD {
                    let region = r.get_u64()?;
                    let owner = r.get_u64()? as usize;
                    let fetched = ctx.fabric.rma_fetch(rank, owner, region);
                    Some(fetched.map_err(|e| WireError::new(e.to_string()))?)
                } else {
                    None
                };
                let nkeys = r.get_u32()? as usize;
                let groups_len = r.get_u32()? as usize;
                let mut groups = ReadBuf::new(r.take(groups_len)?);
                let mut bytes = r.remaining();
                let val = match &fetched {
                    Some(data) => {
                        bytes += data.len();
                        (meta.decode_splitmd)(&mut r, data)?
                    }
                    None => (meta.decode)(&mut r)?,
                };
                // Every key records the full wire size, tagged with the
                // shared transfer id: the projection simulates the AM once
                // and lets all piggybacked consumers wait for the same
                // arrival.
                let dep = Dep {
                    from_task,
                    bytes: bytes as u64,
                    src_rank,
                    msg: ctx.alloc_task_id(),
                };
                let mut arrival = Arrival::new(val, nkeys, meta, rank, ctx);
                while groups.remaining() > 0 {
                    let node = groups.get_u32()?;
                    let terminal = groups.get_u16()? as usize;
                    let n = groups.get_u32()? as usize;
                    let node = ctx
                        .node(node)
                        .ok_or_else(|| WireError::new(format!("no template task {node}")))?;
                    node.deliver_group(rank, terminal, n, &mut groups, &mut arrival, dep, ctx)?;
                }
            }
            MSG_SET_SIZE => {
                let k = K::decode(&mut r)?;
                let n = r.get_u64()? as usize;
                self.set_stream_size(rank, terminal, k, n, ctx)?;
            }
            MSG_FINALIZE => {
                let k = K::decode(&mut r)?;
                self.finalize_stream(rank, terminal, k, ctx)?;
            }
            t => return Err(WireError::new(format!("unknown AM type {}", t))),
        }
        Ok(())
    }

    fn deliver_group(
        &self,
        rank: usize,
        terminal: usize,
        n: usize,
        keys: &mut ReadBuf<'_>,
        arrival: &mut Arrival,
        dep: Dep,
        ctx: &Arc<RuntimeCtx>,
    ) -> Result<(), WireError> {
        let meta = self.checked_meta(terminal)?;
        if meta.value_type != arrival.value_type {
            return Err(WireError::new(format!(
                "terminal {terminal} of {} takes another type than the message's value",
                self.name
            )));
        }
        for _ in 0..n {
            let k = K::decode(keys)?;
            let val = arrival.next(meta, rank, ctx)?;
            self.insert(rank, terminal, k, val, dep, ctx)?;
        }
        Ok(())
    }

    fn node_id(&self) -> u32 {
        self.id
    }

    fn node_name(&self) -> &'static str {
        self.name
    }

    fn tasks_executed(&self) -> u64 {
        self.tables.get().map_or(0, |ts| {
            ts.iter().map(|t| t.executed.load(Ordering::Relaxed)).sum()
        })
    }

    fn pending(&self) -> usize {
        match self.tables.get() {
            None => 0,
            Some(ts) => ts.iter().map(ShardedTable::pending).sum(),
        }
    }

    fn num_inputs(&self) -> usize {
        self.n_inputs
    }

    fn input_edges(&self) -> Vec<EdgeDecl> {
        self.topo.get().map(|(i, _)| i.clone()).unwrap_or_default()
    }

    fn output_edges(&self) -> Vec<EdgeDecl> {
        self.topo.get().map(|(_, o)| o.clone()).unwrap_or_default()
    }

    fn reducer_decls(&self) -> Vec<Option<ReducerDecl>> {
        match self.frozen.get() {
            Some(f) => f
                .reducers
                .iter()
                .map(|r| {
                    r.as_ref().map(|s| ReducerDecl {
                        default_size: s.default_size,
                    })
                })
                .collect(),
            None => self
                .reducers
                .iter()
                .map(|r| {
                    r.read().as_ref().map(|s| ReducerDecl {
                        default_size: s.default_size,
                    })
                })
                .collect(),
        }
    }

    fn probe_keymap(&self, n_ranks: usize) -> Option<KeymapProbe> {
        let samples = self.check_samples.read().clone();
        if samples.is_empty() {
            return None;
        }
        let km = match self.frozen.get() {
            Some(f) => Arc::clone(&f.keymap),
            None => Arc::clone(&self.keymap.read()),
        };
        let mut probe = KeymapProbe::default();
        for k in &samples {
            let r1 = km(k);
            let r2 = km(k);
            if r1 != r2 {
                probe.nondeterministic.push(format!("{k:?}"));
            }
            if r1 >= n_ranks {
                probe.out_of_range.push((format!("{k:?}"), r1));
            }
        }
        Some(probe)
    }

    fn pending_detail(&self) -> Vec<StuckEntry> {
        let Some(tables) = self.tables.get() else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for (rank, table) in tables.iter().enumerate() {
            for shard in &table.shards {
                let shard = shard.lock();
                for (k, e) in shard.iter() {
                    let mut missing = Vec::new();
                    let mut filled = Vec::new();
                    for (t, s) in e.slots.as_slice().iter().enumerate() {
                        if s.is_complete() {
                            filled.push(t);
                        } else {
                            missing.push((t, s.describe()));
                        }
                    }
                    out.push(StuckEntry {
                        node: self.name,
                        rank,
                        key: format!("{k:?}"),
                        missing,
                        filled,
                    });
                }
            }
        }
        out
    }

    fn export_rank(&self, rank: usize, b: &mut WriteBuf) -> Result<(), WireError> {
        let table = &self.tables.get().expect("node not attached")[rank];
        // Entry count first; a cut is taken only while delivery is paused
        // and every worker pool is idle, so the count cannot change between
        // the two passes.
        let total: usize = table.shards.iter().map(|s| s.lock().len()).sum();
        b.put_u64(total as u64);
        for shard in &table.shards {
            let shard = shard.lock();
            for (k, e) in shard.iter() {
                k.encode(b);
                b.put_u32(e.deps.len() as u32);
                for d in &e.deps {
                    b.put_u64(d.from_task);
                    b.put_u64(d.bytes);
                    b.put_u64(d.src_rank as u64);
                    b.put_u64(d.msg);
                }
                let slots = e.slots.as_slice();
                b.put_u16(slots.len() as u16);
                for (t, s) in slots.iter().enumerate() {
                    match s {
                        SlotE::Empty => b.put_u8(0),
                        SlotE::Plain(v) => {
                            b.put_u8(1);
                            (self.metas[t].encode)(v, b)?;
                        }
                        SlotE::Stream {
                            acc,
                            received,
                            expected,
                            finalized,
                        } => {
                            b.put_u8(2);
                            match acc {
                                Some(a) => {
                                    b.put_u8(1);
                                    (self.metas[t].encode_boxed)(a.as_ref(), b)?;
                                }
                                None => b.put_u8(0),
                            }
                            b.put_u64(*received as u64);
                            match expected {
                                Some(n) => {
                                    b.put_u8(1);
                                    b.put_u64(*n as u64);
                                }
                                None => b.put_u8(0),
                            }
                            b.put_u8(*finalized as u8);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn import_rank(&self, rank: usize, r: &mut ReadBuf<'_>) -> Result<(), WireError> {
        self.clear_rank(rank);
        let table = &self.tables.get().expect("node not attached")[rank];
        let total = r.get_u64()?;
        for _ in 0..total {
            let k = K::decode(r)?;
            let ndeps = r.get_u32()? as usize;
            // A dep is 32 bytes: an untrusted count reserves no more than
            // the bytes left could hold.
            let mut deps = Vec::with_capacity(ndeps.min(r.remaining() / 32));
            for _ in 0..ndeps {
                deps.push(Dep {
                    from_task: r.get_u64()?,
                    bytes: r.get_u64()?,
                    src_rank: r.get_u64()? as usize,
                    msg: r.get_u64()?,
                });
            }
            let nslots = r.get_u16()? as usize;
            if nslots > self.n_inputs {
                return Err(WireError::new(format!(
                    "snapshot names {} terminals but {} has {}",
                    nslots, self.name, self.n_inputs
                )));
            }
            let mut entry = PendingE::new(self.n_inputs);
            entry.deps = deps;
            for t in 0..nslots {
                let slot = entry.slots.get_mut(t);
                match r.get_u8()? {
                    0 => {}
                    1 => *slot = SlotE::Plain(ErasedVal::Owned((self.metas[t].decode)(r)?)),
                    2 => {
                        let acc = if r.get_u8()? == 1 {
                            Some((self.metas[t].decode)(r)?)
                        } else {
                            None
                        };
                        let received = r.get_u64()? as usize;
                        let expected = if r.get_u8()? == 1 {
                            Some(r.get_u64()? as usize)
                        } else {
                            None
                        };
                        let finalized = r.get_u8()? == 1;
                        *slot = SlotE::Stream {
                            acc,
                            received,
                            expected,
                            finalized,
                        };
                    }
                    t => return Err(WireError::new(format!("bad slot tag {t} in snapshot"))),
                }
            }
            table.shard(&k).lock().insert(k, entry);
        }
        Ok(())
    }

    fn clear_rank(&self, rank: usize) {
        if let Some(tables) = self.tables.get() {
            for shard in &tables[rank].shards {
                shard.lock().clear();
            }
        }
    }
}

#[cfg(all(test, ttg_model))]
#[path = "node_model.rs"]
mod model;
