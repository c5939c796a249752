//! Type-erased template-task internals.
//!
//! A template task ("TT") matches incoming messages by task ID across all of
//! its input terminals; when every terminal has a complete input for some ID
//! a task instance is created and scheduled (paper §II). The public, fully
//! typed API lives in `graph`/`outs`; this module implements the matching
//! tables, streaming-terminal reduction, task launch, and the delivery of
//! active messages (whose wire format is [`crate::am`]'s).

use std::any::{Any, TypeId};
use std::collections::hash_map::{Entry, HashMap};
use std::hash::{BuildHasher, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::RwLock;
use ttg_comm::{ReadBuf, WireError, WriteBuf};
use ttg_telemetry::Padded;

use crate::am::{MSG_DATA_INLINE, MSG_DATA_SPLITMD, MSG_FINALIZE, MSG_SET_SIZE};
use crate::ctx::RuntimeCtx;
use crate::inspect::{EdgeDecl, KeymapProbe, MutationError, ReducerDecl, StuckEntry};
use crate::trace::{Dep, TaskEvent};
use crate::types::{ErasedVal, Key, LocalPass};

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

/// Outcome of a matching-table call made on behalf of a task body (or a
/// seed) of this process: see [`misuse`].
pub(crate) fn or_panic(r: Result<(), WireError>) {
    if let Err(e) = r {
        panic!("{}", e.msg);
    }
}

/// Type-erased reduction operator for a streaming terminal.
pub type ErasedReduce = Arc<dyn Fn(&mut Box<dyn Any + Send>, ErasedVal) + Send + Sync>;

/// Type-erased conversion of the first stream message into the accumulator.
pub type ErasedInit = Arc<dyn Fn(ErasedVal) -> Box<dyn Any + Send> + Send + Sync>;

/// Reducer installed on an input terminal (paper §II-B streaming terminals).
#[derive(Clone)]
pub struct ReducerSpec {
    /// Converts the first message into the accumulator.
    pub init: ErasedInit,
    /// Folds one more message into the accumulator.
    pub op: ErasedReduce,
    /// Default expected stream length (None = unbounded, requires
    /// finalize or a per-key size).
    pub default_size: Option<usize>,
}

/// Fixed (construction-time) per-terminal vtable.
pub struct InputMeta {
    /// The terminal's value type: a data AM's value, decoded once, may only
    /// be handed to terminals of it.
    pub value_type: TypeId,
    /// Decode an inline value from an AM.
    pub decode:
        Arc<dyn Fn(&mut ReadBuf<'_>) -> Result<Box<dyn Any + Send>, WireError> + Send + Sync>,
    /// Decode a split-metadata value: metadata cursor + RMA payload bytes.
    pub decode_splitmd: Arc<
        dyn Fn(&mut ReadBuf<'_>, &[u8]) -> Result<Box<dyn Any + Send>, WireError> + Send + Sync,
    >,
    /// Clone an erased boxed value (for multi-key deliveries in `Copy`
    /// local-pass mode).
    pub clone_boxed: Arc<dyn Fn(&(dyn Any + Send)) -> Box<dyn Any + Send> + Send + Sync>,
    /// Promote an erased boxed value into a shared handle (for multi-key
    /// deliveries in `Share` local-pass mode: piggybacked consumers alias
    /// one allocation instead of each receiving a deep copy).
    pub to_shared: Arc<dyn Fn(Box<dyn Any + Send>) -> Arc<dyn Any + Send + Sync> + Send + Sync>,
    /// Re-encode a live slot value in place (checkpoint export). Fails on a
    /// type mismatch, which aborts the snapshot attempt gracefully.
    pub encode: Arc<dyn Fn(&ErasedVal, &mut WriteBuf) -> Result<(), WireError> + Send + Sync>,
    /// Re-encode a stream accumulator (checkpoint export). Fails when the
    /// accumulator type differs from the terminal's wire type — such
    /// terminals make the owning rank unsnapshottable, not broken.
    pub encode_boxed:
        Arc<dyn Fn(&(dyn Any + Send), &mut WriteBuf) -> Result<(), WireError> + Send + Sync>,
}

/// State of one input terminal for one pending task ID.
pub enum SlotE {
    /// No message yet.
    Empty,
    /// Single-message terminal, satisfied.
    Plain(ErasedVal),
    /// Streaming terminal accumulating messages.
    Stream {
        /// Reduction accumulator (None until the first message).
        acc: Option<Box<dyn Any + Send>>,
        /// Messages folded so far.
        received: usize,
        /// Expected stream length (terminal default or per-key override).
        expected: Option<usize>,
        /// Explicitly finalized via `finalize`.
        finalized: bool,
    },
}

impl SlotE {
    fn is_complete(&self) -> bool {
        match self {
            SlotE::Empty => false,
            SlotE::Plain(_) => true,
            SlotE::Stream {
                received,
                expected,
                finalized,
                ..
            } => *finalized || expected.is_some_and(|e| *received >= e),
        }
    }

    /// Human-readable state, for stuck-key deadlock reports.
    fn describe(&self) -> String {
        match self {
            SlotE::Empty => "empty (no message received)".into(),
            SlotE::Plain(_) => "filled".into(),
            SlotE::Stream {
                received,
                expected,
                finalized,
                ..
            } => match expected {
                Some(e) => format!(
                    "stream received {received} of {e}{}",
                    if *finalized { ", finalized" } else { "" }
                ),
                None => format!("unbounded stream received {received}, not finalized"),
            },
        }
    }
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

/// Terminals a pending entry keeps inline in the map entry. Covers every
/// template of the paper's four applications (GEMM and `FW_D` take 3): no
/// heap allocation per pending key, and the slot write lands on the entry's
/// already-hot cachelines instead of chasing a `Vec` pointer.
const INLINE_SLOTS: usize = 4;

/// Terminal slots of one pending entry: inline up to [`INLINE_SLOTS`]
/// inputs, spilled to a `Vec` beyond.
enum Slots {
    Inline { arr: [SlotE; INLINE_SLOTS], n: u8 },
    Spill(Vec<SlotE>),
}

impl Slots {
    fn new(n: usize) -> Self {
        if n <= INLINE_SLOTS {
            Slots::Inline {
                arr: std::array::from_fn(|_| SlotE::Empty),
                n: n as u8,
            }
        } else {
            Slots::Spill((0..n).map(|_| SlotE::Empty).collect())
        }
    }

    fn get_mut(&mut self, i: usize) -> &mut SlotE {
        match self {
            Slots::Inline { arr, n } => {
                debug_assert!(i < *n as usize, "terminal {i} out of range");
                &mut arr[i]
            }
            Slots::Spill(v) => &mut v[i],
        }
    }

    fn as_slice(&self) -> &[SlotE] {
        match self {
            Slots::Inline { arr, n } => &arr[..*n as usize],
            Slots::Spill(v) => v,
        }
    }
}

enum SlotsIter {
    Inline(std::iter::Take<std::array::IntoIter<SlotE, INLINE_SLOTS>>),
    Spill(std::vec::IntoIter<SlotE>),
}

/// The matched inputs of one task, in terminal order: the slots of its
/// completed entry, moved into the job as they are. The task body's
/// prologue pulls its erased values out of them one by one.
pub struct Inputs(SlotsIter);

impl Iterator for Inputs {
    type Item = ErasedVal;
    fn next(&mut self) -> Option<ErasedVal> {
        let slot = match &mut self.0 {
            SlotsIter::Inline(it) => it.next(),
            SlotsIter::Spill(it) => it.next(),
        }?;
        Some(match slot {
            SlotE::Plain(v) => v,
            SlotE::Stream { acc: Some(a), .. } => ErasedVal::Owned(a),
            SlotE::Stream { acc: None, .. } => unreachable!("checked at launch"),
            SlotE::Empty => unreachable!("incomplete slot at launch"),
        })
    }
}

impl From<Slots> for Inputs {
    fn from(slots: Slots) -> Self {
        Inputs(match slots {
            Slots::Inline { arr, n } => SlotsIter::Inline(arr.into_iter().take(n as usize)),
            Slots::Spill(v) => SlotsIter::Spill(v.into_iter()),
        })
    }
}

/// Matching-table entry: all terminal states plus trace provenance.
pub struct PendingE {
    slots: Slots,
    deps: Vec<Dep>,
}

impl PendingE {
    fn new(n: usize) -> Self {
        PendingE {
            slots: Slots::new(n),
            deps: Vec::new(),
        }
    }
    fn all_complete(&self) -> bool {
        self.slots.as_slice().iter().all(|s| s.is_complete())
    }
}

/// FxHash-style multiply-xor hasher for the matching table. Task keys are
/// runtime-generated, never attacker-controlled, so SipHash's hash-flooding
/// resistance buys nothing on this path while costing an order of magnitude
/// more per key than one rotate-xor-multiply round.
#[derive(Clone, Copy, Default)]
struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x517c_c1b7_2722_0a95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add(u64::from_le_bytes(buf));
        }
    }
    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }
    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }
    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }
    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }
    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add(i as u64);
        self.add((i >> 64) as u64);
    }
    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

#[derive(Clone, Copy, Default)]
struct FxBuildHasher;

impl BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;
    #[inline]
    fn build_hasher(&self) -> FxHasher {
        FxHasher::default()
    }
}

/// Lock-striped matching table of one rank.
///
/// Every message insert and AM delivery for a rank used to serialize behind
/// a single `Mutex<HashMap>`; striping the key space over `2 × workers`
/// shards (rounded up to a power of two) lets concurrent workers insert
/// disjoint keys without contending. A key always hashes to the same shard,
/// so per-key matching, streaming and completion semantics are untouched.
///
/// The table also counts the rank's executed tasks. The tables of a node's
/// ranks are made one after the other: their structs sit in one `Vec` and
/// their stripes in consecutive allocations. The count moves per task and
/// a stripe's lock is taken per insert, so neither may share a line with
/// another rank's: the count is [`Padded`], and the stripes are followed by
/// a line of spare capacity.
struct ShardedTable<K: Key> {
    /// `mask + 1` stripes, then [`ShardedTable::SPARE`] stripes' worth of
    /// capacity that nothing writes. Never shrink it or rebuild it with a
    /// `collect`: `a_tables_stripes_are_followed_by_a_spare_line` checks it.
    shards: Vec<Stripe<K>>,
    mask: usize,
    executed: Padded<AtomicU64>,
}

type Stripe<K> = ttg_model::sync::Mutex<HashMap<K, PendingE, FxBuildHasher>>;

impl<K: Key> ShardedTable<K> {
    /// A cache line's worth of stripes. Only the end of the stripes needs
    /// one, since the next allocation is the next rank's stripes. Padding
    /// every stripe instead raised `chol_compute`'s peak RSS by 8–12 %, and
    /// guard stripes in place of the spare capacity read two chains at
    /// 1.33–1.36× per link of one against 1.20–1.21× (30 alternating runs
    /// each way on a 2-core host).
    const SPARE: usize = 64usize.div_ceil(std::mem::size_of::<Stripe<K>>());

    fn new(n_shards: usize) -> Self {
        let n = n_shards.max(1).next_power_of_two();
        let mut shards = Vec::with_capacity(n + Self::SPARE);
        shards.extend((0..n).map(|_| Stripe::new(HashMap::with_hasher(FxBuildHasher))));
        ShardedTable {
            shards,
            mask: n - 1,
            executed: Padded::new(AtomicU64::new(0)),
        }
    }

    fn shard(&self, k: &K) -> &Stripe<K> {
        // Pick the shard from the *high* half of the hash: the map inside the
        // shard buckets on the low bits of the same hash function, so using
        // disjoint bits avoids correlated bucket skew within a shard.
        let h = FxBuildHasher.hash_one(k);
        &self.shards[((h >> 32) as usize) & self.mask]
    }

    fn pending(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// A match: under `k`'s stripe lock, `fill` the key's entry (a fresh
    /// one of `n_inputs` slots if it has none) and take the entry out if
    /// that completed it. The lookup and the claim are one critical
    /// section, so of the arrivals that complete a key exactly one takes
    /// it. A refusal leaves the table as it was and returns the key.
    #[inline]
    fn arrive<E>(
        &self,
        k: K,
        n_inputs: usize,
        fill: impl FnOnce(&mut PendingE) -> Result<(), E>,
    ) -> Result<Option<(K, PendingE)>, (E, K)> {
        match self.shard(&k).lock().entry(k) {
            Entry::Occupied(mut e) => match fill(e.get_mut()) {
                Err(m) => Err((m, e.key().clone())),
                Ok(()) => Ok(e.get().all_complete().then(|| e.remove_entry())),
            },
            Entry::Vacant(v) => {
                let mut entry = PendingE::new(n_inputs);
                match fill(&mut entry) {
                    Err(m) => Err((m, v.into_key())),
                    Ok(()) if entry.all_complete() => Ok(Some((v.into_key(), entry))),
                    Ok(()) => {
                        v.insert(entry);
                        Ok(None)
                    }
                }
            }
        }
    }
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
    pub id: u32,
    /// Node name (for traces and debugging).
    pub name: &'static str,
    /// Number of input terminals.
    pub n_inputs: usize,
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
    pub fn new(
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
    pub fn set_invoke(&self, f: InvokeFn<K>) {
        if self.invoke.set(f).is_err() {
            panic!("invoke already set for node {}", self.name);
        }
    }

    /// Record the edge identities of the input and output terminals (done
    /// once by `make_tt`; consumed by the static verifier).
    pub fn set_topology(&self, inputs: Vec<EdgeDecl>, outputs: Vec<EdgeDecl>) {
        if self.topo.set((inputs, outputs)).is_err() {
            panic!("topology already set for node {}", self.name);
        }
    }

    /// Register sample keys for static keymap probing (`ttg-check`
    /// diagnostics TTG004/TTG005). Cheap to call unconditionally: the keys
    /// are only evaluated when a verifier runs.
    pub fn set_check_samples(&self, keys: Vec<K>) {
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
    pub fn set_reducer(&self, t: usize, spec: ReducerSpec) -> Result<(), MutationError> {
        self.guard_mutation("set_reducer")?;
        *self.reducers[t].write() = Some(spec);
        Ok(())
    }

    /// Replace the keymap. Fails with `TTG010` after executor attach.
    pub fn set_keymap(&self, f: KeyMapFn<K>) -> Result<(), MutationError> {
        self.guard_mutation("set_keymap")?;
        *self.keymap.write() = f;
        Ok(())
    }

    /// Install a priority map. Fails with `TTG010` after executor attach.
    pub fn set_priomap(&self, f: PrioMapFn<K>) -> Result<(), MutationError> {
        self.guard_mutation("set_priority_map")?;
        *self.priomap.write() = Some(f);
        Ok(())
    }

    /// Install a cost model for trace-based projection. Fails with `TTG010`
    /// after executor attach.
    pub fn set_costmap(&self, f: CostMapFn<K>) -> Result<(), MutationError> {
        self.guard_mutation("set_cost_model")?;
        *self.costmap.write() = Some(f);
        Ok(())
    }

    /// Rank owning task `k` (bounded by the fabric size).
    pub fn owner(&self, k: &K, n_ranks: usize) -> usize {
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
    pub fn insert(
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

    /// Set the expected stream length for `(k, terminal)`; may complete the
    /// task if the stream already received that many messages.
    pub fn set_stream_size(
        &self,
        rank: usize,
        terminal: usize,
        k: K,
        n: usize,
        ctx: &Arc<RuntimeCtx>,
    ) -> Result<(), WireError> {
        let ready = {
            let mut table = self.table(rank, &k).lock();
            let entry = table
                .entry(k.clone())
                .or_insert_with(|| PendingE::new(self.n_inputs));
            let slot = entry.slots.get_mut(terminal);
            match slot {
                SlotE::Empty => {
                    *slot = SlotE::Stream {
                        acc: None,
                        received: 0,
                        expected: Some(n),
                        finalized: false,
                    };
                }
                SlotE::Stream {
                    received, expected, ..
                } => {
                    if *received > n {
                        misuse!(
                            ctx,
                            Violation::SizeBelowReceived {
                                node: self.name,
                                terminal,
                                key: format!("{k:?}"),
                                size: n,
                                received: *received,
                            },
                            "stream size {} below already-received {} on {} {:?}",
                            n,
                            received,
                            self.name,
                            k
                        );
                    }
                    *expected = Some(n);
                }
                SlotE::Plain(_) => misuse!(
                    ctx,
                    Violation::SetSizeOnPlain {
                        node: self.name,
                        terminal,
                        key: format!("{k:?}"),
                    },
                    "set_stream_size on non-streaming terminal of {}",
                    self.name
                ),
            }
            if entry.all_complete() {
                Some(table.remove(&k).unwrap())
            } else {
                None
            }
        };
        match ready {
            Some(entry) => self.launch(rank, k, entry, ctx),
            None => Ok(()),
        }
    }

    /// Close an unbounded stream for `(k, terminal)` now.
    pub fn finalize_stream(
        &self,
        rank: usize,
        terminal: usize,
        k: K,
        ctx: &Arc<RuntimeCtx>,
    ) -> Result<(), WireError> {
        let ready = {
            let mut table = self.table(rank, &k).lock();
            let Some(entry) = table.get_mut(&k) else {
                misuse!(
                    ctx,
                    Violation::FinalizeUnknownKey {
                        node: self.name,
                        terminal,
                        key: format!("{k:?}"),
                    },
                    "finalize on {} for unknown key {:?} (no messages received)",
                    self.name,
                    k
                )
            };
            match entry.slots.get_mut(terminal) {
                SlotE::Stream { finalized, .. } => {
                    #[cfg(feature = "checked")]
                    if *finalized {
                        ctx.sanitizer.record(Violation::DoubleFinalize {
                            node: self.name,
                            terminal,
                            key: format!("{k:?}"),
                        });
                        return Ok(());
                    }
                    *finalized = true;
                }
                _ => misuse!(
                    ctx,
                    Violation::FinalizeNonStream {
                        node: self.name,
                        terminal,
                        key: format!("{k:?}"),
                    },
                    "finalize on non-streaming terminal of {}",
                    self.name
                ),
            }
            if entry.all_complete() {
                Some(table.remove(&k).unwrap())
            } else {
                None
            }
        };
        match ready {
            Some(entry) => self.launch(rank, k, entry, ctx),
            None => Ok(()),
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
            // The clock is read only for a trace to consume.
            let t0 = ctx.trace.as_ref().map(|_| Instant::now());
            {
                #[cfg(feature = "telemetry")]
                let _span =
                    ttg_telemetry::span_for_rank(rank, "task", node.name).arg("task", task_id);
                invoke(&k, inputs, task_id, rank, ctx);
            }
            let measured_ns = t0.map(|t| t.elapsed().as_nanos() as u64);
            node.tables.get().expect("node not attached")[rank]
                .executed
                .fetch_add(1, Ordering::Relaxed);
            if let (Some(tr), Some(measured_ns)) = (&ctx.trace, measured_ns) {
                let costmap = node.frozen.get().and_then(|f| f.costmap.as_ref());
                tr.record(TaskEvent {
                    id: task_id,
                    node: id,
                    name: node.name,
                    rank,
                    cost_ns: costmap.map_or(measured_ns, |f| f(&k)),
                    priority: prio,
                    deps,
                });
            }
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
        let mut probe = KeymapProbe {
            samples: samples.len(),
            ..KeymapProbe::default()
        };
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
                        node_id: self.id,
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

/// The one decoded value of a data AM on its way to every consumer the
/// AM's groups name.
pub struct Arrival {
    val: ArrivalVal,
    value_type: TypeId,
}

enum ArrivalVal {
    /// Share local-pass and several consumers: they alias one allocation
    /// instead of each getting a deep copy.
    Shared(Arc<dyn Any + Send + Sync>),
    /// One consumer, or Copy local-pass: a clone for each of the `left`
    /// consumers but the last, which takes the value itself.
    Owned(Option<Box<dyn Any + Send>>, usize),
}

impl Arrival {
    fn new(
        val: Box<dyn Any + Send>,
        consumers: usize,
        meta: &InputMeta,
        rank: usize,
        ctx: &RuntimeCtx,
    ) -> Self {
        let val = if consumers > 1 && ctx.backend.local_pass == LocalPass::Share {
            ctx.metrics.values_shared[rank].inc();
            ArrivalVal::Shared((meta.to_shared)(val))
        } else {
            ArrivalVal::Owned(Some(val), consumers)
        };
        Arrival {
            val,
            value_type: meta.value_type,
        }
    }

    /// The value for the next consumer, a terminal described by `meta`.
    fn next(
        &mut self,
        meta: &InputMeta,
        rank: usize,
        ctx: &RuntimeCtx,
    ) -> Result<ErasedVal, WireError> {
        match &mut self.val {
            ArrivalVal::Shared(arc) => {
                ctx.metrics.local_shared[rank].inc();
                Ok(ErasedVal::Shared(Arc::clone(arc)))
            }
            ArrivalVal::Owned(val, left) => {
                let next = match *left {
                    0 => None,
                    1 => val.take(),
                    _ => val.as_deref().map(|v| (meta.clone_boxed)(v)),
                };
                *left = left.saturating_sub(1);
                next.map(ErasedVal::Owned)
                    .ok_or_else(|| WireError::new("more keys than the message announced"))
            }
        }
    }
}

#[cfg(all(test, ttg_model))]
#[path = "node_model.rs"]
mod model;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_tables_stripes_are_followed_by_a_spare_line() {
        let table = ShardedTable::<u64>::new(3);
        assert_eq!(table.shards.len(), 4);
        let spare = table.shards.capacity() - table.shards.len();
        assert!(spare * std::mem::size_of::<Stripe<u64>>() >= 64);
    }
}
