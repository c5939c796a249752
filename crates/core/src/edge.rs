//! Typed edges, consumer ports, and output terminals.
//!
//! An [`Edge<K, V>`] encodes one possible flow of messages carrying task IDs
//! of type `K` and data of type `V` (paper §II). Producer-side output
//! terminals route values to every consumer port registered on the edge;
//! the port implements destination resolution (keymap) and the local-pass
//! semantics of the active backend, and hands the keys other ranks own to
//! the send's [`AmPlan`], which implements the wire protocols (inline
//! archive, optimized broadcast, split-metadata RMA).

use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use ttg_comm::WriteBuf;

use crate::am::{am_header, AmPlan, MSG_FINALIZE, MSG_SET_SIZE};
use crate::ctx::RuntimeCtx;
use crate::node::{or_panic, NodeInner};
use crate::trace::Dep;
use crate::types::{Data, ErasedVal, FanoutVal, Key, LocalPass};

/// A consumer endpoint of an edge: one input terminal of one template task.
pub(crate) trait ConsumerPort<K: Key, V: Data>: Send + Sync {
    /// Route `v` to the tasks `keys`: those other ranks own join `plan`,
    /// the ones `src_rank` owns receive the value now. The producer-side
    /// terminal decides the ownership mode. A send to a single port arrives
    /// `Owned` and the plan is this port's alone: it is sent here, ahead of
    /// the local delivery the value moves into. A send that spans ports or
    /// terminals arrives `Shared`, and its sender ships the plan once every
    /// one of them has added to it.
    fn route(
        &self,
        keys: &[K],
        v: FanoutVal<V>,
        plan: &mut AmPlan,
        from_task: u64,
        src_rank: usize,
        ctx: &Arc<RuntimeCtx>,
    );
}

/// Process-global edge id allocator: gives every edge a stable identity the
/// static verifier can correlate across input and output terminal lists.
static NEXT_EDGE_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

/// The consumer ports of an edge.
type Ports<K, V> = Vec<Arc<dyn ConsumerPort<K, V>>>;

/// Shared state of an edge: the registered consumer ports.
pub(crate) struct EdgeState<K: Key, V: Data> {
    id: u64,
    name: String,
    /// Ports registered while the graph is built.
    building: Mutex<Ports<K, V>>,
    /// The ports, frozen by the edge's first send: from then on a send
    /// reads them without taking a lock.
    consumers: OnceLock<Ports<K, V>>,
}

/// A strongly typed edge. Cloning shares the underlying state, so the same
/// edge value can be passed as an output of one `make_tt` and an input of
/// another.
pub struct Edge<K: Key, V: Data> {
    state: Arc<EdgeState<K, V>>,
}

impl<K: Key, V: Data> Clone for Edge<K, V> {
    fn clone(&self) -> Self {
        Edge {
            state: Arc::clone(&self.state),
        }
    }
}

impl<K: Key, V: Data> Edge<K, V> {
    /// Create a named edge.
    pub fn new(name: impl Into<String>) -> Self {
        Edge {
            state: Arc::new(EdgeState {
                id: NEXT_EDGE_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
                name: name.into(),
                building: Mutex::new(Vec::new()),
                consumers: OnceLock::new(),
            }),
        }
    }

    /// Edge name (diagnostics).
    #[cfg(feature = "checked")]
    pub(crate) fn name(&self) -> &str {
        &self.state.name
    }

    /// Identity declaration recorded on node terminal lists by `make_tt`.
    pub(crate) fn decl(&self) -> crate::inspect::EdgeDecl {
        crate::inspect::EdgeDecl {
            edge_id: self.state.id,
            name: self.state.name.clone(),
        }
    }

    /// Register a consumer port (done by `make_tt` for each input edge).
    /// Panics once the edge has carried a message: its consumers are
    /// fixed by then.
    pub(crate) fn add_consumer(&self, port: Arc<dyn ConsumerPort<K, V>>) {
        assert!(
            self.state.consumers.get().is_none(),
            "edge {} gained a consumer after its first send",
            self.state.name
        );
        self.state.building.lock().push(port);
    }

    /// The consumer ports, frozen on the first call.
    pub(crate) fn consumers(&self) -> &[Arc<dyn ConsumerPort<K, V>>] {
        self.state
            .consumers
            .get_or_init(|| std::mem::take(&mut *self.state.building.lock()))
    }
}

impl<K: Key, V: Data> Default for Edge<K, V> {
    fn default() -> Self {
        Edge::new("edge")
    }
}

/// The concrete consumer port: routes values into a `NodeInner<K>` input
/// terminal, applying backend data-passing semantics. It names its node by
/// id and finds it in the context's node table, so a send touches no
/// reference count (and the node → edge → port chain holds no cycle).
pub(crate) struct PortImpl<K: Key, V: Data> {
    node: u32,
    terminal: u16,
    _ph: std::marker::PhantomData<fn() -> (K, V)>,
}

impl<K: Key, V: Data> Clone for PortImpl<K, V> {
    fn clone(&self) -> Self {
        PortImpl::new(self.node, self.terminal)
    }
}

impl<K: Key, V: Data> PortImpl<K, V> {
    /// Create a port for input `terminal` of node `node`.
    pub(crate) fn new(node: u32, terminal: u16) -> Self {
        PortImpl {
            node,
            terminal,
            _ph: std::marker::PhantomData,
        }
    }

    fn node<'c>(&self, ctx: &'c RuntimeCtx) -> &'c NodeInner<K> {
        NodeInner::lookup(ctx, self.node)
    }

    /// Deliver to the `n_local` of `keys` that `rank` owns, honoring the
    /// backend's local-pass mode. `v` is consumed; it is cloned only as
    /// required.
    fn deliver_local(
        &self,
        node: &NodeInner<K>,
        rank: usize,
        keys: &[K],
        n_local: usize,
        v: FanoutVal<V>,
        from_task: u64,
        src_rank: usize,
        ctx: &Arc<RuntimeCtx>,
    ) {
        // A mixed broadcast evaluates the keymap a second time here rather
        // than collect its local keys: it is an index computation.
        let n_ranks = ctx.n_ranks();
        let mut local = keys
            .iter()
            .filter(|k| n_local == keys.len() || node.owner(k, n_ranks) == rank);
        let dep = Dep {
            from_task,
            bytes: 0,
            src_rank,
            msg: 0,
        };
        let t = self.terminal as usize;
        match ctx.backend.local_pass {
            LocalPass::Copy => {
                // MADNESS-like: every consumer gets a private deep copy.
                // Even the last key, which could take the original by move,
                // is counted as a copy to model always-copy semantics.
                for k in local {
                    ctx.fabric.stats().data_copies.inc();
                    ctx.metrics.local_copies[rank].inc();
                    or_panic(node.insert(
                        rank,
                        t,
                        k.clone(),
                        ErasedVal::erase(v.get().clone()),
                        dep,
                        ctx,
                    ));
                }
            }
            LocalPass::Share => {
                // PaRSEC-like: the runtime owns the datum; consumers share
                // an Arc and copy-on-write only if they mutate while shared.
                match v {
                    FanoutVal::Owned(v) if n_local == 1 => {
                        let k = local.next().expect("one key is local");
                        ctx.metrics.local_shared[rank].inc();
                        or_panic(node.insert(rank, t, k.clone(), ErasedVal::erase(v), dep, ctx));
                    }
                    v => {
                        // Erase once into a shared handle — or take the one
                        // the send already shares across its ports and
                        // terminals; every consumer gets the same allocation.
                        let arc: Arc<V> = match v {
                            FanoutVal::Owned(v) => {
                                ctx.metrics.values_shared[rank].inc();
                                Arc::new(v)
                            }
                            FanoutVal::Shared(arc) => arc,
                        };
                        for k in local {
                            ctx.metrics.local_shared[rank].inc();
                            or_panic(node.insert(
                                rank,
                                t,
                                k.clone(),
                                ErasedVal::erase_shared(Arc::clone(&arc)),
                                dep,
                                ctx,
                            ));
                        }
                    }
                }
            }
        }
    }
}

impl<K: Key, V: Data> ConsumerPort<K, V> for PortImpl<K, V> {
    fn route(
        &self,
        keys: &[K],
        v: FanoutVal<V>,
        plan: &mut AmPlan,
        from_task: u64,
        src_rank: usize,
        ctx: &Arc<RuntimeCtx>,
    ) {
        let node = self.node(ctx);
        let n_ranks = ctx.n_ranks();
        // Recovery is on: loopback sends must be sequenced on the diagonal
        // link, so they take the wire like any other.
        let wire_local = ctx.fabric.recovering();
        let mut n_local = 0;
        for k in keys {
            let r = node.owner(k, n_ranks);
            if r == src_rank && !wire_local {
                n_local += 1;
            } else {
                plan.add(r, n_ranks, node.id, self.terminal, k);
            }
        }
        if let FanoutVal::Owned(v) = &v {
            plan.send(v, from_task, src_rank, src_rank, ctx);
        }
        if n_local > 0 {
            self.deliver_local(node, src_rank, keys, n_local, v, from_task, src_rank, ctx);
        }
    }
}

// Port operations shared between edge consumer ports (which find their
// node by id) and [`InRef`] handles (which hold it).

pub(crate) fn port_set_stream_size<K: Key>(
    node: &NodeInner<K>,
    terminal: u16,
    k: &K,
    n: usize,
    src_rank: usize,
    ctx: &Arc<RuntimeCtx>,
) {
    let owner = node.owner(k, ctx.n_ranks());
    if owner == src_rank && !ctx.fabric.recovering() {
        or_panic(node.set_stream_size(owner, terminal as usize, k.clone(), n, ctx));
    } else {
        // header(11) + key + size(8).
        let mut b = WriteBuf::pooled(19 + k.wire_size());
        am_header(&mut b, 0, MSG_SET_SIZE, terminal);
        k.encode(&mut b);
        b.put_u64(n as u64);
        if let Err(e) = ctx.fabric.send_am(src_rank, owner, node.id, b.into_vec()) {
            ctx.fabric.record_error(e.into());
        }
    }
}

pub(crate) fn port_finalize<K: Key>(
    node: &NodeInner<K>,
    terminal: u16,
    k: &K,
    src_rank: usize,
    ctx: &Arc<RuntimeCtx>,
) {
    let owner = node.owner(k, ctx.n_ranks());
    if owner == src_rank && !ctx.fabric.recovering() {
        or_panic(node.finalize_stream(owner, terminal as usize, k.clone(), ctx));
    } else {
        // header(11) + key.
        let mut b = WriteBuf::pooled(11 + k.wire_size());
        am_header(&mut b, 0, MSG_FINALIZE, terminal);
        k.encode(&mut b);
        if let Err(e) = ctx.fabric.send_am(src_rank, owner, node.id, b.into_vec()) {
            ctx.fabric.record_error(e.into());
        }
    }
}

pub(crate) fn port_seed<K: Key, V: Data>(
    node: &NodeInner<K>,
    terminal: u16,
    k: K,
    v: V,
    ctx: &Arc<RuntimeCtx>,
) {
    let owner = node.owner(&k, ctx.n_ranks());
    // SPMD seeding: in a multi-process job every process runs the same
    // seed loop, and each keeps only the keys its own rank owns — the
    // other processes seed theirs themselves.
    if !ctx.is_local(owner) {
        return;
    }
    if ctx.fabric.recovering() {
        // Seeds are logical messages too: under recovery they are
        // sequenced on the sentinel's link to the owner, so a rollback
        // (one to the start of the run included) re-arms them.
        let mut plan = AmPlan::new::<V>(ctx);
        plan.add(owner, ctx.n_ranks(), node.id, terminal, &k);
        plan.send(&v, 0, owner, usize::MAX, ctx);
        return;
    }
    or_panic(node.insert(
        owner,
        terminal as usize,
        k,
        ErasedVal::erase(v),
        Dep {
            from_task: 0,
            bytes: 0,
            src_rank: owner,
            msg: 0,
        },
        ctx,
    ));
}

/// Drop repeated keys from a broadcast key list, preserving first-occurrence
/// order. Returns `None` when the list is already duplicate-free — the
/// overwhelmingly common case, which must not allocate: lists as wide as the
/// applications' broadcasts are scanned quadratically (at 32 keys that is
/// 496 compares of a small tuple, cheaper than building a set); only wider
/// ones go through a `HashSet`.
fn dedupe_keys<K: Key>(keys: &[K]) -> Option<Vec<K>> {
    const SCAN_CAP: usize = 32;
    if keys.len() <= SCAN_CAP {
        if !keys.iter().enumerate().any(|(i, k)| keys[..i].contains(k)) {
            return None;
        }
        let mut out: Vec<K> = Vec::with_capacity(keys.len());
        for k in keys {
            if !out.contains(k) {
                out.push(k.clone());
            }
        }
        Some(out)
    } else {
        let mut seen = std::collections::HashSet::with_capacity(keys.len());
        if keys.iter().all(|k| seen.insert(k)) {
            return None;
        }
        seen.clear();
        Some(keys.iter().filter(|k| seen.insert(*k)).cloned().collect())
    }
}

/// Producer-side handle on an edge: the output terminal of a template task.
pub struct OutTerm<K: Key, V: Data> {
    edge: Edge<K, V>,
}

impl<K: Key, V: Data> OutTerm<K, V> {
    /// Wrap an edge as an output terminal.
    pub(crate) fn new(edge: Edge<K, V>) -> Self {
        OutTerm { edge }
    }

    /// Send `v` to the single task `k` on every consumer of the edge.
    pub(crate) fn send_one(
        &self,
        k: K,
        v: V,
        from_task: u64,
        src_rank: usize,
        ctx: &Arc<RuntimeCtx>,
    ) {
        self.broadcast_keys(std::slice::from_ref(&k), v, from_task, src_rank, ctx);
    }

    /// Send `v` to every task in `keys` on every consumer of the edge
    /// (`ttg::broadcast`, Fig. 2b): one AM per destination rank, whatever
    /// the number of keys and consumer ports.
    ///
    /// Repeated keys are deduplicated before routing: a duplicated key must
    /// not double-deliver (exactly-once matching would reject it) or
    /// double-count broadcast bytes. A multi-port broadcast erases the value
    /// once into a shared handle instead of deep-cloning it per port.
    pub(crate) fn broadcast_keys(
        &self,
        keys: &[K],
        v: V,
        from_task: u64,
        src_rank: usize,
        ctx: &Arc<RuntimeCtx>,
    ) {
        let mut plan = AmPlan::new::<V>(ctx);
        self.with_ports(keys, src_rank, ctx, |keys, ports| match ports {
            // Single consumer port: keep exclusive ownership so the value
            // can move end to end.
            [port] => {
                let v = FanoutVal::Owned(v);
                port.route(keys, v, &mut plan, from_task, src_rank, ctx);
            }
            ports => {
                let arc = Arc::new(v);
                ctx.metrics.values_shared[src_rank].inc();
                for port in ports {
                    let v = FanoutVal::Shared(Arc::clone(&arc));
                    port.route(keys, v, &mut plan, from_task, src_rank, ctx);
                }
                plan.send(&*arc, from_task, src_rank, src_rank, ctx);
            }
        });
    }

    /// This terminal's share of a send that spans terminals: every consumer
    /// port routes the shared handle — rank-local consumers all alias the
    /// one allocation, the keys of other ranks join `plan`, which the caller
    /// sends once the last terminal has added to it.
    pub(crate) fn fan(
        &self,
        keys: &[K],
        v: &Arc<V>,
        plan: &mut AmPlan,
        from_task: u64,
        src_rank: usize,
        ctx: &Arc<RuntimeCtx>,
    ) {
        self.with_ports(keys, src_rank, ctx, |keys, ports| {
            for port in ports {
                let v = FanoutVal::Shared(Arc::clone(v));
                port.route(keys, v, plan, from_task, src_rank, ctx);
            }
        });
    }

    /// Run `f` over the deduplicated keys and the edge's consumer ports,
    /// unless there is nothing to send or nowhere to send it.
    fn with_ports(
        &self,
        keys: &[K],
        src_rank: usize,
        ctx: &Arc<RuntimeCtx>,
        f: impl FnOnce(&[K], &[Arc<dyn ConsumerPort<K, V>>]),
    ) {
        if keys.is_empty() {
            return;
        }
        let deduped = dedupe_keys(keys);
        let keys: &[K] = deduped.as_deref().unwrap_or(keys);
        let ports = self.edge.consumers();
        if ports.is_empty() {
            // No consumer terminal: the value has nowhere to go. Count
            // the drop so the sanitizer and telemetry can report it
            // instead of losing the data invisibly (diagnostic TTG031;
            // the static verifier flags the same shape as TTG002).
            ctx.metrics.dropped_sends[src_rank].add(keys.len() as u64);
            #[cfg(feature = "checked")]
            ctx.sanitizer
                .record(crate::inspect::Violation::DroppedSend {
                    edge: self.edge.name().to_string(),
                    keys: keys.len(),
                });
            return;
        }
        f(keys, ports)
    }
}
