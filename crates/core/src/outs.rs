//! Task-body output interface (`ttg::send` / `ttg::broadcast`) and input
//! terminal references for streaming control and seeding.

use std::sync::Arc;

use crate::am::AmPlan;
use crate::ctx::RuntimeCtx;
use crate::node::NodeInner;
use crate::tuples::TermAt;
use crate::types::{Data, Key};

/// The tuple of output terminals handed to a task body.
///
/// `outs.send::<I>(key, value)` sends to output terminal `I`
/// (`ttg::send`), `outs.broadcast::<I>(&keys, value)` sends one value to
/// many task IDs (`ttg::broadcast`, Fig. 2b). The terminal index is checked
/// at compile time against the output edges given to `make_tt`.
pub struct Outs<'a, T> {
    terms: &'a T,
    task_id: u64,
    rank: usize,
    ctx: &'a Arc<RuntimeCtx>,
}

impl<'a, T> Outs<'a, T> {
    pub(crate) fn new(terms: &'a T, task_id: u64, rank: usize, ctx: &'a Arc<RuntimeCtx>) -> Self {
        Outs {
            terms,
            task_id,
            rank,
            ctx,
        }
    }

    /// Send `v` to task `k` on output terminal `I`.
    pub fn send<const I: usize>(&self, k: <T as TermAt<I>>::K, v: <T as TermAt<I>>::V)
    where
        T: TermAt<I>,
    {
        self.terms
            .at()
            .send_one(k, v, self.task_id, self.rank, self.ctx);
    }

    /// Send one copy of `v` to every task in `keys` on output terminal `I`.
    pub fn broadcast<const I: usize>(&self, keys: &[<T as TermAt<I>>::K], v: <T as TermAt<I>>::V)
    where
        T: TermAt<I>,
    {
        self.terms
            .at()
            .broadcast_keys(keys, v, self.task_id, self.rank, self.ctx);
    }

    /// Send one value to task IDs on several output terminals — Listing
    /// 1's `ttg::broadcast<0, 1, 2, 3>(..)`, here with two terminals:
    ///
    /// ```
    /// # use ttg_core::prelude::*;
    /// # let tiles: Edge<u32, f64> = Edge::new("tiles");
    /// # let rows: Edge<u32, f64> = Edge::new("rows");
    /// # let cells: Edge<(u32, u32), f64> = Edge::new("cells");
    /// # let mut g = GraphBuilder::new();
    /// # let src = g.make_tt("src", (tiles,), (rows.clone(), cells.clone()), |_: &u32| 0,
    /// #     |k, (tile,): (f64,), outs| {
    /// outs.fanout(tile)
    ///     .to::<0>(&[*k, *k + 1])
    ///     .to::<1>(&[(*k, 0), (*k, 1)])
    ///     .send();
    /// # });
    /// # g.make_tt("row", (rows,), (), |k: &u32| *k as usize, |_, (_,): (f64,), _| {});
    /// # g.make_tt("cell", (cells,), (), |k: &(u32, u32)| k.1 as usize, |_, (_,): (f64,), _| {});
    /// # let exec = Executor::new(g.build(), ExecConfig::distributed(2, 1, BackendSpec::default()));
    /// # src.in_ref::<0>().seed(exec.ctx(), 0, 1.5);
    /// # assert_eq!(exec.finish().tasks, 5);
    /// ```
    ///
    /// The terminals share the value type and are free to differ in key
    /// type. The value is erased and serialized once: rank-local consumers
    /// of every terminal alias one allocation, and each other rank receives
    /// one AM naming all its consumers — where terminal-by-terminal
    /// `send`/`broadcast` calls ship the value once per terminal.
    pub fn fanout<V: Data>(&self, v: V) -> Fanout<'_, 'a, T, V> {
        self.ctx.metrics.values_shared[self.rank].inc();
        Fanout {
            outs: self,
            v: Arc::new(v),
            plan: AmPlan::new::<V>(self.ctx),
        }
    }

    /// Rank this task is executing on.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Runtime context (advanced use: stream control via [`InRef`]).
    pub fn ctx(&self) -> &Arc<RuntimeCtx> {
        self.ctx
    }
}

/// One value on its way to several output terminals (see
/// [`Outs::fanout`]). Rank-local consumers receive it as their terminal is
/// named; the other ranks' AMs leave with [`send`](Self::send).
#[must_use = "other ranks receive the value only once `.send()` is called"]
pub struct Fanout<'o, 'a, T, V: Data> {
    outs: &'o Outs<'a, T>,
    v: Arc<V>,
    plan: AmPlan,
}

impl<T, V: Data> Fanout<'_, '_, T, V> {
    /// Also send to every task in `keys` on output terminal `I`.
    pub fn to<const I: usize>(mut self, keys: &[<T as TermAt<I>>::K]) -> Self
    where
        T: TermAt<I, V = V>,
    {
        let o = self.outs;
        let term = o.terms.at();
        term.fan(keys, &self.v, &mut self.plan, o.task_id, o.rank, o.ctx);
        self
    }

    /// Ship the value to the other ranks: one AM each.
    pub fn send(mut self) {
        let o = self.outs;
        self.plan.send(&*self.v, o.task_id, o.rank, o.rank, o.ctx);
    }
}

/// A reference to one input terminal of a template task.
///
/// Used to inject seed messages from outside the graph and to control
/// streaming terminals (per-key stream sizes, finalization) from within
/// task bodies — the TTG `tt->in<i>()` idiom.
pub struct InRef<K: Key, V: Data> {
    // Holds the node strongly: an `InRef` is an external handle with no
    // cycle through it, and seeding is not the task path (edge consumer
    // ports name their node by id and find it in the context instead).
    node: Arc<NodeInner<K>>,
    terminal: u16,
    _ph: std::marker::PhantomData<fn() -> V>,
}

impl<K: Key, V: Data> Clone for InRef<K, V> {
    fn clone(&self) -> Self {
        InRef {
            node: Arc::clone(&self.node),
            terminal: self.terminal,
            _ph: std::marker::PhantomData,
        }
    }
}

impl<K: Key, V: Data> InRef<K, V> {
    pub(crate) fn new(node: Arc<NodeInner<K>>, terminal: u16) -> Self {
        InRef {
            node,
            terminal,
            _ph: std::marker::PhantomData,
        }
    }

    /// Inject a seed message from outside the graph (no provenance).
    pub fn seed(&self, ctx: &Arc<RuntimeCtx>, k: K, v: V) {
        crate::edge::port_seed(&self.node, self.terminal, k, v, ctx);
    }

    /// Set the expected stream size for key `k` from within a task.
    pub fn set_size<T>(&self, outs: &Outs<'_, T>, k: &K, n: usize) {
        crate::edge::port_set_stream_size(&self.node, self.terminal, k, n, outs.rank(), outs.ctx());
    }

    /// Set the expected stream size for key `k` from outside the graph.
    /// Delivered through the owner's communication thread.
    pub fn set_size_external(&self, ctx: &Arc<RuntimeCtx>, k: &K, n: usize) {
        crate::edge::port_set_stream_size(&self.node, self.terminal, k, n, usize::MAX, ctx);
    }

    /// Finalize an unbounded stream for key `k` from within a task.
    pub fn finalize<T>(&self, outs: &Outs<'_, T>, k: &K) {
        crate::edge::port_finalize(&self.node, self.terminal, k, outs.rank(), outs.ctx());
    }
}
