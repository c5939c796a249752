//! Graph construction: `make_tt` and template-task handles.

use std::marker::PhantomData;
use std::sync::Arc;

use crate::ctx::RuntimeCtx;
use crate::inspect::MutationError;
use crate::node::{AnyNode, Inputs, NodeInner, ReducerSpec};
use crate::outs::{InRef, Outs};
use crate::tuples::{EdgeList, OutEdgeList, ValueAt};
use crate::types::{ErasedVal, Key};

/// Builder collecting template tasks into a [`Graph`].
#[derive(Default)]
pub struct GraphBuilder {
    nodes: Vec<Arc<dyn AnyNode>>,
}

impl GraphBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a template task from a task body, input edges, output edges,
    /// and a keymap assigning task IDs to ranks (paper §II: "the process on
    /// which a given task will be executed is specified by a user-defined
    /// function mapping task IDs to process ranks").
    ///
    /// The body receives the task ID, the tuple of input values, and the
    /// typed output terminals.
    pub fn make_tt<K, IS, OS, KM, F>(
        &mut self,
        name: &'static str,
        inputs: IS,
        outputs: OS,
        keymap: KM,
        body: F,
    ) -> TtHandle<K, IS::Values, OS::Terms>
    where
        K: Key,
        IS: EdgeList<K>,
        OS: OutEdgeList,
        KM: Fn(&K) -> usize + Send + Sync + 'static,
        F: Fn(&K, IS::Values, &Outs<'_, OS::Terms>) + Send + Sync + 'static,
    {
        let id = self.nodes.len() as u32;
        let node = NodeInner::new(id, name, inputs.metas(), Arc::new(keymap));
        node.set_topology(inputs.decls(), outputs.decls());
        inputs.connect(&node);
        let terms = outputs.terms();
        node.set_invoke(Arc::new(
            move |k: &K, inputs: Inputs, task_id: u64, rank: usize, ctx: &Arc<RuntimeCtx>| {
                let values = IS::extract(inputs, rank, ctx);
                let outs = Outs::new(&terms, task_id, rank, ctx);
                body(k, values, &outs);
            },
        ));
        self.nodes.push(Arc::clone(&node) as Arc<dyn AnyNode>);
        TtHandle {
            node,
            _ph: PhantomData,
        }
    }

    /// Finish construction.
    pub fn build(self) -> Graph {
        Graph {
            nodes: self.nodes.into(),
        }
    }
}

/// An immutable template task graph, ready for execution.
#[derive(Clone)]
pub struct Graph {
    pub(crate) nodes: Arc<[Arc<dyn AnyNode>]>,
}

impl Graph {
    /// Template tasks in the graph.
    pub fn nodes(&self) -> &[Arc<dyn AnyNode>] {
        &self.nodes
    }
}

/// Typed handle on a template task.
///
/// `VS` is the tuple of input value types, `TS` the tuple of output
/// terminals; both are compile-time artifacts of `make_tt`.
pub struct TtHandle<K: Key, VS, TS> {
    node: Arc<NodeInner<K>>,
    _ph: PhantomData<fn() -> (VS, TS)>,
}

impl<K: Key, VS, TS> Clone for TtHandle<K, VS, TS> {
    fn clone(&self) -> Self {
        TtHandle {
            node: Arc::clone(&self.node),
            _ph: PhantomData,
        }
    }
}

impl<K: Key, VS: 'static, TS> TtHandle<K, VS, TS> {
    /// Node id within the graph.
    pub fn node_id(&self) -> u32 {
        self.node.id
    }

    /// Install a streaming reducer on input terminal `I` (paper §II-B).
    ///
    /// Each task will receive, on that terminal, the fold of `op` over the
    /// message stream for its task ID. `size` fixes the expected stream
    /// length for every key; `None` makes streams unbounded — close them
    /// with [`InRef::set_size`]/[`InRef::finalize`].
    ///
    /// Fails with [`MutationError`] (diagnostic `TTG010`) once an executor
    /// has attached the graph: node maps are frozen at attach.
    pub fn set_input_reducer<const I: usize>(
        &self,
        op: impl Fn(&mut <VS as ValueAt<I>>::V, <VS as ValueAt<I>>::V) + Send + Sync + 'static,
        size: Option<usize>,
    ) -> Result<(), MutationError>
    where
        VS: ValueAt<I>,
    {
        type V<VS, const I: usize> = <VS as ValueAt<I>>::V;
        let init = Arc::new(|ev: ErasedVal| {
            let (v, _copied) = ev.take::<V<VS, I>>().expect("reducer init type mismatch");
            Box::new(v) as Box<dyn std::any::Any + Send>
        });
        let fold = Arc::new(
            move |acc: &mut Box<dyn std::any::Any + Send>, ev: ErasedVal| {
                let a = acc
                    .downcast_mut::<V<VS, I>>()
                    .expect("reducer acc type mismatch");
                let (v, _copied) = ev.take::<V<VS, I>>().expect("reducer type mismatch");
                op(a, v);
            },
        );
        self.node.set_reducer(
            I,
            ReducerSpec {
                init,
                op: fold,
                default_size: size,
            },
        )
    }

    /// Reference to input terminal `I`, for seeding and stream control.
    pub fn in_ref<const I: usize>(&self) -> InRef<K, <VS as ValueAt<I>>::V>
    where
        VS: ValueAt<I>,
    {
        InRef::new(Arc::clone(&self.node), I as u16)
    }

    /// Replace the keymap. Fails with `TTG010` after executor attach.
    pub fn set_keymap(
        &self,
        f: impl Fn(&K) -> usize + Send + Sync + 'static,
    ) -> Result<(), MutationError> {
        self.node.set_keymap(Arc::new(f))
    }

    /// Install a priority map: larger values are scheduled earlier on
    /// backends that honor priorities (paper §II, new feature).
    /// Fails with `TTG010` after executor attach.
    pub fn set_priority_map(
        &self,
        f: impl Fn(&K) -> i32 + Send + Sync + 'static,
    ) -> Result<(), MutationError> {
        self.node.set_priomap(Arc::new(f))
    }

    /// Install a cost model (ns per task) used by trace-based projection
    /// instead of measured durations. Fails with `TTG010` after executor
    /// attach.
    pub fn set_cost_model(
        &self,
        f: impl Fn(&K) -> u64 + Send + Sync + 'static,
    ) -> Result<(), MutationError> {
        self.node.set_costmap(Arc::new(f))
    }

    /// Register sample keys for the static verifier's keymap probing
    /// (diagnostics TTG004/TTG005). The keys are stored but only evaluated
    /// when a verifier runs, so this is cheap to call unconditionally.
    pub fn set_check_samples(&self, keys: Vec<K>) {
        self.node.set_check_samples(keys);
    }
}
