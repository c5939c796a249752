//! Arity-generic plumbing: tuples of input edges, output edges, output
//! terminals, and tuple-index traits.
//!
//! `make_tt` is a single generic function; these macro-generated trait
//! implementations give it input/output arities 1..=6, which covers every
//! template task in the paper's four applications.

use std::any::Any;
use std::sync::Arc;

use ttg_comm::{ReadBuf, WireError, WriteBuf};

use crate::ctx::RuntimeCtx;
use crate::edge::{Edge, OutTerm, PortImpl};
use crate::node::{InputMeta, NodeInner};
use crate::types::{Data, ErasedVal, Key};

/// Build the per-terminal vtable for value type `V`.
pub(crate) fn meta_for<V: Data>() -> InputMeta {
    InputMeta {
        value_type: std::any::TypeId::of::<V>(),
        decode: Arc::new(|r: &mut ReadBuf<'_>| {
            V::decode(r).map(|v| Box::new(v) as Box<dyn Any + Send>)
        }),
        decode_splitmd: Arc::new(|r: &mut ReadBuf<'_>, payload: &[u8]| {
            let mut v = V::split_decode_md(r)?;
            v.split_attach(payload)?;
            Ok::<_, WireError>(Box::new(v) as Box<dyn Any + Send>)
        }),
        clone_boxed: Arc::new(|b: &(dyn Any + Send)| {
            let v = b.downcast_ref::<V>().expect("clone_boxed type mismatch");
            Box::new(v.clone()) as Box<dyn Any + Send>
        }),
        to_shared: Arc::new(|b: Box<dyn Any + Send>| {
            let v = b.downcast::<V>().expect("to_shared type mismatch");
            Arc::new(*v) as Arc<dyn Any + Send + Sync>
        }),
        encode: Arc::new(|ev: &ErasedVal, b: &mut WriteBuf| {
            ev.with_ref::<V, _>(|v| v.encode(b))
                .ok_or_else(|| WireError::new("snapshot: slot value type mismatch"))
        }),
        encode_boxed: Arc::new(|a: &(dyn Any + Send), b: &mut WriteBuf| {
            let v = a.downcast_ref::<V>().ok_or_else(|| {
                WireError::new("snapshot: stream accumulator is not the terminal's wire type")
            })?;
            v.encode(b);
            Ok(())
        }),
    }
}

/// A tuple of input edges `(Edge<K, V0>, ..)` — all sharing the task-ID
/// type `K` of the consuming template task. Implemented for tuples of one
/// to six edges, and sealed: what `make_tt` does with the edges belongs to
/// a supertrait no program can name.
pub trait EdgeList<K: Key>: sealed::InputEdges<K> {}

impl<K: Key, T: sealed::InputEdges<K>> EdgeList<K> for T {}

mod sealed {
    use super::*;

    /// How `make_tt` wires a tuple of input edges and reads a task's
    /// matched inputs. `pub` only for [`EdgeList`] to name it; the module
    /// is private, so no program can.
    pub trait InputEdges<K: Key>: 'static {
        /// Tuple of the input value types `(V0, ..)`.
        type Values: Send + 'static;
        /// Per-terminal vtables.
        fn metas(&self) -> Vec<InputMeta>;
        /// Edge identity of each input terminal (for the static verifier).
        fn decls(&self) -> Vec<crate::inspect::EdgeDecl>;
        /// Register one consumer port per edge on `node`.
        fn connect(&self, node: &Arc<NodeInner<K>>);
        /// Downcast a task's matched inputs, in terminal order, into the
        /// typed tuple, tracking the copy plane: moves out of shared
        /// handles and refcount-bump clones count as avoided deep copies,
        /// deep clones of still-shared values count as copy-on-write clones
        /// (with their byte cost).
        fn extract(
            inputs: impl Iterator<Item = ErasedVal>,
            rank: usize,
            ctx: &RuntimeCtx,
        ) -> Self::Values;
    }
}

macro_rules! impl_edge_list {
    ($($V:ident : $idx:tt),+) => {
        impl<K: Key, $($V: Data),+> sealed::InputEdges<K> for ($(Edge<K, $V>,)+) {
            type Values = ($($V,)+);

            fn metas(&self) -> Vec<InputMeta> {
                vec![$(meta_for::<$V>()),+]
            }

            fn decls(&self) -> Vec<crate::inspect::EdgeDecl> {
                vec![$(self.$idx.decl()),+]
            }

            fn connect(&self, node: &Arc<NodeInner<K>>) {
                $(
                    self.$idx.add_consumer(Arc::new(PortImpl::<K, $V>::new(
                        node.id,
                        $idx as u16,
                    )));
                )+
            }

            fn extract(
                mut inputs: impl Iterator<Item = ErasedVal>,
                rank: usize,
                ctx: &RuntimeCtx,
            ) -> Self::Values {
                ($(
                    {
                        let ev = inputs.next().expect("missing input value");
                        let shared = ev.is_shared();
                        let (v, copied): ($V, bool) =
                            ev.take().expect("input value type mismatch");
                        if shared {
                            if !copied {
                                // Last live holder: moved the original
                                // allocation out of the Arc.
                                ctx.metrics.deep_copies_avoided[rank].inc();
                            } else {
                                let cost = ttg_comm::Wire::clone_cost_bytes(&v);
                                if cost == 0 {
                                    // Refcount-bump clone (e.g. Arc<T>
                                    // payloads): shared, but still no deep
                                    // copy.
                                    ctx.metrics.deep_copies_avoided[rank].inc();
                                } else {
                                    // Raced live readers: paid a real
                                    // copy-on-write clone.
                                    ctx.fabric.stats().data_copies.inc();
                                    ctx.metrics.count_cow_clone(rank, cost as u64);
                                }
                            }
                        } else if copied {
                            ctx.fabric.stats().data_copies.inc();
                        }
                        v
                    },
                )+)
            }
        }
    };
}

impl_edge_list!(V0: 0);
impl_edge_list!(V0: 0, V1: 1);
impl_edge_list!(V0: 0, V1: 1, V2: 2);
impl_edge_list!(V0: 0, V1: 1, V2: 2, V3: 3);
impl_edge_list!(V0: 0, V1: 1, V2: 2, V3: 3, V4: 4);
impl_edge_list!(V0: 0, V1: 1, V2: 2, V3: 3, V4: 4, V5: 5);

/// A tuple of output edges `(Edge<K0, W0>, ..)` — each with its own key and
/// value type.
pub trait OutEdgeList: 'static {
    /// Tuple of output terminals `(OutTerm<K0, W0>, ..)`.
    type Terms: Send + Sync + 'static;
    /// Wrap the edges into producer-side terminals.
    fn terms(&self) -> Self::Terms;
    /// Edge identity of each output terminal (for the static verifier).
    fn decls(&self) -> Vec<crate::inspect::EdgeDecl>;
}

impl OutEdgeList for () {
    type Terms = ();
    fn terms(&self) -> Self::Terms {}
    fn decls(&self) -> Vec<crate::inspect::EdgeDecl> {
        Vec::new()
    }
}

macro_rules! impl_out_edge_list {
    ($($K:ident, $W:ident : $idx:tt),+) => {
        impl<$($K: Key, $W: Data),+> OutEdgeList for ($(Edge<$K, $W>,)+) {
            type Terms = ($(OutTerm<$K, $W>,)+);
            fn terms(&self) -> Self::Terms {
                ($(OutTerm::new(self.$idx.clone()),)+)
            }
            fn decls(&self) -> Vec<crate::inspect::EdgeDecl> {
                vec![$(self.$idx.decl()),+]
            }
        }
    };
}

impl_out_edge_list!(K0, W0: 0);
impl_out_edge_list!(K0, W0: 0, K1, W1: 1);
impl_out_edge_list!(K0, W0: 0, K1, W1: 1, K2, W2: 2);
impl_out_edge_list!(K0, W0: 0, K1, W1: 1, K2, W2: 2, K3, W3: 3);
impl_out_edge_list!(K0, W0: 0, K1, W1: 1, K2, W2: 2, K3, W3: 3, K4, W4: 4);
impl_out_edge_list!(K0, W0: 0, K1, W1: 1, K2, W2: 2, K3, W3: 3, K4, W4: 4, K5, W5: 5);

/// Index access into a tuple of output terminals: gives `outs.send::<I>()`
/// its key/value types.
pub trait TermAt<const I: usize> {
    /// Task-ID type of terminal `I`.
    type K: Key;
    /// Data type of terminal `I`.
    type V: Data;
    /// The terminal itself.
    fn at(&self) -> &OutTerm<Self::K, Self::V>;
}

macro_rules! impl_term_at {
    // one impl: tuple of (K0,W0)..(Kn,Wn), index $i selecting ($KS, $WS)
    (($($K:ident, $W:ident),+); $i:expr; $KS:ident, $WS:ident; $idx:tt) => {
        impl<$($K: Key, $W: Data),+> TermAt<$i> for ($(OutTerm<$K, $W>,)+) {
            type K = $KS;
            type V = $WS;
            fn at(&self) -> &OutTerm<$KS, $WS> {
                &self.$idx
            }
        }
    };
}

impl_term_at!((K0, W0); 0; K0, W0; 0);

impl_term_at!((K0, W0, K1, W1); 0; K0, W0; 0);
impl_term_at!((K0, W0, K1, W1); 1; K1, W1; 1);

impl_term_at!((K0, W0, K1, W1, K2, W2); 0; K0, W0; 0);
impl_term_at!((K0, W0, K1, W1, K2, W2); 1; K1, W1; 1);
impl_term_at!((K0, W0, K1, W1, K2, W2); 2; K2, W2; 2);

impl_term_at!((K0, W0, K1, W1, K2, W2, K3, W3); 0; K0, W0; 0);
impl_term_at!((K0, W0, K1, W1, K2, W2, K3, W3); 1; K1, W1; 1);
impl_term_at!((K0, W0, K1, W1, K2, W2, K3, W3); 2; K2, W2; 2);
impl_term_at!((K0, W0, K1, W1, K2, W2, K3, W3); 3; K3, W3; 3);

impl_term_at!((K0, W0, K1, W1, K2, W2, K3, W3, K4, W4); 0; K0, W0; 0);
impl_term_at!((K0, W0, K1, W1, K2, W2, K3, W3, K4, W4); 1; K1, W1; 1);
impl_term_at!((K0, W0, K1, W1, K2, W2, K3, W3, K4, W4); 2; K2, W2; 2);
impl_term_at!((K0, W0, K1, W1, K2, W2, K3, W3, K4, W4); 3; K3, W3; 3);
impl_term_at!((K0, W0, K1, W1, K2, W2, K3, W3, K4, W4); 4; K4, W4; 4);

impl_term_at!((K0, W0, K1, W1, K2, W2, K3, W3, K4, W4, K5, W5); 0; K0, W0; 0);
impl_term_at!((K0, W0, K1, W1, K2, W2, K3, W3, K4, W4, K5, W5); 1; K1, W1; 1);
impl_term_at!((K0, W0, K1, W1, K2, W2, K3, W3, K4, W4, K5, W5); 2; K2, W2; 2);
impl_term_at!((K0, W0, K1, W1, K2, W2, K3, W3, K4, W4, K5, W5); 3; K3, W3; 3);
impl_term_at!((K0, W0, K1, W1, K2, W2, K3, W3, K4, W4, K5, W5); 4; K4, W4; 4);
impl_term_at!((K0, W0, K1, W1, K2, W2, K3, W3, K4, W4, K5, W5); 5; K5, W5; 5);

/// Index access into a tuple of value types: gives the typed
/// `set_input_reducer::<I>` and `in_ref::<I>` on task handles.
pub trait ValueAt<const I: usize> {
    /// Value type at index `I`.
    type V: Data;
}

macro_rules! impl_value_at {
    (($($V:ident),+); $i:expr; $VS:ident) => {
        impl<$($V: Data),+> ValueAt<$i> for ($($V,)+) {
            type V = $VS;
        }
    };
}

impl_value_at!((V0); 0; V0);

impl_value_at!((V0, V1); 0; V0);
impl_value_at!((V0, V1); 1; V1);

impl_value_at!((V0, V1, V2); 0; V0);
impl_value_at!((V0, V1, V2); 1; V1);
impl_value_at!((V0, V1, V2); 2; V2);

impl_value_at!((V0, V1, V2, V3); 0; V0);
impl_value_at!((V0, V1, V2, V3); 1; V1);
impl_value_at!((V0, V1, V2, V3); 2; V2);
impl_value_at!((V0, V1, V2, V3); 3; V3);

impl_value_at!((V0, V1, V2, V3, V4); 0; V0);
impl_value_at!((V0, V1, V2, V3, V4); 1; V1);
impl_value_at!((V0, V1, V2, V3, V4); 2; V2);
impl_value_at!((V0, V1, V2, V3, V4); 3; V3);
impl_value_at!((V0, V1, V2, V3, V4); 4; V4);

impl_value_at!((V0, V1, V2, V3, V4, V5); 0; V0);
impl_value_at!((V0, V1, V2, V3, V4, V5); 1; V1);
impl_value_at!((V0, V1, V2, V3, V4, V5); 2; V2);
impl_value_at!((V0, V1, V2, V3, V4, V5); 3; V3);
impl_value_at!((V0, V1, V2, V3, V4, V5); 4; V4);
impl_value_at!((V0, V1, V2, V3, V4, V5); 5; V5);
