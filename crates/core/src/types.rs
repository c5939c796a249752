//! Fundamental type vocabulary of the TTG model: task-ID keys, flowing data,
//! the pure-control type [`Ctl`], and the internal erased value
//! representation used by the transport layer.

use std::any::Any;
use std::fmt;
use std::hash::Hash;
use std::sync::Arc;

use ttg_comm::{ReadBuf, Wire, WireError, WriteBuf};

/// A task identifier ("task ID" in the paper): the control part of every
/// message. `()` yields pure dataflow (a single task instance per template).
pub trait Key: Clone + Eq + Hash + fmt::Debug + Wire + Send + Sync + 'static {}
impl<T: Clone + Eq + Hash + fmt::Debug + Wire + Send + Sync + 'static> Key for T {}

/// A value flowing along an edge: the data part of every message. Use
/// [`Ctl`] for pure control flow.
pub trait Data: Clone + Wire + Send + Sync + 'static {}
impl<T: Clone + Wire + Send + Sync + 'static> Data for T {}

/// Zero-sized "no data" token: a message whose data part is void, giving
/// pure control flow (paper §II).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ctl;

impl Wire for Ctl {
    const KIND: ttg_comm::WireKind = ttg_comm::WireKind::Trivial;
    fn encode(&self, _b: &mut WriteBuf) {}
    fn decode(_r: &mut ReadBuf<'_>) -> Result<Self, WireError> {
        Ok(Ctl)
    }
    fn wire_size(&self) -> usize {
        0
    }
}

/// How a backend passes data between tasks on the same rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalPass {
    /// Share immutable data behind an `Arc`; a private copy is made only if
    /// a mutating consumer coexists with other consumers (PaRSEC-like: the
    /// runtime owns the data and tracks its life-cycle).
    Share,
    /// Deep-copy the value for every consumer (MADNESS-like).
    Copy,
}

/// A value travelling from an output terminal to a consumer port.
///
/// A send to a single port keeps exclusive ownership (`Owned`) so the
/// common case still moves the value end to end. A send that spans consumer
/// ports or output terminals erases the value once into an `Arc` that every
/// port — and through it every rank-local consumer — shares.
pub(crate) enum FanoutVal<V: Data> {
    /// Exclusively owned: the single-consumer-port fast path.
    Owned(V),
    /// Shared across the consumer ports and terminals of one send.
    Shared(Arc<V>),
}

impl<V: Data> FanoutVal<V> {
    /// Borrow the value (for encoding and metadata).
    pub(crate) fn get(&self) -> &V {
        match self {
            FanoutVal::Owned(v) => v,
            FanoutVal::Shared(a) => a,
        }
    }
}

/// Inline storage threshold for [`ErasedVal::erase`].
const SMALL_CAP: usize = 16;

/// A small plain-data value stored inline, bypassing the heap.
///
/// Only constructed through [`ErasedVal::erase`], which guarantees the
/// erased type fits in `bytes`, needs no drop, and is `Send + Sync`
/// (`V: Data`). The value is stored unaligned and recovered with
/// `read_unaligned` after a `TypeId` check.
pub struct SmallVal {
    bytes: [std::mem::MaybeUninit<u8>; SMALL_CAP],
    tid: std::any::TypeId,
}

/// Type-erased value travelling to an input terminal.
pub enum ErasedVal {
    /// Shared immutable handle (may be held by several pending inputs).
    Shared(Arc<dyn Any + Send + Sync>),
    /// Exclusively owned value.
    Owned(Box<dyn Any + Send>),
    /// Small trivially-movable value stored inline (no heap allocation).
    Small(SmallVal),
}

impl ErasedVal {
    /// Erase an owned `v`, storing it inline when it is small and free of
    /// drop glue — the overwhelmingly common case for task-ID-sized payloads
    /// on the matching hot path — and boxing it otherwise.
    pub(crate) fn erase<V: Data>(v: V) -> Self {
        if std::mem::size_of::<V>() <= SMALL_CAP && !std::mem::needs_drop::<V>() {
            let mut bytes = [std::mem::MaybeUninit::<u8>::uninit(); SMALL_CAP];
            // SAFETY: size checked above; the bytes are only re-read as `V`
            // after a `TypeId` match in `take`, and `V` has no drop glue so
            // forgetting the original is a no-op.
            unsafe {
                std::ptr::write_unaligned(bytes.as_mut_ptr() as *mut V, v);
            }
            ErasedVal::Small(SmallVal {
                bytes,
                tid: std::any::TypeId::of::<V>(),
            })
        } else {
            ErasedVal::Owned(Box::new(v))
        }
    }

    /// Erase an `Arc`-shared value for multi-consumer fan-out: every
    /// consumer holds the same allocation, and [`ErasedVal::take`] moves it
    /// out (refcount 1) or clones-on-write (still shared).
    pub(crate) fn erase_shared<V: Data>(arc: Arc<V>) -> Self {
        ErasedVal::Shared(arc as Arc<dyn Any + Send + Sync>)
    }

    /// Whether this value is held through a shared (`Arc`) handle.
    pub(crate) fn is_shared(&self) -> bool {
        matches!(self, ErasedVal::Shared(_))
    }

    /// Recover the concrete value, cloning only when the handle is still
    /// shared with other consumers. Returns `None` on a type mismatch
    /// (which indicates graph-construction bug and is asserted upstream).
    pub(crate) fn take<V: Data>(self) -> Option<(V, bool)> {
        match self {
            ErasedVal::Owned(b) => b.downcast::<V>().ok().map(|v| (*v, false)),
            ErasedVal::Shared(arc) => {
                let arc = arc.downcast::<V>().ok()?;
                match Arc::try_unwrap(arc) {
                    Ok(v) => Some((v, false)),
                    Err(arc) => Some(((*arc).clone(), true)),
                }
            }
            ErasedVal::Small(s) => {
                if s.tid == std::any::TypeId::of::<V>() {
                    // SAFETY: TypeId matches the type written in `erase`.
                    let v = unsafe { (s.bytes.as_ptr() as *const V).read_unaligned() };
                    Some((v, false))
                } else {
                    None
                }
            }
        }
    }

    /// Borrow the concrete value without consuming the handle (the
    /// checkpoint encoder walks live matching-table slots in place).
    /// Returns `None` on a type mismatch.
    pub(crate) fn with_ref<V: Data, R>(&self, f: impl FnOnce(&V) -> R) -> Option<R> {
        match self {
            ErasedVal::Owned(b) => b.downcast_ref::<V>().map(f),
            ErasedVal::Shared(arc) => arc.downcast_ref::<V>().map(f),
            ErasedVal::Small(s) => {
                if s.tid == std::any::TypeId::of::<V>() {
                    // SAFETY: TypeId matches the type written in `erase`.
                    // The unaligned copy is wrapped in `ManuallyDrop` so the
                    // value is never dropped twice (`V` has no drop glue
                    // anyway — `erase` only inlines such types).
                    let v = std::mem::ManuallyDrop::new(unsafe {
                        (s.bytes.as_ptr() as *const V).read_unaligned()
                    });
                    Some(f(&v))
                } else {
                    None
                }
            }
        }
    }
}

impl fmt::Debug for ErasedVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ErasedVal::Shared(_) => write!(f, "ErasedVal::Shared(..)"),
            ErasedVal::Owned(_) => write!(f, "ErasedVal::Owned(..)"),
            ErasedVal::Small(_) => write!(f, "ErasedVal::Small(..)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctl_is_zero_bytes() {
        assert_eq!(ttg_comm::to_bytes(&Ctl).len(), 0);
        let c: Ctl = ttg_comm::from_bytes(&[]).unwrap();
        assert_eq!(c, Ctl);
    }

    #[test]
    fn erased_owned_roundtrip() {
        let ev = ErasedVal::Owned(Box::new(41i64));
        let (v, copied) = ev.take::<i64>().unwrap();
        assert_eq!(v, 41);
        assert!(!copied);
    }

    #[test]
    fn erased_shared_unique_moves_without_copy() {
        let ev = ErasedVal::Shared(Arc::new(String::from("x")));
        let (v, copied) = ev.take::<String>().unwrap();
        assert_eq!(v, "x");
        assert!(!copied);
    }

    #[test]
    fn erased_shared_multi_copy_on_take() {
        let arc: Arc<dyn Any + Send + Sync> = Arc::new(7u32);
        let ev1 = ErasedVal::Shared(Arc::clone(&arc));
        let ev2 = ErasedVal::Shared(arc);
        let (v1, copied1) = ev1.take::<u32>().unwrap();
        assert!(copied1); // still shared with ev2
        let (v2, copied2) = ev2.take::<u32>().unwrap();
        assert!(!copied2); // now unique
        assert_eq!((v1, v2), (7, 7));
    }

    #[test]
    fn erased_type_mismatch_is_none() {
        let ev = ErasedVal::Owned(Box::new(1u8));
        assert!(ev.take::<u16>().is_none());
    }

    #[test]
    fn erase_small_roundtrip_inline() {
        let ev = ErasedVal::erase(0xdead_beef_u64);
        assert!(matches!(ev, ErasedVal::Small(_)));
        let (v, copied) = ev.take::<u64>().unwrap();
        assert_eq!(v, 0xdead_beef);
        assert!(!copied);
    }

    #[test]
    fn erase_small_type_mismatch_is_none() {
        let ev = ErasedVal::erase(1u8);
        assert!(ev.take::<u16>().is_none());
    }

    #[test]
    fn erase_large_or_droppy_falls_back_to_owned() {
        let ev = ErasedVal::erase(String::from("heap"));
        assert!(matches!(ev, ErasedVal::Owned(_)));
        let (v, copied) = ev.take::<String>().unwrap();
        assert_eq!(v, "heap");
        assert!(!copied);

        let ev = ErasedVal::erase([0u8; 64]);
        assert!(matches!(ev, ErasedVal::Owned(_)));
        assert!(ev.take::<[u8; 64]>().is_some());
    }
}
