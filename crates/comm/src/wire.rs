//! The `Wire` serialization trait and the three transfer protocols of the
//! paper (Section II-C):
//!
//! * **Trivial** — the type is plain-old-data; it is encoded with a straight
//!   field copy (the `memcpy` path of the paper).
//! * **Archive** — generic field-by-field serialization into an in-memory
//!   buffer. This is the analog of the paper's custom high-performance
//!   Boost.Serialization archives: no type versioning, no pointer tracking.
//! * **SplitMd** — the *split-metadata* two-stage protocol: a small metadata
//!   record travels eagerly, while the object's contiguous payload is fetched
//!   by the receiver via (emulated) RMA and attached to a freshly allocated
//!   object. Intrusive: types opt in by implementing the `split_*` hooks.
//!   The sender exposes the payload in place ([`Wire::split_bytes`]); a
//!   shared handle (`Arc<T>`) is registered as the region itself, so the
//!   receiver's attach is the one copy the payload ever takes, as with the
//!   paper's RMA.
//!
//! The protocol actually used for a transfer is chosen per-type by
//! [`Wire::KIND`] and per-backend by whether the backend supports splitmd
//! (the paper's preference order: splitmd, trivial, archive).

use crate::buf::{ReadBuf, WireError, WriteBuf};
use crate::rma::RegionBytes;

/// Which transfer protocol a type prefers (paper §II-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WireKind {
    /// Plain-old-data fast path (`memcpy`-style encoding).
    Trivial,
    /// Generic archive serialization (Boost.Serialization analog).
    Archive,
    /// Two-stage split-metadata protocol with RMA payload transfer.
    SplitMd,
}

/// Serializable message type: every task ID and every data value flowing
/// through a TTG edge must implement `Wire`.
///
/// The default implementations of the `split_*` hooks degrade the SplitMd
/// protocol to whole-object archive transfer, so only types that declare
/// `KIND = WireKind::SplitMd` need to override them.
pub trait Wire: Sized + Send + 'static {
    /// Preferred transfer protocol for this type.
    const KIND: WireKind = WireKind::Archive;

    /// Serialize `self` into `b`.
    fn encode(&self, b: &mut WriteBuf);

    /// Deserialize a value from `r`.
    fn decode(r: &mut ReadBuf<'_>) -> Result<Self, WireError>;

    /// Serialized size in bytes. The default performs a throw-away encode;
    /// hot types should override with an O(1) computation.
    fn wire_size(&self) -> usize {
        let mut b = WriteBuf::new();
        self.encode(&mut b);
        b.len()
    }

    /// Bytes a semantic `clone` of this value must copy — consumed by the
    /// runtime's copy-plane accounting (`cow_clones` / `cloned_bytes`).
    /// Defaults to the serialized size; reference-counted wrappers whose
    /// clone is a refcount bump report `0`.
    fn clone_cost_bytes(&self) -> usize {
        self.wire_size()
    }

    /// Serialize a contiguous slice of values. The default loops per
    /// element; trivial fixed-size types override this with a single bulk
    /// copy, which is what makes `Vec<f64>`-style payloads hit memory
    /// bandwidth instead of per-element call overhead.
    fn encode_slice(xs: &[Self], b: &mut WriteBuf) {
        for x in xs {
            x.encode(b);
        }
    }

    /// Deserialize exactly `n` values (inverse of [`Wire::encode_slice`]).
    /// Callers must validate `n` against the buffer before trusting it with
    /// an allocation; `Vec::<T>::decode` does this.
    fn decode_slice(r: &mut ReadBuf<'_>, n: usize) -> Result<Vec<Self>, WireError> {
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(Self::decode(r)?);
        }
        Ok(v)
    }

    /// Serialized size of a slice in bytes. Trivial fixed-size types reduce
    /// this to a multiplication.
    fn slice_wire_size(xs: &[Self]) -> usize {
        xs.iter().map(|x| x.wire_size()).sum()
    }

    /// SplitMd stage 1 (sender): encode only the metadata needed to allocate
    /// the object on the receiving side.
    fn split_encode_md(&self, b: &mut WriteBuf) {
        self.encode(b);
    }

    /// SplitMd stage 1 (receiver): allocate an object from metadata. The
    /// payload is not yet valid — it is attached in stage 2.
    fn split_decode_md(r: &mut ReadBuf<'_>) -> Result<Self, WireError> {
        Self::decode(r)
    }

    /// SplitMd stage 2 (sender): the contiguous payload to expose via RMA,
    /// borrowed in place — exposing it copies nothing. `None` means there
    /// is no in-place payload: the type has none, or its memory is not its
    /// wire encoding (an `f64` buffer on a big-endian target, see
    /// [`f64s_as_bytes`]). The value then rides inside its AM, encoded like
    /// any other.
    fn split_bytes(&self) -> Option<&[u8]> {
        None
    }

    /// SplitMd stage 2 (sender), overridden by shared handles only: a region
    /// that serves [`split_bytes`](Wire::split_bytes) out of this very
    /// value by holding a clone of the handle. `None` (the default) makes
    /// registration copy the bytes once instead — a value the sender owns
    /// outright may be moved on and mutated after its send.
    fn split_share(&self) -> Option<RegionBytes> {
        None
    }

    /// SplitMd stage 2 (receiver): attach the RMA-fetched payload bytes to a
    /// metadata-allocated object. Bytes that disagree with the metadata are
    /// an error, never a panic: both came from a peer.
    fn split_attach(&mut self, _bytes: &[u8]) -> Result<(), WireError> {
        Ok(())
    }
}

macro_rules! wire_prim {
    ($ty:ty, $put:ident, $get:ident, $size:expr) => {
        impl Wire for $ty {
            const KIND: WireKind = WireKind::Trivial;
            #[inline]
            fn encode(&self, b: &mut WriteBuf) {
                b.$put(*self);
            }
            #[inline]
            fn decode(r: &mut ReadBuf<'_>) -> Result<Self, WireError> {
                r.$get()
            }
            #[inline]
            fn wire_size(&self) -> usize {
                $size
            }
            #[inline]
            fn encode_slice(xs: &[Self], b: &mut WriteBuf) {
                #[cfg(target_endian = "little")]
                {
                    // The wire format is little-endian, so on LE targets the
                    // in-memory representation of a primitive slice is
                    // byte-identical to its encoding: copy it wholesale.
                    let bytes = unsafe {
                        std::slice::from_raw_parts(
                            xs.as_ptr() as *const u8,
                            std::mem::size_of_val(xs),
                        )
                    };
                    b.put_bytes(bytes);
                }
                #[cfg(not(target_endian = "little"))]
                for x in xs {
                    x.encode(b);
                }
            }
            #[inline]
            fn decode_slice(r: &mut ReadBuf<'_>, n: usize) -> Result<Vec<Self>, WireError> {
                let nbytes = n
                    .checked_mul($size)
                    .ok_or_else(|| WireError::new("slice byte length overflows"))?;
                // Bounds-check (and advance) before allocating, so a corrupt
                // count fails instead of reserving an absurd buffer.
                let bytes = r.take(nbytes)?;
                #[cfg(target_endian = "little")]
                {
                    let mut v: Vec<$ty> = Vec::with_capacity(n);
                    // SAFETY: every bit pattern is a valid primitive, `v`
                    // has capacity for `n` elements, and `bytes` holds
                    // exactly `n * size_of::<$ty>()` bytes.
                    unsafe {
                        std::ptr::copy_nonoverlapping(
                            bytes.as_ptr(),
                            v.as_mut_ptr() as *mut u8,
                            nbytes,
                        );
                        v.set_len(n);
                    }
                    Ok(v)
                }
                #[cfg(not(target_endian = "little"))]
                {
                    let mut sub = ReadBuf::new(bytes);
                    let mut v = Vec::with_capacity(n);
                    for _ in 0..n {
                        v.push(<$ty as Wire>::decode(&mut sub)?);
                    }
                    Ok(v)
                }
            }
            #[inline]
            fn slice_wire_size(xs: &[Self]) -> usize {
                xs.len() * $size
            }
        }
    };
}

wire_prim!(u8, put_u8, get_u8, 1);
wire_prim!(u16, put_u16, get_u16, 2);
wire_prim!(u32, put_u32, get_u32, 4);
wire_prim!(u64, put_u64, get_u64, 8);
wire_prim!(i8, put_i8, get_i8, 1);
wire_prim!(i16, put_i16, get_i16, 2);
wire_prim!(i32, put_i32, get_i32, 4);
wire_prim!(i64, put_i64, get_i64, 8);
wire_prim!(f32, put_f32, get_f32, 4);
wire_prim!(f64, put_f64, get_f64, 8);

/// An `f64` buffer's memory as bytes, in place, where that is its wire
/// encoding: little-endian, the same cast as `encode_slice`'s. `None` on a
/// big-endian target. The [`Wire::split_bytes`] of an `f64`-buffer type.
pub fn f64s_as_bytes(data: &[f64]) -> Option<&[u8]> {
    #[cfg(target_endian = "little")]
    {
        // SAFETY: any initialized memory may be read as bytes; the view
        // borrows `data` and covers exactly its `size_of_val` bytes.
        Some(unsafe {
            std::slice::from_raw_parts(data.as_ptr() as *const u8, std::mem::size_of_val(data))
        })
    }
    #[cfg(not(target_endian = "little"))]
    {
        let _ = data;
        None
    }
}

impl Wire for usize {
    const KIND: WireKind = WireKind::Trivial;
    #[inline]
    fn encode(&self, b: &mut WriteBuf) {
        b.put_usize(*self);
    }
    #[inline]
    fn decode(r: &mut ReadBuf<'_>) -> Result<Self, WireError> {
        r.get_usize()
    }
    #[inline]
    fn wire_size(&self) -> usize {
        8
    }
}

impl Wire for bool {
    const KIND: WireKind = WireKind::Trivial;
    #[inline]
    fn encode(&self, b: &mut WriteBuf) {
        b.put_u8(*self as u8);
    }
    #[inline]
    fn decode(r: &mut ReadBuf<'_>) -> Result<Self, WireError> {
        Ok(r.get_u8()? != 0)
    }
    #[inline]
    fn wire_size(&self) -> usize {
        1
    }
}

impl Wire for () {
    const KIND: WireKind = WireKind::Trivial;
    #[inline]
    fn encode(&self, _b: &mut WriteBuf) {}
    #[inline]
    fn decode(_r: &mut ReadBuf<'_>) -> Result<Self, WireError> {
        Ok(())
    }
    #[inline]
    fn wire_size(&self) -> usize {
        0
    }
}

impl Wire for String {
    #[inline]
    fn encode(&self, b: &mut WriteBuf) {
        b.put_len_bytes(self.as_bytes());
    }
    #[inline]
    fn decode(r: &mut ReadBuf<'_>) -> Result<Self, WireError> {
        let bytes = r.get_len_bytes()?;
        String::from_utf8(bytes.to_vec()).map_err(|e| WireError::new(e.to_string()))
    }
    #[inline]
    fn wire_size(&self) -> usize {
        8 + self.len()
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, b: &mut WriteBuf) {
        b.put_usize(self.len());
        T::encode_slice(self, b);
    }
    fn decode(r: &mut ReadBuf<'_>) -> Result<Self, WireError> {
        let n = r.get_usize()?;
        // Guard against a corrupt length causing a huge allocation.
        if n > r.remaining() && std::mem::size_of::<T>() > 0 {
            return Err(WireError::new(format!("vec length {} exceeds buffer", n)));
        }
        T::decode_slice(r, n)
    }
    fn wire_size(&self) -> usize {
        8 + T::slice_wire_size(self)
    }
}

/// `Arc<T>` is wire-transparent: it serializes exactly like `T` (the
/// refcount is a process-local artifact), decodes into a fresh uniquely
/// owned allocation, and keeps `T`'s protocol — including split-metadata.
/// Its distinguishing property is `clone_cost_bytes() == 0`: cloning an
/// `Arc` is a refcount bump, which is what lets applications opt broadcast
/// edges into the zero-copy value plane (`Edge<K, Arc<Tile>>`) without
/// changing the wire format. For the same reason a splitmd region of an
/// `Arc` is the sender's value itself ([`Wire::split_share`]): nobody can
/// mutate it behind the readers' backs.
impl<T: Wire + Sync> Wire for std::sync::Arc<T> {
    const KIND: WireKind = T::KIND;
    #[inline]
    fn encode(&self, b: &mut WriteBuf) {
        T::encode(self, b);
    }
    #[inline]
    fn decode(r: &mut ReadBuf<'_>) -> Result<Self, WireError> {
        Ok(std::sync::Arc::new(T::decode(r)?))
    }
    #[inline]
    fn wire_size(&self) -> usize {
        T::wire_size(self)
    }
    #[inline]
    fn clone_cost_bytes(&self) -> usize {
        0
    }
    fn split_encode_md(&self, b: &mut WriteBuf) {
        T::split_encode_md(self, b);
    }
    fn split_decode_md(r: &mut ReadBuf<'_>) -> Result<Self, WireError> {
        Ok(std::sync::Arc::new(T::split_decode_md(r)?))
    }
    fn split_bytes(&self) -> Option<&[u8]> {
        T::split_bytes(self)
    }
    fn split_share(&self) -> Option<RegionBytes> {
        RegionBytes::shared(self)
    }
    fn split_attach(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        // Stage 2 of splitmd attaches the RMA payload to a freshly decoded
        // value, before anything else can hold it.
        std::sync::Arc::get_mut(self)
            .ok_or_else(|| WireError::new("split_attach on a shared Arc"))?
            .split_attach(bytes)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, b: &mut WriteBuf) {
        match self {
            None => b.put_u8(0),
            Some(x) => {
                b.put_u8(1);
                x.encode(b);
            }
        }
    }
    fn decode(r: &mut ReadBuf<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            t => Err(WireError::new(format!("bad Option tag {}", t))),
        }
    }
}

impl<T: Wire + Copy + Default, const N: usize> Wire for [T; N] {
    fn encode(&self, b: &mut WriteBuf) {
        T::encode_slice(self, b);
    }
    fn decode(r: &mut ReadBuf<'_>) -> Result<Self, WireError> {
        let v = T::decode_slice(r, N)?;
        let mut out = [T::default(); N];
        out.copy_from_slice(&v);
        Ok(out)
    }
    fn wire_size(&self) -> usize {
        T::slice_wire_size(self)
    }
}

macro_rules! wire_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Wire),+> Wire for ($($name,)+) {
            fn encode(&self, b: &mut WriteBuf) {
                $(self.$idx.encode(b);)+
            }
            fn decode(r: &mut ReadBuf<'_>) -> Result<Self, WireError> {
                Ok(($($name::decode(r)?,)+))
            }
        }
    };
}

wire_tuple!(A: 0);
wire_tuple!(A: 0, B: 1);
wire_tuple!(A: 0, B: 1, C: 2);
wire_tuple!(A: 0, B: 1, C: 2, D: 3);
wire_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);
wire_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);

/// Implement [`Wire`] for a plain struct by listing its fields.
///
/// ```
/// use ttg_comm::wire_struct;
/// #[derive(Debug, Clone, PartialEq)]
/// struct P { x: i32, y: f64 }
/// wire_struct!(P { x, y });
/// ```
#[macro_export]
macro_rules! wire_struct {
    ($ty:ident { $($field:ident),* $(,)? }) => {
        impl $crate::Wire for $ty {
            fn encode(&self, b: &mut $crate::WriteBuf) {
                $( $crate::Wire::encode(&self.$field, b); )*
            }
            fn decode(r: &mut $crate::ReadBuf<'_>) -> Result<Self, $crate::WireError> {
                Ok($ty {
                    $( $field: $crate::Wire::decode(r)?, )*
                })
            }
        }
    };
}

/// Decode raw little-endian bytes into an `f64` buffer (the receiving half
/// of [`f64s_as_bytes`]). Trailing bytes past the last whole `f64` are
/// ignored, matching the historical `chunks_exact` behavior.
pub fn bytes_to_f64s(bytes: &[u8]) -> Vec<f64> {
    let n = bytes.len() / 8;
    let mut r = ReadBuf::new(&bytes[..n * 8]);
    f64::decode_slice(&mut r, n).expect("buffer holds exactly n f64s")
}

/// Serialize a value to a standalone byte vector (archive protocol).
pub fn to_bytes<T: Wire>(v: &T) -> Vec<u8> {
    let mut b = WriteBuf::with_capacity(v.wire_size());
    v.encode(&mut b);
    b.into_vec()
}

/// Deserialize a value from a byte slice (archive protocol).
pub fn from_bytes<T: Wire>(bytes: &[u8]) -> Result<T, WireError> {
    let mut r = ReadBuf::new(bytes);
    T::decode(&mut r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Point {
        x: i32,
        y: f64,
        tag: String,
    }
    wire_struct!(Point { x, y, tag });

    #[test]
    fn struct_roundtrip() {
        let p = Point {
            x: -3,
            y: 2.5,
            tag: "hello".into(),
        };
        let bytes = to_bytes(&p);
        let q: Point = from_bytes(&bytes).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn nested_collections_roundtrip() {
        let v: Vec<Option<(u32, String)>> =
            vec![Some((1, "a".into())), None, Some((9, String::new()))];
        let bytes = to_bytes(&v);
        let w: Vec<Option<(u32, String)>> = from_bytes(&bytes).unwrap();
        assert_eq!(v, w);
    }

    #[test]
    fn arrays_and_tuples() {
        let a: [i64; 4] = [1, -2, 3, -4];
        let t = (a, 7u8, 1.5f32);
        let bytes = to_bytes(&t);
        let u: ([i64; 4], u8, f32) = from_bytes(&bytes).unwrap();
        assert_eq!(t, u);
    }

    #[test]
    fn corrupt_vec_length_rejected() {
        let mut b = WriteBuf::new();
        b.put_usize(usize::MAX / 2);
        let bytes = b.into_vec();
        let r: Result<Vec<u64>, _> = from_bytes(&bytes);
        assert!(r.is_err());
    }

    #[test]
    fn f64_bytes_roundtrip() {
        let xs = vec![0.0, -1.5, f64::MAX, f64::MIN_POSITIVE, 42.0];
        let mut b = WriteBuf::new();
        f64::encode_slice(&xs, &mut b);
        assert_eq!(b.len(), xs.len() * 8);
        // The in-place view is the wire encoding, byte for byte.
        #[cfg(target_endian = "little")]
        assert_eq!(f64s_as_bytes(&xs), Some(b.as_slice()));
        assert_eq!(bytes_to_f64s(b.as_slice()), xs);
    }

    #[test]
    fn slice_roundtrip_all_primitives() {
        macro_rules! check {
            ($ty:ty, $vals:expr) => {{
                let xs: Vec<$ty> = $vals;
                let bytes = to_bytes(&xs);
                assert_eq!(bytes.len(), xs.wire_size());
                let ys: Vec<$ty> = from_bytes(&bytes).unwrap();
                assert_eq!(xs, ys);
            }};
        }
        check!(u8, vec![0, 1, 255]);
        check!(u16, vec![0, 0xbeef]);
        check!(u32, vec![u32::MAX, 7]);
        check!(u64, vec![u64::MAX, 0]);
        check!(i8, vec![-128, 127]);
        check!(i16, vec![-1, 1]);
        check!(i32, vec![i32::MIN, i32::MAX]);
        check!(i64, vec![-9, 9]);
        check!(f32, vec![1.5, -0.0, f32::MAX]);
        check!(f64, vec![std::f64::consts::PI, f64::MIN]);
        check!(f64, Vec::new());
    }

    #[test]
    fn decode_slice_underrun_is_error() {
        let xs = vec![1.0f64, 2.0];
        let mut b = WriteBuf::new();
        f64::encode_slice(&xs, &mut b);
        let bytes = b.into_vec();
        let mut r = ReadBuf::new(&bytes);
        assert!(f64::decode_slice(&mut r, 3).is_err());
        // Cursor untouched on failure: a whole-slice read still works.
        assert_eq!(f64::decode_slice(&mut r, 2).unwrap(), xs);
    }

    #[test]
    fn bulk_and_per_element_encodings_agree() {
        let xs = vec![0.25f64, -3.75, 1e300];
        let mut bulk = WriteBuf::new();
        f64::encode_slice(&xs, &mut bulk);
        let mut loop_b = WriteBuf::new();
        for x in &xs {
            x.encode(&mut loop_b);
        }
        assert_eq!(bulk.as_slice(), loop_b.as_slice());
    }

    #[test]
    fn kinds() {
        assert_eq!(<u64 as Wire>::KIND, WireKind::Trivial);
        assert_eq!(<String as Wire>::KIND, WireKind::Archive);
    }

    #[test]
    fn wire_size_matches_encoding() {
        let p = Point {
            x: 1,
            y: 0.0,
            tag: "abcd".into(),
        };
        assert_eq!(p.wire_size(), to_bytes(&p).len());
        assert_eq!(7u64.wire_size(), 8);
        assert_eq!(().wire_size(), 0);
    }
}
