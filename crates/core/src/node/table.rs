//! The matching table of one rank of a template task: per pending task
//! ID, the state of every input terminal ([`SlotE`], kept inline in the
//! entry up to [`INLINE_SLOTS`] terminals), striped over locks by an
//! FxHash of the key.

use std::any::Any;
use std::collections::hash_map::{Entry, HashMap};
use std::hash::{BuildHasher, Hasher};
use std::sync::atomic::AtomicU64;

use ttg_telemetry::Padded;

use crate::trace::Dep;
use crate::types::{ErasedVal, Key};

/// State of one input terminal for one pending task ID.
pub(crate) enum SlotE {
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
    pub(super) fn is_complete(&self) -> bool {
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
    pub(super) fn describe(&self) -> String {
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

/// Terminals a pending entry keeps inline in the map entry. Covers every
/// template of the paper's four applications (GEMM and `FW_D` take 3): no
/// heap allocation per pending key, and the slot write lands on the entry's
/// already-hot cachelines instead of chasing a `Vec` pointer.
const INLINE_SLOTS: usize = 4;

/// Terminal slots of one pending entry: inline up to [`INLINE_SLOTS`]
/// inputs, spilled to a `Vec` beyond.
pub(super) enum Slots {
    Inline { arr: [SlotE; INLINE_SLOTS], n: u8 },
    Spill(Vec<SlotE>),
}

impl Slots {
    pub(super) fn new(n: usize) -> Self {
        if n <= INLINE_SLOTS {
            Slots::Inline {
                arr: std::array::from_fn(|_| SlotE::Empty),
                n: n as u8,
            }
        } else {
            Slots::Spill((0..n).map(|_| SlotE::Empty).collect())
        }
    }

    pub(super) fn get_mut(&mut self, i: usize) -> &mut SlotE {
        match self {
            Slots::Inline { arr, n } => {
                debug_assert!(i < *n as usize, "terminal {i} out of range");
                &mut arr[i]
            }
            Slots::Spill(v) => &mut v[i],
        }
    }

    pub(super) fn as_slice(&self) -> &[SlotE] {
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
pub(crate) struct Inputs(SlotsIter);

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
pub(crate) struct PendingE {
    pub(super) slots: Slots,
    pub(super) deps: Vec<Dep>,
}

impl PendingE {
    pub(super) fn new(n: usize) -> Self {
        PendingE {
            slots: Slots::new(n),
            deps: Vec::new(),
        }
    }
    pub(super) fn all_complete(&self) -> bool {
        self.slots.as_slice().iter().all(|s| s.is_complete())
    }
}

/// FxHash-style multiply-xor hasher for the matching table. Task keys are
/// runtime-generated, never attacker-controlled, so SipHash's hash-flooding
/// resistance buys nothing on this path while costing an order of magnitude
/// more per key than one rotate-xor-multiply round.
#[derive(Clone, Copy, Default)]
pub(super) struct FxHasher {
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
pub(super) struct FxBuildHasher;

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
pub(super) struct ShardedTable<K: Key> {
    /// `mask + 1` stripes, then [`ShardedTable::SPARE`] stripes' worth of
    /// capacity that nothing writes. Never shrink it or rebuild it with a
    /// `collect`: `a_tables_stripes_are_followed_by_a_spare_line` checks it.
    pub(super) shards: Vec<Stripe<K>>,
    mask: usize,
    pub(super) executed: Padded<AtomicU64>,
}

pub(super) type Stripe<K> = ttg_model::sync::Mutex<HashMap<K, PendingE, FxBuildHasher>>;

impl<K: Key> ShardedTable<K> {
    /// A cache line's worth of stripes. Only the end of the stripes needs
    /// one, since the next allocation is the next rank's stripes. Padding
    /// every stripe instead raised `chol_compute`'s peak RSS by 8–12 %, and
    /// guard stripes in place of the spare capacity read two chains at
    /// 1.33–1.36× per link of one against 1.20–1.21× (30 alternating runs
    /// each way on a 2-core host).
    const SPARE: usize = 64usize.div_ceil(std::mem::size_of::<Stripe<K>>());

    pub(super) fn new(n_shards: usize) -> Self {
        let n = n_shards.max(1).next_power_of_two();
        let mut shards = Vec::with_capacity(n + Self::SPARE);
        shards.extend((0..n).map(|_| Stripe::new(HashMap::with_hasher(FxBuildHasher))));
        ShardedTable {
            shards,
            mask: n - 1,
            executed: Padded::new(AtomicU64::new(0)),
        }
    }

    pub(super) fn shard(&self, k: &K) -> &Stripe<K> {
        // Pick the shard from the *high* half of the hash: the map inside the
        // shard buckets on the low bits of the same hash function, so using
        // disjoint bits avoids correlated bucket skew within a shard.
        let h = FxBuildHasher.hash_one(k);
        &self.shards[((h >> 32) as usize) & self.mask]
    }

    pub(super) fn pending(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// A match: under `k`'s stripe lock, `fill` the key's entry (a fresh
    /// one of `n_inputs` slots if it has none) and take the entry out if
    /// that completed it. The lookup and the claim are one critical
    /// section, so of the arrivals that complete a key exactly one takes
    /// it. A refusal leaves the table as it was and returns the key.
    #[inline]
    pub(super) fn arrive<E>(
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
