//! Emulated one-sided memory regions (the split-metadata protocol's RMA
//! path): a live table per owner rank plus a bounded LRU of recently
//! released regions, so a duplicated or late fetch is answered
//! idempotently instead of aborting the owner.
//!
//! A region is a [`RegionBytes`] handle: on the producer's value itself
//! where that is a shared handle, else on one copy made at registration.
//! A fetch hands out another handle, never bytes, so the reader's attach
//! is the only copy a fetch makes.
//!
//! Port: the table sees the fabric's [`FabricStats`] and nothing else; which
//! owners a process may read at all is the fabric's decision.

use std::collections::HashMap;
use std::sync::Arc;
use ttg_model::sync::{AtomicU64, Mutex, Ordering};

use crate::error::RmaError;
use crate::links::Rank;
use crate::stats::FabricStats;
use crate::wire::Wire;

/// Identifier of a registered RMA region, unique per fabric.
pub(crate) type RegionId = u64;

/// Released regions kept around per owner to answer duplicated or late
/// one-sided fetches. An entry is a handle: on a shared value it keeps the
/// producer's value alive, not a copy of it.
const RELEASED_CACHE: usize = 64;

/// The bytes a region serves, behind a handle whose clone is a refcount
/// bump. Built by the runtime from a value being sent: out of the value's
/// own memory where it is a shared handle ([`Wire::split_share`]), else
/// as one copy of its [`Wire::split_bytes`] ([`copy_of`](Self::copy_of)).
/// Derefs to the bytes.
#[derive(Clone)]
pub struct RegionBytes(Held);

#[derive(Clone)]
enum Held {
    Copy(Arc<[u8]>),
    Shared(Arc<dyn SplitView>),
}

/// A value a region reads in place.
trait SplitView: Send + Sync {
    fn view(&self) -> &[u8];
}

impl<T: Wire + Sync> SplitView for T {
    fn view(&self) -> &[u8] {
        // `shared` admits only values that have a view, and an `Arc`'s
        // value no longer changes.
        self.split_bytes().unwrap_or_default()
    }
}

impl RegionBytes {
    /// A region of one copy of `bytes`.
    pub fn copy_of(bytes: &[u8]) -> Self {
        RegionBytes(Held::Copy(Arc::from(bytes)))
    }

    /// A region on `v`'s own memory: a clone of the handle, no copy.
    /// `None` if `v` has no in-place payload.
    pub(crate) fn shared<T: Wire + Sync>(v: &Arc<T>) -> Option<Self> {
        v.split_bytes()?;
        Some(RegionBytes(Held::Shared(
            Arc::clone(v) as Arc<dyn SplitView>
        )))
    }
}

impl std::ops::Deref for RegionBytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match &self.0 {
            Held::Copy(bytes) => bytes,
            Held::Shared(v) => v.view(),
        }
    }
}

impl std::fmt::Debug for RegionBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RegionBytes({} B)", self.len())
    }
}

impl PartialEq for RegionBytes {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

struct Region {
    data: RegionBytes,
    remaining: usize,
    on_release: Option<Box<dyn FnOnce() + Send>>,
}

/// The regions registered by the ranks of this address space.
pub(crate) struct RegionTable {
    live: Vec<Mutex<HashMap<RegionId, Region>>>,
    /// Recently released regions, least recently served first.
    released: Vec<Mutex<Vec<(RegionId, RegionBytes)>>>,
    next_id: AtomicU64,
}

impl RegionTable {
    pub(crate) fn new(n: usize) -> Self {
        RegionTable {
            live: (0..n).map(|_| Mutex::new(HashMap::new())).collect(),
            released: (0..n).map(|_| Mutex::new(Vec::new())).collect(),
            next_id: AtomicU64::new(1),
        }
    }

    /// Register `data` as readable from `owner` until `expected_gets`
    /// fetches have been served; then `on_release` runs. Zero expected
    /// fetches release immediately (id 0 names no region).
    pub(crate) fn register(
        &self,
        owner: Rank,
        data: RegionBytes,
        expected_gets: usize,
        on_release: Option<Box<dyn FnOnce() + Send>>,
    ) -> RegionId {
        if expected_gets == 0 {
            if let Some(f) = on_release {
                f();
            }
            return 0;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.live[owner].lock().insert(
            id,
            Region {
                data,
                remaining: expected_gets,
                on_release,
            },
        );
        id
    }

    /// Serve one fetch of `owner`'s region `id` to `caller` (`owner` must
    /// be a rank of this table). The fetch that satisfies the expected
    /// count releases the region; a later one is answered from the
    /// released cache and counted as stale, not as traffic.
    pub(crate) fn fetch(
        &self,
        stats: &FabricStats,
        caller: Rank,
        owner: Rank,
        id: RegionId,
    ) -> Result<RegionBytes, RmaError> {
        let looked_up = {
            let mut table = self.live[owner].lock();
            match table.get_mut(&id) {
                None => None,
                Some(region) => {
                    let data = region.data.clone();
                    region.remaining -= 1;
                    if region.remaining == 0 {
                        let region = table.remove(&id).expect("entry just seen");
                        Some((data, region.on_release, true))
                    } else {
                        Some((data, None, false))
                    }
                }
            }
        };
        let Some((data, release, consumed)) = looked_up else {
            // Region gone from the live table: duplicate/late get. A hit
            // refreshes the entry to the back of the LRU order and has no
            // release side effects and no double-counted wire traffic.
            let mut cache = self.released[owner].lock();
            let pos = cache
                .iter()
                .position(|(rid, _)| *rid == id)
                .ok_or(RmaError::UnknownRegion { caller, owner, id })?;
            let entry = cache.remove(pos);
            let data = entry.1.clone();
            cache.push(entry);
            stats.rma_stale_gets.inc();
            return Ok(data);
        };
        if consumed {
            // Fully consumed: keep the handle so duplicate or late gets
            // racing this removal stay answerable. Least-recently-served
            // entries (front) are evicted first, so a region still fielding
            // late duplicates survives churn from newer releases.
            let mut cache = self.released[owner].lock();
            if cache.len() >= RELEASED_CACHE {
                cache.remove(0);
                stats.rma_released_evictions.inc();
            }
            cache.push((id, data.clone()));
        }
        if caller != owner {
            let bytes = data.len() as u64;
            stats.rma_gets.inc();
            stats.rma_bytes.add(bytes);
            stats.tx_bytes[owner].add(bytes);
            stats.rx_bytes[caller].add(bytes);
        }
        if let Some(f) = release {
            f();
        }
        Ok(data)
    }

    /// Number of live (unreleased) regions owned by `rank`.
    #[cfg(all(test, not(ttg_model)))]
    fn live(&self, rank: Rank) -> usize {
        self.live[rank].lock().len()
    }
}

#[cfg(test)]
#[cfg(not(ttg_model))]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use ttg_telemetry::Registry;

    fn table(n: usize) -> (RegionTable, FabricStats) {
        (
            RegionTable::new(n),
            FabricStats::register(&Registry::new(), n),
        )
    }

    #[test]
    fn rma_region_lifecycle() {
        let (t, stats) = table(3);
        let released = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&released);
        let id = t.register(
            0,
            RegionBytes::copy_of(&[9u8; 128]),
            2,
            Some(Box::new(move || flag.store(true, Ordering::SeqCst))),
        );
        assert_eq!(t.live(0), 1);

        let d1 = t.fetch(&stats, 1, 0, id).unwrap();
        assert_eq!(d1.len(), 128);
        assert!(!released.load(Ordering::SeqCst));
        assert_eq!(t.live(0), 1);

        let d2 = t.fetch(&stats, 2, 0, id).unwrap();
        assert_eq!(d2.len(), 128);
        assert!(released.load(Ordering::SeqCst));
        assert_eq!(t.live(0), 0);

        let s = stats.snapshot();
        assert_eq!(s.rma_gets, 2);
        assert_eq!(s.rma_bytes, 256);
    }

    #[test]
    fn duplicate_get_after_release_is_idempotent() {
        let (t, stats) = table(2);
        let id = t.register(0, RegionBytes::copy_of(&[5u8; 16]), 1, None);
        let first = t.fetch(&stats, 1, 0, id).unwrap();
        assert_eq!(t.live(0), 0);
        // A duplicated/late get racing the release: answered from the
        // idempotency cache, no panic, no double release.
        let dup = t.fetch(&stats, 1, 0, id).unwrap();
        assert_eq!(*dup, *first);
        let s = stats.snapshot();
        assert_eq!(s.rma_stale_gets, 1);
        // Wire traffic counted once only (the idempotent answer is free).
        assert_eq!(s.rma_gets, 1);
    }

    #[test]
    fn released_cache_is_lru_with_bounded_size_and_eviction_counter() {
        let (t, stats) = table(2);
        // Release the probe region first, then churn the cache to one slot
        // short of evicting it.
        let probe = t.register(0, RegionBytes::copy_of(&[9u8; 8]), 1, None);
        let _ = t.fetch(&stats, 1, 0, probe).unwrap();
        for _ in 0..RELEASED_CACHE - 1 {
            let id = t.register(0, RegionBytes::copy_of(&[0u8; 8]), 1, None);
            let _ = t.fetch(&stats, 1, 0, id).unwrap();
        }
        assert_eq!(stats.snapshot().rma_released_evictions, 0);
        // A stale hit refreshes the probe to most-recently-used...
        let dup = t.fetch(&stats, 1, 0, probe).unwrap();
        assert_eq!(*dup, vec![9u8; 8]);
        // ...so the next release evicts the oldest *other* entry and the
        // probe stays answerable, while the cache stays at its cap.
        let id = t.register(0, RegionBytes::copy_of(&[0u8; 8]), 1, None);
        let _ = t.fetch(&stats, 1, 0, id).unwrap();
        assert_eq!(stats.snapshot().rma_released_evictions, 1);
        let dup2 = t.fetch(&stats, 1, 0, probe).unwrap();
        assert_eq!(*dup2, vec![9u8; 8]);
        // Without the LRU refresh the probe (oldest insert) would have
        // been the eviction victim and this get would be UnknownRegion.
    }

    /// An `f64` buffer exposed in place, as a tile is.
    struct Floats(Vec<f64>);

    impl Wire for Floats {
        fn encode(&self, b: &mut crate::WriteBuf) {
            self.0.encode(b);
        }
        fn decode(r: &mut crate::ReadBuf<'_>) -> Result<Self, crate::WireError> {
            Ok(Floats(Vec::decode(r)?))
        }
        fn split_bytes(&self) -> Option<&[u8]> {
            crate::wire::f64s_as_bytes(&self.0)
        }
    }

    #[test]
    #[cfg(target_endian = "little")]
    fn a_region_of_a_shared_value_serves_its_memory_in_place() {
        let (t, stats) = table(2);
        let v = Arc::new(Floats((0..16).map(f64::from).collect()));
        let at = v.0.as_ptr() as *const u8;
        let id = t.register(0, v.split_share().expect("an in-place view"), 1, None);
        let got = t.fetch(&stats, 1, 0, id).unwrap();
        assert_eq!(got.as_ptr(), at, "the producer's own memory, not a copy");
        assert_eq!(got.len(), 16 * 8);
        assert_eq!(t.live(0), 0);
        drop(got);
        // Released, and a duplicate fetch still answers out of the value.
        let dup = t.fetch(&stats, 1, 0, id).unwrap();
        assert_eq!(dup.as_ptr(), at);
        assert_eq!(stats.snapshot().rma_stale_gets, 1);
        // The released cache holds a handle on the value, nothing more.
        drop(dup);
        assert_eq!(Arc::strong_count(&v), 2);
    }

    #[test]
    fn zero_consumer_region_releases_immediately() {
        let (t, _) = table(1);
        let released = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&released);
        t.register(
            0,
            RegionBytes::copy_of(&[1]),
            0,
            Some(Box::new(move || flag.store(true, Ordering::SeqCst))),
        );
        assert!(released.load(Ordering::SeqCst));
        assert_eq!(t.live(0), 0);
    }
}
