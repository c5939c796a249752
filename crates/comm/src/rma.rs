//! Emulated one-sided memory regions (the split-metadata protocol's RMA
//! path): a live table per owner rank plus a bounded LRU of recently
//! released regions, so a duplicated or late fetch is answered
//! idempotently instead of aborting the owner.
//!
//! Port: the table sees the fabric's [`FabricStats`] and nothing else; which
//! owners a process may read at all is the fabric's decision.

use std::collections::HashMap;
use std::sync::Arc;
use ttg_model::sync::{AtomicU64, Mutex, Ordering};

use crate::error::RmaError;
use crate::links::Rank;
use crate::stats::FabricStats;

/// Identifier of a registered RMA region, unique per fabric.
pub type RegionId = u64;

/// Released regions kept around per owner to answer duplicated or late
/// one-sided fetches.
const RELEASED_CACHE: usize = 64;

struct Region {
    data: Arc<Vec<u8>>,
    remaining: usize,
    on_release: Option<Box<dyn FnOnce() + Send>>,
}

/// The regions registered by the ranks of this address space.
pub(crate) struct RegionTable {
    live: Vec<Mutex<HashMap<RegionId, Region>>>,
    /// Recently released regions, least recently served first.
    released: Vec<Mutex<Vec<(RegionId, Arc<Vec<u8>>)>>>,
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
        data: Arc<Vec<u8>>,
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
    ) -> Result<Arc<Vec<u8>>, RmaError> {
        let looked_up = {
            let mut table = self.live[owner].lock();
            match table.get_mut(&id) {
                None => None,
                Some(region) => {
                    let data = Arc::clone(&region.data);
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
            let data = Arc::clone(&entry.1);
            cache.push(entry);
            stats.rma_stale_gets.inc();
            return Ok(data);
        };
        if consumed {
            // Fully consumed: remember the bytes so duplicate or late gets
            // racing this removal stay answerable. Least-recently-served
            // entries (front) are evicted first, so a region still fielding
            // late duplicates survives churn from newer releases.
            let mut cache = self.released[owner].lock();
            if cache.len() >= RELEASED_CACHE {
                cache.remove(0);
                stats.rma_released_evictions.inc();
            }
            cache.push((id, Arc::clone(&data)));
        }
        if caller != owner {
            let bytes = data.len() as u64;
            stats.rma_gets.inc();
            stats.rma_bytes.add(bytes);
            stats.tx_bytes[owner].add(bytes);
            stats.rx_bytes[caller].add(bytes);
            #[cfg(feature = "telemetry")]
            ttg_telemetry::instant(
                Some(caller as u32),
                "comm",
                "rma_get",
                &[("owner", owner as u64), ("bytes", bytes)],
            );
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
            Arc::new(vec![9u8; 128]),
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
        let id = t.register(0, Arc::new(vec![5u8; 16]), 1, None);
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
        let probe = t.register(0, Arc::new(vec![9u8; 8]), 1, None);
        let _ = t.fetch(&stats, 1, 0, probe).unwrap();
        for _ in 0..RELEASED_CACHE - 1 {
            let id = t.register(0, Arc::new(vec![0u8; 8]), 1, None);
            let _ = t.fetch(&stats, 1, 0, id).unwrap();
        }
        assert_eq!(stats.snapshot().rma_released_evictions, 0);
        // A stale hit refreshes the probe to most-recently-used...
        let dup = t.fetch(&stats, 1, 0, probe).unwrap();
        assert_eq!(*dup, vec![9u8; 8]);
        // ...so the next release evicts the oldest *other* entry and the
        // probe stays answerable, while the cache stays at its cap.
        let id = t.register(0, Arc::new(vec![0u8; 8]), 1, None);
        let _ = t.fetch(&stats, 1, 0, id).unwrap();
        assert_eq!(stats.snapshot().rma_released_evictions, 1);
        let dup2 = t.fetch(&stats, 1, 0, probe).unwrap();
        assert_eq!(*dup2, vec![9u8; 8]);
        // Without the LRU refresh the probe (oldest insert) would have
        // been the eviction victim and this get would be UnknownRegion.
    }

    #[test]
    fn zero_consumer_region_releases_immediately() {
        let (t, _) = table(1);
        let released = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&released);
        t.register(
            0,
            Arc::new(vec![1]),
            0,
            Some(Box::new(move || flag.store(true, Ordering::SeqCst))),
        );
        assert!(released.load(Ordering::SeqCst));
        assert_eq!(t.live(0), 0);
    }
}
