//! Free-list recycling for hot-path wire buffers.
//!
//! Every active message used to allocate a fresh `Vec<u8>` on send and drop
//! it after delivery. The pool keeps a small sharded free-list of
//! retired buffers so steady-state traffic reuses allocations instead of
//! round-tripping through the global allocator. Shards are picked per
//! thread, so the common pattern — comm thread recycles what worker threads
//! acquired — degenerates to near-uncontended stack pushes/pops.
//!
//! The pool lives in `ttg-transport` (it started in `ttg-comm`, which
//! re-exports it unchanged) so both layers share one free-list: an AM
//! payload acquired by a sender is recycled by the socket writer (after
//! the copy or the vectored write), one the reader decoded into by the
//! executor after dispatch.
//!
//! The pool is deliberately bounded: buffers above `MAX_POOLED_CAP` are
//! dropped rather than cached (a single giant splitmd payload must not pin
//! a megabyte per shard forever), and each shard holds at most
//! `SHARD_DEPTH` buffers. Hit/miss/recycled/dropped counters are exposed
//! through [`pool_stats`] for the benchmark reports.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use parking_lot::Mutex;

/// Number of independent free-lists; threads hash onto one at first use.
const SHARDS: usize = 8;

/// Maximum buffers retained per shard.
const SHARD_DEPTH: usize = 64;

/// Buffers with more capacity than this are dropped on recycle instead of
/// pooled, bounding resident memory at `SHARDS * SHARD_DEPTH * 1 MiB` worst
/// case (reached only if every pooled buffer grew to the cap).
const MAX_POOLED_CAP: usize = 1 << 20;

/// Requests below this size skip the pool entirely (fresh alloc on
/// acquire, drop on recycle): a small allocation is served from the
/// allocator's thread-local bins for less than the pool's own
/// bookkeeping costs, and caching tiny buffers would evict useful large
/// ones from the bounded shards.
const MIN_POOLED_CAP: usize = 1024;

#[derive(Default)]
struct Shard {
    free: Mutex<Vec<Vec<u8>>>,
}

struct Pool {
    shards: [Shard; SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
    recycled: AtomicU64,
    dropped: AtomicU64,
}

static POOL: Pool = Pool {
    shards: [
        Shard {
            free: Mutex::new(Vec::new()),
        },
        Shard {
            free: Mutex::new(Vec::new()),
        },
        Shard {
            free: Mutex::new(Vec::new()),
        },
        Shard {
            free: Mutex::new(Vec::new()),
        },
        Shard {
            free: Mutex::new(Vec::new()),
        },
        Shard {
            free: Mutex::new(Vec::new()),
        },
        Shard {
            free: Mutex::new(Vec::new()),
        },
        Shard {
            free: Mutex::new(Vec::new()),
        },
    ],
    hits: AtomicU64::new(0),
    misses: AtomicU64::new(0),
    recycled: AtomicU64::new(0),
    dropped: AtomicU64::new(0),
};

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

/// Buffers retained per thread before spilling to the shared shards. The
/// magazine makes the common same-thread acquire→recycle cycle (sender
/// reuses its own retired payload buffer) a plain TLS vector op with no
/// lock at all — at small message sizes two mutex round-trips per message
/// would cost more than the allocations the pool avoids.
const LOCAL_DEPTH: usize = 8;

thread_local! {
    static MY_SHARD: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
    static LOCAL: std::cell::RefCell<Vec<Vec<u8>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

#[inline]
fn my_shard() -> usize {
    MY_SHARD.with(|s| *s)
}

/// Take a cleared buffer with at least `cap` capacity from the calling
/// thread's shard — stealing from sibling shards on a local miss, since
/// producers (workers) and recyclers (comm threads) are usually different
/// threads — falling back to a fresh allocation on pool miss.
pub fn acquire(cap: usize) -> Vec<u8> {
    if cap < MIN_POOLED_CAP {
        POOL.misses.fetch_add(1, Ordering::Relaxed);
        return Vec::with_capacity(cap);
    }
    let mut found = LOCAL.with(|l| l.borrow_mut().pop());
    if found.is_none() {
        // Refill the whole magazine while the shard lock is held: a
        // thread that only ever acquires (a reader thread, whose buffers
        // are recycled by whichever thread drains its channel) would
        // otherwise pay this shard scan on every message instead of once
        // per LOCAL_DEPTH.
        let home = my_shard();
        for i in 0..SHARDS {
            let s = &POOL.shards[(home + i) % SHARDS];
            // try_lock beyond home: never stall on a contended sibling.
            let mut free = if i == 0 {
                s.free.lock()
            } else {
                match s.free.try_lock() {
                    Some(f) => f,
                    None => continue,
                }
            };
            if let Some(buf) = free.pop() {
                LOCAL.with(|l| {
                    let mut local = l.borrow_mut();
                    while local.len() < LOCAL_DEPTH {
                        match free.pop() {
                            Some(b) => local.push(b),
                            None => break,
                        }
                    }
                });
                found = Some(buf);
                break;
            }
        }
    }
    if let Some(mut buf) = found {
        POOL.hits.fetch_add(1, Ordering::Relaxed);
        if buf.capacity() < cap {
            buf.reserve(cap - buf.len());
        }
        return buf;
    }
    POOL.misses.fetch_add(1, Ordering::Relaxed);
    Vec::with_capacity(cap)
}

/// Return a retired buffer to the pool. The buffer is cleared; oversized
/// buffers are dropped, and overflow past the home shard's depth spills to
/// the first sibling with room (dropped only when the whole pool is full).
pub fn recycle(mut buf: Vec<u8>) {
    if buf.capacity() < MIN_POOLED_CAP || buf.capacity() > MAX_POOLED_CAP {
        POOL.dropped.fetch_add(1, Ordering::Relaxed);
        return;
    }
    buf.clear();
    let spill = LOCAL.with(|l| {
        let mut local = l.borrow_mut();
        if local.len() < LOCAL_DEPTH {
            local.push(std::mem::take(&mut buf));
            None
        } else {
            // Magazine full: spill half of it plus the new buffer in one
            // shard visit, so a pure producer (a thread that recycles
            // more than it acquires) pays one lock per LOCAL_DEPTH/2
            // messages instead of one per message.
            let mut batch: Vec<Vec<u8>> = local.drain(LOCAL_DEPTH / 2..).collect();
            batch.push(std::mem::take(&mut buf));
            Some(batch)
        }
    });
    let Some(mut batch) = spill else {
        POOL.recycled.fetch_add(1, Ordering::Relaxed);
        return;
    };
    let home = my_shard();
    for i in 0..SHARDS {
        let s = &POOL.shards[(home + i) % SHARDS];
        let mut free = if i == 0 {
            s.free.lock()
        } else {
            match s.free.try_lock() {
                Some(f) => f,
                None => continue,
            }
        };
        while free.len() < SHARD_DEPTH {
            match batch.pop() {
                Some(b) => {
                    free.push(b);
                    POOL.recycled.fetch_add(1, Ordering::Relaxed);
                }
                None => return,
            }
        }
    }
    POOL.dropped
        .fetch_add(batch.len() as u64, Ordering::Relaxed);
}

/// Point-in-time counters of the process-wide wire-buffer pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Acquires served from the free-list.
    pub hits: u64,
    /// Acquires that fell back to a fresh allocation.
    pub misses: u64,
    /// Buffers successfully returned to the free-list.
    pub(crate) recycled: u64,
    /// Buffers dropped on recycle (oversized or shard full).
    pub(crate) dropped: u64,
}

/// Snapshot the process-wide pool counters.
pub fn pool_stats() -> PoolStats {
    PoolStats {
        hits: POOL.hits.load(Ordering::Relaxed),
        misses: POOL.misses.load(Ordering::Relaxed),
        recycled: POOL.recycled.load(Ordering::Relaxed),
        dropped: POOL.dropped.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_recycle_roundtrip() {
        let before = pool_stats();
        let mut buf = acquire(2 * MIN_POOLED_CAP);
        assert!(buf.capacity() >= 2 * MIN_POOLED_CAP);
        buf.extend_from_slice(&[1, 2, 3]);
        recycle(buf);
        let again = acquire(MIN_POOLED_CAP);
        // The recycled buffer must come back cleared.
        assert!(again.is_empty());
        let after = pool_stats();
        assert!(after.recycled > before.recycled);
        assert!(after.hits + after.misses >= before.hits + before.misses + 2);
    }

    #[test]
    fn tiny_buffers_bypass_the_pool() {
        let before = pool_stats();
        // Below MIN_POOLED_CAP: acquire allocates fresh (counted as a
        // miss), recycle drops instead of caching.
        let buf = acquire(MIN_POOLED_CAP / 4);
        assert!(buf.capacity() < MIN_POOLED_CAP);
        recycle(buf);
        let after = pool_stats();
        assert!(after.misses > before.misses);
        assert!(after.dropped > before.dropped);
    }

    /// Buffers this test thread's magazine holds — where a recycled buffer
    /// lands first. The pool's counters are process-wide and other tests
    /// recycle at the same moment, so they can only be compared with `>`.
    fn kept_here() -> usize {
        LOCAL.with(|l| l.borrow().len())
    }

    #[test]
    fn oversized_buffers_are_dropped() {
        let before = pool_stats();
        recycle(Vec::with_capacity(MAX_POOLED_CAP + 1));
        assert!(pool_stats().dropped > before.dropped);
        assert_eq!(kept_here(), 0);
    }

    #[test]
    fn zero_capacity_recycle_is_dropped() {
        let before = pool_stats();
        recycle(Vec::new());
        assert!(pool_stats().dropped > before.dropped);
        assert_eq!(kept_here(), 0);
    }
}
