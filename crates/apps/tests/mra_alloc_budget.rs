//! The allocation budget of the MRA path, as a tracked test: the baseline
//! is the assertion. One run of `mra::ttg::run` on the madness backend at
//! 2 ranks × 1 worker, under a counting global allocator (process-wide —
//! the work is on the ranks' threads — so this file holds one test).
//!
//! A tree node's numerics allocate (2k)³ tensors; everything else the run
//! allocates is k³ blocks, jobs, AMs and tables. Per interior node the
//! budget is five tensors: Project assembles one and transforms it into a
//! second, the compress stream's accumulator is the third and its transform
//! — which becomes the stored detail — the fourth, and Reconstruct merges
//! into that detail in place and transforms it into the fifth.
//!
//! Figures on `Workload::gaussians(3, 5, 400.0, 1e-4, 42)` (a tensor is
//! 8 000 B, the three trees have 307 interior nodes), smallest – largest
//! over 19 runs of the parent commit and 24 of the change that set the
//! budget, release and debug profiles, plain and with the `ttg/telemetry`
//! feature (since deleted) and `ttg/checked`:
//!
//! | commit           | tensors | per node | bytes allocated         | live-heap peak        |
//! |------------------|---------|----------|-------------------------|-----------------------|
//! | parent (e4429d5) | 3 377   | 11       | 39 639 675 – 39 718 928 | 2 620 518 – 2 731 203 |
//! | this change      | 1 535   | 5        | 24 275 294 – 24 375 688 | 2 589 977 – 2 693 277 |
//!
//! The tensor count repeats exactly. Bytes and the peak follow thread
//! timing (table growth, which blocks are in flight together; a debug
//! build reads ≈ 1 % higher peaks than a release one on both commits), so
//! the byte budget is a ratio of the parent's smallest reading and the
//! live-heap budget of its largest.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use ttg_apps::mra::{self, Workload};

const K: usize = 5;
const TENSOR_BYTES: usize = 8 * K * 2 * K * 2 * K * 2;

/// Bytes the parent commit allocates over the same run.
const PARENT_BYTES: u64 = 39_639_675;
/// The live heap's peak over the same run at the parent commit.
const PARENT_LIVE_PEAK: u64 = 2_731_203;

static TENSORS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static LIVE_PEAK: AtomicU64 = AtomicU64::new(0);

struct Counting;

impl Counting {
    fn took(size: usize) {
        if size == TENSOR_BYTES {
            TENSORS.fetch_add(1, Relaxed);
        }
        BYTES.fetch_add(size as u64, Relaxed);
        let live = LIVE.fetch_add(size as u64, Relaxed) + size as u64;
        LIVE_PEAK.fetch_max(live, Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// plain statics, so touching them allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::took(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::took(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        Self::took(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn mra_run_stays_in_its_tensor_byte_and_live_heap_budget() {
    let w = Workload::gaussians(3, K, 400.0, 1e-4, 42);
    let cfg = mra::ttg::Config {
        ranks: 2,
        workers: 1,
        backend: ttg_madness::backend(),
        trace: false,
    };
    // The counters are relative to the heap as the run finds it.
    let (tensors0, bytes0, live0) = (
        TENSORS.load(Relaxed),
        BYTES.load(Relaxed),
        LIVE.load(Relaxed),
    );
    LIVE_PEAK.store(live0, Relaxed);
    let got = mra::ttg::run(&w, &cfg);
    let tensors = TENSORS.load(Relaxed) - tensors0;
    let bytes = BYTES.load(Relaxed) - bytes0;
    let live_peak = LIVE_PEAK.load(Relaxed) - live0;

    let interior: u64 = got.leaves.iter().map(|&l| (l as u64 - 1) / 7).sum();
    println!(
        "{interior} interior nodes: {tensors} tensors ({:.2} per node), \
         {bytes} bytes allocated, live peak {live_peak}",
        tensors as f64 / interior as f64
    );
    assert!(interior > 0);
    assert!(
        tensors <= 5 * interior,
        "{tensors} tensor-sized allocations for {interior} interior nodes, budget 5 each"
    );
    assert!(
        bytes as f64 <= 0.65 * PARENT_BYTES as f64,
        "{bytes} bytes allocated, budget 0.65 × {PARENT_BYTES}"
    );
    assert!(
        live_peak as f64 <= 1.02 * PARENT_LIVE_PEAK as f64,
        "live heap peaked at {live_peak}, the parent's at {PARENT_LIVE_PEAK}"
    );
}
