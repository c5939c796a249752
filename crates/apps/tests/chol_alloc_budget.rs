//! The tile allocations of the Cholesky factorization, as a tracked test:
//! the baseline is the assertion. One in-process run of
//! `cholesky::ttg::run` on the parsec backend at 2 ranks × 1 worker, under
//! a counting global allocator (process-wide — the work is on the ranks'
//! threads — so this file holds one test).
//!
//! A tile is `NB × NB` `f64`s, a width no other allocation of the run
//! shares. The run allocates exactly one tile per lower-triangle tile of
//! the input (the copy INITIATOR moves out of) and one per one-sided read
//! (the receiver's attach). Every remote tile is an `Arc<Tile>`, whose
//! region is the producer's tile itself, and the factor's tiles above the
//! diagonal stay empty. Nothing else takes a tile: the kernels update in
//! place, and the factor unwraps the handles RESULT kept.
//!
//! Figures on `random_spd(6, 37, 5)` (21 lower-triangle tiles, 15
//! one-sided reads, each of its own region), the same on every run:
//!
//! | commit           | tiles | input copy | region copies | received | zero upper tiles |
//! |------------------|-------|------------|---------------|----------|------------------|
//! | parent (ab8470b) | 66    | 21         | 15            | 15       | 15               |
//! | this change      | 36    | 21         | 0             | 15       | 0                |
//!
//! The parent also counted 15 serializations, one per region copy.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use ttg_apps::cholesky;
use ttg_comm::TransportSpec;
use ttg_linalg::TiledMatrix;

const NT: usize = 6;
const NB: usize = 37;
const TILE_BYTES: usize = NB * NB * 8;

static TILES: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// plain static, so touching it allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() == TILE_BYTES {
            TILES.fetch_add(1, Relaxed);
        }
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if layout.size() == TILE_BYTES {
            TILES.fetch_add(1, Relaxed);
        }
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size == TILE_BYTES {
            TILES.fetch_add(1, Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn cholesky_takes_one_tile_per_input_tile_and_per_one_sided_read() {
    let a = TiledMatrix::random_spd(NT, NB, 5);
    let cfg = cholesky::ttg::Config {
        ranks: 2,
        workers: 1,
        backend: ttg_parsec::backend(),
        trace: false,
        priorities: true,
        faults: None,
        transport: TransportSpec::InProc,
    };
    let before = TILES.load(Relaxed);
    let (l, report) = cholesky::ttg::run(&a, &cfg);
    let tiles = TILES.load(Relaxed) - before;

    assert!(cholesky::residual(&a, &l) < 1e-8);
    let input = (NT * (NT + 1) / 2) as u64;
    let gets = report.comm.rma_gets;
    println!("{tiles} tile-sized allocations: {input} input tiles, {gets} one-sided reads");
    assert!(gets > 0, "the run crosses ranks");
    assert_eq!(
        report.comm.serializations, 0,
        "every region is a shared tile"
    );
    assert_eq!(
        tiles,
        input + gets,
        "one tile per input tile ({input}) and per one-sided read ({gets})"
    );
}
