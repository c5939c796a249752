//! The reference Cholesky factorization borrows its tiles: under a
//! counting global allocator (per thread) it allocates no tile, and its
//! factor is bit-identical to the same loop run on tile copies.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ttg_linalg::{gemm_nt, potrf_l, syrk_ln, trsm_rlt, Tile, TiledMatrix};

thread_local! {
    /// Allocations of at least `TILE_BYTES` made by this thread.
    static TILE_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

const NT: usize = 6;
const NB: usize = 32;
const TILE_BYTES: usize = NB * NB * 8;

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// `const`-initialised thread-local without a destructor, so touching it
// allocates nothing and is valid at any point of a thread's life.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= TILE_BYTES {
            TILE_ALLOCS.with(|c| c.set(c.get() + 1));
        }
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= TILE_BYTES {
            TILE_ALLOCS.with(|c| c.set(c.get() + 1));
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn tile_allocs() -> u64 {
    TILE_ALLOCS.with(Cell::get)
}

/// The right-looking loop with every input tile copied out first.
fn factor_on_copies(a: &mut TiledMatrix) {
    let nt = a.nt();
    for k in 0..nt {
        potrf_l(a.tile_mut(k, k)).expect("SPD");
        let lkk = a.tile(k, k).clone();
        for m in (k + 1)..nt {
            trsm_rlt(&lkk, a.tile_mut(m, k));
        }
        for m in (k + 1)..nt {
            let lmk = a.tile(m, k).clone();
            syrk_ln(&lmk, a.tile_mut(m, m));
            for i in (m + 1)..nt {
                let lik = a.tile(i, k).clone();
                gemm_nt(-1.0, &lik, &lmk, a.tile_mut(i, m));
            }
        }
        for j in (k + 1)..nt {
            *a.tile_mut(k, j) = Tile::zeros(0, 0);
        }
    }
}

#[test]
fn reference_factorization_allocates_no_tile_and_matches_copies_bit_for_bit() {
    let a = TiledMatrix::random_spd(NT, NB, 44);
    let mut want = a.clone();
    factor_on_copies(&mut want);
    let mut got = a.clone();
    let before = tile_allocs();
    got.potrf_reference().expect("SPD");
    assert_eq!(tile_allocs() - before, 0, "the reference copied a tile");
    assert_eq!(got, want);
}

#[test]
#[should_panic(expected = "both read and written")]
fn a_kernel_cannot_read_the_tile_it_writes() {
    let mut a = TiledMatrix::zeros(2, 2);
    let _ = a.kernel_tiles([(1, 0), (1, 1)], (1, 1));
}
