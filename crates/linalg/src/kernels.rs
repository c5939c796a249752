//! Sequential BLAS/LAPACK-like tile kernels: the four operations of tiled
//! Cholesky (POTRF, TRSM, SYRK, GEMM), general matrix multiply, and the
//! min-plus product of blocked Floyd–Warshall.
//!
//! These replace the MKL kernels of the paper's testbeds. All of them run
//! on one register-blocked loop nest ([`crate::micro`]): the three products
//! and `minplus` are that nest with different strides and a different
//! accumulate step; `trsm_rlt` and `potrf_l` are left-looking over column
//! blocks, with the nest as their `O(n³)` part and a scalar `NR`-wide
//! triangle.
//!
//! **One body, three instantiations.** Each kernel is written once, generic
//! over the register block's row count, and compiled three times: with 4
//! rows for the build's baseline instruction set (the only arm off x86-64),
//! with 8 rows inside a function compiled for AVX2, and with 24 rows inside
//! one compiled for AVX-512. `dispatch` picks per call from the CPU and the
//! height of the call's `C` ([`arm`]; [`isa`] names the widest available).
//! Nothing else selects an arm.
//!
//! **Results do not depend on the arm.** Every element accumulates its
//! terms in ascending inner index, each as a separately rounded multiply
//! and add (a fused one rounds once and would make a bit depend on the CPU),
//! and no term is skipped for being zero — `0 · ∞` poisons an element
//! wherever it sits. The arms are therefore bit-identical to each other,
//! and on finite inputs to the scalar loops they replaced, which live on as
//! the test oracle (`crate::scalar`). The AVX-512 arm is compiled with the
//! `fma` target feature (`avx512f` implies it); bits still hold because
//! Rust never contracts `a * b + c` into a fused multiply-add.

use crate::micro::{update, Madd, NR};
use crate::tile::Tile;

/// Rows of the register block in the baseline instantiation (two SSE2
/// vectors per column; the portable arm everywhere else).
const MR_BASELINE: usize = 4;

/// Rows of the register block when compiled for AVX2: two 4-lane vectors
/// per column, eight accumulators for the `8 × NR` block.
#[cfg(target_arch = "x86_64")]
const MR_AVX2: usize = 8;

/// Rows of the register block when compiled for AVX-512: three 8-lane
/// vectors per column, twelve accumulators for the `24 × NR` block (32
/// rows spilled registers and ran at a quarter of the rate in a prototype).
#[cfg(target_arch = "x86_64")]
const MR_AVX512: usize = 24;

/// Fewest rows of `C` a call needs to take the AVX-512 arm. Below it the
/// wide block never fills and its setup costs more than it saves: an 8 × 8
/// `minplus` ran 5–10 % slower there than on AVX2.
const AVX512_MIN_ROWS: usize = 16;

/// A kernel with its arguments bound, generic over the register block's
/// row count — the one thing its instantiations differ in.
trait Kernel {
    type Out;
    /// Rows of the `C` the kernel writes: what picks its arm.
    fn rows(&self) -> usize;
    fn run<const MR: usize>(self) -> Self::Out;
}

/// An instantiation of the kernels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Arm {
    Baseline,
    Avx2,
    Avx512,
}

/// The instruction-set extensions an arm needs, as detected on a CPU.
#[derive(Clone, Copy, Default)]
struct Cpu {
    avx2: bool,
    avx512f: bool,
}

/// This process's CPU (std caches the detection).
fn cpu() -> Cpu {
    #[cfg(target_arch = "x86_64")]
    {
        Cpu {
            avx2: std::arch::is_x86_feature_detected!("avx2"),
            avx512f: std::arch::is_x86_feature_detected!("avx512f"),
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    Cpu::default()
}

/// The arm a call whose `C` has `rows` rows takes on `cpu`: AVX-512 from
/// [`AVX512_MIN_ROWS`] rows up, else AVX2, each only where the CPU has it.
fn arm(rows: usize, cpu: Cpu) -> Arm {
    if cpu.avx512f && rows >= AVX512_MIN_ROWS {
        Arm::Avx512
    } else if cpu.avx2 {
        Arm::Avx2
    } else {
        Arm::Baseline
    }
}

/// The widest instantiation this process's kernel calls can take:
/// `"avx512"`, `"avx2"` or `"baseline"`. A call whose `C` has fewer than
/// 16 rows still takes AVX2 on an AVX-512 CPU. Informational — results are
/// bit-identical on every arm.
pub fn isa() -> &'static str {
    match arm(usize::MAX, cpu()) {
        Arm::Avx512 => "avx512",
        Arm::Avx2 => "avx2",
        Arm::Baseline => "baseline",
    }
}

/// `kernel`'s body compiled with AVX2 enabled: the same indexed loops, with
/// the accumulators in 256-bit registers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn run_avx2<K: Kernel>(kernel: K) -> K::Out {
    kernel.run::<MR_AVX2>()
}

/// `kernel`'s body compiled with AVX-512 enabled: the same indexed loops,
/// with the accumulators in 512-bit registers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn run_avx512<K: Kernel>(kernel: K) -> K::Out {
    kernel.run::<MR_AVX512>()
}

/// Run `kernel` on the arm [`arm`] picks for it on this CPU.
fn dispatch<K: Kernel>(kernel: K) -> K::Out {
    #[cfg(target_arch = "x86_64")]
    {
        let run = match arm(kernel.rows(), cpu()) {
            Arm::Avx512 => run_avx512::<K>,
            Arm::Avx2 => run_avx2::<K>,
            Arm::Baseline => return kernel.run::<MR_BASELINE>(),
        };
        // SAFETY: `arm` picks an instantiation only for a CPU on which
        // `cpu` has detected, at run time, the features it was compiled for.
        unsafe { run(kernel) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    kernel.run::<MR_BASELINE>()
}

/// The term of a matrix product scaled by `alpha`: `c + (alpha·b)·a`, both
/// products and the sum rounded one after the other.
#[derive(Clone, Copy)]
struct Scaled(f64);

impl Madd for Scaled {
    #[inline(always)]
    fn prep(self, b: f64) -> f64 {
        self.0 * b
    }
    #[inline(always)]
    fn madd(self, c: f64, a: f64, t: f64) -> f64 {
        c + t * a
    }
}

/// The term of the (min, +) semiring, as a select: `c` survives a tie and
/// a NaN candidate, exactly as a guarded store would leave it.
#[derive(Clone, Copy)]
struct MinPlus;

impl Madd for MinPlus {
    #[inline(always)]
    fn prep(self, b: f64) -> f64 {
        b
    }
    #[inline(always)]
    fn madd(self, c: f64, a: f64, t: f64) -> f64 {
        let through = a + t;
        if through < c {
            through
        } else {
            c
        }
    }
}

/// `C = madd(C, A, B)` over the blocked nest: every product-shaped kernel
/// is one of these, told apart by `madd`, the strides of `B`, and `lower`.
struct Product<'a, Op> {
    op: Op,
    lower: bool,
    dims: (usize, usize, usize),
    a: (&'a [f64], usize),
    b: (&'a [f64], usize, usize),
    c: (&'a mut [f64], usize),
}

impl<Op: Madd> Kernel for Product<'_, Op> {
    type Out = ();
    fn rows(&self) -> usize {
        self.dims.0
    }
    #[inline(always)]
    fn run<const MR: usize>(self) {
        update::<MR>(self.op, self.lower, self.dims, self.a, self.b, self.c);
    }
}

/// `C += alpha * A * B` (no transposes).
pub fn gemm_nn(alpha: f64, a: &Tile, b: &Tile, c: &mut Tile) {
    dispatch(product(Scaled(alpha), a, b, false, c));
}

/// `C += alpha * A * Bᵀ` — the GEMM variant of right-looking tiled Cholesky
/// (`A_mn -= A_mk · A_nkᵀ` with `alpha = -1`).
pub fn gemm_nt(alpha: f64, a: &Tile, b: &Tile, c: &mut Tile) {
    dispatch(product(Scaled(alpha), a, b, true, c));
}

/// `C += A·B` on slices, for callers whose operands are not [`Tile`]s: the
/// same nest, told where its operands live — `(m, n, k)`, then
/// `A[i, l] = a[i + l·lda]`, `B[l, j] = b[j·bsj + l·bsl]` and
/// `C[i, j] = c[i + j·ldc]`. A slice too short for its shape panics.
pub fn gemm_strided(
    dims: (usize, usize, usize),
    a: (&[f64], usize),
    b: (&[f64], usize, usize),
    c: (&mut [f64], usize),
) {
    dispatch(Product {
        op: Scaled(1.0),
        lower: false,
        dims,
        a,
        b,
        c,
    });
}

/// `C = madd(C, A, B)`, or with `transposed` `C = madd(C, A, Bᵀ)`: the two
/// strides `B` is read through swap (`Bᵀ[l, j] = B[j, l]`), nothing else.
fn product<'a, Op>(
    op: Op,
    a: &'a Tile,
    b: &'a Tile,
    transposed: bool,
    c: &'a mut Tile,
) -> Product<'a, Op> {
    let (m, k) = (a.rows(), a.cols());
    let (kb, n, strides) = if transposed {
        (b.cols(), b.rows(), (1, b.rows()))
    } else {
        (b.rows(), b.cols(), (b.rows(), 1))
    };
    assert_eq!(k, kb, "inner dimensions");
    assert_eq!((c.rows(), c.cols()), (m, n), "output shape");
    Product {
        op,
        lower: false,
        dims: (m, n, k),
        a: (a.data(), m),
        b: (b.data(), strides.0, strides.1),
        c: (c.data_mut(), m),
    }
}

/// Symmetric rank-k update on the lower triangle:
/// `C = C - A·Aᵀ` restricted to `i ≥ j` (tiled Cholesky SYRK). The strict
/// upper triangle of `C` is never written.
pub fn syrk_ln(a: &Tile, c: &mut Tile) {
    dispatch(product_syrk(a, c));
}

/// [`syrk_ln`] with its arguments bound: [`gemm_nt`] of `A` with itself at
/// `alpha = -1`, blocks on the diagonal written back only where `i ≥ j`.
fn product_syrk<'a>(a: &'a Tile, c: &'a mut Tile) -> Product<'a, Scaled> {
    Product {
        lower: true,
        ..product(Scaled(-1.0), a, a, true, c)
    }
}

/// Min-plus "tropical" matrix product used by blocked Floyd–Warshall:
/// `C[i,j] = min(C[i,j], A[i,k] + B[k,j])` over all `k`.
pub fn minplus(a: &Tile, b: &Tile, c: &mut Tile) {
    dispatch(product(MinPlus, a, b, false, c));
}

/// Triangular solve `X · L_kkᵀ = A_mk` in place (`A_mk ← A_mk · L_kk⁻ᵀ`),
/// with `L_kk` lower triangular — the TRSM of right-looking tiled Cholesky.
pub fn trsm_rlt(l_kk: &Tile, a_mk: &mut Tile) {
    dispatch(Trsm { l_kk, a_mk });
}

struct Trsm<'a> {
    l_kk: &'a Tile,
    a_mk: &'a mut Tile,
}

impl Kernel for Trsm<'_> {
    type Out = ();
    fn rows(&self) -> usize {
        self.a_mk.rows()
    }

    /// `X[:, j] = (A[:, j] - Σ_{l<j} X[:, l]·L[j, l]) / L[j, j]`, left-looking
    /// over blocks of `NR` columns: the terms from solved columns left of
    /// the block are one product through the nest, the terms from inside
    /// the block and the division follow column by column.
    #[inline(always)]
    fn run<const MR: usize>(self) {
        let nb = self.l_kk.rows();
        assert_eq!(self.l_kk.cols(), nb);
        assert_eq!(self.a_mk.cols(), nb);
        let m = self.a_mk.rows();
        let ld = self.l_kk.data();
        let xd = self.a_mk.data_mut();
        for j0 in (0..nb).step_by(NR) {
            let nc = NR.min(nb - j0);
            let (solved, rest) = xd.split_at_mut(j0 * m);
            let dims = (m, nc, j0);
            update::<MR>(
                Scaled(-1.0),
                false,
                dims,
                (solved, m),
                (&ld[j0..], 1, nb),
                (rest, m),
            );
            for j in j0..j0 + nc {
                let ljj = ld[j + j * nb];
                assert!(ljj != 0.0, "singular triangular factor");
                let (left, xj) = xd[..(j + 1) * m].split_at_mut(j * m);
                for l in j0..j {
                    let ljl = ld[j + l * nb];
                    for (x, xl) in xj.iter_mut().zip(&left[l * m..]) {
                        *x -= ljl * xl;
                    }
                }
                for x in xj {
                    *x /= ljj;
                }
            }
        }
    }
}

/// Cholesky factorization of an SPD tile: `A = L·Lᵀ`, lower triangle
/// overwritten with `L`, strict upper triangle zeroed.
///
/// Returns `Err(j)` if the matrix is not positive definite at pivot `j`;
/// the tile is then partly factored and of no further use.
pub fn potrf_l(a: &mut Tile) -> Result<(), usize> {
    dispatch(Potrf { a })
}

struct Potrf<'a> {
    a: &'a mut Tile,
}

impl Kernel for Potrf<'_> {
    type Out = Result<(), usize>;
    fn rows(&self) -> usize {
        self.a.rows()
    }

    /// Left-looking over blocks of `NR` columns: the block's columns first
    /// take every term from the factored columns to their left (one
    /// lower-triangular product through the nest, `alpha = -1`), then are
    /// factored one by one with the terms from inside the block.
    #[inline(always)]
    fn run<const MR: usize>(self) -> Result<(), usize> {
        let n = self.a.rows();
        assert_eq!(self.a.cols(), n, "potrf needs a square tile");
        let ad = self.a.data_mut();
        for j0 in (0..n).step_by(NR) {
            let nc = NR.min(n - j0);
            let (factored, rest) = ad.split_at_mut(j0 * n);
            // Rows j0.. of the factored columns are both operands.
            let panel = &factored[j0..];
            let dims = (n - j0, nc, j0);
            update::<MR>(
                Scaled(-1.0),
                true,
                dims,
                (panel, n),
                (panel, 1, n),
                (&mut rest[j0..], n),
            );
            for j in j0..j0 + nc {
                let (left, col) = ad[..(j + 1) * n].split_at_mut(j * n);
                let mut d = col[j];
                for l in j0..j {
                    let v = left[j + l * n];
                    d -= v * v;
                }
                if d <= 0.0 || !d.is_finite() {
                    return Err(j);
                }
                let d = d.sqrt();
                for l in j0..j {
                    let ajl = left[j + l * n];
                    for (x, ail) in col[j + 1..].iter_mut().zip(&left[j + 1 + l * n..]) {
                        *x -= ail * ajl;
                    }
                }
                col[j] = d;
                for x in &mut col[j + 1..] {
                    *x /= d;
                }
                // Zero the strict upper triangle for clean reconstruction.
                col[..j].fill(0.0);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn random_tile(rng: &mut impl Rng, rows: usize, cols: usize) -> Tile {
        Tile::from_data(
            rows,
            cols,
            (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        )
    }

    fn gemm_naive(alpha: f64, a: &Tile, b_t: bool, b: &Tile, c: &mut Tile) {
        for i in 0..c.rows() {
            for j in 0..c.cols() {
                let k = a.cols();
                let mut s = 0.0;
                for l in 0..k {
                    let bv = if b_t { b.get(j, l) } else { b.get(l, j) };
                    s += a.get(i, l) * bv;
                }
                c.set(i, j, c.get(i, j) + alpha * s);
            }
        }
    }

    #[test]
    fn gemm_nn_matches_naive() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let a = random_tile(&mut rng, 7, 5);
        let b = random_tile(&mut rng, 5, 6);
        let mut c1 = random_tile(&mut rng, 7, 6);
        let mut c2 = c1.clone();
        gemm_nn(2.5, &a, &b, &mut c1);
        gemm_naive(2.5, &a, false, &b, &mut c2);
        assert!(c1.max_abs_diff(&c2) < 1e-12);
    }

    #[test]
    fn gemm_nt_matches_naive() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let a = random_tile(&mut rng, 4, 8);
        let b = random_tile(&mut rng, 6, 8);
        let mut c1 = random_tile(&mut rng, 4, 6);
        let mut c2 = c1.clone();
        gemm_nt(-1.0, &a, &b, &mut c1);
        gemm_naive(-1.0, &a, true, &b, &mut c2);
        assert!(c1.max_abs_diff(&c2) < 1e-12);
    }

    #[test]
    fn syrk_updates_lower_triangle_only() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let a = random_tile(&mut rng, 5, 3);
        let mut c = Tile::zeros(5, 5);
        // Poison upper triangle to verify it is untouched.
        for j in 0..5 {
            for i in 0..j {
                c.set(i, j, 99.0);
            }
        }
        syrk_ln(&a, &mut c);
        for j in 0..5 {
            for i in 0..5 {
                if i < j {
                    assert_eq!(c.get(i, j), 99.0);
                } else {
                    let mut s = 0.0;
                    for l in 0..3 {
                        s += a.get(i, l) * a.get(j, l);
                    }
                    assert!((c.get(i, j) + s).abs() < 1e-12);
                }
            }
        }
    }

    fn spd_tile(rng: &mut impl Rng, n: usize) -> Tile {
        // A = B·Bᵀ + n·I is SPD.
        let b = random_tile(rng, n, n);
        let mut a = Tile::zeros(n, n);
        gemm_nt(1.0, &b, &b, &mut a);
        for i in 0..n {
            let v = a.get(i, i);
            a.set(i, i, v + n as f64);
        }
        a
    }

    #[test]
    fn potrf_reconstructs() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let a = spd_tile(&mut rng, 16);
        let mut l = a.clone();
        potrf_l(&mut l).expect("SPD");
        // L·Lᵀ must reproduce A (full matrix: A was symmetric).
        let mut rec = Tile::zeros(16, 16);
        gemm_nt(1.0, &l, &l, &mut rec);
        assert!(rec.max_abs_diff(&a) < 1e-9, "diff {}", rec.max_abs_diff(&a));
    }

    #[test]
    fn potrf_rejects_indefinite() {
        let mut t = Tile::identity(3);
        t.set(1, 1, -1.0);
        assert_eq!(potrf_l(&mut t), Err(1));
    }

    #[test]
    fn trsm_solves_triangular_system() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut l = spd_tile(&mut rng, 6);
        potrf_l(&mut l).unwrap();
        let x_true = random_tile(&mut rng, 4, 6);
        // A = X_true · Lᵀ, then TRSM must recover X_true.
        let mut a = Tile::zeros(4, 6);
        gemm_nt(1.0, &x_true, &l, &mut a);
        trsm_rlt(&l, &mut a);
        assert!(a.max_abs_diff(&x_true) < 1e-9);
    }

    #[test]
    fn minplus_relaxes_paths() {
        // 3-node path 0→1→2 beats the direct 0→2 edge.
        let inf = f64::INFINITY;
        let a = Tile::from_data(3, 3, vec![0.0, inf, inf, 1.0, 0.0, inf, 10.0, 1.0, 0.0]);
        let mut c = a.clone();
        minplus(&a, &a, &mut c);
        assert_eq!(c.get(0, 2), 2.0); // through node 1
        assert_eq!(c.get(0, 1), 1.0);
        assert_eq!(c.get(2, 0), inf); // no reverse edges
    }

    #[test]
    fn minplus_handles_infinities() {
        let inf = f64::INFINITY;
        let a = Tile::from_data(2, 2, vec![0.0, inf, inf, 0.0]);
        let mut c = a.clone();
        minplus(&a, &a, &mut c);
        assert_eq!(c.get(0, 1), inf);
        assert_eq!(c.get(0, 0), 0.0);
    }

    // ---- Bit-identity with the scalar oracle, on every arm ----------------

    /// The ways a kernel can run on this host: the baseline instantiation
    /// called directly, the 8- and 24-row bodies compiled without AVX2 or
    /// AVX-512 (the same bits by construction, and they walk the 8- and
    /// 24-row ladders on hosts without those extensions), and whatever
    /// `dispatch` picks — the AVX2 or AVX-512 arm when detected.
    const ARMS: [&str; 4] = [
        "baseline",
        "8 rows at baseline width",
        "24 rows at baseline width",
        "dispatched",
    ];

    /// The index of the dispatched arm in [`ARMS`].
    const DISPATCHED: usize = ARMS.len() - 1;

    fn run_on<K: Kernel>(arm: usize, kernel: K) -> K::Out {
        match arm {
            0 => kernel.run::<MR_BASELINE>(),
            1 => kernel.run::<8>(),
            2 => kernel.run::<24>(),
            _ => dispatch(kernel),
        }
    }

    #[track_caller]
    fn assert_same_bits(got: &Tile, want: &Tile, what: std::fmt::Arguments<'_>) {
        assert_eq!(
            (got.rows(), got.cols()),
            (want.rows(), want.cols()),
            "{what}"
        );
        for (at, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
            assert!(
                g.to_bits() == w.to_bits(),
                "{what}: element {at} is {g:e}, the scalar kernel gives {w:e}"
            );
        }
    }

    /// Widths that exercise every rung of the three ladders (16, 8, 4, 2,
    /// 1 under a 24-row block), both sides of the 16-row arm boundary and of
    /// the 24-row block, the `KC` boundary and the tile sizes the
    /// applications use.
    fn widths() -> impl Iterator<Item = usize> + Clone {
        (0..=25).chain([30, 32, 45, 47, 48, 49, 64, 127, 128, 129])
    }

    /// `(m, n, k)`: every combination of the small widths, each larger
    /// width in each position against a few ragged partners, and the
    /// large cubes and near-cubes.
    fn shapes() -> Vec<(usize, usize, usize)> {
        let mut shapes = Vec::new();
        for m in 0..=19 {
            for n in 0..=19 {
                for k in 0..=19 {
                    shapes.push((m, n, k));
                }
            }
        }
        for v in widths().filter(|&v| v > 19) {
            for (s, t) in [(1, 1), (5, 3), (4, 8), (13, 17), (19, 2), (9, 30)] {
                shapes.extend([(v, s, t), (s, v, t), (s, t, v)]);
            }
        }
        shapes.extend([
            (30, 30, 30),
            (32, 32, 32),
            (45, 64, 51),
            (64, 45, 64),
            (64, 64, 64),
        ]);
        shapes.extend([(127, 129, 128), (128, 128, 128), (129, 127, 129)]);
        shapes
    }

    #[test]
    fn products_match_the_scalar_kernels_bit_for_bit() {
        let mut rng = ChaCha8Rng::seed_from_u64(20);
        for (at, (m, n, k)) in shapes().into_iter().enumerate() {
            let alpha = [1.0, -1.0, 2.5, 0.0][at % 4];
            let a = random_tile(&mut rng, m, k);
            let b = random_tile(&mut rng, k, n);
            let bt = b.transpose();
            let c = random_tile(&mut rng, m, n);
            let (mut nn, mut nt) = (c.clone(), c.clone());
            scalar::gemm_nn(alpha, &a, &b, &mut nn);
            scalar::gemm_nt(alpha, &a, &bt, &mut nt);
            for (arm, name) in ARMS.iter().enumerate() {
                let mut got = c.clone();
                run_on(arm, product(Scaled(alpha), &a, &b, false, &mut got));
                assert_same_bits(
                    &got,
                    &nn,
                    format_args!("gemm_nn {m}x{n}x{k}, {alpha}, {name}"),
                );
                let mut got = c.clone();
                run_on(arm, product(Scaled(alpha), &a, &bt, true, &mut got));
                assert_same_bits(
                    &got,
                    &nt,
                    format_args!("gemm_nt {m}x{n}x{k}, {alpha}, {name}"),
                );
            }
        }
    }

    /// The slice entry against the tile kernels: `A·B` through `B`'s own
    /// strides and `A·Bᵀ` through the swapped ones, with the sizes the MRA
    /// transform passes (2k = 10, 12, 14, and (2k)² = 144).
    #[test]
    fn the_strided_entry_matches_the_tile_kernels_bit_for_bit() {
        let mut rng = ChaCha8Rng::seed_from_u64(27);
        let sizes = [1, 2, 3, 10, 12, 14, 144];
        for (m, n, k) in sizes
            .iter()
            .flat_map(|&m| sizes.iter().map(move |&n| (m, n)))
            .flat_map(|(m, n)| sizes.iter().map(move |&k| (m, n, k)))
        {
            let a = random_tile(&mut rng, m, k);
            let b = random_tile(&mut rng, k, n);
            let bt = b.transpose();
            let c = random_tile(&mut rng, m, n);
            let (mut nn, mut nt) = (c.clone(), c.clone());
            gemm_nn(1.0, &a, &b, &mut nn);
            gemm_nt(1.0, &a, &bt, &mut nt);
            for (operand, strides, want) in [(&b, (k, 1), &nn), (&bt, (1, n), &nt)] {
                for (arm, name) in ARMS.iter().enumerate() {
                    let mut got = c.clone();
                    let a = (a.data(), m);
                    let b = (operand.data(), strides.0, strides.1);
                    let c = (got.data_mut(), m);
                    match arm {
                        DISPATCHED => gemm_strided((m, n, k), a, b, c),
                        _ => run_on(
                            arm,
                            Product {
                                op: Scaled(1.0),
                                lower: false,
                                dims: (m, n, k),
                                a,
                                b,
                                c,
                            },
                        ),
                    }
                    assert_same_bits(&got, want, format_args!("strided {m}x{n}x{k}, {name}"));
                }
            }
        }
    }

    #[test]
    fn minplus_matches_the_scalar_kernel_bit_for_bit() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let shapes = shapes();
        // Path weights: non-negative, a fifth of the edges absent.
        let mut weights = |rows, cols| {
            let mut t = random_tile(&mut rng, rows, cols);
            for w in t.data_mut() {
                *w = if *w < -0.6 { f64::INFINITY } else { w.abs() };
            }
            t
        };
        for &(m, n, k) in shapes.iter().filter(|s| s.0.max(s.1).max(s.2) <= 64) {
            let (a, b, c) = (weights(m, k), weights(k, n), weights(m, n));
            let mut want = c.clone();
            scalar::minplus(&a, &b, &mut want);
            for (arm, name) in ARMS.iter().enumerate() {
                let mut got = c.clone();
                run_on(arm, product(MinPlus, &a, &b, false, &mut got));
                assert_same_bits(&got, &want, format_args!("minplus {m}x{n}x{k}, {name}"));
            }
        }
    }

    #[test]
    fn syrk_matches_the_scalar_kernel_and_never_touches_the_upper_triangle() {
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        // A NaN no computation produces: an upper entry that was read into
        // a sum, or written back, cannot keep this payload.
        let poison = f64::from_bits(0x7ff8_dead_beef_0001);
        for n in widths() {
            for k in [0, 1, 3, 4, 7, 17, 64, 65, 130] {
                let a = random_tile(&mut rng, n, k);
                let mut c = random_tile(&mut rng, n, n);
                for j in 0..n {
                    for i in 0..j {
                        c.set(i, j, poison);
                    }
                }
                let mut want = c.clone();
                scalar::syrk_ln(&a, &mut want);
                for (arm, name) in ARMS.iter().enumerate() {
                    let mut got = c.clone();
                    run_on(arm, product_syrk(&a, &mut got));
                    assert_same_bits(&got, &want, format_args!("syrk_ln {n}x{k}, {name}"));
                    for j in 0..n {
                        for i in 0..j {
                            assert_eq!(got.get(i, j).to_bits(), poison.to_bits());
                        }
                    }
                }
            }
        }
    }

    /// A well-conditioned lower-triangular factor whose strict upper
    /// triangle would poison any sum that read it.
    fn lower_factor(rng: &mut impl Rng, nb: usize) -> Tile {
        let mut l = random_tile(rng, nb, nb);
        for j in 0..nb {
            for i in 0..j {
                l.set(i, j, f64::NAN);
            }
            l.set(j, j, 1.0 + l.get(j, j).abs());
        }
        l
    }

    #[test]
    fn trsm_matches_the_scalar_kernel_bit_for_bit_on_rectangular_panels() {
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        for nb in widths() {
            let l = lower_factor(&mut rng, nb);
            for m in [0, 1, 3, 8, 13, 32, 45, 129] {
                let x = random_tile(&mut rng, m, nb);
                let mut want = x.clone();
                scalar::trsm_rlt(&l, &mut want);
                for (arm, name) in ARMS.iter().enumerate() {
                    let mut got = x.clone();
                    run_on(
                        arm,
                        Trsm {
                            l_kk: &l,
                            a_mk: &mut got,
                        },
                    );
                    assert_same_bits(&got, &want, format_args!("trsm_rlt {m}x{nb}, {name}"));
                }
            }
        }
    }

    #[test]
    fn potrf_matches_the_scalar_kernel_bit_for_bit() {
        let mut rng = ChaCha8Rng::seed_from_u64(24);
        for n in widths() {
            let a = spd_tile(&mut rng, n);
            let mut want = a.clone();
            scalar::potrf_l(&mut want).expect("SPD");
            for (arm, name) in ARMS.iter().enumerate() {
                let mut got = a.clone();
                run_on(arm, Potrf { a: &mut got }).expect("SPD");
                assert_same_bits(&got, &want, format_args!("potrf_l {n}, {name}"));
            }
        }
    }

    #[test]
    fn potrf_reports_the_scalar_kernels_pivot_on_indefinite_tiles() {
        let mut rng = ChaCha8Rng::seed_from_u64(25);
        for n in [5, 13, 32, 45] {
            let spd = spd_tile(&mut rng, n);
            // A bad pivot in the first, a middle and the last column block.
            for pivot in [0, 2, n / 2, n - 1] {
                let mut a = spd.clone();
                a.set(pivot, pivot, -a.get(pivot, pivot));
                let want = scalar::potrf_l(&mut a.clone());
                assert_eq!(want, Err(pivot));
                for (arm, name) in ARMS.iter().enumerate() {
                    let got = run_on(arm, Potrf { a: &mut a.clone() });
                    assert_eq!(got, want, "potrf_l {n}, pivot {pivot}, {name}");
                }
            }
        }
    }

    /// `0 · ∞` is NaN in every column: the scalar kernels skipped a zero
    /// factor of `B` in the `n % 4` tail columns only, so column 4 of a
    /// 5-wide product used to stay finite where column 0 did not.
    #[test]
    fn a_zero_times_infinity_poisons_every_column_alike() {
        let mut rng = ChaCha8Rng::seed_from_u64(26);
        let (m, n, k) = (6, 5, 7);
        let mut a = random_tile(&mut rng, m, k);
        a.set(2, 3, f64::INFINITY);
        let mut b = random_tile(&mut rng, k, n);
        for j in 0..n {
            b.set(3, j, 0.0);
        }
        let bt = b.transpose();
        let c = random_tile(&mut rng, m, n);
        for (arm, name) in ARMS.iter().enumerate() {
            let (mut nn, mut nt) = (c.clone(), c.clone());
            run_on(arm, product(Scaled(1.0), &a, &b, false, &mut nn));
            run_on(arm, product(Scaled(1.0), &a, &bt, true, &mut nt));
            for got in [&nn, &nt] {
                for j in 0..n {
                    assert!(got.get(2, j).is_nan(), "column {j}, {name}");
                    assert!(got.get(1, j).is_finite(), "column {j}, {name}");
                }
            }
        }
    }

    #[test]
    fn the_row_rule_sends_only_tall_tiles_to_avx512() {
        let all = Cpu {
            avx2: true,
            avx512f: true,
        };
        let avx2 = Cpu {
            avx512f: false,
            ..all
        };
        let none = Cpu::default();
        assert_eq!(arm(15, all), Arm::Avx2);
        assert_eq!(arm(16, all), Arm::Avx512);
        assert_eq!(arm(128, all), Arm::Avx512);
        for rows in [0, 8, 15, 16, 24, 128] {
            assert_eq!(arm(rows, avx2), Arm::Avx2, "{rows} rows");
            assert_eq!(arm(rows, none), Arm::Baseline, "{rows} rows");
        }
    }

    #[test]
    fn isa_names_the_arm_dispatch_takes() {
        #[cfg(target_arch = "x86_64")]
        let (avx2, avx512f) = (
            std::arch::is_x86_feature_detected!("avx2"),
            std::arch::is_x86_feature_detected!("avx512f"),
        );
        #[cfg(not(target_arch = "x86_64"))]
        let (avx2, avx512f) = (false, false);
        let want = match (avx512f, avx2) {
            (true, _) => "avx512",
            (false, true) => "avx2",
            (false, false) => "baseline",
        };
        assert_eq!(isa(), want);
    }
}
