//! The register-blocked micro-kernel under every tile kernel, and the one
//! blocked loop nest that drives it.
//!
//! [`micro`] holds an `MR × NC` block of `C` in a local array for the whole
//! inner dimension: the block is loaded once, every `l` contributes one
//! rank-1 update to it, and it is stored once. Tiles are column-major, so
//! the `MR` entries of a column of `A` an update needs are already
//! contiguous: `A` is never packed and nothing is allocated. `B` enters the
//! nest through two strides — which makes `A·B`, `A·Bᵀ` and `A·Aᵀ` the same
//! function — and reaches the micro-kernel as a strip of at most `KC × NR`
//! prepared terms on the stack: `alpha · b` is formed once per entry of `B`
//! and column group, not once per block, and the hot loop reads it with
//! unit stride whatever the strides of `B` were.
//!
//! The loops over a block have constant bounds; the compiler unrolls them
//! and keeps the accumulators in vector registers of whatever width the
//! enclosing function was compiled for (`kernels::dispatch`).
//!
//! Every element of `C` belongs to exactly one block and sees its terms in
//! ascending `l`, each as `madd(c, a, prep(b))` — for the matrix product
//! three separately rounded operations, never a fused one — so the result
//! does not depend on `MR`, on how the tails were split, on `KC`, or on the
//! vector width.

/// Columns of `C` in a full register block. Every instantiation of the
/// kernels uses it; what differs between them is `MR`.
pub(crate) const NR: usize = 4;

/// Longest run of the inner dimension a block accumulates in one go: the
/// bound of the on-stack strip of prepared `B` terms (`KC · NR` doubles,
/// 2 KiB, zeroed once per call of [`update`] — which is what keeps it
/// small: 32, 64 and 128 measured alike on 128- and 256-wide tiles, and
/// the 8- and 32-wide ones pay for the zeroing). A deeper product takes its
/// terms `KC` at a time, still in ascending order.
const KC: usize = 64;

/// What a kernel does with one term of the inner sum.
pub(crate) trait Madd: Copy {
    /// Once per entry of `B` and column group: the form `madd` takes it in.
    fn prep(self, b: f64) -> f64;
    /// Once per entry of `C` and `l`: the new `C[i, j]` from the old one,
    /// `A[i, l]` and the prepared `B[l, j]`.
    fn madd(self, c: f64, a: f64, t: f64) -> f64;
}

/// One block: `C[i, j] = madd(C[i, j], A[i, l], T[l, j])` for `l` ascending
/// over the rows of `t`, `i < MR`, `j < NC`.
///
/// `a` and `c` start at the block: `A[i, l] = a[i + l·lda]`,
/// `C[i, j] = c[i + j·ldc]`.
#[inline(always)]
fn micro<const MR: usize, const NC: usize>(
    op: impl Madd,
    (a, lda): (&[f64], usize),
    t: &[[f64; NR]],
    (c, ldc): (&mut [f64], usize),
) {
    let mut acc = [[0.0; MR]; NC];
    for j in 0..NC {
        acc[j].copy_from_slice(&c[j * ldc..j * ldc + MR]);
    }
    for (l, tl) in t.iter().enumerate() {
        let av = &a[l * lda..l * lda + MR];
        for j in 0..NC {
            for i in 0..MR {
                acc[j][i] = op.madd(acc[j][i], av[i], tl[j]);
            }
        }
    }
    for j in 0..NC {
        c[j * ldc..j * ldc + MR].copy_from_slice(&acc[j]);
    }
}

/// [`micro`], or with `below = Some(d)` its form for a block that straddles
/// the diagonal of a lower triangle, its first row `d` rows under the
/// diagonal of its first column: the whole block is computed, on a copy,
/// and only the entries on or below the diagonal (`i + d ≥ j`) are written
/// back. The loop over `l` is the very same code either way — no lane of
/// it knows about the triangle, so none is dropped from a vector.
#[inline(always)]
fn block<const MR: usize, const NC: usize>(
    op: impl Madd,
    a: (&[f64], usize),
    t: &[[f64; NR]],
    (c, ldc): (&mut [f64], usize),
    below: Option<usize>,
) {
    let Some(d) = below else {
        return micro::<MR, NC>(op, a, t, (c, ldc));
    };
    let mut copy = [[0.0; MR]; NC];
    for j in 0..NC {
        copy[j].copy_from_slice(&c[j * ldc..j * ldc + MR]);
    }
    micro::<MR, NC>(op, a, t, (copy.as_flattened_mut(), MR));
    for j in 0..NC {
        for i in j.saturating_sub(d)..MR {
            c[i + j * ldc] = copy[j][i];
        }
    }
}

/// Rows `i..m` of one `NC`-wide column group against the strip `t`, top to
/// bottom in blocks of `MR` rows and then a descending ladder (16, 8, 4, 2,
/// 1; each rung below `MR` only) over what is left, so a ragged tile spends
/// all but at most one row in vector code.
#[inline(always)]
fn strip<const MR: usize, const NC: usize>(
    op: impl Madd,
    lower: bool,
    (mut i, m): (usize, usize),
    (a, lda): (&[f64], usize),
    t: &[[f64; NR]],
    (c, ldc): (&mut [f64], usize),
) {
    // In a lower triangle the strip starts on the diagonal of its column
    // group (`c` starts at the group's first column, so that is row `i` as
    // passed in): a block less than `NC` rows under it straddles it.
    let diag = i;
    let below = |i: usize| (lower && i - diag < NC).then_some(i - diag);
    while i + MR <= m {
        block::<MR, NC>(op, (&a[i..], lda), t, (&mut c[i..], ldc), below(i));
        i += MR;
    }
    if MR > 16 && i + 16 <= m {
        block::<16, NC>(op, (&a[i..], lda), t, (&mut c[i..], ldc), below(i));
        i += 16;
    }
    if MR > 8 && i + 8 <= m {
        block::<8, NC>(op, (&a[i..], lda), t, (&mut c[i..], ldc), below(i));
        i += 8;
    }
    if MR > 4 && i + 4 <= m {
        block::<4, NC>(op, (&a[i..], lda), t, (&mut c[i..], ldc), below(i));
        i += 4;
    }
    if i + 2 <= m {
        block::<2, NC>(op, (&a[i..], lda), t, (&mut c[i..], ldc), below(i));
        i += 2;
    }
    if i < m {
        block::<1, NC>(op, (&a[i..], lda), t, (&mut c[i..], ldc), below(i));
    }
}

/// The blocked nest: `C[i, j] = madd(C[i, j], A[i, l], prep(B[l, j]))` over
/// an `m × n` block of `C` and `l` ascending over `0..k`, column groups of
/// [`NR`] (then 2, then 1) outermost. With `lower`, only `i ≥ j` is
/// read-modify-written and each column group starts at its diagonal row.
///
/// Addressing is relative to the slices passed in: `A[i, l] = a[i + l·lda]`,
/// `B[l, j] = b[j·bsj + l·bsl]`, `C[i, j] = c[i + j·ldc]`.
#[inline(always)]
pub(crate) fn update<const MR: usize>(
    op: impl Madd,
    lower: bool,
    (m, n, k): (usize, usize, usize),
    (a, lda): (&[f64], usize),
    (b, bsj, bsl): (&[f64], usize, usize),
    (c, ldc): (&mut [f64], usize),
) {
    let mut terms = [[0.0; NR]; KC];
    let mut j = 0;
    while j < n {
        let nc = match n - j {
            NR.. => NR,
            2.. => 2,
            _ => 1,
        };
        let rows = (if lower { j } else { 0 }, m);
        let c = &mut c[j * ldc..];
        for l in (0..k).step_by(KC) {
            let t = &mut terms[..KC.min(k - l)];
            for (l, tl) in (l..).zip(t.iter_mut()) {
                for (j, tlj) in (j..j + nc).zip(tl.iter_mut()) {
                    *tlj = op.prep(b[j * bsj + l * bsl]);
                }
            }
            let a = (&a[l * lda..], lda);
            match nc {
                NR => strip::<MR, NR>(op, lower, rows, a, t, (c, ldc)),
                2 => strip::<MR, 2>(op, lower, rows, a, t, (c, ldc)),
                _ => strip::<MR, 1>(op, lower, rows, a, t, (c, ldc)),
            }
        }
        j += nc;
    }
}
