//! The scalar kernels this crate shipped before the register-blocked nest
//! (`crate::micro`), kept verbatim as the oracle the blocked kernels are
//! compared against bit for bit (`kernels::tests`). One thing is changed:
//! the `== 0.0` shortcuts are gone from the tail columns of the products
//! and from `trsm_rlt`, where they made `0 · ∞` poison an element or not
//! depending on which column it sat in; the blocked kernels never skip a
//! term, and neither does the oracle.

use crate::tile::Tile;

/// Width of the register tile in the `j` dimension: each pass streams one
/// column of `A` through four independent column accumulators of `C`,
/// quadrupling the flops per `A` load of the naive axpy formulation.
const NR: usize = 4;

/// Depth of the `l` (inner-dimension) blocking: one `m × KC` panel of `A`
/// is reused across every column group of `C` while it is still hot in
/// cache (128 columns × 8 B keeps the panel within L2 for paper-sized
/// tiles).
const KC: usize = 128;

/// Split a contiguous block of `NR` columns (each of length `m`) into four
/// disjoint mutable column views.
#[inline]
fn split4(cols: &mut [f64], m: usize) -> (&mut [f64], &mut [f64], &mut [f64], &mut [f64]) {
    let (c0, rest) = cols.split_at_mut(m);
    let (c1, rest) = rest.split_at_mut(m);
    let (c2, c3) = rest.split_at_mut(m);
    (c0, c1, c2, c3)
}

/// `C += alpha * A * B` (no transposes), cache-blocked over the inner
/// dimension and register-tiled four columns wide. Per-element
/// accumulation stays in ascending-`l` order, matching the naive loop.
pub(crate) fn gemm_nn(alpha: f64, a: &Tile, b: &Tile, c: &mut Tile) {
    let (m, ka) = (a.rows(), a.cols());
    let (kb, n) = (b.rows(), b.cols());
    assert_eq!(ka, kb, "inner dimensions");
    assert_eq!((c.rows(), c.cols()), (m, n), "output shape");
    let ad = a.data();
    let bd = b.data();
    let cd = c.data_mut();
    let mut lb = 0;
    while lb < ka {
        let lend = (lb + KC).min(ka);
        let mut j = 0;
        while j + NR <= n {
            let (c0, c1, c2, c3) = split4(&mut cd[j * m..(j + NR) * m], m);
            for l in lb..lend {
                let b0 = alpha * bd[l + j * kb];
                let b1 = alpha * bd[l + (j + 1) * kb];
                let b2 = alpha * bd[l + (j + 2) * kb];
                let b3 = alpha * bd[l + (j + 3) * kb];
                let acol = &ad[l * m..(l + 1) * m];
                for i in 0..m {
                    let av = acol[i];
                    c0[i] += b0 * av;
                    c1[i] += b1 * av;
                    c2[i] += b2 * av;
                    c3[i] += b3 * av;
                }
            }
            j += NR;
        }
        for j in j..n {
            let ccol = &mut cd[j * m..(j + 1) * m];
            for l in lb..lend {
                let blj = alpha * bd[l + j * kb];
                let acol = &ad[l * m..(l + 1) * m];
                for i in 0..m {
                    ccol[i] += blj * acol[i];
                }
            }
        }
        lb = lend;
    }
}

/// `C += alpha * A * Bᵀ` — the GEMM variant of right-looking tiled Cholesky
/// (`A_mn -= A_mk · A_nkᵀ` with `alpha = -1`). Same blocking as
/// [`gemm_nn`]; only the `B` addressing changes (`Bᵀ[l, j] = B[j, l]`).
pub(crate) fn gemm_nt(alpha: f64, a: &Tile, b: &Tile, c: &mut Tile) {
    let (m, ka) = (a.rows(), a.cols());
    let (n, kb) = (b.rows(), b.cols());
    assert_eq!(ka, kb, "inner dimensions");
    assert_eq!((c.rows(), c.cols()), (m, n), "output shape");
    let ad = a.data();
    let bd = b.data();
    let cd = c.data_mut();
    let mut lb = 0;
    while lb < ka {
        let lend = (lb + KC).min(ka);
        let mut j = 0;
        while j + NR <= n {
            let (c0, c1, c2, c3) = split4(&mut cd[j * m..(j + NR) * m], m);
            for l in lb..lend {
                let b0 = alpha * bd[j + l * n];
                let b1 = alpha * bd[j + 1 + l * n];
                let b2 = alpha * bd[j + 2 + l * n];
                let b3 = alpha * bd[j + 3 + l * n];
                let acol = &ad[l * m..(l + 1) * m];
                for i in 0..m {
                    let av = acol[i];
                    c0[i] += b0 * av;
                    c1[i] += b1 * av;
                    c2[i] += b2 * av;
                    c3[i] += b3 * av;
                }
            }
            j += NR;
        }
        for j in j..n {
            let ccol = &mut cd[j * m..(j + 1) * m];
            for l in lb..lend {
                let blj = alpha * bd[j + l * n];
                let acol = &ad[l * m..(l + 1) * m];
                for i in 0..m {
                    ccol[i] += blj * acol[i];
                }
            }
        }
        lb = lend;
    }
}

/// Symmetric rank-k update on the lower triangle:
/// `C = C - A·Aᵀ` restricted to `i ≥ j` (tiled Cholesky SYRK).
///
/// Register-tiled like [`gemm_nn`]: below the diagonal block of a column
/// group every row updates all four columns, so the bulk of the triangle
/// runs through the same four-accumulator axpy; the small `NR × NR`
/// diagonal corner is handled scalar.
pub(crate) fn syrk_ln(a: &Tile, c: &mut Tile) {
    let (n, k) = (a.rows(), a.cols());
    assert_eq!((c.rows(), c.cols()), (n, n));
    let ad = a.data();
    let cd = c.data_mut();
    let mut lb = 0;
    while lb < k {
        let lend = (lb + KC).min(k);
        let mut j = 0;
        while j + NR <= n {
            // Diagonal corner rows j..j+NR: only columns with i ≥ jt.
            for l in lb..lend {
                for jt in j..j + NR {
                    let ajl = ad[jt + l * n];
                    for i in jt..j + NR {
                        cd[i + jt * n] -= ad[i + l * n] * ajl;
                    }
                }
            }
            // Panel rows j+NR..n update all four columns.
            let i0 = j + NR;
            if i0 < n {
                let (c0, c1, c2, c3) = split4(&mut cd[j * n..(j + NR) * n], n);
                let (c0, c1, c2, c3) = (&mut c0[i0..], &mut c1[i0..], &mut c2[i0..], &mut c3[i0..]);
                for l in lb..lend {
                    let aj0 = ad[j + l * n];
                    let aj1 = ad[j + 1 + l * n];
                    let aj2 = ad[j + 2 + l * n];
                    let aj3 = ad[j + 3 + l * n];
                    let acol = &ad[l * n + i0..(l + 1) * n];
                    for (i, &av) in acol.iter().enumerate() {
                        c0[i] -= av * aj0;
                        c1[i] -= av * aj1;
                        c2[i] -= av * aj2;
                        c3[i] -= av * aj3;
                    }
                }
            }
            j += NR;
        }
        for j in j..n {
            for l in lb..lend {
                let ajl = ad[j + l * n];
                for i in j..n {
                    cd[i + j * n] -= ad[i + l * n] * ajl;
                }
            }
        }
        lb = lend;
    }
}

/// Triangular solve `X · L_kkᵀ = A_mk` in place (`A_mk ← A_mk · L_kk⁻ᵀ`),
/// with `L_kk` lower triangular — the TRSM of right-looking tiled Cholesky.
pub(crate) fn trsm_rlt(l_kk: &Tile, a_mk: &mut Tile) {
    let nb = l_kk.rows();
    assert_eq!(l_kk.cols(), nb);
    assert_eq!(a_mk.cols(), nb);
    let m = a_mk.rows();
    // Solve column by column: X[:, j] = (A[:, j] - Σ_{l<j} X[:, l]·L[j, l]) / L[j, j]
    for j in 0..nb {
        let ljj = l_kk.get(j, j);
        assert!(ljj != 0.0, "singular triangular factor");
        for l in 0..j {
            let ljl = l_kk.get(j, l);
            let (xcol_l, xcol_j) = {
                // Two disjoint column views.
                let data = a_mk.data_mut();
                let (left, right) = data.split_at_mut(j * m);
                (&left[l * m..(l + 1) * m], &mut right[..m])
            };
            for i in 0..m {
                xcol_j[i] -= ljl * xcol_l[i];
            }
        }
        let data = a_mk.data_mut();
        let xcol_j = &mut data[j * m..(j + 1) * m];
        for x in xcol_j.iter_mut() {
            *x /= ljj;
        }
    }
}

/// Cholesky factorization of an SPD tile: `A = L·Lᵀ`, lower triangle
/// overwritten with `L`, strict upper triangle zeroed.
///
/// Returns `Err(j)` if the matrix is not positive definite at pivot `j`.
pub(crate) fn potrf_l(a: &mut Tile) -> Result<(), usize> {
    let n = a.rows();
    assert_eq!(a.cols(), n, "potrf needs a square tile");
    for j in 0..n {
        let mut d = a.get(j, j);
        for l in 0..j {
            let v = a.get(j, l);
            d -= v * v;
        }
        if d <= 0.0 || !d.is_finite() {
            return Err(j);
        }
        let d = d.sqrt();
        a.set(j, j, d);
        for i in (j + 1)..n {
            let mut v = a.get(i, j);
            for l in 0..j {
                v -= a.get(i, l) * a.get(j, l);
            }
            a.set(i, j, v / d);
        }
        // Zero the strict upper triangle for clean reconstruction.
        for i in 0..j {
            a.set(i, j, 0.0);
        }
    }
    Ok(())
}

/// Min-plus "tropical" matrix product used by blocked Floyd–Warshall:
/// `C[i,j] = min(C[i,j], A[i,k] + B[k,j])` over all `k`.
pub(crate) fn minplus(a: &Tile, b: &Tile, c: &mut Tile) {
    let (m, ka) = (a.rows(), a.cols());
    let (kb, n) = (b.rows(), b.cols());
    assert_eq!(ka, kb);
    assert_eq!((c.rows(), c.cols()), (m, n));
    let ad = a.data();
    let bd = b.data();
    let cd = c.data_mut();
    for j in 0..n {
        for l in 0..ka {
            let blj = bd[l + j * kb];
            if blj == f64::INFINITY {
                continue;
            }
            let acol = &ad[l * m..(l + 1) * m];
            let ccol = &mut cd[j * m..(j + 1) * m];
            for i in 0..m {
                let cand = acol[i] + blj;
                if cand < ccol[i] {
                    ccol[i] = cand;
                }
            }
        }
    }
}
