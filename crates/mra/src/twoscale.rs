//! Two-scale relations and multiwavelet filter matrices.
//!
//! The parent scaling space on an interval is exactly contained in the
//! union of the children spaces, giving the two-scale relation
//! `s_parent = H0 · s_child0 + H1 · s_child1`. Completing the rows of
//! `[H0 H1]` to an orthonormal basis of R^{2k} yields the wavelet filters
//! `[G0 G1]`; together they form an orthogonal 2k × 2k matrix, so
//! compression (`s-coefficients → s+d`) is exactly invertible — the
//! property the compress/reconstruct benchmark of the paper relies on.

use crate::legendre::{gauss_legendre_unit, phi};

/// The filter bank for multiwavelets of order `k`.
#[derive(Debug, Clone)]
pub(crate) struct Filters {
    /// `h0[j][l]`: contribution of child-0 coefficient `l` to parent `j`.
    pub(crate) h0: Vec<Vec<f64>>,
    /// `h1[j][l]`: contribution of child-1 coefficient `l` to parent `j`.
    pub(crate) h1: Vec<Vec<f64>>,
    /// Wavelet filters completing `[H0 H1]` to an orthogonal matrix.
    pub(crate) g0: Vec<Vec<f64>>,
    /// Second half of the wavelet filters.
    pub(crate) g1: Vec<Vec<f64>>,
}

impl Filters {
    /// Build the order-`k` filter bank.
    pub(crate) fn new(k: usize) -> Self {
        assert!(k >= 1);
        // H via quadrature: parent φ_j restricted to child c, expanded in
        // the child's orthonormal basis.
        //   φ^parent_j(x) = Σ_l h_c[j][l] · φ^child_{l,c}(x),
        //   φ^child_{l,c}(x) = √2 · φ_l(2x − c) on [c/2, (c+1)/2].
        // h_c[j][l] = ∫_0^1 φ_j((y+c)/2) φ_l(y) dy / √2.
        let (xs, ws) = gauss_legendre_unit(2 * k + 2);
        let mut h0 = vec![vec![0.0; k]; k];
        let mut h1 = vec![vec![0.0; k]; k];
        for (x, w) in xs.iter().zip(&ws) {
            let child = phi(k, *x);
            let parent0 = phi(k, (x + 0.0) / 2.0);
            let parent1 = phi(k, (x + 1.0) / 2.0);
            for j in 0..k {
                for l in 0..k {
                    h0[j][l] += w * parent0[j] * child[l] / std::f64::consts::SQRT_2;
                    h1[j][l] += w * parent1[j] * child[l] / std::f64::consts::SQRT_2;
                }
            }
        }

        // Complete to an orthonormal basis of R^{2k} by Gram–Schmidt over
        // canonical vectors.
        let mut rows: Vec<Vec<f64>> = (0..k)
            .map(|j| {
                let mut r = h0[j].clone();
                r.extend_from_slice(&h1[j]);
                r
            })
            .collect();
        let mut g_rows: Vec<Vec<f64>> = Vec::with_capacity(k);
        let mut cand = 0usize;
        while g_rows.len() < k {
            assert!(cand < 2 * k, "failed to complete wavelet basis");
            let mut v = vec![0.0; 2 * k];
            v[cand] = 1.0;
            cand += 1;
            // Orthogonalize against H rows and accepted G rows (twice for
            // numerical stability).
            for _ in 0..2 {
                for r in rows.iter().chain(g_rows.iter()) {
                    let dot: f64 = r.iter().zip(&v).map(|(a, b)| a * b).sum();
                    for (vi, ri) in v.iter_mut().zip(r) {
                        *vi -= dot * ri;
                    }
                }
            }
            let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm > 1e-8 {
                for vi in v.iter_mut() {
                    *vi /= norm;
                }
                g_rows.push(v);
            }
        }
        let g0: Vec<Vec<f64>> = g_rows.iter().map(|r| r[..k].to_vec()).collect();
        let g1: Vec<Vec<f64>> = g_rows.iter().map(|r| r[k..].to_vec()).collect();
        rows.clear();
        Filters { h0, h1, g0, g1 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dot(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    /// Forward transform: children s-coefficients → (parent s, detail d).
    fn compress_pair(f: &Filters, s0: &[f64], s1: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let k = s0.len();
        let mut s = vec![0.0; k];
        let mut d = vec![0.0; k];
        for j in 0..k {
            for l in 0..k {
                s[j] += f.h0[j][l] * s0[l] + f.h1[j][l] * s1[l];
                d[j] += f.g0[j][l] * s0[l] + f.g1[j][l] * s1[l];
            }
        }
        (s, d)
    }

    #[test]
    fn filter_matrix_is_orthogonal() {
        for k in [1, 2, 5, 10] {
            let f = Filters::new(k);
            // Assemble the 2k×2k matrix [H0 H1; G0 G1] and check M·Mᵀ = I.
            let mut m: Vec<Vec<f64>> = Vec::new();
            for j in 0..k {
                let mut r = f.h0[j].clone();
                r.extend_from_slice(&f.h1[j]);
                m.push(r);
            }
            for j in 0..k {
                let mut r = f.g0[j].clone();
                r.extend_from_slice(&f.g1[j]);
                m.push(r);
            }
            for a in 0..2 * k {
                for b in 0..2 * k {
                    let expect = if a == b { 1.0 } else { 0.0 };
                    let got = dot(&m[a], &m[b]);
                    assert!((got - expect).abs() < 1e-10, "k={k} ({a},{b}): {got}");
                }
            }
        }
    }

    #[test]
    fn norm_is_preserved() {
        let k = 6;
        let f = Filters::new(k);
        let s0: Vec<f64> = (0..k).map(|i| 1.0 / (i + 1) as f64).collect();
        let s1: Vec<f64> = (0..k).map(|i| (i as f64).sqrt()).collect();
        let (s, d) = compress_pair(&f, &s0, &s1);
        let before = dot(&s0, &s0) + dot(&s1, &s1);
        let after = dot(&s, &s) + dot(&d, &d);
        assert!((before - after).abs() < 1e-10);
    }

    #[test]
    fn constant_function_has_zero_detail() {
        // A function constant across both children is exactly representable
        // at the parent: d must vanish (so must s_j for j ≥ 1).
        let k = 8;
        let f = Filters::new(k);
        // Child coefficients of the constant 1 on each half:
        // s_c[j] = ∫ 1 · √2 φ_j(2x−c) dx = δ_{j0} / √2 · √2 = δ_{j0}·(1/√2)·…
        // easiest: compute by quadrature.
        let (xs, ws) = crate::legendre::gauss_legendre_unit(2 * k);
        let mut s0 = vec![0.0; k];
        for (x, w) in xs.iter().zip(&ws) {
            let p = phi(k, *x);
            for j in 0..k {
                // child on [0, 1/2]: φ^child_j(y) = √2 φ_j(2y); integrate
                // over its support with substitution y = x/2.
                s0[j] += w * std::f64::consts::SQRT_2 * p[j] * 0.5;
            }
        }
        let s1 = s0.clone();
        let (s, d) = compress_pair(&f, &s0, &s1);
        for j in 0..k {
            assert!(d[j].abs() < 1e-10, "d[{j}] = {}", d[j]);
        }
        // Parent s must be the projection of the constant: s[0] = 1, rest 0.
        assert!((s[0] - 1.0).abs() < 1e-10);
        for j in 1..k {
            assert!(s[j].abs() < 1e-10);
        }
    }
}
