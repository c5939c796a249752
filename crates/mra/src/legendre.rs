//! Legendre polynomials, the orthonormal scaling basis on [0, 1], and
//! Gauss–Legendre quadrature.
//!
//! The multiwavelet basis of order `k` (paper §III-E uses k = 10) is built
//! from the first `k` Legendre polynomials rescaled to [0, 1] and
//! normalized: φ_j(x) = √(2j+1) · P_j(2x − 1).

/// Evaluate Legendre polynomials P_0..P_{k-1} at `x ∈ [−1, 1]` via the
/// three-term recurrence.
pub(crate) fn legendre(k: usize, x: f64) -> Vec<f64> {
    let mut p = Vec::with_capacity(k);
    if k == 0 {
        return p;
    }
    p.push(1.0);
    if k == 1 {
        return p;
    }
    p.push(x);
    for n in 1..(k - 1) {
        let next = ((2 * n + 1) as f64 * x * p[n] - n as f64 * p[n - 1]) / (n + 1) as f64;
        p.push(next);
    }
    p
}

/// Derivative P'_n(x) from P_n and P_{n-1}:
/// (1−x²) P'_n = n (P_{n−1} − x P_n).
fn legendre_deriv(n: usize, x: f64, pn: f64, pnm1: f64) -> f64 {
    if x.abs() >= 1.0 {
        // Endpoint limit: P'_n(±1) = ±^{n+1} n(n+1)/2 — not needed by the
        // Newton iteration (roots are interior), keep a finite fallback.
        return 0.5 * (n * (n + 1)) as f64 * x.powi(n as i32 + 1);
    }
    (n as f64) * (pnm1 - x * pn) / (1.0 - x * x)
}

/// Orthonormal scaling functions φ_0..φ_{k−1} on [0, 1] at `x`.
pub(crate) fn phi(k: usize, x: f64) -> Vec<f64> {
    let p = legendre(k, 2.0 * x - 1.0);
    p.into_iter()
        .enumerate()
        .map(|(j, v)| ((2 * j + 1) as f64).sqrt() * v)
        .collect()
}

/// Gauss–Legendre nodes and weights on [−1, 1] (order `n`), by Newton
/// iteration from Chebyshev initial guesses.
pub(crate) fn gauss_legendre(n: usize) -> (Vec<f64>, Vec<f64>) {
    let mut xs = vec![0.0; n];
    let mut ws = vec![0.0; n];
    for i in 0..n {
        // Initial guess (roots ordered descending).
        let mut x = (std::f64::consts::PI * (i as f64 + 0.75) / (n as f64 + 0.5)).cos();
        for _ in 0..100 {
            let p = legendre(n + 1, x);
            let pn = p[n];
            let dpn = legendre_deriv(n, x, pn, p[n - 1]);
            let dx = pn / dpn;
            x -= dx;
            if dx.abs() < 1e-15 {
                break;
            }
        }
        let p = legendre(n + 1, x);
        let dpn = legendre_deriv(n, x, p[n], p[n - 1]);
        xs[i] = x;
        ws[i] = 2.0 / ((1.0 - x * x) * dpn * dpn);
    }
    // Ascending order for readability.
    xs.reverse();
    ws.reverse();
    (xs, ws)
}

/// Gauss–Legendre quadrature mapped to [0, 1].
pub(crate) fn gauss_legendre_unit(n: usize) -> (Vec<f64>, Vec<f64>) {
    let (xs, ws) = gauss_legendre(n);
    (
        xs.iter().map(|x| 0.5 * (x + 1.0)).collect(),
        ws.iter().map(|w| 0.5 * w).collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legendre_known_values() {
        let p = legendre(5, 0.5);
        assert!((p[0] - 1.0).abs() < 1e-15);
        assert!((p[1] - 0.5).abs() < 1e-15);
        // P2(x) = (3x²−1)/2 = −0.125 at x=0.5
        assert!((p[2] + 0.125).abs() < 1e-15);
        // P3(x) = (5x³−3x)/2 = −0.4375
        assert!((p[3] + 0.4375).abs() < 1e-15);
    }

    #[test]
    fn quadrature_integrates_polynomials_exactly() {
        // n-point Gauss is exact for degree ≤ 2n−1.
        let (xs, ws) = gauss_legendre(6);
        for deg in 0..=11usize {
            let num: f64 = xs
                .iter()
                .zip(&ws)
                .map(|(x, w)| w * x.powi(deg as i32))
                .sum();
            let exact = if deg % 2 == 0 {
                2.0 / (deg as f64 + 1.0)
            } else {
                0.0
            };
            assert!(
                (num - exact).abs() < 1e-12,
                "degree {deg}: {num} vs {exact}"
            );
        }
    }

    #[test]
    fn quadrature_weights_sum_to_interval() {
        for n in [1, 2, 5, 10, 20] {
            let (_, ws) = gauss_legendre(n);
            let s: f64 = ws.iter().sum();
            assert!((s - 2.0).abs() < 1e-12, "n={n}");
        }
        let (_, wu) = gauss_legendre_unit(10);
        assert!((wu.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn phi_is_orthonormal_on_unit_interval() {
        let k = 10;
        let (xs, ws) = gauss_legendre_unit(2 * k);
        for a in 0..k {
            for b in 0..k {
                let dot: f64 = xs
                    .iter()
                    .zip(&ws)
                    .map(|(x, w)| {
                        let f = phi(k, *x);
                        w * f[a] * f[b]
                    })
                    .sum();
                let expect = if a == b { 1.0 } else { 0.0 };
                assert!((dot - expect).abs() < 1e-10, "({a},{b}): {dot}");
            }
        }
    }

    #[test]
    fn quadrature_integrates_transcendental_accurately() {
        let (xs, ws) = gauss_legendre_unit(20);
        let num: f64 = xs.iter().zip(&ws).map(|(x, w)| w * (x).exp()).sum();
        assert!((num - (std::f64::consts::E - 1.0)).abs() < 1e-14);
    }
}
