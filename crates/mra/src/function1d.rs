//! 1-D projection onto order-`k` scaling functions: the quadrature and
//! filter bank the 3-D representation ([`crate::Mra3`]) is a tensor product
//! of.

use std::sync::Arc;

use crate::legendre::{gauss_legendre_unit, phi};
use crate::twoscale::Filters;

/// Shared projection context: basis order, filters, quadrature.
#[derive(Clone)]
pub(crate) struct Mra1 {
    /// Basis order.
    pub(crate) k: usize,
    /// Filter bank.
    pub(crate) filters: Arc<Filters>,
    quad_x: Arc<Vec<f64>>,
    quad_w: Arc<Vec<f64>>,
    quad_phi: Arc<Vec<Vec<f64>>>,
}

impl Mra1 {
    /// Build an order-`k` context.
    pub(crate) fn new(k: usize) -> Self {
        let (xs, ws) = gauss_legendre_unit(2 * k);
        let quad_phi = xs.iter().map(|x| phi(k, *x)).collect();
        Mra1 {
            k,
            filters: Arc::new(Filters::new(k)),
            quad_x: Arc::new(xs),
            quad_w: Arc::new(ws),
            quad_phi: Arc::new(quad_phi),
        }
    }

    /// Project `f` onto the scaling basis of node `(n, l)` by quadrature,
    /// into the caller's `k` coefficients.
    pub(crate) fn project_box_into(&self, f: &dyn Fn(f64) -> f64, n: u8, l: u64, s: &mut [f64]) {
        assert_eq!(s.len(), self.k, "one coefficient per basis function");
        let scale = (0.5f64).powf(n as f64 / 2.0); // 2^{-n/2}
        let h = (0.5f64).powi(n as i32);
        let x0 = l as f64 * h;
        s.fill(0.0);
        for (q, (xq, wq)) in self.quad_x.iter().zip(self.quad_w.iter()).enumerate() {
            let fx = f(x0 + xq * h);
            let pv = &self.quad_phi[q];
            for j in 0..self.k {
                s[j] += wq * fx * pv[j];
            }
        }
        for v in s.iter_mut() {
            *v *= scale;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn projection_of_polynomial_is_exact_at_root() {
        let mra = Mra1::new(6);
        let f = |x: f64| 1.0 + 2.0 * x + 3.0 * x * x;
        let mut s = vec![0.0; 6];
        mra.project_box_into(&f, 0, 0, &mut s);
        // Evaluate back at a few points through the basis.
        for &x in &[0.1, 0.5, 0.9] {
            let p = phi(6, x);
            let v: f64 = s.iter().zip(&p).map(|(a, b)| a * b).sum();
            assert!((v - f(x)).abs() < 1e-12, "x={x}");
        }
    }
}
