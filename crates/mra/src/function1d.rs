//! Adaptive 1-D multiwavelet function representation (serial reference).
//!
//! Functions on [0, 1] are represented by s-coefficients of order-`k`
//! scaling functions on the leaves of an adaptive dyadic tree
//! ("reconstructed" form), or by the root s-coefficients plus detail
//! (wavelet) coefficients on interior nodes ("compressed" form). The
//! projection refines until the detail norm falls below the truncation
//! threshold — the same adaptive criterion as the paper's MRA benchmark.

use std::collections::HashMap;
use std::sync::Arc;

use crate::legendre::{gauss_legendre_unit, phi};
use crate::twoscale::Filters;

/// Node address: (level, translation), box [l/2ⁿ, (l+1)/2ⁿ].
pub type Node1 = (u8, u64);

/// Shared projection context: basis order, filters, quadrature.
#[derive(Clone)]
pub struct Mra1 {
    /// Basis order.
    pub k: usize,
    /// Filter bank.
    pub filters: Arc<Filters>,
    quad_x: Arc<Vec<f64>>,
    quad_w: Arc<Vec<f64>>,
    quad_phi: Arc<Vec<Vec<f64>>>,
}

impl Mra1 {
    /// Build an order-`k` context.
    pub fn new(k: usize) -> Self {
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

    /// Project `f` onto the scaling basis of node `(n, l)` by quadrature.
    pub fn project_box(&self, f: &dyn Fn(f64) -> f64, n: u8, l: u64) -> Vec<f64> {
        let mut s = vec![0.0; self.k];
        self.project_box_into(f, n, l, &mut s);
        s
    }

    /// [`Mra1::project_box`] into the caller's `k` coefficients.
    pub fn project_box_into(&self, f: &dyn Fn(f64) -> f64, n: u8, l: u64, s: &mut [f64]) {
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

    /// Adaptively project `f`, returning the leaf coefficient map
    /// (reconstructed form). Refinement stops when the detail norm of a
    /// would-be parent is below `tol` or at `max_depth`.
    pub fn project_adaptive(
        &self,
        f: &dyn Fn(f64) -> f64,
        tol: f64,
        max_depth: u8,
    ) -> HashMap<Node1, Vec<f64>> {
        let mut leaves = HashMap::new();
        self.refine(f, 0, 0, tol, max_depth, &mut leaves);
        leaves
    }

    fn refine(
        &self,
        f: &dyn Fn(f64) -> f64,
        n: u8,
        l: u64,
        tol: f64,
        max_depth: u8,
        leaves: &mut HashMap<Node1, Vec<f64>>,
    ) {
        let s0 = self.project_box(f, n + 1, 2 * l);
        let s1 = self.project_box(f, n + 1, 2 * l + 1);
        let (_s, d) = self.filters.compress_pair(&s0, &s1);
        let dn: f64 = d.iter().map(|x| x * x).sum::<f64>().sqrt();
        if dn <= tol || n + 1 >= max_depth {
            leaves.insert((n + 1, 2 * l), s0);
            leaves.insert((n + 1, 2 * l + 1), s1);
        } else {
            self.refine(f, n + 1, 2 * l, tol, max_depth, leaves);
            self.refine(f, n + 1, 2 * l + 1, tol, max_depth, leaves);
        }
    }

    /// Compress a reconstructed tree: returns the root s-coefficients and
    /// the detail coefficients of every interior node (fast wavelet
    /// transform, bottom-up).
    pub fn compress(
        &self,
        leaves: &HashMap<Node1, Vec<f64>>,
    ) -> (Vec<f64>, HashMap<Node1, Vec<f64>>) {
        let mut s_at: HashMap<Node1, Vec<f64>> = leaves.clone();
        let mut details = HashMap::new();
        let mut max_n = leaves.keys().map(|(n, _)| *n).max().unwrap_or(0);
        while max_n > 0 {
            let level_nodes: Vec<Node1> =
                s_at.keys().filter(|(n, _)| *n == max_n).cloned().collect();
            let mut parents: Vec<Node1> = level_nodes.iter().map(|(n, l)| (n - 1, l / 2)).collect();
            parents.sort_unstable();
            parents.dedup();
            for (pn, pl) in parents {
                let s0 = s_at
                    .remove(&(pn + 1, 2 * pl))
                    .unwrap_or_else(|| vec![0.0; self.k]);
                let s1 = s_at
                    .remove(&(pn + 1, 2 * pl + 1))
                    .unwrap_or_else(|| vec![0.0; self.k]);
                let (s, d) = self.filters.compress_pair(&s0, &s1);
                details.insert((pn, pl), d);
                // Merge with any coefficients already present at the parent
                // (happens for non-uniform trees where a sibling was a leaf
                // at a shallower level — not produced by project_adaptive,
                // but supported for generality).
                match s_at.get_mut(&(pn, pl)) {
                    Some(existing) => {
                        for (a, b) in existing.iter_mut().zip(&s) {
                            *a += b;
                        }
                    }
                    None => {
                        s_at.insert((pn, pl), s);
                    }
                }
            }
            max_n -= 1;
        }
        let root = s_at.remove(&(0, 0)).unwrap_or_else(|| vec![0.0; self.k]);
        (root, details)
    }

    /// Reconstruct leaves from compressed form (top-down inverse transform).
    /// The original tree structure is recovered from the detail map.
    pub fn reconstruct(
        &self,
        root: &[f64],
        details: &HashMap<Node1, Vec<f64>>,
    ) -> HashMap<Node1, Vec<f64>> {
        let mut leaves = HashMap::new();
        self.reconstruct_node(0, 0, root.to_vec(), details, &mut leaves);
        leaves
    }

    fn reconstruct_node(
        &self,
        n: u8,
        l: u64,
        s: Vec<f64>,
        details: &HashMap<Node1, Vec<f64>>,
        leaves: &mut HashMap<Node1, Vec<f64>>,
    ) {
        match details.get(&(n, l)) {
            None => {
                leaves.insert((n, l), s);
            }
            Some(d) => {
                let (s0, s1) = self.filters.reconstruct_pair(&s, d);
                self.reconstruct_node(n + 1, 2 * l, s0, details, leaves);
                self.reconstruct_node(n + 1, 2 * l + 1, s1, details, leaves);
            }
        }
    }

    /// L² norm from reconstructed form.
    pub fn norm_leaves(leaves: &HashMap<Node1, Vec<f64>>) -> f64 {
        leaves
            .values()
            .map(|s| s.iter().map(|x| x * x).sum::<f64>())
            .sum::<f64>()
            .sqrt()
    }

    /// L² norm from compressed form (root energy + detail energy).
    pub fn norm_compressed(root: &[f64], details: &HashMap<Node1, Vec<f64>>) -> f64 {
        let e: f64 = root.iter().map(|x| x * x).sum::<f64>()
            + details
                .values()
                .map(|d| d.iter().map(|x| x * x).sum::<f64>())
                .sum::<f64>();
        e.sqrt()
    }

    /// Evaluate the reconstructed representation at `x ∈ [0, 1)`.
    pub fn eval(&self, leaves: &HashMap<Node1, Vec<f64>>, x: f64) -> f64 {
        // Find the leaf containing x by descending levels.
        let max_n = leaves.keys().map(|(n, _)| *n).max().unwrap_or(0);
        for n in 0..=max_n {
            let l = (x * (1u64 << n) as f64) as u64;
            if let Some(s) = leaves.get(&(n, l)) {
                let h = (0.5f64).powi(n as i32);
                let y = (x - l as f64 * h) / h;
                let p = phi(self.k, y);
                let scale = (2.0f64).powf(n as f64 / 2.0);
                return scale * s.iter().zip(&p).map(|(a, b)| a * b).sum::<f64>();
            }
        }
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gaussian(center: f64, expnt: f64) -> impl Fn(f64) -> f64 {
        move |x: f64| (-expnt * (x - center) * (x - center)).exp()
    }

    #[test]
    fn projection_of_polynomial_is_exact_at_root() {
        let mra = Mra1::new(6);
        let f = |x: f64| 1.0 + 2.0 * x + 3.0 * x * x;
        let s = mra.project_box(&f, 0, 0);
        // Evaluate back at a few points through the basis.
        for &x in &[0.1, 0.5, 0.9] {
            let p = phi(6, x);
            let v: f64 = s.iter().zip(&p).map(|(a, b)| a * b).sum();
            assert!((v - f(x)).abs() < 1e-12, "x={x}");
        }
    }

    #[test]
    fn adaptive_projection_resolves_sharp_gaussian() {
        let mra = Mra1::new(10);
        let f = gaussian(0.5, 3000.0);
        let leaves = mra.project_adaptive(&f, 1e-8, 20);
        assert!(leaves.len() > 8, "sharp feature forces refinement");
        for &x in &[0.25, 0.45, 0.5, 0.55, 0.52113] {
            let v = mra.eval(&leaves, x);
            assert!((v - f(x)).abs() < 1e-6, "x={x}: {v} vs {}", f(x));
        }
    }

    #[test]
    fn adaptive_tree_is_deeper_near_the_feature() {
        let mra = Mra1::new(10);
        let f = gaussian(0.125, 10000.0);
        let leaves = mra.project_adaptive(&f, 1e-8, 20);
        let depth_near = leaves
            .keys()
            .filter(|(n, l)| {
                let h = (0.5f64).powi(*n as i32);
                let lo = *l as f64 * h;
                (lo - 0.125).abs() < 0.1
            })
            .map(|(n, _)| *n)
            .max()
            .unwrap();
        let depth_far = leaves
            .keys()
            .filter(|(n, l)| {
                let h = (0.5f64).powi(*n as i32);
                let lo = *l as f64 * h;
                lo >= 0.5
            })
            .map(|(n, _)| *n)
            .max()
            .unwrap();
        assert!(depth_near > depth_far, "{depth_near} vs {depth_far}");
    }

    #[test]
    fn compress_reconstruct_is_identity() {
        let mra = Mra1::new(8);
        let f = gaussian(0.3, 500.0);
        let leaves = mra.project_adaptive(&f, 1e-10, 16);
        let (root, details) = mra.compress(&leaves);
        let rec = mra.reconstruct(&root, &details);
        assert_eq!(rec.len(), leaves.len());
        for (node, s) in &leaves {
            let r = &rec[node];
            for (a, b) in s.iter().zip(r) {
                assert!((a - b).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn norm_agrees_between_forms_and_analytic() {
        let mra = Mra1::new(10);
        let expnt = 800.0;
        let f = gaussian(0.5, expnt);
        let leaves = mra.project_adaptive(&f, 1e-10, 18);
        let n_leaves = Mra1::norm_leaves(&leaves);
        let (root, details) = mra.compress(&leaves);
        let n_comp = Mra1::norm_compressed(&root, &details);
        assert!((n_leaves - n_comp).abs() < 1e-10);
        // ∫ exp(−2a(x−c)²) dx = √(π/2a) for c well inside [0,1].
        let analytic = (std::f64::consts::PI / (2.0 * expnt)).sqrt().sqrt();
        assert!(
            (n_leaves - analytic).abs() < 1e-6,
            "{n_leaves} vs {analytic}"
        );
    }
}
