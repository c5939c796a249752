//! Adaptive 3-D multiwavelet representation of sums of Gaussians — the
//! workload of the paper's MRA benchmark (§III-E): order-10 multiwavelet
//! representation of 3-D Gaussians with randomly distributed centers,
//! followed by compression (fast wavelet transform), reconstruction, and a
//! norm computation for verification.
//!
//! Separability of Gaussians is exploited for projection (tensor products
//! of 1-D quadratures); compression/reconstruction use the tensorized
//! two-scale transform: the orthogonal 2k×2k filter matrix applied along
//! each of the three dimensions maps the 8 children coefficient blocks to
//! the parent s-block plus 7 detail blocks.

use std::collections::HashMap;

use ttg_comm::{ReadBuf, Wire, WireError, WireKind, WriteBuf};
use ttg_linalg::gemm_strided;

use crate::function1d::Mra1;

/// Node address in the octree: level and per-dimension translations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Node3 {
    /// Refinement level.
    pub n: u8,
    /// Translation (lx, ly, lz), each in [0, 2ⁿ).
    pub l: [u32; 3],
}

impl Node3 {
    /// The root box.
    pub fn root() -> Self {
        Node3 { n: 0, l: [0, 0, 0] }
    }

    /// Child `c ∈ [0, 8)`, bit d of `c` selecting the half along dim d.
    pub fn child(&self, c: usize) -> Node3 {
        Node3 {
            n: self.n + 1,
            l: [
                2 * self.l[0] + ((c) & 1) as u32,
                2 * self.l[1] + ((c >> 1) & 1) as u32,
                2 * self.l[2] + ((c >> 2) & 1) as u32,
            ],
        }
    }

    /// Parent node (panics at the root).
    pub fn parent(&self) -> Node3 {
        assert!(self.n > 0);
        Node3 {
            n: self.n - 1,
            l: [self.l[0] / 2, self.l[1] / 2, self.l[2] / 2],
        }
    }

    /// Which child of its parent this node is.
    pub fn child_index(&self) -> usize {
        ((self.l[0] & 1) + 2 * (self.l[1] & 1) + 4 * (self.l[2] & 1)) as usize
    }
}

impl Wire for Node3 {
    const KIND: WireKind = WireKind::Trivial;
    fn encode(&self, b: &mut WriteBuf) {
        b.put_u8(self.n);
        for d in 0..3 {
            b.put_u32(self.l[d]);
        }
    }
    fn decode(r: &mut ReadBuf<'_>) -> Result<Self, WireError> {
        let n = r.get_u8()?;
        let mut l = [0u32; 3];
        for ld in l.iter_mut() {
            *ld = r.get_u32()?;
        }
        Ok(Node3 { n, l })
    }
    fn wire_size(&self) -> usize {
        13
    }
}

/// A 3-D Gaussian `coeff · exp(−expnt · |x − center|²)` on the unit cube.
#[derive(Debug, Clone, Copy)]
pub struct Gaussian3 {
    /// Prefactor.
    pub coeff: f64,
    /// Center in [0, 1]³.
    pub center: [f64; 3],
    /// Exponent (in unit-cube coordinates).
    pub expnt: f64,
}

/// k³ coefficient block of one octree node (x fastest dimension).
pub type Coeffs3 = Vec<f64>;

/// The 3-D MRA context: basis order, 1-D machinery, tensorized filters.
#[derive(Clone)]
pub struct Mra3 {
    /// 1-D context (quadrature, filters).
    pub(crate) mra1: Mra1,
    /// Basis order.
    pub k: usize,
    /// The orthogonal 2k×2k filter matrix [H0 H1; G0 G1], row-major.
    filter: Vec<f64>,
    /// Its transpose, row-major (the filter read column-major).
    filter_t: Vec<f64>,
}

impl Mra3 {
    /// Build an order-`k` 3-D context.
    pub fn new(k: usize) -> Self {
        let mra1 = Mra1::new(k);
        let f = &mra1.filters;
        let n = 2 * k;
        let mut m = vec![0.0; n * n];
        for j in 0..k {
            for l in 0..k {
                m[j * n + l] = f.h0[j][l];
                m[j * n + k + l] = f.h1[j][l];
                m[(k + j) * n + l] = f.g0[j][l];
                m[(k + j) * n + k + l] = f.g1[j][l];
            }
        }
        let filter_t = (0..n * n).map(|i| m[i % n * n + i / n]).collect();
        Mra3 {
            k,
            mra1,
            filter: m,
            filter_t,
        }
    }

    /// Project a sum of Gaussians onto node `node` (separable quadrature).
    pub(crate) fn project_box(&self, f: &[Gaussian3], node: Node3) -> Coeffs3 {
        let k = self.k;
        let mut s = vec![0.0; k * k * k];
        // The three 1-D projections of one Gaussian: x, y, z, `k` each.
        let mut sd = vec![0.0; 3 * k];
        for g in f {
            for (d, sd_d) in sd.chunks_exact_mut(k).enumerate() {
                let c = g.center[d];
                let e = g.expnt;
                let f1 = move |x: f64| (-e * (x - c) * (x - c)).exp();
                self.mra1
                    .project_box_into(&f1, node.n, node.l[d] as u64, sd_d);
            }
            let (sx, syz) = sd.split_at(k);
            let (sy, sz) = syz.split_at(k);
            for iz in 0..k {
                for iy in 0..k {
                    let pref = g.coeff * sz[iz] * sy[iy];
                    if pref == 0.0 {
                        continue;
                    }
                    let row = &mut s[(iz * k + iy) * k..(iz * k + iy + 1) * k];
                    for ix in 0..k {
                        row[ix] += pref * sx[ix];
                    }
                }
            }
        }
        s
    }

    /// Where the rows of child `c`'s octant lie: for each of its k² rows
    /// of `k` coefficients, the row's offset in the (2k)³ tensor (block
    /// (0,0,0) — the octant of child 0 — is where a transformed tensor
    /// holds the parent's s block). The rows come in the block's own order.
    fn octant_rows(&self, c: usize) -> impl Iterator<Item = usize> {
        let (k, n) = (self.k, 2 * self.k);
        let corner = (((c >> 2) & 1) * n * n + ((c >> 1) & 1) * n + (c & 1)) * k;
        (0..k).flat_map(move |iz| (0..k).map(move |iy| corner + (iz * n + iy) * n))
    }

    /// Copy `block` (k³) into octant `c` of the (2k)³ tensor `t`.
    pub fn place_child(&self, t: &mut [f64], c: usize, block: &[f64]) {
        let k = self.k;
        assert_eq!(block.len(), k * k * k, "child block size");
        for (at, row) in self.octant_rows(c).zip(block.chunks_exact(k)) {
            t[at..at + k].copy_from_slice(row);
        }
    }

    /// Octant `c` of the (2k)³ tensor `t` as a k³ block of its own.
    fn lift_child(&self, t: &[f64], c: usize) -> Coeffs3 {
        let k = self.k;
        let mut block = Vec::with_capacity(k * k * k);
        for at in self.octant_rows(c) {
            block.extend_from_slice(&t[at..at + k]);
        }
        block
    }

    /// Forward tensor two-scale transform: 8 children blocks → the full
    /// (2k)³ transformed tensor. Block (0,0,0) is the parent s; the 7
    /// remaining blocks are detail coefficients.
    pub fn compress8(&self, children: &[Coeffs3; 8]) -> Vec<f64> {
        let n = 2 * self.k;
        let mut t = vec![0.0; n * n * n];
        for (c, block) in children.iter().enumerate() {
            self.place_child(&mut t, c, block);
        }
        self.compress_tensor(t)
    }

    /// [`Mra3::compress8`] of children already placed in their octants
    /// ([`Mra3::place_child`]).
    pub fn compress_tensor(&self, t: Vec<f64>) -> Vec<f64> {
        self.apply_filter(t, &self.filter_t, &self.filter)
    }

    /// Inverse transform: full (2k)³ tensor → 8 children blocks.
    pub fn reconstruct8(&self, full: Vec<f64>) -> [Coeffs3; 8] {
        let t = self.apply_filter(full, &self.filter, &self.filter_t);
        std::array::from_fn(|c| self.lift_child(&t, c))
    }

    /// Apply a 2k×2k matrix `M` along all 3 dimensions of `t`, given as `M`
    /// read column-major (`m_cols`, which is `Mᵀ` row-major) and row-major
    /// (`m_rows`): the filter for the forward transform, its transpose for
    /// the inverse one.
    ///
    /// With `t[z][y][x]` and `n = 2k`, each mode is a column-major product
    /// (`ttg_linalg`'s nest; DESIGN §14): every output element accumulates
    /// its `n` terms from `0.0` in ascending inner index, each a separately
    /// rounded multiply and add, and the modes run x, y, z — the result
    /// bits are those of three nested scalar loops in that order. The one
    /// tensor allocated is the one returned.
    fn apply_filter(&self, mut t: Vec<f64>, m_cols: &[f64], m_rows: &[f64]) -> Vec<f64> {
        let n = 2 * self.k;
        let (n2, n3) = (n * n, n * n * n);
        assert_eq!(t.len(), n3, "tensor size");
        // Mode-x, t → a: C(n × n²) = M·B with B[l, j] = t[j·n + l].
        let mut a = vec![0.0; n3];
        gemm_strided((n, n2, n), (m_cols, n), (&t, n, 1), (&mut a, n));
        // Mode-y, a → t, slab by slab: C(n × n) = slab·Mᵀ.
        t.fill(0.0);
        for (from, to) in a.chunks_exact(n2).zip(t.chunks_exact_mut(n2)) {
            gemm_strided((n, n, n), (from, n), (m_rows, n, 1), (to, n));
        }
        // Mode-z, t → a: C(n² × n) = T(n² × n)·Mᵀ.
        a.fill(0.0);
        gemm_strided((n2, n, n), (&t, n2), (m_rows, n, 1), (&mut a, n2));
        a
    }

    /// Sum of squares of the detail part of a transformed tensor: every
    /// element outside block (0,0,0), in storage order.
    fn detail_energy(&self, full: &[f64]) -> f64 {
        let (k, n) = (self.k, 2 * self.k);
        let mut e = 0.0;
        for (r, row) in full.chunks_exact(n).enumerate() {
            let in_s = r / n < k && r % n < k;
            for x in &row[if in_s { k } else { 0 }..] {
                e += x * x;
            }
        }
        e
    }

    /// Extract the parent s-block (k³) from a transformed tensor and the
    /// detail tensor (the same tensor with the s-block zeroed).
    pub fn split_sd(&self, mut full: Vec<f64>) -> (Coeffs3, Vec<f64>) {
        let s = self.lift_child(&full, 0);
        for at in self.octant_rows(0) {
            full[at..at + self.k].fill(0.0);
        }
        (s, full)
    }

    /// Merge a parent s-block back into a detail tensor (inverse of
    /// [`Mra3::split_sd`]).
    pub fn merge_sd(&self, s: &Coeffs3, mut d: Vec<f64>) -> Vec<f64> {
        self.place_child(&mut d, 0, s);
        d
    }

    /// Adaptive projection of a Gaussian sum: returns the leaf map.
    pub fn project_adaptive(
        &self,
        f: &[Gaussian3],
        tol: f64,
        max_depth: u8,
    ) -> HashMap<Node3, Coeffs3> {
        let mut leaves = HashMap::new();
        self.refine(f, Node3::root(), tol, max_depth, &mut leaves);
        leaves
    }

    /// Refinement decision for one box: project the 8 children, compress,
    /// and measure the detail norm. Returns (children, detail_norm).
    pub fn project_children(&self, f: &[Gaussian3], node: Node3) -> ([Coeffs3; 8], f64) {
        let mut children: [Coeffs3; 8] = Default::default();
        for (c, child) in children.iter_mut().enumerate() {
            *child = self.project_box(f, node.child(c));
        }
        let dn = self.detail_energy(&self.compress8(&children)).sqrt();
        (children, dn)
    }

    fn refine(
        &self,
        f: &[Gaussian3],
        node: Node3,
        tol: f64,
        max_depth: u8,
        leaves: &mut HashMap<Node3, Coeffs3>,
    ) {
        let (children, dn) = self.project_children(f, node);
        if dn <= tol || node.n + 1 >= max_depth {
            for (c, block) in children.into_iter().enumerate() {
                leaves.insert(node.child(c), block);
            }
        } else {
            for c in 0..8 {
                self.refine(f, node.child(c), tol, max_depth, leaves);
            }
        }
    }

    /// Bottom-up compression of a leaf map: root s + per-node details.
    pub fn compress(
        &self,
        leaves: &HashMap<Node3, Coeffs3>,
    ) -> (Coeffs3, HashMap<Node3, Vec<f64>>) {
        let n = 2 * self.k;
        // The s blocks computed on the way up; a leaf's is read in place.
        let mut s_at: HashMap<Node3, Coeffs3> = HashMap::new();
        let mut details = HashMap::new();
        let mut max_n = leaves.keys().map(|nd| nd.n).max().unwrap_or(0);
        while max_n > 0 {
            let level = leaves.keys().chain(s_at.keys());
            let mut parents: Vec<Node3> = level
                .filter(|nd| nd.n == max_n)
                .map(|nd| nd.parent())
                .collect();
            parents.sort_unstable();
            parents.dedup();
            for p in parents {
                // A child that is neither is absent: its octant stays zero.
                let mut t = vec![0.0; n * n * n];
                for c in 0..8 {
                    let child = p.child(c);
                    let computed = s_at.remove(&child);
                    if let Some(block) = computed.as_ref().or_else(|| leaves.get(&child)) {
                        self.place_child(&mut t, c, block);
                    }
                }
                let (s, d) = self.split_sd(self.compress_tensor(t));
                details.insert(p, d);
                s_at.insert(p, s);
            }
            max_n -= 1;
        }
        let root = s_at
            .remove(&Node3::root())
            .or_else(|| leaves.get(&Node3::root()).cloned())
            .unwrap_or_else(|| vec![0.0; self.k * self.k * self.k]);
        (root, details)
    }

    /// Top-down reconstruction (inverse of [`Mra3::compress`]).
    pub fn reconstruct(
        &self,
        root: &Coeffs3,
        details: &HashMap<Node3, Vec<f64>>,
    ) -> HashMap<Node3, Coeffs3> {
        let mut leaves = HashMap::new();
        self.reconstruct_node(Node3::root(), root.clone(), details, &mut leaves);
        leaves
    }

    fn reconstruct_node(
        &self,
        node: Node3,
        s: Coeffs3,
        details: &HashMap<Node3, Vec<f64>>,
        leaves: &mut HashMap<Node3, Coeffs3>,
    ) {
        match details.get(&node) {
            None => {
                leaves.insert(node, s);
            }
            Some(d) => {
                let children = self.reconstruct8(self.merge_sd(&s, d.clone()));
                for (c, block) in children.into_iter().enumerate() {
                    self.reconstruct_node(node.child(c), block, details, leaves);
                }
            }
        }
    }

    /// L² norm from leaves.
    pub fn norm_leaves(leaves: &HashMap<Node3, Coeffs3>) -> f64 {
        leaves
            .values()
            .map(|s| s.iter().map(|x| x * x).sum::<f64>())
            .sum::<f64>()
            .sqrt()
    }
}

/// Generate `count` random Gaussians in the style of the paper's benchmark
/// (centers uniformly in the unit cube with clustering, fixed exponent).
pub fn random_gaussians(count: usize, expnt: f64, seed: u64) -> Vec<Gaussian3> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    // A few attraction points produce the clustering (and hence load
    // imbalance) the paper calls out.
    let attractors: Vec<[f64; 3]> = (0..4)
        .map(|_| {
            [
                rng.gen_range(0.2..0.8),
                rng.gen_range(0.2..0.8),
                rng.gen_range(0.2..0.8),
            ]
        })
        .collect();
    (0..count)
        .map(|i| {
            let a = attractors[i % attractors.len()];
            let spread = 0.12;
            Gaussian3 {
                coeff: 1.0,
                center: [
                    (a[0] + rng.gen_range(-spread..spread)).clamp(0.05, 0.95),
                    (a[1] + rng.gen_range(-spread..spread)).clamp(0.05, 0.95),
                    (a[2] + rng.gen_range(-spread..spread)).clamp(0.05, 0.95),
                ],
                expnt: expnt * rng.gen_range(0.8..1.2),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Evaluate `g` at a point.
    fn eval(g: &Gaussian3, x: [f64; 3]) -> f64 {
        let r2 = (0..3).map(|d| (x[d] - g.center[d]).powi(2)).sum::<f64>();
        g.coeff * (-g.expnt * r2).exp()
    }

    /// L² norm from compressed form.
    fn norm_compressed(root: &Coeffs3, details: &HashMap<Node3, Vec<f64>>) -> f64 {
        let e: f64 = root.iter().map(|x| x * x).sum::<f64>()
            + details
                .values()
                .map(|d| d.iter().map(|x| x * x).sum::<f64>())
                .sum::<f64>();
        e.sqrt()
    }

    #[test]
    fn node_addressing() {
        let root = Node3::root();
        let c5 = root.child(5); // bits: x=1, y=0, z=1
        assert_eq!(c5.n, 1);
        assert_eq!(c5.l, [1, 0, 1]);
        assert_eq!(c5.parent(), root);
        assert_eq!(c5.child_index(), 5);
    }

    #[test]
    fn compress8_reconstruct8_roundtrip() {
        let mra = Mra3::new(4);
        let k3 = 64;
        let mut children: [Coeffs3; 8] = Default::default();
        for (c, block) in children.iter_mut().enumerate() {
            *block = (0..k3)
                .map(|i| ((c * k3 + i) as f64 * 0.37).sin())
                .collect();
        }
        let full = mra.compress8(&children);
        let rec = mra.reconstruct8(full.clone());
        for c in 0..8 {
            for i in 0..k3 {
                assert!((children[c][i] - rec[c][i]).abs() < 1e-12);
            }
        }
        // Energy preserved by orthogonality.
        let e_in: f64 = children.iter().flatten().map(|x| x * x).sum();
        let e_out: f64 = full.iter().map(|x| x * x).sum();
        assert!((e_in - e_out).abs() < 1e-9);
    }

    /// The kernel-backed transform against the scalar loops it replaced,
    /// forward and inverse. 2k = 10 and 14 walk the row ladder's 4/2/1
    /// rungs; the zeros, denormals and the infinity catch a term skipped
    /// for being zero (`0 · ∞` must poison what the loops poison).
    #[test]
    fn transform_matches_the_scalar_loops_bit_for_bit() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(14);
        for k in [3, 5, 6, 7, 10] {
            let mra = Mra3::new(k);
            let n = 2 * k;
            for inf in [None, Some(f64::INFINITY), Some(f64::NEG_INFINITY)] {
                let mut t: Vec<f64> = (0..n * n * n)
                    .map(|i| match i % 7 {
                        2 => -0.0,
                        3 => 0.0,
                        5 => f64::MIN_POSITIVE * rng.gen_range(-1.0..1.0),
                        _ => rng.gen_range(-1.0..1.0),
                    })
                    .collect();
                if let Some(inf) = inf {
                    t[rng.gen_range(0..n * n * n)] = inf;
                }
                let forward = (&mra.filter_t, &mra.filter, false);
                let inverse = (&mra.filter, &mra.filter_t, true);
                for (m_cols, m_rows, transpose) in [forward, inverse] {
                    let want = crate::scalar::apply_filter(&mra.filter, n, &t, transpose);
                    let got = mra.apply_filter(t.clone(), m_cols, m_rows);
                    for (at, (g, w)) in got.iter().zip(&want).enumerate() {
                        assert!(
                            g.to_bits() == w.to_bits(),
                            "k = {k}, transpose = {transpose}, inf = {inf:?}: \
                             element {at} is {g:e}, the scalar loops give {w:e}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn separable_projection_matches_pointwise_evaluation() {
        let mra = Mra3::new(10);
        let g = Gaussian3 {
            coeff: 2.0,
            center: [0.5, 0.45, 0.55],
            expnt: 2.0,
        };
        let node = Node3::root();
        let s = mra.project_box(&[g], node);
        // Evaluate the expansion at a point and compare with the Gaussian.
        let x = [0.52, 0.47, 0.5];
        let k = mra.k;
        let px = crate::legendre::phi(k, x[0]);
        let py = crate::legendre::phi(k, x[1]);
        let pz = crate::legendre::phi(k, x[2]);
        let mut v = 0.0;
        for iz in 0..k {
            for iy in 0..k {
                for ix in 0..k {
                    v += s[(iz * k + iy) * k + ix] * px[ix] * py[iy] * pz[iz];
                }
            }
        }
        assert!((v - eval(&g, x)).abs() < 1e-5, "{v} vs {}", eval(&g, x));
    }

    #[test]
    fn adaptive_3d_project_compress_reconstruct_norm() {
        let mra = Mra3::new(6);
        let f = vec![
            Gaussian3 {
                coeff: 1.0,
                center: [0.3, 0.3, 0.3],
                expnt: 300.0,
            },
            Gaussian3 {
                coeff: -0.5,
                center: [0.7, 0.6, 0.6],
                expnt: 200.0,
            },
        ];
        let leaves = mra.project_adaptive(&f, 1e-6, 8);
        assert!(leaves.len() >= 8);
        let (root, details) = mra.compress(&leaves);
        let rec = mra.reconstruct(&root, &details);
        assert_eq!(rec.len(), leaves.len());
        let mut max_diff = 0.0f64;
        for (node, s) in &leaves {
            for (a, b) in s.iter().zip(&rec[node]) {
                max_diff = max_diff.max((a - b).abs());
            }
        }
        assert!(max_diff < 1e-10, "roundtrip diff {max_diff}");
        let n1 = Mra3::norm_leaves(&leaves);
        let n2 = norm_compressed(&root, &details);
        assert!((n1 - n2).abs() < 1e-10);
        assert!(n1 > 0.0);
    }

    #[test]
    fn random_gaussians_deterministic_and_in_bounds() {
        let a = random_gaussians(50, 1000.0, 3);
        let b = random_gaussians(50, 1000.0, 3);
        assert_eq!(a.len(), 50);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.center, y.center);
        }
        for g in &a {
            for d in 0..3 {
                assert!(g.center[d] > 0.0 && g.center[d] < 1.0);
            }
        }
    }
}
