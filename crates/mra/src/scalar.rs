//! The two-scale transform as the three nested scalar loops it was before
//! it ran on `ttg-linalg`'s micro-kernel, kept as the test oracle: the
//! kernel-backed `Mra3::apply_filter` must agree with them bit for bit.

/// Apply the row-major `n × n` matrix `m` (or its transpose) along all 3
/// dimensions of the `n³` tensor `t`.
pub(crate) fn apply_filter(m: &[f64], n: usize, t: &[f64], transpose: bool) -> Vec<f64> {
    let mat = |a: usize, b: usize| {
        if transpose {
            m[b * n + a]
        } else {
            m[a * n + b]
        }
    };
    // Mode-x
    let mut t1 = vec![0.0; n * n * n];
    for z in 0..n {
        for y in 0..n {
            let base = z * n * n + y * n;
            for a in 0..n {
                let mut acc = 0.0;
                for b in 0..n {
                    acc += mat(a, b) * t[base + b];
                }
                t1[base + a] = acc;
            }
        }
    }
    // Mode-y
    let mut t2 = vec![0.0; n * n * n];
    for z in 0..n {
        for x in 0..n {
            for a in 0..n {
                let mut acc = 0.0;
                for b in 0..n {
                    acc += mat(a, b) * t1[z * n * n + b * n + x];
                }
                t2[z * n * n + a * n + x] = acc;
            }
        }
    }
    // Mode-z
    let mut t3 = vec![0.0; n * n * n];
    for y in 0..n {
        for x in 0..n {
            for a in 0..n {
                let mut acc = 0.0;
                for b in 0..n {
                    acc += mat(a, b) * t2[b * n * n + y * n + x];
                }
                t3[a * n * n + y * n + x] = acc;
            }
        }
    }
    t3
}
