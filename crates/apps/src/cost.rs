//! Shared cost models mapping kernel flop counts to modelled durations for
//! the discrete-event projection.

/// Sustained per-core rate assumed by the cost models, in flops per
/// nanosecond (8 flop/ns = 8 GFLOP/s — a realistic per-core DGEMM rate for
/// the paper's EPYC/Xeon nodes). Every projected figure is pinned to this
/// constant; it is a model of those nodes, not a measurement of
/// `ttg-linalg`'s kernels, which run their real flops at whatever rate the
/// host gives (12–20 GFLOP/s per core on an AVX2 host, DESIGN §14).
pub(crate) const FLOPS_PER_NS: f64 = 8.0;

/// Modelled duration of a kernel executing `flops` floating-point ops.
pub(crate) fn ns_for_flops(flops: u64) -> u64 {
    ((flops as f64 / FLOPS_PER_NS) as u64).max(200)
}

/// Duration of an `nb³`-flavored kernel (TRSM/SYRK: `nb³` flops).
pub(crate) fn ns_cubed(nb: usize) -> u64 {
    ns_for_flops((nb * nb * nb) as u64)
}

#[cfg(test)]
mod tests {
    #[test]
    fn sane_magnitudes() {
        // A 512³ GEMM (~268 Mflop) should take tens of ms at 8 flop/ns.
        let ns = super::ns_for_flops(2 * 512 * 512 * 512);
        assert!(ns > 10_000_000 && ns < 100_000_000);
        assert_eq!(super::ns_for_flops(0), 200, "floor applies");
    }
}
