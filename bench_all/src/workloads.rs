//! The seven workloads. Each builds its inputs from the seed, computes a
//! reference result once, and then serves "reps": one public call into the
//! program, timed from call to return and verified after the clock stops.
//!
//! All run 2 ranks × 1 worker (the reference VM has two cores).
//!
//! The seed draws the *values* of every input; the *shape* of the work is a
//! fixed property of the workload. The two data-dependent applications
//! would otherwise change size with the seed (bspmm by 3×, MRA by 25 %
//! across eight seeds), and a metric compared across seeds would measure
//! the draw instead of the program: bspmm keeps one sparsity pattern and
//! draws the tile values, MRA keeps one set of trees and draws the
//! functions' amplitude and signs (the truncation threshold scales along,
//! so every tree keeps its shape).

use std::time::{Duration, Instant};

use ttg_comm::{pool, pool_stats, FaultPlan, TransportKind, TransportSpec};
use ttg_core::ExecReport;
use ttg_linalg::{Dist2D, Tile, TiledMatrix};
use ttg_sparse::BlockSparse;
use ttg_transport::RemoteHandle;

use crate::layers::Counts;
use crate::procfs::tree_cpu_s;
use crate::procs::RankChild;
use crate::spans::Spans;
use crate::wire::{sample_sum, EchoMode, EchoPair};

pub const RANKS: usize = 2;
pub const WORKERS: usize = 1;

/// Name and the reason each workload is in the set (the `why` of
/// `BENCHMARK.json`).
pub const WORKLOADS: [(&str, &str); 7] = [
    (
        "chol_compute",
        "dense Cholesky, 128-wide tiles in-process: two thirds of worker time is linalg kernels; bypass for runtime and comm changes",
    ),
    (
        "fw_fine",
        "Floyd-Warshall, 14976 tasks of an 8x8 kernel: core matching and the work-stealing pool do most of the work",
    ),
    (
        "mra_tree",
        "MRA on the madness backend: central queue, copying local pass, irregular tree, allocation-heavy",
    ),
    (
        "bspmm_tcp_reliable",
        "block-sparse GEMM over a TCP mesh under the reliable seq/ack/dedup layer with streaming terminals",
    ),
    (
        "chol_procs_uds",
        "Cholesky, 32-wide tiles as 2 OS processes over Unix sockets: message-based RMA, barrier and remote termination",
    ),
    (
        "wire_small",
        "raw fabric over UDS, 64 B windowed ping/pong under the reliable layer: per-message cost, coalescing, acks",
    ),
    (
        "wire_bulk",
        "raw fabric over UDS, 64 KiB payloads one way without a fault plan: copy-bound, the opposite regime of wire_small",
    ),
];

/// Outcome of one rep.
pub struct Rep {
    /// The user-visible time: public call to return.
    pub wall: Duration,
    /// `ExecReport.elapsed` (executor start → quiescence); equals `wall`
    /// for the raw-fabric workloads.
    pub exec: Duration,
    pub counts: Counts,
    /// Tasks executed per template (empty for the raw-fabric workloads).
    pub per_node: NodeCounts,
    /// CPU seconds the process tree (this process and the workload's rank
    /// children) used during `wall`.
    pub cpu_s: Option<f64>,
    /// Why the rep failed, if it did.
    pub error: Option<String>,
}

impl Rep {
    /// A rep that failed before anything could be measured.
    fn failed(msg: String) -> Rep {
        Rep {
            wall: Duration::ZERO,
            exec: Duration::ZERO,
            counts: Counts::zero(),
            per_node: Vec::new(),
            cpu_s: None,
            error: Some(msg),
        }
    }
}

fn cpu_between(before: Option<f64>, after: Option<f64>) -> Option<f64> {
    Some(after? - before?)
}

/// Tasks executed per template, summed over the processes of a rep.
pub type NodeCounts = Vec<(String, u64)>;

fn node_counts(report: &ExecReport) -> NodeCounts {
    report
        .per_node
        .iter()
        .map(|(name, n)| (name.to_string(), *n))
        .collect()
}

/// Where a rep's spans attach.
pub struct SpanAt<'a> {
    pub spans: &'a mut Spans,
    pub rep: usize,
    pub parent: usize,
}

impl SpanAt<'_> {
    fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.spans
            .record(name, Some(self.rep), Some(self.parent), |_, _| f())
    }
}

pub trait Workload {
    /// Run one rep. `traced` turns on the program's task/dependency
    /// recorder where the workload has one.
    fn rep(&mut self, traced: bool, at: SpanAt<'_>) -> Rep;

    /// Seconds per rep spent inside numerical kernels, computed as
    /// Σ (tasks of a template × probed time of its kernel) from a rep's
    /// task counts; `None` where the workload has no kernel model (those
    /// outside `Scope::Modelled`).
    fn kernel_s(&self, _per_node: &NodeCounts) -> Option<f64> {
        None
    }

    /// Hash of the seed-drawn inputs (differs between seeds, repeats for a
    /// seed). Not of the reference results: two of the serial references
    /// sum in hash order and differ in the last bits from run to run.
    fn digest(&self) -> u64;

    /// Rank children this workload keeps alive (for CPU and memory
    /// accounting of the process tree).
    fn children(&self) -> Vec<u32> {
        Vec::new()
    }
}

pub fn build(name: &str, seed: u64, smoke: bool) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "chol_compute" => Box::new(CholCompute::new(seed, smoke)),
        "fw_fine" => Box::new(FwFine::new(seed, smoke)),
        "mra_tree" => Box::new(MraTree::new(seed, smoke)),
        "bspmm_tcp_reliable" => Box::new(Bspmm::new(seed, smoke)),
        "chol_procs_uds" => Box::new(CholProcs::new(seed, smoke)?),
        "wire_small" => Box::new(Wire::new(seed, smoke, false)),
        "wire_bulk" => Box::new(Wire::new(seed, smoke, true)),
        other => return Err(format!("unknown workload '{other}'")),
    })
}

// ------------------------------------------------------------------ helpers

/// splitmix64: the harness's own seeded stream, so inputs do not depend on
/// which RNG the repository's generators use.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn fnv(hash: &mut u64, words: impl IntoIterator<Item = u64>) {
    for w in words {
        *hash = (*hash ^ w).wrapping_mul(0x100_0000_01b3);
    }
}

fn digest_f64s<'a>(slices: impl IntoIterator<Item = &'a [f64]>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for s in slices {
        fnv(&mut h, s.iter().map(|x| x.to_bits()));
    }
    h
}

fn bits_equal(a: &Tile, b: &Tile) -> bool {
    a.data().len() == b.data().len()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// First tile of the lower triangle (or full grid) that is not
/// bit-identical to the reference, among those `keep` selects.
fn first_mismatch(
    got: &TiledMatrix,
    want: &TiledMatrix,
    lower_only: bool,
    keep: impl Fn(usize, usize) -> bool,
) -> Option<(usize, usize)> {
    let nt = want.nt();
    (0..nt)
        .flat_map(|i| (0..if lower_only { i + 1 } else { nt }).map(move |j| (i, j)))
        .find(|&(i, j)| keep(i, j) && !bits_equal(got.tile(i, j), want.tile(i, j)))
}

/// A rep fails when the program reports communication errors or keys that
/// never matched, whatever its result looks like.
fn report_error(report: &ExecReport) -> Option<String> {
    if let Some(e) = report.comm_errors.first() {
        return Some(format!(
            "{} comm errors, first: {e}",
            report.comm_errors.len()
        ));
    }
    if !report.stuck.is_empty() {
        return Some(format!("{} stuck keys at quiescence", report.stuck.len()));
    }
    None
}

/// Time one kernel invocation: median over a few batches, each batch long
/// enough for the clock.
pub fn time_call(mut f: impl FnMut()) -> f64 {
    f();
    let mut per_call = Vec::new();
    for _ in 0..5 {
        let mut n = 0u32;
        let t = Instant::now();
        while n < 4 || t.elapsed() < Duration::from_millis(2) {
            f();
            n += 1;
        }
        per_call.push(t.elapsed().as_secs_f64() / f64::from(n));
    }
    crate::stats::median(&per_call)
}

/// Time `kernel` on a fresh copy of `tile` per call, as a task body gets
/// one. The copy is part of the task, not of the kernel: callers time it
/// alone (`|_| {}`) and subtract.
fn time_in_place(tile: &Tile, mut kernel: impl FnMut(&mut Tile)) -> f64 {
    time_call(|| {
        let mut t = tile.clone();
        kernel(&mut t);
        std::hint::black_box(&t);
    })
}

/// Σ over `kernels` of (tasks of the template × its probed time net of the
/// tile copy).
fn kernel_model(per_node: &NodeCounts, copy: f64, kernels: &[(&str, f64)]) -> f64 {
    kernels
        .iter()
        .map(|(name, t)| {
            let tasks = per_node
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |(_, c)| *c);
            tasks as f64 * (t - copy).max(0.0)
        })
        .sum()
}

/// Run an application rep: time the call, then verify under its own span.
fn app_rep<R>(
    mut at: SpanAt<'_>,
    run: impl FnOnce() -> (R, ExecReport),
    verify: impl FnOnce(&R) -> Option<String>,
) -> Rep {
    let pool_before = pool_stats();
    let cpu_before = tree_cpu_s(&[]);
    let t = Instant::now();
    let (result, report) = at.leaf("run", run);
    let wall = t.elapsed();
    let cpu_s = cpu_between(cpu_before, tree_cpu_s(&[]));
    let error = at.leaf("verify", || {
        report_error(&report).or_else(|| verify(&result))
    });
    Rep {
        wall,
        exec: report.elapsed,
        counts: Counts::from_report(&report).with_pool(pool_before, pool_stats()),
        per_node: node_counts(&report),
        cpu_s,
        error,
    }
}

// ------------------------------------------------------------- chol_compute

use ttg_apps::cholesky::ttg as chol;

fn chol_config(trace: bool, transport: TransportSpec) -> chol::Config {
    chol::Config {
        ranks: RANKS,
        workers: WORKERS,
        backend: ttg_parsec::backend(),
        trace,
        priorities: true,
        faults: None,
        transport,
    }
}

/// Kernel model of a Cholesky rep, probed on `nb`-wide tiles cut from the
/// input and its factor.
fn chol_kernel_s(a: &TiledMatrix, l: &TiledMatrix, per_node: &NodeCounts) -> f64 {
    let nt = a.nt();
    let (diag, below) = (a.tile(0, 0), a.tile(nt - 1, 0));
    let (l_kk, l_mk) = (l.tile(0, 0), l.tile(nt - 1, 0));
    let kernels = [
        (
            "POTRF",
            time_in_place(diag, |t| ttg_linalg::potrf_l(t).expect("SPD tile")),
        ),
        (
            "TRSM",
            time_in_place(below, |t| ttg_linalg::trsm_rlt(l_kk, t)),
        ),
        (
            "SYRK",
            time_in_place(diag, |t| ttg_linalg::syrk_ln(l_mk, t)),
        ),
        (
            "GEMM",
            time_in_place(below, |t| ttg_linalg::gemm_nt(-1.0, l_mk, l_mk, t)),
        ),
    ];
    kernel_model(per_node, time_in_place(below, |_| {}), &kernels)
}

struct CholCompute {
    a: TiledMatrix,
    reference: TiledMatrix,
}

impl CholCompute {
    fn new(seed: u64, smoke: bool) -> Self {
        let (nt, nb) = if smoke { (6, 64) } else { (12, 128) };
        let a = TiledMatrix::random_spd(nt, nb, seed);
        // The serial tiled factorization applies the same kernels in the
        // same per-tile order as the graph, so it is a bit-exact reference.
        let mut reference = a.clone();
        reference.potrf_reference().expect("input is SPD");
        CholCompute { a, reference }
    }
}

impl Workload for CholCompute {
    fn rep(&mut self, traced: bool, at: SpanAt<'_>) -> Rep {
        let cfg = chol_config(traced, TransportSpec::InProc);
        app_rep(
            at,
            || chol::run(&self.a, &cfg),
            |l| {
                first_mismatch(l, &self.reference, true, |_, _| true)
                    .map(|(i, j)| format!("factor tile ({i}, {j}) differs from the reference"))
            },
        )
    }

    fn kernel_s(&self, per_node: &NodeCounts) -> Option<f64> {
        Some(chol_kernel_s(&self.a, &self.reference, per_node))
    }

    fn digest(&self) -> u64 {
        digest_f64s((0..self.a.nt()).map(|i| self.a.tile(i, 0).data()))
    }
}

// ------------------------------------------------------------------ fw_fine

use ttg_apps::floyd_warshall as fw;

struct FwFine {
    graph: TiledMatrix,
    reference: TiledMatrix,
}

impl FwFine {
    fn new(seed: u64, smoke: bool) -> Self {
        let nt = if smoke { 8 } else { 24 };
        let graph = fw::random_graph(nt, 8, 0.25, seed);
        // Same four kernels in the same per-tile order: bit-exact.
        let reference = fw::blocked_reference(&graph);
        FwFine { graph, reference }
    }
}

impl Workload for FwFine {
    fn rep(&mut self, traced: bool, at: SpanAt<'_>) -> Rep {
        let cfg = fw::ttg::Config {
            ranks: RANKS,
            workers: WORKERS,
            backend: ttg_parsec::backend(),
            trace: traced,
        };
        app_rep(
            at,
            || fw::ttg::run(&self.graph, &cfg),
            |d| {
                first_mismatch(d, &self.reference, false, |_, _| true)
                    .map(|(i, j)| format!("distance tile ({i}, {j}) differs from the reference"))
            },
        )
    }

    fn kernel_s(&self, per_node: &NodeCounts) -> Option<f64> {
        // Tiles of the closed graph: every entry finite, as for almost all
        // kernel calls of a run (the graph connects within a round or two).
        let r = &self.reference;
        let (c, u, v) = (r.tile(1, 1), r.tile(1, 0), r.tile(0, 1));
        let kernels = [
            ("FW_A", time_in_place(c, fw::fw_diag)),
            ("FW_B", time_in_place(c, |t| fw::fw_row(t, u))),
            ("FW_C", time_in_place(c, |t| fw::fw_col(t, u))),
            ("FW_D", time_in_place(c, |t| fw::fw_gen(t, u, v))),
        ];
        Some(kernel_model(per_node, time_in_place(c, |_| {}), &kernels))
    }

    fn digest(&self) -> u64 {
        digest_f64s((0..self.graph.nt()).map(|i| self.graph.tile(i, 0).data()))
    }
}

// ----------------------------------------------------------------- mra_tree

use ttg_apps::mra;

struct MraTree {
    workload: mra::Workload,
    reference: mra::Reference,
}

impl MraTree {
    fn new(seed: u64, smoke: bool) -> Self {
        // The trees are those of one fixed draw of the repository's
        // generator. The seed draws one amplitude for all functions (the
        // truncation threshold scales with it, so by linearity every tree
        // keeps its shape) and a sign per function. Centres stay put: the
        // application hashes node coordinates to ranks, so moving a
        // function — even onto a mirror image — would move load between
        // ranks and change the rep time by up to 12 % from seed to seed.
        let mut workload = if smoke {
            mra::Workload::gaussians(3, 5, 400.0, 1e-4, 42)
        } else {
            mra::Workload::gaussians(6, 6, 800.0, 1e-5, 42)
        };
        let mut rng = SplitMix(seed);
        let amplitude = 0.5 + 1.5 * rng.unit();
        workload.tol *= amplitude;
        for g in workload.functions.iter_mut().flatten() {
            g.coeff = if rng.next() & 1 == 1 {
                -amplitude
            } else {
                amplitude
            };
        }
        let reference = mra::reference(&workload);
        MraTree {
            workload,
            reference,
        }
    }
}

impl Workload for MraTree {
    fn rep(&mut self, traced: bool, at: SpanAt<'_>) -> Rep {
        let cfg = mra::ttg::Config {
            ranks: RANKS,
            workers: WORKERS,
            backend: ttg_madness::backend(),
            trace: traced,
        };
        app_rep(
            at,
            || {
                let mra::ttg::MraResult {
                    norms,
                    leaves,
                    report,
                } = mra::ttg::run(&self.workload, &cfg);
                ((norms, leaves), report)
            },
            |(norms, leaves)| {
                if *leaves != self.reference.leaves {
                    return Some(format!(
                        "leaf counts {leaves:?} differ from the reference {:?}",
                        self.reference.leaves
                    ));
                }
                norms
                    .iter()
                    .zip(&self.reference.norms)
                    .position(|(got, want)| (got - want).abs() > 1e-9)
                    .map(|i| format!("norm of function {i} is off by more than 1e-9"))
            },
        )
    }

    fn digest(&self) -> u64 {
        let mut inputs: Vec<f64> = self
            .workload
            .functions
            .iter()
            .flatten()
            .map(|g| g.coeff)
            .collect();
        inputs.push(self.workload.tol);
        digest_f64s([inputs.as_slice()])
    }
}

// ------------------------------------------------------- bspmm_tcp_reliable

use ttg_apps::bspmm;

/// Largest element-wise difference between two block-sparse matrices with
/// the same tiling (an absent block is zero).
fn block_max_abs_diff(a: &BlockSparse, b: &BlockSparse) -> f64 {
    let one_sided = |x: &BlockSparse, y: &BlockSparse| {
        x.iter()
            .filter(|(&(i, j), _)| y.block(i, j).is_none())
            .flat_map(|(_, t)| t.data().iter().map(|v| v.abs()))
            .fold(0.0, f64::max)
    };
    let shared = a
        .iter()
        .filter_map(|(&(i, j), t)| Some((t, b.block(i, j)?)))
        .map(|(t, u)| t.max_abs_diff(u))
        .fold(0.0, f64::max);
    shared.max(one_sided(a, b)).max(one_sided(b, a))
}

struct Bspmm {
    a: BlockSparse,
    reference: BlockSparse,
    seed: u64,
}

impl Bspmm {
    const DROP_TOL: f64 = 1e-8;

    fn new(seed: u64, smoke: bool) -> Self {
        // One sparsity pattern (the generator's own default seed); the
        // benchmark seed rescales every tile by a factor in [0.5, 1.5).
        let mut p = ttg_sparse::YukawaParams::small();
        p.atoms = if smoke { 40 } else { 120 };
        let pattern = ttg_sparse::generate(&p).matrix;
        let mut keys: Vec<(usize, usize)> = pattern.iter().map(|(k, _)| *k).collect();
        keys.sort_unstable();
        let mut rng = SplitMix(seed);
        let mut a = BlockSparse::new(pattern.row_sizes.clone(), pattern.col_sizes.clone());
        for (i, j) in keys {
            let mut t = pattern.block(i, j).expect("listed block").clone();
            let scale = 0.5 + rng.unit();
            t.data_mut().iter_mut().for_each(|x| *x *= scale);
            a.insert(i, j, t);
        }
        let reference = a.multiply_reference(&a, Self::DROP_TOL);
        Bspmm { a, reference, seed }
    }
}

impl Workload for Bspmm {
    fn rep(&mut self, traced: bool, at: SpanAt<'_>) -> Rep {
        let cfg = bspmm::ttg::Config {
            ranks: RANKS,
            workers: WORKERS,
            backend: ttg_parsec::backend(),
            trace: traced,
            drop_tol: Self::DROP_TOL,
            // No fault is ever injected: the plan only switches the
            // reliable layer (sequence numbers, acks, retransmit timers) on.
            faults: Some(FaultPlan::seeded(self.seed)),
            transport: TransportSpec::Tcp,
        };
        app_rep(
            at,
            || bspmm::ttg::run(&self.a, &self.a, &cfg),
            |c| {
                let diff = block_max_abs_diff(c, &self.reference);
                (diff.is_nan() || diff > 1e-9)
                    .then(|| format!("product deviates from the reference by {diff:e}"))
            },
        )
    }

    fn kernel_s(&self, _per_node: &NodeCounts) -> Option<f64> {
        // One GEMM per product term; their cost is the plan's flop count
        // over the rate `gemm_nn` reaches on this matrix's typical tile.
        let t = self.a.iter().next().map(|(_, t)| t.clone())?;
        let sq = Tile::from_data(
            t.rows(),
            t.rows(),
            (0..t.rows() * t.rows()).map(|i| i as f64 * 1e-3).collect(),
        );
        let mut c = Tile::zeros(t.rows(), t.rows());
        let per_call = time_call(|| ttg_linalg::gemm_nn(1.0, &sq, &sq, &mut c));
        let rate = ttg_linalg::gemm_flops(t.rows(), t.rows(), t.rows()) as f64 / per_call;
        Some(self.a.multiply_flops(&self.a) as f64 / rate)
    }

    fn digest(&self) -> u64 {
        let mut keys: Vec<(usize, usize)> = self.a.iter().map(|(k, _)| *k).collect();
        keys.sort_unstable();
        digest_f64s(
            keys.iter()
                .take(8)
                .map(|&(i, j)| self.a.block(i, j).expect("listed block").data()),
        )
    }
}

// ----------------------------------------------------------- chol_procs_uds

/// Problem of the two-process Cholesky, shared by both ranks.
pub struct ProcsProblem {
    pub a: TiledMatrix,
    pub reference: TiledMatrix,
}

impl ProcsProblem {
    pub fn new(seed: u64, smoke: bool) -> Self {
        let (nt, nb) = if smoke { (8, 16) } else { (32, 32) };
        let a = TiledMatrix::random_spd(nt, nb, seed);
        let mut reference = a.clone();
        reference.potrf_reference().expect("input is SPD");
        ProcsProblem { a, reference }
    }

    /// One rank's part of a rep: connect into `dir`, factor, and check the
    /// tiles this rank owns bit for bit.
    pub fn run_rank(
        &self,
        me: usize,
        dir: &std::path::Path,
        traced: bool,
        tree: &[u32],
    ) -> RankRun {
        let pool_before = pool_stats();
        let started = Instant::now();
        let handle = match RemoteHandle::connect(TransportKind::Uds, me, RANKS, dir) {
            Ok(h) => h,
            Err(e) => {
                let now = Instant::now();
                return RankRun {
                    started,
                    connected: now,
                    returned: now,
                    exec: Duration::ZERO,
                    counts: Counts::zero(),
                    per_node: Vec::new(),
                    cpu_s: None,
                    error: Some(format!("rank {me} connect failed: {e}")),
                };
            }
        };
        let cfg = chol_config(traced, TransportSpec::Remote(handle));
        let cpu_before = tree_cpu_s(tree);
        let connected = Instant::now();
        let (l, report) = chol::run(&self.a, &cfg);
        let returned = Instant::now();
        let cpu_s = cpu_between(cpu_before, tree_cpu_s(tree));
        let dist = Dist2D::for_ranks(RANKS);
        let error = report_error(&report).or_else(|| {
            first_mismatch(&l, &self.reference, true, |i, j| dist.owner(i, j) == me).map(
                |(i, j)| format!("rank {me}: factor tile ({i}, {j}) differs from the reference"),
            )
        });
        RankRun {
            started,
            connected,
            returned,
            exec: report.elapsed,
            counts: Counts::from_report(&report).with_pool(pool_before, pool_stats()),
            per_node: node_counts(&report),
            cpu_s,
            error,
        }
    }
}

pub struct RankRun {
    /// Before the connect, once the mesh is up (the rep clock starts
    /// here), and when the public call returned.
    pub started: Instant,
    pub connected: Instant,
    pub returned: Instant,
    pub exec: Duration,
    pub counts: Counts,
    pub per_node: NodeCounts,
    /// CPU seconds of this process and `tree` between `connected` and
    /// `returned`.
    pub cpu_s: Option<f64>,
    pub error: Option<String>,
}

struct CholProcs {
    problem: ProcsProblem,
    child: RankChild,
    /// Parent of the per-rep rendezvous directories.
    dir: crate::procfs::TempDir,
}

impl CholProcs {
    fn new(seed: u64, smoke: bool) -> Result<Self, String> {
        let dir = crate::procfs::TempDir::create(&format!("rdv-{}", std::process::id()))
            .map_err(|e| e.to_string())?;
        // Spawn first: the child builds its copy of the problem while this
        // process builds its own.
        let mut child = RankChild::spawn(seed, smoke)?;
        let problem = ProcsProblem::new(seed, smoke);
        child.wait_ready()?;
        Ok(CholProcs {
            problem,
            child,
            dir,
        })
    }
}

impl Workload for CholProcs {
    fn rep(&mut self, traced: bool, mut at: SpanAt<'_>) -> Rep {
        // A fresh rendezvous directory per rep: stale address files of the
        // previous mesh can never be dialled.
        let sub = self.dir.path().join(format!("r{}", at.rep));
        if let Err(e) = std::fs::create_dir(&sub) {
            return Rep::failed(format!("rendezvous directory: {e}"));
        }
        if let Err(e) = self.child.start_rep(&sub, traced) {
            return Rep::failed(e);
        }
        // Rank 0 is this process. The connect is outside the rep clock,
        // which starts once the mesh is up.
        let mine = self.problem.run_rank(0, &sub, traced, &[self.child.pid()]);
        let (rep, parent) = (Some(at.rep), Some(at.parent));
        at.spans
            .add("connect", rep, parent, mine.started, mine.connected);
        at.spans
            .add("run", rep, parent, mine.connected, mine.returned);
        let theirs = at.leaf("verify", || self.child.finish_rep());
        let _ = std::fs::remove_dir_all(&sub);
        let (their_counts, their_nodes, their_error) =
            theirs.unwrap_or_else(|e| (Counts::zero(), Vec::new(), Some(e)));
        let mut per_node = mine.per_node;
        for (name, n) in &mut per_node {
            *n += their_nodes
                .iter()
                .find(|(theirs, _)| theirs == name)
                .map_or(0, |(_, c)| *c);
        }
        Rep {
            wall: mine.returned - mine.connected,
            exec: mine.exec,
            counts: mine.counts.merge(&their_counts),
            per_node,
            cpu_s: mine.cpu_s,
            error: mine.error.or(their_error),
        }
    }

    fn kernel_s(&self, per_node: &NodeCounts) -> Option<f64> {
        let p = &self.problem;
        Some(chol_kernel_s(&p.a, &p.reference, per_node))
    }

    fn digest(&self) -> u64 {
        let p = &self.problem;
        digest_f64s((0..p.a.nt()).map(|i| p.a.tile(i, 0).data()))
    }

    fn children(&self) -> Vec<u32> {
        vec![self.child.pid()]
    }
}

// ------------------------------------------------------ wire_small / _bulk

/// Ping/pong messages kept in flight.
const WINDOW: u64 = 256;

struct Wire {
    seed: u64,
    bulk: bool,
    msgs: u64,
    /// Seed-drawn message body; bytes 0..16 are overwritten per message.
    body: Vec<u8>,
}

fn word(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

/// One rep's connection and what is sent over it.
struct WireRep<'a> {
    wire: &'a Wire,
    pair: EchoPair,
}

impl Wire {
    fn new(seed: u64, smoke: bool, bulk: bool) -> Self {
        let size = if bulk { 64 * 1024 } else { 64 };
        let mut rng = SplitMix(seed);
        let body: Vec<u8> = (0..size / 8)
            .flat_map(|_| rng.next().to_le_bytes())
            .collect();
        let msgs = match (bulk, smoke) {
            (false, false) => 20_000,
            (false, true) => 2_000,
            (true, false) => 3_000,
            (true, true) => 100,
        };
        Wire {
            seed,
            bulk,
            msgs,
            body,
        }
    }

    /// A fresh two-rank UDS mesh. Every rep gets its own, brought up
    /// outside the rep clock, so no thread of the program is alive while
    /// the calibration burst runs.
    fn connect(&self) -> Result<EchoPair, String> {
        // wire_small runs the reliable layer on a lossless link with the
        // default retry policy; wire_bulk has no plan (sequence 0 path).
        let (plan, mode) = if self.bulk {
            (None, EchoMode::Last)
        } else {
            (Some(FaultPlan::seeded(self.seed)), EchoMode::Each)
        };
        EchoPair::new(&TransportSpec::Uds, plan, mode)
    }
}

impl WireRep<'_> {
    fn send(&self, index: u64) -> Result<(), String> {
        let mut m = pool::acquire(self.wire.body.len());
        m.extend_from_slice(&self.wire.body);
        m[0..8].copy_from_slice(&index.to_le_bytes());
        m[8..16].copy_from_slice(&self.wire.msgs.to_le_bytes());
        self.pair.send(m)
    }

    /// wire_small: keep `WINDOW` pings in flight until `msgs` pongs came
    /// back; every pong must be one of the pings, each exactly once.
    fn ping_pong(&mut self) -> Result<(), String> {
        let mut sent = 0;
        while sent < WINDOW.min(self.wire.msgs) {
            self.send(sent)?;
            sent += 1;
        }
        let (mut index_sum, mut body_sum) = (0u64, 0u64);
        for _ in 0..self.wire.msgs {
            let p = self.pair.recv()?;
            if p.len() != self.wire.body.len() {
                return Err(format!(
                    "pong of {} bytes, sent {}",
                    p.len(),
                    self.wire.body.len()
                ));
            }
            index_sum += word(&p, 0);
            body_sum = body_sum.wrapping_add(sample_sum(&p[16..]));
            pool::recycle(p);
            if sent < self.wire.msgs {
                self.send(sent)?;
                sent += 1;
            }
        }
        let want_body = sample_sum(&self.wire.body[16..]).wrapping_mul(self.wire.msgs);
        if index_sum != self.wire.msgs * (self.wire.msgs - 1) / 2 || body_sum != want_body {
            return Err("echoed messages do not match the pings sent".into());
        }
        Ok(())
    }

    /// wire_bulk: stream `msgs` bodies to rank 1 and wait for its single
    /// echo carrying the count and checksum of what it received.
    fn stream(&mut self) -> Result<(), String> {
        let mut want_sum = 0u64;
        let mut probe = self.wire.body.clone();
        probe[8..16].copy_from_slice(&self.wire.msgs.to_le_bytes());
        for i in 0..self.wire.msgs {
            probe[0..8].copy_from_slice(&i.to_le_bytes());
            want_sum = want_sum.wrapping_add(sample_sum(&probe));
            self.send(i)?;
        }
        let echo = self.pair.recv()?;
        if echo.len() != 16 {
            return Err(format!("final echo of {} bytes, expected 16", echo.len()));
        }
        let (count, sum) = (word(&echo, 0), word(&echo, 8));
        pool::recycle(echo);
        if count != self.wire.msgs || sum != want_sum {
            return Err(format!(
                "receiver saw {count} messages (checksum {sum:#x}), sent {} ({want_sum:#x})",
                self.wire.msgs
            ));
        }
        Ok(())
    }
}

impl Workload for Wire {
    fn rep(&mut self, _traced: bool, mut at: SpanAt<'_>) -> Rep {
        let pool_before = pool_stats();
        let pair = match at.leaf("connect", || self.connect()) {
            Ok(pair) => pair,
            Err(e) => return Rep::failed(e),
        };
        let mut rep = WireRep { wire: self, pair };
        let cpu_before = tree_cpu_s(&[]);
        let t = Instant::now();
        let outcome = at.leaf("run", || {
            if rep.wire.bulk {
                rep.stream()
            } else {
                rep.ping_pong()
            }
        });
        let wall = t.elapsed();
        let cpu_s = cpu_between(cpu_before, tree_cpu_s(&[]));
        let counts = Counts::from_stats(&rep.pair.stats()).with_pool(pool_before, pool_stats());
        let error = outcome.err().or_else(|| rep.pair.first_error());
        at.leaf("teardown", || {
            // Let the last acks and any retransmit still queued drain
            // first: an endpoint shut down with traffic in flight makes
            // its peer's writer retry a dead link, and the shutdown then
            // waits out its 2 s flush deadline (seen on ~2 % of reps,
            // once for 10 s).
            std::thread::sleep(Duration::from_millis(5));
            drop(rep);
        });
        Rep {
            wall,
            exec: wall,
            counts,
            per_node: Vec::new(),
            cpu_s,
            error,
        }
    }

    fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325;
        fnv(&mut h, self.body.iter().map(|b| u64::from(*b)));
        h
    }
}
