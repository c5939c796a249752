//! `ttg-launch`: multi-process launcher for TTG applications (DESIGN §9).
//!
//! The parent process spawns one OS process per rank (re-executing its own
//! binary in child mode), hands each a file-based rendezvous directory, and
//! waits under a watchdog. Every child connects its rank through
//! [`RemoteHandle::connect`], runs the *same* SPMD application code with
//! `TransportSpec::Remote`, and writes the tiles its rank owns to
//! `result-rank{r}.bin`. The parent then runs the identical problem on the
//! in-process fabric and checks the union of the children's tiles against
//! that reference — bit-exact for Cholesky (fixed accumulation chains),
//! within 1e-9 for BSPMM (streaming-reducer fold order is arrival order).
//!
//! ```text
//! ttg-launch --ranks 4 --transport uds cholesky
//! ttg-launch --ranks 4 --transport tcp bspmm
//! ```

use std::collections::HashMap;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::time::{Duration, Instant};

use ttg_comm::{FaultPlan, TransportSpec};
use ttg_linalg::{Dist2D, Tile, TiledMatrix};
use ttg_sparse::{generate, YukawaParams};
use ttg_transport::{RemoteHandle, TransportKind};

const ENV_RANK: &str = "TTG_LAUNCH_RANK";
const ENV_RANKS: &str = "TTG_LAUNCH_RANKS";
const ENV_DIR: &str = "TTG_LAUNCH_DIR";
const ENV_TRANSPORT: &str = "TTG_LAUNCH_TRANSPORT";
const ENV_APP: &str = "TTG_LAUNCH_APP";
const ENV_WORKERS: &str = "TTG_LAUNCH_WORKERS";
const ENV_NT: &str = "TTG_LAUNCH_NT";
const ENV_NB: &str = "TTG_LAUNCH_NB";
const ENV_FAULTS: &str = "TTG_LAUNCH_FAULTS";

/// Seed shared by every process so parent and children build the same input.
const INPUT_SEED: u64 = 42;

fn main() {
    if std::env::var_os(ENV_RANK).is_some() {
        child_main();
    } else {
        parent_main();
    }
}

// ---------------------------------------------------------------- options

struct Opts {
    app: String,
    ranks: usize,
    workers: usize,
    transport: TransportKind,
    nt: usize,
    nb: usize,
    timeout: Duration,
    /// Fault spec forwarded verbatim to every child (`FaultPlan::parse`
    /// syntax). Remote mode accepts targeted `kill=r@n` scripts only;
    /// probabilistic faults are refused up front — the fabric would
    /// reject them with a TTG045 anyway, but failing in the parent gives
    /// one clear message instead of N child stack traces.
    faults: String,
}

fn usage() -> ! {
    eprintln!(
        "usage: ttg-launch [--ranks N] [--workers W] [--transport tcp|uds] \
         [--nt T] [--nb B] [--timeout-secs S] [--faults SPEC] {{cholesky|bspmm}}\n\
         SPEC is FaultPlan syntax, e.g. seed=7,kill=1@200,recover=64 — \
         remote mode accepts kill=r@n scripts only (no drop/dup/reorder/delay)"
    );
    std::process::exit(2);
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        app: String::new(),
        ranks: 4,
        workers: 2,
        transport: TransportKind::Uds,
        nt: 8,
        nb: 16,
        timeout: Duration::from_secs(240),
        faults: String::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut take = |what: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("{what} expects a value");
                usage()
            })
        };
        match a.as_str() {
            "--ranks" => opts.ranks = parse_num(&take("--ranks")),
            "--workers" => opts.workers = parse_num(&take("--workers")),
            "--nt" => opts.nt = parse_num(&take("--nt")),
            "--nb" => opts.nb = parse_num(&take("--nb")),
            "--timeout-secs" => {
                opts.timeout = Duration::from_secs(parse_num(&take("--timeout-secs")) as u64)
            }
            "--faults" => opts.faults = take("--faults"),
            "--transport" => {
                let v = take("--transport");
                match TransportKind::parse(&v) {
                    Some(TransportKind::InProc) | None => {
                        eprintln!("--transport must be tcp or uds for a multi-process job");
                        usage();
                    }
                    Some(k) => opts.transport = k,
                }
            }
            "--help" | "-h" => usage(),
            app if !app.starts_with('-') && opts.app.is_empty() => opts.app = app.to_string(),
            other => {
                eprintln!("unknown argument '{other}'");
                usage();
            }
        }
    }
    if opts.app != "cholesky" && opts.app != "bspmm" {
        eprintln!("application must be 'cholesky' or 'bspmm'");
        usage();
    }
    if opts.ranks == 0 {
        eprintln!("--ranks must be at least 1");
        usage();
    }
    if !opts.faults.is_empty() {
        match FaultPlan::parse(&opts.faults) {
            Err(e) => {
                eprintln!("ttg-launch: {e}");
                usage();
            }
            Ok(plan) => {
                if !plan.is_kill_only() {
                    eprintln!(
                        "ttg-launch: probabilistic faults (drop/dup/reorder/delay) have no \
                         meaning over a kernel-reliable socket and are refused in remote \
                         mode (TTG045); use kill=r@n scripts"
                    );
                    usage();
                }
                if plan.kills.iter().any(|k| k.rank == 0) {
                    eprintln!(
                        "ttg-launch: kill=0 is not recoverable in remote mode: rank 0 \
                         coordinates the job (TTG045)"
                    );
                    usage();
                }
                if let Some(k) = plan.kills.iter().find(|k| k.rank >= opts.ranks) {
                    eprintln!(
                        "ttg-launch: kill={}@{} targets a rank outside --ranks {}",
                        k.rank, k.after_packets, opts.ranks
                    );
                    usage();
                }
            }
        }
    }
    opts
}

/// The fault spec with every `kill=` field removed: the relaunched job
/// must not re-fire the script and die again.
fn strip_kills(spec: &str) -> String {
    spec.split(',')
        .filter(|f| !f.trim_start().starts_with("kill="))
        .collect::<Vec<_>>()
        .join(",")
}

fn parse_num(s: &str) -> usize {
    s.parse().unwrap_or_else(|_| {
        eprintln!("'{s}' is not a number");
        usage()
    })
}

// ----------------------------------------------------------------- parent

fn parent_main() {
    let opts = parse_opts();
    let dir = rendezvous_dir().unwrap_or_else(|e| {
        eprintln!("ttg-launch: cannot create rendezvous directory: {e}");
        std::process::exit(1);
    });
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("ttg-launch: cannot locate own binary: {e}");
        std::process::exit(1);
    });
    println!(
        "ttg-launch: {} on {} ranks over {}, rendezvous {}",
        opts.app,
        opts.ranks,
        opts.transport,
        dir.display()
    );

    let mut faults = opts.faults.clone();
    let mut outcome = run_job(&opts, &exe, &dir, &faults);
    if let JobOutcome::RankDied(r) = outcome {
        if faults.contains("kill=") {
            // Remote recovery is job-level restart (DESIGN §13): the
            // in-process fabric restores a rank from its snapshot, but a
            // dead OS process takes its address space with it, so the
            // parent reaps the whole job, clears every stale per-rank
            // result, and re-runs once with the kill script stripped.
            let mut removed = 0usize;
            for t in 0..opts.ranks {
                let f = dir.join(format!("result-rank{t}.bin"));
                if f.exists() {
                    let _ = std::fs::remove_file(&f);
                    removed += 1;
                }
            }
            // The rendezvous dir also holds attempt-1 socket/addr files
            // whose peers are dead; start attempt 2 from an empty dir.
            let _ = std::fs::remove_dir_all(&dir);
            if let Err(e) = std::fs::create_dir(&dir) {
                eprintln!("ttg-launch: cannot recreate rendezvous directory: {e}");
                std::process::exit(1);
            }
            faults = strip_kills(&faults);
            println!(
                "ttg-launch: rank {r} died; recovering the job — reaped all children, \
                 removed {removed} stale result files, relaunching without kill scripts"
            );
            outcome = run_job(&opts, &exe, &dir, &faults);
        }
    }
    match outcome {
        JobOutcome::AllExited => {}
        JobOutcome::RankDied(_) | JobOutcome::WatchdogExpired => {
            eprintln!("ttg-launch: at least one rank failed; skipping verification");
            let _ = std::fs::remove_dir_all(&dir);
            std::process::exit(1);
        }
    }

    let ok = match opts.app.as_str() {
        "cholesky" => verify_cholesky(&dir, &opts),
        _ => verify_bspmm(&dir, &opts),
    };
    let _ = std::fs::remove_dir_all(&dir);
    if !ok {
        std::process::exit(1);
    }
    println!(
        "ttg-launch: {} across {} processes over {} matches the single-process run",
        opts.app, opts.ranks, opts.transport
    );
}

enum JobOutcome {
    /// Every rank exited cleanly.
    AllExited,
    /// This rank exited abnormally (scripted kill, crash); the rest of
    /// the job was killed and reaped — no zombies survive this variant.
    RankDied(usize),
    /// The watchdog expired; the remaining ranks were killed and reaped.
    WatchdogExpired,
}

/// Spawn one child per rank and babysit them until they all exit, a rank
/// dies, or the watchdog fires. On any non-clean outcome every remaining
/// child is killed and waited on before returning.
fn run_job(opts: &Opts, exe: &Path, dir: &Path, faults: &str) -> JobOutcome {
    let mut children: Vec<Child> = Vec::with_capacity(opts.ranks);
    for r in 0..opts.ranks {
        let mut cmd = Command::new(exe);
        cmd.env(ENV_RANK, r.to_string())
            .env(ENV_RANKS, opts.ranks.to_string())
            .env(ENV_DIR, dir)
            .env(ENV_TRANSPORT, opts.transport.to_string())
            .env(ENV_APP, &opts.app)
            .env(ENV_WORKERS, opts.workers.to_string())
            .env(ENV_NT, opts.nt.to_string())
            .env(ENV_NB, opts.nb.to_string());
        if !faults.is_empty() {
            cmd.env(ENV_FAULTS, faults);
        }
        match cmd.spawn() {
            Ok(c) => children.push(c),
            Err(e) => {
                eprintln!("ttg-launch: spawn of rank {r} failed: {e}");
                reap(&mut children);
                return JobOutcome::RankDied(r);
            }
        }
    }

    // Watchdog: a hung rank (lost handshake, deadlocked termination) must
    // fail the launch, not wedge it.
    let deadline = Instant::now() + opts.timeout;
    let mut pending: Vec<(usize, Child)> = children.drain(..).enumerate().collect();
    while !pending.is_empty() {
        if Instant::now() > deadline {
            eprintln!(
                "ttg-launch: watchdog expired after {:?}; killing {} remaining ranks",
                opts.timeout,
                pending.len()
            );
            let mut rest: Vec<Child> = pending.into_iter().map(|(_, c)| c).collect();
            reap(&mut rest);
            return JobOutcome::WatchdogExpired;
        }
        let mut died: Option<usize> = None;
        pending.retain_mut(|(r, c)| match c.try_wait() {
            Ok(Some(status)) => {
                if !status.success() {
                    eprintln!("ttg-launch: rank {r} exited with {status}");
                    died.get_or_insert(*r);
                }
                false
            }
            Ok(None) => true,
            Err(e) => {
                eprintln!("ttg-launch: waiting on rank {r} failed: {e}");
                died.get_or_insert(*r);
                false
            }
        });
        if let Some(r) = died {
            // A dead rank can never reach quiescence, so don't make its
            // peers grind through retry budgets: take the job down now.
            let mut rest: Vec<Child> = pending.into_iter().map(|(_, c)| c).collect();
            reap(&mut rest);
            return JobOutcome::RankDied(r);
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    JobOutcome::AllExited
}

fn reap(children: &mut [Child]) {
    for c in children.iter_mut() {
        let _ = c.kill();
    }
    for c in children.iter_mut() {
        let _ = c.wait();
    }
}

fn rendezvous_dir() -> std::io::Result<PathBuf> {
    let base = std::env::temp_dir();
    for salt in 0.. {
        let dir = base.join(format!("ttg-launch-{}-{salt}", std::process::id()));
        match std::fs::create_dir(&dir) {
            Ok(()) => return Ok(dir),
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
            Err(e) => return Err(e),
        }
    }
    unreachable!()
}

/// Cholesky: the accumulation chains fix the floating-point order, so the
/// multi-process factor must match the in-process one bit for bit.
fn verify_cholesky(dir: &Path, opts: &Opts) -> bool {
    let a = TiledMatrix::random_spd(opts.nt, opts.nb, INPUT_SEED);
    let (l_ref, _) =
        ttg_apps::cholesky::ttg::run(&a, &cholesky_cfg(opts, TransportSpec::InProc, None));

    let mut seen = 0usize;
    for r in 0..opts.ranks {
        let recs = match read_records(&dir.join(format!("result-rank{r}.bin"))) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("ttg-launch: reading rank {r} results failed: {e}");
                return false;
            }
        };
        for rec in &recs {
            let reference = l_ref.tile(rec.i, rec.j);
            if reference.data().len() != rec.data.len()
                || reference
                    .data()
                    .iter()
                    .zip(&rec.data)
                    .any(|(x, y)| x.to_bits() != y.to_bits())
            {
                eprintln!(
                    "ttg-launch: tile ({}, {}) from rank {r} differs from the \
                     single-process factor",
                    rec.i, rec.j
                );
                return false;
            }
        }
        seen += recs.len();
    }
    let expect = opts.nt * (opts.nt + 1) / 2;
    if seen != expect {
        eprintln!("ttg-launch: {seen} factor tiles collected, expected {expect}");
        return false;
    }
    println!("ttg-launch: {seen} factor tiles bit-identical across ranks");
    true
}

/// BSPMM: each C(i,j) accumulator folds a fixed multiset of GEMM products
/// in arrival order, so compare within a tight tolerance and require the
/// exact same set of product tiles.
fn verify_bspmm(dir: &Path, opts: &Opts) -> bool {
    let y = generate(&bspmm_params());
    let a = &y.matrix;
    let (c_ref, _) = ttg_apps::bspmm::ttg::run(a, a, &bspmm_cfg(opts, TransportSpec::InProc, None));
    let reference: HashMap<(usize, usize), &Tile> = c_ref.iter().map(|(&k, t)| (k, t)).collect();

    let mut seen = 0usize;
    for r in 0..opts.ranks {
        let recs = match read_records(&dir.join(format!("result-rank{r}.bin"))) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("ttg-launch: reading rank {r} results failed: {e}");
                return false;
            }
        };
        for rec in &recs {
            let Some(reference) = reference.get(&(rec.i, rec.j)) else {
                eprintln!(
                    "ttg-launch: rank {r} produced tile ({}, {}) absent from the \
                     single-process product",
                    rec.i, rec.j
                );
                return false;
            };
            let worst = reference
                .data()
                .iter()
                .zip(&rec.data)
                .map(|(x, y)| (x - y).abs())
                .fold(0.0f64, f64::max);
            if reference.data().len() != rec.data.len() || worst > 1e-9 {
                eprintln!(
                    "ttg-launch: tile ({}, {}) from rank {r} deviates by {worst:.3e}",
                    rec.i, rec.j
                );
                return false;
            }
        }
        seen += recs.len();
    }
    if seen != reference.len() {
        eprintln!(
            "ttg-launch: {seen} product tiles collected, expected {}",
            reference.len()
        );
        return false;
    }
    println!("ttg-launch: {seen} product tiles match across ranks");
    true
}

// ------------------------------------------------------------------ child

fn child_env(name: &str) -> String {
    std::env::var(name).unwrap_or_else(|_| {
        eprintln!("ttg-launch child: {name} not set");
        std::process::exit(2);
    })
}

fn child_main() {
    let me: usize = parse_num(&child_env(ENV_RANK));
    let opts = Opts {
        app: child_env(ENV_APP),
        ranks: parse_num(&child_env(ENV_RANKS)),
        workers: parse_num(&child_env(ENV_WORKERS)),
        transport: TransportKind::parse(&child_env(ENV_TRANSPORT)).unwrap_or_else(|| {
            eprintln!("ttg-launch child: bad {ENV_TRANSPORT}");
            std::process::exit(2);
        }),
        nt: parse_num(&child_env(ENV_NT)),
        nb: parse_num(&child_env(ENV_NB)),
        timeout: Duration::ZERO,
        faults: String::new(),
    };
    let dir = PathBuf::from(child_env(ENV_DIR));
    let faults = std::env::var(ENV_FAULTS).ok().map(|spec| {
        FaultPlan::parse(&spec).unwrap_or_else(|e| {
            eprintln!("ttg-launch child rank {me}: {e}");
            std::process::exit(2);
        })
    });

    let handle = RemoteHandle::connect(opts.transport, me, opts.ranks, &dir).unwrap_or_else(|e| {
        eprintln!("ttg-launch child rank {me}: transport bring-up failed: {e}");
        std::process::exit(3);
    });
    let spec = TransportSpec::Remote(handle);

    let (records, report) = match opts.app.as_str() {
        "cholesky" => {
            let a = TiledMatrix::random_spd(opts.nt, opts.nb, INPUT_SEED);
            let (l, report) = ttg_apps::cholesky::ttg::run(&a, &cholesky_cfg(&opts, spec, faults));
            // Keep the lower-triangle tiles this rank owns; the rest of the
            // local output matrix stayed zero (their RESULT ran elsewhere).
            let dist = Dist2D::for_ranks(opts.ranks);
            let mut recs = Vec::new();
            for i in 0..opts.nt {
                for j in 0..=i {
                    if dist.owner(i, j) == me {
                        recs.push(record(i, j, l.tile(i, j)));
                    }
                }
            }
            (recs, report)
        }
        _ => {
            let y = generate(&bspmm_params());
            let a = &y.matrix;
            let (c, report) = ttg_apps::bspmm::ttg::run(a, a, &bspmm_cfg(&opts, spec, faults));
            // In remote mode the product holds exactly the tiles this rank
            // accumulated.
            let recs = c.iter().map(|(&(i, j), t)| record(i, j, t)).collect();
            (recs, report)
        }
    };

    if !report.comm_errors.is_empty() {
        for e in &report.comm_errors {
            eprintln!("ttg-launch child rank {me}: comm error: {e}");
        }
        std::process::exit(4);
    }
    if !report.stuck.is_empty() {
        eprintln!(
            "ttg-launch child rank {me}: {} stuck keys at quiescence",
            report.stuck.len()
        );
        std::process::exit(5);
    }

    if let Err(e) = write_records(&dir.join(format!("result-rank{me}.bin")), &records) {
        eprintln!("ttg-launch child rank {me}: writing results failed: {e}");
        std::process::exit(6);
    }
    // CI's multiproc-smoke gates on the wire part: between processes every
    // value rides in its AM (`rma_gets=0`, payload bytes in `am_bytes`).
    println!(
        "ttg-launch child rank {me}: {} tasks, {} owned tiles, {} B over the wire, \
         am_count={} am_bytes={} rma_gets={} am_deliver_p50_us<={} am_deliver_p99_us<={} \
         send_queue_bytes_hwm={} tx_direct_frames={} rx_direct_frames={} kernels={}",
        report.tasks,
        records.len(),
        report.comm.transport_tx_bytes,
        report.comm.am_count,
        report.comm.am_bytes,
        report.comm.rma_gets,
        report.comm.am_deliver_p50_ns.div_ceil(1_000),
        report.comm.am_deliver_p99_ns.div_ceil(1_000),
        report.comm.transport_queue_bytes_hwm,
        report.comm.transport_tx_direct_frames,
        report.comm.transport_rx_direct_frames,
        ttg_linalg::isa()
    );
}

fn cholesky_cfg(
    opts: &Opts,
    transport: TransportSpec,
    faults: Option<FaultPlan>,
) -> ttg_apps::cholesky::ttg::Config {
    ttg_apps::cholesky::ttg::Config {
        ranks: opts.ranks,
        workers: opts.workers,
        backend: ttg_parsec::backend(),
        trace: false,
        priorities: true,
        faults,
        transport,
    }
}

fn bspmm_cfg(
    opts: &Opts,
    transport: TransportSpec,
    faults: Option<FaultPlan>,
) -> ttg_apps::bspmm::ttg::Config {
    ttg_apps::bspmm::ttg::Config {
        ranks: opts.ranks,
        workers: opts.workers,
        backend: ttg_parsec::backend(),
        trace: false,
        // Zero drop tolerance: every planned product tile is kept, so the
        // multi-process union must equal the reference key set exactly.
        drop_tol: 0.0,
        faults,
        transport,
    }
}

fn bspmm_params() -> YukawaParams {
    let mut p = YukawaParams::small();
    p.atoms = 60;
    p.target_tile = 32;
    p.seed = INPUT_SEED;
    p
}

// ------------------------------------------------------------- result I/O
//
// `result-rank{r}.bin` is a sequence of records, all integers u32 LE:
// `i j rows cols` followed by `rows*cols` f64 LE values (column-major,
// as stored by `Tile`). Written to a temp name and renamed so a crashing
// child never leaves a plausible-looking partial file.

struct TileRecord {
    i: usize,
    j: usize,
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

fn record(i: usize, j: usize, t: &Tile) -> TileRecord {
    TileRecord {
        i,
        j,
        rows: t.rows(),
        cols: t.cols(),
        data: t.data().to_vec(),
    }
}

fn write_records(path: &Path, recs: &[TileRecord]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    let mut buf: Vec<u8> = Vec::new();
    for r in recs {
        for v in [r.i as u32, r.j as u32, r.rows as u32, r.cols as u32] {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        for x in &r.data {
            buf.extend_from_slice(&x.to_le_bytes());
        }
    }
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(&buf)?;
    f.sync_all()?;
    drop(f);
    std::fs::rename(&tmp, path)
}

fn read_records(path: &Path) -> std::io::Result<Vec<TileRecord>> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut bytes)?;
    let mut recs = Vec::new();
    let mut off = 0usize;
    let short = || std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "truncated record");
    while off < bytes.len() {
        if bytes.len() - off < 16 {
            return Err(short());
        }
        let word =
            |o: usize| u32::from_le_bytes(bytes[o..o + 4].try_into().expect("4 bytes")) as usize;
        let (i, j, rows, cols) = (word(off), word(off + 4), word(off + 8), word(off + 12));
        off += 16;
        let n = rows * cols;
        if bytes.len() - off < n * 8 {
            return Err(short());
        }
        let data: Vec<f64> = (0..n)
            .map(|k| {
                let o = off + k * 8;
                f64::from_le_bytes(bytes[o..o + 8].try_into().expect("8 bytes"))
            })
            .collect();
        off += n * 8;
        recs.push(TileRecord {
            i,
            j,
            rows,
            cols,
            data,
        });
    }
    Ok(recs)
}
