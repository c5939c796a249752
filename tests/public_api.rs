//! Each library crate's export list is a contract: what its `lib.rs`
//! declares `pub` (modules, re-exports, items) is all a dependent may name,
//! and everything else is `pub(crate)` so that `dead_code` sees it. A change
//! to any crate's public surface shows up here as a one-line diff.

use std::collections::BTreeSet;
use std::path::Path;

/// `crate: exported names`, one line per library crate, names sorted.
const EXPORTS: &[&str] = &[
    "apps: bspmm cholesky floyd_warshall mra",
    "backend-madness: backend world",
    "backend-parsec: backend ptg",
    "bench: Series gflops print_table project project_raw",
    "bsp: BspDep BspProgram",
    "check: Diagnostic Severity Summary check_if_enabled enable enable_from_args last_summary model_from_args report_from_exec stuck_diagnostic verify",
    "comm: CommError CommErrorKind Fabric FaultPlan KillScript Packet PoolStats ReadBuf Recovery RegionBytes RemoteHandle RetryPolicy StatsSnapshot TransportKind TransportSpec Wire WireError WireKind WriteBuf bytes_to_f64s f64s_as_bytes from_bytes pool pool_stats recover to_bytes",
    "core: BackendSpec CommError CommErrorKind Data Dep ExecReport Graph Key LocalPass MutationError StuckEntry TaskEvent TraceRecorder Violation am chrome_trace prelude",
    "linalg: Dist2D Tile TiledMatrix gemm_flops gemm_nn gemm_nt gemm_strided isa minplus potrf_flops potrf_l syrk_ln trsm_rlt",
    "model: Config Queue Sample Stats Violation ViolationKind event explore explore_iterative nondet sync thread time",
    "mra: Coeffs3 Gaussian3 Mra3 Node3 random_gaussians",
    "runtime: Job Quiescence SchedulerKind WorkerPool",
    "simnet: MachineModel SimResult TraceTask des simulate",
    "sparse: BlockSparse YukawaParams generate",
    "telemetry: Counter Gauge Histogram MetricKey MetricValue Padded Reading Registry Snapshot json",
    "transport: AddrSpec Endpoint Frame FrameCodec FrameError Link MAX_FRAME PROTOCOL_VERSION RemoteHandle Sink SocketEndpoint TransportError TransportKind TransportMetrics TransportSpec WireBatch frame local_mesh pool remote_endpoint",
    "ttg: apps bsp check comm core linalg madness mra parsec runtime simnet sparse telemetry transport",
];

/// Expand a `use` tree (`a::{b, c::{d as e}}`) into the names it binds.
fn use_names(tree: &str, out: &mut BTreeSet<String>) {
    let tree = tree.trim();
    if let Some(open) = tree.find('{') {
        let inner = &tree[open + 1..tree.rfind('}').expect("unbalanced use tree")];
        let (mut depth, mut start) = (0, 0);
        for (i, c) in inner.char_indices() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                ',' if depth == 0 => {
                    use_names(&inner[start..i], out);
                    start = i + 1;
                }
                _ => {}
            }
        }
        use_names(&inner[start..], out);
    } else if !tree.is_empty() {
        let name = match tree.split_once(" as ") {
            Some((_, alias)) => alias,
            None => tree.rsplit("::").next().unwrap(),
        };
        out.insert(name.trim().to_string());
    }
}

/// The names a `lib.rs` exports at its top level.
fn exports(lib: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut lines = lib.lines();
    while let Some(line) = lines.next() {
        let Some(rest) = line.strip_prefix("pub ") else {
            continue;
        };
        if let Some(tree) = rest.strip_prefix("use ") {
            let mut stmt = tree.to_string();
            while !stmt.trim_end().ends_with(';') {
                stmt.push_str(lines.next().expect("unterminated use"));
            }
            use_names(stmt.trim_end().trim_end_matches(';'), &mut out);
        } else {
            let mut words = rest.split(|c: char| !(c.is_alphanumeric() || c == '_'));
            let _kind = words.next();
            let name = words.find(|w| !w.is_empty()).expect("item name");
            out.insert(name.to_string());
        }
    }
    out
}

#[test]
fn every_library_crate_exports_the_pinned_names() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut dirs = vec![(String::from("ttg"), root.to_path_buf())];
    for dir in std::fs::read_dir(root.join("crates")).unwrap() {
        let dir = dir.unwrap().path();
        let name = dir.file_name().unwrap().to_str().unwrap().to_string();
        dirs.push((name, dir));
    }
    let mut actual = Vec::new();
    for (name, dir) in dirs {
        let lib = dir.join("src/lib.rs");
        if !lib.exists() {
            continue;
        }
        let names = exports(&std::fs::read_to_string(&lib).unwrap());
        let names: Vec<String> = names.into_iter().collect();
        actual.push(format!("{name}: {}", names.join(" ")));
    }
    actual.sort();
    let pinned: Vec<String> = EXPORTS.iter().map(|s| s.to_string()).collect();
    assert!(
        actual == pinned,
        "public surface changed; the pinned list for the tree is:\n{}",
        actual
            .iter()
            .map(|l| format!("    \"{l}\","))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
