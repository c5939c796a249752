//! What the harness reads from `/proc` and where it keeps its files:
//! CPU time and peak memory of a process, the leftover-process scan, and
//! the scratch directory every socket, rendezvous file and span file
//! lives under.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// `USER_HZ`: the unit of the CPU fields in `/proc/<pid>/stat`. It is 100
/// on every Linux ABI; without libc there is no `sysconf` to ask.
const TICKS_PER_S: f64 = 100.0;

/// Environment variable every process of one benchmark invocation carries;
/// its value is the top-level driver's pid. The leftover scan looks for it.
pub const RUN_MARKER: &str = "BENCH_ALL_RUN";

/// Environment variable naming the directory a worker keeps its files in
/// (set by the driver, which removes the directory when the worker ends).
pub const WORK_DIR: &str = "BENCH_ALL_DIR";

/// User + system CPU seconds consumed so far by process `pid`, including
/// threads that already exited. `None` once the process is gone.
pub fn cpu_seconds(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name (field 2) may contain spaces and parentheses; the
    // fixed fields start after the last ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_S)
}

/// CPU seconds consumed so far by this process and `children` together.
pub fn tree_cpu_s(children: &[u32]) -> Option<f64> {
    std::iter::once(std::process::id())
        .chain(children.iter().copied())
        .map(cpu_seconds)
        .sum()
}

/// Peak resident set size (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mib(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Pids (other than this process) whose environment carries
/// `RUN_MARKER=<run>`: the processes this invocation started and that are
/// still alive.
pub fn marked_processes(run: &str) -> Vec<u32> {
    let needle = format!("{RUN_MARKER}={run}");
    let me = std::process::id();
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    entries
        .flatten()
        .filter_map(|e| e.file_name().to_str()?.parse::<u32>().ok())
        .filter(|&pid| pid != me)
        .filter(|pid| {
            std::fs::read(format!("/proc/{pid}/environ"))
                .map(|env| env.split(|&b| b == 0).any(|kv| kv == needle.as_bytes()))
                .unwrap_or(false)
        })
        .collect()
}

/// Wait up to `grace` for every marked process to exit, then SIGKILL what
/// is left. Returns the pids that had to be killed (an empty list is the
/// healthy outcome).
pub fn reap_marked(run: &str, grace: Duration) -> Vec<u32> {
    let deadline = Instant::now() + grace;
    loop {
        let left = marked_processes(run);
        if left.is_empty() {
            return left;
        }
        if Instant::now() >= deadline {
            for pid in &left {
                let _ = std::process::Command::new("kill")
                    .args(["-9", &pid.to_string()])
                    .status();
            }
            return left;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Directory all of the benchmark's files go under: `bench_all/` next to
/// the build profile directory the executable sits in (`target/bench_all`,
/// or `.bench_build/bench_all` under the acceptance driver). An absolute
/// path of any length: sockets are never named through it, a worker names
/// them relative to its own directory (see `driver::run_child`).
pub fn scratch_root() -> PathBuf {
    let exe = std::env::current_exe().expect("own executable path");
    let mut dir = exe.parent().expect("executable has a directory");
    // Test executables live one level further down, in `deps/`.
    if dir.ends_with("deps") {
        dir = dir.parent().expect("deps has a parent");
    }
    dir.parent().unwrap_or(dir).join("bench_all")
}

/// Where this process creates its directories: the one its driver gave it
/// (a worker: `.`, its working directory), or the scratch root.
fn work_dir() -> PathBuf {
    std::env::var_os(WORK_DIR).map_or_else(scratch_root, PathBuf::from)
}

/// A directory that is removed, with everything in it, when dropped.
pub struct TempDir(pub PathBuf);

impl TempDir {
    /// Create `<work_dir>/<prefix>-<n>`, `n` the first free number.
    pub fn create(prefix: &str) -> std::io::Result<TempDir> {
        let root = work_dir();
        std::fs::create_dir_all(&root)?;
        for n in 0.. {
            let dir = root.join(format!("{prefix}-{n}"));
            match std::fs::create_dir(&dir) {
                Ok(()) => return Ok(TempDir(dir)),
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(e),
            }
        }
        unreachable!()
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_own_process() {
        let me = std::process::id();
        assert!(cpu_seconds(me).is_some());
        assert!(peak_rss_mib(me).unwrap() > 1.0);
        assert_eq!(cpu_seconds(u32::MAX), None);
    }

    #[test]
    fn temp_dir_is_removed_on_drop() {
        let path = {
            let d = TempDir::create(&format!("t-{}", std::process::id())).unwrap();
            std::fs::write(d.path().join("f"), b"x").unwrap();
            d.path().to_path_buf()
        };
        assert!(!path.exists());
    }
}
