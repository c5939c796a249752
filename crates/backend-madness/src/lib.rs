//! # ttg-madness — the MADNESS-like TTG backend
//!
//! Mirrors the paper's MADNESS backend (§II-D): data is **copied** on every
//! send (no runtime-owned data life-cycle), whole-object serialization only
//! (no split-metadata RMA), a single central task queue, and a dedicated
//! thread serving remote active messages. The paper attributes the backend's
//! lower MRA/FW performance to exactly these traits ("the performance of TTG
//! over MADNESS suffers due to data copies and high communication
//! overhead").
//!
//! The crate also provides [`world`]: a small SPMD task runtime in the style
//! of the native MADNESS parallel runtime (a worker pool per rank and global
//! fences). The "native MADNESS" MRA comparator is written against it.

#![warn(missing_docs)]

pub mod world;

use ttg_core::{BackendSpec, LocalPass};
use ttg_runtime::SchedulerKind;

/// Construct the MADNESS-like backend configuration.
pub fn backend() -> BackendSpec {
    BackendSpec {
        name: "madness",
        scheduler: SchedulerKind::Central,
        local_pass: LocalPass::Copy,
        supports_splitmd: false,
        optimized_broadcast: true,
        honor_priorities: false,
        // Heavier AM handling and serialization path.
        msg_overhead_ns: 2500,
        task_overhead_ns: 600,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn backend_has_madness_traits() {
        let b = super::backend();
        assert_eq!(b.name, "madness");
        assert!(!b.supports_splitmd);
        assert!(!b.honor_priorities);
        assert_eq!(b.local_pass, ttg_core::LocalPass::Copy);
        assert_eq!(b.scheduler, ttg_runtime::SchedulerKind::Central);
    }
}
