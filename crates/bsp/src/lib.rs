//! # ttg-bsp — bulk-synchronous comparator framework
//!
//! The paper compares TTG against bulk-synchronous implementations
//! (ScaLAPACK, SLATE without lookahead, the MPI+OpenMP Floyd–Warshall, the
//! DBCSR SUMMA loop). Their defining trait is the superstep structure:
//! compute phases separated by explicit communication and barriers, which
//! serializes the computation flow ("the sequentiality induced by the
//! compute flow … without lookahead", paper §III-B).
//!
//! [`BspProgram`] builds a [`TraceTask`] DAG with exactly that structure:
//! tasks belong to supersteps, may carry explicit cross-rank data
//! dependencies (modelled broadcasts/sends), and barriers insert a
//! centralized synchronization pattern between supersteps. The trace is
//! replayed by `ttg-simnet` on the same machine models as the TTG traces,
//! so comparator and TTG curves are directly comparable.
//!
//! Comparator *correctness* is established separately: the algorithms run
//! their real kernels inline while recording the trace.

#![warn(missing_docs)]

use ttg_simnet::TraceTask;

/// A dependency on a previously recorded task: (task id, bytes moved,
/// source rank, shared-transfer id). Zero bytes or same-rank transfers are
/// free in the model; dependencies sharing a transfer id ≠ 0 model one
/// physical message consumed by several tasks on the destination rank.
pub type BspDep = (u64, u64, usize, u64);

/// Builder for bulk-synchronous task traces.
pub struct BspProgram {
    ranks: usize,
    tasks: Vec<TraceTask>,
    next: u64,
    /// Current superstep marker per rank: every task of the step depends
    /// on its rank's marker.
    markers: Vec<u64>,
    /// Tasks recorded in the current superstep, per rank.
    step_tasks: Vec<Vec<u64>>,
    /// Latency charged for the barrier's control messages (bytes).
    barrier_msg_bytes: u64,
    next_msg: u64,
}

impl BspProgram {
    /// Start a program over `ranks` ranks. Creates one zero-cost step
    /// marker per rank (seeded at t = 0).
    pub fn new(ranks: usize) -> Self {
        let mut p = BspProgram {
            ranks,
            tasks: Vec::new(),
            next: 1,
            markers: vec![0; ranks],
            step_tasks: vec![Vec::new(); ranks],
            barrier_msg_bytes: 8,
            next_msg: 1,
        };
        for r in 0..ranks {
            let id = p.push(r, 0, vec![(0, 0, r, 0)]);
            p.markers[r] = id;
        }
        p
    }

    fn push(&mut self, rank: usize, cost_ns: u64, deps: Vec<BspDep>) -> u64 {
        let id = self.next;
        self.next += 1;
        self.tasks.push(TraceTask {
            id,
            rank,
            cost_ns,
            priority: 0,
            deps,
        });
        id
    }

    /// Record a compute task of `cost_ns` on `rank` in the current
    /// superstep, with optional extra data dependencies (e.g. a broadcast
    /// received earlier in the same step). Returns the task id.
    pub fn task(&mut self, rank: usize, cost_ns: u64, deps: &[BspDep]) -> u64 {
        let mut all = Vec::with_capacity(deps.len() + 1);
        all.push((self.markers[rank], 0, rank, 0));
        all.extend_from_slice(deps);
        let id = self.push(rank, cost_ns, all);
        self.step_tasks[rank].push(id);
        id
    }

    /// Allocate a shared-transfer id (for callers that build their own
    /// fan-out dependency lists, e.g. the 2.5D SUMMA comparator).
    pub fn alloc_msg(&mut self) -> u64 {
        let m = self.next_msg;
        self.next_msg += 1;
        m
    }

    /// Model a broadcast of `bytes` from task `root_task` on `root` to all
    /// ranks: returns, per rank, the dependency to attach to consuming
    /// tasks (any number of tasks per rank — they share one transfer).
    /// The root's own dependency is free.
    pub fn bcast(&mut self, root_task: u64, root: usize, bytes: u64) -> Vec<BspDep> {
        (0..self.ranks)
            .map(|r| {
                if r == root {
                    (root_task, 0, root, 0)
                } else {
                    (root_task, bytes, root, self.alloc_msg())
                }
            })
            .collect()
    }

    /// Like [`BspProgram::bcast`] but every consuming task pays its own
    /// transfer (per-task point-to-point sends instead of a per-rank
    /// collective — the communication pattern of runtimes without an
    /// optimized broadcast).
    pub fn bcast_unshared(&self, root_task: u64, root: usize, bytes: u64) -> Vec<BspDep> {
        (0..self.ranks)
            .map(|r| {
                if r == root {
                    (root_task, 0, root, 0)
                } else {
                    (root_task, bytes, root, 0)
                }
            })
            .collect()
    }

    /// Model a broadcast restricted to `dests` (e.g. a process row or
    /// column): returns the dependency each destination rank should attach.
    /// Ranks outside `dests` receive a free (local) dependency so callers
    /// can still index by rank.
    pub fn bcast_to(
        &mut self,
        root_task: u64,
        root: usize,
        bytes: u64,
        dests: &[usize],
    ) -> Vec<BspDep> {
        (0..self.ranks)
            .map(|r| {
                if r == root || !dests.contains(&r) {
                    (root_task, 0, root, 0)
                } else {
                    (root_task, bytes, root, self.alloc_msg())
                }
            })
            .collect()
    }

    /// Close the superstep with a global barrier: every rank's next-step
    /// marker transitively depends on every rank's work in this step, via
    /// a centralized coordinator (2·R control messages — the classic
    /// gather/release barrier).
    pub fn barrier(&mut self) {
        // Per-rank join of this step's work.
        let mut joins = Vec::with_capacity(self.ranks);
        for r in 0..self.ranks {
            let mut deps: Vec<BspDep> = vec![(self.markers[r], 0, r, 0)];
            for &t in &self.step_tasks[r] {
                deps.push((t, 0, r, 0));
            }
            joins.push(self.push(r, 0, deps));
            self.step_tasks[r].clear();
        }
        // Central coordinator on rank 0.
        let coord_deps: Vec<BspDep> = joins
            .iter()
            .enumerate()
            .map(|(r, &j)| (j, if r == 0 { 0 } else { self.barrier_msg_bytes }, r, 0))
            .collect();
        let coord = self.push(0, 0, coord_deps);
        // Release: new markers.
        for r in 0..self.ranks {
            let bytes = if r == 0 { 0 } else { self.barrier_msg_bytes };
            let m = self.push(r, 0, vec![(coord, bytes, 0, 0)]);
            self.markers[r] = m;
        }
    }

    /// Finish and return the trace.
    pub fn into_trace(self) -> Vec<TraceTask> {
        self.tasks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttg_simnet::{simulate, MachineModel};

    fn machine(nodes: usize, cores: usize) -> MachineModel {
        MachineModel {
            nodes,
            cores_per_node: cores,
            latency_ns: 1_000,
            bytes_per_ns: 10.0,
            msg_overhead_ns: 0,
            task_overhead_ns: 0,
        }
    }

    #[test]
    fn single_step_runs_in_parallel() {
        let mut p = BspProgram::new(4);
        for r in 0..4 {
            for _ in 0..3 {
                p.task(r, 100, &[]);
            }
        }
        let r = simulate(&p.into_trace(), &machine(4, 3));
        assert_eq!(r.makespan_ns, 100);
    }

    #[test]
    fn barrier_serializes_steps() {
        let mut p = BspProgram::new(2);
        p.task(0, 100, &[]);
        p.barrier();
        p.task(1, 100, &[]);
        let r = simulate(&p.into_trace(), &machine(2, 2));
        // The second step cannot start before the two barrier control
        // hops (gather + release) complete: ≥ 100ns compute + 2 latencies.
        assert!(r.makespan_ns >= 100 + 2 * 1_000, "{}", r.makespan_ns);
        assert!(r.makespan_ns >= 2_100, "{}", r.makespan_ns);
    }

    #[test]
    fn barrier_waits_for_slowest_rank() {
        let mut p = BspProgram::new(3);
        p.task(0, 50, &[]);
        p.task(1, 500, &[]); // straggler
        p.task(2, 50, &[]);
        p.barrier();
        for r in 0..3 {
            p.task(r, 50, &[]);
        }
        let r = simulate(&p.into_trace(), &machine(3, 1));
        assert!(r.makespan_ns >= 500 + 50 + 2 * 1_000);
    }

    #[test]
    fn bcast_charges_bandwidth_to_remote_ranks_only() {
        let mut p = BspProgram::new(3);
        let root = p.task(0, 10, &[]);
        let deps = p.bcast(root, 0, 1_000_000);
        for r in 0..3 {
            p.task(r, 10, &[deps[r]]);
        }
        let trace = p.into_trace();
        let r = simulate(&trace, &machine(3, 1));
        assert_eq!(r.network_msgs, 2, "root receives locally");
        assert_eq!(r.network_bytes, 2_000_000);
        // Transfers serialize at the root NIC.
        let one = machine(3, 1).transfer_ns(1_000_000);
        assert!(r.makespan_ns >= 10 + 2 * one);
    }

    #[test]
    fn bsp_loses_to_dataflow_on_stragglers() {
        // Two ranks, 4 rounds. In BSP each round barriers, so every round
        // costs max(fast, slow). A dataflow trace lets independent chains
        // proceed — same work, no barrier coupling.
        let rounds = 4;
        let mut bsp = BspProgram::new(2);
        for _ in 0..rounds {
            bsp.task(0, 100, &[]);
            bsp.task(1, 900, &[]);
            bsp.barrier();
        }
        let bsp_time = simulate(&bsp.into_trace(), &machine(2, 1)).makespan_ns;

        // Dataflow: two independent chains.
        let mut tasks = Vec::new();
        let mut id = 1u64;
        for r in 0..2usize {
            let mut prev = 0u64;
            for _ in 0..rounds {
                tasks.push(TraceTask {
                    id,
                    rank: r,
                    cost_ns: if r == 0 { 100 } else { 900 },
                    priority: 0,
                    deps: vec![(prev, 0, r, 0)],
                });
                prev = id;
                id += 1;
            }
        }
        let df_time = simulate(&tasks, &machine(2, 1)).makespan_ns;
        assert_eq!(df_time, 3600);
        assert!(
            bsp_time > df_time,
            "bsp {bsp_time} must exceed dataflow {df_time}"
        );
    }
}
