//! Distributed execution of a template task graph.
//!
//! The executor stands in for the paper's SPMD launch: it creates the
//! fabric, one worker pool and one communication thread per rank, attaches
//! the graph, accepts seed messages, and waits for global quiescence.
//!
//! Communication failures never panic the process: delivery errors become
//! structured [`CommError`] records in the [`ExecReport`], and a configurable
//! delivery deadline converts a dead link into a reported per-rank failure
//! instead of an unbounded hang (see DESIGN §8).

use std::sync::Arc;
use std::time::{Duration, Instant};

use ttg_comm::{
    CommError, CommErrorKind, Fabric, FaultPlan, Packet, StatsSnapshot, TransportSpec, WireError,
};
use ttg_runtime::WorkerPool;

use crate::backend::BackendSpec;
use crate::ctx::RuntimeCtx;
use crate::graph::Graph;
use crate::recovery::Coordinator;
use crate::trace::TaskEvent;

/// Execution parameters.
#[derive(Clone)]
pub struct ExecConfig {
    /// Number of logical ranks ("processes").
    pub ranks: usize,
    /// Worker threads per rank.
    pub workers_per_rank: usize,
    /// Backend configuration.
    pub backend: BackendSpec,
    /// Record a task/dependency trace for simnet projection.
    pub trace: bool,
    /// Fault-injection plan installed on the fabric (chaos testing).
    pub faults: Option<FaultPlan>,
    /// Abort the wait for quiescence after this long and report a
    /// `DeadlineMissed` comm error instead of hanging. Defaults to 30 s
    /// when a fault plan is installed, unlimited otherwise.
    pub delivery_deadline: Option<Duration>,
    /// Link layer carrying inter-rank traffic: in-process channels
    /// (default), a socket mesh (tcp/uds), or one rank of a multi-process
    /// job (DESIGN §9).
    pub transport: TransportSpec,
    /// Seed for the worker pools' steal-victim PRNG streams. `Some` makes
    /// steal order deterministic per (seed, rank, worker) — like the
    /// fault injector's splitmix64 streams — for reproducible benchmark
    /// runs; `None` (default) keeps OS entropy.
    pub sched_seed: Option<u64>,
}

impl std::fmt::Debug for ExecConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecConfig")
            .field("ranks", &self.ranks)
            .field("workers_per_rank", &self.workers_per_rank)
            .field("backend", &self.backend)
            .field("trace", &self.trace)
            .field("faults", &self.faults)
            .field("delivery_deadline", &self.delivery_deadline)
            .field("transport", &self.transport)
            .field("sched_seed", &self.sched_seed)
            .finish()
    }
}

impl ExecConfig {
    /// Single-rank configuration with `workers` threads and the default
    /// backend (useful in tests).
    pub fn local(workers: usize) -> Self {
        ExecConfig {
            ranks: 1,
            workers_per_rank: workers,
            backend: BackendSpec::default_spec(),
            trace: false,
            faults: None,
            delivery_deadline: None,
            transport: TransportSpec::InProc,
            sched_seed: None,
        }
    }

    /// `ranks` ranks × `workers` threads with the given backend.
    pub fn distributed(ranks: usize, workers: usize, backend: BackendSpec) -> Self {
        ExecConfig {
            ranks,
            workers_per_rank: workers,
            backend,
            trace: false,
            faults: None,
            delivery_deadline: None,
            transport: TransportSpec::InProc,
            sched_seed: None,
        }
    }

    /// Enable trace recording.
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Install a fault-injection plan (enables reliable delivery and, if
    /// no deadline was set, a 30 s delivery deadline).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        if self.delivery_deadline.is_none() {
            self.delivery_deadline = Some(Duration::from_secs(30));
        }
        self
    }

    /// Set the delivery deadline explicitly.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.delivery_deadline = Some(deadline);
        self
    }

    /// Select the link layer (see [`TransportSpec`]).
    pub fn with_transport(mut self, transport: TransportSpec) -> Self {
        self.transport = transport;
        self
    }

    /// Seed the worker pools' steal-victim streams (see
    /// [`ExecConfig::sched_seed`]).
    pub fn with_sched_seed(mut self, seed: u64) -> Self {
        self.sched_seed = Some(seed);
        self
    }
}

/// Summary of one execution.
#[derive(Debug)]
pub struct ExecReport {
    /// Wall-clock time from executor start to quiescence.
    pub elapsed: Duration,
    /// Fabric counters at quiescence.
    pub comm: StatsSnapshot,
    /// Total tasks executed.
    pub tasks: u64,
    /// Per-template (name, tasks executed).
    pub per_node: Vec<(&'static str, u64)>,
    /// Task trace, when tracing was enabled.
    pub trace: Option<Vec<TaskEvent>>,
    /// Full telemetry snapshot (comm, sched, core subsystems) at finish.
    pub telemetry: ttg_telemetry::Snapshot,
    /// Runtime-sanitizer violations recorded during the run (populated by
    /// the `checked` feature's matching-path instrumentation; always
    /// includes nothing when the feature is off).
    pub violations: Vec<crate::inspect::Violation>,
    /// Partially matched keys left in the matching tables at quiescence:
    /// the stuck-key deadlock report. Non-empty means some tasks could
    /// never fire — the structured form of a silent hang.
    pub stuck: Vec<crate::inspect::StuckEntry>,
    /// Structured communication failures recorded during the run: retry
    /// budgets exhausted on dead links, post-shutdown sends, delivery
    /// errors, deadline misses. Empty on a healthy run.
    pub comm_errors: Vec<CommError>,
    /// Informational recovery events (TTG046 `RankRecovered`): one per
    /// successful checkpoint restore. Kept out of `comm_errors` so a
    /// recovered run still reads as healthy.
    pub recovery_events: Vec<CommError>,
}

/// A running TTG execution.
pub struct Executor {
    ctx: Arc<RuntimeCtx>,
    graph: Graph,
    comm_threads: Vec<std::thread::JoinHandle<()>>,
    deadline: Option<Duration>,
    started: Instant,
    /// Multi-process only: whether this rank has passed the start fence
    /// (the barrier at the head of the first `wait`).
    wait_fenced: std::sync::atomic::AtomicBool,
    /// Under a recovery plan: the pause gate and the cut sink (DESIGN §13).
    coordinator: Option<Arc<Coordinator>>,
}

impl Executor {
    /// Start pools and communication threads for `graph`.
    ///
    /// Panics when the link layer cannot be brought up (socket bind or
    /// mesh handshake failure) — a launch-time environment error, reported
    /// with the structured transport diagnosis.
    pub fn new(graph: Graph, cfg: ExecConfig) -> Self {
        let fabric = Fabric::with_transport(cfg.ranks, cfg.faults.clone(), &cfg.transport)
            .unwrap_or_else(|e| panic!("transport bring-up failed: {e}"));
        let coordinator = fabric.recovery().map(|_| Arc::new(Coordinator::new()));
        let ctx = RuntimeCtx::new(Arc::clone(&fabric), cfg.backend.clone(), cfg.trace);

        // A multi-process rank hosts only its own pool and comm thread;
        // an in-process fabric hosts all of them.
        let local_ranks: Vec<usize> = match fabric.local_rank() {
            Some(me) => vec![me],
            None => (0..cfg.ranks).collect(),
        };
        let pools: Vec<_> = local_ranks
            .iter()
            .map(|&r| {
                WorkerPool::with_options(
                    cfg.workers_per_rank,
                    cfg.backend.scheduler,
                    Arc::clone(&ctx.quiescence),
                    &format!("r{r}"),
                    Some((fabric.telemetry(), r)),
                    // One stream family per rank so ranks don't mirror
                    // each other's victim order.
                    cfg.sched_seed.map(|s| s ^ ((r as u64) << 32)),
                    Arc::clone(&ctx),
                )
            })
            .collect();
        ctx.pools.set(pools).ok().expect("pools set twice");

        // Feed the distributed termination detector: a process is idle
        // when its pools are quiescent (the in-flight packet check lives
        // in the fabric). Captures only the quiescence tracker — never
        // the fabric, which would leak a reference cycle.
        if fabric.local_rank().is_some() {
            let q = Arc::clone(&ctx.quiescence);
            fabric.install_idle_probe(Box::new(move || match q.probe() {
                Some(epoch) => (true, epoch),
                None => (false, q.epoch()),
            }));
        }

        for node in graph.nodes() {
            node.attach(cfg.ranks, cfg.workers_per_rank);
        }
        ctx.nodes
            .set(graph.nodes().to_vec())
            .ok()
            .expect("nodes set twice");

        // One communication/progress thread per hosted rank: the analog
        // of the backends' AM server / communication thread.
        let mut comm_threads = Vec::with_capacity(local_ranks.len());
        for r in local_ranks {
            let rx = fabric.take_receiver(r);
            let ctx2 = Arc::clone(&ctx);
            let gate = coordinator.clone();
            comm_threads.push(
                std::thread::Builder::new()
                    .name(format!("comm-{r}"))
                    .spawn(move || {
                        while let Ok(pkt) = rx.recv() {
                            match pkt {
                                Packet::Am {
                                    handler,
                                    from,
                                    seq,
                                    payload,
                                } => {
                                    // The packet boundary: under a recovery
                                    // plan the thread stops here while the
                                    // wait loop takes a cut or rolls back.
                                    let events = ctx2.fabric.events();
                                    let gate = gate.as_ref().map(|c| &c.gate);
                                    gate.inspect(|g| g.enter(events));
                                    // Reliable-delivery gate: duplicates
                                    // (injected, retransmitted, reordered
                                    // strays) and copies from before a
                                    // rollback are discarded here and never
                                    // reach a task — nor the in-flight
                                    // ledger.
                                    if !ctx2.fabric.rx_accept(r, from, seq) {
                                        ttg_comm::pool::recycle(payload);
                                        gate.inspect(|g| g.leave(events));
                                        continue;
                                    }
                                    // Tasks this delivery readies flush as
                                    // one batch per rank when the scope
                                    // drops — before the packet is retired,
                                    // so quiescence never sees a gap.
                                    let started = Instant::now();
                                    let batch = crate::batch::BatchScope::enter(&ctx2);
                                    let delivered = match ctx2.node(handler) {
                                        Some(node) => node.deliver_am(r, &payload, &ctx2),
                                        None => Err(WireError::new(format!(
                                            "no template task {handler}"
                                        ))),
                                    };
                                    if let Err(e) = delivered {
                                        // Arrived but undeliverable: TTG043.
                                        ctx2.fabric.record_error(
                                            CommError::new(
                                                CommErrorKind::DeliveryFailed,
                                                e.to_string(),
                                            )
                                            .link((from != usize::MAX).then_some(from), r)
                                            .handler(handler)
                                            .seq((seq != 0).then_some(seq)),
                                        );
                                    }
                                    drop(batch);
                                    ctx2.fabric
                                        .stats()
                                        .am_deliver_ns
                                        .record_duration(started.elapsed());
                                    ctx2.fabric.packet_processed();
                                    gate.inspect(|g| g.leave(events));
                                    // Hand the AM buffer back to the wire
                                    // buffer pool for the next send.
                                    ttg_comm::pool::recycle(payload);
                                }
                                Packet::Shutdown => break,
                            }
                        }
                    })
                    .expect("failed to spawn comm thread"),
            );
        }

        Executor {
            ctx,
            graph,
            comm_threads,
            deadline: cfg.delivery_deadline,
            started: Instant::now(),
            wait_fenced: std::sync::atomic::AtomicBool::new(false),
            coordinator,
        }
    }

    /// The recovery coordinator, for tests that install its sink or take a
    /// cut themselves.
    #[cfg(test)]
    pub(crate) fn coordinator(&self) -> &Coordinator {
        self.coordinator
            .as_deref()
            .expect("the plan enables recovery")
    }

    /// Runtime context (needed for seeding through [`crate::outs::InRef`]).
    pub fn ctx(&self) -> &Arc<RuntimeCtx> {
        &self.ctx
    }

    /// Block until the execution has terminated: no task running or queued
    /// on any rank and no message in flight. That is one rule — two
    /// consecutive identical all-idle observations with as many messages
    /// received as sent — evaluated where the observations are: from the
    /// shared counters when every rank is in this address space (nothing
    /// can be in transit between processes), by rank 0 from
    /// `TermProbe`/`TermReply` frames in a multi-process job (local
    /// quiescence is not global quiescence there: a peer may still be about
    /// to send here).
    ///
    /// The wait parks on the fabric's event count, which every transition
    /// that can end it signals: the activity count reaching zero, the
    /// in-flight ledger balancing, an error recorded, a termination frame —
    /// and, under a recovery plan, a kill latching or a cut falling due.
    /// The wait is the one coordinator of recovery: it takes every cut and
    /// every rollback (DESIGN §13).
    ///
    /// If a delivery deadline is configured and passes first, the wait
    /// gives up, records a structured `DeadlineMissed` [`CommError`] naming
    /// what this process still waits on, and returns — degraded, not hung.
    pub fn wait(&self) {
        use std::sync::atomic::Ordering;
        // The deadline is the event count's: the logical clock under
        // `--cfg ttg_model`.
        use ttg_model::sync::Instant;
        let fabric = &self.ctx.fabric;
        let remote = fabric.local_rank().is_some();
        // Start fence, once per execution: no rank may begin probing for
        // termination until every rank has seeded its graph and entered
        // the wait — otherwise an early-starting coordinator could observe
        // a not-yet-seeded (and therefore idle) peer and declare a finish
        // that never happened.
        if remote && !self.wait_fenced.swap(true, Ordering::SeqCst) {
            fabric.barrier();
        }
        let (events, q) = (fabric.events(), &self.ctx.quiescence);
        let drained = || fabric.packets_in_flight() == 0 && q.is_quiescent();
        let give_up = self.deadline.map(|d| Instant::now() + d);
        let recovery = fabric.recovery();
        loop {
            // Prepare before looking: a transition after the look signals,
            // and the park below returns at once.
            let epoch = events.prepare();
            let terminated = if remote {
                fabric.poll_termination()
            } else {
                if let (Some(rec), Some(c)) = (&recovery, &self.coordinator) {
                    if rec.cut_due() || !rec.killed_ranks().is_empty() {
                        events.cancel();
                        if !c.coordinate(&self.ctx, rec) {
                            return;
                        }
                        continue;
                    }
                }
                // The second look confirms no packet appeared while the
                // first was probing the pools.
                drained() && drained()
            };
            if terminated {
                events.cancel();
                return;
            }
            let now = Instant::now();
            if give_up.is_some_and(|t| now >= t) {
                events.cancel();
                fabric.record_error(CommError::new(
                    CommErrorKind::DeadlineMissed,
                    format!(
                        "no termination within {:?}: {} active units, {}",
                        self.deadline.expect("a deadline passed"),
                        q.active(),
                        fabric.describe_wait()
                    ),
                ));
                return;
            }
            match give_up {
                Some(until) => {
                    events.wait_until(epoch, until);
                }
                None => events.wait(epoch),
            }
        }
    }

    /// Wait for quiescence, shut everything down, and report.
    pub fn finish(self) -> ExecReport {
        self.wait();
        let elapsed = self.started.elapsed();
        self.ctx.fabric.shutdown_all();
        for t in self.comm_threads {
            t.join().expect("comm thread panicked");
        }
        for pool in self.ctx.pools.get().expect("pools missing") {
            pool.shutdown();
        }
        let per_node: Vec<(&'static str, u64)> = self
            .graph
            .nodes()
            .iter()
            .map(|n| (n.node_name(), n.tasks_executed()))
            .collect();
        let tasks = per_node.iter().map(|(_, t)| t).sum();
        // Quiescent but incomplete matching entries = tasks that will never
        // fire. Collecting them here costs nothing on the hot path and
        // turns a would-be silent hang into a structured report.
        let stuck = self
            .graph
            .nodes()
            .iter()
            .flat_map(|n| n.pending_detail())
            .collect();
        ExecReport {
            elapsed,
            comm: self.ctx.fabric.stats().snapshot(),
            tasks,
            per_node,
            trace: self.ctx.trace.as_ref().map(|t| t.take()),
            telemetry: self.ctx.fabric.telemetry().snapshot(),
            violations: self.ctx.sanitizer.take(),
            stuck,
            comm_errors: self.ctx.fabric.take_errors(),
            recovery_events: match &self.coordinator {
                Some(c) => std::mem::take(&mut *c.recovered.lock()),
                None => Vec::new(),
            },
        }
    }
}
