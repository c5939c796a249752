//! A minimal Parameterized Task Graph (PTG) interface.
//!
//! PTG is PaRSEC's native programming model and the direct ancestor of TTG
//! (paper §I: "this idea builds on the concept of the Parameterized Task
//! Graph"). Computation is organized into **task classes** parameterized by
//! a key; the number of inputs of each task instance is known algebraically
//! from its key, so activation is a simple countdown rather than TTG's
//! slot-matching. The DPLASMA-like dense-linear-algebra comparators are
//! written against this interface.
//!
//! The runtime reuses the shared substrate: the simulated fabric for
//! inter-rank active messages and the work-stealing worker pools.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use ttg_comm::{Fabric, Packet, ReadBuf, StatsSnapshot, WriteBuf};
use ttg_core::{Data, Dep, Key, TaskEvent, TraceRecorder};
use ttg_runtime::{Quiescence, SchedulerKind, WorkerPool};

/// Context handed to PTG task bodies for emitting downstream data.
pub struct PtgCtx<'a, K: Key, V: Data> {
    rt: &'a Arc<RtInner<K, V>>,
    rank: usize,
    task_id: u64,
}

impl<'a, K: Key, V: Data> PtgCtx<'a, K, V> {
    /// Send `v` as one input of task `key` of `class`.
    pub fn send(&self, class: usize, key: K, v: V) {
        self.rt.deliver(class, key, v, self.task_id, self.rank);
    }
}

type BodyFn<K, V> = Arc<dyn Fn(&K, Vec<V>, &PtgCtx<'_, K, V>) + Send + Sync>;

/// A task class: a family of tasks indexed by `K`.
pub struct TaskClass<K: Key, V: Data> {
    /// Class name (traces).
    pub name: &'static str,
    /// Number of inputs task `k` waits for (known algebraically).
    pub n_deps: Arc<dyn Fn(&K) -> usize + Send + Sync>,
    /// Rank owning task `k`.
    pub owner: Arc<dyn Fn(&K) -> usize + Send + Sync>,
    /// Task priority (native PaRSEC priority support).
    pub priority: Arc<dyn Fn(&K) -> i32 + Send + Sync>,
    /// Modelled cost (ns) of task `k`, for trace projection; `None`
    /// projects from the measured duration.
    pub cost: Option<Arc<dyn Fn(&K) -> u64 + Send + Sync>>,
    /// Task body.
    pub body: BodyFn<K, V>,
}

struct PendingCnt<V> {
    vals: Vec<V>,
    deps: Vec<Dep>,
}

struct RtInner<K: Key, V: Data> {
    classes: Vec<TaskClass<K, V>>,
    // Per (class, rank) activation tables.
    tables: Vec<Vec<Mutex<HashMap<K, PendingCnt<V>>>>>,
    fabric: Arc<Fabric>,
    pools: Vec<WorkerPool>,
    quiescence: Arc<Quiescence>,
    trace: Option<TraceRecorder>,
    next_task: AtomicU64,
    tasks_run: AtomicU64,
    metrics: PtgMetrics,
}

ttg_telemetry::metrics! {
    // The backend's counters, in the fabric's telemetry registry.
    struct PtgMetrics for ranks {
        /// Countdowns that hit zero: task instances launched.
        activations: ranked counter("backend", "activations"),
    }
}

impl<K: Key, V: Data> RtInner<K, V> {
    fn deliver(self: &Arc<Self>, class: usize, key: K, v: V, from_task: u64, src_rank: usize) {
        let owner = (self.classes[class].owner)(&key) % self.fabric.num_ranks();
        if owner == src_rank {
            self.insert(
                class,
                owner,
                key,
                v,
                Dep {
                    from_task,
                    bytes: 0,
                    src_rank,
                    msg: 0,
                },
            );
        } else {
            // from_task(8) + class(4) + key + value.
            let mut b = WriteBuf::with_capacity(12 + key.wire_size() + v.wire_size());
            b.put_u64(from_task);
            b.put_u32(class as u32);
            key.encode(&mut b);
            v.encode(&mut b);
            self.fabric.stats().serializations.inc();
            if let Err(e) = self
                .fabric
                .send_am(src_rank, owner, class as u32, b.into_vec())
            {
                self.fabric.record_error(e.into());
            }
        }
    }

    fn insert(self: &Arc<Self>, class: usize, rank: usize, key: K, v: V, dep: Dep) {
        let ready = {
            let mut table = self.tables[class][rank].lock();
            let entry = table.entry(key.clone()).or_insert_with(|| PendingCnt {
                vals: Vec::new(),
                deps: Vec::new(),
            });
            entry.vals.push(v);
            // Provenance is only consumed by the tracer.
            if self.trace.is_some() {
                entry.deps.push(dep);
            }
            let need = (self.classes[class].n_deps)(&key);
            assert!(
                entry.vals.len() <= need,
                "PTG class {} key {:?}: more inputs than n_deps={}",
                self.classes[class].name,
                key,
                need
            );
            if entry.vals.len() == need {
                Some(table.remove(&key).unwrap())
            } else {
                None
            }
        };
        if let Some(entry) = ready {
            self.launch(class, rank, key, entry);
        }
    }

    fn launch(self: &Arc<Self>, class: usize, rank: usize, key: K, entry: PendingCnt<V>) {
        let rt = Arc::clone(self);
        let task_id = self.next_task.fetch_add(1, Ordering::Relaxed);
        let tc = &self.classes[class];
        let prio = (tc.priority)(&key);
        self.metrics.activations[rank].inc();
        let PendingCnt { vals, deps } = entry;
        // As in `ttg-core`: the record starts here, where the last input
        // arrived, and the job fills in who ran it and when.
        let traced = self.trace.as_ref().map(|tr| {
            Box::new(TaskEvent {
                id: task_id,
                node: class as u32,
                name: tc.name,
                rank,
                worker: 0,
                ready_ns: tr.now_ns(),
                start_ns: 0,
                end_ns: 0,
                model_ns: tc.cost.as_ref().map(|f| f(&key)),
                priority: prio,
                deps,
            })
        });
        self.pools[rank].submit(ttg_runtime::Job::with_priority(prio, move || {
            let ctx = PtgCtx {
                rt: &rt,
                rank,
                task_id,
            };
            let body = &rt.classes[class].body;
            match (traced, &rt.trace) {
                (Some(ev), Some(tr)) => tr.run(*ev, rt.pools[rank].current_worker(), || {
                    body(&key, vals, &ctx)
                }),
                _ => body(&key, vals, &ctx),
            }
            rt.tasks_run.fetch_add(1, Ordering::Relaxed);
        }));
    }
}

/// Report of a PTG execution.
#[derive(Debug)]
pub struct PtgReport {
    /// Fabric counters.
    pub comm: StatsSnapshot,
    /// Tasks executed.
    pub tasks: u64,
    /// Trace (when enabled).
    pub trace: Option<Vec<TaskEvent>>,
    /// Structured communication failures recorded during the run.
    pub comm_errors: Vec<ttg_comm::CommError>,
}

/// A running PTG program.
pub struct PtgRuntime<K: Key, V: Data> {
    inner: Arc<RtInner<K, V>>,
    comm_threads: Vec<std::thread::JoinHandle<()>>,
}

impl<K: Key, V: Data> PtgRuntime<K, V> {
    /// Launch with a fault-injection plan installed on the fabric (chaos
    /// testing; `None` = perfect network).
    pub fn with_faults(
        classes: Vec<TaskClass<K, V>>,
        ranks: usize,
        workers: usize,
        trace: bool,
        faults: Option<ttg_comm::FaultPlan>,
    ) -> Self {
        let fabric = Fabric::with_faults(ranks, faults);
        let quiescence = Arc::new(Quiescence::with_events(Arc::clone(fabric.events())));
        let pools = (0..ranks)
            .map(|r| {
                WorkerPool::with_telemetry(
                    workers,
                    SchedulerKind::WorkStealing,
                    Arc::clone(&quiescence),
                    &format!("ptg{r}"),
                    Some((fabric.telemetry(), r)),
                )
            })
            .collect();
        let metrics = PtgMetrics::register(fabric.telemetry(), ranks);
        let tables = classes
            .iter()
            .map(|_| (0..ranks).map(|_| Mutex::new(HashMap::new())).collect())
            .collect();
        let inner = Arc::new(RtInner {
            classes,
            tables,
            fabric: Arc::clone(&fabric),
            pools,
            quiescence,
            trace: if trace {
                Some(TraceRecorder::new())
            } else {
                None
            },
            next_task: AtomicU64::new(1),
            tasks_run: AtomicU64::new(0),
            metrics,
        });

        let mut comm_threads = Vec::with_capacity(ranks);
        for r in 0..ranks {
            let rx = fabric.take_receiver(r);
            let rt = Arc::clone(&inner);
            comm_threads.push(std::thread::spawn(move || {
                while let Ok(pkt) = rx.recv() {
                    match pkt {
                        Packet::Am {
                            handler,
                            from,
                            seq,
                            payload,
                        } => {
                            // Reliable-delivery gate: duplicates never
                            // reach insert() (count-based activation would
                            // double-fire on a duplicate input).
                            if !rt.fabric.rx_accept(r, from, seq) {
                                continue;
                            }
                            let decoded = (|| -> Result<_, ttg_comm::WireError> {
                                let mut rd = ReadBuf::new(&payload);
                                let from_task = rd.get_u64()?;
                                let class = rd.get_u32()? as usize;
                                let key = K::decode(&mut rd)?;
                                let bytes = rd.remaining() as u64;
                                let v = V::decode(&mut rd)?;
                                Ok((from_task, class, key, bytes, v))
                            })();
                            match decoded {
                                Ok((from_task, class, key, bytes, v)) => {
                                    rt.insert(
                                        class,
                                        r,
                                        key,
                                        v,
                                        Dep {
                                            from_task,
                                            bytes,
                                            src_rank: from,
                                            msg: 0,
                                        },
                                    );
                                }
                                Err(e) => {
                                    rt.fabric.record_error(
                                        ttg_comm::CommError::new(
                                            ttg_comm::CommErrorKind::DeliveryFailed,
                                            e.to_string(),
                                        )
                                        .link(from, r)
                                        .handler(handler)
                                        .seq((seq != 0).then_some(seq)),
                                    );
                                }
                            }
                            rt.fabric.packet_processed();
                        }
                        Packet::Shutdown => break,
                    }
                }
            }));
        }

        PtgRuntime {
            inner,
            comm_threads,
        }
    }

    /// Inject an input for task `key` of `class` (external seed).
    pub fn seed(&self, class: usize, key: K, v: V) {
        let owner = (self.inner.classes[class].owner)(&key) % self.inner.fabric.num_ranks();
        self.inner.insert(
            class,
            owner,
            key,
            v,
            Dep {
                from_task: 0,
                bytes: 0,
                src_rank: owner,
                msg: 0,
            },
        );
    }

    /// Wait for quiescence, shut down, and report. The wait parks on the
    /// fabric's event count, which the activity count signals when it
    /// reaches zero and the in-flight ledger when it balances.
    pub fn finish(self) -> PtgReport {
        let (fabric, q) = (&self.inner.fabric, &self.inner.quiescence);
        loop {
            let epoch = fabric.events().prepare();
            if fabric.packets_in_flight() == 0
                && q.is_quiescent()
                && fabric.packets_in_flight() == 0
            {
                fabric.events().cancel();
                break;
            }
            fabric.events().wait(epoch);
        }
        self.inner.fabric.shutdown_all();
        for t in self.comm_threads {
            t.join().expect("ptg comm thread panicked");
        }
        for p in &self.inner.pools {
            p.shutdown();
        }
        PtgReport {
            comm: self.inner.fabric.stats().snapshot(),
            tasks: self.inner.tasks_run.load(Ordering::Relaxed),
            trace: self.inner.trace.as_ref().map(|t| t.take()),
            comm_errors: self.inner.fabric.take_errors(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fib_classes(sink: Arc<Mutex<Vec<(u64, i64)>>>) -> Vec<TaskClass<u64, i64>> {
        // Class 0: chain task k consumes one value, forwards k+1 until 10.
        let chain = TaskClass {
            name: "chain",
            n_deps: Arc::new(|_| 1),
            owner: Arc::new(|k: &u64| *k as usize),
            priority: Arc::new(|_| 0),
            cost: None,
            body: Arc::new(move |k, vals, ctx: &PtgCtx<'_, u64, i64>| {
                let v = vals[0] + 1;
                if *k < 10 {
                    ctx.send(0, k + 1, v);
                } else {
                    ctx.send(1, 0, v);
                }
            }),
        };
        let done = TaskClass {
            name: "done",
            n_deps: Arc::new(|_| 1),
            owner: Arc::new(|_| 0),
            priority: Arc::new(|_| 0),
            cost: None,
            body: Arc::new(move |k, vals, _ctx: &PtgCtx<'_, u64, i64>| {
                sink.lock().push((*k, vals[0]));
            }),
        };
        vec![chain, done]
    }

    #[test]
    fn chain_runs_across_ranks() {
        let sink = Arc::new(Mutex::new(Vec::new()));
        let rt = PtgRuntime::with_faults(fib_classes(Arc::clone(&sink)), 3, 2, false, None);
        rt.seed(0, 0, 100);
        let report = rt.finish();
        assert_eq!(report.tasks, 12); // 11 chain tasks + 1 done
        assert_eq!(*sink.lock(), vec![(0, 111)]);
        assert!(report.comm.am_count > 0); // chain hops cross ranks
    }

    #[test]
    fn multi_dep_join() {
        // Class 0 tasks send into one class-1 task that needs 4 inputs.
        let sink = Arc::new(Mutex::new(Vec::new()));
        let sink2 = Arc::clone(&sink);
        let producer = TaskClass {
            name: "produce",
            n_deps: Arc::new(|_| 1),
            owner: Arc::new(|k: &u64| *k as usize),
            priority: Arc::new(|_| 0),
            cost: None,
            body: Arc::new(|k, vals: Vec<i64>, ctx: &PtgCtx<'_, u64, i64>| {
                ctx.send(1, 99, vals[0] * (*k as i64 + 1));
            }),
        };
        let join = TaskClass {
            name: "join",
            n_deps: Arc::new(|_| 4),
            owner: Arc::new(|_| 1),
            priority: Arc::new(|_| 0),
            cost: None,
            body: Arc::new(move |_k, vals: Vec<i64>, _ctx: &PtgCtx<'_, u64, i64>| {
                sink2.lock().push(vals.iter().sum::<i64>());
            }),
        };
        let rt = PtgRuntime::with_faults(vec![producer, join], 2, 2, true, None);
        for k in 0..4u64 {
            rt.seed(0, k, 10);
        }
        let report = rt.finish();
        assert_eq!(report.tasks, 5);
        assert_eq!(*sink.lock(), vec![10 + 20 + 30 + 40]);
        let trace = report.trace.unwrap();
        assert_eq!(trace.len(), 5);
        let join_ev = trace.iter().find(|e| e.name == "join").unwrap();
        assert_eq!(join_ev.deps.len(), 4);
    }
}
