//! Per-layer numbers read from outside the program: the public counters of
//! one rep (`ExecReport`, `StatsSnapshot`, the telemetry registry, the
//! wire-buffer pool) and the three-way attribution built from them.

use ttg_comm::{PoolStats, StatsSnapshot};
use ttg_core::ExecReport;
use ttg_telemetry::MetricValue;

/// Raw counters of one rep, in the order of [`RAW`].
#[derive(Debug, Clone, PartialEq)]
pub struct Counts(pub [f64; RAW.len()]);

/// Names of the raw counters. High-water marks combine by `max` across
/// processes (see [`Counts::merge`]); everything else adds.
pub const RAW: [&str; 31] = [
    "tasks",
    "values_shared",
    "deep_copies_avoided",
    "cow_clones",
    "cloned_bytes",
    "idle_ns",
    "wakeups",
    "steals",
    "steal_misses",
    "local_hits",
    "tasks_batched",
    "ready_hwm",
    "am_count",
    "am_bytes",
    "rma_gets",
    "rma_bytes",
    "local_deliveries",
    "serializations",
    "data_copies",
    "bcast_sends_saved",
    "am_retries",
    "am_dedup_hits",
    "ack_flushes",
    "tx_bytes",
    "tx_writes",
    "tx_coalesced",
    "queue_hwm",
    "connects",
    "reconnects",
    "pool_hits",
    "pool_misses",
];

fn raw(name: &str) -> usize {
    RAW.iter()
        .position(|n| *n == name)
        .unwrap_or_else(|| panic!("unknown raw counter {name}"))
}

impl Counts {
    pub fn zero() -> Counts {
        Counts([0.0; RAW.len()])
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0[raw(name)]
    }

    fn set(&mut self, name: &str, v: u64) {
        self.0[raw(name)] = v as f64;
    }

    /// Counters of a fabric: everything `StatsSnapshot` carries that a
    /// layer metric is built from.
    pub fn from_stats(s: &StatsSnapshot) -> Counts {
        let mut c = Counts::zero();
        c.set("am_count", s.am_count);
        c.set("am_bytes", s.am_bytes);
        c.set("rma_gets", s.rma_gets);
        c.set("rma_bytes", s.rma_bytes);
        c.set("local_deliveries", s.local_deliveries);
        c.set("serializations", s.serializations);
        c.set("data_copies", s.data_copies);
        c.set("bcast_sends_saved", s.bcast_sends_saved);
        c.set("am_retries", s.am_retries);
        c.set("am_dedup_hits", s.am_dedup_hits);
        c.set("ack_flushes", s.ack_flushes);
        c.set("tx_bytes", s.transport_tx_bytes);
        c.set("tx_writes", s.transport_tx_writes);
        c.set("tx_coalesced", s.transport_tx_frames_coalesced);
        c.set("queue_hwm", s.transport_queue_hwm);
        c.set("connects", s.transport_connects);
        c.set("reconnects", s.transport_reconnects);
        c.set("ready_hwm", s.sched_ready_hwm);
        c
    }

    /// Counters of one graph execution: the fabric's, plus the `core` and
    /// `sched` registry counters summed over the ranks this process hosts.
    pub fn from_report(report: &ExecReport) -> Counts {
        let mut c = Counts::from_stats(&report.comm);
        c.set("tasks", report.tasks);
        let sum = |subsystem: &str, name: &str| -> u64 {
            report
                .telemetry
                .entries
                .iter()
                .filter(|(k, _)| k.rank.is_some() && k.subsystem == subsystem && k.name == name)
                .map(|(_, v)| match v {
                    MetricValue::Counter(n) => *n,
                    _ => 0,
                })
                .sum()
        };
        for name in [
            "values_shared",
            "deep_copies_avoided",
            "cow_clones",
            "cloned_bytes",
        ] {
            c.set(name, sum("core", name));
        }
        for name in [
            "idle_ns",
            "wakeups",
            "steals",
            "steal_misses",
            "local_hits",
            "tasks_batched",
        ] {
            c.set(name, sum("sched", name));
        }
        c
    }

    /// Add the wire-buffer pool traffic between two process-wide samples.
    pub fn with_pool(mut self, before: PoolStats, after: PoolStats) -> Counts {
        self.set("pool_hits", after.hits - before.hits);
        self.set("pool_misses", after.misses - before.misses);
        self
    }

    /// Combine the counters of two processes of one rep.
    pub fn merge(&self, other: &Counts) -> Counts {
        let mut out = self.clone();
        for (i, name) in RAW.iter().enumerate() {
            out.0[i] = if name.ends_with("_hwm") {
                out.0[i].max(other.0[i])
            } else {
                out.0[i] + other.0[i]
            };
        }
        out
    }

    pub fn to_line(&self) -> String {
        let cells: Vec<String> = self.0.iter().map(|v| v.to_string()).collect();
        cells.join(" ")
    }

    pub fn from_line(line: &str) -> Option<Counts> {
        let mut c = Counts::zero();
        let mut cells = line.split_ascii_whitespace();
        for slot in c.0.iter_mut() {
            *slot = cells.next()?.parse().ok()?;
        }
        cells.next().is_none().then_some(c)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The count-type layer metrics of one rep, by public name. A metric whose
/// name is in [`APPROXIMATE`] depends on thread timing; all others must
/// repeat exactly for the same seed.
pub fn count_metrics(c: &Counts) -> Vec<(&'static str, f64)> {
    let g = |n| c.get(n);
    vec![
        ("core.tasks", g("tasks")),
        ("core.values_shared", g("values_shared")),
        ("core.deep_copies_avoided", g("deep_copies_avoided")),
        ("core.cow_clones", g("cow_clones")),
        ("core.cloned_bytes", g("cloned_bytes")),
        ("runtime.idle_s", g("idle_ns") / 1e9),
        ("runtime.wakeups", g("wakeups")),
        ("runtime.steals", g("steals")),
        ("runtime.steal_misses", g("steal_misses")),
        ("runtime.local_hits", g("local_hits")),
        ("runtime.tasks_batched", g("tasks_batched")),
        ("runtime.ready_hwm", g("ready_hwm")),
        ("comm.am_count", g("am_count")),
        ("comm.am_bytes", g("am_bytes")),
        ("comm.rma_gets", g("rma_gets")),
        ("comm.rma_bytes", g("rma_bytes")),
        ("comm.local_deliveries", g("local_deliveries")),
        ("comm.serializations", g("serializations")),
        ("comm.data_copies", g("data_copies")),
        ("comm.bcast_sends_saved", g("bcast_sends_saved")),
        ("comm.am_retries", g("am_retries")),
        ("comm.am_dedup_hits", g("am_dedup_hits")),
        ("comm.ack_flushes", g("ack_flushes")),
        ("comm.acks_per_msg", ratio(g("ack_flushes"), g("am_count"))),
        (
            "comm.retries_per_msg",
            ratio(g("am_retries"), g("am_count")),
        ),
        ("transport.tx_bytes", g("tx_bytes")),
        ("transport.tx_writes", g("tx_writes")),
        (
            "transport.frames_per_write",
            ratio(g("tx_writes") + g("tx_coalesced"), g("tx_writes")),
        ),
        ("transport.queue_hwm", g("queue_hwm")),
        ("transport.connects", g("connects")),
        ("transport.reconnects", g("reconnects")),
        (
            "transport.pool_hit_rate",
            ratio(g("pool_hits"), g("pool_hits") + g("pool_misses")),
        ),
    ]
}

/// Split of the worker-thread capacity of a run (`lanes × exec wall`) into
/// time inside numerical kernels, time parked idle, and the rest — which
/// is matching, scheduling, serialising and sending on worker threads.
/// The three shares sum to 1 by construction.
pub struct Attribution {
    pub kernel_frac: f64,
    pub idle_frac: f64,
    pub overhead_frac: f64,
}

pub fn attribute(kernel_s: f64, idle_s: f64, lanes: f64, exec_s: f64) -> Attribution {
    let capacity = lanes * exec_s;
    if capacity <= 0.0 {
        return Attribution {
            kernel_frac: 0.0,
            idle_frac: 0.0,
            overhead_frac: 1.0,
        };
    }
    let kernel_frac = kernel_s / capacity;
    let idle_frac = idle_s / capacity;
    Attribution {
        kernel_frac,
        idle_frac,
        overhead_frac: 1.0 - kernel_frac - idle_frac,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_line_round_trips() {
        let mut c = Counts::zero();
        c.set("tasks", 520);
        c.set("queue_hwm", 7);
        assert_eq!(Counts::from_line(&c.to_line()), Some(c));
        assert_eq!(Counts::from_line("1 2 3"), None);
    }

    #[test]
    fn merge_adds_counters_and_maxes_marks() {
        let mut a = Counts::zero();
        let mut b = Counts::zero();
        a.set("am_count", 3);
        b.set("am_count", 4);
        a.set("ready_hwm", 9);
        b.set("ready_hwm", 5);
        let m = a.merge(&b);
        assert_eq!(m.get("am_count"), 7.0);
        assert_eq!(m.get("ready_hwm"), 9.0);
    }

    #[test]
    fn attribution_sums_to_one() {
        let a = attribute(0.12, 0.03, 2.0, 0.1);
        assert!((a.kernel_frac + a.idle_frac + a.overhead_frac - 1.0).abs() < 1e-12);
        let z = attribute(0.0, 0.0, 2.0, 0.0);
        assert_eq!(z.overhead_frac, 1.0);
    }
}
