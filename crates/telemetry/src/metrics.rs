//! Lock-light metrics registry.
//!
//! Metrics are keyed by `(rank, subsystem, name)`. Handle creation
//! (`counter`/`gauge`/`histogram`) takes a short-lived lock on one of 16
//! shards; the returned handle is a clonable `Arc` around atomic cells, so
//! every update afterwards is a single relaxed atomic op — the cost of a
//! bare `AtomicU64`. A counter or gauge cell is [`Padded`] onto cache lines
//! of its own: the cells of one metric at two ranks are made one after the
//! other, and two ranks' workers bumping them must not write one line.
//! Components declare their handles with [`metrics!`](crate::metrics), one
//! row per metric.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::RwLock;

use crate::json::escape;

const SHARDS: usize = 16;

/// Identity of one metric: `(rank, subsystem, name)`.
///
/// `rank: None` means "whole execution" (e.g. fabric-wide wire counters);
/// `Some(r)` attributes the metric to logical rank `r`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetricKey {
    /// Logical rank, or `None` for execution-wide metrics.
    pub rank: Option<u32>,
    /// Subsystem label (`"comm"`, `"sched"`, `"core"`, `"backend"`, ...).
    pub subsystem: &'static str,
    /// Metric name within the subsystem.
    pub name: &'static str,
}

impl MetricKey {
    /// Execution-wide key.
    pub fn global(subsystem: &'static str, name: &'static str) -> Self {
        MetricKey {
            rank: None,
            subsystem,
            name,
        }
    }

    /// Per-rank key.
    pub fn ranked(rank: usize, subsystem: &'static str, name: &'static str) -> Self {
        MetricKey {
            rank: Some(rank as u32),
            subsystem,
            name,
        }
    }
}

impl fmt::Display for MetricKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.rank {
            Some(r) => write!(f, "r{}/{}/{}", r, self.subsystem, self.name),
            None => write!(f, "*/{}/{}", self.subsystem, self.name),
        }
    }
}

/// A value with 64 bytes of padding on each side, so the cache lines it
/// sits on hold nothing else, wherever the allocator places it. Per-rank
/// state that the workers of one rank write per task, and that is made
/// for every rank on one thread one rank after the other (metric cells, a
/// pool's state and bound queues, a matching table's executed count), is
/// wrapped in it so that two ranks never write one line. It is padding,
/// not an alignment, so its allocation is an ordinary one (an aligned type
/// costs a `memalign` per allocation).
#[repr(C)]
#[derive(Debug, Default)]
pub struct Padded<T> {
    _front: [u64; 8],
    value: T,
    _back: [u64; 8],
}

impl<T> Padded<T> {
    /// Wrap `value`.
    pub fn new(value: T) -> Self {
        Padded {
            _front: [0; 8],
            value,
            _back: [0; 8],
        }
    }
}

impl<T> std::ops::Deref for Padded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

/// Monotonic counter handle.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<Padded<AtomicU64>>);

impl Counter {
    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Instantaneous-value gauge handle.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<Padded<AtomicI64>>);

impl Gauge {
    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add `d` (may be negative).
    #[inline]
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Raise the value to at least `v` (monotone high-water update).
    #[inline]
    pub fn set_max(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of log₂ buckets: bucket `b` holds values in `[2^(b-1), 2^b)`
/// (bucket 0 holds the value 0).
pub(crate) const HIST_BUCKETS: usize = 65;

#[derive(Debug)]
struct HistogramCore {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for HistogramCore {
    fn default() -> Self {
        HistogramCore {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: [0u64; HIST_BUCKETS].map(AtomicU64::new),
        }
    }
}

/// Log₂-bucket histogram handle.
#[derive(Clone, Debug, Default)]
pub struct Histogram(Arc<HistogramCore>);

/// Index of the log₂ bucket for `v`.
#[inline]
pub(crate) fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

impl Histogram {
    /// Record one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        let c = &*self.0;
        c.count.fetch_add(1, Ordering::Relaxed);
        c.sum.fetch_add(v, Ordering::Relaxed);
        c.min.fetch_min(v, Ordering::Relaxed);
        c.max.fetch_max(v, Ordering::Relaxed);
        c.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Record one duration, in nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Upper bound of the bucket holding the `q`-quantile (0 when empty).
    pub fn quantile(&self, q: f64) -> u64 {
        self.snapshot().quantile_upper_bound(q)
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Point-in-time summary of this histogram.
    pub fn snapshot(&self) -> HistSnapshot {
        let c = &*self.0;
        let count = c.count.load(Ordering::Relaxed);
        HistSnapshot {
            count,
            sum: c.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                c.min.load(Ordering::Relaxed)
            },
            max: c.max.load(Ordering::Relaxed),
            buckets: c
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let n = b.load(Ordering::Relaxed);
                    (n > 0).then_some((i as u8, n))
                })
                .collect(),
        }
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// Point-in-time value of one metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Histogram summary.
    Histogram(HistSnapshot),
}

/// Point-in-time histogram summary.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistSnapshot {
    /// Observations.
    pub count: u64,
    /// Sum of observations.
    pub(crate) sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Non-empty `(bucket_index, count)` pairs; bucket `b` covers
    /// `[2^(b-1), 2^b)`, bucket 0 covers exactly 0.
    pub buckets: Vec<(u8, u64)>,
}

impl HistSnapshot {
    /// Upper bound of the bucket containing the `q`-quantile (0..=1).
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for &(b, n) in &self.buckets {
            seen += n;
            if seen >= target {
                return if b == 0 { 0 } else { 1u64 << b };
            }
        }
        self.max
    }
}

/// A collection of metrics: one registry per observed component (the fabric
/// creates one per execution).
#[derive(Debug, Default)]
pub struct Registry {
    shards: [RwLock<HashMap<MetricKey, Metric>>; SHARDS],
}

fn shard_of(key: &MetricKey) -> usize {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() as usize) % SHARDS
}

impl Registry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn get_or_insert<T: Clone>(
        &self,
        key: MetricKey,
        pick: impl Fn(&Metric) -> Option<T>,
        make: impl Fn() -> (Metric, T),
    ) -> T {
        let shard = &self.shards[shard_of(&key)];
        if let Some(m) = shard.read().get(&key) {
            return pick(m).unwrap_or_else(|| {
                panic!("metric {key} already registered with a different type")
            });
        }
        let mut w = shard.write();
        if let Some(m) = w.get(&key) {
            return pick(m).unwrap_or_else(|| {
                panic!("metric {key} already registered with a different type")
            });
        }
        let (metric, handle) = make();
        w.insert(key, metric);
        handle
    }

    /// Get or create the counter for `key`.
    pub fn counter(&self, key: MetricKey) -> Counter {
        self.get_or_insert(
            key,
            |m| match m {
                Metric::Counter(c) => Some(c.clone()),
                _ => None,
            },
            || {
                let c = Counter::default();
                (Metric::Counter(c.clone()), c)
            },
        )
    }

    /// Get or create the gauge for `key`.
    pub fn gauge(&self, key: MetricKey) -> Gauge {
        self.get_or_insert(
            key,
            |m| match m {
                Metric::Gauge(g) => Some(g.clone()),
                _ => None,
            },
            || {
                let g = Gauge::default();
                (Metric::Gauge(g.clone()), g)
            },
        )
    }

    /// Get or create the histogram for `key`.
    pub fn histogram(&self, key: MetricKey) -> Histogram {
        self.get_or_insert(
            key,
            |m| match m {
                Metric::Histogram(h) => Some(h.clone()),
                _ => None,
            },
            || {
                let h = Histogram::default();
                (Metric::Histogram(h.clone()), h)
            },
        )
    }

    /// Capture every metric's current value.
    pub fn snapshot(&self) -> Snapshot {
        let mut entries = BTreeMap::new();
        for shard in &self.shards {
            for (k, m) in shard.read().iter() {
                let v = match m {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                };
                entries.insert(*k, v);
            }
        }
        Snapshot { entries }
    }
}

/// Point-in-time view of a [`Registry`], ordered by key.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Metric values keyed by identity.
    pub entries: BTreeMap<MetricKey, MetricValue>,
}

impl Snapshot {
    /// Value of `key`, if present.
    pub fn get(&self, key: &MetricKey) -> Option<&MetricValue> {
        self.entries.get(key)
    }

    /// Counter value of `key`, defaulting to 0.
    pub fn counter(&self, key: &MetricKey) -> u64 {
        match self.entries.get(key) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Gauge value of `key`, defaulting to 0.
    pub fn gauge(&self, key: &MetricKey) -> i64 {
        match self.entries.get(key) {
            Some(MetricValue::Gauge(v)) => *v,
            _ => 0,
        }
    }

    /// The change from `earlier` to `self`.
    ///
    /// Counters and histogram counts/sums/buckets subtract (saturating, so a
    /// reset earlier snapshot cannot underflow); gauges keep the later
    /// instantaneous value; histogram `min`/`max` keep the later window's
    /// bounds (log₂ buckets cannot recover exact extrema of a difference).
    /// Keys absent from `earlier` appear unchanged; keys only in `earlier`
    /// are dropped.
    pub fn diff(&self, earlier: &Snapshot) -> Snapshot {
        let mut entries = BTreeMap::new();
        for (k, v) in &self.entries {
            let d = match (v, earlier.entries.get(k)) {
                (MetricValue::Counter(now), Some(MetricValue::Counter(then))) => {
                    MetricValue::Counter(now.saturating_sub(*then))
                }
                (MetricValue::Histogram(now), Some(MetricValue::Histogram(then))) => {
                    let mut buckets: BTreeMap<u8, u64> = now.buckets.iter().copied().collect();
                    for (b, n) in &then.buckets {
                        let e = buckets.entry(*b).or_insert(0);
                        *e = e.saturating_sub(*n);
                    }
                    MetricValue::Histogram(HistSnapshot {
                        count: now.count.saturating_sub(then.count),
                        sum: now.sum.saturating_sub(then.sum),
                        min: now.min,
                        max: now.max,
                        buckets: buckets.into_iter().filter(|(_, n)| *n > 0).collect(),
                    })
                }
                (v, _) => v.clone(),
            };
            entries.insert(*k, d);
        }
        Snapshot { entries }
    }

    /// Serialize as a JSON object: `{"metrics":[{...}, ...]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"metrics\":[");
        for (i, (k, v)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let rank = match k.rank {
                Some(r) => r.to_string(),
                None => "null".into(),
            };
            out.push_str(&format!(
                "{{\"rank\":{rank},\"subsystem\":\"{}\",\"name\":\"{}\",",
                escape(k.subsystem),
                escape(k.name)
            ));
            match v {
                MetricValue::Counter(n) => {
                    out.push_str(&format!("\"type\":\"counter\",\"value\":{n}}}"));
                }
                MetricValue::Gauge(n) => {
                    out.push_str(&format!("\"type\":\"gauge\",\"value\":{n}}}"));
                }
                MetricValue::Histogram(h) => {
                    out.push_str(&format!(
                        "\"type\":\"histogram\",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
                        h.count, h.sum, h.min, h.max
                    ));
                    for (j, (b, n)) in h.buckets.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        out.push_str(&format!("[{b},{n}]"));
                    }
                    out.push_str("]}");
                }
            }
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_gauge_histogram_basic() {
        let r = Registry::new();
        let c = r.counter(MetricKey::global("t", "c"));
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same key returns the same underlying cell.
        assert_eq!(r.counter(MetricKey::global("t", "c")).get(), 5);

        let g = r.gauge(MetricKey::ranked(2, "t", "g"));
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);

        let h = r.histogram(MetricKey::global("t", "h"));
        for v in [0, 1, 2, 3, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_mismatch_panics() {
        let r = Registry::new();
        r.counter(MetricKey::global("t", "x"));
        r.gauge(MetricKey::global("t", "x"));
    }

    #[test]
    fn snapshot_and_json() {
        let r = Registry::new();
        r.counter(MetricKey::ranked(0, "comm", "am_bytes")).add(64);
        r.gauge(MetricKey::global("sched", "depth")).set(-2);
        r.histogram(MetricKey::global("comm", "msg_size"))
            .record(100);
        let s = r.snapshot();
        assert_eq!(s.counter(&MetricKey::ranked(0, "comm", "am_bytes")), 64);
        let j = s.to_json();
        crate::json::validate(&j).expect("snapshot JSON must be valid");
        assert!(j.contains("\"am_bytes\""));
        assert!(j.contains("\"type\":\"histogram\""));
    }

    #[test]
    fn quantile_bounds() {
        let h = Histogram::default();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert!(s.quantile_upper_bound(0.5) >= 50);
        assert!(s.quantile_upper_bound(1.0) >= 100);
        assert_eq!(HistSnapshot::default().quantile_upper_bound(0.9), 0);
    }
}
