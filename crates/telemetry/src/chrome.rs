//! Chrome trace-event JSON export (loadable in Perfetto and
//! `chrome://tracing`).
//!
//! The builder merges two sources onto one timeline:
//! * span/instant [`EventRec`]s drained from the span layer, and
//! * [`TaskSlice`]s adapted from the runtime's task trace.
//!
//! Logical ranks map to trace *processes* (`pid = rank + 1`; `pid 0` holds
//! unranked runtime events) and recording threads map to trace *threads*.
//! Duration events are emitted as balanced `B`/`E` pairs: for every `B`
//! there is exactly one matching `E` on the same `(pid, tid)`, closed in
//! LIFO order, which is what the trace viewers require and what the schema
//! tests assert. Timestamps (`ts`) are microseconds, as the format requires.

use std::collections::BTreeMap;

use crate::json::escape;
use crate::span::EventRec;

/// One executed task, adapted from the runtime trace for export.
///
/// Slices on the same `(rank, tid)` must be disjoint or properly nested;
/// the layout pass in the exporting code is responsible for that (the
/// core's sequential per-rank layout satisfies it trivially).
#[derive(Debug, Clone)]
pub struct TaskSlice {
    /// Displayed task name.
    pub name: String,
    /// Owning logical rank.
    pub rank: u32,
    /// Thread lane within the rank's process.
    pub tid: u32,
    /// Start, ns on the shared timeline.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
    /// Up to two numeric arguments (e.g. priority, dependency count).
    pub args: [Option<(&'static str, u64)>; 2],
}

/// Map a rank attribution to a trace pid.
pub(crate) fn pid_for(rank: Option<u32>) -> u64 {
    match rank {
        Some(r) => r as u64 + 1,
        None => 0,
    }
}

#[derive(Debug, Clone)]
struct SpanRow {
    pid: u64,
    tid: u32,
    cat: &'static str,
    name: String,
    t0_ns: u64,
    t1_ns: u64,
    args: [Option<(&'static str, u64)>; 2],
}

#[derive(Debug, Clone)]
struct InstantRow {
    pid: u64,
    tid: u32,
    cat: &'static str,
    name: String,
    ts_ns: u64,
    args: [Option<(&'static str, u64)>; 2],
}

/// Accumulates events and serializes them as Chrome trace-event JSON.
#[derive(Debug, Default)]
pub struct ChromeTraceBuilder {
    spans: Vec<SpanRow>,
    instants: Vec<InstantRow>,
    thread_names: BTreeMap<u32, String>,
}

impl ChromeTraceBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingest drained span-layer events (spans become `B`/`E` pairs,
    /// instants become `i` events).
    pub fn add_events(&mut self, events: impl IntoIterator<Item = EventRec>) -> &mut Self {
        for ev in events {
            let pid = pid_for(ev.rank);
            match ev.dur_ns {
                Some(dur) => self.spans.push(SpanRow {
                    pid,
                    tid: ev.tid,
                    cat: ev.cat,
                    name: ev.name,
                    t0_ns: ev.t0_ns,
                    t1_ns: ev.t0_ns.saturating_add(dur),
                    args: ev.args,
                }),
                None => self.instants.push(InstantRow {
                    pid,
                    tid: ev.tid,
                    cat: ev.cat,
                    name: ev.name,
                    ts_ns: ev.t0_ns,
                    args: ev.args,
                }),
            }
        }
        self
    }

    /// Register display names for telemetry thread ids.
    pub fn add_thread_names(
        &mut self,
        names: impl IntoIterator<Item = (u32, String)>,
    ) -> &mut Self {
        self.thread_names.extend(names);
        self
    }

    /// Add one task slice from the runtime trace.
    pub fn add_task_slice(&mut self, s: TaskSlice) -> &mut Self {
        self.spans.push(SpanRow {
            pid: pid_for(Some(s.rank)),
            tid: s.tid,
            cat: "task",
            name: s.name,
            t0_ns: s.start_ns,
            t1_ns: s.start_ns.saturating_add(s.dur_ns),
            args: s.args,
        });
        self
    }

    /// Serialize everything as `{"traceEvents":[...],"displayTimeUnit":"ms"}`.
    pub fn build(&self) -> String {
        let mut events: Vec<String> = Vec::new();

        // Metadata: name each process and each thread lane we will emit on.
        let mut pids: Vec<u64> = Vec::new();
        let mut lanes: Vec<(u64, u32)> = Vec::new();
        for s in &self.spans {
            pids.push(s.pid);
            lanes.push((s.pid, s.tid));
        }
        for i in &self.instants {
            pids.push(i.pid);
            lanes.push((i.pid, i.tid));
        }
        pids.sort_unstable();
        pids.dedup();
        lanes.sort_unstable();
        lanes.dedup();
        for pid in &pids {
            let pname = if *pid == 0 {
                "runtime".to_string()
            } else {
                format!("rank {}", pid - 1)
            };
            events.push(format!(
                "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{pid},\"tid\":0,\
                 \"args\":{{\"name\":\"{}\"}}}}",
                escape(&pname)
            ));
        }
        for (pid, tid) in &lanes {
            let tname = self
                .thread_names
                .get(tid)
                .cloned()
                .unwrap_or_else(|| format!("thread {tid}"));
            events.push(format!(
                "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{pid},\"tid\":{tid},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                escape(&tname)
            ));
        }

        // Duration events, balanced per (pid, tid) by construction: within
        // each lane, sort outer-before-inner and close with an explicit
        // LIFO stack so every B gets exactly one E.
        let mut by_lane: BTreeMap<(u64, u32), Vec<&SpanRow>> = BTreeMap::new();
        for s in &self.spans {
            by_lane.entry((s.pid, s.tid)).or_default().push(s);
        }
        for ((pid, tid), mut rows) in by_lane {
            rows.sort_by_key(|s| (s.t0_ns, std::cmp::Reverse(s.t1_ns)));
            let mut stack: Vec<u64> = Vec::new();
            for s in rows {
                while let Some(&end) = stack.last() {
                    if end <= s.t0_ns {
                        events.push(end_event(pid, tid, end));
                        stack.pop();
                    } else {
                        break;
                    }
                }
                // Clamp partial overlaps so nesting stays well-formed.
                let t1 = match stack.last() {
                    Some(&parent_end) => s.t1_ns.min(parent_end),
                    None => s.t1_ns,
                };
                events.push(begin_event(pid, tid, s));
                stack.push(t1);
            }
            while let Some(end) = stack.pop() {
                events.push(end_event(pid, tid, end));
            }
        }

        for i in &self.instants {
            events.push(format!(
                "{{\"ph\":\"i\",\"s\":\"t\",\"name\":\"{}\",\"cat\":\"{}\",\
                 \"ts\":{},\"pid\":{},\"tid\":{},\"args\":{{{}}}}}",
                escape(&i.name),
                escape(i.cat),
                ts_us(i.ts_ns),
                i.pid,
                i.tid,
                fmt_args(&i.args)
            ));
        }

        let mut out = String::from("{\"traceEvents\":[");
        out.push_str(&events.join(","));
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

fn ts_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

fn fmt_args(args: &[Option<(&'static str, u64)>; 2]) -> String {
    args.iter()
        .flatten()
        .map(|(k, v)| format!("\"{}\":{v}", escape(k)))
        .collect::<Vec<_>>()
        .join(",")
}

fn begin_event(pid: u64, tid: u32, s: &SpanRow) -> String {
    format!(
        "{{\"ph\":\"B\",\"name\":\"{}\",\"cat\":\"{}\",\"ts\":{},\
         \"pid\":{pid},\"tid\":{tid},\"args\":{{{}}}}}",
        escape(&s.name),
        escape(s.cat),
        ts_us(s.t0_ns),
        fmt_args(&s.args)
    )
}

fn end_event(pid: u64, tid: u32, end_ns: u64) -> String {
    format!(
        "{{\"ph\":\"E\",\"ts\":{},\"pid\":{pid},\"tid\":{tid}}}",
        ts_us(end_ns)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(tid: u32, rank: Option<u32>, name: &str, t0: u64, dur: Option<u64>) -> EventRec {
        EventRec {
            tid,
            rank,
            cat: "test",
            name: name.into(),
            t0_ns: t0,
            dur_ns: dur,
            args: [Some(("bytes", 64)), None],
        }
    }

    #[test]
    fn builds_valid_balanced_trace() {
        let mut b = ChromeTraceBuilder::new();
        b.add_events([
            rec(0, Some(0), "outer", 1_000, Some(10_000)),
            rec(0, Some(0), "inner", 2_000, Some(3_000)),
            rec(1, None, "xfer", 4_000, None),
        ]);
        b.add_task_slice(TaskSlice {
            name: "potrf(0,0)".into(),
            rank: 1,
            tid: 7,
            start_ns: 500,
            dur_ns: 2_500,
            args: [Some(("prio", 3)), None],
        });
        b.add_thread_names([(0, "worker-0".to_string())]);

        let json = b.build();
        crate::json::validate(&json).expect("chrome trace must be valid JSON");

        let begins = json.matches("\"ph\":\"B\"").count();
        let ends = json.matches("\"ph\":\"E\"").count();
        assert_eq!(begins, 3);
        assert_eq!(begins, ends);
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"name\":\"rank 0\""));
        assert!(json.contains("\"name\":\"worker-0\""));
        assert!(json.contains("\"ts\":1.000"));
    }

    #[test]
    fn nesting_is_lifo_even_for_disjoint_spans() {
        let mut b = ChromeTraceBuilder::new();
        // Two disjoint spans then one covering span added out of order.
        b.add_events([
            rec(0, Some(2), "late", 5_000, Some(1_000)),
            rec(0, Some(2), "early", 1_000, Some(1_000)),
            rec(0, Some(2), "cover", 500, Some(8_000)),
        ]);
        let json = b.build();
        crate::json::validate(&json).unwrap();
        // Walk B/E events in emitted order, tracking stack depth; it must
        // never go negative and must end at zero.
        let mut depth: i64 = 0;
        for part in json.split("\"ph\":\"").skip(1) {
            match &part[..1] {
                "B" => depth += 1,
                "E" => {
                    depth -= 1;
                    assert!(depth >= 0);
                }
                _ => {}
            }
        }
        assert_eq!(depth, 0);
    }
}
