//! The harness's own spans, recorded around the calls into the program
//! (set-up, burst, connect, run, verify). Kept in memory and written once,
//! when the worker ends, as a Chrome trace (`chrome://tracing`, Perfetto).

use std::path::Path;
use std::time::Instant;

use crate::json::Value;

pub struct Span {
    name: &'static str,
    /// The rep the span belongs to (shared identifier of one "request");
    /// `None` for set-up and probe spans.
    rep: Option<usize>,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
    start_us: f64,
    end_us: f64,
}

pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Record `f` as a span and return its result together with the span's
    /// index (to name it as the parent of spans recorded inside).
    pub fn record<T>(
        &mut self,
        name: &'static str,
        rep: Option<usize>,
        parent: Option<usize>,
        f: impl FnOnce(&mut Spans, usize) -> T,
    ) -> T {
        let idx = self.spans.len();
        let start_us = self.origin.elapsed().as_secs_f64() * 1e6;
        self.spans.push(Span {
            name,
            rep,
            parent,
            start_us,
            end_us: start_us,
        });
        let out = f(self, idx);
        self.spans[idx].end_us = self.origin.elapsed().as_secs_f64() * 1e6;
        out
    }

    /// Record an interval that was measured elsewhere.
    pub fn add(
        &mut self,
        name: &'static str,
        rep: Option<usize>,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) {
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        self.spans.push(Span {
            name,
            rep,
            parent,
            start_us: us(start),
            end_us: us(end),
        });
    }

    /// A span's duration minus the part its direct children cover.
    pub fn self_time_us(&self, idx: usize) -> f64 {
        let s = &self.spans[idx];
        let covered: f64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(idx))
            .map(|c| c.end_us - c.start_us)
            .sum();
        s.end_us - s.start_us - covered
    }

    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write every span as a Chrome-trace complete event.
    pub fn write_chrome(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let events = self.spans.iter().enumerate().map(|(i, s)| {
            let mut args = vec![
                ("span", Value::Num(i as f64)),
                ("self_us", Value::Num(self.self_time_us(i))),
            ];
            if let Some(r) = s.rep {
                args.push(("rep", Value::Num(r as f64)));
            }
            if let Some(p) = s.parent {
                args.push(("parent", Value::Num(p as f64)));
            }
            Value::object([
                ("name", Value::Str(s.name.into())),
                ("cat", Value::Str(workload.into())),
                ("ph", Value::Str("X".into())),
                ("pid", Value::Num(std::process::id() as f64)),
                ("tid", Value::Num(0.0)),
                ("ts", Value::Num(s.start_us)),
                ("dur", Value::Num(s.end_us - s.start_us)),
                ("args", Value::object(args)),
            ])
        });
        let doc = Value::object([("traceEvents", Value::Arr(events.collect()))]);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, doc.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut s = Spans::new();
        s.record("rep", Some(0), None, |s, rep| {
            s.record("run", Some(0), Some(rep), |_, _| {
                std::thread::sleep(std::time::Duration::from_millis(5));
            });
        });
        assert_eq!(s.len(), 2);
        let rep = &s.spans[0];
        let total = rep.end_us - rep.start_us;
        assert!(total >= 5_000.0);
        assert!(s.self_time_us(0) < total - 4_000.0);
    }
}
