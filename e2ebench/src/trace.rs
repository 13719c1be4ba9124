//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A [`Tracer`] belongs to one thread; spans nest through an explicit
//! stack, so a span's parent is whatever span was open when it began.
//! Spans stay in memory and are written out as JSONL when the run ends.
//! With tracing off, [`Tracer::span`] only runs the closure.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the run's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// Request identifier shared by every span of one request.
    pub req: Option<String>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, tagged with request `req`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        req: Option<&str>,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.on {
            return f(self);
        }
        let ix = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            req: req.map(str::to_owned),
        });
        self.open.push(ix);
        let out = f(self);
        self.open.pop();
        self.spans[ix].end_ns = self.now_ns();
        out
    }

    /// Total seconds spent in spans called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Appends another thread's spans, re-basing their parent indices.
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// One JSON object per span.
    pub fn jsonl(&self, workload: &str) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let req = s
                .req
                .as_deref()
                .map_or("null".to_owned(), |r| format!("\"{r}\""));
            writeln!(
                out,
                "{{\"workload\":\"{workload}\",\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\
                 \"end_ns\":{},\"parent\":{parent},\"req\":{req}}}",
                s.name, s.start_ns, s.end_ns
            )
            .expect("write to String");
        }
        out
    }

    /// Per-name count, total and self time; self time is a span's
    /// duration minus the part its direct children cover.
    pub fn self_times(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&child_ns) {
            let e = by_name.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            e.0 += 1;
            e.1 += dur as f64 * 1e-9;
            e.2 += dur.saturating_sub(*kids) as f64 * 1e-9;
        }
        let mut rows: Vec<_> = by_name
            .into_iter()
            .map(|(n, (c, t, s))| (n, c, t, s))
            .collect();
        rows.sort_by(|a, b| b.3.total_cmp(&a.3));
        rows
    }

    /// The self-time table as printable text.
    pub fn table(&self, workload: &str) -> String {
        let rows = self.self_times();
        let all: f64 = rows.iter().map(|r| r.3).sum::<f64>().max(1e-12);
        let mut out = format!(
            "self-time table ({workload})\n  {:<28} {:>6} {:>11} {:>11} {:>7}\n",
            "span", "count", "total_s", "self_s", "self%"
        );
        for (name, count, total, selft) in rows {
            writeln!(
                out,
                "  {name:<28} {count:>6} {total:>11.4} {selft:>11.4} {:>6.2}%",
                100.0 * selft / all
            )
            .expect("write to String");
        }
        out
    }
}
