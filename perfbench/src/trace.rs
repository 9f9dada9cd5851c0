//! In-memory spans recorded by the benchmark around its calls into the
//! program: workload → pass → op → layer call. Nothing inside the program
//! is traced; the program's own `rml_session::trace` sink stays off.
//!
//! A disabled tracer records nothing, so an untraced pass pays one branch
//! per call site.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    /// The op this span belongs to (0 outside any op).
    pub op: u64,
    /// The pass this span belongs to (0 in setup, 1.. for passes).
    pub pass: u32,
    pub start: Duration,
    pub dur: Duration,
}

pub struct Tracer {
    pub on: bool,
    t0: Instant,
    pub spans: Vec<Span>,
    open: Vec<(usize, Instant)>,
    last: Option<usize>,
    op: u64,
    pass: u32,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            last: None,
            op: 0,
            pass: 0,
        }
    }

    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    pub fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let now = Instant::now();
        self.spans.push(Span {
            name,
            parent: self.open.last().map(|&(i, _)| i),
            op: self.op,
            pass: self.pass,
            start: now - self.t0,
            dur: Duration::ZERO,
        });
        self.open.push((self.spans.len() - 1, now));
    }

    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let (i, started) = self.open.pop().expect("end without begin");
        self.spans[i].dur = started.elapsed();
        self.last = Some(i);
    }

    /// Opens the span of op `op`; its descendants carry the id.
    pub fn begin_op(&mut self, op: u64) {
        self.op = op;
        self.begin("op");
    }

    pub fn end_op(&mut self) {
        self.end();
        self.op = 0;
    }

    /// Times `f` as a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Adds a child to the span closed last, at `offset` from its start.
    /// Used for durations the program reports itself (compile phases, GC
    /// pauses), whose exact position inside the call is not observable.
    pub fn child_of_last(&mut self, name: &'static str, offset: Duration, dur: Duration) {
        if !self.on {
            return;
        }
        let Some(parent) = self.last else { return };
        let p = &self.spans[parent];
        let span = Span {
            name,
            parent: Some(parent),
            op: p.op,
            pass: p.pass,
            start: p.start + offset,
            dur,
        };
        self.spans.push(span);
    }

    /// The duration of the span closed last.
    pub fn last_dur(&self) -> Duration {
        self.last.map_or(Duration::ZERO, |i| self.spans[i].dur)
    }

    /// Self time (duration minus the children's durations) summed per
    /// span name, over the spans `keep` accepts.
    pub fn self_times(&self, keep: impl Fn(&Span) -> bool) -> BTreeMap<&'static str, Duration> {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            if keep(s) {
                *out.entry(s.name).or_insert(Duration::ZERO) += s.dur.saturating_sub(c);
            }
        }
        out
    }

    /// The spans as a Chrome trace (`chrome://tracing`, Perfetto):
    /// complete events with the op id, pass and parent in `args`.
    pub fn chrome_json(&self) -> String {
        let mut s = String::from("{\"traceEvents\":[\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                s,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{},\"pass\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                sp.name,
                sp.start.as_secs_f64() * 1e6,
                sp.dur.as_secs_f64() * 1e6,
                sp.op,
                sp.pass,
            );
        }
        s.push_str("\n]}\n");
        s
    }
}
