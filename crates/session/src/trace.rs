//! The observability facade: spans, instants, and counters, fanned out to
//! the sink of the current trace scope.
//!
//! Every layer of the stack (pipeline phases, the region-inference
//! fix-point, the abstract machine, the collector) calls into this module
//! unconditionally; whether anything happens is decided by one relaxed
//! atomic load. **The disabled path performs no allocation, takes no lock
//! and reads no thread-local** — [`enabled`] is a single load of the
//! process-wide count of open scopes, and every entry point checks it
//! before touching arguments. The perf smoke suite pins this contract
//! (`events_recorded()` must stay zero across an instrumented run with no
//! scope open).
//!
//! A sink is attached to one thread for the extent of a closure with
//! [`scoped`]; events emitted on other threads never reach it. A driver
//! that fans work out to other threads hands the sink on explicitly
//! (fetch it with [`current`] and open a scope on the worker), so two
//! concurrent sessions never interleave in one trace.
//!
//! The default sink is a [`Recorder`]: an in-memory event buffer with a
//! Chrome trace-event JSON exporter ([`Recorder::to_chrome_json`]) whose
//! output loads in `about://tracing` and Perfetto. Spans are emitted as
//! paired `B`/`E` events per thread, so nesting (GC pauses inside a run
//! span, phases inside a compile span) is reconstructed by the viewer.

use crate::json::Json;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Event phase, mirroring the Chrome trace-event `ph` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePhase {
    /// Span begin (`B`).
    Begin,
    /// Span end (`E`).
    End,
    /// Instant event (`i`).
    Instant,
    /// Counter sample (`C`).
    Counter,
}

impl TracePhase {
    fn chrome(self) -> &'static str {
        match self {
            TracePhase::Begin => "B",
            TracePhase::End => "E",
            TracePhase::Instant => "i",
            TracePhase::Counter => "C",
        }
    }
}

/// One recorded event (as stored by the [`Recorder`]).
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Event name (`"gc.collect"`, `"region-inference"`, …).
    pub name: &'static str,
    /// Category (`"pipeline"`, `"eval"`, `"runtime"`, `"counter"`).
    pub cat: &'static str,
    /// Phase.
    pub ph: TracePhase,
    /// Microseconds since the recorder's epoch.
    pub ts_us: u64,
    /// Logical thread id (small integers, stable per thread).
    pub tid: u64,
    /// Numeric arguments (counter values, sizes, counts).
    pub args: Vec<(&'static str, f64)>,
}

/// A destination for trace events. Implementations must be cheap enough
/// to call from the machine's step loop (the facade already gates on
/// [`enabled`], so a sink only ever sees events somebody asked for).
pub trait TraceSink: Send + Sync {
    /// Records one event. `args` is borrowed; sinks copy what they keep.
    fn record(
        &self,
        ph: TracePhase,
        name: &'static str,
        cat: &'static str,
        args: &[(&'static str, f64)],
    );
}

/// Scopes open anywhere in the process. Zero means no thread can have a
/// sink, so [`enabled`] answers without reading the thread-local.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);
static RECORDED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static SINK: RefCell<Option<Arc<dyn TraceSink>>> = const { RefCell::new(None) };
}

/// Is any trace scope open? One relaxed atomic load; the whole cost of
/// the instrumentation when tracing is off. A `true` answer only means
/// the event is worth routing: a thread without a sink drops it.
#[inline]
pub fn enabled() -> bool {
    ACTIVE.load(Ordering::Relaxed) != 0
}

/// Runs `f` with `sink` receiving every event emitted on this thread,
/// then restores the thread's previous sink (scopes nest). Events from
/// other threads — including threads `f` spawns — do not reach `sink`
/// unless they open their own scope with it.
pub fn scoped<T>(sink: Arc<dyn TraceSink>, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<Arc<dyn TraceSink>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0.take();
            SINK.with(|s| *s.borrow_mut() = prev);
            ACTIVE.fetch_sub(1, Ordering::SeqCst);
        }
    }
    ACTIVE.fetch_add(1, Ordering::SeqCst);
    let _restore = Restore(SINK.with(|s| s.borrow_mut().replace(sink)));
    f()
}

/// This thread's sink, if it is inside a [`scoped`] call — what a driver
/// hands on to the workers it spawns.
pub fn current() -> Option<Arc<dyn TraceSink>> {
    if !enabled() {
        return None;
    }
    SINK.with(|s| s.borrow().clone())
}

/// Events delivered to any sink since process start — a cheap handle for
/// tests asserting the disabled path stays silent.
pub fn events_recorded() -> u64 {
    RECORDED.load(Ordering::Relaxed)
}

/// Hands an event to this thread's sink, if it has one; returns whether
/// it did. Reads the thread-local only while some scope is open.
fn with_sink(f: impl FnOnce(&dyn TraceSink)) -> bool {
    if !enabled() {
        return false;
    }
    SINK.with(|s| match &*s.borrow() {
        Some(sink) => {
            RECORDED.fetch_add(1, Ordering::Relaxed);
            f(&**sink);
            true
        }
        None => false,
    })
}

/// An RAII span: `B` on creation, `E` on drop, both suppressed when the
/// thread had no sink at creation time.
#[must_use = "a span traces the scope it is alive for"]
pub struct Span {
    name: &'static str,
    cat: &'static str,
    armed: bool,
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.armed {
            with_sink(|s| s.record(TracePhase::End, self.name, self.cat, &[]));
        }
    }
}

/// Opens a span. Zero-cost (a bool check, no allocation) when disabled.
#[inline]
pub fn span(name: &'static str, cat: &'static str) -> Span {
    let armed = enabled() && with_sink(|s| s.record(TracePhase::Begin, name, cat, &[]));
    Span { name, cat, armed }
}

/// Emits an instant event with numeric arguments.
#[inline]
pub fn instant(name: &'static str, cat: &'static str, args: &[(&'static str, f64)]) {
    if !enabled() {
        return;
    }
    with_sink(|s| s.record(TracePhase::Instant, name, cat, args));
}

/// Emits a counter sample (rendered as a stacked chart by trace viewers).
#[inline]
pub fn counter(name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    with_sink(|s| s.record(TracePhase::Counter, name, "counter", &[("value", value)]));
}

fn current_tid() -> u64 {
    static NEXT_TID: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

/// The in-memory sink: timestamps events against its construction epoch
/// and exports them as Chrome trace-event JSON.
pub struct Recorder {
    epoch: Instant,
    events: Mutex<Vec<TraceEvent>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose epoch is "now".
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            events: Mutex::new(Vec::new()),
        }
    }

    /// A snapshot of the recorded events, in arrival order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().map(|e| e.clone()).unwrap_or_default()
    }

    /// Renders the buffer in the Chrome trace-event format (JSON object
    /// form, loadable in `about://tracing` and Perfetto). Spans come out
    /// as `B`/`E` pairs, instants as `i` with thread scope, counters as
    /// `C` samples.
    pub fn to_chrome_json(&self) -> String {
        let events = self.events();
        let mut arr = Vec::with_capacity(events.len());
        for e in &events {
            let mut fields = vec![
                ("name".to_string(), Json::str(e.name)),
                ("cat".to_string(), Json::str(e.cat)),
                ("ph".to_string(), Json::str(e.ph.chrome())),
                ("ts".to_string(), Json::UInt(e.ts_us)),
                ("pid".to_string(), Json::UInt(1)),
                ("tid".to_string(), Json::UInt(e.tid)),
            ];
            if e.ph == TracePhase::Instant {
                fields.push(("s".to_string(), Json::str("t")));
            }
            if !e.args.is_empty() {
                let args = e
                    .args
                    .iter()
                    .map(|(k, v)| {
                        let val = if v.is_finite() {
                            Json::Num(*v)
                        } else {
                            Json::Null
                        };
                        (k.to_string(), val)
                    })
                    .collect();
                fields.push(("args".to_string(), Json::Obj(args)));
            }
            arr.push(Json::Obj(fields));
        }
        Json::obj([
            ("traceEvents", Json::Arr(arr)),
            ("displayTimeUnit", Json::str("ms")),
        ])
        .render()
    }
}

impl TraceSink for Recorder {
    fn record(
        &self,
        ph: TracePhase,
        name: &'static str,
        cat: &'static str,
        args: &[(&'static str, f64)],
    ) {
        let ev = TraceEvent {
            name,
            cat,
            ph,
            ts_us: self.epoch.elapsed().as_micros() as u64,
            tid: current_tid(),
            args: args.to_vec(),
        };
        if let Ok(mut buf) = self.events.lock() {
            buf.push(ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_path_records_nothing() {
        // No scope on this thread: even if a concurrently running test
        // has one open, nothing emitted here reaches any sink.
        let rec = Arc::new(Recorder::new());
        {
            let _s = span("quiet", "test");
            instant("quiet.i", "test", &[("n", 1.0)]);
            counter("quiet.c", 2.0);
        }
        assert!(current().is_none());
        assert!(rec.events().is_empty());
    }

    #[test]
    fn recorder_pairs_spans_and_exports_chrome_events() {
        let rec = Arc::new(Recorder::new());
        scoped(rec.clone(), || {
            let _outer = span("outer", "test");
            let _inner = span("inner", "test");
            counter("bytes", 42.0);
        });
        let evs = rec.events();
        let phs: Vec<TracePhase> = evs.iter().map(|e| e.ph).collect();
        assert_eq!(
            phs,
            vec![
                TracePhase::Begin,
                TracePhase::Begin,
                TracePhase::Counter,
                TracePhase::End,
                TracePhase::End
            ]
        );
        // Inner closes before outer (drop order).
        assert_eq!(evs[3].name, "inner");
        assert_eq!(evs[4].name, "outer");
        let json = rec.to_chrome_json();
        assert!(json.contains("\"traceEvents\""), "{json}");
        assert!(json.contains("\"ph\":\"B\""), "{json}");
        assert!(json.contains("\"args\":{\"value\":42}"), "{json}");
    }

    #[test]
    fn span_created_before_install_never_emits_its_end() {
        let s = span("pre", "test");
        let rec = Arc::new(Recorder::new());
        scoped(rec.clone(), || drop(s)); // created unarmed; must stay silent
        assert!(rec.events().is_empty());
    }

    #[test]
    fn scopes_nest_and_stay_on_their_thread() {
        let outer = Arc::new(Recorder::new());
        let inner = Arc::new(Recorder::new());
        scoped(outer.clone(), || {
            instant("a", "test", &[]);
            scoped(inner.clone(), || instant("b", "test", &[]));
            instant("c", "test", &[]);
            // A thread spawned inside the scope starts without a sink.
            std::thread::spawn(|| {
                assert!(current().is_none());
                instant("foreign", "test", &[]);
            })
            .join()
            .unwrap();
        });
        let names = |r: &Recorder| r.events().iter().map(|e| e.name).collect::<Vec<_>>();
        assert_eq!(names(&outer), ["a", "c"]);
        assert_eq!(names(&inner), ["b"]);
        assert!(current().is_none());
    }
}
