//! Exporter golden tests: the Chrome trace emitted by the tracing facade
//! is structurally valid JSON, spans nest properly, and GC pauses land
//! inside the machine's run span. Also the cross-layer agreement check:
//! the unified `MetricsSnapshot` must report the same counters as an
//! independent run under a torture schedule.
//!
//! Each recording test opens its own trace scope, so the tests run
//! concurrently without seeing each other's events.

use rml::{compile, execute, ExecOpts, MetricsSnapshot, Strategy};
use rml_session::trace;
use std::sync::Arc;

// --- a minimal JSON validator (the workspace has no serde) --------------

#[derive(Debug, Clone, PartialEq)]
enum V {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<V>),
    Obj(Vec<(String, V)>),
}

impl V {
    fn get(&self, key: &str) -> Option<&V> {
        match self {
            V::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            V::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn parse(s: &'a str) -> Result<V, String> {
        let mut p = Parser {
            s: s.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing input at byte {}", p.i));
        }
        Ok(v)
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && (self.s[self.i] as char).is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<V, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(V::Obj(fields));
                }
                loop {
                    self.ws();
                    let k = match self.value()? {
                        V::Str(s) => s,
                        v => return Err(format!("non-string key {v:?}")),
                    };
                    self.eat(b':')?;
                    fields.push((k, self.value()?));
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(V::Obj(fields));
                        }
                        _ => return Err(format!("bad object at byte {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(V::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(V::Arr(items));
                        }
                        _ => return Err(format!("bad array at byte {}", self.i)),
                    }
                }
            }
            Some(b'"') => {
                self.i += 1;
                let mut out = String::new();
                loop {
                    match self.s.get(self.i) {
                        Some(b'"') => {
                            self.i += 1;
                            return Ok(V::Str(out));
                        }
                        Some(b'\\') => {
                            self.i += 1;
                            match self.s.get(self.i) {
                                Some(b'"') => out.push('"'),
                                Some(b'\\') => out.push('\\'),
                                Some(b'/') => out.push('/'),
                                Some(b'n') => out.push('\n'),
                                Some(b'r') => out.push('\r'),
                                Some(b't') => out.push('\t'),
                                Some(b'b') => out.push('\u{8}'),
                                Some(b'f') => out.push('\u{c}'),
                                Some(b'u') => {
                                    let hex = self
                                        .s
                                        .get(self.i + 1..self.i + 5)
                                        .ok_or("truncated \\u escape")?;
                                    let code = u32::from_str_radix(
                                        std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                        16,
                                    )
                                    .map_err(|e| e.to_string())?;
                                    out.push(char::from_u32(code).ok_or("bad codepoint")?);
                                    self.i += 4;
                                }
                                c => return Err(format!("bad escape {c:?}")),
                            }
                            self.i += 1;
                        }
                        Some(&c) if c < 0x20 => {
                            return Err(format!("raw control byte {c:#x} in string"))
                        }
                        Some(_) => {
                            // Consume one UTF-8 scalar.
                            let start = self.i;
                            self.i += 1;
                            while self.i < self.s.len() && self.s[self.i] & 0xC0 == 0x80 {
                                self.i += 1;
                            }
                            out.push_str(
                                std::str::from_utf8(&self.s[start..self.i])
                                    .map_err(|e| e.to_string())?,
                            );
                        }
                        None => return Err("unterminated string".to_string()),
                    }
                }
            }
            Some(c) if *c == b'-' || c.is_ascii_digit() => {
                let start = self.i;
                self.i += 1;
                while self.s.get(self.i).is_some_and(|c| {
                    c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-')
                }) {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .map_err(|e| e.to_string())?
                    .parse()
                    .map(V::Num)
                    .map_err(|e| format!("bad number: {e}"))
            }
            _ if self.s[self.i..].starts_with(b"null") => {
                self.i += 4;
                Ok(V::Null)
            }
            _ if self.s[self.i..].starts_with(b"true") => {
                self.i += 4;
                Ok(V::Bool(true))
            }
            _ if self.s[self.i..].starts_with(b"false") => {
                self.i += 5;
                Ok(V::Bool(false))
            }
            c => Err(format!("unexpected {c:?} at byte {}", self.i)),
        }
    }
}

const LOOP: &str =
    "fun main () = let fun loop (n) = if n = 0 then 0 else loop (n - 1) in loop 3000 end";

/// Compiles and runs a small allocating program under a stress schedule
/// inside a recorder's trace scope, returning the exported trace.
fn record_stressed_run() -> (String, Vec<trace::TraceEvent>) {
    let rec = Arc::new(trace::Recorder::new());
    trace::scoped(rec.clone(), || {
        let c = compile(LOOP, Strategy::Rg).unwrap();
        let opts = ExecOpts {
            gc: Some(rml_eval::GcPolicy::stress_every(50, 7)),
            ..ExecOpts::default()
        };
        execute(&c, &opts).unwrap();
    });
    (rec.to_chrome_json(), rec.events())
}

#[test]
fn chrome_trace_is_valid_json_with_phase_spans_and_gc_pauses() {
    let (json, _) = record_stressed_run();
    let v = Parser::parse(&json).expect("trace must be valid JSON");
    assert_eq!(v.get("displayTimeUnit").and_then(V::as_str), Some("ms"));
    let events = match v.get("traceEvents") {
        Some(V::Arr(evs)) => evs,
        other => panic!("traceEvents must be an array, got {other:?}"),
    };
    assert!(!events.is_empty());
    // Every event carries the required Chrome trace fields.
    for e in events {
        for key in ["name", "cat", "ph", "ts", "pid", "tid"] {
            assert!(e.get(key).is_some(), "missing {key}: {e:?}");
        }
    }
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(V::as_str))
        .collect();
    // Pipeline phase spans...
    for phase in [
        "compile",
        "parse",
        "hm-typing",
        "region-inference",
        "repr-analysis",
    ] {
        assert!(names.contains(&phase), "missing phase span {phase}");
    }
    // ...and at least one GC pause under the stress schedule.
    assert!(names.contains(&"gc.pause"), "no gc.pause event recorded");
}

#[test]
fn spans_nest_and_gc_pauses_land_inside_the_run_span() {
    let (_, events) = record_stressed_run();
    // B/E events balance like parentheses (single-threaded run here, but
    // check per tid as a viewer would).
    let mut stacks: std::collections::HashMap<u64, Vec<&'static str>> = Default::default();
    let mut run_depth = 0u32;
    let mut pauses_in_run = 0u64;
    let mut pauses_total = 0u64;
    for e in &events {
        let stack = stacks.entry(e.tid).or_default();
        match e.ph {
            trace::TracePhase::Begin => {
                stack.push(e.name);
                if e.name == "machine.run" {
                    run_depth += 1;
                }
            }
            trace::TracePhase::End => {
                let open = stack
                    .pop()
                    .unwrap_or_else(|| panic!("E event {:?} with empty span stack", e.name));
                assert_eq!(open, e.name, "span E must close the innermost B");
                if e.name == "machine.run" {
                    run_depth -= 1;
                }
            }
            trace::TracePhase::Instant if e.name == "gc.pause" => {
                pauses_total += 1;
                if run_depth > 0 {
                    pauses_in_run += 1;
                }
            }
            _ => {}
        }
    }
    for (tid, stack) in &stacks {
        assert!(stack.is_empty(), "unclosed spans on tid {tid}: {stack:?}");
    }
    assert!(pauses_total > 0, "stress schedule must have forced pauses");
    assert_eq!(
        pauses_in_run, pauses_total,
        "every GC pause must nest inside a machine.run span"
    );
    // Timestamps are monotone within the recorder.
    let ts: Vec<u64> = events.iter().map(|e| e.ts_us).collect();
    assert!(ts.windows(2).all(|w| w[0] <= w[1]), "non-monotone ts");
}

/// A compile on another thread while a scope is open on this one: the
/// recorder must see this thread's session and nothing else.
#[test]
fn a_scoped_recorder_sees_no_events_from_other_threads() {
    let rec = Arc::new(trace::Recorder::new());
    let start = Arc::new(std::sync::Barrier::new(2));
    trace::scoped(rec.clone(), || {
        let foreign = {
            let start = start.clone();
            std::thread::spawn(move || {
                start.wait();
                compile(LOOP, Strategy::Rg).is_ok()
            })
        };
        // Both compiles start together, inside this thread's scope.
        start.wait();
        compile(LOOP, Strategy::Rg).unwrap();
        assert!(foreign.join().unwrap());
    });
    let events = rec.events();
    let compiles = events
        .iter()
        .filter(|e| e.ph == trace::TracePhase::Begin && e.name == "compile")
        .count();
    assert_eq!(compiles, 1, "exactly this thread's compile was recorded");
    let tids: std::collections::BTreeSet<u64> = events.iter().map(|e| e.tid).collect();
    assert_eq!(tids.len(), 1, "events from foreign threads: {tids:?}");
}

#[test]
fn metrics_snapshot_agrees_with_torture_rig_heap_stats() {
    // No sink needed: metrics come from the returned stats, not tracing.
    let p = rml::programs::by_name("fib").expect("suite program");
    let (snap, again, plain) = rml::run_with_big_stack(move || {
        let c = rml::compile_with_basis(p.source, Strategy::Rg).unwrap();
        let tortured = ExecOpts {
            gc: Some(rml_eval::GcPolicy::stress_every(64, 0x7041_10E5)),
            ..ExecOpts::default()
        };
        let out = execute(&c, &tortured).unwrap();
        let snap = MetricsSnapshot::new(&c.timings, c.output.store_stats, &out);
        // An independent second run under the same options, and a plain
        // run for the steps cross-check.
        let again = execute(&c, &tortured).unwrap();
        let plain = execute(&c, &ExecOpts::default()).unwrap();
        (snap, again, plain.steps)
    });
    // The snapshot reports exactly what an independent run measures.
    assert_eq!(snap.heap, again.stats);
    assert_eq!(snap.steps, again.steps);
    // The measured run injected no faults.
    assert_eq!(snap.heap.faults_injected, 0);
    // Under stress-every-64 the rig actually collected and verified, and
    // the pause histogram saw every collection.
    assert!(snap.heap.forced_gcs > 0);
    assert!(snap.heap.verify_walks > 0);
    assert_eq!(snap.pauses.count, snap.heap.gc_count);
    assert!(snap.pauses.max_us >= snap.pauses.p50_us);
    // Steps are schedule-independent (the tortured run executes the same
    // program as a plain run, just with more collections).
    assert_eq!(snap.steps, plain);
    // And the JSON view renders without panicking on any float.
    let json = snap.to_json().try_render().unwrap();
    assert!(json.contains("\"forced_gcs\""));
}
