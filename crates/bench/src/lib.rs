//! The benchmark harness that regenerates the paper's evaluation.
//!
//! [`figure9`] produces, for every program of the suite, the full row of
//! the paper's Figure 9: lines of code, spurious-function and
//! spurious-instantiation counts, whether the spurious machinery changed
//! the generated code (`diff`), and — per compilation strategy (`rg`,
//! `rg-`, `r`, plus the regionless `baseline` standing in for MLton) —
//! execution time and the run's [`MetricsSnapshot`]: machine steps,
//! allocation, peak memory (the simulated RSS), and the number of
//! reference-tracing collections.
//!
//! Every program is compiled **exactly once per strategy** (three
//! compilations per program, see [`CompiledSet`]); the statistics
//! columns, the `diff` column, and all four measurements share those
//! compilations. The basis library's own statistics (subtracted from the
//! per-program columns) are compiled once per process. Rows run one after
//! another, so each timing column measures an otherwise idle core.
//!
//! [`ablations`] measures four design choices the same way, and
//! [`differential`] runs the torture oracle over the suite (the `torture`
//! binary).

use rml::{compile_with_basis, execute, programs::Program, ExecOpts, Json, MetricsSnapshot};
use rml::{SpuriousStyle, Strategy};
use rml_eval::GcPolicy;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Parses an optional numeric environment variable. Absent → `default`;
/// present but unparsable → loud failure (stderr diagnostic + exit 2),
/// never a silent fallback: `RML_TORTURE_FUEL=2m` must not quietly run
/// with the default budget.
pub fn env_u64(name: &str, default: u64) -> u64 {
    match std::env::var(name) {
        Err(_) => default,
        Ok(v) => v.parse().unwrap_or_else(|e| {
            eprintln!("error: {name}={v}: not a number ({e})");
            std::process::exit(2)
        }),
    }
}

/// As [`env_u64`], for an optional positional CLI argument (`nth` is the
/// 1-based argument position; `what` names it in the diagnostic).
pub fn arg_u64(nth: usize, what: &str, default: u64) -> u64 {
    match std::env::args().nth(nth) {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|e| {
            eprintln!("error: {what} argument `{v}`: not a number ({e})");
            std::process::exit(2)
        }),
    }
}

/// One measured run: a label, the spread of its `repeats` times, and the
/// metrics snapshot of the run — the only copy of its counters.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Strategy or variant label (`rg`, `rg-`, `r`, `baseline`, …).
    pub label: &'static str,
    /// Wall-clock time (best of `repeats`).
    pub time: Duration,
    /// Median of the `repeats` times.
    pub median: Duration,
    /// Slowest of the `repeats` times.
    pub max: Duration,
    /// Steps, heap statistics, GC pauses and compile timings of the run,
    /// or the run error (a dangling pointer under `rg-`).
    pub metrics: Result<MetricsSnapshot, String>,
}

/// One row of the table.
#[derive(Debug, Clone)]
pub struct Row {
    /// Program name.
    pub name: &'static str,
    /// Lines of code (excluding the basis).
    pub loc: usize,
    /// Spurious functions / total functions (program + basis).
    pub fcns: (usize, usize),
    /// Spurious boxed instantiations / total instantiations.
    pub insts: (usize, usize),
    /// Did the spurious machinery change the generated code (rg vs rg-)?
    pub diff: bool,
    /// Total wall-clock compilation time across the three strategies.
    pub compile_time: Duration,
    /// Measurements for rg, rg-, r, baseline (in that order).
    pub runs: Vec<Measurement>,
}

/// One program compiled under every strategy the table needs, each
/// exactly once.
#[derive(Debug)]
pub struct CompiledSet {
    /// The `rg` compilation (also drives the regionless baseline run).
    pub rg: rml::Compiled,
    /// The `rg-` compilation.
    pub rgm: rml::Compiled,
    /// The `r` compilation.
    pub r: rml::Compiled,
}

/// Compiles a program under all three strategies, once each.
pub fn compile_set(p: &Program) -> CompiledSet {
    let get = |s: Strategy, what: &str| {
        compile_with_basis(p.source, s).unwrap_or_else(|e| panic!("compile {what}: {e}"))
    };
    CompiledSet {
        rg: get(Strategy::Rg, "rg"),
        rgm: get(Strategy::RgMinus, "rg-"),
        r: get(Strategy::R, "r"),
    }
}

/// The basis library's Figure 9 statistics (compiled once per process;
/// only the plain-data statistics are retained).
pub fn basis_stats() -> &'static rml_infer::Stats {
    static BASIS: OnceLock<rml_infer::Stats> = OnceLock::new();
    BASIS.get_or_init(|| {
        rml::compile(rml::basis::BASIS, Strategy::Rg)
            .expect("compile basis")
            .output
            .stats
    })
}

/// Runs an already-compiled program under `opts`, best-of-`repeats`. The
/// snapshot comes from the last run; a run error ends the measurement.
pub fn measure_compiled(
    c: &rml::Compiled,
    opts: &ExecOpts,
    label: &'static str,
    repeats: usize,
) -> Measurement {
    let mut times = Vec::new();
    let mut metrics = Err("not run".to_string());
    for _ in 0..repeats.max(1) {
        let t0 = Instant::now();
        match execute(c, opts) {
            Ok(out) => {
                times.push(t0.elapsed());
                metrics = Ok(MetricsSnapshot::new(&c.timings, c.output.store_stats, &out));
            }
            Err(e) => {
                times = vec![Duration::ZERO];
                metrics = Err(e.to_string());
                break;
            }
        }
    }
    spread(label, times, metrics)
}

/// A measurement from its (at least one) repeat times: minimum, median
/// and maximum.
fn spread(
    label: &'static str,
    mut times: Vec<Duration>,
    metrics: Result<MetricsSnapshot, String>,
) -> Measurement {
    times.sort();
    let n = times.len();
    Measurement {
        label,
        time: times[0],
        median: (times[(n - 1) / 2] + times[n / 2]) / 2,
        max: times[n - 1],
        metrics,
    }
}

/// Normalises variable names (`r17`, `e3`, `a5`) to first-occurrence
/// indices so region-annotated programs from different compilations can be
/// compared structurally (the `diff` column).
pub fn normalize_vars(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut maps: [std::collections::HashMap<String, usize>; 3] = Default::default();
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let class = match c {
            'r' => Some(0),
            'e' => Some(1),
            'a' => Some(2),
            _ => None,
        };
        // A variable token is r/e/a followed by digits, not preceded by an
        // identifier character.
        let prev_ident = i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_');
        if let (Some(k), false) = (class, prev_ident) {
            let mut j = i + 1;
            while j < bytes.len() && bytes[j].is_ascii_digit() {
                j += 1;
            }
            // The digits must end the token: `r5_tail` is an ordinary
            // identifier, not region variable `r5`.
            let ends_token =
                j == bytes.len() || !(bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_');
            if j > i + 1 && ends_token {
                let tok = &s[i..j];
                let next = maps[k].len();
                let id = *maps[k].entry(tok.to_string()).or_insert(next);
                out.push(c);
                out.push('#');
                out.push_str(&id.to_string());
                i = j;
                continue;
            }
        }
        out.push(c);
        i += 1;
    }
    out
}

/// Function names defined by a program's own source (not the basis).
fn own_functions(src: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut toks = src.split_whitespace().peekable();
    while let Some(t) = toks.next() {
        if t == "fun" || t == "and" {
            if let Some(name) = toks.peek() {
                out.push(
                    name.trim_matches(|c: char| !c.is_alphanumeric() && c != '_')
                        .to_string(),
                );
            }
        }
    }
    out
}

/// Does the spurious machinery change the generated code for `p`'s own
/// functions, given its compilations (the paper's `diff` column — the
/// basis is compiled either way, so only the benchmark's own schemes
/// count)?
pub fn code_differs_compiled(p: &Program, rg: &rml::Compiled, rgm: &rml::Compiled) -> bool {
    let own = own_functions(p.source);
    let render = |c: &rml::Compiled| -> Vec<String> {
        c.output
            .schemes
            .iter()
            .filter(|(n, _)| own.iter().any(|o| o == n.as_str()))
            .map(|(n, s)| {
                format!(
                    "{n}:{}",
                    normalize_vars(&rml_core::pretty::scheme_to_string(s))
                )
            })
            .collect()
    };
    render(rg) != render(rgm)
}

/// Builds one Figure 9 row from an existing [`CompiledSet`], performing
/// no compilations of its own (the basis statistics come from the
/// process-wide [`basis_stats`] cache). The `fcns`/`inst` counts are for
/// the program itself (basis counts subtracted, as the paper excludes the
/// Basis Library from the per-benchmark columns).
pub fn row_with(p: &Program, set: &CompiledSet, repeats: usize) -> Row {
    let basis = basis_stats();
    let rg_stats = &set.rg.output.stats;
    let sub = |a: usize, b: usize| a.saturating_sub(b);
    let plain = ExecOpts::default();
    let baseline = ExecOpts {
        baseline: true,
        ..ExecOpts::default()
    };
    Row {
        name: p.name,
        loc: p.loc(),
        fcns: (
            sub(rg_stats.spurious_fns, basis.spurious_fns),
            sub(rg_stats.total_fns, basis.total_fns),
        ),
        insts: (
            sub(rg_stats.spurious_boxed_insts, basis.spurious_boxed_insts),
            sub(rg_stats.total_insts, basis.total_insts),
        ),
        diff: code_differs_compiled(p, &set.rg, &set.rgm),
        compile_time: set.rg.timings.total + set.rgm.timings.total + set.r.timings.total,
        runs: vec![
            measure_compiled(&set.rg, &plain, "rg", repeats),
            measure_compiled(&set.rgm, &plain, "rg-", repeats),
            measure_compiled(&set.r, &plain, "r", repeats),
            measure_compiled(&set.rg, &baseline, "baseline", repeats),
        ],
    }
}

/// The whole table, in suite order. Rows run one at a time on a single
/// big-stack thread (the recursive passes need it in unoptimised builds).
pub fn figure9(repeats: usize) -> Vec<Row> {
    rml::run_with_big_stack(move || {
        rml::programs::suite()
            .iter()
            .map(|p| row_with(p, &compile_set(p), repeats))
            .collect()
    })
}

/// One design choice measured under each of its variants.
#[derive(Debug, Clone)]
pub struct Ablation {
    /// The design choice (`spurious-style`, `gc-threshold`, …).
    pub name: &'static str,
    /// The suite program measured.
    pub program: &'static str,
    /// What each measurement's `time` is: `"compile"` or `"run"`.
    pub timed: &'static str,
    /// One measurement per variant, labelled by the variant.
    pub runs: Vec<Measurement>,
}

/// The fixed ablations of `DESIGN.md`, each best-of-`repeats` like the
/// main table:
///
/// * spurious-variable style — scheme (3) (identify with the arrow
///   handle) vs scheme (2) (fresh secondary effect variables), timed as
///   `compose`'s compile;
/// * GC trigger threshold — `life` under 4, 64 and 512 KB minimums;
/// * generational vs major-only collection on `msort`;
/// * tagged vs partly tag-free representation on `msort` (paper
///   Section 6; compare the bytes allocated).
pub fn ablations(repeats: usize) -> Vec<Ablation> {
    rml::run_with_big_stack(move || {
        let compiled = |name: &str| {
            let p = rml::programs::by_name(name).expect("suite program");
            compile_with_basis(p.source, Strategy::Rg).expect("compile")
        };
        let gc = |min_kb: u64, ratio: f64, generational: bool| ExecOpts {
            gc: Some(GcPolicy::On {
                min_bytes: min_kb * 1024,
                ratio,
                generational,
            }),
            ..ExecOpts::default()
        };
        let compose = rml::programs::by_name("compose").expect("suite program");
        let full = format!("{}\n{}", rml::basis::BASIS, compose.source);
        let spurious = [
            ("identify(3)", SpuriousStyle::Identify),
            ("secondary(2)", SpuriousStyle::Secondary),
        ]
        .into_iter()
        .map(|(label, style)| {
            let compiles: Vec<rml::Compiled> = (0..repeats.max(1))
                .map(|_| rml::pipeline::compile_opts(&full, Strategy::Rg, style).expect("compile"))
                .collect();
            let times = compiles.iter().map(|c| c.timings.total).collect();
            let best = compiles
                .iter()
                .min_by_key(|c| c.timings.total)
                .expect("at least one compile");
            let run = measure_compiled(best, &ExecOpts::default(), label, 1);
            spread(label, times, run.metrics)
        })
        .collect();
        let life = compiled("life");
        let msort = compiled("msort");
        let run =
            |c: &rml::Compiled, opts: ExecOpts, label| measure_compiled(c, &opts, label, repeats);
        vec![
            Ablation {
                name: "spurious-style",
                program: "compose",
                timed: "compile",
                runs: spurious,
            },
            Ablation {
                name: "gc-threshold",
                program: "life",
                timed: "run",
                runs: vec![
                    run(&life, gc(4, 1.5, false), "min_4k"),
                    run(&life, gc(64, 1.5, false), "min_64k"),
                    run(&life, gc(512, 1.5, false), "min_512k"),
                ],
            },
            Ablation {
                name: "generational",
                program: "msort",
                timed: "run",
                runs: vec![
                    run(&msort, gc(16, 1.3, false), "major_only"),
                    run(&msort, gc(16, 1.3, true), "generational"),
                ],
            },
            Ablation {
                name: "tag-free",
                program: "msort",
                timed: "run",
                runs: vec![
                    run(
                        &msort,
                        ExecOpts {
                            tag_free: false,
                            ..ExecOpts::default()
                        },
                        "tagged",
                    ),
                    run(&msort, ExecOpts::default(), "untagged"),
                ],
            },
        ]
    })
}

/// Runs the differential torture oracle over the whole suite: every
/// program, every strategy, every GC schedule (see [`rml::torture`]). A
/// fixed pool of big-stack workers (one per available core) pulls
/// program indices from a shared counter, so one slow program never
/// idles the others; reports come back in suite order.
pub fn differential(opts: &rml::torture::TortureOpts) -> Vec<rml::torture::Report> {
    let progs = rml::programs::suite();
    let n = progs.len();
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .clamp(1, n.max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<rml::torture::Report>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..workers {
            std::thread::Builder::new()
                .stack_size(64 * 1024 * 1024)
                .spawn_scoped(s, || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(p) = progs.get(i) else { break };
                    let set = compile_set(p);
                    let rep =
                        rml::torture::torture_compiled(p.name, &set.rg, &set.rgm, &set.r, opts);
                    *slots[i].lock().expect("slot poisoned") = Some(rep);
                })
                .expect("spawn differential worker");
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("slot poisoned")
                .expect("every claimed slot is filled before workers exit")
        })
        .collect()
}

fn kb(bytes: u64) -> String {
    format!("{}k", bytes / 1024)
}

fn ms(d: Duration) -> String {
    format!("{:.1}ms", d.as_secs_f64() * 1000.0)
}

/// A run's best time with the median of its repeats, `min (median)`,
/// or `CRASH` when it ended in a run error.
fn time_cell(m: &Measurement) -> String {
    match m.metrics {
        Ok(_) => format!("{} ({:.1})", ms(m.time), m.median.as_secs_f64() * 1000.0),
        Err(_) => "CRASH".to_string(),
    }
}

/// A counter of a run's snapshot, or `-` when it crashed.
fn count_cell(m: &Measurement, f: impl Fn(&MetricsSnapshot) -> String) -> String {
    m.metrics.as_ref().map_or_else(|_| "-".to_string(), f)
}

/// Renders the table in the paper's layout.
pub fn render(rows: &[Row]) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<12} {:>4} {:>8} {:>9} {:>4} | {:>17} {:>17} {:>17} {:>17} | {:>8} {:>8} {:>8} {:>8} | {:>6} {:>6}",
        "program", "loc", "fcns", "inst", "diff",
        "rg", "rg-", "r", "mlton*",
        "rss rg", "rss rg-", "rss r", "rss ml*",
        "gc rg", "gc rg-"
    );
    let _ = writeln!(s, "{}", "-".repeat(182));
    for r in rows {
        let rss = |m: &Measurement| count_cell(m, |x| kb(x.heap.peak_bytes()));
        let gc = |m: &Measurement| count_cell(m, |x| x.heap.gc_count.to_string());
        let _ = writeln!(
            s,
            "{:<12} {:>4} {:>8} {:>9} {:>4} | {:>17} {:>17} {:>17} {:>17} | {:>8} {:>8} {:>8} {:>8} | {:>6} {:>6}",
            r.name,
            r.loc,
            format!("{}/{}", r.fcns.0, r.fcns.1),
            format!("{}/{}", r.insts.0, r.insts.1),
            if r.diff { "y" } else { "" },
            time_cell(&r.runs[0]),
            time_cell(&r.runs[1]),
            time_cell(&r.runs[2]),
            time_cell(&r.runs[3]),
            rss(&r.runs[0]),
            rss(&r.runs[1]),
            rss(&r.runs[2]),
            rss(&r.runs[3]),
            gc(&r.runs[0]),
            gc(&r.runs[1]),
        );
    }
    let _ = writeln!(
        s,
        "\n(*) the regionless tracing-GC machine stands in for a conventional compiler."
    );
    s
}

/// Renders the suite's compile time per strategy with its phase split
/// (experiment E6), summed from the snapshots of the rg, rg- and r runs.
pub fn render_compile(rows: &[Row]) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<8} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "compile", "parse", "types", "regions", "repr", "total"
    );
    for (i, label) in ["rg", "rg-", "r"].into_iter().enumerate() {
        let mut t = rml::CompileTimings::default();
        for m in rows.iter().filter_map(|r| r.runs[i].metrics.as_ref().ok()) {
            t.parse += m.timings.parse;
            t.types += m.timings.types;
            t.regions += m.timings.regions;
            t.repr += m.timings.repr;
            t.total += m.timings.total;
        }
        let _ = writeln!(
            s,
            "{:<8} {:>9} {:>9} {:>9} {:>9} {:>9}",
            label,
            ms(t.parse),
            ms(t.types),
            ms(t.regions),
            ms(t.repr),
            ms(t.total)
        );
    }
    s
}

/// Renders the ablation table.
pub fn render_ablations(ablations: &[Ablation]) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<15} {:<8} {:<13} {:>8} {:>18} {:>10} {:>10} {:>8} {:>5}",
        "ablation", "program", "variant", "timed", "time", "steps", "alloc", "peak", "gc"
    );
    for a in ablations {
        for m in &a.runs {
            let _ = writeln!(
                s,
                "{:<15} {:<8} {:<13} {:>8} {:>18} {:>10} {:>10} {:>8} {:>5}",
                a.name,
                a.program,
                m.label,
                a.timed,
                time_cell(m),
                count_cell(m, |x| x.steps.to_string()),
                count_cell(m, |x| kb(x.heap.bytes_allocated)),
                count_cell(m, |x| kb(x.heap.peak_bytes())),
                count_cell(m, |x| x.heap.gc_count.to_string()),
            );
        }
    }
    s
}

/// Milliseconds with 3-digit precision, as a JSON number.
fn json_ms(d: Duration) -> Json {
    Json::Num((d.as_secs_f64() * 1_000_000.0).round() / 1000.0)
}

fn measurement_json(m: &Measurement) -> Json {
    let outcome = match &m.metrics {
        Ok(snap) => ("metrics", snap.to_json()),
        Err(e) => ("error", Json::str(e.as_str())),
    };
    Json::obj([
        ("label", Json::str(m.label)),
        ("time_ms", json_ms(m.time)),
        ("median_ms", json_ms(m.median)),
        ("max_ms", json_ms(m.max)),
        outcome,
    ])
}

/// Serialises the table and the ablations as machine-readable JSON:
/// per-program compile time, and per run its time plus the metrics
/// snapshot (or the run error). All emission goes through
/// [`rml_session::json`] — strings are escaped and non-finite floats are
/// rejected rather than interpolated.
pub fn to_json(rows: &[Row], ablations: &[Ablation]) -> String {
    let runs = |ms: &[Measurement]| Json::Arr(ms.iter().map(measurement_json).collect());
    let rows_json: Vec<Json> = rows
        .iter()
        .map(|r| {
            Json::obj([
                ("name", Json::str(r.name)),
                ("loc", Json::UInt(r.loc as u64)),
                ("spurious_fns", Json::UInt(r.fcns.0 as u64)),
                ("total_fns", Json::UInt(r.fcns.1 as u64)),
                ("spurious_insts", Json::UInt(r.insts.0 as u64)),
                ("total_insts", Json::UInt(r.insts.1 as u64)),
                ("diff", Json::Bool(r.diff)),
                ("compile_ms", json_ms(r.compile_time)),
                ("runs", runs(&r.runs)),
            ])
        })
        .collect();
    let ablations_json: Vec<Json> = ablations
        .iter()
        .map(|a| {
            Json::obj([
                ("name", Json::str(a.name)),
                ("program", Json::str(a.program)),
                ("timed", Json::str(a.timed)),
                ("runs", runs(&a.runs)),
            ])
        })
        .collect();
    let mut out = Json::obj([
        ("rows", Json::Arr(rows_json)),
        ("ablations", Json::Arr(ablations_json)),
    ])
    .render();
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_vars_is_alpha_invariant() {
        let a = "letregion r5 in (fun f [e3 ] x = x at r5)0 end";
        let b = "letregion r9 in (fun f [e7 ] x = x at r9)0 end";
        assert_eq!(normalize_vars(a), normalize_vars(b));
        let c = "letregion r5 r6 in (fun f [e3 ] x = x at r6)0 end";
        assert_ne!(normalize_vars(a), normalize_vars(c));
    }

    #[test]
    fn normalize_vars_leaves_identifiers_with_underscores_alone() {
        // `r5_tail` is an ordinary identifier; its `r5` prefix must not be
        // rewritten (and so two different such identifiers stay distinct).
        assert_eq!(normalize_vars("r5_tail"), "r5_tail");
        assert_ne!(normalize_vars("r5_tail"), normalize_vars("r6_tail"));
        // The variable immediately before an underscore-free boundary is
        // still normalised.
        assert_eq!(normalize_vars("at r5,"), normalize_vars("at r8,"));
        // And a digits-then-underscore token inside a larger identifier
        // (preceded by an identifier char) is untouched as before.
        assert_eq!(normalize_vars("xr5_tail"), "xr5_tail");
    }

    /// The differential oracle end-to-end on a tiny program: all 16
    /// cells, both fault probes, and a clean verdict.
    #[test]
    fn differential_oracle_accepts_a_tiny_program() {
        let p = rml::programs::Program {
            name: "tiny",
            source: "fun main () = size (\"a\" ^ \"b\" ^ \"\") + 1",
            expected: None,
        };
        let opts = rml::torture::TortureOpts {
            fuel: 50_000,
            with_basis: true,
            ..Default::default()
        };
        let rep = rml::run_with_big_stack(move || {
            let set = compile_set(&p);
            rml::torture::torture_compiled(p.name, &set.rg, &set.rgm, &set.r, &opts)
        });
        assert!(rep.ok(), "{}", rep.render());
        assert_eq!(rep.cells.len(), 16);
        assert_eq!(rep.probes.len(), 2);
    }

    /// Release-only regression at the oracle level: the `strings` suite
    /// program exercises empty-string evacuation, which once corrupted
    /// the regionless baseline heap under stress-every-step (a one-word
    /// object cannot hold the collector's two-word forwarding marker).
    /// Too slow in debug — stress-every-step is O(steps × live heap).
    #[cfg(not(debug_assertions))]
    #[test]
    fn differential_oracle_accepts_the_strings_program() {
        let opts = rml::torture::TortureOpts {
            fuel: 30_000,
            with_basis: true,
            ..Default::default()
        };
        let rep = rml::run_with_big_stack(move || {
            let p = rml::programs::by_name("strings").unwrap();
            let set = compile_set(&p);
            rml::torture::torture_compiled(p.name, &set.rg, &set.rgm, &set.r, &opts)
        });
        assert!(rep.ok(), "{}", rep.render());
    }

    /// One row on `fib`: the four paper columns, all clean runs.
    fn fib_row() -> Row {
        rml::run_with_big_stack(|| {
            let p = rml::programs::by_name("fib").unwrap();
            row_with(&p, &compile_set(&p), 1)
        })
    }

    #[test]
    fn one_row_has_all_strategies() {
        let r = fib_row();
        let labels: Vec<&str> = r.runs.iter().map(|m| m.label).collect();
        assert_eq!(labels, ["rg", "rg-", "r", "baseline"]);
        assert!(r.runs.iter().all(|m| m.metrics.is_ok()));
        assert!(r
            .runs
            .iter()
            .all(|m| m.time <= m.median && m.median <= m.max));
        assert!(r.loc > 0);
    }

    #[test]
    fn json_output_is_well_formed_enough() {
        let j = to_json(&[fib_row()], &[]);
        assert!(j.starts_with('{') && j.trim_end().ends_with('}'));
        assert!(j.contains("\"name\":\"fib\""));
        assert!(j.contains("\"label\":\"baseline\""));
        assert!(j.contains("\"median_ms\"") && j.contains("\"max_ms\""));
        assert!(j.contains("\"ablations\":[]"));
        // Every non-crashed run embeds the unified metrics snapshot.
        assert!(j.contains("\"metrics\""));
        assert!(j.contains("\"gc_pauses\""));
        assert!(j.contains("\"p99_us\""));
        // Balanced braces and brackets (no serde to parse it back).
        let depth = |open: char, close: char| {
            j.chars().filter(|c| *c == open).count() as i64
                - j.chars().filter(|c| *c == close).count() as i64
        };
        assert_eq!(depth('{', '}'), 0);
        assert_eq!(depth('[', ']'), 0);
    }
}
