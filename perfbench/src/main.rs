//! `rml-perfbench`: the repository's benchmark. See README.md.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig9-run --seed 1 --seconds 55 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --selftest
//! ```
//!
//! One process, one thread of work. A run sets the workload up several
//! times (`setup_s` is the median), then runs passes over the workload's
//! ops until `--seconds` have passed; the last pass stops at that point. The last line of standard
//! output is the JSON result; a readable report goes to standard error.

mod bench;
mod calib;
mod reference;
mod trace;

use bench::{Bench, Counters, Kind, PassOut, Size, EVAL_SPANS};
use calib::Calib;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

const USAGE: &str = "usage: rml-perfbench --workload <fig9-run|gen-oracle> \
                     --seed <n> --seconds <n> --trace <0|1>\n       rml-perfbench --selftest";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

enum Mode {
    Run(Args),
    Selftest,
    Tiny(Kind, u64),
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    match args {
        [a] if a == "--selftest" => return Ok(Mode::Selftest),
        // One tiny run of the self-test, in a process of its own.
        [a, k, seed] if a == "--selftest-tiny" => {
            let kind = Kind::parse(k).ok_or(format!("unknown workload {k}"))?;
            let seed = seed
                .parse()
                .map_err(|_| format!("not a whole number: {seed}"))?;
            return Ok(Mode::Tiny(kind, seed));
        }
        _ => {}
    }
    let mut kv = BTreeMap::new();
    let mut it = args.iter();
    while let Some(k) = it.next() {
        let v = it.next().ok_or(format!("{k} needs a value"))?;
        if kv.insert(k.as_str(), v.as_str()).is_some() {
            return Err(format!("{k} given twice"));
        }
    }
    let mut get = |k: &str| kv.remove(k).ok_or(format!("missing {k}"));
    let num = |k: &str, v: &str| {
        v.parse::<u64>()
            .map_err(|_| format!("{k}: not a whole number: {v}"))
    };
    let w = get("--workload")?;
    let kind = Kind::parse(w).ok_or(format!("unknown workload {w}"))?;
    let seed = num("--seed", get("--seed")?)?;
    let seconds = num("--seconds", get("--seconds")?)?;
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    if let Some(k) = kv.keys().next() {
        return Err(format!("unknown argument {k}"));
    }
    Ok(Mode::Run(Args {
        kind,
        seed,
        seconds,
        trace,
    }))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mode = match parse_args(&argv) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("rml-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Basis-sized terms recurse deeply; run on one big-stack thread.
    let ok = rml::run_with_big_stack(move || match mode {
        Mode::Run(a) => run(&a),
        Mode::Selftest => selftest(),
        Mode::Tiny(kind, seed) => tiny_fingerprint(kind, seed),
    });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Linear-interpolated quantile of unsorted samples.
fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident set size of this process (VmHWM), in MB.
fn max_rss_mb() -> Result<f64, String> {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "cannot read VmHWM from /proc/self/status".to_string())
}

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

fn run(a: &Args) -> bool {
    measure(a)
        .map_err(|e| eprintln!("rml-perfbench: {}: {e}", a.kind.name()))
        .is_ok()
}

/// The timing metrics of a run, from the set-up times and each op's
/// fastest time; `wall` names the unscaled variant.
fn time_metrics(wall: bool, setup_s: &[f64], ops: &[f64]) -> Vec<Metric> {
    let name = |scaled: &'static str, unscaled: &'static str| if wall { unscaled } else { scaled };
    vec![
        m(name("setup_s", "wall.setup_s"), "s", quantile(setup_s, 0.5)),
        m(
            name("op_ms.p50", "wall.op_ms.p50"),
            "ms",
            quantile(ops, 0.5),
        ),
        m(
            name("op_ms.p90", "wall.op_ms.p90"),
            "ms",
            quantile(ops, 0.9),
        ),
        m(
            name("op_ms.geomean", "wall.op_ms.geomean"),
            "ms",
            geomean(ops),
        ),
        m(
            name("pass_s", "wall.pass_s"),
            "s",
            ops.iter().sum::<f64>() / 1e3,
        ),
    ]
}

/// One timed op: its pass (index into the run's passes), the op, its wall
/// time and its time scaled to the reference speed.
struct Sample {
    pass: usize,
    op: usize,
    wall_ms: f64,
    scaled_ms: f64,
}

/// Every op the passes ran, in the order they ran, each scaled by the
/// calibration samples taken around it.
fn samples(passes: &[(bool, PassOut)]) -> Vec<Sample> {
    let mut ran = Vec::new();
    for (i, (_, p)) in passes.iter().enumerate() {
        for &k in &p.order {
            if let (Some(w), Some(c)) = (p.op_ms[k], p.cal_ms[k]) {
                ran.push((i, k, w, c));
            }
        }
    }
    let cal: Vec<f64> = ran.iter().map(|r| r.3).collect();
    ran.iter()
        .enumerate()
        .map(|(i, &(pass, op, wall_ms, _))| Sample {
            pass,
            op,
            wall_ms,
            scaled_ms: wall_ms * calib::scale_at(&cal, i),
        })
        .collect()
}

fn measure(a: &Args) -> Result<(), String> {
    let mut tr = Tracer::new(a.trace);
    let mut cal = Calib::new();
    let mut setup_s = Vec::new();
    let mut setup_scaled_s = Vec::new();
    let mut bench = None;
    let mut setup_counters = None;
    let mut basis_ms = Vec::new();
    for _ in 0..SETUPS {
        let before = cal.median_ms(7);
        let t = Instant::now();
        tr.begin("setup");
        let b = Bench::setup(a.kind, a.seed, Size::FULL, &mut tr)?;
        tr.end();
        let s = t.elapsed().as_secs_f64();
        let after = cal.median_ms(7);
        setup_s.push(s);
        setup_scaled_s.push(s * calib::REF_MS * 2.0 / (before + after));
        basis_ms.push(b.basis.compile.as_secs_f64() * 1e3);
        let c = b.setup_counters.repeatable();
        if *setup_counters.get_or_insert_with(|| c.clone()) != c {
            return Err("set-up counters differ between set-ups".into());
        }
        bench = Some(b);
    }
    let mut bench = bench.expect("SETUPS > 0");

    // Passes until the time is up; in a traced run they alternate
    // untraced/traced, so the tracing overhead is measured in-process.
    // The first whole untraced (and traced) pass is never cut short; a
    // later pass stops starting ops at the deadline, so a run measures
    // for `--seconds` and not for up to one pass more.
    let deadline = Instant::now() + Duration::from_secs(a.seconds);
    let whole_passes = if a.trace { 2 } else { 1 };
    let mut passes: Vec<(bool, PassOut)> = Vec::new();
    let mut problems = Vec::new();
    let mut pass_no = 0u32;
    let mut rss_mb = 0.0;
    loop {
        pass_no += 1;
        let traced = a.trace && pass_no.is_multiple_of(2);
        tr.on = traced;
        tr.set_pass(pass_no);
        let until = (pass_no > whole_passes).then_some(deadline);
        let before = rml::compile_count();
        tr.begin("pass");
        let out = bench.pass(pass_no, until, &mut cal, &mut tr);
        tr.end();
        let done = rml::compile_count() - before;
        let intended = out.ran() as u64 * bench.compiles_per_op();
        if done != intended {
            problems.push(format!(
                "pass {pass_no} compiled {done} times, intended {intended}"
            ));
        }
        if let Some((_, first)) = passes.first() {
            if out.complete() && first.counters.repeatable() != out.counters.repeatable() {
                problems.push(format!("pass {pass_no}: counters differ from pass 1"));
            }
        }
        passes.push((traced, out));
        if pass_no == 1 {
            // Peak RSS after the set-ups and one pass: a fixed amount of
            // work. Read at the end instead, it would grow with the number
            // of passes (each compile leaves some memory behind), so a
            // faster program would look bigger.
            rss_mb = max_rss_mb()?;
        }
        if Instant::now() >= deadline && pass_no >= whole_passes {
            break;
        }
    }
    tr.on = false;

    let attempted: usize = passes.iter().map(|(_, p)| p.ran()).sum();
    let failures: Vec<&String> = passes.iter().flat_map(|(_, p)| &p.failures).collect();
    for f in failures.iter().take(10) {
        eprintln!("FAIL {f}");
    }
    for p in &problems {
        eprintln!("FAIL {p}");
    }
    let failed = failures.len();
    let correct = failed == 0 && problems.is_empty();

    // Each op's time is its fastest over the passes: the sample with the
    // least wall time, reported scaled to the reference speed (see
    // calib.rs) or unscaled. On a shared machine interference only ever
    // adds time, and its level drifts by tens of percent over tens of
    // seconds; the fastest of several samples spread over the run is the
    // op's most repeatable cost. Choosing the sample by its wall time
    // keeps the calibration's own noise out of the choice.
    let samples = samples(&passes);
    let fastest = |traced: bool, scaled: bool| -> Vec<f64> {
        let mut best: Vec<Option<&Sample>> = vec![None; bench.ops()];
        for s in samples.iter().filter(|s| passes[s.pass].0 == traced) {
            if best[s.op].is_none_or(|b| s.wall_ms < b.wall_ms) {
                best[s.op] = Some(s);
            }
        }
        best.iter()
            .map(|b| {
                b.map_or(
                    f64::INFINITY,
                    |s| if scaled { s.scaled_ms } else { s.wall_ms },
                )
            })
            .collect()
    };
    let ops = fastest(false, true);
    let wall_ops = fastest(false, false);
    let mut wall = time_metrics(true, &setup_s, &wall_ops);
    let slowdown = quantile(
        &samples
            .iter()
            .map(|s| s.wall_ms / s.scaled_ms)
            .collect::<Vec<_>>(),
        0.5,
    );
    wall.push(m("calib.slowdown", "ratio", slowdown));

    let metrics = if a.trace {
        let sum_s = |v: &[f64]| v.iter().sum::<f64>() / 1e3;
        let basis_ms = quantile(&basis_ms, 0.5);
        let mut l = layer_metrics(
            &bench,
            &tr,
            &passes,
            basis_ms,
            sum_s(&ops),
            sum_s(&fastest(true, true)),
        );
        l.append(&mut wall);
        l
    } else {
        let mut e = time_metrics(false, &setup_scaled_s, &ops);
        e.push(m("max_rss_mb", "MB", rss_mb));
        e
    };

    let plain = passes.iter().filter(|(t, _)| !t).count();
    // The report also shows an untraced run's unscaled times.
    let shown: Vec<&Metric> = metrics
        .iter()
        .chain(if a.trace { &[][..] } else { &wall })
        .collect();
    report(a, &shown, attempted, failed, ops.len(), plain, passes.len());
    let each: Vec<String> = passes
        .iter()
        .map(|(t, p)| {
            format!(
                "{:.3}{}{}",
                p.op_ms.iter().flatten().sum::<f64>() / 1e3,
                if *t { "T" } else { "" },
                if p.complete() { "" } else { "-" }
            )
        })
        .collect();
    eprintln!(
        "pass times (s; T = traced, - = cut at the deadline): {}",
        each.join(" ")
    );
    if a.trace {
        let dir = std::path::Path::new("perfbench/out");
        let path = dir.join(format!("trace-{}-seed{}.json", a.kind.name(), a.seed));
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, tr.chrome_json()))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!(
            "trace: {} spans written to {}",
            tr.spans.len(),
            path.display()
        );
    }
    if let Some(x) = metrics.iter().find(|x| !x.value.is_finite()) {
        return Err(format!("{} is not a finite number", x.name));
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name, x.value, x.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(())
}

/// The per-layer metrics of a traced run: times are self times per whole
/// traced pass; counters are per pass and deterministic. `basis_ms` is the
/// median over the set-ups of the basis compile time.
fn layer_metrics(
    b: &Bench,
    tr: &Tracer,
    passes: &[(bool, PassOut)],
    basis_ms: f64,
    plain_pass_s: f64,
    traced_pass_s: f64,
) -> Vec<Metric> {
    // Pass numbers of the whole traced passes (pass n is passes[n - 1]).
    let whole: Vec<u32> = (1..)
        .zip(passes)
        .filter(|(_, (t, p))| *t && p.complete())
        .map(|(n, _)| n)
        .collect();
    let traced = whole.len().max(1) as f64;
    let in_pass = tr.self_times(|s| s.op > 0 && whole.contains(&s.pass));
    let setup = tr.self_times(|s| s.pass == 0);
    let t = |name: &str| {
        in_pass
            .get(name)
            .map_or(0.0, |d| d.as_secs_f64() * 1e3 / traced)
    };
    let c: &Counters = &passes[0].1.counters;
    let pauses: Vec<f64> = passes
        .iter()
        .flat_map(|(_, p)| p.pauses.iter().map(|d| d.as_secs_f64() * 1e6))
        .collect();
    let eval_ms: f64 = EVAL_SPANS.iter().map(|n| t(n)).sum::<f64>() + t("runtime.gc");
    // On gen-oracle the machine runs inside the torture matrix.
    let machine_ms = if b.kind == Kind::GenOracle {
        t("torture.matrix")
    } else {
        eval_ms
    };
    // Self times inside ops add up to the ops' durations; the layers'
    // share is what the op spans' own self time leaves.
    let in_ops: f64 = in_pass.values().map(Duration::as_secs_f64).sum();
    let layers_share = ratio(in_ops - t("op") * traced / 1e3, in_ops);
    let peak_kb: Vec<f64> = c.peak_bytes.iter().map(|&p| p as f64 / 1024.0).collect();
    let mb = |x: u64| x as f64 / (1024.0 * 1024.0);
    let u = |x: u64| x as f64;
    vec![
        m("syntax.parse_ms", "ms", t("syntax.parse")),
        m("syntax.src_kb", "KB", u(c.src_bytes) / 1024.0),
        m("hm.infer_ms", "ms", t("hm.infer")),
        m("infer.regions_ms", "ms", t("infer.regions")),
        m("infer.find_ops", "count", u(c.find_ops)),
        m("infer.unions", "count", u(c.unions)),
        m(
            "infer.closure_hit_ratio",
            "ratio",
            ratio(u(c.closure_hits), u(c.closure_hits + c.closure_recomputes)),
        ),
        m(
            "infer.intern_hit_ratio",
            "ratio",
            ratio(u(c.intern_hits), u(c.intern_hits + c.intern_misses)),
        ),
        m("infer.ir_kb", "KB", u(c.ir_bytes) / 1024.0),
        m("repr.analyze_ms", "ms", t("repr.analyze")),
        m("repr.finite_regions", "count", u(c.finite_regions)),
        m("repr.uniform_regions", "count", u(c.uniform_regions)),
        m("pipeline.compile_glue_ms", "ms", t("compile")),
        m("core.check_ms", "ms", t("core.check")),
        m("eval.run_ms.rg", "ms", t("eval.run.rg")),
        m("eval.run_ms.rg-", "ms", t("eval.run.rg-")),
        m("eval.run_ms.r", "ms", t("eval.run.r")),
        m("eval.run_ms.baseline", "ms", t("eval.run.baseline")),
        m("eval.steps", "count", u(c.steps)),
        m(
            "eval.ns_per_step",
            "ns",
            ratio(machine_ms * 1e6, u(c.steps)),
        ),
        m("runtime.alloc_mb", "MB", mb(c.alloc_bytes)),
        m("runtime.regions_created", "count", u(c.regions_created)),
        m("runtime.peak_regions", "count", u(c.peak_regions)),
        m("runtime.pages_allocated", "count", u(c.pages_allocated)),
        m("runtime.peak_kb.geomean", "KB", geomean(&peak_kb)),
        m("runtime.gc_count", "count", u(c.gc_count)),
        m("runtime.gc_pause_ms", "ms", t("runtime.gc")),
        m("runtime.gc_pause_p99_us", "us", quantile(&pauses, 0.99)),
        m("runtime.gc_share", "ratio", ratio(t("runtime.gc"), eval_ms)),
        m("runtime.bytes_copied_mb", "MB", mb(c.bytes_copied)),
        m("runtime.verify_walks", "count", u(c.verify_walks)),
        m("runtime.forced_gcs", "count", u(c.forced_gcs)),
        m("torture.matrix_ms", "ms", t("torture.matrix")),
        m("torture.cells", "count", u(c.cells)),
        m(
            "torture.valued_ratio",
            "ratio",
            ratio(u(c.valued_cells), u(c.cells)),
        ),
        m("torture.dangling_cells", "count", u(c.dangling_cells)),
        m(
            "gen.generate_ms",
            "ms",
            setup
                .get("gen.generate")
                .map_or(0.0, |d| d.as_secs_f64() * 1e3 / SETUPS as f64),
        ),
        m("basis.compile_ms", "ms", basis_ms),
        m("basis.ir_kb", "KB", u(b.basis.ir_bytes) / 1024.0),
        m(
            "basis.run_peak_kb",
            "KB",
            u(b.basis.run_peak_bytes) / 1024.0,
        ),
        m("bench.op_glue_ms", "ms", t("op")),
        m("trace.accounted_pct", "%", 100.0 * layers_share),
        m(
            "trace.overhead_pct",
            "%",
            100.0 * ratio(traced_pass_s - plain_pass_s, plain_pass_s),
        ),
    ]
}

/// The readable report on standard error, naming each end-to-end metric
/// also by the workload-specific name README.md uses for it.
fn report(
    a: &Args,
    metrics: &[&Metric],
    attempted: usize,
    failed: usize,
    ops: usize,
    plain: usize,
    passes: usize,
) {
    let alias = |name: &str| -> Option<&'static str> {
        Some(match (a.kind, name) {
            (Kind::Fig9Run, "op_ms.geomean") => "run_ms.geomean",
            (Kind::Fig9Run, "pass_s") => "run_s.total",
            (Kind::GenOracle, "op_ms.p50") => "verdict_ms.p50",
            (Kind::GenOracle, "op_ms.p90") => "verdict_ms.p90",
            _ => return None,
        })
    };
    eprintln!(
        "== {} seed {} ({passes} passes; {ops} ops, each timed as its fastest over {plain} untraced passes, the last of which may be cut; trace {}) ==",
        a.kind.name(),
        a.seed,
        u8::from(a.trace)
    );
    for x in metrics {
        let al = alias(x.name).map_or(String::new(), |s| format!("  (= {s})"));
        eprintln!("{:<28} {:>14.4} {}{al}", x.name, x.value, x.unit);
    }
    eprintln!(
        "{:<28} {:>14.4} ratio  ({failed} failed of {attempted} ops)",
        "error_rate",
        ratio(failed as f64, attempted as f64)
    );
}

/// The self-test's tiny size.
const TINY: Size = Size {
    programs: Some(&["fib", "msort", "life", "exceptions"]),
    gen_programs: 6,
};

/// One tiny set-up and pass, printed as a single line of everything that
/// must repeat exactly. The self-test runs this in fresh processes:
/// variable numbering is process-global, so IR sizes repeat only between
/// processes that compile the same sequence.
fn tiny_fingerprint(kind: Kind, seed: u64) -> bool {
    let mut tr = Tracer::new(false);
    match Bench::setup(kind, seed, TINY, &mut tr) {
        Ok(mut b) => {
            let out = b.pass(1, None, &mut Calib::new(), &mut tr);
            println!(
                "failures={:?}\norder={:?}\npass={:?}\nsetup={:?}\nbasis_ir={}\nbasis_peak={}\nprograms={:?}",
                out.failures,
                out.order,
                out.counters,
                b.setup_counters,
                b.basis.ir_bytes,
                b.basis.run_peak_bytes,
                b.gen_sources()
            );
            true
        }
        Err(e) => {
            eprintln!("rml-perfbench: {}: {e}", kind.name());
            false
        }
    }
}

/// Reference pins, and determinism at a tiny size: the same seed gives
/// identical counters, another seed other programs and another order.
fn selftest() -> bool {
    let mut ok = true;
    let mut expect = |cond: bool, what: String| {
        eprintln!("{} {what}", if cond { "ok  " } else { "FAIL" });
        ok &= cond;
    };
    for p in rml::programs::suite() {
        let pinned = reference::expected(&p);
        expect(
            pinned.is_some(),
            format!("{}: has a reference value", p.name),
        );
        if p.expected.is_none() {
            let computed = reference::compute(p.name);
            expect(
                computed == pinned,
                format!(
                    "{}: pin {pinned:?} = reference computation {computed:?}",
                    p.name
                ),
            );
        }
    }
    let exe = std::env::current_exe().expect("own executable path");
    for kind in Kind::ALL {
        let n = kind.name();
        let field = |out: &str, key: &str| -> String {
            let key = format!("{key}=");
            out.lines()
                .find_map(|l| l.strip_prefix(&key))
                .unwrap_or("")
                .to_string()
        };
        let fingerprint = |seed: u64| -> Option<String> {
            let out = std::process::Command::new(&exe)
                .args(["--selftest-tiny", n, &seed.to_string()])
                .output()
                .ok()?;
            out.status
                .success()
                .then(|| String::from_utf8_lossy(&out.stdout).into_owned())
        };
        let (Some(a), Some(b), Some(c)) = (fingerprint(1), fingerprint(1), fingerprint(2)) else {
            expect(false, format!("{n}: tiny run failed"));
            continue;
        };
        expect(field(&a, "failures") == "[]", format!("{n}: no failures"));
        expect(
            a == b,
            format!("{n}: same seed, identical counters, order and programs"),
        );
        expect(
            field(&a, "order") != field(&c, "order"),
            format!("{n}: other seed, other order"),
        );
        if kind == Kind::GenOracle {
            expect(
                field(&a, "programs") != field(&c, "programs"),
                format!("{n}: other seed, other programs"),
            );
        }
    }
    eprintln!("selftest: {}", if ok { "PASS" } else { "FAIL" });
    ok
}
