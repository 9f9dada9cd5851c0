//! `rmlc` — the command-line driver: compile and run `.rml` programs.
//!
//! ```sh
//! rmlc [options] <file.rml>
//!   --strategy rg|rg-|r     compilation strategy (default rg)
//!   --baseline              run on the regionless tracing-GC machine
//!   --no-basis              compile without the basis library
//!   --print-term            print the region-annotated program
//!   --print-schemes         print the inferred region type schemes of
//!                           the program's functions and of the basis
//!                           functions it reaches (only those are
//!                           compiled)
//!   --check                 validate against the Figure 4 typing rules
//!   --check-full            validate against the FULL GC-safety rules
//!                           (detects the rg- soundness hole; no run)
//!   -e <expr>               compile `fun main () = <expr>` instead of a file
//!   --torture               run the differential torture oracle: every
//!                           strategy × every GC schedule, one verdict
//!   --gc-stress=N           force a collection every N machine steps
//!   --alloc-budget=N        inject OutOfMemory at the Nth allocation
//!   --depth-limit=N         inject a continuation-depth limit
//!   --seed=N                PRNG seed for stress schedules (default
//!                           0x704110E5); same seed ⇒ same schedule ⇒
//!                           same outcome
//!   --profile[=PATH]        record a Chrome trace (pipeline phases, GC
//!                           pauses, machine counters) to PATH (default
//!                           rml-trace.json); load in about://tracing
//!                           or Perfetto
//!   --metrics               print the unified metrics snapshot (phase
//!                           times, store counters, heap stats, GC pause
//!                           percentiles) after the run
//!   --gen=SEED              compile the deterministic rml-gen program
//!                           for SEED instead of reading a file (implies
//!                           --no-basis; generated programs are
//!                           self-contained). `rmlc --gen=SEED --torture`
//!                           reproduces a fuzzgen failure from its seed
//!                           line alone.
//!   --gen-fuel=N            generator node budget for --gen (default 40,
//!                           the fuzzgen default)
//!   --print-src             print the surface source being compiled
//!                           (useful with --gen to capture a corpus file)
//! ```
//!
//! Compile and check errors are rendered as source-located diagnostics
//! with caret underlines (see `rml_session::Diagnostic`). The basis is
//! parsed once, apart from the user's file, and a span's range names its
//! file: the user's spans render at the user's own lines, with or
//! without the basis, and a span in the basis is labelled `<basis>`.
//! Runtime faults render through the same path as the `E0005` family.

use rml::{
    check, check_full, compile, compile_with_basis, execute, render_diagnostic, ExecOpts,
    MetricsSnapshot, Strategy,
};
use rml_session::trace;
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage: rmlc [--strategy rg|rg-|r] [--baseline] [--no-basis] \
         [--print-term] [--print-schemes] [--check] [--check-full] \
         [--torture] [--gc-stress=N] \
         [--alloc-budget=N] [--depth-limit=N] [--seed=N] \
         [--profile[=PATH]] [--metrics] [--gen-fuel=N] [--print-src] \
         (<file.rml> | -e <expr> | --gen=SEED)"
    );
    std::process::exit(2)
}

/// Parses the numeric value of a `--flag=N` argument. A present but
/// unparsable value is a hard error (exit 2), never a silent fallback —
/// `--gc-stress=1k` must not quietly run without stress.
fn parse_num(a: &str) -> u64 {
    let (flag, v) = a.split_once('=').unwrap_or((a, ""));
    match v.parse() {
        Ok(n) => n,
        Err(e) => {
            eprintln!("rmlc: invalid value for {flag}: `{v}` is not a number ({e})");
            std::process::exit(2)
        }
    }
}

/// Writes the recorded Chrome trace, when profiling was requested.
fn write_profile(recorder: &Option<(Arc<trace::Recorder>, String)>) {
    if let Some((rec, path)) = recorder {
        let json = rec.to_chrome_json();
        match std::fs::write(path, &json) {
            Ok(()) => eprintln!("rmlc: wrote {} trace events to {path}", rec.events().len()),
            Err(e) => {
                eprintln!("rmlc: cannot write trace to {path}: {e}");
                std::process::exit(1)
            }
        }
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut strategy = Strategy::Rg;
    let mut baseline = false;
    let mut use_basis = true;
    let mut print_term = false;
    let mut print_schemes = false;
    let mut do_check = false;
    let mut do_check_full = false;
    let mut file: Option<String> = None;
    let mut expr: Option<String> = None;
    let mut torture = false;
    let mut gc_stress: Option<u64> = None;
    let mut alloc_budget: Option<u64> = None;
    let mut depth_limit: Option<usize> = None;
    let mut seed: u64 = 0x7041_10E5;
    let mut profile: Option<String> = None;
    let mut metrics = false;
    let mut gen_seed: Option<u64> = None;
    let mut gen_fuel: u64 = 40;
    let mut print_src = false;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--strategy" => {
                strategy = match args.next().as_deref() {
                    Some("rg") => Strategy::Rg,
                    Some("rg-") => Strategy::RgMinus,
                    Some("r") => Strategy::R,
                    _ => usage(),
                }
            }
            "--baseline" => baseline = true,
            "--no-basis" => use_basis = false,
            "--print-term" => print_term = true,
            "--print-schemes" => print_schemes = true,
            "--check" => do_check = true,
            "--check-full" => do_check_full = true,
            "--torture" => torture = true,
            "-e" => expr = Some(args.next().unwrap_or_else(|| usage())),
            s if s.starts_with("--gc-stress=") => gc_stress = Some(parse_num(s)),
            s if s.starts_with("--alloc-budget=") => alloc_budget = Some(parse_num(s)),
            s if s.starts_with("--depth-limit=") => depth_limit = Some(parse_num(s) as usize),
            s if s.starts_with("--seed=") => seed = parse_num(s),
            "--profile" => profile = Some("rml-trace.json".to_string()),
            s if s.starts_with("--profile=") => {
                let (_, p) = s.split_once('=').unwrap_or(("", ""));
                if p.is_empty() {
                    eprintln!("rmlc: --profile= requires a path");
                    std::process::exit(2)
                }
                profile = Some(p.to_string())
            }
            "--metrics" => metrics = true,
            s if s.starts_with("--gen-fuel=") => gen_fuel = parse_num(s),
            s if s.starts_with("--gen=") => gen_seed = Some(parse_num(s)),
            "--gen" => {
                gen_seed = Some(match args.next().as_deref().map(str::parse) {
                    Some(Ok(n)) => n,
                    _ => usage(),
                })
            }
            "--print-src" => print_src = true,
            _ if file.is_none() && !a.starts_with('-') => file = Some(a),
            _ => usage(),
        }
    }
    // The program is a file, an expression, or (--gen) the deterministic
    // rml-gen program for the seed. Generated programs are self-contained
    // (z-prefixed identifiers, no basis use), so the basis is skipped and
    // the program is bit-identical to what the fuzzgen driver tested for
    // this seed.
    let (src, name) = match (gen_seed, file, expr) {
        (Some(s), None, None) => {
            use_basis = false;
            let src = rml_gen::generate_source(&rml_gen::GenOpts {
                seed: s,
                fuel: gen_fuel as u32,
            });
            (src, format!("gen-{s}"))
        }
        (None, Some(f), None) => {
            let src = std::fs::read_to_string(&f).unwrap_or_else(|e| {
                eprintln!("rmlc: cannot read {f}: {e}");
                std::process::exit(1)
            });
            (src, f)
        }
        (None, None, Some(e)) => (format!("fun main () = {e}"), "<expr>".to_string()),
        _ => usage(),
    };
    if print_src {
        print!("{src}");
    }
    // The recorder sees only this thread's session: everything below runs
    // inside its trace scope.
    let recorder: Option<(Arc<trace::Recorder>, String)> =
        profile.map(|path| (Arc::new(trace::Recorder::new()), path));
    let sink = recorder
        .as_ref()
        .map(|(rec, _)| rec.clone() as Arc<dyn trace::TraceSink>);
    let session = || {
        if torture {
            let topts = rml::torture::TortureOpts {
                seed,
                with_basis: use_basis,
                ..Default::default()
            };
            match rml::torture::torture(&name, &src, &topts) {
                Ok(rep) => {
                    print!("{}", rep.render());
                    write_profile(&recorder);
                    std::process::exit(i32::from(!rep.ok()))
                }
                Err(e) => {
                    eprint!("{}", render_diagnostic(e.diagnostic(), &src, &name));
                    write_profile(&recorder);
                    std::process::exit(1)
                }
            }
        }
        let compiled = (if use_basis {
            compile_with_basis(&src, strategy)
        } else {
            compile(&src, strategy)
        })
        .unwrap_or_else(|e| {
            eprint!("{}", render_diagnostic(e.diagnostic(), &src, &name));
            std::process::exit(1)
        });
        if print_schemes {
            for (name, scheme) in &compiled.output.schemes {
                println!("{name} : {}", rml_core::pretty::scheme_to_string(scheme));
            }
        }
        if print_term {
            println!(
                "{}",
                rml_core::pretty::term_to_string(&compiled.output.term)
            );
        }
        if do_check {
            match check(&compiled) {
                Ok(()) => eprintln!("rmlc: Figure 4 check passed"),
                Err(e) => {
                    eprintln!("rmlc: Figure 4 check FAILED: {e}");
                    std::process::exit(1)
                }
            }
        }
        if do_check_full {
            match check_full(&compiled) {
                Ok(()) => eprintln!("rmlc: full GC-safety check passed"),
                Err(d) => {
                    eprint!("{}", render_diagnostic(&d, &src, &name));
                    std::process::exit(1)
                }
            }
            write_profile(&recorder);
            return; // checking mode: don't run the program
        }
        let opts = ExecOpts {
            baseline,
            gc: gc_stress.map(|n| rml_eval::GcPolicy::stress_every(n.max(1), seed)),
            alloc_budget,
            depth_limit,
            ..ExecOpts::default()
        };
        match execute(&compiled, &opts) {
            Ok(out) => {
                print!("{}", out.output);
                println!("{}", out.value);
                if metrics {
                    let snap =
                        MetricsSnapshot::new(&compiled.timings, compiled.output.store_stats, &out);
                    print!("{}", snap.render_text());
                }
                write_profile(&recorder);
            }
            Err(e) => {
                // Runtime faults go through the same diagnostic renderer as
                // compile errors (the E0005 family). They carry no span, so
                // this prints the coded header and notes, not an excerpt.
                eprint!("{}", render_diagnostic(&e.to_diagnostic(), &src, &name));
                write_profile(&recorder);
                std::process::exit(1)
            }
        }
    };
    match sink {
        Some(sink) => trace::scoped(sink, session),
        None => session(),
    }
}
