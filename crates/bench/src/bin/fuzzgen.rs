//! `fuzzgen` — pushes generated programs through every oracle we own.
//!
//! ```sh
//! cargo run --release -p rml-bench --bin fuzzgen [count] [start_seed]
//! ```
//!
//! For each seed in `start_seed .. start_seed + count`, a well-typed
//! program is generated by `rml-gen` (deterministically — the seed line
//! printed on failure is the whole repro) and must survive:
//!
//! 1. compilation under `rg` and the **full** GC-safety checker
//!    (`check_full`, Figure 4 + the `G` function) — the paper's Theorem 2
//!    says `rg` output always passes;
//! 2. the cross-strategy torture oracle: `rg`/`rg-`/`r`/baseline × every
//!    GC stress schedule, heap-invariant verification walks, fault
//!    probes, and determinism re-runs (`rg-` may diverge, but only as a
//!    deterministic dangling fault — the documented soundness hole);
//! 3. a plain `rg` run from which a metrics snapshot must be
//!    constructible (steps > 0, JSON renders).
//!
//! Each seed compiles once per strategy and runs the matrix once. The
//! summary counts the programs whose `rg-` cells really dangled and, as
//! `torture` does, the matrix cells that reached a value rather than a
//! fault or the step budget.
//!
//! A failing program is shrunk (typed-subterm deletion + constant
//! folding, re-validated through HM each step, re-judged by the same
//! oracle) and written to `$RML_GEN_ARTIFACTS/seed-<N>.rml` together
//! with a one-line repro.
//!
//! Environment:
//!
//! * `RML_GEN_FUEL` — generator node budget (default 40). Seeds cycle
//!   through ½×, 1×, and 1½× of it so one run mixes program sizes.
//! * `RML_TORTURE_FUEL` — step budget per torture cell (default
//!   2,000,000).
//! * `RML_GEN_SHRINK` — shrinker oracle-invocation budget (default 200).
//! * `RML_GEN_ARTIFACTS` — failure artifact directory (default
//!   `fuzzgen-artifacts`).
//!
//! Exit status: 0 when every seed passes, 1 otherwise.

use rml::torture::{Outcome, Report};
use rml::{check_full, compile, execute, render_diagnostic, ExecOpts, MetricsSnapshot, Strategy};
use rml_gen::GenOpts;
use rml_syntax::pretty::program_to_string;
use rml_syntax::Program;

/// Runs the whole oracle stack on one program and returns its torture
/// report. `Err` carries a short failure description (the first oracle
/// that rejected).
fn oracle(name: &str, src: &str, topts: &rml::torture::TortureOpts) -> Result<Report, String> {
    // Oracle 1: rg compiles and passes the full checker.
    let render = |d: &rml::Diagnostic| render_diagnostic(d, src, name);
    let rg = compile(src, Strategy::Rg)
        .map_err(|e| format!("rg compile failed:\n{}", render(e.diagnostic())))?;
    check_full(&rg).map_err(|d| format!("check_full rejected rg output:\n{}", render(&d)))?;

    // Oracle 2: the cross-strategy differential matrix, reusing the rg
    // compile.
    let compile_for_torture = |s| {
        compile(src, s).map_err(|e| format!("torture compile failed:\n{}", render(e.diagnostic())))
    };
    let rgm = compile_for_torture(Strategy::RgMinus)?;
    let r = compile_for_torture(Strategy::R)?;
    let rep = rml::torture::torture_compiled(name, &rg, &rgm, &r, topts);
    if !rep.ok() {
        return Err(format!("torture oracle diverged:\n{}", rep.render()));
    }

    // Oracle 3: a plain run must support the metrics snapshot.
    let out = execute(
        &rg,
        &ExecOpts {
            fuel: topts.fuel,
            ..ExecOpts::default()
        },
    )
    .map_err(|e| format!("rg default run faulted: {e}"))?;
    let snap = MetricsSnapshot::new(&rg.timings, rg.output.store_stats, &out);
    if out.steps == 0 || snap.render_text().is_empty() {
        return Err("metrics snapshot is degenerate (0 steps or empty render)".to_string());
    }
    Ok(rep)
}

fn main() {
    let count = rml_bench::arg_u64(1, "count", 500);
    let start = rml_bench::arg_u64(2, "start_seed", 1);
    let base_fuel = rml_bench::env_u64("RML_GEN_FUEL", 40) as u32;
    let torture_fuel = rml_bench::env_u64("RML_TORTURE_FUEL", 2_000_000);
    let shrink_budget = rml_bench::env_u64("RML_GEN_SHRINK", 200) as usize;
    let artifacts =
        std::env::var("RML_GEN_ARTIFACTS").unwrap_or_else(|_| "fuzzgen-artifacts".to_string());

    let topts = rml::torture::TortureOpts {
        fuel: torture_fuel,
        ..Default::default()
    };

    eprintln!(
        "fuzzgen: {count} programs from seed {start} (gen fuel ~{base_fuel}, \
         torture fuel {torture_fuel})"
    );
    let t0 = std::time::Instant::now();
    let mut failures = 0u64;
    let mut tolerated_danglings = 0u64;
    let (mut valued_cells, mut cells) = (0usize, 0usize);
    for seed in start..start + count {
        // Cycle program sizes so a single run covers small and large
        // shapes (still a pure function of the seed).
        let fuel = match seed % 3 {
            0 => (base_fuel / 2).max(5),
            1 => base_fuel,
            _ => base_fuel + base_fuel / 2,
        };
        let opts = GenOpts { seed, fuel };
        let prog = rml_gen::generate(&opts);
        let name = format!("gen-{seed}");
        let src = program_to_string(&prog);
        match oracle(&name, &src, &topts) {
            Ok(rep) => {
                // Coverage signals for the summary: runs where rg- really
                // did dangle, and cells that reached a value.
                if rep
                    .cells
                    .iter()
                    .any(|c| matches!(c.outcome, Outcome::Fault { dangling: true, .. }))
                {
                    tolerated_danglings += 1;
                }
                cells += rep.cells.len();
                valued_cells += rep
                    .cells
                    .iter()
                    .filter(|c| matches!(c.outcome, Outcome::Value { .. }))
                    .count();
            }
            Err(first) => {
                failures += 1;
                eprintln!("fuzzgen: seed {seed} FAILED: {first}");
                // Shrink against the same oracle and persist the repro.
                let still_fails = |p: &Program| {
                    let s = program_to_string(p);
                    oracle(&name, &s, &topts).is_err()
                };
                let small = rml_gen::shrink(&prog, shrink_budget, still_fails);
                let small_src = program_to_string(&small);
                std::fs::create_dir_all(&artifacts).ok();
                let path = format!("{artifacts}/seed-{seed}.rml");
                if let Err(e) = std::fs::write(&path, &small_src) {
                    eprintln!("fuzzgen: cannot write {path}: {e}");
                } else {
                    eprintln!(
                        "fuzzgen: shrunk {} -> {} nodes, wrote {path}",
                        prog.size(),
                        small.size()
                    );
                }
                // The one-line repro: everything needed to reproduce.
                println!("FAIL seed={seed} fuel={fuel} file={path} repro: rmlc --gen={seed} --gen-fuel={fuel} --torture");
            }
        }
    }
    let wall = t0.elapsed();
    eprintln!(
        "fuzzgen: {}/{count} passed in {:.1}s ({tolerated_danglings} programs \
         with tolerated rg- dangling faults, {valued_cells}/{cells} cells reached a value)",
        count - failures,
        wall.as_secs_f64()
    );
    if failures > 0 {
        std::process::exit(1);
    }
}
