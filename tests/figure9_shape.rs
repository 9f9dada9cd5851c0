//! E4 regression: the structural claims of the paper's Figure 9 analysis,
//! asserted programmatically on a fast subset of the suite.

use rml::{compile_with_basis, execute, ExecOpts, Strategy};

const FAST: &[&str] = &["fib", "msort", "sieve", "compose", "queens"];

fn run(name: &str, strategy: Strategy, baseline: bool) -> rml::RunOutcome {
    let name = name.to_string();
    rml::run_with_big_stack(move || {
        let p = rml::programs::by_name(&name).unwrap();
        let c = compile_with_basis(p.source, strategy).unwrap();
        execute(
            &c,
            &ExecOpts {
                baseline,
                ..ExecOpts::default()
            },
        )
        .unwrap()
    })
}

#[test]
fn rg_and_rgminus_trigger_the_same_collections() {
    // "the rg and rg- compilation strategies lead to executables that
    // trigger similar numbers of garbage collections".
    for name in FAST {
        let a = run(name, Strategy::Rg, false);
        let b = run(name, Strategy::RgMinus, false);
        assert_eq!(a.stats.gc_count, b.stats.gc_count, "{name}");
        assert_eq!(a.value, b.value, "{name}");
    }
}

#[test]
fn no_benchmark_crashes_under_rgminus() {
    // "for none of the benchmarks do we experience failures due to the
    // possibility of dangling-pointers in the rg- compilation strategy".
    for name in FAST {
        let _ = run(name, Strategy::RgMinus, false); // unwraps inside
    }
}

#[test]
fn r_strategy_never_collects() {
    for name in FAST {
        let out = run(name, Strategy::R, false);
        assert_eq!(out.stats.gc_count, 0, "{name}");
    }
}

#[test]
fn rg_rgminus_execute_the_same_number_of_steps() {
    // Same generated code shape ⇒ same machine step counts (the regions
    // differ only in live ranges, not instructions).
    for name in FAST {
        let a = run(name, Strategy::Rg, false);
        let b = run(name, Strategy::RgMinus, false);
        assert_eq!(a.steps, b.steps, "{name}");
    }
}

#[test]
fn fcns_and_inst_columns_are_program_relative() {
    rml::run_with_big_stack(|| {
        let p = rml::programs::by_name("compose").unwrap();
        let r = rml_bench::row_with(&p, &rml_bench::compile_set(&p), 1);
        assert_eq!(r.fcns.0, 1, "compose defines one spurious function");
        assert!(r.fcns.1 >= 2);
        assert!(r.insts.1 >= r.insts.0);
        assert!(r.diff, "compose's own schemes change under rg");
    });
}

#[test]
fn pure_programs_have_empty_diff() {
    rml::run_with_big_stack(|| {
        for name in ["fib", "queens"] {
            let p = rml::programs::by_name(name).unwrap();
            let rg = compile_with_basis(p.source, Strategy::Rg).unwrap();
            let rgm = compile_with_basis(p.source, Strategy::RgMinus).unwrap();
            assert!(!rml_bench::code_differs_compiled(&rg, &rgm), "{name}");
        }
    });
}

#[test]
fn region_strategies_bound_memory_where_the_paper_says() {
    // sieve's filtered lists die generation by generation: the collector
    // keeps rg's peak well below r's.
    let rg = run("sieve", Strategy::Rg, false);
    let r = run("sieve", Strategy::R, false);
    assert!(
        rg.stats.peak_bytes() < r.stats.peak_bytes(),
        "rg {} vs r {}",
        rg.stats.peak_bytes(),
        r.stats.peak_bytes()
    );
}

#[test]
fn rg_output_of_suite_programs_passes_the_full_g_check() {
    // The strongest static validation: entire basis+program terms satisfy
    // the paper's Figure 4 rules with the full G relation.
    rml::run_with_big_stack(|| {
        for name in ["fib", "msort", "compose", "queens", "sieve", "ratio"] {
            let p = rml::programs::by_name(name).unwrap();
            let c = compile_with_basis(p.source, Strategy::Rg).unwrap();
            rml::check(&c).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    });
}

#[test]
fn exception_benchmark_checks_and_runs_under_all_strategies() {
    rml::run_with_big_stack(|| {
        let p = rml::programs::by_name("exceptions").unwrap();
        for s in [Strategy::Rg, Strategy::RgMinus, Strategy::R] {
            let c = compile_with_basis(p.source, s).unwrap();
            rml::check(&c).unwrap_or_else(|e| panic!("{s:?}: {e}"));
            execute(&c, &ExecOpts::default()).unwrap();
        }
    });
}
