//! The harness must compile each (program, strategy) exactly once, and
//! the suite's deterministic columns must match the committed baseline.
//!
//! This file deliberately holds a single `#[test]`: it asserts on deltas
//! of the process-wide compilation counter, and other tests running in
//! the same process would perturb it.

use rml::Json;
use rml_bench::{compile_set, row_with, Row};

/// The committed deterministic columns of the whole suite. A change to
/// any value lands together with a one-line justification in CHANGES.md.
const BASELINE: &str = include_str!("../baseline.json");

#[test]
fn row_compiles_each_strategy_exactly_once() {
    rml::run_with_big_stack(row_compiles_each_strategy_exactly_once_body);
}

fn row_compiles_each_strategy_exactly_once_body() {
    let p = rml::programs::by_name("fib").unwrap();
    let c0 = rml::compile_count();
    let set = compile_set(&p);
    assert_eq!(rml::compile_count() - c0, 3, "one compile per strategy");
    let row = row_with(&p, &set, 1);
    assert_eq!(
        rml::compile_count() - c0,
        3,
        "row_with must reuse the set's compilations"
    );
    assert_eq!(row.runs.len(), 4, "baseline shares the rg compilation");

    // The whole-suite budget: at most 4N+1 compilations for N programs
    // (this driver does exactly 3N). The full suite is a release-profile
    // check.
    if cfg!(debug_assertions) {
        return;
    }
    let n = rml::programs::suite().len() as u64;
    let c1 = rml::compile_count();
    let rows = rml_bench::figure9(1);
    let delta = rml::compile_count() - c1;
    assert_eq!(rows.len() as u64, n);
    assert!(
        delta <= 4 * n + 1,
        "figure9 compiled {delta} times for {n} programs"
    );
    assert_eq!(delta, 3 * n, "three compiles per program");

    // The same run, against the committed baseline.
    let actual = baseline_json(&rows);
    if actual != BASELINE {
        let changed: Vec<String> = BASELINE
            .lines()
            .zip(actual.lines())
            .filter(|(want, got)| want != got)
            .map(|(want, got)| format!("- {want}\n+ {got}"))
            .collect();
        panic!(
            "deterministic Figure 9 columns differ from crates/bench/baseline.json:\n{}\n\
             full actual baseline:\n{actual}",
            changed.join("\n")
        );
    }
}

/// The deterministic columns of `rows`, one program per line: the
/// program-level Figure 9 columns plus, per strategy, the run's steps,
/// heap counters and region-inference store counters.
fn baseline_json(rows: &[Row]) -> String {
    let lines: Vec<String> = rows
        .iter()
        .map(|r| {
            let runs = r
                .runs
                .iter()
                .map(|m| {
                    let s = m
                        .metrics
                        .as_ref()
                        .unwrap_or_else(|e| panic!("{} {}: {e}", r.name, m.label));
                    let counters = Json::obj([
                        ("steps", Json::UInt(s.steps)),
                        ("alloc_bytes", Json::UInt(s.heap.bytes_allocated)),
                        ("peak_bytes", Json::UInt(s.heap.peak_bytes())),
                        ("gc_count", Json::UInt(s.heap.gc_count)),
                        ("regions_created", Json::UInt(s.heap.regions_created)),
                        ("find_ops", Json::UInt(s.store.find_ops)),
                        ("unions", Json::UInt(s.store.unions)),
                    ]);
                    (m.label.to_string(), counters)
                })
                .collect();
            let pair = |(a, b): (usize, usize)| {
                Json::Arr(vec![Json::UInt(a as u64), Json::UInt(b as u64)])
            };
            Json::obj([
                ("name", Json::str(r.name)),
                ("loc", Json::UInt(r.loc as u64)),
                ("fcns", pair(r.fcns)),
                ("inst", pair(r.insts)),
                ("diff", Json::Bool(r.diff)),
                ("runs", Json::Obj(runs)),
            ])
            .render()
        })
        .collect();
    format!("{{\"programs\": [\n{}\n]}}\n", lines.join(",\n"))
}
