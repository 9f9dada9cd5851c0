//! Performance smoke test: a regression tripwire on the unification
//! store's operation counts.
//!
//! Wall-clock budgets are too noisy for CI; instead this pins the
//! *deterministic* cost driver — the number of union-find reads performed
//! while compiling the whole basis and the whole benchmark suite under
//! `rg`. The budget is roughly twice the measured count, so it only trips
//! on an asymptotic regression (losing path compression or closure
//! memoisation), not on routine changes.

use rml::{compile, compile_with_basis, Strategy};

// Measured 48.7k find ops for the whole basis plus the 18-program suite,
// which compiles only the basis declarations each program reaches (the
// suite alone, each program with the whole basis, took 1.09M). The budget
// is twice the 115k measured before region inference kept the
// environment's free atoms; it is kept, so it still trips only on an
// asymptotic regression.
const FIND_OPS_BUDGET: u64 = 230_000;

// With per-root dirty tracking, an `add_atom` no longer flushes every
// memoised closure. Measured across the suite, each program with the
// whole basis: ~74k hits / ~55k recomputes (ratio 1.35) with dirty
// tracking, versus ~21k / ~108k (ratio 0.19) when every mutation flushes
// the whole memo — so a floor of one hit per recompute cleanly separates
// the two regimes. The basis plus the suite as compiled now: ~3.9k hits /
// ~1.3k recomputes (ratio 3.0). Before the environment kept its free
// atoms and unions evicted only the memos they stale, it was ~7.4k hits /
// ~5.5k recomputes (ratio 1.34); the environment walks supplied most of
// those hits.
const MIN_HITS_PER_RECOMPUTE: u64 = 1;

#[test]
fn suite_compilation_stays_within_the_find_ops_budget() {
    let (total_finds, total_unions, hits, recomputes) = rml::run_with_big_stack(|| {
        let (mut total_finds, mut total_unions) = (0u64, 0u64);
        let (mut hits, mut recomputes) = (0u64, 0u64);
        let basis = compile(rml::basis::BASIS, Strategy::Rg).expect("compile the basis");
        let suite = rml::programs::suite().into_iter().map(|p| {
            compile_with_basis(p.source, Strategy::Rg)
                .unwrap_or_else(|e| panic!("compile {}: {e}", p.name))
        });
        for c in std::iter::once(basis).chain(suite) {
            let st = c.output.store_stats;
            total_finds += st.find_ops;
            total_unions += st.unions;
            hits += st.closure_cache_hits;
            recomputes += st.closure_recomputes;
        }
        (total_finds, total_unions, hits, recomputes)
    });
    println!(
        "basis + suite rg compilation: {total_finds} find ops, {total_unions} unions, \
         {hits} closure cache hits / {recomputes} recomputes"
    );
    assert!(total_unions > 0, "instrumentation is wired");
    assert!(
        total_finds < FIND_OPS_BUDGET,
        "basis + suite compilation performed {total_finds} find ops \
         (budget {FIND_OPS_BUDGET}); did the store lose path compression?"
    );
    assert!(
        hits > MIN_HITS_PER_RECOMPUTE * recomputes,
        "closure memo hit rate collapsed: {hits} hits vs {recomputes} \
         recomputes; did store invalidation regress to global flushes?"
    );
}

/// The disabled-sink overhead guard: with tracing compiled in but no sink
/// installed, an instrumented compile-and-run must deliver **zero** events
/// to any sink — the contract that makes instrumenting hot paths (the
/// machine's step loop, the collector) free when nobody is profiling.
///
/// This runs in its own test binary process space alongside the tests
/// above, none of which install a sink, so the process-wide counter
/// staying flat is exactly the property wanted.
#[test]
fn disabled_sink_records_nothing_across_an_instrumented_run() {
    use rml::{execute, ExecOpts};
    let before = rml_session::trace::events_recorded();
    assert!(!rml_session::trace::enabled());
    let steps = rml::run_with_big_stack(|| {
        let src = "fun main () = \
                   let fun loop (n) = if n = 0 then 0 else loop (n - 1) \
                   in loop 2000 end";
        let c = compile_with_basis(src, Strategy::Rg).unwrap();
        let opts = ExecOpts {
            gc: Some(rml_eval::GcPolicy::stress_every(64, 1)),
            ..ExecOpts::default()
        };
        execute(&c, &opts).unwrap().steps
    });
    assert!(
        steps > 4096,
        "run long enough to cross a step-batch boundary"
    );
    assert_eq!(
        rml_session::trace::events_recorded(),
        before,
        "instrumentation must be silent with no sink installed"
    );
}
