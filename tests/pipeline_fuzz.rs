//! Property-based end-to-end testing over `rml-gen`: seeded, type-directed
//! random programs must (1) type-check under Figure 4 after `rg`
//! inference, (2) run identically under the formal semantics (with the
//! Theorem 2 monitor) and the heap machine (with an aggressive
//! collector), and (3) produce the same value under the `r` strategy and
//! the regionless baseline. The unsound `rg-` strategy is permitted to
//! diverge, but only by faulting with a dangling-pointer error — the
//! generator deliberately emits Figure 1-shaped programs that dangle
//! under `rg-`, which is precisely what the paper's repair rules out.
//!
//! Programs are produced by the shared generator (`crates/gen`), so every
//! failure here reproduces from its seed: `rmlc --gen=SEED --torture`.

use rml::{compile, execute, ExecOpts, Strategy};
use rml_eval::{GcPolicy, RunError};
use rml_gen::{generate_source, GenOpts};

const CASES: u64 = 48;
const FUEL_STEPS: u64 = 3_000_000;

/// The deterministic case list: seeds `base..base + CASES`, with the
/// generator's size budget cycling so small and large programs both
/// appear.
fn cases(base: u64) -> impl Iterator<Item = (u64, String)> {
    (base..base + CASES).map(|seed| {
        let fuel = match seed % 3 {
            0 => 20,
            1 => 40,
            _ => 60,
        };
        (seed, generate_source(&GenOpts { seed, fuel }))
    })
}

/// In debug builds the Figure 4 checker alone needs nearly all of the
/// default 2-MB test thread on these programs, so the cases run on a big
/// stack.
#[test]
fn random_programs_are_gc_safe_and_strategy_independent() {
    rml::run_with_big_stack(random_programs_are_gc_safe_and_strategy_independent_body);
}

fn random_programs_are_gc_safe_and_strategy_independent_body() {
    for (seed, src) in cases(1_000) {
        // rg: must check and run under the containment monitor.
        let rg = compile(&src, Strategy::Rg)
            .unwrap_or_else(|e| panic!("seed {seed}: rg compile failed: {e}\nsrc: {src}"));
        rml::check(&rg).unwrap_or_else(|e| panic!("seed {seed}: G check failed: {e}\nsrc: {src}"));
        let mut formal = rml_core::semantics::Machine::new([rg.output.global]);
        formal.monitor = true;
        let fv = formal
            .eval(rg.output.term.clone(), FUEL_STEPS)
            .unwrap_or_else(|e| panic!("seed {seed}: formal eval failed: {e}\nsrc: {src}"));
        // Heap machine with aggressive collection.
        let opts = ExecOpts {
            gc: Some(GcPolicy::On {
                min_bytes: 256,
                ratio: 1.05,
                generational: false,
            }),
            ..ExecOpts::default()
        };
        let hv = execute(&rg, &opts)
            .unwrap_or_else(|e| panic!("seed {seed}: heap eval failed: {e}\nsrc: {src}"));
        if let (rml_core::Value::Int(a), rml_eval::RunValue::Int(b)) = (&fv, &hv.value) {
            assert_eq!(a, b, "seed {seed}: formal vs heap disagree on {src}");
        }
        // The sound Tofte–Talpin strategy and the regionless baseline
        // must agree exactly.
        let r = compile(&src, Strategy::R).unwrap();
        let rv = execute(&r, &ExecOpts::default()).unwrap().value;
        assert_eq!(rv, hv.value, "seed {seed}: strategy r disagrees on {src}");
        let bv = execute(
            &rg,
            &ExecOpts {
                baseline: true,
                ..ExecOpts::default()
            },
        )
        .unwrap()
        .value;
        assert_eq!(bv, hv.value, "seed {seed}: baseline disagrees on {src}");
        // rg- may fault — but only with a dangling pointer, and only
        // because the generator emits programs whose GC safety genuinely
        // needs the coverage rule. Any other divergence is a bug.
        let rgm = compile(&src, Strategy::RgMinus).unwrap();
        match execute(&rgm, &ExecOpts::default()) {
            Ok(out) => assert_eq!(out.value, hv.value, "seed {seed}: rg- disagrees on {src}"),
            Err(RunError::Dangling(_)) => {}
            Err(e) => panic!("seed {seed}: rg- failed with a non-dangling error: {e}\nsrc: {src}"),
        }
    }
}

#[test]
fn generational_collection_agrees() {
    for (seed, src) in cases(9_000) {
        let c = compile(&src, Strategy::Rg)
            .unwrap_or_else(|e| panic!("seed {seed}: compile failed: {e}\nsrc: {src}"));
        let plain = execute(&c, &ExecOpts::default()).unwrap().value;
        let opts = ExecOpts {
            gc: Some(GcPolicy::On {
                min_bytes: 256,
                ratio: 1.05,
                generational: true,
            }),
            ..ExecOpts::default()
        };
        let gen = execute(&c, &opts).unwrap().value;
        assert_eq!(
            plain, gen,
            "seed {seed}: generational GC changed the result of {src}"
        );
    }
}
