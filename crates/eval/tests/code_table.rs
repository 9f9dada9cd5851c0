//! Tests for the closure layout the lowering computes (free variables,
//! free region variables, group structure) via observable machine
//! behaviour.

use rml_eval::{run, RunOpts, RunValue};
use rml_infer::{infer, Options, Strategy};

fn go(src: &str) -> RunValue {
    let prog = rml_syntax::parse_program(src).unwrap();
    let typed = rml_hm::infer_program(&prog).unwrap();
    let out = infer(
        &typed,
        Options {
            strategy: Strategy::Rg,
            ..Default::default()
        },
    )
    .unwrap();
    run(&out.term, &RunOpts::new(out.global)).unwrap().value
}

#[test]
fn nested_captures_resolve_through_two_levels() {
    assert_eq!(
        go("fun main () = \
              let val a = 100 \
                  val f = fn b => fn c => a + b + c \
              in f 20 3 end"),
        RunValue::Int(123)
    );
}

#[test]
fn closures_capture_regions_of_free_region_variables() {
    // The inner lambda allocates into a region bound outside it; the
    // closure must capture the region binding.
    assert_eq!(
        go("fun main () = \
              let val mk = fn n => (n, n) \
              in #1 (mk 5) + #2 (mk 6) end"),
        RunValue::Int(11)
    );
}

#[test]
fn shadowed_names_capture_the_right_binding() {
    assert_eq!(
        go("fun main () = \
              let val x = 1 \
                  val f = fn u => x \
                  val x = 2 \
                  val g = fn u => x \
              in f () * 10 + g () end"),
        RunValue::Int(12)
    );
}

#[test]
fn sibling_slots_connect_mutual_groups() {
    assert_eq!(
        go("fun a n = if n = 0 then 0 else b (n - 1) \
            and b n = if n = 0 then 1 else a (n - 1) \
            fun main () = a 7 * 10 + b 7"),
        RunValue::Int(10)
    );
}

#[test]
fn recursive_closure_passed_as_value() {
    // A fun used first-class (unfused region application).
    assert_eq!(
        go("fun inc n = n + 1 \
            fun apply3 f x = f (f (f x)) \
            fun main () = apply3 inc 0"),
        RunValue::Int(3)
    );
}

#[test]
fn deep_recursion_is_iterative_not_stack_bound() {
    // The machine must not blow the Rust stack on deep object-language
    // recursion.
    assert_eq!(
        go("fun down n = if n = 0 then 0 else down (n - 1) \
            fun main () = down 200000"),
        RunValue::Int(0)
    );
}

#[test]
fn letregion_inside_loop_reuses_pages() {
    let prog = rml_syntax::parse_program(
        "fun go n = if n = 0 then 0 else go (let val p = (n, n) in #1 p - 1 end) \
         fun main () = go 5000",
    )
    .unwrap();
    let typed = rml_hm::infer_program(&prog).unwrap();
    let out = infer(
        &typed,
        Options {
            strategy: Strategy::R,
            ..Default::default()
        },
    )
    .unwrap();
    let mut opts = RunOpts::new(out.global);
    opts.gc = rml_eval::GcPolicy::Off;
    let res = run(&out.term, &opts).unwrap();
    assert_eq!(res.value, RunValue::Int(0));
    // Thousands of regions created, but pages recycled: small peak.
    assert!(res.stats.regions_created > 5000);
    assert!(res.stats.peak_live_words < 100_000, "{:?}", res.stats);
}
