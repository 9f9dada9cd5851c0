//! End-to-end machine tests: source → pipeline → heap execution, with and
//! without the tracing collector.

use rml_eval::{run, GcPolicy, RunError, RunOpts, RunValue};
use rml_infer::{infer, Options, Strategy};

fn compile(src: &str, strategy: Strategy) -> rml_infer::Output {
    let prog = rml_syntax::parse_program(src).unwrap();
    let typed = rml_hm::infer_program(&prog).unwrap();
    infer(
        &typed,
        Options {
            strategy,
            ..Options::default()
        },
    )
    .unwrap()
}

fn run_rg(src: &str) -> RunValue {
    let out = compile(src, Strategy::Rg);
    // Aggressive collection to stress the collector.
    let mut opts = RunOpts::new(out.global);
    opts.gc = GcPolicy::On {
        min_bytes: 512,
        ratio: 1.1,
        generational: false,
    };
    run(&out.term, &opts).expect("run failed").value
}

#[test]
fn arithmetic_runs() {
    assert_eq!(run_rg("fun main () = 2 + 3 * 4"), RunValue::Int(14));
}

#[test]
fn fib_runs_on_heap() {
    assert_eq!(
        run_rg("fun fib n = if n < 2 then n else fib (n - 1) + fib (n - 2) fun main () = fib 18"),
        RunValue::Int(2584)
    );
}

#[test]
fn lists_and_map_survive_gc() {
    assert_eq!(
        run_rg(
            "fun upto n = if n = 0 then nil else n :: upto (n - 1) \
             fun map f xs = case xs of nil => nil | h :: t => f h :: map f t \
             fun sum xs = case xs of nil => 0 | h :: t => h + sum t \
             fun main () = sum (map (fn x => x * 2) (upto 200))"
        ),
        RunValue::Int(40200)
    );
}

#[test]
fn strings_concat_and_size() {
    assert_eq!(
        run_rg("fun main () = size (\"hello\" ^ \" \" ^ \"world\" ^ itos 42)"),
        RunValue::Int(13)
    );
}

#[test]
fn closures_capture_values() {
    assert_eq!(
        run_rg(
            "fun adder n = fn m => n + m \
             fun main () = (adder 10) 32"
        ),
        RunValue::Int(42)
    );
}

#[test]
fn refs_and_loops() {
    assert_eq!(
        run_rg(
            "fun main () = \
               let val acc = ref 0 \
                   fun go n = if n = 0 then !acc else (acc := !acc + n; go (n - 1)) \
               in go 100 end"
        ),
        RunValue::Int(5050)
    );
}

#[test]
fn mutual_recursion_on_heap() {
    assert_eq!(
        run_rg(
            "fun even n = if n = 0 then true else odd (n - 1) \
             and odd n = if n = 0 then false else even (n - 1) \
             fun main () = even 100"
        ),
        RunValue::Bool(true)
    );
}

#[test]
fn exceptions_unwind_regions() {
    assert_eq!(
        run_rg(
            "exception Found of int \
             fun search xs = case xs of nil => 0 | h :: t => if h > 10 then raise (Found h) else search t \
             fun main () = (search [1, 5, 20, 3]) handle Found n => n"
        ),
        RunValue::Int(20)
    );
}

#[test]
fn uncaught_exception_is_reported() {
    let out = compile("exception Boom fun main () = raise Boom", Strategy::Rg);
    let err = run(&out.term, &RunOpts::new(out.global)).unwrap_err();
    assert!(matches!(err, RunError::Uncaught(n) if n == "Boom"));
}

#[test]
fn print_output_is_captured() {
    let out = compile("fun main () = (print \"a\"; print \"b\"; 0)", Strategy::Rg);
    let res = run(&out.term, &RunOpts::new(out.global)).unwrap();
    assert_eq!(res.output, "ab");
}

const FIGURE1: &str = "fun compose (f, g) = fn a => f (g a) \
fun run () = \
  let val h = compose (let val x = \"oh\" ^ \"no\" in (fn y => (), fn () => x) end) \
      val u = forcegc () \
  in h () end \
fun main () = run ()";

#[test]
fn figure1_rg_runs_with_forced_gc() {
    // The paper's Figure 1: under rg the forced collection is safe.
    let out = compile(FIGURE1, Strategy::Rg);
    let res = run(&out.term, &RunOpts::new(out.global)).unwrap();
    assert_eq!(res.value, RunValue::Unit);
    assert!(res.stats.gc_count >= 1, "forcegc must trigger a collection");
}

#[test]
fn figure1_rgminus_crashes_the_collector() {
    // Under rg- the collector traces the dangling pointer left in `h`.
    let out = compile(FIGURE1, Strategy::RgMinus);
    let err = run(&out.term, &RunOpts::new(out.global)).unwrap_err();
    assert!(matches!(err, RunError::Dangling(_)), "got {err:?}");
}

#[test]
fn figure1_r_mode_runs_without_gc() {
    let out = compile(FIGURE1, Strategy::R);
    let mut opts = RunOpts::new(out.global);
    opts.gc = GcPolicy::Off;
    let res = run(&out.term, &opts).unwrap();
    assert_eq!(res.value, RunValue::Unit);
    assert_eq!(res.stats.gc_count, 0);
}

#[test]
fn baseline_mode_ignores_regions() {
    let src = "fun upto n = if n = 0 then nil else n :: upto (n - 1) \
               fun sum xs = case xs of nil => 0 | h :: t => h + sum t \
               fun main () = sum (upto 500)";
    let out = compile(src, Strategy::Rg);
    let res = run(&out.term, &RunOpts::baseline(out.global)).unwrap();
    assert_eq!(res.value, RunValue::Int(125250));
    assert_eq!(res.stats.regions_created, 1, "baseline uses one region");
}

#[test]
fn regions_bound_memory_without_gc() {
    // A loop whose garbage dies with its per-iteration region: even with
    // GC off, memory stays bounded because letregion pops pages.
    // The per-iteration pair dies before the tail call (its letregion
    // wraps the argument computation).
    let src = "fun go n = if n = 0 then 0 else \
                 go (let val p = (n, (n, n)) in #1 p - 1 end) \
               fun main () = go 20000";
    let out = compile(src, Strategy::R);
    let mut opts = RunOpts::new(out.global);
    opts.gc = GcPolicy::Off;
    let res = run(&out.term, &opts).unwrap();
    assert_eq!(res.value, RunValue::Int(0));
    assert!(
        res.stats.peak_live_words < 200_000,
        "peak {} words — regions did not bound memory",
        res.stats.peak_live_words
    );
}

#[test]
fn gc_bounds_memory_for_region_unfriendly_code() {
    // A list rebuilt per iteration in one long-lived region: with GC on,
    // memory stays bounded.
    let src = "fun build n acc = if n = 0 then acc else build (n - 1) ((n, n) :: nil) \
               fun main () = case build 30000 nil of nil => 0 | h :: t => #1 h";
    let out = compile(src, Strategy::Rg);
    let mut opts = RunOpts::new(out.global);
    opts.gc = GcPolicy::On {
        min_bytes: 8 * 1024,
        ratio: 1.2,
        generational: false,
    };
    let res = run(&out.term, &opts).unwrap();
    assert_eq!(res.value, RunValue::Int(1));
    assert!(res.stats.gc_count > 0);
}

#[test]
fn generational_mode_runs() {
    let src = "fun upto n = if n = 0 then nil else n :: upto (n - 1) \
               fun sum xs = case xs of nil => 0 | h :: t => h + sum t \
               fun main () = sum (upto 2000)";
    let out = compile(src, Strategy::Rg);
    let mut opts = RunOpts::new(out.global);
    opts.gc = GcPolicy::On {
        min_bytes: 4 * 1024,
        ratio: 1.2,
        generational: true,
    };
    let res = run(&out.term, &opts).unwrap();
    assert_eq!(res.value, RunValue::Int(2001000));
    assert!(res.stats.minor_gc_count > 0, "stats: {:?}", res.stats);
}

#[test]
fn deep_polymorphic_program_with_gc() {
    let src = "fun compose (f, g) = fn a => f (g a) \
               fun twice f = compose (f, f) \
               fun main () = (twice (twice (fn x => x + 1))) 0";
    assert_eq!(run_rg(src), RunValue::Int(4));
}

#[test]
fn results_decode_structures() {
    let out = compile("fun main () = (1, (\"two\", [3, 4]))", Strategy::Rg);
    let res = run(&out.term, &RunOpts::new(out.global)).unwrap();
    assert_eq!(
        res.value,
        RunValue::Pair(
            Box::new(RunValue::Int(1)),
            Box::new(RunValue::Pair(
                Box::new(RunValue::Str("two".into())),
                Box::new(RunValue::List(vec![RunValue::Int(3), RunValue::Int(4)]))
            ))
        )
    );
}

/// Root precision: a binding whose scope has ended is not a root. In
/// baseline mode every object sits in the one collected region, so a
/// stale slot still holding a dead string would be copied by the forced
/// collections. The string `s` is out of scope at each `forcegc`: `f`
/// reaches it through a tail call; in `g` the caller is still pending, but
/// only to build a pair; in `h` a sibling `let` reuses the slots of the
/// scope that bound `s`, and its right-hand side runs with `s`'s slot
/// still written. The same program without the bindings must copy exactly
/// as many bytes.
#[test]
fn out_of_scope_bindings_are_not_roots() {
    let prog = |f: &str, g: &str, h: &str| {
        format!(
            "fun pad n = if n = 0 then \"\" else \"xxxxxxxx\" ^ pad (n - 1) \
             fun collect n = let val u = forcegc () in n end \
             fun f n = {f} \
             fun g n = #1 ({g}, collect n) \
             fun h n = let val a = {h} \
                           val u = forcegc () \
                       in a end \
             fun main () = f 1 + g 1 + h 2"
        )
    };
    let copied = |src: &str| {
        let out = compile(src, Strategy::Rg);
        let res = run(&out.term, &RunOpts::baseline(out.global)).unwrap();
        assert_eq!(res.value, RunValue::Int(3 * 64 * 8 + 2));
        assert_eq!(res.stats.gc_count, 3, "one forced collection each");
        res.stats.bytes_copied
    };
    let with = copied(&prog(
        "let val s = pad 64 in collect (size s) end",
        "(let val s = pad 64 in size s end)",
        "(let val p = n val s = pad 64 in size s + p end)",
    ));
    let without = copied(&prog(
        "collect (size (pad 64))",
        "size (pad 64)",
        "size (pad 64) + n",
    ));
    assert_eq!(with, without, "a dead binding was traced");
}
