//! Torture-rig behaviors at the machine level: stale region reads are
//! caught at the read, stress schedules are deterministic under a fixed
//! seed, and injected faults unwind structurally and leave nothing
//! behind.

mod common;

use common::{compile, exec, exec_term};
use rml_eval::{ExecOpts, GcPolicy, RunError, RunValue};
use rml_infer::Strategy;

/// A stale read after a `letregion` pop is detected *at the read* — by
/// the pointer's page-epoch check, with the collector off and therefore
/// provably uninvolved. Region inference never produces such a term (the
/// point of the paper), so this hand-builds an ill-annotated one:
///
/// ```text
/// let r = letregion ρ1 in ref ("gone" at ρ1) at ρg
/// in size (!r)
/// ```
///
/// The reference cell lives in the global region and outlives ρ1; its
/// contents do not.
#[test]
fn letregion_pop_stale_read_is_detected_at_the_read() {
    use rml_core::{RegVar, Term};
    use rml_syntax::{ast::PrimOp, Symbol};

    let global = RegVar::fresh();
    let r1 = RegVar::fresh();
    let term = Term::Let {
        x: Symbol::intern("r"),
        rhs: Box::new(Term::Letregion {
            rvars: vec![r1],
            evars: vec![],
            body: Box::new(Term::RefNew(Box::new(Term::Str("gone".into(), r1)), global)),
        }),
        body: Box::new(Term::Prim(
            PrimOp::Size,
            vec![Term::Deref(Box::new(Term::Var(Symbol::intern("r"))))],
            None,
        )),
    };

    let opts = ExecOpts {
        gc: Some(GcPolicy::Off),
        ..ExecOpts::default()
    };
    let err = exec_term(&term, global, &opts).expect_err("the stale read must fault");
    assert!(
        matches!(err, RunError::Dangling(_)),
        "expected a dangling-read fault, got: {err}"
    );

    // The same shape with the string allocated in the *global* region is
    // fine — the fault above is precisely about the popped region.
    let sound = Term::Let {
        x: Symbol::intern("r"),
        rhs: Box::new(Term::Letregion {
            rvars: vec![r1],
            evars: vec![],
            body: Box::new(Term::RefNew(
                Box::new(Term::Str("gone".into(), global)),
                global,
            )),
        }),
        body: Box::new(Term::Prim(
            PrimOp::Size,
            vec![Term::Deref(Box::new(Term::Var(Symbol::intern("r"))))],
            None,
        )),
    };
    let out = exec_term(&sound, global, &opts).expect("global-region contents outlive the pop");
    assert_eq!(out.value, RunValue::Int(4));
    assert_eq!(out.stats.gc_count, 0, "GC off means no collections at all");
}

const BUILDER: &str = "fun build n = if n = 0 then nil else (n, itos n) :: build (n - 1) \
     fun len xs = case xs of nil => 0 | h :: t => 1 + len t \
     fun main () = len (build 64)";

/// Same seed ⇒ same schedule ⇒ same outcome, down to the collection and
/// verification counts.
#[test]
fn stress_schedules_are_deterministic_per_seed() {
    let out = compile(BUILDER, Strategy::Rg);
    let go = |seed: u64| {
        let opts = ExecOpts {
            gc: Some(GcPolicy::stress_every(3, seed)),
            ..ExecOpts::default()
        };
        exec(&out, &opts).expect("stressed run failed")
    };
    let a = go(0xDEAD_BEEF);
    let b = go(0xDEAD_BEEF);
    assert_eq!(a.value, b.value);
    assert_eq!(a.steps, b.steps);
    assert_eq!(a.stats.gc_count, b.stats.gc_count);
    assert_eq!(a.stats.forced_gcs, b.stats.forced_gcs);
    assert_eq!(a.stats.verify_walks, b.stats.verify_walks);
    // A different seed may collect at different points, but the value is
    // schedule-independent (that is the point of GC safety).
    let c = go(0x1234_5678);
    assert_eq!(a.value, c.value);
    assert_eq!(a.steps, c.steps, "steps consume no fuel during GC");
}

/// Injected faults unwind as structured errors — and because every run
/// builds a fresh machine, a clean run afterwards is unaffected.
#[test]
fn injected_faults_unwind_structurally_and_leave_no_residue() {
    let out = compile(BUILDER, Strategy::Rg);

    let opts = ExecOpts {
        alloc_budget: Some(10),
        ..ExecOpts::default()
    };
    match exec(&out, &opts) {
        Err(RunError::OutOfMemory { allocs }) => assert_eq!(allocs, 10),
        other => panic!("expected OutOfMemory, got {other:?}"),
    }

    let opts = ExecOpts {
        depth_limit: Some(2),
        ..ExecOpts::default()
    };
    match exec(&out, &opts) {
        Err(RunError::DepthLimit { depth }) => assert!(depth > 2),
        other => panic!("expected DepthLimit, got {other:?}"),
    }

    let clean = exec(&out, &ExecOpts::default()).expect("clean run after faults");
    assert_eq!(clean.value, RunValue::Int(64));
}

/// Figure 1 with an explicit `forcegc`, under the full stress schedule:
/// `rg` survives every collection point; `rg-` faults, and faults
/// *identically* on every run (the oracle's determinism contract).
#[test]
fn figure1_under_stress_rg_survives_rg_minus_faults_deterministically() {
    const FIGURE1: &str = "fun compose (f, g) = fn a => f (g a) \
         fun run () = \
           let val h = compose (let val x = \"oh\" ^ \"no\" in (fn y => (), fn () => x) end) \
               val u = forcegc () \
           in h () end \
         fun main () = run ()";

    let rg = compile(FIGURE1, Strategy::Rg);
    let opts = ExecOpts {
        gc: Some(GcPolicy::stress_every_step(0x7041_10E5)),
        ..ExecOpts::default()
    };
    let out = exec(&rg, &opts).expect("rg must survive stress");
    assert_eq!(out.value, RunValue::Unit);
    assert!(out.stats.forced_gcs > 0);
    assert!(out.stats.verify_walks > 0);

    let rgm = compile(FIGURE1, Strategy::RgMinus);
    let fail = |_: ()| exec(&rgm, &opts).expect_err("rg- must fault under stress");
    let e1 = fail(());
    let e2 = fail(());
    assert!(matches!(e1, RunError::Dangling(_)), "got: {e1}");
    assert_eq!(
        e1.to_string(),
        e2.to_string(),
        "fault must be deterministic"
    );
}
