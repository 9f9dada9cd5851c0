//! `compile_with_basis` compiles only the basis declarations a program
//! reaches. The program's own declarations are always compiled, name
//! shadowing and transitive uses are respected, and `compile(BASIS, …)`
//! still compiles the whole basis.

use rml::{compile, compile_with_basis, execute, render_diagnostic, ExecOpts, RunValue, Strategy};

const STRATEGIES: [Strategy; 3] = [Strategy::Rg, Strategy::RgMinus, Strategy::R];

/// The names in `c`'s top-level schemes.
fn scheme_names(c: &rml::Compiled) -> Vec<String> {
    c.output
        .schemes
        .iter()
        .map(|(n, _)| n.to_string())
        .collect()
}

fn run(c: &rml::Compiled) -> RunValue {
    execute(c, &ExecOpts::default())
        .unwrap_or_else(|e| panic!("{:?}: {e}", c.strategy))
        .value
}

/// Every suite program, compiled against the reached basis, checks under
/// its strategy and computes what the program compiled with the whole
/// basis prepended as text computes (and its pinned value, when it has
/// one).
#[test]
fn suite_programs_keep_their_values_and_check() {
    rml::run_with_big_stack(|| {
        for p in rml::programs::suite() {
            let full = format!("{}\n{}", rml::basis::BASIS, p.source);
            let reference = run(&compile(&full, Strategy::Rg).unwrap());
            if let Some(expected) = &p.expected {
                assert_eq!(&reference, expected, "{}", p.name);
            }
            for s in STRATEGIES {
                let c = compile_with_basis(p.source, s)
                    .unwrap_or_else(|e| panic!("{} [{s:?}]: {e}", p.name));
                rml::check(&c).unwrap_or_else(|e| panic!("{} [{s:?}]: check: {e}", p.name));
                assert_eq!(run(&c), reference, "{} [{s:?}]", p.name);
            }
        }
    });
}

#[test]
fn schemes_hold_only_the_reached_basis_functions() {
    rml::run_with_big_stack(|| {
        let c = compile_with_basis("fun main () = length [1, 2, 3]", Strategy::Rg).unwrap();
        assert_eq!(scheme_names(&c), ["length", "main"]);
        assert_eq!(c.basis_decls, 1);
        // A program that mentions no basis name compiles none of it.
        let p = rml::programs::by_name("fib").unwrap();
        let c = compile_with_basis(p.source, Strategy::Rg).unwrap();
        assert_eq!(scheme_names(&c), ["fib", "main"]);
        assert_eq!(c.basis_decls, 0);
        // msort mentions `sum` and `take` of the basis, and nothing else.
        let p = rml::programs::by_name("msort").unwrap();
        let c = compile_with_basis(p.source, Strategy::Rg).unwrap();
        let names = scheme_names(&c);
        assert_eq!(names[..2], ["take", "sum"], "{names:?}");
        assert_eq!(c.basis_decls, 2);
    });
}

/// The basis `map` used by a declaration before the user's own `fun map`
/// is kept; once the user's `map` shadows it, it is dropped.
#[test]
fn shadowing_keeps_a_basis_function_used_before_the_user_redefines_it() {
    rml::run_with_big_stack(|| {
        let used = "val xs = map (fn x => x + 1) [1, 2, 3]\n\
                    fun map (f : int) = f * 10\n\
                    fun main () = length xs + map 1";
        for s in STRATEGIES {
            let c = compile_with_basis(used, s).unwrap();
            assert_eq!(run(&c), RunValue::Int(13), "{s:?}");
            assert_eq!(c.basis_decls, 2, "{s:?}: the basis map and length");
        }
        let shadowed = "fun map (f : int) = f * 10\nfun main () = map 1";
        let c = compile_with_basis(shadowed, Strategy::Rg).unwrap();
        assert_eq!(run(&c), RunValue::Int(10));
        assert_eq!(c.basis_decls, 0);
    });
}

/// `opt_mapPartial` is defined through `o`, `opt_join`, `opt_map` and
/// `id`: a use of it keeps all four.
#[test]
fn transitive_uses_are_kept() {
    rml::run_with_big_stack(|| {
        let src = "fun main () = length (opt_mapPartial (fn x => [x + 1]) [1])";
        let c = compile_with_basis(src, Strategy::Rg).unwrap();
        let names = scheme_names(&c);
        for f in ["o", "id", "opt_map", "opt_join", "opt_mapPartial", "length"] {
            assert!(names.iter().any(|n| n == f), "`{f}` missing: {names:?}");
        }
        assert_eq!(c.basis_decls, 6, "{names:?}");
        assert_eq!(run(&c), RunValue::Int(1));
        // The spurious `o` comes along, so the program's own statistics
        // count no spurious function while the whole compile counts two.
        assert_eq!(c.own_stats().spurious_fns, 0);
        assert_eq!(c.output.stats.spurious_fns, 2);
    });
}

/// An unused user declaration is still typed: its error is reported at
/// the user's line, at the same span as without the basis.
#[test]
fn an_unused_ill_typed_user_declaration_still_fails() {
    rml::run_with_big_stack(|| {
        let src = "fun main () = 1\nfun unused x = x + \"two\"\n";
        let err = compile_with_basis(src, Strategy::Rg).unwrap_err();
        let d = err.diagnostic();
        assert_eq!(d.code, "E0002");
        let r = render_diagnostic(d, src, "prog.rml");
        assert!(r.contains("--> prog.rml:2:"), "{r}");
        let alone = compile(src, Strategy::Rg).unwrap_err();
        assert_eq!(d.primary, alone.diagnostic().primary);
        assert_eq!(r, render_diagnostic(alone.diagnostic(), src, "prog.rml"));
    });
}

/// The full-basis mode: E5's three spurious functions among the basis's
/// 38 (36 top-level functions and two local `go` helpers).
#[test]
fn compiling_the_basis_itself_compiles_all_of_it() {
    rml::run_with_big_stack(|| {
        let c = compile(rml::basis::BASIS, Strategy::Rg).unwrap();
        let s = &c.output.stats;
        assert_eq!((s.spurious_fns, s.total_fns), (3, 38), "{s:?}");
        assert_eq!(c.output.bind_stats.len(), 37, "top-level declarations");
        assert_eq!(c.basis_decls, 0);
        assert_eq!(c.own_stats(), *s);
    });
}
