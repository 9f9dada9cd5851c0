//! The basis library, written in the object language.
//!
//! Mirrors the fragment of the Standard ML Basis Library that the paper's
//! Section 4.2 discusses. Options are encoded as lists (`NONE` = `nil`,
//! `SOME x` = `[x]`), since the core language has built-in lists but no
//! user datatypes.
//!
//! Exactly **three** functions of this basis are spurious — the
//! composition function `o` and the two option combinators `opt_compose`
//! and `opt_mapPartial` — matching the paper's observation that "the
//! MLKit implementation of the entire Standard ML Basis Library contains
//! only three spurious functions, which include the top-level composition
//! function `o` and the functions `Option.compose` and
//! `Option.mapPartial`". (The count is asserted by
//! `tests/basis_spurious.rs`.)
//!
//! The basis is parsed once per process; `rml::compile_with_basis` puts
//! the declarations a program reaches before the program's own. Its spans
//! lie in a range of their own, so a span's range names its file.

use rml_session::Span;
use rml_syntax::Program;
use std::sync::OnceLock;

/// The span offset of the basis's first byte, above any user source's.
const SPAN_BASE: u32 = 1 << 31;

/// The basis, parsed on the first call of the process (spans from
/// [`SPAN_BASE`] on), and the parser's fresh-name counter after it: a
/// program parsed against the basis names its tuple parameters from there.
pub(crate) fn parsed() -> &'static (Program, u32) {
    static PARSED: OnceLock<(Program, u32)> = OnceLock::new();
    PARSED.get_or_init(|| {
        rml_syntax::parse_program_at(BASIS, SPAN_BASE, 0).expect("the basis parses")
    })
}

/// The range in [`BASIS`] of a span of the basis's declarations, or
/// `None` for any other span (the user's, or a dummy).
pub(crate) fn span_in_basis(span: Span) -> Option<Span> {
    (span.start >= SPAN_BASE).then(|| Span::new(span.start - SPAN_BASE, span.end - SPAN_BASE))
}

/// The basis source.
pub const BASIS: &str = r#"
(* ---- function combinators ---- *)
fun o (f, g) = fn x => f (g x)
fun id x = x
fun const k = fn x => k

(* ---- integers ---- *)
fun min (a, b) = if a < b then a else b
fun max (a, b) = if a > b then a else b
fun abs n = if n < 0 then ~n else n
fun pow (b, e) = if e = 0 then 1 else b * pow (b, e - 1)

(* ---- pairs ---- *)
fun fst p = #1 p
fun snd p = #2 p
fun swap (a, b) = (b, a)

(* ---- options, encoded as lists ---- *)
fun some x = [x]
val none = nil
fun opt_isSome opt = case opt of nil => false | x :: t => true
fun opt_getOpt (opt, dflt) = case opt of nil => dflt | x :: t => x
fun opt_map f opt = case opt of nil => nil | x :: t => [f x]
fun opt_join opt = case opt of nil => nil | x :: t => x
fun opt_compose (f, g) = fn x => case g x of nil => nil | y :: t => [f y]
fun opt_mapPartial f = o (opt_join, o (opt_map f, id))

(* ---- lists ---- *)
fun length xs = case xs of nil => 0 | h :: t => 1 + length t
fun append (xs, ys) = case xs of nil => ys | h :: t => h :: append (t, ys)
fun rev xs =
  let fun go acc ys = case ys of nil => acc | h :: t => go (h :: acc) t
  in go nil xs end
fun map f xs = case xs of nil => nil | h :: t => f h :: map f t
fun app (f : 'a -> unit) xs =
  case xs of nil => () | h :: t => (f h; app f t)
fun foldl f acc xs =
  case xs of nil => acc | h :: t => foldl f (f (h, acc)) t
fun foldr f acc xs =
  case xs of nil => acc | h :: t => f (h, foldr f acc t)
fun filter p xs =
  case xs of
    nil => nil
  | h :: t => if p h then h :: filter p t else filter p t
fun exists p xs = case xs of nil => false | h :: t => if p h then true else exists p t
fun all p xs = case xs of nil => true | h :: t => if p h then all p t else false
fun member (x, xs) = exists (fn y => y = x) xs
fun tabulate n f =
  let fun go i = if i = n then nil else f i :: go (i + 1)
  in go 0 end
fun upto (lo, hi) = if lo > hi then nil else lo :: upto (lo + 1, hi)
fun nth (xs, n) = case xs of nil => 0 - 1 | h :: t => if n = 0 then h else nth (t, n - 1)
fun take (xs, n) =
  if n = 0 then nil else case xs of nil => nil | h :: t => h :: take (t, n - 1)
fun drop (xs, n) =
  if n = 0 then xs else case xs of nil => nil | h :: t => drop (t, n - 1)
fun zip (xs, ys) =
  case xs of
    nil => nil
  | x :: xt => case ys of nil => nil | y :: yt => (x, y) :: zip (xt, yt)
fun sum xs = case xs of nil => 0 | h :: t => h + sum t
fun concat_strings xs = case xs of nil => "" | h :: t => h ^ concat_strings t
"#;

#[cfg(test)]
mod tests {
    use crate::{compile_with_basis, execute, ExecOpts, RunValue, Strategy};

    fn eval(expr: &str) -> RunValue {
        let src = format!("fun main () = {expr}");
        crate::run_with_big_stack(move || {
            let c = compile_with_basis(&src, Strategy::Rg).unwrap();
            execute(&c, &ExecOpts::default()).unwrap().value
        })
    }

    #[test]
    fn combinators() {
        assert_eq!(
            eval("(o (fn x => x + 1, fn x => x * 2)) 5"),
            RunValue::Int(11)
        );
        assert_eq!(eval("id 9"), RunValue::Int(9));
        assert_eq!(eval("(const 3) \"ignored\""), RunValue::Int(3));
    }

    #[test]
    fn list_functions() {
        assert_eq!(eval("length (upto (1, 10))"), RunValue::Int(10));
        assert_eq!(
            eval("sum (map (fn x => x * x) [1, 2, 3])"),
            RunValue::Int(14)
        );
        assert_eq!(eval("sum (rev (upto (1, 4)))"), RunValue::Int(10));
        assert_eq!(eval("nth (append ([1, 2], [3, 4]), 2)"), RunValue::Int(3));
        assert_eq!(
            eval("foldl (fn (x, acc) => x + acc) 0 (upto (1, 100))"),
            RunValue::Int(5050)
        );
        assert_eq!(
            eval("sum (filter (fn x => x mod 2 = 0) (upto (1, 10)))"),
            RunValue::Int(30)
        );
        assert_eq!(
            eval("if member (3, [1, 2, 3]) then 1 else 0"),
            RunValue::Int(1)
        );
        assert_eq!(eval("sum (take (upto (1, 10), 3))"), RunValue::Int(6));
        assert_eq!(eval("sum (drop (upto (1, 10), 7))"), RunValue::Int(27));
        assert_eq!(eval("length (zip ([1, 2, 3], [4, 5]))"), RunValue::Int(2));
        assert_eq!(eval("sum (tabulate 5 (fn i => i))"), RunValue::Int(10));
    }

    #[test]
    fn options_encoded_as_lists() {
        assert_eq!(eval("opt_getOpt (some 5, 0)"), RunValue::Int(5));
        assert_eq!(eval("opt_getOpt (none, 7)"), RunValue::Int(7));
        assert_eq!(
            eval("if opt_isSome (some 1) then 1 else 0"),
            RunValue::Int(1)
        );
        assert_eq!(
            eval("opt_getOpt (opt_map (fn x => x + 1) (some 4), 0)"),
            RunValue::Int(5)
        );
        assert_eq!(
            eval("opt_getOpt ((opt_compose (fn x => x * 2, fn x => if x > 0 then some x else none)) 21, 0)"),
            RunValue::Int(42)
        );
        assert_eq!(
            eval("opt_getOpt (opt_mapPartial (fn x => if x > 3 then some (x + 1) else none) (some 5), 0)"),
            RunValue::Int(6)
        );
    }

    #[test]
    fn strings() {
        assert_eq!(
            eval("size (concat_strings [\"ab\", \"cd\", itos 123])"),
            RunValue::Int(7)
        );
    }
}
