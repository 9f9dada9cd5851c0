//! Section 4.3 / Figure 8: tracking spurious type-variable dependencies.
//!
//! `g`'s type variable `'a` never appears in the type of a captured
//! variable directly — it becomes spurious because it is *instantiated
//! for* `compose`'s spurious `γ`. The inferred scheme for `g` associates
//! `'a` with an arrow effect whose handle occurs in the effect of the
//! returned function, which rightfully forces the string `"ohno"` into a
//! region that outlives `h`.
//!
//! ```sh
//! cargo run --example spurious_dependency
//! ```

use rml::{compile, execute, ExecOpts, Strategy};
use rml_eval::{GcPolicy, RunError};

const FIGURE8: &str = r#"
fun compose (f, g) = fn a => f (g a)
fun g (f : unit -> 'a) : unit -> unit =
  compose (let val x = f () in (fn x => (), fn () => x) end)
val h = g (fn () => "oh" ^ "no")
fun main () = h ()
"#;

fn main() {
    println!("The program of Figure 8:\n{FIGURE8}");
    let c = compile(FIGURE8, Strategy::Rg).expect("compilation failed");

    println!("== inferred schemes ==");
    for (name, scheme) in &c.output.schemes {
        println!("  {name} : {}", rml_core::pretty::scheme_to_string(scheme));
        let spurious: Vec<_> = scheme
            .delta
            .iter()
            .map(|(a, ae)| format!("{a} : {ae}"))
            .collect();
        if !spurious.is_empty() {
            println!("      ∆ = {{ {} }}", spurious.join(", "));
        }
    }

    println!(
        "\nspurious functions: {:?} (γ of compose directly; 'a of g transitively)",
        c.output.stats.spurious_fn_names
    );

    // The program allocates too little for the default policy to ever
    // collect, so both runs collect at every machine step: a dangling
    // pointer is traced as soon as it is reachable.
    let opts = ExecOpts {
        gc: Some(GcPolicy::stress_every_step(0)),
        ..ExecOpts::default()
    };
    rml::check(&c).expect("GC-safe");
    let out = execute(&c, &opts).expect("run failed");
    println!(
        "\nresult: {} after {} collections (one per step) — safe.",
        out.value, out.stats.gc_count
    );

    println!("\nUnder rg- the same program crashes the collector:");
    let bad = compile(FIGURE8, Strategy::RgMinus).unwrap();
    match execute(&bad, &opts) {
        Ok(out) => panic!("rg- survived {} collections", out.stats.gc_count),
        Err(e @ RunError::Dangling(_)) => println!("  {e}"),
        Err(e) => panic!("rg- failed without a dangling pointer: {e}"),
    }
}
