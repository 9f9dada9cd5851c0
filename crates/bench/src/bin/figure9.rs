//! Regenerates the paper's Figure 9 benchmark table.
//!
//! ```sh
//! cargo run --release -p rml-bench --bin figure9 [repeats]
//! ```
//!
//! Columns follow the paper: `loc` (program lines, basis excluded),
//! `fcns` (spurious functions / total), `inst` (spurious type variables
//! instantiated at boxed types / total instantiations), `diff` (whether
//! the spurious machinery changed the generated code), wall-clock time
//! per strategy (best of `repeats`, default 3), peak memory (`rss`), and
//! collection counts (`gc`). Rows run one at a time, so each time is
//! taken on an otherwise idle core.
//!
//! Two further tables follow: the suite's compile time per strategy with
//! its phase split, and the fixed ablations (spurious-variable style, GC
//! threshold, generational collection, tag-free representation), timed
//! the same way.
//!
//! The run also writes `BENCH_figure9.json` to the current directory:
//! the rows and ablations in machine-readable form, each run carrying
//! its full metrics snapshot.

fn main() {
    // A non-numeric repeats argument fails loudly (exit 2) instead of
    // silently falling back to 3 best-of runs.
    let repeats = rml_bench::arg_u64(1, "repeats", 3) as usize;
    eprintln!("running the Figure 9 suite (best of {repeats})...");
    let t0 = std::time::Instant::now();
    let rows = rml_bench::figure9(repeats);
    let wall = t0.elapsed();
    println!("{}", rml_bench::render(&rows));
    println!("{}", rml_bench::render_compile(&rows));
    eprintln!(
        "suite wall time {:.1}ms ({} compilations)",
        wall.as_secs_f64() * 1000.0,
        rml::compile_count(),
    );
    let ablations = rml_bench::ablations(repeats);
    println!("{}", rml_bench::render_ablations(&ablations));
    let json = rml_bench::to_json(&rows, &ablations);
    match std::fs::write("BENCH_figure9.json", &json) {
        Ok(()) => eprintln!("wrote BENCH_figure9.json"),
        Err(e) => eprintln!("could not write BENCH_figure9.json: {e}"),
    }
}
