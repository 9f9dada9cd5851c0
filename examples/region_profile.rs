//! Region profiling: the static representation analyses of `rml-repr`
//! (finite/untagged regions, droppable region parameters, allocation
//! statistics) next to the dynamic region behaviour of a run.
//!
//! ```sh
//! cargo run --example region_profile
//! ```

use rml::{compile, execute, ExecOpts, Strategy};

fn main() {
    let src = r#"
        fun double xs = case xs of nil => nil | h :: t => (2 * h) :: double t
        fun sum xs = case xs of nil => 0 | h :: t => h + sum t
        fun upto n = if n = 0 then nil else n :: upto (n - 1)
        fun main () =
          let val scratch = (1, 2)                 (* dies immediately: finite *)
              val data = double (upto 500)         (* list spine: infinite *)
          in sum data + #1 scratch end
    "#;
    let c = compile(src, Strategy::Rg).expect("compile");

    let allocs = rml_repr::alloc_stats(&c.output.term);
    println!("== static region representation (rml-repr) ==");
    println!("  letregion nodes  : {}", allocs.letregions);
    println!("  bound regions    : {}", allocs.bound_regions);
    println!("  finite regions   : {}", c.repr.finite.len());
    println!("  untagged regions : {}", c.repr.uniform.len());
    println!("  allocation sites : {}", allocs.alloc_sites);
    println!("  region apps      : {}", allocs.region_apps);
    println!("  droppable region parameters per function:");
    for (f, (droppable, total)) in &rml_repr::droppable_params(&c.output.term) {
        println!("    {f:<10} {droppable}/{total}");
    }

    let out = execute(&c, &ExecOpts::default()).expect("run");
    println!("\n== dynamic behaviour ==");
    println!("  result            : {}", out.value);
    println!("  regions created   : {}", out.stats.regions_created);
    println!("  peak live regions : {}", out.stats.peak_regions);
    println!("  bytes allocated   : {}", out.stats.bytes_allocated);
    println!("  peak RSS          : {} bytes", out.stats.peak_bytes());
    println!("  collections       : {}", out.stats.gc_count);
}
