//! Host-allocation tripwire for the collector and the heap verifier.
//!
//! The torture oracle's `stress-step` schedule collects and walks the
//! verifier at every machine step, so any host allocation per collection
//! or per walk is paid once per step. This binary installs a counting
//! global allocator (thread-local counter, as in `machine_allocs.rs`) and
//! runs the three suite programs that finish inside the CI torture fuel
//! under `rg` with that schedule, counting only the allocations made
//! inside `rml::execute`. It stays a single-test binary so the count is
//! taken on one thread with nothing else in flight.
//!
//! The count includes each run's own set-up (its fresh heap; the program
//! is lowered at compile time) and its machine steps, so the ratio is an
//! upper bound on what one collection and one walk allocate; one host
//! allocation per call would add 1.0 to it. The budget is the measured
//! ratio plus 20% headroom.

use rml::{compile_with_basis, execute, ExecOpts, Strategy};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: defers every operation to the system allocator; the counter is
// a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(|c| c.get())
}

/// Measured 0.300 host allocations per collection-and-walk (4718 for
/// 15709 steps, each with one collection and one walk; 68.0 before the
/// collector and the verifier kept their work lists in the heap); the
/// budget adds 20% headroom.
const ALLOCS_PER_COLLECTION_BUDGET: f64 = 0.36;

#[test]
fn collections_and_verifier_walks_stay_within_budget() {
    let stress_step = rml::torture::schedules(1)
        .into_iter()
        .find(|s| s.name == "stress-step")
        .expect("the torture matrix has a stress-step schedule");
    let (allocated, collections, walks) = rml::run_with_big_stack(move || {
        let (mut allocated, mut collections, mut walks) = (0u64, 0u64, 0u64);
        for name in ["ratio", "strings", "compose"] {
            let p = rml::programs::suite()
                .into_iter()
                .find(|p| p.name == name)
                .expect("suite program");
            let c = compile_with_basis(p.source, Strategy::Rg).expect("compile");
            let opts = ExecOpts {
                gc: stress_step.gc,
                ..ExecOpts::default()
            };
            let before = allocs();
            let out = execute(&c, &opts).expect("run");
            allocated += allocs() - before;
            collections += out.stats.gc_count;
            walks += out.stats.verify_walks;
        }
        (allocated, collections, walks)
    });
    let per_collection = allocated as f64 / collections as f64;
    println!(
        "stress-step: {allocated} host allocations for {collections} collections \
         and {walks} verifier walks ({per_collection:.4}/collection)"
    );
    assert!(collections > 10_000, "the schedule collected every step");
    assert_eq!(collections, walks, "one verifier walk per collection");
    assert!(
        per_collection < ALLOCS_PER_COLLECTION_BUDGET,
        "{per_collection:.4} host allocations per collection and verifier \
         walk (budget {ALLOCS_PER_COLLECTION_BUDGET}); are the collector's \
         or the verifier's work lists allocated per call again?"
    );
}
