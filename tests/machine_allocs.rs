//! Host-allocation tripwire for the abstract machine.
//!
//! The machine's run time is per-step overhead, and host heap allocation
//! per binding, call or primitive is a large share of it. This binary
//! installs a counting global allocator (its counter is thread-local, so
//! nothing else running in the process is counted) and runs the 18 suite
//! programs under `rg` and the regionless baseline, counting only the
//! allocations made inside `rml::execute`. It stays a single-test binary
//! so the count is taken on one thread with nothing else in flight.
//!
//! The budget is the measured ratio plus at most 25% headroom, like the
//! find-ops budget in `perf_smoke.rs`, so it trips on a machine that
//! allocates per step again, not on routine changes.

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

/// Measured 0.0133 host allocations per step over the suite (727k for
/// 54.7M steps on x86-64); the budget adds 20% headroom.
const ALLOCS_PER_STEP_BUDGET: f64 = 0.016;

#[test]
fn machine_allocations_per_step_stay_within_budget() {
    let (allocated, steps) = rml::run_with_big_stack(|| {
        let (mut allocated, mut steps) = (0u64, 0u64);
        for p in rml::programs::suite() {
            let c = compile_with_basis(p.source, Strategy::Rg).expect("compile");
            for baseline in [false, true] {
                let opts = ExecOpts {
                    baseline,
                    ..ExecOpts::default()
                };
                let before = allocs();
                let out = execute(&c, &opts).expect("run");
                allocated += allocs() - before;
                steps += out.steps;
            }
        }
        (allocated, steps)
    });
    let per_step = allocated as f64 / steps as f64;
    println!(
        "suite rg + baseline: {allocated} host allocations for {steps} steps ({per_step:.3}/step)"
    );
    assert!(steps > 1_000_000, "the suite ran");
    assert!(
        per_step < ALLOCS_PER_STEP_BUDGET,
        "the machine made {per_step:.3} host allocations per step \
         (budget {ALLOCS_PER_STEP_BUDGET}); is something allocating per \
         binding, per call or per primitive again?"
    );
}
