//! The allocation heuristic's collection points, pinned.
//!
//! `GcPolicy::On` collects once allocation since the last collection
//! exceeds `max(min_bytes, ratio × live bytes after the last one)`. The
//! heap computes that trigger once per collection rather than once per
//! step; this test pins where the collections land, so any change to the
//! trigger's formula, rounding or update points shows up in a debug run
//! too (the suite-wide `gc_count` pins in `crates/bench/baseline.json`
//! run only in release). A 4-KB minimum makes two small suite programs
//! collect many times, in the plain and the generational scheme.

use rml::{compile_with_basis, execute, ExecOpts, Strategy};
use rml_eval::GcPolicy;

fn pauses(name: &str, generational: bool) -> (u64, Vec<u64>) {
    let p = rml::programs::suite()
        .into_iter()
        .find(|p| p.name == name)
        .expect("suite program");
    let out = rml::run_with_big_stack(move || {
        let c = compile_with_basis(p.source, Strategy::Rg).expect("compile");
        let opts = ExecOpts {
            gc: Some(GcPolicy::On {
                min_bytes: 4096,
                ratio: 1.5,
                generational,
            }),
            ..ExecOpts::default()
        };
        execute(&c, &opts).expect("run")
    });
    let live = out.pauses.iter().map(|p| p.live_bytes).collect();
    (out.stats.gc_count, live)
}

// Values taken before the trigger was cached in the heap; they must not
// move.

#[test]
fn msort_collects_where_it_did() {
    assert_eq!(
        pauses("msort", false),
        (
            15,
            vec![
                384, 1808, 5920, 12144, 19568, 19568, 15856, 12688, 11920, 9632, 7680, 6704, 3024,
                2304, 6416
            ]
        )
    );
    assert_eq!(
        pauses("msort", true),
        (
            9,
            vec![384, 1824, 5936, 12160, 19472, 24160, 25088, 32000, 34640]
        )
    );
}

#[test]
fn msort_rf_collects_where_it_did() {
    assert_eq!(
        pauses("msort-rf", false),
        (
            16,
            vec![
                560, 1808, 5920, 6960, 6960, 6960, 10960, 9648, 7856, 7376, 7168, 7040, 6976, 7760,
                6896, 8512
            ]
        )
    );
    assert_eq!(
        pauses("msort-rf", true),
        (
            10,
            vec![560, 1824, 5936, 7448, 6960, 8936, 15928, 22296, 28760, 6896]
        )
    );
}
