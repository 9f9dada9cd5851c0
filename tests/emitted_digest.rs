//! What region inference emits, pinned by digest.
//!
//! For every suite program (with the basis) and the first fifty `rml-gen`
//! programs at fuel 40, under `rg`, `rg-` and `r`, the test hashes the
//! annotated term and the top-level schemes. Region, effect and type
//! variables are numbered from process-wide counters, so they are
//! renumbered in order of first occurrence before hashing: the digest
//! does not depend on which tests ran first. Inside one compilation the
//! counters only grow, so sets and maps keyed by variables print in the
//! same order under any numbering.
//!
//! The pinned values were taken before the environment kept its free
//! atoms (DESIGN "What the environment mentions"). A change to
//! inference's bookkeeping that moves a `letregion`,
//! quantifies another variable or changes a latent effect changes a
//! digest.

use rml::{compile, compile_with_basis, Compiled, Strategy};
use rml_bench::normalize_vars;
use rml_gen::{generate_source, GenOpts};

const STRATEGIES: [(Strategy, &str); 3] = [
    (Strategy::Rg, "rg"),
    (Strategy::RgMinus, "rg-"),
    (Strategy::R, "r"),
];
const GEN_SEEDS: u64 = 50;
const GEN_FUEL: u32 = 40;

/// FNV-1a, 64 bits.
fn fnv(h: &mut u64, bytes: &[u8]) {
    for &x in bytes {
        *h ^= u64::from(x);
        *h = h.wrapping_mul(0x0100_0000_01b3);
    }
}

fn emitted(c: &Compiled) -> String {
    format!("{:?}\n{:?}", c.output.term, c.output.schemes)
}

/// One digest per strategy over `compile_one` of every source.
fn digests(
    sources: Vec<String>,
    compile_one: fn(&str, Strategy) -> Result<Compiled, rml::CompileError>,
) -> Vec<(&'static str, u64)> {
    rml::run_with_big_stack(move || {
        STRATEGIES
            .iter()
            .map(|&(s, label)| {
                let mut h = 0xcbf2_9ce4_8422_2325u64;
                for src in &sources {
                    let c = compile_one(src, s).unwrap_or_else(|e| panic!("{label}: {e}"));
                    fnv(&mut h, normalize_vars(&emitted(&c)).as_bytes());
                }
                (label, h)
            })
            .collect()
    })
}

#[test]
fn suite_programs_emit_what_they_did() {
    let sources = rml::programs::suite()
        .into_iter()
        .map(|p| p.source.to_string())
        .collect();
    let got = digests(sources, compile_with_basis);
    let want = [
        ("rg", 15_602_301_176_798_852_420u64),
        ("rg-", 472_216_472_528_696_718),
        ("r", 13_765_187_311_282_180_932),
    ];
    assert_eq!(got, want, "the suite's annotated programs changed");
}

#[test]
fn generated_programs_emit_what_they_did() {
    let sources = (0..GEN_SEEDS)
        .map(|seed| {
            generate_source(&GenOpts {
                seed,
                fuel: GEN_FUEL,
            })
        })
        .collect();
    let got = digests(sources, compile);
    let want = [
        ("rg", 13_823_092_468_819_117_647u64),
        ("rg-", 10_764_090_956_362_096_686),
        ("r", 15_188_436_963_553_940_331),
    ];
    assert_eq!(got, want, "the generated programs' annotations changed");
}
