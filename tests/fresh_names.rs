//! Compiling a program again interns no new names: each compile numbers
//! its fresh names (tuple parameters, eta-expanded builtins and
//! constructors) from zero. The test is alone in its file so that no
//! other test interns names in the same process while it counts.

use rml::Strategy;
use rml_syntax::Symbol;

#[test]
fn recompiling_a_program_interns_no_new_names() {
    rml::run_with_big_stack(|| {
        let life = rml::programs::suite()
            .into_iter()
            .find(|p| p.name == "life")
            .unwrap();
        rml::compile_with_basis(life.source, Strategy::Rg).unwrap();
        let interned = Symbol::interned();
        for strategy in [Strategy::Rg, Strategy::RgMinus, Strategy::R] {
            rml::compile_with_basis(life.source, strategy).unwrap();
            assert_eq!(Symbol::interned(), interned, "{strategy:?}");
        }
    });
}
