//! The pipeline up to the machine, shared by the machine's tests.

use rml_core::{RegVar, Term};
use rml_eval::{lower, run, ExecOpts, RunError, RunOutcome};
use rml_infer::{infer, Options, Strategy};
use rml_repr::ReprInfo;

pub fn compile(src: &str, strategy: Strategy) -> rml_infer::Output {
    let prog = rml_syntax::parse_program(src).unwrap();
    let typed = rml_hm::infer_program(&prog).unwrap();
    infer(
        &typed,
        Options {
            strategy,
            ..Options::default()
        },
    )
    .unwrap()
}

/// Runs `out` with every region infinite and tagged.
pub fn exec(out: &rml_infer::Output, opts: &ExecOpts) -> Result<RunOutcome, RunError> {
    exec_term(&out.term, out.global, opts)
}

/// Lowers and runs `term`, whose global region variable is `global`, with
/// every region infinite and tagged.
pub fn exec_term(term: &Term, global: RegVar, opts: &ExecOpts) -> Result<RunOutcome, RunError> {
    run(&lower(term, global, &ReprInfo::default()), opts)
}
