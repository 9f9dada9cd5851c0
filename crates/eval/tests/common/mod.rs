//! The pipeline up to the machine, shared by the machine's tests.

use rml_eval::{run, ExecOpts, RunError, RunOutcome};
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
    run(&out.term, out.global, &ReprInfo::default(), opts)
}
