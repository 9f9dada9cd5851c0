//! The workloads: their set-up, one pass over their ops, and the checks
//! on every op's output.

use crate::calib::Calib;
use crate::reference;
use crate::trace::Tracer;
use rml::programs::Program;
use rml::torture::{Outcome, Report, TortureOpts};
use rml::{CompileError, Compiled, ExecOpts, RunOutcome, RunValue, Strategy};
use rml_eval::RunError;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Fig9Run,
    GenOracle,
}

impl Kind {
    pub const ALL: [Kind; 2] = [Kind::Fig9Run, Kind::GenOracle];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Fig9Run => "fig9-run",
            Kind::GenOracle => "gen-oracle",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// How much work a workload does. [`Size::FULL`] is what the benchmark
/// measures; the self-test uses a tiny size.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Suite programs to use (`None`: all eighteen).
    pub programs: Option<&'static [&'static str]>,
    /// Generated programs per `gen-oracle` pass.
    pub gen_programs: u64,
}

impl Size {
    pub const FULL: Size = Size {
        programs: None,
        gen_programs: 400,
    };
}

const STRATEGIES: [(&str, Strategy); 3] = [
    ("rg", Strategy::Rg),
    ("rg-", Strategy::RgMinus),
    ("r", Strategy::R),
];
/// `fig9-run` cells per program: the three strategies, then the
/// regionless baseline machine (which runs the `rg` compilation).
const RUN_CELLS: usize = 4;
pub const EVAL_SPANS: [&str; RUN_CELLS] = [
    "eval.run.rg",
    "eval.run.rg-",
    "eval.run.r",
    "eval.run.baseline",
];
/// Step budget for the formal semantics on a generated program.
const FORMAL_FUEL: u64 = 3_000_000;

/// Counters of one pass. Every field is deterministic: two processes
/// with the same seed must agree exactly, and two passes of one process
/// on [`Counters::repeatable`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    pub compiles: u64,
    pub src_bytes: u64,
    pub find_ops: u64,
    pub unions: u64,
    pub closure_hits: u64,
    pub closure_recomputes: u64,
    pub intern_hits: u64,
    pub intern_misses: u64,
    pub ir_bytes: u64,
    pub finite_regions: u64,
    pub uniform_regions: u64,
    pub runs: u64,
    pub steps: u64,
    pub alloc_bytes: u64,
    pub regions_created: u64,
    pub peak_regions: u64,
    pub pages_allocated: u64,
    pub gc_count: u64,
    pub bytes_copied: u64,
    pub verify_walks: u64,
    pub forced_gcs: u64,
    /// Peak heap bytes of each run, sorted.
    pub peak_bytes: Vec<u64>,
    pub cells: u64,
    pub valued_cells: u64,
    pub dangling_cells: u64,
}

impl Counters {
    /// The counters that repeat between passes of one process. IR sizes
    /// do not: the IR encodes variable numbers, which are process-global
    /// and grow with every compilation.
    pub fn repeatable(&self) -> Counters {
        Counters {
            ir_bytes: 0,
            ..self.clone()
        }
    }

    fn add_compile(&mut self, c: &Compiled) {
        let s = &c.output.store_stats;
        self.compiles += 1;
        self.src_bytes += c.source.len() as u64;
        self.find_ops += s.find_ops;
        self.unions += s.unions;
        self.closure_hits += s.closure_cache_hits;
        self.closure_recomputes += s.closure_recomputes;
        self.intern_hits += s.intern_hits;
        self.intern_misses += s.intern_misses;
        self.ir_bytes += rml::emit_ir(c).len() as u64;
        self.finite_regions += c.repr.finite.len() as u64;
        self.uniform_regions += c.repr.uniform.len() as u64;
    }

    fn add_run(&mut self, out: &RunOutcome) {
        let h = &out.stats;
        self.runs += 1;
        self.steps += out.steps;
        self.alloc_bytes += h.bytes_allocated;
        self.regions_created += h.regions_created;
        self.peak_regions = self.peak_regions.max(h.peak_regions);
        self.pages_allocated += h.pages_allocated;
        self.gc_count += h.gc_count;
        self.bytes_copied += h.bytes_copied;
        self.verify_walks += h.verify_walks;
        self.forced_gcs += h.forced_gcs;
        self.peak_bytes.push(h.peak_bytes());
    }

    fn add_report(&mut self, rep: &Report) {
        for c in &rep.cells {
            self.runs += 1;
            self.cells += 1;
            self.steps += c.steps;
            self.gc_count += c.gc_count;
            self.verify_walks += c.verify_walks;
            self.forced_gcs += c.forced_gcs;
            match &c.outcome {
                Outcome::Value { .. } => self.valued_cells += 1,
                Outcome::Fault { dangling: true, .. } => self.dangling_cells += 1,
                Outcome::Fault { .. } => {}
            }
        }
    }
}

/// The result of one pass.
#[derive(Debug, Default)]
pub struct PassOut {
    /// Wall time of each op, indexed by op (not by the order they ran);
    /// `None` for an op a pass cut short at the deadline did not run.
    pub op_ms: Vec<Option<f64>>,
    /// The calibration loop's time just before each op, indexed like
    /// `op_ms`.
    pub cal_ms: Vec<Option<f64>>,
    /// The op indices in the order they ran.
    pub order: Vec<usize>,
    pub failures: Vec<String>,
    pub counters: Counters,
    /// Every collection pause of the pass's direct runs.
    pub pauses: Vec<Duration>,
}

impl PassOut {
    /// Ops the pass ran.
    pub fn ran(&self) -> usize {
        self.op_ms.iter().flatten().count()
    }

    /// Whether the pass ran every op.
    pub fn complete(&self) -> bool {
        self.ran() == self.op_ms.len()
    }
}

/// What the basis alone costs: ROADMAP item 3's baseline.
#[derive(Debug, Clone, Copy)]
pub struct BasisStats {
    pub compile: Duration,
    pub ir_bytes: u64,
    pub run_peak_bytes: u64,
}

struct GenProg {
    name: String,
    src: String,
    /// The `rg` compilation's value under `rml_core::semantics`, computed
    /// after the first pass that compiles it.
    formal: Option<i64>,
}

pub struct Bench {
    pub kind: Kind,
    seed: u64,
    suite: Vec<Program>,
    expected: Vec<i64>,
    /// `fig9-run`: per program, its `rg`, `rg-` and `r` compilations.
    compiled: Vec<Vec<Compiled>>,
    gens: Vec<GenProg>,
    /// Counters of the set-up compilations a pass runs.
    pub setup_counters: Counters,
    pub basis: BasisStats,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// SplitMix64: a seed-derived stream of independent 64-bit values.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded Fisher–Yates shuffle of `0..n`.
fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    let mut s = seed;
    for i in (1..n).rev() {
        s = mix(s);
        v.swap(i, (s % (i as u64 + 1)) as usize);
    }
    v
}

/// Compiles through the public pipeline, as one `compile` span whose
/// children are the phase times the call reports in `Compiled::timings`.
fn compile(tr: &mut Tracer, src: &str, s: Strategy, basis: bool) -> Result<Compiled, CompileError> {
    let r = tr.time("compile", || {
        if basis {
            rml::compile_with_basis(src, s)
        } else {
            rml::compile(src, s)
        }
    });
    if let Ok(c) = &r {
        let t = c.timings;
        let mut at = Duration::ZERO;
        for (name, d) in [
            ("syntax.parse", t.parse),
            ("hm.infer", t.types),
            ("infer.regions", t.regions),
            ("repr.analyze", t.repr),
        ] {
            tr.child_of_last(name, at, d);
            at += d;
        }
    }
    r
}

/// Runs through the public pipeline, as one `eval.run.<cell>` span whose
/// `runtime.gc` child is the sum of the pauses the run reports.
fn execute(
    tr: &mut Tracer,
    c: &Compiled,
    cell: usize,
    opts: &ExecOpts,
) -> Result<RunOutcome, RunError> {
    let r = tr.time(EVAL_SPANS[cell], || rml::execute(c, opts));
    if let Ok(out) = &r {
        let gc: Duration = out.pauses.iter().map(|p| p.duration).sum();
        if !gc.is_zero() {
            tr.child_of_last("runtime.gc", tr.last_dur().saturating_sub(gc), gc);
        }
    }
    r
}

fn run_value(r: &Result<RunOutcome, RunError>, want: i64) -> Result<&RunOutcome, String> {
    match r {
        Ok(out) if out.value == RunValue::Int(want) => Ok(out),
        Ok(out) => Err(format!("value {} (want {want})", out.value)),
        Err(e) => Err(format!("run failed: {e}")),
    }
}

impl Bench {
    /// Builds the workload's inputs. Compiles only through
    /// `rml::compile*`, and checks that the process compile counter moved
    /// by exactly the compilations intended.
    pub fn setup(kind: Kind, seed: u64, size: Size, tr: &mut Tracer) -> Result<Bench, String> {
        let before = rml::compile_count();
        let basis = basis_stats(tr)?;
        let suite: Vec<Program> = rml::programs::suite()
            .into_iter()
            .filter(|p| size.programs.is_none_or(|ns| ns.contains(&p.name)))
            .collect();
        let expected = suite
            .iter()
            .map(|p| reference::expected(p).ok_or(format!("{}: no reference value", p.name)))
            .collect::<Result<Vec<_>, _>>()?;
        let mut b = Bench {
            kind,
            seed,
            suite,
            expected,
            compiled: Vec::new(),
            gens: Vec::new(),
            setup_counters: Counters::default(),
            basis,
        };
        match kind {
            Kind::Fig9Run => {
                for p in &b.suite {
                    let mut cs = Vec::new();
                    for (label, s) in STRATEGIES {
                        let c = compile(tr, p.source, s, true)
                            .map_err(|e| format!("{} [{label}]: {e}", p.name))?;
                        tr.time("core.check", || rml::check(&c))
                            .map_err(|e| format!("{} [{label}]: check: {e}", p.name))?;
                        b.setup_counters.add_compile(&c);
                        cs.push(c);
                    }
                    b.compiled.push(cs);
                }
            }
            Kind::GenOracle => {
                let base = mix(seed);
                for i in 0..size.gen_programs {
                    let gseed = base.wrapping_add(i);
                    // Program sizes cycle as in `fuzzgen`.
                    let fuel = [20, 40, 60][(gseed % 3) as usize];
                    let opts = rml_gen::GenOpts { seed: gseed, fuel };
                    let src = tr.time("gen.generate", || rml_gen::generate_source(&opts));
                    b.gens.push(GenProg {
                        name: format!("gen-{gseed}"),
                        src,
                        formal: None,
                    });
                }
            }
        }
        let intended = 2 + match kind {
            Kind::Fig9Run => (b.suite.len() * STRATEGIES.len()) as u64,
            Kind::GenOracle => 0,
        };
        let done = rml::compile_count() - before;
        if done != intended {
            return Err(format!("set-up compiled {done} times, intended {intended}"));
        }
        Ok(b)
    }

    /// Sources of the generated programs.
    pub fn gen_sources(&self) -> Vec<&str> {
        self.gens.iter().map(|g| g.src.as_str()).collect()
    }

    pub fn ops(&self) -> usize {
        match self.kind {
            Kind::Fig9Run => self.suite.len() * RUN_CELLS,
            Kind::GenOracle => self.gens.len(),
        }
    }

    /// Compilations one op must perform.
    pub fn compiles_per_op(&self) -> u64 {
        match self.kind {
            Kind::GenOracle => 3,
            Kind::Fig9Run => 0,
        }
    }

    /// Runs every op once, in a seeded order, but starts no op after
    /// `until`. Only the op itself is timed; output checks and counter
    /// reads happen between ops, and a calibration sample before each op.
    pub fn pass(
        &mut self,
        pass_no: u32,
        until: Option<Instant>,
        cal: &mut Calib,
        tr: &mut Tracer,
    ) -> PassOut {
        let mut out = PassOut {
            order: shuffled(self.ops(), mix(self.seed ^ mix(u64::from(pass_no)))),
            op_ms: vec![None; self.ops()],
            cal_ms: vec![None; self.ops()],
            counters: self.setup_counters.clone(),
            ..PassOut::default()
        };
        let order = out.order.clone();
        for (pos, &k) in order.iter().enumerate() {
            if until.is_some_and(|u| Instant::now() >= u) {
                break;
            }
            let id = u64::from(pass_no) * 1_000_000 + pos as u64 + 1;
            out.cal_ms[k] = Some(cal.sample_ms());
            let t = Instant::now();
            tr.begin_op(id);
            let res = self.op(k, tr);
            tr.end_op();
            out.op_ms[k] = Some(ms(t.elapsed()));
            if let Err(e) = tr.time("bench.verify", || self.check(k, res, &mut out)) {
                out.failures.push(format!("{}: {e}", self.op_name(k)));
            }
        }
        out.counters.peak_bytes.sort_unstable();
        out
    }

    fn op_name(&self, k: usize) -> String {
        match self.kind {
            Kind::Fig9Run => format!(
                "{} [{}]",
                self.suite[k / RUN_CELLS].name,
                &EVAL_SPANS[k % RUN_CELLS]["eval.run.".len()..]
            ),
            Kind::GenOracle => self.gens[k].name.clone(),
        }
    }

    /// The timed part of op `k`: only calls into the program.
    fn op(&self, k: usize, tr: &mut Tracer) -> OpResult {
        match self.kind {
            Kind::Fig9Run => {
                let cell = k % RUN_CELLS;
                let cs = &self.compiled[k / RUN_CELLS];
                let opts = ExecOpts {
                    baseline: cell == 3,
                    ..ExecOpts::default()
                };
                OpResult::Ran(execute(tr, &cs[cell % 3], cell, &opts))
            }
            Kind::GenOracle => OpResult::Verdict(verdict(tr, &self.gens[k], self.seed)),
        }
    }

    /// Checks op `k`'s output and adds its counters to `out`.
    fn check(&mut self, k: usize, res: OpResult, out: &mut PassOut) -> Result<(), String> {
        match res {
            OpResult::Ran(r) => {
                let run = run_value(&r, self.expected[k / RUN_CELLS])?;
                out.counters.add_run(run);
                out.pauses.extend(run.pauses.iter().map(|p| p.duration));
            }
            OpResult::Verdict(r) => {
                let v = r.map_err(|e| format!("compile failed: {e}"))?;
                for c in [&v.rg, &v.rgm, &v.r] {
                    out.counters.add_compile(c);
                }
                out.counters.add_report(&v.report);
                v.check_full
                    .map_err(|d| format!("check_full rejected rg: {d}"))?;
                if !v.report.ok() {
                    return Err(format!("oracle diverged:\n{}", v.report.render()));
                }
                if let Some(c) = v.report.cells.iter().find(|c| {
                    matches!(&c.outcome, Outcome::Fault { message, .. } if message.contains("out of fuel"))
                }) {
                    return Err(format!("{} × {} ran out of fuel", c.strategy, c.schedule));
                }
                let g = &mut self.gens[k];
                let formal = match g.formal {
                    Some(f) => f,
                    None => {
                        let f = formal_value(&v.rg)?;
                        g.formal = Some(f);
                        f
                    }
                };
                match &v.report.cells[0].outcome {
                    Outcome::Value { value, .. } if *value == formal.to_string() => {}
                    o => return Err(format!("rg gave {o:?}, the formal semantics {formal}")),
                }
            }
        }
        Ok(())
    }
}

// One value per op, moved once into the output check: its size is of
// no consequence.
#[allow(clippy::large_enum_variant)]
enum OpResult {
    Ran(Result<RunOutcome, RunError>),
    Verdict(Result<Verdict, CompileError>),
}

struct Verdict {
    rg: Compiled,
    rgm: Compiled,
    r: Compiled,
    check_full: Result<(), rml::Diagnostic>,
    report: Report,
}

/// One `gen-oracle` op: compile without the basis under every strategy,
/// the full GC-safety check, and the torture matrix with fault probes.
fn verdict(tr: &mut Tracer, g: &GenProg, seed: u64) -> Result<Verdict, CompileError> {
    let rg = compile(tr, &g.src, Strategy::Rg, false)?;
    let rgm = compile(tr, &g.src, Strategy::RgMinus, false)?;
    let r = compile(tr, &g.src, Strategy::R, false)?;
    let check_full = tr.time("core.check", || rml::check_full(&rg));
    let opts = TortureOpts {
        seed,
        with_basis: false,
        faults: true,
        ..TortureOpts::default()
    };
    let report = tr.time("torture.matrix", || {
        rml::torture::torture_compiled(&g.name, &rg, &rgm, &r, &opts)
    });
    Ok(Verdict {
        rg,
        rgm,
        r,
        check_full,
        report,
    })
}

/// `main ()` of an `rg` compilation under the formal small-step semantics.
fn formal_value(c: &Compiled) -> Result<i64, String> {
    let mut m = rml_core::semantics::Machine::new([c.output.global]);
    match m.eval(c.output.term.clone(), FORMAL_FUEL) {
        Ok(rml_core::Value::Int(n)) => Ok(n),
        Ok(v) => Err(format!("formal semantics gave a non-integer {v:?}")),
        Err(e) => Err(format!("formal semantics failed: {e}")),
    }
}

/// Compiles the basis alone, and runs `fun main () = 0` with it.
fn basis_stats(tr: &mut Tracer) -> Result<BasisStats, String> {
    let b =
        compile(tr, rml::basis::BASIS, Strategy::Rg, false).map_err(|e| format!("basis: {e}"))?;
    let m =
        compile(tr, "fun main () = 0", Strategy::Rg, true).map_err(|e| format!("basis: {e}"))?;
    let out = execute(tr, &m, 0, &ExecOpts::default());
    let out = run_value(&out, 0).map_err(|e| format!("basis run: {e}"))?;
    Ok(BasisStats {
        compile: b.timings.total,
        ir_bytes: rml::emit_ir(&b).len() as u64,
        run_peak_bytes: out.stats.peak_bytes(),
    })
}
