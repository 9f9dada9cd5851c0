//! The machine proper.

use crate::code::{CodeEntry, CodeId, CodeTable};
use crate::decode::RunValue;
use rml_core::terms::Term;
use rml_core::vars::RegVar;
use rml_runtime::{GcError, GcPause, Heap, ObjKind, RegionId, RegionKind, UniformKind, Word};
use rml_session::trace;
use rml_syntax::ast::PrimOp;
use rml_syntax::Symbol;
use std::cell::Cell;
use std::collections::HashSet;
use std::rc::Rc;

/// A linked environment node (values live in `Cell`s so the collector can
/// update them in place).
struct EnvNode {
    name: Symbol,
    val: Cell<u64>,
    next: Env,
}

type Env = Option<Rc<EnvNode>>;

fn env_bind(env: &Env, name: Symbol, val: Word) -> Env {
    Some(Rc::new(EnvNode {
        name,
        val: Cell::new(val.0),
        next: env.clone(),
    }))
}

fn env_lookup(env: &Env, name: Symbol) -> Option<Word> {
    let mut cur = env;
    while let Some(n) = cur {
        if n.name == name {
            return Some(Word(n.val.get()));
        }
        cur = &n.next;
    }
    None
}

/// Region environment (no collector interaction).
struct REnvNode {
    var: RegVar,
    region: RegionId,
    next: REnv,
}

type REnv = Option<Rc<REnvNode>>;

fn renv_bind(renv: &REnv, var: RegVar, region: RegionId) -> REnv {
    Some(Rc::new(REnvNode {
        var,
        region,
        next: renv.clone(),
    }))
}

fn renv_lookup(renv: &REnv, var: RegVar) -> Option<RegionId> {
    let mut cur = renv;
    while let Some(n) = cur {
        if n.var == var {
            return Some(n.region);
        }
        cur = &n.next;
    }
    None
}

/// A deterministic adversarial collection schedule (the torture rig).
///
/// All scheduling decisions derive from the machine step counter and a
/// [`Xorshift64`] stream seeded from `seed` — never from ambient
/// randomness — so the same seed always produces the same schedule and
/// therefore the same run outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StressSchedule {
    /// Force a collection every `period` machine steps (0 disables the
    /// step trigger; 1 collects at *every* step).
    pub period: u64,
    /// Seed for the minor/major interleaving stream.
    pub seed: u64,
    /// Interleave minor (young-generation) and major collections,
    /// chosen by the seeded PRNG.
    pub generational: bool,
}

/// Collection policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GcPolicy {
    /// No tracing collection (strategy `r`).
    Off,
    /// Collect when allocation since the last collection exceeds
    /// `max(min_bytes, ratio × live)`.
    On {
        /// Minimum allocation between collections.
        min_bytes: u64,
        /// Heap-growth ratio.
        ratio: f64,
        /// Use the generational (minor/major) scheme.
        generational: bool,
    },
    /// Adversarial deterministic schedule (collect far more often than
    /// any heuristic would, to surface latent dangling pointers at the
    /// earliest step that makes them reachable).
    Stress(StressSchedule),
}

impl GcPolicy {
    /// The default tracing policy.
    pub fn default_on() -> GcPolicy {
        GcPolicy::On {
            min_bytes: 64 * 1024,
            ratio: 1.5,
            generational: false,
        }
    }

    /// Collect every `period` steps (deterministic; no PRNG involvement
    /// unless combined with [`StressSchedule::generational`]).
    pub fn stress_every(period: u64, seed: u64) -> GcPolicy {
        GcPolicy::Stress(StressSchedule {
            period,
            seed,
            generational: false,
        })
    }

    /// Collect at every machine step — the most adversarial schedule.
    pub fn stress_every_step(seed: u64) -> GcPolicy {
        GcPolicy::stress_every(1, seed)
    }

    /// Like [`GcPolicy::stress_every`], but randomly (seeded) interleaves
    /// minor and major collections.
    pub fn stress_generational(period: u64, seed: u64) -> GcPolicy {
        GcPolicy::Stress(StressSchedule {
            period,
            seed,
            generational: true,
        })
    }

    /// Does the policy run the heap in generational mode?
    pub fn generational(&self) -> bool {
        match self {
            GcPolicy::Off => false,
            GcPolicy::On { generational, .. } => *generational,
            GcPolicy::Stress(s) => s.generational,
        }
    }
}

/// When the heap-invariant verifier walks the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VerifyLevel {
    /// Never (production runs).
    #[default]
    Off,
    /// After every successful collection.
    AfterGc,
    /// After every machine step (torture runs; very slow).
    EveryStep,
}

/// Run options.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// The global region variable (from `rml_infer::Output::global`).
    pub global: RegVar,
    /// Collection policy.
    pub gc: GcPolicy,
    /// Region variables whose regions the multiplicity analysis proved
    /// finite (never collected; from `rml-repr`).
    pub finite: HashSet<RegVar>,
    /// Region variables whose regions are kind-homogeneous and eligible
    /// for the untagged (header-less) representation (from `rml-repr`).
    pub uniform: std::collections::HashMap<RegVar, UniformKind>,
    /// Ignore all regions and run on one collected heap (the conventional
    /// tracing-GC baseline, standing in for MLton).
    pub baseline: bool,
    /// Step limit.
    pub fuel: u64,
    /// Fault injection: fail with [`RunError::OutOfMemory`] once this many
    /// objects have been allocated.
    pub alloc_budget: Option<u64>,
    /// Fault injection: fail with [`RunError::DepthLimit`] when the
    /// continuation stack exceeds this many frames.
    pub depth_limit: Option<usize>,
    /// Heap-invariant verification cadence.
    pub verify: VerifyLevel,
    /// Static multiplicity bounds for finite region variables (from
    /// `rml-repr`); enforced by the heap verifier.
    pub finite_bounds: std::collections::HashMap<RegVar, u64>,
}

impl RunOpts {
    /// Default options with GC on.
    pub fn new(global: RegVar) -> RunOpts {
        RunOpts {
            global,
            gc: GcPolicy::default_on(),
            finite: HashSet::new(),
            uniform: Default::default(),
            baseline: false,
            fuel: u64::MAX,
            alloc_budget: None,
            depth_limit: None,
            verify: VerifyLevel::Off,
            finite_bounds: Default::default(),
        }
    }

    /// Baseline (regionless) options.
    pub fn baseline(global: RegVar) -> RunOpts {
        RunOpts {
            baseline: true,
            ..RunOpts::new(global)
        }
    }
}

/// A run error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// Dangling pointer — dereferenced by the program or traced by the
    /// collector. The paper's unsoundness made concrete.
    Dangling(String),
    /// Uncaught exception.
    Uncaught(String),
    /// Step limit exhausted.
    OutOfFuel,
    /// Division by zero.
    DivByZero,
    /// Injected allocation budget exhausted (torture rig).
    OutOfMemory {
        /// Objects allocated when the budget tripped.
        allocs: u64,
    },
    /// Injected continuation-depth limit exceeded (torture rig).
    DepthLimit {
        /// Continuation frames when the limit tripped.
        depth: usize,
    },
    /// Heap invariant violated or heap corrupted — a runtime bug, located
    /// by the verifier or the collector.
    Invariant(String),
    /// Ill-formed program reached the machine (upstream bug).
    Stuck(String),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Dangling(m) => write!(f, "dangling pointer: {m}"),
            RunError::Uncaught(n) => write!(f, "uncaught exception {n}"),
            RunError::OutOfFuel => write!(f, "out of fuel"),
            RunError::DivByZero => write!(f, "division by zero"),
            RunError::OutOfMemory { allocs } => {
                write!(
                    f,
                    "out of memory: allocation budget exhausted after {allocs} objects"
                )
            }
            RunError::DepthLimit { depth } => {
                write!(f, "continuation depth limit exceeded at {depth} frames")
            }
            RunError::Invariant(m) => write!(f, "heap invariant violated: {m}"),
            RunError::Stuck(m) => write!(f, "stuck: {m}"),
        }
    }
}

impl std::error::Error for RunError {}

impl RunError {
    /// Converts the error into a structured `E0005` (runtime fault)
    /// diagnostic, so runtime failures render through the same path as
    /// compile-time errors.
    pub fn to_diagnostic(&self) -> rml_session::Diagnostic {
        let d = rml_session::Diagnostic::error("E0005", format!("runtime fault: {self}"));
        match self {
            RunError::Dangling(_) => d.with_note(
                "a dangling region pointer was dereferenced or traced; under \
                 strategy `rg` this would be a soundness bug — under `rg-` or \
                 `r` it is the unsoundness the paper's type system rules out",
            ),
            RunError::OutOfMemory { .. } => d.with_note(
                "injected allocation budget (torture rig); the machine unwound \
                 cleanly and can be re-run from a fresh heap",
            ),
            RunError::DepthLimit { .. } => d.with_note(
                "injected continuation-depth limit (torture rig); the machine \
                 unwound cleanly and can be re-run from a fresh heap",
            ),
            RunError::Invariant(_) => {
                d.with_note("this indicates a bug in the runtime, not in the program")
            }
            RunError::OutOfFuel => d.with_note("step budget exhausted (set by --fuel)"),
            _ => d,
        }
    }
}

/// The result of a run.
#[derive(Debug)]
pub struct RunOutcome {
    /// The program's value, decoded.
    pub value: RunValue,
    /// Accumulated `print` output.
    pub output: String,
    /// Machine steps taken.
    pub steps: u64,
    /// Heap statistics (allocation, collections, peak RSS).
    pub stats: rml_runtime::HeapStats,
    /// Per-collection pause records, in collection order.
    pub pauses: Vec<GcPause>,
}

enum Frame<'a> {
    AppArg {
        arg: &'a Term,
        env: Env,
        renv: REnv,
        /// For the fused `(f [S]) arg` form: the instantiation, resolved
        /// against the *caller's* region environment at call time, so no
        /// specialised closure is allocated per call.
        inst: Option<&'a rml_core::Subst>,
    },
    AppCall {
        clos: Cell<u64>,
        inst: Option<&'a rml_core::Subst>,
        renv: REnv,
    },
    RApp {
        inst: &'a rml_core::Subst,
        at: RegVar,
        renv: REnv,
    },
    LetBody {
        x: Symbol,
        body: &'a Term,
        env: Env,
        renv: REnv,
    },
    PairSnd {
        snd: &'a Term,
        env: Env,
        renv: REnv,
        at: RegVar,
    },
    PairMk {
        fst: Cell<u64>,
        at: RegVar,
        renv: REnv,
    },
    Sel(u8),
    IfBranch {
        t: &'a Term,
        f: &'a Term,
        env: Env,
        renv: REnv,
    },
    Prim {
        op: PrimOp,
        at: Option<RegVar>,
        renv: REnv,
        env: Env,
        done: Vec<Cell<u64>>,
        rest: Vec<&'a Term>, // reversed: next arg = rest.pop()
    },
    ConsTail {
        tail: &'a Term,
        env: Env,
        renv: REnv,
        at: RegVar,
    },
    ConsMk {
        head: Cell<u64>,
        at: RegVar,
        renv: REnv,
    },
    Case {
        nil_rhs: &'a Term,
        head: Symbol,
        tail: Symbol,
        cons_rhs: &'a Term,
        env: Env,
        renv: REnv,
    },
    RefMk {
        at: RegVar,
        renv: REnv,
    },
    Deref,
    AssignRhs {
        rhs: &'a Term,
        env: Env,
        renv: REnv,
    },
    AssignDo {
        target: Cell<u64>,
    },
    PopRegions {
        regions: Vec<RegionId>,
    },
    ExnMk {
        name: Symbol,
        at: RegVar,
        renv: REnv,
    },
    RaiseDo,
    Handle {
        exn: Symbol,
        arg: Symbol,
        handler: &'a Term,
        env: Env,
        renv: REnv,
    },
}

enum Ctrl<'a> {
    Eval(&'a Term, Env, REnv),
    Ret(Cell<u64>),
}

struct Machine<'a> {
    heap: Heap,
    code: CodeTable<'a>,
    kont: Vec<Frame<'a>>,
    output: String,
    steps: u64,
    opts: RunOpts,
    global_region: RegionId,
    gc_pending: bool,
    collections_since_major: u32,
    /// Seeded PRNG driving minor/major interleaving under stress
    /// schedules; the only source of "randomness" in the machine.
    rng: rml_runtime::Xorshift64,
}

type MResult<T> = Result<T, RunError>;

/// Runs a region-annotated program.
///
/// # Errors
///
/// See [`RunError`]; in particular [`RunError::Dangling`] reports a
/// dangling pointer met by the mutator or the collector.
pub fn run(term: &Term, opts: &RunOpts) -> Result<RunOutcome, RunError> {
    let code = CodeTable::build(term);
    let mut heap = Heap::new();
    heap.generational = opts.gc.generational();
    let global_region = heap.create_region(RegionKind::Infinite);
    let seed = match opts.gc {
        GcPolicy::Stress(s) => s.seed,
        _ => 0,
    };
    let mut m = Machine {
        heap,
        code,
        kont: Vec::new(),
        output: String::new(),
        steps: 0,
        opts: opts.clone(),
        global_region,
        gc_pending: false,
        collections_since_major: 0,
        rng: rml_runtime::Xorshift64::new(seed),
    };
    let mut renv = renv_bind(&None, opts.global, global_region);
    // Residual free region variables of the program (e.g. regions of the
    // final result value) live for the whole run, like the global region.
    let mut free = std::collections::BTreeSet::new();
    crate::code::free_rvars(term, &mut vec![opts.global], &mut free);
    for rv in free {
        let r = m.heap.create_region(RegionKind::Infinite);
        renv = renv_bind(&renv, rv, r);
    }
    let run_span = trace::span("machine.run", "eval");
    let value = m.run_loop(term, renv)?;
    drop(run_span);
    let value = crate::decode::decode(&m.heap, value);
    Ok(RunOutcome {
        value,
        output: m.output,
        steps: m.steps,
        stats: m.heap.stats,
        pauses: std::mem::take(&mut m.heap.pauses),
    })
}

impl<'a> Machine<'a> {
    fn region(&self, renv: &REnv, rv: RegVar) -> MResult<RegionId> {
        if self.opts.baseline {
            return Ok(self.global_region);
        }
        renv_lookup(renv, rv)
            .ok_or_else(|| RunError::Stuck(format!("unbound region variable {rv}")))
    }

    fn dangling<T>(&self, e: rml_runtime::heap::DanglingAccess) -> MResult<T> {
        // The step stamp makes the determinism contract checkable: the
        // same seed must reproduce the same failure at the same step.
        Err(RunError::Dangling(format!("{e} at step {}", self.steps)))
    }

    fn field(&self, w: Word, i: usize, ctx: &'static str) -> MResult<Word> {
        self.heap.field(w, i, ctx).or_else(|e| self.dangling(e))
    }

    fn run_loop(&mut self, term: &'a Term, renv: REnv) -> MResult<Word> {
        let mut ctrl = Ctrl::Eval(term, None, renv);
        loop {
            self.steps += 1;
            if self.steps > self.opts.fuel {
                return Err(RunError::OutOfFuel);
            }
            // Step-batch samples: one counter event per 4096 steps keeps
            // trace volume proportional to work without per-step cost.
            if self.steps & 0xFFF == 0 && trace::enabled() {
                trace::counter("machine.steps", self.steps as f64);
            }
            self.check_faults()?;
            self.maybe_collect(&ctrl)?;
            ctrl = match ctrl {
                Ctrl::Eval(e, env, renv) => self.eval(e, env, renv)?,
                Ctrl::Ret(w) => match self.kont.pop() {
                    None => return Ok(Word(w.get())),
                    Some(frame) => self.apply(frame, Word(w.get()))?,
                },
            };
        }
    }

    /// Injected faults: the allocation budget and the continuation-depth
    /// limit. Both unwind into structured errors (counted in the heap
    /// stats) rather than panicking, and leave the machine state
    /// consistent — a fresh `run` on the same program behaves as if the
    /// faulted run never happened.
    fn check_faults(&mut self) -> MResult<()> {
        if let Some(budget) = self.opts.alloc_budget {
            let allocs = self.heap.stats.objects_allocated;
            if allocs >= budget {
                self.heap.stats.faults_injected += 1;
                return Err(RunError::OutOfMemory { allocs });
            }
        }
        if let Some(limit) = self.opts.depth_limit {
            let depth = self.kont.len();
            if depth > limit {
                self.heap.stats.faults_injected += 1;
                return Err(RunError::DepthLimit { depth });
            }
        }
        Ok(())
    }

    /// Decides whether (and how) to collect this step. Returns
    /// `(minor, forced)` when a collection is due; `forced` marks
    /// collections demanded by a stress schedule or `forcegc` rather than
    /// the allocation heuristic.
    fn gc_decision(&mut self) -> Option<(bool, bool)> {
        match self.opts.gc {
            GcPolicy::Off => None,
            GcPolicy::On {
                min_bytes,
                ratio,
                generational,
            } => {
                let forced = self.gc_pending;
                if !forced && !self.heap.should_collect(min_bytes, ratio) {
                    return None;
                }
                let minor = generational && self.collections_since_major < 4;
                if minor {
                    self.collections_since_major += 1;
                } else {
                    self.collections_since_major = 0;
                }
                Some((minor, forced))
            }
            GcPolicy::Stress(s) => {
                let step_trigger = s.period > 0 && self.steps.is_multiple_of(s.period);
                if !self.gc_pending && !step_trigger {
                    return None;
                }
                // Minor three steps out of four, decided by the seeded
                // stream — deterministic for a given seed.
                let minor = s.generational && self.rng.chance(3, 4);
                Some((minor, true))
            }
        }
    }

    /// Gathers the machine's root set: the control value, frame cells,
    /// and environment chains. The returned cells stay valid while `ctrl`
    /// and `self.kont` are untouched.
    fn gather_roots(&self, ctrl: &Ctrl<'a>) -> Vec<*const Cell<u64>> {
        let mut cells: Vec<*const Cell<u64>> = Vec::new();
        let mut visited: HashSet<*const EnvNode> = HashSet::new();
        let mut envs: Vec<&Env> = Vec::new();
        if let Ctrl::Ret(w) = ctrl {
            cells.push(w as *const Cell<u64>);
        }
        if let Ctrl::Eval(_, env, _) = ctrl {
            envs.push(env);
        }
        for f in &self.kont {
            match f {
                Frame::AppArg { env, .. }
                | Frame::LetBody { env, .. }
                | Frame::PairSnd { env, .. }
                | Frame::IfBranch { env, .. }
                | Frame::ConsTail { env, .. }
                | Frame::Case { env, .. }
                | Frame::AssignRhs { env, .. }
                | Frame::Handle { env, .. } => envs.push(env),
                Frame::AppCall { clos, .. } => cells.push(clos as *const _),
                Frame::PairMk { fst, .. } => cells.push(fst as *const _),
                Frame::ConsMk { head, .. } => cells.push(head as *const _),
                Frame::AssignDo { target } => cells.push(target as *const _),
                Frame::Prim { done, env, .. } => {
                    envs.push(env);
                    for c in done {
                        cells.push(c as *const _);
                    }
                }
                _ => {}
            }
        }
        for env in envs {
            let mut cur = env;
            while let Some(n) = cur {
                if visited.insert(Rc::as_ptr(n)) {
                    cells.push(&n.val as *const _);
                    cur = &n.next;
                } else {
                    break;
                }
            }
        }
        cells
    }

    fn maybe_collect(&mut self, ctrl: &Ctrl<'a>) -> MResult<()> {
        let decision = self.gc_decision();
        let verify_now = match self.opts.verify {
            VerifyLevel::Off => false,
            VerifyLevel::AfterGc => decision.is_some(),
            VerifyLevel::EveryStep => true,
        };
        if decision.is_none() && !verify_now {
            return Ok(());
        }
        let cells = self.gather_roots(ctrl);
        // Two-phase: read all roots, collect, write back.
        let mut roots: Vec<Word> = cells.iter().map(|c| Word(unsafe { &**c }.get())).collect();
        if let Some((minor, forced)) = decision {
            self.gc_pending = false;
            if forced {
                self.heap.stats.forced_gcs += 1;
            }
            match self.heap.collect(&mut roots, minor) {
                Ok(()) => {}
                Err(GcError::DanglingPointer { context }) => {
                    return Err(RunError::Dangling(format!(
                        "garbage collector traced a pointer into a deallocated \
                         region ({context}) at step {}",
                        self.steps
                    )))
                }
                Err(e @ GcError::Corrupt { .. }) => return Err(RunError::Invariant(e.to_string())),
            }
            for (c, w) in cells.iter().zip(&roots) {
                unsafe { &**c }.set(w.0);
            }
        }
        if verify_now {
            match self.heap.verify(&roots) {
                Ok(_) => {}
                // A dangling reachable pointer found by the verifier is
                // the same GC-safety failure a collector trace would hit;
                // report it as such (the torture oracle relies on this).
                Err(e) if e.is_dangling() => {
                    return Err(RunError::Dangling(format!(
                        "{e} (heap verifier, step {})",
                        self.steps
                    )))
                }
                Err(e) => return Err(RunError::Invariant(e.to_string())),
            }
        }
        Ok(())
    }

    fn eval(&mut self, e: &'a Term, env: Env, renv: REnv) -> MResult<Ctrl<'a>> {
        let ret = |w: Word| Ok(Ctrl::Ret(Cell::new(w.0)));
        match e {
            Term::Unit => ret(Word::UNIT),
            Term::Int(n) => ret(Word::int(*n)),
            Term::Bool(b) => ret(Word::bool(*b)),
            Term::Nil(_) => ret(Word::NIL),
            Term::Var(x) => match env_lookup(&env, *x) {
                Some(w) => ret(w),
                None => Err(RunError::Stuck(format!("unbound variable `{x}`"))),
            },
            Term::Val(_) => Err(RunError::Stuck(
                "embedded values only occur in the formal semantics".into(),
            )),
            Term::Str(s, at) => {
                let r = self.region(&renv, *at)?;
                ret(self.heap.alloc_str(r, s))
            }
            Term::Lam { at, .. } => {
                let id = self.code.lam_ids[&(e as *const Term as usize)];
                let w = self.make_closure(id, &env, &renv, *at, None)?;
                ret(w)
            }
            Term::Fix { defs, ats, index } => {
                let key = Rc::as_ptr(defs) as usize;
                let members = self.code.fix_ids[&key].clone();
                // Allocate the whole group, then patch sibling slots.
                let mut words = Vec::new();
                for (i, id) in members.iter().enumerate() {
                    let w = self.make_closure(*id, &env, &renv, ats[i], Some(members.len()))?;
                    words.push(w);
                }
                for (i, w) in words.iter().enumerate() {
                    let raw = self.raw_len(members[i]);
                    for (j, sw) in words.iter().enumerate() {
                        self.heap
                            .set_field(*w, raw + j, *sw, "fix patch")
                            .or_else(|e| self.dangling(e))?;
                    }
                }
                ret(words[*index])
            }
            Term::App(f, a) => {
                // Fuse `(f [S]) arg`: pass the region instantiation at the
                // call instead of allocating a specialised closure (the
                // MLKit passes region arguments in registers).
                if let Term::RApp { f: inner, inst, .. } = f.as_ref() {
                    self.kont.push(Frame::AppArg {
                        arg: a,
                        env: env.clone(),
                        renv: renv.clone(),
                        inst: Some(inst),
                    });
                    return Ok(Ctrl::Eval(inner, env, renv));
                }
                self.kont.push(Frame::AppArg {
                    arg: a,
                    env: env.clone(),
                    renv: renv.clone(),
                    inst: None,
                });
                Ok(Ctrl::Eval(f, env, renv))
            }
            Term::RApp { f, inst, at } => {
                self.kont.push(Frame::RApp {
                    inst,
                    at: *at,
                    renv: renv.clone(),
                });
                Ok(Ctrl::Eval(f, env, renv))
            }
            Term::Let { x, rhs, body } => {
                self.kont.push(Frame::LetBody {
                    x: *x,
                    body,
                    env: env.clone(),
                    renv: renv.clone(),
                });
                Ok(Ctrl::Eval(rhs, env, renv))
            }
            Term::Letregion { rvars, body, .. } => {
                if self.opts.baseline {
                    return Ok(Ctrl::Eval(body, env, renv));
                }
                let mut renv2 = renv;
                let mut regions = Vec::new();
                for rv in rvars {
                    let kind = if self.opts.finite.contains(rv) {
                        RegionKind::Finite
                    } else {
                        RegionKind::Infinite
                    };
                    let uniform = self.opts.uniform.get(rv).copied();
                    let r = self.heap.create_region_uniform(kind, uniform);
                    if let Some(b) = self.opts.finite_bounds.get(rv) {
                        self.heap.set_region_bound(r, *b);
                    }
                    regions.push(r);
                    renv2 = renv_bind(&renv2, *rv, r);
                }
                if trace::enabled() {
                    trace::instant(
                        "letregion.enter",
                        "eval",
                        &[("regions", regions.len() as f64)],
                    );
                }
                self.kont.push(Frame::PopRegions { regions });
                Ok(Ctrl::Eval(body, env, renv2))
            }
            Term::Pair(a, b, at) => {
                self.kont.push(Frame::PairSnd {
                    snd: b,
                    env: env.clone(),
                    renv: renv.clone(),
                    at: *at,
                });
                Ok(Ctrl::Eval(a, env, renv))
            }
            Term::Sel(i, a) => {
                self.kont.push(Frame::Sel(*i));
                Ok(Ctrl::Eval(a, env, renv))
            }
            Term::If(c, t, f) => {
                self.kont.push(Frame::IfBranch {
                    t,
                    f,
                    env: env.clone(),
                    renv: renv.clone(),
                });
                Ok(Ctrl::Eval(c, env, renv))
            }
            Term::Prim(op, args, at) => {
                let mut rest: Vec<&'a Term> = args.iter().collect();
                rest.reverse();
                match rest.pop() {
                    None => {
                        let w = self.apply_prim(*op, &[], *at, &renv)?;
                        ret(w)
                    }
                    Some(first) => {
                        self.kont.push(Frame::Prim {
                            op: *op,
                            at: *at,
                            renv: renv.clone(),
                            env: env.clone(),
                            done: Vec::new(),
                            rest,
                        });
                        Ok(Ctrl::Eval(first, env, renv))
                    }
                }
            }
            Term::Cons(h, t, at) => {
                self.kont.push(Frame::ConsTail {
                    tail: t,
                    env: env.clone(),
                    renv: renv.clone(),
                    at: *at,
                });
                Ok(Ctrl::Eval(h, env, renv))
            }
            Term::CaseList {
                scrut,
                nil_rhs,
                head,
                tail,
                cons_rhs,
            } => {
                self.kont.push(Frame::Case {
                    nil_rhs,
                    head: *head,
                    tail: *tail,
                    cons_rhs,
                    env: env.clone(),
                    renv: renv.clone(),
                });
                Ok(Ctrl::Eval(scrut, env, renv))
            }
            Term::RefNew(a, at) => {
                self.kont.push(Frame::RefMk {
                    at: *at,
                    renv: renv.clone(),
                });
                Ok(Ctrl::Eval(a, env, renv))
            }
            Term::Deref(a) => {
                self.kont.push(Frame::Deref);
                Ok(Ctrl::Eval(a, env, renv))
            }
            Term::Assign(r, v) => {
                self.kont.push(Frame::AssignRhs {
                    rhs: v,
                    env: env.clone(),
                    renv: renv.clone(),
                });
                Ok(Ctrl::Eval(r, env, renv))
            }
            Term::Exn { name, arg, at } => match arg {
                None => {
                    let r = self.region(&renv, *at)?;
                    let w = self
                        .heap
                        .alloc(r, ObjKind::Exn, 2, &[name.index() as u64, 0]);
                    ret(w)
                }
                Some(a) => {
                    self.kont.push(Frame::ExnMk {
                        name: *name,
                        at: *at,
                        renv: renv.clone(),
                    });
                    Ok(Ctrl::Eval(a, env, renv))
                }
            },
            Term::Raise(a, _) => {
                self.kont.push(Frame::RaiseDo);
                Ok(Ctrl::Eval(a, env, renv))
            }
            Term::Handle {
                body,
                exn,
                arg,
                handler,
            } => {
                self.kont.push(Frame::Handle {
                    exn: *exn,
                    arg: *arg,
                    handler,
                    env: env.clone(),
                    renv: renv.clone(),
                });
                Ok(Ctrl::Eval(body, env, renv))
            }
        }
    }

    /// Number of raw payload words of a closure for `id` (code id, region
    /// slots).
    fn raw_len(&self, id: CodeId) -> usize {
        let e = &self.code.entries[id];
        1 + e.rparams.len() + e.frvs.len()
    }

    /// Allocates a closure for code `id` at region variable `at`:
    /// `[code_id][rparam slots (sentinel)][frv slots][siblings…][captures…]`.
    fn make_closure(
        &mut self,
        id: CodeId,
        env: &Env,
        renv: &REnv,
        at: RegVar,
        group_size: Option<usize>,
    ) -> MResult<Word> {
        let entry = &self.code.entries[id];
        let mut payload: Vec<u64> =
            Vec::with_capacity(1 + entry.rparams.len() + entry.frvs.len() + entry.fvs.len());
        payload.push(id as u64);
        for _ in &entry.rparams {
            payload.push(u64::MAX); // filled at region application
        }
        let frvs = entry.frvs.clone();
        let fvs = entry.fvs.clone();
        let raw = (1 + entry.rparams.len() + entry.frvs.len()) as u16;
        for rv in &frvs {
            let r = self.region(renv, *rv)?;
            payload.push(r.0 as u64);
        }
        for _ in 0..group_size.unwrap_or(0) {
            payload.push(Word::UNIT.0); // sibling slots, patched after
        }
        for v in &fvs {
            let w = env_lookup(env, *v)
                .ok_or_else(|| RunError::Stuck(format!("unbound capture `{v}`")))?;
            payload.push(w.0);
        }
        let r = self.region(renv, at)?;
        Ok(self.heap.alloc(r, ObjKind::Closure, raw, &payload))
    }

    /// Enters a closure with an argument. When `inst` is given (the fused
    /// `(f [S]) arg` form), the closure's region parameters are resolved
    /// from the instantiation against `caller_renv` instead of from the
    /// closure's slots.
    fn call(
        &mut self,
        clos: Word,
        arg: Word,
        inst: Option<&'a rml_core::Subst>,
        caller_renv: &REnv,
    ) -> MResult<Ctrl<'a>> {
        let id = self.field(clos, 0, "call")?.0 as usize;
        let entry: &CodeEntry<'a> = self
            .code
            .entries
            .get(id)
            .ok_or_else(|| RunError::Stuck("bad code id".into()))?;
        let body = entry.body;
        let param = entry.param;
        let rparams = entry.rparams.clone();
        let frvs = entry.frvs.clone();
        let fvs = entry.fvs.clone();
        let group = entry.group.clone();
        let raw = 1 + rparams.len() + frvs.len();
        // Region bindings.
        let mut renv: REnv = renv_bind(&None, self.opts.global, self.global_region);
        for (i, rv) in rparams.iter().enumerate() {
            let region = match inst {
                Some(s) => {
                    let target = s.reg.get(rv).copied().unwrap_or(*rv);
                    self.region(caller_renv, target)?
                }
                None => {
                    let raw_word = self.field_raw(clos, 1 + i)?;
                    if raw_word == u64::MAX {
                        return Err(RunError::Stuck(format!(
                            "closure applied without region instantiation ({rv})"
                        )));
                    }
                    RegionId(raw_word as u32)
                }
            };
            renv = renv_bind(&renv, *rv, region);
        }
        for (i, rv) in frvs.iter().enumerate() {
            let raw_word = self.field_raw(clos, 1 + rparams.len() + i)?;
            renv = renv_bind(&renv, *rv, RegionId(raw_word as u32));
        }
        // Value bindings: siblings then captures then the parameter.
        let mut env: Env = None;
        let nsib = group.as_ref().map(|g| g.members.len()).unwrap_or(0);
        if let Some(g) = &group {
            for (j, name) in g.names.iter().enumerate() {
                let w = self.field(clos, raw + j, "sibling")?;
                env = env_bind(&env, *name, w);
            }
        }
        for (i, v) in fvs.iter().enumerate() {
            let w = self.field(clos, raw + nsib + i, "capture")?;
            env = env_bind(&env, *v, w);
        }
        env = env_bind(&env, param, arg);
        Ok(Ctrl::Eval(body, env, renv))
    }

    fn field_raw(&self, w: Word, i: usize) -> MResult<u64> {
        self.heap
            .field(w, i, "closure raw field")
            .map(|x| x.0)
            .or_else(|e| self.dangling(e))
    }

    /// Region application: copy the closure, filling its region-parameter
    /// slots per the instantiation, at the target region.
    fn rapp(
        &mut self,
        clos: Word,
        inst: &rml_core::Subst,
        at: RegVar,
        renv: &REnv,
    ) -> MResult<Word> {
        let id = self.field(clos, 0, "region application")?.0 as usize;
        let entry = self
            .code
            .entries
            .get(id)
            .ok_or_else(|| RunError::Stuck("bad code id".into()))?;
        let rparams = entry.rparams.clone();
        let frvs_len = entry.frvs.len();
        let nsib = entry.group.as_ref().map(|g| g.members.len()).unwrap_or(0);
        let fvs_len = entry.fvs.len();
        let raw = 1 + rparams.len() + frvs_len;
        let total = raw + nsib + fvs_len;
        let mut payload = Vec::with_capacity(total);
        payload.push(id as u64);
        for rv in &rparams {
            let target = inst.reg.get(rv).copied().unwrap_or(*rv);
            // Identity instantiation resolves the variable itself (bound
            // in the current body's region environment).
            let r = self.region(renv, target)?;
            payload.push(r.0 as u64);
        }
        for i in 0..frvs_len + nsib + fvs_len {
            payload.push(self.field_raw(clos, 1 + rparams.len() + i)?);
        }
        let r = self.region(renv, at)?;
        Ok(self.heap.alloc(r, ObjKind::Closure, raw as u16, &payload))
    }

    fn apply(&mut self, frame: Frame<'a>, w: Word) -> MResult<Ctrl<'a>> {
        let ret = |w: Word| Ok(Ctrl::Ret(Cell::new(w.0)));
        match frame {
            Frame::AppArg {
                arg,
                env,
                renv,
                inst,
            } => {
                self.kont.push(Frame::AppCall {
                    clos: Cell::new(w.0),
                    inst,
                    renv: renv.clone(),
                });
                Ok(Ctrl::Eval(arg, env, renv))
            }
            Frame::AppCall { clos, inst, renv } => self.call(Word(clos.get()), w, inst, &renv),
            Frame::RApp { inst, at, renv } => {
                let w2 = self.rapp(w, inst, at, &renv)?;
                ret(w2)
            }
            Frame::LetBody { x, body, env, renv } => {
                let env2 = env_bind(&env, x, w);
                Ok(Ctrl::Eval(body, env2, renv))
            }
            Frame::PairSnd { snd, env, renv, at } => {
                self.kont.push(Frame::PairMk {
                    fst: Cell::new(w.0),
                    at,
                    renv: renv.clone(),
                });
                Ok(Ctrl::Eval(snd, env, renv))
            }
            Frame::PairMk { fst, at, renv } => {
                let r = self.region(&renv, at)?;
                ret(self.heap.alloc(r, ObjKind::Pair, 0, &[fst.get(), w.0]))
            }
            Frame::Sel(i) => {
                let v = self.field(w, (i - 1) as usize, "projection")?;
                ret(v)
            }
            Frame::IfBranch { t, f, env, renv } => match w.as_bool() {
                Some(true) => Ok(Ctrl::Eval(t, env, renv)),
                Some(false) => Ok(Ctrl::Eval(f, env, renv)),
                None => Err(RunError::Stuck("if on non-boolean".into())),
            },
            Frame::Prim {
                op,
                at,
                renv,
                env,
                mut done,
                mut rest,
            } => {
                done.push(Cell::new(w.0));
                match rest.pop() {
                    Some(next) => {
                        let renv2 = renv.clone();
                        self.kont.push(Frame::Prim {
                            op,
                            at,
                            renv,
                            env: env.clone(),
                            done,
                            rest,
                        });
                        Ok(Ctrl::Eval(next, env, renv2))
                    }
                    None => {
                        let args: Vec<Word> = done.iter().map(|c| Word(c.get())).collect();
                        let out = self.apply_prim(op, &args, at, &renv)?;
                        ret(out)
                    }
                }
            }
            Frame::ConsTail {
                tail,
                env,
                renv,
                at,
            } => {
                self.kont.push(Frame::ConsMk {
                    head: Cell::new(w.0),
                    at,
                    renv: renv.clone(),
                });
                Ok(Ctrl::Eval(tail, env, renv))
            }
            Frame::ConsMk { head, at, renv } => {
                let r = self.region(&renv, at)?;
                ret(self.heap.alloc(r, ObjKind::Cons, 0, &[head.get(), w.0]))
            }
            Frame::Case {
                nil_rhs,
                head,
                tail,
                cons_rhs,
                env,
                renv,
            } => {
                if w == Word::NIL {
                    Ok(Ctrl::Eval(nil_rhs, env, renv))
                } else {
                    let h = self.field(w, 0, "case head")?;
                    let t = self.field(w, 1, "case tail")?;
                    let env2 = env_bind(&env_bind(&env, head, h), tail, t);
                    Ok(Ctrl::Eval(cons_rhs, env2, renv))
                }
            }
            Frame::RefMk { at, renv } => {
                let r = self.region(&renv, at)?;
                ret(self.heap.alloc(r, ObjKind::Ref, 0, &[w.0]))
            }
            Frame::Deref => {
                let v = self.field(w, 0, "dereference")?;
                ret(v)
            }
            Frame::AssignRhs { rhs, env, renv } => {
                self.kont.push(Frame::AssignDo {
                    target: Cell::new(w.0),
                });
                Ok(Ctrl::Eval(rhs, env, renv))
            }
            Frame::AssignDo { target } => {
                self.heap
                    .set_field(Word(target.get()), 0, w, "assignment")
                    .or_else(|e| self.dangling(e))?;
                ret(Word::UNIT)
            }
            Frame::PopRegions { regions } => {
                if trace::enabled() {
                    trace::instant(
                        "letregion.exit",
                        "eval",
                        &[("regions", regions.len() as f64)],
                    );
                }
                for r in regions {
                    self.heap.drop_region(r);
                }
                ret(w)
            }
            Frame::ExnMk { name, at, renv } => {
                let r = self.region(&renv, at)?;
                ret(self
                    .heap
                    .alloc(r, ObjKind::Exn, 2, &[name.index() as u64, 0, w.0]))
            }
            Frame::RaiseDo => self.unwind(w),
            Frame::Handle { .. } => {
                // Body finished normally; drop the handler.
                ret(w)
            }
        }
    }

    /// Unwinds the continuation with a raised exception value.
    fn unwind(&mut self, exn_val: Word) -> MResult<Ctrl<'a>> {
        let name_idx = self.field_raw(exn_val, 0)? as u32;
        let name = Symbol::from_index(name_idx);
        while let Some(frame) = self.kont.pop() {
            match frame {
                Frame::PopRegions { regions } => {
                    for r in regions {
                        self.heap.drop_region(r);
                    }
                }
                Frame::Handle {
                    exn,
                    arg,
                    handler,
                    env,
                    renv,
                } if exn == name => {
                    let header = self
                        .heap
                        .header(exn_val, "exception match")
                        .or_else(|e| self.dangling(e))?;
                    let bound = if header.len > 2 {
                        self.field(exn_val, 2, "exception argument")?
                    } else {
                        Word::UNIT
                    };
                    let env2 = env_bind(&env, arg, bound);
                    return Ok(Ctrl::Eval(handler, env2, renv));
                }
                _ => {}
            }
        }
        let printable = Symbol::lookup_index(name_idx)
            .unwrap_or("<unknown exception>")
            .to_string();
        Err(RunError::Uncaught(printable))
    }

    fn apply_prim(
        &mut self,
        op: PrimOp,
        args: &[Word],
        at: Option<RegVar>,
        renv: &REnv,
    ) -> MResult<Word> {
        use PrimOp::*;
        let int = |w: Word| -> MResult<i64> {
            if w.is_int() {
                Ok(w.as_int())
            } else {
                Err(RunError::Stuck(format!("`{op}` on non-int")))
            }
        };
        Ok(match op {
            Add => Word::int(int(args[0])?.wrapping_add(int(args[1])?)),
            Sub => Word::int(int(args[0])?.wrapping_sub(int(args[1])?)),
            Mul => Word::int(int(args[0])?.wrapping_mul(int(args[1])?)),
            Div => {
                let d = int(args[1])?;
                if d == 0 {
                    return Err(RunError::DivByZero);
                }
                Word::int(int(args[0])?.wrapping_div(d))
            }
            Mod => {
                let d = int(args[1])?;
                if d == 0 {
                    return Err(RunError::DivByZero);
                }
                Word::int(int(args[0])?.wrapping_rem(d))
            }
            Neg => Word::int(int(args[0])?.wrapping_neg()),
            Lt => Word::bool(int(args[0])? < int(args[1])?),
            Le => Word::bool(int(args[0])? <= int(args[1])?),
            Gt => Word::bool(int(args[0])? > int(args[1])?),
            Ge => Word::bool(int(args[0])? >= int(args[1])?),
            Eq => Word::bool(self.value_eq(args[0], args[1])?),
            Ne => Word::bool(!self.value_eq(args[0], args[1])?),
            Not => match args[0].as_bool() {
                Some(b) => Word::bool(!b),
                None => return Err(RunError::Stuck("`not` on non-bool".into())),
            },
            Concat => {
                let a = self
                    .heap
                    .read_str(args[0], "string concat")
                    .or_else(|e| self.dangling(e))?;
                let b = self
                    .heap
                    .read_str(args[1], "string concat")
                    .or_else(|e| self.dangling(e))?;
                let rv = at.ok_or_else(|| RunError::Stuck("`^` without region".into()))?;
                let r = self.region(renv, rv)?;
                self.heap.alloc_str(r, &(a + &b))
            }
            Size => {
                let h = self
                    .heap
                    .header(args[0], "size")
                    .or_else(|e| self.dangling(e))?;
                Word::int(h.len as i64)
            }
            Itos => {
                let n = int(args[0])?;
                let rv = at.ok_or_else(|| RunError::Stuck("`itos` without region".into()))?;
                let r = self.region(renv, rv)?;
                self.heap.alloc_str(r, &n.to_string())
            }
            Print => {
                let s = self
                    .heap
                    .read_str(args[0], "print")
                    .or_else(|e| self.dangling(e))?;
                self.output.push_str(&s);
                Word::UNIT
            }
            ForceGc => {
                self.gc_pending = true;
                Word::UNIT
            }
        })
    }

    /// Structural equality over heap values.
    fn value_eq(&self, a: Word, b: Word) -> MResult<bool> {
        if a == b {
            return Ok(true);
        }
        if !a.is_pointer() || !b.is_pointer() {
            return Ok(false);
        }
        let ha = self
            .heap
            .header(a, "equality")
            .or_else(|e| self.dangling(e))?;
        let hb = self
            .heap
            .header(b, "equality")
            .or_else(|e| self.dangling(e))?;
        if ha.kind != hb.kind {
            return Ok(false);
        }
        match ha.kind {
            ObjKind::Str => Ok(self
                .heap
                .read_str(a, "equality")
                .or_else(|e| self.dangling(e))?
                == self
                    .heap
                    .read_str(b, "equality")
                    .or_else(|e| self.dangling(e))?),
            ObjKind::Pair | ObjKind::Cons => Ok(self
                .value_eq(self.field(a, 0, "equality")?, self.field(b, 0, "equality")?)?
                && self.value_eq(self.field(a, 1, "equality")?, self.field(b, 1, "equality")?)?),
            ObjKind::Ref => Ok(false), // distinct cells (identity compared above)
            ObjKind::Exn => Ok(self.field_raw(a, 0)? == self.field_raw(b, 0)?),
            _ => Ok(false),
        }
    }
}
