//! The machine proper: runs the code vector built by [`crate::lower()`].
//!
//! Each function call pushes one activation holding the callee's value
//! and region slots; continuation frames that resume evaluation in a
//! function body name the node that pushed them. The collector's roots
//! are the control value, the values held in frames, and the bindings in
//! scope at the control node and at each such frame — never a slot whose
//! scope has ended, which would be the paper's dead-but-traced value.

use crate::decode::RunValue;
use crate::lower::{Code, Lowered, Op, Pc, Site, Slot};
use rml_core::vars::RegVar;
use rml_runtime::{GcError, GcPause, Heap, ObjKind, RegionId, RegionKind, Word};
use rml_session::trace;
use rml_syntax::ast::PrimOp;
use rml_syntax::Symbol;

/// A deterministic adversarial collection schedule (the torture rig).
///
/// All scheduling decisions derive from the machine step counter and a
/// [`Xorshift64`](rml_runtime::Xorshift64) stream seeded from `seed` —
/// never from ambient randomness — so the same seed always produces the
/// same schedule and therefore the same run outcome.
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

/// Run options: the knobs a user sets. The program itself, lowered once
/// per compilation by [`crate::lower()`], is passed to [`run`].
#[derive(Debug, Clone, Copy)]
pub struct ExecOpts {
    /// Collection policy; `None` is [`GcPolicy::default_on`] (the `rml`
    /// facade picks `Off` for strategy `r`). A stress schedule also walks
    /// the heap-invariant verifier after every collection.
    pub gc: Option<GcPolicy>,
    /// Ignore all regions and run on one collected heap (the conventional
    /// tracing-GC baseline, standing in for MLton).
    pub baseline: bool,
    /// Use the partly tag-free (untagged pairs/refs/cons) representation
    /// for kind-homogeneous regions (paper Section 6); applied as each
    /// region is created.
    pub tag_free: bool,
    /// Step limit.
    pub fuel: u64,
    /// Fault injection: fail with [`RunError::OutOfMemory`] once this many
    /// objects have been allocated.
    pub alloc_budget: Option<u64>,
    /// Fault injection: fail with [`RunError::DepthLimit`] when the
    /// continuation stack exceeds this many frames.
    pub depth_limit: Option<usize>,
}

impl Default for ExecOpts {
    fn default() -> ExecOpts {
        ExecOpts {
            gc: None,
            baseline: false,
            tag_free: true,
            fuel: u64::MAX,
            alloc_budget: None,
            depth_limit: None,
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

/// A pending continuation.
enum Frame {
    /// Resume the function body at node `Pc` (an `App`, `Let`, `Pair`,
    /// `If`, `Cons`, `Case`, `Assign` or `Handle`) with the value of its
    /// first subterm; the bindings in scope at that node stay live.
    Resume(Pc),
    /// A primitive with `n` operands evaluated; also keeps its node's
    /// bindings live.
    Prim {
        pc: Pc,
        n: u8,
        done: [u64; 2],
    },
    AppCall {
        clos: u64,
        inst: Option<u32>,
    },
    RApp {
        inst: u32,
        at: Slot,
    },
    PairMk {
        fst: u64,
        at: Slot,
    },
    ConsMk {
        head: u64,
        at: Slot,
    },
    RefMk(Slot),
    ExnMk {
        name: Symbol,
        at: Slot,
    },
    Sel(u8),
    Deref,
    AssignDo(u64),
    RaiseDo,
    /// Drops regions `first..first + n` (created consecutively).
    PopRegions {
        first: u32,
        n: u32,
    },
}

enum Ctrl {
    Eval(Pc),
    Ret(u64),
}

/// A function activation: value slots addressed from `vb` (captures
/// below it) up to `vhi`, region slots from `rb` up to `rhi`. It owns the
/// frames pushed since it began (`kont[base..]`, up to the next
/// activation's base) and dies when control returns below `base`, or
/// when it makes a call with none of its frames pending.
struct Act {
    code: usize,
    base: usize,
    vb: usize,
    vhi: usize,
    rb: usize,
    rhi: usize,
}

struct Machine<'a> {
    prog: &'a Lowered,
    opts: &'a ExecOpts,
    gc: GcPolicy,
    /// Faults or a stress schedule need a look at every step; otherwise
    /// only a due collection stops the step loop.
    guarded: bool,
    heap: Heap,
    kont: Vec<Frame>,
    acts: Vec<Act>,
    vals: Vec<u64>,
    regs: Vec<RegionId>,
    /// Value and region base of the current activation.
    vb: usize,
    rb: usize,
    output: String,
    steps: u64,
    global_region: RegionId,
    gc_pending: bool,
    collections_since_major: u32,
    /// Seeded PRNG driving minor/major interleaving under stress
    /// schedules; the only source of "randomness" in the machine.
    rng: rml_runtime::Xorshift64,
    /// Reused buffers: closure payloads, a group's closures and call-site
    /// region arguments.
    buf: Vec<u64>,
    group: Vec<Word>,
    rargs: Vec<RegionId>,
    /// The root set handed to the collector and the verifier.
    roots: Vec<Word>,
}

type MResult<T> = Result<T, RunError>;

/// Sentinel code id of the program body's activation.
const MAIN: usize = usize::MAX;

/// Runs a lowered program (see [`crate::lower()`]) on a fresh heap.
///
/// # Errors
///
/// See [`RunError`]; in particular [`RunError::Dangling`] reports a
/// dangling pointer met by the mutator or the collector.
pub fn run(prog: &Lowered, opts: &ExecOpts) -> Result<RunOutcome, RunError> {
    let gc = opts.gc.unwrap_or_else(GcPolicy::default_on);
    let mut heap = Heap::new();
    heap.generational = gc.generational();
    match gc {
        GcPolicy::On {
            min_bytes, ratio, ..
        } => heap.set_gc_growth(min_bytes, ratio),
        // No allocation heuristic: the step loop's trigger test never
        // fires (stress schedules are checked on every step instead).
        _ => heap.set_gc_growth(u64::MAX, 0.0),
    }
    let global_region = heap.create_region(RegionKind::Infinite);
    let seed = match gc {
        GcPolicy::Stress(s) => s.seed,
        _ => 0,
    };
    // Residual free region variables of the program (e.g. regions of the
    // final result value) live for the whole run, like the global region;
    // they are created in variable order.
    let main = &prog.main;
    let rb = main.frvs.len();
    let mut regs = vec![global_region; rb + main.nregs];
    for &i in main.rperm.iter() {
        regs[rb - 1 - i as usize] = heap.create_region(RegionKind::Infinite);
    }
    let mut m = Machine {
        prog,
        opts,
        gc,
        guarded: opts.alloc_budget.is_some()
            || opts.depth_limit.is_some()
            || matches!(gc, GcPolicy::Stress(_)),
        heap,
        kont: Vec::new(),
        acts: vec![Act {
            code: MAIN,
            base: 0,
            vb: 0,
            vhi: main.nvals,
            rb,
            rhi: regs.len(),
        }],
        vals: vec![Word::UNIT.0; main.nvals],
        regs,
        vb: 0,
        rb,
        output: String::new(),
        steps: 0,
        global_region,
        gc_pending: false,
        collections_since_major: 0,
        rng: rml_runtime::Xorshift64::new(seed),
        buf: Vec::new(),
        group: Vec::new(),
        rargs: Vec::new(),
        roots: Vec::new(),
    };
    let run_span = trace::span("machine.run", "eval");
    let value = m.run_loop(main.body)?;
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

fn stuck<T>(msg: impl Into<String>) -> MResult<T> {
    Err(RunError::Stuck(msg.into()))
}

/// Visits the bindings of activation `a` in scope at node `pc`, innermost
/// first, down to the `seen` outermost ones already visited; returns how
/// many are visited now. Bindings count from the outermost: siblings,
/// then captures (in closure order), then locals.
fn visit_scope(
    prog: &Lowered,
    vals: &mut [u64],
    a: &Act,
    pc: Pc,
    seen: usize,
    f: &mut impl FnMut(&mut u64),
) -> usize {
    let c: &Code = prog.codes.get(a.code).unwrap_or(&prog.main);
    let (k, n) = (c.k, c.fvs.len());
    let d = k + n + prog.nodes[pc as usize].depth as usize;
    for li in (seen..d).rev() {
        let ix = match li {
            _ if li < k => a.vb + li,
            _ if li < k + n => a.vb - 1 - c.perm[li - k] as usize,
            _ => a.vb + li - n,
        };
        f(&mut vals[ix]);
    }
    seen.max(d)
}

impl Machine<'_> {
    /// Index of value slot `s` of the current activation.
    fn slot(&self, s: Slot) -> usize {
        self.vb.wrapping_add_signed(s as isize)
    }

    fn region(&self, s: Slot) -> RegionId {
        if self.opts.baseline {
            return self.global_region;
        }
        self.regs[self.rb.wrapping_add_signed(s as isize)]
    }

    /// The caller's region for region parameter `rv` under instantiation
    /// `inst`.
    fn inst_region(&self, inst: u32, rv: RegVar) -> MResult<RegionId> {
        let pairs = &self.prog.insts[inst as usize];
        match pairs.binary_search_by_key(&rv, |p| p.0) {
            Ok(j) => Ok(self.region(pairs[j].1)),
            Err(_) => stuck(format!("unbound region variable {rv}")),
        }
    }

    fn dangling<T>(&self, e: rml_runtime::heap::DanglingAccess) -> MResult<T> {
        // The step stamp makes the determinism contract checkable: the
        // same seed must reproduce the same failure at the same step.
        Err(RunError::Dangling(format!("{e} at step {}", self.steps)))
    }

    fn field(&self, w: Word, i: usize, ctx: &'static str) -> MResult<Word> {
        self.heap.field(w, i, ctx).or_else(|e| self.dangling(e))
    }

    fn set_field(&mut self, w: Word, i: usize, v: Word, ctx: &'static str) -> MResult<()> {
        self.heap
            .set_field(w, i, v, ctx)
            .or_else(|e| self.dangling(e))
    }

    fn header(&self, w: Word, ctx: &'static str) -> MResult<rml_runtime::word::Header> {
        self.heap.header(w, ctx).or_else(|e| self.dangling(e))
    }

    fn read_str(&self, w: Word, ctx: &'static str) -> MResult<String> {
        self.heap.read_str(w, ctx).or_else(|e| self.dangling(e))
    }

    fn field_raw(&self, w: Word, i: usize) -> MResult<u64> {
        self.field(w, i, "closure raw field").map(|x| x.0)
    }

    fn run_loop(&mut self, body: Pc) -> MResult<Word> {
        let mut ctrl = Ctrl::Eval(body);
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
            if self.guarded || self.gc_pending || self.heap.should_collect() {
                self.check_faults()?;
                self.maybe_collect(&mut ctrl)?;
            }
            ctrl = match ctrl {
                Ctrl::Eval(pc) => self.eval(pc)?,
                Ctrl::Ret(w) => match self.kont.pop() {
                    None => return Ok(Word(w)),
                    Some(frame) => {
                        self.resume();
                        self.apply(frame, Word(w))?
                    }
                },
            };
        }
    }

    /// Makes the owner of the frame just popped the current activation,
    /// dropping the activations begun after it.
    fn resume(&mut self) {
        let p = self.kont.len();
        while self.acts.last().is_some_and(|a| a.base > p) {
            self.acts.pop();
        }
        if let Some(a) = self.acts.last() {
            (self.vb, self.rb) = (a.vb, a.rb);
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
        match self.gc {
            GcPolicy::Off => None,
            GcPolicy::On { generational, .. } => {
                let forced = self.gc_pending;
                if !forced && !self.heap.should_collect() {
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

    /// Visits the root set in a fixed order: the control value, the
    /// values held in frames, then the bindings in scope at the control
    /// node and at each resuming frame, oldest frame first. Each scope is
    /// visited from its innermost binding out and stops at the first
    /// binding already visited: the frames of one activation see nested
    /// scopes of the same body, so each slot is visited once.
    fn each_root(&mut self, ctrl: &mut Ctrl, mut f: impl FnMut(&mut u64)) {
        if let Ctrl::Ret(w) = ctrl {
            f(w);
        }
        for frame in &mut self.kont {
            match frame {
                Frame::AppCall { clos: v, .. }
                | Frame::PairMk { fst: v, .. }
                | Frame::ConsMk { head: v, .. }
                | Frame::AssignDo(v) => f(v),
                Frame::Prim { n, done, .. } => done[..*n as usize].iter_mut().for_each(&mut f),
                _ => {}
            }
        }
        let (prog, acts, vals) = (self.prog, &self.acts, &mut self.vals);
        let top = acts.len() - 1;
        let top_seen = match ctrl {
            Ctrl::Eval(pc) => visit_scope(prog, vals, &acts[top], *pc, 0, &mut f),
            Ctrl::Ret(_) => 0,
        };
        let (mut a, mut seen) = (0, if top == 0 { top_seen } else { 0 });
        for (i, frame) in self.kont.iter().enumerate() {
            let (Frame::Resume(pc) | Frame::Prim { pc, .. }) = frame else {
                continue;
            };
            while a < top && acts[a + 1].base <= i {
                a += 1;
                seen = if a == top { top_seen } else { 0 };
            }
            seen = visit_scope(prog, vals, &acts[a], *pc, seen, &mut f);
        }
    }

    /// Collects when one is due; a stress schedule then walks the
    /// heap-invariant verifier over the moved roots.
    fn maybe_collect(&mut self, ctrl: &mut Ctrl) -> MResult<()> {
        let Some((minor, forced)) = self.gc_decision() else {
            return Ok(());
        };
        let mut roots = std::mem::take(&mut self.roots);
        roots.clear();
        self.each_root(ctrl, |v| roots.push(Word(*v)));
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
        // The same walk again writes the moved roots back in order.
        let mut moved = roots.iter();
        self.each_root(ctrl, |v| *v = moved.next().map_or(*v, |w| w.0));
        if matches!(self.gc, GcPolicy::Stress(_)) {
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
        self.roots = roots;
        Ok(())
    }

    fn eval(&mut self, pc: Pc) -> MResult<Ctrl> {
        let ret = |w: Word| Ok(Ctrl::Ret(w.0));
        let prog = self.prog;
        match &prog.nodes[pc as usize].op {
            Op::Unit => ret(Word::UNIT),
            Op::Int(n) => ret(Word::int(*n)),
            Op::Bool(b) => ret(Word::bool(*b)),
            Op::Nil => ret(Word::NIL),
            Op::Var(s) => ret(Word(self.vals[self.slot(*s)])),
            Op::Stuck(msg) => stuck(&**msg),
            Op::Str(s, at) => {
                let r = self.region(*at);
                ret(self.heap.alloc_str(r, s))
            }
            Op::Closure(site, len, index) => {
                let sites = &prog.sites[*site as usize..(*site + *len) as usize];
                // Allocate the whole group, then patch sibling slots.
                let mut words = std::mem::take(&mut self.group);
                words.clear();
                for s in sites {
                    words.push(self.make_closure(s));
                }
                for (s, w) in sites.iter().zip(&words) {
                    let c = &prog.codes[s.code];
                    for (j, sw) in words.iter().enumerate().take(c.k) {
                        self.set_field(*w, c.raw() + j, *sw, "fix patch")?;
                    }
                }
                let w = words[*index as usize];
                self.group = words;
                ret(w)
            }
            Op::App(f, ..) | Op::Pair(f, ..) | Op::If(f, ..) | Op::Cons(f, ..) => {
                self.push(Frame::Resume(pc), *f)
            }
            Op::Let(f, ..) | Op::Case(f, ..) | Op::Assign(f, _) | Op::Handle(f, ..) => {
                self.push(Frame::Resume(pc), *f)
            }
            Op::RApp(f, inst, at) => self.push(
                Frame::RApp {
                    inst: *inst,
                    at: *at,
                },
                *f,
            ),
            Op::Letregion(spec, n, first, body) => {
                if self.opts.baseline {
                    return Ok(Ctrl::Eval(*body));
                }
                let specs = &prog.specs[*spec as usize..(*spec + *n) as usize];
                let mut r0 = 0;
                for (i, sp) in specs.iter().enumerate() {
                    let kind = match sp.bound {
                        Some(_) => RegionKind::Finite,
                        None => RegionKind::Infinite,
                    };
                    let uniform = sp.uniform.filter(|_| self.opts.tag_free);
                    let r = self.heap.create_region_uniform(kind, uniform);
                    if let Some(b) = sp.bound {
                        self.heap.set_region_bound(r, b);
                    }
                    let ix = self.rb + *first as usize + i;
                    self.regs[ix] = r;
                    r0 = if i == 0 { r.0 } else { r0 };
                }
                if trace::enabled() {
                    trace::instant("letregion.enter", "eval", &[("regions", *n as f64)]);
                }
                self.kont.push(Frame::PopRegions { first: r0, n: *n });
                Ok(Ctrl::Eval(*body))
            }
            Op::Sel(i, a) => self.push(Frame::Sel(*i), *a),
            Op::Prim(op, _, 0, at) => ret(self.apply_prim(*op, &[], *at)?),
            Op::Prim(_, args, ..) => self.push(
                Frame::Prim {
                    pc,
                    n: 0,
                    done: [0; 2],
                },
                args[0],
            ),
            Op::RefNew(a, at) => self.push(Frame::RefMk(*at), *a),
            Op::Deref(a) => self.push(Frame::Deref, *a),
            Op::Exn(name, Some(a), at) => self.push(
                Frame::ExnMk {
                    name: *name,
                    at: *at,
                },
                *a,
            ),
            Op::Exn(name, None, at) => {
                let r = self.region(*at);
                ret(self
                    .heap
                    .alloc(r, ObjKind::Exn, 2, &[name.index() as u64, 0]))
            }
            Op::Raise(a) => self.push(Frame::RaiseDo, *a),
        }
    }

    /// Pushes `frame` and evaluates `next`.
    fn push(&mut self, frame: Frame, next: Pc) -> MResult<Ctrl> {
        self.kont.push(frame);
        Ok(Ctrl::Eval(next))
    }

    /// Allocates a closure for `site`:
    /// `[code_id][rparam slots (sentinel)][frv slots][siblings…][captures…]`.
    fn make_closure(&mut self, s: &Site) -> Word {
        let c = &self.prog.codes[s.code];
        let mut buf = std::mem::take(&mut self.buf);
        buf.clear();
        buf.push(s.code as u64);
        buf.resize(1 + c.rparams.len(), u64::MAX); // filled at region application
        buf.extend(s.rcaps.iter().map(|r| self.region(*r).0 as u64));
        buf.resize(c.raw() + c.k, Word::UNIT.0); // sibling slots, patched after
        buf.extend(s.caps.iter().map(|v| self.vals[self.slot(*v)]));
        let w = self
            .heap
            .alloc(self.region(s.at), ObjKind::Closure, c.raw() as u16, &buf);
        self.buf = buf;
        w
    }

    /// Enters a closure with an argument. When `inst` is given (the fused
    /// `(f [S]) arg` form), the closure's region parameters are resolved
    /// from the instantiation against the caller's region slots instead
    /// of from the closure's slots.
    fn call(&mut self, clos: Word, arg: Word, inst: Option<u32>) -> MResult<Ctrl> {
        let id = self.field(clos, 0, "call")?.0 as usize;
        let Some(c) = self.prog.codes.get(id) else {
            return stuck("bad code id");
        };
        let (p, f, raw) = (c.rparams.len(), c.frvs.len(), c.raw());
        let mut rargs = std::mem::take(&mut self.rargs);
        rargs.clear();
        for (i, rv) in c.rparams.iter().enumerate() {
            rargs.push(match inst {
                Some(s) => self.inst_region(s, *rv)?,
                None => match self.field_raw(clos, 1 + i)? {
                    u64::MAX => {
                        return stuck(format!(
                            "closure applied without region instantiation ({rv})"
                        ))
                    }
                    r => RegionId(r as u32),
                },
            });
        }
        // A caller with no frames pending is finished: the callee's
        // activation replaces it.
        if self.acts.last().is_some_and(|a| a.base == self.kont.len()) {
            self.acts.pop();
        }
        let (vlo, rlo) = self.acts.last().map_or((0, 0), |a| (a.vhi, a.rhi));
        let (vb, rb) = (vlo + c.fvs.len(), rlo + f);
        self.regs.truncate(rlo);
        self.regs.resize(rb, RegionId(0));
        for (j, i) in c.rperm.iter().enumerate() {
            self.regs[rb - 1 - *i as usize] = RegionId(self.field_raw(clos, 1 + p + j)? as u32);
        }
        self.regs.extend_from_slice(&rargs);
        self.regs.resize(rb + c.nregs, RegionId(0));
        self.rargs = rargs;
        self.vals.truncate(vlo);
        self.vals.resize(vb, Word::UNIT.0);
        for j in 0..c.k {
            self.vals.push(self.field(clos, raw + j, "sibling")?.0);
        }
        for (j, i) in c.perm.iter().enumerate() {
            self.vals[vb - 1 - *i as usize] = self.field(clos, raw + c.k + j, "capture")?.0;
        }
        self.vals.push(arg.0);
        self.vals.resize(vb + c.nvals, Word::UNIT.0);
        self.acts.push(Act {
            code: id,
            base: self.kont.len(),
            vb,
            vhi: vb + c.nvals,
            rb,
            rhi: rb + c.nregs,
        });
        (self.vb, self.rb) = (vb, rb);
        Ok(Ctrl::Eval(c.body))
    }

    /// Region application: copy the closure, filling its region-parameter
    /// slots per the instantiation, at the target region.
    fn rapp(&mut self, clos: Word, inst: u32, at: Slot) -> MResult<Word> {
        let id = self.field(clos, 0, "region application")?.0 as usize;
        let Some(c) = self.prog.codes.get(id) else {
            return stuck("bad code id");
        };
        let p = c.rparams.len();
        let mut buf = std::mem::take(&mut self.buf);
        buf.clear();
        buf.push(id as u64);
        for rv in c.rparams.iter() {
            buf.push(self.inst_region(inst, *rv)?.0 as u64);
        }
        for i in 0..c.frvs.len() + c.k + c.fvs.len() {
            buf.push(self.field_raw(clos, 1 + p + i)?);
        }
        let w = self
            .heap
            .alloc(self.region(at), ObjKind::Closure, c.raw() as u16, &buf);
        self.buf = buf;
        Ok(w)
    }

    fn apply(&mut self, frame: Frame, w: Word) -> MResult<Ctrl> {
        let ret = |w: Word| Ok(Ctrl::Ret(w.0));
        match frame {
            Frame::Resume(pc) => self.resume_at(pc, w),
            Frame::Prim { pc, n, mut done } => {
                let Op::Prim(op, args, arity, at) = self.prog.nodes[pc as usize].op else {
                    return stuck("malformed continuation");
                };
                done[n as usize] = w.0;
                let n = n + 1;
                if n < arity {
                    self.kont.push(Frame::Prim { pc, n, done });
                    return Ok(Ctrl::Eval(args[n as usize]));
                }
                let args = done.map(Word);
                ret(self.apply_prim(op, &args[..n as usize], at)?)
            }
            Frame::AppCall { clos, inst } => self.call(Word(clos), w, inst),
            Frame::RApp { inst, at } => ret(self.rapp(w, inst, at)?),
            Frame::PairMk { fst, at } => {
                let r = self.region(at);
                ret(self.heap.alloc(r, ObjKind::Pair, 0, &[fst, w.0]))
            }
            Frame::ConsMk { head, at } => {
                let r = self.region(at);
                ret(self.heap.alloc(r, ObjKind::Cons, 0, &[head, w.0]))
            }
            Frame::RefMk(at) => {
                let r = self.region(at);
                ret(self.heap.alloc(r, ObjKind::Ref, 0, &[w.0]))
            }
            Frame::ExnMk { name, at } => {
                let r = self.region(at);
                ret(self
                    .heap
                    .alloc(r, ObjKind::Exn, 2, &[name.index() as u64, 0, w.0]))
            }
            Frame::Sel(i) => ret(self.field(w, (i - 1) as usize, "projection")?),
            Frame::Deref => ret(self.field(w, 0, "dereference")?),
            Frame::AssignDo(target) => {
                self.set_field(Word(target), 0, w, "assignment")?;
                ret(Word::UNIT)
            }
            Frame::RaiseDo => self.unwind(w),
            Frame::PopRegions { first, n } => {
                if trace::enabled() {
                    trace::instant("letregion.exit", "eval", &[("regions", n as f64)]);
                }
                self.drop_regions(first, n);
                ret(w)
            }
        }
    }

    /// Continues node `pc` of the current body once its first subterm has
    /// produced `w`.
    fn resume_at(&mut self, pc: Pc, w: Word) -> MResult<Ctrl> {
        match self.prog.nodes[pc as usize].op {
            Op::App(_, arg, inst) => self.push(Frame::AppCall { clos: w.0, inst }, arg),
            Op::Pair(_, b, at) => self.push(Frame::PairMk { fst: w.0, at }, b),
            Op::Cons(_, t, at) => self.push(Frame::ConsMk { head: w.0, at }, t),
            Op::Assign(_, rhs) => self.push(Frame::AssignDo(w.0), rhs),
            Op::Let(_, x, body) => {
                let ix = self.slot(x);
                self.vals[ix] = w.0;
                Ok(Ctrl::Eval(body))
            }
            Op::If(_, t, f) => match w.as_bool() {
                Some(true) => Ok(Ctrl::Eval(t)),
                Some(false) => Ok(Ctrl::Eval(f)),
                None => stuck("if on non-boolean"),
            },
            Op::Case(_, nil, head, cons) => {
                if w == Word::NIL {
                    return Ok(Ctrl::Eval(nil));
                }
                let h = self.field(w, 0, "case head")?;
                let t = self.field(w, 1, "case tail")?;
                let ix = self.slot(head);
                (self.vals[ix], self.vals[ix + 1]) = (h.0, t.0);
                Ok(Ctrl::Eval(cons))
            }
            // Body finished normally; drop the handler.
            Op::Handle(..) => Ok(Ctrl::Ret(w.0)),
            _ => stuck("malformed continuation"),
        }
    }

    fn drop_regions(&mut self, first: u32, n: u32) {
        for r in first..first + n {
            self.heap.drop_region(RegionId(r));
        }
    }

    /// Unwinds the continuation with a raised exception value.
    fn unwind(&mut self, exn_val: Word) -> MResult<Ctrl> {
        let name_idx = self.field_raw(exn_val, 0)? as u32;
        let name = Symbol::from_index(name_idx);
        while let Some(frame) = self.kont.pop() {
            match frame {
                Frame::PopRegions { first, n } => self.drop_regions(first, n),
                Frame::Resume(pc) => {
                    let (arg, handler) = match self.prog.nodes[pc as usize].op {
                        Op::Handle(_, exn, arg, handler) if exn == name => (arg, handler),
                        _ => continue,
                    };
                    self.resume();
                    let header = self.header(exn_val, "exception match")?;
                    let bound = if header.len > 2 {
                        self.field(exn_val, 2, "exception argument")?
                    } else {
                        Word::UNIT
                    };
                    let ix = self.slot(arg);
                    self.vals[ix] = bound.0;
                    return Ok(Ctrl::Eval(handler));
                }
                _ => {}
            }
        }
        let printable = Symbol::lookup_index(name_idx)
            .unwrap_or("<unknown exception>")
            .to_string();
        Err(RunError::Uncaught(printable))
    }

    fn apply_prim(&mut self, op: PrimOp, args: &[Word], at: Option<Slot>) -> MResult<Word> {
        use PrimOp::*;
        let int = |w: Word| -> MResult<i64> {
            if w.is_int() {
                Ok(w.as_int())
            } else {
                stuck(format!("`{op}` on non-int"))
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
                None => return stuck("`not` on non-bool"),
            },
            Concat => {
                let a = self.read_str(args[0], "string concat")?;
                let b = self.read_str(args[1], "string concat")?;
                let Some(rv) = at else {
                    return stuck("`^` without region");
                };
                let r = self.region(rv);
                self.heap.alloc_str(r, &(a + &b))
            }
            Size => {
                let h = self.header(args[0], "size")?;
                Word::int(h.len as i64)
            }
            Itos => {
                let n = int(args[0])?;
                let Some(rv) = at else {
                    return stuck("`itos` without region");
                };
                let r = self.region(rv);
                self.heap.alloc_str(r, &n.to_string())
            }
            Print => {
                let s = self.read_str(args[0], "print")?;
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
        let ha = self.header(a, "equality")?;
        let hb = self.header(b, "equality")?;
        if ha.kind != hb.kind {
            return Ok(false);
        }
        match ha.kind {
            ObjKind::Str => Ok(self.read_str(a, "equality")? == self.read_str(b, "equality")?),
            ObjKind::Pair | ObjKind::Cons => Ok(self
                .value_eq(self.field(a, 0, "equality")?, self.field(b, 0, "equality")?)?
                && self.value_eq(self.field(a, 1, "equality")?, self.field(b, 1, "equality")?)?),
            ObjKind::Ref => Ok(false), // distinct cells (identity compared above)
            ObjKind::Exn => Ok(self.field_raw(a, 0)? == self.field_raw(b, 0)?),
            _ => Ok(false),
        }
    }
}
