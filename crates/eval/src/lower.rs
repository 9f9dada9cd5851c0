//! Lowering: one pass over the region-annotated term, run once per
//! compilation, that flattens it into a code vector the machine walks by
//! index. It reads no run option, so one [`Lowered`] serves every
//! [`crate::run`] of the program.
//!
//! * Program variables become value-slot offsets and region variables
//!   become region-slot offsets, both relative to the base of the
//!   enclosing function's activation. A binder's offset is its depth in
//!   the function body, so the bindings in scope at a node are exactly the
//!   captures, the siblings and the first [`Node::depth`] locals.
//! * Every lambda and `fun` member gets a code id; closure-creating nodes
//!   carry the code id and the slots their captures are read from.
//! * `letregion` binders carry their multiplicity bound and
//!   representation, looked up in the [`ReprInfo`] once; the machine
//!   drops the untagged representation when a run asks for tagged
//!   objects ([`crate::ExecOpts::tag_free`]).
//!
//! Activation layout (offsets from the activation base):
//!
//! ```text
//! values   [captures … -2 -1 | siblings 0 … k-1 | param k | binders k+1 …]
//! regions  [free region vars … -2 -1 | region params 0 … p-1 | letregion binders p …]
//! ```
//!
//! Captures sit below the base in the order the lowering first met them
//! ([`Code::perm`] maps the closure's sorted capture order onto them), so
//! a body is lowered before its capture count is known.

use rml_core::terms::{FixDef, Term};
use rml_core::vars::RegVar;
use rml_core::Subst;
use rml_repr::ReprInfo;
use rml_runtime::UniformKind;
use rml_syntax::ast::PrimOp;
use rml_syntax::Symbol;
use std::collections::HashMap;

/// Index into [`Lowered::nodes`].
pub type Pc = u32;
/// Slot offset from an activation's value or region base.
pub type Slot = i32;
/// Index into [`Lowered::codes`].
pub type CodeId = usize;

/// A lowered term: the operation plus the number of locals in scope.
#[derive(Debug)]
pub struct Node {
    /// The operation.
    pub op: Op,
    /// Locals (param and `let`/`case`/handler binders) in scope here.
    pub depth: u32,
}

/// Lowered operations, one per [`Term`] form; fields follow the term's.
#[derive(Debug)]
pub enum Op {
    Unit,
    Int(i64),
    Bool(bool),
    Nil,
    Var(Slot),
    Str(Box<str>, Slot),
    /// `(site, len, index)`: allocates the closures of sites
    /// `site..site + len` (one for a lambda, the group for a `fun`) and
    /// denotes member `index`.
    Closure(u32, u32, u32),
    /// `(f, arg, inst)`; `inst` is set for the fused `(f [S]) arg` form.
    App(Pc, Pc, Option<u32>),
    /// `(f, inst, at)`.
    RApp(Pc, u32, Slot),
    /// `(rhs, x, body)`.
    Let(Pc, Slot, Pc),
    /// `(spec, n, first, body)`: creates regions `specs[spec..spec + n]`
    /// into region slots `first..first + n`.
    Letregion(u32, u32, Slot, Pc),
    Pair(Pc, Pc, Slot),
    Sel(u8, Pc),
    If(Pc, Pc, Pc),
    /// `(op, operands, arity, at)`: at most two operands, inline.
    Prim(PrimOp, [Pc; 2], u8, Option<Slot>),
    Cons(Pc, Pc, Slot),
    /// `(scrut, nil, head, cons)`: the cons branch binds `head` and
    /// `head + 1`.
    Case(Pc, Pc, Slot, Pc),
    RefNew(Pc, Slot),
    Deref(Pc),
    Assign(Pc, Pc),
    /// `(name, arg, at)`.
    Exn(Symbol, Option<Pc>, Slot),
    Raise(Pc),
    /// `(body, exn, arg, handler)`.
    Handle(Pc, Symbol, Slot, Pc),
    /// An ill-formed term: evaluating it fails with this message.
    Stuck(Box<str>),
}

/// One function body and its closure layout
/// `[code][rparams][frvs][siblings][captures]`.
#[derive(Debug, Default)]
pub struct Code {
    /// Entry node.
    pub body: Pc,
    /// Sibling slots (the group size of a `fun`; 0 for a lambda).
    pub k: usize,
    /// Captured variables in closure order (sorted).
    pub fvs: Box<[Symbol]>,
    /// Closure capture `j` lives at value offset `-1 - perm[j]`.
    pub perm: Box<[u32]>,
    /// Captured region variables in closure order (sorted).
    pub frvs: Box<[RegVar]>,
    /// Closure region capture `j` lives at region offset `-1 - rperm[j]`.
    pub rperm: Box<[u32]>,
    /// Region parameters, filled at region application.
    pub rparams: Box<[RegVar]>,
    /// Value slots at non-negative offsets.
    pub nvals: usize,
    /// Region slots at non-negative offsets.
    pub nregs: usize,
}

impl Code {
    /// Untraced leading words of a closure: code id and region slots.
    pub fn raw(&self) -> usize {
        1 + self.rparams.len() + self.frvs.len()
    }
}

/// Where one closure of a [`Op::Closure`] reads its captures from.
#[derive(Debug)]
pub struct Site {
    /// The closure's code.
    pub code: CodeId,
    /// Allocation region.
    pub at: Slot,
    /// Value slots of [`Code::fvs`], in order.
    pub caps: Box<[Slot]>,
    /// Region slots of [`Code::frvs`], in order.
    pub rcaps: Box<[Slot]>,
}

/// A `letregion` binder's region: finite with a multiplicity bound, or
/// infinite (`None`); untagged when `uniform` is set and the run is
/// tag-free.
#[derive(Debug)]
pub struct RegionSpec {
    pub bound: Option<u64>,
    pub uniform: Option<UniformKind>,
}

/// A lowered program, the input of [`crate::run`].
#[derive(Debug, Default)]
pub struct Lowered {
    pub(crate) nodes: Vec<Node>,
    pub(crate) codes: Vec<Code>,
    pub(crate) sites: Vec<Site>,
    /// Region instantiations `(domain variable, caller region slot)`,
    /// sorted by domain variable.
    pub(crate) insts: Vec<Box<[(RegVar, Slot)]>>,
    pub(crate) specs: Vec<RegionSpec>,
    /// The program body. Its one region parameter is the global region;
    /// its free region variables are the program's residual regions.
    pub(crate) main: Code,
}

/// A function being lowered.
#[derive(Default)]
struct Fun {
    /// Start of this function's binders in `Lower::vals` / `Lower::regs`.
    v0: usize,
    r0: usize,
    k: usize,
    depth: u32,
    max: u32,
    rdepth: usize,
    rmax: usize,
    /// Captures in discovery order.
    caps: Vec<Symbol>,
    rcaps: Vec<RegVar>,
}

struct Lower<'t> {
    prog: Lowered,
    repr: &'t ReprInfo,
    vals: Vec<(Symbol, Slot)>,
    regs: Vec<(RegVar, Slot)>,
    cur: Fun,
    outer: Vec<Fun>,
    groups: HashMap<*const Vec<FixDef>, CodeId>,
}

/// Lowers a program whose global region variable is `global`; `repr`
/// says which `letregion` regions are finite or untagged.
pub fn lower(term: &Term, global: RegVar, repr: &ReprInfo) -> Lowered {
    let mut l = Lower {
        prog: Lowered::default(),
        repr,
        vals: Vec::new(),
        regs: Vec::new(),
        cur: Fun::default(),
        outer: Vec::new(),
        groups: HashMap::new(),
    };
    l.open(&[], None, &[global]);
    let body = l.expr(term);
    l.prog.main = l.close(body, Box::new([global]));
    l.prog
}

/// Offset of `x` among the captures, adding it if new.
fn capture<T: PartialEq>(caps: &mut Vec<T>, x: T) -> Slot {
    let i = match caps.iter().position(|c| *c == x) {
        Some(i) => i,
        None => {
            caps.push(x);
            caps.len() - 1
        }
    };
    -1 - i as Slot
}

/// Sorts captures into closure order, with each one's discovery index.
fn sorted<T: Ord + Copy>(caps: &[T]) -> (Box<[T]>, Box<[u32]>) {
    let mut perm: Vec<u32> = (0..caps.len() as u32).collect();
    perm.sort_by_key(|&i| caps[i as usize]);
    (
        perm.iter().map(|&i| caps[i as usize]).collect(),
        perm.into(),
    )
}

impl Lower<'_> {
    /// Enters a function body with sibling `names`, `param` and region
    /// parameters `rparams`.
    fn open(&mut self, names: &[Symbol], param: Option<Symbol>, rparams: &[RegVar]) {
        let f = Fun {
            v0: self.vals.len(),
            r0: self.regs.len(),
            k: names.len(),
            rdepth: rparams.len(),
            rmax: rparams.len(),
            ..Fun::default()
        };
        self.outer.push(std::mem::replace(&mut self.cur, f));
        self.vals
            .extend(names.iter().enumerate().map(|(j, n)| (*n, j as Slot)));
        self.regs
            .extend(rparams.iter().enumerate().map(|(j, r)| (*r, j as Slot)));
        if let Some(x) = param {
            self.bind(x);
        }
    }

    fn close(&mut self, body: Pc, rparams: Box<[RegVar]>) -> Code {
        let f = std::mem::replace(&mut self.cur, self.outer.pop().unwrap_or_default());
        self.vals.truncate(f.v0);
        self.regs.truncate(f.r0);
        let (fvs, perm) = sorted(&f.caps);
        let (frvs, rperm) = sorted(&f.rcaps);
        Code {
            body,
            k: f.k,
            fvs,
            perm,
            frvs,
            rperm,
            rparams,
            nvals: f.k + f.max as usize,
            nregs: f.rmax,
        }
    }

    /// Binds `x` at the current depth.
    fn bind(&mut self, x: Symbol) -> Slot {
        let slot = (self.cur.k + self.cur.depth as usize) as Slot;
        self.vals.push((x, slot));
        self.cur.depth += 1;
        self.cur.max = self.cur.max.max(self.cur.depth);
        slot
    }

    fn unbind(&mut self, n: u32) {
        self.vals.truncate(self.vals.len() - n as usize);
        self.cur.depth -= n;
    }

    /// The slot of `x`: the innermost binder of this function, else a
    /// capture; `None` if `x` is unbound in the program.
    fn var(&mut self, x: Symbol) -> Option<Slot> {
        match self.vals[self.cur.v0..].iter().rev().find(|(y, _)| *y == x) {
            Some(&(_, s)) => Some(s),
            None if self.outer.is_empty() => None,
            None => Some(capture(&mut self.cur.caps, x)),
        }
    }

    fn reg(&mut self, r: RegVar) -> Slot {
        match self.regs[self.cur.r0..].iter().rev().find(|(q, _)| *q == r) {
            Some(&(_, s)) => s,
            None => capture(&mut self.cur.rcaps, r),
        }
    }

    fn inst(&mut self, s: &Subst) -> u32 {
        let pairs = s.reg.iter().map(|(k, v)| (*k, self.reg(*v))).collect();
        self.prog.insts.push(pairs);
        (self.prog.insts.len() - 1) as u32
    }

    /// A closure-creating node for `(code, at)` members, resolving their
    /// captures in the current scope.
    fn closures(&mut self, members: &[(CodeId, RegVar)], index: usize) -> Op {
        let site = self.prog.sites.len() as u32;
        let mut unbound = None;
        for &(code, at) in members {
            let c = &self.prog.codes[code];
            let (fvs, frvs) = (c.fvs.clone(), c.frvs.clone());
            let rcaps = frvs.iter().map(|r| self.reg(*r)).collect();
            let caps = fvs
                .iter()
                .map(|x| {
                    self.var(*x).unwrap_or_else(|| {
                        unbound.get_or_insert(*x);
                        0
                    })
                })
                .collect();
            let at = self.reg(at);
            self.prog.sites.push(Site {
                code,
                at,
                caps,
                rcaps,
            });
        }
        match unbound {
            Some(x) => Op::Stuck(format!("unbound capture `{x}`").into()),
            None => Op::Closure(site, members.len() as u32, index as u32),
        }
    }

    /// Lowers the member bodies of a `fun` group on first sight; returns
    /// the first member's code id.
    fn group(&mut self, defs: &std::rc::Rc<Vec<FixDef>>) -> CodeId {
        let key = std::rc::Rc::as_ptr(defs);
        if let Some(&first) = self.groups.get(&key) {
            return first;
        }
        let first = self.prog.codes.len();
        self.groups.insert(key, first);
        self.prog.codes.extend(defs.iter().map(|_| Code::default()));
        let names: Vec<Symbol> = defs.iter().map(|d| d.f).collect();
        for (i, d) in defs.iter().enumerate() {
            self.open(&names, Some(d.param), &d.scheme.rvars);
            let body = self.expr(&d.body);
            self.prog.codes[first + i] = self.close(body, d.scheme.rvars.clone().into());
        }
        first
    }

    fn expr(&mut self, e: &Term) -> Pc {
        let depth = self.cur.depth;
        let op = match e {
            Term::Var(x) => match self.var(*x) {
                Some(s) => Op::Var(s),
                None => Op::Stuck(format!("unbound variable `{x}`").into()),
            },
            Term::Unit => Op::Unit,
            Term::Int(n) => Op::Int(*n),
            Term::Bool(b) => Op::Bool(*b),
            Term::Nil(_) => Op::Nil,
            Term::Val(_) => Op::Stuck("embedded values only occur in the formal semantics".into()),
            Term::Str(s, at) => Op::Str(s.as_str().into(), self.reg(*at)),
            Term::Lam {
                param, body, at, ..
            } => {
                let code = self.prog.codes.len();
                self.prog.codes.push(Code::default());
                self.open(&[], Some(*param), &[]);
                let body = self.expr(body);
                self.prog.codes[code] = self.close(body, Box::default());
                self.closures(&[(code, *at)], 0)
            }
            Term::Fix { defs, ats, index } => {
                let first = self.group(defs);
                let members: Vec<(CodeId, RegVar)> = (first..)
                    .zip(ats.iter().take(defs.len()).copied())
                    .collect();
                self.closures(&members, *index)
            }
            Term::App(f, a) => match f.as_ref() {
                // The fused `(f [S]) arg`: the instantiation is passed at
                // the call; the specialised closure is never allocated.
                Term::RApp { f, inst, at } => {
                    self.reg(*at);
                    let inst = self.inst(inst);
                    Op::App(self.expr(f), self.expr(a), Some(inst))
                }
                _ => Op::App(self.expr(f), self.expr(a), None),
            },
            Term::RApp { f, inst, at } => {
                let (at, inst) = (self.reg(*at), self.inst(inst));
                Op::RApp(self.expr(f), inst, at)
            }
            Term::Let { x, rhs, body } => {
                let rhs = self.expr(rhs);
                let x = self.bind(*x);
                let body = self.expr(body);
                self.unbind(1);
                Op::Let(rhs, x, body)
            }
            Term::Letregion { rvars, body, .. } => {
                let (spec, first) = (self.prog.specs.len() as u32, self.cur.rdepth);
                for rv in rvars {
                    self.prog.specs.push(RegionSpec {
                        bound: self.repr.finite.get(rv).copied(),
                        uniform: self.repr.uniform.get(rv).copied(),
                    });
                    self.regs.push((*rv, self.cur.rdepth as Slot));
                    self.cur.rdepth += 1;
                }
                self.cur.rmax = self.cur.rmax.max(self.cur.rdepth);
                let body = self.expr(body);
                self.regs.truncate(self.regs.len() - rvars.len());
                self.cur.rdepth = first;
                Op::Letregion(spec, rvars.len() as u32, first as Slot, body)
            }
            Term::Pair(a, b, at) => Op::Pair(self.expr(a), self.expr(b), self.reg(*at)),
            Term::Sel(i, a) => Op::Sel(*i, self.expr(a)),
            Term::If(c, t, f) => Op::If(self.expr(c), self.expr(t), self.expr(f)),
            Term::Prim(op, args, at) => {
                let pcs: Vec<Pc> = args.iter().map(|a| self.expr(a)).collect();
                match pcs[..] {
                    [] | [_] | [_, _] => {
                        let arg = |i: usize| pcs.get(i).copied().unwrap_or(0);
                        Op::Prim(
                            *op,
                            [arg(0), arg(1)],
                            pcs.len() as u8,
                            at.map(|r| self.reg(r)),
                        )
                    }
                    _ => Op::Stuck(format!("`{op}` with {} operands", pcs.len()).into()),
                }
            }
            Term::Cons(h, t, at) => Op::Cons(self.expr(h), self.expr(t), self.reg(*at)),
            Term::CaseList {
                scrut,
                nil_rhs,
                head,
                tail,
                cons_rhs,
            } => {
                let (scrut, nil) = (self.expr(scrut), self.expr(nil_rhs));
                let head = self.bind(*head);
                self.bind(*tail);
                let cons = self.expr(cons_rhs);
                self.unbind(2);
                Op::Case(scrut, nil, head, cons)
            }
            Term::RefNew(a, at) => Op::RefNew(self.expr(a), self.reg(*at)),
            Term::Deref(a) => Op::Deref(self.expr(a)),
            Term::Assign(a, b) => Op::Assign(self.expr(a), self.expr(b)),
            Term::Exn { name, arg, at } => {
                Op::Exn(*name, arg.as_ref().map(|a| self.expr(a)), self.reg(*at))
            }
            Term::Raise(a, _) => Op::Raise(self.expr(a)),
            Term::Handle {
                body,
                exn,
                arg,
                handler,
            } => {
                let body = self.expr(body);
                let arg = self.bind(*arg);
                let handler = self.expr(handler);
                self.unbind(1);
                Op::Handle(body, *exn, arg, handler)
            }
        };
        self.prog.nodes.push(Node { op, depth });
        (self.prog.nodes.len() - 1) as Pc
    }
}
