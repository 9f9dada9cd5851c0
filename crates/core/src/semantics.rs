//! The small-step contextual dynamic semantics of Figure 6, extended to
//! the full term language.
//!
//! The rules are of the form `e --φ--> e'`: given the set `φ` of allocated
//! regions, `e` reduces in one step. `letregion ρ in e` allocates `ρ` for
//! the evaluation of `e` (rule \[Ctx\] extends `φ` when descending through
//! the context) and deallocates it when the body is a value (rule \[Reg\]).
//! Inaccessibility of deallocated regions is modelled by tracking the set
//! of allocated regions and refusing access to any region outside it —
//! such a refusal is precisely a *dangling pointer* at the level of the
//! formal semantics.
//!
//! Integers are 61-bit two's complement, as in the heap machine (whose
//! words spend three bits on a tag): literals and every arithmetic result
//! wrap to that width.
//!
//! The [`Machine`] optionally runs the containment monitor of Theorem 2
//! after every step: for well-typed terms, `φ |=c e` is preserved, which
//! is the property a reference-tracing garbage collector relies on.

use crate::gcsafe::{context_contained, value_contained, Regions};
use crate::subst::Subst;
use crate::terms::{Term, Value};
use crate::types::Mu;
use crate::vars::RegVar;
use rml_syntax::ast::PrimOp;
use std::collections::BTreeSet;
use std::fmt;

/// Wraps `n` to 61-bit two's complement.
fn wrap_int(n: i64) -> i64 {
    (n << 3) >> 3
}

/// An error during evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// Access to (allocation into, or read from) a region not in `φ`.
    DanglingRegion {
        /// The offending region.
        region: String,
        /// What the program was doing.
        context: &'static str,
    },
    /// The term was stuck for a non-region reason (ill-typed input).
    Stuck(String),
    /// The containment monitor (Theorem 2) was violated.
    ContainmentViolation(String),
    /// Fuel exhausted.
    OutOfFuel,
    /// An uncaught exception reached the top level.
    UncaughtException(String),
    /// Division by zero.
    DivByZero,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::DanglingRegion { region, context } => {
                write!(f, "dangling region {region} during {context}")
            }
            EvalError::Stuck(m) => write!(f, "stuck: {m}"),
            EvalError::ContainmentViolation(m) => write!(f, "containment violated: {m}"),
            EvalError::OutOfFuel => write!(f, "out of fuel"),
            EvalError::UncaughtException(n) => write!(f, "uncaught exception {n}"),
            EvalError::DivByZero => write!(f, "division by zero"),
        }
    }
}

impl std::error::Error for EvalError {}

/// The evaluation machine: global regions, the reference store, program
/// output, and statistics.
#[derive(Debug, Default)]
pub struct Machine {
    /// Globally allocated regions (top-level regions; `letregion`-bound
    /// regions are tracked by the context during stepping).
    pub regions: Regions,
    /// The reference store.
    pub store: Vec<Value>,
    /// The region each store cell was allocated in, parallel to
    /// [`Machine::store`]. The paper's store is region-partitioned: a
    /// cell lives in its region and is deallocated with it, so the
    /// containment monitor only constrains cells whose region is live.
    pub store_regions: Vec<RegVar>,
    /// Accumulated `print` output.
    pub output: String,
    /// Number of reduction steps taken.
    pub steps: u64,
    /// Run the Theorem 2 containment monitor after every step.
    pub monitor: bool,
}

enum Step {
    /// The term reduced.
    Reduced(Term),
    /// The term is already a value.
    IsValue(Value),
    /// A raised exception is propagating.
    Raising(Value),
}

type SResult = Result<Step, EvalError>;

/// The observable outcome of one public [`Machine::step`].
///
/// Exposing single steps (rather than only [`Machine::eval`]) is what
/// lets the metatheory tests re-run the Figure 4 checker on the
/// *intermediate* terms of an evaluation — type preservation
/// (Proposition 18) is a statement about every `e_i` in
/// `e_0 --> e_1 --> ...`, not just about `e_0`.
#[derive(Debug, Clone)]
pub enum StepResult {
    /// The term is a value: evaluation is complete.
    Done(Value),
    /// A raised exception escaped to the top level.
    Raised(Value),
    /// One reduction `e --φ--> e'` happened; continue from `e'`.
    Next(Term),
}

impl Machine {
    /// Creates a machine with a set of pre-allocated (global) regions.
    pub fn new<I: IntoIterator<Item = RegVar>>(globals: I) -> Machine {
        Machine {
            regions: globals.into_iter().collect(),
            ..Machine::default()
        }
    }

    fn require(&self, phi: &Regions, r: RegVar, context: &'static str) -> Result<(), EvalError> {
        if phi.contains(&r) {
            Ok(())
        } else {
            Err(EvalError::DanglingRegion {
                region: r.to_string(),
                context,
            })
        }
    }

    /// Evaluates `e` to a value, taking at most `fuel` steps.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError`] on dangling-region access, stuck terms,
    /// monitor violations, uncaught exceptions, or fuel exhaustion.
    pub fn eval(&mut self, e: Term, fuel: u64) -> Result<Value, EvalError> {
        let mut cur = e;
        for _ in 0..fuel {
            match self.step(cur)? {
                StepResult::Done(v) => return Ok(v),
                StepResult::Raised(v) => {
                    let name = match &v {
                        Value::ExnVal { name, .. } => name.to_string(),
                        other => format!("{other:?}"),
                    };
                    return Err(EvalError::UncaughtException(name));
                }
                StepResult::Next(e2) => cur = e2,
            }
        }
        Err(EvalError::OutOfFuel)
    }

    /// Performs exactly one reduction step `e --φ--> e'` with `φ` the
    /// machine's global regions (rule \[Ctx\] extends `φ` internally at
    /// each `letregion`), returning the reduct so callers can inspect —
    /// or re-typecheck — every intermediate term. Runs the Theorem 2
    /// containment monitor after the step when [`Machine::monitor`] is
    /// set. [`Machine::eval`] is this in a fuel loop.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError`] on dangling-region access, stuck terms, or
    /// monitor violations.
    pub fn step(&mut self, e: Term) -> Result<StepResult, EvalError> {
        let phi = self.regions.clone();
        match self.step_in(e, &phi)? {
            Step::IsValue(v) => Ok(StepResult::Done(v)),
            Step::Raising(v) => Ok(StepResult::Raised(v)),
            Step::Reduced(e2) => {
                self.steps += 1;
                if self.monitor {
                    self.check_containment(&e2)?;
                }
                Ok(StepResult::Next(e2))
            }
        }
    }

    /// The Theorem 2 monitor: `φ |=c e` plus store containment.
    fn check_containment(&self, e: &Term) -> Result<(), EvalError> {
        if !context_contained(&self.regions, e) {
            return Err(EvalError::ContainmentViolation(
                "term not context-contained in allocated regions".into(),
            ));
        }
        // Store values must be contained in the global regions extended
        // with every letregion-bound region of the term (a superset of the
        // true stack, which is sound for a violation check on globals).
        let mut all = self.regions.clone();
        collect_letregion_binders(e, &mut all);
        for (i, v) in self.store.iter().enumerate() {
            // A cell deallocated with its region is no longer part of the
            // store; only cells in live regions constrain containment.
            if !all.contains(&self.store_regions[i]) {
                continue;
            }
            if !value_contained(&all, v) {
                return Err(EvalError::ContainmentViolation(format!(
                    "store location {i} refers to a deallocated region"
                )));
            }
        }
        Ok(())
    }

    /// One step of `e --φ--> e'` (\[Ctx\] is implemented by recursion,
    /// extending `φ` at `letregion`).
    fn step_in(&mut self, e: Term, phi: &Regions) -> SResult {
        use Step::*;
        match e {
            Term::Val(v) => Ok(IsValue(v)),
            Term::Int(n) => Ok(Reduced(Term::Val(Value::Int(wrap_int(n))))),
            Term::Bool(b) => Ok(Reduced(Term::Val(Value::Bool(b)))),
            Term::Unit => Ok(Reduced(Term::Val(Value::Unit))),
            Term::Nil(mu) => Ok(Reduced(Term::Val(Value::NilV(mu)))),
            Term::Var(x) => Err(EvalError::Stuck(format!("free variable `{x}`"))),
            Term::Str(s, r) => {
                self.require(phi, r, "string allocation")?;
                Ok(Reduced(Term::Val(Value::Str(s, r))))
            }
            Term::Lam {
                param,
                ann,
                body,
                at,
            } => {
                // [Lam]
                self.require(phi, at, "closure allocation")?;
                Ok(Reduced(Term::Val(Value::Clos {
                    param,
                    ann,
                    body,
                    at,
                })))
            }
            Term::Fix { defs, ats, index } => {
                // [Fun] — all group members' regions must be allocated.
                for r in ats.iter() {
                    self.require(phi, *r, "fun-closure allocation")?;
                }
                Ok(Reduced(Term::Val(Value::FixClos { defs, ats, index })))
            }
            Term::Letregion { rvars, evars, body } => {
                // [Reg] when the body is a value; otherwise [Ctx] with
                // φ extended (alpha-renaming colliding binders first).
                if let Term::Val(v) = *body {
                    return Ok(Reduced(Term::Val(v)));
                }
                if let Some(v) = raise_value(&body) {
                    // Unwinding deallocates the region.
                    return Ok(Reduced(Term::Raise(
                        Box::new(Term::Val(v.clone())),
                        Mu::Unit,
                    )));
                }
                let (rvars, body) = if rvars.iter().any(|r| phi.contains(r)) {
                    let mut ren = Subst::default();
                    let fresh: Vec<RegVar> = rvars
                        .iter()
                        .map(|r| {
                            let nr = RegVar::fresh();
                            ren.reg.insert(*r, nr);
                            nr
                        })
                        .collect();
                    (fresh, Box::new(body.apply_subst(&ren)))
                } else {
                    (rvars, body)
                };
                let mut phi2 = phi.clone();
                phi2.extend(rvars.iter().copied());
                match self.step_in(*body, &phi2)? {
                    IsValue(v) => Ok(Reduced(Term::Val(v))), // [Reg]
                    Raising(v) => Ok(Raising(v)),
                    Reduced(b2) => Ok(Reduced(Term::Letregion {
                        rvars,
                        evars,
                        body: Box::new(b2),
                    })),
                }
            }
            Term::App(e1, e2) => {
                match self.spine(*e1, phi)? {
                    Ok(v1) => match self.spine(*e2, phi)? {
                        Ok(v2) => {
                            // [App]
                            let Value::Clos {
                                param, body, at, ..
                            } = v1
                            else {
                                return Err(EvalError::Stuck(
                                    "application of a non-closure".into(),
                                ));
                            };
                            self.require(phi, at, "closure call")?;
                            Ok(Reduced(body.subst_value(param, &v2)))
                        }
                        Err(step) => Ok(rebuild(step, |b2| {
                            Term::App(Box::new(Term::Val(v1)), Box::new(b2))
                        })),
                    },
                    Err(step) => Ok(rebuild(step, |a2| Term::App(Box::new(a2), e2))),
                }
            }
            Term::RApp { f, inst, at } => match self.spine(*f, phi)? {
                Ok(v) => {
                    // [Rapp]
                    let Value::FixClos { defs, ats, index } = v.clone() else {
                        return Err(EvalError::Stuck(
                            "region application of a non-fun value".into(),
                        ));
                    };
                    self.require(phi, ats[index], "region application")?;
                    self.require(phi, at, "specialised-closure allocation")?;
                    let def = &defs[index];
                    let tau = inst.boxty(&def.scheme.body);
                    // Freshen the unfolded body's letregion binders: terms
                    // are identified up to renaming of bound variables, and
                    // recursive unfoldings would otherwise shadow the
                    // currently active instances.
                    let mut body2 = freshen_letregions(&def.body.apply_subst(&inst));
                    for (j, dj) in defs.iter().enumerate() {
                        body2 = body2.subst_value(
                            dj.f,
                            &Value::FixClos {
                                defs: defs.clone(),
                                ats: ats.clone(),
                                index: j,
                            },
                        );
                    }
                    complete_rec_ty_insts(&mut body2, &inst);
                    Ok(Reduced(Term::Lam {
                        param: def.param,
                        ann: Mu::Boxed(Box::new(tau), at),
                        body: Box::new(body2),
                        at,
                    }))
                }
                Err(step) => Ok(rebuild(step, |f2| Term::RApp {
                    f: Box::new(f2),
                    inst,
                    at,
                })),
            },
            Term::Let { x, rhs, body } => match self.spine(*rhs, phi)? {
                Ok(v) => Ok(Reduced(body.subst_value(x, &v))), // [Let]
                Err(step) => Ok(rebuild(step, |r2| Term::Let {
                    x,
                    rhs: Box::new(r2),
                    body,
                })),
            },
            Term::Pair(e1, e2, r) => match self.spine(*e1, phi)? {
                Ok(v1) => match self.spine(*e2, phi)? {
                    Ok(v2) => {
                        // [Pair]
                        self.require(phi, r, "pair allocation")?;
                        Ok(Reduced(Term::Val(Value::Pair(
                            Box::new(v1),
                            Box::new(v2),
                            r,
                        ))))
                    }
                    Err(step) => Ok(rebuild(step, |b2| {
                        Term::Pair(Box::new(Term::Val(v1)), Box::new(b2), r)
                    })),
                },
                Err(step) => Ok(rebuild(step, |a2| Term::Pair(Box::new(a2), e2, r))),
            },
            Term::Sel(i, e) => match self.spine(*e, phi)? {
                Ok(v) => {
                    // [Sel1]/[Sel2]
                    let Value::Pair(a, b, r) = v else {
                        return Err(EvalError::Stuck("projection of a non-pair".into()));
                    };
                    self.require(phi, r, "pair projection")?;
                    Ok(Reduced(Term::Val(if i == 1 { *a } else { *b })))
                }
                Err(step) => Ok(rebuild(step, |e2| Term::Sel(i, Box::new(e2)))),
            },
            Term::If(c, t, f) => match self.spine(*c, phi)? {
                Ok(v) => match v {
                    Value::Bool(true) => Ok(Reduced(*t)),
                    Value::Bool(false) => Ok(Reduced(*f)),
                    _ => Err(EvalError::Stuck("if on a non-boolean".into())),
                },
                Err(step) => Ok(rebuild(step, |c2| Term::If(Box::new(c2), t, f))),
            },
            Term::Prim(op, args, res) => {
                let mut vals = Vec::new();
                let mut rest = args.into_iter();
                for a in rest.by_ref() {
                    match self.spine(a, phi)? {
                        Ok(v) => vals.push(v),
                        Err(step) => {
                            let done: Vec<Term> = vals.into_iter().map(Term::Val).collect();
                            return Ok(rebuild(step, |a2| {
                                let mut newargs = done;
                                newargs.push(a2);
                                newargs.extend(rest);
                                Term::Prim(op, newargs, res)
                            }));
                        }
                    }
                }
                let v = self.apply_prim(op, &vals, res, phi)?;
                Ok(Reduced(Term::Val(v)))
            }
            Term::Cons(h, t, r) => match self.spine(*h, phi)? {
                Ok(vh) => match self.spine(*t, phi)? {
                    Ok(vt) => {
                        self.require(phi, r, "cons allocation")?;
                        Ok(Reduced(Term::Val(Value::Cons(
                            Box::new(vh),
                            Box::new(vt),
                            r,
                        ))))
                    }
                    Err(step) => Ok(rebuild(step, |t2| {
                        Term::Cons(Box::new(Term::Val(vh)), Box::new(t2), r)
                    })),
                },
                Err(step) => Ok(rebuild(step, |h2| Term::Cons(Box::new(h2), t, r))),
            },
            Term::CaseList {
                scrut,
                nil_rhs,
                head,
                tail,
                cons_rhs,
            } => match self.spine(*scrut, phi)? {
                Ok(v) => match v {
                    Value::NilV(_) => Ok(Reduced(*nil_rhs)),
                    Value::Cons(h, t, r) => {
                        self.require(phi, r, "list case")?;
                        Ok(Reduced(
                            cons_rhs.subst_value(head, &h).subst_value(tail, &t),
                        ))
                    }
                    _ => Err(EvalError::Stuck("case on a non-list".into())),
                },
                Err(step) => Ok(rebuild(step, |s2| Term::CaseList {
                    scrut: Box::new(s2),
                    nil_rhs,
                    head,
                    tail,
                    cons_rhs,
                })),
            },
            Term::RefNew(e, r) => match self.spine(*e, phi)? {
                Ok(v) => {
                    self.require(phi, r, "ref allocation")?;
                    self.store.push(v);
                    self.store_regions.push(r);
                    Ok(Reduced(Term::Val(Value::RefLoc(self.store.len() - 1, r))))
                }
                Err(step) => Ok(rebuild(step, |e2| Term::RefNew(Box::new(e2), r))),
            },
            Term::Deref(e) => match self.spine(*e, phi)? {
                Ok(v) => {
                    let Value::RefLoc(i, r) = v else {
                        return Err(EvalError::Stuck("deref of a non-ref".into()));
                    };
                    self.require(phi, r, "dereference")?;
                    Ok(Reduced(Term::Val(self.store[i].clone())))
                }
                Err(step) => Ok(rebuild(step, |e2| Term::Deref(Box::new(e2)))),
            },
            Term::Assign(e1, e2) => match self.spine(*e1, phi)? {
                Ok(v1) => match self.spine(*e2, phi)? {
                    Ok(v2) => {
                        let Value::RefLoc(i, r) = v1 else {
                            return Err(EvalError::Stuck("assign to a non-ref".into()));
                        };
                        self.require(phi, r, "assignment")?;
                        self.store[i] = v2;
                        Ok(Reduced(Term::Val(Value::Unit)))
                    }
                    Err(step) => Ok(rebuild(step, |b2| {
                        Term::Assign(Box::new(Term::Val(v1)), Box::new(b2))
                    })),
                },
                Err(step) => Ok(rebuild(step, |a2| Term::Assign(Box::new(a2), e2))),
            },
            Term::Exn { name, arg, at } => match arg {
                None => {
                    self.require(phi, at, "exception allocation")?;
                    Ok(Reduced(Term::Val(Value::ExnVal {
                        name,
                        tag: 0,
                        arg: None,
                        at,
                    })))
                }
                Some(a) => match self.spine(*a, phi)? {
                    Ok(v) => {
                        self.require(phi, at, "exception allocation")?;
                        Ok(Reduced(Term::Val(Value::ExnVal {
                            name,
                            tag: 0,
                            arg: Some(Box::new(v)),
                            at,
                        })))
                    }
                    Err(step) => Ok(rebuild(step, |a2| Term::Exn {
                        name,
                        arg: Some(Box::new(a2)),
                        at,
                    })),
                },
            },
            Term::Raise(e, ann) => match self.spine(*e, phi)? {
                Ok(v) => Ok(Raising(v)),
                Err(step) => Ok(rebuild(step, |e2| Term::Raise(Box::new(e2), ann))),
            },
            Term::Handle {
                body,
                exn,
                arg,
                handler,
            } => {
                if let Term::Val(v) = *body {
                    return Ok(Reduced(Term::Val(v)));
                }
                match self.step_in(*body, phi)? {
                    IsValue(v) => Ok(Reduced(Term::Val(v))),
                    Raising(v) => {
                        let matches = matches!(&v, Value::ExnVal { name, .. } if *name == exn);
                        if matches {
                            let Value::ExnVal { arg: earg, at, .. } = &v else {
                                unreachable!()
                            };
                            self.require(phi, *at, "exception match")?;
                            let bound = earg.as_ref().map(|b| (**b).clone()).unwrap_or(Value::Unit);
                            Ok(Reduced(handler.subst_value(arg, &bound)))
                        } else {
                            Ok(Raising(v))
                        }
                    }
                    Reduced(b2) => Ok(Reduced(Term::Handle {
                        body: Box::new(b2),
                        exn,
                        arg,
                        handler,
                    })),
                }
            }
        }
    }

    /// Helper for spine positions: either the subterm is already a value
    /// (`Ok(v)`), or it stepped/raised (`Err(step)`).
    fn spine(&mut self, e: Term, phi: &Regions) -> Result<Result<Value, Step>, EvalError> {
        if let Term::Val(v) = e {
            return Ok(Ok(v));
        }
        Ok(Err(self.step_in(e, phi)?))
    }

    fn apply_prim(
        &mut self,
        op: PrimOp,
        vals: &[Value],
        res: Option<RegVar>,
        phi: &Regions,
    ) -> Result<Value, EvalError> {
        use PrimOp::*;
        let int = |v: &Value| -> Result<i64, EvalError> {
            match v {
                Value::Int(n) => Ok(*n),
                _ => Err(EvalError::Stuck(format!("`{op}` on a non-int"))),
            }
        };
        let strv = |m: &Machine, v: &Value| -> Result<String, EvalError> {
            match v {
                Value::Str(s, r) => {
                    m.require(phi, *r, "string read")?;
                    Ok(s.clone())
                }
                _ => Err(EvalError::Stuck(format!("`{op}` on a non-string"))),
            }
        };
        let arith = |n: i64| Value::Int(wrap_int(n));
        Ok(match op {
            Add => arith(int(&vals[0])?.wrapping_add(int(&vals[1])?)),
            Sub => arith(int(&vals[0])?.wrapping_sub(int(&vals[1])?)),
            Mul => arith(int(&vals[0])?.wrapping_mul(int(&vals[1])?)),
            Div => {
                let d = int(&vals[1])?;
                if d == 0 {
                    return Err(EvalError::DivByZero);
                }
                arith(int(&vals[0])?.wrapping_div(d))
            }
            Mod => {
                let d = int(&vals[1])?;
                if d == 0 {
                    return Err(EvalError::DivByZero);
                }
                arith(int(&vals[0])?.wrapping_rem(d))
            }
            Neg => arith(int(&vals[0])?.wrapping_neg()),
            Lt => Value::Bool(int(&vals[0])? < int(&vals[1])?),
            Le => Value::Bool(int(&vals[0])? <= int(&vals[1])?),
            Gt => Value::Bool(int(&vals[0])? > int(&vals[1])?),
            Ge => Value::Bool(int(&vals[0])? >= int(&vals[1])?),
            Eq => Value::Bool(self.value_eq(&vals[0], &vals[1], phi)?),
            Ne => Value::Bool(!self.value_eq(&vals[0], &vals[1], phi)?),
            Not => match &vals[0] {
                Value::Bool(b) => Value::Bool(!b),
                _ => return Err(EvalError::Stuck("`not` on a non-bool".into())),
            },
            Concat => {
                let a = strv(self, &vals[0])?;
                let b = strv(self, &vals[1])?;
                let r = res.ok_or(EvalError::Stuck("`^` without result region".into()))?;
                self.require(phi, r, "string allocation")?;
                Value::Str(a + &b, r)
            }
            Size => Value::Int(strv(self, &vals[0])?.len() as i64),
            Itos => {
                let n = int(&vals[0])?;
                let r = res.ok_or(EvalError::Stuck("`itos` without result region".into()))?;
                self.require(phi, r, "string allocation")?;
                Value::Str(n.to_string(), r)
            }
            Print => {
                let s = strv(self, &vals[0])?;
                self.output.push_str(&s);
                Value::Unit
            }
            ForceGc => Value::Unit, // no tracing collector in the formal semantics
        })
    }

    /// Structural equality with region-liveness checks on reads.
    fn value_eq(&self, a: &Value, b: &Value, phi: &Regions) -> Result<bool, EvalError> {
        Ok(match (a, b) {
            (Value::Int(x), Value::Int(y)) => x == y,
            (Value::Bool(x), Value::Bool(y)) => x == y,
            (Value::Unit, Value::Unit) => true,
            (Value::NilV(_), Value::NilV(_)) => true,
            (Value::NilV(_), Value::Cons(..)) | (Value::Cons(..), Value::NilV(_)) => false,
            (Value::Str(x, r1), Value::Str(y, r2)) => {
                self.require(phi, *r1, "string comparison")?;
                self.require(phi, *r2, "string comparison")?;
                x == y
            }
            (Value::Pair(a1, b1, r1), Value::Pair(a2, b2, r2))
            | (Value::Cons(a1, b1, r1), Value::Cons(a2, b2, r2)) => {
                self.require(phi, *r1, "structural comparison")?;
                self.require(phi, *r2, "structural comparison")?;
                self.value_eq(a1, a2, phi)? && self.value_eq(b1, b2, phi)?
            }
            (Value::RefLoc(i, _), Value::RefLoc(j, _)) => i == j,
            (Value::ExnVal { name: n1, .. }, Value::ExnVal { name: n2, .. }) => n1 == n2,
            _ => return Err(EvalError::Stuck("equality on incompatible values".into())),
        })
    }
}

/// Renames every letregion-bound region (and discharged effect variable)
/// of a term to fresh variables. Used when \[Rapp\] unfolds a function body,
/// so that recursive unfoldings never shadow active regions.
fn freshen_letregions(e: &Term) -> Term {
    match e {
        Term::Letregion { rvars, evars, body } => {
            let mut ren = Subst::default();
            let rvars2: Vec<RegVar> = rvars
                .iter()
                .map(|r| {
                    let fresh = RegVar::fresh();
                    ren.reg.insert(*r, fresh);
                    fresh
                })
                .collect();
            let evars2: Vec<crate::vars::EffVar> = evars
                .iter()
                .map(|ev| {
                    let fresh = crate::vars::EffVar::fresh();
                    ren.eff
                        .insert(*ev, crate::vars::ArrowEff::new(fresh, Default::default()));
                    fresh
                })
                .collect();
            let body2 = freshen_letregions(&body.apply_subst(&ren));
            Term::Letregion {
                rvars: rvars2,
                evars: evars2,
                body: Box::new(body2),
            }
        }
        Term::Val(_) => e.clone(),
        Term::Lam {
            param,
            ann,
            body,
            at,
        } => Term::Lam {
            param: *param,
            ann: ann.clone(),
            body: Box::new(freshen_letregions(body)),
            at: *at,
        },
        Term::Fix { defs, ats, index } => {
            let defs2: Vec<crate::terms::FixDef> = defs
                .iter()
                .map(|d| crate::terms::FixDef {
                    f: d.f,
                    scheme: d.scheme.clone(),
                    param: d.param,
                    body: freshen_letregions(&d.body),
                })
                .collect();
            Term::Fix {
                defs: std::rc::Rc::new(defs2),
                ats: ats.clone(),
                index: *index,
            }
        }
        Term::App(a, b) => Term::App(
            Box::new(freshen_letregions(a)),
            Box::new(freshen_letregions(b)),
        ),
        Term::RApp { f, inst, at } => Term::RApp {
            f: Box::new(freshen_letregions(f)),
            inst: inst.clone(),
            at: *at,
        },
        Term::Let { x, rhs, body } => Term::Let {
            x: *x,
            rhs: Box::new(freshen_letregions(rhs)),
            body: Box::new(freshen_letregions(body)),
        },
        Term::Pair(a, b, r) => Term::Pair(
            Box::new(freshen_letregions(a)),
            Box::new(freshen_letregions(b)),
            *r,
        ),
        Term::Sel(i, a) => Term::Sel(*i, Box::new(freshen_letregions(a))),
        Term::If(a, b, c) => Term::If(
            Box::new(freshen_letregions(a)),
            Box::new(freshen_letregions(b)),
            Box::new(freshen_letregions(c)),
        ),
        Term::Prim(op, args, r) => {
            Term::Prim(*op, args.iter().map(freshen_letregions).collect(), *r)
        }
        Term::Cons(a, b, r) => Term::Cons(
            Box::new(freshen_letregions(a)),
            Box::new(freshen_letregions(b)),
            *r,
        ),
        Term::CaseList {
            scrut,
            nil_rhs,
            head,
            tail,
            cons_rhs,
        } => Term::CaseList {
            scrut: Box::new(freshen_letregions(scrut)),
            nil_rhs: Box::new(freshen_letregions(nil_rhs)),
            head: *head,
            tail: *tail,
            cons_rhs: Box::new(freshen_letregions(cons_rhs)),
        },
        Term::RefNew(a, r) => Term::RefNew(Box::new(freshen_letregions(a)), *r),
        Term::Deref(a) => Term::Deref(Box::new(freshen_letregions(a))),
        Term::Assign(a, b) => Term::Assign(
            Box::new(freshen_letregions(a)),
            Box::new(freshen_letregions(b)),
        ),
        Term::Exn { name, arg, at } => Term::Exn {
            name: *name,
            arg: arg.as_ref().map(|a| Box::new(freshen_letregions(a))),
            at: *at,
        },
        Term::Raise(a, ann) => Term::Raise(Box::new(freshen_letregions(a)), ann.clone()),
        Term::Handle {
            body,
            exn,
            arg,
            handler,
        } => Term::Handle {
            body: Box::new(freshen_letregions(body)),
            exn: *exn,
            arg: *arg,
            handler: Box::new(freshen_letregions(handler)),
        },
        leaf => leaf.clone(),
    }
}

/// If the term is `raise v` for a value `v`, returns the value.
/// Completes the type instantiations of recursive call sites in an
/// unfolded `fix` body.
///
/// Monomorphic type recursion elaborates a recursive `RApp` with an empty
/// `Sᵗ` — the group's type variables are bound once, around the whole
/// `fix`, so a recursive call instantiates regions and effects only. Once
/// \[Rapp\] closes an unfolding over those variables, each recursive site
/// (now a region application of a `FixClos` *value*, whose scheme
/// re-binds the full ∆) must record the type instances the unfolding was
/// driven with, or the residual term no longer satisfies the coverage
/// condition of Figure 4 — this is the substitution lemma behind type
/// preservation (Proposition 18) made computational.
fn complete_rec_ty_insts(e: &mut Term, outer: &Subst) {
    if outer.ty.is_empty() {
        return; // type-monomorphic group: nothing to record
    }
    match e {
        Term::Var(_) | Term::Unit | Term::Int(_) | Term::Bool(_) | Term::Nil(_) | Term::Str(..) => {
        }
        // Values are closed and check under their own ∆; recursive sites
        // inside `FixClos` definition bodies use the monomorphised
        // recursion variable and must stay as elaborated.
        Term::Val(_) => {}
        Term::RApp { f, inst, .. } => {
            if let Term::Val(Value::FixClos { defs, index, .. }) = f.as_ref() {
                for (a, _) in &defs[*index].scheme.delta {
                    if !inst.ty.contains_key(a) {
                        if let Some(m) = outer.ty.get(a) {
                            inst.ty.insert(*a, m.clone());
                        }
                    }
                }
            } else {
                complete_rec_ty_insts(f, outer);
            }
        }
        Term::Lam { body, .. } => complete_rec_ty_insts(body, outer),
        Term::Fix { defs, .. } => {
            for d in std::rc::Rc::make_mut(defs).iter_mut() {
                complete_rec_ty_insts(&mut d.body, outer);
            }
        }
        Term::App(a, b) | Term::Assign(a, b) => {
            complete_rec_ty_insts(a, outer);
            complete_rec_ty_insts(b, outer);
        }
        Term::Let { rhs, body, .. } => {
            complete_rec_ty_insts(rhs, outer);
            complete_rec_ty_insts(body, outer);
        }
        Term::Letregion { body, .. } => complete_rec_ty_insts(body, outer),
        Term::Pair(a, b, _) | Term::Cons(a, b, _) => {
            complete_rec_ty_insts(a, outer);
            complete_rec_ty_insts(b, outer);
        }
        Term::Sel(_, a) | Term::Deref(a) | Term::RefNew(a, _) | Term::Raise(a, _) => {
            complete_rec_ty_insts(a, outer);
        }
        Term::If(a, b, c) => {
            complete_rec_ty_insts(a, outer);
            complete_rec_ty_insts(b, outer);
            complete_rec_ty_insts(c, outer);
        }
        Term::Prim(_, args, _) => {
            for a in args {
                complete_rec_ty_insts(a, outer);
            }
        }
        Term::CaseList {
            scrut,
            nil_rhs,
            cons_rhs,
            ..
        } => {
            complete_rec_ty_insts(scrut, outer);
            complete_rec_ty_insts(nil_rhs, outer);
            complete_rec_ty_insts(cons_rhs, outer);
        }
        Term::Exn { arg, .. } => {
            if let Some(a) = arg {
                complete_rec_ty_insts(a, outer);
            }
        }
        Term::Handle { body, handler, .. } => {
            complete_rec_ty_insts(body, outer);
            complete_rec_ty_insts(handler, outer);
        }
    }
}

fn raise_value(e: &Term) -> Option<&Value> {
    match e {
        Term::Raise(inner, _) => match &**inner {
            Term::Val(v) => Some(v),
            _ => None,
        },
        _ => None,
    }
}

fn rebuild(step: Step, f: impl FnOnce(Term) -> Term) -> Step {
    match step {
        Step::Reduced(e) => Step::Reduced(f(e)),
        Step::Raising(v) => Step::Raising(v),
        Step::IsValue(_) => unreachable!("spine() returns values separately"),
    }
}

fn collect_letregion_binders(e: &Term, out: &mut BTreeSet<RegVar>) {
    if let Term::Letregion { rvars, .. } = e {
        out.extend(rvars.iter().copied());
    }
    match e {
        Term::Val(_)
        | Term::Var(_)
        | Term::Unit
        | Term::Int(_)
        | Term::Bool(_)
        | Term::Str(..)
        | Term::Nil(_) => {}
        Term::Lam { body, .. } | Term::Letregion { body, .. } => {
            collect_letregion_binders(body, out)
        }
        Term::Fix { defs, .. } => {
            for d in defs.iter() {
                collect_letregion_binders(&d.body, out);
            }
        }
        Term::App(a, b) | Term::Assign(a, b) | Term::Pair(a, b, _) | Term::Cons(a, b, _) => {
            collect_letregion_binders(a, out);
            collect_letregion_binders(b, out);
        }
        Term::RApp { f, .. } => collect_letregion_binders(f, out),
        Term::Let { rhs, body, .. } => {
            collect_letregion_binders(rhs, out);
            collect_letregion_binders(body, out);
        }
        Term::Sel(_, e) | Term::RefNew(e, _) | Term::Deref(e) | Term::Raise(e, _) => {
            collect_letregion_binders(e, out)
        }
        Term::If(a, b, c) => {
            collect_letregion_binders(a, out);
            collect_letregion_binders(b, out);
            collect_letregion_binders(c, out);
        }
        Term::Prim(_, args, _) => {
            for a in args {
                collect_letregion_binders(a, out);
            }
        }
        Term::CaseList {
            scrut,
            nil_rhs,
            cons_rhs,
            ..
        } => {
            collect_letregion_binders(scrut, out);
            collect_letregion_binders(nil_rhs, out);
            collect_letregion_binders(cons_rhs, out);
        }
        Term::Exn { arg, .. } => {
            if let Some(a) = arg {
                collect_letregion_binders(a, out);
            }
        }
        Term::Handle { body, handler, .. } => {
            collect_letregion_binders(body, out);
            collect_letregion_binders(handler, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Mu;
    use crate::vars::{ArrowEff, EffVar};

    fn run(e: Term) -> Result<Value, EvalError> {
        Machine::default().eval(e, 100_000)
    }

    #[test]
    fn arithmetic() {
        let e = Term::Prim(PrimOp::Add, vec![Term::Int(2), Term::Int(3)], None);
        assert_eq!(run(e).unwrap(), Value::Int(5));
    }

    #[test]
    fn letregion_allocates_and_deallocates() {
        // letregion ρ in #1 ((1, 2) at ρ)
        let r = RegVar::fresh();
        let e = Term::letregion(
            vec![r],
            vec![],
            Term::Sel(
                1,
                Box::new(Term::Pair(
                    Box::new(Term::Int(1)),
                    Box::new(Term::Int(2)),
                    r,
                )),
            ),
        );
        assert_eq!(run(e).unwrap(), Value::Int(1));
    }

    #[test]
    fn allocation_outside_letregion_is_dangling() {
        let r = RegVar::fresh();
        let e = Term::Pair(Box::new(Term::Int(1)), Box::new(Term::Int(2)), r);
        assert!(matches!(run(e), Err(EvalError::DanglingRegion { .. })));
    }

    #[test]
    fn escaping_value_read_after_dealloc_is_dangling() {
        // letregion ρ' in #1 (letregion ρ in (1,2) at ρ)  — the pair
        // escapes its region; the projection then touches a dead region.
        let r = RegVar::fresh();
        let e = Term::Sel(
            1,
            Box::new(Term::letregion(
                vec![r],
                vec![],
                Term::Pair(Box::new(Term::Int(1)), Box::new(Term::Int(2)), r),
            )),
        );
        assert!(matches!(run(e), Err(EvalError::DanglingRegion { .. })));
    }

    #[test]
    fn beta_reduction() {
        let r = RegVar::fresh();
        let mu = Mu::arrow(Mu::Int, ArrowEff::fresh_empty(), Mu::Int, r);
        let e = Term::letregion(
            vec![r],
            vec![],
            Term::app(
                Term::lam(
                    "x",
                    mu,
                    Term::Prim(PrimOp::Mul, vec![Term::var("x"), Term::var("x")], None),
                    r,
                ),
                Term::Int(7),
            ),
        );
        assert_eq!(run(e).unwrap(), Value::Int(49));
    }

    #[test]
    fn if_and_bool() {
        let e = Term::If(
            Box::new(Term::Prim(
                PrimOp::Lt,
                vec![Term::Int(1), Term::Int(2)],
                None,
            )),
            Box::new(Term::Int(10)),
            Box::new(Term::Int(20)),
        );
        assert_eq!(run(e).unwrap(), Value::Int(10));
    }

    #[test]
    fn refs_read_and_write() {
        let r = RegVar::fresh();
        // letregion r in let c = ref 1 at r in (c := 42; !c)
        let e = Term::letregion(
            vec![r],
            vec![],
            Term::let_(
                "c",
                Term::RefNew(Box::new(Term::Int(1)), r),
                Term::let_(
                    "_",
                    Term::Assign(Box::new(Term::var("c")), Box::new(Term::Int(42))),
                    Term::Deref(Box::new(Term::var("c"))),
                ),
            ),
        );
        assert_eq!(run(e).unwrap(), Value::Int(42));
    }

    #[test]
    fn exceptions_raise_and_handle() {
        let r = RegVar::fresh();
        let exn = rml_syntax::Symbol::intern("E");
        let e = Term::letregion(
            vec![r],
            vec![],
            Term::Handle {
                body: Box::new(Term::Raise(
                    Box::new(Term::Exn {
                        name: exn,
                        arg: Some(Box::new(Term::Int(13))),
                        at: r,
                    }),
                    Mu::Int,
                )),
                exn,
                arg: rml_syntax::Symbol::intern("x"),
                handler: Box::new(Term::var("x")),
            },
        );
        assert_eq!(run(e).unwrap(), Value::Int(13));
    }

    #[test]
    fn uncaught_exception_reported() {
        let r = RegVar::fresh();
        let exn = rml_syntax::Symbol::intern("Boom");
        let e = Term::letregion(
            vec![r],
            vec![],
            Term::Raise(
                Box::new(Term::Exn {
                    name: exn,
                    arg: None,
                    at: r,
                }),
                Mu::Int,
            ),
        );
        assert!(matches!(run(e), Err(EvalError::UncaughtException(n)) if n == "Boom"));
    }

    #[test]
    fn unwinding_skips_nonmatching_handlers() {
        let r = RegVar::fresh();
        let e1 = rml_syntax::Symbol::intern("E1");
        let e2 = rml_syntax::Symbol::intern("E2");
        let raise = Term::Raise(
            Box::new(Term::Exn {
                name: e2,
                arg: Some(Box::new(Term::Int(5))),
                at: r,
            }),
            Mu::Int,
        );
        let inner = Term::Handle {
            body: Box::new(raise),
            exn: e1,
            arg: rml_syntax::Symbol::intern("x"),
            handler: Box::new(Term::Int(0)),
        };
        let outer = Term::Handle {
            body: Box::new(inner),
            exn: e2,
            arg: rml_syntax::Symbol::intern("y"),
            handler: Box::new(Term::var("y")),
        };
        let e = Term::letregion(vec![r], vec![], outer);
        assert_eq!(run(e).unwrap(), Value::Int(5));
    }

    #[test]
    fn lists_and_case() {
        let r = RegVar::fresh();
        let list_mu = Mu::list(Mu::Int, r);
        // case 1 :: nil of nil => 0 | h :: t => h + 100
        let e = Term::letregion(
            vec![r],
            vec![],
            Term::CaseList {
                scrut: Box::new(Term::Cons(
                    Box::new(Term::Int(1)),
                    Box::new(Term::Nil(list_mu)),
                    r,
                )),
                nil_rhs: Box::new(Term::Int(0)),
                head: rml_syntax::Symbol::intern("h"),
                tail: rml_syntax::Symbol::intern("t"),
                cons_rhs: Box::new(Term::Prim(
                    PrimOp::Add,
                    vec![Term::var("h"), Term::Int(100)],
                    None,
                )),
            },
        );
        assert_eq!(run(e).unwrap(), Value::Int(101));
    }

    #[test]
    fn strings_and_prims() {
        let mut m = Machine::default();
        let r = RegVar::fresh();
        let e = Term::letregion(
            vec![r],
            vec![],
            Term::Prim(
                PrimOp::Size,
                vec![Term::Prim(
                    PrimOp::Concat,
                    vec![Term::Str("oh".into(), r), Term::Str("no".into(), r)],
                    Some(r),
                )],
                None,
            ),
        );
        assert_eq!(m.eval(e, 1000).unwrap(), Value::Int(4));
    }

    #[test]
    fn print_accumulates_output() {
        let mut m = Machine::default();
        let r = RegVar::fresh();
        let e = Term::letregion(
            vec![r],
            vec![],
            Term::Prim(PrimOp::Print, vec![Term::Str("hi".into(), r)], None),
        );
        m.eval(e, 1000).unwrap();
        assert_eq!(m.output, "hi");
    }

    #[test]
    fn monitor_accepts_wellformed_evaluation() {
        let r = RegVar::fresh();
        let mut m = Machine {
            monitor: true,
            ..Machine::default()
        };
        let e = Term::letregion(
            vec![r],
            vec![],
            Term::Sel(
                2,
                Box::new(Term::Pair(
                    Box::new(Term::Int(1)),
                    Box::new(Term::Int(2)),
                    r,
                )),
            ),
        );
        assert_eq!(m.eval(e, 1000).unwrap(), Value::Int(2));
    }

    #[test]
    fn rapp_specialises_fun_closures() {
        // fun f [ρ1] x = (x, x) at ρ1; letregion ρ2 in #1 ((f [ρ2] at ρ2) 9)
        let rho1 = RegVar::fresh();
        let rho2 = RegVar::fresh();
        let rho_f = RegVar::fresh();
        let eps = EffVar::fresh();
        let scheme = crate::types::Scheme {
            rvars: vec![rho1],
            evars: vec![eps],
            delta: vec![],
            body: crate::types::BoxTy::Arrow(
                Mu::Int,
                ArrowEff::new(eps, crate::vars::effect([crate::vars::Atom::Reg(rho1)])),
                Mu::pair(Mu::Int, Mu::Int, rho1),
            ),
        };
        let def = crate::terms::FixDef {
            f: rml_syntax::Symbol::intern("f"),
            scheme,
            param: rml_syntax::Symbol::intern("x"),
            body: Term::Pair(Box::new(Term::var("x")), Box::new(Term::var("x")), rho1),
        };
        let fix = Term::Fix {
            defs: std::rc::Rc::new(vec![def]),
            ats: std::rc::Rc::new(vec![rho_f]),
            index: 0,
        };
        let mut inst = Subst::default();
        inst.reg.insert(rho1, rho2);
        inst.eff.insert(eps, ArrowEff::fresh_empty());
        let e = Term::letregion(
            vec![rho_f],
            vec![],
            Term::let_(
                "f",
                fix,
                Term::letregion(
                    vec![rho2],
                    vec![],
                    Term::Sel(
                        1,
                        Box::new(Term::app(
                            Term::RApp {
                                f: Box::new(Term::var("f")),
                                inst,
                                at: rho2,
                            },
                            Term::Int(9),
                        )),
                    ),
                ),
            ),
        );
        assert_eq!(run(e).unwrap(), Value::Int(9));
    }

    fn fix1(name: &str, scheme: crate::types::Scheme, param: &str, body: Term, at: RegVar) -> Term {
        Term::Fix {
            defs: std::rc::Rc::new(vec![crate::terms::FixDef {
                f: rml_syntax::Symbol::intern(name),
                scheme,
                param: rml_syntax::Symbol::intern(param),
                body,
            }]),
            ats: std::rc::Rc::new(vec![at]),
            index: 0,
        }
    }

    #[test]
    fn recursion_via_fix() {
        // fun fact [ε] n = if n = 0 then 1 else n * (fact [ε'] at ρf) (n-1)
        let rho_f = RegVar::fresh();
        let eps = EffVar::fresh();
        let f = rml_syntax::Symbol::intern("fact");
        let n = rml_syntax::Symbol::intern("n");
        let scheme = crate::types::Scheme {
            rvars: vec![],
            evars: vec![eps],
            delta: vec![],
            body: crate::types::BoxTy::Arrow(
                Mu::Int,
                ArrowEff::new(eps, Default::default()),
                Mu::Int,
            ),
        };
        let recall = Term::app(
            Term::RApp {
                f: Box::new(Term::Var(f)),
                inst: Subst::effects([(eps, ArrowEff::fresh_empty())]),
                at: rho_f,
            },
            Term::Prim(PrimOp::Sub, vec![Term::Var(n), Term::Int(1)], None),
        );
        let body = Term::If(
            Box::new(Term::Prim(
                PrimOp::Eq,
                vec![Term::Var(n), Term::Int(0)],
                None,
            )),
            Box::new(Term::Int(1)),
            Box::new(Term::Prim(PrimOp::Mul, vec![Term::Var(n), recall], None)),
        );
        let e = Term::letregion(
            vec![rho_f],
            vec![],
            Term::let_(
                "fact",
                fix1("fact", scheme, "n", body, rho_f),
                Term::app(
                    Term::RApp {
                        f: Box::new(Term::var("fact")),
                        inst: Subst::effects([(eps, ArrowEff::fresh_empty())]),
                        at: rho_f,
                    },
                    Term::Int(5),
                ),
            ),
        );
        assert_eq!(run(e).unwrap(), Value::Int(120));
    }

    #[test]
    fn raising_out_of_letregion_deallocates() {
        // The [Reg]-frame is peeled during unwinding; a subsequent use of
        // the region would be dangling (we only check the unwind works).
        let r = RegVar::fresh();
        let rg = RegVar::fresh();
        let exn = rml_syntax::Symbol::intern("E");
        let inner = Term::letregion(
            vec![r],
            vec![],
            Term::let_(
                "_",
                Term::Str("doomed".into(), r),
                Term::Raise(
                    Box::new(Term::Exn {
                        name: exn,
                        arg: Some(Box::new(Term::Int(5))),
                        at: rg,
                    }),
                    Mu::Int,
                ),
            ),
        );
        let e = Term::letregion(
            vec![rg],
            vec![],
            Term::Handle {
                body: Box::new(inner),
                exn,
                arg: rml_syntax::Symbol::intern("x"),
                handler: Box::new(Term::var("x")),
            },
        );
        assert_eq!(run(e).unwrap(), Value::Int(13 - 8));
    }

    #[test]
    fn handler_rethrow_propagates() {
        let rg = RegVar::fresh();
        let e1 = rml_syntax::Symbol::intern("A");
        let e2 = rml_syntax::Symbol::intern("B");
        // raise A, caught, handler raises B, caught by outer.
        let inner = Term::Handle {
            body: Box::new(Term::Raise(
                Box::new(Term::Exn {
                    name: e1,
                    arg: None,
                    at: rg,
                }),
                Mu::Int,
            )),
            exn: e1,
            arg: rml_syntax::Symbol::intern("u"),
            handler: Box::new(Term::Raise(
                Box::new(Term::Exn {
                    name: e2,
                    arg: Some(Box::new(Term::Int(42))),
                    at: rg,
                }),
                Mu::Int,
            )),
        };
        let e = Term::letregion(
            vec![rg],
            vec![],
            Term::Handle {
                body: Box::new(inner),
                exn: e2,
                arg: rml_syntax::Symbol::intern("x"),
                handler: Box::new(Term::var("x")),
            },
        );
        assert_eq!(run(e).unwrap(), Value::Int(42));
    }

    #[test]
    fn monitor_allows_refs_to_live_regions() {
        let r = RegVar::fresh();
        let mut m = Machine {
            monitor: true,
            ..Machine::default()
        };
        m.regions.insert(r); // global region for the cell
        let e = Term::let_(
            "c",
            Term::RefNew(Box::new(Term::Int(1)), r),
            Term::Deref(Box::new(Term::var("c"))),
        );
        assert_eq!(m.eval(e, 1000).unwrap(), Value::Int(1));
    }

    #[test]
    fn fuel_exhaustion_reported() {
        let e = Term::Prim(PrimOp::Add, vec![Term::Int(1), Term::Int(2)], None);
        let mut m = Machine::default();
        assert!(matches!(m.eval(e, 1), Err(EvalError::OutOfFuel)));
    }

    #[test]
    fn division_by_zero_reported() {
        let e = Term::Prim(PrimOp::Div, vec![Term::Int(1), Term::Int(0)], None);
        assert!(matches!(run(e), Err(EvalError::DivByZero)));
    }

    #[test]
    fn mutual_recursion_via_fix_group() {
        // fun even n = if n = 0 then true else odd (n-1)
        // and odd n = if n = 0 then false else even (n-1)
        let rho = RegVar::fresh();
        let eps_e = EffVar::fresh();
        let eps_o = EffVar::fresh();
        let even = rml_syntax::Symbol::intern("even");
        let odd = rml_syntax::Symbol::intern("odd");
        let n = rml_syntax::Symbol::intern("n");
        let mk_scheme = |eps: EffVar| crate::types::Scheme {
            rvars: vec![],
            evars: vec![eps],
            delta: vec![],
            body: crate::types::BoxTy::Arrow(
                Mu::Int,
                ArrowEff::new(eps, Default::default()),
                Mu::Bool,
            ),
        };
        let call = |target: rml_syntax::Symbol, eps: EffVar| {
            Term::app(
                Term::RApp {
                    f: Box::new(Term::Var(target)),
                    inst: Subst::effects([(eps, ArrowEff::fresh_empty())]),
                    at: rho,
                },
                Term::Prim(PrimOp::Sub, vec![Term::Var(n), Term::Int(1)], None),
            )
        };
        let even_body = Term::If(
            Box::new(Term::Prim(
                PrimOp::Eq,
                vec![Term::Var(n), Term::Int(0)],
                None,
            )),
            Box::new(Term::Bool(true)),
            Box::new(call(odd, eps_o)),
        );
        let odd_body = Term::If(
            Box::new(Term::Prim(
                PrimOp::Eq,
                vec![Term::Var(n), Term::Int(0)],
                None,
            )),
            Box::new(Term::Bool(false)),
            Box::new(call(even, eps_e)),
        );
        let defs = std::rc::Rc::new(vec![
            crate::terms::FixDef {
                f: even,
                scheme: mk_scheme(eps_e),
                param: n,
                body: even_body,
            },
            crate::terms::FixDef {
                f: odd,
                scheme: mk_scheme(eps_o),
                param: n,
                body: odd_body,
            },
        ]);
        let ats = std::rc::Rc::new(vec![rho, rho]);
        let e = Term::letregion(
            vec![rho],
            vec![],
            Term::let_(
                "even",
                Term::Fix {
                    defs,
                    ats,
                    index: 0,
                },
                Term::app(
                    Term::RApp {
                        f: Box::new(Term::var("even")),
                        inst: Subst::effects([(eps_e, ArrowEff::fresh_empty())]),
                        at: rho,
                    },
                    Term::Int(7),
                ),
            ),
        );
        assert_eq!(run(e).unwrap(), Value::Bool(false));
    }
}
