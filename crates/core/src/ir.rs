//! A versioned binary encoding of region-annotated programs.
//!
//! The encoding is write-only: nothing reads it back. Its length is the
//! measured size of an annotated program (the `infer.ir_kb` layer metric
//! and the basis's IR size in the benchmark), so a change to the term or
//! to region inference shows up as a change in bytes.
//!
//! The format is a straightforward tag-prefixed tree encoding with no
//! external dependencies:
//!
//! ```text
//! file    ::= magic "RMLI" ∥ version u32 ∥ program
//! program ::= term ∥ exns ∥ global ∥ schemes
//! ```
//!
//! Integers are little-endian; strings are length-prefixed UTF-8; sets,
//! maps, and vectors are length-prefixed sequences. Region, effect, and
//! type variables are written with their numeric identifiers.

use crate::terms::{FixDef, Term, Value};
use crate::types::{BoxTy, Mu, Scheme};
use crate::vars::{ArrowEff, Atom, EffVar, Effect, RegVar, TyVar};
use crate::Subst;
use rml_syntax::ast::PrimOp;
use rml_syntax::Symbol;
use std::collections::BTreeMap;

/// The file magic.
pub const MAGIC: [u8; 4] = *b"RMLI";

/// The current format version. Bump on any change to the encoding.
pub const VERSION: u32 = 1;

/// A region-annotated program: the fields of region inference's output
/// that are pure data (statistics and provenance are not encoded).
#[derive(Debug, Clone, PartialEq)]
pub struct IrProgram {
    /// The region-annotated term.
    pub term: Term,
    /// Exception constructors with their argument types.
    pub exns: BTreeMap<Symbol, Option<Mu>>,
    /// The global (top-level) region.
    pub global: RegVar,
    /// Top-level function schemes, in declaration order.
    pub schemes: Vec<(Symbol, Scheme)>,
}

/// Encodes a program (with magic and version header).
pub fn encode_program(p: &IrProgram) -> Vec<u8> {
    let mut w = W::default();
    w.buf.extend_from_slice(&MAGIC);
    w.u32(VERSION);
    w.term(&p.term);
    w.u32(p.exns.len() as u32);
    for (name, arg) in &p.exns {
        w.symbol(*name);
        w.opt(arg.as_ref(), |w, m| w.mu(m));
    }
    w.reg(p.global);
    w.u32(p.schemes.len() as u32);
    for (name, s) in &p.schemes {
        w.symbol(*name);
        w.scheme(s);
    }
    w.buf
}

// ---------------------------------------------------------------------
// Writer.
// ---------------------------------------------------------------------

#[derive(Default)]
struct W {
    buf: Vec<u8>,
}

impl W {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn symbol(&mut self, s: Symbol) {
        self.str(s.as_str());
    }
    fn reg(&mut self, r: RegVar) {
        self.u32(r.0);
    }
    fn eff_var(&mut self, e: EffVar) {
        self.u32(e.0);
    }
    fn ty_var(&mut self, a: TyVar) {
        self.u32(a.0);
    }
    fn opt<T>(&mut self, v: Option<&T>, f: impl FnOnce(&mut Self, &T)) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                f(self, x);
            }
        }
    }

    fn atom(&mut self, a: &Atom) {
        match a {
            Atom::Reg(r) => {
                self.u8(0);
                self.reg(*r);
            }
            Atom::Eff(e) => {
                self.u8(1);
                self.eff_var(*e);
            }
        }
    }

    fn effect(&mut self, phi: &Effect) {
        self.u32(phi.len() as u32);
        for a in phi {
            self.atom(a);
        }
    }

    fn arrow_eff(&mut self, ae: &ArrowEff) {
        self.eff_var(ae.handle);
        self.effect(&ae.latent);
    }

    fn mu(&mut self, m: &Mu) {
        match m {
            Mu::Var(a) => {
                self.u8(0);
                self.ty_var(*a);
            }
            Mu::Int => self.u8(1),
            Mu::Bool => self.u8(2),
            Mu::Unit => self.u8(3),
            Mu::Boxed(b, r) => {
                self.u8(4);
                self.boxty(b);
                self.reg(*r);
            }
        }
    }

    fn boxty(&mut self, b: &BoxTy) {
        match b {
            BoxTy::Pair(a, c) => {
                self.u8(0);
                self.mu(a);
                self.mu(c);
            }
            BoxTy::Arrow(a, ae, c) => {
                self.u8(1);
                self.mu(a);
                self.arrow_eff(ae);
                self.mu(c);
            }
            BoxTy::Str => self.u8(2),
            BoxTy::List(e) => {
                self.u8(3);
                self.mu(e);
            }
            BoxTy::Ref(e) => {
                self.u8(4);
                self.mu(e);
            }
            BoxTy::Exn => self.u8(5),
        }
    }

    fn scheme(&mut self, s: &Scheme) {
        self.u32(s.rvars.len() as u32);
        for r in &s.rvars {
            self.reg(*r);
        }
        self.u32(s.evars.len() as u32);
        for e in &s.evars {
            self.eff_var(*e);
        }
        self.u32(s.delta.len() as u32);
        for (a, ae) in &s.delta {
            self.ty_var(*a);
            self.arrow_eff(ae);
        }
        self.boxty(&s.body);
    }

    fn subst(&mut self, s: &Subst) {
        self.u32(s.ty.len() as u32);
        for (a, m) in &s.ty {
            self.ty_var(*a);
            self.mu(m);
        }
        self.u32(s.reg.len() as u32);
        for (k, v) in &s.reg {
            self.reg(*k);
            self.reg(*v);
        }
        self.u32(s.eff.len() as u32);
        for (k, v) in &s.eff {
            self.eff_var(*k);
            self.arrow_eff(v);
        }
    }

    fn prim_op(&mut self, op: PrimOp) {
        use PrimOp::*;
        let tag = match op {
            Add => 0,
            Sub => 1,
            Mul => 2,
            Div => 3,
            Mod => 4,
            Neg => 5,
            Lt => 6,
            Le => 7,
            Gt => 8,
            Ge => 9,
            Eq => 10,
            Ne => 11,
            Not => 12,
            Concat => 13,
            Size => 14,
            Itos => 15,
            Print => 16,
            ForceGc => 17,
        };
        self.u8(tag);
    }

    fn fix_def(&mut self, d: &FixDef) {
        self.symbol(d.f);
        self.scheme(&d.scheme);
        self.symbol(d.param);
        self.term(&d.body);
    }

    fn term(&mut self, t: &Term) {
        match t {
            Term::Var(x) => {
                self.u8(0);
                self.symbol(*x);
            }
            Term::Unit => self.u8(1),
            Term::Int(n) => {
                self.u8(2);
                self.i64(*n);
            }
            Term::Bool(b) => {
                self.u8(3);
                self.u8(*b as u8);
            }
            Term::Str(s, r) => {
                self.u8(4);
                self.str(s);
                self.reg(*r);
            }
            Term::Val(v) => {
                self.u8(5);
                self.value(v);
            }
            Term::Lam {
                param,
                ann,
                body,
                at,
            } => {
                self.u8(6);
                self.symbol(*param);
                self.mu(ann);
                self.term(body);
                self.reg(*at);
            }
            Term::App(a, b) => {
                self.u8(7);
                self.term(a);
                self.term(b);
            }
            Term::Fix { defs, ats, index } => {
                self.u8(8);
                self.u32(defs.len() as u32);
                for d in defs.iter() {
                    self.fix_def(d);
                }
                self.u32(ats.len() as u32);
                for r in ats.iter() {
                    self.reg(*r);
                }
                self.u64(*index as u64);
            }
            Term::RApp { f, inst, at } => {
                self.u8(9);
                self.term(f);
                self.subst(inst);
                self.reg(*at);
            }
            Term::Let { x, rhs, body } => {
                self.u8(10);
                self.symbol(*x);
                self.term(rhs);
                self.term(body);
            }
            Term::Letregion { rvars, evars, body } => {
                self.u8(11);
                self.u32(rvars.len() as u32);
                for r in rvars {
                    self.reg(*r);
                }
                self.u32(evars.len() as u32);
                for e in evars {
                    self.eff_var(*e);
                }
                self.term(body);
            }
            Term::Pair(a, b, r) => {
                self.u8(12);
                self.term(a);
                self.term(b);
                self.reg(*r);
            }
            Term::Sel(i, e) => {
                self.u8(13);
                self.u8(*i);
                self.term(e);
            }
            Term::If(a, b, c) => {
                self.u8(14);
                self.term(a);
                self.term(b);
                self.term(c);
            }
            Term::Prim(op, args, r) => {
                self.u8(15);
                self.prim_op(*op);
                self.u32(args.len() as u32);
                for a in args {
                    self.term(a);
                }
                self.opt(r.as_ref(), |w, r| w.reg(*r));
            }
            Term::Nil(mu) => {
                self.u8(16);
                self.mu(mu);
            }
            Term::Cons(a, b, r) => {
                self.u8(17);
                self.term(a);
                self.term(b);
                self.reg(*r);
            }
            Term::CaseList {
                scrut,
                nil_rhs,
                head,
                tail,
                cons_rhs,
            } => {
                self.u8(18);
                self.term(scrut);
                self.term(nil_rhs);
                self.symbol(*head);
                self.symbol(*tail);
                self.term(cons_rhs);
            }
            Term::RefNew(e, r) => {
                self.u8(19);
                self.term(e);
                self.reg(*r);
            }
            Term::Deref(e) => {
                self.u8(20);
                self.term(e);
            }
            Term::Assign(a, b) => {
                self.u8(21);
                self.term(a);
                self.term(b);
            }
            Term::Exn { name, arg, at } => {
                self.u8(22);
                self.symbol(*name);
                self.opt(arg.as_deref(), |w, a| w.term(a));
                self.reg(*at);
            }
            Term::Raise(e, ann) => {
                self.u8(23);
                self.term(e);
                self.mu(ann);
            }
            Term::Handle {
                body,
                exn,
                arg,
                handler,
            } => {
                self.u8(24);
                self.term(body);
                self.symbol(*exn);
                self.symbol(*arg);
                self.term(handler);
            }
        }
    }

    fn value(&mut self, v: &Value) {
        match v {
            Value::Int(n) => {
                self.u8(0);
                self.i64(*n);
            }
            Value::Bool(b) => {
                self.u8(1);
                self.u8(*b as u8);
            }
            Value::Unit => self.u8(2),
            Value::NilV(mu) => {
                self.u8(3);
                self.mu(mu);
            }
            Value::Str(s, r) => {
                self.u8(4);
                self.str(s);
                self.reg(*r);
            }
            Value::Pair(a, b, r) => {
                self.u8(5);
                self.value(a);
                self.value(b);
                self.reg(*r);
            }
            Value::Cons(a, b, r) => {
                self.u8(6);
                self.value(a);
                self.value(b);
                self.reg(*r);
            }
            Value::Clos {
                param,
                ann,
                body,
                at,
            } => {
                self.u8(7);
                self.symbol(*param);
                self.mu(ann);
                self.term(body);
                self.reg(*at);
            }
            Value::FixClos { defs, ats, index } => {
                self.u8(8);
                self.u32(defs.len() as u32);
                for d in defs.iter() {
                    self.fix_def(d);
                }
                self.u32(ats.len() as u32);
                for r in ats.iter() {
                    self.reg(*r);
                }
                self.u64(*index as u64);
            }
            Value::RefLoc(i, r) => {
                self.u8(9);
                self.u64(*i as u64);
                self.reg(*r);
            }
            Value::ExnVal { name, tag, arg, at } => {
                self.u8(10);
                self.symbol(*name);
                self.u32(*tag);
                self.opt(arg.as_deref(), |w, a| w.value(a));
                self.reg(*at);
            }
        }
    }
}
