//! Algorithm W over the source AST, producing a typed AST.

use crate::tast::{TBind, TExpr, TExprKind, TFunBind, TProgram};
use crate::types::{Scheme, Ty, TyStore};
use rml_session::Span;
use rml_syntax::ast::{Decl, Expr, ExprKind, PrimOp, Program, TyAnn};
use rml_syntax::Symbol;
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// A type error with a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeError {
    /// The message.
    pub msg: String,
    /// Span of the smallest enclosing expression, when known.
    pub span: Option<Span>,
}

impl TypeError {
    /// Attaches `span` unless a (more precise, innermost) span is already
    /// recorded.
    fn at(mut self, span: Span) -> TypeError {
        if self.span.is_none() && !span.is_dummy() {
            self.span = Some(span);
        }
        self
    }
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "type error: {}", self.msg)
    }
}

impl std::error::Error for TypeError {}

fn err<T>(msg: impl Into<String>) -> Result<T, TypeError> {
    Err(TypeError {
        msg: msg.into(),
        span: None,
    })
}

#[derive(Debug, Clone)]
enum EnvEntry {
    /// Generalised binding.
    Poly(Scheme),
    /// Monomorphic binding (parameters, case binders, in-progress
    /// recursive functions).
    Mono(Ty),
    /// Exception constructor with optional argument type.
    Exn(Option<Ty>),
}

struct Infer {
    store: TyStore,
    env: Vec<(Symbol, EnvEntry)>,
    next_quant: u32,
    /// Fresh eta-expansion parameters drawn so far.
    next_var: u32,
}

type IResult<T> = Result<T, TypeError>;

/// The names treated as builtins when not bound in the environment.
const BUILTINS: &[(&str, PrimOp)] = &[
    ("print", PrimOp::Print),
    ("itos", PrimOp::Itos),
    ("size", PrimOp::Size),
    ("forcegc", PrimOp::ForceGc),
];

fn builtin_sig(op: PrimOp) -> (Ty, Ty) {
    match op {
        PrimOp::Print => (Ty::Str, Ty::Unit),
        PrimOp::Itos => (Ty::Int, Ty::Str),
        PrimOp::Size => (Ty::Str, Ty::Int),
        PrimOp::ForceGc => (Ty::Unit, Ty::Unit),
        _ => unreachable!("not a named builtin"),
    }
}

impl Infer {
    fn fresh_var(&mut self) -> Symbol {
        self.next_var += 1;
        Symbol::fresh("x", self.next_var - 1)
    }

    fn lookup(&self, x: Symbol) -> Option<&EnvEntry> {
        self.env.iter().rev().find(|(y, _)| *y == x).map(|(_, e)| e)
    }

    fn unify(&mut self, a: &Ty, b: &Ty, what: &str) -> IResult<()> {
        self.store.unify(a, b).map_err(|(x, y)| TypeError {
            msg: format!("cannot unify `{x}` with `{y}` in {what}"),
            span: None,
        })
    }

    fn resolve(&self, t: &Ty) -> Ty {
        self.store.zonk_with(t, &mut Ty::Meta)
    }

    fn instantiate(&mut self, s: &Scheme) -> (Ty, Vec<Ty>) {
        let args: Vec<Ty> = s.vars.iter().map(|_| self.store.fresh()).collect();
        let body = self.resolve(&s.body);
        let map: Vec<(u32, &Ty)> = s.vars.iter().copied().zip(args.iter()).collect();
        (crate::types::subst_quant(&body, &map), args)
    }

    fn env_metas(&self) -> BTreeSet<u32> {
        let mut out = BTreeSet::new();
        for (_, entry) in &self.env {
            match entry {
                EnvEntry::Poly(s) => self.store.free_metas(&s.body, &mut out),
                EnvEntry::Mono(t) => self.store.free_metas(t, &mut out),
                EnvEntry::Exn(Some(t)) => self.store.free_metas(t, &mut out),
                EnvEntry::Exn(None) => {}
            }
        }
        out
    }

    /// Generalises `ty`, destructively binding generalisable metas to fresh
    /// `Quant` variables in the store (so all other references resolve
    /// consistently).
    fn generalize(&mut self, ty: &Ty) -> Scheme {
        let env_metas = self.env_metas();
        let mut free = BTreeSet::new();
        self.store.free_metas(ty, &mut free);
        let mut vars = Vec::new();
        for m in free {
            if !env_metas.contains(&m) {
                let q = self.next_quant;
                self.next_quant += 1;
                self.store
                    .unify(&Ty::Meta(m), &Ty::Quant(q))
                    .expect("binding fresh quant cannot fail");
                vars.push(q);
            }
        }
        Scheme {
            vars,
            body: self.resolve(ty),
        }
    }

    fn ann_to_ty(&mut self, ann: &TyAnn, tvs: &mut HashMap<Symbol, Ty>) -> Ty {
        match ann {
            TyAnn::Var(v) => tvs.entry(*v).or_insert_with(|| self.store.fresh()).clone(),
            TyAnn::Int => Ty::Int,
            TyAnn::String => Ty::Str,
            TyAnn::Bool => Ty::Bool,
            TyAnn::Unit => Ty::Unit,
            TyAnn::Exn => Ty::Exn,
            TyAnn::List(e) => Ty::List(Box::new(self.ann_to_ty(e, tvs))),
            TyAnn::Ref(e) => Ty::Ref(Box::new(self.ann_to_ty(e, tvs))),
            TyAnn::Pair(a, b) => Ty::Pair(
                Box::new(self.ann_to_ty(a, tvs)),
                Box::new(self.ann_to_ty(b, tvs)),
            ),
            TyAnn::Arrow(a, b) => Ty::Arrow(
                Box::new(self.ann_to_ty(a, tvs)),
                Box::new(self.ann_to_ty(b, tvs)),
            ),
        }
    }

    fn prim_result(&mut self, op: PrimOp, args: &[TExpr]) -> IResult<Ty> {
        use PrimOp::*;
        let req = |me: &mut Self, i: usize, t: Ty| -> IResult<()> {
            let at = args[i].ty.clone();
            me.unify(&at, &t, &format!("argument of `{op}`"))
        };
        Ok(match op {
            Add | Sub | Mul | Div | Mod => {
                req(self, 0, Ty::Int)?;
                req(self, 1, Ty::Int)?;
                Ty::Int
            }
            Neg => {
                req(self, 0, Ty::Int)?;
                Ty::Int
            }
            Lt | Le | Gt | Ge => {
                req(self, 0, Ty::Int)?;
                req(self, 1, Ty::Int)?;
                Ty::Bool
            }
            Eq | Ne => {
                let (a, b) = (args[0].ty.clone(), args[1].ty.clone());
                self.unify(&a, &b, "operands of equality")?;
                Ty::Bool
            }
            Not => {
                req(self, 0, Ty::Bool)?;
                Ty::Bool
            }
            Concat => {
                req(self, 0, Ty::Str)?;
                req(self, 1, Ty::Str)?;
                Ty::Str
            }
            Size => {
                req(self, 0, Ty::Str)?;
                Ty::Int
            }
            Itos => {
                req(self, 0, Ty::Int)?;
                Ty::Str
            }
            Print => {
                req(self, 0, Ty::Str)?;
                Ty::Unit
            }
            ForceGc => {
                req(self, 0, Ty::Unit)?;
                Ty::Unit
            }
        })
    }

    /// Infers `e`, attaching the innermost available span to any error.
    fn expr(&mut self, e: &Expr, tvs: &mut HashMap<Symbol, Ty>) -> IResult<TExpr> {
        self.expr_inner(e, tvs).map_err(|te| te.at(e.span))
    }

    fn expr_inner(&mut self, e: &Expr, tvs: &mut HashMap<Symbol, Ty>) -> IResult<TExpr> {
        let span = e.span;
        match &e.kind {
            ExprKind::Unit => Ok(TExpr {
                span,
                ty: Ty::Unit,
                kind: TExprKind::Unit,
            }),
            ExprKind::Int(n) => Ok(TExpr {
                span,
                ty: Ty::Int,
                kind: TExprKind::Int(*n),
            }),
            ExprKind::Str(s) => Ok(TExpr {
                span,
                ty: Ty::Str,
                kind: TExprKind::Str(s.clone()),
            }),
            ExprKind::Bool(b) => Ok(TExpr {
                span,
                ty: Ty::Bool,
                kind: TExprKind::Bool(*b),
            }),
            ExprKind::Var(x) => self.var_occurrence(*x, span),
            ExprKind::Lam { param, ann, body } => {
                let pt = match ann {
                    Some(a) => self.ann_to_ty(a, tvs),
                    None => self.store.fresh(),
                };
                self.env.push((*param, EnvEntry::Mono(pt.clone())));
                let tb = self.expr(body, tvs)?;
                self.env.pop();
                Ok(TExpr {
                    span,
                    ty: Ty::Arrow(Box::new(pt.clone()), Box::new(tb.ty.clone())),
                    kind: TExprKind::Lam {
                        param: *param,
                        param_ty: pt,
                        body: Box::new(tb),
                    },
                })
            }
            ExprKind::App(f, a) => {
                // Exception constructors and builtins applied directly
                // become dedicated nodes instead of general applications.
                if let ExprKind::Var(x) = &f.kind {
                    match self.lookup(*x).cloned() {
                        Some(EnvEntry::Exn(arg_ty)) => {
                            let Some(arg_ty) = arg_ty else {
                                return err(format!(
                                    "exception `{x}` takes no argument but one was supplied"
                                ));
                            };
                            let ta = self.expr(a, tvs)?;
                            let t = ta.ty.clone();
                            self.unify(&t, &arg_ty, &format!("argument of exception `{x}`"))?;
                            return Ok(TExpr {
                                span,
                                ty: Ty::Exn,
                                kind: TExprKind::ConApp {
                                    exn: *x,
                                    arg: Some(Box::new(ta)),
                                },
                            });
                        }
                        None => {
                            if let Some((_, op)) = BUILTINS.iter().find(|(n, _)| *n == x.as_str()) {
                                let ta = self.expr(a, tvs)?;
                                let rt = self.prim_result(*op, std::slice::from_ref(&ta))?;
                                return Ok(TExpr {
                                    span,
                                    ty: rt,
                                    kind: TExprKind::Prim(*op, vec![ta]),
                                });
                            }
                        }
                        _ => {}
                    }
                }
                let tf = self.expr(f, tvs)?;
                let ta = self.expr(a, tvs)?;
                let r = self.store.fresh();
                let want = Ty::Arrow(Box::new(ta.ty.clone()), Box::new(r.clone()));
                self.unify(&tf.ty.clone(), &want, "function application")?;
                Ok(TExpr {
                    span,
                    ty: r,
                    kind: TExprKind::App(Box::new(tf), Box::new(ta)),
                })
            }
            ExprKind::Let { decls, body } => {
                let saved = self.env.len();
                let binds = self.do_binds(decls, tvs)?;
                let tb = self.expr(body, tvs)?;
                self.env.truncate(saved);
                Ok(TExpr {
                    span,
                    ty: tb.ty.clone(),
                    kind: TExprKind::Let {
                        binds,
                        body: Box::new(tb),
                    },
                })
            }
            ExprKind::Pair(a, b) => {
                let ta = self.expr(a, tvs)?;
                let tb = self.expr(b, tvs)?;
                Ok(TExpr {
                    span,
                    ty: Ty::Pair(Box::new(ta.ty.clone()), Box::new(tb.ty.clone())),
                    kind: TExprKind::Pair(Box::new(ta), Box::new(tb)),
                })
            }
            ExprKind::Sel(i, e) => {
                let te = self.expr(e, tvs)?;
                let a = self.store.fresh();
                let b = self.store.fresh();
                let want = Ty::Pair(Box::new(a.clone()), Box::new(b.clone()));
                self.unify(&te.ty.clone(), &want, "projection")?;
                Ok(TExpr {
                    span,
                    ty: if *i == 1 { a } else { b },
                    kind: TExprKind::Sel(*i, Box::new(te)),
                })
            }
            ExprKind::If(c, t, f) => {
                let tc = self.expr(c, tvs)?;
                self.unify(&tc.ty.clone(), &Ty::Bool, "condition of `if`")?;
                let tt = self.expr(t, tvs)?;
                let tf = self.expr(f, tvs)?;
                self.unify(&tt.ty.clone(), &tf.ty.clone(), "branches of `if`")?;
                Ok(TExpr {
                    span,
                    ty: tt.ty.clone(),
                    kind: TExprKind::If(Box::new(tc), Box::new(tt), Box::new(tf)),
                })
            }
            ExprKind::Prim(op, args) => {
                let targs: Vec<TExpr> = args
                    .iter()
                    .map(|a| self.expr(a, tvs))
                    .collect::<IResult<_>>()?;
                let rt = self.prim_result(*op, &targs)?;
                Ok(TExpr {
                    span,
                    ty: rt,
                    kind: TExprKind::Prim(*op, targs),
                })
            }
            ExprKind::Nil => {
                let a = self.store.fresh();
                Ok(TExpr {
                    span,
                    ty: Ty::List(Box::new(a)),
                    kind: TExprKind::Nil,
                })
            }
            ExprKind::Cons(h, t) => {
                let th = self.expr(h, tvs)?;
                let tt = self.expr(t, tvs)?;
                let want = Ty::List(Box::new(th.ty.clone()));
                self.unify(&tt.ty.clone(), &want, "tail of `::`")?;
                Ok(TExpr {
                    span,
                    ty: want,
                    kind: TExprKind::Cons(Box::new(th), Box::new(tt)),
                })
            }
            ExprKind::CaseList {
                scrut,
                nil_rhs,
                head,
                tail,
                cons_rhs,
            } => {
                let ts = self.expr(scrut, tvs)?;
                let a = self.store.fresh();
                let want = Ty::List(Box::new(a.clone()));
                self.unify(&ts.ty.clone(), &want, "scrutinee of `case`")?;
                let tn = self.expr(nil_rhs, tvs)?;
                self.env.push((*head, EnvEntry::Mono(a.clone())));
                self.env.push((*tail, EnvEntry::Mono(want)));
                let tc = self.expr(cons_rhs, tvs)?;
                self.env.pop();
                self.env.pop();
                self.unify(&tn.ty.clone(), &tc.ty.clone(), "branches of `case`")?;
                Ok(TExpr {
                    span,
                    ty: tn.ty.clone(),
                    kind: TExprKind::CaseList {
                        scrut: Box::new(ts),
                        nil_rhs: Box::new(tn),
                        head: *head,
                        tail: *tail,
                        cons_rhs: Box::new(tc),
                    },
                })
            }
            ExprKind::Ref(e) => {
                let te = self.expr(e, tvs)?;
                Ok(TExpr {
                    span,
                    ty: Ty::Ref(Box::new(te.ty.clone())),
                    kind: TExprKind::Ref(Box::new(te)),
                })
            }
            ExprKind::Deref(e) => {
                let te = self.expr(e, tvs)?;
                let a = self.store.fresh();
                self.unify(&te.ty.clone(), &Ty::Ref(Box::new(a.clone())), "dereference")?;
                Ok(TExpr {
                    span,
                    ty: a,
                    kind: TExprKind::Deref(Box::new(te)),
                })
            }
            ExprKind::Assign(r, v) => {
                let tr = self.expr(r, tvs)?;
                let tv = self.expr(v, tvs)?;
                let want = Ty::Ref(Box::new(tv.ty.clone()));
                self.unify(&tr.ty.clone(), &want, "assignment")?;
                Ok(TExpr {
                    span,
                    ty: Ty::Unit,
                    kind: TExprKind::Assign(Box::new(tr), Box::new(tv)),
                })
            }
            ExprKind::Seq(a, b) => {
                let ta = self.expr(a, tvs)?;
                let tb = self.expr(b, tvs)?;
                Ok(TExpr {
                    span,
                    ty: tb.ty.clone(),
                    kind: TExprKind::Seq(Box::new(ta), Box::new(tb)),
                })
            }
            ExprKind::Ann(e, ann) => {
                let te = self.expr(e, tvs)?;
                let want = self.ann_to_ty(ann, tvs);
                self.unify(&te.ty.clone(), &want, "type annotation")?;
                Ok(te)
            }
            ExprKind::Raise(e) => {
                let te = self.expr(e, tvs)?;
                self.unify(&te.ty.clone(), &Ty::Exn, "operand of `raise`")?;
                let r = self.store.fresh();
                Ok(TExpr {
                    span,
                    ty: r,
                    kind: TExprKind::Raise(Box::new(te)),
                })
            }
            ExprKind::Handle {
                body,
                exn,
                arg,
                handler,
            } => {
                let tb = self.expr(body, tvs)?;
                let arg_ty = match self.lookup(*exn) {
                    Some(EnvEntry::Exn(t)) => t.clone().unwrap_or(Ty::Unit),
                    Some(_) => return err(format!("`{exn}` is not an exception constructor")),
                    None => return err(format!("unbound exception `{exn}`")),
                };
                self.env.push((*arg, EnvEntry::Mono(arg_ty.clone())));
                let th = self.expr(handler, tvs)?;
                self.env.pop();
                self.unify(&tb.ty.clone(), &th.ty.clone(), "handler result")?;
                Ok(TExpr {
                    span,
                    ty: tb.ty.clone(),
                    kind: TExprKind::Handle {
                        body: Box::new(tb),
                        exn: *exn,
                        arg: *arg,
                        arg_ty,
                        handler: Box::new(th),
                    },
                })
            }
            ExprKind::Con(name, arg) => {
                // Produced only by desugaring; type like ConApp.
                let arg_ty = match self.lookup(*name) {
                    Some(EnvEntry::Exn(t)) => t.clone(),
                    _ => return err(format!("unbound exception `{name}`")),
                };
                let targ = match (arg, arg_ty) {
                    (None, None) => None,
                    (Some(a), Some(t)) => {
                        let ta = self.expr(a, tvs)?;
                        self.unify(&ta.ty.clone(), &t, "exception argument")?;
                        Some(Box::new(ta))
                    }
                    _ => return err(format!("arity mismatch for exception `{name}`")),
                };
                Ok(TExpr {
                    span,
                    ty: Ty::Exn,
                    kind: TExprKind::ConApp {
                        exn: *name,
                        arg: targ,
                    },
                })
            }
        }
    }

    fn var_occurrence(&mut self, x: Symbol, span: Span) -> IResult<TExpr> {
        match self.lookup(x).cloned() {
            Some(EnvEntry::Poly(s)) => {
                let (ty, inst) = self.instantiate(&s);
                Ok(TExpr {
                    span,
                    ty,
                    kind: TExprKind::Var {
                        name: x,
                        inst: Some(inst),
                    },
                })
            }
            Some(EnvEntry::Mono(t)) => Ok(TExpr {
                span,
                ty: t,
                kind: TExprKind::Var {
                    name: x,
                    inst: None,
                },
            }),
            Some(EnvEntry::Exn(arg)) => match arg {
                None => Ok(TExpr {
                    span,
                    ty: Ty::Exn,
                    kind: TExprKind::ConApp { exn: x, arg: None },
                }),
                Some(at) => {
                    // Constructor used as a value: eta-expand.
                    let p = self.fresh_var();
                    let body = TExpr {
                        span,
                        ty: Ty::Exn,
                        kind: TExprKind::ConApp {
                            exn: x,
                            arg: Some(Box::new(TExpr {
                                span,
                                ty: at.clone(),
                                kind: TExprKind::Var {
                                    name: p,
                                    inst: None,
                                },
                            })),
                        },
                    };
                    Ok(TExpr {
                        span,
                        ty: Ty::Arrow(Box::new(at.clone()), Box::new(Ty::Exn)),
                        kind: TExprKind::Lam {
                            param: p,
                            param_ty: at,
                            body: Box::new(body),
                        },
                    })
                }
            },
            None => {
                if let Some((_, op)) = BUILTINS.iter().find(|(n, _)| *n == x.as_str()) {
                    // Builtin used as a value: eta-expand.
                    let (at, rt) = builtin_sig(*op);
                    let p = self.fresh_var();
                    let arg = TExpr {
                        span,
                        ty: at.clone(),
                        kind: TExprKind::Var {
                            name: p,
                            inst: None,
                        },
                    };
                    let body = TExpr {
                        span,
                        ty: rt.clone(),
                        kind: TExprKind::Prim(*op, vec![arg]),
                    };
                    Ok(TExpr {
                        span,
                        ty: Ty::Arrow(Box::new(at.clone()), Box::new(rt)),
                        kind: TExprKind::Lam {
                            param: p,
                            param_ty: at,
                            body: Box::new(body),
                        },
                    })
                } else {
                    err(format!("unbound variable `{x}`"))
                }
            }
        }
    }

    fn do_binds(&mut self, decls: &[Decl], tvs: &mut HashMap<Symbol, Ty>) -> IResult<Vec<TBind>> {
        let mut out = Vec::new();
        for d in decls {
            match d {
                Decl::Val(x, e) => {
                    let te = self.expr(e, tvs)?;
                    let scheme = if is_value(e) {
                        self.generalize(&te.ty.clone())
                    } else {
                        Scheme::mono(self.resolve(&te.ty))
                    };
                    self.env.push((*x, EnvEntry::Poly(scheme.clone())));
                    out.push(TBind::Val {
                        name: *x,
                        scheme,
                        rhs: te,
                    });
                }
                Decl::Fun(binds) => {
                    // Monomorphic recursion: bind every function of the
                    // group to a fresh meta while inferring the bodies.
                    let metas: Vec<Ty> = binds.iter().map(|_| self.store.fresh()).collect();
                    let rec_base = self.env.len();
                    for (b, m) in binds.iter().zip(&metas) {
                        self.env.push((b.name, EnvEntry::Mono(m.clone())));
                    }
                    let mut partial = Vec::new();
                    for (b, m) in binds.iter().zip(&metas) {
                        let (fun_ty, param, param_ty, body) = self.fun_body(b, tvs)?;
                        self.unify(&fun_ty, m, &format!("recursive uses of `{}`", b.name))?;
                        partial.push((b.name, fun_ty, param, param_ty, body, b.span));
                    }
                    self.env.truncate(rec_base);
                    // Joint generalisation over the group.
                    let env_metas = self.env_metas();
                    let mut assigned: Vec<u32> = Vec::new();
                    for (_, fun_ty, _, _, _, _) in &partial {
                        let mut free = BTreeSet::new();
                        self.store.free_metas(fun_ty, &mut free);
                        for m in free {
                            if !env_metas.contains(&m) {
                                let q = self.next_quant;
                                self.next_quant += 1;
                                self.store
                                    .unify(&Ty::Meta(m), &Ty::Quant(q))
                                    .expect("binding fresh quant cannot fail");
                                assigned.push(q);
                            }
                        }
                    }
                    let mut group = Vec::new();
                    for (name, fun_ty, param, param_ty, body, span) in partial {
                        let body_ty = self.resolve(&fun_ty);
                        let mut qs = BTreeSet::new();
                        body_ty.quant_vars(&mut qs);
                        let vars: Vec<u32> = assigned
                            .iter()
                            .copied()
                            .filter(|q| qs.contains(q))
                            .collect();
                        let scheme = Scheme {
                            vars,
                            body: body_ty,
                        };
                        self.env.push((name, EnvEntry::Poly(scheme.clone())));
                        group.push(TFunBind {
                            name,
                            scheme,
                            param,
                            param_ty,
                            body,
                            span,
                        });
                    }
                    out.push(TBind::Fun(group));
                }
                Decl::Exception(name, ann) => {
                    let arg = ann.as_ref().map(|a| self.ann_to_ty(a, tvs));
                    self.env.push((*name, EnvEntry::Exn(arg.clone())));
                    out.push(TBind::Exception { name: *name, arg });
                }
            }
        }
        Ok(out)
    }

    /// Infers one `fun` binding, currying extra parameters into lambdas.
    /// Returns the function type, first parameter, its type, and the body.
    fn fun_body(
        &mut self,
        b: &rml_syntax::ast::FunBind,
        tvs: &mut HashMap<Symbol, Ty>,
    ) -> IResult<(Ty, Symbol, Ty, TExpr)> {
        assert!(!b.params.is_empty(), "fun binding without parameters");
        let saved = self.env.len();
        let ptys: Vec<Ty> = b
            .params
            .iter()
            .map(|(_, ann)| match ann {
                Some(a) => self.ann_to_ty(a, tvs),
                None => self.store.fresh(),
            })
            .collect();
        for ((p, _), t) in b.params.iter().zip(&ptys) {
            self.env.push((*p, EnvEntry::Mono(t.clone())));
        }
        let tb = self.expr(&b.body, tvs)?;
        if let Some(r) = &b.ret {
            let want = self.ann_to_ty(r, tvs);
            self.unify(
                &tb.ty.clone(),
                &want,
                &format!("result annotation of `{}`", b.name),
            )?;
        }
        self.env.truncate(saved);
        // Curry parameters 2..n into nested lambdas, which inherit the
        // binding's name span.
        let span = b.span;
        let mut acc = tb;
        for ((p, _), t) in b.params.iter().zip(&ptys).skip(1).rev() {
            acc = TExpr {
                span,
                ty: Ty::Arrow(Box::new(t.clone()), Box::new(acc.ty.clone())),
                kind: TExprKind::Lam {
                    param: *p,
                    param_ty: t.clone(),
                    body: Box::new(acc),
                },
            };
        }
        let fun_ty = Ty::Arrow(Box::new(ptys[0].clone()), Box::new(acc.ty.clone()));
        Ok((fun_ty, b.params[0].0, ptys[0].clone(), acc))
    }
}

/// SML value restriction: only syntactic values may be generalised.
fn is_value(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::Unit
        | ExprKind::Int(_)
        | ExprKind::Str(_)
        | ExprKind::Bool(_)
        | ExprKind::Var(_)
        | ExprKind::Lam { .. }
        | ExprKind::Nil => true,
        ExprKind::Pair(a, b) | ExprKind::Cons(a, b) => is_value(a) && is_value(b),
        ExprKind::Ann(e, _) => is_value(e),
        _ => false,
    }
}

// ---------------------------------------------------------------------
// Final zonk and validation.
// ---------------------------------------------------------------------

fn zonk_ty(store: &TyStore, t: &mut Ty) {
    *t = store.zonk_default(t, &Ty::Unit);
}

fn zonk_expr(store: &TyStore, e: &mut TExpr) {
    zonk_ty(store, &mut e.ty);
    match &mut e.kind {
        TExprKind::Var { inst: Some(ts), .. } => {
            for t in ts {
                zonk_ty(store, t);
            }
        }
        TExprKind::Lam { param_ty, body, .. } => {
            zonk_ty(store, param_ty);
            zonk_expr(store, body);
        }
        TExprKind::App(a, b)
        | TExprKind::Pair(a, b)
        | TExprKind::Cons(a, b)
        | TExprKind::Assign(a, b)
        | TExprKind::Seq(a, b) => {
            zonk_expr(store, a);
            zonk_expr(store, b);
        }
        TExprKind::Let { binds, body } => {
            for b in binds.iter_mut() {
                zonk_bind(store, b);
            }
            zonk_expr(store, body);
        }
        TExprKind::Sel(_, a) | TExprKind::Ref(a) | TExprKind::Deref(a) | TExprKind::Raise(a) => {
            zonk_expr(store, a)
        }
        TExprKind::If(a, b, c) => {
            zonk_expr(store, a);
            zonk_expr(store, b);
            zonk_expr(store, c);
        }
        TExprKind::Prim(_, args) => {
            for a in args {
                zonk_expr(store, a);
            }
        }
        TExprKind::CaseList {
            scrut,
            nil_rhs,
            cons_rhs,
            ..
        } => {
            zonk_expr(store, scrut);
            zonk_expr(store, nil_rhs);
            zonk_expr(store, cons_rhs);
        }
        TExprKind::Handle {
            body,
            arg_ty,
            handler,
            ..
        } => {
            zonk_expr(store, body);
            zonk_ty(store, arg_ty);
            zonk_expr(store, handler);
        }
        TExprKind::ConApp { arg: Some(a), .. } => {
            zonk_expr(store, a);
        }
        _ => {}
    }
}

fn zonk_bind(store: &TyStore, b: &mut TBind) {
    match b {
        TBind::Val { scheme, rhs, .. } => {
            zonk_ty(store, &mut scheme.body);
            zonk_expr(store, rhs);
        }
        TBind::Fun(fs) => {
            for fb in fs {
                zonk_ty(store, &mut fb.scheme.body);
                zonk_ty(store, &mut fb.param_ty);
                zonk_expr(store, &mut fb.body);
            }
        }
        TBind::Exception { arg, .. } => {
            if let Some(t) = arg {
                zonk_ty(store, t);
            }
        }
    }
}

fn validate_equality(p: &TProgram) -> IResult<()> {
    let mut bad: Option<Ty> = None;
    p.walk(&mut |e: &TExpr| {
        if let TExprKind::Prim(PrimOp::Eq | PrimOp::Ne, args) = &e.kind {
            let t = &args[0].ty;
            if t.contains_arrow() && bad.is_none() {
                bad = Some(t.clone());
            }
        }
    });
    match bad {
        Some(t) => err(format!("equality applied at function type `{t}`")),
        None => Ok(()),
    }
}

/// Runs Hindley–Milner inference over a program.
///
/// # Errors
///
/// Returns a [`TypeError`] for unbound variables, unification failures,
/// exception arity mismatches, or equality applied at a function type.
///
/// # Example
///
/// ```
/// let p = rml_syntax::parse_program("fun twice f x = f (f x)").unwrap();
/// let t = rml_hm::infer_program(&p).unwrap();
/// let rml_hm::TBind::Fun(fs) = &t.binds[0] else { panic!() };
/// assert_eq!(fs[0].scheme.vars.len(), 1); // ∀'a. ('a -> 'a) -> 'a -> 'a
/// ```
pub fn infer_program(p: &Program) -> Result<TProgram, TypeError> {
    let mut inf = Infer {
        store: TyStore::new(),
        env: Vec::new(),
        next_quant: 0,
        next_var: 0,
    };
    let mut binds = Vec::new();
    for d in &p.decls {
        let mut tvs = HashMap::new();
        let mut bs = inf.do_binds(std::slice::from_ref(d), &mut tvs)?;
        binds.append(&mut bs);
    }
    let mut tp = TProgram { binds };
    for b in tp.binds.iter_mut() {
        zonk_bind(&inf.store, b);
    }
    validate_equality(&tp)?;
    Ok(tp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rml_syntax::parse_program;

    fn infer(src: &str) -> TProgram {
        infer_program(&parse_program(src).unwrap()).unwrap()
    }

    fn scheme_of<'a>(p: &'a TProgram, name: &str) -> &'a Scheme {
        let n = Symbol::intern(name);
        for b in &p.binds {
            match b {
                TBind::Val { name, scheme, .. } if *name == n => return scheme,
                TBind::Fun(fs) => {
                    for f in fs {
                        if f.name == n {
                            return &f.scheme;
                        }
                    }
                }
                _ => {}
            }
        }
        panic!("no binding {name}")
    }

    #[test]
    fn identity_is_polymorphic() {
        let p = infer("fun id x = x");
        let s = scheme_of(&p, "id");
        assert_eq!(s.vars.len(), 1);
        let Ty::Arrow(a, b) = &s.body else { panic!() };
        assert_eq!(a, b);
    }

    #[test]
    fn compose_has_three_tyvars() {
        let p = infer("fun compose (f, g) = fn a => f (g a)");
        let s = scheme_of(&p, "compose");
        assert_eq!(s.vars.len(), 3);
    }

    #[test]
    fn fib_is_int_to_int() {
        let p = infer("fun fib n = if n < 2 then n else fib (n - 1) + fib (n - 2)");
        let s = scheme_of(&p, "fib");
        assert_eq!(s.vars.len(), 0);
        assert_eq!(s.body, Ty::Arrow(Box::new(Ty::Int), Box::new(Ty::Int)));
    }

    #[test]
    fn value_restriction_blocks_generalisation() {
        let p = infer("val r = ref nil");
        let s = scheme_of(&p, "r");
        assert_eq!(s.vars.len(), 0);
    }

    #[test]
    fn mutual_recursion() {
        let p = infer(
            "fun even n = if n = 0 then true else odd (n - 1) \
             and odd n = if n = 0 then false else even (n - 1)",
        );
        assert_eq!(
            scheme_of(&p, "even").body,
            Ty::Arrow(Box::new(Ty::Int), Box::new(Ty::Bool))
        );
        assert_eq!(
            scheme_of(&p, "odd").body,
            Ty::Arrow(Box::new(Ty::Int), Box::new(Ty::Bool))
        );
    }

    #[test]
    fn map_scheme() {
        let p = infer("fun map f xs = case xs of nil => nil | h :: t => f h :: map f t");
        let s = scheme_of(&p, "map");
        assert_eq!(s.vars.len(), 2);
    }

    #[test]
    fn instantiations_are_recorded() {
        let p = infer("fun id x = x  val y = id 7");
        let TBind::Val { rhs, .. } = &p.binds[1] else {
            panic!()
        };
        let TExprKind::App(f, _) = &rhs.kind else {
            panic!()
        };
        let TExprKind::Var { inst, .. } = &f.kind else {
            panic!()
        };
        assert_eq!(inst.as_deref(), Some(&[Ty::Int][..]));
    }

    #[test]
    fn recursive_occurrence_is_monomorphic() {
        let p = infer("fun loop x = loop x");
        let TBind::Fun(fs) = &p.binds[0] else {
            panic!()
        };
        let TExprKind::App(f, _) = &fs[0].body.kind else {
            panic!()
        };
        let TExprKind::Var { inst, .. } = &f.kind else {
            panic!()
        };
        assert!(inst.is_none());
    }

    #[test]
    fn spurious_app_shape_from_the_paper() {
        // Section 4.2: algorithm W gives `app` the scheme
        // ∀'a 'b. ('a -> 'b) -> 'a list -> unit.
        let p = infer(
            "fun app f = let fun loop xs = case xs of nil => () | x :: r => (f x; loop r) in loop end",
        );
        let s = scheme_of(&p, "app");
        assert_eq!(s.vars.len(), 2, "scheme: {s}");
    }

    #[test]
    fn annotation_removes_spurious_tyvar() {
        let p = infer(
            "fun app (f : 'a -> unit) = let fun loop xs = case xs of nil => () | x :: r => (f x; loop r) in loop end",
        );
        let s = scheme_of(&p, "app");
        assert_eq!(s.vars.len(), 1, "scheme: {s}");
    }

    #[test]
    fn exceptions_type_check() {
        let p = infer(
            "exception E of string \
             fun f x = if x then raise (E \"boom\") else 1 \
             val g = fn x => f x handle E s => size s",
        );
        assert_eq!(p.binds.len(), 3);
    }

    #[test]
    fn exception_with_scoped_tyvar() {
        // Section 4.4 example: a local exception whose argument type is a
        // type variable of the enclosing function.
        let p =
            infer("fun f (x : 'a) = let exception E of 'a in (raise (E x)) handle E y => y end");
        let s = scheme_of(&p, "f");
        assert_eq!(s.vars.len(), 1);
        let Ty::Arrow(a, b) = &s.body else { panic!() };
        assert_eq!(a, b);
    }

    #[test]
    fn builtins_work_as_values_and_applications() {
        let p = infer("val a = print \"hi\" val b = fn () => itos 3 val c = size");
        let s = scheme_of(&p, "c");
        assert_eq!(s.body, Ty::Arrow(Box::new(Ty::Str), Box::new(Ty::Int)));
        let _ = p;
    }

    #[test]
    fn unbound_variable_errors() {
        let p = parse_program("val x = nope").unwrap();
        let e = infer_program(&p).unwrap_err();
        assert!(e.msg.contains("unbound"));
    }

    #[test]
    fn unification_clash_errors() {
        let p = parse_program("val x = 1 + \"two\"").unwrap();
        assert!(infer_program(&p).is_err());
    }

    #[test]
    fn equality_on_functions_rejected() {
        let p = parse_program("val b = (fn x => x) = (fn y => y)").unwrap();
        let e = infer_program(&p).unwrap_err();
        assert!(e.msg.contains("equality"));
    }

    #[test]
    fn occurs_check_rejects_self_application() {
        let p = parse_program("fun w x = x x").unwrap();
        assert!(infer_program(&p).is_err());
    }

    #[test]
    fn shadowing_builtin() {
        let p = infer("fun print x = x  val y = print 3");
        let s = scheme_of(&p, "y");
        assert_eq!(s.body, Ty::Int);
    }

    #[test]
    fn nested_scheme_shares_outer_quant() {
        // g's 'a occurs in the inner function h's environment; h quantifies
        // only its own variable.
        let p = infer("fun g (f : unit -> 'a) = let fun h x = (f (), x) in h end");
        let s = scheme_of(&p, "g");
        assert_eq!(s.vars.len(), 2, "scheme: {s}");
    }

    #[test]
    fn figure1_types() {
        let p = infer(
            "fun compose (f, g) = fn a => f (g a) \
             fun run () = \
               let val h = compose (fn x => (), fn () => \"oh\" ^ \"no\") \
                   val u = forcegc () \
               in h () end",
        );
        let s = scheme_of(&p, "run");
        assert_eq!(s.body, Ty::Arrow(Box::new(Ty::Unit), Box::new(Ty::Unit)));
    }

    #[test]
    fn seq_allows_any_first_type() {
        let p = infer("val a = (1; \"x\"; true)");
        assert_eq!(scheme_of(&p, "a").body, Ty::Bool);
    }

    #[test]
    fn handle_arg_of_nullary_exception_is_unit() {
        let p = infer("exception E val a = (raise E) handle E u => 3");
        assert_eq!(scheme_of(&p, "a").body, Ty::Int);
    }

    #[test]
    fn polymorphic_equality_allowed_on_lists() {
        let p = infer("fun eqlist (a, b) = a = b val t = eqlist ([1], [1])");
        let s = scheme_of(&p, "eqlist");
        assert_eq!(s.vars.len(), 1, "{s}");
    }

    #[test]
    fn deeply_curried_functions() {
        let p = infer("fun f a b c d = a + b + c + d val r = f 1 2 3 4");
        assert_eq!(scheme_of(&p, "r").body, Ty::Int);
    }

    #[test]
    fn let_shadowing_types_correctly() {
        let p = infer("val x = 1 val x = \"s\" val y = size x");
        assert_eq!(scheme_of(&p, "y").body, Ty::Int);
    }

    #[test]
    fn ref_types_flow_through_assignment() {
        let p = infer("val r = ref 0 val u = r := 5 val v = !r + 1");
        assert_eq!(scheme_of(&p, "v").body, Ty::Int);
    }

    #[test]
    fn case_binder_shadows_outer() {
        let p = infer(
            "val h = 100 \
             fun first xs = case xs of nil => 0 | h :: t => h \
             val r = first [7]",
        );
        assert_eq!(scheme_of(&p, "r").body, Ty::Int);
    }

    #[test]
    fn figure8_types() {
        let p = infer(
            "fun compose (f, g) = fn a => f (g a) \
             fun g (f : unit -> 'a) : unit -> unit = \
               compose (let val x = f () in (fn x => (), fn () => x) end) \
             val h = g (fn () => \"oh\" ^ \"no\")",
        );
        let s = scheme_of(&p, "g");
        assert_eq!(s.vars.len(), 1, "scheme: {s}");
    }
}
