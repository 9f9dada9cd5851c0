//! Pass 1 of region inference: constraint generation.
//!
//! Walks the typed AST, spreading fresh region/effect variables at every
//! allocation point and arrow ("spreading phase"), unifying region types
//! where the underlying ML types are equal ("fix-point phase" collapsed to
//! a single pass — self and sibling calls inside a `fun` group are treated
//! region-monomorphically, a documented simplification of region-
//! polymorphic recursion), and enforcing the GC-safety conditions:
//!
//! * **capture rule** (typing rules \[TeLam\]/\[TeFun\]'s `G` side condition):
//!   the free region/effect variables of every captured variable's type
//!   flow into the capturing function's latent effect; under strategy
//!   [`Strategy::Rg`], type variables in captured types additionally get
//!   an arrow-effect association `ω(α)` whose handle flows in,
//! * **substitution coverage** (the instance-of relation of Section 3.4):
//!   at every instantiation of a type scheme, the free region/effect
//!   variables of the type instantiated for each quantified type variable
//!   are added to the (instance of) that variable's arrow effect —
//!   transitively marking type variables *spurious* when they are
//!   instantiated for spurious ones (Section 4.3),
//! * **exception rule** (Section 4.4): regions in exception argument
//!   types are unified with the global region, and type variables in them
//!   are associated with the pinned top-level effect variable.

use crate::cterm::{CFun, CTerm, FunDef, InstData, InstMaps, RSchemeInfo};
use crate::rty::{spread, unify, RBox, RTy};
use crate::store::{AtomI, EpsId, RhoId, Store};
use crate::{SpuriousStyle, Strategy};
use rml_core::vars::TyVar;
use rml_hm::{TBind, TExpr, TExprKind, TFunBind, TProgram, Ty};
use rml_syntax::ast::PrimOp;
use rml_syntax::Symbol;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

/// Statistics matching the columns of the paper's Figure 9.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stats {
    /// Number of functions with at least one spurious type variable.
    pub spurious_fns: usize,
    /// Total number of functions (`fun` members and `val`-bound lambdas).
    pub total_fns: usize,
    /// Number of instantiations of a spurious type variable at a boxed
    /// type.
    pub spurious_boxed_insts: usize,
    /// Total number of type-variable instantiations.
    pub total_insts: usize,
    /// Names of the spurious functions, for reporting (E5).
    pub spurious_fn_names: Vec<String>,
    /// Names of all the functions counted in `total_fns`, in inference
    /// order.
    pub fn_names: Vec<String>,
}

impl Stats {
    /// Adds `other`'s counts and names to these.
    pub fn add(&mut self, other: &Stats) {
        self.spurious_fns += other.spurious_fns;
        self.total_fns += other.total_fns;
        self.spurious_boxed_insts += other.spurious_boxed_insts;
        self.total_insts += other.total_insts;
        self.spurious_fn_names
            .extend_from_slice(&other.spurious_fn_names);
        self.fn_names.extend_from_slice(&other.fn_names);
    }
}

/// An inference error (unexpected shape; indicates an upstream bug or an
/// unsupported construct).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InferError(pub String);

impl std::fmt::Display for InferError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "region inference error: {}", self.0)
    }
}

impl std::error::Error for InferError {}

type IResult<T> = Result<T, InferError>;

fn err<T>(msg: impl Into<String>) -> IResult<T> {
    Err(InferError(msg.into()))
}

#[derive(Clone)]
enum REntry {
    /// Monomorphic binding.
    Mono(RTy),
    /// Region-polymorphic `fun` (generalised).
    Fun(Rc<FunDef>),
    /// In-progress `fun` group member (recursion is region-monomorphic).
    FunRec(Rc<FunDef>, RTy),
    /// Polymorphic non-function value. Sound under the value restriction:
    /// every occurrence re-infers a fresh copy of the (effect-free) value
    /// with the occurrence's instance types substituted, so no region is
    /// shared between instantiations.
    PolyVal {
        rhs: Rc<rml_hm::TExpr>,
        env_snapshot: Rc<Vec<Binding>>,
        hm_vars: Rc<Vec<u32>>,
    },
}

/// An environment entry with what it mentions, computed once when it is
/// bound ([`Constrain::bind`]).
#[derive(Clone)]
struct Binding {
    name: Symbol,
    entry: REntry,
    /// The atoms the entry mentions, as of when it was bound: the surface
    /// atoms of its type (and a `fun`'s place); for a generalised `fun`,
    /// its place and the closure of its scheme's atoms minus the quantified
    /// ones. Queries canonicalise and close them (DESIGN "What the
    /// environment mentions").
    atoms: Rc<[AtomI]>,
    /// The entry's free type variables.
    tvs: Rc<[TyVar]>,
}

/// The pass-1 context.
pub struct Constrain {
    /// The unification store (shared with pass 2).
    pub st: Store,
    /// Compilation strategy.
    pub strategy: Strategy,
    /// How spurious type variables get their arrow effects.
    pub style: SpuriousStyle,
    env: Vec<Binding>,
    /// `ω`: arrow-effect association for (candidate) spurious tyvars.
    pub omega: BTreeMap<TyVar, EpsId>,
    /// Type variables marked spurious.
    pub spurious: BTreeSet<TyVar>,
    /// HM quantified-variable id → core type variable.
    pub quant_map: BTreeMap<u32, TyVar>,
    /// The global (top-level) region.
    pub global_rho: RhoId,
    /// The pinned top-level effect variable (Section 4.4).
    pub global_eps: EpsId,
    /// Exception constructors with (globalised) argument types.
    pub exns: BTreeMap<Symbol, Option<RTy>>,
    /// Figure 9 statistics: while [`Constrain::program`] runs, those of
    /// the current top-level binding; afterwards, the whole program's.
    pub stats: Stats,
    /// Figure 9 statistics of each top-level binding, in source order
    /// (filled by [`Constrain::program`]).
    pub bind_stats: Vec<Stats>,
    /// Source provenance: binder symbol → the span of the lambda or `fun`
    /// binding that introduced it. First binding wins, matching the
    /// checker's innermost-blame convention, so a diagnostic for a blamed
    /// binder can underline the capturing function in the source.
    pub provenance: BTreeMap<Symbol, rml_session::Span>,
    /// Depth of recursive `fun` groups currently being inferred; inside
    /// one, `ω` entries must be fresh secondary variables so that the
    /// scheme's ∆ never mentions quantified atoms (\[TvRec\]).
    rec_depth: usize,
}

impl Constrain {
    /// Creates a fresh context.
    pub fn new(strategy: Strategy, style: SpuriousStyle) -> Constrain {
        let mut st = Store::new();
        let global_rho = st.fresh_rho();
        let global_eps = st.fresh_eps();
        st.add_atom(global_eps, AtomI::Rho(global_rho));
        Constrain {
            st,
            strategy,
            style,
            env: Vec::new(),
            omega: BTreeMap::new(),
            spurious: BTreeSet::new(),
            quant_map: BTreeMap::new(),
            global_rho,
            global_eps,
            exns: BTreeMap::new(),
            stats: Stats::default(),
            bind_stats: Vec::new(),
            provenance: BTreeMap::new(),
            rec_depth: 0,
        }
    }

    fn lookup(&self, x: Symbol) -> Option<&Binding> {
        self.env.iter().rev().find(|b| b.name == x)
    }

    fn spread(&mut self, ty: &Ty) -> RTy {
        spread(&mut self.st, &mut self.quant_map, ty)
    }

    fn unify(&mut self, a: &RTy, b: &RTy) -> IResult<()> {
        unify(&mut self.st, a, b).map_err(InferError)
    }

    // --- environment atom bookkeeping --------------------------------

    /// Pushes an entry, with the atoms and type variables it mentions.
    fn bind(&mut self, name: Symbol, entry: REntry) {
        let mut atoms = BTreeSet::new();
        let mut tvs = BTreeSet::new();
        match &entry {
            // Inlined-per-occurrence values contribute no shared atoms.
            REntry::PolyVal { .. } => {}
            REntry::Mono(rty) => {
                rty.frev(&self.st, &mut atoms);
                rty.ftv(&mut tvs);
            }
            REntry::FunRec(fd, rty) => {
                rty.frev(&self.st, &mut atoms);
                atoms.insert(AtomI::Rho(fd.place));
                rty.ftv(&mut tvs);
            }
            REntry::Fun(fd) => {
                let info = fd.scheme.borrow();
                let info = info.as_ref().expect("generalised fun without scheme");
                let mut body_atoms = BTreeSet::new();
                info.body.frev(&self.st, &mut body_atoms);
                for (_, eps, _) in &info.delta {
                    body_atoms.insert(AtomI::Eps(*eps));
                }
                atoms = self.st.atom_closure(&body_atoms);
                for r in &info.rvars {
                    atoms.remove(&AtomI::Rho(self.st.find_rho(*r)));
                }
                for ev in &info.evars {
                    atoms.remove(&AtomI::Eps(self.st.find_eps(*ev)));
                }
                atoms.insert(AtomI::Rho(fd.place));
                info.body.ftv(&mut tvs);
                for (a, _, _) in &info.delta {
                    tvs.remove(a);
                }
            }
        }
        self.env.push(Binding {
            name,
            entry,
            atoms: atoms.into_iter().collect(),
            tvs: tvs.into_iter().collect(),
        });
    }

    /// Adds the visible part of a body effect to a latent effect: kept
    /// atoms directly; for an excluded effect variable, the kept members
    /// of its closure (the variable itself is body-local and will be
    /// discharged, but regions it mentions may outlive the body).
    fn add_visible(&mut self, eps: EpsId, eff: &BTreeSet<AtomI>, keep: &BTreeSet<AtomI>) {
        for a in self.st.canon_set(eff) {
            if keep.contains(&a) {
                self.st.add_atom(eps, a);
            } else if let AtomI::Eps(_) = a {
                let mut one = BTreeSet::new();
                one.insert(a);
                for x in self.st.atom_closure(&one) {
                    if keep.contains(&x) {
                        self.st.add_atom(eps, x);
                    }
                }
            }
        }
    }

    /// The atoms visible outside a function body: the closure of
    /// everything free in the environment plus the given types. Effects on
    /// other atoms are body-local and handled by interior `letregion`s.
    /// The environment's part comes from the atoms each entry cached when
    /// it was bound ([`Constrain::env_forbidden_atoms`]); only the given
    /// types are walked here.
    fn visible_atoms(&self, tys: &[&RTy]) -> BTreeSet<AtomI> {
        let mut keep = self.env_forbidden_atoms();
        let mut s = BTreeSet::new();
        for t in tys {
            t.frev(&self.st, &mut s);
        }
        keep.extend(self.st.atom_closure(&s));
        keep
    }

    /// The atoms a generalisation must not quantify: everything free in
    /// the environment (through latent closures and `ω` of free tyvars)
    /// plus the pinned globals. Each entry's atoms and free type variables
    /// are cached in its [`Binding`] when it is bound; a query
    /// canonicalises and closes their union once, with `ω` read now. The
    /// result equals a walk over the entries at query time (DESIGN "What
    /// the environment mentions").
    fn env_forbidden_atoms(&self) -> BTreeSet<AtomI> {
        let mut surface = BTreeSet::new();
        for b in &self.env {
            surface.extend(b.atoms.iter().copied());
            for a in b.tvs.iter() {
                if let Some(eps) = self.omega.get(a) {
                    surface.insert(AtomI::Eps(*eps));
                }
            }
        }
        surface.insert(AtomI::Rho(self.global_rho));
        surface.insert(AtomI::Eps(self.global_eps));
        for rty in self.exns.values().flatten() {
            rty.frev(&self.st, &mut surface);
        }
        self.st.atom_closure(&surface)
    }

    // --- the capture rule ---------------------------------------------

    /// Ensures `ω(α)` exists; `fallback` is the capturing function's
    /// handle, used when the style identifies (or when the variable is in
    /// the function's own type and a secondary variable would be wasted).
    fn ensure_omega(&mut self, alpha: TyVar, in_fn_type: bool, fallback: EpsId) -> EpsId {
        if let Some(e) = self.omega.get(&alpha) {
            return *e;
        }
        let identify = (in_fn_type || self.style == SpuriousStyle::Identify) && self.rec_depth == 0;
        let eps = if identify {
            fallback
        } else {
            self.st.fresh_eps()
        };
        self.omega.insert(alpha, eps);
        eps
    }

    /// `ω` entry for a transitively spurious variable (no capturing
    /// function at hand: always a fresh secondary variable).
    fn ensure_omega_secondary(&mut self, alpha: TyVar) -> EpsId {
        if let Some(e) = self.omega.get(&alpha) {
            return *e;
        }
        let eps = self.st.fresh_eps();
        self.omega.insert(alpha, eps);
        eps
    }

    /// Applies the capture rule for one captured variable of a function
    /// whose arrow handle is `lam_eps` and whose own type has free type
    /// variables `fn_ftv`. Only atoms *not already* contained in the
    /// function type's frev are added to the latent effect — the paper's
    /// side condition `Ω ⊢ Γ(y) : frev(π)` is a containment requirement,
    /// and atoms that appear in the type itself (e.g. through the result
    /// type, as in Figure 2(a)) need no latent entry. This is what lets
    /// `rg-` reproduce the unsound deallocation of Figure 2(a).
    fn capture(&mut self, lam_eps: EpsId, arrow: &RTy, fn_ftv: &BTreeSet<TyVar>, entry: &Binding) {
        if self.strategy == Strategy::R {
            return;
        }
        let mut arrow_frev = BTreeSet::new();
        arrow.frev(&self.st, &mut arrow_frev);
        let arrow_closure = self.st.atom_closure(&arrow_frev);
        let atoms = self.st.atom_closure(entry.atoms.iter());
        for a in atoms {
            if !arrow_closure.contains(&a) {
                self.st.add_atom(lam_eps, a);
            }
        }
        if self.strategy != Strategy::Rg {
            return;
        }
        for &alpha in entry.tvs.iter() {
            let in_fn_type = fn_ftv.contains(&alpha);
            let eps = self.ensure_omega(alpha, in_fn_type, lam_eps);
            let root = AtomI::Eps(self.st.find_eps(eps));
            if !arrow_closure.contains(&root) {
                self.st.add_atom(lam_eps, root);
            }
            if !in_fn_type {
                self.spurious.insert(alpha);
            }
        }
    }

    fn capture_free_vars(&mut self, lam_eps: EpsId, arrow: &RTy, body: &TExpr, bound: &[Symbol]) {
        let mut fn_ftv = BTreeSet::new();
        arrow.ftv(&mut fn_ftv);
        let mut fv = BTreeSet::new();
        fpv_texpr(body, &mut Vec::from(bound), &mut fv);
        for y in fv {
            if let Some(entry) = self.lookup(y).cloned() {
                self.capture(lam_eps, arrow, &fn_ftv, &entry);
            }
        }
    }

    // --- instantiation -------------------------------------------------

    /// Instantiates a generalised scheme; returns the maps and the
    /// instance type.
    fn instantiate(&mut self, info: &RSchemeInfo, inst_tys: &[Ty]) -> IResult<(InstMaps, RTy)> {
        if inst_tys.len() != info.delta.len() {
            return err(format!(
                "instantiation arity mismatch: {} types for {} quantified variables",
                inst_tys.len(),
                info.delta.len()
            ));
        }
        let mut rmap = BTreeMap::new();
        let mut rpairs = Vec::new();
        for r in &info.rvars {
            let root = self.st.find_rho(*r);
            let fresh = self.st.fresh_rho();
            rmap.insert(root, fresh);
            rpairs.push((root, fresh));
        }
        let mut emap = BTreeMap::new();
        let mut epairs = Vec::new();
        for e in &info.evars {
            let root = self.st.find_eps(*e);
            let fresh = self.st.fresh_eps();
            emap.insert(root, fresh);
            epairs.push((root, fresh));
        }
        // Copy latent sets of quantified effect variables, mapping bound
        // atoms through the instantiation.
        for (root, fresh) in &epairs {
            let latent = self.st.latent_of(*root);
            for a in latent.iter().copied() {
                let mapped = match a {
                    AtomI::Rho(r) => AtomI::Rho(*rmap.get(&r).unwrap_or(&r)),
                    AtomI::Eps(e) => AtomI::Eps(*emap.get(&e).unwrap_or(&e)),
                };
                self.st.add_atom(*fresh, mapped);
            }
        }
        // Type layer: coverage.
        let mut tmap_rty = BTreeMap::new();
        let mut tpairs = Vec::new();
        for ((alpha, d_eps, spur), ty) in info.delta.iter().zip(inst_tys) {
            let inst_rty = self.spread(ty);
            let root = self.st.find_eps(*d_eps);
            let target = *emap.get(&root).unwrap_or(&root);
            // Coverage: frev of the instance type flows into the
            // (instance of the) type variable's arrow effect.
            let mut atoms = BTreeSet::new();
            inst_rty.frev(&self.st, &mut atoms);
            for a in atoms {
                self.st.add_atom(target, a);
            }
            if self.strategy == Strategy::Rg {
                // Transitive spuriousness (Section 4.3 / Fig. 8).
                let mut tvs = BTreeSet::new();
                inst_rty.ftv(&mut tvs);
                for beta in tvs {
                    let beps = self.ensure_omega_secondary(beta);
                    self.st.add_atom(target, AtomI::Eps(beps));
                    if *spur {
                        self.spurious.insert(beta);
                    }
                }
            }
            self.stats.total_insts += 1;
            if *spur && matches!(inst_rty, RTy::Boxed(..)) {
                self.stats.spurious_boxed_insts += 1;
            }
            tmap_rty.insert(*alpha, inst_rty.clone());
            tpairs.push((*alpha, inst_rty, target));
        }
        let body = info.body.subst(&self.st, &tmap_rty, &rmap, &emap);
        Ok((
            InstMaps {
                rmap: rpairs,
                emap: epairs,
                tmap: tpairs,
            },
            body,
        ))
    }

    // --- expressions ----------------------------------------------------

    fn var_occurrence(
        &mut self,
        name: Symbol,
        inst: &Option<Vec<Ty>>,
    ) -> IResult<(CTerm, RTy, BTreeSet<AtomI>)> {
        let entry = match self.lookup(name) {
            Some(b) => b.entry.clone(),
            None => return err(format!("unbound variable `{name}` in region inference")),
        };
        match entry {
            REntry::Mono(rty) => Ok((CTerm::Var(name), rty, BTreeSet::new())),
            REntry::FunRec(fd, proto) => {
                // Region-monomorphic recursive/sibling use.
                let mut eff = BTreeSet::new();
                eff.insert(AtomI::Rho(self.st.find_rho(fd.place)));
                Ok((
                    CTerm::Inst(InstData {
                        fun: fd.clone(),
                        maps: None,
                        at: fd.place,
                    }),
                    proto,
                    eff,
                ))
            }
            REntry::Fun(fd) => {
                let info = fd
                    .scheme
                    .borrow()
                    .clone()
                    .expect("generalised fun without scheme");
                let tys = inst.clone().unwrap_or_default();
                let (maps, body) = self.instantiate(&info, &tys)?;
                let at = self.st.fresh_rho();
                let mut eff = BTreeSet::new();
                eff.insert(AtomI::Rho(self.st.find_rho(fd.place)));
                eff.insert(AtomI::Rho(at));
                // The instance arrow's own place is the new closure's.
                let body = match body {
                    RTy::Boxed(b, _) => RTy::Boxed(b, at),
                    other => other,
                };
                Ok((
                    CTerm::Inst(InstData {
                        fun: fd.clone(),
                        maps: Some(maps),
                        at,
                    }),
                    body,
                    eff,
                ))
            }
            REntry::PolyVal {
                rhs,
                env_snapshot,
                hm_vars,
            } => {
                // Inline a fresh copy of the value at the instance types.
                let tys = inst.clone().unwrap_or_default();
                if tys.len() != hm_vars.len() {
                    return err(format!("polyval `{name}` instantiation arity mismatch"));
                }
                let saved = std::mem::replace(&mut self.env, (*env_snapshot).clone());
                let result = self.expr(&rhs);
                self.env = saved;
                let (cterm, rty, eff) = result?;
                let mut tmap = BTreeMap::new();
                for (q, ty) in hm_vars.iter().zip(&tys) {
                    let alpha = *self.quant_map.entry(*q).or_insert_with(TyVar::fresh);
                    let inst_rty = self.spread(ty);
                    self.stats.total_insts += 1;
                    tmap.insert(alpha, inst_rty);
                }
                let out_rty = rty.subst(&self.st, &tmap, &BTreeMap::new(), &BTreeMap::new());
                let cterm = subst_cterm_tys(&self.st, cterm, &tmap);
                Ok((cterm, out_rty, eff))
            }
        }
    }

    /// Infers one expression.
    pub fn expr(&mut self, e: &TExpr) -> IResult<(CTerm, RTy, BTreeSet<AtomI>)> {
        match &e.kind {
            TExprKind::Unit => Ok((CTerm::Unit, RTy::Unit, BTreeSet::new())),
            TExprKind::Int(n) => Ok((CTerm::Int(*n), RTy::Int, BTreeSet::new())),
            TExprKind::Bool(b) => Ok((CTerm::Bool(*b), RTy::Bool, BTreeSet::new())),
            TExprKind::Str(s) => {
                let rho = self.st.fresh_rho();
                let mut eff = BTreeSet::new();
                eff.insert(AtomI::Rho(rho));
                Ok((
                    CTerm::Str(s.clone(), rho),
                    RTy::Boxed(Box::new(RBox::Str), rho),
                    eff,
                ))
            }
            TExprKind::Var { name, inst } => self.var_occurrence(*name, inst),
            TExprKind::Lam {
                param,
                param_ty,
                body,
            } => {
                self.provenance.entry(*param).or_insert(e.span);
                let param_rty = self.spread(param_ty);
                self.bind(*param, REntry::Mono(param_rty.clone()));
                let (cb, rty_b, eff_b) = self.expr(body)?;
                self.env.pop();
                let eps = self.st.fresh_eps();
                let rho = self.st.fresh_rho();
                // The latent effect keeps only the atoms visible outside
                // the body (reachable from the environment, the parameter,
                // or the result); body-local regions are discharged by a
                // letregion inside the body instead (pass 2).
                let keep = self.visible_atoms(&[&param_rty, &rty_b]);
                self.add_visible(eps, &eff_b, &keep);
                let arrow = RTy::Boxed(Box::new(RBox::Arrow(param_rty, eps, rty_b)), rho);
                self.capture_free_vars(eps, &arrow, body, &[*param]);
                let mut eff = BTreeSet::new();
                eff.insert(AtomI::Rho(rho));
                Ok((
                    CTerm::Lam {
                        param: *param,
                        arrow: arrow.clone(),
                        body: Box::new(cb),
                    },
                    arrow,
                    eff,
                ))
            }
            TExprKind::App(f, a) => {
                let (cf, tf, ef) = self.expr(f)?;
                let (ca, ta, ea) = self.expr(a)?;
                let Some((arg, eps, res, rho)) = tf.as_arrow() else {
                    return err("application of a non-arrow region type");
                };
                let (arg, res) = (arg.clone(), res.clone());
                self.unify(&arg, &ta)?;
                let mut eff = ef;
                eff.extend(ea);
                eff.insert(AtomI::Eps(self.st.find_eps(eps)));
                eff.insert(AtomI::Rho(self.st.find_rho(rho)));
                Ok((CTerm::App(Box::new(cf), Box::new(ca)), res, eff))
            }
            TExprKind::Let { binds, body } => {
                let saved = self.env.len();
                let cbinds = self.do_binds(binds)?;
                let (cb, rty, mut eff) = self.expr(body)?;
                self.env.truncate(saved);
                let mut out = cb;
                for b in cbinds.into_iter().rev() {
                    match b {
                        CBind::Val(x, rhs, reff) => {
                            eff.extend(reff);
                            out = CTerm::Let {
                                x,
                                rhs: Box::new(rhs),
                                body: Box::new(out),
                            };
                        }
                        CBind::Fun(group, geff) => {
                            eff.extend(geff);
                            out = CTerm::LetFun {
                                group,
                                body: Box::new(out),
                            };
                        }
                        CBind::Exn => {}
                    }
                }
                Ok((out, rty, eff))
            }
            TExprKind::Pair(a, b) => {
                let (ca, ta, ea) = self.expr(a)?;
                let (cb, tb, eb) = self.expr(b)?;
                let rho = self.st.fresh_rho();
                let mut eff = ea;
                eff.extend(eb);
                eff.insert(AtomI::Rho(rho));
                Ok((
                    CTerm::Pair(Box::new(ca), Box::new(cb), rho),
                    RTy::Boxed(Box::new(RBox::Pair(ta, tb)), rho),
                    eff,
                ))
            }
            TExprKind::Sel(i, a) => {
                let (ca, ta, mut eff) = self.expr(a)?;
                let RTy::Boxed(b, rho) = &ta else {
                    return err("projection of a non-pair region type");
                };
                let RBox::Pair(t1, t2) = &**b else {
                    return err("projection of a non-pair region type");
                };
                eff.insert(AtomI::Rho(self.st.find_rho(*rho)));
                let out = if *i == 1 { t1.clone() } else { t2.clone() };
                Ok((CTerm::Sel(*i, Box::new(ca)), out, eff))
            }
            TExprKind::If(c, t, f) => {
                let (cc, _, ec) = self.expr(c)?;
                let (ct, tt, et) = self.expr(t)?;
                let (cf2, tf, ef) = self.expr(f)?;
                self.unify(&tt, &tf)?;
                let mut eff = ec;
                eff.extend(et);
                eff.extend(ef);
                Ok((
                    CTerm::If(Box::new(cc), Box::new(ct), Box::new(cf2)),
                    tt,
                    eff,
                ))
            }
            TExprKind::Prim(op, args) => {
                let mut cargs = Vec::new();
                let mut rtys = Vec::new();
                let mut eff = BTreeSet::new();
                for a in args {
                    let (ca, ta, ea) = self.expr(a)?;
                    cargs.push(ca);
                    rtys.push(ta);
                    eff.extend(ea);
                }
                // Reads of boxed arguments touch their regions.
                for t in &rtys {
                    if let Some(r) = t.place() {
                        eff.insert(AtomI::Rho(self.st.find_rho(r)));
                    }
                }
                // Equality reads deeply.
                if matches!(op, PrimOp::Eq | PrimOp::Ne) {
                    self.unify(&rtys[0].clone(), &rtys[1].clone())?;
                    let mut atoms = BTreeSet::new();
                    rtys[0].frev(&self.st, &mut atoms);
                    eff.extend(atoms);
                }
                let (res_rho, rty) = match op {
                    PrimOp::Concat | PrimOp::Itos => {
                        let rho = self.st.fresh_rho();
                        eff.insert(AtomI::Rho(rho));
                        (Some(rho), RTy::Boxed(Box::new(RBox::Str), rho))
                    }
                    PrimOp::Add
                    | PrimOp::Sub
                    | PrimOp::Mul
                    | PrimOp::Div
                    | PrimOp::Mod
                    | PrimOp::Neg
                    | PrimOp::Size => (None, RTy::Int),
                    PrimOp::Lt
                    | PrimOp::Le
                    | PrimOp::Gt
                    | PrimOp::Ge
                    | PrimOp::Eq
                    | PrimOp::Ne
                    | PrimOp::Not => (None, RTy::Bool),
                    PrimOp::Print | PrimOp::ForceGc => (None, RTy::Unit),
                };
                Ok((CTerm::Prim(*op, cargs, res_rho), rty, eff))
            }
            TExprKind::Nil => {
                let rty = self.spread(&e.ty);
                Ok((CTerm::Nil(rty.clone()), rty, BTreeSet::new()))
            }
            TExprKind::Cons(h, t) => {
                let (ch, th, eh) = self.expr(h)?;
                let (ct, tt, et) = self.expr(t)?;
                let RTy::Boxed(b, rho) = &tt else {
                    return err("cons onto a non-list region type");
                };
                let RBox::List(elem) = &**b else {
                    return err("cons onto a non-list region type");
                };
                let (elem, rho) = (elem.clone(), *rho);
                self.unify(&elem, &th)?;
                let mut eff = eh;
                eff.extend(et);
                eff.insert(AtomI::Rho(self.st.find_rho(rho)));
                Ok((CTerm::Cons(Box::new(ch), Box::new(ct), rho), tt, eff))
            }
            TExprKind::CaseList {
                scrut,
                nil_rhs,
                head,
                tail,
                cons_rhs,
            } => {
                let (cs, ts, es) = self.expr(scrut)?;
                let RTy::Boxed(b, rho) = &ts else {
                    return err("case on a non-list region type");
                };
                let RBox::List(elem) = &**b else {
                    return err("case on a non-list region type");
                };
                let (elem, rho) = (elem.clone(), *rho);
                let (cn, tn, en) = self.expr(nil_rhs)?;
                self.bind(*head, REntry::Mono(elem));
                self.bind(*tail, REntry::Mono(ts.clone()));
                let (cc, tc, ec) = self.expr(cons_rhs)?;
                self.env.pop();
                self.env.pop();
                self.unify(&tn, &tc)?;
                let mut eff = es;
                eff.insert(AtomI::Rho(self.st.find_rho(rho)));
                eff.extend(en);
                eff.extend(ec);
                Ok((
                    CTerm::CaseList {
                        scrut: Box::new(cs),
                        nil_rhs: Box::new(cn),
                        head: *head,
                        tail: *tail,
                        cons_rhs: Box::new(cc),
                    },
                    tn,
                    eff,
                ))
            }
            TExprKind::Ref(a) => {
                let (ca, ta, mut eff) = self.expr(a)?;
                let rho = self.st.fresh_rho();
                eff.insert(AtomI::Rho(rho));
                Ok((
                    CTerm::RefNew(Box::new(ca), rho),
                    RTy::Boxed(Box::new(RBox::Ref(ta)), rho),
                    eff,
                ))
            }
            TExprKind::Deref(a) => {
                let (ca, ta, mut eff) = self.expr(a)?;
                let RTy::Boxed(b, rho) = &ta else {
                    return err("deref of a non-ref region type");
                };
                let RBox::Ref(inner) = &**b else {
                    return err("deref of a non-ref region type");
                };
                eff.insert(AtomI::Rho(self.st.find_rho(*rho)));
                Ok((CTerm::Deref(Box::new(ca)), inner.clone(), eff))
            }
            TExprKind::Assign(r, v) => {
                let (cr, tr, er) = self.expr(r)?;
                let (cv, tv, ev) = self.expr(v)?;
                let RTy::Boxed(b, rho) = &tr else {
                    return err("assignment to a non-ref region type");
                };
                let RBox::Ref(inner) = &**b else {
                    return err("assignment to a non-ref region type");
                };
                let (inner, rho) = (inner.clone(), *rho);
                self.unify(&inner, &tv)?;
                let mut eff = er;
                eff.extend(ev);
                eff.insert(AtomI::Rho(self.st.find_rho(rho)));
                Ok((CTerm::Assign(Box::new(cr), Box::new(cv)), RTy::Unit, eff))
            }
            TExprKind::Seq(a, b) => {
                // Sequencing is a let with a wildcard.
                let (ca, _, ea) = self.expr(a)?;
                let (cb, tb, eb) = self.expr(b)?;
                let mut eff = ea;
                eff.extend(eb);
                Ok((
                    CTerm::Let {
                        x: Symbol::intern("_"),
                        rhs: Box::new(ca),
                        body: Box::new(cb),
                    },
                    tb,
                    eff,
                ))
            }
            TExprKind::Raise(a) => {
                let (ca, ta, mut eff) = self.expr(a)?;
                if let Some(r) = ta.place() {
                    eff.insert(AtomI::Rho(self.st.find_rho(r)));
                }
                let rty = self.spread(&e.ty);
                Ok((CTerm::Raise(Box::new(ca), rty.clone()), rty, eff))
            }
            TExprKind::Handle {
                body,
                exn,
                arg,
                handler,
                ..
            } => {
                let (cb, tb, eb) = self.expr(body)?;
                let arg_rty = match self.exns.get(exn) {
                    Some(Some(t)) => t.clone(),
                    Some(None) => RTy::Unit,
                    None => return err(format!("unknown exception `{exn}`")),
                };
                self.bind(*arg, REntry::Mono(arg_rty));
                let (ch, th, ehh) = self.expr(handler)?;
                self.env.pop();
                self.unify(&tb, &th)?;
                let mut eff = eb;
                eff.extend(ehh);
                eff.insert(AtomI::Rho(self.st.find_rho(self.global_rho)));
                Ok((
                    CTerm::Handle {
                        body: Box::new(cb),
                        exn: *exn,
                        arg: *arg,
                        handler: Box::new(ch),
                    },
                    tb,
                    eff,
                ))
            }
            TExprKind::ConApp { exn, arg } => {
                let want = match self.exns.get(exn) {
                    Some(w) => w.clone(),
                    None => return err(format!("unknown exception `{exn}`")),
                };
                let mut eff = BTreeSet::new();
                let carg = match (arg, want) {
                    (None, None) => None,
                    (Some(a), Some(w)) => {
                        let (ca, ta, ea) = self.expr(a)?;
                        self.unify(&ta, &w)?;
                        eff.extend(ea);
                        Some(Box::new(ca))
                    }
                    _ => return err(format!("exception `{exn}` arity mismatch")),
                };
                eff.insert(AtomI::Rho(self.st.find_rho(self.global_rho)));
                Ok((
                    CTerm::Exn {
                        name: *exn,
                        arg: carg,
                        at: self.global_rho,
                    },
                    RTy::Boxed(Box::new(RBox::Exn), self.global_rho),
                    eff,
                ))
            }
        }
    }

    // --- bindings --------------------------------------------------------

    /// Processes a `fun` group: spreads prototypes, infers bodies with
    /// region-monomorphic recursion, and generalises.
    fn do_fun_group(&mut self, group: &[TFunBind]) -> IResult<(Vec<CFun>, BTreeSet<AtomI>)> {
        let mut eff = BTreeSet::new();
        let mut defs = Vec::new();
        for b in group {
            self.provenance.entry(b.name).or_insert(b.span);
            let proto = self.spread(&b.scheme.body);
            let place = proto.place().expect("fun prototype must be a boxed arrow");
            eff.insert(AtomI::Rho(place));
            let fd = Rc::new(FunDef {
                name: b.name,
                place,
                scheme: std::cell::RefCell::new(None),
                spurious: std::cell::RefCell::new(false),
            });
            defs.push((fd, proto));
        }
        let saved = self.env.len();
        for ((fd, proto), b) in defs.iter().zip(group) {
            self.bind(b.name, REntry::FunRec(fd.clone(), proto.clone()));
        }
        // Is the group actually recursive? (Determines whether the
        // scheme may quantify effect variables referenced from ∆.)
        let group_names: Vec<Symbol> = group.iter().map(|g| g.name).collect();
        let recursive = group.iter().any(|b| {
            let mut fv = BTreeSet::new();
            fpv_texpr(&b.body, &mut vec![b.param], &mut fv);
            group_names.iter().any(|n| fv.contains(n))
        });
        if recursive {
            self.rec_depth += 1;
        }
        let mut cfuns = Vec::new();
        for ((fd, proto), b) in defs.iter().zip(group) {
            let Some((arg, eps, res, _rho)) = proto.as_arrow() else {
                return err("fun prototype is not an arrow");
            };
            let (arg, res, eps) = (arg.clone(), res.clone(), eps);
            self.bind(b.param, REntry::Mono(arg.clone()));
            let (cb, rty_b, eff_b) = self.expr(&b.body)?;
            self.env.pop();
            self.unify(&res, &rty_b)?;
            let keep = self.visible_atoms(&[&arg, &res]);
            self.add_visible(eps, &eff_b, &keep);
            // Capture rule for the outermost arrow of the prototype; the
            // group names and the parameter are exempt.
            let mut bound: Vec<Symbol> = group.iter().map(|g| g.name).collect();
            bound.push(b.param);
            self.capture_free_vars(eps, proto, &b.body, &bound);
            cfuns.push(CFun {
                def: fd.clone(),
                param: b.param,
                body: cb,
            });
        }
        self.env.truncate(saved);
        if recursive {
            self.rec_depth -= 1;
        }
        // Joint generalisation. A member's own place is never quantified
        // ([TeFun]'s side condition excludes ρ), and neither is any other
        // member's place (the group allocates together).
        let mut forbidden = self.env_forbidden_atoms();
        for (fd, _) in &defs {
            forbidden.insert(AtomI::Rho(self.st.find_rho(fd.place)));
        }
        for ((fd, proto), b) in defs.iter().zip(group) {
            let mut surface = BTreeSet::new();
            proto.frev(&self.st, &mut surface);
            let closure = self.st.atom_closure(&surface);
            let mut rvars = Vec::new();
            let mut evars = Vec::new();
            for a in &closure {
                if forbidden.contains(a) {
                    continue;
                }
                match a {
                    AtomI::Rho(r) => rvars.push(*r),
                    AtomI::Eps(e) => evars.push(*e),
                }
            }
            let mut delta = Vec::new();
            let mut any_spurious = false;
            for q in &b.scheme.vars {
                let alpha = *self.quant_map.entry(*q).or_insert_with(TyVar::fresh);
                let eps = self.ensure_omega_secondary(alpha);
                let root = self.st.find_eps(eps);
                let spur = self.spurious.contains(&alpha);
                any_spurious |= spur;
                if !recursive
                    && !evars.iter().any(|e| self.st.find_eps(*e) == root)
                    && !forbidden.contains(&AtomI::Eps(root))
                {
                    evars.push(root);
                }
                delta.push((alpha, root, spur));
            }
            if recursive {
                // [TvRec]: quantified effect variables must not appear in
                // frev(∆); leave ∆-referenced ones free (their coverage
                // atoms then accumulate in shared variables, which is
                // sound and conservative).
                let delta_roots: BTreeSet<EpsId> =
                    delta.iter().map(|(_, e, _)| self.st.find_eps(*e)).collect();
                evars.retain(|e| !delta_roots.contains(&self.st.find_eps(*e)));
            }
            self.stats.total_fns += 1;
            self.stats.fn_names.push(b.name.to_string());
            if any_spurious {
                self.stats.spurious_fns += 1;
                self.stats.spurious_fn_names.push(b.name.to_string());
            }
            *fd.spurious.borrow_mut() = any_spurious;
            *fd.scheme.borrow_mut() = Some(RSchemeInfo {
                rvars,
                evars,
                delta,
                body: proto.clone(),
            });
            self.bind(b.name, REntry::Fun(fd.clone()));
        }
        Ok((cfuns, eff))
    }

    fn do_binds(&mut self, binds: &[TBind]) -> IResult<Vec<CBind>> {
        let mut out = Vec::new();
        for b in binds {
            match b {
                TBind::Val { name, scheme, rhs } => {
                    // val-bound lambdas become fun groups of one, so they
                    // get region-polymorphic schemes like `fun` bindings.
                    if let TExprKind::Lam {
                        param,
                        param_ty,
                        body,
                    } = &rhs.kind
                    {
                        let fb = TFunBind {
                            name: *name,
                            scheme: scheme.clone(),
                            param: *param,
                            param_ty: param_ty.clone(),
                            body: (**body).clone(),
                            span: rhs.span,
                        };
                        let (group, eff) = self.do_fun_group(std::slice::from_ref(&fb))?;
                        out.push(CBind::Fun(group, eff));
                        continue;
                    }
                    if scheme.vars.is_empty() {
                        let (c, rty, eff) = self.expr(rhs)?;
                        self.bind(*name, REntry::Mono(rty));
                        out.push(CBind::Val(*name, c, eff));
                    } else {
                        // Polymorphic non-function value: inlined per
                        // occurrence (value restriction ⇒ effect-free, so
                        // eliding the binding is sound).
                        let entry = REntry::PolyVal {
                            rhs: Rc::new(rhs.clone()),
                            env_snapshot: Rc::new(self.env.clone()),
                            hm_vars: Rc::new(scheme.vars.clone()),
                        };
                        self.bind(*name, entry);
                    }
                }
                TBind::Fun(group) => {
                    let (cfuns, eff) = self.do_fun_group(group)?;
                    out.push(CBind::Fun(cfuns, eff));
                }
                TBind::Exception { name, arg } => {
                    let arg_rty = arg.as_ref().map(|t| {
                        let rty = self.spread(t);
                        self.force_global(&rty);
                        rty
                    });
                    if let Some(prev) = self.exns.get(name) {
                        if prev != &arg_rty {
                            return err(format!(
                                "exception `{name}` redeclared with a different argument type \
                                 (unsupported: exception names are global)"
                            ));
                        }
                    }
                    self.exns.insert(*name, arg_rty);
                    out.push(CBind::Exn);
                }
            }
        }
        Ok(out)
    }

    /// Section 4.4: every region in an exception argument type is unified
    /// with the global region; every type variable is associated with the
    /// pinned top-level effect variable.
    fn force_global(&mut self, rty: &RTy) {
        let mut atoms = BTreeSet::new();
        rty.frev(&self.st, &mut atoms);
        for a in atoms {
            match a {
                AtomI::Rho(r) => self.st.union_rho(r, self.global_rho),
                AtomI::Eps(e) => self.st.add_atom(self.global_eps, AtomI::Eps(e)),
            }
        }
        if self.strategy == Strategy::Rg {
            let mut tvs = BTreeSet::new();
            rty.ftv(&mut tvs);
            for alpha in tvs {
                let g = self.global_eps;
                self.omega.entry(alpha).or_insert(g);
                self.spurious.insert(alpha);
            }
        }
    }

    /// Runs the pass over a whole program, returning the intermediate term
    /// (the nested lets ending in a call to `main ()` when present).
    /// Afterwards `bind_stats` holds each top-level binding's statistics
    /// (the closing `main ()` call's instantiations count with the last
    /// binding) and `stats` their sum.
    pub fn program(&mut self, p: &TProgram) -> IResult<(CTerm, BTreeSet<AtomI>)> {
        let mut cbinds = Vec::new();
        for b in &p.binds {
            let mut bs = self.do_binds(std::slice::from_ref(b))?;
            cbinds.append(&mut bs);
            self.bind_stats.push(std::mem::take(&mut self.stats));
        }
        // Final expression: main () when a unary unit function `main`
        // exists; otherwise unit.
        let main = Symbol::intern("main");
        let (mut body, mut eff) = match self.lookup(main).map(|b| b.entry.clone()) {
            Some(entry @ (REntry::Fun(_) | REntry::FunRec(..) | REntry::Mono(_))) => {
                // Instantiate any residual type variables of main (e.g. a
                // main that always raises) at unit.
                let arity = match &entry {
                    REntry::Fun(fd) => fd
                        .scheme
                        .borrow()
                        .as_ref()
                        .map(|i| i.delta.len())
                        .unwrap_or(0),
                    _ => 0,
                };
                let (cm, tm, em) = self.var_occurrence(main, &Some(vec![Ty::Unit; arity]))?;
                match tm.as_arrow() {
                    Some((arg, eps, _res, rho)) if *arg == RTy::Unit => {
                        let mut eff = em;
                        eff.insert(AtomI::Eps(self.st.find_eps(eps)));
                        eff.insert(AtomI::Rho(self.st.find_rho(rho)));
                        (CTerm::App(Box::new(cm), Box::new(CTerm::Unit)), eff)
                    }
                    _ => (CTerm::Unit, BTreeSet::new()),
                }
            }
            _ => (CTerm::Unit, BTreeSet::new()),
        };
        let main_call = std::mem::take(&mut self.stats);
        if let Some(last) = self.bind_stats.last_mut() {
            last.add(&main_call);
        }
        for b in &self.bind_stats {
            self.stats.add(b);
        }
        for b in cbinds.into_iter().rev() {
            match b {
                CBind::Val(x, rhs, reff) => {
                    eff.extend(reff);
                    body = CTerm::Let {
                        x,
                        rhs: Box::new(rhs),
                        body: Box::new(body),
                    };
                }
                CBind::Fun(group, geff) => {
                    eff.extend(geff);
                    body = CTerm::LetFun {
                        group,
                        body: Box::new(body),
                    };
                }
                CBind::Exn => {}
            }
        }
        Ok((body, eff))
    }
}

enum CBind {
    Val(Symbol, CTerm, BTreeSet<AtomI>),
    Fun(Vec<CFun>, BTreeSet<AtomI>),
    Exn,
}

/// Free program variables of a typed expression.
fn fpv_texpr(e: &TExpr, bound: &mut Vec<Symbol>, out: &mut BTreeSet<Symbol>) {
    match &e.kind {
        TExprKind::Var { name, .. } => {
            if !bound.contains(name) {
                out.insert(*name);
            }
        }
        TExprKind::Unit
        | TExprKind::Int(_)
        | TExprKind::Str(_)
        | TExprKind::Bool(_)
        | TExprKind::Nil => {}
        TExprKind::Lam { param, body, .. } => {
            bound.push(*param);
            fpv_texpr(body, bound, out);
            bound.pop();
        }
        TExprKind::App(a, b)
        | TExprKind::Pair(a, b)
        | TExprKind::Cons(a, b)
        | TExprKind::Assign(a, b)
        | TExprKind::Seq(a, b) => {
            fpv_texpr(a, bound, out);
            fpv_texpr(b, bound, out);
        }
        TExprKind::Let { binds, body } => {
            let n0 = bound.len();
            for b in binds {
                match b {
                    TBind::Val { name, rhs, .. } => {
                        fpv_texpr(rhs, bound, out);
                        bound.push(*name);
                    }
                    TBind::Fun(fs) => {
                        for f in fs {
                            bound.push(f.name);
                        }
                        for f in fs {
                            bound.push(f.param);
                            fpv_texpr(&f.body, bound, out);
                            bound.pop();
                        }
                    }
                    TBind::Exception { .. } => {}
                }
            }
            fpv_texpr(body, bound, out);
            bound.truncate(n0);
        }
        TExprKind::Sel(_, a) | TExprKind::Ref(a) | TExprKind::Deref(a) | TExprKind::Raise(a) => {
            fpv_texpr(a, bound, out)
        }
        TExprKind::If(a, b, c) => {
            fpv_texpr(a, bound, out);
            fpv_texpr(b, bound, out);
            fpv_texpr(c, bound, out);
        }
        TExprKind::Prim(_, args) => {
            for a in args {
                fpv_texpr(a, bound, out);
            }
        }
        TExprKind::CaseList {
            scrut,
            nil_rhs,
            head,
            tail,
            cons_rhs,
        } => {
            fpv_texpr(scrut, bound, out);
            fpv_texpr(nil_rhs, bound, out);
            bound.push(*head);
            bound.push(*tail);
            fpv_texpr(cons_rhs, bound, out);
            bound.pop();
            bound.pop();
        }
        TExprKind::Handle {
            body, arg, handler, ..
        } => {
            fpv_texpr(body, bound, out);
            bound.push(*arg);
            fpv_texpr(handler, bound, out);
            bound.pop();
        }
        TExprKind::ConApp { arg, .. } => {
            if let Some(a) = arg {
                fpv_texpr(a, bound, out);
            }
        }
    }
}

/// Substitutes type variables in the type annotations of an intermediate
/// term (used when inlining polymorphic value bindings).
fn subst_cterm_tys(st: &Store, c: CTerm, tmap: &BTreeMap<TyVar, RTy>) -> CTerm {
    let empty_r = BTreeMap::new();
    let empty_e = BTreeMap::new();
    let s = |rty: &RTy| rty.subst(st, tmap, &empty_r, &empty_e);
    let go = |c: Box<CTerm>| Box::new(subst_cterm_tys(st, *c, tmap));
    match c {
        CTerm::Nil(rty) => CTerm::Nil(s(&rty)),
        CTerm::Raise(e, rty) => CTerm::Raise(go(e), s(&rty)),
        CTerm::Lam { param, arrow, body } => CTerm::Lam {
            param,
            arrow: s(&arrow),
            body: go(body),
        },
        CTerm::App(a, b) => CTerm::App(go(a), go(b)),
        CTerm::Let { x, rhs, body } => CTerm::Let {
            x,
            rhs: go(rhs),
            body: go(body),
        },
        CTerm::LetFun { group, body } => CTerm::LetFun {
            group: group
                .into_iter()
                .map(|f| CFun {
                    def: f.def,
                    param: f.param,
                    body: subst_cterm_tys(st, f.body, tmap),
                })
                .collect(),
            body: go(body),
        },
        CTerm::Pair(a, b, r) => CTerm::Pair(go(a), go(b), r),
        CTerm::Sel(i, a) => CTerm::Sel(i, go(a)),
        CTerm::If(a, b, c2) => CTerm::If(go(a), go(b), go(c2)),
        CTerm::Prim(op, args, r) => CTerm::Prim(
            op,
            args.into_iter()
                .map(|a| subst_cterm_tys(st, a, tmap))
                .collect(),
            r,
        ),
        CTerm::Cons(a, b, r) => CTerm::Cons(go(a), go(b), r),
        CTerm::CaseList {
            scrut,
            nil_rhs,
            head,
            tail,
            cons_rhs,
        } => CTerm::CaseList {
            scrut: go(scrut),
            nil_rhs: go(nil_rhs),
            head,
            tail,
            cons_rhs: go(cons_rhs),
        },
        CTerm::RefNew(a, r) => CTerm::RefNew(go(a), r),
        CTerm::Deref(a) => CTerm::Deref(go(a)),
        CTerm::Assign(a, b) => CTerm::Assign(go(a), go(b)),
        CTerm::Exn { name, arg, at } => CTerm::Exn {
            name,
            arg: arg.map(go),
            at,
        },
        CTerm::Handle {
            body,
            exn,
            arg,
            handler,
        } => CTerm::Handle {
            body: go(body),
            exn,
            arg,
            handler: go(handler),
        },
        // Instantiation maps can mention the variables too.
        CTerm::Inst(mut data) => {
            if let Some(m) = &mut data.maps {
                for (_, rty, _) in &mut m.tmap {
                    *rty = s(rty);
                }
            }
            CTerm::Inst(data)
        }
        leaf @ (CTerm::Var(_) | CTerm::Unit | CTerm::Int(_) | CTerm::Bool(_) | CTerm::Str(..)) => {
            leaf
        }
    }
}
