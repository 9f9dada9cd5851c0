//! Substitutions `S = (Sᵗ, Sʳ, Sᵉ)` and their action on effects, arrow
//! effects, types, contexts, and schemes (paper Section 3.3).
//!
//! The three component maps are applied **simultaneously**. Substitution on
//! effects follows the paper exactly:
//!
//! ```text
//! S(φ)    = { Sʳ(ρ) | ρ ∈ φ } ∪ { η | ∃ε. ε ∈ φ ∧ η ∈ frev(Sᵉ(ε)) }
//! S(ε.φ)  = ε′.(φ′ ∪ S(φ))   where Sᵉ(ε) = ε′.φ′
//! ```
//!
//! so applying a substitution to an effect again yields an effect, and
//! effects can only *grow* (Proposition 3, tested below).

use crate::types::{BoxTy, Delta, Mu, Pi, Scheme};
use crate::vars::{ArrowEff, Atom, EffVar, Effect, RegVar, TyVar};
use std::collections::{BTreeMap, BTreeSet};

/// A substitution: a triple of a type substitution, a region substitution,
/// and an effect substitution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Subst {
    /// `Sᵗ`: type variables to types-and-places.
    pub ty: BTreeMap<TyVar, Mu>,
    /// `Sʳ`: region variables to region variables.
    pub reg: BTreeMap<RegVar, RegVar>,
    /// `Sᵉ`: effect variables to arrow effects.
    pub eff: BTreeMap<EffVar, ArrowEff>,
}

impl Subst {
    /// The identity substitution.
    pub fn identity() -> Subst {
        Subst::default()
    }

    /// A pure region renaming.
    pub fn regions<I: IntoIterator<Item = (RegVar, RegVar)>>(map: I) -> Subst {
        Subst {
            reg: map.into_iter().collect(),
            ..Subst::default()
        }
    }

    /// A pure effect substitution.
    pub fn effects<I: IntoIterator<Item = (EffVar, ArrowEff)>>(map: I) -> Subst {
        Subst {
            eff: map.into_iter().collect(),
            ..Subst::default()
        }
    }

    /// A pure type substitution.
    pub fn types<I: IntoIterator<Item = (TyVar, Mu)>>(map: I) -> Subst {
        Subst {
            ty: map.into_iter().collect(),
            ..Subst::default()
        }
    }

    /// Applies `Sʳ` to a region variable.
    pub fn reg_var(&self, r: RegVar) -> RegVar {
        self.reg.get(&r).copied().unwrap_or(r)
    }

    /// Applies the substitution to an effect.
    pub fn effect(&self, phi: &Effect) -> Effect {
        let mut out = Effect::new();
        for a in phi {
            match a {
                Atom::Reg(r) => {
                    out.insert(Atom::Reg(self.reg_var(*r)));
                }
                Atom::Eff(e) => match self.eff.get(e) {
                    Some(ae) => out.extend(ae.frev()),
                    None => {
                        out.insert(Atom::Eff(*e));
                    }
                },
            }
        }
        out
    }

    /// Applies the substitution to an arrow effect (canonicalised: the
    /// result handle never appears in its own latent set).
    pub fn arrow_eff(&self, ae: &ArrowEff) -> ArrowEff {
        let sphi = self.effect(&ae.latent);
        match self.eff.get(&ae.handle) {
            Some(target) => {
                let mut latent = target.latent.clone();
                latent.extend(sphi);
                ArrowEff::new(target.handle, latent)
            }
            None => ArrowEff::new(ae.handle, sphi),
        }
    }

    /// Applies the substitution to a type-and-place.
    pub fn mu(&self, m: &Mu) -> Mu {
        match m {
            Mu::Var(a) => self.ty.get(a).cloned().unwrap_or(Mu::Var(*a)),
            Mu::Int => Mu::Int,
            Mu::Bool => Mu::Bool,
            Mu::Unit => Mu::Unit,
            Mu::Boxed(b, r) => Mu::Boxed(Box::new(self.boxty(b)), self.reg_var(*r)),
        }
    }

    /// Applies the substitution to a boxed type.
    pub fn boxty(&self, t: &BoxTy) -> BoxTy {
        match t {
            BoxTy::Pair(a, b) => BoxTy::Pair(self.mu(a), self.mu(b)),
            BoxTy::Arrow(a, ae, b) => BoxTy::Arrow(self.mu(a), self.arrow_eff(ae), self.mu(b)),
            BoxTy::Str => BoxTy::Str,
            BoxTy::Exn => BoxTy::Exn,
            BoxTy::List(e) => BoxTy::List(self.mu(e)),
            BoxTy::Ref(e) => BoxTy::Ref(self.mu(e)),
        }
    }

    /// Applies the substitution to a type variable context.
    ///
    /// # Panics
    ///
    /// Panics if `dom(Sᵗ)` intersects `dom(∆)` — per the paper, the
    /// application is undefined in that case.
    pub fn delta(&self, d: &Delta) -> Delta {
        assert!(
            d.keys().all(|a| !self.ty.contains_key(a)),
            "substitution domain overlaps type variable context"
        );
        d.iter().map(|(a, ae)| (*a, self.arrow_eff(ae))).collect()
    }

    /// Free type, region, and effect variables of the substitution's range
    /// plus its domain — the set a scheme's bound variables must avoid.
    fn avoid_set(&self) -> (BTreeSet<TyVar>, Effect) {
        let mut tvs: BTreeSet<TyVar> = self.ty.keys().copied().collect();
        let mut atoms = Effect::new();
        for m in self.ty.values() {
            m.ftv(&mut tvs);
            m.frev(&mut atoms);
        }
        for r in self.reg.keys() {
            atoms.insert(Atom::Reg(*r));
        }
        for r in self.reg.values() {
            atoms.insert(Atom::Reg(*r));
        }
        for e in self.eff.keys() {
            atoms.insert(Atom::Eff(*e));
        }
        for ae in self.eff.values() {
            atoms.extend(ae.frev());
        }
        (tvs, atoms)
    }

    /// Applies the substitution to a scheme, renaming bound variables to
    /// avoid capture.
    pub fn scheme(&self, s: &Scheme) -> Scheme {
        let (avoid_tvs, avoid_atoms) = self.avoid_set();
        let needs_rename = s.rvars.iter().any(|r| avoid_atoms.contains(&Atom::Reg(*r)))
            || s.evars.iter().any(|e| avoid_atoms.contains(&Atom::Eff(*e)))
            || s.delta.iter().any(|(a, _)| avoid_tvs.contains(a));
        let s = if needs_rename {
            let mut rename = Subst::default();
            let mut new_rvars = Vec::new();
            for r in &s.rvars {
                let fresh = RegVar::fresh();
                rename.reg.insert(*r, fresh);
                new_rvars.push(fresh);
            }
            let mut new_evars = Vec::new();
            for e in &s.evars {
                let fresh = EffVar::fresh();
                rename.eff.insert(*e, ArrowEff::new(fresh, Effect::new()));
                new_evars.push(fresh);
            }
            let mut new_delta = Vec::new();
            for (a, ae) in &s.delta {
                let fresh = TyVar::fresh();
                rename.ty.insert(*a, Mu::Var(fresh));
                new_delta.push((fresh, ae.clone()));
            }
            let renamed_delta = new_delta
                .into_iter()
                .map(|(a, ae)| (a, rename.arrow_eff(&ae)))
                .collect();
            Scheme {
                rvars: new_rvars,
                evars: new_evars,
                delta: renamed_delta,
                body: rename.boxty(&s.body),
            }
        } else {
            s.clone()
        };
        Scheme {
            rvars: s.rvars.clone(),
            evars: s.evars.clone(),
            delta: s
                .delta
                .iter()
                .map(|(a, ae)| (*a, self.arrow_eff(ae)))
                .collect(),
            body: self.boxty(&s.body),
        }
    }

    /// Applies the substitution to a `π`.
    pub fn pi(&self, p: &Pi) -> Pi {
        match p {
            Pi::Mu(m) => Pi::Mu(self.mu(m)),
            Pi::Scheme(s, r) => Pi::Scheme(self.scheme(s), self.reg_var(*r)),
        }
    }
}

/// Renames all bound variables of a scheme to fresh ones. Schemes are
/// identified up to renaming of bound variables, so the result is
/// equivalent to the input.
pub fn freshen_scheme(s: &Scheme) -> Scheme {
    let mut rename = Subst::default();
    let mut rvars = Vec::new();
    for r in &s.rvars {
        let fresh = RegVar::fresh();
        rename.reg.insert(*r, fresh);
        rvars.push(fresh);
    }
    let mut evars = Vec::new();
    for e in &s.evars {
        let fresh = EffVar::fresh();
        rename.eff.insert(*e, ArrowEff::new(fresh, Effect::new()));
        evars.push(fresh);
    }
    let mut delta = Vec::new();
    for (a, ae) in &s.delta {
        let fresh = TyVar::fresh();
        rename.ty.insert(*a, Mu::Var(fresh));
        delta.push((fresh, ae.clone()));
    }
    let delta = delta
        .into_iter()
        .map(|(a, ae)| (a, rename.arrow_eff(&ae)))
        .collect();
    Scheme {
        rvars,
        evars,
        delta,
        body: rename.boxty(&s.body),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vars::effect;

    #[test]
    fn effect_substitution_expands_handles() {
        // S = [ε ↦ ε'.{ρ'}]; S({ε, ρ}) = {ε', ρ', ρ}
        let e = EffVar::fresh();
        let e2 = EffVar::fresh();
        let r = RegVar::fresh();
        let r2 = RegVar::fresh();
        let s = Subst::effects([(e, ArrowEff::new(e2, effect([Atom::Reg(r2)])))]);
        let phi = effect([Atom::Eff(e), Atom::Reg(r)]);
        let out = s.effect(&phi);
        assert_eq!(out, effect([Atom::Eff(e2), Atom::Reg(r2), Atom::Reg(r)]));
    }

    #[test]
    fn arrow_effect_substitution_grows() {
        // S(ε.φ) = ε′.(φ′ ∪ S(φ))
        let e = EffVar::fresh();
        let e2 = EffVar::fresh();
        let r = RegVar::fresh();
        let r2 = RegVar::fresh();
        let s = Subst::effects([(e, ArrowEff::new(e2, effect([Atom::Reg(r2)])))]);
        let ae = ArrowEff::new(e, effect([Atom::Reg(r)]));
        let out = s.arrow_eff(&ae);
        assert_eq!(out.handle, e2);
        assert_eq!(out.latent, effect([Atom::Reg(r2), Atom::Reg(r)]));
    }

    #[test]
    fn substitution_effect_monotonicity_prop3() {
        // Proposition 3: φ ⊆ φ' implies S(φ) ⊆ S(φ').
        let e = EffVar::fresh();
        let r = RegVar::fresh();
        let r2 = RegVar::fresh();
        let s = Subst {
            ty: BTreeMap::new(),
            reg: [(r, r2)].into_iter().collect(),
            eff: [(e, ArrowEff::fresh_empty())].into_iter().collect(),
        };
        let small = effect([Atom::Reg(r)]);
        let big = effect([Atom::Reg(r), Atom::Eff(e)]);
        assert!(s.effect(&small).is_subset(&s.effect(&big)));
    }

    #[test]
    fn arrow_effect_substitution_interchange() {
        // frev(S(ε.φ)) = S({ε} ∪ φ)
        let e = EffVar::fresh();
        let e2 = EffVar::fresh();
        let r = RegVar::fresh();
        let s = Subst::effects([(e, ArrowEff::new(e2, effect([Atom::Reg(r)])))]);
        let ae = ArrowEff::new(e, effect([]));
        let lhs = s.arrow_eff(&ae).frev();
        let mut dom = effect([Atom::Eff(e)]);
        dom.extend(ae.latent.iter().copied());
        let rhs = s.effect(&dom);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn mu_substitution_replaces_tyvars() {
        let a = TyVar::fresh();
        let r = RegVar::fresh();
        let s = Subst::types([(a, Mu::string(r))]);
        let m = Mu::pair(Mu::Var(a), Mu::Int, RegVar::fresh());
        let out = s.mu(&m);
        let Mu::Boxed(b, _) = out else { panic!() };
        let BoxTy::Pair(first, _) = *b else { panic!() };
        assert_eq!(first, Mu::string(r));
    }

    #[test]
    fn scheme_substitution_avoids_capture() {
        // σ = ∀ρ. (int --ε.∅--> int, ρ); S = [ρ' ↦ ρ] must not capture ρ.
        let rho = RegVar::fresh();
        let rho2 = RegVar::fresh();
        let eps = EffVar::fresh();
        let scheme = Scheme {
            rvars: vec![rho],
            evars: vec![],
            delta: vec![],
            body: BoxTy::Arrow(
                Mu::Int,
                ArrowEff::new(eps, effect([Atom::Reg(rho2)])),
                Mu::Int,
            ),
        };
        let s = Subst::regions([(rho2, rho)]);
        let out = s.scheme(&scheme);
        // The free ρ2 became ρ; the bound variable must have been renamed
        // away from ρ.
        let BoxTy::Arrow(_, ae, _) = &out.body else {
            panic!()
        };
        assert!(ae.latent.contains(&Atom::Reg(rho)));
        assert!(!out.rvars.contains(&rho));
    }

    #[test]
    fn delta_substitution_requires_disjointness() {
        let a = TyVar::fresh();
        let mut d = Delta::new();
        d.insert(a, ArrowEff::fresh_empty());
        let s = Subst::types([(a, Mu::Int)]);
        let res = std::panic::catch_unwind(|| s.delta(&d));
        assert!(res.is_err());
    }

    #[test]
    fn identity_substitution_is_identity() {
        let r = RegVar::fresh();
        let e = EffVar::fresh();
        let m = Mu::arrow(
            Mu::Int,
            ArrowEff::new(e, effect([Atom::Reg(r)])),
            Mu::Unit,
            r,
        );
        assert_eq!(Subst::identity().mu(&m), m);
    }
}
