//! Substitution coverage `Ω ⊢ Sᵗ : ∆` and the instance-of relation
//! `Ω ⊢ σ ≥ τ via S` (paper Section 3.4).
//!
//! Coverage is the paper's central repair: when a type scheme is
//! instantiated, the type substituted for each quantified type variable
//! `α` must be *contained* in the (instantiated) arrow effect `∆(α)` —
//! `Ω ⊢ Sᵗ(α) : frev(∆(α))`. This forces the regions of the instance type
//! into an effect that the scheme's body mentions, which is what rules out
//! the dangling pointers of Figure 1.

use crate::subst::Subst;
use crate::types::{BoxTy, Delta, Scheme};

/// Checks substitution coverage `Ω ⊢ Sᵗ : ∆`: `dom(Sᵗ) = dom(∆)` and
/// `Ω ⊢ Sᵗ(α) : frev(∆(α))` for every `α`.
pub fn coverage(
    omega: &Delta,
    s: &Subst,
    delta: &[(crate::vars::TyVar, crate::vars::ArrowEff)],
) -> Result<(), String> {
    coverage_with(omega, s, delta, false)
}

/// As [`coverage`], optionally with the pre-paper vacuous treatment of
/// type variables (the `rg-` discipline, which the paper shows is not
/// closed under type substitution).
pub fn coverage_with(
    omega: &Delta,
    s: &Subst,
    delta: &[(crate::vars::TyVar, crate::vars::ArrowEff)],
    vac: bool,
) -> Result<(), String> {
    if s.ty.len() != delta.len() {
        return Err(format!(
            "coverage: |dom(St)| = {} but |dom(∆)| = {}",
            s.ty.len(),
            delta.len()
        ));
    }
    for (a, ae) in delta {
        let Some(inst) = s.ty.get(a) else {
            return Err(format!("coverage: {a} not in dom(St)"));
        };
        if !crate::containment::mu_contained_with(omega, inst, &ae.frev(), vac) {
            return Err(format!(
                "coverage: instance for {a} not contained in frev({ae})"
            ));
        }
    }
    Ok(())
}

/// Checks `Ω ⊢ σ ≥ τ via S`, where `S` instantiates all three quantifier
/// layers of the scheme. Returns the instance type (equal to `expected` if
/// supplied).
///
/// # Errors
///
/// Returns a message if the substitution domains do not match the bound
/// variables, coverage fails, or the instance differs from `expected`.
pub fn check_instance(
    omega: &Delta,
    scheme: &Scheme,
    s: &Subst,
    expected: Option<&BoxTy>,
) -> Result<BoxTy, String> {
    check_instance_with(omega, scheme, s, expected, false)
}

/// As [`check_instance`], optionally with vacuous type variables in the
/// coverage check (matching the `rg-`/`r` checker modes).
pub fn check_instance_with(
    omega: &Delta,
    scheme: &Scheme,
    s: &Subst,
    expected: Option<&BoxTy>,
    vac: bool,
) -> Result<BoxTy, String> {
    // 1. dom(Sʳ) = {ρ⃗}, dom(Sᵉ) = {ε⃗}.
    let rdom: std::collections::BTreeSet<_> = s.reg.keys().copied().collect();
    let rbound: std::collections::BTreeSet<_> = scheme.rvars.iter().copied().collect();
    if rdom != rbound {
        return Err("instance: region substitution domain mismatch".into());
    }
    let edom: std::collections::BTreeSet<_> = s.eff.keys().copied().collect();
    let ebound: std::collections::BTreeSet<_> = scheme.evars.iter().copied().collect();
    if edom != ebound {
        return Err("instance: effect substitution domain mismatch".into());
    }
    // 2. Apply the region-effect part to ∀∆.τ, then check the type layer.
    let s_re = Subst {
        ty: Default::default(),
        reg: s.reg.clone(),
        eff: s.eff.clone(),
    };
    let delta2: Vec<_> = scheme
        .delta
        .iter()
        .map(|(a, ae)| (*a, s_re.arrow_eff(ae)))
        .collect();
    let body2 = s_re.boxty(&scheme.body);
    let s_t = Subst {
        ty: s.ty.clone(),
        reg: Default::default(),
        eff: Default::default(),
    };
    coverage_with(omega, &s_t, &delta2, vac)?;
    let inst = s_t.boxty(&body2);
    if let Some(exp) = expected {
        if &inst != exp {
            return Err(format!(
                "instance: computed instance differs from expected type\n  computed: {inst:?}\n  expected: {exp:?}"
            ));
        }
    }
    Ok(inst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Mu;
    use crate::vars::{effect, ArrowEff, Atom, EffVar, Effect, RegVar, TyVar};

    /// Builds the paper's scheme (2) for the composition function `o`,
    /// simplified to the pieces relevant for instantiation:
    ///
    /// ∀ε ε' ρ (γ : ε'.∅). (unit --ε.{ε'}--> γ, ρ)
    fn spurious_scheme() -> (Scheme, TyVar, EffVar, EffVar, RegVar) {
        let gamma = TyVar::fresh();
        let eps = EffVar::fresh();
        let eps2 = EffVar::fresh();
        let rho = RegVar::fresh();
        let s = Scheme {
            rvars: vec![rho],
            evars: vec![eps, eps2],
            delta: vec![(gamma, ArrowEff::new(eps2, Effect::new()))],
            body: BoxTy::Arrow(
                Mu::Unit,
                ArrowEff::new(eps, effect([Atom::Eff(eps2)])),
                Mu::Var(gamma),
            ),
        };
        (s, gamma, eps, eps2, rho)
    }

    #[test]
    fn coverage_forces_instance_regions_into_tyvar_effect() {
        // Instantiating γ with (string, ρs) is only covered when the
        // arrow effect instantiated for ε' mentions ρs.
        let (scheme, gamma, eps, eps2, rho) = spurious_scheme();
        let rs = RegVar::fresh();
        let rho_i = RegVar::fresh();
        let e_i = EffVar::fresh();
        let mut s = Subst::default();
        s.reg.insert(rho, rho_i);
        s.ty.insert(gamma, Mu::string(rs));
        s.eff.insert(eps, ArrowEff::fresh_empty());
        // Bad: ε' ↦ ε''.∅ does not mention ρs.
        s.eff.insert(eps2, ArrowEff::new(e_i, Effect::new()));
        assert!(check_instance(&Delta::new(), &scheme, &s, None).is_err());
        // Good: ε' ↦ ε''.{ρs}.
        s.eff
            .insert(eps2, ArrowEff::new(e_i, effect([Atom::Reg(rs)])));
        let inst = check_instance(&Delta::new(), &scheme, &s, None).unwrap();
        // And the instance's latent effect now mentions ρs (through ε').
        let BoxTy::Arrow(_, ae, _) = &inst else {
            panic!()
        };
        assert!(ae.latent.contains(&Atom::Reg(rs)), "latent: {ae}");
    }

    #[test]
    fn instance_domains_must_match() {
        let (scheme, gamma, eps, eps2, _rho) = spurious_scheme();
        let mut s = Subst::default();
        s.ty.insert(gamma, Mu::Int);
        s.eff.insert(eps, ArrowEff::fresh_empty());
        s.eff.insert(eps2, ArrowEff::fresh_empty());
        // Missing the region instantiation.
        assert!(check_instance(&Delta::new(), &scheme, &s, None)
            .unwrap_err()
            .contains("region"));
    }

    #[test]
    fn unboxed_instance_is_always_covered() {
        let (scheme, gamma, eps, eps2, rho) = spurious_scheme();
        let mut s = Subst::default();
        s.reg.insert(rho, RegVar::fresh());
        s.ty.insert(gamma, Mu::Int);
        s.eff.insert(eps, ArrowEff::fresh_empty());
        s.eff.insert(eps2, ArrowEff::fresh_empty());
        check_instance(&Delta::new(), &scheme, &s, None).unwrap();
    }

    #[test]
    fn instance_via_outer_tyvar_needs_omega() {
        // Fig. 8's mechanism: instantiating γ with another type variable α
        // is covered only if frev(Ω(α)) ⊆ frev of the instantiated ∆(γ) —
        // which marks α spurious transitively.
        let (scheme, gamma, eps, eps2, rho) = spurious_scheme();
        let alpha = TyVar::fresh();
        let e_alpha = EffVar::fresh();
        let mut omega = Delta::new();
        omega.insert(alpha, ArrowEff::new(e_alpha, Effect::new()));
        let e_i = EffVar::fresh();
        let mut s = Subst::default();
        s.reg.insert(rho, RegVar::fresh());
        s.ty.insert(gamma, Mu::Var(alpha));
        s.eff.insert(eps, ArrowEff::fresh_empty());
        // Bad: instantiated ∆(γ) effect does not include ε_α.
        s.eff.insert(eps2, ArrowEff::new(e_i, Effect::new()));
        assert!(check_instance(&omega, &scheme, &s, None).is_err());
        // Good: it does.
        s.eff
            .insert(eps2, ArrowEff::new(e_i, effect([Atom::Eff(e_alpha)])));
        check_instance(&omega, &scheme, &s, None).unwrap();
    }

    #[test]
    fn expected_type_mismatch_reported() {
        let (scheme, gamma, eps, eps2, rho) = spurious_scheme();
        let mut s = Subst::default();
        s.reg.insert(rho, RegVar::fresh());
        s.ty.insert(gamma, Mu::Int);
        s.eff.insert(eps, ArrowEff::fresh_empty());
        s.eff.insert(eps2, ArrowEff::fresh_empty());
        let wrong = BoxTy::Str;
        assert!(check_instance(&Delta::new(), &scheme, &s, Some(&wrong)).is_err());
    }
}
