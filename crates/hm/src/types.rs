//! ML types, type schemes, and the unification store.

use std::collections::BTreeSet;
use std::fmt;

/// A monomorphic ML type.
///
/// `Meta` variables are unification variables resolved through a
/// [`TyStore`]; `Quant` variables are bound by an enclosing [`Scheme`].
/// After the final zonk pass no `Meta` remains in a typed AST.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Ty {
    /// Unification variable.
    Meta(u32),
    /// Scheme-bound (quantified) type variable, identified by its index in
    /// the binding scheme's `vars` list.
    Quant(u32),
    /// `int`
    Int,
    /// `string`
    Str,
    /// `bool`
    Bool,
    /// `unit`
    Unit,
    /// `exn`
    Exn,
    /// `τ1 * τ2`
    Pair(Box<Ty>, Box<Ty>),
    /// `τ list`
    List(Box<Ty>),
    /// `τ ref`
    Ref(Box<Ty>),
    /// `τ1 -> τ2`
    Arrow(Box<Ty>, Box<Ty>),
}

impl Ty {
    /// Returns `true` if the type contains an arrow anywhere (used to
    /// reject equality on functions).
    pub fn contains_arrow(&self) -> bool {
        match self {
            Ty::Arrow(..) => true,
            Ty::Pair(a, b) => a.contains_arrow() || b.contains_arrow(),
            Ty::List(t) | Ty::Ref(t) => t.contains_arrow(),
            _ => false,
        }
    }

    /// Collects the `Quant` indices occurring in the type.
    pub fn quant_vars(&self, out: &mut BTreeSet<u32>) {
        match self {
            Ty::Quant(q) => {
                out.insert(*q);
            }
            Ty::Pair(a, b) | Ty::Arrow(a, b) => {
                a.quant_vars(out);
                b.quant_vars(out);
            }
            Ty::List(t) | Ty::Ref(t) => t.quant_vars(out),
            _ => {}
        }
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn go(t: &Ty, prec: u8, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match t {
                Ty::Meta(m) => write!(f, "?{m}"),
                Ty::Quant(q) => {
                    // 'a, 'b, ... for the first 26, then 'a26 etc.
                    let c = (b'a' + (q % 26) as u8) as char;
                    if *q < 26 {
                        write!(f, "'{c}")
                    } else {
                        write!(f, "'{c}{q}")
                    }
                }
                Ty::Int => write!(f, "int"),
                Ty::Str => write!(f, "string"),
                Ty::Bool => write!(f, "bool"),
                Ty::Unit => write!(f, "unit"),
                Ty::Exn => write!(f, "exn"),
                Ty::Pair(a, b) => {
                    if prec > 1 {
                        write!(f, "(")?;
                    }
                    go(a, 2, f)?;
                    write!(f, " * ")?;
                    go(b, 1, f)?;
                    if prec > 1 {
                        write!(f, ")")?;
                    }
                    Ok(())
                }
                Ty::List(e) => {
                    go(e, 3, f)?;
                    write!(f, " list")
                }
                Ty::Ref(e) => {
                    go(e, 3, f)?;
                    write!(f, " ref")
                }
                Ty::Arrow(a, b) => {
                    if prec > 0 {
                        write!(f, "(")?;
                    }
                    go(a, 1, f)?;
                    write!(f, " -> ")?;
                    go(b, 0, f)?;
                    if prec > 0 {
                        write!(f, ")")?;
                    }
                    Ok(())
                }
            }
        }
        go(self, 0, f)
    }
}

/// A type scheme `∀α1...αn. τ`.
///
/// Quantified type variables are identified by **globally unique** ids
/// (allocated once per generalisation), so the `Quant` nodes of enclosing
/// schemes can appear free in the body of a nested scheme without clashing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scheme {
    /// The ids of the quantified type variables, in instantiation order.
    pub vars: Vec<u32>,
    /// The scheme body.
    pub body: Ty,
}

impl Scheme {
    /// A monomorphic scheme.
    pub fn mono(ty: Ty) -> Scheme {
        Scheme {
            vars: Vec::new(),
            body: ty,
        }
    }

    /// Substitutes `args[i]` for `Quant(vars[i])` in the body. Quantified
    /// variables of enclosing schemes are untouched.
    ///
    /// # Panics
    ///
    /// Panics if `args.len() != self.vars.len()`.
    pub fn apply(&self, args: &[Ty]) -> Ty {
        assert_eq!(args.len(), self.vars.len(), "scheme arity mismatch");
        let map: Vec<(u32, &Ty)> = self.vars.iter().copied().zip(args.iter()).collect();
        subst_quant(&self.body, &map)
    }
}

/// Replaces `Quant(id)` with the type paired with `id` in `map`.
pub fn subst_quant(t: &Ty, map: &[(u32, &Ty)]) -> Ty {
    match t {
        Ty::Quant(q) => map
            .iter()
            .find(|(id, _)| id == q)
            .map(|(_, ty)| (*ty).clone())
            .unwrap_or_else(|| t.clone()),
        Ty::Pair(a, b) => Ty::Pair(Box::new(subst_quant(a, map)), Box::new(subst_quant(b, map))),
        Ty::Arrow(a, b) => Ty::Arrow(Box::new(subst_quant(a, map)), Box::new(subst_quant(b, map))),
        Ty::List(e) => Ty::List(Box::new(subst_quant(e, map))),
        Ty::Ref(e) => Ty::Ref(Box::new(subst_quant(e, map))),
        other => other.clone(),
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.vars.is_empty() {
            write!(f, "∀")?;
            for v in &self.vars {
                write!(f, "{}", Ty::Quant(*v))?;
            }
            write!(f, ". ")?;
        }
        write!(f, "{}", self.body)
    }
}

/// The unification store: a map from `Meta` variables to their bindings.
#[derive(Debug, Default)]
pub struct TyStore {
    bindings: Vec<Option<Ty>>,
}

impl TyStore {
    /// Creates an empty store.
    pub fn new() -> TyStore {
        TyStore::default()
    }

    /// Allocates a fresh unification variable.
    pub fn fresh(&mut self) -> Ty {
        self.bindings.push(None);
        Ty::Meta(self.bindings.len() as u32 - 1)
    }

    /// Follows bindings until reaching an unbound meta or a constructor.
    /// Only resolves the head; use [`TyStore::zonk_default`] for deep resolution.
    pub fn prune(&self, t: &Ty) -> Ty {
        let mut t = t.clone();
        while let Ty::Meta(m) = t {
            match &self.bindings[m as usize] {
                Some(b) => t = b.clone(),
                None => break,
            }
        }
        t
    }

    /// Fully resolves a type; unresolved metas default to `default`.
    pub fn zonk_default(&self, t: &Ty, default: &Ty) -> Ty {
        let t = self.prune(t);
        match t {
            Ty::Meta(_) => default.clone(),
            Ty::Pair(a, b) => Ty::Pair(
                Box::new(self.zonk_default(&a, default)),
                Box::new(self.zonk_default(&b, default)),
            ),
            Ty::Arrow(a, b) => Ty::Arrow(
                Box::new(self.zonk_default(&a, default)),
                Box::new(self.zonk_default(&b, default)),
            ),
            Ty::List(e) => Ty::List(Box::new(self.zonk_default(&e, default))),
            Ty::Ref(e) => Ty::Ref(Box::new(self.zonk_default(&e, default))),
            other => other,
        }
    }

    /// Fully resolves a type, mapping unresolved metas through `f` (used by
    /// generalisation to turn them into `Quant` variables).
    pub fn zonk_with<F: FnMut(u32) -> Ty>(&self, t: &Ty, f: &mut F) -> Ty {
        let t = self.prune(t);
        match t {
            Ty::Meta(m) => f(m),
            Ty::Pair(a, b) => Ty::Pair(
                Box::new(self.zonk_with(&a, f)),
                Box::new(self.zonk_with(&b, f)),
            ),
            Ty::Arrow(a, b) => Ty::Arrow(
                Box::new(self.zonk_with(&a, f)),
                Box::new(self.zonk_with(&b, f)),
            ),
            Ty::List(e) => Ty::List(Box::new(self.zonk_with(&e, f))),
            Ty::Ref(e) => Ty::Ref(Box::new(self.zonk_with(&e, f))),
            other => other,
        }
    }

    /// Collects the unresolved metas in `t` into `out`.
    pub fn free_metas(&self, t: &Ty, out: &mut BTreeSet<u32>) {
        match self.prune(t) {
            Ty::Meta(m) => {
                out.insert(m);
            }
            Ty::Pair(a, b) | Ty::Arrow(a, b) => {
                self.free_metas(&a, out);
                self.free_metas(&b, out);
            }
            Ty::List(e) | Ty::Ref(e) => self.free_metas(&e, out),
            _ => {}
        }
    }

    /// Occurs check: does unbound meta `m` occur in `t`?
    fn occurs(&self, m: u32, t: &Ty) -> bool {
        match self.prune(t) {
            Ty::Meta(m2) => m == m2,
            Ty::Pair(a, b) | Ty::Arrow(a, b) => self.occurs(m, &a) || self.occurs(m, &b),
            Ty::List(e) | Ty::Ref(e) => self.occurs(m, &e),
            _ => false,
        }
    }

    /// Unifies two types.
    ///
    /// # Errors
    ///
    /// Returns a pair of the (pruned) mismatching types on constructor
    /// clash or occurs-check failure.
    pub fn unify(&mut self, a: &Ty, b: &Ty) -> Result<(), (Ty, Ty)> {
        let a = self.prune(a);
        let b = self.prune(b);
        match (&a, &b) {
            (Ty::Meta(m), Ty::Meta(n)) if m == n => Ok(()),
            (Ty::Meta(m), _) => {
                if self.occurs(*m, &b) {
                    return Err((a, b));
                }
                self.bindings[*m as usize] = Some(b);
                Ok(())
            }
            (_, Ty::Meta(_)) => self.unify(&b, &a),
            (Ty::Int, Ty::Int)
            | (Ty::Str, Ty::Str)
            | (Ty::Bool, Ty::Bool)
            | (Ty::Unit, Ty::Unit)
            | (Ty::Exn, Ty::Exn) => Ok(()),
            (Ty::Quant(p), Ty::Quant(q)) if p == q => Ok(()),
            (Ty::Pair(a1, a2), Ty::Pair(b1, b2)) | (Ty::Arrow(a1, a2), Ty::Arrow(b1, b2)) => {
                self.unify(a1, b1)?;
                self.unify(a2, b2)
            }
            (Ty::List(x), Ty::List(y)) | (Ty::Ref(x), Ty::Ref(y)) => self.unify(x, y),
            _ => Err((a, b)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unify_metas_and_constructors() {
        let mut st = TyStore::new();
        let m = st.fresh();
        st.unify(&m, &Ty::Int).unwrap();
        assert_eq!(st.prune(&m), Ty::Int);
    }

    #[test]
    fn unify_through_structure() {
        let mut st = TyStore::new();
        let m = st.fresh();
        let n = st.fresh();
        let a = Ty::Arrow(Box::new(m.clone()), Box::new(Ty::Bool));
        let b = Ty::Arrow(Box::new(Ty::Int), Box::new(n.clone()));
        st.unify(&a, &b).unwrap();
        assert_eq!(st.prune(&m), Ty::Int);
        assert_eq!(st.prune(&n), Ty::Bool);
    }

    #[test]
    fn occurs_check_fails() {
        let mut st = TyStore::new();
        let m = st.fresh();
        let l = Ty::List(Box::new(m.clone()));
        assert!(st.unify(&m, &l).is_err());
    }

    #[test]
    fn clash_fails() {
        let mut st = TyStore::new();
        assert!(st.unify(&Ty::Int, &Ty::Bool).is_err());
    }

    #[test]
    fn scheme_apply() {
        let s = Scheme {
            vars: vec![7, 9],
            body: Ty::Arrow(Box::new(Ty::Quant(7)), Box::new(Ty::Quant(9))),
        };
        let t = s.apply(&[Ty::Int, Ty::Bool]);
        assert_eq!(t, Ty::Arrow(Box::new(Ty::Int), Box::new(Ty::Bool)));
    }

    #[test]
    fn scheme_apply_leaves_outer_quants() {
        let s = Scheme {
            vars: vec![1],
            body: Ty::Pair(Box::new(Ty::Quant(1)), Box::new(Ty::Quant(0))),
        };
        let t = s.apply(&[Ty::Int]);
        assert_eq!(t, Ty::Pair(Box::new(Ty::Int), Box::new(Ty::Quant(0))));
    }

    #[test]
    fn display_types() {
        let t = Ty::Arrow(
            Box::new(Ty::Pair(Box::new(Ty::Int), Box::new(Ty::Quant(0)))),
            Box::new(Ty::List(Box::new(Ty::Str))),
        );
        assert_eq!(t.to_string(), "int * 'a -> string list");
    }

    #[test]
    fn zonk_defaults_unresolved() {
        let mut st = TyStore::new();
        let m = st.fresh();
        let t = Ty::List(Box::new(m));
        assert_eq!(st.zonk_default(&t, &Ty::Unit), Ty::List(Box::new(Ty::Unit)));
    }

    #[test]
    fn contains_arrow() {
        assert!(Ty::Pair(
            Box::new(Ty::Int),
            Box::new(Ty::Arrow(Box::new(Ty::Int), Box::new(Ty::Int)))
        )
        .contains_arrow());
        assert!(!Ty::List(Box::new(Ty::Int)).contains_arrow());
    }
}
