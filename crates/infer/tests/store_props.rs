//! Property tests for the unification store: the transitive-closure
//! invariant of latent sets must survive arbitrary interleavings of
//! `union_eps` and `add_atom`, and the optimised store (path-compressed
//! union-find, sorted-vec latent sets, memoised closures) must agree
//! with the straightforward pre-optimisation implementation, kept here
//! as an executable specification.

use proptest::prelude::*;
use rml_infer::store::{AtomI, EpsId, RhoId, Store};
use std::collections::BTreeSet;

#[derive(Debug, Clone)]
enum Op {
    Union(usize, usize),
    AddRho(usize, usize),
    AddEps(usize, usize),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0usize..8, 0usize..8).prop_map(|(a, b)| Op::Union(a, b)),
            (0usize..8, 0usize..6).prop_map(|(e, r)| Op::AddRho(e, r)),
            (0usize..8, 0usize..8).prop_map(|(a, b)| Op::AddEps(a, b)),
        ],
        0..40,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn latent_sets_stay_transitively_closed(ops in ops()) {
        let mut st = Store::new();
        let eps: Vec<_> = (0..8).map(|_| st.fresh_eps()).collect();
        let rho: Vec<_> = (0..6).map(|_| st.fresh_rho()).collect();
        for op in &ops {
            match op {
                Op::Union(a, b) => st.union_eps(eps[*a], eps[*b]),
                Op::AddRho(e, r) => st.add_atom(eps[*e], AtomI::Rho(rho[*r])),
                Op::AddEps(a, b) => st.add_atom(eps[*a], AtomI::Eps(eps[*b])),
            }
        }
        // Invariant: ε' ∈ φ(ε) implies φ(ε') ⊆ φ(ε), and no self loops.
        for e in &eps {
            let latent = st.latent_of(*e);
            let root = st.find_eps(*e);
            prop_assert!(!latent.contains(&AtomI::Eps(root)), "self loop at {root:?}");
            for a in latent.iter() {
                if let AtomI::Eps(inner) = a {
                    let inner_latent = st.latent_of(*inner);
                    for x in inner_latent.iter() {
                        // Transitivity, modulo the no-self-loop filtering.
                        if *x != AtomI::Eps(root) {
                            prop_assert!(
                                latent.contains(x),
                                "{x:?} ∈ φ({inner:?}) ⊆ φ({root:?}) violated"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn union_makes_latents_equal(ops in ops(), a in 0usize..8, b in 0usize..8) {
        let mut st = Store::new();
        let eps: Vec<_> = (0..8).map(|_| st.fresh_eps()).collect();
        let rho: Vec<_> = (0..6).map(|_| st.fresh_rho()).collect();
        for op in &ops {
            match op {
                Op::Union(x, y) => st.union_eps(eps[*x], eps[*y]),
                Op::AddRho(e, r) => st.add_atom(eps[*e], AtomI::Rho(rho[*r])),
                Op::AddEps(x, y) => st.add_atom(eps[*x], AtomI::Eps(eps[*y])),
            }
        }
        st.union_eps(eps[a], eps[b]);
        prop_assert_eq!(st.find_eps(eps[a]), st.find_eps(eps[b]));
        prop_assert_eq!(st.latent_of(eps[a]), st.latent_of(eps[b]));
    }
}

// --- the executable specification --------------------------------------

/// The pre-optimisation store: naive find without compression,
/// first-argument union winners, recursive eager closure, and per-call
/// canonicalised copies. Slower in every way, but obviously faithful to
/// the transitive-basis semantics — the optimised [`Store`] must agree
/// with it up to the choice of class representatives.
#[derive(Debug, Default)]
struct NaiveStore {
    rho_parent: Vec<u32>,
    eps_parent: Vec<u32>,
    latent: Vec<BTreeSet<AtomI>>,
    containers: Vec<BTreeSet<u32>>,
}

impl NaiveStore {
    fn new() -> NaiveStore {
        NaiveStore::default()
    }

    fn fresh_rho(&mut self) -> RhoId {
        let id = self.rho_parent.len() as u32;
        self.rho_parent.push(id);
        RhoId(id)
    }

    fn fresh_eps(&mut self) -> EpsId {
        let id = self.eps_parent.len() as u32;
        self.eps_parent.push(id);
        self.latent.push(BTreeSet::new());
        self.containers.push(BTreeSet::new());
        EpsId(id)
    }

    fn find_rho(&self, r: RhoId) -> RhoId {
        let mut x = r.0;
        while self.rho_parent[x as usize] != x {
            x = self.rho_parent[x as usize];
        }
        RhoId(x)
    }

    fn find_eps(&self, e: EpsId) -> EpsId {
        let mut x = e.0;
        while self.eps_parent[x as usize] != x {
            x = self.eps_parent[x as usize];
        }
        EpsId(x)
    }

    fn union_rho(&mut self, a: RhoId, b: RhoId) {
        let ra = self.find_rho(a);
        let rb = self.find_rho(b);
        if ra != rb {
            self.rho_parent[rb.0 as usize] = ra.0;
        }
    }

    fn union_eps(&mut self, a: EpsId, b: EpsId) {
        let ra = self.find_eps(a);
        let rb = self.find_eps(b);
        if ra == rb {
            return;
        }
        self.eps_parent[rb.0 as usize] = ra.0;
        let b_latent = std::mem::take(&mut self.latent[rb.0 as usize]);
        let b_containers = std::mem::take(&mut self.containers[rb.0 as usize]);
        self.containers[ra.0 as usize].extend(b_containers);
        for atom in b_latent {
            self.add_atom(ra, atom);
        }
        let atoms: Vec<AtomI> = self.latent[ra.0 as usize].iter().copied().collect();
        let containers: Vec<u32> = self.containers[ra.0 as usize].iter().copied().collect();
        for c in containers {
            let c = self.find_eps(EpsId(c));
            if c != ra {
                for a in &atoms {
                    self.add_atom(c, *a);
                }
            }
        }
    }

    fn canon(&self, a: AtomI) -> AtomI {
        match a {
            AtomI::Rho(r) => AtomI::Rho(self.find_rho(r)),
            AtomI::Eps(e) => AtomI::Eps(self.find_eps(e)),
        }
    }

    fn add_atom(&mut self, e: EpsId, atom: AtomI) {
        let root = self.find_eps(e);
        let atom = self.canon(atom);
        if atom == AtomI::Eps(root) {
            return;
        }
        if !self.latent[root.0 as usize].insert(atom) {
            return;
        }
        if let AtomI::Eps(inner) = atom {
            self.containers[inner.0 as usize].insert(root.0);
            let inner_latent: Vec<AtomI> = self.latent[inner.0 as usize].iter().copied().collect();
            for a in inner_latent {
                self.add_atom(root, a);
            }
        }
        let containers: Vec<u32> = self.containers[root.0 as usize].iter().copied().collect();
        for c in containers {
            let c = self.find_eps(EpsId(c));
            if c != root {
                self.add_atom(c, atom);
            }
        }
    }

    fn latent_of(&self, e: EpsId) -> BTreeSet<AtomI> {
        let root = self.find_eps(e);
        self.latent[root.0 as usize]
            .iter()
            .map(|a| self.canon(*a))
            .filter(|a| *a != AtomI::Eps(root))
            .collect()
    }

    fn region_closure(&self, s: &BTreeSet<AtomI>) -> BTreeSet<RhoId> {
        let mut out = BTreeSet::new();
        let mut seen: BTreeSet<EpsId> = BTreeSet::new();
        let mut work: Vec<AtomI> = s.iter().copied().collect();
        while let Some(a) = work.pop() {
            match self.canon(a) {
                AtomI::Rho(r) => {
                    out.insert(r);
                }
                AtomI::Eps(e) => {
                    if seen.insert(e) {
                        work.extend(self.latent[e.0 as usize].iter().copied());
                    }
                }
            }
        }
        out
    }

    fn atom_closure(&self, s: &BTreeSet<AtomI>) -> BTreeSet<AtomI> {
        let mut out = BTreeSet::new();
        let mut work: Vec<AtomI> = s.iter().copied().collect();
        while let Some(a) = work.pop() {
            let a = self.canon(a);
            if out.insert(a) {
                if let AtomI::Eps(e) = a {
                    work.extend(self.latent[e.0 as usize].iter().copied());
                }
            }
        }
        out
    }
}

// --- agreement of the optimised store with the specification ------------

/// A richer script shape for the oracle comparison: allocation is part of
/// the script, and region unification is exercised too (it changes the
/// canonicalisation the queries apply).
#[derive(Debug, Clone)]
enum SOp {
    FreshEps,
    FreshRho,
    UnionEps(usize, usize),
    UnionRho(usize, usize),
    AddRho(usize, usize),
    AddEps(usize, usize),
    /// A mid-script closure query, compared against the oracle on the
    /// spot. Interleaving queries with mutations is what exercises the
    /// memo machinery: each query populates the per-root caches, and the
    /// next mutation must evict exactly the stale entries (per-root dirty
    /// bits for inserts; for a union, the sets that mention its loser).
    Query(usize),
}

fn scripts() -> impl Strategy<Value = Vec<SOp>> {
    proptest::collection::vec(
        prop_oneof![
            Just(SOp::FreshEps),
            Just(SOp::FreshRho),
            (0usize..64, 0usize..64).prop_map(|(a, b)| SOp::UnionEps(a, b)),
            (0usize..64, 0usize..64).prop_map(|(a, b)| SOp::UnionRho(a, b)),
            (0usize..64, 0usize..64).prop_map(|(e, r)| SOp::AddRho(e, r)),
            (0usize..64, 0usize..64).prop_map(|(a, b)| SOp::AddEps(a, b)),
            (0usize..64).prop_map(SOp::Query),
        ],
        0..48,
    )
}

/// Maps an id to the smallest original id in its class — a canonical
/// representative independent of each implementation's union policy.
fn class_min(find: impl Fn(u32) -> u32, n: usize, x: u32) -> u32 {
    let root = find(x);
    (0..n as u32)
        .find(|i| find(*i) == root)
        .expect("x itself qualifies")
}

fn norm_real(st: &Store, n_rho: usize, n_eps: usize, a: AtomI) -> AtomI {
    match a {
        AtomI::Rho(r) => AtomI::Rho(RhoId(class_min(|i| st.find_rho(RhoId(i)).0, n_rho, r.0))),
        AtomI::Eps(e) => AtomI::Eps(EpsId(class_min(|i| st.find_eps(EpsId(i)).0, n_eps, e.0))),
    }
}

fn norm_naive(st: &NaiveStore, n_rho: usize, n_eps: usize, a: AtomI) -> AtomI {
    match a {
        AtomI::Rho(r) => AtomI::Rho(RhoId(class_min(|i| st.find_rho(RhoId(i)).0, n_rho, r.0))),
        AtomI::Eps(e) => AtomI::Eps(EpsId(class_min(|i| st.find_eps(EpsId(i)).0, n_eps, e.0))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn optimised_store_agrees_with_the_naive_oracle(ops in scripts()) {
        let mut st = Store::new();
        let mut or = NaiveStore::new();
        // A few pre-allocated variables so early ops have targets.
        let mut eps: Vec<EpsId> = (0..4).map(|_| st.fresh_eps()).collect();
        let mut rho: Vec<RhoId> = (0..3).map(|_| st.fresh_rho()).collect();
        for _ in 0..4 {
            or.fresh_eps();
        }
        for _ in 0..3 {
            or.fresh_rho();
        }
        for op in &ops {
            match op {
                SOp::FreshEps => {
                    let a = st.fresh_eps();
                    let b = or.fresh_eps();
                    prop_assert_eq!(a, b, "allocation order must match");
                    eps.push(a);
                }
                SOp::FreshRho => {
                    let a = st.fresh_rho();
                    let b = or.fresh_rho();
                    prop_assert_eq!(a, b, "allocation order must match");
                    rho.push(a);
                }
                SOp::UnionEps(a, b) => {
                    let (a, b) = (eps[a % eps.len()], eps[b % eps.len()]);
                    st.union_eps(a, b);
                    or.union_eps(a, b);
                }
                SOp::UnionRho(a, b) => {
                    let (a, b) = (rho[a % rho.len()], rho[b % rho.len()]);
                    st.union_rho(a, b);
                    or.union_rho(a, b);
                }
                SOp::AddRho(e, r) => {
                    let (e, r) = (eps[e % eps.len()], rho[r % rho.len()]);
                    st.add_atom(e, AtomI::Rho(r));
                    or.add_atom(e, AtomI::Rho(r));
                }
                SOp::AddEps(a, b) => {
                    let (a, b) = (eps[a % eps.len()], eps[b % eps.len()]);
                    st.add_atom(a, AtomI::Eps(b));
                    or.add_atom(a, AtomI::Eps(b));
                }
                SOp::Query(e) => {
                    let e = eps[e % eps.len()];
                    let (nr, ne) = (rho.len(), eps.len());
                    let got: BTreeSet<AtomI> = st
                        .latent_of(e)
                        .iter()
                        .map(|a| norm_real(&st, nr, ne, *a))
                        .collect();
                    let want: BTreeSet<AtomI> = or
                        .latent_of(e)
                        .iter()
                        .map(|a| norm_naive(&or, nr, ne, *a))
                        .collect();
                    prop_assert_eq!(&got, &want, "mid-script latent_of({e:?}) differs");
                    let mut s = BTreeSet::new();
                    s.insert(AtomI::Eps(e));
                    let got: BTreeSet<AtomI> = st
                        .atom_closure(&s)
                        .iter()
                        .map(|a| norm_real(&st, nr, ne, *a))
                        .collect();
                    let want: BTreeSet<AtomI> = or
                        .atom_closure(&s)
                        .iter()
                        .map(|a| norm_naive(&or, nr, ne, *a))
                        .collect();
                    prop_assert_eq!(&got, &want, "mid-script atom_closure({e:?}) differs");
                }
            }
        }
        let (nr, ne) = (rho.len(), eps.len());
        // Union-find structure: identical partitions.
        for i in &eps {
            for j in &eps {
                prop_assert_eq!(
                    st.find_eps(*i) == st.find_eps(*j),
                    or.find_eps(*i) == or.find_eps(*j),
                    "eps partition differs at ({i:?}, {j:?})"
                );
            }
        }
        for i in &rho {
            for j in &rho {
                prop_assert_eq!(
                    st.find_rho(*i) == st.find_rho(*j),
                    or.find_rho(*i) == or.find_rho(*j),
                    "rho partition differs at ({i:?}, {j:?})"
                );
            }
        }
        // Query agreement modulo representative choice (the optimised
        // store unions by rank; the oracle's first argument always wins).
        for e in &eps {
            let got: BTreeSet<AtomI> = st
                .latent_of(*e)
                .iter()
                .map(|a| norm_real(&st, nr, ne, *a))
                .collect();
            let want: BTreeSet<AtomI> = or
                .latent_of(*e)
                .iter()
                .map(|a| norm_naive(&or, nr, ne, *a))
                .collect();
            prop_assert_eq!(&got, &want, "latent_of({e:?}) differs");

            let mut s = BTreeSet::new();
            s.insert(AtomI::Eps(*e));
            let got: BTreeSet<RhoId> = st
                .region_closure(&s)
                .iter()
                .map(|r| RhoId(class_min(|i| st.find_rho(RhoId(i)).0, nr, r.0)))
                .collect();
            let want: BTreeSet<RhoId> = or
                .region_closure(&s)
                .iter()
                .map(|r| RhoId(class_min(|i| or.find_rho(RhoId(i)).0, nr, r.0)))
                .collect();
            prop_assert_eq!(&got, &want, "region_closure({e:?}) differs");

            let got: BTreeSet<AtomI> = st
                .atom_closure(&s)
                .iter()
                .map(|a| norm_real(&st, nr, ne, *a))
                .collect();
            let want: BTreeSet<AtomI> = or
                .atom_closure(&s)
                .iter()
                .map(|a| norm_naive(&or, nr, ne, *a))
                .collect();
            prop_assert_eq!(&got, &want, "atom_closure({e:?}) differs");
        }
        // And once over a mixed set of every allocated atom.
        let all: BTreeSet<AtomI> = rho
            .iter()
            .map(|r| AtomI::Rho(*r))
            .chain(eps.iter().map(|e| AtomI::Eps(*e)))
            .collect();
        let got: BTreeSet<AtomI> = st
            .atom_closure(&all)
            .iter()
            .map(|a| norm_real(&st, nr, ne, *a))
            .collect();
        let want: BTreeSet<AtomI> = or
            .atom_closure(&all)
            .iter()
            .map(|a| norm_naive(&or, nr, ne, *a))
            .collect();
        prop_assert_eq!(&got, &want, "atom_closure over all atoms differs");
    }
}
