//! The unification store for region inference.
//!
//! Region variables and effect variables are union-find nodes. Each effect
//! variable root carries a *latent* set of atoms (regions and effect
//! variables), kept **transitively closed**: if `ε' ∈ φ(ε)` then
//! `φ(ε') ⊆ φ(ε)`. This invariant is exactly the "transitive basis"
//! convention of the paper (Section 3.5), and it is what makes arrow
//! effects grow monotonically under unification — the property the
//! unification-based inference algorithm \[Tofte–Birkedal 1998\] relies on.
//!
//! # Performance notes
//!
//! The store is on the hot path of every `frev`, `capture`, and
//! `instantiate` call, so it uses:
//!
//! * union-find with **path halving** and **union by rank**. Parents live
//!   in `Cell`s so `find_*` can compress paths through the `&self`
//!   receivers that `RTy::frev`/`subst` require;
//! * **sorted-`Vec` small-sets** for the per-root latent and container
//!   sets. Latent sets are small (a handful of atoms) and read far more
//!   often than written; a sorted `Vec` with binary-search insert has the
//!   same membership semantics and iteration order as the `BTreeSet` it
//!   replaces, without the per-node allocations;
//! * an **iterative worklist** in [`Store::add_atom`] (the closure
//!   invariant used to be restored by recursion);
//! * **dirty-bit-invalidated memos** for [`Store::latent_of`] and the
//!   per-root effect closures. An insert marks *only the roots whose
//!   latent set actually grew* as dirty — sound because latent sets are
//!   kept eagerly transitively closed, so any root whose closure changes
//!   also has its own latent set change (via container propagation) and
//!   is therefore marked. Unions still force a full flush (they change
//!   canonical representatives, staling every memoised canonicalised
//!   set), via a separate union generation counter. Path compression
//!   invalidates nothing — it never changes a representative;
//! * **hash-consed result sets**: the memoised latent/closure sets are
//!   interned through [`rml_session::Interner`], so structurally equal
//!   sets (ubiquitous once effects are unified) share one allocation and
//!   compare equal by pointer.
//!
//! Opt-in instrumentation is available through [`Store::stats`], which
//! snapshots find/union/closure/intern counters ([`StoreStats`]).

use rml_core::vars::{ArrowEff, Atom, EffVar, Effect, RegVar};
use rml_session::Interner;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

/// A region-variable node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RhoId(pub u32);

/// An effect-variable node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EpsId(pub u32);

/// An atom at the store level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AtomI {
    /// A region node.
    Rho(RhoId),
    /// An effect node.
    Eps(EpsId),
}

/// A small sorted set of atoms: binary-search membership and ordered
/// iteration, like `BTreeSet<AtomI>`, but contiguous.
#[derive(Debug, Default, Clone)]
struct AtomSet(Vec<AtomI>);

impl AtomSet {
    fn insert(&mut self, a: AtomI) -> bool {
        match self.0.binary_search(&a) {
            Ok(_) => false,
            Err(i) => {
                self.0.insert(i, a);
                true
            }
        }
    }

    fn iter(&self) -> std::iter::Copied<std::slice::Iter<'_, AtomI>> {
        self.0.iter().copied()
    }

    fn take(&mut self) -> Vec<AtomI> {
        std::mem::take(&mut self.0)
    }
}

/// A small sorted set of node ids (used for reverse container edges).
#[derive(Debug, Default, Clone)]
struct IdSet(Vec<u32>);

impl IdSet {
    fn insert(&mut self, x: u32) -> bool {
        match self.0.binary_search(&x) {
            Ok(_) => false,
            Err(i) => {
                self.0.insert(i, x);
                true
            }
        }
    }

    fn iter(&self) -> std::iter::Copied<std::slice::Iter<'_, u32>> {
        self.0.iter().copied()
    }

    fn take(&mut self) -> Vec<u32> {
        std::mem::take(&mut self.0)
    }
}

/// A snapshot of the store's instrumentation counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Calls to `find_rho`/`find_eps` (unification-store reads).
    pub find_ops: u64,
    /// Successful unions (distinct classes merged), regions + effects.
    pub unions: u64,
    /// Latent/closure memo rebuilds after a store mutation.
    pub closure_recomputes: u64,
    /// Latent/closure queries answered from the memo.
    pub closure_cache_hits: u64,
    /// Interned latent/closure sets that found an existing allocation.
    pub intern_hits: u64,
    /// Interned latent/closure sets that allocated a new value.
    pub intern_misses: u64,
}

/// The store.
#[derive(Debug, Default)]
pub struct Store {
    rho_parent: Vec<Cell<u32>>,
    rho_rank: Vec<u8>,
    eps_parent: Vec<Cell<u32>>,
    eps_rank: Vec<u8>,
    /// Latent set per eps root (transitively closed; atoms are canonical
    /// at insertion time and re-canonicalised by queries after unions).
    latent: Vec<AtomSet>,
    /// Reverse membership: eps roots whose latent contains this eps root.
    containers: Vec<IdSet>,
    /// Core variable assigned to each rho root at resolution time.
    rho_core: BTreeMap<u32, RegVar>,
    /// Core variable assigned to each eps root at resolution time.
    eps_core: BTreeMap<u32, EffVar>,
    /// Union generation; bumped only by `union_rho`/`union_eps`. Unions
    /// change canonical representatives, so they stale *every* memoised
    /// canonicalised set at once.
    union_epoch: Cell<u64>,
    /// Union generation the memos below were built at; on mismatch they
    /// are cleared wholesale by the next query.
    memo_union_epoch: Cell<u64>,
    /// Eps roots whose latent set grew (via `add_atom`) since the memos
    /// were last refreshed; only these entries are evicted. Sound because
    /// latent sets are eagerly closed: a root whose *closure* changes has
    /// its own latent changed too (container propagation) and lands here.
    dirty: RefCell<BTreeSet<u32>>,
    /// Canonicalised latent set per eps root.
    latent_memo: RefCell<BTreeMap<u32, Rc<BTreeSet<AtomI>>>>,
    /// Transitive atom closure of `{Eps(root)}` per eps root.
    closure_memo: RefCell<BTreeMap<u32, Rc<BTreeSet<AtomI>>>>,
    /// Hash-consing interner shared by both memos: structurally equal
    /// result sets collapse to one `Rc`.
    sets: RefCell<Interner<BTreeSet<AtomI>>>,
    find_ops: Cell<u64>,
    unions: Cell<u64>,
    closure_recomputes: Cell<u64>,
    closure_cache_hits: Cell<u64>,
}

impl Store {
    /// Creates an empty store.
    pub fn new() -> Store {
        Store::default()
    }

    /// Snapshots the instrumentation counters.
    pub fn stats(&self) -> StoreStats {
        let (intern_hits, intern_misses) = self.sets.borrow().stats();
        StoreStats {
            find_ops: self.find_ops.get(),
            unions: self.unions.get(),
            closure_recomputes: self.closure_recomputes.get(),
            closure_cache_hits: self.closure_cache_hits.get(),
            intern_hits,
            intern_misses,
        }
    }

    /// Allocates a fresh region variable.
    pub fn fresh_rho(&mut self) -> RhoId {
        let id = self.rho_parent.len() as u32;
        self.rho_parent.push(Cell::new(id));
        self.rho_rank.push(0);
        RhoId(id)
    }

    /// Allocates a fresh effect variable with an empty latent set.
    pub fn fresh_eps(&mut self) -> EpsId {
        let id = self.eps_parent.len() as u32;
        self.eps_parent.push(Cell::new(id));
        self.eps_rank.push(0);
        self.latent.push(AtomSet::default());
        self.containers.push(IdSet::default());
        EpsId(id)
    }

    /// Finds the canonical representative of a region variable,
    /// compressing the path by halving.
    pub fn find_rho(&self, r: RhoId) -> RhoId {
        self.find_ops.set(self.find_ops.get() + 1);
        let mut x = r.0;
        loop {
            let p = self.rho_parent[x as usize].get();
            if p == x {
                return RhoId(x);
            }
            let gp = self.rho_parent[p as usize].get();
            self.rho_parent[x as usize].set(gp);
            x = gp;
        }
    }

    /// Finds the canonical representative of an effect variable,
    /// compressing the path by halving.
    pub fn find_eps(&self, e: EpsId) -> EpsId {
        self.find_ops.set(self.find_ops.get() + 1);
        let mut x = e.0;
        loop {
            let p = self.eps_parent[x as usize].get();
            if p == x {
                return EpsId(x);
            }
            let gp = self.eps_parent[p as usize].get();
            self.eps_parent[x as usize].set(gp);
            x = gp;
        }
    }

    fn bump_union_epoch(&self) {
        self.union_epoch.set(self.union_epoch.get() + 1);
    }

    /// Picks (winner, loser) by rank with a deterministic tiebreak
    /// (lower id wins), bumping the winner's rank on ties.
    fn pick(rank: &mut [u8], a: u32, b: u32) -> (u32, u32) {
        use std::cmp::Ordering;
        match rank[a as usize].cmp(&rank[b as usize]) {
            Ordering::Greater => (a, b),
            Ordering::Less => (b, a),
            Ordering::Equal => {
                let (w, l) = if a < b { (a, b) } else { (b, a) };
                rank[w as usize] += 1;
                (w, l)
            }
        }
    }

    /// Unifies two region variables.
    pub fn union_rho(&mut self, a: RhoId, b: RhoId) {
        let ra = self.find_rho(a);
        let rb = self.find_rho(b);
        if ra == rb {
            return;
        }
        self.unions.set(self.unions.get() + 1);
        self.bump_union_epoch();
        let (win, lose) = Self::pick(&mut self.rho_rank, ra.0, rb.0);
        self.rho_parent[lose as usize].set(win);
        // Resolution normally happens after all unions, but keep any
        // already-assigned core variable reachable from the new root.
        if let Some(v) = self.rho_core.remove(&lose) {
            self.rho_core.entry(win).or_insert(v);
        }
    }

    /// Unifies two effect variables, merging their latent sets and
    /// propagating to containers.
    pub fn union_eps(&mut self, a: EpsId, b: EpsId) {
        let ra = self.find_eps(a);
        let rb = self.find_eps(b);
        if ra == rb {
            return;
        }
        self.unions.set(self.unions.get() + 1);
        self.bump_union_epoch();
        let (win, lose) = Self::pick(&mut self.eps_rank, ra.0, rb.0);
        self.eps_parent[lose as usize].set(win);
        if let Some(v) = self.eps_core.remove(&lose) {
            self.eps_core.entry(win).or_insert(v);
        }
        let win = EpsId(win);
        // The winner's pre-merge latent: the only atoms the loser's old
        // containers have not seen yet.
        let win_latent: Vec<AtomI> = self.latent[win.0 as usize].iter().collect();
        let lose_latent = self.latent[lose as usize].take();
        let lose_containers = self.containers[lose as usize].take();
        for c in &lose_containers {
            self.containers[win.0 as usize].insert(*c);
        }
        // Re-adding the loser's latent through `add_atom` restores the
        // closure invariant for the merged container set.
        for atom in lose_latent {
            self.add_atom(win, atom);
        }
        // The loser's old containers still need the winner's pre-merge
        // atoms (the merged class is a superset of what they contained).
        for c in lose_containers {
            let c = self.find_eps(EpsId(c));
            if c != win {
                for a in &win_latent {
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

    /// Adds an atom to an effect variable's latent set, maintaining
    /// transitive closure and propagating to containers (worklist).
    pub fn add_atom(&mut self, e: EpsId, atom: AtomI) {
        let mut work: Vec<(EpsId, AtomI)> = vec![(e, atom)];
        while let Some((e, atom)) = work.pop() {
            let root = self.find_eps(e);
            let atom = self.canon(atom);
            if atom == AtomI::Eps(root) {
                continue; // no self loops
            }
            if !self.latent[root.0 as usize].insert(atom) {
                continue;
            }
            self.dirty.get_mut().insert(root.0);
            // Transitivity: inserting ε' brings in φ(ε').
            if let AtomI::Eps(inner) = atom {
                self.containers[inner.0 as usize].insert(root.0);
                work.extend(self.latent[inner.0 as usize].iter().map(|a| (root, a)));
            }
            // Propagate to containers of root (re-canonicalised at pop).
            work.extend(
                self.containers[root.0 as usize]
                    .iter()
                    .map(|c| (EpsId(c), atom)),
            );
        }
    }

    /// Reconciles the memos with mutations since they were last used.
    /// Called at the top of every memoised query. A union since the last
    /// refresh clears everything (representatives changed); otherwise only
    /// the roots whose latent sets grew are evicted.
    fn refresh_memos(&self) {
        let now = self.union_epoch.get();
        if self.memo_union_epoch.get() != now {
            self.latent_memo.borrow_mut().clear();
            self.closure_memo.borrow_mut().clear();
            self.dirty.borrow_mut().clear();
            self.memo_union_epoch.set(now);
            return;
        }
        let mut dirty = self.dirty.borrow_mut();
        if !dirty.is_empty() {
            let mut lm = self.latent_memo.borrow_mut();
            let mut cm = self.closure_memo.borrow_mut();
            for id in dirty.iter() {
                lm.remove(id);
                cm.remove(id);
            }
            dirty.clear();
        }
    }

    /// The latent set of an effect variable (canonicalised, shared).
    ///
    /// The result is memoised per root until the next mutation; callers
    /// that need ownership can clone the inner set.
    pub fn latent_of(&self, e: EpsId) -> Rc<BTreeSet<AtomI>> {
        self.refresh_memos();
        let root = self.find_eps(e);
        if let Some(rc) = self.latent_memo.borrow().get(&root.0) {
            self.closure_cache_hits
                .set(self.closure_cache_hits.get() + 1);
            return rc.clone();
        }
        self.closure_recomputes
            .set(self.closure_recomputes.get() + 1);
        let set: BTreeSet<AtomI> = self.latent[root.0 as usize]
            .iter()
            .map(|a| self.canon(a))
            .filter(|a| *a != AtomI::Eps(root))
            .collect();
        let rc = self.sets.borrow_mut().intern(set);
        self.latent_memo.borrow_mut().insert(root.0, rc.clone());
        rc
    }

    /// Canonicalises an atom set.
    pub fn canon_set(&self, s: &BTreeSet<AtomI>) -> BTreeSet<AtomI> {
        s.iter().map(|a| self.canon(*a)).collect()
    }

    /// The transitive atom closure of `{Eps(root)}`, memoised per root.
    fn eps_closure(&self, root: EpsId) -> Rc<BTreeSet<AtomI>> {
        debug_assert_eq!(self.eps_parent[root.0 as usize].get(), root.0);
        if let Some(rc) = self.closure_memo.borrow().get(&root.0) {
            self.closure_cache_hits
                .set(self.closure_cache_hits.get() + 1);
            return rc.clone();
        }
        self.closure_recomputes
            .set(self.closure_recomputes.get() + 1);
        let mut out = BTreeSet::new();
        out.insert(AtomI::Eps(root));
        let mut work: Vec<AtomI> = self.latent[root.0 as usize].iter().collect();
        while let Some(a) = work.pop() {
            let a = self.canon(a);
            if out.insert(a) {
                if let AtomI::Eps(e) = a {
                    work.extend(self.latent[e.0 as usize].iter());
                }
            }
        }
        let rc = self.sets.borrow_mut().intern(out);
        self.closure_memo.borrow_mut().insert(root.0, rc.clone());
        rc
    }

    /// The transitive region closure of an atom set: all regions reachable
    /// through effect variables' latent sets.
    pub fn region_closure(&self, s: &BTreeSet<AtomI>) -> BTreeSet<RhoId> {
        self.refresh_memos();
        let mut out = BTreeSet::new();
        for a in s {
            match self.canon(*a) {
                AtomI::Rho(r) => {
                    out.insert(r);
                }
                AtomI::Eps(e) => {
                    out.extend(self.eps_closure(e).iter().filter_map(|a| match a {
                        AtomI::Rho(r) => Some(*r),
                        AtomI::Eps(_) => None,
                    }));
                }
            }
        }
        out
    }

    /// The transitive atom closure (regions and effect variables).
    pub fn atom_closure(&self, s: &BTreeSet<AtomI>) -> BTreeSet<AtomI> {
        self.refresh_memos();
        let mut out = BTreeSet::new();
        for a in s {
            match self.canon(*a) {
                AtomI::Rho(r) => {
                    out.insert(AtomI::Rho(r));
                }
                AtomI::Eps(e) => {
                    out.extend(self.eps_closure(e).iter().copied());
                }
            }
        }
        out
    }

    // --- Resolution to core variables -------------------------------

    /// The core region variable for a node (assigned on first request).
    pub fn core_rho(&mut self, r: RhoId) -> RegVar {
        let root = self.find_rho(r);
        *self.rho_core.entry(root.0).or_insert_with(RegVar::fresh)
    }

    /// The core effect variable for a node.
    pub fn core_eps(&mut self, e: EpsId) -> EffVar {
        let root = self.find_eps(e);
        *self.eps_core.entry(root.0).or_insert_with(EffVar::fresh)
    }

    /// The core arrow effect `ε.φ` for a node: the handle plus its fully
    /// expanded latent set.
    pub fn core_arrow_eff(&mut self, e: EpsId) -> ArrowEff {
        let handle = self.core_eps(e);
        let latent = self.core_effect_of_eps(e);
        ArrowEff::new(handle, latent)
    }

    /// The fully expanded core effect of an eps's latent set.
    pub fn core_effect_of_eps(&mut self, e: EpsId) -> Effect {
        self.refresh_memos();
        let root = self.find_eps(e);
        let atoms = self.eps_closure(root);
        let mut out = Effect::new();
        for a in atoms.iter() {
            match *a {
                AtomI::Rho(r) => {
                    out.insert(Atom::Reg(self.core_rho(r)));
                }
                AtomI::Eps(ep) => {
                    if self.find_eps(ep) != root {
                        out.insert(Atom::Eff(self.core_eps(ep)));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_rho_merges_classes() {
        let mut st = Store::new();
        let a = st.fresh_rho();
        let b = st.fresh_rho();
        assert_ne!(st.find_rho(a), st.find_rho(b));
        st.union_rho(a, b);
        assert_eq!(st.find_rho(a), st.find_rho(b));
    }

    #[test]
    fn latent_sets_merge_on_union() {
        let mut st = Store::new();
        let e1 = st.fresh_eps();
        let e2 = st.fresh_eps();
        let r1 = st.fresh_rho();
        let r2 = st.fresh_rho();
        st.add_atom(e1, AtomI::Rho(r1));
        st.add_atom(e2, AtomI::Rho(r2));
        st.union_eps(e1, e2);
        let l = st.latent_of(e1);
        assert!(l.contains(&AtomI::Rho(r1)));
        assert!(l.contains(&AtomI::Rho(r2)));
    }

    #[test]
    fn transitivity_is_eager() {
        // ε1 ∋ ε2, then ε2 grows: ε1 must grow too.
        let mut st = Store::new();
        let e1 = st.fresh_eps();
        let e2 = st.fresh_eps();
        st.add_atom(e1, AtomI::Eps(e2));
        let r = st.fresh_rho();
        st.add_atom(e2, AtomI::Rho(r));
        assert!(st.latent_of(e1).contains(&AtomI::Rho(r)));
    }

    #[test]
    fn transitivity_through_chains() {
        let mut st = Store::new();
        let e1 = st.fresh_eps();
        let e2 = st.fresh_eps();
        let e3 = st.fresh_eps();
        st.add_atom(e1, AtomI::Eps(e2));
        st.add_atom(e2, AtomI::Eps(e3));
        let r = st.fresh_rho();
        st.add_atom(e3, AtomI::Rho(r));
        assert!(st.latent_of(e1).contains(&AtomI::Rho(r)));
        assert!(st.latent_of(e2).contains(&AtomI::Rho(r)));
    }

    #[test]
    fn no_self_loops() {
        let mut st = Store::new();
        let e1 = st.fresh_eps();
        let e2 = st.fresh_eps();
        st.add_atom(e1, AtomI::Eps(e2));
        st.union_eps(e1, e2); // now ε1's latent would contain itself
        let l = st.latent_of(e1);
        assert!(!l.contains(&AtomI::Eps(st.find_eps(e1))));
    }

    #[test]
    fn region_closure_expands_eps() {
        let mut st = Store::new();
        let e = st.fresh_eps();
        let r = st.fresh_rho();
        st.add_atom(e, AtomI::Rho(r));
        let mut s = BTreeSet::new();
        s.insert(AtomI::Eps(e));
        let rc = st.region_closure(&s);
        assert!(rc.contains(&st.find_rho(r)));
    }

    #[test]
    fn core_resolution_is_stable() {
        let mut st = Store::new();
        let a = st.fresh_rho();
        let b = st.fresh_rho();
        st.union_rho(a, b);
        let ca = st.core_rho(a);
        let cb = st.core_rho(b);
        assert_eq!(ca, cb);
        assert_eq!(st.core_rho(a), ca);
    }

    #[test]
    fn union_pushes_existing_latent_to_inherited_containers() {
        // c ∋ e1; e2 already has {r}; union(e2, e1): c must now see r.
        let mut st = Store::new();
        let c = st.fresh_eps();
        let e1 = st.fresh_eps();
        let e2 = st.fresh_eps();
        let r = st.fresh_rho();
        st.add_atom(c, AtomI::Eps(e1));
        st.add_atom(e2, AtomI::Rho(r));
        st.union_eps(e2, e1);
        assert!(st.latent_of(c).contains(&AtomI::Rho(r)));
    }

    #[test]
    fn union_after_add_preserves_containers() {
        // c ∋ e1; union(e1, e2); e2 grows — c must see it.
        let mut st = Store::new();
        let c = st.fresh_eps();
        let e1 = st.fresh_eps();
        let e2 = st.fresh_eps();
        st.add_atom(c, AtomI::Eps(e1));
        st.union_eps(e1, e2);
        let r = st.fresh_rho();
        st.add_atom(e2, AtomI::Rho(r));
        assert!(st.latent_of(c).contains(&AtomI::Rho(r)));
    }

    #[test]
    fn path_compression_flattens_chains() {
        // Build a long rho chain, then check one find collapses it: a
        // second find of the deepest node must cost O(1) hops (observable
        // as the parent pointing directly at the root).
        let mut st = Store::new();
        let vars: Vec<RhoId> = (0..64).map(|_| st.fresh_rho()).collect();
        for w in vars.windows(2) {
            st.union_rho(w[0], w[1]);
        }
        let root = st.find_rho(vars[0]);
        for v in &vars {
            assert_eq!(st.find_rho(*v), root);
        }
        // After compression every node's parent is at most one hop from
        // the root (path halving guarantees the grandparent step).
        for v in &vars {
            let p = st.rho_parent[v.0 as usize].get();
            let pp = st.rho_parent[p as usize].get();
            assert_eq!(pp, root.0);
        }
    }

    #[test]
    fn path_compression_preserves_core_resolution() {
        // `core_resolution_is_stable` must survive interleaved finds
        // (compression) and rank-based unions in both orders.
        let mut st = Store::new();
        let a = st.fresh_rho();
        let b = st.fresh_rho();
        let c = st.fresh_rho();
        st.union_rho(b, a); // rank tiebreak: lower id wins regardless of order
        let ca = st.core_rho(a);
        st.union_rho(c, a); // union after resolution migrates the core entry
        assert_eq!(st.core_rho(c), ca);
        assert_eq!(st.core_rho(b), ca);
        let e1 = st.fresh_eps();
        let e2 = st.fresh_eps();
        let ce = st.core_eps(e2);
        st.union_eps(e1, e2);
        assert_eq!(st.core_eps(e1), ce);
        assert_eq!(st.core_eps(e2), ce);
    }

    #[test]
    fn memo_invalidation_on_mutation() {
        let mut st = Store::new();
        let e = st.fresh_eps();
        let r1 = st.fresh_rho();
        st.add_atom(e, AtomI::Rho(r1));
        let before = st.latent_of(e);
        assert!(before.contains(&AtomI::Rho(r1)));
        // Repeat query is a cache hit with an identical set.
        let hits0 = st.stats().closure_cache_hits;
        let again = st.latent_of(e);
        assert_eq!(before, again);
        assert!(st.stats().closure_cache_hits > hits0);
        // A mutation invalidates: the next query sees the new atom.
        let r2 = st.fresh_rho();
        st.add_atom(e, AtomI::Rho(r2));
        let after = st.latent_of(e);
        assert!(after.contains(&AtomI::Rho(r2)));
        // The caller's old snapshot is untouched.
        assert!(!before.contains(&AtomI::Rho(r2)));
    }

    #[test]
    fn unrelated_mutation_keeps_memos_warm() {
        let mut st = Store::new();
        let e1 = st.fresh_eps();
        let e2 = st.fresh_eps();
        let r1 = st.fresh_rho();
        let r2 = st.fresh_rho();
        st.add_atom(e1, AtomI::Rho(r1));
        let _ = st.latent_of(e1);
        let hits0 = st.stats().closure_cache_hits;
        // Growing ε2 must not evict ε1's memo entry.
        st.add_atom(e2, AtomI::Rho(r2));
        let _ = st.latent_of(e1);
        assert_eq!(st.stats().closure_cache_hits, hits0 + 1);
        // ε2's own entry is dirty and recomputes.
        let rec0 = st.stats().closure_recomputes;
        assert!(st.latent_of(e2).contains(&AtomI::Rho(r2)));
        assert_eq!(st.stats().closure_recomputes, rec0 + 1);
    }

    #[test]
    fn union_flushes_all_memos() {
        let mut st = Store::new();
        let e1 = st.fresh_eps();
        let e2 = st.fresh_eps();
        let e3 = st.fresh_eps();
        let r = st.fresh_rho();
        st.add_atom(e1, AtomI::Rho(r));
        let _ = st.latent_of(e1);
        let rec0 = st.stats().closure_recomputes;
        // Even an unrelated union changes canonical representatives, so
        // every memoised canonicalised set is conservatively dropped.
        st.union_eps(e2, e3);
        let _ = st.latent_of(e1);
        assert_eq!(st.stats().closure_recomputes, rec0 + 1);
    }

    #[test]
    fn dirty_marking_reaches_containers() {
        // c ∋ e; memoise both; grow e — the memoised c must not go stale.
        let mut st = Store::new();
        let c = st.fresh_eps();
        let e = st.fresh_eps();
        st.add_atom(c, AtomI::Eps(e));
        let _ = (st.latent_of(c), st.latent_of(e));
        let r = st.fresh_rho();
        st.add_atom(e, AtomI::Rho(r));
        assert!(st.latent_of(e).contains(&AtomI::Rho(r)));
        assert!(st.latent_of(c).contains(&AtomI::Rho(r)));
    }

    #[test]
    fn equal_result_sets_are_pointer_shared() {
        let mut st = Store::new();
        let e1 = st.fresh_eps();
        let e2 = st.fresh_eps();
        let r = st.fresh_rho();
        st.add_atom(e1, AtomI::Rho(r));
        st.add_atom(e2, AtomI::Rho(r));
        let a = st.latent_of(e1);
        let b = st.latent_of(e2);
        assert!(Rc::ptr_eq(&a, &b));
        assert!(st.stats().intern_hits >= 1);
    }

    #[test]
    fn stats_count_finds_and_unions() {
        let mut st = Store::new();
        let a = st.fresh_rho();
        let b = st.fresh_rho();
        let before = st.stats();
        st.union_rho(a, b);
        st.find_rho(a);
        let after = st.stats();
        assert_eq!(after.unions, before.unions + 1);
        assert!(after.find_ops > before.find_ops);
    }
}
