//! The heap-invariant verifier: a read-only audit walk used by the
//! torture rig.
//!
//! [`Heap::verify`] checks, after every collection (and optionally after
//! every machine step under stress schedules), that
//!
//! * every live page is owned by a live region and the region's page list
//!   agrees (no orphaned or stolen pages),
//! * every object header on a tagged page decodes and the objects tile
//!   the page exactly (no overruns, no undecodable words),
//! * finite regions hold at most their multiplicity-proven bound,
//! * every pointer *reachable from the roots* lands in a live page of a
//!   live region with a matching epoch (the paper's GC-safety invariant:
//!   no reachable dangling pointers),
//! * in generational mode, every reachable old→young edge is covered by
//!   the write-barrier remembered set.
//!
//! Reachability matters: unreachable garbage may legitimately hold
//! dangling pointers even under the paper's safe strategy `rg` (the
//! collector never traces it), so pointer validity is only demanded on
//! the reachable sub-heap. Structural checks (headers, tiling, bounds)
//! hold for *all* live pages unconditionally.
//!
//! Violations come back as a structured [`HeapInvariantError`] naming the
//! object, region, and offending edge — never a panic.

use crate::heap::{Heap, RegionId, RegionKind, Scratch};
use crate::word::{Header, ObjKind, Word};

/// What went wrong, in detail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvariantKind {
    /// A header word failed to decode.
    BadHeader {
        /// The undecodable word.
        word: u64,
    },
    /// A forwarding marker survived in a live page after collection
    /// finished (from-space leaked into to-space).
    StaleForwarding {
        /// The forwarding header word.
        word: u64,
    },
    /// An object extends past the page's used extent, or a uniform page's
    /// extent is not a whole number of objects.
    ObjectOverrunsPage {
        /// Words the object claims.
        need: usize,
        /// Words the page has used.
        used: usize,
    },
    /// A live page belongs to a deallocated region.
    DeadRegionPage,
    /// Page/region bookkeeping disagrees: the page says it belongs to the
    /// region but the region's page list says otherwise (or vice versa).
    PageNotInRegion,
    /// A finite region holds more objects than its multiplicity bound.
    FiniteBoundExceeded {
        /// Objects currently in the region.
        objects: u64,
        /// The proven bound.
        bound: u64,
    },
    /// A root word dangles (dead page, stale epoch, or out-of-extent
    /// offset).
    DanglingRoot {
        /// The page the root points into.
        target_page: u32,
    },
    /// A reachable object field dangles.
    DanglingField {
        /// Payload field index.
        field: usize,
        /// The page the field points into.
        target_page: u32,
    },
    /// A reachable old→young edge is missing from the remembered set: a
    /// minor collection would fail to trace it.
    UnrememberedOldYoungEdge {
        /// Payload field index.
        field: usize,
        /// The young page the field points into.
        target_page: u32,
    },
}

/// A heap-invariant violation, located: which object (page + offset),
/// which region owns it, and what was wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapInvariantError {
    /// The violated invariant.
    pub kind: InvariantKind,
    /// Page of the offending object (or region's first page for
    /// region-level violations).
    pub page: u32,
    /// Word offset of the offending object within the page.
    pub offset: u32,
    /// The region involved.
    pub region: u32,
}

impl HeapInvariantError {
    /// Is this violation a dangling pointer (as opposed to structural
    /// corruption)? Dangling reachable pointers are the paper's GC-safety
    /// failure and map to the same runtime error as a collector-detected
    /// dangle; everything else is heap corruption.
    pub fn is_dangling(&self) -> bool {
        matches!(
            self.kind,
            InvariantKind::DanglingRoot { .. } | InvariantKind::DanglingField { .. }
        )
    }
}

impl std::fmt::Display for HeapInvariantError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let at = format!(
            "object at page {} offset {} (region r{})",
            self.page, self.offset, self.region
        );
        match self.kind {
            InvariantKind::BadHeader { word } => {
                write!(f, "undecodable header {word:#018x} for {at}")
            }
            InvariantKind::StaleForwarding { word } => {
                write!(f, "stale forwarding marker {word:#018x} reachable at {at}")
            }
            InvariantKind::ObjectOverrunsPage { need, used } => write!(
                f,
                "{at} claims {need} words but the page has only {used} used"
            ),
            InvariantKind::DeadRegionPage => {
                write!(
                    f,
                    "live page {} owned by dead region r{}",
                    self.page, self.region
                )
            }
            InvariantKind::PageNotInRegion => write!(
                f,
                "page {} and region r{} disagree on ownership",
                self.page, self.region
            ),
            InvariantKind::FiniteBoundExceeded { objects, bound } => write!(
                f,
                "finite region r{} holds {objects} objects, exceeding its \
                 multiplicity bound {bound}",
                self.region
            ),
            InvariantKind::DanglingRoot { target_page } => write!(
                f,
                "root dangles into page {target_page} (edge from the machine root set)"
            ),
            InvariantKind::DanglingField { field, target_page } => write!(
                f,
                "reachable edge dangles: field {field} of {at} points into dead \
                 or recycled page {target_page}"
            ),
            InvariantKind::UnrememberedOldYoungEdge { field, target_page } => write!(
                f,
                "old-to-young edge not in remembered set: field {field} of {at} \
                 points into young page {target_page}"
            ),
        }
    }
}

impl std::error::Error for HeapInvariantError {}

/// Counters from one verifier walk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Live pages structurally checked.
    pub pages_walked: u64,
    /// Objects visited (structural walk + reachability trace).
    pub objects_checked: u64,
    /// Pointer edges validated during the reachability trace.
    pub edges_traced: u64,
}

impl Heap {
    /// Audits the whole heap. `roots` is the machine's current root set
    /// (the same words it would hand to [`Heap::collect`]); reachability
    /// checks start there plus every object in a finite region (finite
    /// regions are implicit roots, exactly as for the collector).
    ///
    /// # Errors
    ///
    /// The first violation found, as a located [`HeapInvariantError`].
    pub fn verify(&mut self, roots: &[Word]) -> Result<VerifyReport, HeapInvariantError> {
        self.stats.verify_walks += 1;
        let walk = self.stats.verify_walks;

        // Stamp every page its owner's page list holds, so the page walk
        // checks ownership without searching the lists.
        for r in &self.live_regions {
            for &p in &self.regions[r.0 as usize].pages {
                if let Some(page) = self.pages.get_mut(p as usize) {
                    if page.region == *r {
                        page.listed = walk;
                    }
                }
            }
        }

        let mut scratch = std::mem::take(&mut self.scratch);
        let audited = self.audit(roots, walk, &mut scratch);
        self.scratch = scratch;
        audited
    }

    /// The read-only part of [`Heap::verify`], with the heap's work lists
    /// borrowed out.
    fn audit(
        &self,
        roots: &[Word],
        walk: u64,
        scratch: &mut Scratch,
    ) -> Result<VerifyReport, HeapInvariantError> {
        let mut report = VerifyReport::default();

        // ---- Structural walk: every live page, reachable or not. ----
        for pi in 0..self.pages.len() {
            let page = &self.pages[pi];
            if !page.live {
                continue;
            }
            report.pages_walked += 1;
            let rid = page.region.0;
            let err = |kind| HeapInvariantError {
                kind,
                page: pi as u32,
                offset: 0,
                region: rid,
            };
            let region = match self.regions.get(rid as usize) {
                Some(r) => r,
                None => return Err(err(InvariantKind::DeadRegionPage)),
            };
            if !region.live {
                return Err(err(InvariantKind::DeadRegionPage));
            }
            if page.listed != walk {
                return Err(err(InvariantKind::PageNotInRegion));
            }
            if page.used > page.words.len() {
                return Err(err(InvariantKind::ObjectOverrunsPage {
                    need: page.used,
                    used: page.words.len(),
                }));
            }
            match region.uniform {
                Some(u) => {
                    // Untagged page: the extent must tile into whole
                    // objects.
                    if !page.used.is_multiple_of(u.words()) {
                        return Err(err(InvariantKind::ObjectOverrunsPage {
                            need: u.words(),
                            used: page.used,
                        }));
                    }
                    report.objects_checked += (page.used / u.words()) as u64;
                }
                None => {
                    let mut off = 0usize;
                    while off < page.used {
                        let word = page.words[off];
                        let header = Header::decode(word).ok_or(HeapInvariantError {
                            kind: InvariantKind::BadHeader { word },
                            page: pi as u32,
                            offset: off as u32,
                            region: rid,
                        })?;
                        let need = 1 + header.payload_words() as usize;
                        if off + need > page.used {
                            return Err(HeapInvariantError {
                                kind: InvariantKind::ObjectOverrunsPage {
                                    need,
                                    used: page.used,
                                },
                                page: pi as u32,
                                offset: off as u32,
                                region: rid,
                            });
                        }
                        report.objects_checked += 1;
                        off += need;
                    }
                }
            }
        }

        // Region-side bookkeeping: page lists must point at live pages
        // that agree on the owner, and finite bounds must hold.
        for &RegionId(ri) in &self.live_regions {
            let region = &self.regions[ri as usize];
            for &p in &region.pages {
                let ok = self
                    .pages
                    .get(p as usize)
                    .map(|pg| pg.live && pg.region.0 == ri)
                    .unwrap_or(false);
                if !ok {
                    return Err(HeapInvariantError {
                        kind: InvariantKind::PageNotInRegion,
                        page: p,
                        offset: 0,
                        region: ri,
                    });
                }
            }
            if region.kind == RegionKind::Finite {
                if let Some(bound) = region.bound {
                    if region.objects > bound {
                        return Err(HeapInvariantError {
                            kind: InvariantKind::FiniteBoundExceeded {
                                objects: region.objects,
                                bound,
                            },
                            page: region.pages.first().copied().unwrap_or(0),
                            offset: 0,
                            region: ri,
                        });
                    }
                }
            }
        }

        // ---- Reachability trace: roots + finite-region objects. ----
        let stack = &mut scratch.work;
        stack.clear();
        for &w in roots {
            if !w.is_pointer() {
                continue;
            }
            let (page, off, _) = w.ptr_parts();
            if self.check_ptr(w, "verify").is_err() {
                return Err(HeapInvariantError {
                    kind: InvariantKind::DanglingRoot { target_page: page },
                    page,
                    offset: off,
                    region: self
                        .pages
                        .get(page as usize)
                        .map(|p| p.region.0)
                        .unwrap_or(u32::MAX),
                });
            }
            stack.push(w);
        }
        // Finite regions are implicit roots (the collector scans them in
        // place); enumerate their objects.
        for r in &self.live_regions {
            let region = &self.regions[r.0 as usize];
            if region.kind != RegionKind::Finite {
                continue;
            }
            for &p in &region.pages {
                let page = &self.pages[p as usize];
                let epoch = page.epoch;
                match region.uniform {
                    Some(u) => {
                        let mut off = 0usize;
                        while off < page.used {
                            stack.push(Word::pointer(p, off as u32, epoch));
                            off += u.words();
                        }
                    }
                    None => {
                        let mut off = 0usize;
                        while off < page.used {
                            // Headers were validated structurally above.
                            let header = match Header::decode(page.words[off]) {
                                Some(h) => h,
                                None => break,
                            };
                            stack.push(Word::pointer(p, off as u32, epoch));
                            off += 1 + header.payload_words() as usize;
                        }
                    }
                }
            }
        }

        let seen = &mut scratch.seen;
        seen.clear();
        let remembered = &mut scratch.remembered;
        remembered.clear();
        remembered.extend(self.remembered.iter().map(|w| w.0));
        while let Some(obj) = stack.pop() {
            if !seen.insert(obj.0) {
                continue;
            }
            report.objects_checked += 1;
            let (page, off) = match self.check_ptr(obj, "verify") {
                Ok(po) => po,
                Err(_) => {
                    // Every word on the stack was validated before being
                    // pushed, so this is unreachable in practice; report
                    // it as a dangling root rather than panic.
                    let (p, o, _) = obj.ptr_parts();
                    return Err(HeapInvariantError {
                        kind: InvariantKind::DanglingRoot { target_page: p },
                        page: p,
                        offset: o,
                        region: u32::MAX,
                    });
                }
            };
            let rid = self.pages[page as usize].region.0;
            let obj_young = self.young(page);
            let (start, end, skip) = match self.uniform_of_page(page) {
                Some(u) => (0, u.words(), 0usize),
                None => {
                    let word = self.pages[page as usize].words[off as usize];
                    let header = Header::decode(word).ok_or(HeapInvariantError {
                        kind: InvariantKind::BadHeader { word },
                        page,
                        offset: off,
                        region: rid,
                    })?;
                    match header.kind {
                        ObjKind::Forward => {
                            return Err(HeapInvariantError {
                                kind: InvariantKind::StaleForwarding { word },
                                page,
                                offset: off,
                                region: rid,
                            });
                        }
                        ObjKind::Str => continue,
                        _ => (header.raw as usize, header.len as usize, 1usize),
                    }
                }
            };
            for i in start..end {
                let field = Word(self.pages[page as usize].words[off as usize + skip + i]);
                if !field.is_pointer() {
                    continue;
                }
                report.edges_traced += 1;
                let (tp, _, _) = field.ptr_parts();
                let target_ok = self.check_ptr(field, "verify").is_ok()
                    && self
                        .pages
                        .get(tp as usize)
                        .map(|p| self.regions[p.region.0 as usize].live)
                        .unwrap_or(false);
                if !target_ok {
                    return Err(HeapInvariantError {
                        kind: InvariantKind::DanglingField {
                            field: i,
                            target_page: tp,
                        },
                        page,
                        offset: off,
                        region: rid,
                    });
                }
                if self.generational && !obj_young && self.young(tp) && !remembered.contains(&obj.0)
                {
                    return Err(HeapInvariantError {
                        kind: InvariantKind::UnrememberedOldYoungEdge {
                            field: i,
                            target_page: tp,
                        },
                        page,
                        offset: off,
                        region: rid,
                    });
                }
                stack.push(field);
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::{Heap, RegionKind};

    fn pair(h: &mut Heap, r: crate::heap::RegionId, a: Word, b: Word) -> Word {
        h.alloc(r, ObjKind::Pair, 0, &[a.0, b.0])
    }

    #[test]
    fn clean_heap_verifies() {
        let mut h = Heap::new();
        let r = h.create_region(RegionKind::Infinite);
        let inner = pair(&mut h, r, Word::int(1), Word::int(2));
        let outer = pair(&mut h, r, inner, Word::int(3));
        let report = h.verify(&[outer]).unwrap();
        assert!(report.pages_walked >= 1);
        assert!(report.objects_checked >= 2);
        assert!(report.edges_traced >= 1);
        assert_eq!(h.stats.verify_walks, 1);
    }

    #[test]
    fn verifies_after_collection() {
        let mut h = Heap::new();
        let r = h.create_region(RegionKind::Infinite);
        let keep = pair(&mut h, r, Word::int(1), Word::int(2));
        for i in 0..5000 {
            pair(&mut h, r, Word::int(i), Word::int(i));
        }
        let mut roots = [keep];
        h.collect(&mut roots, false).unwrap();
        h.verify(&roots).unwrap();
    }

    #[test]
    fn unreachable_garbage_may_dangle() {
        // The GC-safety invariant only covers the reachable sub-heap:
        // garbage holding a dangling pointer must NOT trip the verifier.
        let mut h = Heap::new();
        let live = h.create_region(RegionKind::Infinite);
        let dead = h.create_region(RegionKind::Infinite);
        let victim = pair(&mut h, dead, Word::int(1), Word::int(2));
        let _garbage = pair(&mut h, live, victim, Word::int(0));
        let keep = pair(&mut h, live, Word::int(9), Word::int(9));
        h.drop_region(dead);
        h.verify(&[keep]).unwrap();
    }

    #[test]
    fn reachable_dangling_field_detected() {
        let mut h = Heap::new();
        let live = h.create_region(RegionKind::Infinite);
        let dead = h.create_region(RegionKind::Infinite);
        let victim = pair(&mut h, dead, Word::int(1), Word::int(2));
        let holder = pair(&mut h, live, victim, Word::int(0));
        h.drop_region(dead);
        let err = h.verify(&[holder]).unwrap_err();
        assert!(matches!(
            err.kind,
            InvariantKind::DanglingField { field: 0, .. }
        ));
        assert!(err.is_dangling());
        let msg = err.to_string();
        assert!(msg.contains("reachable edge dangles"), "{msg}");
    }

    #[test]
    fn dangling_field_into_recycled_page_detected() {
        let mut h = Heap::new();
        let live = h.create_region(RegionKind::Infinite);
        let dead = h.create_region(RegionKind::Infinite);
        let victim = pair(&mut h, dead, Word::int(1), Word::int(2));
        let holder = pair(&mut h, live, victim, Word::int(0));
        h.drop_region(dead);
        let reuse = h.create_region(RegionKind::Infinite);
        let fresh = pair(&mut h, reuse, Word::int(3), Word::int(4));
        assert_eq!(fresh.ptr_parts().0, victim.ptr_parts().0, "page recycled");
        let err = h.verify(&[holder, fresh]).unwrap_err();
        assert!(matches!(
            err.kind,
            InvariantKind::DanglingField { field: 0, target_page } if target_page == victim.ptr_parts().0
        ));
    }

    #[test]
    fn dangling_root_detected() {
        let mut h = Heap::new();
        let dead = h.create_region(RegionKind::Infinite);
        let victim = pair(&mut h, dead, Word::int(1), Word::int(2));
        h.drop_region(dead);
        let err = h.verify(&[victim]).unwrap_err();
        assert!(matches!(err.kind, InvariantKind::DanglingRoot { .. }));
        assert!(err.is_dangling());
    }

    #[test]
    fn corrupt_header_detected() {
        let mut h = Heap::new();
        let r = h.create_region(RegionKind::Infinite);
        let w = pair(&mut h, r, Word::int(1), Word::int(2));
        let (page, off, _) = w.ptr_parts();
        h.pages[page as usize].words[off as usize] = 0xFF; // kind 255: undecodable
        let err = h.verify(&[w]).unwrap_err();
        assert!(matches!(err.kind, InvariantKind::BadHeader { word: 0xFF }));
        assert!(!err.is_dangling());
        assert_eq!(err.page, page);
        assert_eq!(err.offset, off);
    }

    #[test]
    fn finite_bound_violation_detected() {
        let mut h = Heap::new();
        let r = h.create_region(RegionKind::Finite);
        h.set_region_bound(r, 1);
        h.alloc(r, ObjKind::Ref, 0, &[Word::int(1).0]);
        h.verify(&[]).unwrap();
        h.alloc(r, ObjKind::Ref, 0, &[Word::int(2).0]);
        let err = h.verify(&[]).unwrap_err();
        assert!(matches!(
            err.kind,
            InvariantKind::FiniteBoundExceeded {
                objects: 2,
                bound: 1
            }
        ));
    }

    #[test]
    fn unremembered_old_young_edge_detected() {
        let mut h = Heap::new();
        h.generational = true;
        let r = h.create_region(RegionKind::Infinite);
        let cell = h.alloc(r, ObjKind::Ref, 0, &[Word::UNIT.0]);
        let mut roots = [cell];
        h.collect(&mut roots, false).unwrap(); // cell is now old
        let cell = roots[0];
        let young = pair(&mut h, r, Word::int(1), Word::int(2));
        // Bypass the write barrier: poke the field directly.
        let (page, off, _) = cell.ptr_parts();
        h.pages[page as usize].words[off as usize + 1] = young.0;
        let err = h.verify(&[cell]).unwrap_err();
        assert!(matches!(
            err.kind,
            InvariantKind::UnrememberedOldYoungEdge { field: 0, .. }
        ));
        // Through the barrier the same heap verifies.
        h.set_field(cell, 0, young, "t").unwrap();
        h.verify(&[cell]).unwrap();
    }

    #[test]
    fn finite_regions_are_implicit_roots() {
        // A dangling pointer held by a finite-region object is reachable
        // (the collector scans finite regions), so the verifier must see
        // it even with an empty explicit root set.
        let mut h = Heap::new();
        let fin = h.create_region(RegionKind::Finite);
        let dead = h.create_region(RegionKind::Infinite);
        let victim = pair(&mut h, dead, Word::int(1), Word::int(2));
        let _holder = pair(&mut h, fin, victim, Word::int(0));
        h.drop_region(dead);
        let err = h.verify(&[]).unwrap_err();
        assert!(matches!(err.kind, InvariantKind::DanglingField { .. }));
    }

    #[test]
    fn untagged_regions_verify() {
        let mut h = Heap::new();
        let u = h.create_region_uniform(RegionKind::Infinite, Some(crate::heap::UniformKind::Pair));
        let t = h.create_region(RegionKind::Infinite);
        let inner = h.alloc(u, ObjKind::Pair, 0, &[Word::int(1).0, Word::int(2).0]);
        let outer = pair(&mut h, t, inner, Word::int(3));
        h.verify(&[outer]).unwrap();
        let mut roots = [outer];
        h.collect(&mut roots, false).unwrap();
        h.verify(&roots).unwrap();
    }
}
