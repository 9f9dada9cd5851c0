//! The region-preserving Cheney copying collector.
//!
//! Collection evacuates the live objects of every live *infinite* region
//! into fresh pages of the **same region** (region identity is
//! observable: `letregion` must still deallocate wholesale), updates all
//! roots and interior pointers, and releases the old pages. Objects in
//! *finite* regions are never moved but are scanned in place so their
//! fields get updated.
//!
//! If the trace reaches a pointer whose page has been released — a value
//! in a deallocated region, reachable from a live object — collection
//! stops with [`GcError::DanglingPointer`]. This is precisely the
//! situation the paper's type system rules out, and precisely what the
//! benchmark strategy `rg-` provokes on the program of Figure 1.
//!
//! A generational mode collects only pages allocated since the last
//! collection ("young" pages), using the write-barrier-maintained
//! remembered set for old-to-young pointers.

use crate::heap::{Heap, RegionId, RegionKind};
use crate::stats::GcPause;
use crate::word::{Header, ObjKind, Word, WORD_BYTES};
use rml_session::trace;
use std::time::Instant;

/// A collection error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GcError {
    /// The collector traced a pointer into a deallocated region.
    DanglingPointer {
        /// Where the pointer was found.
        context: &'static str,
    },
    /// A header word failed to decode (heap corruption; indicates a
    /// runtime bug). Carries the failing word and where it was found so
    /// the diagnostic names the object instead of a bare "corruption".
    Corrupt {
        /// The undecodable header word.
        word: u64,
        /// Page the word was read from.
        page: u32,
        /// Word offset within the page.
        offset: u32,
        /// The region owning that page.
        region: u32,
    },
}

impl std::fmt::Display for GcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GcError::DanglingPointer { context } => {
                write!(f, "garbage collector traced a dangling pointer ({context})")
            }
            GcError::Corrupt {
                word,
                page,
                offset,
                region,
            } => write!(
                f,
                "heap corruption during collection: undecodable header \
                 {word:#018x} at page {page} offset {offset} (region r{region})"
            ),
        }
    }
}

impl std::error::Error for GcError {}

impl Heap {
    /// Performs a tracing collection. `roots` are updated in place; pass
    /// `minor = true` for a generational (young-pages-only) collection.
    ///
    /// Walks only the live heap: the live regions' page lists, the pages
    /// reachable from `roots`, and the finite regions' pages. Its work
    /// lists live in the heap, so a collection allocates on the host only
    /// while they grow.
    ///
    /// # Errors
    ///
    /// Returns [`GcError::DanglingPointer`] if a live object points into a
    /// deallocated region. The heap is left in a valid (if partially
    /// evacuated) state; callers should treat this as fatal for the
    /// program under execution, as a real collector would crash.
    pub fn collect(&mut self, roots: &mut [Word], minor: bool) -> Result<(), GcError> {
        let _span = trace::span(if minor { "gc.minor" } else { "gc.major" }, "runtime");
        let pause_start = Instant::now();
        let copied_before = self.stats.bytes_copied;
        // 1. Detach the pages to evacuate from every infinite region, so
        //    copies go to fresh pages; pages that are not evacuated stay
        //    put.
        let gc_count = self.stats.gc_count;
        let Heap {
            pages,
            regions,
            live_regions,
            scratch,
            ..
        } = self;
        for r in live_regions.iter() {
            let region = &mut regions[r.0 as usize];
            if region.kind != RegionKind::Infinite {
                continue;
            }
            region.pages.retain(|&p| {
                let page = &mut pages[p as usize];
                let evacuate = page.live && (!minor || page.born == gc_count);
                if evacuate {
                    page.from_space = true;
                    scratch.old_pages.push(p);
                }
                !evacuate
            });
        }
        // 2. Trace, then release from-space (or, on failure, leave it
        //    detached but unmarked).
        let traced = self.trace_live(roots, minor);
        let mut old_pages = std::mem::take(&mut self.scratch.old_pages);
        for &p in &old_pages {
            if traced.is_ok() {
                self.release_page(p);
            } else {
                self.pages[p as usize].from_space = false;
            }
        }
        old_pages.clear();
        self.scratch.old_pages = old_pages;
        traced?;
        // Counting the collection seals every page it leaves (see
        // `Page::born`).
        self.stats.gc_count += 1;
        if minor {
            self.stats.minor_gc_count += 1;
        }
        self.bytes_since_gc = 0;
        let mut live_words = 0;
        for r in &self.live_regions {
            for &p in &self.regions[r.0 as usize].pages {
                live_words += self.pages[p as usize].used as u64;
            }
        }
        self.live_after_gc = live_words * WORD_BYTES;
        let pause = GcPause {
            duration: pause_start.elapsed(),
            bytes_copied: self.stats.bytes_copied - copied_before,
            live_bytes: self.live_after_gc,
            minor,
        };
        self.pauses.push(pause);
        if trace::enabled() {
            trace::counter("heap.live_bytes", self.live_after_gc as f64);
            trace::instant(
                "gc.pause",
                "runtime",
                &[
                    ("us", pause.duration.as_micros() as f64),
                    ("copied_bytes", pause.bytes_copied as f64),
                ],
            );
        }
        Ok(())
    }

    /// Forwards the roots, then the remembered set (minor only), then
    /// scans the finite regions' pages in place and drains the queue.
    fn trace_live(&mut self, roots: &mut [Word], minor: bool) -> Result<(), GcError> {
        self.scratch.work.clear();
        self.scratch.untagged_fwd.clear();
        for w in roots.iter_mut() {
            *w = self.forward(*w, "root")?;
        }
        let mut remembered = std::mem::take(&mut self.remembered);
        if minor {
            for &obj in &remembered {
                // The object itself is old (not moved); fix its fields.
                if self.check_ptr(obj, "remembered").is_ok() {
                    self.scan_object(obj)?;
                }
            }
        }
        remembered.clear();
        self.remembered = remembered;
        // Unmoved pages are scanned in place, in page order: every finite
        // page in a major collection; in a minor one only the young
        // finite pages (old infinite pages are covered by the remembered
        // set).
        let mut in_place = std::mem::take(&mut self.scratch.in_place);
        in_place.clear();
        for r in &self.live_regions {
            let region = &self.regions[r.0 as usize];
            if region.kind != RegionKind::Finite {
                continue;
            }
            for &p in &region.pages {
                if self.pages[p as usize].live && (!minor || self.young(p)) {
                    in_place.push(p);
                }
            }
        }
        in_place.sort_unstable();
        let scanned = in_place.iter().try_for_each(|&p| self.scan_page(p));
        self.scratch.in_place = in_place;
        scanned?;
        while let Some(obj) = self.scratch.work.pop() {
            self.scan_object(obj)?;
        }
        Ok(())
    }

    /// Forwards one word: immediates pass through; pointers into
    /// non-evacuated pages pass through; pointers into evacuated pages are
    /// copied (once) to fresh pages of their region.
    fn forward(&mut self, w: Word, context: &'static str) -> Result<Word, GcError> {
        if !w.is_pointer() {
            return Ok(w);
        }
        let (page, off, epoch) = w.ptr_parts();
        let p = self
            .pages
            .get(page as usize)
            .ok_or(GcError::DanglingPointer { context })?;
        if !p.live || p.epoch != epoch {
            return Err(GcError::DanglingPointer { context });
        }
        // Pages created during this collection (to-space) are never
        // evacuated again.
        if !p.from_space {
            // Not moving; if its region is dead, that's dangling too.
            if !self.regions[p.region.0 as usize].live {
                return Err(GcError::DanglingPointer { context });
            }
            return Ok(w);
        }
        let region = p.region;
        if let Some(u) = self.uniform_of_page(page) {
            // Untagged object: side-table forwarding.
            if let Some(new) = self.scratch.untagged_fwd.get(&w.0) {
                return Ok(*new);
            }
            let new = self.copy_object(region, page, off as usize, u.words());
            self.scratch.untagged_fwd.insert(w.0, new);
            return Ok(new);
        }
        let header_word = p.words[off as usize];
        let header = Header::decode(header_word).ok_or(GcError::Corrupt {
            word: header_word,
            page,
            offset: off,
            region: region.0,
        })?;
        if header.kind == ObjKind::Forward {
            return Ok(Word(p.words[off as usize + 1]));
        }
        let new = self.copy_object(
            region,
            page,
            off as usize,
            1 + header.payload_words() as usize,
        );
        // Leave a forwarding marker.
        let p = &mut self.pages[page as usize];
        p.words[off as usize] = Header {
            kind: ObjKind::Forward,
            len: header.len,
            raw: header.raw,
        }
        .encode();
        p.words[off as usize + 1] = new.0;
        Ok(new)
    }

    /// Copies the `need`-word object at `src`/`off` (header included,
    /// when it has one) to the end of its region and queues the copy for
    /// scanning. Copies are not program allocation: only the collector's
    /// counters move.
    fn copy_object(&mut self, region: RegionId, src: u32, off: usize, need: usize) -> Word {
        let (dst, at) = self.reserve(region, need);
        // From-space pages are detached from their region, so `dst` is
        // never `src`; borrow the source words out for the copy.
        let from = std::mem::take(&mut self.pages[src as usize].words);
        let to = &mut self.pages[dst as usize];
        to.words[at..at + need].copy_from_slice(&from[off..off + need]);
        let new = Word::pointer(dst, at as u32, to.epoch);
        self.pages[src as usize].words = from;
        self.stats.bytes_copied += need as u64 * WORD_BYTES;
        self.stats.objects_copied += 1;
        self.scratch.work.push(new);
        new
    }

    /// Scans the traceable fields of one (already copied or in-place)
    /// object.
    fn scan_object(&mut self, obj: Word) -> Result<(), GcError> {
        let (page, off) = self
            .check_ptr(obj, "scan")
            .map_err(|_| GcError::DanglingPointer { context: "scan" })?;
        let (start, end, skip) = match self.uniform_of_page(page) {
            Some(u) => (0, u.words(), 0),
            None => {
                let word = self.pages[page as usize].words[off as usize];
                let header = Header::decode(word).ok_or(GcError::Corrupt {
                    word,
                    page,
                    offset: off,
                    region: self.pages[page as usize].region.0,
                })?;
                if header.kind == ObjKind::Str {
                    return Ok(());
                }
                (header.raw as usize, header.len as usize, 1)
            }
        };
        for i in start..end {
            let field = Word(self.pages[page as usize].words[off as usize + skip + i]);
            let fwd = self.forward(field, "object field")?;
            self.pages[page as usize].words[off as usize + skip + i] = fwd.0;
        }
        Ok(())
    }

    /// Scans every object of a page in place.
    fn scan_page(&mut self, page: u32) -> Result<(), GcError> {
        let uniform = self.uniform_of_page(page);
        let mut off = 0usize;
        loop {
            let (used, epoch) = {
                let p = &self.pages[page as usize];
                (p.used, p.epoch)
            };
            if off >= used {
                return Ok(());
            }
            let w = Word::pointer(page, off as u32, epoch);
            let size = match uniform {
                Some(u) => u.words(),
                None => {
                    let word = self.pages[page as usize].words[off];
                    let header = Header::decode(word).ok_or(GcError::Corrupt {
                        word,
                        page,
                        offset: off as u32,
                        region: self.pages[page as usize].region.0,
                    })?;
                    1 + header.payload_words() as usize
                }
            };
            self.scan_object(w)?;
            self.stats.words_scanned_in_place += size as u64;
            off += size;
        }
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
    fn reachable_objects_survive() {
        let mut h = Heap::new();
        let r = h.create_region(RegionKind::Infinite);
        let inner = pair(&mut h, r, Word::int(1), Word::int(2));
        let outer = pair(&mut h, r, inner, Word::int(3));
        let mut roots = [outer];
        h.collect(&mut roots, false).unwrap();
        let outer2 = roots[0];
        assert_ne!(outer2, outer, "object should have moved");
        let inner2 = h.field(outer2, 0, "t").unwrap();
        assert_eq!(h.field(inner2, 0, "t").unwrap(), Word::int(1));
        assert_eq!(h.field(outer2, 1, "t").unwrap(), Word::int(3));
        assert_eq!(h.region_of(outer2, "t").unwrap(), r, "region identity");
    }

    #[test]
    fn garbage_is_reclaimed() {
        let mut h = Heap::new();
        let r = h.create_region(RegionKind::Infinite);
        let keep = pair(&mut h, r, Word::int(1), Word::int(2));
        for i in 0..10_000 {
            pair(&mut h, r, Word::int(i), Word::int(i));
        }
        let before = h.live_words();
        let mut roots = [keep];
        h.collect(&mut roots, false).unwrap();
        let after = h.live_words();
        assert!(after < before / 4, "before={before} after={after}");
        assert_eq!(h.field(roots[0], 0, "t").unwrap(), Word::int(1));
        assert_eq!(h.stats.gc_count, 1);
    }

    #[test]
    fn empty_string_forwards_without_clobbering_neighbor() {
        // Regression: a zero-byte string must still occupy two words
        // (header + pad), or the in-place forwarding marker written when
        // it is evacuated spills its pointer word over the next object's
        // header. Found by the differential torture oracle (`strings`
        // program, baseline × stress-every-step).
        let mut h = Heap::new();
        let r = h.create_region(RegionKind::Infinite);
        let empty = h.alloc_str(r, "");
        let neighbor = pair(&mut h, r, Word::int(41), Word::int(42));
        let mut roots = [empty, neighbor];
        h.collect(&mut roots, false).unwrap();
        h.verify(&roots).unwrap();
        assert_eq!(h.read_str(roots[0], "t").unwrap(), "");
        assert_eq!(h.field(roots[1], 0, "t").unwrap(), Word::int(41));
        assert_eq!(h.field(roots[1], 1, "t").unwrap(), Word::int(42));
    }

    #[test]
    fn shared_objects_copied_once() {
        let mut h = Heap::new();
        let r = h.create_region(RegionKind::Infinite);
        let shared = pair(&mut h, r, Word::int(7), Word::int(8));
        let a = pair(&mut h, r, shared, shared);
        let mut roots = [a];
        h.collect(&mut roots, false).unwrap();
        let f0 = h.field(roots[0], 0, "t").unwrap();
        let f1 = h.field(roots[0], 1, "t").unwrap();
        assert_eq!(f0, f1, "sharing must be preserved");
        assert_eq!(h.stats.objects_copied, 2);
        assert_eq!(h.stats.bytes_copied, 2 * 3 * WORD_BYTES);
        assert_eq!(h.stats.words_scanned_in_place, 0);
    }

    #[test]
    fn cycles_are_handled() {
        let mut h = Heap::new();
        let r = h.create_region(RegionKind::Infinite);
        let cell = h.alloc(r, ObjKind::Ref, 0, &[Word::UNIT.0]);
        let p = pair(&mut h, r, cell, Word::int(0));
        h.set_field(cell, 0, p, "t").unwrap();
        let mut roots = [p];
        h.collect(&mut roots, false).unwrap();
        let cell2 = h.field(roots[0], 0, "t").unwrap();
        let back = h.field(cell2, 0, "t").unwrap();
        assert_eq!(back, roots[0], "cycle must close");
    }

    #[test]
    fn dangling_pointer_is_detected() {
        // A live object captures a pointer into a region that is then
        // deallocated: the collector must stop (the paper's scenario).
        let mut h = Heap::new();
        let live = h.create_region(RegionKind::Infinite);
        let dead = h.create_region(RegionKind::Infinite);
        let s = h.alloc_str(dead, "ohno");
        let closure_like = pair(&mut h, live, s, Word::int(0));
        h.drop_region(dead);
        let mut roots = [closure_like];
        let err = h.collect(&mut roots, false).unwrap_err();
        assert!(matches!(err, GcError::DanglingPointer { .. }));
    }

    #[test]
    fn stale_pointer_into_recycled_page_is_detected() {
        // The dead region's page is recycled by a new region: the page is
        // live again, but the stale pointer carries the old epoch.
        let mut h = Heap::new();
        let live = h.create_region(RegionKind::Infinite);
        let dead = h.create_region(RegionKind::Infinite);
        let victim = pair(&mut h, dead, Word::int(1), Word::int(2));
        let holder = pair(&mut h, live, victim, Word::int(0));
        h.drop_region(dead);
        let reuse = h.create_region(RegionKind::Infinite);
        let fresh = pair(&mut h, reuse, Word::int(3), Word::int(4));
        assert_eq!(fresh.ptr_parts().0, victim.ptr_parts().0, "page recycled");
        let mut roots = [holder, fresh];
        let err = h.collect(&mut roots, false).unwrap_err();
        assert!(matches!(err, GcError::DanglingPointer { .. }));
    }

    #[test]
    fn region_identity_preserved_across_regions() {
        let mut h = Heap::new();
        let r1 = h.create_region(RegionKind::Infinite);
        let r2 = h.create_region(RegionKind::Infinite);
        let a = pair(&mut h, r1, Word::int(1), Word::int(1));
        let b = pair(&mut h, r2, a, Word::int(2));
        let mut roots = [b];
        h.collect(&mut roots, false).unwrap();
        assert_eq!(h.region_of(roots[0], "t").unwrap(), r2);
        let a2 = h.field(roots[0], 0, "t").unwrap();
        assert_eq!(h.region_of(a2, "t").unwrap(), r1);
    }

    #[test]
    fn finite_regions_are_scanned_not_moved() {
        let mut h = Heap::new();
        let fin = h.create_region(RegionKind::Finite);
        let inf = h.create_region(RegionKind::Infinite);
        let target = pair(&mut h, inf, Word::int(5), Word::int(6));
        let holder = pair(&mut h, fin, target, Word::int(0));
        // No explicit root for `holder` (finite regions are roots).
        let mut roots: [Word; 0] = [];
        h.collect(&mut roots, false).unwrap();
        // holder didn't move...
        let t2 = h.field(holder, 0, "t").unwrap();
        // ...but its field was forwarded to the moved target.
        assert_eq!(h.field(t2, 0, "t").unwrap(), Word::int(5));
        assert_eq!(h.region_of(holder, "t").unwrap(), fin);
        assert_eq!(h.stats.objects_copied, 1, "only the target moves");
        assert_eq!(h.stats.words_scanned_in_place, 3, "holder: header + 2");
    }

    #[test]
    fn strings_survive_collection() {
        let mut h = Heap::new();
        let r = h.create_region(RegionKind::Infinite);
        let s = h.alloc_str(r, "garbage collection");
        let mut roots = [s];
        h.collect(&mut roots, false).unwrap();
        assert_eq!(h.read_str(roots[0], "t").unwrap(), "garbage collection");
    }

    #[test]
    fn minor_collection_uses_remembered_set() {
        let mut h = Heap::new();
        h.generational = true;
        let r = h.create_region(RegionKind::Infinite);
        let old_cell = h.alloc(r, ObjKind::Ref, 0, &[Word::UNIT.0]);
        let mut roots = [old_cell];
        h.collect(&mut roots, false).unwrap(); // old_cell is now old
        let old_cell = roots[0];
        // Mutate the old cell to point at a young object.
        let young = pair(&mut h, r, Word::int(42), Word::int(43));
        h.set_field(old_cell, 0, young, "t").unwrap();
        assert!(!h.remembered.is_empty(), "write barrier must record");
        // Minor collection with no explicit root for `young`.
        let mut roots = [old_cell];
        h.collect(&mut roots, true).unwrap();
        let young2 = h.field(roots[0], 0, "t").unwrap();
        assert_eq!(h.field(young2, 0, "t").unwrap(), Word::int(42));
        assert_eq!(h.stats.minor_gc_count, 1);
    }

    #[test]
    fn minor_collection_keeps_old_pages() {
        let mut h = Heap::new();
        h.generational = true;
        let r = h.create_region(RegionKind::Infinite);
        let old = pair(&mut h, r, Word::int(1), Word::int(2));
        let mut roots = [old];
        h.collect(&mut roots, false).unwrap();
        let old = roots[0];
        // Young garbage.
        for i in 0..1000 {
            pair(&mut h, r, Word::int(i), Word::int(i));
        }
        let mut roots = [old];
        h.collect(&mut roots, true).unwrap();
        // Old object did not move in the minor collection.
        assert_eq!(roots[0], old);
        assert_eq!(h.field(old, 0, "t").unwrap(), Word::int(1));
    }

    #[test]
    fn collection_resets_trigger() {
        let mut h = Heap::new();
        let r = h.create_region(RegionKind::Infinite);
        for _ in 0..200 {
            pair(&mut h, r, Word::int(0), Word::int(0));
        }
        assert!(h.should_collect(1024, 2.0));
        let mut roots: [Word; 0] = [];
        h.collect(&mut roots, false).unwrap();
        assert!(!h.should_collect(1024, 2.0));
    }
}

#[cfg(test)]
mod untagged_tests {
    use super::*;
    use crate::heap::{Heap, RegionKind, UniformKind};

    #[test]
    fn untagged_pairs_save_the_header_word() {
        let mut tagged = Heap::new();
        let rt = tagged.create_region(RegionKind::Infinite);
        tagged.alloc(rt, ObjKind::Pair, 0, &[Word::int(1).0, Word::int(2).0]);
        let mut untagged = Heap::new();
        let ru = untagged.create_region_uniform(RegionKind::Infinite, Some(UniformKind::Pair));
        untagged.alloc(ru, ObjKind::Pair, 0, &[Word::int(1).0, Word::int(2).0]);
        assert_eq!(tagged.stats.bytes_allocated, 24);
        assert_eq!(untagged.stats.bytes_allocated, 16, "no header word");
    }

    #[test]
    fn untagged_fields_read_back() {
        let mut h = Heap::new();
        let r = h.create_region_uniform(RegionKind::Infinite, Some(UniformKind::Pair));
        let w = h.alloc(r, ObjKind::Pair, 0, &[Word::int(7).0, Word::int(8).0]);
        assert_eq!(h.field(w, 0, "t").unwrap(), Word::int(7));
        assert_eq!(h.field(w, 1, "t").unwrap(), Word::int(8));
        assert_eq!(h.header(w, "t").unwrap().kind, ObjKind::Pair);
    }

    #[test]
    fn untagged_objects_survive_collection_with_sharing() {
        let mut h = Heap::new();
        let tagged = h.create_region(RegionKind::Infinite);
        let u = h.create_region_uniform(RegionKind::Infinite, Some(UniformKind::Pair));
        let shared = h.alloc(u, ObjKind::Pair, 0, &[Word::int(1).0, Word::int(2).0]);
        let holder = h.alloc(tagged, ObjKind::Pair, 0, &[shared.0, shared.0]);
        let mut roots = [holder];
        h.collect(&mut roots, false).unwrap();
        let a = h.field(roots[0], 0, "t").unwrap();
        let b = h.field(roots[0], 1, "t").unwrap();
        assert_eq!(a, b, "side-table forwarding must preserve sharing");
        assert_eq!(h.field(a, 0, "t").unwrap(), Word::int(1));
        assert_eq!(h.region_of(a, "t").unwrap(), u, "region identity");
    }

    #[test]
    fn untagged_refs_update_through_collection() {
        let mut h = Heap::new();
        let u = h.create_region_uniform(RegionKind::Infinite, Some(UniformKind::Ref));
        let p = h.create_region(RegionKind::Infinite);
        let target = h.alloc(p, ObjKind::Pair, 0, &[Word::int(9).0, Word::int(9).0]);
        let cell = h.alloc(u, ObjKind::Ref, 0, &[target.0]);
        let mut roots = [cell];
        h.collect(&mut roots, false).unwrap();
        let t2 = h.field(roots[0], 0, "t").unwrap();
        assert_eq!(h.field(t2, 0, "t").unwrap(), Word::int(9));
    }

    #[test]
    fn untagged_garbage_is_reclaimed() {
        let mut h = Heap::new();
        let u = h.create_region_uniform(RegionKind::Infinite, Some(UniformKind::Cons));
        let keep = h.alloc(u, ObjKind::Cons, 0, &[Word::int(1).0, Word::NIL.0]);
        for i in 0..10_000 {
            h.alloc(u, ObjKind::Cons, 0, &[Word::int(i).0, Word::NIL.0]);
        }
        let before = h.live_words();
        let mut roots = [keep];
        h.collect(&mut roots, false).unwrap();
        assert!(h.live_words() < before / 4);
        assert_eq!(h.field(roots[0], 0, "t").unwrap(), Word::int(1));
    }

    #[test]
    fn dangling_detection_works_for_untagged_regions() {
        let mut h = Heap::new();
        let live = h.create_region(RegionKind::Infinite);
        let dead = h.create_region_uniform(RegionKind::Infinite, Some(UniformKind::Pair));
        let victim = h.alloc(dead, ObjKind::Pair, 0, &[Word::int(1).0, Word::int(2).0]);
        let holder = h.alloc(live, ObjKind::Pair, 0, &[victim.0, Word::int(0).0]);
        h.drop_region(dead);
        let mut roots = [holder];
        assert!(matches!(
            h.collect(&mut roots, false),
            Err(GcError::DanglingPointer { .. })
        ));
    }
}
