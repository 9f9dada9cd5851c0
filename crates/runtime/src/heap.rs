//! The page-based region heap.

use crate::stats::{GcPause, HeapStats};
use crate::word::{Header, ObjKind, Word, WORD_BYTES};

/// Words per (regular) page. Large objects get oversized pages of their
/// own.
pub const PAGE_WORDS: usize = 256;

/// A region identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(pub u32);

/// Whether a region is heap-like (collected) or stack-like (finite).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RegionKind {
    /// Unbounded region: pages from the free list, subject to tracing
    /// collection.
    #[default]
    Infinite,
    /// Bounded region (the multiplicity analysis proved at most a known
    /// number of stores): never collected, deallocated wholesale.
    Finite,
}

/// A kind-homogeneous ("BIBOP", big bag of pages) region whose objects are
/// stored **without headers** — the paper's partly tag-free representation
/// of pairs, cons cells, and references (Section 6). The object layout is
/// recovered from the region descriptor instead of a per-object tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UniformKind {
    /// Two traceable words.
    Pair,
    /// Two traceable words.
    Cons,
    /// One traceable word.
    Ref,
}

impl UniformKind {
    /// Payload words per object.
    pub fn words(self) -> usize {
        match self {
            UniformKind::Pair | UniformKind::Cons => 2,
            UniformKind::Ref => 1,
        }
    }

    /// The object kind this region holds.
    pub fn obj_kind(self) -> ObjKind {
        match self {
            UniformKind::Pair => ObjKind::Pair,
            UniformKind::Cons => ObjKind::Cons,
            UniformKind::Ref => ObjKind::Ref,
        }
    }
}

#[derive(Debug)]
pub(crate) struct Page {
    pub words: Vec<u64>,
    pub used: usize,
    pub region: RegionId,
    pub epoch: u16,
    pub live: bool,
    /// Generation stamp: pages allocated after the last collection are
    /// "young" (used by the generational mode).
    pub young: bool,
    /// Sealed pages accept no further allocation (set at collection time
    /// so one page never mixes generations).
    pub sealed: bool,
}

#[derive(Debug)]
pub(crate) struct Region {
    pub pages: Vec<u32>,
    pub live: bool,
    pub kind: RegionKind,
    /// Untagged object layout, when the region is kind-homogeneous.
    pub uniform: Option<UniformKind>,
    pub bytes: u64,
    /// Objects currently allocated in the region (mutator allocations
    /// only — collector copies do not count).
    pub objects: u64,
    /// Multiplicity bound, when the analysis proved one: the region may
    /// hold at most this many objects (checked by the heap verifier).
    pub bound: Option<u64>,
}

/// The heap: a page table, a page free list, and region descriptors.
#[derive(Debug, Default)]
pub struct Heap {
    pub(crate) pages: Vec<Page>,
    free_pages: Vec<u32>,
    pub(crate) regions: Vec<Region>,
    live_regions: Vec<RegionId>,
    /// Statistics.
    pub stats: HeapStats,
    /// One record per collection, in order — the series behind the
    /// metrics snapshot's pause histogram.
    pub pauses: Vec<GcPause>,
    /// Bytes allocated since the last collection (trigger input).
    pub bytes_since_gc: u64,
    /// Live bytes surviving the last collection.
    pub live_after_gc: u64,
    /// Remembered set for the generational mode: addresses of old-page
    /// object *fields* that were mutated to point at young objects.
    pub(crate) remembered: Vec<Word>,
    /// Generational mode switch.
    pub generational: bool,
}

/// An access error: the paper's dangling pointer, observed at run time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DanglingAccess {
    /// What the program was doing.
    pub context: &'static str,
}

impl std::fmt::Display for DanglingAccess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "dangling pointer dereferenced during {}", self.context)
    }
}

impl std::error::Error for DanglingAccess {}

impl Heap {
    /// Creates an empty heap.
    pub fn new() -> Heap {
        Heap::default()
    }

    /// Creates a region.
    pub fn create_region(&mut self, kind: RegionKind) -> RegionId {
        self.create_region_uniform(kind, None)
    }

    /// Creates a region, optionally kind-homogeneous and untagged.
    pub fn create_region_uniform(
        &mut self,
        kind: RegionKind,
        uniform: Option<UniformKind>,
    ) -> RegionId {
        let id = RegionId(self.regions.len() as u32);
        self.regions.push(Region {
            pages: Vec::new(),
            live: true,
            kind,
            uniform,
            bytes: 0,
            objects: 0,
            bound: None,
        });
        self.live_regions.push(id);
        self.stats.regions_created += 1;
        self.stats.peak_regions = self.stats.peak_regions.max(self.live_regions.len() as u64);
        id
    }

    /// Deallocates a region, returning its pages to the free list (with a
    /// bumped epoch, so stale pointers are detectable).
    pub fn drop_region(&mut self, r: RegionId) {
        let region = &mut self.regions[r.0 as usize];
        if !region.live {
            return;
        }
        region.live = false;
        let pages = std::mem::take(&mut region.pages);
        for p in pages {
            self.release_page(p);
        }
        // Regions die LIFO, so the search from the back is O(1) in
        // practice; `remove` keeps the creation order.
        if let Some(i) = self.live_regions.iter().rposition(|x| *x == r) {
            self.live_regions.remove(i);
        }
    }

    pub(crate) fn release_page(&mut self, p: u32) {
        let page = &mut self.pages[p as usize];
        page.live = false;
        page.epoch = page.epoch.wrapping_add(1);
        page.used = 0;
        self.stats.live_words -= page.words.len() as u64;
        page.words.clear();
        page.words.shrink_to_fit();
        self.stats.pages_released += 1;
        self.free_pages.push(p);
    }

    /// Declares a multiplicity bound for a region: the verifier will
    /// report an invariant violation if the region ever holds more
    /// objects. Used for regions the multiplicity analysis proved finite.
    pub fn set_region_bound(&mut self, r: RegionId, bound: u64) {
        self.regions[r.0 as usize].bound = Some(bound);
    }

    /// Is the region live?
    pub fn region_live(&self, r: RegionId) -> bool {
        self.regions[r.0 as usize].live
    }

    /// The live regions, in creation order.
    pub fn live_regions(&self) -> &[RegionId] {
        &self.live_regions
    }

    fn fresh_page(&mut self, region: RegionId, capacity: usize) -> u32 {
        let idx = match self.free_pages.pop() {
            Some(i) => i,
            None => {
                let i = self.pages.len() as u32;
                assert!(i < (1 << 24), "page table exhausted");
                self.pages.push(Page {
                    words: Vec::new(),
                    used: 0,
                    region,
                    epoch: 0,
                    live: false,
                    young: true,
                    sealed: false,
                });
                i
            }
        };
        let page = &mut self.pages[idx as usize];
        page.words = vec![0; capacity.max(PAGE_WORDS)];
        page.used = 0;
        page.region = region;
        page.live = true;
        page.young = true;
        page.sealed = false;
        self.stats.live_words += page.words.len() as u64;
        self.stats.peak_live_words = self.stats.peak_live_words.max(self.stats.live_words);
        self.stats.pages_allocated += 1;
        idx
    }

    /// Allocates an object of `kind` with the given payload; `raw` leading
    /// payload words are untraced. Returns the pointer.
    ///
    /// # Panics
    ///
    /// Panics if the region has been deallocated (allocation into a dead
    /// region is a region-inference bug, not a recoverable condition).
    pub fn alloc(&mut self, r: RegionId, kind: ObjKind, raw: u16, payload: &[u64]) -> Word {
        let header = Header {
            kind,
            len: payload.len() as u32,
            raw,
        };
        self.alloc_with_header(r, header, payload)
    }

    /// Allocates a string.
    pub fn alloc_str(&mut self, r: RegionId, s: &str) -> Word {
        let bytes = s.as_bytes();
        // Pad to at least one payload word so the object can hold the
        // collector's two-word forwarding marker (`Header::payload_words`
        // applies the same floor when tiling pages).
        let words = bytes.len().div_ceil(8).max(1);
        let mut payload = vec![0u64; words];
        for (i, b) in bytes.iter().enumerate() {
            payload[i / 8] |= (*b as u64) << ((i % 8) * 8);
        }
        let header = Header {
            kind: ObjKind::Str,
            len: bytes.len() as u32,
            raw: 0,
        };
        self.alloc_with_header(r, header, &payload)
    }

    pub(crate) fn alloc_with_header(
        &mut self,
        r: RegionId,
        header: Header,
        payload: &[u64],
    ) -> Word {
        let region = &self.regions[r.0 as usize];
        assert!(
            region.live,
            "allocation into deallocated region {r:?} (region inference bug)"
        );
        // Untagged allocation into a kind-homogeneous region: no header.
        let untagged = region
            .uniform
            .map(|u| u.obj_kind() == header.kind && u.words() == payload.len())
            .unwrap_or(false);
        let need = payload.len() + if untagged { 0 } else { 1 };
        let page_idx = match region.pages.last() {
            Some(&p)
                if !self.pages[p as usize].sealed
                    && self.pages[p as usize].used + need <= self.pages[p as usize].words.len() =>
            {
                p
            }
            _ => {
                let p = self.fresh_page(r, need);
                self.regions[r.0 as usize].pages.push(p);
                p
            }
        };
        let page = &mut self.pages[page_idx as usize];
        let off = page.used;
        if untagged {
            page.words[off..off + need].copy_from_slice(payload);
        } else {
            page.words[off] = header.encode();
            page.words[off + 1..off + need].copy_from_slice(payload);
        }
        page.used += need;
        let bytes = need as u64 * WORD_BYTES;
        self.regions[r.0 as usize].bytes += bytes;
        self.regions[r.0 as usize].objects += 1;
        self.stats.bytes_allocated += bytes;
        self.stats.objects_allocated += 1;
        self.bytes_since_gc += bytes;
        // The pointer addresses the header word.
        Word::pointer(page_idx, off as u32, self.pages[page_idx as usize].epoch)
    }

    /// Checks a pointer and returns `(page, offset)` on success.
    pub(crate) fn check_ptr(
        &self,
        w: Word,
        context: &'static str,
    ) -> Result<(u32, u32), DanglingAccess> {
        let (page, off, epoch) = w.ptr_parts();
        match self.pages.get(page as usize) {
            Some(p) if p.live && p.epoch == epoch && (off as usize) < p.used => Ok((page, off)),
            _ => Err(DanglingAccess { context }),
        }
    }

    /// The uniform layout of the object's region, if untagged.
    pub(crate) fn uniform_of_page(&self, page: u32) -> Option<UniformKind> {
        self.regions[self.pages[page as usize].region.0 as usize].uniform
    }

    /// Reads an object's header (synthesised for untagged regions).
    ///
    /// # Errors
    ///
    /// Returns [`DanglingAccess`] if the pointer's page has been freed or
    /// recycled — a dangling pointer.
    pub fn header(&self, w: Word, context: &'static str) -> Result<Header, DanglingAccess> {
        let (page, off) = self.check_ptr(w, context)?;
        if let Some(u) = self.uniform_of_page(page) {
            return Ok(Header {
                kind: u.obj_kind(),
                len: u.words() as u32,
                raw: 0,
            });
        }
        Header::decode(self.pages[page as usize].words[off as usize])
            .ok_or(DanglingAccess { context })
    }

    /// Reads payload word `i` of the object at `w`.
    ///
    /// # Errors
    ///
    /// Returns [`DanglingAccess`] on dangling pointers.
    pub fn field(&self, w: Word, i: usize, context: &'static str) -> Result<Word, DanglingAccess> {
        let (page, off) = self.check_ptr(w, context)?;
        let skip = if self.uniform_of_page(page).is_some() {
            0
        } else {
            1
        };
        self.pages[page as usize]
            .words
            .get(off as usize + skip + i)
            .map(|x| Word(*x))
            .ok_or(DanglingAccess { context })
    }

    /// Writes payload word `i` of the object at `w`, maintaining the
    /// generational remembered set (old object now pointing at a young
    /// one).
    ///
    /// # Errors
    ///
    /// Returns [`DanglingAccess`] on dangling pointers.
    pub fn set_field(
        &mut self,
        w: Word,
        i: usize,
        v: Word,
        context: &'static str,
    ) -> Result<(), DanglingAccess> {
        let (page, off) = self.check_ptr(w, context)?;
        let skip = if self.uniform_of_page(page).is_some() {
            0
        } else {
            1
        };
        let slot = self.pages[page as usize]
            .words
            .get_mut(off as usize + skip + i)
            .ok_or(DanglingAccess { context })?;
        *slot = v.0;
        if self.generational && !self.pages[page as usize].young && v.is_pointer() {
            let (vp, _, _) = v.ptr_parts();
            if self
                .pages
                .get(vp as usize)
                .map(|p| p.young)
                .unwrap_or(false)
            {
                self.remembered.push(w);
            }
        }
        Ok(())
    }

    /// Reads a string object back out.
    ///
    /// # Errors
    ///
    /// Returns [`DanglingAccess`] on dangling pointers.
    pub fn read_str(&self, w: Word, context: &'static str) -> Result<String, DanglingAccess> {
        let h = self.header(w, context)?;
        let (page, off) = self.check_ptr(w, context)?;
        let words = &self.pages[page as usize].words;
        let n = h.len as usize;
        let mut bytes = Vec::with_capacity(n.min(words.len() * 8));
        for i in 0..n {
            let word = *words
                .get(off as usize + 1 + i / 8)
                .ok_or(DanglingAccess { context })?;
            bytes.push(((word >> ((i % 8) * 8)) & 0xFF) as u8);
        }
        Ok(String::from_utf8_lossy(&bytes).into_owned())
    }

    /// The region an object lives in.
    ///
    /// # Errors
    ///
    /// Returns [`DanglingAccess`] on dangling pointers.
    pub fn region_of(&self, w: Word, context: &'static str) -> Result<RegionId, DanglingAccess> {
        let (page, _) = self.check_ptr(w, context)?;
        Ok(self.pages[page as usize].region)
    }

    /// Total words currently held by live pages (the simulated RSS).
    pub fn live_words(&self) -> u64 {
        self.stats.live_words
    }

    /// Whether a collection is advisable: allocation since the last GC
    /// exceeds `max(min_bytes, ratio × live-after-last-gc)`.
    pub fn should_collect(&self, min_bytes: u64, ratio: f64) -> bool {
        self.bytes_since_gc > min_bytes.max((self.live_after_gc as f64 * ratio) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_read_pair() {
        let mut h = Heap::new();
        let r = h.create_region(RegionKind::Infinite);
        let w = h.alloc(r, ObjKind::Pair, 0, &[Word::int(1).0, Word::int(2).0]);
        assert_eq!(h.field(w, 0, "t").unwrap(), Word::int(1));
        assert_eq!(h.field(w, 1, "t").unwrap(), Word::int(2));
        assert_eq!(h.header(w, "t").unwrap().kind, ObjKind::Pair);
        assert_eq!(h.region_of(w, "t").unwrap(), r);
    }

    #[test]
    fn strings_roundtrip() {
        let mut h = Heap::new();
        let r = h.create_region(RegionKind::Infinite);
        for s in ["", "a", "hello world", "exactly8", "ninechars"] {
            let w = h.alloc_str(r, s);
            assert_eq!(h.read_str(w, "t").unwrap(), s);
        }
    }

    #[test]
    fn dangling_detected_after_drop() {
        let mut h = Heap::new();
        let r = h.create_region(RegionKind::Infinite);
        let w = h.alloc(r, ObjKind::Pair, 0, &[Word::int(1).0, Word::int(2).0]);
        h.drop_region(r);
        assert!(h.field(w, 0, "t").is_err());
        assert!(h.header(w, "t").is_err());
    }

    #[test]
    fn page_reuse_bumps_epoch() {
        let mut h = Heap::new();
        let r1 = h.create_region(RegionKind::Infinite);
        let w1 = h.alloc(r1, ObjKind::Ref, 0, &[Word::int(1).0]);
        h.drop_region(r1);
        let r2 = h.create_region(RegionKind::Infinite);
        // Reuses the freed page.
        let w2 = h.alloc(r2, ObjKind::Ref, 0, &[Word::int(2).0]);
        let (p1, _, _) = w1.ptr_parts();
        let (p2, _, _) = w2.ptr_parts();
        assert_eq!(p1, p2, "page should be recycled");
        assert!(h.field(w1, 0, "t").is_err(), "stale epoch must be caught");
        assert_eq!(h.field(w2, 0, "t").unwrap(), Word::int(2));
    }

    #[test]
    fn large_objects_get_oversized_pages() {
        let mut h = Heap::new();
        let r = h.create_region(RegionKind::Infinite);
        let big = vec![Word::int(7).0; PAGE_WORDS * 3];
        let w = h.alloc(r, ObjKind::Closure, 0, &big);
        assert_eq!(h.field(w, PAGE_WORDS * 3 - 1, "t").unwrap(), Word::int(7));
    }

    #[test]
    fn stats_track_allocation() {
        let mut h = Heap::new();
        let r = h.create_region(RegionKind::Infinite);
        h.alloc(r, ObjKind::Pair, 0, &[0, 0]);
        assert_eq!(h.stats.objects_allocated, 1);
        assert_eq!(h.stats.bytes_allocated, 24);
        assert!(h.live_words() >= PAGE_WORDS as u64);
    }

    #[test]
    fn many_allocations_span_pages() {
        let mut h = Heap::new();
        let r = h.create_region(RegionKind::Infinite);
        let mut ptrs = Vec::new();
        for i in 0..1000 {
            ptrs.push(h.alloc(r, ObjKind::Pair, 0, &[Word::int(i).0, Word::int(-i).0]));
        }
        for (i, w) in ptrs.iter().enumerate() {
            assert_eq!(h.field(*w, 0, "t").unwrap(), Word::int(i as i64));
        }
        assert!(h.regions[r.0 as usize].pages.len() > 1);
    }

    #[test]
    fn should_collect_threshold() {
        let mut h = Heap::new();
        let r = h.create_region(RegionKind::Infinite);
        assert!(!h.should_collect(1024, 2.0));
        for _ in 0..100 {
            h.alloc(r, ObjKind::Pair, 0, &[0, 0]);
        }
        assert!(h.should_collect(1024, 2.0));
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::word::ObjKind;

    #[test]
    fn drop_region_is_idempotent() {
        let mut h = Heap::new();
        let r = h.create_region(RegionKind::Infinite);
        h.alloc(r, ObjKind::Pair, 0, &[0, 0]);
        h.drop_region(r);
        h.drop_region(r); // no panic, no double-free
        assert!(!h.region_live(r));
    }

    #[test]
    fn live_regions_order_and_membership() {
        let mut h = Heap::new();
        let a = h.create_region(RegionKind::Infinite);
        let b = h.create_region(RegionKind::Finite);
        let c = h.create_region(RegionKind::Infinite);
        assert_eq!(h.live_regions(), &[a, b, c]);
        h.drop_region(b);
        assert_eq!(h.live_regions(), &[a, c]);
    }

    #[test]
    #[should_panic(expected = "deallocated region")]
    fn allocation_into_dead_region_panics() {
        let mut h = Heap::new();
        let r = h.create_region(RegionKind::Infinite);
        h.drop_region(r);
        h.alloc(r, ObjKind::Pair, 0, &[0, 0]);
    }

    #[test]
    fn peak_regions_tracks_high_water_mark() {
        let mut h = Heap::new();
        let rs: Vec<_> = (0..5)
            .map(|_| h.create_region(RegionKind::Infinite))
            .collect();
        for r in &rs {
            h.drop_region(*r);
        }
        h.create_region(RegionKind::Infinite);
        assert_eq!(h.stats.peak_regions, 5);
    }

    #[test]
    fn field_bounds_are_page_relative() {
        let mut h = Heap::new();
        let r = h.create_region(RegionKind::Infinite);
        // Two objects on the same page; pointers stay distinct.
        let a = h.alloc(r, ObjKind::Ref, 0, &[Word::int(1).0]);
        let b = h.alloc(r, ObjKind::Ref, 0, &[Word::int(2).0]);
        assert_ne!(a, b);
        assert_eq!(h.field(a, 0, "t").unwrap(), Word::int(1));
        assert_eq!(h.field(b, 0, "t").unwrap(), Word::int(2));
    }

    #[test]
    fn empty_string_allocates_header_only() {
        let mut h = Heap::new();
        let r = h.create_region(RegionKind::Infinite);
        let s = h.alloc_str(r, "");
        assert_eq!(h.read_str(s, "t").unwrap(), "");
        assert_eq!(h.header(s, "t").unwrap().len, 0);
    }
}
