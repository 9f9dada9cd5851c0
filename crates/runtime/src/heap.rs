//! The page-based region heap.

use crate::stats::{GcPause, HeapStats};
use crate::word::{Header, ObjKind, Word, WORD_BYTES};
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;

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
    #[inline]
    pub fn words(self) -> usize {
        match self {
            UniformKind::Pair | UniformKind::Cons => 2,
            UniformKind::Ref => 1,
        }
    }

    /// The object kind this region holds.
    #[inline]
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
    /// The page's words. A released page keeps its buffer (length 0) on
    /// the free list; [`Heap::fresh_page`] re-zeroes it to the new length.
    pub words: Vec<u64>,
    pub used: usize,
    pub region: RegionId,
    pub epoch: u16,
    pub live: bool,
    /// `stats.gc_count` when the page was handed out. The page is young
    /// (allocated since the last collection, used by the generational
    /// mode) and open for allocation until the next collection completes;
    /// after that it is sealed, so one page never mixes generations.
    pub born: u64,
    /// Detached from its region for evacuation by the collection in
    /// progress (from-space); released when the collection succeeds.
    pub from_space: bool,
    /// The verifier walk (`stats.verify_walks`) in which the owning
    /// region's page list was seen to hold this page.
    pub listed: u64,
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
    pub(crate) live_regions: Vec<RegionId>,
    /// Page lists of dead regions, emptied, for the next regions created.
    spare_page_lists: Vec<Vec<u32>>,
    /// Statistics.
    pub stats: HeapStats,
    /// One record per collection, in order — the series behind the
    /// metrics snapshot's pause histogram.
    pub pauses: Vec<GcPause>,
    /// Bytes allocated since the last collection (trigger input).
    pub bytes_since_gc: u64,
    /// Live bytes surviving the last collection.
    pub live_after_gc: u64,
    /// The allocation heuristic's `(min_bytes, ratio)`
    /// ([`Heap::set_gc_growth`]).
    growth: (u64, f64),
    /// `max(min_bytes, ratio × live_after_gc)`, recomputed only where
    /// `live_after_gc` changes, so that [`Heap::should_collect`] is one
    /// integer compare.
    gc_trigger: u64,
    /// Remembered set for the generational mode: addresses of old-page
    /// object *fields* that were mutated to point at young objects.
    pub(crate) remembered: Vec<Word>,
    /// Generational mode switch.
    pub generational: bool,
    /// Work lists of the collector and the verifier, emptied (not freed)
    /// by each use so that neither allocates once warm.
    pub(crate) scratch: Scratch,
}

/// The collector's and the verifier's reusable buffers.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// From-space pages detached by the collection in progress.
    pub old_pages: Vec<u32>,
    /// Finite-region pages to scan in place, in page order.
    pub in_place: Vec<u32>,
    /// The collector's scan queue; the verifier's trace stack.
    pub work: Vec<Word>,
    /// Objects the verifier's trace has visited.
    pub seen: HashSet<u64, BuildHasherDefault<WordHasher>>,
    /// The remembered set as a lookup table (generational verification).
    pub remembered: HashSet<u64, BuildHasherDefault<WordHasher>>,
}

/// An object's layout as the collector and the verifier see it, read
/// from its first word and its page's region ([`Heap::layout`]).
#[derive(Debug)]
pub(crate) enum Layout {
    /// An object of `size` words, header included. Payload word `i` is at
    /// page offset `payload + i`; the collector traces payload words
    /// `traced`.
    Object {
        size: usize,
        payload: usize,
        traced: Range<usize>,
    },
    /// An evacuated object: its first word is a forwarding word, and this
    /// is the copy.
    Forwarded(Word),
    /// A tagged object whose header does not decode.
    Undecodable(u64),
}

/// A multiplicative hash for the scratch tables' keys: pointer words the
/// heap made itself, never input from outside the program, so they need
/// no protection against crafted collisions. The rotation brings the
/// product's well-mixed high bits down to the bits that pick a bucket.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
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
            pages: self.spare_page_lists.pop().unwrap_or_default(),
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
        let mut pages = std::mem::take(&mut region.pages);
        for &p in &pages {
            self.release_page(p);
        }
        pages.clear();
        self.spare_page_lists.push(pages);
        // Regions die LIFO, so the search from the back is O(1) in
        // practice; `remove` keeps the creation order.
        if let Some(i) = self.live_regions.iter().rposition(|x| *x == r) {
            self.live_regions.remove(i);
        }
    }

    /// Returns a page to the free list. Its epoch is bumped, so stale
    /// pointers into it are detectable; its buffer is kept for reuse.
    pub(crate) fn release_page(&mut self, p: u32) {
        let page = &mut self.pages[p as usize];
        page.live = false;
        page.from_space = false;
        page.epoch = page.epoch.wrapping_add(1);
        page.used = 0;
        self.stats.live_words -= page.words.len() as u64;
        page.words.clear();
        self.stats.pages_released += 1;
        self.free_pages.push(p);
    }

    /// Declares a multiplicity bound for a region: the verifier will
    /// report an invariant violation if the region ever holds more
    /// objects. Used for regions the multiplicity analysis proved finite.
    pub fn set_region_bound(&mut self, r: RegionId, bound: u64) {
        self.regions[r.0 as usize].bound = Some(bound);
    }

    /// The live regions, in creation order.
    pub fn live_regions(&self) -> &[RegionId] {
        &self.live_regions
    }

    /// Is the page young: handed out since the last collection?
    #[inline]
    pub(crate) fn young(&self, page: u32) -> bool {
        self.pages
            .get(page as usize)
            .is_some_and(|p| p.born == self.stats.gc_count)
    }

    /// Hands out a zeroed page of at least `capacity` words, recycling
    /// the most recently released one.
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
                    born: 0,
                    from_space: false,
                    listed: 0,
                });
                i
            }
        };
        let page = &mut self.pages[idx as usize];
        page.words.resize(capacity.max(PAGE_WORDS), 0);
        page.used = 0;
        page.region = region;
        page.live = true;
        page.born = self.stats.gc_count;
        self.stats.live_words += page.words.len() as u64;
        self.stats.peak_live_words = self.stats.peak_live_words.max(self.stats.live_words);
        self.stats.pages_allocated += 1;
        idx
    }

    /// Reserves `need` words at the end of region `r`: on its last page
    /// when that page is open and has room, else on a fresh page. Returns
    /// the page and the offset of the first reserved word.
    #[inline]
    pub(crate) fn reserve(&mut self, r: RegionId, need: usize) -> (u32, usize) {
        let page_idx = match self.regions[r.0 as usize].pages.last() {
            Some(&p)
                if self.young(p)
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
        page.used += need;
        (page_idx, off)
    }

    /// Allocates an object of `kind` with the given payload; `raw` leading
    /// payload words are untraced. Returns the pointer.
    ///
    /// # Panics
    ///
    /// Panics if the region has been deallocated (allocation into a dead
    /// region is a region-inference bug, not a recoverable condition).
    #[inline]
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
        // Pad to at least one payload word, as `Header::payload_words`
        // does when tiling pages: not for the collector (its forwarding
        // word fits in the header) but to keep the allocated and peak
        // byte counts of programs that allocate `""`.
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

    #[inline]
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
        let (page_idx, off) = self.reserve(r, need);
        let page = &mut self.pages[page_idx as usize];
        if untagged {
            page.words[off..off + need].copy_from_slice(payload);
        } else {
            page.words[off] = header.encode();
            page.words[off + 1..off + need].copy_from_slice(payload);
        }
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
    #[inline]
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
    #[inline]
    pub(crate) fn uniform_of_page(&self, page: u32) -> Option<UniformKind> {
        self.regions[self.pages[page as usize].region.0 as usize].uniform
    }

    /// The layout of the object at `off` on `page` (which the caller has
    /// checked), for the collector and the verifier. A forwarding word is
    /// recognised by its tag before the region's layout is consulted, so
    /// tagged and header-less objects forward alike.
    pub(crate) fn layout(&self, page: u32, off: usize) -> Layout {
        let first = Word(self.pages[page as usize].words[off]);
        if let Some(copy) = first.forwarded() {
            return Layout::Forwarded(copy);
        }
        if let Some(u) = self.uniform_of_page(page) {
            return Layout::Object {
                size: u.words(),
                payload: off,
                traced: 0..u.words(),
            };
        }
        let Some(h) = Header::decode(first.0) else {
            return Layout::Undecodable(first.0);
        };
        let traced = match h.kind {
            ObjKind::Str => 0..0,
            _ => h.raw as usize..h.len as usize,
        };
        Layout::Object {
            size: 1 + h.payload_words() as usize,
            payload: off + 1,
            traced,
        }
    }

    /// Reads an object's header (synthesised for untagged regions).
    ///
    /// # Errors
    ///
    /// Returns [`DanglingAccess`] if the pointer's page has been freed or
    /// recycled — a dangling pointer.
    #[inline]
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
    #[inline]
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
    #[inline]
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
        if self.generational && !self.young(page) && v.is_pointer() && self.young(v.ptr_parts().0) {
            self.remembered.push(w);
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

    /// Sets the allocation heuristic: [`Heap::should_collect`] holds once
    /// allocation since the last collection exceeds
    /// `max(min_bytes, ratio × live-after-last-gc)`.
    pub fn set_gc_growth(&mut self, min_bytes: u64, ratio: f64) {
        self.growth = (min_bytes, ratio);
        self.update_gc_trigger();
    }

    /// Recomputes the trigger from `live_after_gc`; each collection calls
    /// it once.
    pub(crate) fn update_gc_trigger(&mut self) {
        let (min_bytes, ratio) = self.growth;
        self.gc_trigger = min_bytes.max((self.live_after_gc as f64 * ratio) as u64);
    }

    /// Whether a collection is advisable under the heuristic set by
    /// [`Heap::set_gc_growth`].
    #[inline]
    pub fn should_collect(&self) -> bool {
        self.bytes_since_gc > self.gc_trigger
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
        let page = &h.pages[p2 as usize];
        assert!(page.words[page.used..].iter().all(|&w| w == 0), "re-zeroed");
    }

    #[test]
    fn recycled_oversized_page_counts_its_new_length() {
        let mut h = Heap::new();
        let big = h.create_region(RegionKind::Infinite);
        let w = h.alloc(
            big,
            ObjKind::Closure,
            0,
            &vec![Word::int(7).0; PAGE_WORDS * 3],
        );
        let words = PAGE_WORDS as u64 * 3 + 1;
        assert_eq!(h.live_words(), words);
        h.drop_region(big);
        assert_eq!(h.live_words(), 0);
        // The oversized buffer comes back as a regular page.
        let r = h.create_region(RegionKind::Infinite);
        let small = h.alloc(r, ObjKind::Ref, 0, &[Word::int(1).0]);
        assert_eq!(small.ptr_parts().0, w.ptr_parts().0, "page recycled");
        assert_eq!(
            h.pages[small.ptr_parts().0 as usize].words.len(),
            PAGE_WORDS
        );
        assert_eq!(h.live_words(), PAGE_WORDS as u64);
        // Filling it spills onto a second regular page.
        for _ in 0..PAGE_WORDS / 2 {
            h.alloc(r, ObjKind::Ref, 0, &[Word::int(2).0]);
        }
        assert_eq!(h.live_words(), 2 * PAGE_WORDS as u64);
        assert_eq!(h.stats.peak_live_words, words);
        assert_eq!(h.field(small, 0, "t").unwrap(), Word::int(1));
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
        h.set_gc_growth(1024, 2.0);
        assert!(!h.should_collect());
        for _ in 0..100 {
            h.alloc(r, ObjKind::Pair, 0, &[0, 0]);
        }
        assert!(h.should_collect());
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
        assert!(h.live_regions().is_empty());
        assert_eq!(h.stats.pages_released, 1);
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
