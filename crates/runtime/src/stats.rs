//! Allocation and collection statistics — the raw material for the
//! paper's `rss` and `gc #` columns.

use crate::word::WORD_BYTES;
use std::time::Duration;

/// Heap statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Total bytes ever allocated.
    pub bytes_allocated: u64,
    /// Total objects ever allocated.
    pub objects_allocated: u64,
    /// Words currently held by live pages.
    pub live_words: u64,
    /// Peak of `live_words` — the simulated max-RSS.
    pub peak_live_words: u64,
    /// Number of tracing collections performed.
    pub gc_count: u64,
    /// Of which minor (generational) collections.
    pub minor_gc_count: u64,
    /// Bytes copied by the collector.
    pub bytes_copied: u64,
    /// Objects copied by the collector.
    pub objects_copied: u64,
    /// Words of finite-region objects the collector scanned in place
    /// (never moved, fields forwarded).
    pub words_scanned_in_place: u64,
    /// Regions ever created.
    pub regions_created: u64,
    /// Peak number of simultaneously live regions.
    pub peak_regions: u64,
    /// Collections forced outside the normal heuristic (stress schedules,
    /// `forcegc`).
    pub forced_gcs: u64,
    /// Heap-invariant verifier walks performed.
    pub verify_walks: u64,
    /// Injected faults (allocation budget, continuation-depth limit) the
    /// run hit and unwound from.
    pub faults_injected: u64,
    /// Pages handed out by the page allocator (fresh or recycled).
    pub pages_allocated: u64,
    /// Pages returned to the free list (region exit, post-GC reclaim).
    pub pages_released: u64,
}

impl HeapStats {
    /// Peak RSS in bytes.
    pub fn peak_bytes(&self) -> u64 {
        self.peak_live_words * WORD_BYTES
    }
}

/// One collection's pause record, appended by `Heap::collect` — the raw
/// series behind the metrics snapshot's pause histogram (p50/p99/max).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcPause {
    /// Wall-clock duration of the stop-the-world pause.
    pub duration: Duration,
    /// Bytes the collector copied during this pause.
    pub bytes_copied: u64,
    /// Live bytes surviving the collection.
    pub live_bytes: u64,
    /// Was this a minor (generational) collection?
    pub minor: bool,
}
