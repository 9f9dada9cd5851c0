//! The unified metrics snapshot: one structure gathering everything the
//! stack counts — per-phase compile times ([`CompileTimings`]), the
//! region-inference store counters ([`StoreStats`]), heap statistics
//! ([`HeapStats`]), machine steps, and a GC pause histogram — so the
//! benchmark table, `rmlc --metrics`, and future perf PRs all report
//! against the same numbers.
//!
//! The snapshot is assembled *after* a run from data every layer already
//! returns; it adds no instrumentation cost of its own. JSON emission
//! goes through [`rml_session::json`] like every other exporter.

use crate::pipeline::CompileTimings;
use rml_eval::RunOutcome;
use rml_infer::store::StoreStats;
use rml_runtime::{GcPause, HeapStats};
use rml_session::Json;
use std::time::Duration;

/// Percentile summary of the per-collection pause series.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PauseHistogram {
    /// Number of collections.
    pub count: u64,
    /// Median pause, microseconds.
    pub p50_us: u64,
    /// 99th-percentile pause, microseconds (nearest-rank).
    pub p99_us: u64,
    /// Longest pause, microseconds.
    pub max_us: u64,
    /// Sum of all pauses, microseconds.
    pub total_us: u64,
}

impl PauseHistogram {
    /// Summarises a pause series (nearest-rank percentiles).
    pub fn from_pauses(pauses: &[GcPause]) -> PauseHistogram {
        if pauses.is_empty() {
            return PauseHistogram::default();
        }
        let mut us: Vec<u64> = pauses
            .iter()
            .map(|p| p.duration.as_micros() as u64)
            .collect();
        us.sort_unstable();
        let rank = |pct: u64| us[((us.len() as u64 - 1) * pct / 100) as usize];
        PauseHistogram {
            count: us.len() as u64,
            p50_us: rank(50),
            p99_us: rank(99),
            max_us: us[us.len() - 1],
            total_us: us.iter().sum(),
        }
    }
}

/// Everything the stack measured about one compile-and-run, unified.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Per-phase compile wall times.
    pub timings: CompileTimings,
    /// Region-inference store counters.
    pub store: StoreStats,
    /// Heap statistics from the run.
    pub heap: HeapStats,
    /// Machine steps taken.
    pub steps: u64,
    /// GC pause summary.
    pub pauses: PauseHistogram,
}

fn us(d: Duration) -> Json {
    Json::UInt(d.as_micros() as u64)
}

impl MetricsSnapshot {
    /// Assembles a snapshot from a compilation's timings and a run's
    /// outcome.
    pub fn new(timings: &CompileTimings, store: StoreStats, outcome: &RunOutcome) -> Self {
        MetricsSnapshot {
            timings: *timings,
            store,
            heap: outcome.stats,
            steps: outcome.steps,
            pauses: PauseHistogram::from_pauses(&outcome.pauses),
        }
    }

    /// The snapshot as a JSON value (embedded per-row in
    /// `BENCH_figure9.json`, printed whole by `rmlc --metrics`).
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "phases_us",
                Json::obj([
                    ("parse", us(self.timings.parse)),
                    ("types", us(self.timings.types)),
                    ("regions", us(self.timings.regions)),
                    ("repr", us(self.timings.repr)),
                    ("total", us(self.timings.total)),
                ]),
            ),
            (
                "store",
                Json::obj([
                    ("find_ops", Json::UInt(self.store.find_ops)),
                    ("unions", Json::UInt(self.store.unions)),
                    (
                        "closure_cache_hits",
                        Json::UInt(self.store.closure_cache_hits),
                    ),
                    (
                        "closure_recomputes",
                        Json::UInt(self.store.closure_recomputes),
                    ),
                    ("intern_hits", Json::UInt(self.store.intern_hits)),
                    ("intern_misses", Json::UInt(self.store.intern_misses)),
                ]),
            ),
            (
                "heap",
                Json::obj([
                    ("bytes_allocated", Json::UInt(self.heap.bytes_allocated)),
                    ("objects_allocated", Json::UInt(self.heap.objects_allocated)),
                    ("peak_bytes", Json::UInt(self.heap.peak_bytes())),
                    ("gc_count", Json::UInt(self.heap.gc_count)),
                    ("minor_gc_count", Json::UInt(self.heap.minor_gc_count)),
                    ("bytes_copied", Json::UInt(self.heap.bytes_copied)),
                    ("objects_copied", Json::UInt(self.heap.objects_copied)),
                    (
                        "words_scanned_in_place",
                        Json::UInt(self.heap.words_scanned_in_place),
                    ),
                    ("regions_created", Json::UInt(self.heap.regions_created)),
                    ("peak_regions", Json::UInt(self.heap.peak_regions)),
                    ("forced_gcs", Json::UInt(self.heap.forced_gcs)),
                    ("verify_walks", Json::UInt(self.heap.verify_walks)),
                    ("faults_injected", Json::UInt(self.heap.faults_injected)),
                    ("pages_allocated", Json::UInt(self.heap.pages_allocated)),
                    ("pages_released", Json::UInt(self.heap.pages_released)),
                ]),
            ),
            ("steps", Json::UInt(self.steps)),
            (
                "gc_pauses",
                Json::obj([
                    ("count", Json::UInt(self.pauses.count)),
                    ("p50_us", Json::UInt(self.pauses.p50_us)),
                    ("p99_us", Json::UInt(self.pauses.p99_us)),
                    ("max_us", Json::UInt(self.pauses.max_us)),
                    ("total_us", Json::UInt(self.pauses.total_us)),
                ]),
            ),
        ])
    }

    /// A human-readable report (`rmlc --metrics`).
    pub fn render_text(&self) -> String {
        let t = &self.timings;
        let mut out = String::new();
        out.push_str("== metrics ==\n");
        out.push_str(&format!(
            "compile: parse {:?}  types {:?}  regions {:?}  repr {:?}  total {:?}\n",
            t.parse, t.types, t.regions, t.repr, t.total
        ));
        out.push_str(&format!(
            "store:   find_ops {}  unions {}  closure hits/recomputes {}/{}\n",
            self.store.find_ops,
            self.store.unions,
            self.store.closure_cache_hits,
            self.store.closure_recomputes
        ));
        out.push_str(&format!(
            "machine: {} steps  {} objects  {} bytes allocated  peak rss {} bytes  \
             {} faults injected\n",
            self.steps,
            self.heap.objects_allocated,
            self.heap.bytes_allocated,
            self.heap.peak_bytes(),
            self.heap.faults_injected
        ));
        out.push_str(&format!(
            "heap:    {} regions ({} peak live)  pages {}+/{}-\n",
            self.heap.regions_created,
            self.heap.peak_regions,
            self.heap.pages_allocated,
            self.heap.pages_released
        ));
        out.push_str(&format!(
            "gc:      {} collections ({} minor, {} forced)  {} verifier walks  \
             {} bytes copied  pauses p50 {}us p99 {}us max {}us\n",
            self.heap.gc_count,
            self.heap.minor_gc_count,
            self.heap.forced_gcs,
            self.heap.verify_walks,
            self.heap.bytes_copied,
            self.pauses.p50_us,
            self.pauses.p99_us,
            self.pauses.max_us
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pause(us: u64) -> GcPause {
        GcPause {
            duration: Duration::from_micros(us),
            bytes_copied: 0,
            live_bytes: 0,
            minor: false,
        }
    }

    #[test]
    fn histogram_percentiles_nearest_rank() {
        let pauses: Vec<GcPause> = (1..=100).map(pause).collect();
        let h = PauseHistogram::from_pauses(&pauses);
        assert_eq!(h.count, 100);
        assert_eq!(h.p50_us, 50); // index (99*50)/100 = 49 → value 50
        assert_eq!(h.p99_us, 99);
        assert_eq!(h.max_us, 100);
        assert_eq!(h.total_us, 5050);
        assert_eq!(PauseHistogram::from_pauses(&[]), PauseHistogram::default());
    }

    #[test]
    fn snapshot_json_has_the_unified_sections() {
        let c = crate::pipeline::compile("fun main () = 1 + 2", crate::Strategy::Rg).unwrap();
        let out = crate::pipeline::execute(&c, &crate::ExecOpts::default()).unwrap();
        let m = MetricsSnapshot::new(&c.timings, c.output.store_stats, &out);
        let json = m.to_json().render();
        for key in [
            "phases_us",
            "store",
            "heap",
            "steps",
            "gc_pauses",
            "p99_us",
            "objects_copied",
            "words_scanned_in_place",
        ] {
            assert!(
                json.contains(&format!("\"{key}\"")),
                "missing {key}: {json}"
            );
        }
        assert_eq!(m.steps, out.steps);
        assert_eq!(m.heap, out.stats);
        let text = m.render_text();
        assert!(text.contains("collections"), "{text}");
    }
}
