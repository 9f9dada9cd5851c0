//! Host-speed calibration.
//!
//! The benchmark was made on a shared host whose speed switches, for
//! seconds to minutes at a time, between a fast state and slow ones in
//! which the program's ops take up to twice as long, while nothing in the
//! process changes (no page faults, no lost time slices: on-CPU time
//! equals wall time). No run length the benchmark can afford waits out a
//! slow phase, so every op sample is also scaled to the host's reference
//! speed: a fixed loop of the benchmark's own code runs just before each
//! op, and the op's time is multiplied by [`REF_MS`] ÷ the loop's time
//! around it. The loop never calls into the program, so a change to the
//! program moves only the op times. Unscaled wall times are reported next
//! to the scaled ones.
//!
//! The loop fills a hash table (hashing, probing and stores into a
//! 256-KiB table), the kind of work region inference's interning and the
//! heap machine's code-table lookups do. Of the loops that allocate
//! nothing (a random walk over a table, a hash-mixing loop, this one) it
//! followed the program's slowdown most closely. Its table is allocated
//! once and filled once, untimed, before each timed fill, so neither the
//! program's heap nor what ran just before changes the loop's time.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// The loop's time, in ms, at the reference speed: its usual time in the
/// fast state of the 2-vCPU host the benchmark was made on.
pub const REF_MS: f64 = 0.34;

/// Inserts per fill, over `KEYS` distinct keys.
const INSERTS: u64 = 20_000;
const KEYS: u64 = 4096;
/// Samples on each side of an op that set its local speed.
const NEAR: usize = 3;

/// A fixed-key SipHash, so that every process probes the same way.
type Table = HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>;

pub struct Calib {
    table: Table,
}

impl Calib {
    pub fn new() -> Calib {
        let mut table = Table::default();
        table.reserve(2 * KEYS as usize);
        Calib { table }
    }

    fn fill(&mut self) {
        self.table.clear();
        for i in 0..INSERTS {
            *self.table.entry(crate::bench::mix(i) % KEYS).or_insert(0) += i;
        }
        std::hint::black_box(self.table.len());
    }

    /// Runs the loop once and returns its wall time in ms.
    pub fn sample_ms(&mut self) -> f64 {
        self.fill();
        let t = Instant::now();
        self.fill();
        t.elapsed().as_secs_f64() * 1e3
    }

    /// Median of `n` samples.
    pub fn median_ms(&mut self, n: usize) -> f64 {
        let mut v: Vec<f64> = (0..n).map(|_| self.sample_ms()).collect();
        v.sort_by(f64::total_cmp);
        v[n / 2]
    }
}

/// The factor that scales a time measured at sample `i` of `cal` (loop
/// times in the order they were taken) to the reference speed: the
/// median of the samples within [`NEAR`] of `i`, so that one disturbed
/// sample does not move it.
pub fn scale_at(cal: &[f64], i: usize) -> f64 {
    let lo = i.saturating_sub(NEAR);
    let hi = (i + NEAR + 1).min(cal.len());
    let mut v = cal[lo..hi].to_vec();
    v.sort_by(f64::total_cmp);
    REF_MS / v[v.len() / 2]
}
