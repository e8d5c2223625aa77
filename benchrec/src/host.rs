//! Host-speed calibration.
//!
//! The benchmark runs on shared hosts whose speed drifts by up to 2×
//! over minutes, for every process alike. Raw wall times of two runs of
//! the same binary then differ by more than any regression worth
//! catching. A fixed probe — lookups in a prebuilt hash table, the kind
//! of hashing and cache traffic the prover and the explorer do — is
//! timed between the workload's operations, and the end-to-end timings
//! are reported at the speed of a reference host on which the probe
//! takes [`REFERENCE_PROBE_S`]: each measured time is scaled by the
//! reference probe time over the median probe time of its run. The
//! probe is the benchmark's own code, so a change to the program moves
//! the scaled times exactly as it moves the raw ones.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use crate::mix::SplitMix64;

/// Probe time on the reference host: a 2-vCPU x86-64 VM at its usual
/// speed.
pub const REFERENCE_PROBE_S: f64 = 0.0025;

/// Entries in the probe's table.
const ENTRIES: u64 = 1 << 16;

/// Lookups per probe, half of them hits.
const LOOKUPS: u64 = 1 << 15;

/// The probe's table, built once, outside any timing: the probe itself
/// allocates nothing, so the program's heap cannot slow it.
fn table() -> &'static HashMap<u64, u64> {
    static TABLE: OnceLock<HashMap<u64, u64>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut rng = SplitMix64::new(0x5EED);
        (0..ENTRIES).map(|i| (rng.next_u64() & !1, i)).collect()
    })
}

/// Time one probe.
pub fn probe() -> Duration {
    let table = table();
    let start = Instant::now();
    let mut rng = SplitMix64::new(0x5EED);
    let mut sum = 0u64;
    for i in 0..LOOKUPS {
        // Even keys replay the table's own keys (hits); odd ones miss.
        let key = rng.next_u64() & !1 | (i & 1);
        sum = sum.wrapping_add(table.get(&black_box(key)).copied().unwrap_or(1));
    }
    black_box(sum);
    start.elapsed()
}

/// The factor that scales a run's raw times to the reference host:
/// reference probe time over the run's median probe time (1 when no
/// probe ran).
pub fn time_factor(probes_s: &[f64]) -> f64 {
    let median = crate::stats::median(probes_s);
    if median > 0.0 {
        REFERENCE_PROBE_S / median
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_hits_half_its_lookups() {
        let table = table();
        assert_eq!(table.len() as u64, ENTRIES);
        let mut rng = SplitMix64::new(0x5EED);
        let hits = (0..LOOKUPS)
            .filter(|i| table.contains_key(&(rng.next_u64() & !1 | (i & 1))))
            .count() as u64;
        assert_eq!(hits, LOOKUPS / 2);
        assert!(probe() > Duration::ZERO);
    }

    #[test]
    fn a_slower_host_scales_times_down() {
        assert_eq!(time_factor(&[]), 1.0);
        let f = time_factor(&[2.0 * REFERENCE_PROBE_S, 2.0 * REFERENCE_PROBE_S]);
        assert!((f - 0.5).abs() < 1e-12);
    }
}
