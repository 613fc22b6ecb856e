//! The host's current speed, from a fixed reference loop.
//!
//! The benchmark's host may be shared: other tenants' memory traffic
//! slows the simulator by 30-40% for tens of seconds to minutes, which
//! moves a run's medians further than any useful regression bound. The
//! reference loop below is the benchmark's own frozen code: random reads
//! and writes over an 8 MiB table, larger than the share of the last-level
//! cache the simulator gets on such a host and so as sensitive as the
//! simulator to what other tenants take of the cache and of memory. Timed
//! in the benchmark process between repetitions, its time against
//! `REFERENCE_S` is the host's slowdown, and the end-to-end times are
//! divided by it. A change to the simulator cannot move the loop, so the
//! division removes host drift and keeps every change of the simulator.
//!
//! Of the loops tried (arithmetic alone, walks over 256 KiB, 8 MiB and
//! 32 MiB, their sum, and dependent pointer chases over 4-32 MiB), the
//! 8 MiB walk tracked the simulator best across runs: the simulator's
//! host time moved about as much as the walk's (a log-log slope of
//! 1.05-1.37 over ten runs of each workload, correlation 0.77-0.94),
//! where the sum with arithmetic moved too little (slope 1.4-1.7) and
//! the chases too erratically.

use std::hint::black_box;
use std::time::Instant;

/// The reference loop's time on the host whose speed the end-to-end
/// metrics are expressed at: its median on the 2-vCPU Intel Xeon
/// virtual machine the bounds were set on.
pub const REFERENCE_S: f64 = 0.1;

/// log2 of the table length in 64-bit words: 8 MiB.
const TABLE_LOG2: u32 = 20;
/// Steps of the walk per measurement.
const STEPS: u64 = 12_000_000;

/// The reference loop's table, allocated and touched once, and the
/// loop's latest time.
pub struct HostSpeed {
    table: Vec<u64>,
    last_s: f64,
}

impl HostSpeed {
    pub fn new() -> HostSpeed {
        let table = (0..1u64 << TABLE_LOG2)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let mut speed = HostSpeed { table, last_s: 0.0 };
        // The first pass also brings the table into the caches.
        speed.measure();
        speed.last_s = speed.measure();
        speed
    }

    /// The host's slowdown against the reference speed since the
    /// previous call (or `new`): the mean of the loop's time then and
    /// now, over `REFERENCE_S`. Calls between consecutive repetitions
    /// bracket each with one timing of the loop on either side.
    pub fn slowdown_since_last(&mut self) -> f64 {
        let now_s = self.measure();
        let slowdown = (self.last_s + now_s) / 2.0 / REFERENCE_S;
        self.last_s = now_s;
        slowdown
    }

    /// Host seconds the reference loop takes now.
    fn measure(&mut self) -> f64 {
        let start = Instant::now();
        let mask = self.table.len() - 1;
        let (mut lcg, mut acc) = (12_345u64, 0u64);
        for _ in 0..STEPS {
            lcg = lcg
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let i = (lcg >> 40) as usize & mask;
            acc = acc.wrapping_add(self.table[i] ^ (acc >> 3));
            if acc & 7 == 0 {
                self.table[i] = acc;
            }
        }
        black_box(acc);
        start.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_loop_runs_within_its_table() {
        let mut speed = HostSpeed::new();
        let slowdown = speed.slowdown_since_last();
        assert!(slowdown.is_finite() && slowdown > 0.0);
        // The walk indexes with the top 24 bits of a 64-bit LCG.
        assert!(speed.table.len().is_power_of_two() && speed.table.len() <= 1 << 24);
    }
}
