//! A tiny self-contained micro-benchmark harness.
//!
//! The build is offline, so `mmm-benchmark`'s isolated layer drives
//! cannot use criterion; this module provides the minimum that
//! replaces it: warmup, repeated timed batches, and a
//! median-of-batches report in ns/iteration. Batches amortize timer
//! overhead; the median resists scheduler noise. Output is one
//! self-describing line per benchmark.

pub use std::hint::black_box;
use std::time::Instant;

/// Runs `f` repeatedly and reports the median batch time per
/// iteration in nanoseconds.
///
/// The batch size is auto-calibrated so one batch takes roughly 5 ms,
/// then `samples` batches are timed. Returns the median ns/iter.
pub fn bench(name: &str, mut f: impl FnMut()) -> f64 {
    // Calibrate: grow the batch until it costs >= ~5 ms.
    let mut batch: u64 = 1;
    loop {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        let elapsed = t.elapsed();
        if elapsed.as_millis() >= 5 || batch >= 1 << 30 {
            break;
        }
        // Aim directly for the target from the measured rate.
        let per_iter = elapsed.as_nanos().max(1) / batch as u128;
        batch = ((5_000_000 / per_iter.max(1)) as u64).clamp(batch * 2, 1 << 30);
    }

    let samples = 11;
    let mut per_iter: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                f();
            }
            t.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    per_iter.sort_by(|a, b| a.total_cmp(b));
    let median = per_iter[samples / 2];
    println!("{name:<40} {median:>10.1} ns/iter  (batch={batch}, {samples} samples)");
    median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_reports_positive_time() {
        let mut x = 0u64;
        let ns = bench("noop_add", || {
            x = black_box(x.wrapping_add(1));
        });
        assert!(ns > 0.0);
        assert!(x > 0);
    }
}
