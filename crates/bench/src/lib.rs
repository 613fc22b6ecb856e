//! Shared plumbing for the benchmark harness binaries.
//!
//! Each `bin/` target reproduces one table or figure of the paper's
//! evaluation (see `DESIGN.md` §3). This library holds the pieces they
//! share: the experiment template, figure-shaped table assembly, and
//! normalization helpers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mmm_core::{Experiment, RunResult};

pub mod campaign;
pub mod export;
pub mod harness;
pub mod perf;

/// Builds the harness experiment template: `MMM_*` env overrides on
/// top of the given defaults (sized per figure so cache state reaches
/// capacity equilibrium — the paper ran 100 M cycles per run).
pub fn experiment_sized(default_warmup: u64, default_measure: u64) -> Experiment {
    Experiment {
        warmup: default_warmup,
        measure: default_measure,
        ..Experiment::default()
    }
    .with_env()
}

/// Default-sized harness experiment.
pub fn experiment() -> Experiment {
    experiment_sized(1_000_000, 3_000_000)
}

/// Normalizes `(mean, ci)` of a metric by `base`.
pub fn norm(value: (f64, f64), base: f64) -> (f64, f64) {
    if base == 0.0 {
        (0.0, 0.0)
    } else {
        (value.0 / base, value.1 / base)
    }
}

/// Prints the standard run-length banner so outputs are
/// self-describing.
pub fn banner(what: &str, e: &Experiment) {
    println!(
        "{what}: warmup={} measure={} seeds={} (override via MMM_WARMUP / MMM_MEASURE / MMM_SEEDS)",
        e.warmup,
        e.measure,
        e.seeds.len()
    );
}

/// Mean of a metric across a run's reports (no CI).
pub fn mean_of(run: &RunResult, f: impl Fn(&mmm_core::SystemReport) -> f64) -> f64 {
    run.metric(f).0
}

/// FNV-1a 64 of `bytes` as 16 hex digits: the fingerprint that
/// campaign checkpoints and perf baselines carry.
pub(crate) fn fnv1a64_hex(bytes: &[u8]) -> String {
    let h = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::fnv1a64_hex;

    #[test]
    fn fnv_matches_the_reference_vectors() {
        assert_eq!(fnv1a64_hex(b""), "cbf29ce484222325");
        assert_eq!(fnv1a64_hex(b"a"), "af63dc4c8601ec8c");
        assert_eq!(fnv1a64_hex(b"foobar"), "85944171f73967e8");
    }
}
