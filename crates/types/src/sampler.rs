//! The power-law sampler name the host benchmark imports.
//!
//! Workload streams draw through [`PowerLaw::sample`], one `powf` per
//! draw on the op-generator thread. [`PowerLawSampler`] is that type
//! under the name `mmm-benchmark`'s isolated draw drive
//! (`types.power_law_draw_ns`) still uses; it goes once that drive
//! imports [`PowerLaw`] directly.

use crate::rng::PowerLaw;

/// [`PowerLaw`] under the name `mmm-benchmark` imports.
pub type PowerLawSampler = PowerLaw;
