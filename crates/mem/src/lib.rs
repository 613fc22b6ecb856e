//! Cycle-level memory hierarchy for the mixed-mode multicore.
//!
//! Models the paper's target machine (§3.1, §4.1): per-core split
//! 16 KB write-through L1 I/D caches, a 512 KB 4-way private L2, an
//! 8 MB 16-way shared L3 that is *exclusive* with the private L2s
//! (like IBM Power5 / AMD quad-core Opteron), a MOSI directory using
//! shadow tags co-located with the L3, a point-to-point interconnect
//! with 10-cycle average latency, and 350-cycle DRAM behind 40 GB/s of
//! off-chip bandwidth.
//!
//! # Modelling approach
//!
//! Coherence *state* is tracked exactly — every line's MOSI state, the
//! directory's sharer/owner sets, and L3 exclusivity evolve precisely
//! as the protocol dictates, so cache-to-cache transfer counts and
//! invalidation behaviour are real. Request *latency* is composed
//! analytically from the configured hop latencies plus an
//! occupancy-based DRAM bandwidth queue.
//!
//! # Versions instead of values
//!
//! The simulator carries no data values. Instead every coherent store
//! stamps its line with a *version token* — a hash of
//! `(vcpu, line, dynamic instruction sequence)` — which is therefore
//! identical when a vocal and a mute core execute the same store of
//! the same software thread. A coherent load always observes the
//! globally current token (coherence invalidates stale copies); a mute
//! (incoherent) load observes whatever token its private hierarchy
//! holds. A token mismatch between DMR pair members is exactly
//! Reunion's *input incoherence*, and surfaces in the Check stage as a
//! fingerprint mismatch (see the `mmm-reunion` crate).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod directory;
pub mod dram;
pub mod linemap;
pub mod request;
pub mod stats;
pub mod system;

pub use cache::{CacheLine, Mosi, SetAssocCache, TagWay};
pub use request::{Access, Source, VersionToken};
pub use stats::MemStats;
pub use system::MemorySystem;
