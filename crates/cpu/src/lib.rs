//! Out-of-order core timing model.
//!
//! Each core matches the paper's target (§4.1): 8-stage pipeline
//! (9 with the Reunion Check stage), 2-wide, a 128-entry instruction
//! window, a 32-load + 32-store LSQ, sequential consistency (stores
//! hold their window entry until the write-through completes in the
//! L2), serializing-instruction drain semantics, and a hardware-filled
//! TLB.
//!
//! The core is deliberately ignorant of redundancy: whether it runs
//! coherently (vocal / performance mode) or incoherently (mute), and
//! whether commits must pass Reunion's fingerprint check, is injected
//! by the `mmm-reunion` and `mmm-core` crates through
//! [`core::Core::set_gate`] and [`core::Core::set_coherent`]. This keeps
//! the DMR machinery in one place and lets the same core model serve
//! every configuration in the paper's evaluation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod context;
pub mod core;
pub mod filter;
pub mod gate;
pub mod pab;
pub mod phase;
pub mod stats;
pub mod tlb;

pub use channel::{PairChannel, PairStats, Side};
pub use context::ExecContext;
pub use core::{Boundary, Core};
pub use filter::PabPort;
pub use gate::PairGate;
pub use pab::{Pab, PabStats};
pub use phase::PhaseTracker;
pub use stats::CoreStats;
pub use tlb::Tlb;
