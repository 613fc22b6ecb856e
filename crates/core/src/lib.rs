//! The Mixed-Mode Multicore (MMM).
//!
//! This crate is the paper's primary contribution: a 16-core chip
//! that runs some VCPUs under Reunion dual-modular redundancy while
//! others run at full speed in performance mode — simultaneously,
//! while protecting the reliable software from any hardware fault that
//! strikes while performance-mode software is running.
//!
//! The pieces, in paper order:
//!
//! * [`mode`] — the per-VCPU 2-bit reliability-mode register exposed
//!   through the ISA (§3.3);
//! * [`pat`] — the Protection Assistance Table, an inverse-page-table
//!   bitmap in cacheable memory maintained by system software (§3.4.1);
//! * [`pab`] — the Protection Assistance Buffer, a small per-core
//!   hardware cache of PAT entries that re-validates the permission of
//!   every performance-mode store write-through, in parallel with or
//!   serially before the L2 access (§3.4.1, §5.2);
//! * [`vcpu`] / [`transition`] — virtualized VCPU state and the
//!   hardware state machine that enters and leaves DMR mode, staging
//!   and *verifying* privileged state through a scratchpad region
//!   (§3.4.3);
//! * [`sched`] — the schedulers: always-DMR (the baseline), MMM-IPC
//!   (idle the mute), and MMM-TP (overcommit VCPUs onto freed cores
//!   through multicore virtualization, §3.5);
//! * [`fault`] — a transient-fault injector exercising the protection
//!   paths (DMR detection, PAB wild-store blocking);
//! * [`wheel`] — the event wheel: the registry of future wake sources
//!   (timeslice boundaries, sample boundaries, fault arrivals,
//!   single-OS trap polls) that lets the system clock jump straight
//!   to the next event in every mode;
//! * [`system`] — the full-system cycle-level simulator;
//! * [`experiment`] / [`report`] — the harness that reproduces every
//!   table and figure of the paper's evaluation (see `DESIGN.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiment;
pub mod fault;
pub mod mode;
pub mod pab;
pub mod pat;
pub mod report;
pub mod sched;
pub mod system;
pub mod transition;
pub mod vcpu;
pub mod wheel;

pub use experiment::{env_threads, run_cells, Cell, Experiment, RunResult};
pub use fault::{FaultInjector, FaultSite, FaultStats};
pub use mode::RelMode;
pub use pab::{check_store, Pab, PabStats, PabVerdict};
pub use pat::Pat;
pub use sched::{MixedPolicy, VcpuSpec, Workload};
pub use system::{System, SystemReport, VcpuSlice};
pub use transition::{TransitionEngine, TransitionStats};
pub use vcpu::{Assignment, Vcpu};
pub use wheel::{EventWheel, WakeSource};
