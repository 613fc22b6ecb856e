//! Statistical workload models for the mixed-mode multicore simulator.
//!
//! The paper evaluates six commercial workloads (Apache, Zeus, DB2
//! OLTP, PostgreSQL `pgoltp` and `pgbench`, and a parallel `pmake`) on
//! full-system Simics. We have neither Simics nor the commercial
//! software stacks, so each workload is reproduced as a *statistical
//! profile*: a stochastic micro-op stream with the workload's
//! published, behaviour-determining observables —
//!
//! * instruction mix (loads, stores, branches, ALU),
//! * user/OS alternation calibrated to Table 2 of the paper,
//! * serializing-instruction frequency (paper §5.1),
//! * private/shared/OS cache footprints and sharing intensity
//!   (driving C2C transfer behaviour, paper §5.1),
//! * branch predictability.
//!
//! The DMR and mixed-mode *deltas* the paper reports are functions of
//! these observables — window occupancy, store latency, OS-entry rate,
//! cache sharing — not of the literal semantics of DB2 or Apache, which
//! is why a calibrated statistical stream preserves the result shape
//! (see `DESIGN.md` §4).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod benchmarks;
pub mod feed;
pub mod layout;
pub mod op;
pub mod profile;
pub mod source;
pub mod stream;
pub mod trace;

pub use benchmarks::Benchmark;
pub use feed::{Feed, Generator};
pub use layout::AddressLayout;
pub use op::{MicroOp, OpClass, Privilege};
pub use profile::{PhaseProfile, WorkloadProfile};
pub use source::OpSource;
pub use stream::OpStream;
pub use trace::{Trace, TraceReplay};
