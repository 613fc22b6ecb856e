//! A unified op source: live statistical stream, generator feed, or
//! trace replay.
//!
//! Cores execute whatever an [`OpSource`] produces, so every machine
//! configuration can run either generated workloads (the default) or
//! recorded traces (regression pinning, paired comparisons).

use mmm_types::{VcpuId, VmId};

use crate::feed::Feed;
use crate::op::MicroOp;
use crate::stream::OpStream;
use crate::trace::TraceReplay;

/// Where a VCPU's instructions come from.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // one OpSource per VCPU; size is immaterial
pub enum OpSource {
    /// Live statistical generation on the calling thread.
    Stream(OpStream),
    /// The same generation, run ahead on a [`crate::feed::Generator`]
    /// thread.
    Feed(Feed),
    /// Deterministic replay of a recorded window.
    Replay(TraceReplay),
}

impl OpSource {
    /// Produces the next op.
    #[inline]
    pub fn next_op(&mut self) -> MicroOp {
        match self {
            OpSource::Stream(s) => s.next_op(),
            OpSource::Feed(f) => f.next_op(),
            OpSource::Replay(r) => r.next_op(),
        }
    }

    /// Produces `n` consecutive ops through `sink`, identical to `n`
    /// [`OpSource::next_op`] calls.
    pub fn next_ops(&mut self, n: u64, mut sink: impl FnMut(MicroOp)) {
        match self {
            OpSource::Stream(s) => s.next_ops(n, sink),
            OpSource::Feed(f) => f.next_ops(n, sink),
            OpSource::Replay(r) => {
                for _ in 0..n {
                    sink(r.next_op());
                }
            }
        }
    }

    /// The VM this source belongs to.
    pub fn vm(&self) -> VmId {
        match self {
            OpSource::Stream(s) => s.vm(),
            OpSource::Feed(f) => f.vm(),
            OpSource::Replay(r) => r.vm(),
        }
    }

    /// The VCPU this source belongs to.
    pub fn vcpu(&self) -> VcpuId {
        match self {
            OpSource::Stream(s) => s.vcpu(),
            OpSource::Feed(f) => f.vcpu(),
            OpSource::Replay(r) => r.vcpu(),
        }
    }
}

impl From<OpStream> for OpSource {
    fn from(s: OpStream) -> Self {
        OpSource::Stream(s)
    }
}

impl From<Feed> for OpSource {
    fn from(f: Feed) -> Self {
        OpSource::Feed(f)
    }
}

impl From<TraceReplay> for OpSource {
    fn from(r: TraceReplay) -> Self {
        OpSource::Replay(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::Benchmark;
    use crate::feed::Generator;
    use crate::trace::Trace;

    #[test]
    fn every_source_exposes_identity_and_ops() {
        let stream = || OpStream::new(Benchmark::Oltp.profile(), VmId(1), VcpuId(2), 5);
        let trace = Trace::record(&mut stream(), 100);
        let (_generator, feeds) = Generator::spawn(vec![stream()]).unwrap();
        let mut a: OpSource = stream().into();
        let mut b: OpSource = trace.replay().into();
        let mut c: OpSource = feeds.into_iter().next().unwrap().into();
        for other in [&b, &c] {
            assert_eq!(a.vm(), other.vm());
            assert_eq!(a.vcpu(), other.vcpu());
        }
        for _ in 0..100 {
            let op = a.next_op();
            assert_eq!(op, b.next_op(), "replay matches the stream");
            assert_eq!(op, c.next_op(), "the feed matches the stream");
        }
    }
}
