//! Property test for the fork-shared op stream.
//!
//! An [`ExecContext::fork`] pair shares one generator behind a replay
//! ring; each side also keeps a batched local window, so most ops
//! never touch the shared state at all. The property that makes DMR
//! comparison meaningful is that none of this machinery is
//! observable: under *any* interleaving of the two sides — including
//! lag windows large enough to force the ring to grow, and re-forking
//! a survivor — every side yields exactly the sequence an unforked
//! context would.
//!
//! Each trial drives a random schedule from a [`DetRng`], so failures
//! reproduce exactly from the trial number.

use mmm_cpu::ExecContext;
use mmm_types::{DetRng, VcpuId, VmId};
use mmm_workload::{Benchmark, MicroOp, OpStream};

/// A fresh, unforked context over the deterministic OLTP stream.
fn fresh(seed: u64) -> ExecContext {
    ExecContext::new(OpStream::new(
        Benchmark::Oltp.profile(),
        VmId(0),
        VcpuId(1),
        seed,
    ))
}

/// The ground truth: an unforked replay of the same stream, memoized
/// so either fork side can be checked at any skew.
struct Oracle {
    ctx: ExecContext,
    ops: Vec<MicroOp>,
}

impl Oracle {
    fn new(seed: u64) -> Self {
        Self {
            ctx: fresh(seed),
            ops: Vec::new(),
        }
    }

    fn op(&mut self, seq: u64) -> MicroOp {
        while self.ops.len() as u64 <= seq {
            let (_, op) = self.ctx.take();
            self.ops.push(op);
        }
        self.ops[seq as usize]
    }

    /// Takes `n` ops from `ctx`, checking each against the reference
    /// sequence. Mixes the `take` and `peek`-then-`advance` paths.
    fn drain(&mut self, ctx: &mut ExecContext, n: u64, rng: &mut DetRng) {
        for _ in 0..n {
            let (seq, op) = if rng.chance(0.5) {
                ctx.take()
            } else {
                let op = *ctx.peek();
                (ctx.advance(), op)
            };
            assert_eq!(op, self.op(seq), "divergence at seq {seq}");
        }
    }
}

#[test]
fn forked_streams_match_unforked_replay_under_random_schedules() {
    for trial in 0..24u64 {
        let mut rng = DetRng::new(0xF0A4_BEEF, trial);
        let mut oracle = Oracle::new(trial);
        let mut a = fresh(trial);

        // Fork mid-stream, sometimes with a pending peeked window.
        oracle.drain(&mut a, rng.below(150), &mut rng);
        if rng.chance(0.5) {
            a.peek();
        }
        let mut b = a.fork();

        for _ in 0..200 {
            // Pick a side and a burst; rare huge bursts outrun the
            // laggard by more than the initial ring capacity, forcing
            // growth mid-schedule.
            let burst = if rng.chance(0.04) {
                rng.range(300, 600)
            } else {
                rng.range(1, 8)
            };
            let side = if rng.chance(0.5) { &mut a } else { &mut b };
            oracle.drain(side, burst, &mut rng);
        }

        // Catch the laggard up so both sides consumed the same span.
        let target = a.seq().max(b.seq());
        for side in [&mut a, &mut b] {
            let lag = target - side.seq();
            oracle.drain(side, lag, &mut rng);
        }
        assert_eq!(a.seq(), b.seq());

        // A survivor (partner dropped mid-stream) must replay whatever
        // the partner generated ahead, then keep generating — and a
        // re-fork from it stays exact on both new sides.
        oracle.drain(&mut b, rng.below(100), &mut rng);
        drop(b);
        oracle.drain(&mut a, rng.range(50, 200), &mut rng);
        let mut d = a.fork();
        oracle.drain(&mut a, rng.range(1, 100), &mut rng);
        oracle.drain(&mut d, rng.range(1, 100), &mut rng);
    }
}
