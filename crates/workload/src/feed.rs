//! Op generation on a thread of its own.
//!
//! Each VCPU's op sequence is a pure function of its [`OpStream`], so a
//! second host core can produce it ahead of the simulation without
//! changing one simulated bit. A [`Generator`] owns a machine's streams
//! on one thread, named `mmm-opgen`, and hands their ops to the
//! simulation thread in chunks of [`CHUNK`] ops through one [`Feed`] per
//! stream:
//!
//! * **Lanes.** Each stream gets a bounded channel of [`DEPTH`] full
//!   chunks plus a return channel that recycles the consumed buffers.
//!   A lane owns `DEPTH + 1` buffers, all allocated by
//!   [`Generator::spawn`] on the calling thread, so the generator
//!   thread never allocates.
//! * **Backpressure.** The feed always holds one buffer, the one it
//!   reads, so a chunk the thread has just filled always finds room in
//!   the channel: a lane is full exactly when its return channel is
//!   empty. The thread visits the lanes round-robin, fills a chunk for
//!   each that has a free buffer and hands it over with `try_send`. It
//!   parks only after a pass in which no lane took a chunk, so it never
//!   spins; a [`Feed`] unparks it after every receive and when
//!   dropped, and the park token means no wake-up is lost.
//! * **Shutdown.** The thread checks the stop flag before every chunk
//!   and exits on it, or once every feed has been dropped. Dropping the
//!   [`Generator`] sets the flag and joins the thread, so it never waits
//!   for more than one chunk.
//!
//! **Determinism.** A feed yields exactly the sequence its stream's
//! [`OpStream::next_ops`] produces: the channel keeps its order, and
//! nothing else reaches the stream. Thread timing can change only when
//! the simulation thread waits for a chunk, never what it reads.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TryRecvError};
use std::sync::Arc;
use std::thread::{self, JoinHandle, Thread};

use mmm_types::{Error, Result, VcpuId, VmId};

use crate::op::MicroOp;
use crate::stream::OpStream;

/// Ops per chunk: one channel hand-off covers this many ops.
pub const CHUNK: usize = 256;

/// Full chunks a lane's channel holds ahead of its feed.
pub const DEPTH: usize = 2;

type Chunk = Vec<MicroOp>;

/// The generator thread's end of one stream's lane.
struct Lane {
    stream: OpStream,
    full: SyncSender<Chunk>,
    empty: Receiver<Chunk>,
    /// False once the feed has been dropped.
    open: bool,
}

impl Lane {
    /// Fills the lane's next chunk if it has a free buffer and hands it
    /// to the feed. True if the feed took a chunk.
    fn offer(&mut self) -> bool {
        let mut chunk = match self.empty.try_recv() {
            Ok(chunk) => chunk,
            Err(TryRecvError::Empty) => return false,
            Err(TryRecvError::Disconnected) => {
                self.open = false;
                return false;
            }
        };
        chunk.clear();
        self.stream.next_ops(CHUNK as u64, |op| chunk.push(op));
        // Never `Full`: the feed holds one of the lane's buffers and
        // this chunk is another, so at most `DEPTH - 1` are queued.
        let sent = self.full.try_send(chunk).is_ok();
        self.open = sent;
        sent
    }
}

/// The generator thread's body: fill lanes until stopped or until
/// every feed is gone, parking whenever a whole pass moved nothing.
fn run(mut lanes: Vec<Lane>, stop: &AtomicBool) {
    loop {
        let mut moved = false;
        for lane in &mut lanes {
            // Acquire pairs with the Release store in `Generator::drop`.
            if stop.load(Ordering::Acquire) {
                return;
            }
            moved |= lane.offer();
        }
        lanes.retain(|lane| lane.open);
        if lanes.is_empty() {
            return;
        }
        if !moved {
            thread::park();
        }
    }
}

/// The thread that generates a machine's op streams. Dropping it stops
/// and joins the thread.
pub struct Generator {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Generator {
    /// Moves `streams` onto a new generator thread and returns it with
    /// one [`Feed`] per stream, in the same order.
    ///
    /// # Errors
    ///
    /// [`Error::Host`] if the host cannot start the thread.
    pub fn spawn(streams: Vec<OpStream>) -> Result<(Generator, Vec<Feed>)> {
        let mut lanes = Vec::with_capacity(streams.len());
        let mut ends = Vec::with_capacity(streams.len());
        for stream in streams {
            let (full_tx, full_rx) = mpsc::sync_channel(DEPTH);
            let (empty_tx, empty_rx) = mpsc::sync_channel(DEPTH);
            // The feed starts with one buffer; `DEPTH` wait to be filled.
            for _ in 0..DEPTH {
                empty_tx
                    .send(Vec::with_capacity(CHUNK))
                    .expect("the return channel has room for every buffer");
            }
            ends.push((stream.vm(), stream.vcpu(), full_rx, empty_tx));
            lanes.push(Lane {
                stream,
                full: full_tx,
                empty: empty_rx,
                open: true,
            });
        }
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = thread::Builder::new()
            .name("mmm-opgen".into())
            .spawn(move || run(lanes, &flag))
            .map_err(|e| Error::host(format!("cannot start the op generator thread: {e}")))?;
        let feeds = ends
            .into_iter()
            .map(|(vm, vcpu, full, empty)| Feed {
                vm,
                vcpu,
                chunk: Vec::with_capacity(CHUNK),
                pos: 0,
                full,
                empty,
                wake: Wake(handle.thread().clone()),
            })
            .collect();
        Ok((
            Generator {
                stop,
                thread: Some(handle),
            },
            feeds,
        ))
    }
}

impl Drop for Generator {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.thread.take() {
            handle.thread().unpark();
            // A generator panic has already failed its feeds' receives
            // on the simulation thread; there is nothing left to report.
            let _ = handle.join();
        }
    }
}

/// Unparks the generator thread when dropped. It is a [`Feed`]'s last
/// field, so the feed's channels have disconnected by then and the
/// woken thread sees the lane closed.
struct Wake(Thread);

impl Drop for Wake {
    fn drop(&mut self) {
        self.0.unpark();
    }
}

/// The simulation thread's end of one stream's lane: the stream's ops,
/// in order, a chunk at a time.
pub struct Feed {
    vm: VmId,
    vcpu: VcpuId,
    /// The chunk being read; `chunk[pos..]` is still unread.
    chunk: Chunk,
    pos: usize,
    full: Receiver<Chunk>,
    empty: SyncSender<Chunk>,
    wake: Wake,
}

impl Feed {
    /// The VM of the stream behind this feed.
    pub fn vm(&self) -> VmId {
        self.vm
    }

    /// The VCPU of the stream behind this feed.
    pub fn vcpu(&self) -> VcpuId {
        self.vcpu
    }

    /// The next op.
    pub fn next_op(&mut self) -> MicroOp {
        if self.pos == self.chunk.len() {
            self.next_chunk();
        }
        let op = self.chunk[self.pos];
        self.pos += 1;
        op
    }

    /// The next `n` ops, through `sink`, waiting for the generator
    /// whenever the current chunk runs out.
    pub fn next_ops(&mut self, n: u64, mut sink: impl FnMut(MicroOp)) {
        let mut left = n as usize;
        while left > 0 {
            if self.pos == self.chunk.len() {
                self.next_chunk();
            }
            let end = self.chunk.len().min(self.pos + left);
            for &op in &self.chunk[self.pos..end] {
                sink(op);
            }
            left -= end - self.pos;
            self.pos = end;
        }
    }

    /// Swaps in the next full chunk, returns the used buffer, and wakes
    /// the generator: the lane has room for another chunk now.
    fn next_chunk(&mut self) {
        let next = self
            .full
            .recv()
            .expect("the op generator thread stopped while its feed was live");
        let used = std::mem::replace(&mut self.chunk, next);
        self.pos = 0;
        // The return channel has room for every buffer, and a send can
        // fail only once the generator is gone, which the next receive
        // reports.
        let _ = self.empty.send(used);
        self.wake.0.unpark();
    }
}

impl fmt::Debug for Feed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Feed")
            .field("vm", &self.vm)
            .field("vcpu", &self.vcpu)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::Benchmark;

    fn stream(vcpu: u16) -> OpStream {
        OpStream::new(Benchmark::Pmake.profile(), VmId(0), VcpuId(vcpu), 3)
    }

    #[test]
    fn feeds_yield_their_streams_in_order_at_any_read_size() {
        let (_generator, mut feeds) = Generator::spawn((0..3).map(stream).collect()).unwrap();
        let mut inline: Vec<OpStream> = (0..3).map(stream).collect();
        // Mixed read sizes, so reads straddle chunk boundaries.
        for (round, n) in [1u64, 7, 255, 256, 300, 1, 1000].into_iter().enumerate() {
            for (feed, s) in feeds.iter_mut().zip(&mut inline) {
                assert_eq!((feed.vm(), feed.vcpu()), (s.vm(), s.vcpu()));
                let mut got = Vec::new();
                if round % 2 == 0 {
                    feed.next_ops(n, |op| got.push(op));
                } else {
                    got.extend((0..n).map(|_| feed.next_op()));
                }
                let want: Vec<MicroOp> = (0..n).map(|_| s.next_op()).collect();
                assert_eq!(got, want, "round {round}, vcpu {}", s.vcpu());
            }
        }
    }

    #[test]
    fn the_thread_exits_once_every_feed_is_dropped() {
        let (mut generator, feeds) = Generator::spawn((0..4).map(stream).collect()).unwrap();
        drop(feeds);
        // The stop flag stays clear: the closed lanes alone end the
        // thread, or this join never returns.
        generator.thread.take().unwrap().join().unwrap();
    }

    #[test]
    fn dropping_the_generator_joins_it_while_feeds_are_live() {
        let (generator, mut feeds) = Generator::spawn((0..2).map(stream).collect()).unwrap();
        feeds[0].next_ops(3 * CHUNK as u64, |_| {});
        drop(generator);
        // The lanes still hold what was generated before the stop.
        feeds[1].next_op();
    }
}
