//! The generator thread is a transport, not a second generator: for
//! every workload's VCPUs, each feed yields exactly the op sequence of
//! an identically built inline stream, and a feed forked across the two
//! contexts of a DMR pair reads that sequence on both sides.

use mmm_core::{MixedPolicy, Workload};
use mmm_cpu::ExecContext;
use mmm_types::{SystemConfig, VcpuId, VmId};
use mmm_workload::feed::CHUNK;
use mmm_workload::{Benchmark, Generator, MicroOp, OpStream};

/// Ops compared per feed: four chunks and a part, so the reads cross
/// several chunk hand-offs.
const OPS: usize = 4 * CHUNK + 37;

fn every_workload() -> Vec<Workload> {
    let mut all = vec![
        Workload::NoDmr2x(Benchmark::Pmake),
        Workload::NoDmr(Benchmark::Zeus),
        Workload::ReunionDmr(Benchmark::Oltp),
        Workload::SingleOsMixed(Benchmark::Apache),
        Workload::Overcommitted {
            bench: Benchmark::Pgoltp,
            reliable: 5,
            perf: 9,
        },
    ];
    for policy in [
        MixedPolicy::DmrBase,
        MixedPolicy::MmmIpc,
        MixedPolicy::MmmTp,
    ] {
        all.push(Workload::Consolidated {
            bench: Benchmark::Pgbench,
            policy,
        });
    }
    all
}

/// The streams `System::new` builds for `workload`.
fn streams(workload: Workload, seed: u64) -> Vec<OpStream> {
    workload
        .vcpu_specs(&SystemConfig::default())
        .unwrap()
        .iter()
        .map(|s| OpStream::new(s.bench.profile(), s.vm, s.vcpu, seed))
        .collect()
}

#[test]
fn every_feed_yields_its_inline_stream() {
    for workload in every_workload() {
        for seed in [1, 7] {
            let (_generator, mut feeds) = Generator::spawn(streams(workload, seed)).unwrap();
            let inline = streams(workload, seed);
            assert_eq!(feeds.len(), inline.len());
            for (feed, mut stream) in feeds.iter_mut().zip(inline) {
                assert_eq!((feed.vm(), feed.vcpu()), (stream.vm(), stream.vcpu()));
                for i in 0..OPS {
                    assert_eq!(
                        feed.next_op(),
                        stream.next_op(),
                        "{workload:?}, seed {seed}, {:?}, op {i}",
                        stream.vcpu()
                    );
                }
            }
        }
    }
}

#[test]
fn both_sides_of_a_forked_feed_read_the_stream() {
    let stream = || OpStream::new(Benchmark::Oltp.profile(), VmId(1), VcpuId(3), 7);
    let mut inline = stream();
    let want: Vec<MicroOp> = (0..OPS).map(|_| inline.next_op()).collect();
    let (_generator, feeds) = Generator::spawn(vec![stream()]).unwrap();
    let feed = feeds.into_iter().next().unwrap();
    let mut vocal = ExecContext::from_source(feed.into());
    let mut mute = vocal.fork();
    // The vocal side leads by about a reorder window, as in a pair.
    const LEAD: usize = 100;
    for (i, op) in want.iter().take(LEAD).enumerate() {
        assert_eq!(vocal.take(), (i as u64, *op), "vocal op {i}");
    }
    for (i, op) in want.iter().enumerate() {
        if let Some(ahead) = want.get(i + LEAD) {
            let seq = (i + LEAD) as u64;
            assert_eq!(vocal.take(), (seq, *ahead), "vocal op {seq}");
        }
        assert_eq!(mute.take(), (i as u64, *op), "mute op {i}");
    }
}
