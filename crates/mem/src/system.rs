//! The full memory system: per-core L1s and L2s, the shared exclusive
//! L3, the MOSI directory, and DRAM, behind a synchronous-latency
//! request API.
//!
//! # Request kinds
//!
//! * [`MemorySystem::ifetch`] / [`MemorySystem::load`] — instruction
//!   and data reads.
//! * [`MemorySystem::store_acquire`] — launched when a store
//!   dispatches: acquires write ownership (RFO/upgrade) so the later
//!   commit-time write is fast. This models an aggressive sequentially
//!   consistent core that prefetches exclusive permission while the
//!   store waits in the instruction window.
//! * [`MemorySystem::store_commit`] — the commit-time write-through:
//!   re-acquires ownership if it was stolen between dispatch and
//!   commit, stamps the line's version token, and updates the L1.
//!
//! Every call takes `coherent: bool`. Coherent requests are the normal
//! protocol. Incoherent requests model Reunion's mute cores: they
//! probe the hierarchy read-only ("best effort"), never change
//! directory or remote-cache state, fill their private hierarchy with
//! lines marked `coherent = false`, and keep stores entirely local.

use mmm_trace::{ProfPhase, Profiler};
use mmm_types::config::SystemConfig;
use mmm_types::{CoreId, Cycle, LineAddr};

use crate::cache::{CacheBank, CacheLine, Mosi, SetAssocCache, TagWay, VersionedWay};
use crate::directory::Directory;
use crate::dram::Dram;
use crate::linemap::LineMap;
use crate::request::{initial_token, Access, Source, VersionToken};
use crate::stats::MemStats;

/// Outcome of a mute-cache flush walk (Leave-DMR in MMM-TP).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlushOutcome {
    /// Cycle at which the flush completes.
    pub complete_at: Cycle,
    /// L2 slots inspected (one per cycle, pessimistically — paper
    /// §3.4.3/§5.3: ~8k cycles for the 8192-line L2).
    pub inspected: usize,
    /// Coherent dirty lines written back (bounded by the VCPU state
    /// size, per the paper's footnote 4).
    pub written_back: usize,
    /// Incoherent lines discarded.
    pub invalidated: usize,
}

/// The machine's memory hierarchy.
///
/// Only the L1-Ds and L2s keep a version token per line: a mute reads
/// its own, possibly stale, copies there. L1-I hits report version 0
/// (code is read-only), and the exclusive L3 only ever holds coherent
/// lines, so a fill from it takes the line's current version; those
/// two levels keep tag-only ways.
pub struct MemorySystem {
    cfg: SystemConfig,
    // Per-core caches, indexed by core.
    l1i: CacheBank<TagWay>,
    l1d: CacheBank<VersionedWay>,
    l2: CacheBank<VersionedWay>,
    l3: SetAssocCache<TagWay>,
    dir: Directory,
    versions: LineMap<VersionToken>,
    dram: Dram,
    /// Reusable drain buffer for flush operations (avoids a fresh
    /// allocation per [`MemorySystem::flush_mute`]).
    scratch: Vec<CacheLine>,
    /// Busy horizon per L3/directory bank (optional contention model;
    /// unused when `bank_occupancy_cycles == 0`).
    bank_busy: Vec<Cycle>,
    /// Per-core: whether the private hierarchy *might* hold an
    /// incoherent line. Conservative (sticky true until a full purge):
    /// set at every site that creates or marks an incoherent copy,
    /// cleared only by [`MemorySystem::flush_mute`] and
    /// [`MemorySystem::flash_invalidate_incoherent`], which remove
    /// them all. While false, the coherent-request stale checks in
    /// [`MemorySystem::load`] and [`MemorySystem::ifetch`] are skipped
    /// — their outcome would be "nothing stale" — which spares the
    /// common vocal/solo path a whole L2 probe per access.
    maybe_incoherent: Vec<bool>,
    stats: MemStats,
    /// Self-profiler handle; one branch per request when off.
    profiler: Profiler,
}

impl MemorySystem {
    /// Builds the hierarchy for `cfg.cores` cores.
    pub fn new(cfg: &SystemConfig) -> Self {
        cfg.validate().expect("invalid system config");
        let n = cfg.cores as usize;
        Self {
            cfg: cfg.clone(),
            l1i: CacheBank::new(cfg.mem.l1i, n),
            l1d: CacheBank::new(cfg.mem.l1d, n),
            l2: CacheBank::new(cfg.mem.l2, n),
            l3: SetAssocCache::new(cfg.mem.l3),
            dir: Directory::new(),
            versions: LineMap::default(),
            dram: Dram::new(cfg.mem.dram_latency, cfg.mem.dram_bytes_per_cycle),
            scratch: Vec::new(),
            bank_busy: vec![0; cfg.mem.l3_banks as usize],
            maybe_incoherent: vec![false; n],
            stats: MemStats::new(),
            profiler: Profiler::off(),
        }
    }

    /// Installs a self-profiler handle so request handling attributes
    /// its host cost to [`ProfPhase::Mem`]. Purely observational.
    pub fn set_profiler(&mut self, profiler: Profiler) {
        self.profiler = profiler;
    }

    /// Applies the optional L3-bank contention model to a request for
    /// `line` issued at `now`: the request serializes on its bank for
    /// the configured occupancy. Returns the queueing delay added (0
    /// when the model is disabled).
    #[inline]
    fn bank_delay(&mut self, line: LineAddr, now: Cycle) -> Cycle {
        let occ = self.cfg.mem.bank_occupancy_cycles as Cycle;
        if occ == 0 {
            return 0;
        }
        let bank = (line.0 as usize) & (self.bank_busy.len() - 1);
        let start = self.bank_busy[bank].max(now);
        self.bank_busy[bank] = start + occ;
        self.stats.bank_queue_cycles += start - now;
        start - now
    }

    /// The globally current version token of a line.
    pub fn current_version(&self, line: LineAddr) -> VersionToken {
        self.versions
            .get(line)
            .copied()
            .unwrap_or_else(|| initial_token(line))
    }

    /// Accumulated counters.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Resets counters (e.g. after warm-up) without touching cache state.
    pub fn reset_stats(&mut self) {
        self.stats = MemStats::new();
        // DRAM keeps its busy horizon but its counters are part of
        // MemStats already (dram_reads / writebacks).
    }

    /// DRAM channel diagnostics (queue cycles, busy horizon).
    pub fn dram(&self) -> &Dram {
        &self.dram
    }

    /// Directory diagnostics.
    pub fn directory(&self) -> &Directory {
        &self.dir
    }

    fn c2c_latency(&self) -> u32 {
        // 3-hop: requester -> directory (at the L3 shadow tags) ->
        // owning L2 -> requester. One interconnect hop more than the
        // 2-hop L3 hit, as §5.1 requires.
        self.cfg.mem.l3_latency + self.cfg.mem.interconnect_latency
    }

    fn upgrade_latency(&self) -> u32 {
        // Round trip to the directory plus invalidation fan-out.
        2 * self.cfg.mem.interconnect_latency + 15
    }

    // ----- instruction fetch ------------------------------------------------

    /// Fetches the line containing an instruction. Mute cores fetch
    /// incoherently (`coherent = false`).
    ///
    /// A demand miss also triggers a next-line prefetch: sequential
    /// code walks hit the L1-I after the first miss, as a conventional
    /// next-line instruction prefetcher provides. Prefetch traffic
    /// consumes real bandwidth and cache space but adds no latency to
    /// the demand fetch.
    pub fn ifetch(&mut self, core: CoreId, line: LineAddr, coherent: bool, now: Cycle) -> Access {
        let _prof = self.profiler.enter(ProfPhase::Mem);
        if coherent && self.maybe_incoherent[core.index()] {
            // Discard incoherent leftovers (see `load`).
            let stale = |l: Option<CacheLine>| l.is_some_and(|x| !x.coherent);
            if stale(self.l1i.get(core.index()).peek(line))
                || stale(self.l2.get(core.index()).peek(line))
            {
                self.l1i.get_mut(core.index()).invalidate(line);
                self.l2.get_mut(core.index()).invalidate(line);
                self.l1d.get_mut(core.index()).invalidate(line);
            }
        }
        if self.l1i.get_mut(core.index()).lookup(line).is_some() {
            self.stats.l1i_hits += 1;
            return Access {
                complete_at: now + self.cfg.mem.l1_latency as Cycle,
                version: 0,
                source: Source::L1,
            };
        }
        self.stats.l1i_misses += 1;
        // The unified L2 may already hold the line (e.g. data written
        // there, or a prior I-fetch whose L1-I copy was evicted).
        let acc = if let Some(copy) = self.l2.get_mut(core.index()).lookup(line) {
            self.stats.l2_hits += 1;
            self.l1i.get_mut(core.index()).insert(copy);
            return Access {
                complete_at: now + self.cfg.mem.l2_latency as Cycle,
                version: copy.version,
                source: Source::L2,
            };
        } else {
            self.read_into_l2(core, line, coherent, now)
        };
        // Fill the L1-I (code is read-only; version is immaterial).
        let l2_copy = self
            .l2
            .get(core.index())
            .peek(line)
            .expect("read_into_l2 leaves the line in L2");
        self.l1i.get_mut(core.index()).insert(l2_copy);
        self.prefetch_next_line(core, line, coherent, now);
        acc
    }

    /// Brings `line + 1` into the L1-I in the background (next-line
    /// instruction prefetch). Consumes real bandwidth and cache space
    /// but adds no latency to the demand fetch.
    fn prefetch_next_line(&mut self, core: CoreId, line: LineAddr, coherent: bool, now: Cycle) {
        let next = LineAddr(line.0 + 1);
        if self.l1i.get(core.index()).peek(next).is_some() {
            return;
        }
        if self.l2.get(core.index()).peek(next).is_none() {
            self.read_into_l2(core, next, coherent, now);
        }
        let copy = self
            .l2
            .get(core.index())
            .peek(next)
            .expect("prefetch fill resides in L2");
        self.l1i.get_mut(core.index()).insert(copy);
    }

    // ----- loads ------------------------------------------------------------

    /// Loads a line. Coherent loads always observe the current version
    /// token; incoherent (mute) loads observe whatever their private
    /// hierarchy holds — possibly stale, which is how input
    /// incoherence enters the pipeline.
    pub fn load(&mut self, core: CoreId, line: LineAddr, coherent: bool, now: Cycle) -> Access {
        let _prof = self.profiler.enter(ProfPhase::Mem);
        // A coherent request must not consume an incoherent leftover
        // (a copy cached while this core was a mute): discard it and
        // refetch through the protocol.
        if coherent && self.maybe_incoherent[core.index()] {
            let stale_local = self
                .l2
                .get(core.index())
                .peek(line)
                .is_some_and(|l| !l.coherent);
            if stale_local {
                self.l2.get_mut(core.index()).invalidate(line);
                self.l1d.get_mut(core.index()).invalidate(line);
                self.l1i.get_mut(core.index()).invalidate(line);
            }
        }
        if let Some(l1line) = self.l1d.get_mut(core.index()).lookup(line) {
            let version = l1line.version;
            let copy_coherent = l1line.coherent;
            if !coherent || copy_coherent {
                self.stats.l1d_hits += 1;
                // The global version is only consulted for incoherent
                // copies — the common coherent hit skips the map lookup.
                if !copy_coherent && version != self.current_version(line) {
                    self.stats.stale_mute_hits += 1;
                }
                return Access {
                    complete_at: now + self.cfg.mem.l1_latency as Cycle,
                    version,
                    source: Source::L1,
                };
            }
            // Coherent request, incoherent L1-only leftover: drop it.
            self.l1d.get_mut(core.index()).invalidate(line);
        }
        self.stats.l1d_misses += 1;
        if let Some(copy) = self.l2.get_mut(core.index()).lookup(line) {
            self.stats.l2_hits += 1;
            if !copy.coherent && copy.version != self.current_version(line) {
                self.stats.stale_mute_hits += 1;
            }
            self.l1d.get_mut(core.index()).insert(copy);
            return Access {
                complete_at: now + self.cfg.mem.l2_latency as Cycle,
                version: copy.version,
                source: Source::L2,
            };
        }
        let acc = self.read_into_l2(core, line, coherent, now);
        let l2_copy = self
            .l2
            .get(core.index())
            .peek(line)
            .expect("read_into_l2 leaves the line in L2");
        self.l1d.get_mut(core.index()).insert(l2_copy);
        acc
    }

    /// Services an L2 miss for a read, installing the line in the
    /// requester's L2.
    fn read_into_l2(&mut self, core: CoreId, line: LineAddr, coherent: bool, now: Cycle) -> Access {
        self.stats.l2_misses += 1;
        let now = now + self.bank_delay(line, now);
        let current = self.current_version(line);
        let entry = self.dir.entry(line);
        let remote_owner = entry.owner.filter(|&o| o != core);
        let remote_sharer = entry.sharer_cores().find(|&c| c != core);

        let (latency, source) = if let Some(owner) = remote_owner {
            // 3-hop transfer from the owning L2.
            self.stats.c2c_transfers += 1;
            if coherent {
                // Owner transitions M -> O (stays the data source).
                self.l2.get_mut(owner.index()).update(line, |ol| {
                    if ol.state == Mosi::Modified {
                        ol.state = Mosi::Owned;
                    }
                });
            }
            (self.c2c_latency(), Source::CacheToCache)
        } else if self.l3.peek(line).is_some() {
            (self.cfg.mem.l3_latency, Source::L3)
        } else if !coherent && remote_sharer.is_some() {
            // Classic MOSI has no clean-forward state: coherent misses
            // to clean-shared lines are serviced by memory. Only a
            // mute's best-effort request scavenges a clean copy from a
            // peer L2 — typically its vocal's, which with the
            // exclusive L3 is often the only on-chip copy (paper
            // §5.1's source of Reunion's extra C2C transfers).
            self.stats.c2c_transfers += 1;
            (self.c2c_latency(), Source::CacheToCache)
        } else {
            self.stats.dram_reads += 1;
            let done = self.dram.read(line, now);
            let fill = CacheLine {
                addr: line,
                state: Mosi::Shared,
                version: current,
                coherent,
            };
            if coherent {
                self.dir.add_sharer(line, core);
            } else {
                self.stats.incoherent_fills += 1;
            }
            self.install_l2(core, fill);
            return Access {
                complete_at: done,
                version: current,
                source: Source::Dram,
            };
        };

        if source == Source::L3 && coherent {
            // Exclusive L3: the line moves into the requester's L2.
            let l3line = self.l3.invalidate(line).expect("peeked above");
            let fill = CacheLine {
                addr: line,
                state: if l3line.state.is_dirty() {
                    Mosi::Modified
                } else {
                    Mosi::Shared
                },
                version: current,
                coherent: true,
            };
            if fill.state.is_dirty() {
                self.dir.set_owner(line, core);
            } else {
                self.dir.add_sharer(line, core);
            }
            self.install_l2(core, fill);
        } else {
            // C2C fill, or any incoherent fill: requester gets a copy;
            // for incoherent fills nothing global changes (the L3 keeps
            // its line, the owner keeps its state).
            let fill = CacheLine {
                addr: line,
                state: Mosi::Shared,
                version: current,
                coherent,
            };
            if coherent {
                self.dir.add_sharer(line, core);
            } else {
                self.stats.incoherent_fills += 1;
            }
            self.install_l2(core, fill);
        }
        if source == Source::L3 {
            self.stats.l3_hits += 1;
        }
        Access {
            complete_at: now + latency as Cycle,
            version: current,
            source,
        }
    }

    // ----- stores -----------------------------------------------------------

    /// Acquires write ownership of `line` for a dispatched store.
    /// Returns when exclusive permission (coherent) or a local copy
    /// (incoherent) is available.
    pub fn store_acquire(
        &mut self,
        core: CoreId,
        line: LineAddr,
        coherent: bool,
        now: Cycle,
    ) -> Access {
        let _prof = self.profiler.enter(ProfPhase::Mem);
        if !coherent {
            return self.mute_local_fill(core, line, now);
        }
        // Fast path: already Modified and coherent in our L2.
        if let Some(l2line) = self.l2.get_mut(core.index()).lookup(line) {
            if l2line.coherent {
                if l2line.state == Mosi::Modified {
                    self.stats.l2_hits += 1;
                    return Access {
                        complete_at: now + 1,
                        version: l2line.version,
                        source: Source::L2,
                    };
                }
                // Upgrade S/O -> M.
                self.stats.l2_hits += 1;
                self.stats.upgrades += 1;
                let mut kicked = self.dir.invalidate_others_mask(line, core);
                self.stats.invalidations += kicked.count_ones() as u64;
                while kicked != 0 {
                    let victim = CoreId(kicked.trailing_zeros() as u16);
                    kicked &= kicked - 1;
                    self.drop_core_line(victim, line);
                }
                self.l2
                    .get_mut(core.index())
                    .update(line, |l| l.state = Mosi::Modified)
                    .expect("upgrade target resident");
                self.dir.clear_owner(line);
                self.dir.set_owner(line, core);
                return Access {
                    complete_at: now + self.upgrade_latency() as Cycle,
                    version: 0,
                    source: Source::L2,
                };
            }
            // An incoherent copy cannot satisfy a coherent store:
            // discard it and fall through to the miss path.
            self.l2.get_mut(core.index()).invalidate(line);
            self.l1d.get_mut(core.index()).invalidate(line);
            self.l1i.get_mut(core.index()).invalidate(line);
        }
        self.rfo_miss(core, line, now)
    }

    /// Read-for-ownership on a coherent store miss.
    fn rfo_miss(&mut self, core: CoreId, line: LineAddr, now: Cycle) -> Access {
        self.stats.l2_misses += 1;
        let now = now + self.bank_delay(line, now);
        let current = self.current_version(line);
        let entry = self.dir.entry(line);
        let had_remote_owner = entry.owner.filter(|&o| o != core).is_some();
        let had_remote_sharer = entry.sharer_cores().any(|c| c != core);
        let in_l3 = self.l3.peek(line).is_some();

        // Invalidate every remote copy.
        let mut kicked = self.dir.invalidate_others_mask(line, core);
        self.stats.invalidations += kicked.count_ones() as u64;
        self.stats.sharer_walk.record(kicked.count_ones() as u64);
        while kicked != 0 {
            let victim = CoreId(kicked.trailing_zeros() as u16);
            kicked &= kicked - 1;
            self.drop_core_line(victim, line);
        }

        let (complete_at, source) = if had_remote_owner {
            self.stats.c2c_transfers += 1;
            (now + self.c2c_latency() as Cycle, Source::CacheToCache)
        } else if in_l3 {
            self.stats.l3_hits += 1;
            self.l3.invalidate(line);
            (now + self.cfg.mem.l3_latency as Cycle, Source::L3)
        } else if had_remote_sharer {
            self.stats.c2c_transfers += 1;
            (now + self.c2c_latency() as Cycle, Source::CacheToCache)
        } else {
            self.stats.dram_reads += 1;
            (self.dram.read(line, now), Source::Dram)
        };

        self.dir.clear_owner(line);
        self.dir.set_owner(line, core);
        self.install_l2(
            core,
            CacheLine {
                addr: line,
                state: Mosi::Modified,
                version: current,
                coherent: true,
            },
        );
        Access {
            complete_at,
            version: current,
            source,
        }
    }

    /// Commit-time write-through of a store. `token` becomes the
    /// line's new version. Ownership is re-acquired if it was lost
    /// between dispatch and commit.
    pub fn store_commit(
        &mut self,
        core: CoreId,
        line: LineAddr,
        token: VersionToken,
        coherent: bool,
        now: Cycle,
    ) -> Access {
        let _prof = self.profiler.enter(ProfPhase::Mem);
        if !coherent {
            // Mute store: purely local. The copy diverges from the
            // coherent world, so it must be marked incoherent even if
            // it was filled coherently earlier (mode-switch leftovers).
            self.maybe_incoherent[core.index()] = true;
            let fill = self.mute_local_fill(core, line, now);
            let idx = core.index();
            let diverge = move |l: &mut CacheLine| {
                l.coherent = false;
                l.version = token;
                l.state = Mosi::Modified;
            };
            if self
                .l2
                .get_mut(idx)
                .update(line, diverge)
                .is_some_and(|l| l.coherent)
            {
                // Leaving the coherent world: stop being tracked.
                self.dir.remove_sharer(line, core);
            }
            self.l1d.get_mut(idx).update(line, diverge);
            return Access {
                complete_at: fill.complete_at.max(now + 1),
                version: token,
                source: fill.source,
            };
        }

        // Coherent path: ensure we still hold M.
        let holds_m = self
            .l2
            .get(core.index())
            .peek(line)
            .is_some_and(|l| l.coherent && l.state == Mosi::Modified);
        let (mut complete_at, source) = if holds_m {
            (now + 1, Source::L2)
        } else {
            let acc = self.store_acquire(core, line, true, now);
            (acc.complete_at + 1, acc.source)
        };
        if complete_at <= now {
            complete_at = now + 1;
        }
        self.versions.insert(line, token);
        self.l2
            .get_mut(core.index())
            .update(line, |l| l.version = token);
        // Write-through, no-write-allocate L1: update an existing copy
        // only.
        self.l1d
            .get_mut(core.index())
            .update(line, |l| l.version = token);
        Access {
            complete_at,
            version: token,
            source,
        }
    }

    /// Ensures the mute core holds a private copy of `line`,
    /// best-effort, without any global state change.
    fn mute_local_fill(&mut self, core: CoreId, line: LineAddr, now: Cycle) -> Access {
        if let Some(l) = self.l2.get(core.index()).peek(line) {
            let v = l.version;
            return Access {
                complete_at: now + self.cfg.mem.l2_latency as Cycle,
                version: v,
                source: Source::L2,
            };
        }
        // Probe remote state read-only (via the directory bank).
        let now = now + self.bank_delay(line, now);
        let entry = self.dir.entry(line);
        let current = self.current_version(line);
        let (complete_at, source) = if entry.owner.filter(|&o| o != core).is_some()
            || entry.sharer_cores().any(|c| c != core)
        {
            self.stats.c2c_transfers += 1;
            (now + self.c2c_latency() as Cycle, Source::CacheToCache)
        } else if self.l3.peek(line).is_some() {
            self.stats.l3_hits += 1;
            (now + self.cfg.mem.l3_latency as Cycle, Source::L3)
        } else {
            self.stats.dram_reads += 1;
            (self.dram.read(line, now), Source::Dram)
        };
        self.stats.incoherent_fills += 1;
        self.stats.l2_misses += 1;
        self.install_l2(
            core,
            CacheLine {
                addr: line,
                state: Mosi::Shared,
                version: current,
                coherent: false,
            },
        );
        Access {
            complete_at,
            version: current,
            source,
        }
    }

    // ----- maintenance operations --------------------------------------------

    /// Invalidates a (possibly stale) private copy so the next access
    /// refetches fresh data. Used by Reunion recovery to heal the
    /// mute's input-incoherent lines.
    pub fn heal_line(&mut self, core: CoreId, line: LineAddr) {
        let idx = core.index();
        if let Some(l) = self.l2.get(idx).peek(line) {
            if l.coherent {
                self.dir.remove_sharer(line, core);
            }
        }
        self.l2.get_mut(idx).invalidate(line);
        self.l1d.get_mut(idx).invalidate(line);
        self.l1i.get_mut(idx).invalidate(line);
    }

    /// Walks the mute's L2 when leaving DMR mode in MMM-TP: inspects
    /// every slot (1 per cycle), discards incoherent lines, and writes
    /// back coherent dirty lines (the staged VCPU state).
    pub fn flush_mute(&mut self, core: CoreId, now: Cycle) -> FlushOutcome {
        let idx = core.index();
        let inspected = self.l2.get(idx).slot_count();
        let mut scratch = std::mem::take(&mut self.scratch);
        self.l2
            .get_mut(idx)
            .drain_matching_into(|l| !l.coherent, &mut scratch);
        let invalidated = scratch.len();
        for l in &scratch {
            self.l1d.get_mut(idx).invalidate(l.addr);
            self.l1i.get_mut(idx).invalidate(l.addr);
        }
        // Coherent dirty lines move to the L3 (normal eviction path).
        self.l2
            .get_mut(idx)
            .drain_matching_into(|l| l.state.is_dirty(), &mut scratch);
        let written_back = scratch.len() - invalidated;
        for l in scratch.drain(invalidated..) {
            self.l1d.get_mut(idx).invalidate(l.addr);
            self.l1i.get_mut(idx).invalidate(l.addr);
            self.dir.remove_sharer(l.addr, core);
            self.install_l3(l, now);
        }
        scratch.clear();
        self.scratch = scratch;
        // Drop L1 incoherent leftovers wholesale (cheap CAM clear).
        self.l1d.get_mut(idx).discard_matching(|l| !l.coherent);
        self.l1i.get_mut(idx).discard_matching(|l| !l.coherent);
        self.maybe_incoherent[idx] = false;
        let cycles = (inspected as u64).div_ceil(self.cfg.virt.flush_lines_per_cycle as u64)
            + written_back as u64;
        self.stats.flushes += 1;
        self.stats.flush_cycles += cycles;
        FlushOutcome {
            complete_at: now + cycles,
            inspected,
            written_back,
            invalidated,
        }
    }

    /// Flash-invalidates every incoherent line in a core's private
    /// hierarchy. Unlike [`MemorySystem::flush_mute`], nothing needs
    /// writing back (incoherent dirty lines are redundant copies of
    /// state the vocal already made globally visible), so this is a
    /// single-cycle flash clear of the per-line coherent/valid bits —
    /// used when a core is (re-)coupled as a mute after an idle gap,
    /// so weeks-stale data does not trigger a recovery storm. A core
    /// that holds no incoherent line (`maybe_incoherent` is false)
    /// is not walked.
    pub fn flash_invalidate_incoherent(&mut self, core: CoreId) -> usize {
        let idx = core.index();
        if !self.maybe_incoherent[idx] {
            return 0;
        }
        self.maybe_incoherent[idx] = false;
        self.l2.get_mut(idx).discard_matching(|l| !l.coherent)
            + self.l1d.get_mut(idx).discard_matching(|l| !l.coherent)
            + self.l1i.get_mut(idx).discard_matching(|l| !l.coherent)
    }

    /// Drops a line from a remote core's private hierarchy
    /// (invalidation delivery).
    fn drop_core_line(&mut self, core: CoreId, line: LineAddr) {
        let idx = core.index();
        self.l2.get_mut(idx).invalidate(line);
        self.l1d.get_mut(idx).invalidate(line);
        self.l1i.get_mut(idx).invalidate(line);
    }

    /// Installs a line into a core's L2, handling the victim: coherent
    /// dirty victims move to the L3; coherent clean victims move to
    /// the L3 when no other sharer holds them (exclusive-hierarchy
    /// victim caching); incoherent victims vanish silently (mute state
    /// never escapes, paper §3.2).
    fn install_l2(&mut self, core: CoreId, line: CacheLine) {
        let idx = core.index();
        if !line.coherent {
            self.maybe_incoherent[idx] = true;
        }
        if let Some(victim) = self.l2.get_mut(idx).insert(line) {
            self.l1d.get_mut(idx).invalidate(victim.addr);
            self.l1i.get_mut(idx).invalidate(victim.addr);
            if victim.coherent {
                self.dir.remove_sharer(victim.addr, core);
                // Dirty victims must reach the L3; clean victims are
                // cached there too when no other L2 still holds them
                // (exclusive-hierarchy victim caching).
                let cache_in_l3 = victim.state.is_dirty()
                    || (self.dir.entry(victim.addr).is_empty()
                        && self.l3.peek(victim.addr).is_none());
                if cache_in_l3 {
                    self.install_l3(victim, 0);
                }
            }
        }
    }

    /// Installs a line into the L3, writing back any dirty L3 victim.
    fn install_l3(&mut self, mut line: CacheLine, now: Cycle) {
        line.coherent = true;
        if let Some(victim) = self.l3.insert(line) {
            if victim.state.is_dirty() {
                self.dram.write_back(victim.addr, now);
                self.stats.writebacks += 1;
            }
        }
    }

    // ----- test/diagnostic accessors -----------------------------------------

    /// Peeks a core's L2 copy of a line (diagnostics).
    pub fn peek_l2(&self, core: CoreId, line: LineAddr) -> Option<CacheLine> {
        self.l2.get(core.index()).peek(line)
    }

    /// Peeks the L3 copy of a line (diagnostics).
    pub fn peek_l3(&self, line: LineAddr) -> Option<CacheLine> {
        self.l3.peek(line)
    }

    /// Occupancy of a core's L2 (diagnostics).
    pub fn l2_occupancy(&self, core: CoreId) -> usize {
        self.l2.get(core.index()).occupancy()
    }

    /// Occupancy of the shared L3 (diagnostics).
    pub fn l3_occupancy(&self) -> usize {
        self.l3.occupancy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::store_token;
    use mmm_types::VcpuId;

    fn sys() -> MemorySystem {
        MemorySystem::new(&SystemConfig::default())
    }

    const L: LineAddr = LineAddr(0x4_0000);
    const C0: CoreId = CoreId(0);
    const C1: CoreId = CoreId(1);
    const C2: CoreId = CoreId(2);

    #[test]
    fn cold_load_comes_from_dram_then_hits_l1() {
        let mut m = sys();
        let a = m.load(C0, L, true, 0);
        assert_eq!(a.source, Source::Dram);
        assert!(a.complete_at >= 350);
        let b = m.load(C0, L, true, a.complete_at);
        assert_eq!(b.source, Source::L1);
        assert_eq!(b.complete_at, a.complete_at + 2);
        assert_eq!(b.version, a.version);
    }

    #[test]
    fn clean_shared_misses_go_to_memory_but_mute_scavenges() {
        let mut m = sys();
        m.load(C0, L, true, 0);
        // Classic MOSI: a coherent miss to a clean-shared line is
        // serviced by memory, not forwarded from the peer L2.
        let a = m.load(C1, L, true, 1000);
        assert_eq!(a.source, Source::Dram);
        assert_eq!(m.stats().c2c_transfers, 0);
        // A mute's best-effort request does scavenge the clean copy.
        let b = m.load(C2, L, false, 2000);
        assert_eq!(b.source, Source::CacheToCache);
        assert_eq!(m.stats().c2c_transfers, 1);
    }

    #[test]
    fn store_then_remote_load_gives_c2c_and_owner_becomes_owned() {
        let mut m = sys();
        let t = store_token(VcpuId(0), L, 1);
        m.store_acquire(C0, L, true, 0);
        m.store_commit(C0, L, t, true, 10);
        assert_eq!(m.peek_l2(C0, L).unwrap().state, Mosi::Modified);
        let a = m.load(C1, L, true, 100);
        assert_eq!(a.source, Source::CacheToCache);
        assert_eq!(a.version, t, "remote load sees the stored token");
        assert_eq!(m.peek_l2(C0, L).unwrap().state, Mosi::Owned);
        assert_eq!(m.peek_l2(C1, L).unwrap().state, Mosi::Shared);
    }

    #[test]
    fn store_upgrade_invalidates_sharers() {
        let mut m = sys();
        m.load(C0, L, true, 0);
        m.load(C1, L, true, 400);
        // C1 upgrades to M; C0's copy must die.
        let t = store_token(VcpuId(1), L, 5);
        m.store_acquire(C1, L, true, 800);
        m.store_commit(C1, L, t, true, 900);
        assert!(m.peek_l2(C0, L).is_none(), "C0 invalidated");
        assert_eq!(m.peek_l2(C1, L).unwrap().state, Mosi::Modified);
        assert!(m.stats().invalidations >= 1);
        // C0 reloading sees the new token.
        let a = m.load(C0, L, true, 1000);
        assert_eq!(a.version, t);
    }

    #[test]
    fn ownership_lost_between_dispatch_and_commit_is_reacquired() {
        let mut m = sys();
        m.store_acquire(C0, L, true, 0);
        // C1 steals ownership before C0 commits.
        m.store_acquire(C1, L, true, 50);
        let t1 = store_token(VcpuId(1), L, 9);
        m.store_commit(C1, L, t1, true, 60);
        // C0 commit must re-acquire and still succeed.
        let t0 = store_token(VcpuId(0), L, 10);
        let a = m.store_commit(C0, L, t0, true, 100);
        assert!(a.complete_at > 101, "re-acquisition costs latency");
        assert_eq!(m.current_version(L), t0);
        assert_eq!(m.peek_l2(C0, L).unwrap().state, Mosi::Modified);
        assert!(m.peek_l2(C1, L).is_none());
    }

    #[test]
    fn l2_eviction_moves_line_to_l3_and_back() {
        let mut m = sys();
        // Fill one L2 set (4 ways) plus one more mapping to the same set.
        let sets = SystemConfig::default().mem.l2.sets();
        let addrs: Vec<LineAddr> = (0..5).map(|i| LineAddr(0x100 + i * sets)).collect();
        for (i, &a) in addrs.iter().enumerate() {
            m.load(C0, a, true, i as Cycle * 1000);
        }
        // The first line was evicted to L3 (clean victim, no sharers).
        assert!(m.peek_l2(C0, addrs[0]).is_none());
        assert!(m.peek_l3(addrs[0]).is_some());
        // Reloading it hits L3 and removes it from L3 (exclusivity).
        let a = m.load(C0, addrs[0], true, 100_000);
        assert_eq!(a.source, Source::L3);
        assert!(m.peek_l3(addrs[0]).is_none());
        assert!(m.peek_l2(C0, addrs[0]).is_some());
    }

    #[test]
    fn dirty_eviction_preserves_token_through_l3() {
        let mut m = sys();
        let t = store_token(VcpuId(0), L, 3);
        m.store_acquire(C0, L, true, 0);
        m.store_commit(C0, L, t, true, 10);
        // Evict L by filling the set.
        let sets = SystemConfig::default().mem.l2.sets();
        for i in 1..=4u64 {
            m.load(C0, LineAddr(L.0 + i * sets), true, i * 1000);
        }
        assert!(m.peek_l2(C0, L).is_none());
        let l3line = m.peek_l3(L).expect("dirty victim went to L3");
        assert!(l3line.state.is_dirty());
        // Another core's load hits L3 and sees the token; the line
        // moves into its L2 still dirty (Modified), preserving the
        // only up-to-date copy.
        let a = m.load(C1, L, true, 50_000);
        assert_eq!(a.source, Source::L3);
        assert_eq!(a.version, t);
        assert_eq!(m.peek_l2(C1, L).unwrap().state, Mosi::Modified);
    }

    #[test]
    fn mute_load_does_not_change_directory_or_remote_state() {
        let mut m = sys();
        let t = store_token(VcpuId(0), L, 1);
        m.store_acquire(C0, L, true, 0);
        m.store_commit(C0, L, t, true, 10);
        let before_owner = m.directory().entry(L).owner;
        let before_state = m.peek_l2(C0, L).unwrap().state;

        let a = m.load(C1, L, false, 100);
        assert_eq!(a.source, Source::CacheToCache);
        assert_eq!(a.version, t, "best effort returns current data");
        // Nothing global changed.
        assert_eq!(m.directory().entry(L).owner, before_owner);
        assert_eq!(m.peek_l2(C0, L).unwrap().state, before_state);
        assert!(!m.directory().entry(L).has_sharer(C1));
        // But the mute holds a private incoherent copy now.
        let copy = m.peek_l2(C1, L).unwrap();
        assert!(!copy.coherent);
    }

    #[test]
    fn mute_copy_goes_stale_after_foreign_store() {
        let mut m = sys();
        m.load(C1, L, false, 0); // mute fill
        let t = store_token(VcpuId(0), L, 7);
        m.store_acquire(C0, L, true, 100);
        m.store_commit(C0, L, t, true, 110);
        // Mute hit returns the OLD token; the coherent world moved on.
        let a = m.load(C1, L, false, 200);
        assert_eq!(a.source, Source::L1);
        assert_ne!(a.version, t, "mute observes stale data");
        assert_eq!(m.current_version(L), t);
        assert!(m.stats().stale_mute_hits >= 1);
    }

    #[test]
    fn heal_line_makes_mute_refetch_fresh() {
        let mut m = sys();
        m.load(C1, L, false, 0);
        let t = store_token(VcpuId(0), L, 7);
        m.store_acquire(C0, L, true, 100);
        m.store_commit(C0, L, t, true, 110);
        m.heal_line(C1, L);
        let a = m.load(C1, L, false, 300);
        assert_eq!(a.version, t, "after heal the mute refetches fresh data");
    }

    #[test]
    fn mute_store_stays_local() {
        let mut m = sys();
        let t_mute = store_token(VcpuId(0), L, 4);
        m.store_acquire(C1, L, false, 0);
        m.store_commit(C1, L, t_mute, false, 10);
        // Global world unchanged.
        assert_ne!(m.current_version(L), t_mute);
        assert_eq!(m.directory().entry(L).owner, None);
        // Local copy diverged but holds the token the mute wrote —
        // its own later load observes its own store (store-to-load
        // consistency within the mute).
        let a = m.load(C1, L, false, 100);
        assert_eq!(a.version, t_mute);
    }

    #[test]
    fn matching_vocal_and_mute_stores_produce_matching_tokens() {
        let mut m = sys();
        // Vocal C0 and mute C1 execute the same dynamic store of VCPU 3.
        let t = store_token(VcpuId(3), L, 42);
        m.store_acquire(C0, L, true, 0);
        m.store_commit(C0, L, t, true, 10);
        m.store_acquire(C1, L, false, 5);
        m.store_commit(C1, L, t, false, 12);
        let vocal = m.load(C0, L, true, 100);
        let mute = m.load(C1, L, false, 100);
        assert_eq!(vocal.version, mute.version, "redundant stores agree");
    }

    #[test]
    fn mute_coherent_line_becomes_incoherent_on_mute_store() {
        let mut m = sys();
        // Coherent fill on C1 (e.g. VCPU-state restore while mute).
        m.load(C1, L, true, 0);
        assert!(m.directory().entry(L).has_sharer(C1));
        // Now a mute store dirties it locally.
        let t = store_token(VcpuId(1), L, 1);
        m.store_commit(C1, L, t, false, 100);
        assert!(!m.peek_l2(C1, L).unwrap().coherent);
        assert!(
            !m.directory().entry(L).has_sharer(C1),
            "diverged copy left the coherent world"
        );
    }

    #[test]
    fn incoherent_dirty_eviction_never_escapes() {
        let mut m = sys();
        let t = store_token(VcpuId(1), L, 1);
        m.store_acquire(C1, L, false, 0);
        m.store_commit(C1, L, t, false, 10);
        // Evict the incoherent dirty line.
        let sets = SystemConfig::default().mem.l2.sets();
        for i in 1..=4u64 {
            m.load(C1, LineAddr(L.0 + i * sets), false, i * 1000);
        }
        assert!(m.peek_l2(C1, L).is_none());
        assert!(m.peek_l3(L).is_none(), "mute state must not reach L3");
        assert_ne!(m.current_version(L), t);
    }

    #[test]
    fn flush_mute_discards_incoherent_and_writes_back_coherent_dirty() {
        let mut m = sys();
        // Incoherent fills.
        for i in 0..10u64 {
            m.load(C1, LineAddr(0x9000 + i), false, i);
        }
        // Coherent dirty (VCPU state staging).
        let t = store_token(VcpuId(1), LineAddr(0xA000), 1);
        m.store_acquire(C1, LineAddr(0xA000), true, 100);
        m.store_commit(C1, LineAddr(0xA000), t, true, 110);
        let out = m.flush_mute(C1, 1000);
        assert_eq!(out.invalidated, 10);
        assert_eq!(out.written_back, 1);
        // Inspection walk dominates: 8192 slots at 1/cycle.
        let slots = SystemConfig::default().mem.l2.lines();
        assert!(out.complete_at - 1000 >= slots);
        assert!(m.peek_l2(C1, LineAddr(0x9000)).is_none());
        // The state line survives in the L3, dirty and still current:
        // a coherent reload finds it there with the stored token.
        assert!(m
            .peek_l3(LineAddr(0xA000))
            .is_some_and(|l| l.state.is_dirty()));
        assert_eq!(m.current_version(LineAddr(0xA000)), t);
        let reload = m.load(C1, LineAddr(0xA000), true, out.complete_at);
        assert_eq!((reload.source, reload.version), (Source::L3, t));
    }

    #[test]
    fn only_the_l1ds_and_l2s_keep_versions() {
        fn bank<S>(_: &CacheBank<S>) -> usize {
            std::mem::size_of::<S>()
        }
        fn cache<S>(_: &SetAssocCache<S>) -> usize {
            std::mem::size_of::<S>()
        }
        let m = sys();
        assert_eq!(bank(&m.l1i), 8);
        assert_eq!(bank(&m.l1d), 16);
        assert_eq!(bank(&m.l2), 16);
        assert_eq!(cache(&m.l3), 8);
    }

    #[test]
    fn only_flagged_cores_hold_incoherent_lines() {
        // `flash_invalidate_incoherent` skips a core whose flag is
        // clear, so no request sequence may leave an incoherent copy
        // in such a core's L1s or L2.
        let mut m = sys();
        let mut rng = mmm_types::DetRng::new(0xF1A5, 0);
        // Lines 0x800 apart share one L1 set and one L2 set, so both
        // evict constantly; each line's next-line prefetch is the only
        // other address touched.
        let lines: Vec<LineAddr> = (0..24).map(|i| LineAddr(0x8_0000 + i * 0x800)).collect();
        let mut flashed = 0;
        for step in 0..20_000u64 {
            let core = CoreId(rng.below(4) as u16);
            let line = lines[rng.below(lines.len() as u64) as usize];
            let coherent = rng.chance(0.5);
            match rng.below(16) {
                0..=5 => {
                    m.load(core, line, coherent, step);
                }
                6..=8 => {
                    m.store_acquire(core, line, coherent, step);
                }
                9..=11 => {
                    let t = store_token(VcpuId(core.0), line, step);
                    m.store_commit(core, line, t, coherent, step);
                }
                12 | 13 => {
                    m.ifetch(core, line, coherent, step);
                }
                14 => m.heal_line(core, line),
                _ if rng.chance(0.5) => {
                    m.flush_mute(core, step);
                }
                _ => flashed += m.flash_invalidate_incoherent(core),
            }
            for c in (0..4)
                .map(CoreId)
                .filter(|c| !m.maybe_incoherent[c.index()])
            {
                for l in lines.iter().flat_map(|l| [*l, LineAddr(l.0 + 1)]) {
                    let i = c.index();
                    let copies = [
                        m.l1i.get(i).peek(l),
                        m.l1d.get(i).peek(l),
                        m.l2.get(i).peek(l),
                    ];
                    assert!(
                        copies.iter().flatten().all(|copy| copy.coherent),
                        "step {step}: unflagged core {c:?} holds an incoherent copy of {l:?}"
                    );
                }
            }
        }
        assert!(flashed > 0, "some flash invalidations found lines");
    }

    #[test]
    fn three_cores_share_then_one_writes() {
        let mut m = sys();
        for (i, c) in [C0, C1, C2].iter().enumerate() {
            m.load(*c, L, true, i as Cycle * 500);
        }
        assert_eq!(m.directory().entry(L).sharer_count(), 3);
        let t = store_token(VcpuId(2), L, 8);
        m.store_acquire(C2, L, true, 5000);
        m.store_commit(C2, L, t, true, 5100);
        assert_eq!(m.directory().entry(L).sharer_count(), 1);
        assert_eq!(m.directory().entry(L).owner, Some(C2));
        for c in [C0, C1] {
            assert!(m.peek_l2(c, L).is_none());
            let a = m.load(c, L, true, 6000);
            assert_eq!(a.version, t);
        }
    }

    #[test]
    fn ifetch_fills_l1i_and_hits() {
        let mut m = sys();
        let a = m.ifetch(C0, L, true, 0);
        assert_eq!(a.source, Source::Dram);
        let b = m.ifetch(C0, L, true, 1000);
        assert_eq!(b.source, Source::L1);
        assert_eq!(m.stats().l1i_hits, 1);
        assert_eq!(m.stats().l1i_misses, 1);
    }

    #[test]
    fn next_line_prefetch_halves_sequential_fetch_misses() {
        let mut m = sys();
        // A sequential code walk with a demand-miss-triggered
        // next-line prefetcher: each miss pulls in the following line,
        // so at most every other access misses (vs. all of them
        // without the prefetcher).
        let mut misses = 0;
        for i in 0..32u64 {
            let a = m.ifetch(C0, LineAddr(0x7000 + i), true, i * 100);
            if a.source != Source::L1 {
                misses += 1;
            }
        }
        assert!(
            misses <= 16,
            "prefetcher must at least halve misses: {misses}"
        );
        assert!(misses >= 1, "the first access cannot hit");
    }

    #[test]
    fn ifetch_after_data_write_hits_the_unified_l2() {
        let mut m = sys();
        let t = store_token(VcpuId(0), L, 1);
        m.store_acquire(C0, L, true, 0);
        m.store_commit(C0, L, t, true, 10);
        // An instruction fetch of the same line must not clobber the
        // Modified state (regression: read_into_l2 used to overwrite
        // an owned line with a Shared fill).
        let a = m.ifetch(C0, L, true, 100);
        assert_eq!(a.source, Source::L2);
        assert_eq!(m.peek_l2(C0, L).unwrap().state, Mosi::Modified);
        assert_eq!(m.directory().entry(L).owner, Some(C0));
    }

    #[test]
    fn coherent_access_discards_incoherent_leftovers() {
        let mut m = sys();
        // A mute stint leaves an incoherent dirty line behind.
        let t_mute = store_token(VcpuId(1), L, 5);
        m.store_acquire(C1, L, false, 0);
        m.store_commit(C1, L, t_mute, false, 5);
        // The same core, now coherent (role change without a flush —
        // the memory API must still be safe): a coherent load must
        // not observe the mute leftovers.
        let a = m.load(C1, L, true, 100);
        assert_eq!(a.version, m.current_version(L));
        assert_ne!(a.version, t_mute);
    }

    #[test]
    fn dram_bandwidth_queues_under_burst() {
        let mut m = sys();
        let mut last = 0;
        for i in 0..50u64 {
            let a = m.load(C0, LineAddr(0x10_0000 + i * 8192), true, 0);
            assert!(a.complete_at >= last, "monotonic queue");
            last = a.complete_at;
        }
        assert!(m.dram().queue_cycles() > 0, "burst must queue");
    }

    #[test]
    fn bank_contention_queues_only_when_enabled() {
        // Disabled (default): two same-bank misses at the same cycle
        // see identical latency.
        let mut m = sys();
        let a1 = m.load(C0, LineAddr(0x10_000), true, 0);
        let mut m2 = sys();
        let b1 = m2.load(C0, LineAddr(0x10_000), true, 0);
        assert_eq!(a1.complete_at, b1.complete_at);
        assert_eq!(m.stats().bank_queue_cycles, 0);

        // Enabled: simultaneous misses to the same bank serialize.
        let mut cfg = SystemConfig::default();
        cfg.mem.bank_occupancy_cycles = 4;
        let mut mc = MemorySystem::new(&cfg);
        // Same bank: line numbers congruent mod 8.
        let first = mc.load(C0, LineAddr(0x10_000), true, 0);
        let second = mc.load(C1, LineAddr(0x10_008), true, 0);
        assert!(
            second.complete_at > first.complete_at,
            "second same-bank miss queues behind the first"
        );
        assert_eq!(mc.stats().bank_queue_cycles, 4, "one occupancy of queueing");
        // Different bank: no bank queueing accrues (DRAM bandwidth
        // queueing is accounted separately).
        let before = mc.stats().bank_queue_cycles;
        mc.load(C2, LineAddr(0x10_001), true, 0);
        assert_eq!(mc.stats().bank_queue_cycles, before);
    }

    #[test]
    fn reset_stats_keeps_cache_state() {
        let mut m = sys();
        m.load(C0, L, true, 0);
        m.reset_stats();
        assert_eq!(m.stats().dram_reads, 0);
        let a = m.load(C0, L, true, 1000);
        assert_eq!(a.source, Source::L1, "cache state survived the reset");
    }
}
