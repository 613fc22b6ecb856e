//! Table-driven power-law sampling, bit-equal to the `powf` path
//! wherever that path is monotone.
//!
//! [`DetRng::power_law_prepared`] costs one `powf` per draw, and the
//! workload streams draw on every op — the self-profiler attributes
//! ~14% of hot-loop wall time to op generation, almost all of it
//! `powf`. This module precomputes, per `(n, skew)` pair, the
//! threshold table of the composed draw function
//!
//! ```text
//! r = next_u64() >> 11            (the 53-bit raw draw behind unit())
//! k = power_law_eval(n, a, inv, r * 2^-53)
//! ```
//!
//! `thresholds[k]` is the first `r` at which `k` is reached, so a draw
//! becomes one `next_u64`, one bucket-index shift, and a short binary
//! search — no floating point at all. The thresholds are found by
//! probing [`power_law_eval`] itself (the same `#[inline]` scalar both
//! paths share), so wherever `k` is monotone non-decreasing in `r` the
//! table maps every raw draw to exactly the index the reference path
//! produces. That holds for every pair the built-in profiles use (skew
//! 1.05–2.2): a ±4 scan around every threshold finds no disagreement.
//! At skew < 1 `powf` rounding makes `k` step back at a few raw draws
//! and the table, which must be monotone, differs there: at
//! `(n = 128, skew = 0.5)`, `r = 7516553633913224` gives 92 from
//! [`power_law_eval`] and 91 from the table. The same scan finds 30
//! such draws over `n` ∈ {128, 1000, 48 000} at skew 0.5.
//!
//! Tables are deduplicated in a process-global cache keyed on
//! `(n, skew)` — the built-in benchmarks use 34 distinct pairs, each
//! table costing `8n` bytes plus a 16 KiB bucket index (625 KiB at the
//! largest, OLTP's `n = 80 000`). Domains above 2^20 use the reference
//! path. Each cache entry is a cell that is filled exactly once: a
//! thread that asks for a table another thread is building waits for
//! that build instead of making its own copy. [`build_tables`] fills
//! the cells a workload stream still lacks on all available host CPUs
//! before the stream takes its samplers from the cache; a table is a
//! pure function of `(n, skew)`, so which thread builds it changes no
//! draw.

use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread;

use crate::rng::{power_law_eval, DetRng, PowerLaw};

/// Raw draws carry 53 bits, matching `DetRng::unit`.
const RAW_BITS: u32 = 53;
/// Largest raw draw value.
const MAX_R: u64 = (1u64 << RAW_BITS) - 1;
/// `unit()`'s exact scale factor; `r as f64 * UNIT_SCALE` reproduces
/// the reference `u` bit-for-bit for every 53-bit `r`.
const UNIT_SCALE: f64 = 1.0 / (1u64 << RAW_BITS) as f64;
/// The bucket index uses the top `BUCKET_BITS` of the raw draw to
/// bracket the binary search; 12 bits keeps the bucket array at
/// 4097 × 4 bytes while leaving searches ~3 probes deep even at the
/// largest benchmark domain.
const BUCKET_BITS: u32 = 12;
/// Shift that maps a raw draw to its bucket index.
const BUCKET_SHIFT: u32 = RAW_BITS - BUCKET_BITS;
/// Domains larger than this fall back to the reference path rather
/// than build a multi-megabyte table (no benchmark comes close).
const MAX_TABLE_N: u64 = 1 << 20;

/// Immutable table payload, shared via `Arc` through the global cache.
struct TableInner {
    /// Domain size.
    n: u64,
    /// Skew the table was built for.
    skew: f64,
    /// `thresholds[k]` = first raw draw the table maps to `k` or above
    /// (`thresholds[0] == 0`; monotone non-decreasing; a value above
    /// [`MAX_R`] marks an index the reference path never produces).
    thresholds: Vec<u64>,
    /// `buckets[b]` = table answer at raw draw `b << BUCKET_SHIFT`,
    /// so a draw in bucket `b` lies in `[buckets[b], buckets[b + 1]]`.
    buckets: Vec<u32>,
}

/// Analytic estimate of the raw draw where the continuous inverse CDF
/// crosses `k`, clamped to `[prev, MAX_R]`. The threshold is usually
/// within two raw draws of it.
fn estimate(a: f64, inv: f64, k: u64, prev: u64) -> u64 {
    let u_est = if inv == 0.0 {
        ((k + 1) as f64).ln() / a.ln()
    } else {
        (((k + 1) as f64).powf(1.0 / inv) - 1.0) / (a - 1.0)
    };
    ((u_est.clamp(0.0, 1.0) * (1u64 << RAW_BITS) as f64) as u64).clamp(prev, MAX_R)
}

/// Finds `k`'s threshold in `[prev, MAX_R]`: a raw draw `r` with
/// `eval(r - 1) < k <= eval(r)` (unique where `eval` is monotone),
/// `prev` when `eval(prev) >= k`, or `MAX_R + 1` when
/// `eval(MAX_R) < k` (the reference path never reaches `k`). Gallops
/// outward from the estimate `r_est` (steps 1, 2, 4, …) to a bracket
/// `eval(lo) < k <= eval(hi)`, then bisects it; no raw draw is probed
/// twice.
fn threshold(mut eval: impl FnMut(u64) -> u64, k: u64, prev: u64, r_est: u64) -> u64 {
    let (mut lo, mut hi) = (r_est, r_est);
    let mut step = 1;
    if eval(r_est) >= k {
        loop {
            if hi == prev {
                return prev;
            }
            lo = hi.saturating_sub(step).max(prev);
            if eval(lo) < k {
                break;
            }
            hi = lo;
            step *= 2;
        }
    } else {
        loop {
            if lo == MAX_R {
                return MAX_R + 1;
            }
            hi = (lo + step).min(MAX_R);
            if eval(hi) >= k {
                break;
            }
            lo = hi;
            step *= 2;
        }
    }
    while lo + 1 < hi {
        let m = lo + (hi - lo) / 2;
        if eval(m) >= k {
            hi = m;
        } else {
            lo = m;
        }
    }
    hi
}

impl TableInner {
    /// Builds the threshold table for `(n, skew)` by probing the shared
    /// reference evaluation, and returns it with the number of
    /// [`power_law_eval`] probes made: about 2.5 per index, plus one
    /// `powf` per index for the estimate. OLTP's two `n = 80 000`
    /// tables take 12–17 ms each on a 2-vCPU Intel Xeon VM.
    fn build(n: u64, skew: f64) -> (Self, u64) {
        let (a, inv) = PowerLaw::constants(n, skew);
        let mut probes = 0u64;
        let mut eval = |r: u64| {
            probes += 1;
            power_law_eval(n, a, inv, r as f64 * UNIT_SCALE)
        };
        let mut thresholds = Vec::with_capacity(n as usize);
        thresholds.push(0u64);
        let mut prev = 0u64;
        for k in 1..n {
            // Once an index is unreachable, so is every later one.
            if prev <= MAX_R {
                prev = threshold(&mut eval, k, prev, estimate(a, inv, k, prev));
            }
            thresholds.push(prev);
        }
        (Self::from_thresholds(n, skew, thresholds), probes)
    }

    /// Wraps finished thresholds with their bucket index.
    fn from_thresholds(n: u64, skew: f64, thresholds: Vec<u64>) -> Self {
        // Bucket index: answer at each bucket boundary, bracketing the
        // per-draw binary search.
        let mut buckets = vec![0u32; (1usize << BUCKET_BITS) + 1];
        let mut k = 0u64;
        for (b, slot) in buckets.iter_mut().enumerate() {
            let r = (b as u64) << BUCKET_SHIFT;
            while k + 1 < n && thresholds[(k + 1) as usize] <= r {
                k += 1;
            }
            *slot = k as u32;
        }
        Self {
            n,
            skew,
            thresholds,
            buckets,
        }
    }

    /// Maps a 53-bit raw draw to its power-law index.
    #[inline]
    fn lookup(&self, r: u64) -> u64 {
        let b = (r >> BUCKET_SHIFT) as usize;
        let mut lo = u64::from(self.buckets[b]);
        let mut hi = u64::from(self.buckets[b + 1]);
        // Largest k in [lo, hi] with thresholds[k] <= r.
        while lo < hi {
            let mid = (lo + hi).div_ceil(2);
            if self.thresholds[mid as usize] <= r {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        lo
    }
}

/// One cache entry: empty until the first thread to ask for its table
/// builds it; every other thread asking meanwhile waits for that build.
type TableCell = Arc<OnceLock<Arc<TableInner>>>;

/// Process-global table cache keyed on `(n, skew bits)`. Streams for
/// all cores share one table per distinct parameter pair. The lock is
/// held only to find or insert a cell, never during a build.
static CACHE: Mutex<BTreeMap<(u64, u64), TableCell>> = Mutex::new(BTreeMap::new());

/// The cache cell of `(n, skew)`, inserting an empty one if the pair
/// is new.
fn cell(n: u64, skew: f64) -> TableCell {
    let mut map = CACHE
        .lock()
        .expect("power-law table cache poisoned: a thread panicked while holding it");
    Arc::clone(map.entry((n, skew.to_bits())).or_default())
}

/// The table in `cell`, built on this thread if no other thread has
/// built it; if another thread is building it, waits for that build.
fn built(cell: &OnceLock<Arc<TableInner>>, n: u64, skew: f64) -> &Arc<TableInner> {
    cell.get_or_init(|| {
        #[cfg(test)]
        tests::count_build(n, skew);
        Arc::new(TableInner::build(n, skew).0)
    })
}

/// Builds every table of `params` the process does not have yet, on
/// all available host CPUs, and returns once each is built.
///
/// Pairs with `n == 0` or a domain above the table-size guard are
/// skipped (no sampler builds a table for them), as are repeats. The
/// calling thread and up to `min(available_parallelism, pairs) - 1`
/// scoped helper threads take the remaining pairs, largest `n` first,
/// and every helper is joined before this returns. A helper that
/// cannot be started is not an error: the threads that did start
/// finish the list, and with one available CPU none is started. A
/// pair another thread is already building is waited for, not built
/// twice.
pub fn build_tables(params: &[(u64, f64)]) {
    let mut pairs: Vec<(u64, f64)> = params
        .iter()
        .copied()
        .filter(|&(n, _)| n > 0 && n <= MAX_TABLE_N)
        .collect();
    pairs.sort_by_key(|&(n, skew)| (Reverse(n), skew.to_bits()));
    pairs.dedup_by_key(|&mut (n, skew)| (n, skew.to_bits()));
    let todo: Vec<(u64, f64, TableCell)> = pairs
        .into_iter()
        .map(|(n, skew)| (n, skew, cell(n, skew)))
        .filter(|(_, _, cell)| cell.get().is_none())
        .collect();
    if todo.is_empty() {
        return;
    }
    // The index only hands out list positions; the tables themselves
    // are published through their `OnceLock` cells.
    let next = AtomicUsize::new(0);
    let work = || {
        while let Some((n, skew, cell)) = todo.get(next.fetch_add(1, Ordering::Relaxed)) {
            built(cell, *n, *skew);
        }
    };
    let helpers = thread::available_parallelism()
        .map_or(1, NonZeroUsize::get)
        .min(todo.len())
        .saturating_sub(1);
    thread::scope(|s| {
        for _ in 0..helpers {
            let spawned = thread::Builder::new()
                .name("mmm-tables".to_string())
                .spawn_scoped(s, work);
            if spawned.is_err() {
                break;
            }
        }
        work();
    });
}

/// A precomputed power-law sampler, bit-equal to
/// [`DetRng::power_law_prepared`] for the same `(n, skew)` wherever
/// that path is monotone (see the module docs).
///
/// Cheap to clone (the payload is `Arc`-shared through a global cache,
/// so repeated construction for the same parameters reuses one table).
#[derive(Clone)]
pub struct PowerLawTable {
    inner: Arc<TableInner>,
}

impl PowerLawTable {
    /// Fetches (or builds) the shared table for `(n, skew)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `skew <= 0`, or `n` exceeds the table-size
    /// guard ([`PowerLawSampler::new`] falls back to the reference
    /// path instead of panicking).
    pub fn shared(n: u64, skew: f64) -> Self {
        assert!(n > 0, "power_law over empty domain");
        assert!(
            n <= MAX_TABLE_N,
            "domain too large for a threshold table ({n} > {MAX_TABLE_N})"
        );
        Self {
            inner: Arc::clone(built(&cell(n, skew), n, skew)),
        }
    }

    /// Domain size.
    #[inline]
    pub fn n(&self) -> u64 {
        self.inner.n
    }

    /// Skew the table was built for.
    #[inline]
    pub fn skew(&self) -> f64 {
        self.inner.skew
    }

    /// Maps a 53-bit raw draw (`next_u64() >> 11`, the exact value
    /// behind `DetRng::unit`) to its power-law index.
    #[inline]
    pub fn lookup(&self, r: u64) -> u64 {
        self.inner.lookup(r)
    }

    /// Draws an index in `[0, n)` from `rng`, consuming exactly one
    /// `next_u64` — the same keystream consumption as the reference
    /// path, so surrounding draws stay aligned.
    #[inline]
    pub fn sample(&self, rng: &mut DetRng) -> u64 {
        self.inner.lookup(rng.next_u64() >> 11)
    }
}

impl std::fmt::Debug for PowerLawTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PowerLawTable")
            .field("n", &self.inner.n)
            .field("skew", &self.inner.skew)
            .finish_non_exhaustive()
    }
}

/// The sampler a workload stream actually holds: the table whenever
/// the domain is table-sized, the reference `powf` path above that.
/// The two arms agree wherever [`power_law_eval`] is monotone (see the
/// module docs).
#[derive(Clone, Debug)]
pub enum PowerLawSampler {
    /// Table-driven hot path.
    Table(PowerLawTable),
    /// Per-draw `powf` path: the only one for domains above the
    /// table-size guard.
    Reference(PowerLaw),
}

impl PowerLawSampler {
    /// Builds the sampler for `(n, skew)`: table-driven unless the
    /// domain exceeds the table-size guard.
    pub fn new(n: u64, skew: f64) -> Self {
        if n <= MAX_TABLE_N {
            Self::Table(PowerLawTable::shared(n, skew))
        } else {
            Self::Reference(PowerLaw::new(n, skew))
        }
    }

    /// Builds the reference-path sampler unconditionally (for tests
    /// and benchmarks that compare the two arms).
    pub fn reference(n: u64, skew: f64) -> Self {
        Self::Reference(PowerLaw::new(n, skew))
    }

    /// Domain size.
    #[inline]
    pub fn n(&self) -> u64 {
        match self {
            Self::Table(t) => t.n(),
            Self::Reference(p) => p.n,
        }
    }

    /// Draws an index in `[0, n)` from `rng`; one `next_u64` either way.
    #[inline]
    pub fn sample(&self, rng: &mut DetRng) -> u64 {
        match self {
            Self::Table(t) => t.sample(rng),
            Self::Reference(p) => p.sample(rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    /// Builds made through the cache, per `(n, skew bits)`.
    static BUILDS: Mutex<BTreeMap<(u64, u64), u32>> = Mutex::new(BTreeMap::new());

    pub(super) fn count_build(n: u64, skew: f64) {
        *BUILDS
            .lock()
            .unwrap()
            .entry((n, skew.to_bits()))
            .or_default() += 1;
    }

    fn builds(n: u64, skew: f64) -> u32 {
        BUILDS
            .lock()
            .unwrap()
            .get(&(n, skew.to_bits()))
            .copied()
            .unwrap_or(0)
    }

    /// A grid of domain sizes and skews, with the degenerate, Zipf and
    /// skew < 1 corners.
    const DOMAINS: [u64; 4] = [1, 2, 128, 48_000];
    const SKEWS: [f64; 7] = [0.5, 1.0, 1.05, 1.3, 1.5, 1.9, 2.2];

    /// Every distinct `(n, skew)` pair the built-in profiles build.
    /// mmm-workload's `stream` tests check this list against the
    /// profiles themselves.
    const PROFILE_PAIRS: [(u64, f64); 34] = [
        (128, 1.3),
        (128, 1.35),
        (128, 1.5),
        (256, 1.05),
        (256, 1.3),
        (256, 1.5),
        (512, 1.05),
        (512, 1.3),
        (512, 1.5),
        (1024, 2.2),
        (3072, 2.2),
        (4096, 1.9),
        (6144, 1.8),
        (7000, 1.5),
        (8000, 1.05),
        (8000, 1.3),
        (8000, 1.35),
        (8000, 1.5),
        (12000, 1.35),
        (12500, 1.35),
        (13000, 1.35),
        (16000, 1.05),
        (16000, 1.3),
        (24000, 1.05),
        (24000, 1.3),
        (24000, 1.5),
        (30000, 1.5),
        (48000, 1.05),
        (48000, 1.3),
        (48000, 1.35),
        (64000, 1.05),
        (64000, 1.35),
        (80000, 1.05),
        (80000, 1.35),
    ];

    fn eval_r(n: u64, skew: f64, r: u64) -> u64 {
        let (a, inv) = PowerLaw::constants(n, skew);
        power_law_eval(n, a, inv, r as f64 * UNIT_SCALE)
    }

    impl TableInner {
        /// The search `build` replaced: brackets ±64 raw draws around
        /// the estimate, widens the bracket by doubling steps from 128,
        /// bisects, then nudges down. About 12 probes per index.
        fn build_bracketed(n: u64, skew: f64) -> (Self, u64) {
            let (a, inv) = PowerLaw::constants(n, skew);
            let mut probes = 0u64;
            let mut eval = |r: u64| {
                probes += 1;
                power_law_eval(n, a, inv, r as f64 * UNIT_SCALE)
            };
            let mut thresholds = Vec::with_capacity(n as usize);
            thresholds.push(0u64);
            let mut prev = 0u64;
            for k in 1..n {
                if prev > MAX_R {
                    thresholds.push(prev);
                    continue;
                }
                let r_est = estimate(a, inv, k, prev);
                let mut lo = r_est.saturating_sub(64).max(prev);
                let mut hi = r_est.saturating_add(64).min(MAX_R);
                let mut step = 128u64;
                while lo > prev && eval(lo) >= k {
                    lo = lo.saturating_sub(step).max(prev);
                    step = step.saturating_mul(2);
                }
                step = 128;
                while hi < MAX_R && eval(hi) < k {
                    hi = hi.saturating_add(step).min(MAX_R);
                    step = step.saturating_mul(2);
                }
                if eval(hi) < k {
                    prev = MAX_R + 1;
                    thresholds.push(prev);
                    continue;
                }
                let mut r = if eval(lo) >= k {
                    lo
                } else {
                    let (mut l, mut h) = (lo, hi);
                    while l + 1 < h {
                        let m = l + (h - l) / 2;
                        if eval(m) >= k {
                            h = m;
                        } else {
                            l = m;
                        }
                    }
                    h
                };
                while r > prev && eval(r - 1) >= k {
                    r -= 1;
                }
                prev = r.max(prev);
                thresholds.push(prev);
            }
            (Self::from_thresholds(n, skew, thresholds), probes)
        }
    }

    fn grid_and_profile_pairs() -> impl Iterator<Item = (u64, f64)> {
        DOMAINS
            .into_iter()
            .flat_map(|n| SKEWS.map(|skew| (n, skew)))
            .chain(PROFILE_PAIRS)
    }

    #[test]
    fn galloping_build_matches_the_bracketed_search() {
        for (n, skew) in grid_and_profile_pairs() {
            let (table, _) = TableInner::build(n, skew);
            let (old, _) = TableInner::build_bracketed(n, skew);
            assert!(
                table.thresholds == old.thresholds,
                "thresholds differ for n={n} skew={skew}"
            );
            assert!(
                table.buckets == old.buckets,
                "buckets differ for n={n} skew={skew}"
            );
        }
    }

    #[test]
    fn build_probes_about_two_and_a_half_draws_per_index() {
        let (mut probes, mut indices) = (0u64, 0u64);
        for (n, skew) in PROFILE_PAIRS {
            let (_, p) = TableInner::build(n, skew);
            let per_index = p as f64 / n as f64;
            assert!(
                per_index <= 4.0,
                "{per_index:.2} probes per index for n={n} skew={skew}"
            );
            probes += p;
            indices += n;
        }
        let mean = probes as f64 / indices as f64;
        assert!(mean <= 3.0, "{mean:.2} probes per index over the profiles");
    }

    #[test]
    fn table_differs_from_eval_where_eval_is_not_monotone() {
        // At skew < 1 `powf` rounding makes eval non-monotone at a few
        // raw draws, where the monotone table cannot follow it.
        let r = 7_516_553_633_913_224;
        assert_eq!(eval_r(128, 0.5, r), 92);
        assert_eq!(PowerLawTable::shared(128, 0.5).lookup(r), 91);
    }

    #[test]
    fn table_matches_reference_on_random_streams() {
        for &n in &DOMAINS {
            for &skew in &SKEWS {
                let table = PowerLawTable::shared(n, skew);
                let reference = PowerLaw::new(n, skew);
                let mut ra = DetRng::new(0xC0FFEE, n ^ skew.to_bits());
                let mut rb = ra.clone();
                for i in 0..4_000 {
                    let t = table.sample(&mut ra);
                    let r = reference.sample(&mut rb);
                    assert_eq!(t, r, "draw {i} diverged for n={n} skew={skew}");
                }
            }
        }
    }

    #[test]
    fn table_matches_reference_at_every_threshold_boundary() {
        // The only places the two paths could disagree are the raw
        // draws adjacent to each threshold; scan all of them.
        for &(n, skew) in &[(128u64, 1.3f64), (128, 1.0), (1_000, 0.5), (48_000, 2.2)] {
            let table = PowerLawTable::shared(n, skew);
            for k in 0..n {
                let thr = table.inner.thresholds[k as usize];
                if thr > MAX_R {
                    continue;
                }
                for r in [thr.saturating_sub(1), thr, (thr + 1).min(MAX_R)] {
                    assert_eq!(
                        table.lookup(r),
                        eval_r(n, skew, r),
                        "boundary r={r} (k={k}) diverged for n={n} skew={skew}"
                    );
                }
            }
        }
    }

    #[test]
    fn thresholds_are_monotone_and_anchored() {
        for &(n, skew) in &[(48_000u64, 1.9f64), (1_000, 1.0)] {
            let table = PowerLawTable::shared(n, skew);
            let thr = &table.inner.thresholds;
            assert_eq!(thr.len() as u64, n);
            assert_eq!(thr[0], 0);
            assert!(thr.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn shared_tables_are_deduplicated() {
        let a = PowerLawTable::shared(4_096, 1.35);
        let b = PowerLawTable::shared(4_096, 1.35);
        assert!(Arc::ptr_eq(&a.inner, &b.inner));
        let c = PowerLawTable::shared(4_096, 1.36);
        assert!(!Arc::ptr_eq(&a.inner, &c.inner));
    }

    #[test]
    fn racing_requests_share_one_build() {
        // A pair no other test asks for, so every thread finds it
        // missing and all but one must wait for the first build.
        let (n, skew) = (20_000, 1.77);
        let barrier = Barrier::new(4);
        let tables: Vec<PowerLawTable> = thread::scope(|s| {
            let racers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        PowerLawTable::shared(n, skew)
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert!(tables
            .iter()
            .all(|t| Arc::ptr_eq(&t.inner, &tables[0].inner)));
        assert_eq!(builds(n, skew), 1);
    }

    #[test]
    fn build_tables_builds_each_profile_table_once() {
        // Out-of-range domains and repeats are skipped, not built.
        let mut params = PROFILE_PAIRS.to_vec();
        params.extend([(0, 1.3), (MAX_TABLE_N + 1, 1.3), PROFILE_PAIRS[0]]);
        build_tables(&params);
        for (n, skew) in PROFILE_PAIRS {
            let table = cell(n, skew).get().cloned().expect("built by build_tables");
            let (serial, _) = TableInner::build(n, skew);
            assert!(
                table.thresholds == serial.thresholds && table.buckets == serial.buckets,
                "n={n} skew={skew} differs from a serial build"
            );
            assert_eq!(builds(n, skew), 1, "n={n} skew={skew}");
        }
        assert_eq!(builds(0, 1.3) + builds(MAX_TABLE_N + 1, 1.3), 0);
        build_tables(&params);
        for (n, skew) in PROFILE_PAIRS {
            assert_eq!(builds(n, skew), 1, "n={n} skew={skew} built again");
        }
    }

    #[test]
    fn sampler_arms_agree() {
        let hot = PowerLawSampler::new(3_000, 1.8);
        let reference = PowerLawSampler::reference(3_000, 1.8);
        assert_eq!(hot.n(), 3_000);
        let mut ra = DetRng::new(7, 9);
        let mut rb = ra.clone();
        for _ in 0..2_000 {
            assert_eq!(hot.sample(&mut ra), reference.sample(&mut rb));
        }
    }

    #[test]
    fn degenerate_domain_always_zero() {
        let table = PowerLawTable::shared(1, 1.0);
        let mut rng = DetRng::new(11, 0);
        for _ in 0..64 {
            assert_eq!(table.sample(&mut rng), 0);
        }
    }
}
