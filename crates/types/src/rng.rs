//! Deterministic random-number generation.
//!
//! Experiments must be bit-reproducible across runs and platforms, so
//! every stochastic component draws from a [`DetRng`] seeded from the
//! experiment seed plus a stable per-component stream id. The
//! generator is a self-contained ChaCha8 keystream (no external
//! crates — the build is offline): portable, counter-based, and fast
//! enough that RNG draws never show up in simulator profiles.

/// A deterministic, portable random-number generator.
///
/// A ChaCha8 keystream generator with the handful of draw shapes the
/// simulator needs (Bernoulli trials, bounded integers, geometric
/// interarrivals, and a truncated power-law for cache footprints).
/// Different `(seed, stream)` pairs yield independent sequences;
/// identical pairs yield identical sequences, on every platform.
#[derive(Clone, Debug)]
pub struct DetRng {
    seed: u64,
    stream: u64,
    key: [u32; 8],
    counter: u64,
    buf: [u32; 16],
    idx: usize,
}

/// SplitMix64 step, used only to expand the one-word seed into the
/// 256-bit ChaCha key.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
fn quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

/// One lane-wise ChaCha round over the four row vectors: the same
/// arithmetic as four quarter-rounds, phrased as whole-row operations
/// on `[u32; 4]` rows. The release build compiles it to scalar code;
/// it does not keep a row in a SIMD register.
#[inline(always)]
fn row_round(a: &mut [u32; 4], b: &mut [u32; 4], c: &mut [u32; 4], d: &mut [u32; 4]) {
    for i in 0..4 {
        a[i] = a[i].wrapping_add(b[i]);
        d[i] = (d[i] ^ a[i]).rotate_left(16);
    }
    for i in 0..4 {
        c[i] = c[i].wrapping_add(d[i]);
        b[i] = (b[i] ^ c[i]).rotate_left(12);
    }
    for i in 0..4 {
        a[i] = a[i].wrapping_add(b[i]);
        d[i] = (d[i] ^ a[i]).rotate_left(8);
    }
    for i in 0..4 {
        c[i] = c[i].wrapping_add(d[i]);
        b[i] = (b[i] ^ c[i]).rotate_left(7);
    }
}

/// Rotates the lanes of a row left by `N` positions (a register
/// shuffle), mapping the column layout onto the diagonals and back.
#[inline(always)]
fn rotl_lanes<const N: usize>(x: [u32; 4]) -> [u32; 4] {
    [x[N % 4], x[(N + 1) % 4], x[(N + 2) % 4], x[(N + 3) % 4]]
}

impl DetRng {
    /// Creates a generator from an experiment seed and a component
    /// stream id.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut sm = seed;
        let mut key = [0u32; 8];
        for pair in key.chunks_mut(2) {
            let w = splitmix64(&mut sm);
            pair[0] = w as u32;
            pair[1] = (w >> 32) as u32;
        }
        Self {
            seed,
            stream,
            key,
            counter: 0,
            buf: [0; 16],
            idx: 16,
        }
    }

    /// Runs the ChaCha8 block function for the current counter and
    /// refills the output buffer.
    fn refill(&mut self) {
        // "expand 32-byte k" || key || block counter || stream nonce,
        // as four row vectors.
        let a0: [u32; 4] = [0x6170_7865, 0x3320_646E, 0x7962_2D32, 0x6B20_6574];
        let b0: [u32; 4] = [self.key[0], self.key[1], self.key[2], self.key[3]];
        let c0: [u32; 4] = [self.key[4], self.key[5], self.key[6], self.key[7]];
        let d0: [u32; 4] = [
            self.counter as u32,
            (self.counter >> 32) as u32,
            self.stream as u32,
            (self.stream >> 32) as u32,
        ];
        let (mut a, mut b, mut c, mut d) = (a0, b0, c0, d0);
        for _ in 0..4 {
            // A double round: a column round on the rows as laid out,
            // then a lane rotation maps the diagonals onto the
            // columns for the diagonal round, and the inverse
            // rotation restores the layout.
            row_round(&mut a, &mut b, &mut c, &mut d);
            b = rotl_lanes::<1>(b);
            c = rotl_lanes::<2>(c);
            d = rotl_lanes::<3>(d);
            row_round(&mut a, &mut b, &mut c, &mut d);
            b = rotl_lanes::<3>(b);
            c = rotl_lanes::<2>(c);
            d = rotl_lanes::<1>(d);
        }
        for i in 0..4 {
            self.buf[i] = a[i].wrapping_add(a0[i]);
            self.buf[4 + i] = b[i].wrapping_add(b0[i]);
            self.buf[8 + i] = c[i].wrapping_add(c0[i]);
            self.buf[12 + i] = d[i].wrapping_add(d0[i]);
        }
        self.counter = self.counter.wrapping_add(1);
        self.idx = 0;
    }

    /// Raw 32-bit keystream word.
    #[inline]
    fn next_u32(&mut self) -> u32 {
        if self.idx == 16 {
            self.refill();
        }
        let w = self.buf[self.idx];
        self.idx += 1;
        w
    }

    /// Raw 64-bit draw (for hashing/fingerprint seeds).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        lo | (hi << 32)
    }

    /// A Bernoulli trial: `true` with probability `p` (clamped to `[0,1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.unit() < p
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        // Widening-multiply range reduction (Lemire). The modulo bias
        // is at most 2^-64 per draw — far below anything a simulator
        // statistic can resolve.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform integer in `[lo, hi)`.
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.below(hi - lo)
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Geometric interarrival: number of trials until an event with
    /// per-trial probability `p` fires, at least 1. Used for syscall,
    /// fault, and serializing-instruction interarrival times. Returns
    /// `u64::MAX` when `p` is non-positive.
    #[inline]
    pub fn geometric(&mut self, p: f64) -> u64 {
        if p <= 0.0 {
            return u64::MAX;
        }
        if p >= 1.0 {
            return 1;
        }
        let u = self.unit().max(f64::MIN_POSITIVE);
        let n = (u.ln() / (1.0 - p).ln()).ceil();
        (n as u64).max(1)
    }

    /// A truncated power-law draw over `[0, n)`: index 0 is hottest.
    ///
    /// `skew` ∈ (0, ∞): larger values concentrate mass on low indices.
    /// `skew = 1` is the exact (continuous) Zipf case, matching the
    /// heavy reuse of hot lines observed in commercial workloads.
    #[inline]
    pub fn power_law(&mut self, n: u64, skew: f64) -> u64 {
        let (a, inv) = PowerLaw::constants(n, skew);
        self.power_law_prepared(n, a, inv)
    }

    /// Power-law draw using precomputed constants from
    /// [`PowerLaw::constants`]: one inverse-CDF `powf` per draw.
    #[inline]
    pub fn power_law_prepared(&mut self, n: u64, a: f64, inv: f64) -> u64 {
        debug_assert!(n > 0, "power_law over empty domain");
        let u = self.unit();
        // Inverse-CDF of p(x) ~ (x+1)^(-skew) over a continuous domain,
        // cheap and adequate for footprint modelling.
        let x = if inv == 0.0 {
            a.powf(u) - 1.0
        } else {
            (a * u + (1.0 - u)).powf(inv) - 1.0
        };
        (x as u64).min(n - 1)
    }

    /// Derives a child generator for a sub-component. The child stream
    /// is a stable function of this generator's seed, stream, and
    /// `tag`, not of how many draws have been made.
    pub fn child(&self, tag: u64) -> DetRng {
        DetRng::new(
            self.seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            self.stream.wrapping_add(tag).wrapping_add(1),
        )
    }
}

/// Precomputed constants for [`DetRng::power_law_prepared`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PowerLaw {
    /// Domain size.
    pub n: u64,
    /// `(n + 1)^(1 - skew)`, or `n + 1` in the Zipf case (`skew == 1`).
    pub a: f64,
    /// `1 / (1 - skew)`, or `0.0` in the Zipf case, where the inverse
    /// CDF is `(n + 1)^u - 1`. `1 / (1 - skew)` is never zero, so the
    /// marker is unambiguous.
    pub inv: f64,
}

impl PowerLaw {
    /// Builds constants for a domain of `n` lines with the given skew.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `skew <= 0`.
    pub fn new(n: u64, skew: f64) -> Self {
        let (a, inv) = Self::constants(n, skew);
        Self { n, a, inv }
    }

    /// The raw `(a, inv)` pair. `skew == 1` (exact Zipf) yields the
    /// `(n + 1, 0.0)` marker encoding described on [`PowerLaw::inv`].
    pub fn constants(n: u64, skew: f64) -> (f64, f64) {
        assert!(n > 0, "power_law over empty domain");
        assert!(skew > 0.0, "skew must be positive");
        if (skew - 1.0).abs() <= 1e-9 {
            (n as f64 + 1.0, 0.0)
        } else {
            ((n as f64 + 1.0).powf(1.0 - skew), 1.0 / (1.0 - skew))
        }
    }

    /// Draws an index in `[0, n)` from `rng`.
    #[inline]
    pub fn sample(&self, rng: &mut DetRng) -> u64 {
        rng.power_law_prepared(self.n, self.a, self.inv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = DetRng::new(42, 7);
        let mut b = DetRng::new(42, 7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_streams_differ() {
        let mut a = DetRng::new(42, 0);
        let mut b = DetRng::new(42, 1);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams should be effectively independent");
    }

    #[test]
    fn chacha8_known_answer() {
        // ChaCha8 keystream with an all-zero key and nonce, first block:
        // reference values from the eSTREAM/RFC test-vector family.
        let mut r = DetRng {
            seed: 0,
            stream: 0,
            key: [0; 8],
            counter: 0,
            buf: [0; 16],
            idx: 16,
        };
        r.refill();
        let first: [u8; 16] = {
            let mut out = [0u8; 16];
            for (i, w) in r.buf[..4].iter().enumerate() {
                out[i * 4..i * 4 + 4].copy_from_slice(&w.to_le_bytes());
            }
            out
        };
        assert_eq!(
            first,
            [
                0x3e, 0x00, 0xef, 0x2f, 0x89, 0x5f, 0x40, 0xd6, 0x7f, 0x5b, 0xb8, 0xe8, 0x1f, 0x09,
                0xa5, 0xa1
            ]
        );
    }

    #[test]
    fn row_form_matches_quarter_round_reference() {
        // The vectorization-friendly row-round refill must reproduce
        // the textbook flat-state formulation bit-for-bit, across
        // keys, counters, and nonces.
        for trial in 0..64u64 {
            let mut r = DetRng::new(trial.wrapping_mul(0x9E37_79B9), trial ^ 0xABCD);
            r.counter = trial.wrapping_mul(0x0101_0101_0101);
            let mut s: [u32; 16] = [
                0x6170_7865,
                0x3320_646E,
                0x7962_2D32,
                0x6B20_6574,
                r.key[0],
                r.key[1],
                r.key[2],
                r.key[3],
                r.key[4],
                r.key[5],
                r.key[6],
                r.key[7],
                r.counter as u32,
                (r.counter >> 32) as u32,
                r.stream as u32,
                (r.stream >> 32) as u32,
            ];
            let init = s;
            for _ in 0..4 {
                quarter_round(&mut s, 0, 4, 8, 12);
                quarter_round(&mut s, 1, 5, 9, 13);
                quarter_round(&mut s, 2, 6, 10, 14);
                quarter_round(&mut s, 3, 7, 11, 15);
                quarter_round(&mut s, 0, 5, 10, 15);
                quarter_round(&mut s, 1, 6, 11, 12);
                quarter_round(&mut s, 2, 7, 8, 13);
                quarter_round(&mut s, 3, 4, 9, 14);
            }
            for (w, &i) in s.iter_mut().zip(init.iter()) {
                *w = w.wrapping_add(i);
            }
            r.refill();
            assert_eq!(r.buf, s, "block diverged at trial {trial}");
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::new(1, 0);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-0.5));
        assert!(r.chance(1.5));
    }

    #[test]
    fn chance_roughly_calibrated() {
        let mut r = DetRng::new(9, 0);
        let hits = (0..10_000).filter(|_| r.chance(0.25)).count();
        assert!((2000..3000).contains(&hits), "got {hits}");
    }

    #[test]
    fn geometric_mean_close_to_inverse_p() {
        let mut r = DetRng::new(3, 0);
        let n = 20_000;
        let sum: u64 = (0..n).map(|_| r.geometric(0.01)).sum();
        let mean = sum as f64 / n as f64;
        assert!(
            (80.0..120.0).contains(&mean),
            "geometric mean {mean} should be near 100"
        );
    }

    #[test]
    fn geometric_edge_cases() {
        let mut r = DetRng::new(3, 0);
        assert_eq!(r.geometric(0.0), u64::MAX);
        assert_eq!(r.geometric(1.0), 1);
        assert!(r.geometric(0.5) >= 1);
    }

    #[test]
    fn power_law_in_range_and_skewed() {
        let mut r = DetRng::new(5, 0);
        let n = 1000u64;
        let mut low = 0usize;
        for _ in 0..10_000 {
            let x = r.power_law(n, 1.2);
            assert!(x < n);
            if x < n / 10 {
                low += 1;
            }
        }
        // With skew 1.2, far more than 10% of mass sits in the lowest decile.
        assert!(low > 4_000, "low-decile hits: {low}");
    }

    #[test]
    fn power_law_skew_below_one_spreads_mass() {
        let mut r = DetRng::new(5, 1);
        let n = 1000u64;
        let mut low = 0usize;
        for _ in 0..10_000 {
            let x = r.power_law(n, 0.5);
            assert!(x < n);
            if x < n / 10 {
                low += 1;
            }
        }
        // Sub-linear skew still favors low indices, but far less than
        // skew > 1 does; sanity-bracket the low-decile share.
        assert!((1_000..9_000).contains(&low), "low-decile hits: {low}");
    }

    #[test]
    fn power_law_skew_one_is_exact_zipf() {
        // skew == 1 used to panic in PowerLaw::constants; now it takes
        // the exact continuous-Zipf branch: P(x = 0) = ln 2 / ln(n+1).
        let (a, inv) = PowerLaw::constants(999, 1.0);
        assert_eq!(a, 1000.0);
        assert_eq!(inv, 0.0);
        let mut r = DetRng::new(5, 2);
        let n = 999u64;
        let draws = 40_000usize;
        let zeros = (0..draws).filter(|_| r.power_law(n, 1.0) == 0).count();
        let expect = (2.0f64).ln() / ((n + 1) as f64).ln();
        let got = zeros as f64 / draws as f64;
        assert!(
            (got - expect).abs() < 0.01,
            "P(0) = {got}, Zipf predicts {expect}"
        );
    }

    #[test]
    fn power_law_skew_above_one_concentrates_mass() {
        let mut r = DetRng::new(5, 3);
        let n = 1000u64;
        let zeros = (0..10_000).filter(|_| r.power_law(n, 1.5) == 0).count();
        // skew 1.5 puts a large point mass on the hottest line.
        assert!(zeros > 1_000, "index-0 hits: {zeros}");
    }

    #[test]
    fn power_law_degenerate_domain() {
        let mut r = DetRng::new(7, 0);
        for skew in [0.5, 1.0, 1.5] {
            for _ in 0..100 {
                assert_eq!(r.power_law(1, skew), 0);
            }
        }
    }

    #[test]
    fn below_and_range_bounds() {
        let mut r = DetRng::new(8, 0);
        for _ in 0..1000 {
            assert!(r.below(7) < 7);
            let x = r.range(10, 20);
            assert!((10..20).contains(&x));
        }
    }

    #[test]
    fn unit_is_half_open() {
        let mut r = DetRng::new(13, 0);
        for _ in 0..10_000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn child_streams_are_stable_and_distinct() {
        let parent = DetRng::new(11, 2);
        let mut c1 = parent.child(1);
        let mut c1b = parent.child(1);
        let mut c2 = parent.child(2);
        assert_eq!(c1.next_u64(), c1b.next_u64());
        assert_ne!(c1.next_u64(), c2.next_u64());
    }
}
