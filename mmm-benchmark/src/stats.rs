//! Order statistics over repetitions, and the output digest.

use mmm_trace::Json;

/// FNV-1a 64 of `bytes`: the digest every repetition's output is
/// pinned and compared by.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Median of `values` (mean of the middle two for an even count);
/// `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so the spread this benchmark
/// prints is the one a reader recomputes from its raw values. A single
/// value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    let len = s.len();
    if len < 2 {
        let v = s.first().copied().unwrap_or(f64::NAN);
        return (v, v);
    }
    let m = len + 1;
    let at = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (at(1), at(3))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    s
}

/// Median, quartiles, range and count of one metric over the
/// repetitions of a run.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let (q1, q3) = quartiles(values);
        Summary {
            median: median(values),
            q1,
            q3,
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            n: values.len(),
        }
    }

    pub fn to_json(&self, unit: &str) -> Json {
        Json::obj([
            ("unit", Json::str(unit)),
            ("median", Json::F64(self.median)),
            ("q1", Json::F64(self.q1)),
            ("q3", Json::F64(self.q3)),
            ("min", Json::F64(self.min)),
            ("max", Json::F64(self.max)),
            ("n", Json::U64(self.n as u64)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python_on_known_vectors() {
        // Expected values from Python 3.11:
        //   statistics.median(v), statistics.quantiles(v, n=4)
        let cases: [(&[f64], f64, f64, f64); 5] = [
            (&[1.0, 2.0, 3.0, 4.0], 2.5, 1.25, 3.75),
            (&[1.0, 2.0, 3.0, 4.0, 5.0], 3.0, 1.5, 4.5),
            (&[5.0, 1.0, 4.0, 2.0, 3.0, 6.0], 3.5, 1.75, 5.25),
            // Two values: the exclusive method extrapolates.
            (&[10.0, 20.0], 15.0, 7.5, 22.5),
            (
                &[2.0, 9.0, 4.0, 7.0, 1.0, 8.0, 3.0, 6.0, 5.0, 10.0],
                5.5,
                2.75,
                8.25,
            ),
        ];
        for (values, med, q1, q3) in cases {
            assert_eq!(median(values), med, "median of {values:?}");
            assert_eq!(quartiles(values), (q1, q3), "quartiles of {values:?}");
        }
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn summary_records_range_and_count() {
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (2.0, 1.0, 3.0, 3));
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
