//! Order statistics and the metric record every workload reports into.

use f2_core::json::{Json, ToJson};

/// How many samples must lie beyond the tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Sorted copy of `xs` (NaN-free by construction: every sample is a
/// measured duration or a ratio of finite values).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median of `xs`: the middle sample, or the mean of the two middle ones.
///
/// # Panics
///
/// Panics on an empty slice — every caller measures at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0 < p <= 100) of `xs`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let s = sorted(xs);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The tail of a latency sample: the highest nearest-rank percentile that
/// still has [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, `100 * (n - 10) / n`.
    pub pct: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
}

/// The tail percentile of `xs`, or `None` with too few samples to have
/// [`TAIL_BEYOND`] of them beyond any percentile.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let rank = n - TAIL_BEYOND;
    Some(Tail {
        pct: 100.0 * rank as f64 / n as f64,
        value: sorted(xs)[rank - 1],
        samples: n,
    })
}

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Maps a layer identifier (an experiment or span name) onto the metric
/// charset: every character outside `[A-Za-z0-9_.-]` becomes `-`.
pub fn slug(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '_' | '.') {
                c
            } else {
                '-'
            }
        })
        .collect()
}

/// Named metrics in emission order, each with its unit.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Records one metric.
    ///
    /// # Panics
    ///
    /// Panics on an invalid or repeated name, or a non-finite value — a
    /// bug in the benchmark, not a measurement.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(valid_name(name), "invalid metric name `{name}`");
        assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
        assert!(
            self.0.iter().all(|(n, _, _)| n != name),
            "metric `{name}` reported twice"
        );
        self.0.push((name.to_string(), value, unit));
    }

    /// Each metric's name and unit, in emission order.
    pub fn layout(&self) -> impl Iterator<Item = (&str, &str)> {
        self.0.iter().map(|(n, _, u)| (n.as_str(), *u))
    }

    /// The `metrics` member of the result line.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|(name, value, unit)| {
                    (
                        name.clone(),
                        Json::Obj(vec![
                            ("value".to_string(), value.to_json()),
                            ("unit".to_string(), unit.to_json()),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        // Shuffled order: the statistics must not rely on sorted input.
        let mut xs: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        xs.reverse();
        xs.swap(0, n / 2);
        xs
    }

    #[test]
    fn tail_has_exactly_ten_samples_beyond_it() {
        for n in [11, 12, 57, 100, 101, 1000, 4321] {
            let xs = one_to(n);
            let t = tail(&xs).expect("enough samples");
            let beyond = xs.iter().filter(|&&x| x > t.value).count();
            assert_eq!(beyond, TAIL_BEYOND, "n = {n}");
            assert_eq!(t.samples, n);
            // The nearest-rank percentile at `pct` is the tail value, and
            // any higher percentile has fewer than ten samples beyond it.
            assert_eq!(percentile(&xs, t.pct), t.value);
            let above = percentile(&xs, t.pct + 1e-9);
            assert!(xs.iter().filter(|&&x| x > above).count() < TAIL_BEYOND);
        }
    }

    #[test]
    fn tail_matches_familiar_percentiles() {
        let t = tail(&one_to(100)).expect("enough samples");
        assert_eq!((t.pct, t.value), (90.0, 90.0));
        let t = tail(&one_to(1000)).expect("enough samples");
        assert_eq!((t.pct, t.value), (99.0, 990.0));
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        assert_eq!(tail(&one_to(10)), None);
        assert_eq!(tail(&[]), None);
        assert!(tail(&one_to(11)).is_some());
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(percentile(&one_to(100), 50.0), 50.0);
        assert_eq!(percentile(&one_to(100), 99.0), 99.0);
        assert_eq!(percentile(&one_to(100), 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 1.0), 7.0);
    }

    #[test]
    fn metric_names_use_the_charset() {
        for ok in [
            "op_ms.p50",
            "exp.hls-spdataflow.ms",
            "count.scf.bb.hits",
            "9lives",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".leading",
            "-leading",
            "has space",
            "exp.hls/spdataflow.ms",
            "span.dna:roundtrip",
            "ünïcode",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    fn slug_maps_layer_names_into_the_charset() {
        assert_eq!(slug("hls/spdataflow"), "hls-spdataflow");
        assert_eq!(slug("dna:software_kernels"), "dna-software_kernels");
        assert!(valid_name(&format!("exp.{}.ms", slug("hls/spdataflow"))));
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn metrics_reject_names_outside_the_charset() {
        Metrics::default().put("exp.hls/spdataflow.ms", 1.0, "ms");
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn metrics_reject_repeated_names() {
        let mut m = Metrics::default();
        m.put("a", 1.0, "ms");
        m.put("a", 2.0, "ms");
    }

    #[test]
    fn metrics_encode_value_and_unit() {
        let mut m = Metrics::default();
        m.put("setup_s", 0.8127, "s");
        assert_eq!(
            m.to_json().encode(),
            r#"{"setup_s":{"value":0.8127,"unit":"s"}}"#
        );
        assert_eq!(m.layout().collect::<Vec<_>>(), [("setup_s", "s")]);
    }
}
