//! Small measurement helpers: percentiles, process memory, the seeded
//! operation stream and the named-metric list every workload fills.

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The tail latency reported as "p99", and the percentile it really is.
/// That is the nearest-rank p99 when at least ten samples lie beyond it
/// (n ≥ 1000). Otherwise it is the highest rank with ten samples beyond
/// it: a rarer tail would be one or two samples deep and read as noise.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    assert!(!samples.is_empty(), "tail of no samples");
    let n = samples.len();
    let rank = (n * 99)
        .div_ceil(100)
        .min(n.saturating_sub(10))
        .max(n.div_ceil(2));
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    (s[rank - 1], 100.0 * rank as f64 / n as f64)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// SplitMix64: the seeded stream that picks queries and update
/// operations, so a seed fixes the whole operation sequence.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Named metrics with units, in report order.
#[derive(Default)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        debug_assert!(self.get(name).is_none(), "metric {name} set twice");
        self.0.push((name, value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// The metrics as a JSON object of `{"value", "unit"}` records.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
pub fn num(v: f64) -> String {
    assert!(v.is_finite(), "metric value must be finite, got {v}");
    format!("{v:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=150).map(f64::from).collect();
        // 150 samples: rank 140, so samples 141..=150 lie beyond it.
        assert_eq!(tail(&samples), (140.0, 100.0 * 140.0 / 150.0));
        let samples: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&samples), (1980.0, 99.0));
        assert_eq!(
            tail(&[3.0, 1.0, 2.0]).0,
            2.0,
            "tiny runs fall back to the median"
        );
    }
}
