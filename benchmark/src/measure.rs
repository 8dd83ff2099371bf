//! Small numeric helpers: percentiles, the answer digest, the seeded
//! generator for ad-hoc literals, and the process's peak memory.

/// Nearest-rank percentile of an ascending slice (`p` in `(0, 1]`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unordered samples (mean of the middle two when even).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// FNV-1a over `bytes`, continuing from `state` so digests chain.
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The FNV-1a offset basis: the digest of no bytes.
pub const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// A response without its echoed request id: everything after
/// `{"id":<n>,`. TCP responses carry the client's running id and the
/// in-process path renders `null`; the rest must agree byte for byte.
pub fn body_of(response: &str) -> &str {
    response.split_once(',').map_or(response, |(_, rest)| rest)
}

/// The answer part of a response body: everything before `,"stats":`.
/// The builder-API oracle may reach the same relation through another
/// plan, whose buffer counts legitimately differ.
pub fn answer_of(body: &str) -> &str {
    body.split_once(",\"stats\":").map_or(body, |(a, _)| a)
}

/// SplitMix64: the ad-hoc literals must depend on `--seed` alone.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }
}

/// `VmHWM` of this process in MiB (0 where `/proc` is missing).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 5.0);
        assert_eq!(percentile(&s, 0.9), 9.0);
        assert_eq!(percentile(&s, 1.0), 10.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn digest_ignores_the_request_id_only() {
        let tcp = r#"{"id":17,"ok":true,"rows":[[1]],"row_count":1,"stats":{"buffers":2}}"#;
        let local = r#"{"id":null,"ok":true,"rows":[[1]],"row_count":1,"stats":{"buffers":3}}"#;
        assert_ne!(
            fnv1a(FNV_SEED, body_of(tcp).as_bytes()),
            fnv1a(FNV_SEED, body_of(local).as_bytes())
        );
        assert_eq!(answer_of(body_of(tcp)), answer_of(body_of(local)));
        assert_eq!(fnv1a(FNV_SEED, b""), FNV_SEED);
        // Chaining equals hashing the concatenation.
        assert_eq!(fnv1a(fnv1a(FNV_SEED, b"ab"), b"c"), fnv1a(FNV_SEED, b"abc"));
    }

    #[test]
    fn literals_repeat_for_a_seed() {
        let draw = |seed| {
            let mut r = SplitMix64(seed);
            (0..8).map(|_| r.range(-15, 15)).collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
        assert!(draw(3).iter().all(|v| (-15..=15).contains(v)));
    }
}
