//! Small helpers: a seedable RNG, order statistics, result hashing and the
//! process's peak resident set.

use std::hash::{Hash, Hasher};

use kspin::core::ServingResult;

/// SplitMix64: a tiny deterministic generator, so the benchmark's inputs
/// depend on `--seed` alone and not on any RNG crate's stream format.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Derives an independent sub-seed for one input of a workload.
pub fn sub_seed(seed: u64, salt: u64) -> u64 {
    Rng::new(seed ^ salt.wrapping_mul(0x2545_f491_4f6c_dd1d)).next_u64()
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Nearest-rank quantile `q ∈ [0, 1]` of `xs` (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// A fingerprint of one query's answer: object ids, distances and the
/// exact bit patterns of top-k scores, so equal hashes mean bit-identical
/// results.
pub fn result_hash(r: &ServingResult) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    match r {
        ServingResult::Distances(v) => {
            0u8.hash(&mut h);
            v.hash(&mut h);
        }
        ServingResult::Scores(v) => {
            1u8.hash(&mut h);
            for (o, s) in v {
                (o, s.to_bits()).hash(&mut h);
            }
        }
    }
    h.finish()
}

/// Number of entries in a result.
pub fn result_len(r: &ServingResult) -> usize {
    match r {
        ServingResult::Distances(v) => v.len(),
        ServingResult::Scores(v) => v.len(),
    }
}

/// `VmHWM` of this process in MiB (Linux; 0 when unavailable).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
