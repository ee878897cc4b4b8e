//! Seeded inputs: the benchmark's own generator (so the inputs do not
//! depend on which `rand` the repository links), self-describing record
//! bodies and a Zipf sampler.

use bytes::Bytes;

/// Record bodies are this long, as in the paper's Table 4.
pub const BODY_BYTES: usize = 512;

/// SplitMix64: one multiply-xorshift chain per draw, seedable from any
/// 64-bit value including 0.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The body of record `index` under `seed`: the index in the first eight
/// bytes, then bytes drawn from a generator keyed by both. A reader can
/// recover the index from any body and regenerate the rest, so every
/// record read back is checked verbatim without keeping a copy.
pub fn body(seed: u64, index: u64) -> Bytes {
    let mut out = Vec::with_capacity(BODY_BYTES);
    out.extend_from_slice(&index.to_le_bytes());
    let mut rng = Rng::new(seed ^ index.wrapping_mul(0xA076_1D64_78BD_642F));
    while out.len() < BODY_BYTES {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    Bytes::from(out)
}

/// The index a body claims, if the whole body is what [`body`] makes for
/// that index.
pub fn verify_body(seed: u64, got: &[u8]) -> Option<u64> {
    let index = u64::from_le_bytes(got.get(..8)?.try_into().ok()?);
    (body(seed, index).as_ref() == got).then_some(index)
}

/// Zipf(s) over `0..n` by inverting the cumulative weights; rank 0 is
/// the most popular.
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut total = 0.0;
        let cumulative = (1..=n)
            .map(|rank| {
                total += 1.0 / (rank as f64).powf(s);
                total
            })
            .collect();
        Zipf { cumulative }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let total = *self.cumulative.last().expect("Zipf over an empty range");
        let x = rng.unit() * total;
        self.cumulative
            .partition_point(|&c| c < x)
            .min(self.cumulative.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bodies_are_reproducible_and_self_describing() {
        let b = body(7, 123_456);
        assert_eq!(b.len(), BODY_BYTES);
        assert_eq!(b, body(7, 123_456));
        assert_ne!(b, body(8, 123_456));
        assert_eq!(verify_body(7, &b), Some(123_456));
        assert_eq!(verify_body(8, &b), None);
        let mut torn = b.to_vec();
        torn[300] ^= 1;
        assert_eq!(verify_body(7, &torn), None);
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(1000, 0.99);
        let mut rng = Rng::new(1);
        let draws: Vec<usize> = (0..20_000).map(|_| z.sample(&mut rng)).collect();
        assert!(draws.iter().all(|&d| d < 1000));
        let top10 = draws.iter().filter(|&&d| d < 10).count();
        assert!(top10 > 6_000, "top 10 of 1000 drew {top10} of 20000");
    }
}
