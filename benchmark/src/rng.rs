//! The benchmark's own generator of inputs: the same seed gives the same
//! key stream, op mix and processor order on every run and every host.

/// SplitMix64.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// A generator for stream `stream` of `seed`: trials and passes each
    /// get their own, so adding a trial does not shift the others' inputs.
    pub fn for_stream(seed: u64, stream: u64) -> Rng {
        let mut mixer = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        Rng(mixer.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (n > 0); the modulo bias is below 2^-40 for any
    /// n this benchmark uses.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf(s) over ranks `0..n`: rank `r` has weight `1 / (r + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        let draw = |seed| {
            let mut rng = Rng::for_stream(seed, 3);
            let zipf = Zipf::new(64, 1.1);
            (0..100).map(|_| zipf.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn zipf_prefers_low_ranks_and_stays_in_range() {
        let mut rng = Rng::new(1);
        let zipf = Zipf::new(64, 1.1);
        let mut hits = [0u32; 64];
        for _ in 0..20_000 {
            hits[zipf.sample(&mut rng)] += 1;
        }
        assert!(hits[0] > hits[1] && hits[1] > hits[8] && hits[8] > hits[63]);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut items: Vec<usize> = (0..100).collect();
        Rng::new(5).shuffle(&mut items);
        assert_ne!(items, (0..100).collect::<Vec<_>>());
        items.sort_unstable();
        assert_eq!(items, (0..100).collect::<Vec<_>>());
    }
}
