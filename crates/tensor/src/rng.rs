//! Deterministic random number utilities.
//!
//! Every stochastic component in the workspace (weight initialization,
//! mini-batch sampling, dataset simulation, augmentation) draws from a
//! [`SeedRng`], so a single `u64` seed makes an entire experiment
//! reproducible down to the last gradient step.
//!
//! The generator is implemented in-crate (splitmix64 seeding feeding a
//! xoshiro256++ core) so the workspace builds hermetically with no
//! external crates and the bit-stream is stable across toolchains.

/// splitmix64 step — used to expand a single `u64` seed into the
/// 256-bit xoshiro state and to whiten fork streams.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded random source with the distributions the workspace needs.
///
/// xoshiro256++ core (Blackman & Vigna) with splitmix64 seed expansion,
/// plus Gaussian sampling (Box–Muller with caching) and permutation
/// helpers.
pub struct SeedRng {
    state: [u64; 4],
    gauss_cache: Option<f32>,
}

/// A complete serializable snapshot of a [`SeedRng`].
///
/// Captures the xoshiro256++ state words *and* the pending Box–Muller
/// sample, so a generator restored via [`SeedRng::from_state`] continues
/// the exact bit-stream the original would have produced — the property
/// checkpoint/resume relies on for bitwise-reproducible training runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RngState {
    /// xoshiro256++ state words.
    pub words: [u64; 4],
    /// Cached second Box–Muller sample awaiting the next
    /// [`SeedRng::standard_normal`] call, if any.
    pub gauss_cache: Option<f32>,
}

impl std::fmt::Debug for SeedRng {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SeedRng").finish_non_exhaustive()
    }
}

impl SeedRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        SeedRng {
            state: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
            gauss_cache: None,
        }
    }

    /// Next raw 64-bit output (xoshiro256++ step).
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let result = self.state[0]
            .wrapping_add(self.state[3])
            .rotate_left(23)
            .wrapping_add(self.state[0]);
        let t = self.state[1] << 17;
        self.state[2] ^= self.state[0];
        self.state[3] ^= self.state[1];
        self.state[1] ^= self.state[2];
        self.state[0] ^= self.state[3];
        self.state[2] ^= t;
        self.state[3] = self.state[3].rotate_left(45);
        result
    }

    /// Next `f32` uniform in `[0, 1)` (top 24 bits of the stream).
    #[inline]
    fn next_f32(&mut self) -> f32 {
        const SCALE: f32 = 1.0 / (1u32 << 24) as f32;
        // The >> 40 leaves 24 bits, so the u32 cast cannot truncate.
        ((self.next_u64() >> 40) as u32) as f32 * SCALE
    }

    /// Unbiased integer in `[0, n)` via Lemire's multiply-shift method.
    #[inline]
    fn bounded_u64(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0, "bounded_u64: n must be positive");
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(n as u128);
            // `m as u64` keeps the low 64 bits of the product on purpose.
            #[allow(clippy::cast_possible_truncation)]
            let low = m as u64;
            if low >= n.wrapping_neg() % n {
                return (m >> 64) as u64;
            }
            // Rejected sample in the biased zone; draw again.
        }
    }

    /// Exports the full generator state for checkpointing.
    pub fn export_state(&self) -> RngState {
        RngState {
            words: self.state,
            gauss_cache: self.gauss_cache,
        }
    }

    /// Rebuilds a generator from an exported state; the restored generator
    /// produces the identical bit-stream the exporting generator would
    /// have continued with.
    pub fn from_state(state: &RngState) -> SeedRng {
        SeedRng {
            state: state.words,
            gauss_cache: state.gauss_cache,
        }
    }

    /// Derives an independent child generator; useful for giving each
    /// component (dataset, model init, batching) its own stream while
    /// keeping a single experiment-level seed.
    pub fn fork(&mut self, stream: u64) -> SeedRng {
        let base: u64 = self.next_u64();
        SeedRng::new(base ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Uniform sample in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.next_f32()
    }

    /// Uniform sample in `[0, 1)`.
    pub fn unit(&mut self) -> f32 {
        self.next_f32()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    // The draw is below `n`, a usize, so the cast back cannot truncate.
    #[allow(clippy::cast_possible_truncation)]
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "SeedRng::below: n must be positive");
        self.bounded_u64(n as u64) as usize
    }

    /// Standard normal sample via Box–Muller (second value cached).
    pub fn standard_normal(&mut self) -> f32 {
        if let Some(v) = self.gauss_cache.take() {
            return v;
        }
        // Reject u1 == 0 to keep ln finite.
        let mut u1 = self.next_f32();
        while u1 <= f32::MIN_POSITIVE {
            u1 = self.next_f32();
        }
        let u2 = self.next_f32();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        self.gauss_cache = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Gaussian sample `N(mean, std²)`.
    pub fn normal(&mut self, mean: f32, std: f32) -> f32 {
        mean + std * self.standard_normal()
    }

    /// Bernoulli draw with probability `p`.
    pub fn coin(&mut self, p: f32) -> bool {
        self.next_f32() < p
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            // The draw is at most `i`, a usize, so the cast back cannot truncate.
            #[allow(clippy::cast_possible_truncation)]
            let j = self.bounded_u64(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// Random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).collect();
        self.shuffle(&mut idx);
        idx
    }

    /// Samples `k` distinct indices from `0..n` (k ≤ n) in random order.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "sample_indices: k={k} > n={n}");
        let mut perm = self.permutation(n);
        perm.truncate(k);
        perm
    }

    /// Samples an index from a (not necessarily normalized) non-negative
    /// weight vector. Falls back to uniform if all weights are zero.
    pub fn weighted_index(&mut self, weights: &[f32]) -> usize {
        let total: f32 = weights.iter().sum();
        if total <= 0.0 {
            return self.below(weights.len());
        }
        let mut target = self.uniform(0.0, total);
        for (i, &w) in weights.iter().enumerate() {
            target -= w;
            if target <= 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }
}

#[cfg(test)]
// Test code: exact float comparisons and unwraps are the assertions
// themselves here.
#[allow(clippy::float_cmp, clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn determinism_same_seed() {
        let mut a = SeedRng::new(99);
        let mut b = SeedRng::new(99);
        for _ in 0..100 {
            assert_eq!(a.unit(), b.unit());
            assert_eq!(a.standard_normal(), b.standard_normal());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SeedRng::new(1);
        let mut b = SeedRng::new(2);
        let va: Vec<f32> = (0..8).map(|_| a.unit()).collect();
        let vb: Vec<f32> = (0..8).map(|_| b.unit()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut root = SeedRng::new(7);
        let mut c1 = root.fork(1);
        let mut c2 = root.fork(2);
        let v1: Vec<f32> = (0..8).map(|_| c1.unit()).collect();
        let v2: Vec<f32> = (0..8).map(|_| c2.unit()).collect();
        assert_ne!(v1, v2);
    }

    #[test]
    fn unit_stays_in_half_open_interval() {
        let mut rng = SeedRng::new(23);
        for _ in 0..10_000 {
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u), "unit sample {u} out of [0,1)");
        }
    }

    #[test]
    fn normal_moments() {
        let mut rng = SeedRng::new(5);
        let xs: Vec<f32> = (0..20000).map(|_| rng.normal(3.0, 0.5)).collect();
        let mean = xs.iter().sum::<f32>() / xs.len() as f32;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / xs.len() as f32;
        assert!((mean - 3.0).abs() < 0.02);
        assert!((var - 0.25).abs() < 0.02);
    }

    #[test]
    fn uniform_moments() {
        let mut rng = SeedRng::new(29);
        let n = 40_000;
        let mean = (0..n).map(|_| rng.uniform(-1.0, 3.0)).sum::<f32>() / n as f32;
        assert!((mean - 1.0).abs() < 0.03, "uniform mean {mean}");
    }

    #[test]
    fn bounded_draws_are_roughly_uniform() {
        let mut rng = SeedRng::new(31);
        let mut counts = [0usize; 5];
        let n = 50_000;
        for _ in 0..n {
            counts[rng.below(5)] += 1;
        }
        for &c in &counts {
            let frac = c as f32 / n as f32;
            assert!((frac - 0.2).abs() < 0.01, "bucket fraction {frac}");
        }
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut rng = SeedRng::new(11);
        let mut p = rng.permutation(50);
        p.sort_unstable();
        assert_eq!(p, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_distinct() {
        let mut rng = SeedRng::new(13);
        let s = rng.sample_indices(20, 10);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 10);
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = SeedRng::new(17);
        let weights = [0.0, 0.0, 1.0];
        for _ in 0..50 {
            assert_eq!(rng.weighted_index(&weights), 2);
        }
        // Rough frequency check.
        let weights = [1.0, 3.0];
        let mut hits = 0usize;
        let n = 20000;
        for _ in 0..n {
            if rng.weighted_index(&weights) == 1 {
                hits += 1;
            }
        }
        let frac = hits as f32 / n as f32;
        assert!((frac - 0.75).abs() < 0.02, "frac {frac}");
    }

    #[test]
    fn state_round_trip_is_bitwise() {
        let mut rng = SeedRng::new(42);
        // Burn a mixed stream, ending on an odd number of normals so the
        // Box–Muller cache is primed — the trickiest state to preserve.
        for _ in 0..17 {
            rng.unit();
            rng.below(9);
        }
        for _ in 0..5 {
            rng.standard_normal();
        }
        let state = rng.export_state();
        assert!(state.gauss_cache.is_some(), "cache should be primed");
        let mut restored = SeedRng::from_state(&state);
        for _ in 0..100 {
            assert_eq!(rng.standard_normal(), restored.standard_normal());
            assert_eq!(rng.unit(), restored.unit());
            assert_eq!(rng.below(31), restored.below(31));
        }
    }

    #[test]
    fn exported_state_is_a_snapshot_not_a_handle() {
        let mut rng = SeedRng::new(3);
        let state = rng.export_state();
        rng.unit(); // advancing the source must not change the snapshot
        assert_eq!(state, SeedRng::from_state(&state).export_state());
    }

    #[test]
    fn below_in_range() {
        let mut rng = SeedRng::new(19);
        for _ in 0..100 {
            assert!(rng.below(7) < 7);
        }
    }
}
