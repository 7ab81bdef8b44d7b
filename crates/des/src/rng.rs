//! Deterministic random number streams.
//!
//! Every stochastic component (workload generator, ECN marking, ECMP seeds,
//! …) owns its own [`DetRng`] derived from `(master_seed, stream_id)`, so
//! adding a new consumer of randomness never perturbs the draws seen by
//! existing ones — runs stay reproducible as the codebase grows.

/// SplitMix64 — the standard seed-expansion / integer-mixing function.
///
/// Used both to derive per-stream seeds and as a cheap stateless hash for
/// ECMP five-tuple hashing.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic per-component RNG stream: xoshiro256++ (tiny state,
/// excellent statistical quality, very fast), seeded through
/// [`splitmix64`].
#[derive(Clone, Debug)]
pub struct DetRng {
    s: [u64; 4],
}

impl DetRng {
    /// Derive stream `stream` from `master_seed`. Different `(seed, stream)`
    /// pairs yield statistically independent sequences.
    pub fn new(master_seed: u64, stream: u64) -> Self {
        let mut z = splitmix64(master_seed ^ splitmix64(stream.wrapping_add(0xA5A5_5A5A)));
        let mut s = [0u64; 4];
        for word in &mut s {
            // `splitmix64` adds the golden-ratio increment before mixing,
            // so stepping `z` by it walks the generator's own sequence.
            *word = splitmix64(z);
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        }
        // All-zero state is the one forbidden fixpoint.
        if s == [0; 4] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        DetRng { s }
    }

    /// Uniform in `[0, 1)`: 53 uniform mantissa bits.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        // Lemire-style widening multiply; bias is < 2^-64 per draw and
        // irrelevant for simulation workloads.
        ((self.u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform usize in `[0, n)`. Panics if `n == 0`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// Exponentially distributed sample with the given mean (inter-arrival
    /// times of a Poisson process).
    #[inline]
    pub fn exp(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        // Inverse-CDF; (1 - u) keeps the argument of ln strictly positive.
        -mean * (1.0 - self.f64()).ln()
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Raw 64 random bits.
    #[inline]
    pub fn u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.s;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s = [s0, s1, s2, s3];
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        self.s = s;
        result
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.index(i + 1);
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_is_deterministic() {
        let mut a = DetRng::new(42, 7);
        let mut b = DetRng::new(42, 7);
        for _ in 0..100 {
            assert_eq!(a.u64(), b.u64());
        }
    }

    #[test]
    fn different_streams_differ() {
        let mut a = DetRng::new(42, 0);
        let mut b = DetRng::new(42, 1);
        let same = (0..64).filter(|_| a.u64() == b.u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = DetRng::new(1, 0);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut r = DetRng::new(2, 0);
        for _ in 0..10_000 {
            assert!(r.below(17) < 17);
        }
    }

    #[test]
    fn exp_has_roughly_right_mean() {
        let mut r = DetRng::new(3, 0);
        let n = 200_000;
        let mean = 5.0;
        let sum: f64 = (0..n).map(|_| r.exp(mean)).sum();
        let sample_mean = sum / n as f64;
        assert!(
            (sample_mean - mean).abs() < 0.1,
            "sample mean {sample_mean} too far from {mean}"
        );
    }

    #[test]
    fn chance_frequency_matches_p() {
        let mut r = DetRng::new(4, 0);
        let n = 100_000;
        let hits = (0..n).filter(|_| r.chance(0.25)).count();
        let freq = hits as f64 / n as f64;
        assert!((freq - 0.25).abs() < 0.01, "frequency {freq}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = DetRng::new(5, 0);
        let mut xs: Vec<u32> = (0..100).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            xs,
            (0..100).collect::<Vec<_>>(),
            "astronomically unlikely identity"
        );
    }

    #[test]
    fn splitmix_is_stable() {
        // Known-answer test pins the hash across refactors (ECMP path choice
        // and every seeded experiment depend on it).
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(1), 0x910A_2DEC_8902_5CC1);
    }

    /// The first 16 draws of each method for two `(seed, stream)` pairs,
    /// taken in this order from one generator. Every golden in the
    /// workspace depends on these streams, so the generator underneath
    /// `DetRng` may only be replaced by one that reproduces them.
    #[test]
    fn streams_are_stable() {
        type Kat = ([u64; 16], [u64; 16], [u64; 16], [usize; 16], [u64; 16]);
        #[rustfmt::skip]
        let cases: [((u64, u64), Kat); 2] = [
            ((1, 0), (
                [0x2ae11474f8f7a48c, 0x05b15e12548f0b33, 0xbc5f9827fe8c9bb1, 0x22923ce1caa90a3d,
                 0xd140f732a62654e2, 0xeb2cafcff433c57c, 0x89d2bdd7f5f8b1a7, 0xd8e42324e992d993,
                 0xf679a6235fc15813, 0xe70ef5d8e1daaffc, 0x4fdf933870c7bea0, 0x1c5f391f663d49ab,
                 0xb7144e7841f5e554, 0x938f917598e42dab, 0x6de506d9ae856178, 0xb8856df993c6d83a],
                [0x3fc1d87e5afc8e4c, 0x3fd7fb9b5d7cffca, 0x3fd102860fa626f2, 0x3fee392609bed1ab,
                 0x3f9bad57c2e6fce0, 0x3fefe8cb8fd5bdad, 0x3fe5232dd9867738, 0x3fd483239f62e788,
                 0x3fe695dd7348410a, 0x3fedb14733d55397, 0x3fd1c0a5cc46de38, 0x3febb325a3a79924,
                 0x3fe5f29e20aa72f3, 0x3fe25bbd62a236ce, 0x3fa7809b1c4be7a0, 0x3fdd3a01f7a784fa],
                [11, 3, 13, 6, 7, 3, 8, 12, 8, 8, 13, 1, 16, 13, 4, 10],
                [751, 411, 425, 348, 251, 419, 940, 793, 614, 130, 123, 357, 553, 860, 53, 816],
                [0x3ff7fde74a7ac1c1, 0x3fc724c252cfb176, 0x3fd8955d57e499ea, 0x3ffcfadaeb3c35dd,
                 0x3ff65090b8918a9a, 0x400aa91cba5a3793, 0x4011c07cbf371bc1, 0x403e19f722ee69b9,
                 0x402774f2adb346bf, 0x400cdcc2188eb936, 0x3fd81964194433ba, 0x3feb4c5529e7ea9a,
                 0x3fd73440ea557ba6, 0x401e0fe4257224b3, 0x40064050397a1412, 0x40110e417b8bace2],
            )),
            ((42, 7), (
                [0x421c29fdd16dd7ea, 0xf7091e1d22865478, 0x2d929c0dee9c3a9e, 0x1054e2c33342e02b,
                 0xc2d3fb3288344475, 0x83dc86cf08175dde, 0x47339d0494a91539, 0xf282e5a46f315c36,
                 0xe2a5464e539d52de, 0x666eeed8a017cae2, 0x1ca617b8466f1123, 0x58ec729719ba7284,
                 0x18c1c5424aa491d3, 0xfecd185112a7aac5, 0x5ef479757b8b256c, 0x70fd6cafcae18559],
                [0x3fe1ca16652948c5, 0x3fe0751d0f5ab170, 0x3feb8508e09831d3, 0x3fed41f794c921bd,
                 0x3fd95227b219675e, 0x3fd392a188713b8c, 0x3fdcfea91a4f8ffc, 0x3fc2fad795e38c74,
                 0x3fda7d450fd9eb26, 0x3fe915515e8b5c0d, 0x3fefcbca06a61135, 0x3faaf486641569b0,
                 0x3f737c9d35671280, 0x3fdadfd9a864e0b8, 0x3fc36d354bbf4694, 0x3fe13542d20a50df],
                [7, 15, 1, 2, 11, 13, 13, 12, 3, 7, 7, 8, 9, 9, 2, 5],
                [870, 386, 24, 239, 804, 934, 168, 140, 723, 40, 512, 925, 103, 683, 631, 123],
                [0x3fc9441f5d6f6aca, 0x402206bbee106110, 0x4014383bb7cb8856, 0x401aade20d611a0e,
                 0x4036fcd3bfb66d1b, 0x402a76e41abde2d0, 0x40224d663fc328ec, 0x3fbccd9fb5a1d470,
                 0x4028c39f2a5e6c44, 0x401dcff595bca7e5, 0x402cff5573f460c2, 0x3ff445fbf9229ed0,
                 0x4004765c520c2526, 0x40073cdbb8d91cc6, 0x3ff91572357d72b7, 0x400a2b42cbcffcbc],
            )),
        ];
        for ((seed, stream), (u64s, f64s, below, index, exp)) in cases {
            let mut r = DetRng::new(seed, stream);
            assert_eq!(u64s.map(|_| r.u64()), u64s, "u64 ({seed}, {stream})");
            assert_eq!(
                f64s.map(|_| r.f64().to_bits()),
                f64s,
                "f64 ({seed}, {stream})"
            );
            assert_eq!(
                below.map(|_| r.below(17)),
                below,
                "below ({seed}, {stream})"
            );
            assert_eq!(
                index.map(|_| r.index(1000)),
                index,
                "index ({seed}, {stream})"
            );
            assert_eq!(
                exp.map(|_| r.exp(5.0).to_bits()),
                exp,
                "exp ({seed}, {stream})"
            );
        }
    }
}
