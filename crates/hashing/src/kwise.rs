//! k-wise independent hashing via polynomials over `GF(2^61 - 1)`.
//!
//! The paper's analysis assumes fully random hash functions and notes
//! (Section 1, "Preliminaries") that `Θ(log m)`-wise independent hash
//! functions suffice by Chernoff–Hoeffding bounds for limited independence
//! [Schmidt–Siegel–Srinivasan]. A degree-`(k-1)` polynomial with uniformly
//! random coefficients evaluated over a prime field is the textbook k-wise
//! independent family; we use the Mersenne prime `2^61 - 1` so that
//! reduction is two shifts and an add.

use rand::{Rng, RngExt};

/// The Mersenne prime `2^61 - 1` used as the hash field modulus.
pub const M61: u64 = (1u64 << 61) - 1;

/// Keys one [`KWiseHash::hash_lanes`] sweep evaluates side by side.
pub const LANES: usize = 8;

/// Reduces a 122-bit product modulo `2^61 - 1`.
#[inline]
fn reduce128(x: u128) -> u64 {
    // x = hi * 2^61 + lo  =>  x ≡ hi + lo (mod 2^61 - 1)
    let lo = (x as u64) & M61;
    let hi = (x >> 61) as u64;
    let mut s = lo + hi;
    if s >= M61 {
        s -= M61;
    }
    s
}

/// Multiplies two field elements modulo `2^61 - 1`.
#[inline]
fn mul_mod(a: u64, b: u64) -> u64 {
    reduce128(a as u128 * b as u128)
}

/// Adds two field elements modulo `2^61 - 1`.
#[inline]
fn add_mod(a: u64, b: u64) -> u64 {
    let mut s = a + b; // both < 2^61, no overflow in u64
    if s >= M61 {
        s -= M61;
    }
    s
}

/// A k-wise independent hash function `u64 -> [0, 2^61 - 1)`.
///
/// Evaluates a random polynomial of degree `k - 1` by Horner's rule:
/// `h(x) = c_{k-1} x^{k-1} + ... + c_1 x + c_0 (mod 2^61 - 1)`.
///
/// # Examples
///
/// ```
/// use rds_hashing::KWiseHash;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let h = KWiseHash::new(8, &mut rng);
/// assert_eq!(h.hash(12345), h.hash(12345)); // deterministic
/// ```
#[derive(Clone, Debug)]
pub struct KWiseHash {
    coeffs: Box<[u64]>,
}

impl KWiseHash {
    /// Samples a hash function from the k-wise independent family.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new<R: Rng + ?Sized>(k: usize, rng: &mut R) -> Self {
        assert!(k >= 1, "independence parameter must be at least 1");
        let coeffs = (0..k).map(|_| rng.random_range(0..M61)).collect();
        Self { coeffs }
    }

    /// The independence parameter `k`.
    pub fn independence(&self) -> usize {
        self.coeffs.len()
    }

    /// Suggested independence for a stream of length `m`:
    /// `max(8, 2 * ceil(log2 m))`, the `Θ(log m)` the paper requires.
    pub fn suggested_independence(stream_len: u64) -> usize {
        let log = 64 - stream_len.max(2).leading_zeros() as usize;
        (2 * log).max(8)
    }

    /// Evaluates the hash at `x`; the result is uniform in `[0, 2^61 - 1)`
    /// over the choice of the function.
    #[inline]
    pub fn hash(&self, x: u64) -> u64 {
        let x = x % M61;
        let mut acc = 0u64;
        for &c in self.coeffs.iter().rev() {
            acc = add_mod(mul_mod(acc, x), c);
        }
        acc
    }

    /// Evaluates the hash at up to [`LANES`] keys side by side, one
    /// coefficient at a time across all lanes: `out[i] == self.hash(keys[i])`
    /// bit for bit for `i < keys.len()`; lanes past `keys.len()` hold 0.
    ///
    /// The lanes' Horner chains are independent, so their `Θ(log m)`
    /// 64×64→128 multiplies overlap instead of serializing. Each step
    /// also reduces lazily: the accumulator stays congruent to the exact
    /// value but only below `2^61 + 3` (one fold per step instead of two
    /// conditional subtractions), and is brought into `[0, 2^61 - 1)`
    /// once at the end — the same field element [`KWiseHash::hash`]
    /// returns.
    ///
    /// # Panics
    ///
    /// Panics if `keys.len() > LANES`.
    #[inline]
    pub fn hash_lanes(&self, keys: &[u64]) -> [u64; LANES] {
        let n = keys.len();
        assert!(n <= LANES, "at most {LANES} keys per sweep, got {n}");
        let mut x = [0u64; LANES];
        let mut acc = [0u64; LANES];
        for (lane, &k) in x.iter_mut().zip(keys) {
            *lane = k % M61;
        }
        for &c in self.coeffs.iter().rev() {
            for (a, &xi) in acc[..n].iter_mut().zip(&x[..n]) {
                // a < 2^61 + 3 and xi < 2^61 keep the product below 2^123,
                // so lo + hi + c < 2^61 + 2^62 + 2^61 = 2^63 and the fold
                // lands below 2^61 + 3 again.
                let prod = u128::from(*a) * u128::from(xi);
                let s = (prod as u64 & M61) + (prod >> 61) as u64 + c;
                *a = (s & M61) + (s >> 61);
            }
        }
        for a in &mut acc[..n] {
            if *a >= M61 {
                *a -= M61;
            }
        }
        acc
    }

    /// Evaluates the hash over a whole slice of keys, [`LANES`] keys per
    /// coefficient-major sweep ([`KWiseHash::hash_lanes`]), appending the
    /// results to `out` (cleared first): `out[i] == self.hash(keys[i])`
    /// bit for bit; only the loop order changes.
    pub fn hash_slice(&self, keys: &[u64], out: &mut Vec<u64>) {
        out.clear();
        out.reserve(keys.len());
        for chunk in keys.chunks(LANES) {
            out.extend_from_slice(&self.hash_lanes(chunk)[..chunk.len()]);
        }
    }

    /// Number of machine words used by the function description (`k`
    /// coefficients); part of the `pSpace` accounting.
    pub fn words(&self) -> usize {
        self.coeffs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn reduce_handles_extremes() {
        assert_eq!(reduce128(0), 0);
        assert_eq!(reduce128(M61 as u128), 0);
        assert_eq!(reduce128((M61 as u128) + 5), 5);
        // (2^61 - 2)^2 reduced must be < M61 and match naive computation
        let a = M61 - 1;
        let naive = ((a as u128 * a as u128) % M61 as u128) as u64;
        assert_eq!(mul_mod(a, a), naive);
    }

    #[test]
    fn mul_matches_naive_on_random_pairs() {
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..1000 {
            let a = rng.random_range(0..M61);
            let b = rng.random_range(0..M61);
            let naive = ((a as u128 * b as u128) % M61 as u128) as u64;
            assert_eq!(mul_mod(a, b), naive);
        }
    }

    #[test]
    fn degree_one_is_affine() {
        let mut rng = StdRng::seed_from_u64(5);
        let h = KWiseHash::new(2, &mut rng);
        // h(x) = c1*x + c0: check additivity of differences
        let d1 = (h.hash(11) + M61 - h.hash(10)) % M61;
        let d2 = (h.hash(21) + M61 - h.hash(20)) % M61;
        assert_eq!(d1, d2);
    }

    #[test]
    fn outputs_are_in_field_range() {
        let mut rng = StdRng::seed_from_u64(23);
        let h = KWiseHash::new(16, &mut rng);
        for x in 0..5000u64 {
            assert!(h.hash(x.wrapping_mul(0x9E3779B97F4A7C15)) < M61);
        }
    }

    #[test]
    fn empirical_uniformity_of_low_bits() {
        // The sampling procedure of the paper uses h(x) mod R; verify the
        // low bits look uniform across inputs for a fixed random function.
        let mut rng = StdRng::seed_from_u64(31);
        let h = KWiseHash::new(16, &mut rng);
        let n = 1u64 << 14;
        let mut count = 0u64;
        for x in 0..n {
            if h.hash(x) & 0b111 == 0 {
                count += 1;
            }
        }
        let expect = n / 8;
        let slack = 4 * ((expect as f64).sqrt() as u64);
        assert!(
            count.abs_diff(expect) < slack,
            "count={count}, expect={expect}"
        );
    }

    #[test]
    fn pairwise_independence_statistics() {
        // For many random functions of independence >= 2, the pair
        // (h(0) mod 2, h(1) mod 2) should be roughly uniform on 4 outcomes.
        let mut rng = StdRng::seed_from_u64(41);
        let mut cells = [0u64; 4];
        let trials = 8000;
        for _ in 0..trials {
            let h = KWiseHash::new(2, &mut rng);
            let a = (h.hash(0) & 1) as usize;
            let b = (h.hash(1) & 1) as usize;
            cells[2 * a + b] += 1;
        }
        for (i, &c) in cells.iter().enumerate() {
            let expect = trials / 4;
            assert!(
                c.abs_diff(expect) < 200,
                "outcome {i}: {c} vs expected {expect}"
            );
        }
    }

    #[test]
    fn hash_slice_is_bit_identical_to_per_key_hash() {
        let mut rng = StdRng::seed_from_u64(53);
        for k in [1usize, 2, 8, 24, 42] {
            let h = KWiseHash::new(k, &mut rng);
            // lengths straddling the lane width, including empty
            for len in [0usize, 1, 7, 8, 9, 16, 100] {
                let keys: Vec<u64> = (0..len as u64)
                    .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15) ^ rng.random_range(0..u64::MAX))
                    .collect();
                let mut out = Vec::new();
                h.hash_slice(&keys, &mut out);
                let per_key: Vec<u64> = keys.iter().map(|&x| h.hash(x)).collect();
                assert_eq!(out, per_key, "k={k} len={len}");
            }
        }
    }

    #[test]
    fn lanes_bring_a_lazily_reduced_accumulator_into_the_field() {
        // h(x) = (M61 - 5) x + 5: at x ≡ 1 the last fold lands exactly on
        // M61, which only the final reduction maps to 0; the top
        // coefficients keep every lane near the accumulator bound.
        let h = KWiseHash {
            coeffs: vec![5, M61 - 5].into_boxed_slice(),
        };
        let keys = [1, M61 + 1, M61 - 1, 2, u64::MAX];
        let lanes = h.hash_lanes(&keys);
        assert_eq!(lanes[0], 0);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(lanes[i], h.hash(k), "key {k}");
        }
        let top = KWiseHash {
            coeffs: vec![M61 - 1; 42].into_boxed_slice(),
        };
        let lanes = top.hash_lanes(&keys);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(lanes[i], top.hash(k), "key {k}");
        }
    }

    #[test]
    fn hash_slice_clears_stale_output() {
        let mut rng = StdRng::seed_from_u64(59);
        let h = KWiseHash::new(8, &mut rng);
        let mut out = vec![1, 2, 3];
        h.hash_slice(&[10, 20], &mut out);
        assert_eq!(out, vec![h.hash(10), h.hash(20)]);
    }

    #[test]
    fn suggested_independence_grows_with_stream() {
        assert!(
            KWiseHash::suggested_independence(1 << 30) > KWiseHash::suggested_independence(1 << 10)
        );
        assert!(KWiseHash::suggested_independence(2) >= 8);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_independence_panics() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = KWiseHash::new(0, &mut rng);
    }
}
