//! The lane kernel behind batch hashing and the `adj(p)` sampling test
//! against the serial Horner evaluation it replaces: every lane equals
//! `KWiseHash::hash` of its key, for every key count up to two full
//! sweeps plus a partial one, and `CellHasher::any_key_sampled` equals
//! testing the keys one by one at every level the samplers reach.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rds_hashing::{CellHasher, KWiseHash, LANES, M61};

/// Keys mixing uniform words with the values around the field modulus,
/// where the pre-reduction `k % M61` and the accumulator bound matter.
fn keys(rng: &mut StdRng, n: usize) -> Vec<u64> {
    const EDGES: [u64; 6] = [0, 1, M61 - 1, M61, M61 + 1, u64::MAX];
    (0..n)
        .map(|_| match rng.random_range(0..4u32) {
            0 => EDGES[rng.random_range(0..EDGES.len())],
            _ => rng.random_range(0..u64::MAX),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn lanes_equal_per_key_hash(seed in 0u64..1 << 40, k in 1usize..64, n in 0usize..18) {
        let mut rng = StdRng::seed_from_u64(seed);
        let h = KWiseHash::new(k, &mut rng);
        let ks = keys(&mut rng, n);
        let per_key: Vec<u64> = ks.iter().map(|&x| h.hash(x)).collect();
        let mut out = vec![7; 3];
        h.hash_slice(&ks, &mut out);
        prop_assert_eq!(&out, &per_key, "hash_slice k={} n={}", k, n);
        for (c, chunk) in ks.chunks(LANES).enumerate() {
            let lanes = h.hash_lanes(chunk);
            prop_assert_eq!(&lanes[..chunk.len()], &per_key[c * LANES..c * LANES + chunk.len()]);
            prop_assert!(lanes[chunk.len()..].iter().all(|&v| v == 0));
        }
    }

    #[test]
    fn any_key_sampled_equals_per_key_test(seed in 0u64..1 << 40, n in 0usize..18, level in 0u32..62) {
        let mut rng = StdRng::seed_from_u64(seed);
        let hasher = CellHasher::new(42, &mut rng);
        let ks = keys(&mut rng, n);
        let serial = ks.iter().any(|&k| hasher.key_sampled(k, level));
        prop_assert_eq!(hasher.any_key_sampled(&ks, level), serial, "n={} level={}", n, level);
    }

    #[test]
    fn the_last_key_of_a_partial_chunk_is_tested(seed in 0u64..1 << 40, n in 1usize..18) {
        let mut rng = StdRng::seed_from_u64(seed);
        let hasher = CellHasher::new(42, &mut rng);
        let ks = keys(&mut rng, n);
        let zeros = |k: u64| hasher.hash_key(k).trailing_zeros().min(61);
        // the level at which exactly the last key decides the answer
        let last = ks[n - 1];
        let top = ks[..n - 1].iter().map(|&k| zeros(k)).max();
        let level = zeros(last);
        if top.is_none_or(|t| t < level) {
            prop_assert!(hasher.any_key_sampled(&ks, level));
        }
        let above = ks.iter().map(|&k| zeros(k)).max().unwrap_or(0) + 1;
        if above < 62 {
            prop_assert!(!hasher.any_key_sampled(&ks, above));
        }
    }
}

#[test]
#[should_panic(expected = "at most 8 keys per sweep")]
fn a_sweep_takes_at_most_one_chunk() {
    let mut rng = StdRng::seed_from_u64(5);
    let h = KWiseHash::new(8, &mut rng);
    let _ = h.hash_lanes(&[0; LANES + 1]);
}
