//! Cross-crate property-based tests (proptest) of the invariants the
//! paper's analysis relies on.

use proptest::prelude::*;
use rds_core::{RobustL0Sampler, SamplerConfig, SlidingWindowSampler};
use rds_datasets::partition;
use rds_geometry::{adjacent_cells, adjacent_cells_bfs, Grid, Point};
use rds_hashing::{level_sampled, CellHasher};
use rds_stream::{Stamp, StreamItem, Window};
use std::collections::BTreeSet;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Algorithms 6/7 (pruned DFS) agree with the flood-fill oracle for
    /// every grid, point and alpha with side >= alpha.
    #[test]
    fn adjacency_dfs_equals_oracle(
        dim in 1usize..5,
        side in 0.2f64..3.0,
        alpha_frac in 0.05f64..1.0,
        seed in 0u64..1000,
        coords in prop::collection::vec(-20.0..20.0f64, 4),
    ) {
        let alpha = side * alpha_frac;
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let grid = Grid::random(dim, side, &mut rng);
        let p = Point::new(coords[..dim].to_vec());
        let dfs: BTreeSet<Vec<i64>> = adjacent_cells(&grid, &p, alpha)
            .into_iter().map(|c| c.to_vec()).collect();
        let oracle: BTreeSet<Vec<i64>> = adjacent_cells_bfs(&grid, &p, alpha)
            .into_iter().map(|c| c.to_vec()).collect();
        prop_assert_eq!(dfs, oracle);
    }

    /// Fact 1(b): the sampled cell sets are nested across rates.
    #[test]
    fn sampled_sets_nest(seed in 0u64..500, x in -1000i64..1000, y in -1000i64..1000) {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let hasher = CellHasher::new(8, &mut rng);
        let h = hasher.hash_cell(&[x, y]);
        for level in 1..20u32 {
            if level_sampled(h, level) {
                prop_assert!(level_sampled(h, level - 1));
            }
        }
    }

    /// Lemma 3.3: on arbitrary 1-D point sets, greedy partitions never
    /// use more groups than the optimum, and the optimum is at most a
    /// constant factor larger.
    #[test]
    fn greedy_partition_vs_optimal(
        xs in prop::collection::vec(-10.0..10.0f64, 1..9),
        alpha in 0.1f64..3.0,
    ) {
        let pts: Vec<Point> = xs.iter().map(|&x| Point::new(vec![x])).collect();
        let gdy = partition::partition_size(&partition::greedy_partition(&pts, alpha));
        let opt = partition::min_partition_size_brute(&pts, alpha);
        prop_assert!(gdy <= opt, "greedy {} > optimal {}", gdy, opt);
        // in 1-D a greedy ball (diameter 2*alpha) intersects at most 3
        // optimal groups
        prop_assert!(opt <= 3 * gdy, "optimal {} >> greedy {}", opt, gdy);
    }

    /// Algorithm 1 on arbitrary well-separated streams: the accept set
    /// never exceeds its threshold (after processing), holds pairwise-far
    /// representatives, and is non-empty as long as no rate doubling has
    /// occurred (Lemma 2.5's guarantee is only probabilistic once R > 1,
    /// and with this deliberately tiny threshold the 2^-threshold tail is
    /// reachable — proptest found it).
    #[test]
    fn infinite_sampler_invariants(
        seed in 0u64..300,
        group_ids in prop::collection::vec(0u8..12, 1..120),
    ) {
        let alpha = 0.5;
        let cfg = SamplerConfig::builder(2, alpha)
            .seed(seed)
            .expected_len(group_ids.len() as u64)
            .kappa0(1.0).build().unwrap();
        let mut s = RobustL0Sampler::try_new(cfg).unwrap();
        for (i, &g) in group_ids.iter().enumerate() {
            // groups on a coarse lattice; members jitter within alpha/2
            let jitter = (i % 5) as f64 * 0.05;
            let p = Point::new(vec![g as f64 * 10.0 + jitter, 0.0]);
            s.process(&p);
            if s.level() == 0 {
                // R = 1: every first point is accepted deterministically
                prop_assert!(!s.accept_set().is_empty());
            }
        }
        prop_assert!(s.accept_set().len() <= s.threshold());
        let acc = s.accept_set();
        let rej = s.reject_set();
        let reps: Vec<&Point> = acc.iter().chain(rej.iter()).map(|r| &r.rep).collect();
        for i in 0..reps.len() {
            for j in (i + 1)..reps.len() {
                prop_assert!(!reps[i].within(reps[j], alpha));
            }
        }
        // any returned sample must be a stored representative
        if let Some(q) = s.query().cloned() {
            prop_assert!(s.accept_set().iter().any(|r| r.rep == q));
        } else {
            // empty accept set is only reachable through resampling
            prop_assert!(s.rate_doublings() > 0);
        }
    }

    /// The window sampler on arbitrary streams: a non-empty window always yields
    /// a sample and the sample is always a live point (Lemma 2.10 +
    /// Theorem 2.7 support).
    #[test]
    fn sliding_sampler_invariants(
        seed in 0u64..200,
        group_ids in prop::collection::vec(0u8..10, 1..100),
        w in 1u64..40,
    ) {
        let alpha = 0.5;
        let cfg = SamplerConfig::builder(1, alpha)
            .seed(seed)
            .expected_len(group_ids.len() as u64)
            .kappa0(0.75).build().unwrap();
        let mut s = SlidingWindowSampler::try_new(cfg, Window::Sequence(w)).unwrap();
        let pts: Vec<Point> = group_ids
            .iter()
            .enumerate()
            .map(|(i, &g)| Point::new(vec![g as f64 * 10.0 + (i % 4) as f64 * 0.1]))
            .collect();
        for (i, p) in pts.iter().enumerate() {
            s.process(&StreamItem::new(p.clone(), Stamp::at(i as u64)));
            let q = s.query();
            prop_assert!(q.is_some(), "no sample at step {}", i);
            let q = q.expect("checked");
            // the latest point must be live: it appears among the last w
            // stream points
            let lo = (i + 1).saturating_sub(w as usize);
            prop_assert!(
                pts[lo..=i].contains(&q.latest),
                "expired sample at step {}", i
            );
        }
    }

    /// The greedy partition never assigns two points within alpha of a
    /// common center to different groups when one is the center.
    #[test]
    fn greedy_partition_is_a_valid_cover(
        xs in prop::collection::vec(-10.0..10.0f64, 1..20),
        alpha in 0.1f64..2.0,
    ) {
        let pts: Vec<Point> = xs.iter().map(|&x| Point::new(vec![x])).collect();
        let labels = partition::greedy_partition(&pts, alpha);
        // every group has diameter at most 2*alpha (a ball of radius alpha)
        let n_groups = partition::partition_size(&labels);
        for g in 0..n_groups {
            let members: Vec<&Point> = pts
                .iter()
                .zip(labels.iter())
                .filter(|(_, &l)| l == g)
                .map(|(p, _)| p)
                .collect();
            for a in &members {
                for b in &members {
                    prop_assert!(a.distance(b) <= 2.0 * alpha + 1e-9);
                }
            }
        }
    }
}
