//! Differential suite pinning the cell-indexed `CandidateStore` arrival
//! path against a literal re-implementation of the pre-store linear-scan
//! sampler (same seeds ⇒ identical outcomes, candidate sets, reservoirs,
//! f0, level, and PRNG positions), plus per-point vs batched equality
//! across the sampler families and adversarial rate-doubling schedules.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rds_core::{
    Checkpointable, DistinctSampler, ProcessOutcome, RobustF0Estimator,
    RobustL0Sampler, SamplerConfig, SamplerContext, SlidingWindowSampler, MAX_LEVEL,
};
use rds_geometry::Point;
use rds_stream::{Stamp, StreamItem, Window};

/// One candidate record of the reference model.
struct RefRecord {
    rep: Point,
    cell_hash: u64,
    count: u64,
    reservoir: Point,
}

/// The pre-store reference model: Algorithm 1 with linear-scan candidate
/// sets, transcribed from the original sampler. Built from the same
/// public context/PRNG pieces, so every decision and every PRNG draw
/// must match the production sampler bit for bit.
struct RefSampler {
    ctx: SamplerContext,
    level: u32,
    acc: Vec<RefRecord>,
    rej: Vec<RefRecord>,
    threshold: usize,
    seen: u64,
    scratch: Vec<i64>,
    rng: StdRng,
}

impl RefSampler {
    fn with_threshold(cfg: SamplerConfig, threshold: usize) -> Self {
        let rng = StdRng::seed_from_u64(cfg.seed ^ 0x5EED_CAFE);
        Self {
            ctx: SamplerContext::new(cfg),
            level: 0,
            acc: Vec::new(),
            rej: Vec::new(),
            threshold,
            seen: 0,
            scratch: Vec::new(),
            rng,
        }
    }

    fn new(cfg: SamplerConfig) -> Self {
        let threshold = cfg.threshold();
        Self::with_threshold(cfg, threshold)
    }

    fn process(&mut self, p: &Point) -> ProcessOutcome {
        self.seen += 1;
        let alpha = self.ctx.alpha();
        if let Some(rec) = self
            .acc
            .iter_mut()
            .chain(self.rej.iter_mut())
            .find(|r| r.rep.within(p, alpha))
        {
            rec.count += 1;
            if self.rng.random_range(0..rec.count) == 0 {
                rec.reservoir = p.clone();
            }
            return ProcessOutcome::Duplicate;
        }
        let h = self.ctx.cell_hash(p, &mut self.scratch);
        let outcome = if self.ctx.hash_sampled(h, self.level) {
            self.acc.push(RefRecord {
                rep: p.clone(),
                cell_hash: h,
                count: 1,
                reservoir: p.clone(),
            });
            ProcessOutcome::Accepted
        } else if self.ctx.any_adjacent_sampled(p, self.level) {
            self.rej.push(RefRecord {
                rep: p.clone(),
                cell_hash: h,
                count: 1,
                reservoir: p.clone(),
            });
            ProcessOutcome::Rejected
        } else {
            ProcessOutcome::Ignored
        };
        while self.acc.len() > self.threshold && self.level < MAX_LEVEL {
            self.double_rate();
        }
        outcome
    }

    fn double_rate(&mut self) {
        self.level += 1;
        let level = self.level;
        let mut kept = Vec::new();
        let mut demoted = Vec::new();
        for rec in self.acc.drain(..) {
            if rds_hashing::level_sampled(rec.cell_hash, level) {
                kept.push(rec);
            } else {
                demoted.push(rec);
            }
        }
        self.acc = kept;
        for rec in demoted {
            if self.ctx.any_adjacent_sampled(&rec.rep, level) {
                self.rej.push(rec);
            }
        }
        let ctx = &self.ctx;
        self.rej
            .retain(|rec| ctx.any_adjacent_sampled(&rec.rep, level));
    }

    /// The original query path: a uniform index draw over `Sacc`
    /// (`choose` = one `uniform_below(len)` word), nothing on empty.
    fn query(&mut self) -> Option<Point> {
        if self.acc.is_empty() {
            return None;
        }
        let i = self.rng.random_range(0..self.acc.len() as u64) as usize;
        Some(self.acc[i].rep.clone())
    }

    fn f0_estimate(&self) -> f64 {
        self.acc.len() as f64 * (1u64 << self.level) as f64
    }
}

/// A clustered stream: `n_entities` well-separated centers, points cycle
/// through the entities with per-point jitter below `alpha / 2`, so
/// near-duplicate structure is dense and deterministic in the seed.
fn entity_stream(seed: u64, n_points: usize, n_entities: usize, dim: usize) -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pts = Vec::with_capacity(n_points);
    for i in 0..n_points {
        let e = (i * 7 + 3) % n_entities.max(1);
        let coords = (0..dim)
            .map(|d| {
                let center = ((e * (d + 2) + e) % (10 * n_entities.max(1))) as f64 * 10.0;
                center + rng.random_range(0.0..0.4)
            })
            .collect();
        pts.push(Point::new(coords));
    }
    pts
}

/// Asserts the production sampler and the reference model agree on
/// everything observable after the same stream: per-point outcomes were
/// already compared by the caller; this checks the terminal state.
fn assert_states_agree(s: &RobustL0Sampler, r: &RefSampler) {
    assert_eq!(s.seen(), r.seen, "seen");
    assert_eq!(s.level(), r.level, "level");
    assert_eq!(s.f0_estimate(), r.f0_estimate(), "f0");
    let acc = s.accept_set();
    let rej = s.reject_set();
    assert_eq!(acc.len(), r.acc.len(), "|Sacc|");
    assert_eq!(rej.len(), r.rej.len(), "|Srej|");
    for (a, b) in acc.iter().zip(r.acc.iter()) {
        assert_eq!(a.rep, b.rep, "acc rep");
        assert_eq!(a.cell_hash, b.cell_hash, "acc cell_hash");
        assert_eq!(a.count, b.count, "acc count");
        assert_eq!(a.reservoir, b.reservoir, "acc reservoir");
    }
    for (a, b) in rej.iter().zip(r.rej.iter()) {
        assert_eq!(a.rep, b.rep, "rej rep");
        assert_eq!(a.cell_hash, b.cell_hash, "rej cell_hash");
        assert_eq!(a.count, b.count, "rej count");
        assert_eq!(a.reservoir, b.reservoir, "rej reservoir");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Same seeds ⇒ the cell-indexed store and the linear-scan reference
    /// take identical decisions on every arrival and hold identical
    /// candidate state afterwards, across dimensions, thresholds, and
    /// duplicate densities.
    #[test]
    fn store_matches_linear_reference(
        seed in 0u64..500,
        dim in 1usize..4,
        n_entities in 1usize..40,
        n_points in 1usize..300,
        kappa0_idx in 0usize..3,
    ) {
        let kappa0 = [0.5, 1.0, 4.0][kappa0_idx];
        let pts = entity_stream(seed, n_points, n_entities, dim);
        let cfg = SamplerConfig::builder(dim, 1.0)
            .seed(seed.wrapping_mul(0x9E37_79B9).wrapping_add(1))
            .expected_len(pts.len() as u64)
            .kappa0(kappa0)
            .build().unwrap();
        let mut prod = RobustL0Sampler::try_new(cfg.clone()).unwrap();
        let mut reference = RefSampler::new(cfg);
        for p in &pts {
            prop_assert_eq!(prod.process(p), reference.process(p));
        }
        assert_states_agree(&prod, &reference);
        // Query draws consume the same PRNG words in the same order.
        for _ in 0..5 {
            prop_assert_eq!(prod.query().cloned(), reference.query());
        }
    }

    /// The batched arrival path leaves the sampler in exactly the state
    /// per-point feeding produces — including the reference model's.
    #[test]
    fn batched_ingestion_matches_reference(
        seed in 0u64..300,
        n_entities in 1usize..25,
        chunk in 1usize..40,
    ) {
        let pts = entity_stream(seed, 200, n_entities, 2);
        let cfg = SamplerConfig::builder(2, 1.0)
            .seed(seed ^ 0xABCD)
            .expected_len(pts.len() as u64)
            .kappa0(1.0)
            .build().unwrap();
        let mut batched = RobustL0Sampler::try_new(cfg.clone()).unwrap();
        for c in pts.chunks(chunk) {
            batched.process_batch(c);
        }
        let mut reference = RefSampler::new(cfg);
        for p in &pts {
            reference.process(p);
        }
        assert_states_agree(&batched, &reference);
    }

    /// Checkpoint / restore in the middle of the stream rebuilds the cell
    /// index exactly: the restored sampler finishes the stream in
    /// lockstep with the reference.
    #[test]
    fn restored_store_matches_reference(
        seed in 0u64..200,
        n_entities in 1usize..20,
        cut in 1usize..150,
    ) {
        let pts = entity_stream(seed, 160, n_entities, 2);
        let cut = cut.min(pts.len());
        let cfg = SamplerConfig::builder(2, 1.0)
            .seed(seed ^ 0x51AB)
            .expected_len(pts.len() as u64)
            .kappa0(0.5)
            .build().unwrap();
        let mut prod = RobustL0Sampler::try_new(cfg.clone()).unwrap();
        let mut reference = RefSampler::new(cfg);
        for p in &pts[..cut] {
            prod.process(p);
            reference.process(p);
        }
        let wire = serde_json::to_string(&prod.checkpoint_state()).unwrap();
        let mut restored = RobustL0Sampler::try_from_state(
            serde_json::from_str(&wire).unwrap(),
        ).unwrap();
        for p in &pts[cut..] {
            prop_assert_eq!(restored.process(p), reference.process(p));
        }
        assert_states_agree(&restored, &reference);
        for _ in 0..3 {
            prop_assert_eq!(restored.query().cloned(), reference.query());
        }
    }
}

/// An adversarial doubling schedule: threshold 1 with many distinct
/// entities forces a rate doubling almost every arrival, exercising the
/// store's demote-compact-rebuild path far beyond organic streams.
#[test]
fn adversarial_doubling_schedule_matches_reference() {
    for seed in 0..8u64 {
        let pts = entity_stream(seed, 400, 120, 2);
        let cfg = SamplerConfig::builder(2, 1.0)
            .seed(seed.wrapping_mul(7919) ^ 0xD0B1)
            .expected_len(pts.len() as u64)
            .build()
            .unwrap();
        let mut prod = RobustL0Sampler::try_with_threshold(cfg.clone(), 1).unwrap();
        let mut reference = RefSampler::with_threshold(cfg, 1);
        for p in &pts {
            assert_eq!(prod.process(p), reference.process(p), "seed {seed}");
        }
        assert_states_agree(&prod, &reference);
        assert!(
            prod.rate_doublings() > 0,
            "schedule failed to force any doubling (seed {seed})"
        );
    }
}

/// Per-point vs batched processing through the `DistinctSampler` trait,
/// for every family that wraps the infinite-window sampler plus the
/// window families (whose batch path is the amortized default).
#[test]
fn all_families_batch_equals_per_point() {
    let pts = entity_stream(99, 300, 30, 3);
    let items: Vec<StreamItem> = pts
        .iter()
        .enumerate()
        .map(|(i, p)| StreamItem::new(p.clone(), Stamp::at(i as u64)))
        .collect();
    let cfg = SamplerConfig::builder(3, 1.0)
        .seed(0xFACE)
        .expected_len(pts.len() as u64)
        .kappa0(1.0)
        .build()
        .unwrap();
    let window = Window::Sequence(128);

    fn check<S: DistinctSampler>(mut a: S, mut b: S, items: &[StreamItem], what: &str) {
        for item in items {
            a.process(item);
        }
        for chunk in items.chunks(23) {
            b.process_batch(chunk);
        }
        assert_eq!(a.seen(), b.seen(), "{what}: seen");
        assert_eq!(a.f0_estimate(), b.f0_estimate(), "{what}: f0");
        assert_eq!(a.words(), b.words(), "{what}: words");
        assert_eq!(
            a.query_record().map(|r| r.rep),
            b.query_record().map(|r| r.rep),
            "{what}: query"
        );
    }

    check(
        RobustL0Sampler::try_new(cfg.clone()).unwrap(),
        RobustL0Sampler::try_new(cfg.clone()).unwrap(),
        &items,
        "RobustL0Sampler",
    );
    // RobustF0Estimator is not a DistinctSampler; its inherent batch API
    // runs over bare points. (KWithReplacementSampler has no batch path
    // at all — its copies are fed one point at a time.)
    {
        let mut a = RobustF0Estimator::try_new(cfg.clone(), 0.5, 3).unwrap();
        let mut b = RobustF0Estimator::try_new(cfg.clone(), 0.5, 3).unwrap();
        for p in &pts {
            a.process(p);
        }
        for chunk in pts.chunks(23) {
            b.process_batch(chunk);
        }
        assert_eq!(a.estimate(), b.estimate(), "RobustF0Estimator: estimate");
        assert_eq!(a.words(), b.words(), "RobustF0Estimator: words");
    }
    check(
        SlidingWindowSampler::try_new(cfg.clone(), window).unwrap(),
        SlidingWindowSampler::try_new(cfg.clone(), window).unwrap(),
        &items,
        "SlidingWindowSampler",
    );
}
