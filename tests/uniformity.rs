//! Statistical test of sample uniformity: over many independently seeded
//! runs on a known entity partition, the per-entity sampling frequency
//! must stay within the `rds-metrics` deviation bounds (`stdDevNm`,
//! `maxDevNm`) the paper's Section 6 evaluation uses. The same bound is
//! checked for Algorithm 1, the sliding-window sampler (Algorithm 3) and
//! the JL variant (Remark 2).

use rds_core::{JlRobustSampler, RobustL0Sampler, SamplerConfig, SlidingWindowSampler};
use rds_geometry::Point;
use rds_metrics::SampleHistogram;
use rds_stream::{Stamp, StreamItem, Window};

/// A fixed stream over `n_entities` known entities in `R^dim`: entity
/// `e` occupies points `e*10 ± jitter` along axis 0 (every other
/// coordinate is 0), so the ground-truth partition is
/// `entity_of(p) = round(p.x / 10)`.
fn known_partition_stream(n_points: u64, n_entities: u64, dim: usize) -> Vec<Point> {
    (0..n_points)
        .map(|i| {
            let e = i % n_entities;
            let mut coords = vec![0.0; dim];
            coords[0] = e as f64 * 10.0 + 0.02 * ((i / n_entities) % 10) as f64;
            Point::new(coords)
        })
        .collect()
}

fn entity_of(p: &Point) -> usize {
    (p.get(0) / 10.0).round() as usize
}

/// Runs `draw` on the 400-point, 20-entity stream lifted to `R^dim`
/// once per seed and checks the sampled entities' frequencies.
/// `draw` builds its sampler from the given configuration, feeds it the
/// stream and returns one sampled point.
fn assert_uniform_over_entities(
    dim: usize,
    mut draw: impl FnMut(SamplerConfig, &[Point]) -> Point,
) {
    let n_entities = 20u64;
    let points = known_partition_stream(400, n_entities, dim);
    let runs = 600u64;
    let mut hist = SampleHistogram::new(n_entities as usize);
    for run in 0..runs {
        let cfg = SamplerConfig::builder(dim, 0.5)
            .seed(run * 6151 + 3)
            .expected_len(points.len() as u64)
            .kappa0(1.0).build().unwrap(); // tight threshold: rate doublings do occur
        hist.record(entity_of(&draw(cfg, &points)));
    }
    assert_eq!(hist.runs(), runs);
    // With 600 runs over 20 entities, uniform sampling gives
    // stdDevNm ~ sqrt(F0/runs) ~ 0.18; 0.45 leaves ample slack while
    // still rejecting any systematically favoured entity.
    assert!(
        hist.std_dev_nm() < 0.45,
        "stdDevNm {} out of bound; counts {:?}",
        hist.std_dev_nm(),
        hist.counts()
    );
    assert!(
        hist.max_dev_nm() < 1.5,
        "maxDevNm {} out of bound; counts {:?}",
        hist.max_dev_nm(),
        hist.counts()
    );
    // every entity must actually be sampled at least once
    assert!(
        hist.counts().iter().all(|&c| c > 0),
        "an entity was never sampled: {:?}",
        hist.counts()
    );
}

#[test]
fn per_entity_deviation_stays_within_the_std_dev_nm_bound() {
    assert_uniform_over_entities(1, |cfg, points| {
        let mut s = RobustL0Sampler::try_new(cfg).unwrap();
        s.process_batch(points);
        s.query().expect("stream non-empty").clone()
    });
}

#[test]
fn sliding_window_samples_are_uniform_over_entities() {
    // the last 200 points still hold every one of the 20 entities
    assert_uniform_over_entities(1, |cfg, points| {
        let mut s = SlidingWindowSampler::try_new(cfg, Window::Sequence(200)).unwrap();
        for (seq, p) in (0u64..).zip(points) {
            s.process(&StreamItem::new(p.clone(), Stamp::at(seq)));
        }
        s.query().expect("window non-empty").latest
    });
}

#[test]
fn jl_samples_are_uniform_over_entities() {
    assert_uniform_over_entities(16, |cfg, points| {
        let mut s = JlRobustSampler::try_new(16, 0.5, 0.5, cfg).unwrap();
        for p in points {
            s.process(p);
        }
        s.query().expect("stream non-empty").clone()
    });
}
