//! Statistical test of sample uniformity: over many independently seeded
//! runs on a known entity partition, the per-entity sampling frequency
//! must stay within the `rds-metrics` deviation bounds (`stdDevNm`,
//! `maxDevNm`) the paper's Section 6 evaluation uses. The same bound is
//! checked for Algorithm 1, the sliding-window sampler and the JL variant
//! (Remark 2).
//!
//! The window oracle runs a skewed stream through the facade — one hot
//! entity at every other point, 39 cold ones taking turns in between —
//! for sequence and time windows, one and four shards, with and without
//! near-duplicate jitter that straddles grid cells, and across a
//! mid-stream checkpoint restore. Draws must pass the same bounds and the
//! mean F0 must sit within 10% of the exact live entity count.

use rds_core::{JlRobustSampler, RobustL0Sampler, SamplerConfig, SlidingWindowSampler};
use rds_geometry::Point;
use rds_metrics::SampleHistogram;
use rds_stream::{Stamp, StreamItem, Window};
use robust_distinct_sampling::{PublishCadence, Rds, WriterCheckpoint};

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
    assert_within_deviation_bounds(&hist);
}

fn assert_within_deviation_bounds(hist: &SampleHistogram) {
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

/// The skewed stream of the window oracle: `n` points in 1-D; even
/// positions belong to the hot entity 0, odd ones to the cold entities
/// `1..=39` in turn. Entity `e` sits at `10 e + jitter * u` with `u` in
/// `[0, 1)`, so a jitter near the grid side (`alpha = 0.5`) spreads each
/// entity over two cells. Four points share each timestamp.
fn skewed_stream(n: u64, jitter: f64) -> Vec<StreamItem> {
    (0..n)
        .map(|i| {
            let e = if i % 2 == 0 { 0 } else { 1 + (i / 2) % 39 };
            let u = ((i * 7919) % 100) as f64 / 100.0;
            StreamItem::new(
                Point::new(vec![e as f64 * 10.0 + jitter * u]),
                Stamp::new(i, i / 4),
            )
        })
        .collect()
}

/// Runs the skewed stream through a facade pair once per seed, with an
/// optional checkpoint/restore after `restore_at` items, and checks the
/// final window's draws and mean F0 against the exact live entities.
fn assert_window_oracle(window: Window, shards: usize, jitter: f64, restore_at: Option<usize>) {
    const N: u64 = 4000;
    const RUNS: u64 = 400;
    let items = skewed_stream(N, jitter);
    let now = items[items.len() - 1].stamp;
    let mut live: Vec<usize> = items
        .iter()
        .filter(|it| window.live(it.stamp, now))
        .map(|it| entity_of(&it.point))
        .collect();
    live.sort_unstable();
    live.dedup();
    assert_eq!(live.len(), 40, "the final window holds every entity");
    let mut hist = SampleHistogram::new(live.len());
    let mut f0_sum = 0.0;
    for run in 0..RUNS {
        let (mut writer, mut reader) = Rds::builder()
            .dim(1)
            .alpha(0.5)
            .seed(run * 7 + 1)
            .expected_len(N)
            // each shard sees ~40 / shards entities: scale the cap with
            // it so every shard's levels fill, as one sampler's do
            .kappa0(1.0 / shards as f64)
            .window(window)
            .shards(shards)
            .publish_cadence(PublishCadence::Manual)
            .build_split()
            .expect("valid configuration");
        for (i, it) in items.iter().enumerate() {
            if Some(i) == restore_at {
                let text = writer.checkpoint().to_container_json();
                let chk = WriterCheckpoint::from_container_json(&text).expect("container parses");
                (writer, reader) = Rds::builder().restore(chk).expect("checkpoint restores");
            }
            writer.process_item(it.clone());
        }
        writer.publish();
        let snap = reader.snapshot();
        f0_sum += snap.f0_estimate();
        let rec = snap.query_at(run).expect("the window is non-empty");
        hist.record(entity_of(&rec.rep));
    }
    let mean_f0 = f0_sum / RUNS as f64;
    assert!(
        (mean_f0 - live.len() as f64).abs() <= 0.1 * live.len() as f64,
        "mean F0 {mean_f0} against {} live entities",
        live.len()
    );
    // 400 uniform runs over 40 entities give stdDevNm ~ sqrt(40/400) ~ 0.32
    assert_within_deviation_bounds(&hist);
}

#[test]
fn window_oracle_sequence_one_shard() {
    assert_window_oracle(Window::Sequence(400), 1, 0.0, None);
}

#[test]
fn window_oracle_sequence_one_shard_straddling_cells() {
    assert_window_oracle(Window::Sequence(400), 1, 0.45, None);
}

#[test]
fn window_oracle_time_one_shard_straddling_cells() {
    assert_window_oracle(Window::Time(100), 1, 0.45, None);
}

#[test]
fn window_oracle_sequence_four_shards() {
    assert_window_oracle(Window::Sequence(400), 4, 0.0, None);
}

#[test]
fn window_oracle_time_four_shards_straddling_cells() {
    assert_window_oracle(Window::Time(100), 4, 0.45, None);
}

#[test]
fn window_oracle_survives_a_mid_stream_restore() {
    assert_window_oracle(Window::Sequence(400), 1, 0.45, Some(2345));
    assert_window_oracle(Window::Time(100), 4, 0.0, Some(1717));
}
