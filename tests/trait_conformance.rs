//! Trait-conformance suite: one parameterized harness runs the same
//! stream through every [`DistinctSampler`] implementation — the six
//! sampler families — and checks the shared contract:
//!
//! * `f0_estimate` agrees with the ground truth within a per-family
//!   tolerance (exactly, for the generous-threshold configurations here);
//! * summaries merge order-insensitively: `merge(a, merge(b, c))` and
//!   `merge(merge(c, a), b)` report the same estimate, and a merged
//!   3-way shard split agrees with the unsharded run;
//! * edge cases: the empty stream yields `query_record() == None`,
//!   `f0_estimate() == 0`, and `query_k(0)` is always empty.

use rds_core::{
    DistinctSampler, FixedRateWindowSampler, JlRobustSampler,
    MetricRobustSampler, RobustL0Sampler, SamplerConfig, SamplerSummary, SimHashPartitioner,
    SlidingWindowSampler,
};
use rds_geometry::{standard_normal, Point};
use rds_stream::{Stamp, StreamItem, Window};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const N_GROUPS: usize = 12;
const PER_GROUP: usize = 8;

/// Well-separated Euclidean groups in `R^dim` with within-alpha jitter,
/// interleaved as a stamped stream.
fn euclidean_stream(dim: usize, seed: u64) -> Vec<StreamItem> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut items = Vec::new();
    for j in 0..PER_GROUP {
        for g in 0..N_GROUPS {
            let mut coords = vec![0.0; dim];
            coords[g % dim] = 50.0 * (1 + g / dim) as f64;
            for c in coords.iter_mut() {
                *c += 0.05 * rng.random_range(0.0..1.0);
            }
            let seq = (j * N_GROUPS + g) as u64;
            items.push(StreamItem::new(Point::new(coords), Stamp::at(seq)));
        }
    }
    items
}

/// Groups of near-identical directions for the angular metric.
fn angular_stream(dim: usize, seed: u64) -> Vec<StreamItem> {
    let mut rng = StdRng::seed_from_u64(seed);
    let centers: Vec<Point> = (0..N_GROUPS)
        .map(|_| {
            let v = Point::new((0..dim).map(|_| standard_normal(&mut rng)).collect());
            v.scale(1.0 / v.norm())
        })
        .collect();
    let mut items = Vec::new();
    for j in 0..PER_GROUP {
        for (g, c) in centers.iter().enumerate() {
            let noise = Point::new(
                (0..dim)
                    .map(|_| standard_normal(&mut rng) * 0.002)
                    .collect(),
            );
            let v = c.add(&noise);
            let seq = (j * N_GROUPS + g) as u64;
            items.push(StreamItem::new(
                v.scale(1.0 / v.norm()),
                Stamp::at(seq),
            ));
        }
    }
    items
}

/// The conformance harness: every family goes through the same checks.
fn check_family<S, F>(label: &str, mut make: F, stream: &[StreamItem], truth: f64, tol: f64)
where
    S: DistinctSampler,
    S::Summary: Clone,
    F: FnMut() -> S,
{
    // -- empty-stream edge cases ---------------------------------------
    let mut empty = make();
    assert!(
        empty.query_record().is_none(),
        "{label}: empty stream must yield no sample"
    );
    assert_eq!(empty.f0_estimate(), 0.0, "{label}: empty stream f0");
    assert!(empty.query_k(0).is_empty(), "{label}: query_k(0) on empty");
    assert!(empty.query_k(3).is_empty(), "{label}: query_k(3) on empty");
    assert_eq!(empty.seen(), 0, "{label}: empty stream seen()");

    // -- f0 agreement over the full stream -----------------------------
    let mut full = make();
    let stats = full.process_batch(stream);
    assert_eq!(
        stats.total(),
        stream.len() as u64,
        "{label}: batch stats must cover the stream"
    );
    assert_eq!(full.seen(), stream.len() as u64, "{label}: seen()");
    let f0 = full.f0_estimate();
    assert!(
        (f0 - truth).abs() <= tol * truth,
        "{label}: f0 {f0} vs truth {truth} beyond {tol}"
    );
    assert!(full.words() > 0, "{label}: words() must meter something");
    assert!(full.query_k(0).is_empty(), "{label}: query_k(0) non-empty");
    let rec = full.query_record().expect("non-empty stream");
    assert!(rec.count >= 1, "{label}: record count");
    let picks = full.query_k(3);
    assert_eq!(picks.len(), 3, "{label}: query_k(3) length");

    // -- merge order-insensitivity via the associated Summary ----------
    // Split the stream across three "shards" round-robin, summarize, and
    // merge in two different orders.
    let mut shards: Vec<S> = (0..3).map(|_| make()).collect();
    for (i, item) in stream.iter().enumerate() {
        shards[i % 3].process(item);
    }
    let [a, b, c]: [S::Summary; 3] = shards
        .into_iter()
        .map(|s| s.into_summary())
        .collect::<Vec<_>>()
        .try_into()
        .map_err(|_| "three shards")
        .unwrap();
    let (a2, b2, c2) = (a.clone(), b.clone(), c.clone());
    let forward = a
        .merge(b.merge(c).expect("same cfg"))
        .expect("same cfg");
    let backward = c2
        .merge(a2)
        .expect("same cfg")
        .merge(b2)
        .expect("same cfg");
    assert_eq!(
        forward.f0_estimate(),
        backward.f0_estimate(),
        "{label}: merge must be order-insensitive"
    );
    // The generous thresholds here mean no subsampling anywhere, so the
    // sharded merge agrees with the unsharded run exactly.
    assert_eq!(
        forward.f0_estimate(),
        f0,
        "{label}: 3-way merged f0 vs unsharded"
    );
    let merged = forward;
    assert!(
        merged.query_record(1).is_some(),
        "{label}: merged summary must answer queries"
    );
    assert!(
        merged.query_k(0, 1).is_empty(),
        "{label}: merged query_k(0)"
    );
}


fn cfg(dim: usize) -> SamplerConfig {
    // threshold kappa0 * log2(m) = 80 >> 12 groups: nothing subsamples,
    // every family counts exactly.
    SamplerConfig::builder(dim, 0.5).seed(9).expected_len(1 << 20).build().unwrap()
}

#[test]
fn robust_l0_sampler_conforms() {
    let stream = euclidean_stream(4, 1);
    check_family(
        "RobustL0Sampler",
        || RobustL0Sampler::try_new(cfg(4)).unwrap(),
        &stream,
        N_GROUPS as f64,
        0.0,
    );
}

#[test]
fn sliding_window_sampler_conforms() {
    let stream = euclidean_stream(4, 2);
    check_family(
        "SlidingWindowSampler",
        || SlidingWindowSampler::try_new(cfg(4), Window::Sequence(1 << 20)).unwrap(),
        &stream,
        N_GROUPS as f64,
        0.0,
    );
}

#[test]
fn fixed_rate_window_sampler_conforms() {
    let stream = euclidean_stream(4, 3);
    check_family(
        "FixedRateWindowSampler",
        || FixedRateWindowSampler::new(cfg(4), Window::Sequence(1 << 20), 0),
        &stream,
        N_GROUPS as f64,
        0.0,
    );
}

#[test]
fn jl_robust_sampler_conforms() {
    let dim = 64;
    let stream = euclidean_stream(dim, 5);
    check_family(
        "JlRobustSampler",
        || JlRobustSampler::try_new(dim, 0.5, 0.5, cfg(dim)).unwrap(),
        &stream,
        N_GROUPS as f64,
        0.0,
    );
}

#[test]
fn metric_robust_sampler_conforms() {
    let dim = 24;
    let stream = angular_stream(dim, 6);
    check_family(
        "MetricRobustSampler",
        || {
            MetricRobustSampler::try_new(
                SimHashPartitioner::try_new(dim, 12, 0.05, 7).unwrap(),
                64, // threshold >> 12 groups: exact counting
                9,
            ).unwrap()
        },
        &stream,
        N_GROUPS as f64,
        0.0,
    );
}

#[test]
fn jl_queries_return_ambient_space_points() {
    // The JL family's extra contract: trait queries come back in the
    // original high-dimensional space even after a summary merge.
    let dim = 64;
    let stream = euclidean_stream(dim, 7);
    let mut s = JlRobustSampler::try_new(dim, 0.5, 0.5, cfg(dim)).unwrap();
    s.process_batch(&stream);
    let rec = DistinctSampler::query_record(&mut s).expect("non-empty");
    assert_eq!(rec.rep.dim(), dim, "trait query must be ambient-space");
    assert!(stream.iter().any(|it| it.point == rec.rep));
    let summary = s.into_summary();
    let merged_rec = summary.query_record(1).expect("non-empty");
    assert_eq!(merged_rec.rep.dim(), dim, "summary query must be ambient-space");
}

#[test]
fn window_families_agree_with_infinite_on_covering_windows() {
    // With a window wider than the stream, the sliding families see the
    // same groups as the infinite-window sampler.
    let stream = euclidean_stream(4, 8);
    let mut inf = RobustL0Sampler::try_new(cfg(4)).unwrap();
    let mut win = SlidingWindowSampler::try_new(cfg(4), Window::Sequence(1 << 20)).unwrap();
    let mut fixed = FixedRateWindowSampler::new(cfg(4), Window::Sequence(1 << 20), 0);
    for it in &stream {
        DistinctSampler::process(&mut inf, it);
        DistinctSampler::process(&mut win, it);
        DistinctSampler::process(&mut fixed, it);
    }
    assert_eq!(
        DistinctSampler::f0_estimate(&inf),
        DistinctSampler::f0_estimate(&win)
    );
    assert_eq!(
        DistinctSampler::f0_estimate(&inf),
        DistinctSampler::f0_estimate(&fixed)
    );
}
