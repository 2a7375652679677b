//! Throughput of the capped-level sliding-window sampler as
//! a function of the window size — the `O(log w log m)` claim of
//! Theorem 2.7 predicts a mild growth.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rds_core::{SamplerConfig, SlidingWindowSampler};
use rds_geometry::Point;
use rds_stream::{Stamp, StreamItem, Window};
use std::hint::black_box;

fn stream(n: u64, n_groups: u64) -> Vec<StreamItem> {
    (0..n)
        .map(|i| {
            StreamItem::new(
                Point::new(vec![
                    ((i * 13) % n_groups) as f64 * 10.0,
                    ((i * 7) % n_groups) as f64 * 10.0,
                ]),
                Stamp::at(i),
            )
        })
        .collect()
}

fn bench_sliding(c: &mut Criterion) {
    let items = stream(8192, 1024);
    let mut group = c.benchmark_group("sliding_window_scan");
    group.throughput(Throughput::Elements(items.len() as u64));
    group.sample_size(10);
    for w in [256u64, 1024, 4096] {
        group.bench_with_input(BenchmarkId::from_parameter(w), &w, |b, &w| {
            b.iter(|| {
                let cfg = SamplerConfig::builder(2, 0.5)
                    .seed(11)
                    .expected_len(items.len() as u64)
                    .kappa0(2.0).build().unwrap();
                let mut s = SlidingWindowSampler::try_new(cfg, Window::Sequence(w)).unwrap();
                for it in &items {
                    s.process(black_box(it));
                }
                black_box(s.query())
            });
        });
    }
    group.finish();
}

fn bench_fixed_rate_subroutine(c: &mut Criterion) {
    use rds_core::FixedRateWindowSampler;
    let items = stream(4096, 512);
    let mut group = c.benchmark_group("fixed_rate_scan");
    group.throughput(Throughput::Elements(items.len() as u64));
    for level in [0u32, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(level), &level, |b, &lvl| {
            b.iter(|| {
                let cfg = SamplerConfig::builder(2, 0.5)
                    .seed(13)
                    .expected_len(items.len() as u64).build().unwrap();
                let mut s = FixedRateWindowSampler::new(cfg, Window::Sequence(512), lvl);
                for it in &items {
                    s.process(black_box(it));
                }
                black_box(s.accepted_len())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sliding, bench_fixed_rate_subroutine);
criterion_main!(benches);
