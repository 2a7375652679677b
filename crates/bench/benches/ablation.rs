//! Ablations of the sampler's tunable design choices:
//!
//! * grid side factor (`alpha` vs `2 alpha` vs the Section 4 `d * alpha`);
//! * acceptance threshold constant `kappa_0` (space/time trade-off);
//! * hash independence `k` (theory says `Θ(log m)`; how much does it
//!   cost?).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rds_core::{RobustL0Sampler, SamplerConfig};
use rds_datasets::{rand_cloud, uniform_dups, Dataset};
use std::hint::black_box;

fn dataset() -> Dataset {
    let mut rng = StdRng::seed_from_u64(77);
    let base = rand_cloud(200, 5, &mut rng);
    let mut ds = uniform_dups("ablation", &base, 10, &mut rng);
    ds.shuffle(&mut rng);
    ds
}

fn scan(cfg: SamplerConfig, ds: &Dataset) -> usize {
    let mut s = RobustL0Sampler::try_new(cfg).unwrap();
    for lp in &ds.points {
        s.process(black_box(&lp.point));
    }
    s.peak_words()
}

fn bench_side_factor(c: &mut Criterion) {
    let ds = dataset();
    let mut group = c.benchmark_group("ablation_side_factor");
    group.throughput(Throughput::Elements(ds.len() as u64));
    for side in [1.0f64, 2.0, 5.0] {
        let cfg = SamplerConfig::builder(ds.dim, ds.alpha)
            .seed(5)
            .expected_len(ds.len() as u64)
            .side_factor(side).build().unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(side), &cfg, |b, cfg| {
            b.iter(|| black_box(scan(cfg.clone(), &ds)));
        });
    }
    group.finish();
}

fn bench_kappa0(c: &mut Criterion) {
    let ds = dataset();
    let mut group = c.benchmark_group("ablation_kappa0");
    group.throughput(Throughput::Elements(ds.len() as u64));
    for kappa in [0.5f64, 4.0, 16.0] {
        let cfg = SamplerConfig::builder(ds.dim, ds.alpha)
            .seed(5)
            .expected_len(ds.len() as u64)
            .kappa0(kappa).build().unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(kappa), &cfg, |b, cfg| {
            b.iter(|| black_box(scan(cfg.clone(), &ds)));
        });
    }
    group.finish();
}

fn bench_independence(c: &mut Criterion) {
    let ds = dataset();
    let mut group = c.benchmark_group("ablation_hash_independence");
    group.throughput(Throughput::Elements(ds.len() as u64));
    for k in [2usize, 8, 32, 64] {
        let cfg = SamplerConfig::builder(ds.dim, ds.alpha)
            .seed(5)
            .expected_len(ds.len() as u64)
            .independence(k).build().unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(k), &cfg, |b, cfg| {
            b.iter(|| black_box(scan(cfg.clone(), &ds)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_side_factor, bench_kappa0, bench_independence);
criterion_main!(benches);
