//! Property tests of eviction invisibility across every sampler family.
//!
//! The registry itself hosts the facade's two backend families; the
//! spill container discipline (`spill::seal_state` / `spill::open_state`)
//! is generic over [`Checkpointable`], and these tests prove the
//! spill → restore → continue path bit-identical to a never-evicted
//! sampler for **all six** families, under adversarial schedules that
//! re-evict at many random points mid-stream. A separate property drives
//! the registry end-to-end against a never-evicting control with random
//! interleavings and forced evictions.

use proptest::prelude::*;
use rds_geometry::Point;
use rds_stream::{Stamp, StreamItem, Window};
use rds_tenant::{spill, TenantRegistry, TenantTemplate};
use robust_distinct_sampling::core::{
    Checkpointable, DistinctSampler, FixedRateWindowSampler, JlRobustSampler,
    KWithReplacementSampler, MetricRobustSampler, RobustL0Sampler, SamplerConfig,
    SimHashPartitioner, SlidingWindowSampler,
};

fn cfg(seed: u64, n: u64) -> SamplerConfig {
    SamplerConfig::builder(1, 0.5)
        .seed(seed)
        .expected_len(n.max(4))
        .kappa0(1.0)
        .build()
        .unwrap()
}

fn stream(n: u64, n_entities: u64) -> Vec<StreamItem> {
    (0..n)
        .map(|i| {
            let e = i % n_entities.max(1);
            StreamItem::new(
                Point::new(vec![e as f64 * 10.0 + 0.01 * ((i / 7) % 5) as f64]),
                Stamp::new(i, i / 3),
            )
        })
        .collect()
}

/// Feeds the stream to a control copy and an evicted copy; the evicted
/// copy is sealed into a spill container and reopened at every schedule
/// point (an adversarial churn no real budget would produce). Both must
/// stay observationally bit-identical throughout and at the end.
fn assert_eviction_invisible<S>(control: S, evicted: S, items: &[StreamItem], schedule: &[usize])
where
    S: DistinctSampler + Checkpointable,
{
    let mut control = control;
    let mut evicted = evicted;
    let mut cuts: Vec<usize> = schedule.iter().map(|&s| s % (items.len() + 1)).collect();
    cuts.sort_unstable();
    let mut at = 0usize;
    for &cut in &cuts {
        for it in &items[at..cut] {
            control.process(it);
            evicted.process(it);
        }
        at = cut;
        let container = spill::seal_state(&evicted);
        evicted = spill::open_state::<S>(&container).expect("reopen spilled state");
    }
    for it in &items[at..] {
        control.process(it);
        evicted.process(it);
    }
    assert_eq!(
        control.f0_estimate().to_bits(),
        evicted.f0_estimate().to_bits(),
        "estimates diverged across evictions"
    );
    assert_eq!(control.seen(), evicted.seen());
    assert_eq!(control.words(), evicted.words(), "candidate structure diverged");
    for draw in 0..4 {
        let a = control.query_record();
        let b = evicted.query_record();
        assert_eq!(
            a.as_ref().map(|r| &r.rep),
            b.as_ref().map(|r| &r.rep),
            "draw {draw}: PRNG position did not survive eviction churn"
        );
        assert_eq!(a.map(|r| r.count), b.map(|r| r.count), "draw {draw}: counts");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn infinite_family_survives_eviction_churn(
        seed in 0u64..1000,
        n in 50u64..300,
        n_entities in 2u64..40,
        schedule in proptest::collection::vec(0usize..10_000, 1..6),
    ) {
        let items = stream(n, n_entities);
        assert_eviction_invisible(
            RobustL0Sampler::try_new(cfg(seed, n)).unwrap(),
            RobustL0Sampler::try_new(cfg(seed, n)).unwrap(),
            &items,
            &schedule,
        );
    }

    #[test]
    fn sliding_window_family_survives_eviction_churn(
        seed in 0u64..1000,
        n in 50u64..300,
        n_entities in 2u64..40,
        w in 1u64..200,
        time_flag in 0u8..2,
        schedule in proptest::collection::vec(0usize..10_000, 1..6),
    ) {
        let items = stream(n, n_entities);
        let window = if time_flag == 1 { Window::Time(w) } else { Window::Sequence(w) };
        assert_eviction_invisible(
            SlidingWindowSampler::try_new(cfg(seed, n), window).unwrap(),
            SlidingWindowSampler::try_new(cfg(seed, n), window).unwrap(),
            &items,
            &schedule,
        );
    }

    #[test]
    fn fixed_rate_family_survives_eviction_churn(
        seed in 0u64..1000,
        n in 50u64..250,
        n_entities in 2u64..40,
        w in 1u64..200,
        level in 0u32..4,
        schedule in proptest::collection::vec(0usize..10_000, 1..6),
    ) {
        let items = stream(n, n_entities);
        assert_eviction_invisible(
            FixedRateWindowSampler::new(cfg(seed, n), Window::Sequence(w), level),
            FixedRateWindowSampler::new(cfg(seed, n), Window::Sequence(w), level),
            &items,
            &schedule,
        );
    }

    #[test]
    fn metric_family_survives_eviction_churn(
        seed in 0u64..1000,
        n in 40u64..150,
        n_entities in 2u64..16,
        schedule in proptest::collection::vec(0usize..10_000, 1..5),
    ) {
        let dim = 8usize;
        let items: Vec<StreamItem> = (0..n)
            .map(|i| {
                let e = (i % n_entities) as usize;
                let mut v = vec![0.05; dim];
                v[e % dim] = 10.0 + (e / dim) as f64 * 5.0;
                v[(e + 1) % dim] += 0.001 * ((i / 7) % 3) as f64;
                StreamItem::new(Point::new(v), Stamp::at(i))
            })
            .collect();
        let mk = || {
            let part = SimHashPartitioner::try_new(dim, 10, 0.05, seed ^ 0xA5).unwrap();
            MetricRobustSampler::try_new(part, 16, seed).unwrap()
        };
        assert_eviction_invisible(mk(), mk(), &items, &schedule);
    }

    #[test]
    fn jl_family_survives_eviction_churn(
        seed in 0u64..1000,
        n in 40u64..150,
        n_entities in 2u64..16,
        schedule in proptest::collection::vec(0usize..10_000, 1..5),
    ) {
        let dim = 48usize;
        let items: Vec<StreamItem> = (0..n)
            .map(|i| {
                let e = (i % n_entities) as usize;
                let mut v = vec![0.0; dim];
                v[e % dim] = 100.0 * (1.0 + (e / dim) as f64);
                v[(e + 3) % dim] = 0.001 * ((i / 5) % 4) as f64;
                StreamItem::new(Point::new(v), Stamp::at(i))
            })
            .collect();
        let mk = || {
            let base = SamplerConfig::builder(dim, 0.5)
                .seed(seed)
                .expected_len(n.max(4))
                .build()
                .unwrap();
            JlRobustSampler::try_new(dim, 0.5, 0.5, base).unwrap()
        };
        assert_eviction_invisible(mk(), mk(), &items, &schedule);
    }

    /// The registry end to end: random interleaved traffic over a small
    /// tenant set with forced evictions at adversarial points must match
    /// a never-evicting control tenant for tenant, bit for bit.
    #[test]
    fn registry_matches_control_under_adversarial_evictions(
        seed in 0u64..500,
        raw_ops in proptest::collection::vec(0u64..1_000_000, 5..40),
    ) {
        // each op packs (tenant, batch size, eviction target)
        let ops: Vec<(u64, u64, u64)> = raw_ops
            .iter()
            .map(|&r| (r % 4, r / 4 % 19 + 1, r / 80 % 8))
            .collect();
        let scratch = |tag: &str| {
            let dir = std::env::temp_dir().join(format!(
                "rds-tenant-prop-{}-{seed}-{tag}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            dir
        };
        let mut template = TenantTemplate::new(1, 0.5);
        template.seed = seed;
        template.expected_len = 256;
        let control = TenantRegistry::new(template.clone(), usize::MAX, scratch("ctl")).unwrap();
        let evicting = TenantRegistry::new(template, usize::MAX, scratch("ev")).unwrap();
        for (round, &(tenant, n, evict_tenant)) in ops.iter().enumerate() {
            let id = format!("t{tenant}");
            let pts: Vec<Point> = (0..n)
                .map(|i| Point::new(vec![((tenant * 31 + round as u64 + i) % 9) as f64 * 10.0]))
                .collect();
            control.ingest(&id, &pts, None).unwrap();
            evicting.ingest(&id, &pts, None).unwrap();
            // adversary: evict someone (maybe the tenant just written)
            evicting.evict(&format!("t{}", evict_tenant % 4)).unwrap();
            prop_assert_eq!(
                control.f0_estimate(&id).unwrap().to_bits(),
                evicting.f0_estimate(&id).unwrap().to_bits(),
                "tenant {} diverged at round {}", id, round
            );
        }
        for tenant in 0..4u64 {
            let id = format!("t{tenant}");
            prop_assert_eq!(control.snapshot(&id).unwrap().seen(), evicting.snapshot(&id).unwrap().seen());
            for draw in 0..3u64 {
                let a = control.query_at(&id, draw).unwrap();
                let b = evicting.query_at(&id, draw).unwrap();
                prop_assert_eq!(a.as_ref().map(|r| &r.rep), b.as_ref().map(|r| &r.rep));
            }
        }
    }
}

#[test]
fn k_with_replacement_survives_eviction_churn() {
    // not a DistinctSampler (returns k parallel samples) — direct test
    let items = stream(200, 20);
    let mut control = KWithReplacementSampler::try_new(cfg(9, 200), 3).unwrap();
    let mut evicted = KWithReplacementSampler::try_new(cfg(9, 200), 3).unwrap();
    for (i, it) in items.iter().enumerate() {
        control.process(&it.point);
        evicted.process(&it.point);
        if i % 47 == 13 {
            let container = spill::seal_state(&evicted);
            evicted = spill::open_state(&container).expect("reopen");
        }
    }
    assert_eq!(control.sample(), evicted.sample());
    assert_eq!(control.k(), evicted.k());
}

#[test]
fn containers_reject_tampering_with_typed_errors() {
    let mut s = RobustL0Sampler::try_new(cfg(7, 64)).unwrap();
    for it in stream(64, 8) {
        DistinctSampler::process(&mut s, &it);
    }
    let good = spill::seal_state(&s);
    // round trip sanity
    spill::open_state::<RobustL0Sampler>(&good).expect("good container opens");
    // truncation at every 10% mark
    for pct in 0..10 {
        let cut = good.len() * pct / 10;
        assert!(
            spill::open_state::<RobustL0Sampler>(&good[..cut]).is_err(),
            "truncation at {cut} must fail"
        );
    }
    // payload byte flip fails the checksum
    let mut bytes = good.clone().into_bytes();
    let pos = good.find("payload").unwrap() + 20;
    bytes[pos] = bytes[pos].wrapping_add(1);
    let text = String::from_utf8(bytes).unwrap();
    assert!(spill::open_state::<RobustL0Sampler>(&text).is_err());
    // wrong family: a window sampler cannot open as an infinite one
    let mut w = SlidingWindowSampler::try_new(cfg(7, 64), Window::Sequence(16)).unwrap();
    for it in stream(64, 8) {
        DistinctSampler::process(&mut w, &it);
    }
    let wc = spill::seal_state(&w);
    assert!(spill::open_state::<RobustL0Sampler>(&wc).is_err());
}
