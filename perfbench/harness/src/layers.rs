//! Per-layer replays for the in-process workloads: the workload's own
//! inputs pushed through the public functions of each layer below the
//! facade, every call wrapped in a span.
//!
//! Contexts are built with `SamplerContext::new(cfg)` from the writer's
//! own configuration echo, so grid, hash and threshold are the ones the
//! end-to-end run used.

use crate::inproc::{Inputs, Spec, BATCH};
use crate::report::Metrics;
use crate::trace::{summarise, Span, Tracer};
use rds_core::{BatchStats, CandidateStore, RobustL0Sampler, SamplerContext, SlidingWindowSampler};
use rds_engine::ShardedEngine;
use rds_geometry::{for_each_adjacent_cell_fold_with, AdjacencyScratch, Point};
use rds_hashing::CellKeyMixer;
use rds_stream::{Stamp, StreamItem};
use std::hint::black_box;
use std::time::Instant;

/// The sampler's adjacency probe budget (cells per point before it
/// falls back to a linear store scan).
const PROBE_CELL_BUDGET: usize = 64;
/// Points per replay span.
const CHUNK: usize = 256;
/// Points the store and geometry replays use at most.
const REPLAY_MAX: usize = 100_000;

/// Runs the replays that apply to this workload, appends their spans,
/// fills the layer metrics, and returns the per-point cost of the layer
/// directly under the facade (sampler, engine or window) in ns.
pub fn replay(
    inputs: &Inputs,
    spec: &Spec,
    epoch: Instant,
    m: &mut Metrics,
    spans: &mut Vec<Span>,
) -> f64 {
    let mut t = Tracer::new(true, epoch);
    let points = &inputs.data.points;
    let n = points.len() as f64;
    let ctx = SamplerContext::new(inputs.cfg.clone());
    let head = &points[..points.len().min(REPLAY_MAX)];
    let head_n = head.len() as f64;

    // hashing: batched k-wise hash over the points' cell keys
    let mut scratch = Vec::new();
    let keys: Vec<u64> = points
        .iter()
        .map(|p| ctx.cell_key(p, &mut scratch))
        .collect();
    let mut out = Vec::with_capacity(CHUNK);
    for chunk in keys.chunks(CHUNK) {
        t.span("hashing.hash_keys_slice", || {
            ctx.hasher().hash_keys_slice(chunk, &mut out)
        });
        black_box(&out);
    }

    // geometry: the adjacency DFS with the sampler's key fold
    let grid = ctx.grid();
    let alpha = ctx.alpha();
    let init = ctx.hasher().mixer().fold_init(grid.dim());
    let mut adj = AdjacencyScratch::new();
    let mut cells = vec![0u32; head.len()];
    for (ci, chunk) in head.chunks(CHUNK).enumerate() {
        t.span("geometry.adjacent_cells", || {
            for (j, p) in chunk.iter().enumerate() {
                let mut count = 0u32;
                let mut fold = 0u64;
                for_each_adjacent_cell_fold_with(
                    grid,
                    p,
                    alpha,
                    init,
                    CellKeyMixer::fold_step,
                    |_c, key| {
                        count += 1;
                        fold ^= key;
                        false
                    },
                    &mut adj,
                );
                black_box(fold);
                cells[ci * CHUNK + j] = count;
            }
        });
    }
    let over = cells
        .iter()
        .filter(|&&c| c as usize > PROBE_CELL_BUDGET)
        .count();
    m.put(
        "geometry.adj_cells_per_pt",
        cells.iter().map(|&c| f64::from(c)).sum::<f64>() / head_n,
        "cells",
    );
    m.put(
        "geometry.adj_over_budget_frac",
        over as f64 / head_n,
        "ratio",
    );

    if spec.window.is_infinite() {
        // sampler: the bare Algorithm 1 sampler, batched like the facade's
        // chunked path
        let mut s = RobustL0Sampler::try_new(inputs.cfg.clone()).expect("valid config");
        let mut stats = BatchStats::default();
        for chunk in points.chunks(CHUNK) {
            let b = t.span("sampler.process_batch", || s.process_batch(chunk));
            stats.merge(&b);
        }
        m.put("sampler.accepted", stats.accepted as f64, "count");
        m.put("sampler.rejected", stats.rejected as f64, "count");
        m.put("sampler.duplicate", stats.duplicates as f64, "count");
        m.put("sampler.ignored", stats.ignored as f64, "count");
        m.put(
            "sampler.dup_frac",
            stats.duplicates as f64 / stats.total().max(1) as f64,
            "ratio",
        );
        m.put(
            "sampler.rate_doublings",
            f64::from(s.rate_doublings()),
            "count",
        );
        let level = s.level();

        // hashing: the adj(p) sampling test at the final level
        for chunk in head.chunks(CHUNK) {
            t.span("hashing.any_adjacent_sampled", || {
                for p in chunk {
                    black_box(ctx.any_adjacent_sampled(p, level));
                }
            });
        }

        // store: the final candidate sets, probed by every point
        let store = CandidateStore::from_records(s.accept_set(), s.reject_set(), |rep| {
            ctx.cell_key(rep, &mut scratch)
        });
        m.put("store.records", store.len() as f64, "count");
        let mut probe_keys: Vec<Vec<u64>> = Vec::with_capacity(head.len());
        for p in head {
            let mut ks = Vec::new();
            for_each_adjacent_cell_fold_with(
                grid,
                p,
                alpha,
                init,
                CellKeyMixer::fold_step,
                |_c, key| {
                    ks.push(key);
                    ks.len() >= PROBE_CELL_BUDGET
                },
                &mut adj,
            );
            probe_keys.push(ks);
        }
        for (chunk, kchunk) in head.chunks(CHUNK).zip(probe_keys.chunks(CHUNK)) {
            t.span("store.probe_best", || {
                for (p, ks) in chunk.iter().zip(kchunk) {
                    let mut best = None;
                    for &k in ks {
                        store.probe_best(k, p, alpha, &mut best);
                    }
                    black_box(best);
                }
            });
        }
        for chunk in head.chunks(CHUNK) {
            t.span("store.scan_best", || {
                for p in chunk {
                    black_box(store.scan_best(p, alpha));
                }
            });
        }
        if spec.shards > 1 {
            engine_replay(inputs, spec, &mut t, m);
        }
    } else {
        let mut s =
            SlidingWindowSampler::try_new(inputs.cfg.clone(), spec.window).expect("valid window");
        let items: Vec<StreamItem> = points
            .iter()
            .enumerate()
            .map(|(i, p)| StreamItem::new(p.clone(), Stamp::at(i as u64)))
            .collect();
        for chunk in items.chunks(CHUNK) {
            t.span("window.process", || {
                for it in chunk {
                    black_box(s.process(it));
                }
            });
        }
        let occ = s.level_occupancy();
        m.put(
            "window.entries",
            occ.iter().map(|&(a, r)| (a + r) as f64).sum(),
            "count",
        );
        m.put(
            "window.levels_occupied",
            occ.iter().filter(|&&(a, r)| a + r > 0).count() as f64,
            "count",
        );
    }

    let new = t.take();
    let sum = summarise(&new);
    let per = |name: &str, count: f64| sum.get(name).map_or(0.0, |s| s.total_ns as f64 / count);
    m.put(
        "hashing.hash_keys_ns_per_key",
        per("hashing.hash_keys_slice", n),
        "ns",
    );
    m.put(
        "hashing.adj_sampled_ns_per_pt",
        per("hashing.any_adjacent_sampled", head_n),
        "ns",
    );
    m.put(
        "geometry.adj_dfs_ns_per_pt",
        per("geometry.adjacent_cells", head_n),
        "ns",
    );
    m.put(
        "store.probe_ns_per_pt",
        per("store.probe_best", head_n),
        "ns",
    );
    m.put("store.scan_ns_per_pt", per("store.scan_best", head_n), "ns");
    m.put(
        "sampler.process_ns_per_pt",
        per("sampler.process_batch", n),
        "ns",
    );
    m.put("window.process_ns_per_pt", per("window.process", n), "ns");
    m.put(
        "engine.ingest_ns_per_pt",
        per("engine.ingest_batch", n),
        "ns",
    );
    if let Some(s) = sum.get("engine.snapshot") {
        m.put_hist("engine.snapshot_us", &s.hist, 1e3, "us");
        m.put("engine.snapshots", s.count as f64, "count");
    }
    let inner = if spec.shards > 1 {
        per("engine.ingest_batch", n)
    } else if spec.window.is_infinite() {
        per("sampler.process_batch", n)
    } else {
        per("window.process", n)
    };
    spans.extend(new);
    inner
}

/// The sharded engine alone, fed the same batches with the same
/// publication cadence (flush + snapshot), for caller-side ingest cost,
/// snapshot latency and shard balance.
fn engine_replay(inputs: &Inputs, spec: &Spec, t: &mut Tracer, m: &mut Metrics) {
    let cfg = inputs.cfg.clone();
    let threshold = cfg.threshold();
    let mut e =
        ShardedEngine::try_with_threshold(cfg, spec.shards, threshold).expect("valid engine");
    let every = spec
        .publish_every
        .unwrap_or(robust_distinct_sampling::DEFAULT_PUBLISH_EVERY);
    let mut fed = 0u64;
    for chunk in inputs.data.points.chunks(BATCH) {
        let owned: Vec<Point> = chunk.to_vec();
        fed += owned.len() as u64;
        t.span("engine.ingest_batch", || e.ingest_batch(owned));
        if fed.is_multiple_of(every) {
            t.span("engine.snapshot", || {
                e.flush();
                black_box(e.snapshot())
            });
        }
    }
    let loads = e.shard_loads();
    let mean = loads.iter().sum::<u64>() as f64 / loads.len() as f64;
    let max = loads.iter().copied().max().unwrap_or(0) as f64;
    m.put("engine.shard_skew", max / mean.max(1.0), "ratio");
}
