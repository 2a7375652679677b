//! Multi-tenant registry at scale: one process, a million keyed streams,
//! a global space budget — with machine-readable output.
//!
//! The workload models a serving tier in front of millions of per-key
//! samplers. Phase one touches **every** tenant in the key space once
//! (the worst case for the budget: nothing is hot yet, every admission
//! beyond the budget evicts a victim to disk). Phase two fires
//! Zipf(θ)-distributed traffic from [`rds_stream::ZipfKeys`] — a few
//! head tenants absorb most of the ops and stay resident while tail
//! touches fault spilled tenants back in — and is the steady-state
//! throughput number.
//!
//! Two claims are checked and written to `BENCH_tenants.json`:
//!
//! 1. **The budget holds.** `resident_words()` is sampled after every
//!    single op in both phases; the maximum observed must stay at or
//!    under the configured budget. `ci.sh` gates on this field.
//! 2. **Eviction is invisible.** Sentinel tenants (a head, a torso and
//!    the coldest tail rank) have their exact item sequences recorded
//!    during the run. Afterwards each sentinel is force-evicted and
//!    re-touched (faulting a restore from its spill container), and its
//!    `f0` bits, `seen` count and sample draws must equal a control
//!    registry that replayed the same items with a budget large enough
//!    to never evict.
//!
//! `RDS_BENCH_FAST=1` shrinks the key space to a smoke test (used by
//! CI); `RDS_BENCH_OUT` overrides the output path.

use rds_geometry::Point;
use rds_stream::ZipfKeys;
use rds_tenant::{TenantRegistry, TenantTemplate};
use serde::Serialize;
use std::time::Instant;

const THETA: f64 = 1.0;
const SEED: u64 = 42;
/// Tenants the budget should comfortably hold resident at once.
const RESIDENT_TARGET: usize = 1_024;

fn fast_mode() -> bool {
    std::env::var_os("RDS_BENCH_FAST").is_some_and(|v| v != "0")
}

fn template() -> TenantTemplate {
    let mut t = TenantTemplate::new(1, 0.5);
    t.seed = SEED;
    t.expected_len = 4_096;
    t
}

fn tenant_id(rank: u64) -> String {
    format!("t{rank:07}")
}

/// The item a tenant sees on its `touch`-th visit: entities are
/// well-separated on a 1-D lattice, with every fifth touch jittered
/// into a near-duplicate of an earlier entity.
fn item(touch: u64) -> Point {
    let entity = touch / 5 + touch % 5;
    let jitter = 0.01 * (touch % 5) as f64;
    Point::new(vec![entity as f64 * 10.0 + jitter])
}

#[derive(Serialize)]
struct PhaseRow {
    ops: u64,
    ops_per_sec: f64,
    max_resident_words: u64,
}

#[derive(Serialize)]
struct TenantBenchReport {
    key_space: u64,
    theta: f64,
    budget_words: u64,
    words_per_tenant_estimate: u64,
    cold_sweep: PhaseRow,
    zipf_steady_state: PhaseRow,
    tenants: u64,
    resident: u64,
    final_resident_words: u64,
    spills: u64,
    restores: u64,
    /// max(resident_words) across every op of both phases stayed at or
    /// under `budget_words` — the field `ci.sh` gates on.
    resident_bounded_by_budget: bool,
    /// Force-evicted sentinels answered bit-identically to an
    /// eviction-free control after faulting back in.
    retouch_bit_identical: bool,
}

/// Per-tenant words of a freshly built sampler after one item, measured
/// against a throwaway registry so the budget can be expressed in
/// tenants rather than raw machine words.
fn words_per_tenant(spill_dir: &std::path::Path) -> usize {
    let reg = TenantRegistry::new(template(), usize::MAX / 2, spill_dir.join("probe"))
        .expect("probe registry");
    let ack = reg
        .ingest("probe", &[item(0)], None)
        .expect("probe ingest");
    ack.words.max(1)
}

fn scratch() -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("rds-bench-tenants-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create bench scratch dir");
    dir
}

#[expect(
    clippy::disallowed_methods,
    reason = "a bench times its phases on the wall clock and writes a regenerated report, not a checkpoint"
)]
fn main() {
    let (key_space, zipf_ops) = if fast_mode() {
        (20_000u64, 20_000u64)
    } else {
        (1_000_000u64, 200_000u64)
    };
    let dir = scratch();
    let per_tenant = words_per_tenant(&dir);
    // Headroom factor 4: tenants grow past their first item as the zipf
    // head accumulates entities, and the budget must absorb that growth
    // for RESIDENT_TARGET concurrently-resident tenants.
    let budget_words = per_tenant * RESIDENT_TARGET * 4;
    let reg = TenantRegistry::new(template(), budget_words, dir.join("spill"))
        .expect("bench registry");

    // Sentinels: a head rank, a torso rank and the coldest tail rank.
    let sentinels = [3u64, key_space / 2, key_space - 1];
    let mut sentinel_log: Vec<Vec<Point>> = vec![Vec::new(); sentinels.len()];
    let mut touches: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    let mut max_resident = 0usize;

    eprintln!(
        "group tenant_registry ({key_space} tenants, budget {budget_words} words \
         ≈ {RESIDENT_TARGET} tenants x4 headroom, zipf θ={THETA})"
    );

    // Phase 1: cold sweep — touch every tenant once.
    let start = Instant::now();
    for rank in 0..key_space {
        let p = item(0);
        reg.ingest(&tenant_id(rank), std::slice::from_ref(&p), None)
            .expect("cold-sweep ingest");
        if let Some(i) = sentinels.iter().position(|&s| s == rank) {
            sentinel_log[i].push(p);
        }
        touches.insert(rank, 1);
        max_resident = max_resident.max(reg.resident_words());
    }
    let cold_elapsed = start.elapsed().as_secs_f64();
    let cold = PhaseRow {
        ops: key_space,
        ops_per_sec: key_space as f64 / cold_elapsed.max(1e-9),
        max_resident_words: max_resident as u64,
    };
    eprintln!(
        "  cold_sweep: {:.0} ops/sec ({} tenants created, max resident {} words)",
        cold.ops_per_sec, key_space, max_resident
    );

    // Phase 2: zipf steady state — head tenants stay hot, tail touches
    // fault spilled tenants back in.
    let mut keys = ZipfKeys::try_new(key_space as usize, THETA, SEED).expect("zipf keys");
    let start = Instant::now();
    for _ in 0..zipf_ops {
        let rank = keys.next_key();
        let touch = touches.entry(rank).or_insert(0);
        let p = item(*touch);
        *touch += 1;
        reg.ingest(&tenant_id(rank), std::slice::from_ref(&p), None)
            .expect("zipf ingest");
        if let Some(i) = sentinels.iter().position(|&s| s == rank) {
            sentinel_log[i].push(p);
        }
        max_resident = max_resident.max(reg.resident_words());
    }
    let zipf_elapsed = start.elapsed().as_secs_f64();
    let zipf = PhaseRow {
        ops: zipf_ops,
        ops_per_sec: zipf_ops as f64 / zipf_elapsed.max(1e-9),
        max_resident_words: max_resident as u64,
    };
    eprintln!(
        "  zipf_steady_state: {:.0} ops/sec ({} ops, max resident {} words)",
        zipf.ops_per_sec, zipf_ops, max_resident
    );

    // Claim 2: force-evict each sentinel, fault it back, compare bits
    // against an eviction-free control that replayed the same items.
    let control = TenantRegistry::new(template(), usize::MAX / 2, dir.join("control"))
        .expect("control registry");
    let mut retouch_ok = true;
    for (i, &rank) in sentinels.iter().enumerate() {
        let id = tenant_id(rank);
        for p in &sentinel_log[i] {
            control
                .ingest(&id, std::slice::from_ref(p), None)
                .expect("control ingest");
        }
        reg.evict(&id).expect("explicit evict");
        let evicted_f0 = reg.f0_estimate(&id).expect("re-touch f0");
        let control_f0 = control.f0_estimate(&id).expect("control f0");
        // GroupRecord carries no PartialEq; project onto a comparable
        // fingerprint (rep bits, hash, count, reservoir bits).
        let fingerprint = |r: Option<rds_core::GroupRecord>| {
            r.map(|g| {
                (
                    g.rep.coords().iter().map(|c| c.to_bits()).collect::<Vec<_>>(),
                    g.cell_hash,
                    g.count,
                    g.reservoir.coords().iter().map(|c| c.to_bits()).collect::<Vec<_>>(),
                )
            })
        };
        let evicted_q: Vec<_> = (0..4)
            .map(|d| fingerprint(reg.query_at(&id, d).expect("re-touch query")))
            .collect();
        let control_q: Vec<_> = (0..4)
            .map(|d| fingerprint(control.query_at(&id, d).expect("control query")))
            .collect();
        let identical = evicted_f0.to_bits() == control_f0.to_bits() && evicted_q == control_q;
        if !identical {
            eprintln!(
                "  MISMATCH tenant {id}: f0 {evicted_f0} vs control {control_f0} \
                 (bits {:#x} vs {:#x})",
                evicted_f0.to_bits(),
                control_f0.to_bits()
            );
        }
        retouch_ok &= identical;
    }
    eprintln!(
        "  retouch_bit_identical: {retouch_ok} ({} sentinels force-evicted and faulted back)",
        sentinels.len()
    );

    let stats = reg.stats();
    let bounded = max_resident <= budget_words;
    eprintln!(
        "  budget: max resident {} / {} words (bounded: {bounded}); \
         {} spills, {} restores across {} tenants",
        max_resident, budget_words, stats.spills, stats.restores, stats.tenants
    );

    let report = TenantBenchReport {
        key_space,
        theta: THETA,
        budget_words: budget_words as u64,
        words_per_tenant_estimate: per_tenant as u64,
        cold_sweep: cold,
        zipf_steady_state: zipf,
        tenants: stats.tenants,
        resident: stats.resident,
        final_resident_words: stats.resident_words,
        spills: stats.spills,
        restores: stats.restores,
        resident_bounded_by_budget: bounded,
        retouch_bit_identical: retouch_ok,
    };
    let out = std::env::var("RDS_BENCH_OUT").unwrap_or_else(|_| "BENCH_tenants.json".into());
    let json = serde_json::to_string(&report).expect("report serializes");
    std::fs::write(&out, &json).expect("write BENCH_tenants.json");
    eprintln!("wrote {out}");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(bounded, "resident_words exceeded the budget");
    assert!(retouch_ok, "a re-touched sentinel diverged from control");
}
