//! Serde-compatibility acceptance suite for the copy-on-write summary
//! layout: checkpoint containers and snapshot JSON written by the
//! pre-CoW build (fixtures under `tests/fixtures/pre_cow/`, generated
//! before `MergedSummary`/`WindowSummary` moved their candidate sets
//! behind `Arc` handles) must still restore — and re-serialize
//! **bit-identically** — under the current build. `Arc`-backed levels
//! serialize transparently; nothing about the JSON shape changed.
//!
//! The one exception is the window sampler's checkpoint state: the
//! fixtures' `window`/`window-engine` payloads were written by the
//! split/merge hierarchy, whose levels above 0 hold subwindows, not
//! whole-window samples. Restoring one would silently mis-answer, so it
//! must be refused with a typed error that says why. Window *snapshots*
//! (plain summaries) are unaffected.

use rds_core::{GroupRecord, RdsError};
use rds_geometry::Point;
use rds_stream::{Stamp, StreamItem, Window};
use robust_distinct_sampling::{PublishCadence, Rds, Snapshot, WriterCheckpoint};

fn assert_same_records(a: &[GroupRecord], b: &[GroupRecord], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: sample count diverged");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.rep, y.rep, "{what}: representative diverged");
        assert_eq!(x.count, y.count, "{what}: group count diverged");
        assert_eq!(x.cell_hash, y.cell_hash, "{what}: cell hash diverged");
    }
}

/// The exact stream the fixtures were generated from (see the fixture
/// README note in this directory's git history): 24 entities with
/// near-duplicate jitter, 4 items per time step.
fn item(i: u64, n_entities: u64) -> StreamItem {
    let e = i % n_entities;
    let jitter = 0.01 * ((i / n_entities) % 5) as f64;
    StreamItem::new(
        Point::new(vec![e as f64 * 10.0 + jitter, e as f64]),
        Stamp::new(i, i / 4),
    )
}

fn fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/pre_cow")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()))
}

fn variants() -> Vec<(&'static str, Window, usize)> {
    vec![
        ("infinite-1", Window::Infinite, 1),
        ("infinite-3", Window::Infinite, 3),
        ("seq64-1", Window::Sequence(64), 1),
        ("seq64-3", Window::Sequence(64), 3),
        ("time16-1", Window::Time(16), 1),
        ("time16-3", Window::Time(16), 3),
    ]
}

/// A fresh pair over the fixture stream, for behavioral comparison.
fn fresh_reference(window: Window, shards: usize) -> std::sync::Arc<Snapshot> {
    let (mut w, r) = Rds::builder()
        .dim(2)
        .alpha(0.5)
        .seed(23)
        .expected_len(1 << 11)
        .window(window)
        .shards(shards)
        .publish_cadence(PublishCadence::Manual)
        .build_split()
        .expect("valid configuration");
    for i in 0..120 {
        w.process_item(item(i, 24));
    }
    w.publish();
    r.snapshot()
}

#[test]
fn pre_cow_checkpoints_restore_and_recheckpoint_bit_identically() {
    for (name, window, shards) in variants() {
        let text = fixture(&format!("checkpoint-{name}.json"));
        if !window.is_infinite() {
            match WriterCheckpoint::from_container_json(&text) {
                Err(RdsError::Checkpoint { reason }) => assert!(
                    reason.contains("no per-level horizons") && reason.contains("subwindows"),
                    "{name}: rejection does not name its reason: {reason}"
                ),
                Err(e) => panic!("{name}: expected a checkpoint error, got {e}"),
                Ok(_) => panic!("{name}: a split/merge window checkpoint was accepted"),
            }
            continue;
        }
        let chk = WriterCheckpoint::from_container_json(&text)
            .unwrap_or_else(|e| panic!("{name}: pre-CoW checkpoint rejected: {e}"));
        let (mut writer, reader) = Rds::builder()
            .restore(chk)
            .unwrap_or_else(|e| panic!("{name}: restore failed: {e}"));

        // Bit-identical round trip first (before `publish` bumps the
        // epoch): the restored sampler state re-serializes to exactly
        // the bytes the pre-CoW build wrote.
        let rewritten = writer.checkpoint().to_container_json();
        assert_eq!(
            rewritten, text,
            "{name}: re-serialized checkpoint is not bit-identical to the pre-CoW container"
        );

        // The restored pair answers exactly like an uninterrupted run.
        let reference = fresh_reference(window, shards);
        writer.publish();
        let restored = reader.snapshot();
        assert_eq!(restored.seen(), reference.seen(), "{name}: seen diverged");
        assert_eq!(
            restored.f0_estimate(),
            reference.f0_estimate(),
            "{name}: f0 diverged"
        );
        for draw in [1u64, 7, 42] {
            assert_same_records(
                &restored.query_k_at(5, draw),
                &reference.query_k_at(5, draw),
                &format!("{name} restored, draw {draw}"),
            );
        }
    }
}

#[test]
fn pre_cow_snapshots_deserialize_and_reserialize_bit_identically() {
    for (name, window, shards) in variants() {
        let text = fixture(&format!("snapshot-{name}.json"));
        let snap: Snapshot = serde_json::from_str(&text)
            .unwrap_or_else(|e| panic!("{name}: pre-CoW snapshot rejected: {e}"));

        let reference = fresh_reference(window, shards);
        assert_eq!(snap.epoch(), reference.epoch(), "{name}: epoch diverged");
        assert_eq!(snap.seen(), reference.seen(), "{name}: seen diverged");
        assert_eq!(
            snap.f0_estimate(),
            reference.f0_estimate(),
            "{name}: f0 diverged"
        );
        for draw in [1u64, 7, 42] {
            assert_same_records(
                &snap.query_k_at(5, draw),
                &reference.query_k_at(5, draw),
                &format!("{name} snapshot, draw {draw}"),
            );
        }

        // Arc-backed levels serialize transparently: same bytes out.
        let rewritten = serde_json::to_string(&snap).expect("snapshot serializes");
        assert_eq!(
            rewritten, text,
            "{name}: re-serialized snapshot is not bit-identical to the pre-CoW JSON"
        );
    }
}
