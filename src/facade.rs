//! The `Rds` facade: one window-agnostic, shard-agnostic entry point,
//! split into a writer handle and lock-free reader handles.
//!
//! [`Rds::builder`] collects the problem parameters — dimension, the
//! near-duplicate threshold `alpha`, the window model, the shard count —
//! and assembles the backend: one [`ShardedEngine`] over the
//! infinite-window sampler for [`Window::Infinite`], or over the
//! sliding-window hierarchy for a bounded window. The sampler family is
//! picked there, once; the shard count is the engine's business (one
//! shard runs the sampler inline on the writer's thread), so every
//! configuration takes the same writer code path.
//!
//! Two construction paths share that backend:
//!
//! * [`RdsBuilder::build_split`] returns the handle pair
//!   `(RdsWriter, RdsReader)`. The writer owns ingestion and decides when
//!   to [`publish`](RdsWriter::publish) an immutable, epoch-stamped
//!   [`Snapshot`]; readers are `Clone + Send + Sync`, answer every query
//!   with `&self` from the latest published snapshot, and never touch the
//!   ingest hot path — serve them from as many threads as you like.
//! * [`RdsBuilder::build`] returns the classic single-threaded [`Rds`],
//!   now a thin wrapper over the pair that publishes before every query.
//!
//! ```
//! use robust_distinct_sampling::{Rds, geometry::Point};
//!
//! let (mut writer, reader) = Rds::builder()
//!     .dim(1)
//!     .alpha(0.5)
//!     .seed(7)
//!     .build_split()
//!     .expect("valid configuration");
//! for i in 0..200u64 {
//!     writer.process(Point::new(vec![(i % 20) as f64 * 10.0]));
//! }
//! writer.publish();
//! // `reader` is Clone + Send + Sync and queries with `&self`
//! assert_eq!(reader.f0_estimate(), 20.0);
//! let sample = reader.query().expect("stream non-empty");
//! assert_eq!(sample.rep.dim(), 1);
//! ```

use rds_core::{
    Checkpointable, DistinctSampler, GroupRecord, MergedSummary, RdsError, RobustL0Sampler,
    RobustL0State, SamplerConfig, SamplerSummary, SlidingWindowSampler, SlidingWindowState,
    WindowSummary, DEFAULT_KAPPA_B,
};
use rds_engine::{EngineCheckpoint, ShardedEngine};
use rds_geometry::Point;
use rds_stream::{Stamp, StreamItem, Window};
use parking_lot::AtomicArc;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The writer's engine, behind one object-safe interface so a single
/// writer type serves every sampler family. Implemented once,
/// generically, for [`ShardedEngine`].
trait Backend: Send {
    fn ingest_item(&mut self, item: StreamItem);
    fn ingest_batch(&mut self, points: &mut dyn Iterator<Item = Point>);
    fn advance(&mut self, now: Stamp);
    /// Extracts the engine's current state as a frozen snapshot summary —
    /// the one summary-extraction path shared by [`RdsWriter::publish`]
    /// and the warm snapshot every handle pair starts with. The engine
    /// flushes first, so the snapshot covers every ingested item, and
    /// advances window samplers to its clock, so quiet streams still
    /// expire. Copy-on-write: the engine's snapshot `Arc`-shares the
    /// candidate sets of everything untouched since the previous one —
    /// publication cost is proportional to what changed, not to state
    /// size (and no full-summary clone or lock acquisition happens here;
    /// rds-lint rule L6 enforces that invariant).
    fn freeze(&mut self) -> SnapshotSummary;
    fn words(&mut self) -> usize;
    fn checkpoint(&mut self) -> BackendState;
    fn seen(&self) -> u64;
    fn last_stamp(&self) -> Stamp;
    fn shards(&self) -> usize;
    fn config(&self) -> &SamplerConfig;
}

impl<S: Family> Backend for ShardedEngine<S> {
    fn ingest_item(&mut self, item: StreamItem) {
        ShardedEngine::ingest_item(self, item);
    }

    fn ingest_batch(&mut self, points: &mut dyn Iterator<Item = Point>) {
        ShardedEngine::ingest_batch(self, points);
    }

    fn advance(&mut self, now: Stamp) {
        ShardedEngine::advance(self, now);
    }

    fn freeze(&mut self) -> SnapshotSummary {
        self.flush();
        S::snapshot_summary(self.snapshot())
    }

    fn words(&mut self) -> usize {
        ShardedEngine::words(self)
    }

    fn checkpoint(&mut self) -> BackendState {
        S::backend_state(ShardedEngine::checkpoint(self))
    }

    fn seen(&self) -> u64 {
        ShardedEngine::seen(self)
    }

    fn last_stamp(&self) -> Stamp {
        ShardedEngine::last_stamp(self)
    }

    fn shards(&self) -> usize {
        self.n_shards()
    }

    fn config(&self) -> &SamplerConfig {
        ShardedEngine::config(self)
    }
}

/// A sampler family the writer can run. The engine does all the work;
/// the only per-family code is the mapping onto the wire enums
/// [`SnapshotSummary`] and [`BackendState`].
trait Family:
    DistinctSampler<Summary: Clone + Send + 'static> + Checkpointable + Send + 'static
{
    fn snapshot_summary(summary: Self::Summary) -> SnapshotSummary;
    /// One shard stores the bare sampler state (`single`/`window`
    /// kinds), more shards the engine checkpoint (`engine`/
    /// `window-engine`).
    fn backend_state(chk: EngineCheckpoint<Self::State>) -> BackendState;
    /// The inverse of [`Self::backend_state`], lifting a bare sampler
    /// state with `single`; `None` for another family's kinds and for an
    /// engine kind holding one shard (one shard always stores the bare
    /// sampler state).
    fn engine_checkpoint(
        state: BackendState,
        single: impl FnOnce(Self::State) -> EngineCheckpoint<Self::State>,
    ) -> Option<EngineCheckpoint<Self::State>>;
}

impl Family for RobustL0Sampler {
    fn snapshot_summary(summary: MergedSummary) -> SnapshotSummary {
        SnapshotSummary::Infinite(summary)
    }

    fn backend_state(chk: EngineCheckpoint<RobustL0State>) -> BackendState {
        chk.into_single()
            .map_or_else(|chk| BackendState::Engine(*chk), BackendState::Single)
    }

    fn engine_checkpoint(
        state: BackendState,
        single: impl FnOnce(RobustL0State) -> EngineCheckpoint<RobustL0State>,
    ) -> Option<EngineCheckpoint<RobustL0State>> {
        match state {
            BackendState::Single(st) => Some(single(st)),
            BackendState::Engine(chk) if chk.n_shards() > 1 => Some(chk),
            _ => None,
        }
    }
}

impl Family for SlidingWindowSampler {
    fn snapshot_summary(summary: WindowSummary) -> SnapshotSummary {
        SnapshotSummary::Window(summary)
    }

    fn backend_state(chk: EngineCheckpoint<SlidingWindowState>) -> BackendState {
        chk.into_single()
            .map_or_else(|chk| BackendState::WindowEngine(*chk), BackendState::Window)
    }

    fn engine_checkpoint(
        state: BackendState,
        single: impl FnOnce(SlidingWindowState) -> EngineCheckpoint<SlidingWindowState>,
    ) -> Option<EngineCheckpoint<SlidingWindowState>> {
        match state {
            BackendState::Window(st) => Some(single(st)),
            BackendState::WindowEngine(chk) if chk.n_shards() > 1 => Some(chk),
            _ => None,
        }
    }
}

/// The summary a snapshot freezes: merged infinite-window state or pooled
/// window entries. Both are plain immutable data with `&self` queries.
#[derive(Clone, Debug)]
enum SnapshotSummary {
    Infinite(MergedSummary),
    Window(WindowSummary),
}

// The vendored serde derive handles only named-field structs; the enum
// maps to `{ "kind": ..., "summary": ... }` by hand.
impl Serialize for SnapshotSummary {
    fn to_value(&self) -> serde::Value {
        let (kind, inner) = match self {
            SnapshotSummary::Infinite(s) => ("infinite", s.to_value()),
            SnapshotSummary::Window(s) => ("window", s.to_value()),
        };
        serde::Value::Map(vec![
            ("kind".to_string(), serde::Value::Str(kind.to_string())),
            ("summary".to_string(), inner),
        ])
    }
}

impl Deserialize for SnapshotSummary {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        let kind = match value.get("kind") {
            Some(serde::Value::Str(s)) => s.as_str(),
            _ => return Err(serde::DeError::missing("kind")),
        };
        let inner = value
            .get("summary")
            .ok_or_else(|| serde::DeError::missing("summary"))?;
        match kind {
            "infinite" => Ok(SnapshotSummary::Infinite(MergedSummary::from_value(inner)?)),
            "window" => Ok(SnapshotSummary::Window(WindowSummary::from_value(inner)?)),
            other => Err(serde::DeError::custom(format!(
                "unknown snapshot kind `{other}`"
            ))),
        }
    }
}

/// A frozen, epoch-stamped view of everything the writer had published:
/// immutable plain data, so any number of readers (or offline consumers —
/// it serializes, see `rds snapshot`) can query it concurrently with
/// `&self`.
///
/// Randomness is explicit: [`Snapshot::query_at`] / [`Snapshot::query_k_at`]
/// take a `draw` token that fully determines the draw. [`RdsReader`]
/// passes fresh tokens for you (one shared counter across all clones of
/// a pair).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Snapshot {
    epoch: u64,
    seen: u64,
    window: Window,
    summary: SnapshotSummary,
}

impl Snapshot {
    /// The publication number: 0 for the empty snapshot every handle pair
    /// starts with, then incremented by one per [`RdsWriter::publish`].
    /// Strictly monotone per writer — readers can detect staleness by
    /// comparing epochs.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of items the writer had processed when this snapshot was
    /// published (all of them are covered by the snapshot).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The window model the handle pair was built with.
    pub fn window(&self) -> Window {
        self.window
    }

    /// The estimate of the number of distinct entities covered (live
    /// entities, for window snapshots).
    pub fn f0_estimate(&self) -> f64 {
        match &self.summary {
            SnapshotSummary::Infinite(s) => s.f0_estimate(),
            SnapshotSummary::Window(s) => SamplerSummary::f0_estimate(s),
        }
    }

    /// Draws one uniformly random sampled entity; the `draw` token
    /// supplies all randomness (same token, same result). `None` iff the
    /// snapshot covers no entity.
    pub fn query_at(&self, draw: u64) -> Option<GroupRecord> {
        match &self.summary {
            SnapshotSummary::Infinite(s) => s.query_record(draw),
            SnapshotSummary::Window(s) => SamplerSummary::query_record(s, draw),
        }
    }

    /// Draws up to `k` distinct sampled entities, deterministically in
    /// `draw`.
    pub fn query_k_at(&self, k: usize, draw: u64) -> Vec<GroupRecord> {
        match &self.summary {
            SnapshotSummary::Infinite(s) => s.query_k(k, draw),
            SnapshotSummary::Window(s) => SamplerSummary::query_k(s, k, draw),
        }
    }
}

/// The shared slot a writer publishes into and readers load from: a
/// lock-free epoch pointer ([`AtomicArc`]). Readers obtain the current
/// snapshot with a single atomic pointer load (plus a pin/unpin pair for
/// reclamation) and never block; the writer publishes with one atomic
/// swap and never takes a lock — there is no lock to poison, so a
/// panicking thread can never leave the cell torn or readers stuck
/// (snapshots are swapped in whole or not at all).
#[derive(Debug)]
struct SnapshotCell {
    current: AtomicArc<Snapshot>,
}

impl SnapshotCell {
    fn new(initial: Snapshot) -> Self {
        Self {
            current: AtomicArc::new(Arc::new(initial)),
        }
    }

    fn load(&self) -> Arc<Snapshot> {
        self.current.load()
    }

    fn store(&self, snapshot: Snapshot) {
        self.current.store(Arc::new(snapshot));
    }
}

/// Local shorthand for [`RdsError::checkpoint`].
fn checkpoint_err(reason: impl Into<String>) -> RdsError {
    RdsError::checkpoint(reason)
}

/// FNV-1a over the canonical payload JSON — the container's integrity
/// check. Not cryptographic; it catches truncation and bit rot, not
/// adversaries. Public because every container in the checkpoint family
/// (writer checkpoints here, tenant spill containers in `rds-tenant`)
/// shares this one checksum so a mixed-up file fails loudly instead of
/// parsing.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Magic string identifying an rds checkpoint container file.
pub const CHECKPOINT_MAGIC: &str = "rds-checkpoint";

/// The checkpoint container format version this build writes and reads.
pub const CHECKPOINT_FORMAT_VERSION: u64 = 1;

/// The backend's full state inside a [`WriterCheckpoint`] — one wire
/// kind per (window, sharding) combination: a one-shard writer stores
/// its bare sampler state, a sharded one the engine checkpoint.
#[derive(Clone, Debug)]
enum BackendState {
    Single(RobustL0State),
    Window(SlidingWindowState),
    Engine(EngineCheckpoint<RobustL0State>),
    WindowEngine(EngineCheckpoint<SlidingWindowState>),
}

// The vendored serde derive handles only named-field structs; the enum
// maps to `{ "kind": ..., "state": ... }` by hand.
impl Serialize for BackendState {
    fn to_value(&self) -> serde::Value {
        let (kind, inner) = match self {
            BackendState::Single(s) => ("single", s.to_value()),
            BackendState::Window(s) => ("window", s.to_value()),
            BackendState::Engine(s) => ("engine", s.to_value()),
            BackendState::WindowEngine(s) => ("window-engine", s.to_value()),
        };
        serde::Value::Map(vec![
            ("kind".to_string(), serde::Value::Str(kind.to_string())),
            ("state".to_string(), inner),
        ])
    }
}

impl Deserialize for BackendState {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        let kind = match value.get("kind") {
            Some(serde::Value::Str(s)) => s.as_str(),
            _ => return Err(serde::DeError::missing("kind")),
        };
        let inner = value
            .get("state")
            .ok_or_else(|| serde::DeError::missing("state"))?;
        match kind {
            "single" => Ok(BackendState::Single(Deserialize::from_value(inner)?)),
            "window" => Ok(BackendState::Window(Deserialize::from_value(inner)?)),
            "engine" => Ok(BackendState::Engine(Deserialize::from_value(inner)?)),
            "window-engine" => Ok(BackendState::WindowEngine(Deserialize::from_value(inner)?)),
            other => Err(serde::DeError::custom(format!(
                "unknown backend state kind `{other}`"
            ))),
        }
    }
}

/// The complete durable state of an [`RdsWriter`]: a config echo (the
/// resolved [`SamplerConfig`] plus window model, shard count and
/// `count_accuracy` target), the publication clock, and the backend's
/// full sampler state. Produced by [`RdsWriter::checkpoint`] /
/// [`RdsWriter::checkpoint_to`], consumed by [`RdsBuilder::restore`] /
/// [`RdsBuilder::restore_from`].
///
/// On disk it lives inside a versioned container:
///
/// ```json
/// { "magic": "rds-checkpoint", "version": 1,
///   "checksum": <fnv1a64 of the canonical payload JSON>,
///   "payload": { ...this struct... } }
/// ```
///
/// A mismatched magic, an unsupported version, a failing checksum, or a
/// config echo that contradicts explicitly-set builder parameters all
/// surface as [`RdsError::Checkpoint`] — never as silently corrupt
/// estimates.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WriterCheckpoint {
    cfg: SamplerConfig,
    window: Window,
    shards: usize,
    eps: Option<f64>,
    fed: u64,
    last_stamp: Stamp,
    epoch: u64,
    /// Whether the captured content differs from what the checkpointed
    /// epoch last published (items processed since, or a window
    /// [`RdsWriter::advance`] that may have expired entries). A dirty
    /// checkpoint restores under the *next* epoch — epochs version
    /// content.
    dirty: bool,
    backend: BackendState,
}

impl WriterCheckpoint {
    /// The resolved sampler configuration echoed into the checkpoint.
    pub fn cfg(&self) -> &SamplerConfig {
        &self.cfg
    }

    /// The window model the checkpointed pair was built with.
    pub fn window(&self) -> Window {
        self.window
    }

    /// The shard count the checkpointed pair was built with.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Number of items the checkpointed writer had processed.
    pub fn seen(&self) -> u64 {
        self.fed
    }

    /// The epoch of the checkpointed writer's latest publication.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Serializes the checkpoint into the versioned, checksummed JSON
    /// container format.
    pub fn to_container_json(&self) -> String {
        let payload_json =
            // lint:allow(L1) serializing an in-memory Value tree has no
            // I/O and no unrepresentable cases; it cannot fail
            serde_json::to_string(&self.to_value()).expect("value serialization is infallible");
        let checksum = fnv1a64(payload_json.as_bytes());
        // Splice the payload text instead of re-serializing the tree: the
        // payload is by far the largest JSON this library produces, and
        // splicing guarantees the checksummed bytes ARE the stored bytes.
        // The spliced string is byte-identical to serializing the whole
        // container Value (compact writer, declaration-ordered keys) —
        // `container_json_round_trips_the_checkpoint` pins that down.
        format!(
            "{{\"magic\":\"{CHECKPOINT_MAGIC}\",\
             \"version\":{CHECKPOINT_FORMAT_VERSION},\
             \"checksum\":{checksum},\
             \"payload\":{payload_json}}}"
        )
    }

    /// Parses and verifies a container produced by
    /// [`Self::to_container_json`].
    ///
    /// # Errors
    ///
    /// [`RdsError::Checkpoint`] naming what failed: unparseable JSON, a
    /// missing or wrong magic, an unsupported format version, a checksum
    /// mismatch (truncated or bit-rotted payload), or a malformed
    /// payload.
    pub fn from_container_json(text: &str) -> Result<Self, RdsError> {
        let container: serde::Value = serde_json::from_str(text)
            .map_err(|e| checkpoint_err(format!("not a valid JSON container: {e}")))?;
        match container.get("magic") {
            Some(serde::Value::Str(m)) if m == CHECKPOINT_MAGIC => {}
            Some(serde::Value::Str(m)) => {
                return Err(checkpoint_err(format!(
                    "bad magic `{m}` (expected `{CHECKPOINT_MAGIC}`)"
                )))
            }
            _ => {
                return Err(checkpoint_err(format!(
                    "missing magic (expected `{CHECKPOINT_MAGIC}`) — not a checkpoint file?"
                )))
            }
        }
        let version = container
            .get("version")
            .map(u64::from_value)
            .transpose()
            .map_err(|e| checkpoint_err(format!("bad version field: {e}")))?
            .ok_or_else(|| checkpoint_err("missing format version"))?;
        if version != CHECKPOINT_FORMAT_VERSION {
            return Err(checkpoint_err(format!(
                "unsupported format version {version} (this build reads \
                 version {CHECKPOINT_FORMAT_VERSION})"
            )));
        }
        let expected = container
            .get("checksum")
            .map(u64::from_value)
            .transpose()
            .map_err(|e| checkpoint_err(format!("bad checksum field: {e}")))?
            .ok_or_else(|| checkpoint_err("missing checksum"))?;
        let payload = container
            .get("payload")
            .ok_or_else(|| checkpoint_err("missing payload"))?;
        let payload_json =
            // lint:allow(L1) serializing an in-memory Value tree has no
            // I/O and no unrepresentable cases; it cannot fail
            serde_json::to_string(payload).expect("value serialization is infallible");
        let actual = fnv1a64(payload_json.as_bytes());
        if actual != expected {
            return Err(checkpoint_err(format!(
                "checksum mismatch (stored {expected:#018x}, computed {actual:#018x}) — \
                 the payload was truncated or altered"
            )));
        }
        WriterCheckpoint::from_value(payload)
            .map_err(|e| checkpoint_err(format!("malformed payload: {e}")))
    }

    /// Rebuilds the family-`S` engine the backend state describes, after
    /// checking it against the config, window and shard echo. Per-shard
    /// validation (each state's embedded config, shard window agreement)
    /// happens inside [`ShardedEngine::try_restore`]; here only the
    /// echo-level facts the engine cannot know are checked.
    fn into_engine<S: Family>(self) -> Result<Box<dyn Backend>, RdsError> {
        let single = |st| EngineCheckpoint::single(self.cfg.clone(), st, self.fed, self.last_stamp);
        let Some(chk) = S::engine_checkpoint(self.backend, single) else {
            return Err(checkpoint_err(
                "backend state kind does not match the checkpoint's \
                 window/shard echo",
            ));
        };
        if *chk.config() != self.cfg {
            return Err(checkpoint_err(
                "backend sampler state embeds a configuration differing \
                 from the checkpoint's config echo",
            ));
        }
        if chk.n_shards() != self.shards {
            return Err(checkpoint_err(format!(
                "backend state holds {} shards but the checkpoint echoes {}",
                chk.n_shards(),
                self.shards
            )));
        }
        if let Some(w) = chk.states().first().and_then(S::state_window) {
            if w != self.window {
                return Err(checkpoint_err(format!(
                    "window state covers {w:?} but the checkpoint echoes {:?}",
                    self.window
                )));
            }
        }
        Ok(Box::new(ShardedEngine::<S>::try_restore(chk)?))
    }
}

/// When the writer publishes a fresh [`Snapshot`] on its own, besides
/// explicit [`RdsWriter::publish`] calls.
///
/// Publication costs one summary extraction (and, sharded, one flush +
/// per-shard snapshot round trip), so the cadence trades reader freshness
/// against ingest throughput: `EveryN(4096)` (the default) keeps readers
/// at most 4096 items behind; `Manual` gives latency-insensitive
/// pipelines full control; `EveryBatch` pins freshness to
/// [`RdsWriter::process_batch`] boundaries. What one publish costs
/// depends on the shard count and the state size; the traced run of the
/// repo benchmark reports it as `facade.publish_us_p50` (see
/// `perfbench/README.md`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PublishCadence {
    /// Only explicit [`RdsWriter::publish`] calls publish.
    Manual,
    /// Publish after every `n` processed items (and on `publish`).
    EveryN(u64),
    /// Publish at the end of every [`RdsWriter::process_batch`] call
    /// (and on `publish`).
    EveryBatch,
}

/// The default automatic publication interval (items).
pub const DEFAULT_PUBLISH_EVERY: u64 = 4096;

/// The ingestion half of a split handle pair: owns the backend, feeds it,
/// and publishes immutable [`Snapshot`]s for the [`RdsReader`]s.
///
/// The writer is deliberately not `Clone`: one thread ingests. Everything
/// the serving path needs lives in the reader.
pub struct RdsWriter {
    engine: Box<dyn Backend>,
    window: Window,
    /// The `count_accuracy` target the pair was built with, echoed into
    /// checkpoints so a restore can verify the threshold regime matches.
    eps: Option<f64>,
    epoch: u64,
    since_publish: u64,
    /// Whether [`Self::advance`] moved a window backend's clock since the
    /// last publication. `since_publish` counts *items*, but an advance
    /// mutates window content without one — both must dirty the state,
    /// or a checkpoint taken after publish-then-advance would restore
    /// different content under an already-served epoch.
    advanced_since_publish: bool,
    cadence: PublishCadence,
    cell: Arc<SnapshotCell>,
}

impl std::fmt::Debug for RdsWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RdsWriter")
            .field("window", &self.window)
            .field("shards", &self.shards())
            .field("fed", &self.seen())
            .field("epoch", &self.epoch)
            .field("cadence", &self.cadence)
            .finish_non_exhaustive()
    }
}

impl RdsWriter {
    /// Wraps `engine` into a handle pair whose readers start with its
    /// current state, published as `epoch`.
    fn pair(
        mut engine: Box<dyn Backend>,
        window: Window,
        eps: Option<f64>,
        epoch: u64,
        cadence: PublishCadence,
    ) -> (RdsWriter, RdsReader) {
        let snapshot = Snapshot {
            epoch,
            seen: engine.seen(),
            window,
            summary: engine.freeze(),
        };
        let cell = Arc::new(SnapshotCell::new(snapshot));
        let reader = RdsReader {
            cell: Arc::clone(&cell),
            draws: Arc::new(AtomicU64::new(0)),
        };
        let writer = RdsWriter {
            engine,
            window,
            eps,
            epoch,
            since_publish: 0,
            advanced_since_publish: false,
            cadence,
            cell,
        };
        (writer, reader)
    }

    /// Feeds one point, stamped with the arrival index (sequence number
    /// == timestamp). Use [`Self::process_item`] for explicit timestamps
    /// (time-based windows).
    pub fn process(&mut self, p: Point) {
        let stamp = Stamp::at(self.seen());
        self.process_item(StreamItem::new(p, stamp));
    }

    /// Feeds one stamped stream item. Stamps must be non-decreasing.
    pub fn process_item(&mut self, item: StreamItem) {
        self.engine.ingest_item(item);
        self.tick(1);
    }

    /// Counts `events` state changes toward [`PublishCadence::EveryN`],
    /// publishing when the interval is due.
    fn tick(&mut self, events: u64) {
        self.since_publish += events;
        if let PublishCadence::EveryN(n) = self.cadence {
            if self.since_publish >= n.max(1) {
                self.publish();
            }
        }
    }

    /// Feeds every point of an iterator (stamped by arrival index), then
    /// publishes if the cadence is [`PublishCadence::EveryBatch`] and the
    /// batch contained at least one item: every non-empty batch produces
    /// exactly one epoch bump, an empty batch produces none (there is
    /// nothing new to publish, and readers comparing epochs would
    /// otherwise see phantom updates).
    ///
    /// The points go to the engine in runs ([`ShardedEngine::ingest_batch`]:
    /// one shard feeds its sampler's batched arrival path, one hash sweep
    /// per chunk instead of one per point) — the resulting sampler state
    /// is identical to per-point feeding. Under
    /// [`PublishCadence::EveryN`] each run ends where a publish falls due,
    /// so publications land on exactly the same items as per-point
    /// feeding would put them.
    pub fn process_batch<I>(&mut self, points: I)
    where
        I: IntoIterator<Item = Point>,
    {
        let before = self.seen();
        let mut points = points.into_iter();
        loop {
            let room = match self.cadence {
                PublishCadence::EveryN(n) => n.max(1).saturating_sub(self.since_publish),
                _ => u64::MAX,
            };
            let room = usize::try_from(room).unwrap_or(usize::MAX).max(1);
            let fed = self.seen();
            self.engine.ingest_batch(&mut points.by_ref().take(room));
            let n = self.seen() - fed;
            if n == 0 {
                break;
            }
            self.tick(n);
        }
        if self.cadence == PublishCadence::EveryBatch && self.seen() > before {
            self.publish();
        }
    }

    /// Advances the clock to `now` without feeding a point: window
    /// entries older than `now` expire — immediately for one shard, at
    /// the next snapshot for sharded backends — so the next published
    /// snapshot never serves them (a no-op for the infinite window).
    /// Stamps must be non-decreasing; an older `now` is ignored.
    ///
    /// Under [`PublishCadence::EveryN`], an advance that moves the clock
    /// of a window backend counts as one tick (the counter counts
    /// *state-changing events*, not just items): a quiet windowed stream
    /// that only advances still republishes every `n` events, so readers
    /// never serve arbitrarily stale expiry state between publishes.
    pub fn advance(&mut self, now: Stamp) {
        let moved = now > self.engine.last_stamp();
        self.engine.advance(now);
        if moved && !self.window.is_infinite() {
            // Window content may have changed (expiry) without an item.
            self.advanced_since_publish = true;
            self.tick(1);
        }
    }

    /// Publishes a fresh [`Snapshot`] covering every processed item and
    /// returns its epoch. Readers see it on their next query; snapshots
    /// they already hold stay valid (they are immutable).
    ///
    /// This is the only point where the writer does read-side work, and
    /// it is copy-on-write: sharded backends flush their batch buffers
    /// and re-merge only when a shard actually changed; one-shard
    /// backends `Arc`-share every candidate set untouched since the
    /// previous publish. A publish with nothing new is `O(1)`; one after
    /// `k` changed levels copies those levels only — never the whole
    /// state. The snapshot swap itself is one lock-free atomic store.
    pub fn publish(&mut self) -> u64 {
        let summary = self.engine.freeze();
        self.epoch += 1;
        self.since_publish = 0;
        self.advanced_since_publish = false;
        // Epoch monotonicity: the slot never goes backwards — readers
        // order snapshots by epoch, and restore seeds `self.epoch` from
        // the checkpoint precisely to keep this holding across restarts.
        debug_assert!(
            self.cell.load().epoch() < self.epoch,
            "published epoch must advance past the visible snapshot"
        );
        self.cell.store(Snapshot {
            epoch: self.epoch,
            seen: self.seen(),
            window: self.window,
            summary,
        });
        self.epoch
    }

    /// Number of items fed through this writer (published or not).
    pub fn seen(&self) -> u64 {
        self.engine.seen()
    }

    /// The epoch of the latest published snapshot (0 = only the initial
    /// empty snapshot exists).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The window model in force.
    pub fn window(&self) -> Window {
        self.window
    }

    /// The shard count (1 = the sampler runs inline on the writer's
    /// thread).
    pub fn shards(&self) -> usize {
        self.engine.shards()
    }

    /// The ambient dimension the pair was built for (useful after a
    /// [`RdsBuilder::restore_from`], where the dimension comes from the
    /// checkpoint's config echo rather than the caller).
    pub fn dim(&self) -> usize {
        self.engine.config().dim
    }

    /// The backend's in-memory footprint in machine words — the paper's
    /// space-accounting unit ([`DistinctSampler::words`]), and the
    /// metering hook the multi-tenant registry charges its global budget
    /// with. Sharded backends are quiesced first (batch buffers flushed,
    /// the per-shard reads queued FIFO behind in-flight batches), so the
    /// figure covers every processed item; `&mut` for exactly that
    /// reason.
    pub fn words(&mut self) -> usize {
        self.engine.words()
    }

    /// The publication cadence in force.
    pub fn cadence(&self) -> PublishCadence {
        self.cadence
    }

    /// Changes the publication cadence mid-stream.
    pub fn set_cadence(&mut self, cadence: PublishCadence) {
        self.cadence = cadence;
    }

    /// Captures the writer's complete state as a [`WriterCheckpoint`]:
    /// the config echo, the publication clock, and the backend's full
    /// sampler state (per shard, for sharded backends). Sharded backends
    /// are quiesced first (batch buffers flushed, state capture queued
    /// behind every in-flight batch), so the checkpoint covers every item
    /// ever processed. The writer keeps running — checkpointing is
    /// non-destructive.
    pub fn checkpoint(&mut self) -> WriterCheckpoint {
        let backend = self.engine.checkpoint();
        WriterCheckpoint {
            cfg: self.engine.config().clone(),
            window: self.window,
            shards: self.shards(),
            eps: self.eps,
            fed: self.seen(),
            last_stamp: self.engine.last_stamp(),
            epoch: self.epoch,
            dirty: self.since_publish > 0 || self.advanced_since_publish,
            backend,
        }
    }

    /// Writes a durable checkpoint to `path`: the [`WriterCheckpoint`] in
    /// the versioned, checksummed JSON container that
    /// [`RdsBuilder::restore_from`] reads back.
    ///
    /// The write is atomic-by-rename (a sibling temp file is written and
    /// renamed over `path`), so a crash or full disk mid-write leaves any
    /// previous checkpoint at `path` intact — the one moment a durability
    /// subsystem must not destroy its own prior state is while persisting
    /// the next one.
    ///
    /// # Errors
    ///
    /// [`RdsError::Checkpoint`] when the file cannot be written.
    pub fn checkpoint_to(&mut self, path: impl AsRef<std::path::Path>) -> Result<(), RdsError> {
        let path = path.as_ref();
        let json = self.checkpoint().to_container_json();
        rds_core::persist::write_atomic(path, json)
            .map_err(|e| checkpoint_err(format!("write {}: {e}", path.display())))
    }
}

/// The serving half of a split handle pair: answers `query`/`query_k`/
/// `f0_estimate`/`seen` from the latest published [`Snapshot`] with
/// `&self`, never touching the ingest path.
///
/// `RdsReader` is `Clone + Send + Sync`: clone it into every serving
/// thread. All clones of a pair share one draw counter, so every query —
/// from any thread — consumes a fresh token and no two handles ever
/// replay each other's draws; the only shared mutable state is that
/// counter bump and the snapshot slot's brief `Arc` swap. (To *replay* a
/// draw deliberately, use [`Snapshot::query_at`] with an explicit
/// token.)
#[derive(Clone, Debug)]
pub struct RdsReader {
    cell: Arc<SnapshotCell>,
    draws: Arc<AtomicU64>,
}

impl RdsReader {
    fn next_draw(&self) -> u64 {
        self.draws.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The latest published snapshot. The `Arc` stays valid (and
    /// immutable) however long the caller holds it; later publications do
    /// not disturb it.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.cell.load()
    }

    /// Draws one uniformly random sampled entity from the latest
    /// snapshot. `None` iff nothing was published yet (or nothing is live
    /// in the window).
    pub fn query(&self) -> Option<GroupRecord> {
        self.snapshot().query_at(self.next_draw())
    }

    /// Draws up to `k` distinct sampled entities from the latest
    /// snapshot.
    pub fn query_k(&self, k: usize) -> Vec<GroupRecord> {
        self.snapshot().query_k_at(k, self.next_draw())
    }

    /// The estimate of the number of distinct entities in the latest
    /// snapshot (live entities, for window backends).
    pub fn f0_estimate(&self) -> f64 {
        self.snapshot().f0_estimate()
    }

    /// Number of items covered by the latest snapshot.
    pub fn seen(&self) -> u64 {
        self.snapshot().seen()
    }

    /// The epoch of the latest snapshot — monotonically non-decreasing
    /// across calls on any reader of the pair.
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch()
    }
}

/// A unified robust-distinct-sampling handle over any window model and
/// shard count — the single-threaded convenience wrapper over the
/// [`RdsWriter`]/[`RdsReader`] pair ([`Rds::builder`] + `build_split`
/// for concurrent serving). Queries publish implicitly, so results always
/// reflect every processed item.
pub struct Rds {
    writer: RdsWriter,
    reader: RdsReader,
}

/// Fallible builder for [`Rds`] and the split handle pair; `dim` and
/// `alpha` are required, all other parameters have the library defaults.
/// Validation happens in [`Self::build`] / [`Self::build_split`] and
/// surfaces as [`RdsError`] — no panics.
///
/// Every parameter is tracked as explicitly-set vs defaulted so that
/// [`Self::restore_from`] can compare what the caller asked for against a
/// checkpoint's config echo: parameters left unset adopt the checkpoint's
/// values, parameters set to a conflicting value fail with
/// [`RdsError::Checkpoint`].
#[derive(Clone, Debug, Default)]
pub struct RdsBuilder {
    dim: Option<usize>,
    alpha: Option<f64>,
    window: Option<Window>,
    shards: Option<usize>,
    seed: Option<u64>,
    expected_len: Option<u64>,
    k: Option<usize>,
    kappa0: Option<f64>,
    eps: Option<f64>,
    cadence: Option<PublishCadence>,
}

/// The default PRNG seed of [`Rds::builder`].
const DEFAULT_SEED: u64 = 0xC0FF_EE00;

/// The default expected stream length of [`Rds::builder`].
const DEFAULT_EXPECTED_LEN: u64 = 1 << 20;

impl RdsBuilder {
    /// Sets the ambient dimension `d` (required).
    pub fn dim(mut self, dim: usize) -> Self {
        self.dim = Some(dim);
        self
    }

    /// Sets the near-duplicate distance threshold `alpha` (required).
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.alpha = Some(alpha);
        self
    }

    /// Restricts queries to a sliding window ([`Window::Sequence`] /
    /// [`Window::Time`]); [`Window::Infinite`] (the default) covers the
    /// whole stream.
    pub fn window(mut self, window: Window) -> Self {
        self.window = Some(window);
        self
    }

    /// Shards ingestion across `n` worker threads (default 1 = the
    /// sampler runs inline on the writer's thread). Works for every
    /// window model.
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = Some(n);
        self
    }

    /// Sets the PRNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Sets the expected stream length `m` (an estimate is fine).
    pub fn expected_len(mut self, m: u64) -> Self {
        self.expected_len = Some(m);
        self
    }

    /// Sets the number of distinct samples per query (scales the accept
    /// thresholds, Section 2.3).
    pub fn k(mut self, k: usize) -> Self {
        self.k = Some(k);
        self
    }

    /// Overrides the threshold constant `kappa_0`.
    pub fn kappa0(mut self, kappa0: f64) -> Self {
        self.kappa0 = Some(kappa0);
        self
    }

    /// Tunes the handle for F0 estimation at relative error `eps`
    /// (Section 5): the accept-set threshold becomes
    /// `ceil(kappa_B / eps^2)` instead of `kappa_0 k log m`.
    pub fn count_accuracy(mut self, eps: f64) -> Self {
        self.eps = Some(eps);
        self
    }

    /// Sets the snapshot publication cadence of the split pair (default
    /// [`PublishCadence::EveryN`] with [`DEFAULT_PUBLISH_EVERY`]).
    pub fn publish_cadence(mut self, cadence: PublishCadence) -> Self {
        self.cadence = Some(cadence);
        self
    }

    /// Shorthand for `publish_cadence(PublishCadence::EveryN(n))`.
    pub fn publish_every(self, n: u64) -> Self {
        self.publish_cadence(PublishCadence::EveryN(n))
    }

    /// Validates every parameter, assembles the backend and splits it
    /// into the ingestion and serving handles. The pair starts with an
    /// empty epoch-0 snapshot, so readers are usable (if empty-handed)
    /// before the first publication.
    ///
    /// # Errors
    ///
    /// Any [`RdsError`]: missing/invalid `dim` or `alpha`, a bad window,
    /// shard count, `k`, `kappa0`, or `eps` — never a panic.
    pub fn build_split(self) -> Result<(RdsWriter, RdsReader), RdsError> {
        let dim = self.dim.unwrap_or(0); // 0 is rejected by validation below
        let alpha = self.alpha.unwrap_or(f64::NAN); // NaN likewise
        let window = self.window.unwrap_or(Window::Infinite);
        let shards = self.shards.unwrap_or(1);
        let mut b = SamplerConfig::builder(dim, alpha)
            .seed(self.seed.unwrap_or(DEFAULT_SEED))
            .expected_len(self.expected_len.unwrap_or(DEFAULT_EXPECTED_LEN))
            .k(self.k.unwrap_or(1));
        if let Some(kappa0) = self.kappa0 {
            b = b.kappa0(kappa0);
        }
        let cfg = b.build()?;
        let threshold = match self.eps {
            Some(eps) => {
                if !(eps > 0.0 && eps <= 1.0) {
                    return Err(RdsError::InvalidEps { eps });
                }
                (DEFAULT_KAPPA_B / (eps * eps)).ceil().max(1.0) as usize
            }
            None => cfg.threshold(),
        };
        // The sampler family is picked here, once; the engine owns the
        // shard count (and rejects zero).
        let engine: Box<dyn Backend> = match window {
            Window::Infinite => {
                Box::new(ShardedEngine::try_with_threshold(cfg, shards, threshold)?)
            }
            window => Box::new(ShardedEngine::try_sliding_window_with_threshold(
                cfg, window, shards, threshold,
            )?),
        };
        // The epoch-0 snapshot: empty but well-formed, so readers work
        // (and report `seen() == 0`) before the first publication.
        let cadence = self.resolved_cadence();
        Ok(RdsWriter::pair(engine, window, self.eps, 0, cadence))
    }

    /// The cadence in force after defaulting.
    fn resolved_cadence(&self) -> PublishCadence {
        self.cadence
            .unwrap_or(PublishCadence::EveryN(DEFAULT_PUBLISH_EVERY))
    }

    /// Restores a writer/reader pair from a checkpoint captured with
    /// [`RdsWriter::checkpoint`]: the backend is rebuilt from the saved
    /// sampler state (same candidate sets, clocks and PRNG positions), so
    /// continued ingestion and queries are bit-identical to a pair that
    /// never stopped. The pair starts with a warm snapshot so readers
    /// answer immediately — at the checkpointed epoch when the checkpoint
    /// coincided with a publication, at the next epoch otherwise (the
    /// warm content then covers items epoch `chk.epoch` never served, and
    /// epochs version content).
    ///
    /// Builder parameters left unset adopt the checkpoint's config echo;
    /// parameters set explicitly must match it. The publication cadence
    /// is the exception — it is a runtime preference, not state, and the
    /// restored writer uses whatever this builder configures.
    ///
    /// # Errors
    ///
    /// [`RdsError::Checkpoint`] when an explicitly-set parameter
    /// contradicts the config echo, or when the checkpoint is internally
    /// inconsistent (backend state of the wrong kind, embedded
    /// configuration differing from the echo, malformed sampler state).
    pub fn restore(self, chk: WriterCheckpoint) -> Result<(RdsWriter, RdsReader), RdsError> {
        fn ensure<T: PartialEq + std::fmt::Debug>(
            set: Option<T>,
            echoed: T,
            name: &str,
        ) -> Result<(), RdsError> {
            match set {
                Some(v) if v != echoed => Err(checkpoint_err(format!(
                    "config mismatch: {name} set to {v:?} but the checkpoint \
                     was built with {echoed:?}"
                ))),
                _ => Ok(()),
            }
        }
        ensure(self.dim, chk.cfg.dim, "dim")?;
        ensure(self.alpha, chk.cfg.alpha, "alpha")?;
        ensure(self.window, chk.window, "window")?;
        ensure(self.shards, chk.shards, "shards")?;
        ensure(self.seed, chk.cfg.seed, "seed")?;
        ensure(self.expected_len, chk.cfg.expected_len, "expected_len")?;
        ensure(self.k, chk.cfg.k, "k")?;
        ensure(self.kappa0, chk.cfg.kappa0, "kappa0")?;
        ensure(self.eps, chk.eps.unwrap_or(f64::NAN), "count_accuracy eps")?;
        chk.cfg.validate()?;

        // A warm snapshot, so readers answer immediately. Epochs version
        // *content*: when the checkpointed state differs from what epoch
        // `chk.epoch` last published (items processed since, or a window
        // advance that expired entries), the warm snapshot is published
        // as `chk.epoch + 1`, never as a reused epoch with different
        // content. A clean checkpoint keeps its epoch — the full state IS
        // the last published content.
        let epoch = if chk.dirty { chk.epoch + 1 } else { chk.epoch };
        let (window, eps) = (chk.window, chk.eps);
        // The sampler family is picked here, once, from the window echo.
        let engine = match window {
            Window::Infinite => chk.into_engine::<RobustL0Sampler>()?,
            _ => chk.into_engine::<SlidingWindowSampler>()?,
        };
        Ok(RdsWriter::pair(engine, window, eps, epoch, self.resolved_cadence()))
    }

    /// Reads, verifies and restores a checkpoint container written by
    /// [`RdsWriter::checkpoint_to`] — see [`Self::restore`].
    ///
    /// # Errors
    ///
    /// [`RdsError::Checkpoint`] for an unreadable file or any
    /// [`WriterCheckpoint::from_container_json`] / [`Self::restore`]
    /// failure.
    pub fn restore_from(
        self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<(RdsWriter, RdsReader), RdsError> {
        let text = std::fs::read_to_string(path.as_ref()).map_err(|e| {
            checkpoint_err(format!("read {}: {e}", path.as_ref().display()))
        })?;
        self.restore(WriterCheckpoint::from_container_json(&text)?)
    }

    /// Validates every parameter and assembles the single-threaded
    /// [`Rds`] wrapper over the split pair. The cadence is forced to
    /// [`PublishCadence::Manual`]: `Rds` publishes before every query
    /// anyway, so automatic mid-stream publications would be pure
    /// overhead nothing ever reads.
    ///
    /// # Errors
    ///
    /// As [`Self::build_split`].
    pub fn build(self) -> Result<Rds, RdsError> {
        let (writer, reader) = self
            .publish_cadence(PublishCadence::Manual)
            .build_split()?;
        Ok(Rds { writer, reader })
    }
}

impl Rds {
    /// Starts a builder with the library defaults.
    pub fn builder() -> RdsBuilder {
        RdsBuilder::default()
    }

    /// Feeds one point, stamped with the arrival index (sequence number
    /// == timestamp). Use [`Self::process_item`] for explicit timestamps
    /// (time-based windows).
    pub fn process(&mut self, p: Point) {
        self.writer.process(p);
    }

    /// Feeds one stamped stream item. Stamps must be non-decreasing.
    pub fn process_item(&mut self, item: StreamItem) {
        self.writer.process_item(item);
    }

    /// Draws one uniformly random sampled entity, owned. `None` iff
    /// nothing was processed (or nothing is live in the window).
    /// Publishes first, so the result covers every processed item.
    pub fn query(&mut self) -> Option<GroupRecord> {
        self.writer.publish();
        self.reader.query()
    }

    /// Draws up to `k` distinct sampled entities, owned.
    pub fn query_k(&mut self, k: usize) -> Vec<GroupRecord> {
        self.writer.publish();
        self.reader.query_k(k)
    }

    /// The estimate of the number of distinct entities (in the window,
    /// for window backends).
    pub fn f0_estimate(&mut self) -> f64 {
        self.writer.publish();
        self.reader.f0_estimate()
    }

    /// Publishes and returns the frozen [`Snapshot`] covering every
    /// processed item (e.g. for `rds snapshot save`).
    pub fn snapshot(&mut self) -> Arc<Snapshot> {
        self.writer.publish();
        self.reader.snapshot()
    }

    /// Number of items fed through this handle.
    pub fn seen(&self) -> u64 {
        self.writer.seen()
    }

    /// The window model in force.
    pub fn window(&self) -> Window {
        self.writer.window()
    }

    /// The shard count (1 = the sampler runs inline on the caller's
    /// thread).
    pub fn shards(&self) -> usize {
        self.writer.shards()
    }

    /// Splits the handle into its ingestion and serving halves — the
    /// migration path from single-threaded code to concurrent serving.
    pub fn split(self) -> (RdsWriter, RdsReader) {
        (self.writer, self.reader)
    }

    /// Captures the handle's complete state as a [`WriterCheckpoint`]
    /// ([`RdsWriter::checkpoint`] on the wrapped writer).
    pub fn checkpoint(&mut self) -> WriterCheckpoint {
        self.writer.checkpoint()
    }

    /// Writes a durable checkpoint to `path`
    /// ([`RdsWriter::checkpoint_to`] on the wrapped writer).
    ///
    /// # Errors
    ///
    /// [`RdsError::Checkpoint`] when the file cannot be written.
    pub fn checkpoint_to(&mut self, path: impl AsRef<std::path::Path>) -> Result<(), RdsError> {
        self.writer.checkpoint_to(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grouped_point(i: u64, n_groups: u64) -> Point {
        Point::new(vec![(i % n_groups) as f64 * 10.0 + 0.01 * ((i / n_groups) % 3) as f64])
    }

    fn base() -> RdsBuilder {
        Rds::builder().dim(1).alpha(0.5).seed(5).expected_len(2048)
    }

    #[test]
    fn all_four_backends_agree_on_exact_counts() {
        for (window, shards) in [
            (Window::Infinite, 1),
            (Window::Infinite, 4),
            (Window::Sequence(1 << 14), 1),
            (Window::Sequence(1 << 14), 4),
        ] {
            let mut rds = base().window(window).shards(shards).build().expect("valid");
            for i in 0..360u64 {
                rds.process(grouped_point(i, 18));
            }
            assert_eq!(
                rds.f0_estimate(),
                18.0,
                "backend (window {window:?}, shards {shards}) missed the count"
            );
            let q = rds.query().expect("non-empty");
            assert!(q.count > 0);
            assert_eq!(rds.seen(), 360);
            let picks = rds.query_k(3);
            assert_eq!(picks.len(), 3);
            for a in 0..picks.len() {
                for b in (a + 1)..picks.len() {
                    assert!(!picks[a].rep.within(&picks[b].rep, 0.5));
                }
            }
        }
    }

    #[test]
    fn windowed_backends_expire_old_entities() {
        for shards in [1usize, 3] {
            let mut rds = base()
                .window(Window::Sequence(32))
                .shards(shards)
                .build()
                .expect("valid");
            for i in 0..256u64 {
                rds.process(grouped_point(i, 16));
            }
            assert_eq!(rds.f0_estimate(), 16.0);
            for _ in 0..64u64 {
                rds.process(Point::new(vec![0.0]));
            }
            assert_eq!(rds.f0_estimate(), 1.0, "shards {shards}: window did not slide");
        }
    }

    #[test]
    fn time_based_window_through_the_facade() {
        let mut rds = base().window(Window::Time(10)).shards(2).build().expect("valid");
        for g in 0..5u64 {
            rds.process_item(StreamItem::new(
                Point::new(vec![g as f64 * 10.0]),
                Stamp::new(g, 0),
            ));
        }
        assert_eq!(rds.f0_estimate(), 5.0);
        rds.process_item(StreamItem::new(Point::new(vec![990.0]), Stamp::new(5, 30)));
        assert_eq!(rds.f0_estimate(), 1.0);
    }

    #[test]
    fn count_accuracy_controls_the_threshold() {
        // eps = 1 → threshold 16: 12 groups stay exact
        let mut rds = base().count_accuracy(1.0).build().expect("valid");
        for i in 0..120u64 {
            rds.process(grouped_point(i, 12));
        }
        assert_eq!(rds.f0_estimate(), 12.0);
    }

    #[test]
    fn builder_surfaces_typed_errors() {
        assert!(matches!(
            Rds::builder().alpha(0.5).build(),
            Err(RdsError::InvalidDimension { .. })
        ));
        assert!(matches!(
            Rds::builder().dim(2).build(),
            Err(RdsError::InvalidAlpha { .. })
        ));
        assert!(matches!(
            base().shards(0).build_split(),
            Err(RdsError::InvalidShards)
        ));
        assert!(matches!(
            base().count_accuracy(0.0).build(),
            Err(RdsError::InvalidEps { .. })
        ));
        assert!(matches!(
            base().window(Window::Sequence(0)).build(),
            Err(RdsError::EmptyWindow)
        ));
        assert!(matches!(
            base().k(0).build(),
            Err(RdsError::InvalidK)
        ));
    }

    #[test]
    fn backend_swap_needs_no_signature_churn() {
        // The PR 3 contract still holds: identical calling code against
        // single and sharded backends.
        let run = |shards: usize| -> (f64, Option<GroupRecord>) {
            let mut rds = base().shards(shards).build().expect("valid");
            for i in 0..100u64 {
                rds.process(grouped_point(i, 10));
            }
            (rds.f0_estimate(), rds.query())
        };
        let (f0_single, q_single) = run(1);
        let (f0_sharded, q_sharded) = run(4);
        assert_eq!(f0_single, f0_sharded);
        assert!(q_single.is_some() && q_sharded.is_some());
    }

    #[test]
    fn reader_handles_are_send_sync_and_clone() {
        fn assert_bounds<T: Clone + Send + Sync + 'static>() {}
        assert_bounds::<RdsReader>();
        fn assert_send<T: Send>() {}
        assert_send::<RdsWriter>();
        assert_send::<Snapshot>();
    }

    #[test]
    fn readers_see_only_published_state() {
        let (mut writer, reader) = base()
            .publish_cadence(PublishCadence::Manual)
            .build_split()
            .expect("valid");
        // epoch 0: the initial empty snapshot answers (with nothing)
        assert_eq!(reader.epoch(), 0);
        assert_eq!(reader.seen(), 0);
        assert!(reader.query().is_none());
        for i in 0..100u64 {
            writer.process(grouped_point(i, 10));
        }
        // manual cadence: nothing published yet
        assert_eq!(reader.epoch(), 0);
        assert_eq!(reader.f0_estimate(), 0.0);
        let epoch = writer.publish();
        assert_eq!(epoch, 1);
        assert_eq!(reader.epoch(), 1);
        assert_eq!(reader.seen(), 100);
        assert_eq!(reader.f0_estimate(), 10.0);
        assert!(reader.query().is_some());
    }

    #[test]
    fn old_snapshots_stay_valid_after_publications() {
        let (mut writer, reader) = base()
            .publish_cadence(PublishCadence::Manual)
            .build_split()
            .expect("valid");
        for i in 0..50u64 {
            writer.process(grouped_point(i, 5));
        }
        writer.publish();
        let frozen = reader.snapshot();
        for i in 50..200u64 {
            writer.process(grouped_point(i, 20));
        }
        writer.publish();
        // the held Arc is immutable: still the epoch-1 view
        assert_eq!(frozen.epoch(), 1);
        assert_eq!(frozen.seen(), 50);
        assert_eq!(frozen.f0_estimate(), 5.0);
        // the live reader moved on
        assert_eq!(reader.epoch(), 2);
        assert_eq!(reader.f0_estimate(), 20.0);
    }

    #[test]
    fn every_n_cadence_publishes_automatically() {
        let (mut writer, reader) = base().publish_every(64).build_split().expect("valid");
        for i in 0..63u64 {
            writer.process(grouped_point(i, 7));
        }
        assert_eq!(reader.epoch(), 0, "63 < 64: not yet published");
        writer.process(grouped_point(63, 7));
        assert_eq!(reader.epoch(), 1, "64th item triggers the publication");
        assert_eq!(reader.seen(), 64);
        assert_eq!(reader.f0_estimate(), 7.0);
    }

    #[test]
    fn every_n_cadence_republishes_windowed_expiry_on_quiet_advances() {
        // Regression (windowed-expiry staleness): `advance` calls that
        // expire window entries used to never tick the `EveryN` counter,
        // so a stream that went quiet left readers serving long-expired
        // entries forever. Clock movement on a window backend now counts
        // as a cadence tick like any other state-changing event.
        let (mut writer, reader) = base()
            .window(Window::Time(10))
            .publish_every(4)
            .build_split()
            .expect("valid");
        for g in 0..4u64 {
            writer.process_item(StreamItem::new(
                Point::new(vec![g as f64 * 10.0]),
                Stamp::new(g, 0),
            ));
        }
        assert_eq!(reader.epoch(), 1, "4 items trigger the first publication");
        assert_eq!(reader.f0_estimate(), 4.0);
        // The stream goes quiet: only the clock moves, far past the
        // window, expiring everything. Three advances are below the
        // cadence; the fourth must republish without any new item.
        for t in 0..3u64 {
            writer.advance(Stamp::new(4 + t, 101 + t));
            assert_eq!(reader.epoch(), 1, "advance {t}: below the cadence");
        }
        writer.advance(Stamp::new(8, 105));
        assert_eq!(reader.epoch(), 2, "the 4th quiet advance republishes");
        assert_eq!(reader.f0_estimate(), 0.0, "readers see the expiry");
        // Infinite backends are untouched: advances never expire
        // anything there, so they must not tick the cadence either.
        let (mut writer, reader) = base().publish_every(4).build_split().expect("valid");
        writer.process(grouped_point(0, 2));
        for t in 0..8u64 {
            writer.advance(Stamp::new(10 + t, 10 + t));
        }
        assert_eq!(reader.epoch(), 0, "quiet advances on an infinite window are no-ops");
    }

    #[test]
    fn every_batch_cadence_publishes_per_batch() {
        let (mut writer, reader) = base()
            .publish_cadence(PublishCadence::EveryBatch)
            .build_split()
            .expect("valid");
        writer.process_batch((0..30u64).map(|i| grouped_point(i, 3)));
        assert_eq!(reader.epoch(), 1);
        assert_eq!(reader.seen(), 30);
        writer.process_batch((0..10u64).map(|i| grouped_point(i, 3)));
        assert_eq!(reader.epoch(), 2);
        assert_eq!(reader.seen(), 40);
    }

    #[test]
    fn split_works_for_all_four_backends() {
        for (window, shards) in [
            (Window::Infinite, 1),
            (Window::Infinite, 3),
            (Window::Sequence(1 << 12), 1),
            (Window::Sequence(1 << 12), 3),
        ] {
            let (mut writer, reader) = base()
                .window(window)
                .shards(shards)
                .publish_cadence(PublishCadence::Manual)
                .build_split()
                .expect("valid");
            for i in 0..240u64 {
                writer.process(grouped_point(i, 12));
            }
            writer.publish();
            assert_eq!(
                reader.f0_estimate(),
                12.0,
                "backend (window {window:?}, shards {shards})"
            );
            let picks = reader.query_k(4);
            assert_eq!(picks.len(), 4);
        }
    }

    #[test]
    fn writer_advance_expires_time_windows() {
        let (mut writer, reader) = base()
            .window(Window::Time(10))
            .shards(2)
            .publish_cadence(PublishCadence::Manual)
            .build_split()
            .expect("valid");
        for g in 0..6u64 {
            writer.process_item(StreamItem::new(
                Point::new(vec![g as f64 * 10.0]),
                Stamp::new(g, 0),
            ));
        }
        writer.publish();
        assert_eq!(reader.f0_estimate(), 6.0);
        // the clock moves with no new items: everything expires
        writer.advance(Stamp::new(6, 100));
        writer.publish();
        assert_eq!(reader.f0_estimate(), 0.0);
    }

    #[test]
    fn advance_is_not_rewound_by_later_low_stamped_items() {
        // Regression: after `advance` moves the clock forward, an item
        // whose auto-stamp lags behind must not roll the engine clock
        // back and resurrect expired entries — sharded and unsharded
        // backends must agree.
        for shards in [1usize, 3] {
            let (mut writer, reader) = base()
                .window(Window::Time(10))
                .shards(shards)
                .publish_cadence(PublishCadence::Manual)
                .build_split()
                .expect("valid");
            for g in 0..4u64 {
                writer.process_item(StreamItem::new(
                    Point::new(vec![g as f64 * 10.0]),
                    Stamp::new(g, 0),
                ));
            }
            writer.advance(Stamp::new(4, 100));
            // auto-stamped: time == arrival index (5), far behind 100
            writer.process(Point::new(vec![990.0]));
            writer.publish();
            assert_eq!(
                reader.f0_estimate(),
                0.0,
                "shards {shards}: the advanced clock must win"
            );
        }
    }

    #[test]
    fn cloned_readers_never_replay_each_others_draws() {
        // Clones share the draw counter: with >1 entity in the snapshot,
        // two clones issuing many queries must not produce identical
        // sequences (they would under per-clone counters, since the RNG
        // is a pure function of seed + token).
        let (mut writer, reader) = base().build_split().expect("valid");
        for i in 0..160u64 {
            writer.process(grouped_point(i, 16));
        }
        writer.publish();
        let a = reader.clone();
        let b = reader.clone();
        let seq_a: Vec<_> = (0..12).map(|_| a.query().expect("non-empty").rep).collect();
        let seq_b: Vec<_> = (0..12).map(|_| b.query().expect("non-empty").rep).collect();
        assert_ne!(seq_a, seq_b, "cloned readers replayed the same draws");
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        for window in [Window::Infinite, Window::Sequence(1 << 12)] {
            let (mut writer, reader) = base()
                .window(window)
                .publish_cadence(PublishCadence::Manual)
                .build_split()
                .expect("valid");
            for i in 0..90u64 {
                writer.process(grouped_point(i, 9));
            }
            writer.publish();
            let snap = reader.snapshot();
            let wire = serde_json::to_string(&*snap).expect("serializes");
            let back: Snapshot = serde_json::from_str(&wire).expect("deserializes");
            assert_eq!(back.epoch(), snap.epoch());
            assert_eq!(back.seen(), snap.seen());
            assert_eq!(back.window(), window);
            assert_eq!(back.f0_estimate(), snap.f0_estimate());
            // same draw token, same sample — before and after the wire
            assert_eq!(
                back.query_at(7).map(|r| r.rep),
                snap.query_at(7).map(|r| r.rep)
            );
        }
    }

    #[test]
    fn cloned_readers_draw_independently_but_share_the_snapshot() {
        let (mut writer, reader) = base().build_split().expect("valid");
        for i in 0..160u64 {
            writer.process(grouped_point(i, 16));
        }
        writer.publish();
        let clone = reader.clone();
        assert_eq!(reader.epoch(), clone.epoch());
        assert_eq!(reader.f0_estimate(), clone.f0_estimate());
        // both can query; distinct draw sequences are fine either way
        assert!(reader.query().is_some());
        assert!(clone.query().is_some());
    }

    #[test]
    fn every_batch_cadence_skips_empty_batches() {
        // Regression (PR 5): an empty batch used to bump the epoch and
        // republish unchanged state — readers comparing epochs saw
        // phantom updates.
        let (mut writer, reader) = base()
            .publish_cadence(PublishCadence::EveryBatch)
            .build_split()
            .expect("valid");
        writer.process_batch(std::iter::empty::<Point>());
        assert_eq!(reader.epoch(), 0, "empty batch must not publish");
        writer.process_batch((0..30u64).map(|i| grouped_point(i, 3)));
        assert_eq!(reader.epoch(), 1);
        writer.process_batch(std::iter::empty::<Point>());
        assert_eq!(reader.epoch(), 1, "empty batch after a real one");
    }

    #[test]
    fn every_batch_cadence_bumps_exactly_once_per_batch() {
        // One batch = exactly one epoch bump, independent of batch size,
        // and `since_publish` resets on every publish path so a later
        // cadence switch starts counting from zero.
        let (mut writer, reader) = base()
            .publish_cadence(PublishCadence::EveryBatch)
            .build_split()
            .expect("valid");
        for (i, batch) in [1u64, 7, 100, 4096, 5000].into_iter().enumerate() {
            writer.process_batch((0..batch).map(|j| grouped_point(j, 7)));
            assert_eq!(reader.epoch(), i as u64 + 1, "batch of {batch} items");
        }
        // the counter was reset by the batch publish: switching to
        // EveryN(10) needs 10 fresh items, not 10 minus stale backlog
        writer.set_cadence(PublishCadence::EveryN(10));
        let epoch = reader.epoch();
        for i in 0..9u64 {
            writer.process(grouped_point(i, 7));
        }
        assert_eq!(reader.epoch(), epoch, "9 < 10 since the last publish");
        writer.process(grouped_point(9, 7));
        assert_eq!(reader.epoch(), epoch + 1);
    }

    #[test]
    fn unsharded_window_advance_expires_immediately_like_the_engine() {
        // Regression (PR 5): `RdsWriter::advance` silently dropped `now`
        // for the unsharded window backend. The expired entries stayed
        // live inside the sampler (matchable, and persisted by a
        // checkpoint) until the next publish. All four backends must
        // expire on advance + publish, and the unsharded backend's
        // checkpoint taken right after `advance` must already be clean.
        for shards in [1usize, 3] {
            let (mut writer, reader) = base()
                .window(Window::Time(10))
                .shards(shards)
                .publish_cadence(PublishCadence::Manual)
                .build_split()
                .expect("valid");
            for g in 0..6u64 {
                writer.process_item(StreamItem::new(
                    Point::new(vec![g as f64 * 10.0]),
                    Stamp::new(g, 0),
                ));
            }
            writer.advance(Stamp::new(6, 100));
            writer.publish();
            assert_eq!(reader.f0_estimate(), 0.0, "shards {shards}");
        }
        // white-box, unsharded: the state captured *right after* advance
        // (no publish in between) holds no entries
        let (mut writer, _reader) = base()
            .window(Window::Time(10))
            .publish_cadence(PublishCadence::Manual)
            .build_split()
            .expect("valid");
        for g in 0..6u64 {
            writer.process_item(StreamItem::new(
                Point::new(vec![g as f64 * 10.0]),
                Stamp::new(g, 0),
            ));
        }
        writer.advance(Stamp::new(6, 100));
        let chk = writer.checkpoint();
        let BackendState::Window(state) = &chk.backend else {
            panic!("unsharded window backend expected");
        };
        let live: usize = state.levels().iter().map(|l| l.entries().len()).sum();
        assert_eq!(live, 0, "advance must expire entries eagerly, not at publish");
    }

    #[test]
    fn checkpoint_restore_round_trips_for_all_backends() {
        for (window, shards) in [
            (Window::Infinite, 1),
            (Window::Infinite, 3),
            (Window::Sequence(1 << 12), 1),
            (Window::Sequence(1 << 12), 3),
        ] {
            let (mut writer, _) = base()
                .window(window)
                .shards(shards)
                .publish_cadence(PublishCadence::Manual)
                .build_split()
                .expect("valid");
            for i in 0..120u64 {
                writer.process(grouped_point(i, 12));
            }
            writer.publish();
            let chk = writer.checkpoint();
            assert_eq!(chk.seen(), 120);
            assert_eq!(chk.epoch(), 1);
            drop(writer);
            let wire = chk.to_container_json();
            let back = WriterCheckpoint::from_container_json(&wire).expect("verifies");
            let (mut writer, reader) = Rds::builder().restore(back).expect("restores");
            // warm snapshot: readers answer at the restored epoch
            assert_eq!(reader.epoch(), 1);
            assert_eq!(reader.seen(), 120);
            assert_eq!(reader.f0_estimate(), 12.0, "({window:?}, {shards})");
            writer.process(grouped_point(120, 12));
            assert_eq!(writer.publish(), 2, "epochs continue after the restore");
        }
    }

    #[test]
    fn restore_rejects_conflicting_builder_parameters() {
        let (mut writer, _) = base().build_split().expect("valid");
        for i in 0..50u64 {
            writer.process(grouped_point(i, 5));
        }
        let chk = writer.checkpoint();
        // unset parameters adopt the echo; conflicting ones are typed errors
        assert!(Rds::builder().restore(chk.clone()).is_ok());
        assert!(Rds::builder().dim(1).alpha(0.5).restore(chk.clone()).is_ok());
        for (what, result) in [
            ("dim", Rds::builder().dim(2).restore(chk.clone())),
            ("alpha", Rds::builder().alpha(0.75).restore(chk.clone())),
            ("window", Rds::builder().window(Window::Sequence(8)).restore(chk.clone())),
            ("shards", Rds::builder().shards(4).restore(chk.clone())),
            ("seed", Rds::builder().seed(999).restore(chk.clone())),
            ("k", Rds::builder().k(3).restore(chk.clone())),
            ("eps", Rds::builder().count_accuracy(0.5).restore(chk.clone())),
        ] {
            assert!(
                matches!(result, Err(RdsError::Checkpoint { .. })),
                "{what} mismatch must be a typed checkpoint error"
            );
        }
    }

    #[test]
    fn corrupt_containers_are_typed_errors_never_panics() {
        let (mut writer, _) = base().build_split().expect("valid");
        for i in 0..50u64 {
            writer.process(grouped_point(i, 5));
        }
        let good = writer.checkpoint().to_container_json();
        // truncation, garbage, wrong magic, future version, flipped payload
        let cases: Vec<String> = vec![
            good[..good.len() / 2].to_string(),
            "not json at all".to_string(),
            good.replacen("rds-checkpoint", "rds-checkpoant", 1),
            good.replacen("\"version\":1", "\"version\":999", 1),
            good.replacen("\"fed\":50", "\"fed\":51", 1),
            "{}".to_string(),
        ];
        for (i, text) in cases.iter().enumerate() {
            let result = WriterCheckpoint::from_container_json(text);
            assert!(
                matches!(result, Err(RdsError::Checkpoint { .. })),
                "case {i} must fail with a typed error, got {result:?}"
            );
        }
    }

    #[test]
    fn split_then_serve_from_threads() {
        let (mut writer, reader) = base()
            .publish_cadence(PublishCadence::Manual)
            .build_split()
            .expect("valid");
        for i in 0..200u64 {
            writer.process(grouped_point(i, 10));
        }
        writer.publish();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let r = reader.clone();
                scope.spawn(move || {
                    for _ in 0..50 {
                        assert_eq!(r.f0_estimate(), 10.0);
                        assert!(r.query().is_some());
                    }
                });
            }
        });
    }
}
