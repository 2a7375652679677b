//! Sharded concurrent ingestion for robust distinct sampling — generic
//! over the sampler family.
//!
//! Sampler summaries merge ([`SamplerSummary`]), so a single heavy stream
//! can be *sharded*: `N` worker threads each own a sampler built from one
//! shared [`SamplerConfig`] (identical grid and hash), a router
//! hash-partitions arriving items across the workers, and queries merge
//! the per-shard summaries exactly as a coordinator would merge remote
//! sites. Correctness is inherited from the merge: the union of the shard
//! substreams *is* the stream, and the merge deduplicates groups whose
//! points were split across shards.
//!
//! A one-shard engine has nothing to partition and nothing to merge, so
//! it runs its sampler inline on the caller's thread: no router, channel,
//! worker thread or batch buffer. Ingestion calls the sampler directly
//! ([`ShardedEngine::ingest_batch`] in batch-size chunks through
//! [`DistinctSampler::process_batch`]), [`ShardedEngine::advance`] expires
//! window entries at once, and a snapshot is the sampler's own
//! copy-on-write summary — so one type serves every shard count.
//!
//! The engine is generic over `S: DistinctSampler + Send`, so
//! sliding-window ([`SlidingWindowSampler`]) and other workloads shard
//! exactly like the infinite-window one ([`RobustL0Sampler`], the default
//! type parameter). Window expiry stays correct under sharding because
//! items carry their *global* stamps: each shard's window is the global
//! window restricted to its substream, and before every snapshot the
//! worker advances its sampler to the engine's latest stamp
//! ([`DistinctSampler::advance`]), so shards that went quiet still expire.
//!
//! Two mechanisms make the sharded path fast:
//!
//! * **Entity-affine routing.** Points are routed by the cell of a coarse
//!   routing grid (side `4 * side(alpha)`), so the near-duplicates of one
//!   entity land on one shard almost always. Each shard therefore tracks
//!   `~F0 / N` candidate groups, and the per-point linear scan over the
//!   accept/reject sets — Algorithm 1's hot path — shrinks by the shard
//!   factor. This is a genuine algorithmic speedup, visible even on a
//!   single hardware thread; on a multicore box the shards additionally
//!   run in parallel.
//! * **Batched hand-off.** Items travel to the workers in [`Vec`]
//!   batches (default [`DEFAULT_BATCH_SIZE`]) and are ingested with
//!   [`DistinctSampler::process_batch`], amortizing channel traffic and
//!   per-item bookkeeping over the batch.
//!
//! Reads never mutate the stream state implicitly: [`ShardedEngine::flush`]
//! is the only operation that ships partially filled batch buffers to the
//! workers, and [`ShardedEngine::snapshot`] merges what the workers have
//! *received* without draining anything — so a monitoring path that
//! snapshots mid-stream observes the engine, it does not alter its
//! batching. Call `flush` first when a read must cover every ingested
//! item; [`ShardedEngine::finish`] always covers everything (it flushes,
//! then moves the final shard states out). A one-shard engine buffers
//! nothing, so its reads always cover every ingested item.
//!
//! ```
//! use rds_core::SamplerConfig;
//! use rds_engine::ShardedEngine;
//! use rds_geometry::Point;
//!
//! let cfg = SamplerConfig::builder(1, 0.5).seed(7).build().expect("valid");
//! let mut engine = ShardedEngine::try_new(cfg, 4).expect("valid");
//! for i in 0..400u64 {
//!     // 40 entities, 10 near-duplicate observations each
//!     engine.ingest(Point::new(vec![(i % 40) as f64 * 10.0]));
//! }
//! engine.flush(); // reads do not flush implicitly
//! assert!(engine.query().is_some());
//! let f0 = engine.finish().f0_estimate();
//! assert!((f0 - 40.0).abs() < 20.0);
//! ```

#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::SeedableRng;
use rds_core::{
    Checkpointable, DistinctSampler, GroupRecord, RdsError, RobustL0Sampler, SamplerConfig,
    SamplerSummary, SlidingWindowSampler,
};
use rds_geometry::{Grid, Point};
use rds_hashing::CellKeyMixer;
use rds_stream::{Stamp, StreamItem, Window};
use serde::{Deserialize, Serialize};
use std::sync::mpsc::{self, Sender};
use std::thread::JoinHandle;

/// Default number of items per batch handed to a worker shard (and per
/// chunk a one-shard engine feeds its sampler).
pub const DEFAULT_BATCH_SIZE: usize = 256;

/// The routing grid is this factor coarser than the sampler grid, so one
/// entity (diameter <= alpha) straddles a routing-cell boundary — and thus
/// may split across shards — only with probability about `dim / 4`.
const ROUTE_SIDE_FACTOR: f64 = 4.0;

/// Seed tweaks: the router must not reuse the samplers' randomness.
const ROUTE_GRID_SALT: u64 = 0x5AAD_ED01;
const ROUTE_MIX_SALT: u64 = 0x5AAD_ED02;

enum Cmd<S: DistinctSampler> {
    Batch(Vec<StreamItem>),
    Snapshot(Sender<S::Summary>, Stamp),
    /// Runs an arbitrary closure against the worker's sampler — the
    /// escape hatch behind [`ShardedEngine::checkpoint`], which needs the
    /// full state ([`Checkpointable`]) rather than a query summary. The
    /// closure form keeps the worker loop compilable for sampler families
    /// that are not checkpointable.
    Inspect(Box<dyn FnOnce(&mut S) + Send>),
}

struct Shard<S: DistinctSampler> {
    tx: Sender<Cmd<S>>,
    buf: Vec<StreamItem>,
    routed: u64,
    /// Whether the worker received state-changing commands (batches,
    /// inspections) since this handle last cached its summary. Clean
    /// shards skip the snapshot round trip entirely — the engine-level
    /// dirty bit of the copy-on-write publication path.
    dirty: bool,
}

impl<S: DistinctSampler> Shard<S> {
    fn send(&self, cmd: Cmd<S>) {
        self.tx
            .send(cmd)
            // lint:allow(L1) a send fails only when the worker hung up,
            // which means it already panicked; propagating that panic
            // here is the only sound response
            .expect("shard worker terminated");
    }

    /// Ships the buffered items to the worker as one batch.
    fn ship(&mut self, batch_size: usize) {
        let batch = std::mem::replace(&mut self.buf, Vec::with_capacity(batch_size));
        self.dirty = true;
        self.send(Cmd::Batch(batch));
    }
}

/// The worker threads of a sharded engine (none for one shard).
/// Dropping it closes the channels so the workers exit their loops, then
/// waits for them; buffered items are discarded (call
/// [`ShardedEngine::finish`] to keep them).
#[derive(Debug)]
struct Workers<S: DistinctSampler> {
    shards: Vec<Shard<S>>,
    handles: Vec<JoinHandle<S>>,
}

impl<S: DistinctSampler> Drop for Workers<S> {
    fn drop(&mut self) {
        self.shards.clear();
        for h in std::mem::take(&mut self.handles) {
            let _ = h.join();
        }
    }
}

/// Where an item goes: the lone sampler of a one-shard engine, run
/// inline, or the shard picked by a coarse random grid — the cell,
/// key-mixed and reduced mod the shard count.
enum Router<S> {
    Inline(Box<S>),
    Grid {
        grid: Grid,
        mixer: CellKeyMixer,
        scratch: Vec<i64>,
    },
}

impl<S> Router<S> {
    fn grid(cfg: &SamplerConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ ROUTE_GRID_SALT);
        Router::Grid {
            grid: Grid::random(cfg.dim, ROUTE_SIDE_FACTOR * cfg.side(), &mut rng),
            mixer: CellKeyMixer::new(cfg.seed ^ ROUTE_MIX_SALT),
            scratch: Vec::new(),
        }
    }

    fn shard_of(&mut self, p: &Point, n_shards: usize) -> usize {
        match self {
            Router::Inline(_) => 0,
            Router::Grid {
                grid,
                mixer,
                scratch,
            } => {
                grid.cell_of_into(p, scratch);
                (mixer.key(scratch) % n_shards as u64) as usize
            }
        }
    }
}

/// A sharded ingestion pipeline, generic over the sampler family `S`:
/// hash-partitions stream items across `N` worker threads, each owning an
/// `S` built from the shared configuration, and answers queries by
/// merging the per-shard [`DistinctSampler::Summary`]s. With one shard
/// the sampler runs inline on the caller's thread instead.
///
/// The default type parameter is the infinite-window [`RobustL0Sampler`];
/// [`ShardedEngine::try_sliding_window`] builds the same pipeline over
/// [`SlidingWindowSampler`]s, and [`ShardedEngine::try_with_factory`]
/// accepts any [`DistinctSampler`].
///
/// Reads are side-effect free: [`snapshot`](Self::snapshot) and the query
/// methods cover exactly the items already shipped to the workers and
/// never drain the per-shard batch buffers — call
/// [`flush`](Self::flush) explicitly when a read must include every
/// ingested item. Dropping the engine shuts the workers down;
/// [`finish`](Self::finish) flushes, then hands back the final merged
/// summary without cloning shard state.
#[derive(Debug)]
pub struct ShardedEngine<S: DistinctSampler = RobustL0Sampler> {
    cfg: SamplerConfig,
    router: Router<S>,
    workers: Workers<S>,
    batch_size: usize,
    seen: u64,
    last_stamp: Stamp,
    draws: u64,
    /// Last summary received from each shard, reused verbatim while the
    /// shard stays clean (no round trip, no copy — the per-shard
    /// summaries are `Arc`-backed).
    summary_cache: Vec<Option<S::Summary>>,
    /// The engine clock the cached summaries were advanced to; a moved
    /// clock invalidates them for time-sensitive sampler families.
    snapshot_stamp: Option<Stamp>,
    /// The reduce of the cached per-shard summaries, valid while every
    /// shard is clean — makes a quiet engine's publication `O(1)`.
    merged_cache: Option<S::Summary>,
}

impl<S> std::fmt::Debug for Router<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router").finish_non_exhaustive()
    }
}

impl<S: DistinctSampler> std::fmt::Debug for Shard<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shard")
            .field("buffered", &self.buf.len())
            .field("routed", &self.routed)
            .finish_non_exhaustive()
    }
}

impl<S> ShardedEngine<S>
where
    S: DistinctSampler + Send + 'static,
    S::Summary: Send + 'static,
{
    /// Spawns `n_shards` workers whose samplers come from `make` (called
    /// once per shard, in shard order) — or, for `n_shards == 1`, runs
    /// the one sampler inline. Every sampler **must** be built
    /// from the same configuration as `cfg` — identical grid and hash are
    /// what make the summary merge sound; `cfg` itself only drives the
    /// router.
    ///
    /// # Errors
    ///
    /// [`RdsError::InvalidShards`] if `n_shards == 0`, or any
    /// [`SamplerConfig::validate`] failure.
    pub fn try_with_factory(
        cfg: &SamplerConfig,
        n_shards: usize,
        mut make: impl FnMut(usize) -> S,
    ) -> Result<Self, RdsError> {
        cfg.validate()?;
        let (router, n_workers) = match n_shards {
            0 => return Err(RdsError::InvalidShards),
            1 => (Router::Inline(Box::new(make(0))), 0),
            n => (Router::grid(cfg), n),
        };
        let mut workers = Workers {
            shards: Vec::with_capacity(n_workers),
            handles: Vec::with_capacity(n_workers),
        };
        for i in 0..n_workers {
            let (tx, rx) = mpsc::channel::<Cmd<S>>();
            let mut sampler = make(i);
            let handle = std::thread::spawn(move || {
                while let Ok(cmd) = rx.recv() {
                    match cmd {
                        Cmd::Batch(batch) => {
                            sampler.process_batch(&batch);
                        }
                        Cmd::Snapshot(reply, now) => {
                            sampler.advance(now);
                            // receiver may have given up; ignore
                            let _ = reply.send(sampler.summary_cow());
                        }
                        Cmd::Inspect(f) => f(&mut sampler),
                    }
                }
                sampler
            });
            workers.shards.push(Shard {
                tx,
                buf: Vec::with_capacity(DEFAULT_BATCH_SIZE),
                routed: 0,
                dirty: true,
            });
            workers.handles.push(handle);
        }
        Ok(Self {
            cfg: cfg.clone(),
            router,
            workers,
            batch_size: DEFAULT_BATCH_SIZE,
            seen: 0,
            last_stamp: Stamp::at(0),
            draws: 0,
            summary_cache: (0..n_workers).map(|_| None).collect(),
            snapshot_stamp: None,
            merged_cache: None,
        })
    }

    /// Sets the number of items buffered per shard before a batch is
    /// shipped to the worker (one shard: the chunk size of
    /// [`Self::ingest_batch`]).
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        assert!(batch_size >= 1, "batch size must be at least 1");
        self.batch_size = batch_size;
        self
    }

    /// Routes one point to its shard, stamping it with the engine's
    /// arrival counter (sequence number == timestamp). Use
    /// [`Self::ingest_item`] to supply explicit stamps (time-based
    /// windows).
    pub fn ingest(&mut self, p: Point) {
        let stamp = Stamp::at(self.seen);
        self.ingest_item(StreamItem::new(p, stamp));
    }

    /// Routes one stamped item to its shard, shipping that shard's buffer
    /// when it reaches the batch size (one shard: feeds the sampler
    /// directly). Stamps must be non-decreasing;
    /// they carry the *global* clock, so each shard's window expiry
    /// agrees with the unsharded sampler's.
    pub fn ingest_item(&mut self, item: StreamItem) {
        self.seen += 1;
        // max, not assign: an `advance` past the stream's own stamps must
        // not be rewound by a later item (stamps are non-decreasing, so
        // for plain streams this is the same assignment as before).
        self.last_stamp = self.last_stamp.max(item.stamp);
        if let Router::Inline(sampler) = &mut self.router {
            sampler.process(&item);
            return;
        }
        let s = self.router.shard_of(&item.point, self.workers.shards.len());
        let shard = &mut self.workers.shards[s];
        shard.routed += 1;
        shard.buf.push(item);
        if shard.buf.len() >= self.batch_size {
            shard.ship(self.batch_size);
        }
    }

    /// Ingests every point of an iterator, stamped with the engine's
    /// arrival counter. The iterator yields plain [`Point`]s — if your
    /// input is already chunked (e.g. from [`rds_stream::batched`]),
    /// flatten it first. With workers this is one [`Self::ingest`] call
    /// per point (the engine does its own per-shard batching); one shard
    /// feeds its sampler batch-size chunks through
    /// [`DistinctSampler::process_batch`], which leaves the same state as
    /// per-point feeding.
    pub fn ingest_batch<I>(&mut self, points: I)
    where
        I: IntoIterator<Item = Point>,
    {
        let Router::Inline(sampler) = &mut self.router else {
            for p in points {
                self.ingest(p);
            }
            return;
        };
        let mut points = points.into_iter();
        let mut chunk = Vec::with_capacity(points.size_hint().0.min(self.batch_size));
        loop {
            chunk.clear();
            for p in points.by_ref().take(self.batch_size) {
                chunk.push(StreamItem::new(p, Stamp::at(self.seen)));
                self.seen += 1;
            }
            let Some(last) = chunk.last() else {
                return;
            };
            self.last_stamp = self.last_stamp.max(last.stamp);
            sampler.process_batch(&chunk);
        }
    }

    /// Ships every partially filled shard buffer to its worker.
    pub fn flush(&mut self) {
        for shard in &mut self.workers.shards {
            if !shard.buf.is_empty() {
                shard.ship(self.batch_size);
            }
        }
    }

    /// Snapshots every shard's summary **without flushing**: the result
    /// covers exactly the items the workers have received (shipped
    /// batches), not the ones still sitting in this handle's per-shard
    /// batch buffers. The workers keep running and can ingest more
    /// afterwards — snapshotting is non-draining. Window samplers are
    /// advanced to the engine's latest stamp first, so quiet shards
    /// expire correctly.
    ///
    /// Call [`Self::flush`] first when the snapshot must cover every
    /// ingested item.
    ///
    /// Copy-on-write: a shard that received nothing since its last
    /// summary (and, for time-sensitive families, whose clock did not
    /// move) is served from this handle's cache without a worker round
    /// trip; dirty shards reply with `Arc`-sharing summaries rebuilt only
    /// for their changed levels — snapshot cost is proportional to what
    /// changed, not to total state size.
    pub fn shard_summaries(&mut self) -> Vec<S::Summary>
    where
        S::Summary: Clone,
    {
        if let Router::Inline(_) = self.router {
            return vec![self.snapshot()];
        }
        let now = self.last_stamp;
        let clock_moved = S::TIME_SENSITIVE && self.snapshot_stamp != Some(now);
        let shards = &mut self.workers.shards;
        let mut pending = Vec::with_capacity(shards.len());
        for (i, shard) in shards.iter().enumerate() {
            if !shard.dirty && !clock_moved && self.summary_cache[i].is_some() {
                pending.push(None);
                continue;
            }
            let (reply_tx, reply_rx) = mpsc::channel();
            shard.send(Cmd::Snapshot(reply_tx, now));
            pending.push(Some(reply_rx));
        }
        self.snapshot_stamp = Some(now);
        let mut out = Vec::with_capacity(shards.len());
        for (i, rx) in pending.into_iter().enumerate() {
            let summary = match rx {
                Some(rx) => {
                    // lint:allow(L1) recv fails only when the worker
                    // dropped the reply sender mid-request, i.e. it
                    // panicked
                    let s = rx.recv().expect("shard worker terminated");
                    self.summary_cache[i] = Some(s.clone());
                    shards[i].dirty = false;
                    self.merged_cache = None;
                    s
                }
                None => match &self.summary_cache[i] {
                    Some(cached) => cached.clone(),
                    // lint:allow(L1) unreachable: a shard is only skipped
                    // when its cache slot is occupied (checked above)
                    None => unreachable!("skipped shard has a cached summary"),
                },
            };
            out.push(summary);
        }
        out
    }

    /// Merges the current shard states into one summary — the
    /// non-draining publication path ([`Self::shard_summaries`] reduced
    /// with the summary merge). Unlike [`Self::finish`], the engine keeps
    /// running; unlike the pre-split API, nothing is flushed implicitly:
    /// items still buffered in this handle are *not* covered until
    /// [`Self::flush`] ships them. One shard: the sampler's own
    /// copy-on-write summary ([`DistinctSampler::summary_cow`]).
    pub fn snapshot(&mut self) -> S::Summary
    where
        S::Summary: Clone,
    {
        if let Router::Inline(sampler) = &mut self.router {
            sampler.advance(self.last_stamp);
            return sampler.summary_cow();
        }
        let summaries = self.shard_summaries();
        if let Some(cached) = &self.merged_cache {
            // Every shard was served from cache, so the previous reduce
            // is still exact — a quiet engine publishes in O(1).
            return cached.clone();
        }
        let merged = Self::reduce(summaries);
        self.merged_cache = Some(merged.clone());
        merged
    }

    /// The merged robust F0 estimate over the union of the shards (over
    /// flushed items only; see [`Self::snapshot`]).
    pub fn f0_estimate(&mut self) -> f64
    where
        S::Summary: Clone,
    {
        self.snapshot().f0_estimate()
    }

    /// Draws one robust ℓ0-sample over the flushed stream: the owned
    /// record of a uniformly random sampled entity. `None` iff nothing
    /// reached the workers (or, for window backends, nothing is live).
    pub fn query(&mut self) -> Option<GroupRecord>
    where
        S::Summary: Clone,
    {
        self.draws += 1;
        self.snapshot().query_record(self.draws)
    }

    /// Draws up to `k` distinct sampled entities, owned (over flushed
    /// items only; see [`Self::snapshot`]).
    pub fn query_k(&mut self, k: usize) -> Vec<GroupRecord>
    where
        S::Summary: Clone,
    {
        self.draws += 1;
        self.snapshot().query_k(k, self.draws)
    }

    /// Advances the engine clock to `now` without feeding an item:
    /// window entries older than `now` expire on every shard — at once
    /// for one shard, at the next snapshot with workers (a no-op for
    /// infinite-window samplers). Stamps must be non-decreasing; an older
    /// `now` is ignored.
    pub fn advance(&mut self, now: Stamp) {
        self.last_stamp = self.last_stamp.max(now);
        if let Router::Inline(sampler) = &mut self.router {
            sampler.advance(self.last_stamp);
        }
    }

    /// Shuts the workers down and merges their final states, moving (not
    /// cloning) every shard's state into the summary. `finish` covers
    /// every ingested item: it flushes the batch buffers before joining
    /// the workers ([`Self::snapshot`], by contrast, is the non-draining
    /// mid-stream publication path).
    pub fn finish(mut self) -> S::Summary {
        self.flush();
        let now = self.last_stamp;
        // Dropping the senders ends each worker's receive loop.
        let handles = std::mem::take(&mut self.workers.handles);
        self.workers.shards.clear();
        let samplers: Vec<S> = match self.router {
            Router::Inline(sampler) => vec![*sampler],
            Router::Grid { .. } => handles
                .into_iter()
                // lint:allow(L1) join returns Err only when the worker
                // panicked; re-raising that panic on the caller is the
                // documented contract of finish
                .map(|h| h.join().expect("shard worker panicked"))
                .collect(),
        };
        let summaries = samplers
            .into_iter()
            .map(|mut sampler| {
                sampler.advance(now);
                sampler.into_summary()
            })
            .collect();
        Self::reduce(summaries)
    }

    fn reduce(summaries: Vec<S::Summary>) -> S::Summary {
        S::Summary::merge_many(summaries)
            // lint:allow(L1) every shard sampler is built from the one
            // validated engine config, so the merge cannot mismatch
            .expect("shards share one configuration by construction")
            // lint:allow(L1) try_new rejects zero shards, so the summary
            // vec is never empty
            .expect("engine has at least one shard")
    }

    /// Number of items ingested so far (including still-buffered ones).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        match self.router {
            Router::Inline(_) => 1,
            Router::Grid { .. } => self.workers.shards.len(),
        }
    }

    /// The batch size in force.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// How many items were routed to each shard — diagnostic view of the
    /// partition balance.
    pub fn shard_loads(&self) -> Vec<u64> {
        if let Router::Inline(_) = self.router {
            return vec![self.seen];
        }
        self.workers.shards.iter().map(|s| s.routed).collect()
    }

    /// The shared configuration the shards (and the router) were built
    /// from.
    pub fn config(&self) -> &SamplerConfig {
        &self.cfg
    }

    /// The engine clock: the latest stamp ingested or advanced to.
    pub fn last_stamp(&self) -> Stamp {
        self.last_stamp
    }

    /// Runs `f` against every shard's sampler after every ingested item
    /// (batch buffers are flushed first, and the worker channels are
    /// FIFO), collecting the results in shard order.
    fn inspect<T: Send + 'static>(
        &mut self,
        f: impl Fn(&mut S) -> T + Clone + Send + 'static,
    ) -> Vec<T> {
        self.flush();
        if let Router::Inline(sampler) = &mut self.router {
            return vec![f(sampler.as_mut())];
        }
        let mut pending = Vec::with_capacity(self.workers.shards.len());
        for shard in &mut self.workers.shards {
            // The closure gets `&mut` access to the sampler; assume it
            // mutated (correctness over cleverness for the escape hatch).
            shard.dirty = true;
            let (reply_tx, reply_rx) = mpsc::channel();
            let f = f.clone();
            shard.send(Cmd::Inspect(Box::new(move |sampler: &mut S| {
                // receiver may have given up; ignore
                let _ = reply_tx.send(f(sampler));
            })));
            pending.push(reply_rx);
        }
        pending
            .into_iter()
            // lint:allow(L1) recv fails only when the worker dropped the
            // reply sender mid-request, i.e. it panicked
            .map(|rx| rx.recv().expect("shard worker terminated"))
            .collect()
    }
}

impl<S> ShardedEngine<S>
where
    S: DistinctSampler + Checkpointable + Send + 'static,
    S::Summary: Send + 'static,
{
    /// Captures the engine's complete state as an [`EngineCheckpoint`]:
    /// the shared configuration, the engine clock and batching
    /// parameters, and every shard's full sampler state
    /// ([`Checkpointable::checkpoint_state`]).
    ///
    /// The engine is quiesced first — partially filled batch buffers are
    /// flushed, and the per-shard state capture is queued behind every
    /// batch already in flight (the worker channels are FIFO) — so the
    /// checkpoint covers every item ever passed to
    /// [`Self::ingest`]/[`Self::ingest_item`]. The workers keep running;
    /// checkpointing is non-destructive.
    pub fn checkpoint(&mut self) -> EngineCheckpoint<S::State> {
        EngineCheckpoint {
            cfg: self.cfg.clone(),
            batch_size: self.batch_size,
            seen: self.seen,
            last_stamp: self.last_stamp,
            draws: self.draws,
            states: self.inspect(|sampler| sampler.checkpoint_state()),
            routed: self.shard_loads(),
        }
    }

    /// Total in-memory footprint across every shard's sampler, in
    /// machine words — [`DistinctSampler::words`] lifted over the
    /// sharded engine, the metering hook global space budgets charge.
    /// Batch buffers are flushed first and the per-shard reads queue
    /// FIFO behind every in-flight batch, so the figure covers every
    /// ingested item.
    pub fn words(&mut self) -> usize {
        self.inspect(|sampler| sampler.words()).into_iter().sum()
    }

    /// Rebuilds an engine from a checkpoint: restores every shard's
    /// sampler from its captured state, re-derives the router from the
    /// embedded configuration, and resumes the engine clock — continued
    /// ingestion and queries are bit-identical to an engine that never
    /// stopped.
    ///
    /// # Errors
    ///
    /// [`RdsError::Checkpoint`] when the checkpoint is internally
    /// inconsistent (no shards, zero batch size, shard state that does
    /// not match the shared configuration), or any restore error of the
    /// per-shard [`Checkpointable::try_from_state`].
    pub fn try_restore(chk: EngineCheckpoint<S::State>) -> Result<Self, RdsError> {
        let n_shards = chk.states.len();
        if n_shards == 0 {
            return Err(RdsError::checkpoint(
                "engine checkpoint holds no shard states",
            ));
        }
        if chk.batch_size == 0 {
            return Err(RdsError::checkpoint(
                "engine checkpoint has a zero batch size",
            ));
        }
        if chk.routed.len() != n_shards {
            return Err(RdsError::checkpoint(format!(
                "engine checkpoint routing counters cover {} shards, states {}",
                chk.routed.len(),
                n_shards
            )));
        }
        // Shards whose state embeds a configuration must match the shared
        // one: feeding a point of the router's dimension to a sampler
        // built for another dimension would panic inside a worker thread,
        // which violates the "untrusted checkpoints never panic" contract.
        for (i, st) in chk.states.iter().enumerate() {
            if let Some(state_cfg) = S::state_config(st) {
                if *state_cfg != chk.cfg {
                    return Err(RdsError::checkpoint(format!(
                        "shard {i} state embeds a configuration differing from \
                         the engine checkpoint's shared configuration"
                    )));
                }
            }
        }
        // Window families: every shard must expire under the same
        // horizon, or the merged summary would silently mix entries that
        // are live under one window and expired under another.
        let mut windows = chk.states.iter().filter_map(S::state_window);
        if let Some(w0) = windows.next() {
            if windows.any(|w| w != w0) {
                return Err(RdsError::checkpoint(
                    "engine checkpoint shards disagree on the window model",
                ));
            }
        }
        let mut samplers = chk
            .states
            .into_iter()
            .map(S::try_from_state)
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(Some)
            .collect::<Vec<_>>();
        let mut engine = Self::try_with_factory(&chk.cfg, n_shards, |i| {
            // lint:allow(L1) the vec holds exactly n_shards restored
            // samplers and the factory visits each index once
            samplers[i].take().expect("one restored sampler per shard")
        })?;
        engine.batch_size = chk.batch_size;
        engine.seen = chk.seen;
        engine.last_stamp = chk.last_stamp;
        engine.draws = chk.draws;
        for (shard, routed) in engine.workers.shards.iter_mut().zip(chk.routed) {
            shard.routed = routed;
        }
        Ok(engine)
    }
}

/// The serializable full state of a [`ShardedEngine`]: the shared
/// configuration (the router is re-derived from it), the engine clock and
/// batching parameters, and one sampler state per shard, in shard order.
///
/// Produced by [`ShardedEngine::checkpoint`], consumed by
/// [`ShardedEngine::try_restore`]. The facade embeds it in its durable
/// checkpoint container; it also serializes standalone for callers using
/// the engine directly.
#[derive(Clone, Debug)]
pub struct EngineCheckpoint<St> {
    cfg: SamplerConfig,
    batch_size: usize,
    seen: u64,
    last_stamp: Stamp,
    draws: u64,
    states: Vec<St>,
    routed: Vec<u64>,
}

impl<St> EngineCheckpoint<St> {
    /// The checkpoint of a one-shard engine running a sampler with state
    /// `state` after `seen` ingested items up to clock `last_stamp`, with
    /// the default batch size and no engine-level draws — the inverse of
    /// [`Self::into_single`] for an engine driven only by ingestion.
    pub fn single(cfg: SamplerConfig, state: St, seen: u64, last_stamp: Stamp) -> Self {
        Self {
            cfg,
            batch_size: DEFAULT_BATCH_SIZE,
            seen,
            last_stamp,
            draws: 0,
            states: vec![state],
            routed: vec![seen],
        }
    }

    /// The lone sampler state of a one-shard checkpoint — exactly what a
    /// bare sampler fed the same stream would checkpoint. The engine-level
    /// fields are dropped; [`Self::single`] rebuilds them.
    ///
    /// # Errors
    ///
    /// The checkpoint itself, unless it holds exactly one shard.
    pub fn into_single(mut self) -> Result<St, Box<Self>> {
        if self.states.len() == 1 {
            if let Some(state) = self.states.pop() {
                return Ok(state);
            }
        }
        Err(Box::new(self))
    }

    /// The shared configuration the checkpointed engine was built from.
    pub fn config(&self) -> &SamplerConfig {
        &self.cfg
    }

    /// The number of worker shards the checkpoint covers.
    pub fn n_shards(&self) -> usize {
        self.states.len()
    }

    /// Number of items the checkpointed engine had ingested.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The per-shard sampler states, in shard order — callers embedding
    /// the checkpoint (the facade container) cross-validate these against
    /// their own config echo before restoring.
    pub fn states(&self) -> &[St] {
        &self.states
    }
}

// Manual impls: the vendored derive does not handle generic structs.
impl<St: Serialize> Serialize for EngineCheckpoint<St> {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("cfg".to_string(), self.cfg.to_value()),
            ("batch_size".to_string(), self.batch_size.to_value()),
            ("seen".to_string(), self.seen.to_value()),
            ("last_stamp".to_string(), self.last_stamp.to_value()),
            ("draws".to_string(), self.draws.to_value()),
            ("states".to_string(), self.states.to_value()),
            ("routed".to_string(), self.routed.to_value()),
        ])
    }
}

impl<St: Deserialize> Deserialize for EngineCheckpoint<St> {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        fn get<T: Deserialize>(value: &serde::Value, name: &str) -> Result<T, serde::DeError> {
            T::from_value(value.get(name).unwrap_or(&serde::Value::Null))
                .map_err(|e| serde::DeError::custom(format!("field `{name}`: {e}")))
        }
        Ok(Self {
            cfg: get(value, "cfg")?,
            batch_size: get(value, "batch_size")?,
            seen: get(value, "seen")?,
            last_stamp: get(value, "last_stamp")?,
            draws: get(value, "draws")?,
            states: get(value, "states")?,
            routed: get(value, "routed")?,
        })
    }
}

impl ShardedEngine<RobustL0Sampler> {
    /// Spawns `n_shards` worker threads, each with a fresh
    /// infinite-window site sampler of the shared configuration
    /// (Algorithm 1's default threshold).
    ///
    /// # Errors
    ///
    /// [`RdsError::InvalidShards`] or any [`SamplerConfig::validate`]
    /// failure.
    pub fn try_new(cfg: SamplerConfig, n_shards: usize) -> Result<Self, RdsError> {
        let threshold = cfg.threshold();
        Self::try_with_threshold(cfg, n_shards, threshold)
    }

    /// Like [`Self::try_new`] with an explicit accept-set threshold per
    /// shard (Section 5's F0 regime uses `kappa_B / eps^2`).
    ///
    /// # Errors
    ///
    /// [`RdsError::InvalidShards`], [`RdsError::InvalidThreshold`], or
    /// any [`SamplerConfig::validate`] failure.
    pub fn try_with_threshold(
        cfg: SamplerConfig,
        n_shards: usize,
        threshold: usize,
    ) -> Result<Self, RdsError> {
        if threshold == 0 {
            return Err(RdsError::InvalidThreshold);
        }
        Self::try_with_factory(&cfg, n_shards, |_| {
            RobustL0Sampler::try_with_threshold(cfg.clone(), threshold)
                // lint:allow(L1) threshold was just checked nonzero and
                // the config came from the validating builder
                .expect("configuration validated above")
        })
    }
}

impl ShardedEngine<SlidingWindowSampler> {
    /// Spawns `n_shards` workers, each with a fresh [`SlidingWindowSampler`]
    /// over `window` sharing the configuration. Items must be ingested
    /// through [`Self::ingest_item`] with their global stamps (or
    /// [`Self::ingest`], which stamps by arrival index).
    ///
    /// # Errors
    ///
    /// [`RdsError::InvalidShards`], [`RdsError::UnboundedWindow`],
    /// [`RdsError::EmptyWindow`], or any [`SamplerConfig::validate`]
    /// failure.
    pub fn try_sliding_window(
        cfg: SamplerConfig,
        window: Window,
        n_shards: usize,
    ) -> Result<Self, RdsError> {
        let threshold = cfg.threshold();
        Self::try_sliding_window_with_threshold(cfg, window, n_shards, threshold)
    }

    /// Like [`Self::try_sliding_window`] with an explicit per-level
    /// accept-set threshold (the Section 5 F0 regime uses
    /// `kappa_B / eps^2`).
    ///
    /// # Errors
    ///
    /// As [`Self::try_sliding_window`], plus
    /// [`RdsError::InvalidThreshold`] on a zero threshold.
    pub fn try_sliding_window_with_threshold(
        cfg: SamplerConfig,
        window: Window,
        n_shards: usize,
        threshold: usize,
    ) -> Result<Self, RdsError> {
        // Validate window + threshold once up front so the factory cannot
        // panic (try_with_factory validates the config itself).
        window.len().ok_or(RdsError::UnboundedWindow).and_then(|w| {
            if w == 0 {
                Err(RdsError::EmptyWindow)
            } else if threshold == 0 {
                Err(RdsError::InvalidThreshold)
            } else {
                Ok(())
            }
        })?;
        Self::try_with_factory(&cfg, n_shards, |_| {
            SlidingWindowSampler::try_with_threshold(cfg.clone(), window, threshold)
                // lint:allow(L1) window and threshold were validated by
                // the probe construction just above
                .expect("window, threshold and configuration validated above")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grouped_point(i: u64, n_groups: u64) -> Point {
        Point::new(vec![
            (i % n_groups) as f64 * 10.0 + 0.01 * ((i / n_groups) % 5) as f64,
        ])
    }

    fn cfg(seed: u64) -> SamplerConfig {
        SamplerConfig::builder(1, 0.5)
            .seed(seed)
            .expected_len(2048).build().unwrap()
    }

    #[test]
    fn counts_groups_exactly_when_nothing_subsamples() {
        let mut engine = ShardedEngine::try_new(cfg(1), 4).unwrap().with_batch_size(32);
        for i in 0..512u64 {
            engine.ingest(grouped_point(i, 16));
        }
        assert_eq!(engine.seen(), 512);
        engine.flush();
        assert_eq!(engine.f0_estimate(), 16.0);
    }

    #[test]
    fn snapshot_is_non_draining_and_flush_is_explicit() {
        // The satellite contract: reads cover only flushed items and do
        // not silently ship the batch buffers.
        let mut engine = ShardedEngine::try_new(cfg(30), 2).unwrap().with_batch_size(1024);
        for i in 0..100u64 {
            engine.ingest(grouped_point(i, 10));
        }
        // nothing shipped yet: the snapshot covers the empty prefix
        assert_eq!(engine.f0_estimate(), 0.0);
        assert!(engine.query().is_none());
        // an explicit flush makes every ingested item visible
        engine.flush();
        assert_eq!(engine.f0_estimate(), 10.0);
        // snapshotting did not drain the workers: a second read agrees
        assert_eq!(engine.snapshot().f0_estimate(), 10.0);
    }

    #[test]
    fn matches_single_stream_estimator_on_the_same_seeded_stream() {
        // The acceptance contract: sharded merged F0 == single-stream F0
        // within the configured tolerance, on one seeded stream.
        let n_groups = 300u64;
        let eps = 0.5f64;
        let threshold = (16.0 / (eps * eps)).ceil() as usize;
        let base = SamplerConfig { expected_len: 6000, ..cfg(2) };
        let mut single = RobustL0Sampler::try_with_threshold(base.clone(), threshold).unwrap();
        let mut engine = ShardedEngine::try_with_threshold(base, 8, threshold).unwrap();
        for i in 0..6000u64 {
            let p = grouped_point(i, n_groups);
            single.process(&p);
            engine.ingest(p);
        }
        let merged = engine.finish();
        let sharded_f0 = merged.f0_estimate();
        let single_f0 = single.f0_estimate();
        assert!(
            (sharded_f0 - single_f0).abs() <= eps * single_f0,
            "sharded {sharded_f0} vs single {single_f0} beyond eps {eps}"
        );
        assert!(
            (sharded_f0 - n_groups as f64).abs() <= eps * n_groups as f64,
            "sharded {sharded_f0} vs truth {n_groups} beyond eps {eps}"
        );
    }

    #[test]
    fn sharded_ingestion_is_deterministic() {
        let run = || {
            let mut engine = ShardedEngine::try_new(cfg(3), 3).unwrap().with_batch_size(7);
            for i in 0..600u64 {
                engine.ingest(grouped_point(i, 50));
            }
            (engine.shard_loads(), engine.finish().f0_estimate())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn mid_stream_queries_do_not_disturb_ingestion() {
        let mut engine = ShardedEngine::try_new(cfg(4), 2).unwrap().with_batch_size(16);
        for i in 0..128u64 {
            engine.ingest(grouped_point(i, 8));
        }
        engine.flush();
        let early = engine.f0_estimate();
        assert_eq!(early, 8.0);
        for i in 128..1024u64 {
            engine.ingest(grouped_point(i, 32));
        }
        engine.flush();
        assert_eq!(engine.f0_estimate(), 32.0);
        assert_eq!(engine.seen(), 1024);
    }

    #[test]
    fn query_returns_an_ingested_entity() {
        let mut engine = ShardedEngine::try_new(cfg(5), 4).unwrap();
        assert!(engine.query().is_none());
        for i in 0..64u64 {
            engine.ingest(grouped_point(i, 4));
        }
        engine.flush();
        let q = engine.query().expect("non-empty");
        let entity = (q.rep.get(0) / 10.0).round();
        assert!((0.0..4.0).contains(&entity), "sample {q:?} not an entity");
    }

    #[test]
    fn query_k_returns_distinct_entities() {
        let mut engine = ShardedEngine::try_new(cfg(6), 4).unwrap();
        for i in 0..256u64 {
            engine.ingest(grouped_point(i, 16));
        }
        engine.flush();
        let picks = engine.query_k(5);
        assert_eq!(picks.len(), 5);
        for i in 0..picks.len() {
            for j in (i + 1)..picks.len() {
                assert!(!picks[i].rep.within(&picks[j].rep, 0.5), "duplicate entities");
            }
        }
    }

    #[test]
    fn one_shard_runs_the_bare_sampler_inline() {
        // One shard is the bare sampler run inline: fed the same items,
        // the same advance past expiry and the same mid-stream snapshots,
        // both hold byte-identical checkpoint state and serve identical
        // snapshots and draws.
        fn json<T: Serialize>(v: &T) -> String {
            serde_json::to_string(v).unwrap()
        }
        fn agree<S>(engine: &mut ShardedEngine<S>, bare: &mut S, at: &str)
        where
            S: DistinctSampler + Checkpointable + Send + 'static,
            S::Summary: Clone + Send + Serialize + 'static,
        {
            // state first: a read must not be what brings them in line
            let state = engine.checkpoint().into_single().ok().unwrap();
            assert_eq!(json(&state), json(&bare.checkpoint_state()), "{at}: state");
            let (e, b) = (engine.snapshot(), bare.summary_cow());
            assert_eq!(json(&e), json(&b), "{at}: snapshot");
            for draw in 1..6u64 {
                let reps = |s: &S::Summary| -> Vec<Point> {
                    s.query_k(4, draw).into_iter().map(|r| r.rep).collect()
                };
                assert_eq!(reps(&e), reps(&b), "{at}: query_k draw {draw}");
            }
        }
        fn check<S>(mut engine: ShardedEngine<S>, mut bare: S, expired_f0: Option<f64>)
        where
            S: DistinctSampler + Checkpointable + Send + 'static,
            S::Summary: Clone + Send + Serialize + 'static,
        {
            assert_eq!(engine.n_shards(), 1);
            for i in 0..400u64 {
                let item = StreamItem::new(grouped_point(i, 24), Stamp::new(i, i / 4));
                bare.process(&item);
                engine.ingest_item(item);
                if i % 97 == 96 {
                    agree(&mut engine, &mut bare, &format!("item {i}"));
                }
            }
            // chunked ingestion leaves the per-point state
            engine.ingest_batch((400..700u64).map(|i| grouped_point(i, 24)));
            for i in 400..700u64 {
                bare.process(&StreamItem::new(grouped_point(i, 24), Stamp::at(i)));
            }
            agree(&mut engine, &mut bare, "after ingest_batch");
            // the clock moves far past every stamp with no new item
            engine.advance(Stamp::new(700, 10_000));
            bare.advance(Stamp::new(700, 10_000));
            agree(&mut engine, &mut bare, "after advance");
            if let Some(f0) = expired_f0 {
                assert_eq!(engine.f0_estimate(), f0, "the advance must expire");
            }
            assert_eq!(engine.shard_loads(), vec![700]);
        }
        check(
            ShardedEngine::try_new(cfg(7), 1).unwrap(),
            RobustL0Sampler::try_new(cfg(7)).unwrap(),
            None,
        );
        check(
            ShardedEngine::try_sliding_window(cfg(7), Window::Time(30), 1).unwrap(),
            SlidingWindowSampler::try_new(cfg(7), Window::Time(30)).unwrap(),
            Some(0.0),
        );
    }

    #[test]
    fn routing_is_entity_affine() {
        // Near-duplicates of one entity overwhelmingly route to one shard:
        // the load of the busiest shard per entity must be most of it.
        let mut engine = ShardedEngine::try_new(cfg(8), 4).unwrap();
        let mut split_entities = 0u32;
        let n_entities = 64u64;
        for e in 0..n_entities {
            let mut shards_hit = std::collections::BTreeSet::new();
            for j in 0..8u64 {
                let p = Point::new(vec![e as f64 * 10.0 + 0.01 * (j % 5) as f64]);
                shards_hit.insert(engine.router.shard_of(&p, 4));
            }
            if shards_hit.len() > 1 {
                split_entities += 1;
            }
        }
        // side = 4*alpha = 2, jitter 0.04 << 2: splits are rare
        assert!(
            split_entities <= n_entities as u32 / 4,
            "{split_entities}/{n_entities} entities split across shards"
        );
    }

    #[test]
    fn uniformity_over_the_union_of_shards() {
        let n_groups = 16usize;
        let mut hist = rds_metrics::SampleHistogram::new(n_groups);
        for run in 0..300u64 {
            let mut engine =
                ShardedEngine::try_new(cfg(run * 131 + 11), 4).unwrap().with_batch_size(32);
            for i in 0..256u64 {
                engine.ingest(grouped_point(i, n_groups as u64));
            }
            let q = engine.query().expect("non-empty");
            hist.record((q.rep.get(0) / 10.0).round() as usize);
        }
        assert!(
            hist.std_dev_nm() < 0.5,
            "sharded sampling biased: {:?}",
            hist.counts()
        );
    }

    #[test]
    fn sliding_window_shards_end_to_end() {
        // The acceptance test of the generic redesign: a sliding-window
        // sampler sharded 4 ways tracks the live window, expires old
        // groups, and agrees with the unsharded sampler when nothing
        // subsamples.
        let w = 64u64;
        let mut engine = ShardedEngine::try_sliding_window(cfg(21), Window::Sequence(w), 4).unwrap()
            .with_batch_size(16);
        // Phase 1: 16 groups cycling; all 16 live at any time after warmup.
        for i in 0..512u64 {
            engine.ingest(grouped_point(i, 16));
        }
        engine.flush();
        assert_eq!(engine.f0_estimate(), 16.0, "all 16 groups live in the window");
        // Phase 2: only group 0 streams; after w items everything else
        // expired — including on shards that received none of the new
        // items (the advance-before-snapshot path).
        for i in 512..512 + 2 * w {
            engine.ingest(Point::new(vec![0.01 * (i % 3) as f64]));
        }
        engine.flush();
        assert_eq!(engine.f0_estimate(), 1.0, "only group 0 is live");
        let q = engine.query().expect("window non-empty");
        assert!(
            q.rep.within(&Point::new(vec![0.0]), 0.5),
            "sample must come from the only live group"
        );
        let final_summary = engine.finish();
        assert_eq!(final_summary.f0_estimate(), 1.0);
    }

    #[test]
    fn sharded_window_matches_unsharded_on_live_group_count() {
        let w = 128u64;
        let mut single = SlidingWindowSampler::try_new(cfg(22), Window::Sequence(w)).unwrap();
        let mut engine =
            ShardedEngine::try_sliding_window(cfg(22), Window::Sequence(w), 4).unwrap().with_batch_size(8);
        for i in 0..1024u64 {
            let p = grouped_point(i, 32);
            single.process(&StreamItem::new(p.clone(), Stamp::at(i)));
            engine.ingest_item(StreamItem::new(p, Stamp::at(i)));
        }
        // generous threshold: neither side subsamples, both count exactly
        assert_eq!(single.f0_estimate(), 32.0);
        engine.flush();
        assert_eq!(engine.f0_estimate(), 32.0);
    }

    #[test]
    fn sharded_time_window_expires_by_timestamp() {
        let mut engine =
            ShardedEngine::try_sliding_window(cfg(23), Window::Time(10), 3).unwrap().with_batch_size(4);
        // burst of 6 groups at time 0
        for g in 0..6u64 {
            engine.ingest_item(StreamItem::new(
                Point::new(vec![g as f64 * 10.0]),
                Stamp::new(g, 0),
            ));
        }
        engine.flush();
        assert_eq!(engine.f0_estimate(), 6.0);
        // one group at time 20: the burst is out of the window
        engine.ingest_item(StreamItem::new(Point::new(vec![990.0]), Stamp::new(6, 20)));
        engine.flush();
        assert_eq!(engine.f0_estimate(), 1.0);
        let q = engine.query().expect("non-empty");
        assert_eq!(q.rep, Point::new(vec![990.0]));
    }

    #[test]
    fn try_constructors_surface_typed_errors() {
        assert!(matches!(
            ShardedEngine::try_new(cfg(9), 0),
            Err(RdsError::InvalidShards)
        ));
        assert!(matches!(
            ShardedEngine::try_with_threshold(cfg(9), 2, 0),
            Err(RdsError::InvalidThreshold)
        ));
        assert!(matches!(
            ShardedEngine::try_sliding_window(cfg(9), Window::Infinite, 2),
            Err(RdsError::UnboundedWindow)
        ));
        let bad = SamplerConfig { alpha: f64::NAN, ..cfg(9) };
        assert!(matches!(
            ShardedEngine::try_new(bad, 2),
            Err(RdsError::InvalidAlpha { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "batch size must be at least 1")]
    fn zero_batch_size_rejected() {
        let _ = ShardedEngine::try_new(cfg(10), 1).unwrap().with_batch_size(0);
    }

    #[test]
    fn checkpoint_restore_continues_bit_identically() {
        // The engine-level crash-recovery contract: checkpoint → drop →
        // restore → continue must equal an uninterrupted run exactly.
        let mut uninterrupted = ShardedEngine::try_new(cfg(40), 3).unwrap().with_batch_size(16);
        let mut first_half = ShardedEngine::try_new(cfg(40), 3).unwrap().with_batch_size(16);
        for i in 0..300u64 {
            let p = grouped_point(i, 25);
            uninterrupted.ingest(p.clone());
            first_half.ingest(p);
        }
        let chk = first_half.checkpoint();
        assert_eq!(chk.seen(), 300);
        assert_eq!(chk.n_shards(), 3);
        drop(first_half); // the "crash"
        let mut restored =
            ShardedEngine::<RobustL0Sampler>::try_restore(chk).expect("restores");
        assert_eq!(restored.seen(), 300);
        for i in 300..600u64 {
            let p = grouped_point(i, 25);
            uninterrupted.ingest(p.clone());
            restored.ingest(p);
        }
        assert_eq!(restored.shard_loads(), uninterrupted.shard_loads());
        let a = uninterrupted.finish();
        let b = restored.finish();
        assert_eq!(a.f0_estimate(), b.f0_estimate());
        assert_eq!(a.accept_set().len(), b.accept_set().len());
        for (x, y) in a.accept_set().iter().zip(b.accept_set()) {
            assert_eq!(x.rep, y.rep);
            assert_eq!(x.count, y.count);
            assert_eq!(x.reservoir, y.reservoir, "reservoir RNG position must survive");
        }
    }

    #[test]
    fn windowed_checkpoint_survives_json_and_keeps_expiring() {
        let w = 64u64;
        let mut uninterrupted =
            ShardedEngine::try_sliding_window(cfg(41), Window::Sequence(w), 2).unwrap()
                .with_batch_size(8);
        let mut first_half =
            ShardedEngine::try_sliding_window(cfg(41), Window::Sequence(w), 2).unwrap()
                .with_batch_size(8);
        for i in 0..256u64 {
            let p = grouped_point(i, 16);
            uninterrupted.ingest_item(StreamItem::new(p.clone(), Stamp::at(i)));
            first_half.ingest_item(StreamItem::new(p, Stamp::at(i)));
        }
        // full wire round trip, as the facade's container does
        let wire = serde_json::to_string(&first_half.checkpoint()).expect("serializes");
        drop(first_half);
        let chk: EngineCheckpoint<rds_core::SlidingWindowState> =
            serde_json::from_str(&wire).expect("deserializes");
        let mut restored =
            ShardedEngine::<SlidingWindowSampler>::try_restore(chk).expect("restores");
        // both continue: only group 0 streams, everything else expires
        for i in 256..256 + 2 * w {
            let p = Point::new(vec![0.01 * (i % 3) as f64]);
            uninterrupted.ingest_item(StreamItem::new(p.clone(), Stamp::at(i)));
            restored.ingest_item(StreamItem::new(p, Stamp::at(i)));
        }
        uninterrupted.flush();
        restored.flush();
        assert_eq!(restored.f0_estimate(), 1.0, "window must keep sliding after restore");
        assert_eq!(uninterrupted.f0_estimate(), restored.f0_estimate());
        assert_eq!(restored.seen(), uninterrupted.seen());
    }

    #[test]
    fn corrupt_engine_checkpoints_are_typed_errors() {
        let mut engine = ShardedEngine::try_new(cfg(42), 2).unwrap();
        for i in 0..50u64 {
            engine.ingest(grouped_point(i, 5));
        }
        let chk = engine.checkpoint();
        let mut empty = chk.clone();
        empty.states.clear();
        empty.routed.clear();
        assert!(matches!(
            ShardedEngine::<RobustL0Sampler>::try_restore(empty),
            Err(RdsError::Checkpoint { .. })
        ));
        let mut zero_batch = chk.clone();
        zero_batch.batch_size = 0;
        assert!(matches!(
            ShardedEngine::<RobustL0Sampler>::try_restore(zero_batch),
            Err(RdsError::Checkpoint { .. })
        ));
        let mut lopsided = chk;
        lopsided.routed.pop();
        assert!(matches!(
            ShardedEngine::<RobustL0Sampler>::try_restore(lopsided),
            Err(RdsError::Checkpoint { .. })
        ));
    }

    #[test]
    fn restore_rejects_shards_with_disagreeing_windows() {
        // Regression: Window is not part of SamplerConfig, so shards
        // whose states expire under different horizons used to restore
        // Ok and merge live and expired entries into one wrong estimate.
        let mut engine =
            ShardedEngine::try_sliding_window(cfg(44), Window::Sequence(64), 2).unwrap();
        for i in 0..50u64 {
            engine.ingest(grouped_point(i, 5));
        }
        let mut chk = engine.checkpoint();
        let mut foreign =
            SlidingWindowSampler::try_new(cfg(44), Window::Sequence(6400)).unwrap();
        foreign.process(&StreamItem::new(Point::new(vec![1.0]), Stamp::at(0)));
        chk.states[0] = rds_core::Checkpointable::checkpoint_state(&foreign);
        match ShardedEngine::<SlidingWindowSampler>::try_restore(chk) {
            Err(RdsError::Checkpoint { reason }) => {
                assert!(reason.contains("window"), "reason: {reason}")
            }
            other => panic!("expected a typed checkpoint error, got {other:?}"),
        }
    }

    #[test]
    fn restore_rejects_shard_states_of_a_foreign_configuration() {
        // Regression: a crafted checkpoint whose shared configuration
        // says dim 1 but whose shard state embeds dim 2 used to restore
        // Ok and panic inside a worker on the first ingested point.
        let mut engine = ShardedEngine::try_new(cfg(43), 2).unwrap();
        for i in 0..50u64 {
            engine.ingest(grouped_point(i, 5));
        }
        let mut chk = engine.checkpoint();
        let foreign_cfg = SamplerConfig::builder(2, 0.5)
            .seed(43)
            .expected_len(2048)
            .build()
            .unwrap();
        let mut foreign = RobustL0Sampler::try_new(foreign_cfg).unwrap();
        foreign.process(&Point::new(vec![1.0, 2.0]));
        chk.states[0] = rds_core::Checkpointable::checkpoint_state(&foreign);
        match ShardedEngine::<RobustL0Sampler>::try_restore(chk) {
            Err(RdsError::Checkpoint { reason }) => {
                assert!(reason.contains("shard 0"), "reason: {reason}")
            }
            other => panic!("expected a typed checkpoint error, got {other:?}"),
        }
    }

    #[test]
    fn advance_expires_quiet_windows_without_items() {
        let mut engine = ShardedEngine::try_sliding_window(cfg(31), Window::Time(10), 2)
            .unwrap()
            .with_batch_size(4);
        for g in 0..5u64 {
            engine.ingest_item(StreamItem::new(
                Point::new(vec![g as f64 * 10.0]),
                Stamp::new(g, 0),
            ));
        }
        engine.flush();
        assert_eq!(engine.f0_estimate(), 5.0);
        // No new items — only the clock moves. Every shard must expire.
        engine.advance(Stamp::new(5, 100));
        assert_eq!(engine.f0_estimate(), 0.0);
        // advance is monotone: an older stamp cannot resurrect anything
        engine.advance(Stamp::new(0, 0));
        assert_eq!(engine.f0_estimate(), 0.0);
    }
}
