//! The space-efficient sliding-window sampler: independent,
//! admission-capped levels of Algorithm 2.
//!
//! Level `ℓ` (for `ℓ = 0..=ceil(log2 w)`) is a [`FixedRateWindowSampler`]
//! that runs Algorithm 2 over the *whole* window at cell sample rate
//! `2^-ℓ`; every level shares one grid and hash function. This is the
//! per-level "keep the most recent" scheme of Gibbons & Tirthapura
//! (*Distributed streams algorithms for sliding windows*, SPAA 2002)
//! applied to the paper's robust Algorithm 2, in place of the
//! split/merge cascade of Algorithms 3–5.
//!
//! * **Admission cap.** A level whose accept set holds `threshold`
//!   groups refuses every new first point that would enter it, accepted
//!   or rejected, and records the point's stamp as its horizon.
//!   Duplicates of groups it already tracks still refresh them. So
//!   `|Sacc_ℓ| <= threshold` holds after every arrival.
//! * **Answering level.** Queries, the F0 estimate and summaries read the
//!   lowest level whose horizon is unset or has left the window: that
//!   level has refused no point the window still holds, so it has run
//!   Algorithm 2 on every one of them, its accept set is a `2^-ℓ` sample
//!   of the window's groups (Observation 1), and `|Sacc_ℓ| · 2^ℓ`
//!   estimates F0.
//!   When every level has refused a live point the top level answers. If
//!   the answering level accepted no group, the lowest level holding an
//!   accepted group answers instead. Level 0 (rate 1) holds the newest
//!   arrival's group unless it is full, so after every arrival a sample
//!   exists (Lemma 2.10). A clock [`SlidingWindowSampler::expire`] alone
//!   can expire every tracked group while a refused point is still live.
//! * **Refuse, never evict.** Evicting the oldest accepted group to make
//!   room would re-decide that group's representative on its next point.
//!   Only accepted groups are evicted, so whether a group is re-decided
//!   depends on its own hash, and entities whose points straddle grid
//!   cells drift out of the sample: on a skewed 1-D stream with 40 live
//!   entities (2000 seeds) eviction reads a mean F0 of 29.1 and refusal
//!   39.6. Refusal does not look at the newcomer's hash.
//!
//! Each arrival hashes its cell once and walks the `adj(p)` DFS at most
//! once, for all levels: a cell sampled at rate `2^-ℓ` is sampled at
//! every finer rate (Fact 1b), so the highest level at which `cell(p)`
//! is sampled and the highest at which some cell of `adj(p)` is sampled
//! decide every level with two comparisons.

use crate::checkpoint::{checkpoint_err, Checkpointable, RngState};
use crate::config::{SamplerConfig, SamplerContext};
use crate::error::RdsError;
use crate::infinite::{GroupRecord, ProcessOutcome};
use crate::sampler::{window_entry_record, DistinctSampler, EntryChunk, WindowSummary};
use crate::sw_fixed::{draw_k, FixedRateLevelState, FixedRateWindowSampler, WindowGroupEntry};
use rand::rngs::StdRng;
use rand::seq::{IndexedRandom, SliceRandom};
use rand::SeedableRng;
use rds_geometry::{for_each_adjacent_cell_fold_with, AdjacencyScratch, Point};
use rds_hashing::{max_sampled_level, CellKeyMixer};
use rds_metrics::SpaceMeter;
use rds_stream::{Stamp, StreamItem, Window};
use serde::{DeError, Deserialize, Serialize, Value};
use std::sync::Arc;

/// What the query of a sliding-window sampler returns: the sampled group's
/// representative, latest point, and size bookkeeping.
#[derive(Clone, Debug)]
pub struct GroupSample {
    /// The group's representative for the current window.
    pub representative: Point,
    /// The group's latest point — always inside the window.
    pub latest: Point,
    /// A reservoir-sampled random member (Section 2.3 extension).
    pub random_member: Point,
    /// Number of group points observed since the representative.
    pub count: u64,
}

impl From<&WindowGroupEntry> for GroupSample {
    fn from(e: &WindowGroupEntry) -> Self {
        Self {
            representative: e.rep.clone(),
            latest: e.last.clone(),
            random_member: e.reservoir.clone(),
            count: e.count,
        }
    }
}

/// Robust ℓ0-sampling over sliding windows in `O(log w log m)` words:
/// `1 + ceil(log2 w)` admission-capped levels of Algorithm 2 (see the
/// module docs).
///
/// Works for both sequence-based and time-based windows; pass the desired
/// [`Window`] at construction.
///
/// # Examples
///
/// ```
/// use rds_core::{SlidingWindowSampler, SamplerConfig};
/// use rds_geometry::Point;
/// use rds_stream::{Stamp, StreamItem, Window};
///
/// let cfg = SamplerConfig::builder(1, 0.5).seed(5).build().unwrap();
/// let mut s = SlidingWindowSampler::try_new(cfg, Window::Sequence(16)).unwrap();
/// for i in 0..100u64 {
///     s.process(&StreamItem::new(Point::new(vec![(i % 40) as f64 * 10.0]), Stamp::at(i)));
/// }
/// let sample = s.query().expect("window is non-empty");
/// assert_eq!(sample.latest.dim(), 1);
/// ```
#[derive(Debug)]
pub struct SlidingWindowSampler {
    ctx: Arc<SamplerContext>,
    window: Window,
    levels: Vec<FixedRateWindowSampler>,
    /// Per level, the stamp of the newest first point it refused at its
    /// cap; the level answers exactly once that stamp has left the window.
    horizons: Vec<Option<Stamp>>,
    /// The latest stamp processed or advanced to.
    now: Stamp,
    threshold: usize,
    scratch: Vec<i64>,
    /// Scratch for the per-arrival `adj(p)` walk: DFS buffers, the
    /// visited cells' keys and their hashes.
    adj_scratch: (AdjacencyScratch, Vec<u64>, Vec<u64>),
    rng: StdRng,
    seen: u64,
    space: SpaceMeter,
    /// Copy-on-write snapshot cache: the answering level, its
    /// [`FixedRateWindowSampler::mutations`] reading and the chunk built
    /// from it. An unchanged pair re-publishes the `Arc` chunk without
    /// copying an entry. Never serialized.
    summary_cache: Option<(usize, u64, EntryChunk)>,
}

impl SlidingWindowSampler {
    /// Creates the sampler over a bounded window (with the
    /// configuration's default threshold).
    ///
    /// # Errors
    ///
    /// [`RdsError::UnboundedWindow`] / [`RdsError::EmptyWindow`] for a bad
    /// window (use [`crate::RobustL0Sampler`] for the infinite window), or
    /// any [`SamplerConfig::validate`] failure.
    pub fn try_new(cfg: SamplerConfig, window: Window) -> Result<Self, RdsError> {
        let threshold = cfg.threshold();
        Self::try_with_threshold(cfg, window, threshold)
    }

    /// Creates the sampler with an explicit per-level `|Sacc|` cap
    /// (the Section 5 F0 regime uses `kappa_B / eps^2`).
    ///
    /// # Errors
    ///
    /// [`RdsError::UnboundedWindow`], [`RdsError::EmptyWindow`],
    /// [`RdsError::InvalidThreshold`], or any [`SamplerConfig::validate`]
    /// failure.
    pub fn try_with_threshold(
        cfg: SamplerConfig,
        window: Window,
        threshold: usize,
    ) -> Result<Self, RdsError> {
        cfg.validate()?;
        let w = window.len().ok_or(RdsError::UnboundedWindow)?;
        if w == 0 {
            return Err(RdsError::EmptyWindow);
        }
        if threshold == 0 {
            return Err(RdsError::InvalidThreshold);
        }
        let seed = cfg.seed;
        // ceil(log2 w) clamped to [1, MAX_LEVEL]: at w = u64::MAX the
        // unclamped value is 64, which `level_sampled` (shift by `level`)
        // and the `2^l` in `f0_estimate` cannot represent — and a rate of
        // 2^-MAX_LEVEL is already unreachable for any physical stream.
        let top = (64 - (w - 1).leading_zeros()).clamp(1, crate::MAX_LEVEL);
        let ctx = Arc::new(SamplerContext::new(cfg));
        let levels: Vec<_> = (0..=top)
            .map(|l| FixedRateWindowSampler::with_context(ctx.clone(), window, l, seed))
            .collect();
        Ok(Self {
            ctx,
            window,
            horizons: vec![None; levels.len()],
            levels,
            now: Stamp::at(0),
            threshold,
            scratch: Vec::new(),
            adj_scratch: (AdjacencyScratch::new(), Vec::new(), Vec::new()),
            rng: StdRng::seed_from_u64(seed ^ 0x51D1_1365),
            seen: 0,
            space: SpaceMeter::new(),
            summary_cache: None,
        })
    }

    /// Expires entries at every level against `now` without feeding a
    /// point (the trait-level [`DistinctSampler::advance`]).
    pub fn expire(&mut self, now: Stamp) {
        self.now = self.now.max(now);
        for lvl in &mut self.levels {
            lvl.expire(now);
        }
    }

    /// Feeds one stream item to every level. Stamps must be
    /// non-decreasing. Returns level 0's outcome: `Duplicate` for a
    /// tracked group, `Accepted` for a new one, `Ignored` when level 0 is
    /// at its cap and refuses it.
    pub fn process(&mut self, item: &StreamItem) -> ProcessOutcome {
        self.seen += 1;
        self.now = self.now.max(item.stamp);
        let top = self.top();
        // Computed on the first level that sees a first point, then shared:
        // (h(cell(p)), highest level sampling cell(p)), and the highest
        // level sampling some cell of adj(p).
        let mut own: Option<(u64, u32)> = None;
        let mut adj: Option<u32> = None;
        let mut outcome = ProcessOutcome::Ignored;
        for ((lvl, horizon), l) in self.levels.iter_mut().zip(&mut self.horizons).zip(0u32..) {
            lvl.expire(item.stamp);
            let here = if lvl.update_duplicate(item).is_some() {
                ProcessOutcome::Duplicate
            } else {
                let (h, own_level) = *own.get_or_insert_with(|| {
                    let h = self.ctx.cell_hash(&item.point, &mut self.scratch);
                    (h, max_sampled_level(h, top))
                });
                let accepted = l <= own_level;
                let enters = accepted
                    || l <= *adj.get_or_insert_with(|| {
                        max_adjacent_sampled_level(&self.ctx, &item.point, top, &mut self.adj_scratch)
                    });
                if !enters {
                    ProcessOutcome::Ignored
                } else if lvl.accepted_len() >= self.threshold {
                    *horizon = Some(item.stamp);
                    ProcessOutcome::Ignored
                } else {
                    lvl.admit(item, h, accepted)
                }
            };
            if l == 0 {
                outcome = here;
            }
        }
        self.space.observe(self.words());
        outcome
    }

    /// The highest level's rate exponent (`ceil(log2 w)`, clamped).
    fn top(&self) -> u32 {
        self.levels.last().map_or(0, FixedRateWindowSampler::level)
    }

    /// The lowest level whose view of the window is exact: it has refused
    /// no first point that is still inside the window. `None` when every
    /// level has (the top level then answers).
    pub fn exact_level(&self) -> Option<u32> {
        let l = self
            .horizons
            .iter()
            .position(|h| h.is_none_or(|h| !self.window.live(h, self.now)))?;
        u32::try_from(l).ok()
    }

    /// Index of the level that answers queries, F0 and summaries: the
    /// exact level (else the top), or — when that level accepted no
    /// group — the lowest level that holds an accepted group.
    fn answering(&self) -> usize {
        let l = self
            .exact_level()
            .map_or(self.levels.len() - 1, |l| l as usize);
        if self.levels[l].accepted_len() > 0 {
            return l;
        }
        self.levels
            .iter()
            .position(|lvl| lvl.accepted_len() > 0)
            .unwrap_or(l)
    }

    /// The answering level's accepted groups, with the query PRNG.
    fn answer(&mut self) -> (Vec<&WindowGroupEntry>, &mut StdRng) {
        let l = self.answering();
        (self.levels[l].accepted().collect(), &mut self.rng)
    }

    /// Draws a robust ℓ0-sample of the current window: a uniformly random
    /// accepted group of the answering level. `None` when no level holds
    /// an accepted group: the window is empty, or a clock-only
    /// [`Self::expire`] left only refused points live.
    pub fn query(&mut self) -> Option<GroupSample> {
        let (pool, rng) = self.answer();
        pool.choose(rng).map(|e| GroupSample::from(*e))
    }

    /// Draws up to `k` *distinct* groups (Section 2.3: configure
    /// [`crate::SamplerConfigBuilder::k`] so the per-level cap scales
    /// with `k`).
    pub fn query_k(&mut self, k: usize) -> Vec<GroupSample> {
        let (mut pool, rng) = self.answer();
        pool.shuffle(rng);
        pool.into_iter().take(k).map(GroupSample::from).collect()
    }

    /// Horvitz–Thompson estimate of the number of groups in the window
    /// from the answering level: `|Sacc_ℓ| * 2^ℓ`.
    pub fn f0_estimate(&self) -> f64 {
        self.levels[self.answering()].f0_estimate()
    }

    /// Number of items processed.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The per-level `|Sacc|` cap in force.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Number of levels (`1 + ceil(log2 w)`).
    pub fn n_levels(&self) -> usize {
        self.levels.len()
    }

    /// Per-level accepted/rejected counts, level 0 first.
    pub fn level_occupancy(&self) -> Vec<(usize, usize)> {
        self.levels
            .iter()
            .map(|l| (l.accepted_len(), l.rejected_len()))
            .collect()
    }

    /// The window model.
    pub fn window(&self) -> Window {
        self.window
    }

    /// Current footprint in machine words.
    pub fn words(&self) -> usize {
        let level_words: usize = self.levels.iter().map(|l| l.words()).sum();
        // Each live entry costs at least ten words (three points of at
        // least one coordinate, hash, two stamps, count, flag); a total
        // below that floor means the accounting under-reports space.
        debug_assert!(
            level_words >= 10 * self.all_entries().count(),
            "words() accounting fell below the per-entry floor"
        );
        // two words per horizon stamp; six for the clock, counters and cap
        self.ctx.words() + level_words + 2 * self.horizons.len() + 6
    }

    /// Peak footprint (the paper's `pSpace`).
    pub fn peak_words(&self) -> usize {
        self.space.peak_words()
    }

    /// The shared context (grid + hash).
    pub fn context(&self) -> &SamplerContext {
        &self.ctx
    }

    /// All live entries, level by level (diagnostics/tests). A group may
    /// be tracked at several levels.
    pub fn all_entries(&self) -> impl Iterator<Item = &WindowGroupEntry> {
        self.levels.iter().flat_map(|l| l.entries().iter())
    }

    /// The answering level's accepted entries tagged with its level.
    fn tagged_answer(&self) -> Vec<(u32, WindowGroupEntry)> {
        let lvl = &self.levels[self.answering()];
        lvl.accepted().map(|e| (lvl.level(), e.clone())).collect()
    }
}

/// The highest level, capped at `cap`, at which some cell of `adj(p)` is
/// sampled, from one walk of the `SearchAdj` fold DFS: for every
/// `level <= cap` it is `>= level` exactly when
/// [`SamplerContext::any_adjacent_sampled_with`] holds at `level` (Fact 1b
/// nests the sampled sets). `scratch` holds the DFS buffers and the
/// visited cells' keys and hashes.
fn max_adjacent_sampled_level(
    ctx: &SamplerContext,
    p: &Point,
    cap: u32,
    scratch: &mut (AdjacencyScratch, Vec<u64>, Vec<u64>),
) -> u32 {
    let (dfs, keys, hashes) = scratch;
    keys.clear();
    for_each_adjacent_cell_fold_with(
        ctx.grid(),
        p,
        ctx.alpha(),
        ctx.hasher().mixer().fold_init(ctx.cfg().dim),
        CellKeyMixer::fold_step,
        |_cell, key| {
            keys.push(key);
            false
        },
        dfs,
    );
    ctx.hasher().hash_keys_slice(keys, hashes);
    hashes.iter().map(|&h| max_sampled_level(h, cap)).max().unwrap_or(0)
}

/// The serializable full state of a [`SlidingWindowSampler`]: one
/// [`FixedRateLevelState`] per level (entries + per-level PRNG position),
/// the per-level horizons and clock, the window model, the threshold and
/// the query PRNG position. The shared grid/hash context is a
/// deterministic function of the embedded [`SamplerConfig`] and is
/// rebuilt on restore.
#[derive(Clone, Debug, Serialize)]
pub struct SlidingWindowState {
    cfg: SamplerConfig,
    window: Window,
    threshold: usize,
    levels: Vec<FixedRateLevelState>,
    horizons: Vec<Option<Stamp>>,
    now: Stamp,
    seen: u64,
    rng: RngState,
    peak_words: usize,
}

impl SlidingWindowState {
    /// The configuration the checkpointed sampler was built from.
    pub fn cfg(&self) -> &SamplerConfig {
        &self.cfg
    }

    /// The window model in force at capture time.
    pub fn window(&self) -> Window {
        self.window
    }

    /// The per-level states, level 0 first.
    pub fn levels(&self) -> &[FixedRateLevelState] {
        &self.levels
    }
}

impl Deserialize for SlidingWindowState {
    /// Field-by-field, like the derived impl, except that a state without
    /// per-level horizons is refused by name: the split/merge hierarchy
    /// that wrote it kept subwindows above level 0, not whole-window
    /// samples, so restoring it would silently mis-answer.
    fn from_value(value: &Value) -> Result<Self, DeError> {
        if value.get("horizons").is_none() {
            return Err(DeError::custom(
                "window state has no per-level horizons: it was written by the \
                 split/merge hierarchy, whose levels above 0 hold subwindows rather \
                 than whole-window samples, and cannot be restored",
            ));
        }
        fn field<T: Deserialize>(value: &Value, name: &str) -> Result<T, DeError> {
            T::from_value(value.get(name).unwrap_or(&Value::Null))
                .map_err(|e| DeError::custom(format!("field `{name}`: {e}")))
        }
        Ok(Self {
            cfg: field(value, "cfg")?,
            window: field(value, "window")?,
            threshold: field(value, "threshold")?,
            levels: field(value, "levels")?,
            horizons: field(value, "horizons")?,
            now: field(value, "now")?,
            seen: field(value, "seen")?,
            rng: field(value, "rng")?,
            peak_words: field(value, "peak_words")?,
        })
    }
}

impl Checkpointable for SlidingWindowSampler {
    type State = SlidingWindowState;

    fn checkpoint_state(&self) -> SlidingWindowState {
        SlidingWindowState {
            cfg: self.ctx.cfg().clone(),
            window: self.window,
            threshold: self.threshold,
            levels: self.levels.iter().map(|l| l.capture_level()).collect(),
            horizons: self.horizons.clone(),
            now: self.now,
            seen: self.seen,
            rng: RngState::capture(&self.rng),
            peak_words: self.space.peak_words(),
        }
    }

    fn try_from_state(state: SlidingWindowState) -> Result<Self, RdsError> {
        let mut s = Self::try_with_threshold(state.cfg, state.window, state.threshold)?;
        if s.levels.len() != state.levels.len() || s.levels.len() != state.horizons.len() {
            return Err(checkpoint_err(format!(
                "window {:?} builds {} levels but the state holds {} levels and {} horizons",
                state.window,
                s.levels.len(),
                state.levels.len(),
                state.horizons.len()
            )));
        }
        if state.horizons.iter().flatten().any(|h| *h > state.now) {
            return Err(checkpoint_err("a level horizon lies after the window clock"));
        }
        for (lvl, st) in s.levels.iter_mut().zip(state.levels) {
            lvl.restore_level(st)?;
        }
        s.horizons = state.horizons;
        s.now = state.now;
        s.seen = state.seen;
        s.rng = state.rng.restore();
        s.space.observe(state.peak_words);
        s.space.observe(s.words());
        Ok(s)
    }

    fn state_config(state: &SlidingWindowState) -> Option<&SamplerConfig> {
        Some(&state.cfg)
    }

    fn state_window(state: &SlidingWindowState) -> Option<Window> {
        Some(state.window)
    }
}

impl DistinctSampler for SlidingWindowSampler {
    type Summary = WindowSummary;

    /// Expiry changes the summary as the clock moves, without new items.
    const TIME_SENSITIVE: bool = true;

    fn process(&mut self, item: &StreamItem) -> ProcessOutcome {
        SlidingWindowSampler::process(self, item)
    }

    fn advance(&mut self, now: Stamp) {
        self.expire(now);
    }

    /// The record's `rep` is the group's latest point (always inside the
    /// window).
    fn query_record(&mut self) -> Option<GroupRecord> {
        let (pool, rng) = self.answer();
        pool.choose(rng).map(|e| window_entry_record(e))
    }

    fn query_k(&mut self, k: usize) -> Vec<GroupRecord> {
        let (pool, rng) = self.answer();
        draw_k(pool, k, rng)
    }

    fn f0_estimate(&self) -> f64 {
        SlidingWindowSampler::f0_estimate(self)
    }

    fn seen(&self) -> u64 {
        SlidingWindowSampler::seen(self)
    }

    fn words(&self) -> usize {
        SlidingWindowSampler::words(self)
    }

    /// The answering level's accepted entries, tagged with its level.
    fn summary(&self) -> WindowSummary {
        WindowSummary::from_parts(self.ctx.cfg().clone(), self.tagged_answer())
    }

    /// Rebuilds the chunk only when the answering level or its
    /// [`FixedRateWindowSampler`] mutation counter moved since the
    /// previous call; otherwise re-publishes the previous `Arc` chunk.
    /// Always equal to [`Self::summary`].
    fn summary_cow(&mut self) -> WindowSummary {
        let l = self.answering();
        let muts = self.levels[l].mutations();
        let chunk = match &self.summary_cache {
            Some((cached_l, cached_muts, chunk)) if *cached_l == l && *cached_muts == muts => {
                chunk.clone()
            }
            _ => {
                let chunk: EntryChunk = Arc::new(self.tagged_answer());
                self.summary_cache = Some((l, muts, chunk.clone()));
                chunk
            }
        };
        let chunks = if chunk.is_empty() { Vec::new() } else { vec![chunk] };
        WindowSummary::from_chunks(self.ctx.cfg().clone(), chunks)
    }

    fn into_summary(mut self) -> WindowSummary {
        let l = self.answering();
        let level = self.levels[l].level();
        let entries = self.levels[l]
            .take_entries()
            .into_iter()
            .filter(|e| e.accepted)
            .map(|e| (level, e))
            .collect();
        WindowSummary::from_parts(self.ctx.cfg().clone(), entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rds_stream::Stamp;

    fn item(x: f64, seq: u64) -> StreamItem {
        StreamItem::new(Point::new(vec![x]), Stamp::at(seq))
    }

    fn cfg(seed: u64) -> SamplerConfig {
        SamplerConfig::builder(1, 0.5)
            .seed(seed)
            .expected_len(1 << 12).build().unwrap()
    }

    /// Brute-force ground truth: group ids of live points under a
    /// sequence window, for 1-D streams where group = round(x / 10).
    fn live_groups(stream: &[StreamItem], now: u64, w: u64) -> Vec<i64> {
        let mut gs: Vec<i64> = stream
            .iter()
            .filter(|it| it.stamp.seq + w > now && it.stamp.seq <= now)
            .map(|it| (it.point.get(0) / 10.0).round() as i64)
            .collect();
        gs.sort_unstable();
        gs.dedup();
        gs
    }

    #[test]
    fn query_none_only_when_window_empty() {
        let mut s = SlidingWindowSampler::try_new(cfg(1), Window::Sequence(4)).unwrap();
        assert!(s.query().is_none());
        s.process(&item(0.0, 0));
        assert!(s.query().is_some());
    }

    #[test]
    fn single_group_stream_always_samples_it() {
        let mut s = SlidingWindowSampler::try_new(cfg(2), Window::Sequence(8)).unwrap();
        for i in 0..50u64 {
            s.process(&item(0.1 * ((i % 3) as f64), i));
            let q = s.query().expect("window never empty");
            assert!(q.latest.within(&Point::new(vec![0.0]), 0.5));
        }
    }

    #[test]
    fn sampled_latest_point_is_always_live() {
        let w = 16u64;
        let mut s = SlidingWindowSampler::try_new(cfg(3), Window::Sequence(w)).unwrap();
        let stream: Vec<StreamItem> = (0..300u64)
            .map(|i| item(((i * 7) % 60) as f64 * 10.0, i))
            .collect();
        for (i, it) in stream.iter().enumerate() {
            s.process(it);
            let q = s.query().expect("non-empty");
            // the returned latest point must be one of the live points
            let live: Vec<&StreamItem> = stream[..=i]
                .iter()
                .filter(|x| x.stamp.seq + w > it.stamp.seq)
                .collect();
            assert!(
                live.iter().any(|x| x.point == q.latest),
                "sampled point not live at step {i}"
            );
        }
    }

    #[test]
    fn tracked_groups_are_a_subset_of_live_groups() {
        let w = 32u64;
        let mut s = SlidingWindowSampler::try_new(cfg(4), Window::Sequence(w)).unwrap();
        let stream: Vec<StreamItem> = (0..400u64)
            .map(|i| item(((i * 13) % 90) as f64 * 10.0, i))
            .collect();
        for (i, it) in stream.iter().enumerate() {
            s.process(it);
            let live = live_groups(&stream[..=i], it.stamp.seq, w);
            for e in s.all_entries() {
                let g = (e.last.get(0) / 10.0).round() as i64;
                assert!(live.contains(&g), "tracked group {g} not live at {i}");
            }
        }
    }

    #[test]
    fn no_group_is_tracked_twice_within_a_level() {
        let mut s = SlidingWindowSampler::try_new(cfg(5), Window::Sequence(64)).unwrap();
        for i in 0..500u64 {
            s.process(&item(((i * 13) % 90) as f64 * 10.0, i));
            for lvl in &s.levels {
                let mut reps: Vec<i64> = lvl
                    .entries()
                    .iter()
                    .map(|e| (e.rep.get(0) / 10.0).round() as i64)
                    .collect();
                let n = reps.len();
                reps.sort_unstable();
                reps.dedup();
                assert_eq!(reps.len(), n, "level {} tracks a group twice at step {i}", lvl.level());
            }
        }
    }

    #[test]
    fn accept_sets_never_exceed_the_threshold() {
        let mut s = SlidingWindowSampler::try_new(
            SamplerConfig { kappa0: 0.5, ..cfg(6) }, // tight cap: levels fill
            Window::Sequence(256),
        )
        .unwrap();
        let mut refusals = 0usize;
        for i in 0..2000u64 {
            s.process(&item(((i * 13) % 512) as f64 * 10.0, i));
            for (l, (acc, _)) in s.level_occupancy().into_iter().enumerate() {
                assert!(acc <= s.threshold(), "level {l} holds {acc} accepted groups at step {i}");
            }
            refusals += s.horizons.iter().filter(|h| **h == Some(Stamp::at(i))).count();
        }
        assert!(refusals > 0, "the cap never bound; the test proves nothing");
        assert!(s.exact_level().is_some(), "some level must see the whole window");
    }

    #[test]
    fn every_level_decides_like_a_standalone_fixed_rate_sampler() {
        // With a cap that never binds, level l is Algorithm 2 at rate
        // 2^-l: the shared hash/DFS decisions equal the per-level
        // `hash_sampled` / `any_adjacent_sampled_with` calls.
        let cfg = cfg(7);
        let window = Window::Sequence(128);
        let mut s = SlidingWindowSampler::try_with_threshold(cfg.clone(), window, usize::MAX).unwrap();
        let mut solo: Vec<FixedRateWindowSampler> = (0..s.n_levels() as u32)
            .map(|l| FixedRateWindowSampler::new(cfg.clone(), window, l))
            .collect();
        for i in 0..1500u64 {
            let it = item(((i * 29) % 300) as f64 * 3.7 + 0.2 * (i % 3) as f64, i);
            s.process(&it);
            for f in &mut solo {
                f.process(&it);
            }
        }
        for (lvl, f) in s.levels.iter().zip(&solo) {
            let key = |e: &WindowGroupEntry| {
                (e.rep.clone(), e.accepted, e.last.clone(), e.count, e.reservoir.clone())
            };
            let got: Vec<_> = lvl.entries().iter().map(key).collect();
            let want: Vec<_> = f.entries().iter().map(key).collect();
            assert_eq!(got, want, "level {} diverged", lvl.level());
        }
        assert_eq!(s.exact_level(), Some(0));
    }

    #[test]
    fn one_adjacency_walk_decides_every_level() {
        for dim in 1..=5usize {
            let ctx = SamplerContext::new(SamplerConfig::builder(dim, 1.0).seed(dim as u64).build().unwrap());
            let mut scratch = (AdjacencyScratch::new(), Vec::new(), Vec::new());
            let mut dfs = AdjacencyScratch::new();
            for i in 0..200u64 {
                let p = Point::new((0..dim).map(|d| ((i * 37 + d as u64 * 11) % 97) as f64 * 0.31).collect());
                let max = max_adjacent_sampled_level(&ctx, &p, 12, &mut scratch);
                for level in 0..=12 {
                    assert_eq!(
                        level <= max,
                        ctx.any_adjacent_sampled_with(&p, level, &mut dfs),
                        "dim {dim} point {p:?} level {level}"
                    );
                }
            }
        }
    }

    #[test]
    fn every_level_holds_only_rate_passing_entries() {
        let mut s = SlidingWindowSampler::try_new(SamplerConfig { kappa0: 0.5, ..cfg(7) }, Window::Sequence(128)).unwrap();
        for i in 0..1500u64 {
            s.process(&item(((i * 29) % 300) as f64 * 10.0, i));
        }
        for lvl in &s.levels {
            let l = lvl.level();
            for e in lvl.entries() {
                assert_eq!(
                    e.accepted,
                    s.ctx.hash_sampled(e.rep_hash, l),
                    "entry at level {l} disagrees with its rate"
                );
                assert!(s.ctx.any_adjacent_sampled(&e.rep, l), "untracked entry at level {l}");
            }
        }
    }

    #[test]
    fn a_refusing_level_answers_again_once_its_horizon_expires() {
        let mut s = SlidingWindowSampler::try_with_threshold(cfg(8), Window::Sequence(8), 2).unwrap();
        for i in 0..3u64 {
            s.process(&item(i as f64 * 10.0, i));
        }
        // level 0 (rate 1) took two groups and refused the third
        assert_eq!(s.level_occupancy()[0].0, 2);
        assert_eq!(s.horizons[0], Some(Stamp::at(2)));
        assert_ne!(s.exact_level(), Some(0));
        // one group only, until the refused point (seq 2) leaves the window
        for i in 3..11u64 {
            s.process(&item(0.1, i));
        }
        assert_eq!(s.exact_level(), Some(0));
        assert_eq!(s.f0_estimate(), 1.0);
    }

    #[test]
    fn time_based_window_works() {
        let mut s = SlidingWindowSampler::try_new(cfg(8), Window::Time(10)).unwrap();
        // bursts: 5 groups at time 0, 1 group at time 20
        for g in 0..5u64 {
            s.process(&StreamItem::new(
                Point::new(vec![g as f64 * 10.0]),
                Stamp::new(g, 0),
            ));
        }
        assert!(s.query().is_some());
        s.process(&StreamItem::new(
            Point::new(vec![990.0]),
            Stamp::new(5, 20),
        ));
        // the burst expired; only the last group is live
        let q = s.query().expect("non-empty");
        assert_eq!(q.latest, Point::new(vec![990.0]));
    }

    #[test]
    fn rejected_group_refresh_keeps_sampler_answerable() {
        // The only live group was once rejected at the exact level; the
        // fallback to the lowest level holding an accepted group keeps
        // Lemma 2.10's guarantee that a non-empty window yields a sample.
        let mut s = SlidingWindowSampler::try_new(SamplerConfig { kappa0: 0.5, ..cfg(9) }, Window::Sequence(64)).unwrap();
        // Fill with many groups so every level tracks some (some rejected).
        for i in 0..512u64 {
            s.process(&item(((i * 13) % 128) as f64 * 10.0, i));
        }
        // Now stream only points of one group; everything else expires.
        for i in 512..600u64 {
            s.process(&item(40.0 + 0.01 * (i % 3) as f64, i));
            let q = s.query().expect("window non-empty (Lemma 2.10)");
            if i >= 512 + 64 {
                assert!(
                    q.latest.within(&Point::new(vec![40.0]), 0.5),
                    "only group 4 is live"
                );
            }
        }
    }

    #[test]
    fn uniformity_over_groups_in_window() {
        // Scaled-down empirical check of Theorem 2.7: cycle through 12
        // groups; at the end the window holds all 12; sampling must be
        // roughly uniform over independent sampler instances.
        let n_groups = 12u64;
        let stream: Vec<StreamItem> = (0..240u64)
            .map(|i| item((i % n_groups) as f64 * 10.0, i))
            .collect();
        let mut hist = rds_metrics::SampleHistogram::new(n_groups as usize);
        for run in 0..800u64 {
            let mut s = SlidingWindowSampler::try_new(
                SamplerConfig::builder(1, 0.5)
                    .seed(run * 101 + 7)
                    .expected_len(240)
                    .kappa0(1.0).build().unwrap(),
                Window::Sequence(2 * n_groups),
            ).unwrap();
            for it in &stream {
                s.process(it);
            }
            let q = s.query().expect("non-empty");
            let g = (q.latest.get(0) / 10.0).round() as usize;
            hist.record(g);
        }
        assert!(
            hist.std_dev_nm() < 0.45,
            "stdDevNm {} too large; counts {:?}",
            hist.std_dev_nm(),
            hist.counts()
        );
    }

    #[test]
    fn k_query_returns_distinct_groups() {
        let mut s = SlidingWindowSampler::try_new(
            SamplerConfig { k: 3, kappa0: 1.0, ..cfg(10) },
            Window::Sequence(64),
        ).unwrap();
        for i in 0..200u64 {
            s.process(&item((i % 40) as f64 * 10.0, i));
        }
        let picks = s.query_k(3);
        assert_eq!(picks.len(), 3);
        for i in 0..picks.len() {
            for j in (i + 1)..picks.len() {
                assert!(!picks[i].representative.within(&picks[j].representative, 0.5));
            }
        }
    }

    #[test]
    fn f0_estimate_is_in_the_right_ballpark() {
        let n_groups = 64u64;
        let mut s = SlidingWindowSampler::try_new(cfg(11), Window::Sequence(512)).unwrap();
        for i in 0..2048u64 {
            s.process(&item((i % n_groups) as f64 * 10.0, i));
        }
        let est = s.f0_estimate();
        assert!(
            est >= n_groups as f64 / 4.0 && est <= n_groups as f64 * 4.0,
            "estimate {est} far from {n_groups}"
        );
    }

    #[test]
    fn space_stays_polylogarithmic() {
        // window 4096, ~8192 groups: the naive tracker would hold 4096
        // entries; the capped levels must stay well below that.
        let mut s = SlidingWindowSampler::try_new(
            SamplerConfig::builder(1, 0.5)
                .seed(12)
                .expected_len(1 << 14)
                .kappa0(1.0).build().unwrap(),
            Window::Sequence(4096),
        ).unwrap();
        for i in 0..16384u64 {
            s.process(&item((i % 8192) as f64 * 10.0, i));
        }
        let entries: usize = s.all_entries().count();
        assert!(
            entries < 1200,
            "levels hold {entries} entries; expected O(log w log m)"
        );
        assert!(s.peak_words() > 0);
    }

    #[test]
    fn infinite_window_is_rejected() {
        let err = SlidingWindowSampler::try_new(cfg(13), Window::Infinite).unwrap_err();
        assert!(matches!(err, RdsError::UnboundedWindow));
    }

    #[test]
    fn sequence_and_time_agree_when_stamps_coincide() {
        let stream: Vec<StreamItem> = (0..100u64)
            .map(|i| item((i % 20) as f64 * 10.0, i))
            .collect();
        let mut a = SlidingWindowSampler::try_new(cfg(14), Window::Sequence(16)).unwrap();
        let mut b = SlidingWindowSampler::try_new(cfg(14), Window::Time(16)).unwrap();
        for it in &stream {
            a.process(it);
            b.process(it);
        }
        // identical seeds + identical expiry semantics => same structure
        assert_eq!(a.level_occupancy(), b.level_occupancy());
    }
}
