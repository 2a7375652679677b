//! Distributed robust distinct sampling: one sample over the *union* of
//! several streams.
//!
//! The paper's related-work section cites distributed ℓ0-sampling
//! (Chung & Tirthapura) and the distributed noisy-data model (Zhang,
//! SPAA 2015) and notes that the existing distributed algorithms cannot
//! handle near-duplicates. Because Algorithm 1's state is a function of
//! a shared hash/grid plus the observed points, robust samplers *merge*:
//! sites run ordinary [`RobustL0Sampler`]s built from the **same
//! configuration** (hence identical grid and hash), and the coordinator
//! unifies the site summaries at the coarsest rate, refilters with the
//! shared hash (Fact 1b makes this sound), and deduplicates groups whose
//! points were split across sites.
//!
//! Two summary flavours exist:
//!
//! * [`SiteSummary`] — the minimal wire format a site ships to a
//!   coordinator (candidate sets + rate + config seed);
//! * [`MergedSummary`] — the queryable, *self-mergeable* summary (it
//!   carries the full [`SamplerConfig`], so two merged summaries combine
//!   without out-of-band context). This is the associated
//!   [`SamplerSummary`] type of [`RobustL0Sampler`] and what the sharded
//!   engine reduces over; it also serializes, so coordinators can be
//!   chained across the wire.
//!
//! The merged summary answers the same queries as a single sampler that
//! had seen the concatenation of all site streams, up to the choice of
//! representative for cross-site groups.

use crate::config::{SamplerConfig, SamplerContext};
use crate::error::RdsError;
use crate::infinite::{GroupRecord, RobustL0Sampler};
use crate::sampler::{derived_rng, SamplerSummary};
use rand::rngs::StdRng;
use rand::seq::{IndexedRandom, SliceRandom};
use rds_geometry::{AdjacencyScratch, Point};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A serializable snapshot of one site's sampler state — what a site
/// ships to the coordinator over the wire.
///
/// Produced by [`DistributedSampling::summarize`]; any number of
/// summaries with the same `config_seed` can be merged with
/// [`DistributedSampling::merge_summaries`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SiteSummary {
    /// The site's current rate exponent (`R = 2^level`).
    pub level: u32,
    /// The site's accept set.
    pub acc: Vec<GroupRecord>,
    /// The site's reject set.
    pub rej: Vec<GroupRecord>,
    /// Seed of the shared configuration (grids/hashes must agree).
    pub config_seed: u64,
}

/// The coordinator-side result of merging site summaries: queryable,
/// serializable, and mergeable with other summaries of the same
/// configuration ([`SamplerSummary::merge`]).
/// The candidate sets live behind [`Arc`] handles so that snapshot
/// publication can share ("copy-on-write") the sets of an unchanged
/// sampler across epochs instead of deep-copying them; `Arc` serializes
/// transparently, so the JSON shape is the same as a plain `Vec`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MergedSummary {
    cfg: SamplerConfig,
    level: u32,
    acc: Arc<Vec<GroupRecord>>,
    rej: Arc<Vec<GroupRecord>>,
}

impl RobustL0Sampler {
    /// Snapshots the sampler's state as a [`SiteSummary`] (clones both
    /// candidate sets; the sampler keeps running).
    pub fn site_summary(&self) -> SiteSummary {
        SiteSummary {
            level: self.level(),
            acc: self.accept_set(),
            rej: self.reject_set(),
            config_seed: self.context().cfg().seed,
        }
    }

    /// Consumes the sampler and extracts its [`SiteSummary`] without
    /// cloning the candidate sets — the cheap end-of-stream path for
    /// sites that are done ingesting.
    pub fn into_site_summary(self) -> SiteSummary {
        let level = self.level();
        let config_seed = self.context().cfg().seed;
        let (acc, rej) = self.into_sets();
        SiteSummary {
            level,
            acc,
            rej,
            config_seed,
        }
    }
}

impl MergedSummary {
    /// Builds a summary directly from a sampler's parts (a "merge" of one
    /// site).
    pub(crate) fn from_parts(
        cfg: SamplerConfig,
        level: u32,
        acc: Vec<GroupRecord>,
        rej: Vec<GroupRecord>,
    ) -> Self {
        Self::from_shared(cfg, level, Arc::new(acc), Arc::new(rej))
    }

    /// Builds a summary around already-shared candidate sets without
    /// copying them — the copy-on-write publication path.
    pub(crate) fn from_shared(
        cfg: SamplerConfig,
        level: u32,
        acc: Arc<Vec<GroupRecord>>,
        rej: Arc<Vec<GroupRecord>>,
    ) -> Self {
        Self {
            cfg,
            level,
            acc,
            rej,
        }
    }

    fn rng_for(&self, draw: u64) -> StdRng {
        derived_rng(self.cfg.seed, draw, 0xD157)
    }

    /// Draws a robust ℓ0-sample of the union of the site streams: the
    /// representative of a uniformly random sampled group. All randomness
    /// comes from `draw`; pass distinct tokens for independent draws.
    pub fn query(&self, draw: u64) -> Option<Point> {
        let mut rng = self.rng_for(draw);
        self.acc.choose(&mut rng).map(|r| r.rep.clone())
    }

    /// Draws the full record of a uniformly random sampled group,
    /// deterministically in `draw`.
    pub fn query_record(&self, draw: u64) -> Option<GroupRecord> {
        let mut rng = self.rng_for(draw);
        self.acc.choose(&mut rng).cloned()
    }

    /// Draws `min(k, |Sacc|)` *distinct* sampled groups of the union
    /// (sampling without replacement, the Section 2.3 extension lifted to
    /// the coordinator), deterministically in `draw`.
    pub fn query_k(&self, k: usize, draw: u64) -> Vec<GroupRecord> {
        let mut rng = self.rng_for(draw);
        let mut idx: Vec<usize> = (0..self.acc.len()).collect();
        idx.shuffle(&mut rng);
        idx.truncate(k);
        idx.into_iter().map(|i| self.acc[i].clone()).collect()
    }

    /// `|Sacc| * R`: the robust F0 estimate for the union.
    pub fn f0_estimate(&self) -> f64 {
        self.acc.len() as f64 * (1u64 << self.level) as f64
    }

    /// Accepted groups of the union.
    pub fn accept_set(&self) -> &[GroupRecord] {
        &self.acc
    }

    /// Rejected groups of the union.
    pub fn reject_set(&self) -> &[GroupRecord] {
        &self.rej
    }

    /// The merge's common rate exponent.
    pub fn level(&self) -> u32 {
        self.level
    }

    /// The shared duplicate threshold.
    pub fn alpha(&self) -> f64 {
        self.cfg.alpha
    }

    /// The shared configuration the summary was built under.
    pub fn cfg(&self) -> &SamplerConfig {
        &self.cfg
    }
}

impl SamplerSummary for MergedSummary {
    /// Combines two summaries: unifies at the coarser rate, refilters
    /// every record with the shared hash (Fact 1b) and deduplicates
    /// cross-summary groups.
    fn merge(self, other: Self) -> Result<Self, RdsError> {
        // merge_many returns None only for an empty input
        Self::merge_many(vec![self, other])?.ok_or(RdsError::InvalidShards)
    }

    /// Single-pass N-way merge: one shared context, one deduplication
    /// sweep over all records — the engine's query path, deliberately not
    /// the quadratic pairwise fold.
    fn merge_many(summaries: Vec<Self>) -> Result<Option<Self>, RdsError> {
        let Some(first_cfg) = summaries.first().map(|s| s.cfg.clone()) else {
            return Ok(None);
        };
        // Full-config equality, not just the seed: same-seed summaries
        // with different alpha/dim must not silently merge.
        if let Some(bad) = summaries.iter().find(|s| s.cfg != first_cfg) {
            return Err(RdsError::ConfigMismatch {
                expected_seed: first_cfg.seed,
                actual_seed: bad.cfg.seed,
            });
        }
        if summaries.len() == 1 {
            return Ok(summaries.into_iter().next());
        }
        let level = summaries.iter().map(|s| s.level).max().unwrap_or(0);
        let (acc, rej) = merge_sets(
            &SamplerContext::new(first_cfg.clone()),
            level,
            summaries.iter().map(|s| (&s.acc[..], &s.rej[..])),
        );
        Ok(Some(MergedSummary::from_parts(first_cfg, level, acc, rej)))
    }

    fn f0_estimate(&self) -> f64 {
        MergedSummary::f0_estimate(self)
    }

    fn query_record(&self, draw: u64) -> Option<GroupRecord> {
        MergedSummary::query_record(self, draw)
    }

    fn query_k(&self, k: usize, draw: u64) -> Vec<GroupRecord> {
        MergedSummary::query_k(self, k, draw)
    }
}

/// Unifies per-site candidate sets `(acc, rej)` at rate `2^-level`:
/// every record is refiltered with the shared hash (Fact 1b: only
/// removals) and deduplicated against the records already merged.
fn merge_sets<'a, I>(
    ctx: &SamplerContext,
    level: u32,
    sites: I,
) -> (Vec<GroupRecord>, Vec<GroupRecord>)
where
    I: IntoIterator<Item = (&'a [GroupRecord], &'a [GroupRecord])>,
{
    let mut scratch = AdjacencyScratch::new();
    let mut acc: Vec<GroupRecord> = Vec::new();
    let mut rej: Vec<GroupRecord> = Vec::new();
    for (site_acc, site_rej) in sites {
        for rec in site_acc {
            let sampled = rds_hashing::level_sampled(rec.cell_hash, level);
            absorb_record(rec, sampled, level, &mut acc, &mut rej, ctx, &mut scratch);
        }
        for rec in site_rej {
            absorb_record(rec, false, level, &mut acc, &mut rej, ctx, &mut scratch);
        }
    }
    (acc, rej)
}

/// Places one record into the merged accept/reject sets, combining it
/// with an existing record of the same group if the group was observed
/// by several sites/shards.
fn absorb_record(
    rec: &GroupRecord,
    own_cell_sampled: bool,
    level: u32,
    acc: &mut Vec<GroupRecord>,
    rej: &mut Vec<GroupRecord>,
    ctx: &SamplerContext,
    scratch: &mut AdjacencyScratch,
) {
    let alpha = ctx.alpha();
    // cross-site duplicate? combine counts into the existing record
    if let Some(existing) = acc.iter_mut().find(|g| g.rep.within(&rec.rep, alpha)) {
        existing.count += rec.count;
        return;
    }
    if let Some(pos) = rej.iter().position(|g| g.rep.within(&rec.rep, alpha)) {
        if own_cell_sampled {
            // the group is sampled through this site's representative:
            // promote the combined record to the accept set
            let mut combined = rec.clone();
            combined.count += rej.remove(pos).count;
            acc.push(combined);
        } else {
            rej[pos].count += rec.count;
        }
        return;
    }
    // fresh group at the coordinator
    if own_cell_sampled {
        acc.push(rec.clone());
    } else if ctx.any_adjacent_sampled_with(&rec.rep, level, scratch) {
        rej.push(rec.clone());
    }
    // else: not a candidate at the common rate; dropped
}

/// Builds per-site samplers sharing one configuration, and merges their
/// summaries.
///
/// # Examples
///
/// ```
/// use rds_core::{DistributedSampling, SamplerConfig};
/// use rds_geometry::Point;
///
/// let dist = DistributedSampling::new(SamplerConfig::builder(1, 0.5).seed(9).build()?);
/// let mut a = dist.new_site()?;
/// let mut b = dist.new_site()?;
/// a.process(&Point::new(vec![0.0]));
/// b.process(&Point::new(vec![50.0]));
/// let merged = dist.merge([&a, &b]).expect("same config");
/// // summaries are immutable: the draw token supplies the randomness
/// assert!(merged.query(1).is_some());
/// assert_eq!(merged.f0_estimate(), 2.0);
/// # Ok::<(), rds_core::RdsError>(())
/// ```
#[derive(Clone, Debug)]
pub struct DistributedSampling {
    cfg: SamplerConfig,
}

impl DistributedSampling {
    /// Creates the coordinator for a given shared configuration. The
    /// configuration's seed determines the common grid and hash: all
    /// sites **must** be created through [`Self::new_site`] (or with a
    /// byte-identical configuration).
    pub fn new(cfg: SamplerConfig) -> Self {
        Self { cfg }
    }

    /// Creates a site-local sampler (identical grid/hash across sites).
    ///
    /// # Errors
    ///
    /// The configuration's validation error: [`SamplerConfig`]'s fields
    /// are public, so a struct literal can bypass the builder.
    pub fn new_site(&self) -> Result<RobustL0Sampler, RdsError> {
        RobustL0Sampler::try_new(self.cfg.clone())
    }

    /// Snapshots a site sampler's state for shipping to the coordinator
    /// (e.g. via `serde_json`).
    pub fn summarize(site: &RobustL0Sampler) -> SiteSummary {
        site.site_summary()
    }

    /// Merges site summaries into a coordinator summary over the union
    /// of the streams.
    ///
    /// Returns `None` when the sites disagree on the configuration seed
    /// (they would have incompatible grids/hashes).
    pub fn merge<'a, I>(&self, sites: I) -> Option<MergedSummary>
    where
        I: IntoIterator<Item = &'a RobustL0Sampler>,
    {
        let summaries: Vec<SiteSummary> = sites.into_iter().map(Self::summarize).collect();
        self.merge_summaries(&summaries)
    }

    /// Merges deserialized [`SiteSummary`] snapshots (the wire-format
    /// variant of [`Self::merge`]).
    pub fn merge_summaries(&self, summaries: &[SiteSummary]) -> Option<MergedSummary> {
        if summaries.iter().any(|s| s.config_seed != self.cfg.seed) {
            return None;
        }
        // The coordinator rebuilds the shared context from the seed; it
        // is identical to every site's (same deterministic construction).
        // Unify at the coarsest rate present among the sites.
        let level = summaries.iter().map(|s| s.level).max().unwrap_or(0);
        let (acc, rej) = merge_sets(
            &SamplerContext::new(self.cfg.clone()),
            level,
            summaries.iter().map(|s| (&s.acc[..], &s.rej[..])),
        );
        Some(MergedSummary::from_parts(self.cfg.clone(), level, acc, rej))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grouped_point(i: u64, n_groups: u64) -> Point {
        Point::new(vec![
            (i % n_groups) as f64 * 10.0 + 0.01 * ((i / n_groups) % 3) as f64,
        ])
    }

    #[test]
    fn merge_of_disjoint_sites_counts_all_groups() {
        let dist = DistributedSampling::new(
            SamplerConfig::builder(1, 0.5).seed(1).expected_len(200).build().unwrap(),
        );
        let mut a = dist.new_site().unwrap();
        let mut b = dist.new_site().unwrap();
        for i in 0..100u64 {
            a.process(&grouped_point(i, 10)); // groups 0..10
            b.process(&grouped_point(i, 20)); // groups 0..20 (overlap!)
        }
        let merged = dist.merge([&a, &b]).expect("same cfg");
        // 20 distinct groups in the union; generous thresholds mean no
        // subsampling happened
        assert_eq!(merged.level(), 0);
        assert_eq!(merged.f0_estimate(), 20.0);
    }

    #[test]
    fn new_site_reports_an_invalid_config_instead_of_panicking() {
        // the fields are public, so a struct literal skips the builder
        let valid = SamplerConfig::builder(1, 0.5).build().unwrap();
        let dist = DistributedSampling::new(SamplerConfig {
            alpha: -1.0,
            ..valid
        });
        assert!(matches!(dist.new_site(), Err(RdsError::InvalidAlpha { .. })));
    }

    #[test]
    fn cross_site_groups_are_deduplicated() {
        let dist = DistributedSampling::new(
            SamplerConfig::builder(1, 0.5).seed(2).expected_len(64).build().unwrap(),
        );
        let mut a = dist.new_site().unwrap();
        let mut b = dist.new_site().unwrap();
        // the same single group observed at both sites
        for i in 0..32u64 {
            a.process(&Point::new(vec![0.01 * (i % 3) as f64]));
            b.process(&Point::new(vec![0.02]));
        }
        let merged = dist.merge([&a, &b]).expect("same cfg");
        assert_eq!(merged.accept_set().len(), 1);
        assert_eq!(merged.accept_set()[0].count, 64, "counts must add up");
    }

    #[test]
    fn merge_unifies_mismatched_levels() {
        let dist = DistributedSampling::new(
            SamplerConfig::builder(1, 0.5)
                .seed(3)
                .expected_len(4096)
                .kappa0(0.5).build().unwrap(),
        );
        let mut a = dist.new_site().unwrap();
        let mut b = dist.new_site().unwrap();
        // site a sees many groups (forces doublings); b sees few
        for i in 0..2000u64 {
            a.process(&grouped_point(i, 512));
        }
        for i in 0..20u64 {
            b.process(&grouped_point(i, 4));
        }
        assert!(a.level() > b.level());
        let merged = dist.merge([&a, &b]).expect("same cfg");
        assert_eq!(merged.level(), a.level());
        // every merged accepted record passes the common rate
        for rec in merged.accept_set() {
            assert!(rds_hashing::level_sampled(rec.cell_hash, merged.level()));
        }
    }

    #[test]
    fn merged_query_is_some_when_any_site_nonempty() {
        let dist = DistributedSampling::new(
            SamplerConfig::builder(1, 0.5).seed(4).expected_len(16).build().unwrap(),
        );
        let a = dist.new_site().unwrap();
        let mut b = dist.new_site().unwrap();
        b.process(&Point::new(vec![5.0]));
        let merged = dist.merge([&a, &b]).expect("same cfg");
        assert_eq!(merged.query(1), Some(Point::new(vec![5.0])));
    }

    #[test]
    fn into_site_summary_agrees_with_cloning_site_summary() {
        let dist = DistributedSampling::new(
            SamplerConfig::builder(1, 0.5).seed(31).expected_len(128).build().unwrap(),
        );
        let mut site = dist.new_site().unwrap();
        for i in 0..64u64 {
            site.process(&grouped_point(i, 16));
        }
        let cloned = site.site_summary();
        let moved = site.into_site_summary();
        assert_eq!(moved.level, cloned.level);
        assert_eq!(moved.config_seed, cloned.config_seed);
        assert_eq!(moved.acc.len(), cloned.acc.len());
        assert_eq!(moved.rej.len(), cloned.rej.len());
        for (a, b) in moved.acc.iter().zip(cloned.acc.iter()) {
            assert_eq!(a.rep, b.rep);
            assert_eq!(a.count, b.count);
        }
    }

    #[test]
    fn merged_query_k_returns_distinct_groups() {
        let dist = DistributedSampling::new(
            SamplerConfig::builder(1, 0.5).seed(32).expected_len(256).build().unwrap(),
        );
        let mut a = dist.new_site().unwrap();
        let mut b = dist.new_site().unwrap();
        for i in 0..128u64 {
            a.process(&grouped_point(i, 8));
            b.process(&grouped_point(i, 16));
        }
        let merged = dist.merge([&a, &b]).expect("same cfg");
        let picks = merged.query_k(3, 1);
        assert_eq!(picks.len(), 3);
        for i in 0..picks.len() {
            for j in (i + 1)..picks.len() {
                assert!(!picks[i].rep.within(&picks[j].rep, 0.5));
            }
        }
        // asking for more than |Sacc| returns everything once
        let n_acc = merged.accept_set().len();
        assert_eq!(merged.query_k(usize::MAX, 2).len(), n_acc);
    }

    #[test]
    fn mismatched_configs_are_rejected() {
        let dist = DistributedSampling::new(SamplerConfig::builder(1, 0.5).seed(5).build().unwrap());
        let alien = RobustL0Sampler::try_new(SamplerConfig::builder(1, 0.5).seed(6).build().unwrap()).unwrap();
        assert!(dist.merge([&alien]).is_none());
    }

    #[test]
    fn pairwise_merge_agrees_with_coordinator_merge() {
        // MergedSummary::merge (the trait path the sharded engine reduces
        // over) must agree with DistributedSampling::merge_summaries.
        use crate::sampler::DistinctSampler;
        let cfg = SamplerConfig::builder(1, 0.5).seed(41).expected_len(512).build().unwrap();
        let dist = DistributedSampling::new(cfg.clone());
        let mut sites: Vec<RobustL0Sampler> = (0..3).map(|_| dist.new_site().unwrap()).collect();
        for i in 0..300u64 {
            sites[(i % 3) as usize].process(&grouped_point(i, 30));
        }
        let coordinator = dist.merge(sites.iter()).expect("same cfg");
        let pairwise = sites
            .iter()
            .map(DistinctSampler::summary)
            .reduce(|a, b| a.merge(b).expect("same cfg"))
            .expect("non-empty");
        assert_eq!(pairwise.f0_estimate(), coordinator.f0_estimate());
        assert_eq!(pairwise.level(), coordinator.level());
        assert_eq!(pairwise.accept_set().len(), coordinator.accept_set().len());
    }

    #[test]
    fn pairwise_merge_rejects_config_mismatch() {
        use crate::sampler::{DistinctSampler, SamplerSummary};
        let a = RobustL0Sampler::try_new(SamplerConfig::builder(1, 0.5).seed(1).build().unwrap()).unwrap();
        let b = RobustL0Sampler::try_new(SamplerConfig::builder(1, 0.5).seed(2).build().unwrap()).unwrap();
        assert!(matches!(
            DistinctSampler::summary(&a).merge(DistinctSampler::summary(&b)),
            Err(RdsError::ConfigMismatch { .. })
        ));
    }

    #[test]
    fn merged_sampling_is_roughly_uniform_over_union() {
        let n_union = 16u64;
        let mut hist = rds_metrics::SampleHistogram::new(n_union as usize);
        for run in 0..400u64 {
            let dist = DistributedSampling::new(
                SamplerConfig::builder(1, 0.5)
                    .seed(run * 97 + 7)
                    .expected_len(256)
                    .kappa0(1.0).build().unwrap(),
            );
            let mut a = dist.new_site().unwrap();
            let mut b = dist.new_site().unwrap();
            for i in 0..128u64 {
                a.process(&grouped_point(i, 8)); // groups 0..8
                b.process(&Point::new(vec![(8 + (i % 8)) as f64 * 10.0])); // groups 8..16
            }
            let merged = dist.merge([&a, &b]).expect("same cfg");
            let q = merged.query(1).expect("non-empty");
            hist.record((q.get(0) / 10.0).round() as usize);
        }
        assert!(
            hist.std_dev_nm() < 0.5,
            "distributed sampling biased: {:?}",
            hist.counts()
        );
    }
}

#[cfg(test)]
mod serde_tests {
    use super::*;
    use crate::sampler::SamplerSummary;

    #[test]
    fn site_summary_round_trips_through_json() {
        let dist = DistributedSampling::new(
            SamplerConfig::builder(2, 0.5).seed(21).expected_len(64).build().unwrap(),
        );
        let mut site = dist.new_site().unwrap();
        for i in 0..40u64 {
            site.process(&Point::new(vec![(i % 8) as f64 * 10.0, 0.0]));
        }
        let summary = DistributedSampling::summarize(&site);
        let wire = serde_json::to_string(&summary).expect("serializes");
        let back: SiteSummary = serde_json::from_str(&wire).expect("deserializes");
        assert_eq!(back.level, summary.level);
        assert_eq!(back.acc.len(), summary.acc.len());
        assert_eq!(back.config_seed, summary.config_seed);
        // merging the deserialized summary works like merging the site
        let merged = dist.merge_summaries(&[back]).expect("same seed");
        assert!(merged.query(1).is_some());
        assert_eq!(merged.f0_estimate(), 8.0);
    }

    #[test]
    fn summaries_from_multiple_sites_merge_after_the_wire() {
        let dist = DistributedSampling::new(
            SamplerConfig::builder(1, 0.5).seed(22).expected_len(64).build().unwrap(),
        );
        let mut a = dist.new_site().unwrap();
        let mut b = dist.new_site().unwrap();
        for i in 0..20u64 {
            a.process(&Point::new(vec![(i % 4) as f64 * 10.0]));
            b.process(&Point::new(vec![(4 + i % 4) as f64 * 10.0]));
        }
        let wire_a = serde_json::to_vec(&DistributedSampling::summarize(&a)).expect("ser");
        let wire_b = serde_json::to_vec(&DistributedSampling::summarize(&b)).expect("ser");
        let sa: SiteSummary = serde_json::from_slice(&wire_a).expect("de");
        let sb: SiteSummary = serde_json::from_slice(&wire_b).expect("de");
        let merged = dist.merge_summaries(&[sa, sb]).expect("same seed");
        assert_eq!(merged.f0_estimate(), 8.0);
    }

    #[test]
    fn merged_summary_round_trips_through_json() {
        // The wire format the chained-coordinator path depends on: a
        // MergedSummary survives serialization with its query and merge
        // capabilities intact.
        let dist = DistributedSampling::new(
            SamplerConfig::builder(1, 0.5).seed(25).expected_len(128).build().unwrap(),
        );
        let mut a = dist.new_site().unwrap();
        let mut b = dist.new_site().unwrap();
        for i in 0..64u64 {
            a.process(&Point::new(vec![(i % 6) as f64 * 10.0]));
            b.process(&Point::new(vec![(6 + i % 6) as f64 * 10.0]));
        }
        let merged = dist.merge([&a, &b]).expect("same cfg");
        let wire = serde_json::to_string(&merged).expect("serializes");
        let back: MergedSummary = serde_json::from_str(&wire).expect("deserializes");
        assert_eq!(back.f0_estimate(), merged.f0_estimate());
        assert_eq!(back.level(), merged.level());
        assert_eq!(back.alpha(), merged.alpha());
        assert_eq!(back.accept_set().len(), merged.accept_set().len());
        for (x, y) in back.accept_set().iter().zip(merged.accept_set()) {
            assert_eq!(x.rep, y.rep);
            assert_eq!(x.count, y.count);
            assert_eq!(x.cell_hash, y.cell_hash);
        }
        assert!(back.query(1).is_some());
        // still mergeable after the wire
        let mut c = dist.new_site().unwrap();
        c.process(&Point::new(vec![500.0]));
        let other = dist.merge([&c]).expect("same cfg");
        let combined = back.merge(other).expect("same cfg");
        assert_eq!(combined.f0_estimate(), 13.0);
    }

    #[test]
    fn wire_summary_with_wrong_seed_is_rejected() {
        let dist = DistributedSampling::new(SamplerConfig::builder(1, 0.5).seed(23).build().unwrap());
        let other = RobustL0Sampler::try_new(SamplerConfig::builder(1, 0.5).seed(24).build().unwrap()).unwrap();
        let summary = DistributedSampling::summarize(&other);
        assert!(dist.merge_summaries(&[summary]).is_none());
    }
}
