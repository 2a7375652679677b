//! Robust distinct sampling on streams with near-duplicates.
//!
//! Implementation of Chen & Zhang, *"Distinct Sampling on Streaming Data
//! with Near-Duplicates"* (PODS 2018).

#![warn(missing_docs)]

mod checkpoint;
mod config;
mod distributed;
mod error;
mod heavy;
mod infinite;
mod sampler;
mod store;
mod sw_fixed;
mod f0;
mod jl_adapter;
mod ksample;
mod lsh;
pub mod persist;
mod sw_hier;

pub use checkpoint::{Checkpointable, RngState};
pub use config::{SamplerConfig, SamplerConfigBuilder, SamplerContext, MAX_LEVEL};
pub use distributed::{DistributedSampling, MergedSummary, SiteSummary};
pub use error::RdsError;
pub use heavy::{HeavyGroup, RobustHeavyHitters};
pub use infinite::{BatchStats, GroupRecord, ProcessOutcome, RobustL0Sampler, RobustL0State};
pub use sampler::{DistinctSampler, SamplerSummary, WindowSummary};
pub use store::CandidateStore;
pub use sw_fixed::{
    FixedRateLevelState, FixedRateWindowSampler, FixedRateWindowState, WindowGroupEntry,
};
pub use f0::{RobustF0Estimator, SlidingWindowF0, DEFAULT_KAPPA_B, FM_PHI};
pub use jl_adapter::{JlRobustSampler, JlSamplerState, JlSummary};
pub use ksample::{KWithReplacementSampler, KWithReplacementState};
pub use lsh::{
    LshPartitioner, MetricGroup, MetricRobustSampler, MetricSamplerState, MetricSummary,
    SimHashPartitioner,
};
pub use sw_hier::{GroupSample, SlidingWindowSampler, SlidingWindowState};
