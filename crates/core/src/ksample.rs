//! Section 2.3: drawing `k` robust ℓ0-samples per query.
//!
//! * **Without replacement** — raise the accept-set threshold to
//!   `kappa_0 * k * log m` (so `|Sacc| >= k` w.h.p.) and draw `k` distinct
//!   groups; this is [`crate::SamplerConfigBuilder::k`] plus
//!   [`RobustL0Sampler::query_k`] / [`SlidingWindowSampler::query_k`]
//!   (through the facade: `Rds::builder().k(k)` plus `query_k`).
//! * **With replacement** — run `k` independent one-sample instances in
//!   parallel ([`KWithReplacementSampler`]).

use crate::checkpoint::{checkpoint_err, Checkpointable};
use crate::config::SamplerConfig;
use crate::error::RdsError;
use crate::infinite::{RobustL0State, RobustL0Sampler};
use serde::{Deserialize, Serialize};
use rds_geometry::Point;

/// Draws `k` samples with replacement: `k` independent copies of
/// Algorithm 1, one sample from each (Section 2.3).
#[derive(Debug)]
pub struct KWithReplacementSampler {
    copies: Vec<RobustL0Sampler>,
}

impl KWithReplacementSampler {
    /// Creates `k` independent copies with derived seeds.
    ///
    /// # Errors
    ///
    /// [`RdsError::InvalidK`] when `k == 0`, or any
    /// [`SamplerConfig::validate`] failure.
    pub fn try_new(cfg: SamplerConfig, k: usize) -> Result<Self, RdsError> {
        if k == 0 {
            return Err(RdsError::InvalidK);
        }
        let copies = (0..k)
            .map(|i| {
                let cfg_i = SamplerConfig {
                    seed: cfg.seed.wrapping_add(0xABCD * (i as u64 + 1)),
                    ..cfg.clone()
                };
                RobustL0Sampler::try_new(cfg_i)
            })
            .collect::<Result<_, _>>()?;
        Ok(Self { copies })
    }

    /// Feeds one stream point to every copy.
    pub fn process(&mut self, p: &Point) {
        for c in &mut self.copies {
            c.process(p);
        }
    }

    /// One independent sample per copy (`k` samples, possibly repeating
    /// groups).
    pub fn sample(&mut self) -> Vec<Point> {
        self.copies
            .iter_mut()
            .filter_map(|c| c.query().cloned())
            .collect()
    }

    /// The configured `k`.
    pub fn k(&self) -> usize {
        self.copies.len()
    }
}

/// The serializable full state of a [`KWithReplacementSampler`]: one
/// [`RobustL0State`] per independent copy.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct KWithReplacementState {
    copies: Vec<RobustL0State>,
}

impl Checkpointable for KWithReplacementSampler {
    type State = KWithReplacementState;

    fn checkpoint_state(&self) -> KWithReplacementState {
        KWithReplacementState {
            copies: self.copies.iter().map(|c| c.checkpoint_state()).collect(),
        }
    }

    fn try_from_state(state: KWithReplacementState) -> Result<Self, RdsError> {
        let Some(first_copy) = state.copies.first() else {
            return Err(RdsError::InvalidK);
        };
        // The copies are independent only in their (derived) seeds; every
        // other parameter must agree, or `process` would feed one point
        // to samplers of conflicting dimensions and panic downstream.
        let reference = SamplerConfig {
            seed: 0,
            ..first_copy.cfg().clone()
        };
        for (i, copy) in state.copies.iter().enumerate() {
            let seedless = SamplerConfig {
                seed: 0,
                ..copy.cfg().clone()
            };
            if seedless != reference {
                return Err(checkpoint_err(format!(
                    "with-replacement copy {i} embeds a configuration differing \
                     (beyond its derived seed) from copy 0"
                )));
            }
        }
        Ok(Self {
            copies: state
                .copies
                .into_iter()
                .map(RobustL0Sampler::try_from_state)
                .collect::<Result<_, _>>()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed_groups(n_points: u64, n_groups: u64, f: &mut impl FnMut(&Point)) {
        for i in 0..n_points {
            f(&Point::new(vec![(i % n_groups) as f64 * 10.0]));
        }
    }

    #[test]
    fn with_replacement_returns_k_samples() {
        let mut s = KWithReplacementSampler::try_new(SamplerConfig::builder(1, 0.5).seed(4).build().unwrap(), 4).unwrap();
        feed_groups(300, 30, &mut |p| s.process(p));
        assert_eq!(s.sample().len(), 4);
        assert_eq!(s.k(), 4);
    }

    #[test]
    fn with_replacement_copies_are_independent() {
        // over several reconstructions the k draws must not always agree
        let mut agreements = 0;
        for seed in 0..20u64 {
            let mut s = KWithReplacementSampler::try_new(
                SamplerConfig::builder(1, 0.5).seed(seed * 31 + 1).build().unwrap(),
                2,
            ).unwrap();
            feed_groups(200, 20, &mut |p| s.process(p));
            let picks = s.sample();
            if picks[0] == picks[1] {
                agreements += 1;
            }
        }
        assert!(agreements < 15, "copies look correlated: {agreements}/20");
    }

    #[test]
    fn with_replacement_restore_rejects_mixed_copy_configs() {
        // Regression: copies of conflicting dimensions used to restore Ok
        // and panic on the first processed point.
        let dim1 = RobustL0Sampler::try_new(SamplerConfig::builder(1, 0.5).build().unwrap())
            .unwrap()
            .checkpoint_state();
        let dim2 = RobustL0Sampler::try_new(SamplerConfig::builder(2, 0.5).build().unwrap())
            .unwrap()
            .checkpoint_state();
        let state = KWithReplacementState {
            copies: vec![dim1.clone(), dim2],
        };
        assert!(matches!(
            KWithReplacementSampler::try_from_state(state),
            Err(RdsError::Checkpoint { .. })
        ));
        // derived seeds alone are fine — that is how the copies differ
        let mut legit = KWithReplacementSampler::try_new(
            SamplerConfig::builder(1, 0.5).seed(3).build().unwrap(),
            2,
        )
        .unwrap();
        legit.process(&Point::new(vec![1.0]));
        let state = legit.checkpoint_state();
        assert!(KWithReplacementSampler::try_from_state(state).is_ok());
    }

    #[test]
    fn zero_k_rejected() {
        let err = KWithReplacementSampler::try_new(SamplerConfig::builder(1, 0.5).build().unwrap(), 0)
            .unwrap_err();
        assert!(matches!(err, RdsError::InvalidK));
    }
}
