//! Hashing substrate for robust distinct sampling.
//!
//! Provides the `Θ(log m)`-wise independent hash family over
//! `GF(2^61 - 1)` that the paper's analysis requires ([`KWiseHash`]), the
//! cell-ID folding ([`CellKeyMixer`]), and the nested power-of-two cell
//! sampler `h_R` ([`CellHasher`], Fact 1b of the paper).

#![warn(missing_docs)]

mod cell;
mod kwise;
mod mix;
mod point_id;

pub use cell::{level_sampled, level_sampled_slice, max_sampled_level, CellHasher};
pub use kwise::{KWiseHash, LANES, M61};
pub use mix::{splitmix64, CellKeyMixer};
pub use point_id::point_identity;
