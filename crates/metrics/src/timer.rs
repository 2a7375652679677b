//! Per-item processing time measurement (the paper's `pTime` metric).
//!
//! The paper reports *processing time per item, measured in milliseconds*,
//! averaged over repeated single-threaded scans of the whole stream.

use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Accumulates wall-clock time over a number of processed items and
/// reports the mean per-item cost.
///
/// # Examples
///
/// ```
/// use rds_metrics::ItemTimer;
///
/// let mut t = ItemTimer::new();
/// let run = t.start();
/// // ... process 100 items ...
/// t.stop(run, 100);
/// assert_eq!(t.items(), 100);
/// assert!(t.per_item_ms() >= 0.0);
/// ```
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ItemTimer {
    total_nanos: u128,
    items: u64,
}

/// Token returned by [`ItemTimer::start`]; pass it back to
/// [`ItemTimer::stop`].
#[derive(Debug)]
pub struct RunningTimer(Instant);

impl ItemTimer {
    /// Creates an empty timer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts timing a scan.
    #[expect(
        clippy::disallowed_methods,
        reason = "the experiment harness times whole scans on the wall clock; no sampler state depends on it"
    )]
    pub fn start(&self) -> RunningTimer {
        RunningTimer(Instant::now())
    }

    /// Stops timing and attributes the elapsed time to `items` items.
    pub fn stop(&mut self, run: RunningTimer, items: u64) {
        self.total_nanos += run.0.elapsed().as_nanos();
        self.items += items;
    }

    /// Total items attributed so far.
    pub fn items(&self) -> u64 {
        self.items
    }

    /// Total measured time in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total_nanos as f64 / 1e6
    }

    /// Mean per-item processing time in milliseconds (the paper's
    /// `pTime`); zero when no items were recorded.
    pub fn per_item_ms(&self) -> f64 {
        if self.items == 0 {
            0.0
        } else {
            self.total_ms() / self.items as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_items() {
        let mut t = ItemTimer::new();
        let r = t.start();
        t.stop(r, 10);
        let r = t.start();
        t.stop(r, 5);
        assert_eq!(t.items(), 15);
    }

    #[test]
    fn measures_positive_time_for_work() {
        let mut t = ItemTimer::new();
        let r = t.start();
        let mut x = 0u64;
        for i in 0..200_000u64 {
            x = x.wrapping_add(i * i);
        }
        std::hint::black_box(x);
        t.stop(r, 1000);
        assert!(t.per_item_ms() > 0.0);
        assert!(t.total_ms() > 0.0);
    }

    #[test]
    fn empty_timer_reports_zero() {
        let t = ItemTimer::new();
        assert_eq!(t.per_item_ms(), 0.0);
        assert_eq!(t.items(), 0);
    }
}
