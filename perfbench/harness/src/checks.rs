//! Answer checks against the generator's ground truth.
//!
//! * every sampled representative lies within `alpha` of a generated
//!   entity that is present in the answered stream prefix (in the
//!   window, for windowed streams);
//! * the final F0 estimate lies within `1 ± 4/√T` of the true distinct
//!   count, `T` being the accept-set threshold in force;
//! * the writer's `seen` equals the number of points fed.
//!
//! Every operation and every check is counted as attempted; failures
//! are counted and the first few are kept verbatim for the report.

use crate::gen::{Labeled, Lattice};
use rds_geometry::Point;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Base points indexed by their unit grid cell: a point within `alpha`
/// of a base lies in one of the cells its `±alpha` box touches, so a
/// lookup probes a handful of cells instead of every base.
pub struct Bases {
    bases: Vec<Point>,
    cells: HashMap<Vec<i64>, Vec<u32>>,
}

impl Bases {
    pub fn new(bases: Vec<Point>) -> Self {
        let mut cells: HashMap<Vec<i64>, Vec<u32>> = HashMap::new();
        for (i, b) in bases.iter().enumerate() {
            let key = b.coords().iter().map(|x| x.floor() as i64).collect();
            cells.entry(key).or_default().push(i as u32);
        }
        Self { bases, cells }
    }

    /// The base within `alpha` of `p`, if any.
    pub fn near(&self, p: &Point, alpha: f64) -> Option<u32> {
        let ranges: Vec<(i64, i64)> = p
            .coords()
            .iter()
            .map(|x| ((x - alpha).floor() as i64, (x + alpha).floor() as i64))
            .collect();
        let mut key: Vec<i64> = ranges.iter().map(|r| r.0).collect();
        loop {
            if let Some(ids) = self.cells.get(&key) {
                if let Some(&i) = ids
                    .iter()
                    .find(|&&i| self.bases[i as usize].within(p, alpha))
                {
                    return Some(i);
                }
            }
            // next cell of the box, odometer order
            let mut d = 0;
            loop {
                if d == key.len() {
                    return None;
                }
                if key[d] < ranges[d].1 {
                    key[d] += 1;
                    break;
                }
                key[d] = ranges[d].0;
                d += 1;
            }
        }
    }
}

/// How a stream's entities are recovered from a sampled point.
pub enum Geometry {
    /// The paper clouds: the base within `alpha`.
    Bases(Bases),
    /// The 2-D lattice.
    Lattice(Lattice),
}

/// Ground truth of one generated stream.
pub struct Truth {
    pub geometry: Geometry,
    pub alpha: f64,
    /// `window` of the workload (`None` = infinite).
    pub window: Option<u64>,
    /// Stream positions of each entity, ascending.
    positions: Vec<Vec<u32>>,
}

impl Truth {
    pub fn new(stream: &Labeled, geometry: Geometry, alpha: f64, window: Option<u64>) -> Self {
        let mut positions = vec![Vec::new(); stream.n_entities];
        for (i, &e) in stream.entity.iter().enumerate() {
            positions[e as usize].push(i as u32);
        }
        Self {
            geometry,
            alpha,
            window,
            positions,
        }
    }

    /// The entity within `alpha` of `p`, if any.
    pub fn entity_of(&self, p: &Point) -> Option<u32> {
        match &self.geometry {
            Geometry::Lattice(l) => l.entity_near(p.coords(), self.alpha),
            Geometry::Bases(bases) => bases.near(p, self.alpha),
        }
    }

    /// Whether entity `e` has a point among the first `s` stream points
    /// (within the last `window` of them, when windowed) for some `s` in
    /// `lo..=hi`. A reader learns its snapshot's `seen` only up to such a
    /// range, and a window is not monotone in `seen`.
    pub fn present(&self, e: u32, lo: u64, hi: u64) -> bool {
        let pos = &self.positions[e as usize];
        // the entity's last position before `hi`
        let end = pos.partition_point(|&p| u64::from(p) < hi);
        if end == 0 {
            return false;
        }
        match self.window {
            None => true,
            Some(w) => u64::from(pos[end - 1]) + w >= lo,
        }
    }

    /// Distinct entities among the first `seen` points (in the window
    /// ending there, when windowed).
    pub fn distinct(&self, seen: u64) -> u64 {
        (0..self.positions.len() as u32)
            .filter(|&e| self.present(e, seen, seen))
            .count() as u64
    }

    /// Whether a sampled representative is a valid answer for a
    /// snapshot that had seen between `lo` and `hi` points.
    pub fn rep_ok(&self, rep: &Point, lo: u64, hi: u64) -> bool {
        self.entity_of(rep).is_some_and(|e| self.present(e, lo, hi))
    }
}

/// `|est / truth - 1| <= 4 / sqrt(T)`.
pub fn f0_ok(est: f64, truth: u64, threshold: usize) -> bool {
    if truth == 0 {
        return est == 0.0;
    }
    (est / truth as f64 - 1.0).abs() <= 4.0 / (threshold as f64).sqrt()
}

/// Run-wide operation and check tallies.
#[derive(Default)]
pub struct Tally {
    attempted: AtomicU64,
    failed: AtomicU64,
    /// Distinct failure messages with their counts, first seen first.
    notes: Mutex<Vec<(String, u64)>>,
}

impl Tally {
    /// Counts one attempt; `ok == false` counts a failure and keeps
    /// `what()` for the report (20 distinct messages at most).
    pub fn check(&self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.failed.fetch_add(1, Ordering::Relaxed);
            let msg = what();
            let mut notes = self.notes.lock().expect("tally lock");
            if let Some(n) = notes.iter_mut().find(|(m, _)| *m == msg) {
                n.1 += 1;
            } else if notes.len() < 20 {
                notes.push((msg, 1));
            }
        }
        ok
    }

    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    pub fn notes(&self) -> Vec<String> {
        self.notes
            .lock()
            .expect("tally lock")
            .iter()
            .map(|(m, n)| {
                if *n > 1 {
                    format!("{m} (x{n})")
                } else {
                    m.clone()
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::lattice_stream;

    #[test]
    fn presence_respects_prefix_and_window() {
        let stream = Labeled {
            points: vec![Point::new(vec![0.0, 0.0]); 6],
            entity: vec![0, 1, 0, 2, 2, 2],
            n_entities: 3,
        };
        let inf = Truth::new(&stream, Geometry::Lattice(Lattice::new(3)), 1.0, None);
        assert!(!inf.present(1, 1, 1));
        assert!(inf.present(1, 2, 2));
        assert_eq!(inf.distinct(3), 2);
        assert_eq!(inf.distinct(6), 3);
        let win = Truth::new(&stream, Geometry::Lattice(Lattice::new(3)), 1.0, Some(3));
        // last 3 of 6 points are all entity 2
        assert_eq!(win.distinct(6), 1);
        assert!(!win.present(0, 6, 6));
        assert!(win.present(0, 5, 5)); // window = positions 2..5
        assert!(win.present(0, 5, 6)); // present at 5, gone at 6
    }

    #[test]
    fn reps_of_generated_points_pass_and_strays_fail() {
        let l = Lattice::new(100);
        let s = lattice_stream(5, 500, &l, 1.0);
        let t = Truth::new(&s, Geometry::Lattice(l), Lattice::ALPHA, None);
        assert!(t.rep_ok(&s.points[10], 11, 11));
        assert!(!t.rep_ok(&Point::new(vec![2.0, 2.0]), 500, 500));
    }

    #[test]
    fn base_index_finds_the_base_within_alpha() {
        let (s, bases, alpha) = crate::gen::paper_cloud(4, 200, 5);
        let idx = Bases::new(bases.clone());
        for (p, &g) in s.points.iter().zip(&s.entity).take(2000) {
            assert_eq!(idx.near(p, alpha), Some(g));
        }
        let far = Point::new(vec![-5.0; 5]);
        assert_eq!(idx.near(&far, alpha), None);
        // agrees with a linear scan on points between the bases
        for p in bases.iter().map(|b| b.add(&Point::new(vec![0.3; 5]))) {
            let linear = bases
                .iter()
                .position(|b| b.within(&p, alpha))
                .map(|i| i as u32);
            assert_eq!(idx.near(&p, alpha), linear);
        }
    }

    #[test]
    fn f0_band() {
        assert!(f0_ok(100.0, 100, 80));
        assert!(f0_ok(140.0, 100, 80));
        assert!(!f0_ok(150.0, 100, 80));
        assert!(!f0_ok(50.0, 100, 80));
    }
}
