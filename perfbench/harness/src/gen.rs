//! Input generators and the open-loop request schedule.
//!
//! Every input derives from the workload seed alone: the same seed gives
//! the same points, entity labels and request sequence.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};
use rds_geometry::Point;
use rds_stream::ZipfKeys;
use std::time::{Duration, Instant};

/// A generated stream with its ground truth: `entity[i]` is the entity
/// that produced `points[i]`.
pub struct Labeled {
    pub points: Vec<Point>,
    pub entity: Vec<u32>,
    pub n_entities: usize,
}

/// The paper's Section 6.1 recipe in `R^dim`: a uniform random cloud of
/// `n_bases` points rescaled to minimum pairwise distance 1, each base
/// followed by `Uniform{1..=100}` near-duplicates, shuffled. Returns the
/// stream, the base points (entity `g` is base `g`) and `alpha`.
pub fn paper_cloud(seed: u64, n_bases: usize, dim: usize) -> (Labeled, Vec<Point>, f64) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_0005_D000_0001);
    let base = rds_datasets::rand_cloud(n_bases, dim, &mut rng);
    let mut ds =
        rds_datasets::uniform_dups("paper-5d", &base, rds_datasets::PAPER_MAX_DUPS, &mut rng);
    ds.shuffle(&mut rng);
    let entity = ds.points.iter().map(|lp| lp.group as u32).collect();
    let points = ds.points.into_iter().map(|lp| lp.point).collect();
    (
        Labeled {
            points,
            entity,
            n_entities: ds.n_groups,
        },
        base,
        ds.alpha,
    )
}

/// Entities on a square 2-D lattice (spacing [`Lattice::SPACING`]),
/// observed with near-duplicate jitter of at most
/// [`Lattice::JITTER`] per coordinate.
#[derive(Clone, Debug)]
pub struct Lattice {
    pub n_entities: usize,
    side: usize,
}

impl Lattice {
    /// Lattice spacing: entities are at least `SPACING - 2·JITTER·√2`
    /// apart, far more than `2·ALPHA`. Deliberately not a multiple of the
    /// sampler's cell side (`ALPHA`) or of the engine's routing cell
    /// (`4·ALPHA`): on a commensurate lattice every entity sits at the
    /// same offset from the cell boundaries, so one grid offset decides
    /// for all entities at once whether they straddle a boundary.
    pub const SPACING: f64 = 4.37;
    /// Per-coordinate jitter bound: a group's diameter is at most
    /// `2·√2·JITTER ≈ 0.85 < ALPHA`.
    pub const JITTER: f64 = 0.3;
    /// The near-duplicate threshold the 2-D workloads run with.
    pub const ALPHA: f64 = 1.0;

    pub fn new(n_entities: usize) -> Self {
        let side = (n_entities as f64).sqrt().ceil() as usize;
        Self { n_entities, side }
    }

    /// The centre of entity `e`.
    pub fn center(&self, e: u32) -> [f64; 2] {
        let e = e as usize;
        [
            (e % self.side) as f64 * Self::SPACING,
            (e / self.side) as f64 * Self::SPACING,
        ]
    }

    /// The entity whose centre lies within `alpha` of `p`, if any.
    pub fn entity_near(&self, p: &[f64], alpha: f64) -> Option<u32> {
        if p.len() != 2 {
            return None;
        }
        let i = (p[0] / Self::SPACING).round();
        let j = (p[1] / Self::SPACING).round();
        if i < 0.0 || j < 0.0 || i >= self.side as f64 || j >= self.side as f64 {
            return None;
        }
        let e = j as usize * self.side + i as usize;
        if e >= self.n_entities {
            return None;
        }
        let c = self.center(e as u32);
        let (dx, dy) = (p[0] - c[0], p[1] - c[1]);
        (dx * dx + dy * dy <= alpha * alpha).then_some(e as u32)
    }

    /// One jittered observation of entity `e`.
    pub fn observe(&self, e: u32, rng: &mut StdRng) -> Point {
        let c = self.center(e);
        Point::new(vec![
            c[0] + rng.random_range(-Self::JITTER..Self::JITTER),
            c[1] + rng.random_range(-Self::JITTER..Self::JITTER),
        ])
    }
}

/// Draws entities with Zipf(`theta`) recurrence: popularity rank `r`
/// maps to a seeded random lattice position, so popular entities are
/// spread over the plane (and over the engine's shards).
pub struct ZipfEntities {
    keys: ZipfKeys,
    perm: Vec<u32>,
}

impl ZipfEntities {
    pub fn new(n: usize, theta: f64, seed: u64) -> Self {
        let keys = ZipfKeys::try_new(n, theta, seed).expect("valid Zipf parameters");
        let mut perm: Vec<u32> = (0..n as u32).collect();
        perm.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15));
        Self { keys, perm }
    }

    pub fn next(&mut self) -> u32 {
        self.perm[self.keys.next_key() as usize]
    }
}

/// `n_points` observations of Zipf-recurring lattice entities.
pub fn lattice_stream(seed: u64, n_points: usize, lattice: &Lattice, theta: f64) -> Labeled {
    let mut ents = ZipfEntities::new(lattice.n_entities, theta, seed ^ 0x2D00_0000_0000_0001);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x2D00_0000_0000_0002);
    let mut points = Vec::with_capacity(n_points);
    let mut entity = Vec::with_capacity(n_points);
    for _ in 0..n_points {
        let e = ents.next();
        points.push(lattice.observe(e, &mut rng));
        entity.push(e);
    }
    Labeled {
        points,
        entity,
        n_entities: lattice.n_entities,
    }
}

/// A fixed-rate open-loop schedule: request `i` is due at
/// `start + i · interval`, whether or not earlier requests finished.
pub struct Schedule {
    start: Instant,
    interval: Duration,
    i: u32,
}

impl Schedule {
    pub fn new(start: Instant, rate_per_s: f64) -> Self {
        Self {
            start,
            interval: Duration::from_secs_f64(1.0 / rate_per_s),
            i: 0,
        }
    }

    /// The next due time.
    pub fn next_due(&mut self) -> Instant {
        let due = self.start + self.interval * self.i;
        self.i += 1;
        due
    }
}

/// Waits until `due` without sleeping: the thread yields the CPU until
/// 100 µs before it, then spins, and returns at once if `due` has passed
/// (an open-loop generator never skips a request).
///
/// A sleeping generator lets its vCPU go idle, and on a small VM waking
/// an idle vCPU took from tens of µs to several ms: with sleeping
/// generators a tenth of the reader calls left 0.2 to 0.6 ms late, and
/// every thread hand-off of the program under test paid the same
/// wake-up. A yielding generator keeps the vCPU running and hands it to
/// any runnable thread at once.
pub fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(100);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        if due - now > SPIN {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lattice_stream_is_deterministic_per_seed() {
        let l = Lattice::new(500);
        let a = lattice_stream(7, 2000, &l, 1.0);
        let b = lattice_stream(7, 2000, &l, 1.0);
        let c = lattice_stream(8, 2000, &l, 1.0);
        assert_eq!(a.entity, b.entity);
        assert!(a.points.iter().zip(&b.points).all(|(x, y)| x == y));
        assert_ne!(a.entity, c.entity);
    }

    #[test]
    fn lattice_observations_map_back_to_their_entity() {
        let l = Lattice::new(1000);
        let s = lattice_stream(3, 5000, &l, 0.8);
        for (p, &e) in s.points.iter().zip(&s.entity) {
            assert_eq!(l.entity_near(p.coords(), Lattice::ALPHA / 2.0), Some(e));
        }
        // far from every centre
        assert_eq!(l.entity_near(&[2.0, 2.0], Lattice::ALPHA), None);
    }

    #[test]
    fn paper_cloud_is_deterministic_per_seed() {
        let (a, base_a, alpha_a) = paper_cloud(11, 60, 5);
        let (b, base_b, alpha_b) = paper_cloud(11, 60, 5);
        let (c, _, _) = paper_cloud(12, 60, 5);
        assert_eq!(a.entity, b.entity);
        assert_eq!(base_a, base_b);
        assert_eq!(alpha_a, alpha_b);
        assert!(a.points.iter().zip(&b.points).all(|(x, y)| x == y));
        assert_ne!(a.points[0], c.points[0]);
        assert_eq!(a.n_entities, 60);
        // every point lies within alpha of its base
        for (p, &g) in a.points.iter().zip(&a.entity) {
            assert!(p.within(&base_a[g as usize], alpha_a));
        }
    }

    #[test]
    fn schedule_is_fixed_rate() {
        let t0 = Instant::now();
        let mut s = Schedule::new(t0, 1000.0);
        assert_eq!(s.next_due(), t0);
        assert_eq!(s.next_due(), t0 + Duration::from_millis(1));
        assert_eq!(s.next_due(), t0 + Duration::from_millis(2));
    }
}
