//! The three in-process workloads: one `RdsWriter` fed in 1024-point
//! batches by the main thread, one reader thread on an open-loop
//! schedule alternating `query_k(8)` and `f0_estimate`.
//!
//! A run repeats *rounds*: a fresh writer/reader pair ingests the whole
//! generated stream while the reader runs; the ingest rate of a run is
//! the median over its rounds, latencies pool every round's samples.

use crate::checks::{f0_ok, Bases, Geometry, Tally, Truth};
use crate::gen::{lattice_stream, paper_cloud, wait_until, Labeled, Lattice, Schedule};
use crate::hist::Histogram;
use crate::layers;
use crate::report::{median, Metrics, Windows, SETUP_REPS};
use crate::trace::{Span, Tracer};
use crate::Run;
use rds_core::SamplerConfig;
use rds_geometry::Point;
use rds_stream::Window;
use robust_distinct_sampling::{PublishCadence, Rds, RdsReader, RdsWriter, DEFAULT_PUBLISH_EVERY};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Points per writer call.
pub const BATCH: usize = 1024;
/// `RdsWriter::words()` samples per round, evenly spaced over the
/// stream: the state size swings by up to 2x over each rate-doubling
/// cycle, so one reading at the end would report where the stream
/// happened to stop in that cycle.
const WORD_SAMPLES: usize = 8;

/// What distinguishes the in-process workloads.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub shards: usize,
    pub window: Window,
    /// `None` keeps the facade's default cadence.
    pub publish_every: Option<u64>,
    /// Reader calls per second.
    pub reader_rate: f64,
}

impl Spec {
    pub fn for_workload(name: &str) -> Option<Spec> {
        Some(match name {
            "paper-5d" => Spec {
                shards: 1,
                window: Window::Infinite,
                publish_every: None,
                // At 100 calls/s a call ran cold: the p50 read about
                // 5 µs against 2 µs at 1000/s, and spread 0.35 over ten
                // seeds, as the cache state between calls varied.
                reader_rate: 1000.0,
            },
            "sharded-2d" => Spec {
                shards: 2,
                window: Window::Infinite,
                publish_every: Some(1024),
                reader_rate: 200.0,
            },
            "window-2d" => Spec {
                shards: 1,
                window: Window::Sequence(WINDOW_2D),
                publish_every: Some(1024),
                reader_rate: 200.0,
            },
            _ => return None,
        })
    }

    fn publish_every(&self) -> u64 {
        self.publish_every.unwrap_or(DEFAULT_PUBLISH_EVERY)
    }
}

/// Base points of the `paper-5d` cloud (Rand5 has 500).
pub const PAPER_BASES: usize = 4000;
/// Lattice entities of the 2-D workloads.
pub const LATTICE_ENTITIES: usize = 40_000;
/// Points per round of the 2-D workloads.
pub const LATTICE_POINTS: usize = 300_000;
/// Zipf skew of entity recurrence in the 2-D workloads.
pub const LATTICE_THETA: f64 = 0.9;
/// `window-2d`'s sequence window: a tenth of the stream.
pub const WINDOW_2D: u64 = 30_000;

/// The generated stream, its ground truth, and the configuration the
/// writer runs with.
pub struct Inputs {
    pub data: Labeled,
    pub truth: Truth,
    pub dim: usize,
    pub alpha: f64,
    pub cfg: SamplerConfig,
}

fn gen_inputs(workload: &str, seed: u64, spec: &Spec) -> Inputs {
    let (data, geometry, alpha, dim) = if workload == "paper-5d" {
        let (data, bases, alpha) = paper_cloud(seed, PAPER_BASES, 5);
        (data, Geometry::Bases(Bases::new(bases)), alpha, 5)
    } else {
        let lattice = Lattice::new(LATTICE_ENTITIES);
        let data = lattice_stream(seed, LATTICE_POINTS, &lattice, LATTICE_THETA);
        (data, Geometry::Lattice(lattice), Lattice::ALPHA, 2)
    };
    let truth = Truth::new(&data, geometry, alpha, spec.window.len());
    let mut inputs = Inputs {
        data,
        truth,
        dim,
        alpha,
        cfg: SamplerConfig::builder(dim, alpha)
            .build()
            .expect("valid config"),
    };
    // The configuration echo of a fresh writer: exactly what the
    // facade built, for the threshold check and the layer replays.
    let (mut w, _r) = builder(&inputs, seed, spec)
        .build_split()
        .expect("valid writer");
    inputs.cfg = w.checkpoint().cfg().clone();
    inputs
}

fn builder(inputs: &Inputs, seed: u64, spec: &Spec) -> robust_distinct_sampling::RdsBuilder {
    let mut b = Rds::builder()
        .dim(inputs.dim)
        .alpha(inputs.alpha)
        .seed(seed)
        .window(spec.window)
        .shards(spec.shards);
    if let Some(n) = spec.publish_every {
        b = b.publish_every(n);
    }
    b
}

/// Set-up: generate the inputs, build a writer, warm it up on the
/// stream's head. Done [`SETUP_REPS`] times; the median time is reported
/// and the last inputs are kept.
fn setup(workload: &str, seed: u64, spec: &Spec, m: &mut Metrics) -> Inputs {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let inputs = gen_inputs(workload, seed, spec);
        let (mut w, r) = builder(&inputs, seed, spec)
            .build_split()
            .expect("valid writer");
        // Warm-up publishes once, at its end: the publish barrier's
        // thread hand-offs would make set-up time follow the scheduler.
        w.set_cadence(PublishCadence::EveryN(u64::MAX));
        let points = &inputs.data.points;
        w.process_batch(points[..points.len().min(16 * BATCH)].iter().cloned());
        w.publish();
        std::hint::black_box(r.query_k(8));
        drop((w, r));
        times.push(t0.elapsed().as_secs_f64());
        last = Some(inputs);
    }
    m.put_setup(&times);
    last.expect("set-up ran")
}

/// What one reader thread measured.
#[derive(Default)]
struct ReaderOut {
    lat: Histogram,
    stale: Histogram,
    late: Histogram,
    spans: Vec<Span>,
}

/// Results of a sequence of rounds; each round is one window of the
/// latency figures.
#[derive(Default)]
struct Rounds {
    rates: Vec<f64>,
    batch: Windows,
    query: Windows,
    stale: Windows,
    late: Histogram,
    spans: Vec<Span>,
    words: Vec<f64>,
    points: u64,
}

struct Ctx<'a> {
    inputs: &'a Inputs,
    spec: Spec,
    seed: u64,
    epoch: Instant,
    tally: &'a Tally,
}

fn now_ns(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

fn reader_loop(
    reader: &RdsReader,
    truth: &Truth,
    ends: &[AtomicU64],
    stop: &AtomicBool,
    ctx: &Ctx<'_>,
    traced: bool,
) -> ReaderOut {
    let mut out = ReaderOut::default();
    let mut tracer = Tracer::new(traced, ctx.epoch);
    let mut sched = Schedule::new(Instant::now(), ctx.spec.reader_rate);
    let mut i = 0u64;
    while !stop.load(Ordering::Relaxed) {
        let due = sched.next_due();
        wait_until(due);
        let sent = Instant::now();
        out.late.record((sent - due).as_nanos() as u64);
        // two query_k(8) calls to one f0_estimate
        let (ok, seen) = if i % 3 != 2 {
            let before = reader.seen();
            let recs = tracer.span("facade.query_k", || reader.query_k(8));
            let seen = reader.seen();
            let done = Instant::now();
            out.lat.record((done - due).as_nanos() as u64);
            record_staleness(&mut out.stale, ends, seen, now_ns(ctx.epoch));
            (
                recs.iter().all(|r| truth.rep_ok(&r.rep, before, seen)),
                seen,
            )
        } else {
            let f0 = tracer.span("facade.f0_estimate", || reader.f0_estimate());
            let seen = reader.seen();
            let done = Instant::now();
            out.lat.record((done - due).as_nanos() as u64);
            record_staleness(&mut out.stale, ends, seen, now_ns(ctx.epoch));
            (f0.is_finite() && f0 >= 0.0, seen)
        };
        ctx.tally.check(ok, || {
            format!("reader call {i}: answer failed its check at seen {seen}")
        });
        i += 1;
    }
    out.spans = tracer.take();
    out
}

/// Staleness of an answer from a snapshot covering `seen` points: now
/// minus the time the writer finished the batch holding point `seen`.
/// A snapshot newer than the last recorded batch end reads as 0.
fn record_staleness(h: &mut Histogram, ends: &[AtomicU64], seen: u64, now: u64) {
    if seen == 0 {
        return;
    }
    let idx = ((seen - 1) as usize) / BATCH;
    let t = ends.get(idx).map_or(0, |a| a.load(Ordering::Acquire));
    h.record(if t == 0 { 0 } else { now.saturating_sub(t) });
}

/// One round: a fresh pair ingests the whole stream under the reader.
/// `traced` switches the writer to explicit publishes at the same
/// cadence (`EveryN(u64::MAX)` keeps the facade's per-item path) so
/// each publish is a timed call.
fn round(ctx: &Ctx<'_>, traced: bool, acc: &mut Rounds) {
    let inputs = ctx.inputs;
    let (mut writer, reader) = builder(inputs, ctx.seed, &ctx.spec)
        .build_split()
        .expect("valid writer");
    let every = ctx.spec.publish_every();
    if traced {
        writer.set_cadence(PublishCadence::EveryN(u64::MAX));
    }
    let batches: Vec<Vec<Point>> = inputs
        .data
        .points
        .chunks(BATCH)
        .map(|c| c.to_vec())
        .collect();
    let n = inputs.data.points.len() as u64;
    let ends: Vec<AtomicU64> = (0..batches.len()).map(|_| AtomicU64::new(0)).collect();
    let stop = AtomicBool::new(false);
    let mut tracer = Tracer::new(traced, ctx.epoch);
    let mut batch_lat = Histogram::new();
    let n_batches = batches.len();
    let mut words = Vec::with_capacity(WORD_SAMPLES);
    let (elapsed, rout) = std::thread::scope(|s| {
        let rh = s.spawn(|| reader_loop(&reader, &inputs.truth, &ends, &stop, ctx, traced));
        let root = tracer.begin();
        let t0 = Instant::now();
        let mut paused = Duration::ZERO;
        let mut fed = 0u64;
        for (k, batch) in batches.into_iter().enumerate() {
            let b0 = Instant::now();
            fed += batch.len() as u64;
            tracer.span("facade.process_batch", || writer.process_batch(batch));
            if traced && fed.is_multiple_of(every) {
                tracer.span("facade.publish", || writer.publish());
            }
            let b1 = Instant::now();
            ends[k].store(
                b1.duration_since(ctx.epoch).as_nanos() as u64,
                Ordering::Release,
            );
            batch_lat.record((b1 - b0).as_nanos() as u64);
            if (k + 1) % (n_batches / WORD_SAMPLES).max(1) == 0 && words.len() < WORD_SAMPLES {
                // state size, sampled with the ingest clock paused
                words.push(writer.words() as f64);
                paused += b1.elapsed();
            }
        }
        tracer.span("facade.publish", || writer.publish());
        let elapsed = t0.elapsed() - paused;
        tracer.end("e2e.ingest", root);
        stop.store(true, Ordering::Relaxed);
        (elapsed, rh.join().expect("reader thread"))
    });
    final_checks(ctx, &inputs.truth, &mut writer, &reader, n);
    acc.rates.push(n as f64 / elapsed.as_secs_f64());
    acc.batch.add(&batch_lat);
    acc.query.add(&rout.lat);
    acc.stale.add(&rout.stale);
    acc.late.merge(&rout.late);
    acc.spans.extend(rout.spans);
    acc.spans.extend(tracer.take());
    acc.words
        .push(words.iter().sum::<f64>() / words.len().max(1) as f64);
    acc.points += n;
}

fn final_checks(ctx: &Ctx<'_>, truth: &Truth, writer: &mut RdsWriter, reader: &RdsReader, n: u64) {
    let tally = ctx.tally;
    tally.check(writer.seen() == n && reader.seen() == n, || {
        format!(
            "seen: writer {} / reader {} after feeding {n}",
            writer.seen(),
            reader.seen()
        )
    });
    let recs = reader.query_k(8);
    tally.check(
        !recs.is_empty() && recs.iter().all(|r| truth.rep_ok(&r.rep, n, n)),
        || {
            format!(
                "final query_k(8): {} records, some not within alpha of a live entity",
                recs.len()
            )
        },
    );
    let est = reader.f0_estimate();
    let t = ctx.inputs.cfg.threshold();
    let want = truth.distinct(n);
    tally.check(f0_ok(est, want, t), || {
        format!(
            "final F0 {est:.0} vs true distinct count {want}: outside 1 ± 4/sqrt({t}) = ±{:.3}",
            4.0 / (t as f64).sqrt()
        )
    });
}

fn rounds_for(ctx: &Ctx<'_>, traced: bool, budget: Duration, min_rounds: usize) -> Rounds {
    let mut acc = Rounds::default();
    let t0 = Instant::now();
    while acc.rates.len() < min_rounds || t0.elapsed() < budget {
        round(ctx, traced, &mut acc);
    }
    acc
}

/// Runs an in-process workload and fills `m`.
pub fn run(run: &Run, spec: Spec, m: &mut Metrics, tally: &Tally, spans_out: &mut Vec<Span>) {
    let inputs = setup(&run.workload, run.seed, &spec, m);
    let ctx = Ctx {
        inputs: &inputs,
        spec,
        seed: run.seed,
        epoch: run.epoch,
        tally,
    };
    let secs = run.seconds as f64;
    if !run.trace {
        let r = rounds_for(&ctx, false, Duration::from_secs_f64(secs), 3);
        m.put_n(
            "ingest_pts_per_s",
            median(&r.rates),
            "pts/s",
            Some(r.rates.len() as u64),
        );
        m.put_windows("query_us", &r.query, 1e3, "us");
        m.put_windows("staleness_us", &r.stale, 1e3, "us");
        m.put_windows("ingest_req_us", &r.batch, 1e3, "us");
        m.put_n(
            "state_words",
            median(&r.words),
            "words",
            Some(r.words.len() as u64),
        );
        m.notes.push(format!(
            "reader lateness: p50 {:.1} us, p90 {:.1} us, p99 {:.1} us",
            r.late.percentile(50.0) / 1e3,
            r.late.percentile(90.0) / 1e3,
            r.late.percentile(99.0) / 1e3
        ));
        let shown: Vec<String> = r.rates.iter().map(|x| format!("{x:.0}")).collect();
        m.notes.push(format!(
            "rounds: {} of {} points, round rates [{}]",
            r.rates.len(),
            inputs.data.points.len(),
            shown.join(" ")
        ));
        return;
    }
    // Traced run: untraced rounds, traced rounds, then layer replays.
    let plain = rounds_for(&ctx, false, Duration::from_secs_f64(secs * 0.35), 2);
    let traced = rounds_for(&ctx, true, Duration::from_secs_f64(secs * 0.35), 2);
    let e2e_ns = 1e9 / median(&plain.rates);
    let e2e_traced_ns = 1e9 / median(&traced.rates);
    let mut spans = traced.spans;
    let inner_ns = layers::replay(&inputs, &spec, run.epoch, m, &mut spans);
    let sum = crate::trace::summarise(&spans);
    let points = traced.points as f64;
    let rounds = traced.rates.len() as f64;
    let get = |n: &str| sum.get(n);
    if let Some(s) = get("facade.process_batch") {
        m.put("facade.process_ns_per_pt", s.total_ns as f64 / points, "ns");
    }
    let publish_ns = get("facade.publish").map_or(0.0, |s| s.total_ns as f64);
    if let Some(s) = get("facade.publish") {
        m.put_hist("facade.publish_us", &s.hist, 1e3, "us");
        m.put("facade.publishes", s.count as f64 / rounds, "count");
    }
    let mut q = Histogram::new();
    for name in ["facade.query_k", "facade.f0_estimate"] {
        if let Some(s) = get(name) {
            q.merge(&s.hist);
        }
    }
    m.put_hist("facade.query_ns", &q, 1.0, "ns");
    m.put(
        "residual.ns_per_pt",
        e2e_ns - inner_ns - publish_ns / points,
        "ns",
    );
    m.put(
        "trace.overhead_frac",
        (e2e_traced_ns - e2e_ns) / e2e_ns,
        "ratio",
    );
    m.put("gen.late_us_p99", traced.late.percentile(99.0) / 1e3, "us");
    m.notes.push(format!(
        "e2e ns/pt untraced {e2e_ns:.1} ({} rounds), traced {e2e_traced_ns:.1} ({} rounds); inner layer {inner_ns:.1} ns/pt",
        plain.rates.len(),
        traced.rates.len()
    ));
    spans_out.extend(spans);
}
