//! `http-mixed`: a loopback `rds-server` with tenancy on, driven by two
//! open-loop generator threads, one keep-alive connection each.
//!
//! The mix: global `/ingest` (50-point batches), `/query_k?k=8` and
//! `/f0`, plus `/t/{id}/ingest|query_k|f0` with Zipf(θ = 1) tenant ids.
//! Every request is timed from its scheduled send time. The tenant
//! budget is small enough that tenants are spilled and restored all the
//! time.

use crate::checks::{f0_ok, Tally};
use crate::gen::{wait_until, Lattice, Schedule, ZipfEntities};
use crate::hist::Histogram;
use crate::report::{median, Metrics, Windows, SETUP_REPS};
use crate::trace::{summarise, Span, Tracer};
use crate::Run;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rds_core::{Checkpointable, RobustL0Sampler, SamplerConfig};
use rds_geometry::Point;
use rds_server::api_types::{
    self, F0Response, IngestRequest, IngestResponse, QueryResponse, TenantHealthResponse,
};
use rds_server::client::Conn;
use rds_server::{BackendConfig, ServerConfig, ServerHandle, TenancyConfig};
use rds_stream::ZipfKeys;
use rds_tenant::{spill, TenantRegistry, TenantTemplate};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Generator threads and connections (at most `nproc` on the 2-core
/// reference box).
const CONNS: usize = 2;
/// Offered rate of the fixed-rate phase, requests per second in total.
const RATE: f64 = 200.0;
/// Points per ingest request.
const BATCH: usize = 50;
/// Lattice entities of the global and tenant streams.
const ENTITIES: usize = 20_000;
/// Tenant ids `t00..t63`.
const TENANTS: usize = 64;
/// Entities per tenant: tenant `t` observes lattice entities
/// `t·TENANT_ENTITIES ..` only, so every tenant's sampler reaches its
/// steady size during set-up and spill/restore costs stay stationary.
const TENANT_ENTITIES: usize = 300;
/// Ingest requests per tenant during set-up.
const WARM_TENANT_REQS: usize = 8;
/// Resident-tenant budget in machine words: a fraction of what the
/// active tenants need, so the registry spills and restores constantly.
const BUDGET_WORDS: usize = 30_000;
/// Expected stream length of the global backend and the tenants (the
/// library default); it sets the threshold `T` of the F0 checks.
const EXPECTED_LEN: u64 = 1 << 20;
/// Read p99 limit of the rate ladder.
const LADDER_P99_LIMIT_US: f64 = 20_000.0;
/// Window length for the per-window percentiles of the fixed-rate phase.
const WINDOW: Duration = Duration::from_millis(1000);
/// Length of one closed-loop ingest burst.
const BURST: Duration = Duration::from_secs(1);
/// Ingest requests generated per connection for one burst (more than a
/// connection completes in [`BURST`]).
const SATURATION_REQS: usize = 4000;
/// Sample classes of [`ConnOut::samples`].
const READ: u8 = 0;
const INGEST: u8 = 1;
const STALE: u8 = 2;
const LATE: u8 = 3;
/// Recorded requests per connection in the traced phase.
const RECORD_MAX: usize = 3000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Ingest,
    QueryK,
    F0,
    TIngest,
    TQueryK,
    TF0,
}

impl Kind {
    fn is_read(self) -> bool {
        !matches!(self, Kind::Ingest | Kind::TIngest)
    }

    fn span_name(self) -> &'static str {
        match self {
            Kind::Ingest => "http.ingest",
            Kind::QueryK => "http.query_k",
            Kind::F0 => "http.f0",
            Kind::TIngest => "http.tenant_ingest",
            Kind::TQueryK => "http.tenant_query_k",
            Kind::TF0 => "http.tenant_f0",
        }
    }
}

/// One generated request.
struct Req {
    kind: Kind,
    tenant: usize,
    method: &'static str,
    path: String,
    body: Option<String>,
    entities: Vec<u32>,
    points: Vec<Point>,
}

/// Deterministic request factory for one connection.
struct ReqGen {
    rng: StdRng,
    tenants: ZipfKeys,
    ents: ZipfEntities,
    tenant_ents: Vec<ZipfEntities>,
    lattice: Lattice,
}

impl ReqGen {
    fn new(seed: u64, conn: usize) -> Self {
        let s = seed ^ ((conn as u64 + 1) << 48);
        Self {
            rng: StdRng::seed_from_u64(s ^ 0x4854_5450_0000_0001),
            tenants: ZipfKeys::try_new(TENANTS, 1.0, s ^ 0x4854_5450_0000_0002)
                .expect("valid Zipf"),
            ents: ZipfEntities::new(ENTITIES, 0.9, s ^ 0x4854_5450_0000_0003),
            tenant_ents: (0..TENANTS)
                .map(|t| {
                    ZipfEntities::new(TENANT_ENTITIES, 0.9, s ^ 0x4854_5450_0001_0000 ^ t as u64)
                })
                .collect(),
            lattice: Lattice::new(ENTITIES),
        }
    }

    /// A 50-point batch: the global stream's entities, or tenant `t`'s.
    fn batch(&mut self, tenant: Option<usize>) -> (String, Vec<u32>, Vec<Point>) {
        let mut body = String::with_capacity(BATCH * 40 + 16);
        body.push_str("{\"points\":[");
        let mut ents = Vec::with_capacity(BATCH);
        let mut pts = Vec::with_capacity(BATCH);
        for i in 0..BATCH {
            let e = match tenant {
                None => self.ents.next(),
                Some(t) => (t * TENANT_ENTITIES) as u32 + self.tenant_ents[t].next(),
            };
            let p = self.lattice.observe(e, &mut self.rng);
            if i > 0 {
                body.push(',');
            }
            body.push_str(&format!("[{},{}]", p.coords()[0], p.coords()[1]));
            ents.push(e);
            pts.push(p);
        }
        body.push_str("]}");
        (body, ents, pts)
    }

    fn ingest(&mut self) -> Req {
        let (body, entities, points) = self.batch(None);
        Req {
            kind: Kind::Ingest,
            tenant: 0,
            method: "POST",
            path: "/ingest".to_string(),
            body: Some(body),
            entities,
            points,
        }
    }

    fn tenant_ingest(&mut self, tenant: usize) -> Req {
        let (body, entities, points) = self.batch(Some(tenant));
        Req {
            kind: Kind::TIngest,
            tenant,
            method: "POST",
            path: format!("/t/{}/ingest", tenant_id(tenant)),
            body: Some(body),
            entities,
            points,
        }
    }

    fn mixed(&mut self) -> Req {
        let u: f64 = self.rng.random();
        // Global requests are the larger share of each class, so each
        // class's median sits inside the global distribution rather than
        // on the edge between global and (slower, spilling) tenant ones.
        let kind = match u {
            u if u < 0.30 => Kind::Ingest,
            u if u < 0.50 => Kind::QueryK,
            u if u < 0.70 => Kind::F0,
            u if u < 0.80 => Kind::TIngest,
            u if u < 0.92 => Kind::TQueryK,
            _ => Kind::TF0,
        };
        let tenant = self.tenants.next_key() as usize;
        let (method, path) = match kind {
            Kind::Ingest => ("POST", "/ingest".to_string()),
            Kind::QueryK => ("GET", "/query_k?k=8".to_string()),
            Kind::F0 => ("GET", "/f0".to_string()),
            Kind::TIngest => ("POST", format!("/t/{}/ingest", tenant_id(tenant))),
            Kind::TQueryK => ("GET", format!("/t/{}/query_k?k=8", tenant_id(tenant))),
            Kind::TF0 => ("GET", format!("/t/{}/f0", tenant_id(tenant))),
        };
        let (body, entities, points) = if kind.is_read() {
            (None, Vec::new(), Vec::new())
        } else {
            let (b, e, p) = self.batch((kind == Kind::TIngest).then_some(tenant));
            (Some(b), e, p)
        };
        Req {
            kind,
            tenant,
            method,
            path,
            body,
            entities,
            points,
        }
    }
}

fn tenant_id(t: usize) -> String {
    format!("t{t:02}")
}

/// Ground truth shared by the generator threads: which entities were
/// sent to which stream (marked before the request leaves, so a check
/// can never fail for an answer that raced its own ack), and the global
/// ingest acks `seen -> time`.
struct Shared {
    lattice: Lattice,
    global: Mutex<Vec<bool>>,
    tenants: Mutex<Vec<Vec<bool>>>,
    acks: Mutex<BTreeMap<u64, u64>>,
    acked_points: AtomicU64,
    epoch: Instant,
}

impl Shared {
    fn new(epoch: Instant) -> Self {
        Self {
            lattice: Lattice::new(ENTITIES),
            global: Mutex::new(vec![false; ENTITIES]),
            tenants: Mutex::new(vec![vec![false; ENTITIES]; TENANTS]),
            acks: Mutex::new(BTreeMap::new()),
            acked_points: AtomicU64::new(0),
            epoch,
        }
    }

    fn mark_sent(&self, req: &Req) {
        match req.kind {
            Kind::Ingest => {
                let mut g = self.global.lock().expect("truth lock");
                for &e in &req.entities {
                    g[e as usize] = true;
                }
            }
            Kind::TIngest => {
                let mut t = self.tenants.lock().expect("truth lock");
                for &e in &req.entities {
                    t[req.tenant][e as usize] = true;
                }
            }
            _ => {}
        }
    }

    fn rep_ok(&self, rep: &[f64], tenant: Option<usize>) -> bool {
        let Some(e) = self.lattice.entity_near(rep, Lattice::ALPHA) else {
            return false;
        };
        match tenant {
            None => self.global.lock().expect("truth lock")[e as usize],
            Some(t) => self.tenants.lock().expect("truth lock")[t][e as usize],
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Staleness of a global answer covering `seen` points: now minus
    /// the ack time of the ingest batch that held point `seen` (0 while
    /// that ack is still in flight).
    fn staleness(&self, seen: u64) -> Option<u64> {
        if seen == 0 {
            return None;
        }
        let now = self.now_ns();
        let acks = self.acks.lock().expect("ack lock");
        Some(
            acks.range(seen..)
                .next()
                .map_or(0, |(_, &t)| now.saturating_sub(t)),
        )
    }
}

/// What one connection measured in one phase.
#[derive(Default)]
struct ConnOut {
    late: Histogram,
    service: Histogram,
    done: u64,
    /// Points acknowledged by successful ingests (global and tenant).
    points: u64,
    /// Wall time of the phase, first due time to last answer (s).
    elapsed: f64,
    /// (due time since the phase start in ns, class, value in ns).
    samples: Vec<(u64, u8, u64)>,
    /// Due time of the request in flight, for samples taken inside it.
    cur_t: u64,
    spans: Vec<Span>,
    /// (raw request bytes, kind, response body) of the first requests.
    recorded: Vec<(Vec<u8>, Kind, String)>,
    /// (kind, tenant, points) of the tenant operations, in send order.
    tenant_ops: Vec<(Kind, usize, Vec<Point>)>,
}

impl ConnOut {
    fn merge(&mut self, o: ConnOut) {
        self.late.merge(&o.late);
        self.service.merge(&o.service);
        self.done += o.done;
        self.points += o.points;
        self.samples.extend(o.samples);
        self.spans.extend(o.spans);
        self.recorded.extend(o.recorded);
        self.tenant_ops.extend(o.tenant_ops);
    }
}

fn raw_request(req: &Req) -> Vec<u8> {
    let body = req.body.as_deref().unwrap_or("");
    format!(
        "{} {} HTTP/1.1\r\nHost: rds\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
        req.method,
        req.path,
        body.len()
    )
    .into_bytes()
}

/// Sends one request and checks its answer; returns whether it succeeded.
fn exchange(
    conn: &mut Option<Conn>,
    addr: SocketAddr,
    req: &Req,
    sh: &Shared,
    tally: &Tally,
    out: &mut ConnOut,
    record: bool,
) -> bool {
    sh.mark_sent(req);
    if conn.is_none() {
        *conn = Conn::connect(addr).ok();
    }
    let Some(c) = conn.as_mut() else {
        return tally.check(false, || format!("{}: cannot connect", req.path));
    };
    let res = c.request(req.method, &req.path, req.body.as_deref());
    let (status, body) = match res {
        Ok(r) => r,
        Err(e) => {
            *conn = None;
            return tally.check(false, || format!("{}: socket error {e}", req.path));
        }
    };
    if status != 200 {
        return tally.check(false, || format!("{}: status {status}: {body}", req.path));
    }
    let ok = match req.kind {
        Kind::Ingest | Kind::TIngest => match serde_json::from_str::<IngestResponse>(&body) {
            Ok(r) => {
                if req.kind == Kind::Ingest {
                    sh.acks
                        .lock()
                        .expect("ack lock")
                        .insert(r.seen, sh.now_ns());
                    sh.acked_points.fetch_add(r.ingested, Ordering::Relaxed);
                }
                out.points += r.ingested;
                r.ingested == BATCH as u64
            }
            Err(_) => false,
        },
        Kind::QueryK | Kind::TQueryK => match serde_json::from_str::<QueryResponse>(&body) {
            Ok(r) => {
                let tenant = (req.kind == Kind::TQueryK).then_some(req.tenant);
                if tenant.is_none() {
                    if let Some(s) = sh.staleness(r.seen) {
                        out.samples.push((out.cur_t, STALE, s));
                    }
                }
                r.records.iter().all(|rec| sh.rep_ok(&rec.rep, tenant))
            }
            Err(_) => false,
        },
        Kind::F0 | Kind::TF0 => match serde_json::from_str::<F0Response>(&body) {
            Ok(r) => {
                if req.kind == Kind::F0 {
                    if let Some(s) = sh.staleness(r.seen) {
                        out.samples.push((out.cur_t, STALE, s));
                    }
                }
                r.f0.is_finite() && r.f0 >= 0.0
            }
            Err(_) => false,
        },
    };
    if record && out.recorded.len() < RECORD_MAX {
        out.recorded.push((raw_request(req), req.kind, body));
    }
    tally.check(ok, || format!("{}: answer failed its check", req.path))
}

/// One connection's open-loop drive through `reqs` at `rate` per second,
/// starting at `start`.
fn drive(
    addr: SocketAddr,
    reqs: Vec<Req>,
    start: Instant,
    rate: f64,
    sh: &Shared,
    tally: &Tally,
    traced: bool,
) -> ConnOut {
    let mut out = ConnOut::default();
    let mut conn = Conn::connect(addr).ok();
    let mut sched = Schedule::new(start, rate);
    let mut tracer = Tracer::new(traced, sh.epoch);
    for req in reqs {
        let due = sched.next_due();
        wait_until(due);
        let sent = Instant::now();
        let late = (sent - due).as_nanos() as u64;
        out.late.record(late);
        out.cur_t = due.saturating_duration_since(start).as_nanos() as u64;
        out.samples.push((out.cur_t, LATE, late));
        let ok = tracer.span(req.kind.span_name(), || {
            exchange(&mut conn, addr, &req, sh, tally, &mut out, traced)
        });
        let done = Instant::now();
        let lat = (done - due).as_nanos() as u64;
        out.service.record((done - sent).as_nanos() as u64);
        if ok {
            out.done += 1;
        }
        let class = if req.kind.is_read() { READ } else { INGEST };
        out.samples.push((out.cur_t, class, lat));
        if traced && matches!(req.kind, Kind::TIngest | Kind::TQueryK | Kind::TF0) {
            out.tenant_ops.push((req.kind, req.tenant, req.points));
        }
    }
    out.spans = tracer.take();
    out
}

/// A fixed-rate phase of the mix: `secs` seconds at `rate` requests/s,
/// split over the connections.
fn mixed_phase(
    addr: SocketAddr,
    gens: &mut [ReqGen],
    secs: f64,
    rate: f64,
    sh: &Shared,
    tally: &Tally,
    traced: bool,
) -> ConnOut {
    let per_conn = rate / CONNS as f64;
    let n = (per_conn * secs).ceil() as usize;
    let reqs: Vec<Vec<Req>> = gens
        .iter_mut()
        .map(|g| (0..n).map(|_| g.mixed()).collect())
        .collect();
    let start = Instant::now() + Duration::from_millis(5);
    let mut all = ConnOut::default();
    std::thread::scope(|s| {
        let hs: Vec<_> = reqs
            .into_iter()
            .enumerate()
            .map(|(c, r)| {
                // stagger the connections by half an interval
                let st = start + Duration::from_secs_f64(c as f64 / rate);
                s.spawn(move || drive(addr, r, st, per_conn, sh, tally, traced))
            })
            .collect();
        for h in hs {
            all.merge(h.join().expect("generator thread"));
        }
    });
    all.elapsed = start.elapsed().as_secs_f64();
    all
}

/// Closed-loop global ingest on every connection, in one-second
/// bursts for `secs`: the median burst rate in points per second.
fn saturation_phase(
    addr: SocketAddr,
    gens: &mut [ReqGen],
    secs: f64,
    sh: &Shared,
    tally: &Tally,
) -> (f64, usize) {
    let bursts = ((secs / BURST.as_secs_f64()).floor() as usize).max(1);
    let mut rates = Vec::with_capacity(bursts);
    for _ in 0..bursts {
        // Bodies are generated before the burst, so the clients spend
        // the burst on the wire; a burst that outruns them ends early.
        let mut pending: Vec<Vec<Req>> = gens
            .iter_mut()
            .map(|g| (0..SATURATION_REQS).map(|_| g.ingest()).collect())
            .collect();
        let t0 = Instant::now();
        let deadline = t0 + BURST;
        let points = AtomicU64::new(0);
        std::thread::scope(|s| {
            for reqs in pending.iter_mut() {
                let points = &points;
                s.spawn(move || {
                    let mut conn = Conn::connect(addr).ok();
                    let mut out = ConnOut::default();
                    while Instant::now() < deadline {
                        let Some(req) = reqs.pop() else { break };
                        if exchange(&mut conn, addr, &req, sh, tally, &mut out, false) {
                            points.fetch_add(BATCH as u64, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        rates.push(points.load(Ordering::Relaxed) as f64 / t0.elapsed().as_secs_f64());
    }
    (median(&rates), rates.len())
}

/// Splits a phase's samples of `class` into [`WINDOW`]-long slices by
/// due time.
fn windows(out: &ConnOut, class: u8) -> Windows {
    let w = WINDOW.as_nanos() as u64;
    let mut by: BTreeMap<u64, Histogram> = BTreeMap::new();
    for &(t, c, v) in &out.samples {
        if c == class {
            by.entry(t / w).or_default().record(v);
        }
    }
    let mut ws = Windows::default();
    for h in by.values() {
        ws.add(h);
    }
    ws
}

fn server_config(seed: u64, spill_dir: &Path) -> ServerConfig {
    let mut backend = BackendConfig::new(2, Lattice::ALPHA);
    backend.seed = seed;
    backend.expected_len = EXPECTED_LEN;
    backend.publish_every = Some(256);
    let mut cfg = ServerConfig::new(backend);
    cfg.read_timeout_ms = 2_000;
    cfg.tenants = Some(TenancyConfig {
        budget_words: BUDGET_WORDS,
        spill_dir: spill_dir.to_string_lossy().into_owned(),
    });
    cfg
}

fn template(seed: u64) -> TenantTemplate {
    let mut t = TenantTemplate::new(2, Lattice::ALPHA);
    t.seed = seed;
    t.expected_len = EXPECTED_LEN;
    t
}

fn spill_dir(run: &Run, tag: &str) -> PathBuf {
    let dir = run
        .out_dir
        .join(format!("spill-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Set-up: bind the server and warm it with a short burst of the mix.
fn start(run: &Run, tag: &str, sh: &Shared, tally: &Tally) -> (ServerHandle, PathBuf, Vec<ReqGen>) {
    let dir = spill_dir(run, tag);
    std::fs::create_dir_all(&dir).expect("spill dir");
    let handle = rds_server::bind(server_config(run.seed, &dir)).expect("server binds");
    let mut gens: Vec<ReqGen> = (0..CONNS).map(|c| ReqGen::new(run.seed, c)).collect();
    warm_tenants(handle.addr(), &mut gens, sh, tally);
    mixed_phase(handle.addr(), &mut gens, 0.5, RATE, sh, tally, false);
    (handle, dir, gens)
}

/// Brings every tenant to its steady size: [`WARM_TENANT_REQS`] ingest
/// requests each, closed loop, tenants split over the connections.
fn warm_tenants(addr: SocketAddr, gens: &mut [ReqGen], sh: &Shared, tally: &Tally) {
    std::thread::scope(|s| {
        for (c, g) in gens.iter_mut().enumerate() {
            s.spawn(move || {
                let mut conn = Conn::connect(addr).ok();
                let mut out = ConnOut::default();
                for t in (c..TENANTS).step_by(CONNS) {
                    for _ in 0..WARM_TENANT_REQS {
                        let req = g.tenant_ingest(t);
                        exchange(&mut conn, addr, &req, sh, tally, &mut out, false);
                    }
                }
            });
        }
    });
}

fn stop(handle: ServerHandle, dir: &Path) {
    handle.shutdown_and_join();
    let _ = std::fs::remove_dir_all(dir);
}

/// Final checks against the server's state after all traffic.
fn final_checks(addr: SocketAddr, sh: &Shared, tally: &Tally, m: &mut Metrics) {
    let threshold = SamplerConfig::builder(2, Lattice::ALPHA)
        .expected_len(EXPECTED_LEN)
        .build()
        .expect("valid config")
        .threshold();
    let mut conn = match Conn::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            tally.check(false, || format!("final checks: cannot connect: {e}"));
            return;
        }
    };
    let mut get = |path: &str| -> Option<String> {
        match conn.request("GET", path, None) {
            Ok((200, body)) => Some(body),
            Ok((status, body)) => {
                tally.check(false, || format!("final {path}: status {status}: {body}"));
                None
            }
            Err(e) => {
                tally.check(false, || format!("final {path}: {e}"));
                None
            }
        }
    };
    let acked = sh.acked_points.load(Ordering::Relaxed);
    let writer_seen = sh
        .acks
        .lock()
        .expect("ack lock")
        .keys()
        .next_back()
        .copied()
        .unwrap_or(0);
    tally.check(writer_seen == acked, || {
        format!("writer seen {writer_seen} vs {acked} points acked")
    });
    if let Some(h) =
        get("/healthz").and_then(|b| serde_json::from_str::<TenantHealthResponse>(&b).ok())
    {
        tally.check(h.seen <= acked && h.seen + 256 > acked, || {
            format!(
                "snapshot seen {} vs {acked} points acked (publish every 256)",
                h.seen
            )
        });
        m.put("state_words", h.resident_words as f64, "words");
        m.notes.push(format!(
            "registry: {} tenants, {} resident, {} spills, {} restores",
            h.tenants, h.resident, h.spills, h.restores
        ));
    }
    let distinct = sh
        .global
        .lock()
        .expect("truth lock")
        .iter()
        .filter(|&&b| b)
        .count() as u64;
    if let Some(r) = get("/f0").and_then(|b| serde_json::from_str::<F0Response>(&b).ok()) {
        tally.check(f0_ok(r.f0, distinct, threshold), || {
            format!(
                "global F0 {:.0} vs true distinct count {distinct} (T = {threshold})",
                r.f0
            )
        });
    }
    if let Some(r) =
        get("/query_k?k=8").and_then(|b| serde_json::from_str::<QueryResponse>(&b).ok())
    {
        tally.check(
            !r.records.is_empty() && r.records.iter().all(|rec| sh.rep_ok(&rec.rep, None)),
            || {
                "final global query_k(8) returned a record far from every ingested entity"
                    .to_string()
            },
        );
    }
    // Tenants: the bound applies to the sum over tenants. Each tenant's
    // own estimate is one draw at up to ~2.8 standard deviations, and 64
    // of them per run would trip on sampling noise alone; the sum keeps
    // the check sensitive to any bias the tenant path adds.
    let per_tenant: Vec<u64> = sh
        .tenants
        .lock()
        .expect("truth lock")
        .iter()
        .map(|t| t.iter().filter(|&&b| b).count() as u64)
        .collect();
    let (mut est, mut truth) = (0.0, 0u64);
    for (t, &distinct) in per_tenant.iter().enumerate().filter(|(_, &d)| d > 0) {
        let path = format!("/t/{}/f0", tenant_id(t));
        match get(&path).and_then(|b| serde_json::from_str::<F0Response>(&b).ok()) {
            Some(r) => {
                est += r.f0;
                truth += distinct;
            }
            None => {
                tally.check(false, || format!("final {path}: unreadable answer"));
            }
        }
    }
    tally.check(f0_ok(est, truth, threshold), || {
        format!(
            "summed tenant F0 {est:.0} vs summed true distinct counts {truth} (T = {threshold})"
        )
    });
}

/// Runs `http-mixed` and fills `m`.
pub fn run(run: &Run, m: &mut Metrics, tally: &Tally, spans_out: &mut Vec<Span>) {
    // Set-up SETUP_REPS times (each with its own server and spill dir);
    // keep the last one.
    let mut times = Vec::new();
    let mut kept = None;
    for i in 0..SETUP_REPS {
        let t0 = Instant::now();
        let sh = Shared::new(run.epoch);
        let (handle, dir, gens) = start(run, &format!("setup{i}"), &sh, tally);
        times.push(t0.elapsed().as_secs_f64());
        if let Some((h, d, _, _)) = kept.replace((handle, dir, gens, sh)) {
            stop(h, &d);
        }
    }
    m.put_setup(&times);
    let (handle, dir, mut gens, sh) = kept.expect("set-up ran");
    let addr = handle.addr();
    let secs = run.seconds as f64;

    if !run.trace {
        let fixed = mixed_phase(addr, &mut gens, secs, RATE, &sh, tally, false);
        m.put(
            "ingest_pts_per_s",
            fixed.points as f64 / fixed.elapsed,
            "pts/s",
        );
        m.put_windows("query_us", &windows(&fixed, READ), 1e3, "us");
        m.put_windows("staleness_us", &windows(&fixed, STALE), 1e3, "us");
        m.put_windows("ingest_req_us", &windows(&fixed, INGEST), 1e3, "us");
        m.notes.push(format!(
            "offered {RATE} req/s over {CONNS} connections; generator late p99 {:.1} us",
            fixed.late.percentile(99.0) / 1e3
        ));
    } else {
        let plain = mixed_phase(addr, &mut gens, secs * 0.25, RATE, &sh, tally, false);
        let traced = mixed_phase(addr, &mut gens, secs * 0.25, RATE, &sh, tally, true);
        let max_rps = ladder(addr, &mut gens, secs * 0.2, &sh, tally, m);
        m.put("server.max_rps", max_rps, "req/s");
        let (sat, bursts) = saturation_phase(addr, &mut gens, secs * 0.1, &sh, tally);
        m.put_n(
            "server.ingest_sat_pts_per_s",
            sat,
            "pts/s",
            Some(bursts as u64),
        );
        let mut spans = traced.spans.clone();
        let layers_us = replay(run, &traced, m, &mut spans);
        m.put(
            "residual.us_per_req",
            traced.service.mean() / 1e3 - layers_us,
            "us",
        );
        m.put(
            "trace.overhead_frac",
            (traced.service.mean() - plain.service.mean()) / plain.service.mean(),
            "ratio",
        );
        m.put("gen.late_us_p99", traced.late.percentile(99.0) / 1e3, "us");
        spans_out.extend(spans);
    }
    final_checks(addr, &sh, tally, m);
    stop(handle, &dir);
}

/// The rate ladder: the highest offered rate at which read p99 stays
/// under [`LADDER_P99_LIMIT_US`] and the generator's lateness does not
/// grow from the first half of the step to the second.
fn ladder(
    addr: SocketAddr,
    gens: &mut [ReqGen],
    secs: f64,
    sh: &Shared,
    tally: &Tally,
    m: &mut Metrics,
) -> f64 {
    let steps = [0.5, 1.0, 1.5, 2.0, 3.0, 4.0];
    let per = secs / steps.len() as f64;
    let mut best = 0.0;
    for f in steps {
        let rate = RATE * f;
        let step = mixed_phase(addr, gens, per, rate, sh, tally, false);
        let half = (per / 2.0 * 1e9) as u64;
        let (mut lag1, mut lag2) = (Histogram::new(), Histogram::new());
        for &(t, c, v) in &step.samples {
            if c == LATE {
                if t < half {
                    lag1.record(v)
                } else {
                    lag2.record(v)
                }
            }
        }
        let (lag1, lag2) = (lag1.percentile(50.0), lag2.percentile(50.0));
        let p99 = windows(&step, READ).pooled.percentile(99.0) / 1e3;
        let ok = p99 < LADDER_P99_LIMIT_US && lag2 <= lag1 * 2.0 + 1e6;
        m.notes.push(format!(
            "ladder {rate:.0} req/s: read p99 {p99:.0} us, late p50 {:.0} -> {:.0} us, {}",
            lag1 / 1e3,
            lag2 / 1e3,
            if ok { "ok" } else { "over" }
        ));
        if !ok {
            break;
        }
        best = step.done as f64 / per;
    }
    best
}

/// Server and tenant layers, replayed on what the traced phase sent:
/// parse, route, decode and encode over the recorded requests and
/// responses; the recorded tenant operation sequence against a fresh
/// registry; and the spill container round trip. Returns the summed
/// per-request layer cost in µs.
fn replay(run: &Run, traced: &ConnOut, m: &mut Metrics, spans: &mut Vec<Span>) -> f64 {
    let mut t = Tracer::new(true, run.epoch);
    let rec = &traced.recorded;
    let n = rec.len().max(1) as f64;
    let mut parsed = Vec::with_capacity(rec.len());
    for chunk in rec.chunks(64) {
        t.span("server.read_request", || {
            for (raw, _, _) in chunk {
                let mut r = std::io::Cursor::new(raw.as_slice());
                if let rds_server::http::ReadOutcome::Request(req) =
                    rds_server::http::read_request(&mut r, 1 << 20)
                {
                    parsed.push(req);
                }
            }
        });
    }
    for chunk in parsed.chunks(64) {
        t.span("server.route", || {
            for req in chunk {
                black_box(rds_server::router::route(&req.method, &req.path).is_ok());
            }
        });
    }
    let ingest_bodies: Vec<&str> = parsed
        .iter()
        .filter(|r| r.method == "POST")
        .map(|r| r.body.as_str())
        .collect();
    for chunk in ingest_bodies.chunks(64) {
        t.span("server.decode", || {
            for b in chunk {
                black_box(serde_json::from_str::<IngestRequest>(b).is_ok());
            }
        });
    }
    // responses, typed once, encoded under the span
    let mut ingest_resps = Vec::new();
    let mut query_resps = Vec::new();
    let mut f0_resps = Vec::new();
    for (_, kind, body) in rec {
        match kind {
            Kind::Ingest | Kind::TIngest => {
                ingest_resps.extend(serde_json::from_str::<IngestResponse>(body).ok())
            }
            Kind::QueryK | Kind::TQueryK => {
                query_resps.extend(serde_json::from_str::<QueryResponse>(body).ok())
            }
            Kind::F0 | Kind::TF0 => f0_resps.extend(serde_json::from_str::<F0Response>(body).ok()),
        }
    }
    t.span("server.encode", || {
        for r in &ingest_resps {
            black_box(api_types::to_json(r));
        }
        for r in &query_resps {
            black_box(api_types::to_json(r));
        }
        for r in &f0_resps {
            black_box(api_types::to_json(r));
        }
    });

    // tenant operations against a fresh registry with the same budget
    let dir = spill_dir(run, "replay");
    let reg = TenantRegistry::new(template(run.seed), BUDGET_WORDS, &dir).expect("valid registry");
    // brought to steady size first, as the server's tenants were
    let mut warm = ReqGen::new(run.seed, CONNS);
    for t in 0..TENANTS {
        for _ in 0..WARM_TENANT_REQS {
            black_box(
                reg.ingest(&tenant_id(t), &warm.tenant_ingest(t).points, None)
                    .is_ok(),
            );
        }
    }
    let before = reg.stats();
    let ops = &traced.tenant_ops;
    for (draw, (kind, tenant, pts)) in (1u64..).zip(ops) {
        let id = tenant_id(*tenant);
        let ok = match kind {
            Kind::TIngest => t.span("tenant.ingest", || reg.ingest(&id, pts, None).is_ok()),
            Kind::TQueryK => t.span("tenant.query_k_at", || reg.query_k_at(&id, 8, draw).is_ok()),
            _ => t.span("tenant.f0_estimate", || reg.f0_estimate(&id).is_ok()),
        };
        black_box(ok);
    }
    let stats = reg.stats();
    let n_ops = ops.len().max(1) as f64;
    m.put(
        "tenant.spills_per_op",
        (stats.spills - before.spills) as f64 / n_ops,
        "ratio",
    );
    m.put(
        "tenant.restores_per_op",
        (stats.restores - before.restores) as f64 / n_ops,
        "ratio",
    );
    m.put("tenant.resident", stats.resident as f64, "count");
    drop(reg);

    // the spill container round trip on the busiest tenant's stream
    let busiest = (0..TENANTS)
        .max_by_key(|&t| {
            ops.iter()
                .filter(|(k, tt, _)| *k == Kind::TIngest && *tt == t)
                .count()
        })
        .unwrap_or(0);
    let cfg = SamplerConfig::builder(2, Lattice::ALPHA)
        .seed(template(run.seed).tenant_seed(&tenant_id(busiest)))
        .expected_len(EXPECTED_LEN)
        .build()
        .expect("valid config");
    let mut s = RobustL0Sampler::try_new(cfg).expect("valid sampler");
    for (_, _, pts) in ops
        .iter()
        .filter(|(k, tt, _)| *k == Kind::TIngest && *tt == busiest)
    {
        s.process_batch(pts);
    }
    let _ = std::fs::create_dir_all(&dir);
    for _ in 0..20 {
        let sealed = t.span("tenant.seal_state", || spill::seal_state(&s));
        let wrote = t.span("tenant.write_container", || {
            spill::write_container(&dir, "probe", &sealed).is_ok()
        });
        let text = t.span("tenant.read_container", || {
            spill::read_container(&dir, "probe").ok().flatten()
        });
        let opened = text.map(|txt| {
            t.span("tenant.open_state", || {
                spill::open_state::<RobustL0Sampler>(&txt).is_ok()
            })
        });
        black_box((wrote, opened, s.checkpoint_state().seen()));
    }
    let _ = std::fs::remove_dir_all(&dir);

    let new = t.take();
    let sum = summarise(&new);
    let per = |name: &str, count: f64| sum.get(name).map_or(0.0, |s| s.total_ns as f64 / count);
    let parse = per("server.read_request", n);
    let route = per("server.route", parsed.len().max(1) as f64);
    let decode = per("server.decode", ingest_bodies.len().max(1) as f64);
    let n_resp = (ingest_resps.len() + query_resps.len() + f0_resps.len()).max(1) as f64;
    let encode = per("server.encode", n_resp);
    m.put("server.parse_ns_per_req", parse, "ns");
    m.put("server.route_ns_per_req", route, "ns");
    m.put("server.decode_ns_per_req", decode, "ns");
    m.put("server.encode_ns_per_resp", encode, "ns");
    let mut op = Histogram::new();
    for name in ["tenant.ingest", "tenant.query_k_at", "tenant.f0_estimate"] {
        if let Some(s) = sum.get(name) {
            op.merge(&s.hist);
        }
    }
    m.put_hist("tenant.op_us", &op, 1e3, "us");
    for (metric, name) in [
        ("tenant.seal_us", "tenant.seal_state"),
        ("tenant.write_us", "tenant.write_container"),
        ("tenant.read_us", "tenant.read_container"),
        ("tenant.open_us", "tenant.open_state"),
    ] {
        m.put(
            metric,
            sum.get(name).map_or(0.0, |s| s.hist.percentile(50.0)) / 1e3,
            "us",
        );
    }
    spans.extend(new);
    // per-request layer cost: every request is parsed, routed and
    // encoded; ingests are decoded; tenant requests run a registry op
    let ingest_share = ingest_bodies.len() as f64 / parsed.len().max(1) as f64;
    let tenant_share = ops.len() as f64 / traced.service.count().max(1) as f64;
    (parse + route + encode + decode * ingest_share) / 1e3 + op.mean() / 1e3 * tenant_share
}
