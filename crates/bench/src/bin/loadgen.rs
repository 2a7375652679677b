//! HTTP load generator for `rds-server`: keep-alive connections firing
//! a deterministic ingest/query mix, reporting requests/sec and
//! p50/p99 latency per endpoint class to `BENCH_server.json`.
//!
//! With `--addr HOST:PORT` the target is an already-running server
//! (readiness-polled on `/healthz` first); without it an in-process
//! server is started on an ephemeral loopback port so the bin is
//! self-contained. `--shutdown` posts `/admin/shutdown` at the end and
//! requires the drain to succeed — `ci.sh` uses this as its
//! clean-shutdown gate. `RDS_BENCH_FAST=1` shrinks the request counts
//! to a smoke test; `RDS_BENCH_OUT` overrides the output path.
//!
//! `--tenants N` switches the traffic to the multi-tenant routes: every
//! request targets `/t/{tenant}/...` with the tenant drawn from a seeded
//! Zipf(θ=1) distribution over `N` keys ([`rds_stream::ZipfKeys`]), so a
//! hot head shares connections with a long faulting tail — the realistic
//! mix for the registry's eviction machinery. A self-hosted server is
//! then started with tenancy enabled (scratch spill directory, cleaned
//! up on exit); with `--addr` the remote server must have been started
//! with `--tenants`.
//!
//! Exit code 1 when any request got a 5xx or failed at the socket
//! level; 2 on usage errors.

use rds_server::client::Conn;
use rds_server::{bind, BackendConfig, ServerConfig, TenancyConfig};
use rds_stream::ZipfKeys;
use serde::Serialize;
use std::net::{SocketAddr, ToSocketAddrs};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

const DIM: usize = 2;
const N_ENTITIES: u64 = 200;
const BATCH: usize = 50;

fn fast_mode() -> bool {
    std::env::var_os("RDS_BENCH_FAST").is_some_and(|v| v != "0")
}

/// One endpoint class's latency profile.
#[derive(Serialize)]
struct ClassStats {
    requests: u64,
    requests_per_sec: f64,
    p50_micros: u64,
    p99_micros: u64,
}

#[derive(Serialize)]
struct ServerBenchReport {
    addr: String,
    /// Zipf key space of the tenant mix; absent in single-tenant mode.
    tenant_key_space: Option<u64>,
    writer_conns: usize,
    reader_conns: usize,
    total_requests: u64,
    requests_per_sec: f64,
    status_2xx: u64,
    status_4xx: u64,
    status_5xx: u64,
    io_errors: u64,
    ingest: ClassStats,
    query: ClassStats,
    f0: ClassStats,
}

/// Shared tallies; per-request latencies stay thread-local and are
/// merged when the connection threads join.
#[derive(Default)]
struct Tallies {
    s2xx: AtomicU64,
    s4xx: AtomicU64,
    s5xx: AtomicU64,
    io_errors: AtomicU64,
}

impl Tallies {
    fn record(&self, outcome: &std::io::Result<(u16, String)>) {
        match outcome {
            Ok((s, _)) if *s < 300 => self.s2xx.fetch_add(1, Ordering::Relaxed),
            Ok((s, _)) if *s < 500 => self.s4xx.fetch_add(1, Ordering::Relaxed),
            Ok(_) => self.s5xx.fetch_add(1, Ordering::Relaxed),
            Err(_) => self.io_errors.fetch_add(1, Ordering::Relaxed),
        };
    }
}

/// Deterministic ingest body: `BATCH` points cycling `N_ENTITIES`
/// well-separated entities with near-duplicate jitter, offset by the
/// caller's position in the stream.
fn ingest_body(offset: u64) -> String {
    let rows: Vec<String> = (0..BATCH as u64)
        .map(|j| {
            let i = offset + j;
            let e = i % N_ENTITIES;
            let jitter = 0.01 * ((i / N_ENTITIES) % 5) as f64;
            format!("[{},{}]", (e % 16) as f64 * 10.0 + jitter, (e / 16) as f64 * 10.0)
        })
        .collect();
    format!("{{\"points\": [{}]}}", rows.join(","))
}

/// Runs `n` requests of one class on a fresh keep-alive connection,
/// returning the per-request latencies in microseconds. A broken
/// connection is re-dialed so one hiccup doesn't sink the whole class.
#[expect(
    clippy::disallowed_methods,
    reason = "a load generator measures request latency on the wall clock"
)]
fn drive(
    addr: SocketAddr,
    n: u64,
    tallies: &Tallies,
    mut request: impl FnMut(&mut Conn, u64) -> std::io::Result<(u16, String)>,
) -> Vec<u64> {
    let mut latencies = Vec::with_capacity(n as usize);
    let mut conn = Conn::connect(addr).ok();
    for i in 0..n {
        let start = Instant::now();
        let outcome = match conn.as_mut() {
            Some(c) => request(c, i),
            None => Err(std::io::Error::other("not connected")),
        };
        latencies.push(start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
        if outcome.is_err() {
            conn = Conn::connect(addr).ok();
        }
        tallies.record(&outcome);
    }
    latencies
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = (p * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn class_stats(mut latencies: Vec<u64>, elapsed: f64) -> ClassStats {
    latencies.sort_unstable();
    ClassStats {
        requests: latencies.len() as u64,
        requests_per_sec: latencies.len() as f64 / elapsed.max(1e-9),
        p50_micros: percentile(&latencies, 0.50),
        p99_micros: percentile(&latencies, 0.99),
    }
}

/// Polls `/healthz` until the server answers 200 (up to ~5 s).
fn wait_ready(addr: SocketAddr) -> bool {
    for _ in 0..100 {
        if let Ok(mut c) = Conn::connect(addr) {
            if matches!(c.request("GET", "/healthz", None), Ok((200, _))) {
                return true;
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    false
}

struct Opts {
    addr: Option<String>,
    shutdown: bool,
    tenants: Option<usize>,
}

fn parse_opts() -> Result<Opts, String> {
    let mut opts = Opts {
        addr: None,
        shutdown: false,
        tenants: None,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => {
                opts.addr = Some(it.next().ok_or("--addr expects HOST:PORT")?.clone());
            }
            "--shutdown" => opts.shutdown = true,
            "--tenants" => {
                let n: usize = it
                    .next()
                    .ok_or("--tenants expects a key-space size")?
                    .parse()
                    .map_err(|e| format!("--tenants: {e}"))?;
                if n == 0 {
                    return Err("--tenants must be at least 1".into());
                }
                opts.tenants = Some(n);
            }
            other => {
                return Err(format!(
                    "unknown option {other}\n\
                     usage: loadgen [--addr HOST:PORT] [--shutdown] [--tenants N]"
                ))
            }
        }
    }
    Ok(opts)
}

/// The tenant for one request: Zipf-drawn rank formatted as a valid
/// tenant id, or `None` for the single-tenant routes.
fn tenant_path(keys: &mut Option<ZipfKeys>, suffix: &str) -> String {
    match keys {
        Some(k) => format!("/t/t{:07}/{suffix}", k.next_key()),
        None => format!("/{suffix}"),
    }
}

/// A per-thread Zipf generator (deterministic: the workload seed is
/// offset by the connection index so threads draw distinct but
/// replayable sequences), or `None` in single-tenant mode.
fn thread_keys(tenants: Option<usize>, thread: u64) -> Option<ZipfKeys> {
    tenants.map(|n| {
        ZipfKeys::try_new(n, 1.0, 42 + thread).expect("valid zipf key space")
    })
}

fn resolve(addr: &str) -> Result<SocketAddr, String> {
    addr.to_socket_addrs()
        .map_err(|e| format!("cannot resolve {addr}: {e}"))?
        .next()
        .ok_or(format!("{addr} resolves to no address"))
}

#[expect(
    clippy::disallowed_methods,
    reason = "a load generator times its run on the wall clock and writes a regenerated report, not a checkpoint"
)]
fn main() -> ExitCode {
    let opts = match parse_opts() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let (writer_conns, reader_conns, ingests_per_conn, reads_per_conn) = if fast_mode() {
        (1usize, 2usize, 40u64, 120u64)
    } else {
        (2, 4, 200, 600)
    };

    // no --addr: self-host on an ephemeral port so the bin stands alone
    let mut local = None;
    let mut spill_dir = None;
    let addr = match &opts.addr {
        Some(a) => match resolve(a) {
            Ok(addr) => addr,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
        },
        None => {
            let mut backend = BackendConfig::new(DIM, 0.5);
            backend.seed = 42;
            backend.publish_every = Some(256);
            let mut cfg = ServerConfig::new(backend);
            if opts.tenants.is_some() {
                let dir = std::env::temp_dir()
                    .join(format!("rds-loadgen-spill-{}", std::process::id()));
                let _ = std::fs::remove_dir_all(&dir);
                cfg.tenants = Some(TenancyConfig {
                    budget_words: 1 << 20,
                    spill_dir: dir.display().to_string(),
                });
                spill_dir = Some(dir);
            }
            let handle = match bind(cfg) {
                Ok(h) => h,
                Err(e) => {
                    eprintln!("failed to start in-process server: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let addr = handle.addr();
            local = Some(handle);
            addr
        }
    };
    if !wait_ready(addr) {
        eprintln!("server at {addr} never answered /healthz");
        return ExitCode::FAILURE;
    }
    match opts.tenants {
        Some(n) => eprintln!(
            "group server_load ({addr}; {writer_conns} writers x {ingests_per_conn} ingests, \
             {reader_conns} readers x {reads_per_conn} reads; zipf over {n} tenants)"
        ),
        None => eprintln!(
            "group server_load ({addr}; {writer_conns} writers x {ingests_per_conn} ingests, \
             {reader_conns} readers x {reads_per_conn} reads)"
        ),
    }

    let tallies = Tallies::default();
    let start = Instant::now();
    let (ingest_lat, query_lat, f0_lat) = std::thread::scope(|scope| {
        let mut writers = Vec::new();
        for w in 0..writer_conns {
            let tallies = &tallies;
            let tenants = opts.tenants;
            writers.push(scope.spawn(move || {
                let base = w as u64 * ingests_per_conn * BATCH as u64;
                let mut keys = thread_keys(tenants, w as u64);
                drive(addr, ingests_per_conn, tallies, move |c, i| {
                    let path = tenant_path(&mut keys, "ingest");
                    c.request("POST", &path, Some(&ingest_body(base + i * BATCH as u64)))
                })
            }));
        }
        // each reader alternates query_k (with a replayable draw token
        // derived from the request index) and f0
        let mut readers = Vec::new();
        for r in 0..reader_conns {
            let tallies = &tallies;
            let tenants = opts.tenants;
            readers.push(scope.spawn(move || {
                let mut queries = Vec::new();
                let mut f0s = Vec::new();
                let half = reads_per_conn / 2;
                let mut keys = thread_keys(tenants, 1_000 + r as u64);
                queries.extend(drive(addr, half, tallies, |c, i| {
                    let seed = r as u64 * 1_000 + i;
                    let path = tenant_path(&mut keys, &format!("query_k?k=8&seed={seed}"));
                    c.request("GET", &path, None)
                }));
                f0s.extend(drive(addr, reads_per_conn - half, tallies, |c, _| {
                    let path = tenant_path(&mut keys, "f0");
                    c.request("GET", &path, None)
                }));
                (queries, f0s)
            }));
        }
        let mut ingest = Vec::new();
        for w in writers {
            ingest.extend(w.join().unwrap_or_default());
        }
        let mut query = Vec::new();
        let mut f0 = Vec::new();
        for r in readers {
            let (q, f) = r.join().unwrap_or_default();
            query.extend(q);
            f0.extend(f);
        }
        (ingest, query, f0)
    });
    let elapsed = start.elapsed().as_secs_f64();

    let mut clean_shutdown = true;
    if opts.shutdown {
        let outcome = Conn::connect(addr)
            .and_then(|mut c| c.request("POST", "/admin/shutdown", None));
        clean_shutdown = matches!(&outcome, Ok((200, _)));
        if !clean_shutdown {
            eprintln!("shutdown request failed: {outcome:?}");
        }
    }
    if let Some(handle) = local {
        if opts.shutdown {
            handle.join();
        } else {
            handle.shutdown_and_join();
        }
    }
    if let Some(dir) = &spill_dir {
        let _ = std::fs::remove_dir_all(dir);
    }

    let total = (ingest_lat.len() + query_lat.len() + f0_lat.len()) as u64;
    let report = ServerBenchReport {
        addr: addr.to_string(),
        tenant_key_space: opts.tenants.map(|n| n as u64),
        writer_conns,
        reader_conns,
        total_requests: total,
        requests_per_sec: total as f64 / elapsed.max(1e-9),
        status_2xx: tallies.s2xx.load(Ordering::Relaxed),
        status_4xx: tallies.s4xx.load(Ordering::Relaxed),
        status_5xx: tallies.s5xx.load(Ordering::Relaxed),
        io_errors: tallies.io_errors.load(Ordering::Relaxed),
        ingest: class_stats(ingest_lat, elapsed),
        query: class_stats(query_lat, elapsed),
        f0: class_stats(f0_lat, elapsed),
    };
    eprintln!(
        "  total: {:.0} requests/sec ({} requests, {} 2xx / {} 4xx / {} 5xx / {} io errors)",
        report.requests_per_sec,
        report.total_requests,
        report.status_2xx,
        report.status_4xx,
        report.status_5xx,
        report.io_errors
    );
    for (name, c) in [("ingest", &report.ingest), ("query", &report.query), ("f0", &report.f0)] {
        eprintln!(
            "  {name}: {:.0} req/sec p50 {}us p99 {}us",
            c.requests_per_sec, c.p50_micros, c.p99_micros
        );
    }

    let failed = report.status_5xx > 0 || report.io_errors > 0 || !clean_shutdown;
    let out = std::env::var("RDS_BENCH_OUT").unwrap_or_else(|_| "BENCH_server.json".into());
    match serde_json::to_string(&report) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&out, &json) {
                eprintln!("write {out}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {out}");
        }
        Err(e) => {
            eprintln!("serialize report: {e}");
            return ExitCode::FAILURE;
        }
    }
    if failed {
        eprintln!("FAILED: the server answered 5xx, dropped connections, or did not drain");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
