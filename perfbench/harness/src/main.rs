//! `rds-perfbench`: the repository benchmark.
//!
//! ```text
//! rds-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--git-sha <sha>]
//! ```
//!
//! Workloads: `paper-5d`, `sharded-2d`, `window-2d` (in-process, see
//! `inproc.rs`) and `http-mixed` (loopback server, see `http.rs`). With
//! `--trace 0` the run measures the end-to-end metrics; with `--trace 1`
//! it measures the per-layer metrics from spans around calls into each
//! layer's public functions. Either way it prints a human-readable
//! report, writes a JSON report under `.perfbench_out/`, and ends with
//! one JSON result line on stdout.

mod checks;
mod gen;
mod hist;
mod http;
mod inproc;
mod layers;
mod report;
mod trace;

use checks::Tally;
use report::{json_num, json_str, peak_rss_mb, result_line, Metrics};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["paper-5d", "sharded-2d", "window-2d", "http-mixed"];

/// End-to-end metrics of the result line (`--trace 0`). The report
/// above it also prints every latency's p90 and p99 and `failed_frac`;
/// those tails spread too much from run to run on a shared 2-vCPU box
/// to be gated within a 25% bound.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ingest_pts_per_s", "pts/s"),
    ("query_us_p50", "us"),
    ("staleness_us_p50", "us"),
    ("ingest_req_us_p50", "us"),
    ("state_words", "words"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`); 0 where a layer is idle.
const PER_LAYER: [(&str, &str); 57] = [
    ("hashing.hash_keys_ns_per_key", "ns"),
    ("hashing.adj_sampled_ns_per_pt", "ns"),
    ("geometry.adj_dfs_ns_per_pt", "ns"),
    ("geometry.adj_cells_per_pt", "cells"),
    ("geometry.adj_over_budget_frac", "ratio"),
    ("store.probe_ns_per_pt", "ns"),
    ("store.scan_ns_per_pt", "ns"),
    ("store.records", "count"),
    ("sampler.process_ns_per_pt", "ns"),
    ("sampler.accepted", "count"),
    ("sampler.rejected", "count"),
    ("sampler.duplicate", "count"),
    ("sampler.ignored", "count"),
    ("sampler.dup_frac", "ratio"),
    ("sampler.rate_doublings", "count"),
    ("window.process_ns_per_pt", "ns"),
    ("window.entries", "count"),
    ("window.levels_occupied", "count"),
    ("engine.ingest_ns_per_pt", "ns"),
    ("engine.snapshot_us_p50", "us"),
    ("engine.snapshot_us_p99", "us"),
    ("engine.snapshots", "count"),
    ("engine.shard_skew", "ratio"),
    ("facade.process_ns_per_pt", "ns"),
    ("facade.publish_us_p50", "us"),
    ("facade.publish_us_p99", "us"),
    ("facade.publishes", "count"),
    ("facade.query_ns_p50", "ns"),
    ("facade.query_ns_p99", "ns"),
    ("server.parse_ns_per_req", "ns"),
    ("server.route_ns_per_req", "ns"),
    ("server.decode_ns_per_req", "ns"),
    ("server.encode_ns_per_resp", "ns"),
    ("server.max_rps", "req/s"),
    ("server.ingest_sat_pts_per_s", "pts/s"),
    ("tenant.op_us_p50", "us"),
    ("tenant.op_us_p99", "us"),
    ("tenant.spills_per_op", "ratio"),
    ("tenant.restores_per_op", "ratio"),
    ("tenant.resident", "count"),
    ("tenant.seal_us", "us"),
    ("tenant.write_us", "us"),
    ("tenant.read_us", "us"),
    ("tenant.open_us", "us"),
    ("residual.ns_per_pt", "ns"),
    ("residual.us_per_req", "us"),
    ("trace.overhead_frac", "ratio"),
    ("gen.late_us_p99", "us"),
    ("self.facade_us", "us"),
    ("self.sampler_us", "us"),
    ("self.window_us", "us"),
    ("self.engine_us", "us"),
    ("self.store_us", "us"),
    ("self.geometry_us", "us"),
    ("self.hashing_us", "us"),
    ("self.server_us", "us"),
    ("self.tenant_us", "us"),
];

/// One benchmark invocation.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub epoch: Instant,
    pub git_sha: String,
    /// Report and spill directory inside the working directory.
    pub out_dir: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: rds-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--git-sha <sha>]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Run {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut git_sha = "unknown".to_string();
    let mut i = 0;
    while i < args.len() {
        let v = args.get(i + 1).cloned().unwrap_or_else(|| usage());
        match args[i].as_str() {
            "--workload" => workload = Some(v),
            "--seed" => seed = v.parse::<u64>().ok(),
            "--seconds" => seconds = v.parse::<u64>().ok().filter(|&s| s >= 1),
            "--trace" => trace = matches!(v.as_str(), "0" | "1").then(|| v == "1"),
            "--git-sha" => git_sha = v,
            _ => usage(),
        }
        i += 2;
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage()
    };
    if !WORKLOADS.contains(&workload.as_str()) {
        usage();
    }
    Run {
        workload,
        seed,
        seconds,
        trace,
        epoch: Instant::now(),
        git_sha,
        out_dir: PathBuf::from(".perfbench_out"),
    }
}

/// Self time per layer prefix, from every recorded span.
fn self_times(spans: &[trace::Span], m: &mut Metrics) {
    let sum = trace::summarise(spans);
    for layer in [
        "facade", "sampler", "window", "engine", "store", "geometry", "hashing", "server", "tenant",
    ] {
        let us: u64 = sum
            .iter()
            .filter(|(name, _)| name.split('.').next() == Some(layer))
            .map(|(_, s)| s.self_ns)
            .sum();
        m.put(&format!("self.{layer}_us"), us as f64 / 1e3, "us");
    }
    for (name, s) in &sum {
        m.notes.push(format!(
            "span {name}: n = {}, total {:.1} us, self {:.1} us, p50 {:.0} ns",
            s.count,
            s.total_ns as f64 / 1e3,
            s.self_ns as f64 / 1e3,
            s.hist.percentile(50.0)
        ));
    }
}

fn write_report(
    run: &Run,
    m: &Metrics,
    tally: &Tally,
    spans: &[trace::Span],
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(&run.out_dir)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        run.workload,
        run.seed,
        u8::from(run.trace)
    );
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\n  \"workload\": {},\n  \"git_sha\": {},\n  \"nproc\": {nproc},\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"metrics\": [\n",
        json_str(&run.workload),
        json_str(&run.git_sha),
        run.seed,
        run.seconds,
        run.trace,
        tally.attempted(),
        tally.failed()
    );
    for (i, x) in m.items().iter().enumerate() {
        let samples = x.samples.map_or("null".to_string(), |n| n.to_string());
        let _ = writeln!(
            s,
            "    {{\"name\": {}, \"value\": {}, \"unit\": {}, \"samples\": {samples}}}{}",
            json_str(&x.name),
            json_num(x.value),
            json_str(x.unit),
            if i + 1 < m.items().len() { "," } else { "" }
        );
    }
    s.push_str("  ],\n  \"notes\": [\n");
    let notes: Vec<String> = m
        .notes
        .iter()
        .chain(tally.notes().iter())
        .map(|n| json_str(n))
        .collect();
    s.push_str(
        &notes
            .iter()
            .map(|n| format!("    {n}"))
            .collect::<Vec<_>>()
            .join(",\n"),
    );
    s.push_str("\n  ]\n}\n");
    let path = run.out_dir.join(format!("{stem}.json"));
    std::fs::write(&path, s)?;
    if !spans.is_empty() {
        trace::write_jsonl(&run.out_dir.join(format!("{stem}.spans.jsonl")), spans)?;
    }
    Ok(path)
}

fn main() {
    let run = parse_args();
    let tally = Tally::default();
    let mut m = Metrics::default();
    let mut spans = Vec::new();
    if let Some(spec) = inproc::Spec::for_workload(&run.workload) {
        inproc::run(&run, spec, &mut m, &tally, &mut spans);
    } else {
        http::run(&run, &mut m, &tally, &mut spans);
    }
    m.put("peak_rss_mb", peak_rss_mb(), "MB");
    let (attempted, failed) = (tally.attempted().max(1), tally.failed());
    m.put("failed_frac", failed as f64 / attempted as f64, "ratio");
    if run.trace {
        self_times(&spans, &mut m);
    }

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "rds-perfbench {} seed={} seconds={} trace={} nproc={nproc} git={}",
        run.workload,
        run.seed,
        run.seconds,
        u8::from(run.trace),
        run.git_sha
    );
    for x in m.items() {
        let n = x.samples.map_or(String::new(), |n| format!("  (n = {n})"));
        println!("  {:<32} {:>16.4} {}{n}", x.name, x.value, x.unit);
    }
    for note in &m.notes {
        println!("  # {note}");
    }
    for note in tally.notes() {
        println!("  ! check failed: {note}");
    }
    match write_report(&run, &m, &tally, &spans) {
        Ok(p) => println!("  report: {}", p.display()),
        Err(e) => eprintln!("could not write the report: {e}"),
    }
    let keep: &[(&str, &'static str)] = if run.trace { &PER_LAYER } else { &END_TO_END };
    println!(
        "{}",
        result_line(failed == 0, attempted, failed, &m.select(keep))
    );
}
