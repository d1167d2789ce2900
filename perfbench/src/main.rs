//! `jim-perfbench` — the wire-level session benchmark of `jim-serve`.
//!
//! ```text
//! jim-perfbench --workload chat|wide|resume --seed N --seconds S --trace 0|1
//!               --serve-bin PATH [--out DIR]
//! ```
//!
//! Starts the `jim-serve` binary as a child process, drives it over TCP
//! from two closed-loop connections (one per core), checks every answer,
//! and prints the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics of an in-process traced replay of the same request stream
//! (`--trace 1`). The last line of stdout is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.
//! Any failed request or check makes the exit code nonzero.

mod replay;
mod server;
mod stats;
mod trace;
mod wire;
mod workload;

use jim_json::Json;
use jim_server::Op;
use stats::{interquartile_mean, median, median_or_zero, percentile, weighted_gap, windows};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use wire::{Conn, ConnStats, Shared};
use workload::{PlanBook, Workload};

/// Launches made for `setup_s` alone, before the measured segments;
/// `setup_s` is the median over these and the segments' launches.
const SETUP_LAUNCHES: usize = 10;
/// Each run is measured against this many fresh server processes, a
/// fifth of `--seconds` each: on a shared two-core host a process's
/// thread placement can skew all of its figures, and five processes
/// spread that over the run's windows.
const SEGMENTS: usize = 5;
/// Each segment's samples are cut into this many equal windows, fewer
/// where that would leave one smaller than the tail rule needs
/// ([`wire::MIN_TURNS`] turns, [`wire::MIN_OPENS`] opens,
/// [`SESSION_WINDOW`] completed sessions). Windows of the bare minimum
/// left a p99 only ten samples deep: on `resume` (~1,600 turns a segment)
/// that spread the turn p99 by 0.18.
const WINDOWS_PER_SEGMENT: usize = 4;
/// Fewest completed sessions in a `sessions_per_s` window.
const SESSION_WINDOW: usize = 50;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    serve_bin: PathBuf,
    out: PathBuf,
}

fn usage() -> String {
    "usage: jim-perfbench --workload chat|wide|resume --seed N --seconds S --trace 0|1 \
     --serve-bin PATH [--out DIR]"
        .into()
}

impl Args {
    fn parse() -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace, mut serve_bin) =
            (None, None, None, None, None);
        let mut out = PathBuf::from(".bench_out");
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            let value = args
                .next()
                .ok_or_else(|| format!("{flag} needs a value; {}", usage()))?;
            let number = |v: &str| {
                v.parse::<u64>()
                    .map_err(|_| format!("{flag}: not a number: {v}"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(&value)?),
                "--seed" => seed = Some(number(&value)?),
                "--seconds" => seconds = Some(number(&value)?.max(1)),
                "--trace" => trace = Some(number(&value)? != 0),
                "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
                "--out" => out = PathBuf::from(value),
                _ => return Err(format!("unknown flag {flag}; {}", usage())),
            }
        }
        match (workload, seed, seconds, trace, serve_bin) {
            (Some(workload), Some(seed), Some(seconds), Some(trace), Some(serve_bin)) => Ok(Args {
                workload,
                seed,
                seconds,
                trace,
                serve_bin,
                out,
            }),
            _ => Err(usage()),
        }
    }
}

fn server_flags(workload: Workload, data: Option<&Path>) -> Vec<String> {
    // One reactor and its two-worker pool. On a two-core host shared with
    // the client, the default two reactors (four workers) settle into one
    // of two thread placements per process, and the chat turn median
    // flips between them from run to run (78–108 µs).
    let mut flags: Vec<String> = ["--reactors", "1", "--max-sessions"]
        .map(String::from)
        .into();
    flags.push(workload.max_sessions().to_string());
    if let Some(dir) = data {
        flags.push("--data-dir".into());
        flags.push(dir.display().to_string());
    }
    flags
}

/// The client's per-op request counts must equal the server's request
/// counters exactly: nothing lost, nothing double-counted, no stray
/// client. The snapshot counts the `Metrics` request that fetched it.
fn cross_check(sent: &[u64], snapshot: &Json) -> Result<(), String> {
    let mut mismatches = Vec::new();
    for op in Op::ALL {
        let server = snapshot
            .get("ops")
            .and_then(|ops| ops.get(op.name()))
            .and_then(|o| o.get("requests"))
            .and_then(Json::as_u64);
        let client = sent[op as usize];
        if server != Some(client) {
            mismatches.push(format!(
                "{}: client sent {client}, server counted {server:?}",
                op.name()
            ));
        }
    }
    if mismatches.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "client/server count mismatch: {}",
            mismatches.join("; ")
        ))
    }
}

/// `(server p50, server p99)` of one op from the `Metrics` snapshot.
fn server_latency(snapshot: &Json, op: Op) -> (f64, f64) {
    let lat = snapshot
        .get("ops")
        .and_then(|ops| ops.get(op.name()))
        .and_then(|o| o.get("latency_us"));
    let q = |k: &str| {
        lat.and_then(|l| l.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    (q("p50"), q("p99"))
}

struct Outcome {
    attempted: u64,
    failures: Vec<String>,
    /// `(name, value, unit)`; the JSON line carries end-to-end or
    /// per-layer ones by `--trace`, the report above it every one.
    end_to_end: Vec<(&'static str, f64, &'static str)>,
    per_layer: Vec<(&'static str, f64, &'static str)>,
    provenance: Vec<(&'static str, Json)>,
}

/// Per-window end-to-end figures (one entry per window, over every
/// segment), per-segment readings and run-wide totals.
#[derive(Default)]
struct Pool {
    turn_p50: Vec<f64>,
    turn_p99: Vec<f64>,
    open_p50: Vec<f64>,
    open_p90: Vec<f64>,
    turns_per_s: Vec<f64>,
    sessions_per_s: Vec<f64>,
    turns: usize,
    opens: usize,
    window_s: f64,
    rss_mb: Vec<f64>,
    gap_p50: Vec<f64>,
    /// Server p99 per turn op, per segment.
    server_p99: Vec<Vec<f64>>,
    server_cpu_us: f64,
    client_cpu_us: f64,
    requests: u64,
    hits: f64,
    resumes: f64,
    evicted: f64,
    simd_backend: Option<Json>,
}

const TURN_OPS: [Op; 4] = [Op::NextQuestion, Op::Answer, Op::TopK, Op::AnswerBatch];

/// Client round trip minus server latency at the median, over the turn
/// ops of one segment, weighted by request count.
fn wire_gap_p50(stats: &ConnStats, snapshot: &Json) -> f64 {
    let per_op: Vec<(u64, f64, f64)> = TURN_OPS
        .iter()
        .map(|&op| {
            let samples = &stats.rtt_us[op as usize];
            (
                samples.len() as u64,
                median_or_zero(samples),
                server_latency(snapshot, op).0,
            )
        })
        .collect();
    weighted_gap(&per_op)
}

/// The same at p99, from every segment's client samples against the
/// median segment's server p99; ops with too few samples for a p99 are
/// left out.
fn wire_gap_p99(stats: &ConnStats, server_p99: &[Vec<f64>]) -> f64 {
    let per_op: Vec<(u64, f64, f64)> = TURN_OPS
        .iter()
        .enumerate()
        .filter_map(|(i, &op)| {
            let samples = &stats.rtt_us[op as usize];
            let server: Vec<f64> = server_p99.iter().map(|s| s[i]).collect();
            let client = percentile(samples, 0.99).ok()?;
            Some((samples.len() as u64, client, median(&server)?))
        })
        .collect();
    weighted_gap(&per_op)
}

/// One segment: a fresh server, two closed-loop connections until the
/// segment's deadline, then the observer's `ListSessions` and `Metrics`
/// and the exact count cross-check.
fn segment(
    args: &Args,
    shared: &Shared,
    flags: &[String],
    log: &Path,
    pool: &mut Pool,
    setups: &mut Vec<f64>,
    failures: &mut Vec<String>,
) -> Result<ConnStats, String> {
    let mut stats = ConnStats::new();
    let (mut server, first) = server::launch(&args.serve_bin, flags, log, &mut stats)?;
    setups.push(server.setup_s);
    let second = Conn::connect(&server.addr)?;
    let pid = server.pid();
    let (server_cpu0, client_cpu0) = (server::cpu_us(Some(pid))?, server::cpu_us(None)?);
    let (mut conns, driven) = wire::drive(shared, vec![first, second]);
    pool.server_cpu_us += server::cpu_us(Some(pid))? - server_cpu0;
    pool.client_cpu_us += server::cpu_us(None)? - client_cpu0;
    stats.merge(driven);
    pool.requests += stats.sent.iter().sum::<u64>();

    let conn = &mut conns[0];
    let listing = conn.observe(&mut stats, Op::ListSessions, r#"{"op":"ListSessions"}"#)?;
    let snapshot = conn.observe(&mut stats, Op::Metrics, r#"{"op":"Metrics"}"#)?;
    drop(conns);
    pool.rss_mb.push(server::peak_rss_mb(pid)?);
    server.stop();
    if let Err(e) = cross_check(&stats.sent, &snapshot) {
        failures.push(e);
    }
    let leftover = listing
        .get("resident_count")
        .and_then(Json::as_u64)
        .unwrap_or(0)
        + listing
            .get("disk_count")
            .and_then(Json::as_u64)
            .unwrap_or(0);
    if leftover != 0 && stats.failures == 0 {
        failures.push(format!(
            "{leftover} sessions left open after every session was closed"
        ));
    }

    // Figures come from consecutive windows of the segment's timed
    // samples, warm-up and the drain after the last session started left
    // out; the run reports the interquartile mean over its windows.
    let start = shared.warmup_end;
    let stop = *shared.stopped.get().unwrap_or(&Instant::now());
    let timed = |samples: &[(Instant, f64)]| {
        let mut kept: Vec<(Instant, f64)> = samples
            .iter()
            .filter(|(t, _)| *t >= start && *t <= stop)
            .copied()
            .collect();
        kept.sort_by_key(|&(t, _)| t);
        kept
    };
    let turns = timed(&stats.turns);
    let opens = timed(&stats.opens);
    let ends = |samples: &[(Instant, f64)]| samples.iter().map(|&(t, _)| t).collect::<Vec<_>>();
    let values = |samples: &[(Instant, f64)]| samples.iter().map(|&(_, v)| v).collect::<Vec<_>>();
    let size = |n: usize, least: usize| (n / WINDOWS_PER_SEGMENT).max(least);
    for (range, per_s) in windows(&ends(&turns), size(turns.len(), wire::MIN_TURNS), start) {
        let window = values(&turns[range]);
        pool.turn_p50.push(percentile(&window, 0.5)?);
        pool.turn_p99.push(percentile(&window, 0.99)?);
        pool.turns_per_s.push(per_s);
    }
    for (range, _) in windows(&ends(&opens), size(opens.len(), wire::MIN_OPENS), start) {
        let window = values(&opens[range]);
        pool.open_p50.push(percentile(&window, 0.5)?);
        pool.open_p90.push(percentile(&window, 0.9)?);
    }
    let mut completed: Vec<Instant> = stats
        .completed
        .iter()
        .filter(|t| **t >= start && **t <= stop)
        .copied()
        .collect();
    completed.sort();
    pool.sessions_per_s.extend(
        windows(&completed, size(completed.len(), SESSION_WINDOW), start)
            .into_iter()
            .map(|(_, per_s)| per_s),
    );
    let window = stop
        .saturating_duration_since(start)
        .as_secs_f64()
        .max(1e-9);
    pool.turns += turns.len();
    pool.opens += opens.len();
    pool.window_s += window;
    pool.gap_p50.push(wire_gap_p50(&stats, &snapshot));
    pool.server_p99.push(
        TURN_OPS
            .iter()
            .map(|&op| server_latency(&snapshot, op).1)
            .collect(),
    );
    let store = snapshot.get("store");
    let counter = |k: &str| {
        store
            .and_then(|s| s.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    pool.hits += counter("hits");
    pool.resumes += counter("resumes");
    pool.evicted += counter("evicted_total");
    pool.simd_backend = snapshot.get("simd_backend").cloned();
    Ok(stats)
}

fn run(args: &Args) -> Result<Outcome, String> {
    let workload = args.workload;
    let out = args.out.join(format!(
        "{}-{}-{}",
        workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    let _ = std::fs::remove_dir_all(&out);
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let data_dir = |name: String| workload.journaled().then(|| out.join(name));

    let book = PlanBook::new(workload, args.seed);

    let mut setups = Vec::new();
    for k in 0..SETUP_LAUNCHES {
        let flags = server_flags(workload, data_dir(format!("setup-data-{k}")).as_deref());
        let (mut s, _conn) = server::launch(
            &args.serve_bin,
            &flags,
            &out.join(format!("setup-{k}.log")),
            &mut ConnStats::new(),
        )?;
        setups.push(s.setup_s);
        s.stop();
    }

    let mut shared = Shared::new(workload, book);
    let mut pool = Pool::default();
    let mut stats = ConnStats::new();
    let mut failures = Vec::new();
    let mut checked = 0;
    let segment_time = Duration::from_secs(args.seconds) / SEGMENTS as u32;
    let warmup = (segment_time / 10).clamp(Duration::from_millis(200), Duration::from_millis(500));
    let flags = server_flags(workload, data_dir("data-0".into()).as_deref());
    for k in 0..SEGMENTS {
        let flags = server_flags(workload, data_dir(format!("data-{k}")).as_deref());
        shared.book.prepare(
            shared.claimed(),
            workload.pregenerate(segment_time.as_secs_f64()),
        )?;
        shared.begin(warmup, segment_time, k + 1 == SEGMENTS);
        let log = out.join(format!("server-{k}.log"));
        let seg = segment(
            args,
            &shared,
            &flags,
            &log,
            &mut pool,
            &mut setups,
            &mut failures,
        )?;
        // Check the segment's sessions, then drop their plans: the
        // traced replay makes the few it needs again.
        let (n, check_failures) = replay::verify(&shared.book, &seg.sessions);
        checked += n;
        failures.extend(check_failures);
        shared.book.release_below(shared.claimed());
        stats.merge(seg);
    }
    failures.extend(stats.failure_samples.iter().cloned());
    let unsampled = stats
        .failures
        .saturating_sub(stats.failure_samples.len() as u64);
    failures.extend((0..unsampled).map(|_| "(further request failure)".to_string()));
    let requests: u64 = stats.sent.iter().sum();
    let mut attempted = requests + checked;

    let exact: Vec<&wire::SessionRecord> = stats
        .sessions
        .iter()
        .filter(|r| r.index < workload.exact_sessions())
        .collect();
    if exact.len() != workload.exact_sessions() || exact.iter().any(|r| !r.resolved) {
        failures.push(format!(
            "the first {} sessions did not all resolve",
            workload.exact_sessions()
        ));
    }
    let questions =
        exact.iter().map(|r| r.questions_asked()).sum::<usize>() as f64 / exact.len().max(1) as f64;
    // Every segment holds a turn and an open window; a run too short for
    // a single sessions window is a failure, not a zero.
    if pool.sessions_per_s.is_empty() {
        failures.push(format!(
            "fewer than {SESSION_WINDOW} sessions completed in any segment"
        ));
    }
    let mid = |v: &[f64]| median(v).unwrap_or(0.0);
    let across = |v: &[f64]| interquartile_mean(v).unwrap_or(0.0);
    let mut end_to_end = vec![
        ("turn_p50_us", across(&pool.turn_p50), "us"),
        ("turn_p99_us", across(&pool.turn_p99), "us"),
        ("open_p50_us", across(&pool.open_p50), "us"),
        ("open_p90_us", across(&pool.open_p90), "us"),
        ("turns_per_s", across(&pool.turns_per_s), "1/s"),
        ("sessions_per_s", across(&pool.sessions_per_s), "1/s"),
        ("questions_per_session", questions, "count"),
        ("server_rss_mb", mid(&pool.rss_mb), "MiB"),
        ("setup_s", mid(&setups), "s"),
    ];

    // Per-layer figures: the wire's own, then the traced replay's.
    let lookups = pool.hits + pool.resumes;
    let mut per_layer = vec![
        (
            "wire.gap_p50_us",
            median(&pool.gap_p50).unwrap_or(0.0),
            "us",
        ),
        (
            "wire.gap_p99_us",
            wire_gap_p99(&stats, &pool.server_p99),
            "us",
        ),
        (
            "process.server_cpu_us_per_req",
            pool.server_cpu_us / pool.requests.max(1) as f64,
            "us",
        ),
        (
            "process.client_cpu_us_per_req",
            pool.client_cpu_us / pool.requests.max(1) as f64,
            "us",
        ),
        (
            "store.hit_ratio",
            if lookups > 0.0 {
                pool.hits / lookups
            } else {
                0.0
            },
            "ratio",
        ),
        (
            "store.evictions_per_turn",
            pool.evicted / stats.turns.len().max(1) as f64,
            "count",
        ),
    ];
    let mut provenance = vec![
        ("workload", Json::from(workload.name())),
        ("seed", Json::from(args.seed)),
        ("seconds", Json::from(args.seconds)),
        ("segments", Json::from(SEGMENTS)),
        ("window_s", Json::from(pool.window_s)),
        (
            "simd_backend",
            pool.simd_backend.clone().unwrap_or(Json::Null),
        ),
        (
            "server_flags",
            Json::Array(flags.iter().map(|f| Json::from(f.as_str())).collect()),
        ),
        ("connections", Json::from(2u64)),
        ("sessions", Json::from(stats.sessions.len())),
        ("turns", Json::from(pool.turns)),
        ("opens", Json::from(pool.opens)),
        ("requests", Json::from(requests)),
        (
            "available_parallelism",
            Json::from(std::thread::available_parallelism().map_or(0, |n| n.get())),
        ),
    ];
    if args.trace {
        let mut tracer = trace::Tracer::new(true);
        let trace_start = Instant::now();
        let report = replay::traced(workload, &shared.book, &stats.sessions, &out, &mut tracer)?;
        eprintln!(
            "jim-perfbench: traced replay in {:?}",
            trace_start.elapsed()
        );
        attempted += report.requests as u64;
        failures.extend(report.failures);
        per_layer.extend(report.metrics);
        provenance.push(("trace_sessions", Json::from(report.sessions)));
        provenance.push(("trace_requests", Json::from(report.requests)));
        let spans = out.join("spans.jsonl");
        tracer
            .write_jsonl(&spans)
            .map_err(|e| format!("{}: {e}", spans.display()))?;
        provenance.push(("spans", Json::from(spans.display().to_string())));
    }
    let failed = failures.len() as u64;
    end_to_end.push((
        "failed_ops_ratio",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
    ));
    Ok(Outcome {
        attempted,
        failures,
        end_to_end,
        per_layer,
        provenance,
    })
}

fn metrics_json(metrics: &[(&'static str, f64, &'static str)]) -> Json {
    Json::Object(
        metrics
            .iter()
            .map(|&(name, value, unit)| {
                (
                    name.to_string(),
                    Json::object([("value", Json::from(value)), ("unit", Json::from(unit))]),
                )
            })
            .collect(),
    )
}

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("jim-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("jim-perfbench: {e}");
            std::process::exit(1);
        }
    };
    for (name, json) in &outcome.provenance {
        println!("# {name}: {}", json.render());
    }
    for &(name, value, unit) in outcome.end_to_end.iter().chain(&outcome.per_layer) {
        println!("{name} {value} {unit}");
    }
    for f in &outcome.failures {
        println!("FAILED: {f}");
    }
    // `failed_ops_ratio` is reported above but kept out of the JSON
    // metrics: it is 0 on a correct run, and the result line's `failed`
    // and `attempted` carry it.
    let chosen: Vec<_> = if args.trace {
        outcome.per_layer.clone()
    } else {
        outcome
            .end_to_end
            .iter()
            .filter(|m| m.0 != "failed_ops_ratio")
            .copied()
            .collect()
    };
    let correct = outcome.failures.is_empty();
    let result = Json::Object(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::from(outcome.attempted)),
        ("failed".into(), Json::from(outcome.failures.len() as u64)),
        ("metrics".into(), metrics_json(&chosen)),
    ]);
    let record = Json::Object(vec![
        (
            "provenance".into(),
            Json::Object(
                outcome
                    .provenance
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            ),
        ),
        ("end_to_end".into(), metrics_json(&outcome.end_to_end)),
        ("per_layer".into(), metrics_json(&outcome.per_layer)),
        ("result".into(), result.clone()),
    ]);
    let path = args.out.join(format!(
        "{}-{}-{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&path, record.render() + "\n") {
        eprintln!("jim-perfbench: {}: {e}", path.display());
    }
    println!("{}", result.render());
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(counts: &[(Op, u64)]) -> Json {
        let ops = Op::ALL
            .iter()
            .map(|&op| {
                let n = counts.iter().find(|(o, _)| *o == op).map_or(0, |&(_, n)| n);
                (
                    op.name().to_string(),
                    Json::object([("requests", Json::from(n))]),
                )
            })
            .collect();
        Json::Object(vec![("ops".into(), Json::Object(ops))])
    }

    #[test]
    fn cross_check_accepts_exact_counts_and_names_each_mismatch() {
        let mut sent = vec![0u64; Op::ALL.len()];
        sent[Op::NextQuestion as usize] = 10;
        sent[Op::Metrics as usize] = 1;
        let exact = snapshot(&[(Op::NextQuestion, 10), (Op::Metrics, 1)]);
        assert_eq!(cross_check(&sent, &exact), Ok(()));

        // The server saw one Answer the client never sent, and no Metrics.
        let off = snapshot(&[(Op::NextQuestion, 10), (Op::Answer, 1)]);
        let err = cross_check(&sent, &off).unwrap_err();
        assert!(
            err.contains("Answer: client sent 0, server counted Some(1)"),
            "{err}"
        );
        assert!(
            err.contains("Metrics: client sent 1, server counted Some(0)"),
            "{err}"
        );
        assert!(!err.contains("NextQuestion"), "{err}");

        // A snapshot without the op table is a mismatch, not a pass.
        assert!(cross_check(&sent, &Json::Object(vec![])).is_err());
    }

    #[test]
    fn server_latency_reads_the_snapshot() {
        let snap = Json::parse(r#"{"ops":{"Answer":{"latency_us":{"p50":3,"p99":17}}}}"#).unwrap();
        assert_eq!(server_latency(&snap, Op::Answer), (3.0, 17.0));
        assert_eq!(server_latency(&snap, Op::TopK), (0.0, 0.0));
    }
}
