//! Server observability: one [`ServerMetrics`] aggregate shared by every
//! layer of the service.
//!
//! The aggregate lives on the [`crate::store::SessionStore`] (the one
//! object the handler, both transports, the sweeper and the binaries all
//! already share) and is built on `jim-metrics` primitives: every metric
//! is registered by name in a [`Registry`] **and** cached as a typed
//! `Arc` handle, so hot paths never touch the registry lock.
//!
//! Three layers report here:
//!
//! * **per-op** ([`OpMetrics`]) — request count, error count and a
//!   log-scale latency histogram for each wire op, recorded by
//!   [`crate::handler::Handler::handle_line`]. The request counter is
//!   bumped *before* dispatch, so a `Metrics` op's own snapshot includes
//!   itself (its latency lands after, which is why a snapshot's latency
//!   count may trail its request count by the in-flight request).
//! * **transport** — dispatched lines, decode refusals (bad JSON or
//!   invalid UTF-8), oversized lines, live connections, and the epoll
//!   worker-queue depth, recorded by `serve.rs` / `reactor.rs`.
//! * **store/journal** — resident hits, disk resumes, replayed batches,
//!   journal bytes written, eviction totals and sweep counters, recorded
//!   by `store.rs` and the sweeper.
//!
//! The wire's `Metrics` op renders [`ServerMetrics::snapshot_fields`];
//! `jim-serve --metrics-interval` logs [`ServerMetrics::summary`]. Both
//! read the same counters, so the log line and the snapshot can never
//! disagree.

use crate::protocol::Request;
use crate::sync::LockExt;
use jim_json::Json;
use jim_metrics::{Counter, Gauge, Histogram, HistogramSnapshot, Registry};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Every wire op, in protocol-table order. `Op as usize` indexes the
/// per-op metrics table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `CreateSession`
    CreateSession,
    /// `NextQuestion`
    NextQuestion,
    /// `TopK`
    TopK,
    /// `Answer`
    Answer,
    /// `AnswerBatch`
    AnswerBatch,
    /// `Stats`
    Stats,
    /// `Explain`
    Explain,
    /// `Sql`
    Sql,
    /// `Transcript`
    Transcript,
    /// `ResumeSession`
    ResumeSession,
    /// `ListSessions`
    ListSessions,
    /// `CloseSession`
    CloseSession,
    /// `Metrics`
    Metrics,
}

impl Op {
    /// Every op, in wire order.
    pub const ALL: [Op; 13] = [
        Op::CreateSession,
        Op::NextQuestion,
        Op::TopK,
        Op::Answer,
        Op::AnswerBatch,
        Op::Stats,
        Op::Explain,
        Op::Sql,
        Op::Transcript,
        Op::ResumeSession,
        Op::ListSessions,
        Op::CloseSession,
        Op::Metrics,
    ];

    /// The wire name (the `"op"` field value).
    pub fn name(self) -> &'static str {
        match self {
            Op::CreateSession => "CreateSession",
            Op::NextQuestion => "NextQuestion",
            Op::TopK => "TopK",
            Op::Answer => "Answer",
            Op::AnswerBatch => "AnswerBatch",
            Op::Stats => "Stats",
            Op::Explain => "Explain",
            Op::Sql => "Sql",
            Op::Transcript => "Transcript",
            Op::ResumeSession => "ResumeSession",
            Op::ListSessions => "ListSessions",
            Op::CloseSession => "CloseSession",
            Op::Metrics => "Metrics",
        }
    }

    /// The op of a decoded request.
    pub fn of(request: &Request) -> Op {
        match request {
            Request::CreateSession { .. } => Op::CreateSession,
            Request::NextQuestion { .. } => Op::NextQuestion,
            Request::TopK { .. } => Op::TopK,
            Request::Answer { .. } => Op::Answer,
            Request::AnswerBatch { .. } => Op::AnswerBatch,
            Request::Stats { .. } => Op::Stats,
            Request::Explain { .. } => Op::Explain,
            Request::Sql { .. } => Op::Sql,
            Request::Transcript { .. } => Op::Transcript,
            Request::ResumeSession { .. } => Op::ResumeSession,
            Request::ListSessions => Op::ListSessions,
            Request::CloseSession { .. } => Op::CloseSession,
            Request::Metrics => Op::Metrics,
        }
    }
}

/// One reactor thread's share of the transport counters (epoll only).
///
/// The global transport gauges are **aggregates**: every reactor
/// increments and decrements the same `transport.live_connections` /
/// `transport.worker_queue_depth` handles symmetrically (no reactor ever
/// `set`s them), so N reactors sum correctly. These per-reactor handles
/// exist on top of that so a snapshot can show *skew* — a reactor whose
/// queue is deep or whose connection share is lopsided.
pub struct ReactorMetrics {
    /// Complete lines this reactor handed to its worker pool.
    pub dispatched: Arc<Counter>,
    /// Connections currently owned by this reactor.
    pub live_connections: Arc<Gauge>,
    /// Jobs queued at this reactor's worker pool right now.
    pub worker_queue_depth: Arc<Gauge>,
    /// Connections this reactor reaped for idling past the timeout.
    pub idle_timeouts: Arc<Counter>,
    /// Over-cap connections shed that round-robin would have sent here.
    pub sheds: Arc<Counter>,
}

/// Per-op counters and latency.
pub struct OpMetrics {
    /// Requests dispatched (counted before the handler runs).
    pub requests: Arc<Counter>,
    /// Responses with `ok:false`.
    pub errors: Arc<Counter>,
    /// Handler latency in microseconds.
    pub latency: Arc<Histogram>,
}

/// The server-wide metrics aggregate (see module docs).
pub struct ServerMetrics {
    registry: Registry,
    started: Instant,
    ops: Vec<OpMetrics>,
    /// Complete request lines handed to the handler (both transports).
    pub dispatched: Arc<Counter>,
    /// Lines refused at decode: invalid UTF-8 or unparseable JSON.
    pub decode_refused: Arc<Counter>,
    /// Lines refused for exceeding the 16 MiB cap.
    pub oversized: Arc<Counter>,
    /// Currently open client connections (summed across reactors).
    pub live_connections: Arc<Gauge>,
    /// Jobs queued at the epoll worker pools right now, summed across
    /// reactors (0 on threads).
    pub worker_queue_depth: Arc<Gauge>,
    /// Connections refused at the admission cap with `Overloaded`.
    pub sheds: Arc<Counter>,
    /// Connections reaped for idling past the timeout.
    pub idle_timeouts: Arc<Counter>,
    /// Per-reactor breakdowns, one entry per reactor index (lazily
    /// registered by the epoll transport; empty on threads).
    reactors: Mutex<Vec<Arc<ReactorMetrics>>>,
    /// Session lookups answered from memory.
    pub store_hits: Arc<Counter>,
    /// Session lookups rehydrated from the journal (evicted → resident).
    pub store_resumes: Arc<Counter>,
    /// Label batches replayed during those resumes.
    pub replayed_batches: Arc<Counter>,
    /// Bytes appended to session journals (headers + batches).
    pub journal_bytes: Arc<Counter>,
    /// Sessions dropped from memory by LRU/TTL since start.
    pub evicted_total: Arc<Counter>,
    /// Of those, how many stayed resumable on disk.
    pub persisted_total: Arc<Counter>,
    /// Sessions resident in memory (refreshed on create/evict/sweep).
    pub resident_sessions: Arc<Gauge>,
    /// Sessions on disk only (refreshed by sweeps and listings).
    pub disk_sessions: Arc<Gauge>,
    /// TTL sweeper passes.
    pub sweeps: Arc<Counter>,
    /// Sessions the sweeper evicted across all passes.
    pub swept_sessions: Arc<Counter>,
    /// Sessions whose oversized product opened through factorized
    /// construction (full fidelity, no sampling).
    pub factorized_sessions: Arc<Counter>,
    /// Signature groups across those factorized sessions — the partition
    /// size the sweep produced instead of enumerating the product.
    pub signature_groups: Arc<Counter>,
}

impl Default for ServerMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServerMetrics {
    /// A fresh aggregate with every metric registered and zeroed.
    pub fn new() -> ServerMetrics {
        let registry = Registry::new();
        let ops = Op::ALL
            .iter()
            .map(|op| OpMetrics {
                requests: registry.counter(&format!("ops.{}.requests", op.name())),
                errors: registry.counter(&format!("ops.{}.errors", op.name())),
                latency: registry.histogram(&format!("ops.{}.latency_us", op.name())),
            })
            .collect();
        ServerMetrics {
            dispatched: registry.counter("transport.dispatched"),
            decode_refused: registry.counter("transport.decode_refused"),
            oversized: registry.counter("transport.oversized"),
            live_connections: registry.gauge("transport.live_connections"),
            worker_queue_depth: registry.gauge("transport.worker_queue_depth"),
            sheds: registry.counter("transport.sheds"),
            idle_timeouts: registry.counter("transport.idle_timeouts"),
            reactors: Mutex::new(Vec::new()),
            store_hits: registry.counter("store.hits"),
            store_resumes: registry.counter("store.resumes"),
            replayed_batches: registry.counter("store.replayed_batches"),
            journal_bytes: registry.counter("store.journal_bytes"),
            evicted_total: registry.counter("store.evicted_total"),
            persisted_total: registry.counter("store.persisted_total"),
            resident_sessions: registry.gauge("store.resident_sessions"),
            disk_sessions: registry.gauge("store.disk_sessions"),
            sweeps: registry.counter("store.sweeps"),
            swept_sessions: registry.counter("store.swept_sessions"),
            factorized_sessions: registry.counter("store.factorized_sessions"),
            signature_groups: registry.counter("store.signature_groups"),
            ops,
            registry,
            started: Instant::now(),
        }
    }

    /// The per-op metrics of one wire op.
    pub fn op(&self, op: Op) -> &OpMetrics {
        &self.ops[op as usize]
    }

    /// The per-reactor metrics of reactor `index`, registering the slots
    /// up through `index` on first use. Registration is name-keyed, so a
    /// transport restart over the same store (tests do this) gets the
    /// same handles back — counters continue, they don't double-register.
    pub fn reactor(&self, index: usize) -> Arc<ReactorMetrics> {
        let mut reactors = self.reactors.lock_unpoisoned();
        while reactors.len() <= index {
            let i = reactors.len();
            reactors.push(Arc::new(ReactorMetrics {
                dispatched: self
                    .registry
                    .counter(&format!("transport.reactor.{i}.dispatched")),
                live_connections: self
                    .registry
                    .gauge(&format!("transport.reactor.{i}.live_connections")),
                worker_queue_depth: self
                    .registry
                    .gauge(&format!("transport.reactor.{i}.worker_queue_depth")),
                idle_timeouts: self
                    .registry
                    .counter(&format!("transport.reactor.{i}.idle_timeouts")),
                sheds: self
                    .registry
                    .counter(&format!("transport.reactor.{i}.sheds")),
            }));
        }
        Arc::clone(&reactors[index])
    }

    /// The underlying name-keyed registry (every typed handle above is
    /// also reachable here).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// All op latencies merged into one snapshot, plus total request and
    /// error counts.
    pub fn totals(&self) -> (u64, u64, HistogramSnapshot) {
        let mut latency = HistogramSnapshot::empty();
        let (mut requests, mut errors) = (0u64, 0u64);
        for m in &self.ops {
            requests += m.requests.get();
            errors += m.errors.get();
            latency.merge(&m.latency.snapshot());
        }
        (requests, errors, latency)
    }

    /// The `Metrics` response body: uptime plus the `ops` / `transport` /
    /// `store` sections.
    pub fn snapshot_fields(&self) -> Vec<(&'static str, Json)> {
        let ops: Vec<(String, Json)> = Op::ALL
            .iter()
            .map(|&op| {
                let m = self.op(op);
                let lat = m.latency.snapshot();
                (
                    op.name().to_string(),
                    Json::object([
                        ("requests", Json::from(m.requests.get())),
                        ("errors", Json::from(m.errors.get())),
                        ("latency_us", histogram_json(&lat)),
                    ]),
                )
            })
            .collect();
        vec![
            (
                "uptime_secs",
                Json::from(self.started.elapsed().as_secs_f64()),
            ),
            // Which jim-simd kernel backend the engine's popcount and
            // batch sweeps run on ("avx2" or "off") — fixed at first
            // dispatch, surfaced so a fleet's metrics reveal hosts that
            // silently fell back to the portable path.
            ("simd_backend", Json::from(jim_simd::active_name())),
            ("ops", Json::Object(ops)),
            (
                "transport",
                Json::object([
                    ("dispatched", Json::from(self.dispatched.get())),
                    ("decode_refused", Json::from(self.decode_refused.get())),
                    ("oversized", Json::from(self.oversized.get())),
                    ("live_connections", Json::from(self.live_connections.get())),
                    (
                        "worker_queue_depth",
                        Json::from(self.worker_queue_depth.get()),
                    ),
                    ("sheds", Json::from(self.sheds.get())),
                    ("idle_timeouts", Json::from(self.idle_timeouts.get())),
                    (
                        "reactors",
                        Json::Array(
                            self.reactors
                                .lock_unpoisoned()
                                .iter()
                                .map(|r| {
                                    Json::object([
                                        ("dispatched", Json::from(r.dispatched.get())),
                                        ("live_connections", Json::from(r.live_connections.get())),
                                        (
                                            "worker_queue_depth",
                                            Json::from(r.worker_queue_depth.get()),
                                        ),
                                        ("idle_timeouts", Json::from(r.idle_timeouts.get())),
                                        ("sheds", Json::from(r.sheds.get())),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ),
            (
                "store",
                Json::object([
                    ("hits", Json::from(self.store_hits.get())),
                    ("resumes", Json::from(self.store_resumes.get())),
                    ("replayed_batches", Json::from(self.replayed_batches.get())),
                    ("journal_bytes", Json::from(self.journal_bytes.get())),
                    ("evicted_total", Json::from(self.evicted_total.get())),
                    ("persisted_total", Json::from(self.persisted_total.get())),
                    (
                        "resident_sessions",
                        Json::from(self.resident_sessions.get()),
                    ),
                    ("disk_sessions", Json::from(self.disk_sessions.get())),
                    ("sweeps", Json::from(self.sweeps.get())),
                    ("swept_sessions", Json::from(self.swept_sessions.get())),
                    (
                        "factorized_sessions",
                        Json::from(self.factorized_sessions.get()),
                    ),
                    ("signature_groups", Json::from(self.signature_groups.get())),
                ]),
            ),
        ]
    }

    /// The periodic log line `jim-serve --metrics-interval` emits — the
    /// same counters the snapshot reads, one formatted line.
    pub fn summary(&self) -> String {
        let (requests, errors, latency) = self.totals();
        format!(
            "metrics: requests={requests} errors={errors} \
             p50={}µs p99={}µs max={}µs conns={} queue={} \
             resident={} disk={} evicted={} ({} resumable)",
            latency.p50(),
            latency.p99(),
            latency.max(),
            self.live_connections.get(),
            self.worker_queue_depth.get(),
            self.resident_sessions.get(),
            self.disk_sessions.get(),
            self.evicted_total.get(),
            self.persisted_total.get(),
        )
    }
}

/// Render one latency snapshot for the wire.
fn histogram_json(lat: &HistogramSnapshot) -> Json {
    Json::object([
        ("count", Json::from(lat.count())),
        ("mean", Json::from(lat.mean())),
        ("p50", Json::from(lat.p50())),
        ("p90", Json::from(lat.p90())),
        ("p99", Json::from(lat.p99())),
        ("max", Json::from(lat.max())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_of_covers_every_request() {
        assert_eq!(Op::ALL.len(), 13);
        for (i, op) in Op::ALL.iter().enumerate() {
            assert_eq!(*op as usize, i, "table order must match discriminants");
        }
        assert_eq!(
            Op::of(&Request::NextQuestion { session: 1 }),
            Op::NextQuestion
        );
        assert_eq!(Op::of(&Request::Metrics), Op::Metrics);
        assert_eq!(Op::of(&Request::ListSessions), Op::ListSessions);
    }

    #[test]
    fn typed_handles_alias_the_registry() {
        let m = ServerMetrics::new();
        m.op(Op::Answer).requests.inc();
        m.dispatched.add(3);
        let snap = m.registry().snapshot();
        assert_eq!(snap.counters["ops.Answer.requests"], 1);
        assert_eq!(snap.counters["transport.dispatched"], 3);
    }

    #[test]
    fn snapshot_fields_carry_all_sections() {
        let m = ServerMetrics::new();
        m.op(Op::CreateSession).requests.inc();
        m.op(Op::CreateSession).latency.record(1000);
        let json = Json::Object(
            m.snapshot_fields()
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        );
        let create = json.get("ops").unwrap().get("CreateSession").unwrap();
        assert_eq!(create.get("requests").unwrap().as_u64(), Some(1));
        assert_eq!(
            create
                .get("latency_us")
                .unwrap()
                .get("count")
                .unwrap()
                .as_u64(),
            Some(1)
        );
        assert!(json.get("transport").unwrap().get("dispatched").is_some());
        assert!(json.get("store").unwrap().get("evicted_total").is_some());
        assert!(json.get("uptime_secs").is_some());
        // The snapshot names the kernel backend the engine dispatches to.
        let backend = json.get("simd_backend").unwrap().as_str().unwrap();
        assert!(
            ["off", "avx2"].contains(&backend),
            "unexpected backend {backend:?}"
        );
    }

    #[test]
    fn summary_is_one_line_from_the_same_counters() {
        let m = ServerMetrics::new();
        m.op(Op::Answer).requests.inc();
        m.op(Op::Answer).latency.record(10);
        m.evicted_total.add(2);
        m.persisted_total.inc();
        let line = m.summary();
        assert!(!line.contains('\n'));
        assert!(line.contains("requests=1"), "{line}");
        assert!(line.contains("evicted=2 (1 resumable)"), "{line}");
    }
}
