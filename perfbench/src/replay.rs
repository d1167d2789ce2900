//! Checking and replaying what the wire run did, in process.
//!
//! [`verify`] runs on every run: each resolved session's labels are
//! replayed into an engine built the way the server builds it, whose SQL
//! must equal the wire's and whose result must select exactly what the
//! goal selects.
//!
//! [`traced`] runs with `--trace 1`. It re-issues the recorded request
//! stream, in wire order, twice:
//!
//! * the **handler pass** sends every line through the real
//!   [`Handler::handle_line`] over a store configured like the server's;
//! * the **layer pass** performs each request's work by calling each
//!   layer's public functions directly — `Request::parse`,
//!   `journal::build_product`, `journal::engine_from_product`,
//!   `SessionStore::create_session`/`fetch`, `Strategy::choose`/`top_k`,
//!   `Engine::label_batch`, `JournalStore::create`/`append`/`load` — each
//!   inside a span.
//!
//! Both passes must propose exactly the question ids the wire run saw,
//! session by session; any divergence fails the run.

use crate::stats::{mean_or_zero, median_or_zero, percentile};
use crate::trace::{self_times, Tracer};
use crate::wire::{Req, SessionRecord, MIN_QUESTIONS};
use crate::workload::{Plan, PlanBook, Workload};
use jim_core::Label;
use jim_json::Json;
use jim_relation::ProductId;
use jim_server::{journal, Handler, JournalStore, Request, Session, SessionStore, StoreConfig};
use jim_simd::Backend;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, MutexGuard};
use std::time::Instant;

fn labels(batch: &[(u64, bool)]) -> Vec<(ProductId, Label)> {
    batch
        .iter()
        .map(|&(id, positive)| (ProductId(id), Label::from_bool(positive)))
        .collect()
}

/// Check every resolved session; returns `(sessions checked, failures)`.
pub fn verify(book: &PlanBook, records: &[SessionRecord]) -> (u64, Vec<String>) {
    let resolved: Vec<&SessionRecord> = records.iter().filter(|r| r.resolved).collect();
    // Checking runs between segments, off the clock, on both cores.
    let chunk = resolved.len().div_ceil(2).max(1);
    let failures = std::thread::scope(|scope| {
        let parts: Vec<_> = resolved
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .filter_map(|record| {
                            book.get(record.index)
                                .and_then(|plan| verify_one(&plan, record))
                                .err()
                                .map(|e| format!("session {}: {e}", record.index))
                        })
                        .collect::<Vec<String>>()
                })
            })
            .collect();
        parts
            .into_iter()
            .flat_map(|part| {
                part.join()
                    .unwrap_or_else(|_| vec!["a checking thread panicked".to_string()])
            })
            .collect()
    });
    (resolved.len() as u64, failures)
}

/// Factorized sessions below this index are checked by evaluating both
/// predicates over the whole product (a hash join per predicate, over 10⁷
/// tuples); the rest through their signature groups' witnesses.
const FULL_EQUIVALENCE: usize = 4;

fn verify_one(plan: &Plan, record: &SessionRecord) -> Result<(), String> {
    let origin = plan.origin();
    if (record.factorized, record.sampled) != (origin.factorized, origin.sampled) {
        return Err(format!(
            "server reported factorized={} sampled={}, expected {} {}",
            record.factorized, record.sampled, origin.factorized, origin.sampled
        ));
    }
    let product = plan.product()?;
    for (id, wire) in &record.values {
        let tuple = product.tuple(ProductId(*id)).map_err(|e| e.to_string())?;
        let local: Vec<String> = tuple.values().iter().map(|v| v.to_string()).collect();
        if &local != wire {
            return Err(format!(
                "tuple {id} read {wire:?} on the wire but is {local:?}"
            ));
        }
    }
    let mut engine = journal::engine_from_product(product.clone(), &origin)?;
    for batch in &record.batches {
        engine
            .label_batch(&labels(batch))
            .map_err(|e| e.to_string())?;
    }
    if !engine.is_resolved() {
        return Err("the replayed labels do not resolve the session".into());
    }
    let result = engine.result();
    if record.sql.as_deref() != Some(result.to_sql().as_str()) {
        return Err(format!(
            "wire SQL {:?} differs from the replay's {:?}",
            record.sql,
            result.to_sql()
        ));
    }
    if !engine.consistent_with(&plan.goal) {
        return Err("a truthful answer eliminated the goal".into());
    }
    let equivalent = if origin.factorized && record.index >= FULL_EQUIVALENCE {
        // Selection depends only on a tuple's signature, and every
        // signature present in the product is a group with a witness.
        let mut ids = engine.visible_ids(false);
        ids.extend(
            record
                .batches
                .iter()
                .flatten()
                .map(|&(id, _)| ProductId(id)),
        );
        ids.iter().try_fold(true, |all, &id| {
            let t = product.tuple(id).map_err(|e| e.to_string())?;
            Ok::<_, String>(all && result.selects(&t) == plan.goal.selects(&t))
        })?
    } else if origin.sampled {
        // Inference ran over the sample: equivalence is judged there.
        let mut rng = StdRng::seed_from_u64(origin.sample_seed);
        let ids = product.sample(&mut rng, origin.max_product as usize);
        ids.iter().try_fold(true, |all, &id| {
            let t = product.tuple(id).map_err(|e| e.to_string())?;
            Ok::<_, String>(all && result.selects(&t) == plan.goal.selects(&t))
        })?
    } else {
        result
            .instance_equivalent(&plan.goal, &product)
            .map_err(|e| e.to_string())?
    };
    if !equivalent {
        return Err(format!(
            "result {result} is not instance-equivalent to goal {}",
            plan.goal
        ));
    }
    Ok(())
}

/// Per-layer figures of a traced replay, in µs unless named otherwise.
pub struct TraceReport {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub failures: Vec<String>,
    pub requests: usize,
    pub sessions: usize,
}

/// One request of the replayed stream.
struct Item {
    seq: u64,
    /// Position of the session in the replayed subset.
    slot: usize,
    req: Req,
}

fn store_for(workload: Workload, dir: &Path) -> Result<SessionStore, String> {
    let config = StoreConfig {
        max_sessions: workload.max_sessions(),
        ..StoreConfig::default()
    };
    if workload.journaled() {
        let _ = std::fs::remove_dir_all(dir);
        let journal = JournalStore::open(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(SessionStore::with_journal(config, journal))
    } else {
        Ok(SessionStore::new(config))
    }
}

fn question_ids(json: &Json) -> Vec<u64> {
    if json.get("resolved").and_then(Json::as_bool) == Some(true) {
        return Vec::new();
    }
    match json.get("tuples").and_then(Json::as_array) {
        Some(ts) => ts
            .iter()
            .filter_map(|t| t.get("tuple").and_then(Json::as_u64))
            .collect(),
        None => json
            .get("tuple")
            .and_then(Json::as_u64)
            .into_iter()
            .collect(),
    }
}

/// Compares each session's proposed questions with the wire's, in order.
struct Questions<'a> {
    records: &'a [&'a SessionRecord],
    cursor: Vec<usize>,
    pass: &'static str,
}

impl<'a> Questions<'a> {
    fn new(records: &'a [&'a SessionRecord], pass: &'static str) -> Self {
        Questions {
            records,
            cursor: vec![0; records.len()],
            pass,
        }
    }

    fn check(&mut self, slot: usize, proposed: &[u64]) -> Result<(), String> {
        let record = self.records[slot];
        let k = self.cursor[slot];
        self.cursor[slot] += 1;
        match record.questions.get(k) {
            Some(wire) if wire.as_slice() == proposed => Ok(()),
            wire => Err(format!(
                "{} pass diverged: session {} question {}: wire proposed {wire:?}, replay {proposed:?}",
                self.pass, record.index, k + 1
            )),
        }
    }
}

fn handler_span(req: &Req) -> &'static str {
    match req {
        Req::Create => "handler.create",
        Req::NextQuestion => "handler.next_question",
        Req::TopK(_) => "handler.top_k",
        Req::Answer(..) => "handler.answer",
        Req::AnswerBatch(_) => "handler.answer_batch",
        _ => "handler.other",
    }
}

#[derive(Default)]
struct LayerAcc {
    parse_us: Vec<f64>,
    create_parse_us: Vec<f64>,
    build_product_us: Vec<f64>,
    rows_parsed: Vec<f64>,
    core_build_us: Vec<f64>,
    groups: Vec<f64>,
    factorized: Vec<f64>,
    replay_us: Vec<f64>,
    fetch_miss_us: Vec<f64>,
    journal_create: (Vec<f64>, Vec<f64>),
    journal_append: (Vec<f64>, Vec<f64>),
    journal_load: (Vec<f64>, Vec<f64>),
    choose_us: Vec<f64>,
    candidates: Vec<f64>,
    label_batch_us: Vec<f64>,
    pruned: u64,
    labeled: u64,
    simd_off_ns: u64,
    simd_on_ns: u64,
    /// Per request: the layer pass's time net of its extra measurements.
    request_ns: Vec<f64>,
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// The layer pass: one request's work through the layers' own functions.
struct Layers<'a> {
    book: &'a PlanBook,
    records: &'a [&'a SessionRecord],
    store: SessionStore,
    sids: Vec<u64>,
    questions: Questions<'a>,
    acc: LayerAcc,
    /// Also decompose store misses layer by layer and time steps under
    /// both kernel backends (off in the passes that measure the tracer's
    /// overhead).
    extras: bool,
    /// Timed `choose` calls per `NextQuestion` of a deterministic strategy.
    choose_repeats: usize,
    simd_steps: usize,
}

impl<'a> Layers<'a> {
    fn new(
        workload: Workload,
        book: &'a PlanBook,
        records: &'a [&'a SessionRecord],
        dir: &Path,
        extras: bool,
        choose_repeats: usize,
    ) -> Result<Self, String> {
        Ok(Layers {
            book,
            records,
            store: store_for(workload, dir)?,
            sids: vec![0; records.len()],
            questions: Questions::new(records, "layer"),
            acc: LayerAcc::default(),
            extras,
            choose_repeats,
            simd_steps: 0,
        })
    }

    /// One request's work; returns the time spent on extra measurements
    /// inside it, which the handler's own path does not include.
    fn replay(&mut self, t: &mut Tracer, item: &Item) -> Result<u64, String> {
        let seq = item.seq;
        let plan = self.book.get(self.records[item.slot].index)?;
        let line = item.req.render(&plan, self.sids[item.slot]);
        let create = item.req == Req::Create;
        let (parsed, ns) = t.span(
            if create {
                "protocol.create_parse"
            } else {
                "protocol.parse"
            },
            seq,
            |_| Request::parse(&line),
        );
        parsed?;
        if create {
            self.acc.create_parse_us.push(us(ns));
            return self.create(t, seq, item.slot, &plan);
        }
        let sid = self.sids[item.slot];
        if item.req == Req::Close {
            t.span("store.remove", seq, |_| self.store.remove(sid));
            return Ok(0);
        }
        self.acc.parse_us.push(us(ns));
        let extras = self.extras;
        let compare = extras && self.simd_steps < SIMD_STEPS;
        let mut extra_ns = 0;
        let miss = self.store.peek(sid).is_none();
        let (handle, ns) = t.span(
            if miss {
                "store.fetch_miss"
            } else {
                "store.fetch"
            },
            seq,
            |_| self.store.fetch(sid),
        );
        let handle =
            handle?.ok_or_else(|| format!("session {sid} vanished from the layer pass"))?;
        if miss {
            self.acc.fetch_miss_us.push(us(ns));
            if extras && self.acc.replay_us.len() < DECOMPOSED_MISSES {
                extra_ns += self.decompose_resume(t, seq, sid)?;
            }
        }
        let mut session = handle
            .lock()
            .map_err(|_| "session lock poisoned".to_string())?;
        let deterministic = plan.deterministic();
        match &item.req {
            Req::NextQuestion => {
                if compare && deterministic {
                    extra_ns += self.compare_backends(t, seq, &mut session, |s| {
                        let view = s.engine.candidates();
                        s.strategy.choose(&s.engine, &view).map(|id| vec![id.0])
                    })?;
                }
                let s: &mut Session = &mut session;
                let ((choice, candidates), ns) = t.span("step.choose", seq, |_| {
                    let view = s.engine.candidates();
                    let n = view.len();
                    (s.strategy.choose(&s.engine, &view), n)
                });
                self.acc.choose_us.push(us(ns));
                self.acc.candidates.push(candidates as f64);
                // Too few questions for a p99 (a budget-bound subset):
                // time the same choice again; only deterministic
                // strategies may be asked twice.
                if deterministic {
                    for _ in 1..self.choose_repeats {
                        let (again, ns) = t.span("step.choose", seq, |_| {
                            let view = s.engine.candidates();
                            s.strategy.choose(&s.engine, &view)
                        });
                        if again != choice {
                            return Err(format!(
                                "choose is not repeatable on session {}",
                                self.records[item.slot].index
                            ));
                        }
                        self.acc.choose_us.push(us(ns));
                        extra_ns += ns;
                    }
                }
                let ids: Vec<u64> = choice.map(|id| id.0).into_iter().collect();
                self.questions.check(item.slot, &ids)?;
            }
            Req::TopK(k) => {
                let s: &mut Session = &mut session;
                let (batch, _) = t.span("step.top_k", seq, |_| {
                    let view = s.engine.candidates();
                    s.strategy.top_k(&s.engine, &view, *k as usize)
                });
                let ids: Vec<u64> = batch.iter().map(|id| id.0).collect();
                self.questions.check(item.slot, &ids)?;
            }
            Req::Answer(id, positive) => {
                extra_ns += self.label(t, seq, sid, &mut session, &[(*id, *positive)], compare)?;
            }
            Req::AnswerBatch(batch) => {
                extra_ns += self.label(t, seq, sid, &mut session, batch, compare)?;
            }
            // Side ops only read the session; the handler pass times them.
            _ => {}
        }
        Ok(extra_ns)
    }

    /// Returns the time of the explicit header rewrite, which the
    /// handler's create does not repeat.
    fn create(
        &mut self,
        t: &mut Tracer,
        seq: u64,
        slot: usize,
        plan: &Plan,
    ) -> Result<u64, String> {
        let (product, ns) = t.span("relation.build_product", seq, |_| {
            journal::build_product(&plan.source)
        });
        let product = product?;
        self.acc.build_product_us.push(us(ns));
        self.acc.rows_parsed.push(rows_parsed(plan) as f64);
        let origin = plan.origin();
        let (engine, ns) = t.span("core.build", seq, |_| {
            journal::engine_from_product(product, &origin)
        });
        let engine = engine?;
        self.acc.core_build_us.push(us(ns));
        self.acc.groups.push(engine.num_groups() as f64);
        self.acc
            .factorized
            .push(if engine.is_factorized() { 1.0 } else { 0.0 });
        let kind = journal::strategy_kind(&origin)?;
        let ((handle, _), _) = t.span("store.create", seq, |_| {
            self.store.create_session(
                engine,
                kind.build(),
                kind.to_string(),
                origin.sampled,
                Some(origin.clone()),
            )
        });
        let sid = handle
            .lock()
            .map_err(|_| "fresh session poisoned".to_string())?
            .id;
        self.sids[slot] = sid;
        if let Some(journal) = self.store.journal() {
            // Rewrites the header the store just wrote, byte for byte.
            let (bytes, ns) = t.span("journal.create", seq, |_| journal.create(sid, &origin));
            let bytes = bytes.map_err(|e| e.to_string())?;
            self.acc.journal_create.0.push(us(ns));
            self.acc.journal_create.1.push(bytes as f64);
            return Ok(ns);
        }
        Ok(0)
    }

    fn label(
        &mut self,
        t: &mut Tracer,
        seq: u64,
        sid: u64,
        session: &mut MutexGuard<'_, Session>,
        batch: &[(u64, bool)],
        compare: bool,
    ) -> Result<u64, String> {
        let batch = labels(batch);
        let mut extra_ns = 0;
        if compare {
            extra_ns += self.compare_backends(t, seq, session, |s| {
                let mut engine = s.engine.clone();
                let out = engine.label_batch(&batch).map_err(|e| e.to_string());
                out.map(|o| vec![o.pruned, o.informative_remaining]).ok()
            })?;
        }
        let (outcome, ns) = t.span("step.label_batch", seq, |_| {
            session.engine.label_batch(&batch)
        });
        let outcome = outcome.map_err(|e| e.to_string())?;
        self.acc.label_batch_us.push(us(ns));
        self.acc.pruned += outcome.pruned;
        self.acc.labeled += batch.len() as u64;
        if let Some(journal) = self.store.journal() {
            let (bytes, ns) = t.span("journal.append", seq, |_| journal.append(sid, &batch));
            let bytes = bytes.map_err(|e| e.to_string())?;
            self.acc.journal_append.0.push(us(ns));
            self.acc.journal_append.1.push(bytes as f64);
        }
        Ok(extra_ns)
    }

    /// Run `step` under the scalar kernels and under the detected
    /// backend (alternating which goes first), check they agree, and add
    /// the times to the speed-up tallies. The clone an engine step needs
    /// is made inside `step` and timed on both sides alike.
    fn compare_backends<T: PartialEq + std::fmt::Debug>(
        &mut self,
        t: &mut Tracer,
        seq: u64,
        session: &mut Session,
        mut step: impl FnMut(&mut Session) -> T,
    ) -> Result<u64, String> {
        let off_first = seq.is_multiple_of(2);
        let (result, ns) = t.span("simd.compare", seq, |_| {
            let mut run = |backend: Option<Backend>| {
                jim_simd::force(backend);
                let start = Instant::now();
                let out = step(session);
                (out, start.elapsed().as_nanos() as u64)
            };
            let (first, second) = if off_first {
                (run(Some(Backend::Off)), run(None))
            } else {
                let detected = run(None);
                (run(Some(Backend::Off)), detected)
            };
            jim_simd::force(None);
            (first, second)
        });
        let ((off, off_ns), (on, on_ns)) = result;
        if off != on {
            return Err(format!(
                "kernel backends disagree: scalar {off:?}, detected {on:?}"
            ));
        }
        self.acc.simd_off_ns += off_ns;
        self.acc.simd_on_ns += on_ns;
        self.simd_steps += 1;
        Ok(ns)
    }

    /// The store's miss path, one layer call at a time: load the journal,
    /// rebuild the product and engine, replay the journaled batches.
    fn decompose_resume(&mut self, t: &mut Tracer, seq: u64, sid: u64) -> Result<u64, String> {
        let journal = self.store.journal().ok_or("resume without a journal")?;
        let acc = &mut self.acc;
        let (out, ns) = t.span("resume.decomposed", seq, |t| -> Result<(), String> {
            let (stored, ns) = t.span("journal.load", seq, |_| journal.load(sid));
            let stored = stored?.ok_or("evicted session has no journal")?;
            acc.journal_load.0.push(us(ns));
            let bytes = std::fs::metadata(journal.path(sid)).map_or(0, |m| m.len());
            acc.journal_load.1.push(bytes as f64);
            let (product, ns) = t.span("relation.build_product", seq, |_| {
                journal::build_product(&stored.origin.source)
            });
            acc.build_product_us.push(us(ns));
            let (engine, ns) = t.span("core.build", seq, |_| {
                journal::engine_from_product(product?, &stored.origin)
            });
            acc.core_build_us.push(us(ns));
            let mut engine = engine?;
            let (replayed, ns) = t.span("core.replay", seq, |_| {
                stored
                    .batches
                    .iter()
                    .try_for_each(|b| engine.label_batch(b).map(|_| ()))
            });
            replayed.map_err(|e| e.to_string())?;
            acc.replay_us.push(us(ns));
            Ok(())
        });
        out.map(|()| ns)
    }
}

/// CSV data rows a session's source carries (0 for built-in scenarios).
fn rows_parsed(plan: &Plan) -> usize {
    match &plan.source {
        jim_core::OriginSource::Inline { relations, .. } => relations
            .iter()
            .map(|(_, text)| text.lines().count().saturating_sub(1))
            .sum(),
        jim_core::OriginSource::Scenario { .. } => 0,
    }
}

/// Wire time of the sessions the trace replays. Replaying costs a few
/// times the server's own work, so the subset is bounded by it.
const TRACE_BUDGET_US: f64 = 1.5e6;
/// Steps timed under both kernel backends, and store misses decomposed
/// layer by layer.
const SIMD_STEPS: usize = 300;
const DECOMPOSED_MISSES: usize = 100;
/// Requests replayed again, spans off and on, for the tracer's overhead.
const OVERHEAD_PREFIX: usize = 400;

/// The recorded sessions the trace replays: the lowest indices, until
/// they hold [`MIN_QUESTIONS`] `NextQuestion`s or exhaust the budget.
fn subset(records: &[SessionRecord]) -> Vec<&SessionRecord> {
    let mut sorted: Vec<&SessionRecord> = records.iter().collect();
    sorted.sort_by_key(|r| r.index);
    let (mut questions, mut wire_us) = (0, 0.0);
    let mut out = Vec::new();
    for r in sorted {
        if questions >= MIN_QUESTIONS || wire_us >= TRACE_BUDGET_US {
            break;
        }
        questions += r
            .requests
            .iter()
            .filter(|(_, q)| *q == Req::NextQuestion)
            .count();
        wire_us += r.wire_us;
        out.push(r);
    }
    out
}

/// The handler pass: each request line through the real handler.
struct HandlerPass<'a> {
    book: &'a PlanBook,
    records: &'a [&'a SessionRecord],
    handler: Handler,
    sids: Vec<u64>,
    questions: Questions<'a>,
    by_span: BTreeMap<&'static str, Vec<f64>>,
    /// Requests that rehydrated their session from the journal.
    resumed_us: Vec<f64>,
    handler_ns: Vec<f64>,
}

impl<'a> HandlerPass<'a> {
    fn new(
        workload: Workload,
        book: &'a PlanBook,
        records: &'a [&'a SessionRecord],
        dir: &Path,
    ) -> Result<Self, String> {
        Ok(HandlerPass {
            book,
            records,
            handler: Handler::new(Arc::new(store_for(workload, dir)?)),
            sids: vec![0; records.len()],
            questions: Questions::new(records, "handler"),
            by_span: BTreeMap::new(),
            resumed_us: Vec::new(),
            handler_ns: Vec::new(),
        })
    }

    fn step(
        &mut self,
        tracer: &mut Tracer,
        item: &Item,
        failures: &mut Vec<String>,
    ) -> Result<(), String> {
        let plan = self.book.get(self.records[item.slot].index)?;
        let line = item.req.render(&plan, self.sids[item.slot]);
        let resumes = self.handler.store().metrics().store_resumes.clone();
        let before = resumes.get();
        let name = handler_span(&item.req);
        let (response, ns) = tracer.span(name, item.seq, |_| self.handler.handle_line(&line));
        self.handler_ns.push(ns as f64);
        self.by_span.entry(name).or_default().push(us(ns));
        if resumes.get() > before {
            self.resumed_us.push(us(ns));
        }
        let json = Json::parse(&response).map_err(|e| format!("handler pass: {e}"))?;
        if json.get("ok").and_then(Json::as_bool) != Some(true) {
            failures.push(format!("handler pass: {line} -> {response}"));
            return Ok(());
        }
        match item.req {
            Req::Create => {
                self.sids[item.slot] = json.get("session").and_then(Json::as_u64).unwrap_or(0)
            }
            Req::NextQuestion | Req::TopK(_) => {
                if let Err(e) = self.questions.check(item.slot, &question_ids(&json)) {
                    failures.push(e);
                }
            }
            _ => {}
        }
        Ok(())
    }
}

/// The traced replay (module docs). Spans land in `tracer`.
pub fn traced(
    workload: Workload,
    book: &PlanBook,
    records: &[SessionRecord],
    dir: &Path,
    tracer: &mut Tracer,
) -> Result<TraceReport, String> {
    let subset = subset(records);
    let mut stream: Vec<Item> = subset
        .iter()
        .enumerate()
        .flat_map(|(slot, r)| {
            r.requests.iter().map(move |(seq, req)| Item {
                seq: *seq,
                slot,
                req: req.clone(),
            })
        })
        .collect();
    stream.sort_by_key(|i| i.seq);
    let mut failures = Vec::new();
    let mut metrics: Vec<(&'static str, f64, &'static str)> = Vec::new();

    // The passes run request by request, side by side, alternating which
    // goes first, so the handler's time and its layers' time are taken
    // under the same conditions.
    let prefix = (stream.len() / 4).min(OVERHEAD_PREFIX);
    let nq = stream.iter().filter(|i| i.req == Req::NextQuestion).count();
    let repeats = MIN_QUESTIONS.div_ceil(nq.max(1));
    let mut handler = HandlerPass::new(workload, book, &subset, &dir.join("replay-handler"))?;
    let mut layers = Layers::new(
        workload,
        book,
        &subset,
        &dir.join("replay-layers"),
        true,
        repeats,
    )?;
    // The tracer's overhead: the first requests once more through two
    // fresh layer passes, spans off and on.
    let mut plain = [
        Layers::new(workload, book, &subset, &dir.join("replay-off"), false, 1)?,
        Layers::new(workload, book, &subset, &dir.join("replay-on"), false, 1)?,
    ];
    let mut plain_tracers = [Tracer::new(false), Tracer::new(true)];
    let mut plain_ns = [0u64; 2];
    for (pos, item) in stream.iter().enumerate() {
        let handler_first = item.seq % 2 == 0;
        if handler_first {
            handler.step(tracer, item, &mut failures)?;
        }
        let (extra, ns) = tracer.span("request", item.seq, |t| layers.replay(t, item));
        match extra {
            Ok(extra_ns) => layers
                .acc
                .request_ns
                .push(ns.saturating_sub(extra_ns) as f64),
            Err(e) => {
                failures.push(e);
                layers.acc.request_ns.push(ns as f64);
            }
        }
        if !handler_first {
            handler.step(tracer, item, &mut failures)?;
        }
        if pos < prefix {
            for k in [pos % 2, 1 - pos % 2] {
                let again = &mut plain[k];
                let (out, ns) =
                    plain_tracers[k].span("request", item.seq, |t| again.replay(t, item));
                plain_ns[k] += ns;
                if let Err(e) = out {
                    failures.push(e);
                }
            }
        }
    }
    let HandlerPass {
        by_span,
        resumed_us,
        handler_ns,
        ..
    } = handler;

    let acc = &layers.acc;
    let n = stream.len().max(1) as f64;
    let median = |name: &str| median_or_zero(by_span.get(name).map_or(&[][..], Vec::as_slice));
    metrics.push((
        "handler.next_question_us",
        median("handler.next_question"),
        "us",
    ));
    metrics.push(("handler.answer_us", median("handler.answer"), "us"));
    metrics.push((
        "handler.answer_batch_us",
        median("handler.answer_batch"),
        "us",
    ));
    metrics.push(("handler.top_k_us", median("handler.top_k"), "us"));
    metrics.push(("handler.create_us", median("handler.create"), "us"));
    metrics.push(("handler.resume_us", median_or_zero(&resumed_us), "us"));
    let self_handler: Vec<f64> = handler_ns
        .iter()
        .zip(&acc.request_ns)
        .map(|(h, l)| (h - l) / 1e3)
        .collect();
    metrics.push(("handler.self_us", median_or_zero(&self_handler), "us"));
    metrics.push(("protocol.parse_us", median_or_zero(&acc.parse_us), "us"));
    metrics.push((
        "protocol.create_parse_us",
        median_or_zero(&acc.create_parse_us),
        "us",
    ));
    metrics.push((
        "store.fetch_miss_us",
        median_or_zero(&acc.fetch_miss_us),
        "us",
    ));
    for (t_name, b_name, (times, bytes)) in [
        (
            "journal.create_us",
            "journal.create_bytes",
            &acc.journal_create,
        ),
        (
            "journal.append_us",
            "journal.append_bytes",
            &acc.journal_append,
        ),
        ("journal.load_us", "journal.load_bytes", &acc.journal_load),
    ] {
        metrics.push((t_name, median_or_zero(times), "us"));
        metrics.push((b_name, mean_or_zero(bytes), "bytes"));
    }
    metrics.push((
        "relation.build_product_us",
        median_or_zero(&acc.build_product_us),
        "us",
    ));
    metrics.push((
        "relation.rows_parsed",
        mean_or_zero(&acc.rows_parsed),
        "rows",
    ));
    metrics.push(("core.build_us", median_or_zero(&acc.core_build_us), "us"));
    metrics.push(("core.groups", mean_or_zero(&acc.groups), "count"));
    metrics.push((
        "core.factorized_ratio",
        mean_or_zero(&acc.factorized),
        "ratio",
    ));
    metrics.push(("core.replay_us", median_or_zero(&acc.replay_us), "us"));
    metrics.push(("core.choose_p50_us", percentile(&acc.choose_us, 0.5)?, "us"));
    metrics.push((
        "core.choose_p99_us",
        percentile(&acc.choose_us, 0.99)?,
        "us",
    ));
    metrics.push((
        "core.candidates_per_choose",
        mean_or_zero(&acc.candidates),
        "count",
    ));
    metrics.push((
        "core.label_batch_us",
        median_or_zero(&acc.label_batch_us),
        "us",
    ));
    metrics.push((
        "core.pruned_per_label",
        acc.pruned as f64 / acc.labeled.max(1) as f64,
        "count",
    ));
    metrics.push((
        "simd.step_speedup",
        acc.simd_off_ns as f64 / acc.simd_on_ns.max(1) as f64,
        "ratio",
    ));

    // Self time per layer, µs per replayed request.
    let selfs = self_times(tracer.spans());
    let layer_self = |prefixes: &[&str]| {
        selfs
            .iter()
            .filter(|(name, _)| prefixes.iter().any(|p| name.starts_with(p)))
            .map(|(_, ns)| *ns as f64)
            .sum::<f64>()
            / 1e3
            / n
    };
    metrics.push(("self.protocol_us", layer_self(&["protocol."]), "us"));
    metrics.push(("self.store_us", layer_self(&["store."]), "us"));
    metrics.push(("self.journal_us", layer_self(&["journal."]), "us"));
    metrics.push(("self.relation_us", layer_self(&["relation."]), "us"));
    metrics.push((
        "self.construction_us",
        layer_self(&["core.build", "core.replay"]),
        "us",
    ));
    metrics.push(("self.step_us", layer_self(&["step."]), "us"));
    metrics.push((
        "trace.overhead_ratio",
        plain_ns[1] as f64 / plain_ns[0].max(1) as f64 - 1.0,
        "ratio",
    ));
    metrics.push(("trace.requests", stream.len() as f64, "count"));
    Ok(TraceReport {
        metrics,
        failures,
        requests: stream.len(),
        sessions: subset.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn question_check_fails_loudly_on_divergence() {
        let record = SessionRecord {
            index: 7,
            questions: vec![vec![4], vec![2, 9], vec![]],
            ..Default::default()
        };
        let records = [&record];
        let mut q = Questions::new(&records, "handler");
        assert_eq!(q.check(0, &[4]), Ok(()));
        let err = q.check(0, &[2, 8]).unwrap_err();
        assert!(
            err.contains("handler pass diverged: session 7 question 2"),
            "{err}"
        );
        // A resolution the wire saw must be a resolution in the replay.
        assert_eq!(q.check(0, &[]), Ok(()));
        // A question past the wire's last one is a divergence too.
        assert!(q.check(0, &[1]).is_err());
    }

    #[test]
    fn question_ids_read_both_response_shapes() {
        let one = Json::parse(r#"{"ok":true,"resolved":false,"tuple":5}"#).unwrap();
        assert_eq!(question_ids(&one), vec![5]);
        let batch =
            Json::parse(r#"{"ok":true,"resolved":false,"tuples":[{"tuple":1},{"tuple":3}]}"#)
                .unwrap();
        assert_eq!(question_ids(&batch), vec![1, 3]);
        let done = Json::parse(r#"{"ok":true,"resolved":true,"sql":"SELECT"}"#).unwrap();
        assert!(question_ids(&done).is_empty());
    }
}
