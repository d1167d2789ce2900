//! The closed-loop wire client: every connection is a user who waits for
//! each reply before sending the next request.
//!
//! Each connection keeps `live_per_conn` sessions open and rotates one
//! step at a time across them. A step is a *turn* (a question request,
//! `NextQuestion` or `TopK`, then the truthful answer, `Answer` or
//! `AnswerBatch`) or a side op. Answers come from the plan's goal,
//! evaluated on the locally built product, so the user never lies and no
//! request is expected to fail. Every request is recorded with a global
//! sequence number so the traced replay can re-issue the same stream.

use crate::workload::{Plan, PlanBook, Workload};
use jim_json::Json;
use jim_server::Op;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// Turns a segment must hold: at least ten samples beyond p99.
pub const MIN_TURNS: usize = 1000;
/// Opens a segment must hold: at least ten samples beyond p90.
pub const MIN_OPENS: usize = 100;
/// `NextQuestion`s a run must hold, so the replay's `choose` p99 and the
/// wire gap's p99 stand on enough samples.
pub const MIN_QUESTIONS: usize = 1000;
/// Past the deadline, a run that still lacks its minimum samples gives up
/// after this long rather than hang.
const OVERTIME: Duration = Duration::from_secs(100);

/// One request of a session's stream, independent of the session id the
/// server assigned (the replay maps ids).
#[derive(Debug, Clone, PartialEq)]
pub enum Req {
    Create,
    NextQuestion,
    TopK(u64),
    Answer(u64, bool),
    AnswerBatch(Vec<(u64, bool)>),
    Stats,
    Sql,
    Transcript,
    Explain(u64),
    Resume,
    Close,
}

fn label(positive: bool) -> &'static str {
    if positive {
        "+"
    } else {
        "-"
    }
}

impl Req {
    pub fn op(&self) -> Op {
        match self {
            Req::Create => Op::CreateSession,
            Req::NextQuestion => Op::NextQuestion,
            Req::TopK(_) => Op::TopK,
            Req::Answer(..) => Op::Answer,
            Req::AnswerBatch(_) => Op::AnswerBatch,
            Req::Stats => Op::Stats,
            Req::Sql => Op::Sql,
            Req::Transcript => Op::Transcript,
            Req::Explain(_) => Op::Explain,
            Req::Resume => Op::ResumeSession,
            Req::Close => Op::CloseSession,
        }
    }

    pub fn render(&self, plan: &Plan, sid: u64) -> String {
        let simple = |op: &str| format!(r#"{{"op":"{op}","session":{sid}}}"#);
        match self {
            Req::Create => plan.create_line.clone(),
            Req::NextQuestion => simple("NextQuestion"),
            Req::TopK(k) => format!(r#"{{"op":"TopK","session":{sid},"k":{k}}}"#),
            Req::Answer(t, l) => format!(
                r#"{{"op":"Answer","session":{sid},"tuple":{t},"label":"{}"}}"#,
                label(*l)
            ),
            Req::AnswerBatch(labels) => {
                let items: Vec<String> = labels
                    .iter()
                    .map(|(t, l)| format!(r#"{{"tuple":{t},"label":"{}"}}"#, label(*l)))
                    .collect();
                format!(
                    r#"{{"op":"AnswerBatch","session":{sid},"labels":[{}]}}"#,
                    items.join(",")
                )
            }
            Req::Stats => simple("Stats"),
            Req::Sql => simple("Sql"),
            Req::Transcript => simple("Transcript"),
            Req::Explain(t) => format!(r#"{{"op":"Explain","session":{sid},"tuple":{t}}}"#),
            Req::Resume => simple("ResumeSession"),
            Req::Close => simple("CloseSession"),
        }
    }
}

/// What one session did on the wire.
#[derive(Debug, Clone, Default)]
pub struct SessionRecord {
    pub index: usize,
    /// `(sequence number, request)` in send order.
    pub requests: Vec<(u64, Req)>,
    /// Tuple ids proposed by each question request, in order; empty when
    /// the server answered that the session is resolved.
    pub questions: Vec<Vec<u64>>,
    /// The label batches the server accepted, in order.
    pub batches: Vec<Vec<(u64, bool)>>,
    pub resolved: bool,
    /// The SQL the server reported on resolution.
    pub sql: Option<String>,
    /// `factorized` and `sampled` as `CreateSession` reported them.
    pub factorized: bool,
    pub sampled: bool,
    /// Sum of the session's round trips, µs: what replaying it costs.
    pub wire_us: f64,
    /// `(tuple, values)` the server showed for each question on a
    /// generated instance, checked against the rebuilt product.
    pub values: Vec<(u64, Vec<String>)>,
}

impl SessionRecord {
    /// Labels given before resolution: the paper's questions per session.
    pub fn questions_asked(&self) -> usize {
        self.batches.iter().map(Vec::len).sum()
    }
}

/// Per-connection accounting.
#[derive(Default)]
pub struct ConnStats {
    pub sent: Vec<u64>,
    /// Round trip per request, µs, by op (all requests, warm-up included,
    /// matching what the server's histograms hold).
    pub rtt_us: Vec<Vec<f64>>,
    /// `(end, µs)` per turn after a session's first, which its open
    /// counts: on `resume` the first turn always finds the new session in
    /// memory, and its share (one turn in four or five) moved the turn
    /// median along the miss path's cluster.
    pub turns: Vec<(Instant, f64)>,
    /// `(end, µs)` per session open: `CreateSession` + first `NextQuestion`.
    pub opens: Vec<(Instant, f64)>,
    /// Completion time of every resolved session.
    pub completed: Vec<Instant>,
    pub failures: u64,
    pub failure_samples: Vec<String>,
    pub sessions: Vec<SessionRecord>,
}

impl ConnStats {
    pub fn new() -> ConnStats {
        ConnStats {
            sent: vec![0; Op::ALL.len()],
            rtt_us: vec![Vec::new(); Op::ALL.len()],
            ..Default::default()
        }
    }

    pub fn fail(&mut self, message: String) {
        self.failures += 1;
        if self.failure_samples.len() < 5 {
            self.failure_samples.push(message);
        }
    }

    pub fn merge(&mut self, other: ConnStats) {
        for (a, b) in self.sent.iter_mut().zip(&other.sent) {
            *a += b;
        }
        for (a, b) in self.rtt_us.iter_mut().zip(other.rtt_us) {
            a.extend(b);
        }
        self.turns.extend(other.turns);
        self.opens.extend(other.opens);
        self.completed.extend(other.completed);
        self.failures += other.failures;
        self.failure_samples.extend(other.failure_samples);
        self.sessions.extend(other.sessions);
    }
}

/// One line-oriented client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| format!("timeout: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Conn {
            reader,
            writer: stream,
            line: String::new(),
        })
    }

    /// Send one line, wait for one line back.
    pub fn round_trip(&mut self, request: &str) -> Result<&str, String> {
        let mut bytes = Vec::with_capacity(request.len() + 1);
        bytes.extend_from_slice(request.as_bytes());
        bytes.push(b'\n');
        self.writer
            .write_all(&bytes)
            .map_err(|e| format!("write: {e}"))?;
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(self.line.trim_end()),
            Err(e) => Err(format!("read: {e}")),
        }
    }

    /// A request outside any session (observer ops, the set-up probe):
    /// counted and timed like the rest.
    pub fn observe(&mut self, stats: &mut ConnStats, op: Op, line: &str) -> Result<Json, String> {
        stats.sent[op as usize] += 1;
        let start = Instant::now();
        let text = self.round_trip(line)?;
        stats.rtt_us[op as usize].push(start.elapsed().as_secs_f64() * 1e6);
        let json = Json::parse(text).map_err(|e| format!("unparseable response: {e}"))?;
        if json.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("{}: {text}", op.name()));
        }
        Ok(json)
    }
}

/// Counters the connections share. One mutex rather than atomics: they
/// change once per request at most, far from contended, and the
/// workspace lint requires every atomic field to declare an ordering
/// convention in a file outside the benchmark's directory.
#[derive(Default)]
struct Tally {
    next_index: usize,
    seq: u64,
    turns: usize,
    opens: usize,
    questions: usize,
    broken: bool,
}

/// State shared by the connections of one run. A run is measured in
/// segments, each against a fresh server process; session indices,
/// sequence numbers and the question tally carry across them, and each
/// segment gathers its own minimum of turns and opens.
pub struct Shared {
    pub workload: Workload,
    pub book: PlanBook,
    tally: Mutex<Tally>,
    pub warmup_end: Instant,
    pub deadline: Instant,
    /// The last segment also runs on until the run's exact sessions and
    /// its `choose` sample are in.
    last: bool,
    /// When the segment stopped starting sessions.
    pub stopped: OnceLock<Instant>,
}

impl Shared {
    pub fn new(workload: Workload, book: PlanBook) -> Shared {
        let now = Instant::now();
        Shared {
            workload,
            book,
            tally: Mutex::new(Tally::default()),
            warmup_end: now,
            deadline: now,
            last: false,
            stopped: OnceLock::new(),
        }
    }

    fn tally(&self) -> MutexGuard<'_, Tally> {
        self.tally
            .lock()
            .expect("tally lock poisoned by a panicking client thread")
    }

    /// Sessions claimed so far; the next segment starts at this index.
    pub fn claimed(&self) -> usize {
        self.tally().next_index
    }

    /// Open the next measured segment: `warmup`, then `seconds` timed.
    pub fn begin(&mut self, warmup: Duration, seconds: Duration, last: bool) {
        let now = Instant::now();
        self.warmup_end = now + warmup;
        self.deadline = now + warmup + seconds;
        self.last = last;
        self.stopped = OnceLock::new();
        let mut tally = self.tally();
        tally.turns = 0;
        tally.opens = 0;
    }

    /// Claim the next session index, or `None` once the segment has its
    /// time and its minimum samples (and, if last, the run its exact
    /// sessions and questions), or has run far past its deadline.
    fn claim(&self) -> Option<usize> {
        let mut tally = self.tally();
        if self.stopped.get().is_some() || tally.broken {
            return None;
        }
        let now = Instant::now();
        let short = tally.turns < MIN_TURNS
            || tally.opens < MIN_OPENS
            || (self.last
                && (tally.next_index < self.workload.exact_sessions()
                    || tally.questions < MIN_QUESTIONS));
        if !(now < self.deadline || short) || now > self.deadline + OVERTIME {
            let _ = self.stopped.set(now);
            return None;
        }
        tally.next_index += 1;
        Some(tally.next_index - 1)
    }
}

struct Live {
    plan: Arc<Plan>,
    sid: u64,
    rng: StdRng,
    record: SessionRecord,
    last_tuple: Option<u64>,
}

enum Step {
    Continue,
    Resolved,
}

/// Why a request failed: `Io` breaks the connection, `Op` only the
/// session.
enum Fail {
    Io(String),
    Op(String),
}

struct Client<'a> {
    conn: Conn,
    shared: &'a Shared,
    stats: ConnStats,
}

impl Client<'_> {
    fn request(&mut self, live: &mut Live, req: Req) -> Result<(Json, f64), Fail> {
        let seq = {
            let mut tally = self.shared.tally();
            tally.seq += 1;
            tally.seq
        };
        let line = req.render(&live.plan, live.sid);
        let op = req.op();
        live.record.requests.push((seq, req));
        self.stats.sent[op as usize] += 1;
        let start = Instant::now();
        let text = self.conn.round_trip(&line).map_err(Fail::Io)?;
        let us = start.elapsed().as_secs_f64() * 1e6;
        self.stats.rtt_us[op as usize].push(us);
        live.record.wire_us += us;
        let json = Json::parse(text).map_err(|e| Fail::Io(format!("unparseable response: {e}")))?;
        if json.get("code").and_then(Json::as_str) == Some("overloaded") {
            return Err(Fail::Io("shed at admission".into()));
        }
        if json.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(Fail::Op(format!(
                "{} on session {}: {text}",
                op.name(),
                live.record.index
            )));
        }
        Ok((json, us))
    }

    /// Answer a proposed tuple truthfully from the session's goal. The
    /// values the server sent are kept for the check after the run.
    fn truthful(&self, live: &mut Live, question: &Json) -> Result<(u64, bool), Fail> {
        let id = question
            .get("tuple")
            .and_then(Json::as_u64)
            .ok_or_else(|| Fail::Op("question without a tuple".into()))?;
        let wire: Vec<&str> = question
            .get("values")
            .and_then(Json::as_array)
            .map(|vs| vs.iter().filter_map(Json::as_str).collect())
            .unwrap_or_default();
        let tuple = live
            .plan
            .question_tuple(id, &wire)
            .map_err(|e| Fail::Op(format!("session {}: {e}", live.record.index)))?;
        if live.plan.scenario.is_none() {
            live.record
                .values
                .push((id, wire.iter().map(|v| v.to_string()).collect()));
        }
        Ok((id, live.plan.goal.selects(&tuple)))
    }

    fn resolved(live: &mut Live, json: &Json) -> Step {
        if json.get("resolved").and_then(Json::as_bool) == Some(true) {
            live.record.resolved = true;
            live.record.sql = json.get("sql").and_then(Json::as_str).map(str::to_string);
            Step::Resolved
        } else {
            Step::Continue
        }
    }

    fn count_turn(&mut self, us: f64) {
        let now = Instant::now();
        if now >= self.shared.warmup_end {
            self.shared.tally().turns += 1;
        }
        self.stats.turns.push((now, us));
    }

    /// `NextQuestion`, then `Answer` on the proposed tuple. Returns the
    /// step outcome and the question's round trip.
    fn question_turn(&mut self, live: &mut Live) -> Result<(Step, f64), Fail> {
        let (q, q_us) = self.request(live, Req::NextQuestion)?;
        self.shared.tally().questions += 1;
        if let Step::Resolved = Self::resolved(live, &q) {
            live.record.questions.push(Vec::new());
            return Ok((Step::Resolved, q_us));
        }
        let (id, positive) = self.truthful(live, &q)?;
        live.record.questions.push(vec![id]);
        live.last_tuple = Some(id);
        let (a, a_us) = self.request(live, Req::Answer(id, positive))?;
        live.record.batches.push(vec![(id, positive)]);
        // A session's first question belongs to its open.
        if live.record.batches.len() > 1 {
            self.count_turn(q_us + a_us);
        }
        Ok((Self::resolved(live, &a), q_us))
    }

    /// `TopK`, then one `AnswerBatch` labeling every returned tuple.
    fn batch_turn(&mut self, live: &mut Live) -> Result<Step, Fail> {
        let k = live.rng.gen_range(2u64..5);
        let (b, b_us) = self.request(live, Req::TopK(k))?;
        if let Step::Resolved = Self::resolved(live, &b) {
            live.record.questions.push(Vec::new());
            return Ok(Step::Resolved);
        }
        let tuples = b
            .get("tuples")
            .and_then(Json::as_array)
            .ok_or_else(|| Fail::Op("TopK without tuples".into()))?;
        let mut labels = Vec::with_capacity(tuples.len());
        for t in tuples {
            labels.push(self.truthful(live, t)?);
        }
        live.record
            .questions
            .push(labels.iter().map(|&(id, _)| id).collect());
        live.last_tuple = labels.first().map(|&(id, _)| id);
        let (a, a_us) = self.request(live, Req::AnswerBatch(labels.clone()))?;
        live.record.batches.push(labels);
        self.count_turn(b_us + a_us);
        Ok(Self::resolved(live, &a))
    }

    fn side_op(&mut self, live: &mut Live) -> Result<Step, Fail> {
        let req = match live.rng.gen_range(0u32..5) {
            0 => Req::Stats,
            1 => Req::Sql,
            2 => Req::Transcript,
            3 => live.last_tuple.map_or(Req::Stats, Req::Explain),
            _ => Req::Resume,
        };
        self.request(live, req)?;
        Ok(Step::Continue)
    }

    fn step(&mut self, live: &mut Live) -> Result<Step, Fail> {
        let mix = self.shared.workload.mix();
        let roll = live.rng.gen_range(0u32..100);
        if roll < mix.next_question {
            Ok(self.question_turn(live)?.0)
        } else if roll < mix.next_question + mix.top_k {
            self.batch_turn(live)
        } else {
            self.side_op(live)
        }
    }

    /// `CreateSession`, then the first question turn.
    fn open(&mut self, index: usize) -> Result<(Live, Step), Fail> {
        let plan = self.shared.book.get(index).map_err(Fail::Io)?;
        let mut live = Live {
            rng: StdRng::seed_from_u64(plan.mix_seed),
            plan,
            sid: 0,
            record: SessionRecord {
                index,
                ..Default::default()
            },
            last_tuple: None,
        };
        let opened = self.open_live(&mut live);
        match opened {
            Ok(step) => Ok((live, step)),
            Err(e) => {
                self.stats.sessions.push(live.record);
                Err(e)
            }
        }
    }

    fn open_live(&mut self, live: &mut Live) -> Result<Step, Fail> {
        let (c, c_us) = self.request(live, Req::Create)?;
        live.sid = c
            .get("session")
            .and_then(Json::as_u64)
            .ok_or_else(|| Fail::Op("CreateSession without a session id".into()))?;
        live.record.factorized = c.get("factorized").and_then(Json::as_bool) == Some(true);
        live.record.sampled = c.get("sampled").and_then(Json::as_bool) == Some(true);
        let (step, q_us) = self.question_turn(live)?;
        let now = Instant::now();
        if now >= self.shared.warmup_end {
            self.shared.tally().opens += 1;
        }
        self.stats.opens.push((now, c_us + q_us));
        Ok(step)
    }

    fn finish(&mut self, mut live: Live) -> Result<(), Fail> {
        let closed = self.request(&mut live, Req::Close);
        if live.record.resolved {
            self.stats.completed.push(Instant::now());
        }
        self.stats.sessions.push(live.record);
        closed.map(|_| ())
    }

    fn fail(&mut self, live: Option<Live>, fail: Fail) -> bool {
        let (message, fatal) = match fail {
            Fail::Io(m) => (m, true),
            Fail::Op(m) => (m, false),
        };
        self.stats.fail(message);
        if let Some(live) = live {
            self.stats.sessions.push(live.record);
        }
        if fatal {
            self.shared.tally().broken = true;
        }
        fatal
    }

    fn run(&mut self) {
        let per_conn = self.shared.workload.live_per_conn();
        let mut live: Vec<Live> = Vec::with_capacity(per_conn);
        loop {
            while live.len() < per_conn {
                let Some(index) = self.shared.claim() else {
                    break;
                };
                match self.open(index) {
                    Ok((l, Step::Continue)) => live.push(l),
                    Ok((l, Step::Resolved)) => {
                        if let Err(f) = self.finish(l) {
                            if self.fail(None, f) {
                                return;
                            }
                        }
                    }
                    Err(f) => {
                        if self.fail(None, f) {
                            return;
                        }
                    }
                }
            }
            if live.is_empty() {
                return;
            }
            let mut i = 0;
            while i < live.len() {
                match self.step(&mut live[i]) {
                    Ok(Step::Continue) => i += 1,
                    Ok(Step::Resolved) => {
                        let done = live.swap_remove(i);
                        if let Err(f) = self.finish(done) {
                            if self.fail(None, f) {
                                return;
                            }
                        }
                    }
                    Err(f) => {
                        let dead = live.swap_remove(i);
                        if self.fail(Some(dead), f) {
                            return;
                        }
                    }
                }
            }
        }
    }
}

/// Drive the workload over `conns` (one per thread, the first on the
/// calling thread) until the run has its time and samples. Returns the
/// connections, for the observer's requests, and the merged accounting.
pub fn drive(shared: &Shared, conns: Vec<Conn>) -> (Vec<Conn>, ConnStats) {
    let mut clients: Vec<Client<'_>> = conns
        .into_iter()
        .map(|conn| Client {
            conn,
            shared,
            stats: ConnStats::new(),
        })
        .collect();
    let (first, rest) = clients.split_at_mut(1);
    std::thread::scope(|scope| {
        for client in rest.iter_mut() {
            scope.spawn(move || client.run());
        }
        first[0].run();
    });
    let _ = shared.stopped.set(Instant::now());
    let mut stats = ConnStats::new();
    let mut out = Vec::new();
    for client in clients {
        stats.merge(client.stats);
        out.push(client.conn);
    }
    (out, stats)
}
