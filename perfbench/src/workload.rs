//! The three workloads and the seeded session plans they draw from.
//!
//! A plan fixes everything about one session before it starts: the
//! `CreateSession` line, the locally built product, the goal a truthful
//! user answers from and the seed of its turn mix. Plan `i` of a seed is
//! the same on every run, whichever connection ends up driving it, so a
//! session's request stream — and the questions the server proposes — is
//! a function of `(workload, seed, i)` alone.

use jim_core::{AtomUniverse, Engine, EngineOptions, JoinPredicate, OriginSource, SessionOrigin};
use jim_json::Json;
use jim_relation::{csv, Product, ProductId, Tuple, Value};
use jim_server::journal;
use jim_synth::random_db::{self, RandomDbConfig, RelationShape};
use jim_synth::{flights, goals, setgame, social};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Many short sessions over the built-in scenarios: transport-bound.
    Chat,
    /// Random 2-relation instances of 900–1,600 tuples: engine-bound.
    Wide,
    /// Factorized event-log self-joins, more live sessions than memory
    /// slots: journal- and construction-bound.
    Resume,
}

/// How a session spends its steps, out of 100.
#[derive(Debug, Clone, Copy)]
pub struct TurnMix {
    pub next_question: u32,
    pub top_k: u32,
}

impl Workload {
    pub fn parse(name: &str) -> Result<Workload, String> {
        match name {
            "chat" => Ok(Workload::Chat),
            "wide" => Ok(Workload::Wide),
            "resume" => Ok(Workload::Resume),
            other => Err(format!("unknown workload `{other}` (chat, wide, resume)")),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Chat => "chat",
            Workload::Wide => "wide",
            Workload::Resume => "resume",
        }
    }

    /// Session cap of the server under test.
    pub fn max_sessions(self) -> usize {
        match self {
            Workload::Resume => 2,
            _ => 100_000,
        }
    }

    /// Whether the server runs with `--data-dir`. Only `resume` needs the
    /// journal; on `chat`, ext4's journal commits on a shared virtual disk
    /// set the turn p99, which then varied 2–4× between runs.
    pub fn journaled(self) -> bool {
        matches!(self, Workload::Resume)
    }

    /// Sessions each connection keeps open at once, rotating turns across
    /// them. Above `max_sessions / 2`, most turns miss memory.
    pub fn live_per_conn(self) -> usize {
        match self {
            Workload::Resume => 4,
            _ => 1,
        }
    }

    /// The first `n` sessions of the seed define `questions_per_session`;
    /// a run always completes them, so the figure is exact for a seed.
    pub fn exact_sessions(self) -> usize {
        match self {
            Workload::Chat => 2000,
            Workload::Wide => 180,
            Workload::Resume => 250,
        }
    }

    /// Plans generated before a segment of `seconds` starts its clock
    /// (any beyond are made on first use), so building inputs does not
    /// compete with the server mid-run: twice the sessions per second
    /// the development host reached at its fastest.
    pub fn pregenerate(self, seconds: f64) -> usize {
        let per_s = match self {
            Workload::Chat => 2500.0,
            Workload::Wide => 110.0,
            Workload::Resume => 150.0,
        };
        (2.0 * per_s * seconds).ceil() as usize
    }

    /// The rest of each 100 steps are side ops (`Stats`, `Sql`,
    /// `Transcript`, `Explain`, `ResumeSession`), as in `jim-load`.
    pub fn mix(self) -> TurnMix {
        match self {
            Workload::Chat => TurnMix {
                next_question: 55,
                top_k: 20,
            },
            _ => TurnMix {
                next_question: 80,
                top_k: 20,
            },
        }
    }
}

/// One seeded session.
#[derive(Clone)]
pub struct Plan {
    pub create_line: String,
    pub source: OriginSource,
    pub strategy: Option<String>,
    pub max_product: Option<u64>,
    pub sample_seed: Option<u64>,
    pub force_sample: bool,
    /// A built-in scenario's product, shared by its sessions. Generated
    /// instances keep only their CSV (a product of the resume log holds
    /// ~0.3 MB of rows) and are rebuilt for checking.
    pub scenario: Option<Product>,
    /// Product size, for the origin the server records.
    pub size: u64,
    pub goal: JoinPredicate,
    pub mix_seed: u64,
}

impl Plan {
    /// Strategies whose choice depends only on the engine state. A
    /// seeded `random` strategy restarts its stream on resume, so only
    /// these may be evicted and still propose the same questions.
    pub fn deterministic(&self) -> bool {
        !self
            .strategy
            .as_deref()
            .is_some_and(|s| s.starts_with("random"))
    }

    /// The instance, built the way the server builds it.
    pub fn product(&self) -> Result<Product, String> {
        match &self.scenario {
            Some(p) => Ok(p.clone()),
            None => journal::build_product(&self.source),
        }
    }

    /// The tuple a question proposes, for answering it: read from the
    /// scenario's product, or decoded from the values the server sent
    /// (generated instances are integer-valued; [`crate::replay::verify`]
    /// checks those values against the rebuilt product afterwards).
    pub fn question_tuple(&self, id: u64, wire: &[&str]) -> Result<Tuple, String> {
        match &self.scenario {
            Some(p) => {
                let tuple = p
                    .tuple(ProductId(id))
                    .map_err(|e| format!("tuple {id}: {e}"))?;
                let local: Vec<String> = tuple.values().iter().map(|v| v.to_string()).collect();
                if local != wire {
                    return Err(format!(
                        "tuple {id} reads {wire:?} on the wire but {local:?} locally"
                    ));
                }
                Ok(tuple)
            }
            None => wire
                .iter()
                .map(|v| {
                    v.parse()
                        .map(Value::Int)
                        .map_err(|_| format!("tuple {id}: non-integer value {v:?}"))
                })
                .collect::<Result<Vec<_>, _>>()
                .map(Tuple::new),
        }
    }

    /// The origin the server records for this session under its default
    /// limits (`handler::create_session`'s rule: client limits clamp to
    /// the server's, oversized products factorize unless sampling is
    /// forced).
    pub fn origin(&self) -> SessionOrigin {
        let server_limit = EngineOptions::default().max_product;
        let limit = self
            .max_product
            .map_or(server_limit, |l| l.min(server_limit));
        let oversized = self.size > limit;
        SessionOrigin {
            source: self.source.clone(),
            strategy: self.strategy.clone(),
            max_product: limit,
            sample_seed: self.sample_seed.unwrap_or(0),
            sampled: oversized && self.force_sample,
            factorized: oversized && !self.force_sample,
        }
    }
}

/// splitmix64: independent per-session streams from one workload seed.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Scenario products and their atom universes, and the `wide` catalog's
/// plans, each built once per run.
#[derive(Default)]
pub struct Catalog {
    scenarios: HashMap<&'static str, (Product, Arc<AtomUniverse>)>,
    wide: HashMap<usize, Plan>,
}

impl Catalog {
    fn scenario(&mut self, name: &'static str) -> Result<(Product, Arc<AtomUniverse>), String> {
        if let Some(entry) = self.scenarios.get(name) {
            return Ok(entry.clone());
        }
        let product = jim_server::scenario::product(name)?;
        let engine =
            Engine::new(product.clone(), &EngineOptions::default()).map_err(|e| e.to_string())?;
        let entry = (product, engine.universe().clone());
        self.scenarios.insert(name, entry.clone());
        Ok(entry)
    }
}

fn create_line(
    source: &OriginSource,
    strategy: &Option<String>,
    knobs: &[(&'static str, Json)],
) -> String {
    // The origin's JSON carries the source in the wire's own shape.
    let origin = SessionOrigin {
        source: source.clone(),
        strategy: None,
        max_product: 0,
        sample_seed: 0,
        sampled: false,
        factorized: false,
    };
    let source_json = origin
        .to_json()
        .get("source")
        .cloned()
        .expect("origin JSON carries its source");
    let mut fields = vec![("op", Json::from("CreateSession")), ("source", source_json)];
    if let Some(s) = strategy {
        fields.push(("strategy", Json::from(s.as_str())));
    }
    fields.extend(knobs.iter().cloned());
    Json::object(fields).render()
}

/// Seed of the `wide` instance catalog.
const WIDE_CATALOG: u64 = 2014;
/// Instances in the `wide` catalog (see [`wide_plan`]).
const WIDE_CYCLE: usize = 18;

/// Plan session `index` of `workload` under `seed`.
pub fn plan(
    workload: Workload,
    seed: u64,
    index: usize,
    catalog: &mut Catalog,
) -> Result<Plan, String> {
    let mut rng = StdRng::seed_from_u64(mix(seed, index as u64));
    let mix_seed = rng.gen_range(0..u64::MAX);
    match workload {
        Workload::Chat => chat_plan(&mut rng, mix_seed, catalog),
        // A run over seed-drawn instances mostly measured which instances
        // the seed drew. The instances are a fixed catalog, like `chat`'s
        // built-in scenarios, made once per run and cycled so that any
        // hundred consecutive sessions hold nearly the same mix; the seed
        // drives the turn mix.
        Workload::Wide => {
            let entry = index % WIDE_CYCLE;
            let made = match catalog.wide.get(&entry) {
                Some(made) => made.clone(),
                None => {
                    let made = wide_plan(
                        &mut StdRng::seed_from_u64(mix(WIDE_CATALOG, entry as u64)),
                        entry,
                    )?;
                    catalog.wide.insert(entry, made.clone());
                    made
                }
            };
            Ok(Plan { mix_seed, ..made })
        }
        Workload::Resume => resume_plan(&mut rng, index, mix_seed),
    }
}

/// `jim-load`'s scenario and strategy mix, answered from each scenario's
/// documented goal.
fn chat_plan(rng: &mut StdRng, mix_seed: u64, catalog: &mut Catalog) -> Result<Plan, String> {
    let roll = rng.gen_range(0u32..100);
    let name = if roll < 40 {
        "flights"
    } else if roll < 80 {
        "social"
    } else {
        "setgame"
    };
    let strategy = match rng.gen_range(0u32..4) {
        0 => None,
        1 => Some("lookahead-minprune".to_string()),
        2 => Some("local-general".to_string()),
        _ => Some(format!("random:{}", rng.gen_range(1u64..1000))),
    };
    let (product, universe) = catalog.scenario(name)?;
    let features: &[&[&str]] = &[
        &["color"],
        &["shading"],
        &["number", "symbol"],
        &["color", "shading"],
    ];
    let pick = features[rng.gen_range(0..features.len())];
    let goal = match name {
        "flights" => flights::q2(&universe),
        "social" => social::two_hop_goal(&universe),
        _ => setgame::same_features_goal(&universe, pick),
    };
    let source = OriginSource::Scenario { name: name.into() };
    // setgame is sampled down so its product varies across sessions.
    let (max_product, sample_seed, force_sample) = if name == "setgame" {
        (Some(64), Some(rng.gen_range(0u64..1000)), true)
    } else {
        (None, None, false)
    };
    let mut knobs = Vec::new();
    if let (Some(m), Some(s)) = (max_product, sample_seed) {
        knobs.push(("max_product", Json::from(m)));
        knobs.push(("sample_seed", Json::from(s)));
        knobs.push(("force_sample", Json::Bool(true)));
    }
    Ok(Plan {
        create_line: create_line(&source, &strategy, &knobs),
        source,
        strategy,
        max_product,
        sample_seed,
        force_sample,
        size: product.size(),
        scenario: Some(product),
        goal,
        mix_seed,
    })
}

/// A seeded goal of `atoms` atoms (fewer if the instance has no such
/// witness) satisfied by some tuple of `product`.
fn satisfiable(product: &Product, rng: &mut StdRng, atoms: usize) -> Result<JoinPredicate, String> {
    let goal_seed = rng.gen_range(0u64..1_000_000);
    (1..=atoms)
        .rev()
        .find_map(|a| goals::satisfiable_goal(product, a, goal_seed))
        .ok_or_else(|| "instance has no satisfiable goal".to_string())
}

fn generated(
    source: OriginSource,
    strategy: Option<String>,
    size: u64,
    goal: JoinPredicate,
    mix_seed: u64,
) -> Plan {
    Plan {
        create_line: create_line(&source, &strategy, &[]),
        source,
        strategy,
        max_product: None,
        sample_seed: None,
        force_sample: false,
        scenario: None,
        size,
        goal,
        mix_seed,
    }
}

/// Inline-CSV random instances: 2 relations, arity 4–6, 30–40 rows each,
/// domain 3 (900–1,600 product tuples), under local-general. `entry` is
/// the catalog position.
///
/// Lookahead is left to `chat` and `resume`. A lookahead session's first
/// choices here cost 10–25 ms of tight vector loops, and through stretches
/// of a minute or two when the host was loaded from outside they ran
/// 1.8× slower while the rest of a turn slowed by 5–10%: with lookahead on
/// two sessions in three, the turn p99 spread by 0.70 over ten runs and
/// `turns_per_s` by 0.34; with one in six (the first version), the p99
/// also sat on the cliff where a session's choices turn cheap, and spread
/// by 0.30 and 0.32 in two sets of ten.
fn wide_plan(rng: &mut StdRng, entry: usize) -> Result<Plan, String> {
    let arity = 4 + (entry / 6) % 3;
    let config = RandomDbConfig {
        relations: vec![
            RelationShape {
                arity,
                rows: rng.gen_range(30usize..=40),
            },
            RelationShape {
                arity,
                rows: rng.gen_range(30usize..=40),
            },
        ],
        domain: 3,
        seed: rng.gen_range(0u64..u64::MAX),
    };
    let db = random_db::generate(&config);
    let relations = db
        .relations()
        .iter()
        .map(|r| (r.name().to_string(), csv::write_relation(r)))
        .collect();
    let source = OriginSource::Inline {
        relations,
        view: None,
    };
    let strategy = Some("local-general".to_string());
    let product = journal::build_product(&source)?;
    // Goals of 1–3 atoms, each size on two entries of every arity.
    let goal = satisfiable(&product, rng, 1 + entry % 3)?;
    Ok(generated(source, strategy, product.size(), goal, 0))
}

/// Event-log self-joins of 700 events over 16 nodes (490,000 tuples),
/// opened with `max_product` lowered to 100,000 on the wire, so every
/// `CreateSession` and every resume factorizes.
///
/// The log is smaller than the server's own limit would need (3,163
/// events for a 10⁷-tuple product): at 3,300 events a miss cost ~15 ms —
/// mostly re-parsing a 20 KB JSON header and the CSV — and its latency
/// moved by ±30% between runs with the host's memory contention; at 700
/// events a miss costs ~4 ms and moved by ±10%.
fn resume_plan(rng: &mut StdRng, index: usize, mix_seed: u64) -> Result<Plan, String> {
    // Fixed shape: the miss path's cost grows with the distinct edges
    // (about nodes²), so a drawn size would dominate the run-to-run spread.
    let (nodes, events, max_product) = (16, 700, 100_000);
    let log_seed = rng.gen_range(0u64..u64::MAX);
    let csv_of = |events| csv::write_relation(&social::follows_log(nodes, events, log_seed));
    let view = Some(vec!["follows".to_string(), "follows".to_string()]);
    let source = OriginSource::Inline {
        relations: vec![("follows".into(), csv_of(events))],
        view: view.clone(),
    };
    // Two of every three sessions run lookahead-minprune, the third
    // local-general: a fixed mix, the same under every seed.
    let strategy = Some(
        if index % 3 == 2 {
            "local-general"
        } else {
            "lookahead-minprune"
        }
        .to_string(),
    );
    // The goal is drawn on the log's first 64 events (the same seeded
    // stream), small enough to enumerate; the schema — hence the atom
    // universe — is the full log's, and the prefix's witness is in it.
    let prefix = OriginSource::Inline {
        relations: vec![("follows".into(), csv_of(64))],
        view,
    };
    let goal = satisfiable(&journal::build_product(&prefix)?, rng, 1 + (index / 3) % 2)?;
    Ok(Plan {
        create_line: create_line(
            &source,
            &strategy,
            &[("max_product", Json::from(max_product))],
        ),
        max_product: Some(max_product),
        ..generated(source, strategy, (events as u64).pow(2), goal, mix_seed)
    })
}

/// Plans by index, shared by the connections. Plans are made ahead of a
/// segment ([`PlanBook::prepare`]) or on first use, and dropped once
/// checked ([`PlanBook::release_below`]); a dropped plan is made again,
/// identically, if asked for.
pub struct PlanBook {
    workload: Workload,
    seed: u64,
    plans: std::sync::Mutex<(Vec<Option<Arc<Plan>>>, Catalog)>,
}

impl PlanBook {
    pub fn new(workload: Workload, seed: u64) -> PlanBook {
        PlanBook {
            workload,
            seed,
            plans: std::sync::Mutex::new((Vec::new(), Catalog::default())),
        }
    }

    pub fn get(&self, index: usize) -> Result<Arc<Plan>, String> {
        let mut guard = self
            .plans
            .lock()
            .map_err(|_| "plan book poisoned".to_string())?;
        let (plans, catalog) = &mut *guard;
        if plans.len() <= index {
            plans.resize(index + 1, None);
        }
        if let Some(plan) = &plans[index] {
            return Ok(plan.clone());
        }
        let made = Arc::new(plan(self.workload, self.seed, index, catalog)?);
        plans[index] = Some(made.clone());
        Ok(made)
    }

    /// Make plans `from..from + count` now, outside any timed window, on
    /// both cores (each thread with a scenario catalog of its own).
    pub fn prepare(&self, from: usize, count: usize) -> Result<(), String> {
        let mid = from + count / 2;
        let made = std::thread::scope(|scope| {
            let halves: Vec<_> = [from..mid, mid..from + count]
                .into_iter()
                .map(|range| {
                    scope.spawn(move || {
                        let mut catalog = Catalog::default();
                        range
                            .map(|i| Ok((i, plan(self.workload, self.seed, i, &mut catalog)?)))
                            .collect::<Result<Vec<_>, String>>()
                    })
                })
                .collect();
            halves
                .into_iter()
                .map(|half| {
                    half.join()
                        .unwrap_or_else(|_| Err("a planning thread panicked".to_string()))
                })
                .collect::<Result<Vec<_>, String>>()
        })?;
        let mut guard = self
            .plans
            .lock()
            .map_err(|_| "plan book poisoned".to_string())?;
        let plans = &mut guard.0;
        if plans.len() < from + count {
            plans.resize(from + count, None);
        }
        for (i, plan) in made.into_iter().flatten() {
            plans[i].get_or_insert_with(|| Arc::new(plan));
        }
        Ok(())
    }

    pub fn release_below(&self, index: usize) {
        if let Ok(mut guard) = self.plans.lock() {
            guard.0.iter_mut().take(index).for_each(|p| *p = None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_a_function_of_seed_and_index() {
        for workload in [Workload::Chat, Workload::Wide, Workload::Resume] {
            let a = plan(workload, 7, 3, &mut Catalog::default()).unwrap();
            let b = plan(workload, 7, 3, &mut Catalog::default()).unwrap();
            let c = plan(workload, 8, 3, &mut Catalog::default()).unwrap();
            assert_eq!(a.create_line, b.create_line);
            assert_eq!(a.mix_seed, b.mix_seed);
            assert_ne!(a.mix_seed, c.mix_seed);
        }
    }

    #[test]
    fn resume_products_factorize_and_wide_products_enumerate() {
        let r = plan(Workload::Resume, 1, 0, &mut Catalog::default()).unwrap();
        assert_eq!(r.product().unwrap().size(), r.size);
        assert!(r.origin().factorized && !r.origin().sampled);
        let w = plan(Workload::Wide, 1, 0, &mut Catalog::default()).unwrap();
        assert!((900..=1600).contains(&w.size));
        assert!(!w.origin().factorized);
    }

    #[test]
    fn generated_questions_decode_from_wire_values() {
        let w = plan(Workload::Wide, 1, 0, &mut Catalog::default()).unwrap();
        let product = w.product().unwrap();
        let tuple = product.tuple(ProductId(5)).unwrap();
        let wire: Vec<String> = tuple.values().iter().map(|v| v.to_string()).collect();
        let wire: Vec<&str> = wire.iter().map(String::as_str).collect();
        assert_eq!(w.question_tuple(5, &wire).unwrap(), tuple);
        assert!(w.question_tuple(5, &["x"]).is_err());
        let c = plan(Workload::Chat, 1, 0, &mut Catalog::default()).unwrap();
        assert!(c.question_tuple(0, &["not", "the", "tuple"]).is_err());
    }
}
