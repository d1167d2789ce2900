//! A data-aware strategy: use value statistics to ask about *key-like*
//! atoms first.
//!
//! JIM assumes no metadata, but the raw data itself hints at which
//! equalities are intentional: a foreign-key atom is **selective** (few
//! product tuples satisfy it), while accidental equalities over small
//! domains are common. This strategy scores each informative candidate by
//! the rarest atom its signature satisfies — tuples witnessing a rare
//! equality are the ones whose answer most directly confirms or kills a
//! key-join hypothesis. It is "local" in cost (statistics are collected
//! once, scoring is O(atoms)) but informed by the instance, sitting
//! between the paper's local and lookahead families; ablation A5 measures
//! where that lands.

use crate::engine::{CandidateView, Engine};
use crate::strategy::{ranked, Strategy};
use jim_relation::stats::JoinStats;
use jim_relation::ProductId;

/// Statistics-guided candidate selection (see module docs).
#[derive(Debug, Clone, Default)]
pub struct DataAware {
    /// Per-atom selectivity in `[0, 1]`, computed lazily from the engine's
    /// product on first use (the instance is immutable during a session,
    /// so the numbers never go stale).
    selectivity: Option<Vec<f64>>,
}

impl DataAware {
    /// A fresh, not-yet-fitted strategy.
    pub fn new() -> Self {
        DataAware::default()
    }

    fn fit(&mut self, engine: &Engine) -> &[f64] {
        if self.selectivity.is_none() {
            let product = engine.product();
            let schema = product.schema();
            let universe = engine.universe();
            let stats = JoinStats::collect(product.relations(), schema)
                .expect("engine schema matches its relations");
            let sel: Vec<f64> = universe
                .atoms()
                .iter()
                .map(|atom| {
                    stats.atom_selectivity(atom.a, atom.b).unwrap_or_else(|_| {
                        // Intra-relation atom (AllPairs scope): selectivity
                        // by row scan of the one relation involved.
                        let (rel, la) = schema.locate(atom.a).expect("atom in schema");
                        let (_, lb) = schema.locate(atom.b).expect("atom in schema");
                        let r = &product.relations()[rel];
                        if r.is_empty() {
                            return 0.0;
                        }
                        let hits = r.rows().iter().filter(|t| t[la] == t[lb]).count();
                        hits as f64 / r.len() as f64
                    })
                })
                .collect();
            self.selectivity = Some(sel);
        }
        self.selectivity.as_deref().expect("just fitted")
    }
}

impl Strategy for DataAware {
    fn name(&self) -> &'static str {
        "data-aware"
    }

    fn choose(&mut self, engine: &Engine, candidates: &CandidateView<'_>) -> Option<ProductId> {
        self.top_k(engine, candidates, 1).first().copied()
    }

    fn top_k(
        &mut self,
        engine: &Engine,
        candidates: &CandidateView<'_>,
        k: usize,
    ) -> Vec<ProductId> {
        let sel = self.fit(engine);
        // Score: 1 − (selectivity of the rarest atom satisfied). A tuple
        // satisfying a near-key atom scores close to 1; the empty
        // signature (satisfies nothing interesting) scores 0.
        ranked(candidates.candidates(), |c| {
            c.restricted_sig
                .iter()
                .map(|i| 1.0 - sel[i])
                .fold(0.0f64, f64::max)
        })
        .into_iter()
        .take(k)
        .map(|c| c.representative)
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineOptions;
    use crate::label::Label;
    use crate::predicate::JoinPredicate;
    use crate::strategy::{choose_next, top_k_next};
    use jim_relation::{tup, DataType, Product, Relation, RelationSchema};

    /// A relation pair with one key-like atom (id ≍ fk, selectivity 1/n)
    /// and one noisy atom (flag ≍ tag over a 2-value domain, selectivity
    /// ~1/2).
    fn keyed_instance() -> (Relation, Relation) {
        let left = Relation::new(
            RelationSchema::of("l", &[("id", DataType::Int), ("flag", DataType::Int)]).unwrap(),
            (0..8).map(|i| tup![i as i64, (i % 2) as i64]).collect(),
        )
        .unwrap();
        let right = Relation::new(
            RelationSchema::of("r", &[("fk", DataType::Int), ("tag", DataType::Int)]).unwrap(),
            (0..8)
                .map(|i| tup![i as i64, ((i / 2) % 2) as i64])
                .collect(),
        )
        .unwrap();
        (left, right)
    }

    #[test]
    fn first_question_witnesses_the_key_atom() {
        let (l, r) = keyed_instance();
        let p = Product::new(vec![&l, &r]).unwrap();
        let e = Engine::new(p, &EngineOptions::default()).unwrap();
        let u = e.universe().clone();
        let key = u.id_by_names((0, "id"), (1, "fk")).unwrap();

        let mut s = DataAware::new();
        let pick = choose_next(&mut s, &e).unwrap();
        let tuple = e.product().tuple(pick).unwrap();
        let sig = u.signature(&tuple);
        assert!(
            sig.contains(key.index()),
            "data-aware should probe the key atom first, picked {sig:?}"
        );
    }

    #[test]
    fn converges_on_fk_goal() {
        let (l, r) = keyed_instance();
        let p = Product::new(vec![&l, &r]).unwrap();
        let mut e = Engine::new(p, &EngineOptions::default()).unwrap();
        let u = e.universe().clone();
        let key = u.id_by_names((0, "id"), (1, "fk")).unwrap();
        let goal = JoinPredicate::of(u, [key]);

        let mut s = DataAware::new();
        let mut steps = 0;
        while let Some(id) = choose_next(&mut s, &e) {
            let t = e.product().tuple(id).unwrap();
            e.label(id, Label::from_bool(goal.selects(&t))).unwrap();
            steps += 1;
            assert!(steps <= 64);
        }
        assert!(e.is_resolved());
        assert!(e.result().instance_equivalent(&goal, e.product()).unwrap());
        assert!(steps <= 10, "{steps} steps");
    }

    #[test]
    fn statistics_fitted_once() {
        let (l, r) = keyed_instance();
        let p = Product::new(vec![&l, &r]).unwrap();
        let e = Engine::new(p, &EngineOptions::default()).unwrap();
        let mut s = DataAware::new();
        assert!(s.selectivity.is_none());
        let _ = choose_next(&mut s, &e);
        assert!(s.selectivity.is_some());
        let first = s.selectivity.clone();
        let _ = choose_next(&mut s, &e);
        assert_eq!(s.selectivity, first);
    }

    #[test]
    fn works_with_all_pairs_scope() {
        use crate::atoms::AtomScope;
        let (l, r) = keyed_instance();
        let p = Product::new(vec![&l, &r]).unwrap();
        let opts = EngineOptions {
            scope: AtomScope::AllPairs,
            ..Default::default()
        };
        let e = Engine::new(p, &opts).unwrap();
        // Intra-relation atoms take the row-scan selectivity path.
        let mut s = DataAware::new();
        assert!(choose_next(&mut s, &e).is_some());
        let sel = s.selectivity.as_ref().unwrap();
        assert_eq!(sel.len(), e.universe().len());
        assert!(sel.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn top_k_returns_distinct() {
        let (l, r) = keyed_instance();
        let p = Product::new(vec![&l, &r]).unwrap();
        let e = Engine::new(p, &EngineOptions::default()).unwrap();
        let ids = top_k_next(&mut DataAware::new(), &e, 3);
        let set: std::collections::HashSet<_> = ids.iter().collect();
        assert_eq!(ids.len(), set.len());
        assert!(!ids.is_empty());
    }
}
