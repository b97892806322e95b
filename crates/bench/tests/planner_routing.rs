//! Routing regression for the bounded-treewidth tier: cyclic exact
//! queries whose bags fit the default budget under the fractional
//! edge-cover bound must plan `Decomposed` (not the unbudgeted naive
//! join behind the exact-mode sandwich), with answers equal to naive
//! evaluation; a zero budget must still send them to the sandwich.
//!
//! The pairs are the serving benchmark's hub triangle and Zipf `K₄`:
//! the old `min(∏ |part|, adom^|bag|)` bag estimate put them at ~1.7e9
//! and ~2.6e10 rows, far over the default budget, while their edge-cover
//! bounds are `m^1.5` and `m²`.

use cqapx_bench::experiments::{hub_triangles_db, zipf_db};
use cqapx_cq::eval::eval_naive;
use cqapx_cq::parse_cq;
use cqapx_engine::{Engine, EngineConfig, PlanKind, Request, ResponseStatus};
use cqapx_structures::Structure;

const TRIANGLE: &str = "Q() :- E(x, y), E(y, z), E(z, x)";
const TRIANGLE_ALL: &str = "Q(x, y, z) :- E(x, y), E(y, z), E(z, x)";
const K4: &str = "Q() :- E(a, b), E(a, c), E(a, d), E(b, c), E(b, d), E(c, d)";

/// Plans and runs `query` on `db` in exact mode under `config`; returns
/// the chosen tier after checking the answers against naive evaluation.
fn route(config: EngineConfig, query: &str, db: &Structure) -> PlanKind {
    let q = parse_cq(query).unwrap();
    let expected = eval_naive(&q, db);
    let engine = Engine::new(config);
    let d = engine.register_database("d", db.clone());
    let id = engine.prepare_query("q", q);
    let r = engine.execute(&Request::new(id, d));
    assert_eq!(r.status, ResponseStatus::Complete, "{query}");
    assert_eq!(r.answers, expected, "{query}: answers differ from naive");
    r.plan
}

fn cases() -> Vec<(&'static str, Structure)> {
    let mut out = Vec::new();
    for seed in [1, 7] {
        let hub = hub_triangles_db(4, 150, 300, seed);
        out.push((TRIANGLE, hub.clone()));
        out.push((TRIANGLE_ALL, hub));
        out.push((K4, zipf_db(400, 3200, 1.2, seed)));
    }
    out
}

#[test]
fn default_budget_plans_decomposed() {
    for (query, db) in cases() {
        let plan = route(EngineConfig::default(), query, &db);
        assert_eq!(plan, PlanKind::Decomposed, "{query}");
    }
}

#[test]
fn zero_budget_still_plans_sandwich() {
    let config = EngineConfig {
        naive_cost_budget: 0.0,
        ..EngineConfig::default()
    };
    for (query, db) in cases() {
        let plan = route(config.clone(), query, &db);
        assert_eq!(plan, PlanKind::Sandwich, "{query}");
    }
}
