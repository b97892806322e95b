//! The cost-based planner: picks an evaluation strategy per
//! (prepared query, registered database) pair.
//!
//! Decision ladder (cheapest guarantee first):
//!
//! 1. **Yannakakis** — the query is acyclic: `O(|D|·|Q|)`, always best.
//! 2. **Decomposed** — the query is cyclic but has a compiled
//!    bounded-treewidth plan, and the estimated bag-materialization
//!    cost fits the budget and undercuts the naive estimate:
//!    polynomial Yannakakis-over-bags evaluation. Each bag is estimated
//!    by the least of its part product, `adom^|bag|`, and the
//!    fractional edge-cover (AGM) bound `∏ |part|^{w_p}` — `m^1.5` for
//!    a triangle rather than `m³` (see [`estimate_decomposed_cost`]).
//! 3. **Naive backtracking** — the estimated join cost against *this*
//!    database's relation statistics fits the configured budget (small
//!    tableau, small database, or selective relations).
//! 4. **Approximation sandwich** — everything else: serve the certain
//!    answers `Q'(D)` of the cached `C`-approximation `Q' ⊆ Q`
//!    (guaranteed-correct under-approximation, tractable to evaluate),
//!    refining exactly only on demand.

use crate::catalog::DatabaseEntry;
use cqapx_cq::eval::{resolve_bag_strategy, BagSummary, DecomposedPlan, MatKey, MatStrategy};
use cqapx_cq::{QueryShape, VarId};
use cqapx_structures::RelId;
use std::fmt;

/// The strategy chosen for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanKind {
    /// Semijoin full reducer + bottom-up joins on the join tree.
    Yannakakis,
    /// Yannakakis over the bags of a tree decomposition (the
    /// bounded-treewidth tier for cyclic queries).
    Decomposed,
    /// Backtracking join (homomorphism search from the tableau).
    Naive,
    /// Certain answers from the cached in-class approximation.
    Sandwich,
    /// Not an evaluation strategy: admission control rejected the
    /// request before planning (see
    /// [`ResponseStatus::Shed`](crate::engine::ResponseStatus::Shed)).
    /// Never returned by [`choose_plan`].
    Shed,
}

impl fmt::Display for PlanKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PlanKind::Yannakakis => "yannakakis",
            PlanKind::Decomposed => "decomposed",
            PlanKind::Naive => "naive",
            PlanKind::Sandwich => "sandwich",
            PlanKind::Shed => "shed",
        })
    }
}

/// Why the planner picked its tier. The variant is the decision; the
/// numbers it cites live in the surrounding [`PlanDecision`], so
/// rendering the human-readable rationale ([`PlanDecision::describe`])
/// is deferred until somebody asks — the serving hot path never
/// formats a `String`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlanReason {
    /// The query is acyclic: Yannakakis, always.
    Acyclic,
    /// Some body relation is empty, so the answer is provably empty and
    /// the naive tier terminates immediately.
    ProvablyEmpty,
    /// Cyclic with a compiled decomposition whose estimate fits the
    /// budget and undercuts the naive estimate.
    DecomposedCheaper,
    /// Cyclic, but the naive estimate fits the budget on this database.
    NaiveCheap,
    /// Cyclic and expensive here: certain answers via the cached
    /// approximation.
    SandwichExpensive,
    /// Not planned at all: admission control shed the request at a
    /// queue depth of `.0` against a configured limit of `.1`. (Built
    /// by the engine, never returned by [`choose_plan`].)
    QueueFull(usize, usize),
}

/// A plan choice with its cost rationale.
#[derive(Debug, Clone)]
pub struct PlanDecision {
    /// The chosen strategy.
    pub kind: PlanKind,
    /// Estimated cost of naive backtracking on this database (branch
    /// nodes, order of magnitude); `f64::INFINITY` when saturated, `0`
    /// when some body relation is empty (the answer is provably empty).
    pub est_naive_cost: f64,
    /// Estimated cost of the decomposed tier (total bag-materialization
    /// rows, each bag bounded by the least of its part product,
    /// `adom^|bag|` and its fractional edge-cover bound; see
    /// [`estimate_decomposed_cost`]); `None` when the query has no
    /// compiled decomposition.
    pub est_decomposed_cost: Option<f64>,
    /// Width of the query's compiled tree decomposition, whether or not
    /// that tier was chosen; `None` without a compiled plan.
    pub decomposition_width: Option<usize>,
    /// The budget the estimates were compared against.
    pub naive_budget: f64,
    /// Per-bag build strategy the materializer is expected to take
    /// (mirrored through [`plan_bag_strategies`] from the same cost
    /// model, on the best cardinalities known at planning time); empty
    /// without a compiled decomposition.
    pub bag_strategies: Vec<MatStrategy>,
    /// The decision, cheap to copy; see [`PlanDecision::describe`] for
    /// the rendered rationale.
    pub reason: PlanReason,
}

impl PlanDecision {
    /// Renders the one-line human-readable rationale. Deliberately a
    /// method, not a stored `String`: requests that nobody inspects
    /// never pay for formatting.
    pub fn describe(&self) -> String {
        match self.reason {
            PlanReason::Acyclic => "query is acyclic: Yannakakis is O(|D|·|Q|)".into(),
            PlanReason::ProvablyEmpty => {
                "a body relation is empty: the answer is provably empty".into()
            }
            PlanReason::DecomposedCheaper => {
                let mut text = format!(
                    "cyclic with treewidth {}: est. {:.1e} bag rows within {NAIVE_NODE_COST_FACTOR}× of est. {:.1e} naive branch nodes",
                    self.decomposition_width.unwrap_or(0),
                    self.est_decomposed_cost.unwrap_or(f64::NAN),
                    self.est_naive_cost,
                );
                let wcoj = self
                    .bag_strategies
                    .iter()
                    .filter(|&&s| s == MatStrategy::Wcoj)
                    .count();
                if wcoj > 0 {
                    text.push_str(&format!("; {wcoj} bag(s) build multiway"));
                }
                text
            }
            PlanReason::NaiveCheap => format!(
                "cyclic but cheap here: est. {:.1e} branch nodes ≤ budget {:.1e}",
                self.est_naive_cost, self.naive_budget,
            ),
            PlanReason::SandwichExpensive => format!(
                "cyclic and expensive here (est. {:.1e} > budget {:.1e}): serving certain answers via the cached approximation",
                self.est_naive_cost, self.naive_budget,
            ),
            PlanReason::QueueFull(depth, limit) => format!(
                "admission control: queue depth {depth} over limit {limit}; request shed unplanned"
            ),
        }
    }
}

/// An order-of-magnitude upper estimate of backtracking-join work: the
/// minimum of the variable-assignment bound `adom^|vars|` and the
/// atom-by-atom bound `∏ |R_atom|`. Each atom's factor prefers the
/// **real cardinality of its cached materialization** (repeated-variable
/// filtering included) over the raw relation statistic, so estimates
/// tighten as the database's [`MaterializationCache`] warms up.
/// Saturates at `f64::INFINITY`.
///
/// **Empty-relation guard**: when any atom's relation (cached or raw)
/// has no tuples, the answer is provably empty and the estimate is an
/// exact `0` — the planner must then send the request to the naive tier
/// (which terminates immediately) instead of letting a zero factor be
/// clamped upward and skew the tier comparison.
///
/// [`MaterializationCache`]: cqapx_cq::eval::MaterializationCache
pub fn estimate_naive_cost(shape: &QueryShape, db: &DatabaseEntry) -> f64 {
    naive_cost_from(shape, db, &planning_cards(db, atom_items(shape)))
}

/// Estimated evaluation cost of a compiled [`DecomposedPlan`] on this
/// database: the summed per-bag materialization estimates, each the
/// minimum of three sound upper bounds on the bag's rows —
///
/// * the product `∏ |part|` of its parts' cardinalities;
/// * the assignment bound `adom^|bag|`;
/// * the **fractional edge-cover (AGM) bound**
///   `∏ |part|^{w_p} · adom^{u}`, where `w` is a fractional edge cover
///   of the bag's part variables (every variable's parts carry weight
///   ≥ 1) and `u` counts the label variables in no part. The cover is
///   the better of a greedy integral one and the half-weight one, both
///   linear in parts × variables: `m^1.5` for a triangle of
///   `m`-tuple relations, `m²` for a 4-clique.
///
/// Part cardinalities prefer the real cached materialization over raw
/// relation statistics, so the estimate tightens as the cache warms. An
/// empty part makes its bag free (the whole answer is provably empty).
pub fn estimate_decomposed_cost(plan: &DecomposedPlan, db: &DatabaseEntry) -> f64 {
    decomposed_cost_from(plan, db, &planning_cards(db, part_items(plan)))
}

/// The planner's mirror of the materializer's per-bag build decision:
/// resolves binary vs multiway for every bag of the compiled plan from
/// the best cardinalities available at planning time — real cached
/// materializations when present, raw relation statistics otherwise —
/// through the same cost model the build itself applies to exact part
/// sizes ([`resolve_bag_strategy`]). One cache peek for all bags.
pub fn plan_bag_strategies(plan: &DecomposedPlan, db: &DatabaseEntry) -> Vec<MatStrategy> {
    bag_strategies_from(plan, db, &planning_cards(db, part_items(plan)))
}

/// The query's atoms as `(relation, cache key)` pairs.
fn atom_items(shape: &QueryShape) -> impl Iterator<Item = (RelId, &MatKey)> + Clone {
    shape.atom_keys.iter().map(|(rel, key)| (*rel, key))
}

/// The plan's bag parts as `(relation, cache key)` pairs, in bag order.
fn part_items(plan: &DecomposedPlan) -> impl Iterator<Item = (RelId, &MatKey)> + Clone {
    plan.bag_summaries()
        .iter()
        .flat_map(|bag| bag.parts.iter().map(|part| (part.rel, &part.key)))
}

/// The best cardinality known at planning time for each item: the real
/// size of its cached materialization when present, the raw relation
/// statistic otherwise. One read-lock acquisition for all items.
fn planning_cards<'k>(
    db: &DatabaseEntry,
    items: impl Iterator<Item = (RelId, &'k MatKey)> + Clone,
) -> Vec<usize> {
    let peeked = db
        .materialized
        .peek_cardinalities(items.clone().map(|(_, key)| key));
    items
        .zip(peeked)
        .map(|((rel, _), card)| card.unwrap_or_else(|| db.rel_stats(rel).cardinality))
        .collect()
}

/// [`estimate_naive_cost`] from resolved atom cardinalities.
fn naive_cost_from(shape: &QueryShape, db: &DatabaseEntry, cards: &[usize]) -> f64 {
    if cards.contains(&0) {
        return 0.0;
    }
    let adom = db.adom_size.max(1) as f64;
    let assignment_bound = adom.powi(shape.var_count.min(1_000) as i32);
    let atom_bound: f64 = cards.iter().map(|&c| c as f64).product();
    assignment_bound.min(atom_bound)
}

/// Pairs every bag of `plan` with its slice of `cards` (part
/// cardinalities in bag order).
fn bags_with_cards<'a>(
    plan: &'a DecomposedPlan,
    cards: &'a [usize],
) -> impl Iterator<Item = (&'a BagSummary, &'a [usize])> {
    let mut rest = cards;
    plan.bag_summaries().iter().map(move |bag| {
        let (own, tail) = rest.split_at(bag.parts.len());
        rest = tail;
        (bag, own)
    })
}

/// [`estimate_decomposed_cost`] from resolved part cardinalities (in
/// bag order).
fn decomposed_cost_from(plan: &DecomposedPlan, db: &DatabaseEntry, cards: &[usize]) -> f64 {
    let adom = db.adom_size.max(1) as f64;
    bags_with_cards(plan, cards)
        .map(|(bag, cards)| bag_row_bound(bag, cards, adom))
        .sum()
}

/// The estimated rows of one bag: the least of the part product, the
/// assignment bound and the edge-cover bound (see
/// [`estimate_decomposed_cost`]). `cards` holds the bag's part
/// cardinalities; `0` when some part is empty.
fn bag_row_bound(bag: &BagSummary, cards: &[usize], adom: f64) -> f64 {
    if cards.contains(&0) {
        return 0.0;
    }
    let product: f64 = cards.iter().map(|&c| c as f64).product();
    let assignment = adom.powi(bag.label_size.min(1_000) as i32);
    let bound = product.min(assignment);
    if bag.parts.len() < 2 {
        // One part's cover bound is the part times `adom^u`: never
        // below the product.
        return bound;
    }
    bound.min(cover_bound(bag, cards, adom))
}

/// `∏ |part|^{w_p} · adom^{u}` for the better of two fractional edge
/// covers `w` of the bag's part variables (`u` = label variables in no
/// part), each built in `O(parts × variables)` on the parts' label
/// masks:
///
/// * **greedy integral** — repeatedly take the part with the least
///   `log |part|` per newly covered variable;
/// * **half** — weight 1 on every part holding a variable that lies in
///   no other part, `½` on the rest (every remaining variable lies in
///   ≥ 2 parts, so it is covered too).
///
/// Every part must be nonempty. `f64::INFINITY` when the label is wider
/// than the masks.
fn cover_bound(bag: &BagSummary, cards: &[usize], adom: f64) -> f64 {
    if bag.label_size > 64 {
        return f64::INFINITY;
    }
    let (mut once, mut twice) = (0u64, 0u64);
    for part in &bag.parts {
        twice |= once & part.var_mask;
        once |= part.var_mask;
    }
    let mut greedy = 1.0_f64;
    let mut uncovered = once;
    while uncovered != 0 {
        // The part with the least log |part| per newly covered variable
        // (scores compared by cross-multiplication).
        let (mut best, mut best_log, mut best_new) = (0, f64::INFINITY, 1u32);
        for (i, part) in bag.parts.iter().enumerate() {
            let new = (part.var_mask & uncovered).count_ones();
            if new == 0 {
                continue;
            }
            let log = approx_log2(cards[i] as f64);
            if log * (best_new as f64) < best_log * new as f64 {
                (best, best_log, best_new) = (i, log, new);
            }
        }
        greedy *= cards[best] as f64;
        uncovered &= !bag.parts[best].var_mask;
    }
    // Half cover: the parts holding a variable no other part has take
    // weight 1, the rest ½ (one square root of their product).
    let single = once & !twice;
    let (mut whole, mut halved) = (1.0_f64, 1.0_f64);
    for (part, &c) in bag.parts.iter().zip(cards) {
        if part.var_mask & single != 0 {
            whole *= c as f64;
        } else {
            halved *= c as f64;
        }
    }
    let cover = greedy.min(whole * halved.sqrt());
    match bag.label_size as u32 - once.count_ones() {
        0 => cover,
        free => cover * adom.powi(free as i32),
    }
}

/// `log₂ x` for `x ≥ 1` to within 0.09, read off the float's exponent
/// and mantissa bits. Monotone, so the greedy cover ranks parts by it
/// as by `ln` (a feasible cover stays sound whatever it picks), without
/// a libm call per candidate per step on the per-request planning path.
fn approx_log2(x: f64) -> f64 {
    let bits = x.to_bits();
    let exponent = (bits >> 52) as f64 - 1023.0;
    let mantissa = (bits & ((1 << 52) - 1)) as f64 / (1u64 << 52) as f64;
    exponent + mantissa
}

/// [`plan_bag_strategies`] from resolved part cardinalities (in bag
/// order).
fn bag_strategies_from(
    plan: &DecomposedPlan,
    db: &DatabaseEntry,
    cards: &[usize],
) -> Vec<MatStrategy> {
    let mut parts: Vec<(usize, &[VarId])> = Vec::new(); // reused per bag
    bags_with_cards(plan, cards)
        .map(|(bag, cards)| match bag.strategy {
            MatStrategy::Auto => {
                parts.clear();
                parts.extend(
                    cards
                        .iter()
                        .zip(&bag.parts)
                        .map(|(&card, p)| (card, p.schema.as_slice())),
                );
                resolve_bag_strategy(&parts, db.adom_size)
            }
            s => s,
        })
        .collect()
}

/// Relative cost of one backtracking branch node against one streamed
/// bag row, used when comparing the naive and decomposed estimates: a
/// branch node re-checks constraints and trashes the cache, a bag row
/// is a contiguous hash-join emit. Within this factor of each other,
/// the decomposed tier (whose worst case is *certain*, not estimated)
/// wins the tie.
pub const NAIVE_NODE_COST_FACTOR: f64 = 8.0;

/// Chooses the strategy for `shape` against `db`, with `naive_budget`
/// bounding the estimated cost either join tier may incur.
/// `decomposed` is the prepared query's compiled bounded-treewidth
/// plan, when it has one.
pub fn choose_plan(
    shape: &QueryShape,
    decomposed: Option<&DecomposedPlan>,
    db: &DatabaseEntry,
    naive_budget: f64,
) -> PlanDecision {
    let width = decomposed.map(|p| p.width());
    if shape.acyclic {
        return PlanDecision {
            kind: PlanKind::Yannakakis,
            est_naive_cost: estimate_naive_cost(shape, db),
            est_decomposed_cost: None,
            decomposition_width: width,
            naive_budget,
            bag_strategies: Vec::new(),
            reason: PlanReason::Acyclic,
        };
    }
    // One cache peek feeds every estimate: the atoms, then the parts.
    let cards = planning_cards(
        db,
        atom_items(shape).chain(decomposed.into_iter().flat_map(part_items)),
    );
    let (atom_cards, part_cards) = cards.split_at(shape.atom_keys.len());
    let est_naive = naive_cost_from(shape, db, atom_cards);
    let est_dec = decomposed.map(|p| decomposed_cost_from(p, db, part_cards));
    let bag_strategies = decomposed
        .map(|p| bag_strategies_from(p, db, part_cards))
        .unwrap_or_default();
    if est_naive == 0.0 {
        return PlanDecision {
            kind: PlanKind::Naive,
            est_naive_cost: 0.0,
            est_decomposed_cost: est_dec,
            decomposition_width: width,
            naive_budget,
            bag_strategies,
            reason: PlanReason::ProvablyEmpty,
        };
    }
    if let (Some(_), Some(est)) = (decomposed, est_dec) {
        if est <= naive_budget && est <= est_naive * NAIVE_NODE_COST_FACTOR {
            return PlanDecision {
                kind: PlanKind::Decomposed,
                est_naive_cost: est_naive,
                est_decomposed_cost: est_dec,
                decomposition_width: width,
                naive_budget,
                bag_strategies,
                reason: PlanReason::DecomposedCheaper,
            };
        }
    }
    if est_naive <= naive_budget {
        PlanDecision {
            kind: PlanKind::Naive,
            est_naive_cost: est_naive,
            est_decomposed_cost: est_dec,
            decomposition_width: width,
            naive_budget,
            bag_strategies,
            reason: PlanReason::NaiveCheap,
        }
    } else {
        PlanDecision {
            kind: PlanKind::Sandwich,
            est_naive_cost: est_naive,
            est_decomposed_cost: est_dec,
            decomposition_width: width,
            naive_budget,
            bag_strategies,
            reason: PlanReason::SandwichExpensive,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use cqapx_cq::parse_cq;
    use cqapx_structures::Structure;

    fn shape(q: &str) -> QueryShape {
        QueryShape::of(&parse_cq(q).unwrap())
    }

    fn dec(q: &str) -> DecomposedPlan {
        let q = parse_cq(q).unwrap();
        let k = cqapx_cq::treewidth_of_query(&q);
        DecomposedPlan::compile(&q, k).unwrap()
    }

    fn db(n: usize, edges: &[(u32, u32)]) -> std::sync::Arc<crate::catalog::DatabaseEntry> {
        let mut c = Catalog::new();
        let id = c.register_database("d", Structure::digraph(n, edges));
        c.database(id).unwrap()
    }

    #[test]
    fn acyclic_always_yannakakis() {
        let s = shape("Q(x) :- E(x,y), E(y,z)");
        let d = db(3, &[(0, 1), (1, 2)]);
        assert_eq!(choose_plan(&s, None, &d, 1e6).kind, PlanKind::Yannakakis);
        assert_eq!(choose_plan(&s, None, &d, 0.0).kind, PlanKind::Yannakakis);
    }

    #[test]
    fn cyclic_with_decomposition_goes_decomposed() {
        let q = "Q() :- E(x,y), E(y,z), E(z,x)";
        let s = shape(q);
        let plan = dec(q);
        let d = db(3, &[(0, 1), (1, 2), (2, 0)]);
        let p = choose_plan(&s, Some(&plan), &d, 1e6);
        assert_eq!(p.kind, PlanKind::Decomposed);
        assert_eq!(p.decomposition_width, Some(2));
        assert!(p.est_decomposed_cost.unwrap() <= p.est_naive_cost * NAIVE_NODE_COST_FACTOR);
    }

    #[test]
    fn cyclic_without_decomposition_goes_naive() {
        let s = shape("Q() :- E(x,y), E(y,z), E(z,x)");
        let d = db(3, &[(0, 1), (1, 2), (2, 0)]);
        let p = choose_plan(&s, None, &d, 1e6);
        assert_eq!(p.kind, PlanKind::Naive);
        assert_eq!(p.decomposition_width, None);
        assert!(p.est_naive_cost <= 27.0 + 1e-9);
    }

    #[test]
    fn cyclic_large_db_goes_sandwich() {
        let s = shape("Q() :- E(x,y), E(y,z), E(z,x)");
        let d = db(3, &[(0, 1), (1, 2), (2, 0)]);
        let p = choose_plan(&s, None, &d, 4.0);
        assert_eq!(p.kind, PlanKind::Sandwich);
        // With a decomposition whose estimate (the triangle bag's edge
        // cover, 3^1.5 ≈ 5.2) also exceeds the budget, still sandwich.
        let q = "Q() :- E(x,y), E(y,z), E(z,x)";
        let p = choose_plan(&s, Some(&dec(q)), &d, 4.0);
        assert_eq!(p.kind, PlanKind::Sandwich);
        assert!(p.est_decomposed_cost.unwrap() > 4.0);
    }

    #[test]
    fn estimates_use_relation_stats() {
        // 2 tuples → atom bound 2^3 = 8 beats adom^3 = 27.
        let s = shape("Q() :- E(x,y), E(y,z), E(z,x)");
        let d = db(3, &[(0, 1), (1, 2)]);
        assert!(estimate_naive_cost(&s, &d) <= 8.0 + 1e-9);
    }

    #[test]
    fn empty_relation_short_circuits_to_naive() {
        let q = "Q() :- E(x,y), E(y,z), E(z,x)";
        let s = shape(q);
        let d = db(3, &[]);
        assert_eq!(estimate_naive_cost(&s, &d), 0.0);
        // Even with a tiny budget and a decomposition on offer, the
        // provably-empty answer goes to the (instant) naive tier.
        let p = choose_plan(&s, Some(&dec(q)), &d, 0.0);
        assert_eq!(p.kind, PlanKind::Naive);
        assert_eq!(p.reason, PlanReason::ProvablyEmpty);
        assert!(p.describe().contains("provably empty"));
    }

    #[test]
    fn describe_renders_the_cited_numbers() {
        let s = shape("Q() :- E(x,y), E(y,z), E(z,x)");
        let d = db(3, &[(0, 1), (1, 2), (2, 0)]);
        let p = choose_plan(&s, None, &d, 10.0);
        assert_eq!(p.reason, PlanReason::SandwichExpensive);
        let text = p.describe();
        assert!(text.contains("budget 1.0e1"), "text: {text}");
        let p = choose_plan(&s, None, &d, 1e6);
        assert_eq!(p.reason, PlanReason::NaiveCheap);
        assert!(p.describe().contains("cheap here"));
    }

    #[test]
    fn decomposed_estimate_survives_empty_cached_part() {
        // A loop atom inside a cycle: on a loop-free database the
        // E(x,x)-shaped part materializes EMPTY, so the bag holding it
        // short-circuits to zero rows mid-bag. The estimates of every
        // *later* bag must still read their own cached cardinalities
        // (regression: an early break used to desynchronize the shared
        // peek list and pair later bags with leftover entries).
        let q = parse_cq("Q() :- E(x,x), E(x,y), E(y,z), E(z,x)").unwrap();
        let plan = DecomposedPlan::compile(&q, cqapx_cq::treewidth_of_query(&q)).unwrap();
        let edges: Vec<(u32, u32)> = (0..20u32).map(|i| (i, (i + 1) % 20)).collect();
        let d = db(20, &edges);
        // Warm the cache (materializes every bag and part, including
        // the empty loop part).
        let (answers, stats) = plan.eval_cached(&d.structure, Some(&d.materialized));
        assert!(answers.is_empty() && stats.misses > 0);
        let est = estimate_decomposed_cost(&plan, &d);
        // Independent recomputation from the same public inputs, one
        // peek per part, strictly per bag.
        let adom = d.adom_size as f64;
        let mut expected = 0.0_f64;
        for bag in plan.bag_summaries() {
            let cards: Vec<usize> = bag
                .parts
                .iter()
                .map(|part| {
                    d.materialized
                        .peek_cardinality(&part.key)
                        .unwrap_or_else(|| d.rel_stats(part.rel).cardinality)
                })
                .collect();
            let rows: f64 = cards.iter().map(|&c| c as f64).product();
            if rows > 0.0 {
                expected += rows
                    .min(adom.powi(bag.label_size as i32))
                    .min(cover_bound(bag, &cards, adom));
            }
        }
        assert_eq!(est, expected);
    }

    #[test]
    fn decomposed_estimate_caps_at_assignment_bound() {
        let q = "Q() :- E(x,y), E(y,z), E(z,x)";
        let plan = dec(q);
        // Dense-ish db: the product of three edge relations would be
        // m^3, but the bag bound is adom^3.
        let edges: Vec<(u32, u32)> = (0..6u32)
            .flat_map(|u| (0..6u32).filter(move |&v| v != u).map(move |v| (u, v)))
            .collect();
        let d = db(6, &edges);
        let est = estimate_decomposed_cost(&plan, &d);
        let bags = plan.bag_summaries().len() as f64;
        assert!(est <= bags * 6f64.powi(3) + 1e-9, "est {est} too high");
        assert!(est > 0.0);
    }

    /// The bag holding every part of `plan` (its widest bag).
    fn widest_bag(plan: &DecomposedPlan) -> &BagSummary {
        plan.bag_summaries()
            .iter()
            .max_by_key(|b| (b.label_size, b.parts.len()))
            .expect("a plan has bags")
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * b.abs().max(1.0)
    }

    #[test]
    fn triangle_bag_is_bounded_by_m_to_the_three_halves() {
        let plan = dec("Q() :- E(x,y), E(y,z), E(z,x)");
        let bag = widest_bag(&plan);
        assert_eq!((bag.label_size, bag.parts.len()), (3, 3));
        for m in [4usize, 100, 2_100] {
            let rows = bag_row_bound(bag, &[m, m, m], 1e6);
            assert!(close(rows, (m as f64).powf(1.5)), "m {m}: {rows}");
        }
        // On a real database: 16 disjoint edges over 32 nodes, so the
        // product (16³) and the assignment bound (32³) both lose to 16^1.5.
        let edges: Vec<(u32, u32)> = (0..16u32).map(|i| (2 * i, 2 * i + 1)).collect();
        let d = db(32, &edges);
        let est = estimate_decomposed_cost(&plan, &d);
        let expected: f64 = plan
            .bag_summaries()
            .iter()
            .map(|b| bag_row_bound(b, &vec![16; b.parts.len()], 32.0))
            .sum();
        assert!(close(est, expected), "est {est} vs {expected}");
        assert!(est < 16f64.powi(3));
    }

    #[test]
    fn four_clique_bag_is_bounded_by_m_squared() {
        let plan = dec("Q() :- E(a,b), E(a,c), E(a,d), E(b,c), E(b,d), E(c,d)");
        let bag = widest_bag(&plan);
        assert_eq!((bag.label_size, bag.parts.len()), (4, 6));
        for m in [4usize, 3_200] {
            let rows = bag_row_bound(bag, &[m; 6], 1e6);
            assert!(close(rows, (m as f64).powi(2)), "m {m}: {rows}");
        }
    }

    #[test]
    fn uncovered_label_variable_multiplies_by_adom() {
        // A width-2 decomposition of the 6-cycle has connector bags: a
        // label variable that none of the bag's own parts mentions.
        let plan = dec("Q() :- E(a,b), E(b,c), E(c,d), E(d,e), E(e,f), E(f,a)");
        let bag = plan
            .bag_summaries()
            .iter()
            .find(|b| b.parts.len() == 1 && b.label_size == 3)
            .expect("a bag with one edge part and one connector variable");
        assert!(close(cover_bound(bag, &[50], 7.0), 50.0 * 7.0));
        // The part product needs no connector factor, so it wins.
        assert!(close(bag_row_bound(bag, &[50], 7.0), 50.0));
        // A connector-only bag (no parts) is bounded by adom^|bag| alone.
        let connector = BagSummary {
            label_size: 2,
            strategy: MatStrategy::Auto,
            parts: Vec::new(),
        };
        assert!(close(cover_bound(&connector, &[], 7.0), 49.0));
    }

    #[test]
    fn empty_part_makes_the_bag_free() {
        let plan = dec("Q() :- E(x,y), E(y,z), E(z,x)");
        let bag = widest_bag(&plan);
        assert_eq!(bag_row_bound(bag, &[0, 9, 9], 5.0), 0.0);
        assert_eq!(bag_row_bound(bag, &[9, 9, 0], 5.0), 0.0);
        // On an edgeless database every bag with a part is free; only
        // part-less connector bags (the one-row "true" relation) count.
        let connectors = plan
            .bag_summaries()
            .iter()
            .filter(|b| b.parts.is_empty())
            .count();
        assert_eq!(
            estimate_decomposed_cost(&plan, &db(3, &[])),
            connectors as f64
        );
    }

    #[test]
    fn bound_never_exceeds_product_or_assignment_bound() {
        let queries = [
            "Q() :- E(x,y), E(y,z), E(z,x)",
            "Q() :- E(a,b), E(a,c), E(a,d), E(b,c), E(b,d), E(c,d)",
            "Q() :- E(a,b), E(b,c), E(c,d), E(d,e), E(e,f), E(f,a)",
            "Q() :- E(x,x), E(x,y), E(y,z), E(z,x)",
            "Q() :- E(h,a), E(h,b), E(h,c), E(a,b), E(b,c), E(c,a)",
        ];
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        for q in queries {
            let plan = dec(q);
            for _ in 0..50 {
                for bag in plan.bag_summaries() {
                    let cards: Vec<usize> = bag
                        .parts
                        .iter()
                        .map(|_| {
                            state = state
                                .wrapping_mul(6_364_136_223_846_793_005)
                                .wrapping_add(1);
                            1 + (state >> 33) as usize % 5_000
                        })
                        .collect();
                    let adom = 1.0 + (state >> 40) as f64 % 800.0;
                    let old = cards
                        .iter()
                        .map(|&c| c as f64)
                        .product::<f64>()
                        .min(adom.powi(bag.label_size as i32));
                    let new = bag_row_bound(bag, &cards, adom);
                    assert!(new <= old, "{q}: {new} > {old} on {cards:?}, adom {adom}");
                    assert!(new >= 1.0, "{q}: nonempty parts bound at least one row");
                }
            }
        }
    }

    #[test]
    fn choose_plan_matches_the_public_estimates() {
        let q = "Q() :- E(x,x), E(x,y), E(y,z), E(z,x)";
        let s = shape(q);
        let plan = dec(q);
        let edges: Vec<(u32, u32)> = (0..20u32).map(|i| (i, (i * 7 + 3) % 20)).collect();
        let d = db(20, &edges);
        for _ in 0..2 {
            let p = choose_plan(&s, Some(&plan), &d, 1e6);
            assert_eq!(p.est_naive_cost, estimate_naive_cost(&s, &d));
            assert_eq!(
                p.est_decomposed_cost,
                Some(estimate_decomposed_cost(&plan, &d))
            );
            assert_eq!(p.bag_strategies, plan_bag_strategies(&plan, &d));
            // Second round: the same against a warm cache.
            plan.eval_cached(&d.structure, Some(&d.materialized));
        }
    }

    mod cover_soundness {
        use super::*;
        use cqapx_cq::eval::MatCacheStats;
        use cqapx_par::ThreadBudget;
        use proptest::prelude::*;

        /// A random digraph query over 3–5 variables, loops allowed.
        fn query() -> impl Strategy<Value = String> {
            (3..=5u32).prop_flat_map(|n| {
                proptest::collection::vec((0..n, 0..n), 3..=(2 * n as usize)).prop_map(|edges| {
                    let atoms: Vec<String> = edges
                        .iter()
                        .map(|(a, b)| format!("E(x{a}, x{b})"))
                        .collect();
                    format!("Q() :- {}", atoms.join(", "))
                })
            })
        }

        fn digraph() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
            (2..=9usize).prop_flat_map(|n| {
                proptest::collection::vec((0..n as u32, 0..n as u32), 0..=(4 * n))
                    .prop_map(move |edges| (n, edges))
            })
        }

        /// Every bag's estimate is at least its materialized row count,
        /// from raw statistics (cold) and from cached part sizes (warm).
        fn check(plan: &DecomposedPlan, d: &DatabaseEntry) {
            let sources: Vec<_> = plan.ir().materialize_sources().collect();
            prop_assert_eq!(sources.len(), plan.bag_summaries().len());
            let adom = d.adom_size.max(1) as f64;
            let cards = planning_cards(d, part_items(plan));
            let mut total = 0.0;
            for ((bag, cards), source) in bags_with_cards(plan, &cards).zip(&sources) {
                let est = bag_row_bound(bag, cards, adom);
                total += est;
                let mut stats = MatCacheStats::default();
                let rows = source
                    .materialize(&d.structure, None, &mut stats, ThreadBudget::shared())
                    .len();
                prop_assert!(
                    est >= rows as f64,
                    "bag estimate {} below {} materialized rows (cards {:?})",
                    est,
                    rows,
                    cards
                );
            }
            prop_assert_eq!(total, estimate_decomposed_cost(plan, d));
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            #[test]
            fn bag_estimate_bounds_materialized_rows(q in query(), g in digraph()) {
                let cq = parse_cq(&q).unwrap();
                let s = QueryShape::of(&cq);
                prop_assume!(!s.acyclic && s.treewidth <= 3);
                let plan = DecomposedPlan::compile(&cq, s.treewidth).unwrap();
                let d = db(g.0, &g.1);
                check(&plan, &d);
                plan.eval_cached(&d.structure, Some(&d.materialized));
                check(&plan, &d);
            }
        }
    }
}
