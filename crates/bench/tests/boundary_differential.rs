//! Differential property tests for the answer boundary — the one pass
//! from a plan's output relation of dense codes to the decoded answer
//! set. `AcyclicPlan` and `DecomposedPlan` answers must equal naive
//! evaluation on digraphs whose active domain has **interior gaps**
//! (isolated nodes below active ones, so the domain dictionary is not
//! the identity and every answer is decoded), cold and warm cache,
//! under thread budgets {1, 2}. Heads permute, duplicate and drop body
//! variables; the 3- and 4-column heads pack into one word, a 0-column
//! head is the Boolean answer.

use cqapx_cq::eval::{
    eval_naive, AcyclicPlan, DecomposedPlan, MatCacheStats, MaterializationCache,
};
use cqapx_cq::{parse_cq, treewidth_of_query};
use cqapx_par::ThreadBudget;
use cqapx_structures::{Element, Structure};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Acyclic queries: hop chains, forks and a star, with permuted and
/// duplicated head variables.
const ACYCLIC: [&str; 8] = [
    "Q(x, z) :- E(x, y), E(y, z)",
    "Q(z, x) :- E(x, y), E(y, z)",
    "Q(x, w) :- E(x, y), E(y, z), E(z, w)",
    "Q(x, y, z) :- E(x, y), E(x, z)",
    "Q(z, x, z, y) :- E(x, y), E(y, z), E(z, w)",
    "Q(y, y) :- E(x, y), E(y, x)",
    "Q(c, a, b) :- E(c, a), E(c, b), E(c, d)",
    "Q() :- E(x, y), E(y, z)",
];

/// Cyclic queries for the decomposed tier: a triangle, a 4-cycle with
/// a duplicated head variable, and a triangle with a pendant edge.
const CYCLIC: [&str; 4] = [
    "Q(x, y, z) :- E(x, y), E(y, z), E(z, x)",
    "Q(a, c, a) :- E(a, b), E(b, c), E(c, d), E(d, a)",
    "Q(w, x) :- E(x, y), E(y, z), E(z, x), E(x, w)",
    "Q() :- E(x, y), E(y, z), E(z, x)",
];

/// A digraph on `n` nodes whose edges touch only the nodes outside a
/// random isolated set. Node 1 is isolated unless `dense`, and an edge
/// into node `n - 1` keeps the top of the universe active, so the
/// dictionary has an interior gap whenever `dense` is false.
fn gapped_digraph(max_n: usize) -> impl Strategy<Value = Structure> {
    (4..=max_n, any::<u64>(), any::<bool>()).prop_flat_map(|(n, isolated, dense)| {
        proptest::collection::vec((any::<u32>(), any::<u32>()), 1..=(3 * n)).prop_map(
            move |picks| {
                let active: Vec<u32> = (0..n as u32)
                    .filter(|&v| v == 0 || v as usize == n - 1 || isolated >> (v % 64) & 1 == 0)
                    .filter(|&v| dense || v != 1)
                    .collect();
                let pick = |x: u32| active[x as usize % active.len()];
                let mut edges: Vec<(u32, u32)> =
                    picks.iter().map(|&(a, b)| (pick(a), pick(b))).collect();
                edges.push((0, n as u32 - 1));
                Structure::digraph(n, &edges)
            },
        )
    })
}

/// Runs one plan cold and warm through a fresh cache at thread budgets
/// 1 and 2, asserting every run reproduces `expected`.
fn check_runs<F>(eval: F, expected: &BTreeSet<Vec<Element>>, label: &str)
where
    F: Fn(Option<&MaterializationCache>, &ThreadBudget) -> (BTreeSet<Vec<Element>>, MatCacheStats),
{
    for threads in [1, 2] {
        let budget = ThreadBudget::new(threads);
        let cache = MaterializationCache::new();
        let (cold, _) = eval(Some(&cache), &budget);
        assert_eq!(&cold, expected, "cold run at {threads} threads on {label}");
        let (warm, warm_stats) = eval(Some(&cache), &budget);
        assert_eq!(&warm, expected, "warm run at {threads} threads on {label}");
        assert_eq!(warm_stats.misses, 0, "warm run re-materialized on {label}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `AcyclicPlan` ≡ naive on gapped digraphs.
    #[test]
    fn acyclic_boundary_equals_naive(d in gapped_digraph(40)) {
        for text in ACYCLIC {
            let q = parse_cq(text).unwrap();
            let plan = AcyclicPlan::compile(&q).expect("acyclic");
            let expected = eval_naive(&q, &d);
            check_runs(|c, b| plan.eval_cached_budget(&d, c, b), &expected, text);
        }
    }

    /// `DecomposedPlan` ≡ naive on gapped digraphs.
    #[test]
    fn decomposed_boundary_equals_naive(d in gapped_digraph(24)) {
        for text in CYCLIC {
            let q = parse_cq(text).unwrap();
            let plan = DecomposedPlan::compile(&q, treewidth_of_query(&q))
                .expect("compiles at its exact treewidth");
            let expected = eval_naive(&q, &d);
            check_runs(|c, b| plan.eval_cached_budget(&d, c, b), &expected, text);
        }
    }
}

/// The strategy does produce the gapped dictionaries the suite is
/// about: most draws are not the identity.
#[test]
fn gapped_digraphs_have_non_identity_dictionaries() {
    let mut rng = proptest::test_runner::TestRng::deterministic("gapped");
    let strategy = gapped_digraph(40);
    let mut gapped = 0;
    for _ in 0..50 {
        let d = strategy.generate(&mut rng).expect("no rejections");
        gapped += usize::from(!d.domain_dict().is_identity());
    }
    assert!(
        gapped >= 20,
        "only {gapped} of 50 draws have a gapped domain"
    );
}
