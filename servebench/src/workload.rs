//! The three workloads: databases, queries and the request stream, all
//! generated from the workload seed. The engine only ever sees the
//! generated structures and query texts.

use cqapx_bench::experiments::{hub_triangles_db, zipf_db};
use cqapx_bench::workloads::{layered_dag, random_cyclic_query, random_db, two_rel_reversed_db};
use cqapx_cq::{parse_cq, ConjunctiveQuery};
use cqapx_engine::EvalMode;
use cqapx_structures::{Element, Structure};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seed of the ad-hoc query pool (see [`adhoc_certain`]).
const POOL_SEED: u64 = 0x0C0F_FEE5;
/// Operations per engine on `adhoc_certain` (see
/// [`Workload::segment_ops`]); each segment is one window.
const SEGMENT_OPS: u64 = 2000;

pub const NAMES: [&str; 3] = ["large_output", "small_output", "adhoc_certain"];

/// A query of the workload: standing (prepared once at set-up) or an
/// ad-hoc isomorphism class (re-submitted as fresh, renamed text).
pub struct QuerySpec {
    pub name: String,
    pub text: String,
    pub cq: ConjunctiveQuery,
}

/// A distinct (query, database) pair and how many requests of each
/// deck of requests it gets.
pub struct Pair {
    pub query: usize,
    pub db: usize,
    pub weight: u32,
}

pub struct Workload {
    pub name: &'static str,
    pub mode: EvalMode,
    pub clients: usize,
    /// `true`: every request submits fresh query text (`parse_cq` +
    /// `prepare_query` + `execute`); `false`: standing prepared queries.
    pub adhoc: bool,
    /// Planner budget; `0.0` sends every cyclic query to the
    /// approximation tier.
    pub naive_cost_budget: f64,
    /// Every `n`-th operation of a client re-registers a tenant.
    pub reregister_every: Option<u64>,
    /// Most operations one engine serves in an untraced run before a
    /// fresh one is set up: bounds the ad-hoc catalog's growth by a fixed
    /// number of operations, so `peak_rss_mb` does not follow the
    /// machine's speed. `None`: time-bounded segments only.
    pub segment_ops: Option<u64>,
    pub dbs: Vec<(String, Structure)>,
    pub queries: Vec<QuerySpec>,
    pub pairs: Vec<Pair>,
}

/// One client call.
pub enum Op {
    /// Evaluate a pair; `text` is the renamed query text of an ad-hoc op.
    Query { pair: usize, text: Option<String> },
    /// Re-register a tenant database under its name.
    Reregister { db: usize },
}

fn pair(query: usize, db: usize, weight: u32) -> Pair {
    Pair { query, db, weight }
}

fn spec(name: &str, text: &str) -> QuerySpec {
    QuerySpec {
        name: name.to_string(),
        text: text.to_string(),
        cq: parse_cq(text).expect("workload query parses"),
    }
}

fn sub_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i.wrapping_mul(0xD1B5_4A32_D192_ED03))
        ^ 0x5851_F42D_4C95_7F2D
}

pub fn build(name: &str, seed: u64, threads: usize) -> Option<Workload> {
    let w = match name {
        "large_output" => large_output(seed),
        "small_output" => small_output(seed),
        "adhoc_certain" => adhoc_certain(seed, threads),
        _ => return None,
    };
    Some(w)
}

/// One client's request stream. Requests are dealt from a shuffled
/// deck that holds every pair `weight` times, so each full deck has
/// exactly the workload's mix and a run's mix does not depend on luck.
pub struct Stream {
    rng: StdRng,
    deck: Vec<usize>,
    pos: usize,
    issued: u64,
}

impl Stream {
    pub fn new(w: &Workload, seed: u64, client: usize) -> Stream {
        let deck = w
            .pairs
            .iter()
            .enumerate()
            .flat_map(|(i, p)| std::iter::repeat_n(i, p.weight as usize))
            .collect::<Vec<_>>();
        Stream {
            rng: StdRng::seed_from_u64(sub_seed(seed, 1000 + client as u64)),
            pos: deck.len(),
            deck,
            issued: 0,
        }
    }

    /// The client's next operation.
    pub fn next(&mut self, w: &Workload) -> Op {
        self.issued += 1;
        if let Some(n) = w.reregister_every {
            if self.issued.is_multiple_of(n) {
                return Op::Reregister {
                    db: self.rng.gen_range(0..w.dbs.len()),
                };
            }
        }
        if self.pos == self.deck.len() {
            for i in (1..self.deck.len()).rev() {
                self.deck.swap(i, self.rng.gen_range(0..i + 1));
            }
            self.pos = 0;
        }
        let pair = self.deck[self.pos];
        self.pos += 1;
        let text = w
            .adhoc
            .then(|| renamed_text(&w.queries[w.pairs[pair].query].cq, &mut self.rng));
        Op::Query { pair, text }
    }
}

/// Acyclic free-variable queries with 10k–60k answers over uniform
/// random digraphs: join, project and answer decode dominate.
fn large_output(seed: u64) -> Workload {
    let dbs: Vec<(String, Structure)> = (0..6)
        .map(|i| {
            (
                format!("uniform{i}"),
                random_db(1200, 3.0, sub_seed(seed, i)),
            )
        })
        .collect();
    let queries = vec![
        spec("hop2", "Q(x, z) :- E(x, y), E(y, z)"),
        spec("hop3", "Q(x, w) :- E(x, y), E(y, z), E(z, w)"),
        spec("fork", "Q(x, z, w) :- E(x, y), E(y, z), E(y, w)"),
    ];
    let pairs = (0..queries.len())
        .flat_map(|q| (0..dbs.len()).map(move |db| pair(q, db, 1)))
        .collect();
    Workload {
        name: "large_output",
        mode: EvalMode::Exact,
        clients: 1,
        adhoc: false,
        naive_cost_budget: cqapx_engine::EngineConfig::default().naive_cost_budget,
        reregister_every: None,
        segment_ops: None,
        dbs,
        queries,
        pairs,
    }
}

/// Boolean and low-output queries: semijoin sweeps, decomposed bag
/// builds, packed kernels on a 2 M-tuple database, and the two pairs the
/// planner sends to the naive join although the decomposed plan is
/// orders of magnitude faster.
fn small_output(seed: u64) -> Workload {
    let mut dbs: Vec<(String, Structure)> = Vec::new();
    for i in 0..2 {
        dbs.push((
            format!("dag{i}"),
            layered_dag(12, 40, 0.08, sub_seed(seed, 10 + i)),
        ));
    }
    for i in 0..2 {
        dbs.push((
            format!("uniform{i}"),
            random_db(600, 4.0, sub_seed(seed, 20 + i)),
        ));
    }
    dbs.push((
        "reversed2m".to_string(),
        two_rel_reversed_db(60_000, 1_000_000, sub_seed(seed, 30)),
    ));
    dbs.push((
        "hub".to_string(),
        hub_triangles_db(4, 150, 300, sub_seed(seed, 40)),
    ));
    dbs.push((
        "zipf".to_string(),
        zipf_db(400, 3200, 1.2, sub_seed(seed, 50)),
    ));
    let queries = vec![
        spec(
            "path8",
            "Q() :- E(x1, x2), E(x2, x3), E(x3, x4), E(x4, x5), E(x5, x6), E(x6, x7), E(x7, x8)",
        ),
        spec("c4", "Q() :- E(a, b), E(b, c), E(c, d), E(d, a)"),
        spec(
            "c6",
            "Q() :- E(a, b), E(b, c), E(c, d), E(d, e), E(e, f), E(f, a)",
        ),
        spec("rev_pairs", "Q(x, y) :- E(x, y), F(y, x)"),
        spec("triangle", "Q() :- E(x, y), E(y, z), E(z, x)"),
        spec(
            "k4",
            "Q() :- E(a, b), E(a, c), E(a, d), E(b, c), E(b, d), E(c, d)",
        ),
    ];
    // Per deck of 100 requests. The operator-tier pairs carry most of
    // the traffic, so the median lands inside the C4 requests. The two
    // misrouted pairs stay a minority: K4 (3 %) is the slowest, the hub
    // triangle (8 %), whose naive cost barely depends on the seed, comes
    // next, so the 95th percentile lands inside the hub triangles.
    let pairs = vec![
        pair(0, 0, 14),
        pair(0, 1, 14),
        pair(1, 2, 21),
        pair(1, 3, 20),
        pair(2, 2, 8),
        pair(2, 3, 8),
        pair(3, 4, 4),
        pair(4, 5, 8),
        pair(5, 6, 3),
    ];
    Workload {
        name: "small_output",
        mode: EvalMode::Exact,
        clients: 1,
        adhoc: false,
        naive_cost_budget: cqapx_engine::EngineConfig::default().naive_cost_budget,
        reregister_every: None,
        segment_ops: None,
        dbs,
        queries,
        pairs,
    }
}

/// A tenant graph: sparse random edges plus planted mutual pairs and a
/// few loops, so the in-class approximations of cyclic queries (which
/// fold cycles onto 2-cycles and loops) have certain answers to find.
fn tenant_db(n: usize, edges: usize, seed: u64) -> Structure {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut es: Vec<(Element, Element)> = Vec::with_capacity(edges + n / 4);
    let node = |rng: &mut StdRng| rng.gen_range(0..n as Element);
    for _ in 0..edges {
        let (a, b) = (node(&mut rng), node(&mut rng));
        es.push((a, b));
    }
    for _ in 0..n / 10 {
        let (a, b) = (node(&mut rng), node(&mut rng));
        es.push((a, b));
        es.push((b, a));
    }
    for _ in 0..n / 50 {
        let a = node(&mut rng);
        es.push((a, a));
    }
    Structure::digraph(n, &es)
}

/// Fresh query text per request over a pool of cyclic isomorphism
/// classes with skewed popularity, answered with certain answers only.
///
/// The pool is the same for every seed (like the fixed query set of a
/// generated-data benchmark); the seed draws the tenant databases, the
/// renamings and the request order. Which classes a pool holds sets the
/// cost of each approximation search, so a per-seed pool would make the
/// tail latency a property of the seed rather than of the program.
fn adhoc_certain(seed: u64, threads: usize) -> Workload {
    let dbs: Vec<(String, Structure)> = (0..2)
        .map(|i| {
            (
                format!("tenant{i}"),
                tenant_db(300, 700, sub_seed(seed, 60 + i)),
            )
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(POOL_SEED);
    let queries: Vec<QuerySpec> = (0..32)
        .map(|c| {
            // Popular classes are small (6 variables), rare ones large
            // (8): the rare classes are evicted before their next
            // request, so their searches make a fixed share of the
            // requests and set the tail.
            let vars = 6 + c * 3 / 32;
            let boolean = random_cyclic_query(vars, sub_seed(POOL_SEED, 100 + c as u64));
            // A third of the classes get one free variable, a third two.
            let free: Vec<usize> = (0..c % 3)
                .map(|_| rng.gen_range(0..boolean.var_count()))
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect();
            let text = query_text(&boolean, &free, |v| format!("v{v}"));
            spec(&format!("class{c}"), &text)
        })
        .collect();
    // Zipf(1) popularity over the classes, uniform over the tenants.
    let pairs = (0..queries.len())
        .flat_map(|q| (0..dbs.len()).map(move |db| pair(q, db, (32 / (q + 1)) as u32)))
        .collect();
    Workload {
        name: "adhoc_certain",
        mode: EvalMode::CertainOnly,
        clients: threads.max(1),
        adhoc: true,
        naive_cost_budget: 0.0,
        reregister_every: Some(64),
        segment_ops: Some(SEGMENT_OPS),
        dbs,
        queries,
        pairs,
    }
}

/// Datalog text of `q` with the free variables `free` (in that order),
/// naming variable `v` by `name(v)`.
fn query_text(q: &ConjunctiveQuery, free: &[usize], name: impl Fn(usize) -> String) -> String {
    let head: Vec<String> = free.iter().map(|&v| name(v)).collect();
    let atoms: Vec<String> = q
        .atoms()
        .iter()
        .map(|a| {
            let args: Vec<String> = a.args.iter().map(|&v| name(v as usize)).collect();
            format!("{}({})", q.vocabulary().name(a.rel), args.join(", "))
        })
        .collect();
    format!("Q({}) :- {}", head.join(", "), atoms.join(", "))
}

/// A variable renaming of `q` with shuffled atom order: an isomorphic
/// query that shares no text with the class representative. The head
/// keeps its positions, so the answers are the representative's.
pub fn renamed_text(q: &ConjunctiveQuery, rng: &mut StdRng) -> String {
    let n = q.var_count();
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.gen_range(0..i + 1));
    }
    let salt = rng.gen_range(0..1000u32);
    let name = |v: usize| format!("r{salt}_{}", perm[v]);
    let mut atoms: Vec<String> = q
        .atoms()
        .iter()
        .map(|a| {
            let args: Vec<String> = a.args.iter().map(|&v| name(v as usize)).collect();
            format!("{}({})", q.vocabulary().name(a.rel), args.join(", "))
        })
        .collect();
    for i in (1..atoms.len()).rev() {
        atoms.swap(i, rng.gen_range(0..i + 1));
    }
    let head: Vec<String> = q.free_vars().iter().map(|&v| name(v as usize)).collect();
    format!("Q({}) :- {}", head.join(", "), atoms.join(", "))
}
