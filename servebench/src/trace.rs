//! The traced run: the workload's operations replayed through each
//! layer's public functions with a span around every call, compared
//! answer for answer with `Engine::execute`, and summarized into the
//! per-layer metrics.
//!
//! Spans are recorded only here, around calls into the program; the
//! per-operator children of an evaluation come from its `EvalProfile`
//! (their durations are measured, their placement inside the parent is
//! sequential from its start). A span's self time is its duration minus
//! its children's. Each operation has a root span `op` (its self time is
//! the unattributed time) and a root `deliver.drop` span, so the self
//! times of an operation's spans sum to its wall time.

use crate::serve::{
    self, approx_class, closed_loop, deliver, digest, peak_rss_mb, quantile, setup, Answers,
    Digest, LoopRun, Reference, Served, ENGINE_THREADS,
};
use crate::workload::{self, Op, Stream, Workload};
use crate::{metric, print_result, Metric};
use cqapx_core::{ApproxOptions, QueryClass};
use cqapx_cq::eval::{bitmap_stats, packed_stats, EvalProfile, MatCacheStats};
use cqapx_cq::parse_cq;
use cqapx_engine::{
    choose_plan, ApproxCache, Catalog, DbId, EvalMode, MetricsLevel, PlanKind, QueryId,
    ResponseStatus,
};
use cqapx_par::ThreadBudget;
use cqapx_structures::Structure;
use std::collections::BTreeMap;
use std::io::Write;
use std::ops::ControlFlow;
use std::time::{Duration, Instant};

/// `EvalProfile` operator labels and the metric names they report under.
const OP_KINDS: [(&str, &str); 11] = [
    ("materialize", "materialize"),
    ("semijoin", "semijoin"),
    ("semijoin(packed)", "semijoin_packed"),
    ("assert_nonempty", "assert_nonempty"),
    ("join", "join"),
    ("join(packed)", "join_packed"),
    ("project", "project"),
    ("project(packed)", "project_packed"),
    ("dedup", "dedup"),
    ("dedup(packed)", "dedup_packed"),
    ("union", "union"),
];

const NONE: u32 = u32::MAX;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    op: u64,
}

/// Spans kept in memory for the whole run.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str, op: u64) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NONE);
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        self.open.push(id);
        id
    }

    fn end(&mut self, id: u32) {
        let popped = self.open.pop();
        assert_eq!(popped, Some(id), "spans close in stack order");
        self.spans[id as usize].end_ns = self.now();
    }

    /// One child span per profiled operator, laid out back to back from
    /// the parent's start.
    fn profile_children(&mut self, parent: u32, op: u64, profile: &EvalProfile) {
        let mut at = self.spans[parent as usize].start_ns;
        for o in &profile.ops {
            let name = OP_KINDS
                .iter()
                .find(|(label, _)| *label == o.op)
                .map_or("op.other", |(_, kind)| op_span_name(kind));
            let dur = o.micros * 1000;
            self.spans.push(Span {
                name,
                start_ns: at,
                end_ns: at + dur,
                parent,
                op,
            });
            at += dur;
        }
    }

    /// Self time of every span, in ns.
    fn self_times(&self) -> Vec<i64> {
        let mut own: Vec<i64> = self
            .spans
            .iter()
            .map(|s| (s.end_ns - s.start_ns) as i64)
            .collect();
        for s in &self.spans {
            if s.parent != NONE {
                own[s.parent as usize] -= (s.end_ns - s.start_ns) as i64;
            }
        }
        own
    }

    /// Writes every span as a tab-separated line: id, operation, parent,
    /// name, start and end in ns since the run started.
    fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\top\tparent\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i}\t{}\t{parent}\t{}\t{}\t{}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

fn op_span_name(kind: &str) -> &'static str {
    match kind {
        "materialize" => "op.materialize",
        "semijoin" => "op.semijoin",
        "semijoin_packed" => "op.semijoin_packed",
        "assert_nonempty" => "op.assert_nonempty",
        "join" => "op.join",
        "join_packed" => "op.join_packed",
        "project" => "op.project",
        "project_packed" => "op.project_packed",
        "dedup" => "op.dedup",
        "dedup_packed" => "op.dedup_packed",
        "union" => "op.union",
        _ => "op.other",
    }
}

/// Counts the replay gathers at the layer boundaries.
#[derive(Default)]
struct Counts {
    ops: u64,
    tiers: BTreeMap<&'static str, u64>,
    approx_hits: u64,
    approx_misses: u64,
    /// Spans of approximation lookups that missed (search self time).
    search_spans: Vec<u32>,
    mat: MatCacheStats,
    naive_calls: u64,
    naive_nodes: u64,
    op_rows: BTreeMap<&'static str, u64>,
    packed_rows: u64,
    bitmap_probes: u64,
}

/// The serving path rebuilt from the layers' public pieces.
struct Replay<'a> {
    w: &'a Workload,
    catalog: Catalog,
    cache: ApproxCache,
    budget: ThreadBudget,
    class: Box<dyn QueryClass + Send + Sync>,
    opts: ApproxOptions,
    mat_budget: usize,
    dbs: Vec<DbId>,
    queries: Vec<QueryId>,
    tracer: Tracer,
    counts: Counts,
    next_name: u64,
}

impl<'a> Replay<'a> {
    fn new(w: &'a Workload, r: &Reference) -> Replay<'a> {
        let cache = ApproxCache::new();
        cache.set_budget_bytes(r.approx_budget);
        let mut replay = Replay {
            w,
            catalog: Catalog::new(),
            cache,
            budget: ThreadBudget::new(ENGINE_THREADS),
            class: approx_class().as_class(),
            opts: ApproxOptions::default(),
            mat_budget: r.mat_budget,
            dbs: Vec::new(),
            queries: Vec::new(),
            tracer: Tracer {
                epoch: Instant::now(),
                spans: Vec::new(),
                open: Vec::new(),
            },
            counts: Counts::default(),
            next_name: 0,
        };
        for (name, s) in &w.dbs {
            let id = replay.register(name, s.clone(), 0);
            replay.dbs.push(id);
        }
        if !w.adhoc {
            for q in &w.queries {
                let sp = replay.tracer.begin("catalog.prepare", 0);
                let id = replay.catalog.prepare_query(q.name.as_str(), q.cq.clone());
                replay.tracer.end(sp);
                replay.queries.push(id);
            }
        }
        replay
    }

    fn register(&mut self, name: &str, s: Structure, op: u64) -> DbId {
        let sp = self.tracer.begin("catalog.register", op);
        let id = self.catalog.register_database(name, s);
        if self.mat_budget > 0 {
            if let Some(entry) = self.catalog.database(id) {
                entry.materialized.set_budget_bytes(self.mat_budget);
            }
        }
        self.tracer.end(sp);
        id
    }

    /// Replays one operation; returns its status and answers (`None`
    /// for a re-registration or a query that failed to parse).
    fn op(&mut self, id: u64, op: &Op) -> Option<(ResponseStatus, Digest)> {
        match op {
            Op::Reregister { db } => {
                let (name, s) = &self.w.dbs[*db];
                let s = s.clone();
                let root = self.tracer.begin("op", id);
                self.dbs[*db] = self.register(name, s, id);
                self.tracer.end(root);
                self.counts.ops += 1;
                None
            }
            Op::Query { pair, text } => {
                let name = format!("adhoc{}", self.next_name);
                self.next_name += 1;
                let root = self.tracer.begin("op", id);
                let answers = self.query(id, *pair, text.as_deref(), name);
                let sp = self.tracer.begin("deliver", id);
                if let Some((_, a)) = &answers {
                    deliver(a);
                }
                self.tracer.end(sp);
                self.tracer.end(root);
                let out = answers.as_ref().map(|(s, a)| (*s, digest(a)));
                let sp = self.tracer.begin("deliver.drop", id);
                drop(answers);
                self.tracer.end(sp);
                self.counts.ops += 1;
                out
            }
        }
    }

    fn query(
        &mut self,
        id: u64,
        pair: usize,
        text: Option<&str>,
        name: String,
    ) -> Option<(ResponseStatus, Answers)> {
        let p = &self.w.pairs[pair];
        let qid = match text {
            Some(text) => {
                let sp = self.tracer.begin("cq.parse", id);
                let cq = parse_cq(text).ok();
                self.tracer.end(sp);
                let sp = self.tracer.begin("catalog.prepare", id);
                let qid = self.catalog.prepare_query(name, cq?);
                self.tracer.end(sp);
                qid
            }
            None => self.queries[p.query],
        };
        let q = self.catalog.query(qid)?;
        let d = self.catalog.database(self.dbs[p.db])?;
        let sp = self.tracer.begin("planner.choose", id);
        let decision = choose_plan(
            &q.shape,
            q.decomposed.as_deref(),
            &d,
            self.w.naive_cost_budget,
        );
        self.tracer.end(sp);
        *self
            .counts
            .tiers
            .entry(tier_name(decision.kind))
            .or_default() += 1;
        let exact_plan = match (decision.kind, self.w.mode) {
            (PlanKind::Sandwich, EvalMode::CertainOnly) => None,
            (PlanKind::Sandwich, EvalMode::Exact) => Some(PlanKind::Naive),
            (k, _) => Some(k),
        };
        let answers = match exact_plan {
            Some(PlanKind::Yannakakis) | Some(PlanKind::Decomposed) => {
                let mut profile = EvalProfile::default();
                let (bitmap0, packed0) = (bitmap_stats().probes, packed_stats().rows);
                let (answers, m) = if let Some(plan) = q.yannakakis.as_ref() {
                    let sp = self.tracer.begin("eval.yannakakis", id);
                    let out = plan.eval_cached_budget_profiled(
                        &d.structure,
                        Some(&d.materialized),
                        &self.budget,
                        Some(&mut profile),
                    );
                    self.tracer.end(sp);
                    self.tracer.profile_children(sp, id, &profile);
                    out
                } else {
                    let plan = q.decomposed.as_ref()?;
                    let sp = self.tracer.begin("eval.decomposed", id);
                    let out = plan.eval_cached_budget_profiled(
                        &d.structure,
                        Some(&d.materialized),
                        &self.budget,
                        Some(&mut profile),
                    );
                    self.tracer.end(sp);
                    self.tracer.profile_children(sp, id, &profile);
                    out
                };
                self.counts.bitmap_probes += bitmap_stats().probes - bitmap0;
                self.counts.packed_rows += packed_stats().rows - packed0;
                for o in &profile.ops {
                    if let Some((_, kind)) = OP_KINDS.iter().find(|(l, _)| *l == o.op) {
                        *self.counts.op_rows.entry(kind).or_default() += o.rows as u64;
                    }
                }
                self.counts.mat.add(m);
                (ResponseStatus::Complete, answers)
            }
            Some(_) => {
                let sp = self.tracer.begin("naive.for_each_answer", id);
                let mut answers = Answers::new();
                let stats = q.naive.for_each_answer(&d.structure, None, |a| {
                    answers.insert(a.to_vec());
                    ControlFlow::Continue(())
                });
                self.tracer.end(sp);
                self.counts.naive_calls += 1;
                self.counts.naive_nodes += stats.nodes;
                (ResponseStatus::Complete, answers)
            }
            None => {
                let sp = self.tracer.begin("approx.get_or_compute", id);
                let (cached, hit) =
                    self.cache
                        .get_or_compute(q.tableau(), self.class.as_ref(), &self.opts);
                self.tracer.end(sp);
                if hit {
                    self.counts.approx_hits += 1;
                } else {
                    self.counts.approx_misses += 1;
                    self.counts.search_spans.push(sp);
                }
                let sp = self.tracer.begin("approx.certain_eval", id);
                let mut answers = Answers::new();
                for e in &cached.evaluators {
                    let ev = self.tracer.begin("approx.evaluator", id);
                    let (certain, m) =
                        e.eval_with_cache(&d.structure, &d.materialized, &self.budget);
                    self.tracer.end(ev);
                    answers.extend(certain);
                    self.counts.mat.add(m);
                }
                self.tracer.end(sp);
                (ResponseStatus::CertainOnly, answers)
            }
        };
        Some(answers)
    }

    fn entries(&self) -> usize {
        self.catalog.database_count() + self.catalog.query_count()
    }

    fn mat_totals(&self) -> (u64, usize) {
        self.catalog
            .databases()
            .map(|d| (d.materialized.evictions(), d.materialized.resident_bytes()))
            .fold((0, 0), |(e, b), (de, db)| (e + de, b + db))
    }
}

fn tier_name(k: PlanKind) -> &'static str {
    match k {
        PlanKind::Yannakakis => "yannakakis",
        PlanKind::Decomposed => "decomposed",
        PlanKind::Naive => "naive",
        PlanKind::Sandwich => "sandwich",
        PlanKind::Shed => "shed",
    }
}

/// Warm timings of a pair's compiled tiers, taken outside every span.
struct PairTiming {
    chosen: &'static str,
    /// `(tier, ms)` for every compiled tier of the query.
    tiers: Vec<(&'static str, f64)>,
    /// Evaluation of the chosen tier at 1 and at 2 worker threads.
    morsel: Option<(f64, f64)>,
}

impl PairTiming {
    fn best(&self) -> f64 {
        self.tiers.iter().map(|t| t.1).fold(f64::INFINITY, f64::min)
    }

    fn chosen_ms(&self) -> f64 {
        self.tiers
            .iter()
            .find(|t| t.0 == self.chosen)
            .map_or(0.0, |t| t.1)
    }
}

fn time_ms(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e3
}

/// Times every compiled tier of a pair (second of two runs for the
/// cached tiers) and the chosen tier at 1 and 2 threads.
fn time_pair(replay: &Replay, pair: usize, qid: QueryId, threads: usize) -> Option<PairTiming> {
    let p = &replay.w.pairs[pair];
    let q = replay.catalog.query(qid)?;
    let d = replay.catalog.database(replay.dbs[p.db])?;
    let decision = choose_plan(
        &q.shape,
        q.decomposed.as_deref(),
        &d,
        replay.w.naive_cost_budget,
    );
    let budget = |n: usize| ThreadBudget::new(n);
    let yannakakis = |n: usize| -> Option<f64> {
        let b = budget(n);
        if let Some(plan) = q.yannakakis.as_ref() {
            plan.eval_cached_budget(&d.structure, Some(&d.materialized), &b);
            Some(time_ms(|| {
                plan.eval_cached_budget(&d.structure, Some(&d.materialized), &b);
            }))
        } else {
            None
        }
    };
    let decomposed = |n: usize| -> Option<f64> {
        let b = budget(n);
        let plan = q.decomposed.as_ref()?;
        plan.eval_cached_budget(&d.structure, Some(&d.materialized), &b);
        Some(time_ms(|| {
            plan.eval_cached_budget(&d.structure, Some(&d.materialized), &b);
        }))
    };
    let certain = |n: usize| -> f64 {
        let b = budget(n);
        let (approximation, _) =
            replay
                .cache
                .get_or_compute(q.tableau(), replay.class.as_ref(), &replay.opts);
        let run = || {
            for e in &approximation.evaluators {
                e.eval_with_cache(&d.structure, &d.materialized, &b);
            }
        };
        run();
        time_ms(run)
    };
    // Fastest of three alternating runs at 1 and at `threads` workers.
    let alternate = |f: &dyn Fn(usize) -> Option<f64>| -> Option<(f64, f64)> {
        let (mut a, mut b) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..3 {
            a = a.min(f(1)?);
            b = b.min(f(threads)?);
        }
        Some((a, b))
    };
    if replay.w.mode == EvalMode::CertainOnly {
        let morsel = alternate(&|n| Some(certain(n)));
        return Some(PairTiming {
            chosen: "sandwich",
            tiers: vec![("sandwich", certain(ENGINE_THREADS))],
            morsel,
        });
    }
    let mut tiers = Vec::new();
    if let Some(t) = yannakakis(ENGINE_THREADS) {
        tiers.push(("yannakakis", t));
    }
    if let Some(t) = decomposed(ENGINE_THREADS) {
        tiers.push(("decomposed", t));
    }
    tiers.push((
        "naive",
        time_ms(|| {
            q.naive
                .for_each_answer(&d.structure, None, |_| ControlFlow::Continue(()));
        }),
    ));
    let chosen = match decision.kind {
        PlanKind::Yannakakis => "yannakakis",
        PlanKind::Decomposed => "decomposed",
        _ => "naive",
    };
    let morsel = match chosen {
        "yannakakis" => alternate(&yannakakis),
        "decomposed" => alternate(&decomposed),
        _ => None,
    };
    Some(PairTiming {
        chosen,
        tiers,
        morsel,
    })
}

/// The traced run. Returns whether every check passed.
pub fn run(w: &Workload, r: &Reference, threads: usize, seed: u64, total: Duration) -> bool {
    let slice = |f: f64| total.mul_f64(f);
    let mut attempted = 0u64;
    let mut failed = r.unsound as u64;

    // Phase A: replay next to a Debug-level engine.
    let (served, _, warm_failed) = setup(w, r, ENGINE_THREADS, MetricsLevel::Debug);
    failed += warm_failed as u64;
    let mut replay = Replay::new(w, r);
    let mut timings: Vec<Option<PairTiming>> = Vec::new();
    for (i, p) in w.pairs.iter().enumerate() {
        let text = w.adhoc.then(|| w.queries[p.query].text.clone());
        let op = Op::Query { pair: i, text };
        if replay.op(0, &op) != expected(r, i) {
            failed += 1;
        }
        let qid = if w.adhoc {
            QueryId(replay.catalog.query_count() - 1)
        } else {
            replay.queries[p.query]
        };
        timings.push(time_pair(&replay, i, qid, threads));
    }
    let first_timed = replay.tracer.spans.len();
    replay.counts = Counts::default();
    let (approx_ev0, (mat_ev0, _)) = (replay.cache.evictions(), replay.mat_totals());
    let mut streams: Vec<Stream> = (0..w.clients).map(|c| Stream::new(w, seed, c)).collect();
    let mut op_pairs: Vec<usize> = Vec::new();
    let stop = Instant::now() + slice(0.35);
    let mut id = 0u64;
    while Instant::now() < stop {
        let n = streams.len();
        let op = streams[id as usize % n].next(w);
        id += 1;
        attempted += 1;
        // The engine's answer, then the replay's.
        let engine = match &op {
            Op::Reregister { db } => {
                let (name, s) = &w.dbs[*db];
                served.engine.register_database(name.as_str(), s.clone());
                None
            }
            Op::Query { pair, text } => Some(
                served
                    .query(w, *pair, text.as_deref())
                    .map(|resp| (resp.status, digest(&resp.answers))),
            ),
        };
        let replayed = replay.op(id, &op);
        if let (Op::Query { pair, .. }, Some(engine)) = (&op, engine) {
            op_pairs.push(*pair);
            let want = expected(r, *pair);
            if engine != want || replayed != want {
                failed += 1;
            }
        }
    }
    let c = &replay.counts;
    let spans = &replay.tracer.spans[first_timed..];
    let own = replay.tracer.self_times();
    let own = &own[first_timed..];
    let ops = c.ops.max(1) as f64;
    let mut self_by_name: BTreeMap<&str, i64> = BTreeMap::new();
    let mut dur_by_name: BTreeMap<&str, i64> = BTreeMap::new();
    let mut wall_ns = 0i64;
    for (s, &o) in spans.iter().zip(own) {
        *self_by_name.entry(s.name).or_default() += o;
        *dur_by_name.entry(s.name).or_default() += (s.end_ns - s.start_ns) as i64;
        if s.parent == NONE {
            wall_ns += (s.end_ns - s.start_ns) as i64;
        }
    }
    // Set-up registrations and prepares count toward the catalog means.
    let all_own = replay.tracer.self_times();
    let mean_of = |name: &str, all: bool| -> f64 {
        let (sum, n) = replay
            .tracer
            .spans
            .iter()
            .enumerate()
            .filter(|(i, s)| s.name == name && (all || *i >= first_timed))
            .fold((0i64, 0u64), |(a, n), (_, s)| {
                (a + (s.end_ns - s.start_ns) as i64, n + 1)
            });
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64
        }
    };
    let per_op_ms = |ns: i64| ns as f64 / 1e6 / ops;
    let self_ms = |name: &str| per_op_ms(*self_by_name.get(name).unwrap_or(&0));
    let eval_dur: i64 = ["eval.yannakakis", "eval.decomposed"]
        .iter()
        .map(|n| *dur_by_name.get(n).unwrap_or(&0))
        .sum();
    let decode_ns: i64 = ["eval.yannakakis", "eval.decomposed"]
        .iter()
        .map(|n| *self_by_name.get(n).unwrap_or(&0))
        .sum();
    let search_ms = if c.search_spans.is_empty() {
        0.0
    } else {
        c.search_spans
            .iter()
            .map(|&s| all_own[s as usize] as f64 / 1e6)
            .sum::<f64>()
            / c.search_spans.len() as f64
    };
    let approx_lookups = c.approx_hits + c.approx_misses;
    let mat_lookups = c.mat.hits + c.mat.misses;
    let (mat_ev, mat_bytes) = replay.mat_totals();

    // Regret and morsel speed-up per operation, from the pair timings.
    let (mut regret, mut best, mut exact_ops) = (0.0, 0u64, 0u64);
    let (mut t1, mut t2) = (0.0, 0.0);
    for p in &op_pairs {
        if let Some(t) = &timings[*p] {
            if w.mode == EvalMode::Exact {
                exact_ops += 1;
                regret += t.chosen_ms() - t.best();
                if t.chosen_ms() <= 1.1 * t.best() {
                    best += 1;
                }
            }
            if let Some((a, b)) = t.morsel {
                t1 += a;
                t2 += b;
            }
        }
    }
    for (p, t) in timings.iter().enumerate().take(24) {
        let Some(t) = t else { continue };
        let tiers: Vec<String> = t
            .tiers
            .iter()
            .map(|(n, ms)| format!("{n} {ms:.3}"))
            .collect();
        println!(
            "  pair {p:>2} {:<10} on {:<10} chosen {:<10} tiers(ms): {}",
            w.queries[w.pairs[p].query].name,
            w.dbs[w.pairs[p].db].0,
            t.chosen,
            tiers.join(", ")
        );
    }
    println!(
        "replay: {} ops ({} warm-up pairs before), {} spans; self time per op by span (ms):",
        c.ops,
        w.pairs.len(),
        spans.len()
    );
    let mut sum_self = 0.0;
    for (name, ns) in &self_by_name {
        sum_self += per_op_ms(*ns);
        println!("  {:<28} {:>12.6}", name, per_op_ms(*ns));
    }
    println!(
        "  sum of self times {:.6} ms/op = traced wall {:.6} ms/op",
        sum_self,
        per_op_ms(wall_ns)
    );
    let mut m: Vec<Metric> = vec![
        metric(
            "catalog.register_ms",
            mean_of("catalog.register", true) / 1e6,
            "ms",
        ),
        metric(
            "catalog.prepare_us",
            mean_of("catalog.prepare", true) / 1e3,
            "us",
        ),
        metric("catalog.entries", replay.entries() as f64, "count"),
        metric("cq.parse_us", mean_of("cq.parse", false) / 1e3, "us"),
        metric(
            "planner.choose_us",
            mean_of("planner.choose", false) / 1e3,
            "us",
        ),
    ];
    for tier in ["yannakakis", "decomposed", "naive", "sandwich"] {
        m.push(metric(
            tier_metric(tier),
            *c.tiers.get(tier).unwrap_or(&0) as f64,
            "count",
        ));
    }
    m.extend([
        metric("planner.regret_ms", regret / exact_ops.max(1) as f64, "ms"),
        metric(
            "planner.best_tier_frac",
            if exact_ops == 0 {
                1.0
            } else {
                best as f64 / exact_ops as f64
            },
            "fraction",
        ),
        metric("approx.search_ms", search_ms, "ms"),
        metric(
            "approx.hit_rate",
            c.approx_hits as f64 / approx_lookups.max(1) as f64,
            "fraction",
        ),
        metric(
            "approx.evictions",
            (replay.cache.evictions() - approx_ev0) as f64,
            "count",
        ),
        metric(
            "approx.resident_bytes",
            replay.cache.resident_bytes() as f64,
            "bytes",
        ),
        metric(
            "approx.certain_eval_ms",
            mean_of("approx.certain_eval", false) / 1e6,
            "ms",
        ),
    ]);
    for (_, kind) in OP_KINDS {
        m.push(metric(
            eval_metric(kind, false),
            self_ms(op_span_name(kind)),
            "ms",
        ));
        m.push(metric(
            eval_metric(kind, true),
            *c.op_rows.get(kind).unwrap_or(&0) as f64 / ops,
            "rows",
        ));
    }
    m.extend([
        metric(
            "eval.bag_builds_wcoj",
            c.mat.wcoj_bag_builds as f64 / ops,
            "count",
        ),
        metric(
            "eval.bag_builds_binary",
            c.mat.binary_bag_builds as f64 / ops,
            "count",
        ),
        metric("eval.packed_rows", c.packed_rows as f64 / ops, "rows"),
        metric("eval.bitmap_probes", c.bitmap_probes as f64 / ops, "count"),
        metric(
            "matcache.hit_rate",
            c.mat.hits as f64 / mat_lookups.max(1) as f64,
            "fraction",
        ),
        metric("matcache.evictions", (mat_ev - mat_ev0) as f64, "count"),
        metric("matcache.resident_bytes", mat_bytes as f64, "bytes"),
        metric(
            "naive.ms",
            mean_of("naive.for_each_answer", false) / 1e6,
            "ms",
        ),
        metric(
            "naive.solver_nodes",
            c.naive_nodes as f64 / c.naive_calls.max(1) as f64,
            "count",
        ),
        metric("decode.ms", per_op_ms(decode_ns), "ms"),
        metric(
            "decode.share",
            decode_ns as f64 / eval_dur.max(1) as f64,
            "fraction",
        ),
        metric(
            "deliver.ms",
            self_ms("deliver") + self_ms("deliver.drop"),
            "ms",
        ),
        metric(
            "par.morsel_speedup",
            if t2 > 0.0 { t1 / t2 } else { 1.0 },
            "ratio",
        ),
    ]);
    let unattributed = self_ms("op");
    let traced_wall = per_op_ms(wall_ns);
    let replay_ops = c.ops;
    let trace_path =
        std::path::PathBuf::from(format!("servebench-trace/{}-seed{seed}.tsv", w.name));
    if let Err(e) = replay.tracer.write(&trace_path) {
        eprintln!("servebench: could not write {}: {e}", trace_path.display());
    }
    let entries = replay.entries();
    let approx_bytes = replay.cache.resident_bytes();
    drop(replay);
    drop(served);

    // Phase B: the untraced engine at the production level, at one
    // client and at two.
    let (served, _, warm_failed) = setup(w, r, ENGINE_THREADS, MetricsLevel::Counters);
    failed += warm_failed as u64;
    let one = closed_loop(w, &served, r, 1, slice(0.2), None, seed);
    let two = closed_loop(w, &served, r, 2, slice(0.2), None, seed);
    drop(served);
    // The same clients on an engine whose budget is every core.
    let nproc_budget = (ENGINE_THREADS != threads).then(|| {
        let (served, _, warm_failed) = setup(w, r, threads, MetricsLevel::Counters);
        failed += warm_failed as u64;
        closed_loop(w, &served, r, w.clients, slice(0.15), None, seed)
    });
    for run in [&one, &two].into_iter().chain(nproc_budget.as_ref()) {
        attempted += run.ops();
        failed += run.failed();
    }
    let own_clients = if w.clients == 1 { &one } else { &two };
    let lat = own_clients.latencies();
    let untraced_mean = one.mean_latency_ms();

    // Phase C: the cost of each metrics level on `large_output`.
    let (overhead, c_attempted, c_failed) = level_overhead(seed, threads, slice(0.25));
    attempted += c_attempted;
    failed += c_failed;

    m.extend([
        metric(
            "par.client_scaling",
            two.throughput() / one.throughput().max(1e-9),
            "ratio",
        ),
        metric(
            "metrics.overhead.counters",
            overhead[1] / overhead[0],
            "ratio",
        ),
        metric("metrics.overhead.debug", overhead[2] / overhead[0], "ratio"),
        metric("metrics.overhead.trace", overhead[3] / overhead[0], "ratio"),
        metric(
            "trace.overhead_frac",
            traced_wall / untraced_mean.max(1e-9) - 1.0,
            "fraction",
        ),
        metric("unattributed.ms", unattributed, "ms"),
        metric("trace.wall_ms", traced_wall, "ms"),
        metric(
            "par.nproc_budget_p95_ratio",
            nproc_budget.map_or(1.0, |o| {
                quantile(&o.latencies(), 0.95) / quantile(&lat, 0.95).max(1e-9)
            }),
            "ratio",
        ),
        metric("trace.latency_p99_ms", quantile(&lat, 0.99), "ms"),
        metric("trace.peak_rss_mb", peak_rss_mb(), "MB"),
    ]);
    let beyond_p99 = lat.len() - (0.99 * lat.len() as f64).ceil() as usize;
    println!(
        "memory: peak {:.1} MB beside {entries} catalog entries, {approx_bytes} B of approximations and {mat_bytes} B of materializations held by the replay",
        peak_rss_mb()
    );
    println!(
        "untraced: {} clients, {} latency samples ({beyond_p99} beyond p99); replayed {replay_ops} ops; {attempted} ops attempted, {failed} failed",
        w.clients,
        lat.len()
    );
    let correct = failed == 0;
    print_result(correct, attempted, failed, &m);
    correct
}

fn expected(r: &Reference, pair: usize) -> Option<(ResponseStatus, Digest)> {
    let e = &r.expected[pair];
    Some((e.status, e.digest))
}

fn tier_metric(tier: &str) -> &'static str {
    match tier {
        "yannakakis" => "planner.tier.yannakakis",
        "decomposed" => "planner.tier.decomposed",
        "naive" => "planner.tier.naive",
        _ => "planner.tier.sandwich",
    }
}

fn eval_metric(kind: &str, rows: bool) -> &'static str {
    macro_rules! names {
        ($($k:literal),*) => {
            match (kind, rows) {
                $(($k, false) => concat!("eval.", $k, "_ms"),
                  ($k, true) => concat!("eval.", $k, "_rows"),)*
                _ => "eval.other",
            }
        };
    }
    names!(
        "materialize",
        "semijoin",
        "semijoin_packed",
        "assert_nonempty",
        "join",
        "join_packed",
        "project",
        "project_packed",
        "dedup",
        "dedup_packed",
        "union"
    )
}

/// Throughput of one `large_output` client at each metrics level
/// (`None`, `Counters`, `Debug`, `Trace`), the levels interleaved over
/// two rounds. Returns the throughputs, the operations run and the
/// failures.
fn level_overhead(seed: u64, threads: usize, total: Duration) -> ([f64; 4], u64, u64) {
    let w = workload::build("large_output", seed, threads).expect("large_output exists");
    let r = serve::reference(&w);
    let levels = [
        MetricsLevel::None,
        MetricsLevel::Counters,
        MetricsLevel::Debug,
        MetricsLevel::Trace,
    ];
    let engines: Vec<Served> = levels
        .iter()
        .map(|&l| setup(&w, &r, ENGINE_THREADS, l).0)
        .collect();
    let mut runs: Vec<Vec<LoopRun>> = (0..4).map(|_| Vec::new()).collect();
    let per = total.div_f64(8.0);
    for round in 0..2u64 {
        for (i, e) in engines.iter().enumerate() {
            runs[i].push(closed_loop(&w, e, &r, 1, per, None, seed + round));
            let _ = e.engine.trace_events();
        }
    }
    let mut out = [0.0; 4];
    let (mut ops, mut failed) = (0, 0);
    for (i, rs) in runs.iter().enumerate() {
        let (o, busy): (u64, f64) = rs.iter().fold((0, 0.0), |(o, b), run| {
            (
                o + run.ops(),
                b + run
                    .clients
                    .iter()
                    .map(|c| c.busy.as_secs_f64())
                    .sum::<f64>(),
            )
        });
        out[i] = o as f64 / busy.max(1e-9);
        ops += o;
        failed += rs.iter().map(|run| run.failed()).sum::<u64>();
    }
    (out, ops, failed)
}
