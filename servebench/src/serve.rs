//! The serving path as a client sees it: reference answers, engine
//! set-up, and the timed closed loop through `Engine::execute`.

use crate::workload::{Op, Stream, Workload};
use cqapx_core::ApproxOptions;
use cqapx_cq::eval::naive::eval_naive;
use cqapx_cq::eval::MaterializationCache;
use cqapx_cq::{parse_cq, tableau_of};
use cqapx_engine::{
    ApproxCache, ApproxClassChoice, DbId, Engine, EngineConfig, EvalMode, MetricsLevel, QueryId,
    Request, Response, ResponseStatus,
};
use cqapx_par::ThreadBudget;
use cqapx_structures::Element;
use std::collections::BTreeSet;
use std::hash::Hasher;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

pub type Answers = BTreeSet<Vec<Element>>;

/// Target length of the time windows a closed loop is split into; the
/// end-to-end throughput and percentiles are medians over the windows,
/// so a burst of the machine's other load moves one window rather than
/// the figure.
const WINDOW: Duration = Duration::from_secs(2);

/// The engine's thread budget in the measured runs: sequential
/// evaluation, the clients being the only parallelism. With a budget of
/// every core, intra-query workers wait for cores the clients and the
/// machine's other tenants hold: on a 2-vCPU machine that made the
/// decomposed tier's latency and the ad-hoc tail swing by 30–70 % from
/// run to run, too much for any bound. The traced run measures what the
/// larger budget costs (`par.morsel_speedup`, `par.nproc_budget_p95_ratio`).
pub const ENGINE_THREADS: usize = 1;

/// Row count plus an order-independent hash of an answer set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub rows: usize,
    pub hash: u64,
}

pub fn digest(answers: &Answers) -> Digest {
    let mut hash = 0u64;
    for row in answers {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for &e in row {
            h.write_u32(e);
        }
        h.write_usize(row.len());
        hash = hash.wrapping_add(h.finish());
    }
    Digest {
        rows: answers.len(),
        hash,
    }
}

/// What a correct response to one pair looks like, computed with the
/// naive evaluator before anything is timed.
pub struct Expected {
    pub status: ResponseStatus,
    pub digest: Digest,
    /// The exact answers `Q(D)`, kept for the soundness check of
    /// certain-answer responses.
    pub exact: Option<Answers>,
}

/// Reference answers for every pair, plus the cache budgets derived
/// from the workload's working set.
pub struct Reference {
    pub expected: Vec<Expected>,
    pub mat_budget: usize,
    pub approx_budget: usize,
    /// Pairs whose reference itself broke the soundness guarantee.
    pub unsound: usize,
}

pub fn approx_class() -> ApproxClassChoice {
    EngineConfig::default().approx_class
}

pub fn reference(w: &Workload) -> Reference {
    // Evaluation builds a structure's index, dictionary and flat image,
    // and clones share whatever is built. Working on clones taken while
    // `w.dbs` is still bare leaves those caches unbuilt there, so every
    // set-up and re-registration pays for them as a fresh tenant does.
    let dbs: Vec<_> = w.dbs.iter().map(|(_, s)| s.clone()).collect();
    if !w.adhoc {
        let expected = w
            .pairs
            .iter()
            .map(|p| Expected {
                status: ResponseStatus::Complete,
                digest: digest(&eval_naive(&w.queries[p.query].cq, &dbs[p.db])),
                exact: None,
            })
            .collect();
        return Reference {
            expected,
            // Unbounded: after warm-up every materialization hits.
            mat_budget: 0,
            approx_budget: 0,
            unsound: 0,
        };
    }
    // Certain answers: the union of the naive answers of every in-class
    // approximation, which must lie inside the exact answers.
    let cache = ApproxCache::new();
    let class = approx_class().as_class();
    let opts = ApproxOptions::default();
    let approximations: Vec<_> = w
        .queries
        .iter()
        .map(|q| {
            cache
                .get_or_compute(&tableau_of(&q.cq), class.as_ref(), &opts)
                .0
        })
        .collect();
    let mut unsound = 0;
    let expected = w
        .pairs
        .iter()
        .map(|p| {
            let d = &dbs[p.db];
            let exact = eval_naive(&w.queries[p.query].cq, d);
            let mut certain = Answers::new();
            for e in &approximations[p.query].evaluators {
                certain.extend(eval_naive(e.query(), d));
            }
            if !certain.is_subset(&exact) {
                unsound += 1;
            }
            Expected {
                status: ResponseStatus::CertainOnly,
                digest: digest(&certain),
                exact: Some(exact),
            }
        })
        .collect();
    // The materialization working set of one tenant: every
    // approximation evaluated through an unbounded cache.
    let seq = ThreadBudget::sequential();
    let working_set = dbs
        .iter()
        .map(|d| {
            let mat = MaterializationCache::new();
            for a in &approximations {
                for e in &a.evaluators {
                    e.eval_with_cache(d, &mat, &seq);
                }
            }
            mat.resident_bytes()
        })
        .min()
        .unwrap_or(0);
    Reference {
        expected,
        // Budgets below the working sets, so both caches evict.
        mat_budget: (working_set / 2).max(1),
        approx_budget: (cache.resident_bytes() / 3).max(1),
        unsound,
    }
}

impl Reference {
    /// Whether `r` is a correct response to pair `pair`.
    pub fn check(&self, pair: usize, r: &Response) -> bool {
        let e = &self.expected[pair];
        r.status == e.status
            && digest(&r.answers) == e.digest
            && e.exact.as_ref().is_none_or(|x| r.answers.is_subset(x))
    }
}

pub fn config(w: &Workload, r: &Reference, threads: usize, level: MetricsLevel) -> EngineConfig {
    EngineConfig {
        threads,
        naive_cost_budget: w.naive_cost_budget,
        metrics: level,
        // `Some(0)` pins a cache unbounded whatever the environment says.
        mat_cache_budget_bytes: Some(r.mat_budget),
        approx_cache_budget_bytes: Some(r.approx_budget),
        ..EngineConfig::default()
    }
}

/// An engine serving the workload's standing catalog.
pub struct Served {
    pub engine: Engine,
    pub dbs: Vec<DbId>,
    pub queries: Vec<QueryId>,
    /// The tier the engine chose for each pair at warm-up.
    pub plans: Vec<String>,
    /// Distinct suffix for the names of ad-hoc prepared queries.
    next_name: AtomicU64,
}

/// Builds an engine with a thread budget of `threads`, registers the
/// databases, prepares the standing queries and runs one warm-up pass
/// over every pair. Returns the engine, the set-up time (generated
/// inputs are copied before the clock starts, and the clock is stopped
/// while the warm-up answers are checked) and the number of warm-up
/// responses that failed.
pub fn setup(
    w: &Workload,
    r: &Reference,
    threads: usize,
    level: MetricsLevel,
) -> (Served, Duration, usize) {
    let structures: Vec<_> = w.dbs.iter().map(|(_, s)| s.clone()).collect();
    let queries: Vec<_> = w.queries.iter().map(|q| q.cq.clone()).collect();
    let start = Instant::now();
    let engine = Engine::new(config(w, r, threads, level));
    let dbs = w
        .dbs
        .iter()
        .zip(structures)
        .map(|((name, _), s)| engine.register_database(name.as_str(), s))
        .collect();
    let queries = if w.adhoc {
        Vec::new()
    } else {
        w.queries
            .iter()
            .zip(queries)
            .map(|(q, cq)| engine.prepare_query(q.name.as_str(), cq))
            .collect()
    };
    let mut served = Served {
        engine,
        dbs,
        queries,
        plans: Vec::new(),
        next_name: AtomicU64::new(0),
    };
    let mut failed = 0;
    let mut plans = Vec::new();
    let mut checking = Duration::ZERO;
    for (i, p) in w.pairs.iter().enumerate() {
        let text = w.adhoc.then(|| w.queries[p.query].text.clone());
        let resp = served.query(w, i, text.as_deref());
        let t = Instant::now();
        plans.push(
            resp.as_ref()
                .map_or("panicked".into(), |r| r.plan.to_string()),
        );
        if !resp.as_ref().is_some_and(|resp| r.check(i, resp)) {
            failed += 1;
        }
        checking += t.elapsed();
        drop(resp);
    }
    let took = start.elapsed() - checking;
    served.plans = plans;
    (served, took, failed)
}

impl Served {
    /// One query operation: for ad-hoc text, parse and prepare it
    /// first. `None` when the call panicked.
    pub fn query(&self, w: &Workload, pair: usize, text: Option<&str>) -> Option<Response> {
        let p = &w.pairs[pair];
        catch_unwind(AssertUnwindSafe(|| {
            let (query, db) = match text {
                Some(text) => {
                    let cq = parse_cq(text).ok()?;
                    let db = self.engine.database_by_name(&w.dbs[p.db].0)?;
                    let name = format!("adhoc{}", self.next_name.fetch_add(1, Ordering::Relaxed));
                    (self.engine.prepare_query(name, cq), db)
                }
                None => (self.queries[p.query], self.dbs[p.db]),
            };
            Some(self.engine.execute(&Request {
                query,
                db,
                mode: w.mode,
                timeout: None,
            }))
        }))
        .ok()
        .flatten()
    }
}

/// The client's consumption of a response: every row read once.
pub fn deliver(answers: &Answers) -> u64 {
    let mut acc = 0u64;
    for row in answers {
        acc = acc.wrapping_add(row.iter().map(|&e| e as u64).sum::<u64>() + 1);
    }
    black_box(acc)
}

/// What one client measured.
#[derive(Default)]
pub struct ClientRun {
    pub latencies_ms: Vec<f64>,
    /// The pair of each sample (`None`: a re-registration).
    pub pairs: Vec<Option<usize>>,
    /// The window of the run each sample finished in.
    pub windows: Vec<usize>,
    pub ops: u64,
    pub failed: u64,
    /// Time inside timed intervals (benchmark-side checks excluded).
    pub busy: Duration,
    pub cold_checked: u64,
    pub warm_checked: u64,
}

/// One time window of a closed loop.
pub struct Window {
    /// As [`LoopRun::throughput`], over the window's samples.
    pub throughput: f64,
    /// Sorted latencies of the samples that finished in the window.
    pub latencies_ms: Vec<f64>,
}

/// Median of unsorted values.
pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

pub struct LoopRun {
    pub clients: Vec<ClientRun>,
    /// Number of equal time windows the run was split into.
    pub windows: usize,
}

impl LoopRun {
    pub fn ops(&self) -> u64 {
        self.clients.iter().map(|c| c.ops).sum()
    }

    pub fn failed(&self) -> u64 {
        self.clients.iter().map(|c| c.failed).sum()
    }

    /// Operations per second: each client's completed operations over
    /// its own timed busy time, summed over the clients.
    pub fn throughput(&self) -> f64 {
        self.clients
            .iter()
            .map(|c| c.ops as f64 / c.busy.as_secs_f64().max(1e-9))
            .sum()
    }

    pub fn latencies(&self) -> Vec<f64> {
        let mut all: Vec<f64> = self
            .clients
            .iter()
            .flat_map(|c| c.latencies_ms.iter().copied())
            .collect();
        all.sort_by(f64::total_cmp);
        all
    }

    pub fn mean_latency_ms(&self) -> f64 {
        let l = self.latencies();
        l.iter().sum::<f64>() / l.len().max(1) as f64
    }

    /// Each of the run's equal time windows.
    pub fn windows(&self) -> Vec<Window> {
        (0..self.windows)
            .map(|k| {
                let mut lat = Vec::new();
                let mut throughput = 0.0;
                for c in &self.clients {
                    let mine: Vec<f64> = c
                        .latencies_ms
                        .iter()
                        .zip(&c.windows)
                        .filter(|(_, &w)| w == k)
                        .map(|(&l, _)| l)
                        .collect();
                    let busy_s = mine.iter().sum::<f64>() / 1e3;
                    throughput += mine.len() as f64 / busy_s.max(1e-9);
                    lat.extend(mine);
                }
                lat.sort_by(f64::total_cmp);
                Window {
                    throughput,
                    latencies_ms: lat,
                }
            })
            .collect()
    }

    /// Sorted latency samples per pair (re-registrations excluded).
    pub fn by_pair(&self, pairs: usize) -> Vec<Vec<f64>> {
        let mut out = vec![Vec::new(); pairs];
        for c in &self.clients {
            for (&l, p) in c.latencies_ms.iter().zip(&c.pairs) {
                if let Some(p) = p {
                    out[*p].push(l);
                }
            }
        }
        for v in &mut out {
            v.sort_by(f64::total_cmp);
        }
        out
    }
}

/// Linear-interpolated quantile of sorted samples.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The timed closed loop: `clients` threads, each sending its next
/// operation when the previous one was delivered, until `duration`
/// has passed or the clients together have issued `max_ops`
/// operations. An operation-bounded loop is one window.
pub fn closed_loop(
    w: &Workload,
    served: &Served,
    r: &Reference,
    clients: usize,
    duration: Duration,
    max_ops: Option<u64>,
    seed: u64,
) -> LoopRun {
    let windows = match max_ops {
        Some(_) => 1,
        None => ((duration.as_secs_f64() / WINDOW.as_secs_f64()).round() as usize).max(1),
    };
    let issued = AtomicU64::new(0);
    let max_ops = max_ops.unwrap_or(u64::MAX);
    let start = Instant::now();
    let clients = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let stream = Stream::new(w, seed, c);
                let issued = &issued;
                scope.spawn(move || {
                    let more = || {
                        start.elapsed() < duration
                            && issued.fetch_add(1, Ordering::Relaxed) < max_ops
                    };
                    let window = duration.div_f64(windows as f64);
                    let window_of = || {
                        ((start.elapsed().as_secs_f64() / window.as_secs_f64()) as usize)
                            .min(windows - 1)
                    };
                    client(w, served, r, stream, more, window_of)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    LoopRun { clients, windows }
}

fn client(
    w: &Workload,
    served: &Served,
    r: &Reference,
    mut stream: Stream,
    more: impl Fn() -> bool,
    window_of: impl Fn() -> usize,
) -> ClientRun {
    let mut run = ClientRun::default();
    while more() {
        let op = stream.next(w);
        let (elapsed, ok, pair) = match op {
            Op::Reregister { db } => {
                let (name, s) = &w.dbs[db];
                let s = s.clone();
                let t0 = Instant::now();
                served.engine.register_database(name.as_str(), s);
                (t0.elapsed(), true, None)
            }
            Op::Query { pair, text } => {
                let t0 = Instant::now();
                let resp = served.query(w, pair, text.as_deref());
                if let Some(resp) = &resp {
                    deliver(&resp.answers);
                }
                let timed = t0.elapsed();
                let ok = resp.as_ref().is_some_and(|resp| r.check(pair, resp));
                match resp.as_ref().and_then(|resp| resp.cache_hit) {
                    Some(true) => run.warm_checked += 1,
                    Some(false) => run.cold_checked += 1,
                    None => {}
                }
                let t1 = Instant::now();
                drop(resp);
                (timed + t1.elapsed(), ok, Some(pair))
            }
        };
        run.ops += 1;
        run.busy += elapsed;
        run.latencies_ms.push(elapsed.as_secs_f64() * 1e3);
        run.pairs.push(pair);
        run.windows.push(window_of());
        if !ok {
            run.failed += 1;
        }
    }
    run
}

/// `VmHWM` of this process, in MB: the peak since the last
/// [`reset_peak_rss`].
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn mode_name(m: EvalMode) -> &'static str {
    match m {
        EvalMode::Exact => "exact",
        EvalMode::CertainOnly => "certain_only",
    }
}

/// Hands the allocator's free pages back to the kernel.
pub fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: glibc's `malloc_trim` only releases free heap pages.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Trims the heap and resets `VmHWM` to the current resident set, so
/// that a later [`peak_rss_mb`] covers only what ran after this call.
/// Returns whether the reset took effect.
pub fn reset_peak_rss() -> bool {
    trim_heap();
    // "5" resets the peak resident set size (proc(5), `clear_refs`).
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}
