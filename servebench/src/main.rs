//! Serving benchmark for the conjunctive-query engine.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload <large_output|small_output|adhoc_certain> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. `--trace 0` drives `Engine::execute`
//! as a closed loop and prints the end-to-end metrics; `--trace 1`
//! replays the same workload and seed through each layer's public
//! functions with spans around every call and prints the per-layer
//! metrics. The last line of standard output is one JSON object; the
//! exit code is non-zero when any response fails the correctness check.

mod serve;
mod trace;
mod workload;

use cqapx_engine::MetricsLevel;
use serve::{closed_loop, median, peak_rss_mb, quantile, reference, reset_peak_rss, setup};
use std::time::{Duration, Instant};

/// Set-ups per untraced run: at least `SETUP_MIN`, and more (up to
/// `SETUP_MAX`) until `SETUP_SPAN` has passed, so that cheap set-ups
/// are sampled across the machine's speed swings. `setup_s` is their
/// median.
const SETUP_MIN: usize = 5;
const SETUP_MAX: usize = 25;
const SETUP_SPAN: Duration = Duration::from_secs(2);
/// Longest stretch of load one engine serves in an untraced run.
const SEGMENT: Duration = Duration::from_secs(5);

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// One metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    for m in metrics {
        println!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    );
}

/// The commit being measured: `git rev-parse HEAD` where the checkout
/// is a repository, else a hash of the source files it builds from.
fn provenance_commit() -> String {
    let git = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output();
    if let Ok(out) = git {
        if out.status.success() {
            return String::from_utf8_lossy(&out.stdout).trim().to_string();
        }
    }
    let mut files = Vec::new();
    let mut stack = vec![std::path::PathBuf::from("crates")];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    files.sort();
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for f in files {
        for b in std::fs::read(&f).unwrap_or_default() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01B3);
        }
    }
    format!("source-fnv64:{h:016x}")
}

/// MiB a child process touches before a run (see [`prefault`]).
const PREFAULT_MIB: usize = 512;

/// Has a child process touch and free `PREFAULT_MIB` of memory before
/// anything is measured. On a virtual machine whose host backs guest
/// memory lazily, the first touch of a page after it was handed back
/// costs far more than a later one, so a workload whose heap grows
/// while it is measured (the ad-hoc catalog) ran up to 3× slower in its
/// tail depending only on what ran on the machine before. After the
/// child exits, its pages sit in the guest's free lists, already backed.
fn prefault() {
    let status = std::env::current_exe().and_then(|exe| {
        std::process::Command::new(exe)
            .args(["--prefault", &PREFAULT_MIB.to_string()])
            .status()
    });
    if !status.is_ok_and(|s| s.success()) {
        eprintln!("servebench: the pre-fault child failed; measuring without it");
    }
}

fn main() {
    let mut raw = std::env::args().skip(1);
    if raw.next().as_deref() == Some("--prefault") {
        let mib: usize = raw.next().and_then(|m| m.parse().ok()).unwrap_or(0);
        let mut pages = vec![0u8; mib << 20];
        for i in (0..pages.len()).step_by(4096) {
            pages[i] = 1;
        }
        std::hint::black_box(&pages);
        return;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let Some(w) = workload::build(&args.workload, args.seed, threads) else {
        eprintln!(
            "servebench: unknown workload {:?} (expected one of {:?})",
            args.workload,
            workload::NAMES
        );
        std::process::exit(2);
    };
    println!(
        "servebench workload={} seed={} seconds={} trace={} available_parallelism={} engine_threads={} clients={} mode={} commit={}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        threads,
        serve::ENGINE_THREADS,
        w.clients,
        serve::mode_name(w.mode),
        provenance_commit()
    );
    prefault();
    let t = Instant::now();
    let r = reference(&w);
    println!(
        "reference: {} pairs over {} databases and {} queries checked by the naive evaluator in {:.2}s; mat budget {} B, approx budget {} B",
        w.pairs.len(),
        w.dbs.len(),
        w.queries.len(),
        t.elapsed().as_secs_f64(),
        r.mat_budget,
        r.approx_budget
    );
    // The reference pass is the benchmark's own work: the peak resident
    // set reported later starts after it.
    let reference_peak = peak_rss_mb();
    if !reset_peak_rss() {
        eprintln!("servebench: could not reset the peak RSS; it includes the reference pass");
    }
    println!("peak RSS of the reference pass: {reference_peak:.1} MB");
    let correct = if args.trace {
        trace::run(
            &w,
            &r,
            threads,
            args.seed,
            Duration::from_secs(args.seconds),
        )
    } else {
        untraced(&w, &r, args.seed, Duration::from_secs(args.seconds))
    };
    if !correct {
        std::process::exit(1);
    }
}

/// The end-to-end run: repeated set-ups, then the timed closed loop at
/// the production metrics level.
fn untraced(w: &workload::Workload, r: &serve::Reference, seed: u64, duration: Duration) -> bool {
    let mut setups = Vec::new();
    let mut warm_failed = 0;
    let mut served = None;
    let started = Instant::now();
    while setups.len() < SETUP_MIN || (started.elapsed() < SETUP_SPAN && setups.len() < SETUP_MAX) {
        drop(served.take());
        let (s, took, failed) = setup(w, r, serve::ENGINE_THREADS, MetricsLevel::Counters);
        setups.push(took.as_secs_f64());
        warm_failed += failed;
        served = Some(s);
    }
    // Back-to-back set-ups are not what a server does: the reported
    // peak covers the serving that follows, from the live set-up engine
    // on.
    let setup_peak = peak_rss_mb();
    reset_peak_rss();
    // Load runs in segments, each on a freshly set-up engine (untimed):
    // of at most `SEGMENT`, or of `w.segment_ops` operations, so the
    // ad-hoc catalog's growth is bounded by one segment while a run
    // still measures `duration` of load.
    let time_segments = (duration.as_secs_f64() / SEGMENT.as_secs_f64())
        .ceil()
        .max(1.0) as u32;
    let mut served = served.expect("at least one set-up");
    let mut runs = Vec::new();
    let mut loaded = Duration::ZERO;
    while loaded < duration {
        let k = runs.len() as u64;
        if k > 0 {
            drop(served);
            // What the last segment freed is not held over into the
            // next one's peak.
            serve::trim_heap();
            let (s, _, failed) = setup(w, r, serve::ENGINE_THREADS, MetricsLevel::Counters);
            warm_failed += failed;
            served = s;
        }
        let slice = match w.segment_ops {
            Some(_) => duration - loaded,
            None => duration / time_segments,
        };
        let t = Instant::now();
        runs.push(closed_loop(
            w,
            &served,
            r,
            w.clients,
            slice,
            w.segment_ops,
            seed + k,
        ));
        loaded += t.elapsed().min(slice);
    }
    let segments = runs.len();
    let windows: Vec<serve::Window> = runs.iter().flat_map(|run| run.windows()).collect();
    let run = serve::LoopRun {
        windows: windows.len(),
        clients: runs.into_iter().flat_map(|run| run.clients).collect(),
    };
    let lat = run.latencies();
    let (ops, failed) = (run.ops(), run.failed() + (warm_failed + r.unsound) as u64);
    setups.sort_by(f64::total_cmp);
    let beyond_p95 = lat.len() - (0.95 * lat.len() as f64).ceil() as usize;
    let cold: u64 = run.clients.iter().map(|c| c.cold_checked).sum();
    let warm: u64 = run.clients.iter().map(|c| c.warm_checked).sum();
    println!(
        "closed loop: {} clients, {ops} ops in {:.2}s of run over {segments} engine(s), {} latency samples ({beyond_p95} beyond p95), setups {:?} s",
        w.clients,
        duration.as_secs_f64(),
        lat.len(),
        setups
    );
    println!(
        "checks: {} warm-up failures, {} unsound references, {} failed ops; cold/warm certain responses checked {cold}/{warm}; failed_frac {:.6} (fraction)",
        warm_failed,
        r.unsound,
        run.failed(),
        failed as f64 / ops.max(1) as f64
    );
    let deciles: Vec<String> = (1..10)
        .map(|d| format!("{:.3}", quantile(&lat, d as f64 / 10.0)))
        .collect();
    println!("latency deciles (ms): {}", deciles.join(" "));
    for (i, l) in run.by_pair(w.pairs.len()).iter().enumerate() {
        let p = &w.pairs[i];
        println!(
            "  pair {i:>2} {:<10} on {:<10} plan {:<10} ops {:>6} p50 {:>9.3} ms  p95 {:>9.3} ms",
            w.queries[p.query].name,
            w.dbs[p.db].0,
            served.plans[i],
            l.len(),
            quantile(l, 0.5),
            quantile(l, 0.95)
        );
    }
    for (k, w) in windows.iter().enumerate() {
        let l = &w.latencies_ms;
        println!(
            "  window {k}: {:>8} samples ({:>5} beyond p95), {:>10.3} ops/s, p50 {:>9.3} ms, p95 {:>9.3} ms",
            l.len(),
            l.len() - (0.95 * l.len() as f64).ceil() as usize,
            w.throughput,
            quantile(l, 0.5),
            quantile(l, 0.95)
        );
    }
    let serving_peak = peak_rss_mb();
    println!(
        "peak RSS of the set-ups: {setup_peak:.1} MB; of the serving (peak_rss_mb): {serving_peak:.1} MB"
    );
    let over_windows = |f: fn(&serve::Window) -> f64| median(windows.iter().map(f).collect());
    let metrics = [
        metric("setup_s", quantile(&setups, 0.5), "s"),
        metric("throughput_ops_s", over_windows(|w| w.throughput), "1/s"),
        metric(
            "latency_p50_ms",
            over_windows(|w| quantile(&w.latencies_ms, 0.5)),
            "ms",
        ),
        metric(
            "latency_p95_ms",
            over_windows(|w| quantile(&w.latencies_ms, 0.95)),
            "ms",
        ),
        metric("peak_rss_mb", serving_peak, "MB"),
    ];
    let correct = failed == 0;
    print_result(correct, ops, failed, &metrics);
    correct
}
