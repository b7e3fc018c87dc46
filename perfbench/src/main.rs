//! `perfbench` — end-to-end and per-layer benchmark of the swarm engines.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One workload per process, one client thread, closed loop: the next
//! op starts when the previous one returns, and no engine is asked for
//! worker threads. Set-up builds every op input from `--seed`, runs a
//! few untimed warm-up ops, and is repeated to give `setup_s`. The
//! timed phase then runs whole passes over the op set for about
//! `--seconds`. Each op runs under `catch_unwind`; its output is
//! checked and digested outside the timed region.
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics
//! (tracing off). With `--trace 1` passes alternate between untraced and
//! traced, and the line carries the per-layer metrics rolled up from the
//! traced passes' spans.

mod stats;
mod trace;
mod workloads;

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{Rollup, Tracer};
use workloads::{BundleSwarm, CatalogStudy, Digest, IdlePublisher, Workload};

const USAGE: &str =
    "usage: perfbench --workload <bundle-swarm|idle-publisher|catalog-study> \
     --seed <n> --seconds <s> --trace <0|1>";

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Fewest untraced passes, whatever `--seconds` says. A traced run
/// alternates untraced and traced passes, and makes at least this many
/// of each.
const MIN_PASSES: usize = 2;

/// Crates timed from outside, in report order.
const LAYERS: [&str; 4] = [
    "swarm-bt",
    "swarm-sim",
    "swarm-measurement",
    "swarm-catalog",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} outside (0, 120]"));
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// One metric of the result line.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What one invocation reports.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Set up `W` [`SETUP_REPS`] times (each rep: input generation plus the
/// warm-up ops); returns the last instance and the median rep time.
fn set_up<W: Workload>(seed: u64, setup_tr: &mut Tracer) -> (W, f64) {
    let mut idle = Tracer::new(false);
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t0 = Instant::now();
        let w = W::setup(seed, setup_tr);
        for i in 0..W::WARMUP.min(w.len()) {
            let _ = black_box(catch_unwind(AssertUnwindSafe(|| w.run(i, &mut idle))));
        }
        times.push(t0.elapsed().as_secs_f64());
        last = Some(w);
    }
    (
        last.expect("at least one set-up rep"),
        stats::median(&times),
    )
}

fn bench<W: Workload>(args: &Args) -> Result<Outcome, String> {
    let mut setup_tr = Tracer::new(args.trace);
    let (mut w, setup_s) = set_up::<W>(args.seed, &mut setup_tr);
    let n = w.len();
    let class = w.class(0);
    if (1..n).any(|i| w.class(i) != class) {
        return Err("ops span more than one configuration class".into());
    }
    println!("# {n} ops per pass, one configuration class: {class}");

    let mut tr = Tracer::new(false);
    let (mut attempted, mut failed) = (0u64, 0u64);
    // Per-pass op times (s), split by whether the pass was traced.
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut digest = Digest::default();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    let mut pass = 0usize;
    let min_passes = MIN_PASSES * (1 + usize::from(args.trace));
    // Past the minimum, start another pass only if one more at the mean
    // pass length so far still ends by the deadline.
    let another = |pass: usize| {
        pass < min_passes || Instant::now() + start.elapsed() / pass as u32 <= deadline
    };
    while another(pass) {
        let on = args.trace && pass % 2 == 1;
        tr.set_on(on);
        if W::OBS {
            swarm_obs::set_enabled(on);
        }
        let mut times = Vec::with_capacity(n);
        for i in 0..n {
            let t0 = Instant::now();
            let id = tr.begin_op(attempted);
            let out = catch_unwind(AssertUnwindSafe(|| w.run(i, &mut tr)));
            tr.end(id);
            times.push(t0.elapsed().as_secs_f64());
            attempted += 1;
            let verdict = match &out {
                Ok(o) => w.check(i, o),
                Err(_) => Err("op panicked".to_string()),
            };
            match (verdict, &out) {
                (Err(e), _) => {
                    failed += 1;
                    eprintln!("op {i} (pass {pass}) failed: {e}");
                }
                (Ok(()), Ok(o)) if pass == 0 => W::digest(o, &mut digest),
                _ => {}
            }
        }
        if on { &mut traced } else { &mut plain }.push(times);
        pass += 1;
    }
    swarm_obs::set_enabled(false);
    for (what, passes) in [("untraced", &plain), ("traced", &traced)] {
        let totals: Vec<String> = passes
            .iter()
            .map(|p| format!("{:.3}", p.iter().sum::<f64>()))
            .collect();
        if !totals.is_empty() {
            println!("# {what} pass seconds: {}", totals.join(" "));
        }
    }
    println!(
        "# {pass} passes, {attempted} ops, output digest {:016x}",
        digest.value()
    );

    let metrics = if args.trace {
        layer_metrics(&tr, &setup_tr, &plain, &traced)
    } else {
        let mut op_ms: Vec<f64> = plain.iter().flatten().map(|t| t * 1e3).collect();
        op_ms.sort_by(f64::total_cmp);
        let tail = stats::tail(&op_ms, 0.9)
            .ok_or(format!("{} timed ops: too few for a p90", op_ms.len()))?;
        println!(
            "# op_p90_ms over {} ops, {} beyond it",
            op_ms.len(),
            tail.beyond
        );
        vec![
            metric("wall_s", pass_wall_s(&plain), "s"),
            metric("op_p50_ms", stats::quantile(&op_ms, 0.5), "ms"),
            metric("op_p90_ms", tail.value, "ms"),
            metric("setup_s", setup_s, "s"),
            metric("peak_rss_mb", peak_rss_mb()?, "MB"),
            metric("ok_frac", 1.0 - failed as f64 / attempted as f64, "frac"),
        ]
    };
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}

/// Host seconds for one pass over the op set: the timed op seconds of
/// `passes`, over their number. A mean over the whole run varies less
/// from run to run than a median of a few passes on a host whose speed
/// drifts under other tenants' load.
fn pass_wall_s(passes: &[Vec<f64>]) -> f64 {
    passes.iter().flatten().sum::<f64>() / passes.len() as f64
}

/// Per-layer metrics from the traced passes' spans and counts.
fn layer_metrics(
    tr: &Tracer,
    setup_tr: &Tracer,
    plain: &[Vec<f64>],
    traced: &[Vec<f64>],
) -> Vec<Metric> {
    let r = Rollup::of(tr.spans());
    let setup = Rollup::of(setup_tr.spans());
    let count = |name: &str| tr.counts().get(name).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let ops = r.calls(trace::OP) as f64;

    let bt_runs = r.calls("swarm-bt.run") as f64;
    let ticks = count("swarm-bt.ticks");
    let elided = count("swarm-bt.ticks_elided");
    let bt_ns = r.total_ns("swarm-bt.run") as f64;
    let events = count("swarm-catalog.events");

    let mut m = vec![
        metric("swarm-bt.run_ms", r.mean_ms("swarm-bt.run"), "ms"),
        metric(
            "swarm-bt.dense_tick_us",
            ratio(bt_ns / 1e3, ticks - elided),
            "us",
        ),
        metric("swarm-bt.ticks", ratio(ticks, bt_runs), "count"),
        metric("swarm-bt.ticks_elided", ratio(elided, bt_runs), "count"),
        metric("swarm-bt.elided_frac", ratio(elided, ticks), "frac"),
        metric(
            "swarm-bt.bytes_moved",
            ratio(count("swarm-bt.bytes_moved"), bt_runs),
            "kB",
        ),
        metric(
            "swarm-bt.completion_ratio",
            ratio(count("swarm-bt.completions"), count("swarm-bt.arrivals")),
            "frac",
        ),
        metric("swarm-sim.run_ms", r.mean_ms("swarm-sim.run"), "ms"),
        metric(
            "swarm-measurement.generate_catalog_ms",
            setup.mean_ms("swarm-measurement.generate_catalog"),
            "ms",
        ),
        metric(
            "swarm-measurement.availability_study_ms",
            r.mean_ms("swarm-measurement.availability_study"),
            "ms",
        ),
        metric(
            "swarm-measurement.bias_study_ms",
            r.mean_ms("swarm-measurement.bias_study"),
            "ms",
        ),
        metric(
            "swarm-measurement.swarm_months",
            ratio(count("swarm-measurement.swarm_months"), ops),
            "count",
        ),
        metric(
            "swarm-catalog.run_catalog_ms",
            r.mean_ms("swarm-catalog.run_catalog"),
            "ms",
        ),
        metric(
            "swarm-catalog.study_live_ms",
            r.mean_ms("swarm-catalog.study_live"),
            "ms",
        ),
        metric("swarm-catalog.events", ratio(events, ops), "count"),
        metric(
            "swarm-catalog.ns_per_event",
            ratio(r.total_ns("swarm-catalog.run_catalog") as f64, events),
            "ns",
        ),
    ];
    m.extend(
        LAYERS
            .iter()
            .map(|l| metric(format!("{l}.share"), r.share(l), "frac")),
    );
    m.push(metric("unattributed_frac", r.unattributed_frac(), "frac"));
    m.push(metric(
        "trace_overhead_frac",
        pass_wall_s(traced) / pass_wall_s(plain) - 1.0,
        "frac",
    ));
    m
}

fn json_result(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "bundle-swarm" => bench::<BundleSwarm>(&args),
        "idle-publisher" => bench::<IdlePublisher>(&args),
        "catalog-study" => bench::<CatalogStudy>(&args),
        w => Err(format!("unknown workload {w}\n{USAGE}")),
    };
    match outcome {
        Ok(o) => {
            if let Some(bad) = o.metrics.iter().find(|m| !m.value.is_finite()) {
                eprintln!("perfbench: metric {} is {}", bad.name, bad.value);
                return ExitCode::FAILURE;
            }
            for m in &o.metrics {
                println!("# {} = {} {}", m.name, m.value, m.unit);
            }
            println!("{}", json_result(&o));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
