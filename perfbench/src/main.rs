//! The LaSS reproduction's benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each repetition generates the workload from the seed, builds it
//! through the program's public constructors and makes one engine call;
//! repetitions continue until `--seconds` have passed (at least
//! [`MIN_PAIRS`] pairs). With `--trace 0` every repetition is untraced and
//! the end-to-end metrics are printed; with `--trace 1` untraced and
//! traced repetitions alternate and the per-layer metrics are printed.
//! Every repetition must conserve arrivals and reproduce the first
//! repetition's report digest, traced or not; otherwise the run is
//! marked failed and the command exits with status 1. The last line of
//! standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod alloc;
mod stats;
mod trace;
mod workloads;

use stats::median;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Rep, Workload};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Fewest repetitions (`--trace 0`) or untraced/traced pairs
/// (`--trace 1`) a run makes, whatever `--seconds` says.
const MIN_PAIRS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 120.0) {
                    return Err(format!("seconds must be in (0, 120], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One printed metric.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// What a run measured, or why it failed.
struct Outcome {
    attempted: u64,
    failed_share: f64,
    digest: Option<u64>,
    failed_ops: u64,
    error: Option<String>,
    metrics: Vec<Metric>,
}

/// Run one repetition, check it, and hold it to the first repetition's
/// simulated outcome and, where both have one, report digest.
fn rep(args: &Args, traced: bool, with_digest: bool, first: Option<&Rep>) -> Result<Rep, String> {
    let r = workloads::run_once(args.workload, args.seed, traced, with_digest)?;
    eprintln!(
        "repetition traced={traced} setup_samples={} engine_s={:.6} arrivals={}",
        r.setup.len(),
        r.engine_s,
        r.counters.arrivals
    );
    r.check()?;
    let Some(first) = first else { return Ok(r) };
    let which = if traced { "traced" } else { "untraced" };
    if r.outcome() != first.outcome() {
        return Err(format!(
            "{which} repetition's outcome {:?} differs from the first's {:?}",
            r.outcome(),
            first.outcome()
        ));
    }
    if let (Some(d), Some(d0)) = (r.digest, first.digest) {
        if d != d0 {
            return Err(format!(
                "{which} repetition's report digest {d:016x} differs from the first's {d0:016x}"
            ));
        }
    }
    Ok(r)
}

/// VmHWM of this process, MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Every set-up sample of `reps`.
fn setups(reps: &[Rep]) -> impl Iterator<Item = &workloads::Setup> {
    reps.iter().flat_map(|r| &r.setup)
}

fn end_to_end(args: &Args) -> Result<(Vec<Rep>, Vec<Metric>), String> {
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut reps: Vec<Rep> = Vec::new();
    let mut peak_rss = 0.0;
    while reps.len() < MIN_PAIRS || Instant::now() < deadline {
        // The digest costs a serialization of the whole report: take it
        // once; later repetitions are held to the first's outcome.
        let r = rep(args, false, reps.is_empty(), reps.first())?;
        if reps.is_empty() {
            // Later repetitions rebuild on a fragmented heap; their count
            // depends on host speed, so the peak is read after the first.
            peak_rss = peak_rss_mib()?;
        }
        reps.push(r);
    }
    let first = &reps[0];
    let throughput: Vec<f64> = reps
        .iter()
        .map(|r| stats::sim_req_per_s(r.counters.arrivals, r.engine_s))
        .collect();
    let setup: Vec<f64> = setups(&reps).map(|s| s.inputs_s + s.build_s).collect();
    let metrics = vec![
        metric("sim_req_per_s", "req/s", median(&throughput)),
        metric("setup_s", "s", median(&setup)),
        metric("peak_rss_mib", "MiB", peak_rss),
        metric("slo_miss_ratio", "ratio", first.counters.slo_miss_ratio()),
        metric("mean_response_ms", "ms", first.mean_response_ms),
        metric("p99_response_ms_top_fn", "ms", first.p99_response_ms_top_fn),
    ];
    Ok((reps, metrics))
}

fn per_arrival(count: u64, arrivals: u64) -> f64 {
    count as f64 / arrivals.max(1) as f64
}

/// The per-layer metrics of one traced repetition.
fn layer_metrics(r: &Rep) -> Vec<Metric> {
    use trace::{Kind, Layer, LAYERS};
    let arrivals = r.counters.arrivals;
    let mut m = Vec::new();
    let t = r.trace.as_ref().expect("traced repetition");
    let run_ns = t.run_ns as f64;
    m.push(metric("trace.run_s", "s", run_ns / 1e9));
    for layer in LAYERS {
        m.push(metric(
            share_name(layer),
            "ratio",
            t.main.layer(layer) as f64 / run_ns,
        ));
    }
    // Popped events: every front-end callback of the sequential pump;
    // under the parallel executor, the arrivals plus the site callbacks
    // they cause. Unknown (0) when no seam is wrapped.
    let site_calls = t.calls(Kind::SiteArrival) + t.calls(Kind::SiteEvent);
    let events = if t.main.calls(Kind::FrontArrival) > 0 {
        t.main.calls(Kind::FrontArrival) + t.main.calls(Kind::FrontEvent)
    } else if site_calls > 0 {
        arrivals + site_calls
    } else {
        0
    };
    m.push(metric(
        "engine.self_ns_per_event",
        "ns",
        if events == 0 {
            0.0
        } else {
            t.main.layer(Layer::Engine) as f64 / events as f64
        },
    ));
    m.push(metric(
        "engine.events_per_arrival",
        "events/arrival",
        per_arrival(events, arrivals),
    ));
    m.push(metric(
        "events.schedule_ns",
        "ns",
        t.mean_ns(Kind::Schedule),
    ));
    m.push(metric(
        "events.schedule_per_arrival",
        "calls/arrival",
        per_arrival(t.calls(Kind::Schedule), arrivals),
    ));
    m.push(metric(
        "reqtable.complete_ns",
        "ns",
        t.mean_ns(Kind::Complete),
    ));
    m.push(metric("reqtable.lookup_ns", "ns", t.mean_ns(Kind::Lookup)));
    let arrival_self = &t.main.arrival_self_ns;
    m.push(metric(
        "federation.arrival_self_ns.p50",
        "ns",
        stats::nearest_rank(arrival_self, 0.50) as f64,
    ));
    m.push(metric(
        "federation.arrival_self_ns.p99",
        "ns",
        stats::nearest_rank(arrival_self, 0.99) as f64,
    ));
    m.push(metric(
        "federation.event_self_ns",
        "ns",
        t.mean_ns(Kind::FrontEvent),
    ));
    m.push(metric(
        "federation.observe_per_arrival",
        "calls/arrival",
        per_arrival(t.observe, arrivals),
    ));
    m.push(metric("router.route_ns", "ns", t.mean_ns(Kind::Route)));
    m.push(metric(
        "site.arrival_ns",
        "ns",
        t.mean_ns(Kind::SiteArrival),
    ));
    m.push(metric("site.event_ns", "ns", t.mean_ns(Kind::SiteEvent)));
    let site_busy_s = t.workers.top_ns as f64 / 1e9;
    let busy_ratio = if t.workers_used > 0 {
        t.workers.top_ns as f64 / (t.workers_used as f64 * run_ns)
    } else {
        0.0
    };
    m.push(metric("parallel.worker_busy_ratio", "ratio", busy_ratio));
    m.push(metric("parallel.site_busy_s", "s", site_busy_s));
    m
}

fn share_name(layer: trace::Layer) -> &'static str {
    match layer {
        trace::Layer::Engine => "engine.self_share",
        trace::Layer::Events => "events.self_share",
        trace::Layer::Reqtable => "reqtable.self_share",
        trace::Layer::Federation => "federation.self_share",
        trace::Layer::Router => "router.self_share",
        trace::Layer::Site => "site.self_share",
    }
}

/// Element-wise median of per-repetition metric lists that share their
/// names and order.
fn median_metrics(runs: &[Vec<Metric>]) -> Vec<Metric> {
    runs[0]
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let values: Vec<f64> = runs.iter().map(|r| r[i].value).collect();
            metric(m.name, m.unit, median(&values))
        })
        .collect()
}

fn per_layer(args: &Args) -> Result<(Vec<Rep>, Vec<Metric>), String> {
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let mut probe = workloads::ProbeTimes::default();
    while traced.len() < MIN_PAIRS || Instant::now() < deadline {
        let p = rep(args, false, true, plain.first())?;
        let t = rep(args, true, true, plain.first().or(Some(&p)))?;
        if args.workload == Workload::LassEdge {
            let times = workloads::controller_probe();
            probe.plan_us.extend(times.plan_us);
            probe.apply_us.extend(times.apply_us);
        }
        plain.push(p);
        traced.push(t);
    }
    let layer_runs: Vec<Vec<Metric>> = traced.iter().map(layer_metrics).collect();
    let mut m = median_metrics(&layer_runs);

    probe.plan_us.sort_by(f64::total_cmp);
    m.push(metric(
        "controller.plan_epoch_us.p50",
        "us",
        stats::nearest_rank(&probe.plan_us, 0.50),
    ));
    m.push(metric(
        "controller.plan_epoch_us.p99",
        "us",
        stats::nearest_rank(&probe.plan_us, 0.99),
    ));
    // Most epochs apply an empty plan; the mean keeps the ones that act.
    let apply_us = if probe.apply_us.is_empty() {
        0.0
    } else {
        probe.apply_us.iter().sum::<f64>() / probe.apply_us.len() as f64
    };
    m.push(metric("controller.apply_us", "us", apply_us));
    let lass = traced[0].lass;
    m.push(metric(
        "controller.epochs",
        "count",
        lass.map_or(0, |l| l.epochs) as f64,
    ));
    m.push(metric(
        "controller.overloaded_epochs",
        "count",
        lass.map_or(0, |l| l.overloaded_epochs) as f64,
    ));
    m.push(metric(
        "cluster.failed_creates",
        "count",
        lass.map_or(0, |l| l.failed_creates) as f64,
    ));
    m.push(metric(
        "lass.reruns",
        "count",
        lass.map_or(0, |l| l.reruns) as f64,
    ));
    let inputs: Vec<f64> = setups(&plain).map(|s| s.inputs_s).collect();
    let build: Vec<f64> = setups(&plain).map(|s| s.build_s).collect();
    m.push(metric("setup.inputs_s", "s", median(&inputs)));
    m.push(metric("setup.build_s", "s", median(&build)));
    let allocs: Vec<f64> = plain
        .iter()
        .map(|r| per_arrival(r.allocs, r.counters.arrivals))
        .collect();
    m.push(metric(
        "alloc.per_arrival",
        "allocs/arrival",
        median(&allocs),
    ));
    let plain_s: Vec<f64> = plain.iter().map(|r| r.engine_s).collect();
    let traced_s: Vec<f64> = traced.iter().map(|r| r.engine_s).collect();
    m.push(metric(
        "tracing.overhead_ratio",
        "ratio",
        median(&traced_s) / median(&plain_s),
    ));
    Ok((plain, m))
}

fn run(args: &Args) -> Outcome {
    let result = if args.trace {
        per_layer(args)
    } else {
        end_to_end(args)
    };
    match result {
        Ok((reps, metrics)) => {
            let first = &reps[0];
            Outcome {
                attempted: first.counters.arrivals,
                failed_share: first.counters.failed_share(),
                digest: first.digest,
                failed_ops: first.counters.failed(),
                error: metrics
                    .iter()
                    .find(|m| !m.value.is_finite())
                    .map(|m| format!("metric {} is not finite", m.name)),
                metrics,
            }
        }
        Err(e) => Outcome {
            attempted: 1,
            failed_share: 1.0,
            digest: None,
            failed_ops: 1,
            error: Some(e),
            metrics: Vec::new(),
        },
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "workload {} seed {} trace {} host_cores {cores}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let out = run(&args);
    if let Some(d) = out.digest {
        println!("digest fnv64 {d:016x}");
    }
    for m in &out.metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    let correct = out.error.is_none();
    println!(
        "operations attempted {} failed {} failed_share {}",
        out.attempted, out.failed_ops, out.failed_share
    );
    if let Some(e) = &out.error {
        eprintln!("error: {e}");
    }
    let failed = if correct {
        out.failed_ops
    } else {
        out.attempted
    };
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .filter(|m| m.value.is_finite())
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        out.attempted,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
