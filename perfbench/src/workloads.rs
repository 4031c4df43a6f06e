//! The four workloads: input generation from a seed, construction
//! through the program's public entry points, one engine call, and the
//! checks and statistics of its report.

use crate::stats::{self, Counters};
use crate::trace::{self, Fold, Kind, Recorder, Role, Sink, Traced, TracedRouter};
use lass::cluster::{FnId, PlacementPolicy, UserId};
use lass::core::{
    FunctionRegistry, FunctionSetup, LassConfig, LassController, SimReport, Simulation,
};
use lass::functions::{self as catalog, FunctionSpec, WorkloadSpec};
use lass::replay::{CapacityPolicy, CapacityReport};
use lass::scenario::ClusterSpec;
use lass::simcore::{
    run_federation_parallel, run_simulation, ChaosConfig, ContainerChaos, EngineConfig,
    FedFunction, FederatedReport, Federation, FunctionEntry, RouterKind, RouterPolicy, SimDuration,
    SimRng, SimTime, SiteMeta, StaticPoisson,
};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 10⁵ Zipf functions on 2 round-robin sites: calendar, request
    /// table, statistics and set-up dominate.
    ReplayWide,
    /// 10³ functions at 25k req/s on 4 least-loaded sites: the
    /// per-arrival route-state refresh dominates.
    ReplayHot,
    /// 2·10³ functions on 16 sites under the parallel executor.
    ReplayParallel,
    /// One edge cluster under the LaSS controller, crossing capacity.
    LassEdge,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::ReplayWide,
        Workload::ReplayHot,
        Workload::ReplayParallel,
        Workload::LassEdge,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReplayWide => "replay-wide",
            Workload::ReplayHot => "replay-hot",
            Workload::ReplayParallel => "replay-parallel",
            Workload::LassEdge => "lass-edge",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Exact counts of the LaSS control loop, from the simulation report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LassCounts {
    /// Epochs planned.
    pub epochs: u64,
    /// Epochs planned under overload (fair-share mode).
    pub overloaded_epochs: u64,
    /// Container creates that failed after lazy reclamation.
    pub failed_creates: u64,
    /// Requests re-dispatched after losing their container.
    pub reruns: u64,
}

/// The per-layer view of one traced engine call.
#[derive(Debug, Clone)]
pub struct LayerTrace {
    /// Wall time of the traced engine call, nanoseconds.
    pub run_ns: u64,
    /// Self times of the engine's own thread; sums to `run_ns`.
    pub main: Fold,
    /// Self times of site work on worker threads (parallel executor).
    pub workers: Fold,
    /// Worker threads the run used (0 when sequential).
    pub workers_used: usize,
    /// Site census calls made by the front end.
    pub observe: u64,
}

impl LayerTrace {
    /// A run whose seams cannot be wrapped: all of it is engine time.
    fn opaque(run_ns: u64) -> Self {
        let mut main = Fold::default();
        main.layer_ns[0] = run_ns;
        Self {
            run_ns,
            main,
            workers: Fold::default(),
            workers_used: 0,
            observe: 0,
        }
    }

    /// Calls of `kind` on any thread.
    pub fn calls(&self, kind: Kind) -> u64 {
        self.main.calls(kind) + self.workers.calls(kind)
    }

    /// Mean self nanoseconds per call of `kind` on any thread.
    pub fn mean_ns(&self, kind: Kind) -> f64 {
        let n = self.calls(kind);
        if n == 0 {
            0.0
        } else {
            (self.main.kind_ns[kind as usize] + self.workers.kind_ns[kind as usize]) as f64
                / n as f64
        }
    }
}

/// What one generate → build → engine call produced.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Set-up samples taken for this repetition.
    pub setup: Vec<Setup>,
    /// Host seconds of the engine call.
    pub engine_s: f64,
    /// Allocation calls during the engine call.
    pub allocs: u64,
    /// Engine request counters.
    pub counters: Counters,
    /// Completed requests whose wait was recorded (must equal
    /// `counters.completed`).
    pub waits_recorded: u64,
    /// FNV-64 of the serialized report, when asked for.
    pub digest: Option<u64>,
    /// Completion-weighted mean response time, simulated ms.
    pub mean_response_ms: f64,
    /// p99 response time of the function with the most arrivals,
    /// simulated ms.
    pub p99_response_ms_top_fn: f64,
    /// LaSS control-loop counts (`lass-edge` only).
    pub lass: Option<LassCounts>,
    /// Per-layer self times (traced replay runs only).
    pub trace: Option<LayerTrace>,
}

impl Rep {
    /// The simulated outcome, bit for bit: repetitions of one seed must
    /// agree on it whether or not they computed a digest.
    pub fn outcome(&self) -> (Counters, u64, u64) {
        (
            self.counters,
            self.mean_response_ms.to_bits(),
            self.p99_response_ms_top_fn.to_bits(),
        )
    }

    /// The correctness checks every run must pass.
    pub fn check(&self) -> Result<(), String> {
        let c = &self.counters;
        if !c.conserved() {
            return Err(format!("arrivals not conserved: {c:?}"));
        }
        if c.arrivals == 0 || c.completed == 0 {
            return Err(format!("empty run: {c:?}"));
        }
        if self.waits_recorded != c.completed {
            return Err(format!(
                "{} waits recorded for {} completions",
                self.waits_recorded, c.completed
            ));
        }
        Ok(())
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// FNV-64 over a report's JSON, serialized in pieces: the report with
/// its per-function list taken out, then each per-function entry in
/// order. Piecewise serialization keeps the digest's memory small next to
/// the run's. The reports hold simulated quantities only; their one
/// wall-clock field (`FederatedReport::threads`) is not serialized.
fn digest<R: serde::Serialize, F: serde::Serialize>(
    report: &R,
    per_fn: &[F],
) -> Result<u64, String> {
    let json = |v: serde::Value| {
        serde_json::to_string(&v).map_err(|e| format!("serializing report: {e:?}"))
    };
    let mut h = stats::Fnv64::new();
    h.write(json(report.serialize())?.as_bytes());
    for f in per_fn {
        h.write(json(f.serialize())?.as_bytes());
    }
    Ok(h.finish())
}

/// Generate, build and run `workload` once.
pub fn run_once(
    workload: Workload,
    seed: u64,
    traced: bool,
    with_digest: bool,
) -> Result<Rep, String> {
    match workload {
        Workload::ReplayWide => run_replay(&WIDE, seed, traced, with_digest),
        Workload::ReplayHot => run_replay(&HOT, seed, traced, with_digest),
        Workload::ReplayParallel => run_replay(&PARALLEL, seed, traced, with_digest),
        Workload::LassEdge => run_edge(seed, traced, with_digest),
    }
}

// ---------------------------------------------------------------------
// Replay workloads: Zipf-popular functions on fixed-capacity FCFS sites.
// ---------------------------------------------------------------------

/// Router→site latency of a replay workload.
#[derive(Debug, Clone, Copy)]
enum Latency {
    /// Site `i` pays `2·i` ms: site 0 is the zero-latency local pool.
    Ladder,
    /// Every site pays the same hop, milliseconds.
    Uniform(f64),
}

/// The parameters of a replay workload.
#[derive(Debug, Clone, Copy)]
struct ReplayShape {
    functions: usize,
    zipf: f64,
    total_rps: f64,
    secs: f64,
    sites: usize,
    router: RouterKind,
    latency: Latency,
    utilization: f64,
    workers: Option<usize>,
    /// Set-ups per untraced repetition (about 50 ms of set-up each).
    setup_repeats: usize,
}

/// Waiting-time SLO of the function at popularity rank `rank`: every
/// other rank is latency-critical with a deadline only a zero-latency
/// site can meet; the rest have the paper's 100 ms. At the planned
/// utilization the replays barely queue, so without the tight half
/// every wait would sit on the network hop and no request would miss.
fn replay_slo_secs(rank: usize) -> f64 {
    if rank.is_multiple_of(2) {
        0.001
    } else {
        0.1
    }
}

impl ReplayShape {
    fn latency(&self, site: usize) -> SimDuration {
        match self.latency {
            Latency::Ladder => SimDuration::from_millis(2 * site as u64),
            Latency::Uniform(ms) => SimDuration::from_secs_f64(ms / 1e3),
        }
    }
}

const WIDE: ReplayShape = ReplayShape {
    functions: 100_000,
    zipf: 1.1,
    total_rps: 2_500.0,
    secs: 60.0,
    sites: 2,
    router: RouterKind::RoundRobin,
    latency: Latency::Ladder,
    utilization: 0.7,
    workers: None,
    setup_repeats: 1,
};

const HOT: ReplayShape = ReplayShape {
    functions: 1_000,
    zipf: 1.1,
    total_rps: 25_000.0,
    secs: 6.0,
    sites: 4,
    router: RouterKind::LeastLoaded,
    latency: Latency::Uniform(5.0),
    utilization: 0.7,
    workers: None,
    setup_repeats: 100,
};

const PARALLEL: ReplayShape = ReplayShape {
    functions: 2_000,
    zipf: 1.1,
    total_rps: 10_000.0,
    secs: 15.0,
    sites: 16,
    router: RouterKind::LeastLoaded,
    latency: Latency::Uniform(5.0),
    utilization: 0.7,
    workers: Some(2),
    setup_repeats: 15,
};

/// A replay workload's generated inputs.
struct ReplayInputs {
    entries: Vec<FunctionEntry>,
    functions: Vec<FedFunction>,
    service_means: Arc<[f64]>,
    servers_per_site: u32,
}

/// Mean service time of the function at popularity rank `rank`, in
/// `[10 ms, 100 ms)`: fixed by rank so that the seed moves the traffic,
/// not the service demand.
fn service_mean(rank: usize) -> f64 {
    let h = (rank as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40;
    0.010 + 0.090 * (h % 1_000) as f64 / 1_000.0
}

fn replay_inputs(shape: &ReplayShape, seed: u64) -> ReplayInputs {
    let end = SimTime::from_secs_f64(shape.secs);
    // The seed shuffles popularity ranks over function ids, so the hot
    // functions land at different places in every id-indexed table.
    let mut rng = SimRng::from_seed_label(seed, "perfbench:ranks");
    let mut rank: Vec<usize> = (0..shape.functions).collect();
    for i in (1..rank.len()).rev() {
        rank.swap(i, rng.below(i + 1));
    }
    let total: f64 = (1..=shape.functions)
        .map(|r| (r as f64).powf(-shape.zipf))
        .sum();
    let mut entries = Vec::with_capacity(shape.functions);
    let mut functions = Vec::with_capacity(shape.functions);
    let mut means = Vec::with_capacity(shape.functions);
    let mut erlangs = 0.0;
    for (i, &r) in rank.iter().enumerate() {
        let name = format!("fn-{i:06}");
        let rate = shape.total_rps * (r as f64 + 1.0).powf(-shape.zipf) / total;
        let mean = service_mean(r);
        erlangs += rate * mean;
        means.push(mean);
        let slo_deadline = replay_slo_secs(r);
        entries.push(FunctionEntry {
            name: name.clone(),
            slo_deadline,
            process: Box::new(StaticPoisson::until(rate, end)),
        });
        functions.push(FedFunction {
            name,
            slo_deadline,
            demand: [0.0; 3],
        });
    }
    // Capacity plan: the offered erlangs at the target utilization,
    // split evenly, plus one server per site for rounding.
    let servers = (erlangs / shape.utilization).ceil() as u32;
    ReplayInputs {
        entries,
        functions,
        service_means: Arc::from(means),
        servers_per_site: servers / shape.sites as u32 + 1,
    }
}

fn replay_federation<P: ContainerChaos>(
    shape: &ReplayShape,
    inputs: &ReplayInputs,
    router: Box<dyn RouterPolicy + Send>,
    mut site: impl FnMut(CapacityPolicy) -> P,
) -> Federation<P> {
    let sites = (0..shape.sites)
        .map(|i| {
            let meta = SiteMeta {
                name: format!("site{i}"),
                latency: shape.latency(i),
                capacity_hint: f64::from(inputs.servers_per_site),
            };
            let policy =
                CapacityPolicy::new(inputs.servers_per_site, Arc::clone(&inputs.service_means));
            (meta, site(policy))
        })
        .collect();
    Federation::new(sites, router, &inputs.functions).with_streaming_stats()
}

/// Run the engine on a federation: the parallel executor when the shape
/// asks for workers, the sequential pump otherwise, behind the traced
/// front-end wrapper when a recorder is given.
fn run_engine<P>(
    shape: &ReplayShape,
    cfg: EngineConfig,
    entries: Vec<FunctionEntry>,
    federation: Federation<P>,
    seed: u64,
    front: Option<Recorder>,
) -> FederatedReport<P::Report>
where
    P: ContainerChaos + Send,
    P::Event: Send,
{
    match (shape.workers, front) {
        (Some(_), _) => {
            run_federation_parallel(cfg, entries, federation, ChaosConfig::default(), seed)
        }
        (None, Some(rec)) => {
            run_simulation(cfg, entries, Traced::new(federation, Role::Front, rec))
        }
        (None, None) => run_simulation(cfg, entries, federation),
    }
}

fn run_replay(
    shape: &ReplayShape,
    seed: u64,
    traced: bool,
    with_digest: bool,
) -> Result<Rep, String> {
    let cfg = EngineConfig {
        seed,
        rng_label_prefix: String::new(),
        duration_secs: shape.secs,
        drain_secs: 120.0,
        stream_stats: true,
        parallel_sites: shape.workers,
    };
    if traced {
        trace::mark_main_thread();
        let base = Instant::now();
        let sink: Sink = Arc::new(Mutex::new(Vec::new()));
        let (inputs, federation, setup) = timed_setup(
            || replay_inputs(shape, seed),
            |inputs| {
                let router = TracedRouter::new(shape.router.build(), Recorder::new(base, &sink));
                replay_federation(shape, inputs, Box::new(router), |p| {
                    Traced::new(p, Role::Site, Recorder::new(base, &sink))
                })
            },
        );
        let front = Recorder::new(base, &sink);
        let a0 = crate::alloc::count();
        let lo = nanos_since(base);
        let t = Instant::now();
        let report = run_engine(shape, cfg, inputs.entries, federation, seed, Some(front));
        let engine_s = secs(t);
        let hi = nanos_since(base);
        let allocs = crate::alloc::count() - a0;
        let trace = layer_trace(&sink, (lo, hi), report.threads, shape.workers.is_some())?;
        replay_rep(
            report,
            vec![setup],
            engine_s,
            allocs,
            Some(trace),
            with_digest,
        )
    } else {
        let (inputs, federation, setup) = repeated_setup(shape.setup_repeats, || {
            timed_setup(
                || replay_inputs(shape, seed),
                |inputs| replay_federation(shape, inputs, shape.router.build(), |p| p),
            )
        });
        let a0 = crate::alloc::count();
        let t = Instant::now();
        let report = run_engine(shape, cfg, inputs.entries, federation, seed, None);
        let engine_s = secs(t);
        let allocs = crate::alloc::count() - a0;
        replay_rep(report, setup, engine_s, allocs, None, with_digest)
    }
}

/// Host seconds of one set-up: input generation, then the program's
/// constructors.
#[derive(Debug, Clone, Copy)]
pub struct Setup {
    /// The benchmark's own generator.
    pub inputs_s: f64,
    /// The program's constructors.
    pub build_s: f64,
}

/// Generate inputs, then build on them, timing each step.
fn timed_setup<I, B>(generate: impl FnOnce() -> I, build: impl FnOnce(&I) -> B) -> (I, B, Setup) {
    let t = Instant::now();
    let inputs = generate();
    let inputs_s = secs(t);
    let t = Instant::now();
    let built = build(&inputs);
    let build_s = secs(t);
    (inputs, built, Setup { inputs_s, build_s })
}

/// Run `setup` `times` times, keeping the last build and every sample:
/// a short set-up is reported as the median of many. The count is fixed
/// per workload, not timed, so that the memory high-water mark does not
/// depend on host speed.
fn repeated_setup<I, B>(
    times: usize,
    mut setup: impl FnMut() -> (I, B, Setup),
) -> (I, B, Vec<Setup>) {
    let mut samples = Vec::with_capacity(times);
    loop {
        let (inputs, built, s) = setup();
        samples.push(s);
        if samples.len() >= times {
            return (inputs, built, samples);
        }
    }
}

fn nanos_since(base: Instant) -> u64 {
    u64::try_from(base.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn layer_trace(
    sink: &Sink,
    window: (u64, u64),
    threads: usize,
    parallel: bool,
) -> Result<LayerTrace, String> {
    let recorded = std::mem::take(&mut *sink.lock().map_err(|_| "trace sink poisoned")?);
    let mut main_spans = Vec::new();
    let mut workers = Fold::default();
    let mut observe = 0;
    for rec in recorded {
        observe += rec.observe;
        let (main, mut worker): (Vec<_>, Vec<_>) = rec.spans.into_iter().partition(|s| s.main);
        main_spans.extend(main);
        // One recorder's worker spans come from one site, which a single
        // worker runs at a time, so they nest among themselves.
        let f = trace::fold(&mut worker, None)?;
        for i in 0..workers.layer_ns.len() {
            workers.layer_ns[i] += f.layer_ns[i];
        }
        for i in 0..trace::KINDS {
            workers.calls[i] += f.calls[i];
            workers.kind_ns[i] += f.kind_ns[i];
        }
        workers.top_ns += f.top_ns;
    }
    let main = trace::fold(&mut main_spans, Some(window))?;
    Ok(LayerTrace {
        run_ns: window.1 - window.0,
        main,
        workers,
        workers_used: if parallel { threads } else { 0 },
        observe,
    })
}

fn replay_rep(
    mut report: FederatedReport<CapacityReport>,
    setup: Vec<Setup>,
    engine_s: f64,
    allocs: u64,
    trace: Option<LayerTrace>,
    with_digest: bool,
) -> Result<Rep, String> {
    let digest = if with_digest {
        let per_fn = std::mem::take(&mut report.aggregate_per_fn);
        let d = digest(&report, &per_fn)?;
        report.aggregate_per_fn = per_fn;
        Some(d)
    } else {
        None
    };
    let mut c = Counters {
        outstanding: report.outstanding as u64,
        ..Counters::default()
    };
    let (mut waits, mut response_sum) = (0u64, 0.0);
    for f in &report.aggregate_per_fn {
        c.arrivals += f.arrivals as u64;
        c.completed += f.completed as u64;
        c.lost += f.lost as u64;
        c.timeouts += f.timeouts as u64;
        c.slo_violations += f.slo_violations as u64;
        waits += f.wait.count() as u64;
        response_sum += f.response.mean().unwrap_or(0.0) * f.completed as f64;
    }
    let top = report
        .aggregate_per_fn
        .iter_mut()
        .max_by_key(|f| f.arrivals)
        .ok_or("report has no functions")?;
    let p99 = top.response.percentile(0.99).unwrap_or(0.0);
    Ok(Rep {
        setup,
        engine_s,
        allocs,
        counters: c,
        waits_recorded: waits,
        digest,
        mean_response_ms: 1e3 * response_sum / c.completed.max(1) as f64,
        p99_response_ms_top_fn: 1e3 * p99,
        lass: None,
        trace,
    })
}

// ---------------------------------------------------------------------
// lass-edge: one edge cluster under the LaSS controller.
// ---------------------------------------------------------------------

/// Simulated length of the `lass-edge` run, seconds.
const EDGE_SECS: f64 = 600.0;
/// Set-ups per untraced `lass-edge` repetition (about 10 ms in all).
const EDGE_SETUP_REPEATS: usize = 1000;
/// Functions deployed on the edge cluster.
const EDGE_FUNCTIONS: usize = 18;
/// Weights of the three users.
const EDGE_USER_WEIGHTS: [f64; 3] = [1.0, 2.0, 1.0];
/// Offered CPU load as a share of cluster capacity outside and inside
/// the middle third of the run.
const EDGE_BASE_LOAD: f64 = 0.15;
const EDGE_PEAK_LOAD: f64 = 0.33;

/// The `lass-edge` inputs: the cluster spec, the controller config and
/// the deployed functions.
pub struct EdgeInputs {
    /// The edge cluster: 8 nodes × 4 vCPU.
    pub cluster: ClusterSpec,
    /// The controller configuration (the paper's defaults).
    pub config: LassConfig,
    /// One setup per function.
    pub setups: Vec<FunctionSetup>,
}

fn edge_catalog(kind: usize) -> FunctionSpec {
    match kind % 7 {
        0 => catalog::micro_benchmark(0.1),
        1 => catalog::squeezenet(),
        2 => catalog::geofence(),
        3 => catalog::binary_alert(),
        4 => catalog::image_resizer(),
        5 => catalog::shufflenet_v2(),
        _ => catalog::mobilenet_v2(),
    }
}

/// The `lass-edge` deployment. Function `i` is the `i mod 7`-th catalog
/// function, owned by user `(i / 3) mod 3`; a third of the functions are
/// static, a third ramp up across the run, and a third step up for the
/// middle third. The deployment is fixed; the seed drives the engine's
/// arrival and service streams. Fixed load shares keep the simulated
/// statistics steady across seeds: with seeded shares, which functions
/// fair share starves changed from seed to seed.
pub fn edge_inputs() -> EdgeInputs {
    let cluster = ClusterSpec {
        nodes: 8,
        cpu_milli: 4_000,
        mem_mib: 16 * 1024,
        bw_mbps: None,
        placement: PlacementPolicy::BestFit,
    };
    let capacity_cores = f64::from(cluster.nodes) * f64::from(cluster.cpu_milli) / 1e3;
    let mut rng = SimRng::from_seed_label(0, "perfbench:edge-shares");
    let specs: Vec<FunctionSpec> = (0..EDGE_FUNCTIONS)
        .map(|i| {
            let mut spec = edge_catalog(i);
            spec.name = format!("{}#{i}", spec.name);
            spec
        })
        .collect();
    let jitter: Vec<f64> = (0..EDGE_FUNCTIONS).map(|_| 0.5 + rng.uniform()).collect();
    // Cores one request occupies at the standard size.
    let core_secs = |s: &FunctionSpec| s.standard_cpu.as_cores() / s.standard_rate();
    // Static functions carry 0.6 of the base load and the ramps 0.3 to
    // 0.5 of it; the step functions add the surge for the middle third.
    let base = EDGE_BASE_LOAD * capacity_cores;
    let surge = (EDGE_PEAK_LOAD - EDGE_BASE_LOAD) * capacity_cores;
    let class_total = |class: usize| -> f64 {
        (0..EDGE_FUNCTIONS)
            .filter(|i| i % 3 == class)
            .map(|i| jitter[i])
            .sum()
    };
    let totals = [class_total(0), class_total(1), class_total(2)];
    let third = EDGE_SECS / 3.0;
    let setups = specs
        .into_iter()
        .enumerate()
        .map(|(i, spec)| {
            let class = i % 3;
            let share = jitter[i] / totals[class];
            let per_core = 1.0 / core_secs(&spec);
            let workload = match class {
                0 => WorkloadSpec::Static {
                    rate: 0.6 * base * share * per_core,
                    duration: EDGE_SECS,
                },
                1 => WorkloadSpec::Ramp {
                    from: 0.3 * base * share * per_core,
                    to: 0.5 * base * share * per_core,
                    duration: EDGE_SECS,
                },
                _ => WorkloadSpec::Steps {
                    steps: vec![
                        (0.0, 0.0),
                        (third, surge * share * per_core),
                        (2.0 * third, 0.0),
                    ],
                    duration: EDGE_SECS,
                },
            };
            let user = (i / 3) % 3;
            // Functions start with warm containers for their opening
            // load at 70 % utilization, so the run does not open on a
            // backlog that only the first epoch clears.
            let erlangs = workload.rate_at(0.0) / spec.standard_rate();
            let initial_containers = (erlangs / 0.7).ceil() as u32;
            let mut setup = FunctionSetup::new(spec, 0.1, workload);
            setup.initial_containers = initial_containers;
            setup.user = UserId(user as u32);
            setup.user_weight = EDGE_USER_WEIGHTS[user];
            setup
        })
        .collect();
    EdgeInputs {
        cluster,
        config: LassConfig::default(),
        setups,
    }
}

fn run_edge(seed: u64, traced: bool, with_digest: bool) -> Result<Rep, String> {
    let (_, sim, setup) = repeated_setup(EDGE_SETUP_REPEATS, || {
        timed_setup(edge_inputs, |inputs| {
            let mut sim = Simulation::new(inputs.config.clone(), inputs.cluster.build(), seed);
            for setup in &inputs.setups {
                sim.add_function(setup.clone());
            }
            sim
        })
    });
    let a0 = crate::alloc::count();
    let t2 = Instant::now();
    let report = sim.run(Some(EDGE_SECS));
    let engine_s = secs(t2);
    let allocs = crate::alloc::count() - a0;
    let mut rep = edge_rep(report, setup, engine_s, allocs, with_digest)?;
    // The LaSS request path runs inside the crate-private policy, so the
    // whole engine call is the engine's own time.
    if traced {
        rep.trace = Some(LayerTrace::opaque((engine_s * 1e9) as u64));
    }
    Ok(rep)
}

fn edge_rep(
    mut report: SimReport,
    setup: Vec<Setup>,
    engine_s: f64,
    allocs: u64,
    with_digest: bool,
) -> Result<Rep, String> {
    let digest = if with_digest {
        let per_fn = std::mem::take(&mut report.per_fn);
        let d = digest(&report, &per_fn.iter().collect::<Vec<_>>())?;
        report.per_fn = per_fn;
        Some(d)
    } else {
        None
    };
    // LaSS never drops a request, and its report carries no outstanding
    // count: whatever did not complete or time out is still outstanding.
    let mut c = Counters::default();
    let (mut waits, mut response_sum, mut reruns) = (0u64, 0.0, 0u64);
    for f in report.per_fn.values() {
        c.arrivals += f.arrivals as u64;
        c.completed += f.completed as u64;
        c.timeouts += f.timeouts as u64;
        c.slo_violations += f.slo_violations as u64;
        reruns += f.reruns as u64;
        waits += f.wait.count() as u64;
        response_sum += f.response.mean().unwrap_or(0.0) * f.completed as f64;
    }
    c.outstanding = c
        .arrivals
        .checked_sub(c.completed + c.timeouts)
        .ok_or_else(|| format!("more requests finished than arrived: {c:?}"))?;
    let top = report
        .per_fn
        .values_mut()
        .max_by_key(|f| f.arrivals)
        .ok_or("report has no functions")?;
    let p99 = top.response.percentile(0.99).unwrap_or(0.0);
    Ok(Rep {
        setup,
        engine_s,
        allocs,
        counters: c,
        waits_recorded: waits,
        digest,
        mean_response_ms: 1e3 * response_sum / c.completed.max(1) as f64,
        p99_response_ms_top_fn: 1e3 * p99,
        lass: Some(LassCounts {
            epochs: report.epochs as u64,
            overloaded_epochs: report.overloaded_epochs as u64,
            failed_creates: u64::from(report.failed_creates),
            reruns,
        }),
        trace: None,
    })
}

/// Host times of the LaSS control loop, driven outside the simulation.
#[derive(Debug, Default, Clone)]
pub struct ProbeTimes {
    /// `plan_epoch` host microseconds, one per epoch.
    pub plan_us: Vec<f64>,
    /// `apply` host microseconds, one per epoch.
    pub apply_us: Vec<f64>,
}

/// Time the public controller entry points on a cluster built from the
/// `lass-edge` spec: every monitor tick is fed the arrivals the
/// generated rates imply for its window, and every epoch is planned and
/// applied as the simulation does. The request path inside the
/// simulation's policy is not reachable from outside.
pub fn controller_probe() -> ProbeTimes {
    let inputs = edge_inputs();
    let cfg = inputs.config;
    let mut registry = FunctionRegistry::new();
    for s in &inputs.setups {
        registry.set_user_weight(s.user, s.user_weight);
        registry.register(s.spec.clone(), s.slo_deadline, s.weight, s.user);
    }
    let mut controller = LassController::new(cfg.clone(), registry);
    let mut cluster = inputs.cluster.build();
    let mut times = ProbeTimes::default();
    let ticks_per_epoch = (cfg.epoch_secs / cfg.monitor_interval_secs).round() as usize;
    let mut tick = 1;
    loop {
        let now = tick as f64 * cfg.monitor_interval_secs;
        if now > EDGE_SECS {
            break;
        }
        let mid = now - cfg.monitor_interval_secs / 2.0;
        let counts: BTreeMap<FnId, u64> = inputs
            .setups
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let n = (s.workload.rate_at(mid) * cfg.monitor_interval_secs).round();
                (FnId(i as u32), n as u64)
            })
            .collect();
        controller.on_monitor_tick(now, &counts);
        if tick % ticks_per_epoch == 0 {
            // Epochs run 1 ms after the monitor tick they share.
            let at = now + 1e-3;
            let t = Instant::now();
            let plan = controller.plan_epoch(&cluster, at);
            times.plan_us.push(secs(t) * 1e6);
            let t = Instant::now();
            let outcome = controller.apply(&mut cluster, &plan, SimTime::from_secs_f64(at));
            times.apply_us.push(secs(t) * 1e6);
            // Cold starts finish within the epoch.
            for (cid, _) in &outcome.created {
                cluster.mark_container_ready(*cid);
            }
        }
        tick += 1;
    }
    times
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small instance of a replay shape: the same topology, router and
    /// executor, with fewer functions over a shorter run.
    fn small(shape: &ReplayShape) -> ReplayShape {
        ReplayShape {
            functions: 300,
            total_rps: shape.total_rps / 10.0,
            secs: 2.0,
            ..*shape
        }
    }

    #[test]
    fn traced_replays_reproduce_the_untraced_report() {
        for shape in [&WIDE, &HOT, &PARALLEL] {
            let shape = small(shape);
            let plain = run_replay(&shape, 7, false, true).expect("untraced run");
            let again = run_replay(&shape, 7, false, true).expect("second untraced run");
            let traced = run_replay(&shape, 7, true, true).expect("traced run");
            plain.check().expect("untraced run passes its checks");
            assert!(plain.digest.is_some());
            assert_eq!(plain.digest, again.digest, "{shape:?}");
            assert_eq!(plain.digest, traced.digest, "{shape:?}");
            assert_eq!(plain.outcome(), traced.outcome());

            let t = traced.trace.expect("traced run has a trace");
            assert_eq!(t.main.layer_ns.iter().sum::<u64>(), t.run_ns);
            // Every routing decision asks each site for the routed
            // function's census, every function's census and a resource
            // snapshot.
            let fan_out = shape.sites as u64 * (shape.functions as u64 + 2);
            assert_eq!(t.observe, plain.counters.arrivals * fan_out, "{shape:?}");
            assert_eq!(t.calls(Kind::Route), plain.counters.arrivals);
            if shape.workers.is_some() {
                assert!(t.workers.top_ns > 0, "site work runs on the workers");
            } else {
                assert_eq!(t.main.calls(Kind::FrontArrival), plain.counters.arrivals);
            }
        }
    }

    #[test]
    fn lass_edge_is_deterministic_and_conserves() {
        let plain = run_edge(7, false, true).expect("untraced run");
        let traced = run_edge(7, true, true).expect("traced run");
        plain.check().expect("checks pass");
        assert_eq!(plain.digest, traced.digest);
        assert_eq!(plain.counters.failed(), 0, "{:?}", plain.counters);
        let lass = plain.lass.expect("lass counts");
        assert!(lass.overloaded_epochs > 0 && lass.overloaded_epochs < lass.epochs);
    }

    #[test]
    fn inputs_depend_only_on_the_seed() {
        let a = replay_inputs(&small(&HOT), 3);
        let b = replay_inputs(&small(&HOT), 3);
        let c = replay_inputs(&small(&HOT), 4);
        assert_eq!(a.service_means, b.service_means);
        assert_ne!(a.service_means, c.service_means);
        assert_eq!(a.servers_per_site, c.servers_per_site);
    }
}
