//! Parallel-federation speedup: replay the same Zipf workload through
//! the conservative-synchronization executor at 1/2/4/8 worker threads
//! over 8/64/256-site topologies and record speedup versus the
//! single-thread run of the same configuration.
//!
//! The determinism contract makes this an apples-to-apples measurement:
//! every thread count produces byte-identical reports, so the rows
//! differ only in wall-clock time. Rows are **merged** into
//! `BENCH_engine.json` alongside the `engine_throughput` rows (each
//! harness owns the rows whose `bench` name carries its prefix and
//! preserves the other's).
//!
//! With `ENGINE_BENCH_SMOKE` set, the run shrinks to one 64-site
//! configuration and runs two gates, each **failing** (non-zero exit)
//! on a miss:
//!
//! * on ≥2 cores, 2 threads must not be slower than 1 (best of 3 each,
//!   runs alternating) — the executor's synchronization overhead must
//!   not eat the second core;
//! * on ≥4 cores, 4 threads must beat 1 by ≥1.5× — the tripwire
//!   against serializing the worker phase (an accidental global lock, a
//!   barrier per event instead of per window).
//!
//! Each gate needs real cores: with too few it prints a loud skip,
//! because a speedup target on an oversubscribed core measures the
//! scheduler, not the executor.

use lass::replay::{run_replay, ReplayConfig, ReplaySummary};
use lass_bench::{cores, merge_bench_rows};

/// One parallel replay: `sites` sites, uniform 5 ms inbound hop (the
/// conservative lookahead), load scaled with the site count so every
/// topology keeps its sites busy.
fn replay(sites: usize, threads: usize, minutes: usize) -> ReplaySummary {
    let summary = run_replay(&ReplayConfig {
        functions: 1_000,
        minutes,
        seed: 42,
        total_rps: 40.0 * sites as f64,
        sites,
        parallel: Some(threads),
        site_latency_ms: Some(5.0),
        ..ReplayConfig::default()
    })
    .expect("replay runs");
    assert!(summary.conserved, "request conservation violated");
    assert_eq!(summary.threads, threads, "parallel run fell back");
    summary
}

const SMOKE_SPEEDUP_FLOOR: f64 = 1.5;
/// Ceiling on the 2-thread / 1-thread wall-time ratio at 64 sites.
const SMOKE_TWO_THREAD_CEILING: f64 = 1.0;

/// Best-of-`n` wall seconds at 1 and at 2 threads over `sites` sites,
/// the runs alternating so a slow spell on a shared host hits both.
fn best_walls_1_2(n: usize, sites: usize, minutes: usize) -> (f64, f64) {
    (0..n).fold((f64::INFINITY, f64::INFINITY), |(one, two), _| {
        let a = replay(sites, 1, minutes).wall_secs;
        let b = replay(sites, 2, minutes).wall_secs;
        (one.min(a), two.min(b))
    })
}

fn main() {
    let cores = cores();
    if std::env::var_os("ENGINE_BENCH_SMOKE").is_some() {
        if cores < 2 {
            eprintln!(
                "SKIPPING engine_parallel smoke 2-thread gate: {cores} core(s) available, \
                 need >= 2 to compare 2 threads against 1 honestly"
            );
        } else {
            let (one, two) = best_walls_1_2(3, 64, 2);
            let ratio = two / one;
            println!(
                "smoke engine_parallel/64sites: 1thr {one:.2}s, 2thr {two:.2}s \
                 -> 2thr/1thr wall {ratio:.2}x (best of 3)"
            );
            assert!(
                ratio <= SMOKE_TWO_THREAD_CEILING,
                "2-thread/64-site wall time is {ratio:.2}x the 1-thread run, above the \
                 {SMOKE_TWO_THREAD_CEILING}x ceiling — window synchronization is costing \
                 more than the second core gives back"
            );
        }
        if cores < 4 {
            eprintln!(
                "SKIPPING engine_parallel smoke 4-thread tripwire: {cores} core(s) available, \
                 need >= 4 to measure a speedup target honestly"
            );
            return;
        }
        let base = replay(64, 1, 2);
        let wide = replay(64, 4, 2);
        let speedup = base.wall_secs / wide.wall_secs;
        println!(
            "smoke engine_parallel/64sites: 1thr {:.2}s, 4thr {:.2}s -> {speedup:.2}x",
            base.wall_secs, wide.wall_secs
        );
        assert!(
            speedup >= SMOKE_SPEEDUP_FLOOR,
            "4-thread/64-site speedup {speedup:.2}x fell below the {SMOKE_SPEEDUP_FLOOR}x \
             tripwire — did the worker phase pick up a global lock or a per-event barrier?"
        );
        return;
    }

    let mut rows = Vec::new();
    for &sites in &[8usize, 64, 256] {
        let minutes = if sites >= 256 { 2 } else { 5 };
        // Unmeasured warm-up: the first replay at a new scale pays the
        // allocator's page faults for everyone after it.
        replay(sites, 1, 1);
        let mut base_wall = None;
        for &threads in &[1usize, 2, 4, 8] {
            // Best-of-2 to damp scheduler noise (this often runs on
            // shared or single-core CI hosts — see the cores field).
            let first = replay(sites, threads, minutes);
            let second = replay(sites, threads, minutes);
            let summary = if second.wall_secs < first.wall_secs {
                second
            } else {
                first
            };
            let base = *base_wall.get_or_insert(summary.wall_secs);
            let speedup = base / summary.wall_secs;
            println!(
                "engine_parallel/{sites}sites/{threads}thr: {:.2}s wall, {speedup:.2}x, \
                 {:.2}M sim req/wall-min",
                summary.wall_secs,
                summary.sim_req_per_wall_min / 1e6
            );
            rows.push(format!(
                "{{ \"bench\": \"engine_parallel/{sites}sites/{threads}thr\", \
                 \"sim_req_per_wall_min\": {:.0}, \"arrivals\": {}, \"wall_secs\": {:.3}, \
                 \"speedup_vs_1thr\": {speedup:.2}, \"cores\": {cores} }}",
                summary.sim_req_per_wall_min, summary.arrivals, summary.wall_secs,
            ));
        }
    }

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    let n = merge_bench_rows(path, "engine_parallel/", &rows);
    println!("(merged BENCH_engine.json: {n} rows)");
}
