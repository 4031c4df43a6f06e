//! `lass-replay` — replay an hour-scale trace for 10⁴–10⁶ distinct
//! functions through the federated engine and report wall-clock
//! throughput.
//!
//! By default the workload is synthesized: Zipf-popularity functions
//! over a shared pool of Azure-style temporal shapes. Pass `--csv` to
//! replay rows of an Azure Functions 2019 invocations file instead.
//!
//! ```sh
//! cargo run --release --bin lass-replay -- --functions 100000 --minutes 60
//! cargo run --release --bin lass-replay -- --csv trace.csv --window 660 --minutes 60
//! ```
//!
//! The summary prints as pretty JSON on stdout (`--out` also writes it
//! to a file); `sim_req_per_wall_min` is the headline throughput.

use lass::replay::{run_replay, ReplayConfig};
use lass_simcore::{HedgeConfig, RouterKind};

fn usage() -> ! {
    eprintln!(
        "usage: lass-replay [--functions N] [--minutes M] [--seed S] [--zipf EXP] \
         [--rps TOTAL] [--sites K] [--router NAME] [--utilization U] [--slo SECS] \
         [--csv PATH] [--window MINUTE] [--parallel THREADS] [--site-latency-ms MS] \
         [--hedge immediate|deferred:MS|p95] [--hedge-clones N] [--out FILE]"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    let Some(v) = value else {
        eprintln!("error: {flag} needs a value");
        usage();
    };
    v.parse().unwrap_or_else(|_| {
        eprintln!("error: bad value for {flag}: {v}");
        usage();
    })
}

fn main() {
    let mut cfg = ReplayConfig::default();
    let mut out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--functions" => cfg.functions = parse(&arg, args.next()),
            "--minutes" => cfg.minutes = parse(&arg, args.next()),
            "--seed" => cfg.seed = parse(&arg, args.next()),
            "--zipf" => cfg.zipf_exponent = parse(&arg, args.next()),
            "--rps" => cfg.total_rps = parse(&arg, args.next()),
            "--sites" => cfg.sites = parse(&arg, args.next()),
            "--utilization" => cfg.utilization = parse(&arg, args.next()),
            "--slo" => cfg.slo_deadline = parse(&arg, args.next()),
            "--window" => cfg.window_start = parse(&arg, args.next()),
            "--csv" => cfg.csv = Some(parse(&arg, args.next())),
            "--parallel" => cfg.parallel = Some(parse(&arg, args.next())),
            "--site-latency-ms" => cfg.site_latency_ms = Some(parse(&arg, args.next())),
            "--hedge" => {
                let spec: String = parse(&arg, args.next());
                let trigger = spec.parse().unwrap_or_else(|e| {
                    eprintln!("error: {e}");
                    usage();
                });
                cfg.hedge.get_or_insert_with(HedgeConfig::default).trigger = trigger;
            }
            "--hedge-clones" => {
                cfg.hedge
                    .get_or_insert_with(HedgeConfig::default)
                    .max_clones = parse(&arg, args.next());
            }
            "--out" => out = Some(parse(&arg, args.next())),
            "--router" => {
                let name: String = parse(&arg, args.next());
                cfg.router = RouterKind::parse(&name).unwrap_or_else(|| {
                    eprintln!("error: unknown router {name:?}");
                    usage();
                });
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("error: unknown flag {other:?}");
                usage();
            }
        }
    }

    let summary = run_replay(&cfg).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    let json = serde_json::to_string_pretty(&summary).expect("serializable");
    println!("{json}");
    if let Some(p) = out {
        std::fs::write(&p, &json).unwrap_or_else(|e| {
            eprintln!("error: writing {p}: {e}");
            std::process::exit(1);
        });
        eprintln!("(wrote {p})");
    }
    if !summary.conserved {
        eprintln!("error: request conservation violated");
        std::process::exit(1);
    }
}
