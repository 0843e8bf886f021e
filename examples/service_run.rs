//! Runs the resident measurement service over a simulated horizon and
//! prints the per-probe summary plus every detected incident.
//!
//! ```sh
//! # Canonical six-hour run under the carrier-outage scenario:
//! cargo run --release --example service_run
//!
//! # A healthy day at one-minute epochs, incidents to a file:
//! cargo run --release --example service_run -- \
//!     --hours 24 --scenario baseline --incidents-json incidents.json
//!
//! # CI smoke (one hour) with the incident-firing gate:
//! cargo run --release --example service_run -- --quick --expect-incidents
//! cargo run --release --example service_run -- \
//!     --quick --scenario baseline --expect-silent
//! ```
//!
//! `--threads N` pins the worker count; the report is byte-identical at
//! any value (the conformance goldens pin this). `--probes N` truncates
//! the built-in probe set to its first `N` entries.

use leo_cell::cli;
use leo_cell::dataset::campaign_threads;
use leo_cell::scenario::builtin;
use leo_cell::service::{MeasurementService, ServiceConfig, CANONICAL_SEED};

struct Args {
    hours: f64,
    probes: Option<usize>,
    seed: u64,
    scenario: String,
    threads: usize,
    incidents_json: Option<String>,
    expect_incidents: bool,
    expect_silent: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        hours: 6.0,
        probes: None,
        seed: CANONICAL_SEED,
        scenario: "carrier-outage".to_string(),
        threads: campaign_threads(),
        incidents_json: None,
        expect_incidents: false,
        expect_silent: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let key = a.as_str();
        match key {
            "--quick" => args.hours = 1.0,
            // At most two weeks.
            "--hours" => {
                args.hours = cli::parse(key, it.next().as_deref(), |h: &f64| {
                    *h > 0.0 && *h <= 24.0 * 14.0
                })
            }
            "--probes" => args.probes = Some(cli::parse(key, it.next().as_deref(), |n| *n >= 1)),
            "--seed" => args.seed = cli::parse(key, it.next().as_deref(), cli::any),
            "--scenario" => args.scenario = cli::parse(key, it.next().as_deref(), cli::any),
            "--threads" => args.threads = cli::parse(key, it.next().as_deref(), cli::any),
            "--incidents-json" => {
                args.incidents_json = Some(cli::parse(key, it.next().as_deref(), cli::any))
            }
            "--expect-incidents" => args.expect_incidents = true,
            "--expect-silent" => args.expect_silent = true,
            other => cli::fail(&format!("unknown flag {other} (see the example header)")),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let scenario = builtin(&args.scenario)
        .unwrap_or_else(|| panic!("unknown built-in scenario {:?}", args.scenario));
    let horizon_s = (args.hours * 3600.0).round() as u64;
    let mut cfg = ServiceConfig::new(
        &format!("service-{}h-{}", args.hours, args.scenario),
        args.seed,
        horizon_s,
        scenario,
    );
    if let Some(n) = args.probes {
        cfg.probes.truncate(n);
    }

    eprintln!(
        "service: {} probes, {:.1} h horizon, scenario {}, seed {:#x}, {} worker(s)…",
        cfg.probes.len(),
        args.hours,
        args.scenario,
        args.seed,
        args.threads
    );
    let start = std::time::Instant::now();
    let report = MeasurementService::new(cfg).run_with_threads(args.threads);
    eprintln!("run done in {:.1?}\n", start.elapsed());

    print!("{}", report.canonical());

    if let Some(path) = &args.incidents_json {
        let json = report.incidents_json();
        if path == "-" {
            println!("{json}");
        } else {
            std::fs::write(path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
            eprintln!("wrote {} incident(s) to {path}", report.incidents.len());
        }
    }

    // CI incident-firing gates: fault scenarios must page, baseline must
    // not.
    if args.expect_incidents && report.incidents.is_empty() {
        eprintln!(
            "FAIL: expected >=1 incident under scenario {}, got none",
            args.scenario
        );
        std::process::exit(1);
    }
    if args.expect_silent && !report.incidents.is_empty() {
        eprintln!(
            "FAIL: expected silence under scenario {}, got {} incident(s):\n{}",
            args.scenario,
            report.incidents.len(),
            report.incidents_json()
        );
        std::process::exit(1);
    }
}
