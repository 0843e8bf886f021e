//! Measurement-service benchmark: probe-session throughput and online
//! detector overhead, emitting `BENCH_service.json`.
//!
//! The perf-trajectory recorder for `crates/service`: run it after
//! touching the scheduler, the session executor, or the detector bank,
//! and commit the refreshed JSON.
//!
//! ```sh
//! cargo run --release --example service_bench               # 24 sim-hours
//! cargo run --release --example service_bench -- --quick    # CI smoke
//! cargo run --release --example service_bench -- --hours 72 --threads 8
//! ```
//!
//! Before anything is timed, the run cross-checks the service loop's
//! determinism contract (a one-hour run at 1 thread and at 4 threads
//! must render byte-identically). The timed section then runs the same
//! configuration `--reps` times with detection on and off, keeping the
//! fastest wall of each, so the detector-overhead figure is the delta
//! between two best-case passes rather than two noise draws.

use leo_cell::cli;
use leo_cell::scenario::builtin;
use leo_cell::service::{MeasurementService, ServiceConfig, ServiceReport, CANONICAL_SEED};
use std::fmt::Write as _;
use std::time::Instant;

struct Args {
    hours: u64,
    scenario: String,
    threads: usize,
    reps: usize,
    quick: bool,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        hours: 24,
        scenario: "carrier-outage".to_string(),
        threads: leo_cell::dataset::campaign_threads(),
        reps: 3,
        quick: false,
        out: "BENCH_service.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let key = a.as_str();
        match key {
            "--quick" => {
                args.quick = true;
                args.hours = 2;
            }
            "--hours" => args.hours = cli::parse(key, it.next().as_deref(), |h| *h >= 1),
            "--scenario" => args.scenario = cli::parse(key, it.next().as_deref(), cli::any),
            "--threads" => args.threads = cli::parse(key, it.next().as_deref(), cli::any),
            "--reps" => args.reps = cli::parse(key, it.next().as_deref(), |r| *r >= 1),
            "--out" => args.out = cli::parse(key, it.next().as_deref(), cli::any),
            other => cli::fail(&format!("unknown flag {other} (see the example header)")),
        }
    }
    args
}

/// Peak resident set size from `/proc/self/status` (VmHWM), in kB.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest.trim().trim_end_matches("kB").trim().parse().ok();
        }
    }
    None
}

fn bench_cfg(args: &Args, detect: bool) -> ServiceConfig {
    let scenario = builtin(&args.scenario)
        .unwrap_or_else(|| panic!("unknown built-in scenario {:?}", args.scenario));
    let mut cfg = ServiceConfig::new(
        &format!("bench-{}h-{}", args.hours, args.scenario),
        CANONICAL_SEED,
        args.hours * 3600,
        scenario,
    );
    if !detect {
        cfg.detect = None;
    }
    cfg
}

/// Fastest-of-`reps` wall clock for one configuration, plus the report
/// (identical across reps — the loop is deterministic).
fn timed(cfg: &ServiceConfig, threads: usize, reps: usize) -> (f64, ServiceReport) {
    let mut best = f64::INFINITY;
    let mut report = None;
    for _ in 0..reps {
        let svc = MeasurementService::new(cfg.clone());
        let start = Instant::now();
        let r = svc.run_with_threads(threads);
        best = best.min(start.elapsed().as_secs_f64());
        report = Some(r);
    }
    (best, report.unwrap())
}

fn main() {
    let args = parse_args();

    // Determinism gate: the hour-long prefix of the bench config must
    // render byte-identically at 1 and 4 workers before the throughput
    // numbers mean anything.
    let mut gate_cfg = bench_cfg(&args, true);
    gate_cfg.horizon_s = 3600;
    let gate = MeasurementService::new(gate_cfg);
    assert_eq!(
        gate.run_with_threads(1).canonical(),
        gate.run_with_threads(4).canonical(),
        "service reports diverged between 1 and 4 threads"
    );
    println!("determinism gate: 1-hour reports byte-identical at 1 vs 4 threads");

    let (wall_on, report) = timed(&bench_cfg(&args, true), args.threads, args.reps);
    let (wall_off, report_off) = timed(&bench_cfg(&args, false), args.threads, args.reps);
    assert_eq!(
        report.totals.launched, report_off.totals.launched,
        "disabling detection must not change the schedule"
    );
    assert!(
        !report.incidents.is_empty() && report_off.incidents.is_empty(),
        "bench scenario must page with detection on and cannot with it off"
    );

    let sessions = report.totals.launched;
    let points: u64 = report.probes.iter().map(|p| p.points).sum();
    let sessions_per_sec = sessions as f64 / wall_on;
    let points_per_sec = points as f64 / wall_on;
    // Best-of-N deltas can still go slightly negative when the detector
    // cost is below timer noise; floor at zero so the committed number
    // reads as "share of wall spent detecting".
    let detector_overhead_pct = ((wall_on - wall_off) / wall_off * 100.0).max(0.0);
    let rss_kb = peak_rss_kb().unwrap_or(0);

    println!(
        "\nservice: {} sim-hours of {} on {} threads ({} probes, best of {} reps)",
        args.hours,
        args.scenario,
        args.threads,
        report.probes.len(),
        args.reps
    );
    println!("  wall (detect on)  {wall_on:>9.3} s");
    println!("  wall (detect off) {wall_off:>9.3} s");
    println!("  sessions          {sessions:>9}  ({sessions_per_sec:.0}/s)");
    println!("  points            {points:>9}  ({points_per_sec:.0}/s)");
    println!("  incidents         {:>9}", report.incidents.len());
    println!("  detector overhead {detector_overhead_pct:>9.2} %");
    println!("  peak RSS          {rss_kb:>9} kB");

    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(json, "  \"schema\": \"leo-cell/service-bench/v1\",").unwrap();
    writeln!(
        json,
        "  \"generated_by\": \"cargo run --release --example service_bench\","
    )
    .unwrap();
    writeln!(json, "  \"quick\": {},", args.quick).unwrap();
    writeln!(json, "  \"hours\": {},", args.hours).unwrap();
    writeln!(json, "  \"scenario\": \"{}\",", args.scenario).unwrap();
    writeln!(json, "  \"threads\": {},", args.threads).unwrap();
    writeln!(json, "  \"reps\": {},", args.reps).unwrap();
    writeln!(json, "  \"sessions\": {sessions},").unwrap();
    writeln!(json, "  \"points\": {points},").unwrap();
    writeln!(json, "  \"incidents\": {},", report.incidents.len()).unwrap();
    writeln!(json, "  \"wall_secs\": {wall_on:.3},").unwrap();
    writeln!(json, "  \"wall_secs_detect_off\": {wall_off:.3},").unwrap();
    writeln!(json, "  \"sessions_per_sec\": {sessions_per_sec:.0},").unwrap();
    writeln!(json, "  \"points_per_sec\": {points_per_sec:.0},").unwrap();
    writeln!(
        json,
        "  \"detector_overhead_pct\": {detector_overhead_pct:.2},"
    )
    .unwrap();
    writeln!(json, "  \"peak_rss_kb\": {rss_kb}").unwrap();
    writeln!(json, "}}").unwrap();

    std::fs::write(&args.out, &json).expect("write bench json");
    println!("\nwrote {}", args.out);
}
