//! Fleet-scale campaign benchmark: 10⁵ concurrent user sessions over
//! shared orbital state, emitting `BENCH_fleet.json`.
//!
//! The perf-trajectory recorder for `crates/fleet`: run it after
//! touching the fleet engine, the orbit fast path, or the cellular
//! deployment layer, and commit the refreshed JSON.
//!
//! ```sh
//! cargo run --release --example fleet_bench                  # 100k users
//! cargo run --release --example fleet_bench -- --quick       # CI smoke
//! cargo run --release --example fleet_bench -- --users 500000
//! cargo run --release --example fleet_bench -- --threads 8 --out /tmp/f.json
//! ```
//!
//! Before anything is timed, the run cross-checks the engine's
//! determinism contract (1-thread vs 4-thread aggregates on a small
//! fleet must be byte-identical) and, after the timed run, asserts the
//! §5 availability ordering — so a correctness regression fails the
//! bench rather than recording fast-but-wrong numbers.

use leo_cell::cli;
use leo_cell::dataset::record::NetworkId;
use leo_cell::fleet::{FleetAggregate, FleetEngine, FleetSpec};
use leo_cell::geo::area::AreaType;
use std::fmt::Write as _;
use std::time::Instant;

struct Args {
    users: u64,
    session_s: u32,
    threads: usize,
    quick: bool,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        users: 100_000,
        session_s: 60,
        threads: leo_cell::dataset::campaign_threads(),
        quick: false,
        out: "BENCH_fleet.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let key = a.as_str();
        match key {
            "--quick" => {
                args.quick = true;
                args.users = 2_000;
            }
            "--users" => args.users = cli::parse(key, it.next().as_deref(), cli::any),
            "--session" => args.session_s = cli::parse(key, it.next().as_deref(), cli::any),
            "--threads" => args.threads = cli::parse(key, it.next().as_deref(), cli::any),
            "--out" => args.out = cli::parse(key, it.next().as_deref(), cli::any),
            other => cli::fail(&format!("unknown flag {other} (see the example header)")),
        }
    }
    args
}

/// Peak resident set size from `/proc/self/status` (VmHWM), in kB. The
/// high-water mark is the honest memory-boundedness proxy: it catches a
/// transient per-user allocation spike that a post-run RSS read misses.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest.trim().trim_end_matches("kB").trim().parse().ok();
        }
    }
    None
}

/// Usable time share (≥20 Mbps — everything above §5.2's worst level).
fn usable(agg: &FleetAggregate, n: NetworkId, a: AreaType) -> f64 {
    let s = agg.coverage_shares(n, a);
    s[1] + s[2] + s[3]
}

/// The §5 availability findings the aggregate coverage map must
/// reproduce: cellular usability craters from urban to rural while
/// Starlink's rural availability beats every carrier's.
fn check_availability(agg: &FleetAggregate) {
    for cell in NetworkId::CELLULAR {
        let urban = usable(agg, cell, AreaType::Urban);
        let rural = usable(agg, cell, AreaType::Rural);
        assert!(
            urban > rural + 0.2,
            "{cell:?}: urban usable {urban:.3} should dwarf rural {rural:.3}"
        );
        for sat in NetworkId::STARLINK {
            let sat_rural = usable(agg, sat, AreaType::Rural);
            assert!(
                sat_rural > rural,
                "{sat:?} rural usable {sat_rural:.3} must beat {cell:?} {rural:.3}"
            );
        }
    }
}

fn main() {
    let args = parse_args();
    let spec = FleetSpec::new("bench", 0xf1ee_2023, args.users, args.session_s);
    if let Err(e) = spec.validate() {
        cli::fail(&e.to_string());
    }

    // Determinism gate: a small fleet must aggregate byte-identically at
    // 1 and 4 threads before the big run's numbers mean anything.
    let gate = FleetEngine::new(FleetSpec::new("gate", 0xf1ee_be9c, 200, 20));
    assert_eq!(
        gate.run_with_threads(1),
        gate.run_with_threads(4),
        "fleet aggregates diverged between 1 and 4 threads"
    );
    println!("determinism gate: 200-user aggregates byte-identical at 1 vs 4 threads");

    let build_start = Instant::now();
    let engine = FleetEngine::new(spec);
    let world_build_secs = build_start.elapsed().as_secs_f64();

    let run_start = Instant::now();
    let agg = engine.run_with_threads(args.threads);
    let wall_secs = run_start.elapsed().as_secs_f64();
    assert_eq!(agg.users, args.users, "every user must be accounted for");
    check_availability(&agg);

    let users_per_sec = args.users as f64 / wall_secs;
    let user_seconds_per_sec = agg.seconds as f64 / wall_secs;
    let rss_kb = peak_rss_kb().unwrap_or(0);
    let rss_bytes_per_user = rss_kb as f64 * 1024.0 / args.users as f64;

    println!(
        "\nfleet: {} users x {} s sessions on {} threads",
        args.users, args.session_s, args.threads
    );
    println!("  world build   {world_build_secs:>9.3} s (shared table + 3 deployments)");
    println!("  fleet run     {wall_secs:>9.3} s");
    println!("  users/sec     {users_per_sec:>9.0}");
    println!("  user-s/sec    {user_seconds_per_sec:>9.0}");
    println!("  peak RSS      {rss_kb:>9} kB ({rss_bytes_per_user:.0} B/user)");

    println!("\nusable time share (>=20 Mbps down) by network and area:");
    println!(
        "  {:<10} {:>8} {:>9} {:>8}",
        "network", "urban", "suburban", "rural"
    );
    for n in NetworkId::ALL {
        println!(
            "  {:<10} {:>8.3} {:>9.3} {:>8.3}",
            n.label(),
            usable(&agg, n, AreaType::Urban),
            usable(&agg, n, AreaType::Suburban),
            usable(&agg, n, AreaType::Rural),
        );
    }

    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(json, "  \"schema\": \"leo-cell/fleet-bench/v1\",").unwrap();
    writeln!(
        json,
        "  \"generated_by\": \"cargo run --release --example fleet_bench\","
    )
    .unwrap();
    writeln!(json, "  \"quick\": {},", args.quick).unwrap();
    writeln!(json, "  \"users\": {},", args.users).unwrap();
    writeln!(json, "  \"session_s\": {},", args.session_s).unwrap();
    writeln!(json, "  \"threads\": {},", args.threads).unwrap();
    writeln!(json, "  \"world_build_secs\": {world_build_secs:.3},").unwrap();
    writeln!(json, "  \"wall_secs\": {wall_secs:.3},").unwrap();
    writeln!(json, "  \"users_per_sec\": {users_per_sec:.0},").unwrap();
    writeln!(
        json,
        "  \"user_seconds_per_sec\": {user_seconds_per_sec:.0},"
    )
    .unwrap();
    writeln!(json, "  \"peak_rss_kb\": {rss_kb},").unwrap();
    writeln!(json, "  \"rss_bytes_per_user\": {rss_bytes_per_user:.0},").unwrap();
    writeln!(json, "  \"usable_share\": {{").unwrap();
    for (i, n) in NetworkId::ALL.iter().enumerate() {
        let comma = if i + 1 < NetworkId::ALL.len() {
            ","
        } else {
            ""
        };
        writeln!(
            json,
            "    \"{}\": {{ \"urban\": {:.4}, \"suburban\": {:.4}, \"rural\": {:.4} }}{comma}",
            n.label(),
            usable(&agg, *n, AreaType::Urban),
            usable(&agg, *n, AreaType::Suburban),
            usable(&agg, *n, AreaType::Rural),
        )
        .unwrap();
    }
    writeln!(json, "  }}").unwrap();
    writeln!(json, "}}").unwrap();

    std::fs::write(&args.out, &json).expect("write bench json");
    println!("\nwrote {}", args.out);
}
