//! Runs a what-if scenario sweep over the driving campaign and prints
//! the comparison table (plus optional JSON report).
//!
//! ```sh
//! # Built-in library at 2% scale:
//! cargo run --release --example scenario_sweep
//!
//! # Bigger campaign, explicit seed, four workers, one scenario:
//! cargo run --release --example scenario_sweep -- \
//!     --scale 0.05 --seed 7 --threads 4 --only carrier-outage
//!
//! # Machine-readable report (byte-identical at any --threads):
//! cargo run --release --example scenario_sweep -- --json
//! ```
//!
//! Custom scenarios: pass `--spec file.json` with a JSON array of
//! `ScenarioSpec` values (see EXPERIMENTS.md for the format); they run
//! after the baseline so the delta columns stay meaningful.

use leo_cell::cli;
use leo_cell::dataset::campaign::{campaign_threads, CampaignConfig};
use leo_cell::scenario::{builtin, builtin_scenarios, ScenarioRunner, ScenarioSpec, BASELINE};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = cli::flag(&args, "--scale", cli::finite)
        .unwrap_or(0.02)
        .clamp(0.005, 1.0);
    let seed = cli::flag(&args, "--seed", cli::any).unwrap_or(0xcafe_2023);
    let threads = cli::flag(&args, "--threads", cli::any).unwrap_or_else(campaign_threads);
    let json = args.iter().any(|a| a == "--json");
    let metrics_json = cli::text(&args, "--metrics-json");
    if metrics_json.is_some() {
        // Force the gate on before the first `enabled()` read caches it.
        std::env::set_var("LEO_OBS", "1");
    }

    let mut specs: Vec<ScenarioSpec> = match cli::text(&args, "--spec") {
        Some(path) => {
            let custom = read_specs(&path);
            // Baseline first, so the report's delta columns have a
            // reference even for fully custom sweeps.
            let mut specs = vec![builtin(BASELINE).expect("baseline exists")];
            specs.extend(custom.into_iter().filter(|s| s.name != BASELINE));
            specs
        }
        None => builtin_scenarios(),
    };
    if let Some(only) = cli::text(&args, "--only") {
        if !specs.iter().any(|s| s.name == only) {
            let names: Vec<_> = specs.iter().map(|s| s.name.as_str()).collect();
            eprintln!(
                "scenario_sweep: unknown --only scenario {only:?}; valid names: {}",
                names.join(", ")
            );
            std::process::exit(2);
        }
        specs.retain(|s| s.name == BASELINE || s.name == only);
    }

    let base = CampaignConfig {
        scale,
        seed,
        ..CampaignConfig::default()
    };
    eprintln!(
        "Sweeping {} scenario(s) at scale {scale}, seed {seed:#x}, {threads} worker(s)…",
        specs.len()
    );
    let start = std::time::Instant::now();
    let report = ScenarioRunner::new(base).with_threads(threads).run(&specs);
    eprintln!("Sweep done in {:.1?}\n", start.elapsed());

    if json {
        println!("{}", report.to_json());
    } else {
        println!("{}", report.render_table());
    }

    if let Some(path) = metrics_json {
        let obs_json = leo_cell::obs::snapshot().to_json();
        if path == "-" {
            println!("{obs_json}");
        } else {
            std::fs::write(&path, &obs_json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
            eprintln!("Wrote obs run report to {path}");
        }
    }
}

/// The scenarios in the `--spec` file at `path`. Exits 2 before any work
/// when the file cannot be read or parsed, or when a spec's
/// `overrides.scale` lies outside (0, 1], which the campaign generator
/// would otherwise reject with a panic inside a worker.
fn read_specs(path: &str) -> Vec<ScenarioSpec> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| cli::fail(&format!("cannot read --spec file {path}: {e}")));
    let specs: Vec<ScenarioSpec> = serde_json::from_str(&text)
        .unwrap_or_else(|e| cli::fail(&format!("cannot parse --spec file {path}: {e}")));
    for spec in &specs {
        if let Some(scale) = spec.overrides.scale {
            if !(scale > 0.0 && scale <= 1.0) {
                cli::fail(&format!(
                    "--spec file {path}: scenario {:?}: overrides.scale {scale} is outside (0, 1]",
                    spec.name
                ));
            }
        }
    }
    specs
}
