//! Regenerates every figure of the paper and prints the terminal
//! renderings — the reproduction's main deliverable.
//!
//! ```sh
//! # Fast pass (5% campaign, seconds):
//! cargo run --release --example figures
//!
//! # Paper-scale pass (full 3,800 km campaign, several minutes):
//! cargo run --release --example figures -- --scale 1.0
//!
//! # One figure only:
//! cargo run --release --example figures -- --only fig9
//! ```

use leo_cell::core::{all_figures, campaign, FigureEntry};
use leo_cell::dataset::campaign::campaign_threads;

/// Fig 10/11-style companion plot: the committed searched-transport
/// artifact scored against its CUBIC/LIA × minRTT/BLEST baselines and
/// the best single path, over the handover/outage evaluation corpus.
/// The corpus is self-contained, so (like the scenario sweep) this only
/// rides along with the campaign rather than reading it.
fn render_train(_campaign: &leo_cell::dataset::campaign::Campaign) -> String {
    leo_cell::train::evaluate_artifact(campaign_threads()).render_table()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = parse_arg(&args, "--scale", |s: &f64| s.is_finite())
        .unwrap_or(0.05)
        .clamp(0.005, 1.0);
    let seed = parse_arg(&args, "--seed", |_: &u64| true).unwrap_or(42);
    let only = arg_value(&args, "--only");
    let metrics_json = arg_value(&args, "--metrics-json");
    if metrics_json.is_some() {
        // Force the gate on before the first `enabled()` read caches it.
        std::env::set_var("LEO_OBS", "1");
    }

    // The scenario sweep rides along as a pseudo-figure after the paper's.
    let mut figures: Vec<_> = all_figures()
        .into_iter()
        .chain(std::iter::once(leo_cell::scenario::figure_entry()))
        .chain(std::iter::once(FigureEntry {
            id: "train",
            title: "Searched transport vs. baselines (leo-train artifact)",
            render: render_train,
        }))
        .collect();
    if let Some(id) = &only {
        if !figures.iter().any(|fig| fig.id == id) {
            let ids: Vec<_> = figures.iter().map(|fig| fig.id).collect();
            eprintln!(
                "figures: unknown --only id {id:?}; valid ids: {}",
                ids.join(", ")
            );
            std::process::exit(2);
        }
        figures.retain(|fig| fig.id == id);
    }

    eprintln!("Generating campaign at scale {scale} (seed {seed})…");
    let start = std::time::Instant::now();
    let c = campaign(scale, seed);
    eprintln!(
        "Campaign ready in {:.1?}: {}\n",
        start.elapsed(),
        c.summary().render()
    );

    // Render every selected figure concurrently (each reads the shared
    // campaign immutably), then print in the paper's figure order.
    let rendered = leo_exec::run_indexed(
        figures.len(),
        campaign_threads(),
        "figures.worker.render_s",
        |i| {
            let t = std::time::Instant::now();
            ((figures[i].render)(&c), t.elapsed())
        },
    );

    for (fig, (out, took)) in figures.iter().zip(rendered) {
        println!("{}", "=".repeat(78));
        println!("{} — {}\n", fig.id, fig.title);
        println!("{out}");
        eprintln!("[{} rendered in {took:.1?}]\n", fig.id);
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

/// The value after `key` parsed as `T`, or `None` when the flag is
/// absent. A value that does not parse, or fails `valid`, exits 2 before
/// any work, naming the flag and the value.
fn parse_arg<T: std::str::FromStr>(args: &[String], key: &str, valid: fn(&T) -> bool) -> Option<T> {
    let raw = arg_value(args, key)?;
    match raw.parse() {
        Ok(v) if valid(&v) => Some(v),
        _ => {
            eprintln!("figures: bad value for {key}: {raw:?}");
            std::process::exit(2);
        }
    }
}

fn arg_value(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .cloned()
}
