//! Driver for the searched-transport layer (`leo-train`).
//!
//! ```sh
//! # Score the committed artifact against the baselines (full corpus):
//! cargo run --release --example train
//!
//! # CI smoke: 2-generation search on the quick grid + artifact check:
//! cargo run --release --example train -- --quick
//!
//! # Re-train and overwrite the committed artifact:
//! cargo run --release --example train -- --train --generations 12 --population 16
//!
//! # Gate: exit non-zero unless the committed artifact beats or ties
//! # the best baseline aggregate (add --quick for the quick grid):
//! cargo run --release --example train -- --check-artifact
//! ```

use leo_cell::cli;
use leo_cell::dataset::campaign::campaign_threads;
use leo_cell::train::{self, artifact::Artifact, eval, search::SearchConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let has = |k: &str| args.iter().any(|a| a == k);
    let threads = campaign_threads();
    let quick = has("--quick");

    if has("--train") {
        let (generations, population) = if quick { (2, 6) } else { (12, 16) };
        let cfg = SearchConfig {
            seed: cli::flag(&args, "--seed", cli::any).unwrap_or(7),
            generations: cli::flag(&args, "--generations", cli::any).unwrap_or(generations),
            population: cli::flag(&args, "--population", cli::any).unwrap_or(population),
            threads,
        };
        let corpus = if quick {
            train::quick_corpus()
        } else {
            train::corpus()
        };
        eprintln!(
            "Searching: seed {} · {} generations · population {} · {} scenarios · {} threads",
            cfg.seed,
            cfg.generations,
            cfg.population,
            corpus.len(),
            threads
        );
        let t0 = std::time::Instant::now();
        let out = train::search(&cfg, &corpus);
        for h in &out.history {
            eprintln!(
                "  gen {:>2}: best {:.4} ({}) · mean {:.4}",
                h.generation, h.best_score, h.best_name, h.mean_score
            );
        }
        eprintln!(
            "Winner {} scored {:.4} in {:.1?}",
            out.winner.name,
            out.winner_score,
            t0.elapsed()
        );
        let artifact = Artifact {
            version: 1,
            search_seed: cfg.seed,
            generations: cfg.generations,
            population: cfg.population,
            winner: out.winner,
            winner_score: out.winner_score,
            baseline_aggregates: out
                .baselines
                .iter()
                .map(|b| (b.name.clone(), b.aggregate))
                .collect(),
        };
        let path = cli::text(&args, "--out")
            .unwrap_or_else(|| "crates/train/artifact/searched-v1.json".into());
        let json = serde_json::to_string_pretty(&artifact).expect("artifact serializes");
        std::fs::write(&path, json + "\n").unwrap_or_else(|e| panic!("writing {path}: {e}"));
        eprintln!("Wrote {path}");
        return;
    }

    if quick && !has("--check-artifact") {
        // CI smoke: a tiny search must run, be deterministic enough to
        // finish, and report a winner no worse than the identity floor.
        let cfg = SearchConfig::quick(7, threads);
        let corpus = train::quick_corpus();
        let out = train::search(&cfg, &corpus);
        eprintln!(
            "Quick search: winner {} scored {:.4} over {} generations",
            out.winner.name,
            out.winner_score,
            out.history.len()
        );
        assert!(
            out.winner_score > 0.0,
            "quick search produced a degenerate winner"
        );
    }

    // Score the committed artifact.
    let corpus = if quick {
        train::quick_corpus()
    } else {
        train::corpus()
    };
    let artifact = train::trained_artifact();
    let ev = eval::evaluate(&artifact.winner, &corpus, threads);
    println!("{}", ev.render_table());
    let best = ev.best_baseline();
    println!(
        "Committed artifact `{}` (seed {}, {}×{}): aggregate {:.4} vs best baseline {} {:.4}",
        artifact.winner.name,
        artifact.search_seed,
        artifact.generations,
        artifact.population,
        ev.candidate.aggregate,
        best.name,
        best.aggregate,
    );

    if has("--check-artifact") {
        if !ev.candidate_wins() {
            eprintln!(
                "FAIL: committed artifact ({:.4}) below best baseline {} ({:.4})",
                ev.candidate.aggregate, best.name, best.aggregate
            );
            std::process::exit(1);
        }
        eprintln!("OK: committed artifact beats or ties every baseline");
    }
}
