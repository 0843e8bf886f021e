//! The evaluation harness: scores candidates against the
//! CUBIC/LIA/minRTT/BLEST baselines across the scenario corpus, plus the
//! best-single-path yardstick the paper's §6 gap is measured against.
//!
//! **Evaluation protocol.** Scenario `s` always runs under
//! `unit_seed(EVAL_SEED, s)` — every contender (baseline, candidate,
//! single path) sees the exact same stochastic draws on the same
//! scenario, and the search's mutation randomness never leaks into the
//! transfers. A contender's **aggregate score** is the mean over
//! scenarios of its goodput normalized by the best *baseline* goodput on
//! that scenario: 1.0 means "as good as the best baseline everywhere",
//! above 1.0 means the candidate beats the baselines outright.

use crate::corpus;
use crate::dna::Dna;
use crate::searched::plugins_for;
use leo_transport::cc::CcAlgorithm;
use leo_transport::mptcp::SchedulerKind;
use leo_transport::plugin::TransportPlugins;
use leo_transport::sweep::{
    run_transfer, run_transfer_with, run_units, unit_seed, SweepScenario, SweepUnit,
};
use leo_transport::transfer::{self, Endpoints};
use serde::{Deserialize, Serialize};

/// The fixed evaluation seed (`b"train-v1"`): part of the artifact's
/// determinism contract — goldens, CI checks, and the search itself all
/// score transfers under seeds derived from it.
pub const EVAL_SEED: u64 = 0x7472_6169_6e2d_7631;

/// The four baseline configurations the searched transport must beat:
/// the paper's CUBIC/LIA congestion controllers crossed with the
/// minRTT/BLEST schedulers (LIA = LIA-coupled Reno).
pub const BASELINES: [(&str, SchedulerKind, CcAlgorithm); 4] = [
    ("minrtt-cubic", SchedulerKind::MinRtt, CcAlgorithm::Cubic),
    ("minrtt-lia", SchedulerKind::MinRtt, CcAlgorithm::Reno),
    ("blest-cubic", SchedulerKind::Blest, CcAlgorithm::Cubic),
    ("blest-lia", SchedulerKind::Blest, CcAlgorithm::Reno),
];

/// One contender's scores: per-scenario goodput plus the normalized
/// aggregate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScoreRow {
    /// Contender label.
    pub name: String,
    /// Goodput per corpus scenario, Mbps, corpus order.
    pub goodput_mbps: Vec<f64>,
    /// Mean over scenarios of goodput / best-baseline goodput.
    pub aggregate: f64,
}

/// A full evaluation: baselines, candidate, and single-path yardsticks
/// over one corpus.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Evaluation {
    /// Scenario names, corpus order.
    pub scenarios: Vec<String>,
    /// The four baseline rows, [`BASELINES`] order.
    pub baselines: Vec<ScoreRow>,
    /// The candidate row.
    pub candidate: ScoreRow,
    /// Best single-path CUBIC goodput per scenario (max over the two
    /// paths run alone) — the §6 yardstick.
    pub best_single_mbps: Vec<f64>,
    /// Per-scenario best baseline goodput (the normalizer).
    pub baseline_best_mbps: Vec<f64>,
}

/// Per-scenario best across rows (position-wise max, `total_cmp`).
fn column_max(rows: &[ScoreRow]) -> Vec<f64> {
    let n = rows.first().map_or(0, |r| r.goodput_mbps.len());
    (0..n)
        .map(|s| {
            rows.iter()
                .map(|r| r.goodput_mbps[s])
                .fold(f64::NEG_INFINITY, f64::max)
        })
        .collect()
}

/// Mean of `goodputs[s] / best[s]` — the aggregate score.
pub fn aggregate_score(goodputs: &[f64], baseline_best: &[f64]) -> f64 {
    assert_eq!(goodputs.len(), baseline_best.len());
    if goodputs.is_empty() {
        return 0.0;
    }
    let sum: f64 = goodputs
        .iter()
        .zip(baseline_best)
        .map(|(&g, &b)| if b > 0.0 { g / b } else { 1.0 })
        .sum();
    sum / goodputs.len() as f64
}

/// Runs the four baselines over `corpus` (one sweep batch) and returns
/// their rows plus the per-scenario best-baseline normalizer.
pub fn baseline_rows(corpus: &[SweepScenario], threads: usize) -> (Vec<ScoreRow>, Vec<f64>) {
    let units: Vec<SweepUnit> = BASELINES
        .iter()
        .flat_map(|&(_, scheduler, cc)| {
            corpus.iter().map(move |&scenario| SweepUnit {
                scenario,
                scheduler,
                cc,
            })
        })
        .collect();
    let results = run_units(&units, threads, |i, u| {
        let s = i % corpus.len();
        run_transfer(u, unit_seed(EVAL_SEED, s as u64))
    });
    leo_obs::incr("train.eval.transfers", units.len() as u64);
    let mut rows = Vec::with_capacity(BASELINES.len());
    for (b, (name, _, _)) in BASELINES.iter().enumerate() {
        let goodput: Vec<f64> = (0..corpus.len())
            .map(|s| results[b * corpus.len() + s].goodput_mbps)
            .collect();
        rows.push(ScoreRow {
            name: name.to_string(),
            goodput_mbps: goodput,
            aggregate: 0.0,
        });
    }
    let best = column_max(&rows);
    for row in &mut rows {
        row.aggregate = aggregate_score(&row.goodput_mbps, &best);
    }
    (rows, best)
}

/// Scores a batch of candidates over `corpus` as **one** sweep grid —
/// this is what makes every search generation a single
/// `transport::sweep` batch. Returns per-candidate goodput vectors in
/// candidate order.
pub fn eval_candidates(dnas: &[&Dna], corpus: &[SweepScenario], threads: usize) -> Vec<Vec<f64>> {
    let plugins: Vec<TransportPlugins> = dnas.iter().map(|d| plugins_for(d)).collect();
    // Carrier fields: overridden by the plug-ins, but kept meaningful.
    let units: Vec<SweepUnit> = dnas
        .iter()
        .flat_map(|_| {
            corpus.iter().map(|&scenario| SweepUnit {
                scenario,
                scheduler: SchedulerKind::MinRtt,
                cc: CcAlgorithm::Cubic,
            })
        })
        .collect();
    let plugins = &plugins;
    let results = run_units(&units, threads, |i, u| {
        let s = i % corpus.len();
        run_transfer_with(
            u,
            unit_seed(EVAL_SEED, s as u64),
            &plugins[i / corpus.len()],
        )
    });
    leo_obs::incr("train.eval.transfers", units.len() as u64);
    dnas.iter()
        .enumerate()
        .map(|(c, _)| {
            (0..corpus.len())
                .map(|s| results[c * corpus.len() + s].goodput_mbps)
                .collect()
        })
        .collect()
}

/// One path of `sc` run alone under CUBIC — the single-path TCP the
/// paper's §6 compares MPTCP against, as an uncoupled one-subflow MPTCP.
fn run_single_path(sc: &SweepScenario, path: usize, seed: u64) -> f64 {
    let endpoints = Endpoints::Mptcp {
        cc: CcAlgorithm::Cubic,
        coupled: false,
        scheduler: SchedulerKind::MinRtt,
        buffer_packets: sc.buffer_packets,
        leo_guard: None,
        plugins: TransportPlugins::default(),
    };
    let path = sc.paths[path].transfer_path(sc.duration_s);
    transfer::run(seed, endpoints, vec![path], sc.duration_s).receivers[0].mean_mbps
}

/// Best-single-path goodput per scenario: each path run alone, max
/// taken. Batched through [`run_units`] like everything else.
pub fn single_path_row(corpus: &[SweepScenario], threads: usize) -> Vec<f64> {
    let jobs: Vec<(usize, usize)> = (0..corpus.len()).flat_map(|s| [(s, 0), (s, 1)]).collect();
    let results = run_units(&jobs, threads, |_, &(s, path)| {
        run_single_path(&corpus[s], path, unit_seed(EVAL_SEED, s as u64))
    });
    leo_obs::incr("train.eval.transfers", jobs.len() as u64);
    (0..corpus.len())
        .map(|s| results[2 * s].max(results[2 * s + 1]))
        .collect()
}

/// Full evaluation of one candidate over `corpus`.
pub fn evaluate(dna: &Dna, corpus: &[SweepScenario], threads: usize) -> Evaluation {
    let _t = leo_obs::span("train.eval.run_s");
    leo_obs::incr("train.eval.runs", 1);
    let (baselines, best) = baseline_rows(corpus, threads);
    let cand_goodput = eval_candidates(&[dna], corpus, threads).remove(0);
    let candidate = ScoreRow {
        name: dna.name.clone(),
        aggregate: aggregate_score(&cand_goodput, &best),
        goodput_mbps: cand_goodput,
    };
    let best_single = single_path_row(corpus, threads);
    Evaluation {
        scenarios: corpus.iter().map(|s| s.name.to_string()).collect(),
        baselines,
        candidate,
        best_single_mbps: best_single,
        baseline_best_mbps: best,
    }
}

/// Evaluation of the committed trained artifact over the full corpus —
/// what the conformance golden digests.
pub fn evaluate_artifact(threads: usize) -> Evaluation {
    evaluate(
        &crate::artifact::trained_artifact().winner,
        &corpus::corpus(),
        threads,
    )
}

impl Evaluation {
    /// The best baseline row (highest aggregate; first on ties).
    pub fn best_baseline(&self) -> &ScoreRow {
        self.baselines
            .iter()
            .max_by(|a, b| {
                a.aggregate
                    .total_cmp(&b.aggregate)
                    .then(std::cmp::Ordering::Greater) // keep the earlier row on ties
            })
            .expect("baselines present")
    }

    /// Whether the candidate's aggregate beats or ties every baseline.
    pub fn candidate_wins(&self) -> bool {
        self.candidate.aggregate >= self.best_baseline().aggregate
    }

    /// Exact-bits canonical form — the conformance golden digests this,
    /// so every f64 is rendered as raw bits, not decimal.
    pub fn canonical(&self) -> String {
        let mut out = String::from("train-eval v1\n");
        out.push_str(&format!("scenarios {}\n", self.scenarios.join(",")));
        let hex = |v: &[f64]| {
            v.iter()
                .map(|x| format!("{:016x}", x.to_bits()))
                .collect::<Vec<_>>()
                .join(" ")
        };
        for row in self.baselines.iter().chain([&self.candidate]) {
            out.push_str(&format!(
                "row {} agg {:016x} {}\n",
                row.name,
                row.aggregate.to_bits(),
                hex(&row.goodput_mbps)
            ));
        }
        out.push_str(&format!("single {}\n", hex(&self.best_single_mbps)));
        out
    }

    /// Human-readable comparison table with a goodput bar per scenario —
    /// the fig10/fig11-style rendering `examples/figures.rs` appends.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "Searched transport vs baselines (goodput, Mbps; score = mean of per-scenario\n\
             goodput normalized by the best baseline):\n\n",
        );
        out.push_str(&format!("{:<16}", "scenario"));
        for row in self.baselines.iter().chain([&self.candidate]) {
            out.push_str(&format!("{:>14}", row.name));
        }
        out.push_str(&format!("{:>14}\n", "best-single"));
        for (s, name) in self.scenarios.iter().enumerate() {
            out.push_str(&format!("{name:<16}"));
            for row in self.baselines.iter().chain([&self.candidate]) {
                out.push_str(&format!("{:>14.2}", row.goodput_mbps[s]));
            }
            out.push_str(&format!("{:>14.2}\n", self.best_single_mbps[s]));
        }
        out.push_str(&format!("{:<16}", "aggregate"));
        for row in self.baselines.iter().chain([&self.candidate]) {
            out.push_str(&format!("{:>14.4}", row.aggregate));
        }
        out.push('\n');

        // Bar chart: searched vs best baseline vs best single path.
        let peak = self
            .candidate
            .goodput_mbps
            .iter()
            .chain(&self.baseline_best_mbps)
            .chain(&self.best_single_mbps)
            .fold(1e-9, |a: f64, &b| a.max(b));
        out.push('\n');
        for (s, name) in self.scenarios.iter().enumerate() {
            let bar = |v: f64| "#".repeat(((v / peak) * 40.0).round() as usize);
            out.push_str(&format!(
                "{name:<16} searched  |{:<40}| {:>7.2}\n",
                bar(self.candidate.goodput_mbps[s]),
                self.candidate.goodput_mbps[s]
            ));
            out.push_str(&format!(
                "{:<16} baseline  |{:<40}| {:>7.2}\n",
                "",
                bar(self.baseline_best_mbps[s]),
                self.baseline_best_mbps[s]
            ));
            out.push_str(&format!(
                "{:<16} single    |{:<40}| {:>7.2}\n",
                "",
                bar(self.best_single_mbps[s]),
                self.best_single_mbps[s]
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dna::Dna;

    #[test]
    fn aggregate_normalizes_against_best_baseline() {
        assert_eq!(aggregate_score(&[], &[]), 0.0);
        let best = [10.0, 20.0];
        assert!((aggregate_score(&[10.0, 20.0], &best) - 1.0).abs() < 1e-12);
        assert!((aggregate_score(&[5.0, 10.0], &best) - 0.5).abs() < 1e-12);
        assert!(aggregate_score(&[20.0, 10.0], &best) > aggregate_score(&[10.0, 10.0], &best));
    }

    #[test]
    fn identity_candidate_ties_its_baseline_row_bit_for_bit() {
        // The identity DNA over CUBIC *is* minrtt-cubic; through the
        // plug-in path it must reproduce the baseline row exactly. One
        // short scenario keeps this cheap — the full-corpus version is
        // the lockstep integration test.
        let corpus = vec![crate::corpus::corpus().remove(1)]; // leo-lossy
        let ev = evaluate(&Dna::identity(CcAlgorithm::Cubic), &corpus, 2);
        assert_eq!(
            ev.candidate.goodput_mbps[0].to_bits(),
            ev.baselines[0].goodput_mbps[0].to_bits(),
            "plug-in path diverged from static dispatch"
        );
    }

    #[test]
    fn canonical_form_is_threads_invariant() {
        let corpus = crate::corpus::quick_corpus();
        let dna = Dna::identity(CcAlgorithm::Cubic);
        let a = evaluate(&dna, &corpus, 1).canonical();
        let b = evaluate(&dna, &corpus, 4).canonical();
        assert_eq!(a, b);
    }
}
