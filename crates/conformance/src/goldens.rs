//! Golden digests of the canonical pipelines.
//!
//! [`compute_digests`] fingerprints three canonical artifacts — the
//! small campaign every test fixture shares, a full sweep of the eight
//! built-in scenarios, and every registered figure pipeline — and
//! [`compare`] diffs the result against the committed golden file. Any
//! behavior change in any layer (orbit, link model, transport, figure
//! aggregation, scenario engine) shifts at least one line and fails
//! loudly; intentional changes are re-blessed with
//! `cargo run --release --example conformance -- --bless`.

use crate::digest::{digest_text, DigestLine, Fnv64};
use crate::invariant::{campaign_invariants, check_all, report_invariants, Violation};
use leo_core::all_figures;
use leo_dataset::campaign::{Campaign, CampaignConfig};
use leo_dataset::record::NetworkId;
use leo_link::trace::LinkTrace;
use leo_measure::iperf::{Engine, IperfConfig, IperfProtocol, IperfRunner};
use leo_netsim::FaultSchedule;
use leo_scenario::library::builtin_scenarios;
use leo_scenario::runner::ScenarioRunner;
use std::path::PathBuf;

/// Scale of the canonical campaign (= [`CampaignConfig::small`]).
pub const CAMPAIGN_SCALE: f64 = 0.02;
/// Seed of the canonical campaign (= the default seed).
pub const CAMPAIGN_SEED: u64 = 0xcafe_2023;
/// Scale of the canonical scenario sweep.
pub const SCENARIO_SCALE: f64 = 0.01;
/// Seed of the canonical scenario sweep.
pub const SCENARIO_SEED: u64 = 0x5eed;

/// The committed golden file, resolved relative to this crate so the
/// checker works from any working directory.
pub fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/goldens/conformance.txt")
}

fn digest_trace(name: String, trace: &LinkTrace) -> DigestLine {
    let mut h = Fnv64::new();
    let mut cap_sum = 0.0;
    for c in trace.samples() {
        h.write_f64(c.capacity_mbps)
            .write_f64(c.rtt_ms)
            .write_f64(c.loss);
        cap_sum += c.capacity_mbps;
    }
    DigestLine {
        name,
        count: trace.duration_s(),
        sum: cap_sum,
        fnv: h.finish(),
    }
}

/// Computes the full digest set. Deterministic by construction: every
/// input below is a pure function of fixed `(scale, seed)` configs, and
/// the campaign/scenario engines are byte-identical across thread
/// counts, so the result matches at `LEO_CAMPAIGN_THREADS=1` and `=4`.
pub fn compute_digests() -> Vec<DigestLine> {
    let mut out = Vec::new();

    // 1. The canonical campaign: per-network traces + the test records.
    let campaign = leo_core::cached_campaign(CAMPAIGN_SCALE, CAMPAIGN_SEED);
    for (network, (down, up)) in &campaign.traces {
        out.push(digest_trace(
            format!("campaign.trace.{}.down", network.label()),
            down,
        ));
        out.push(digest_trace(
            format!("campaign.trace.{}.up", network.label()),
            up,
        ));
    }
    {
        let mut h = Fnv64::new();
        let mut sum = 0.0;
        for r in &campaign.records {
            // Debug formatting of f64 is shortest-roundtrip, so the hash
            // sees every bit of every field.
            h.write_str(&format!("{r:?}"));
            sum += r.mean_mbps;
        }
        out.push(DigestLine {
            name: "campaign.records".to_string(),
            count: campaign.records.len() as u64,
            sum,
            fnv: h.finish(),
        });
    }

    // 2. Every registered figure pipeline, rendered from that campaign.
    for f in all_figures() {
        out.push(digest_text(
            format!("figure.{}", f.id),
            &(f.render)(campaign),
        ));
    }

    // 3. The eight built-in scenarios, swept at the canonical config.
    let report = ScenarioRunner::new(CampaignConfig {
        scale: SCENARIO_SCALE,
        seed: SCENARIO_SEED,
        ..CampaignConfig::default()
    })
    .run(&builtin_scenarios());
    for o in &report.outcomes {
        out.push(DigestLine {
            name: format!("scenario.{}", o.name),
            count: o.tests as u64,
            sum: o.udp_down_mean_mbps,
            fnv: Fnv64::new().write_str(&format!("{o:?}")).finish(),
        });
    }
    out.push(digest_text("scenario.report-json", &report.to_json()));

    // 4. The canonical 1,000-user fleet, run at the ambient thread
    //    count: CI's 1-thread and 4-thread conformance runs therefore
    //    pin the fleet engine's thread invariance, and the LEO_OBS=1 run
    //    pins that fleet instrumentation never perturbs results. The
    //    Debug format hashes every bit of every accumulator cell.
    let fleet = leo_fleet::FleetEngine::new(leo_fleet::FleetSpec::canonical_1k());
    let agg = fleet.run();
    out.push(DigestLine {
        name: format!("fleet.{}", fleet.spec().name),
        count: agg.users,
        sum: agg
            .cells
            .iter()
            .flatten()
            .map(|c| c.sum_mean_down_mbps)
            .sum(),
        fnv: Fnv64::new().write_str(&format!("{agg:?}")).finish(),
    });

    // 5. The committed trained transport artifact, re-evaluated against
    //    its baselines over the full corpus. The canonical form carries
    //    exact f64 bits, so this line pins the artifact JSON, the
    //    evaluation protocol (EVAL_SEED per-scenario seeding), and the
    //    plug-in transport path all at once — also at any thread count,
    //    since the harness runs on `transport::sweep::run_units`.
    let eval = leo_train::evaluate_artifact(leo_dataset::campaign::campaign_threads());
    out.push(digest_text("train.artifact-eval", &eval.canonical()));

    // 6. The canonical six-hour measurement-service run under the
    //    carrier-outage scenario — the one built-in fault that exercises
    //    every service layer at once (launches, failures, the retry
    //    storm, budget shedding, and both detector families). Run at the
    //    ambient thread count, the 1-vs-4-thread CI runs pin the service
    //    loop's thread invariance; the canonical rendering carries exact
    //    f64 bits for every counter and incident statistic.
    let service = leo_service::MeasurementService::new(leo_service::ServiceConfig::canonical(
        "carrier-outage",
    ));
    out.push(digest_text(
        "service.canonical-6h",
        &service.run().canonical(),
    ));

    // 7. Packet-level iPerf, the one transfer path no other line runs:
    //    UDP and demuxed TCP (`-P 1`, `-P 4`).
    out.push(digest_iperf_packet_level(campaign));

    out
}

/// UDP, TCP `-P 1` and TCP `-P 4` over a 30-s window of the canonical
/// campaign's MOB and ATT downlinks, each once clean and once under an
/// outage plus a loss burst. The Debug form hashes every f64 bit of each
/// report and every counter of its audit.
fn digest_iperf_packet_level(campaign: &Campaign) -> DigestLine {
    const SPAN_S: u64 = 30;
    let t0 = leo_core::fig10::select_windows(campaign, 1, SPAN_S)[0];
    let faulted = FaultSchedule::new().outage_s(8, 12).loss_s(18, 24, 0.3);
    let mut h = Fnv64::new();
    let (mut count, mut sum) = (0, 0.0);
    for network in [NetworkId::Mobility, NetworkId::Att] {
        let window = campaign.traces[&network].0.window(t0, t0 + SPAN_S);
        for protocol in [
            IperfProtocol::Udp,
            IperfProtocol::Tcp { parallel: 1 },
            IperfProtocol::Tcp { parallel: 4 },
        ] {
            for faults in [FaultSchedule::new(), faulted.clone()] {
                let cfg = IperfConfig {
                    protocol,
                    ..IperfConfig::udp_down()
                }
                .with_engine(Engine::PacketLevel)
                .with_faults(faults);
                let (report, audit) =
                    IperfRunner::new(cfg).run_packet_level_audited(window.samples());
                h.write_str(&format!("{report:?} {audit:?}"));
                count += report.per_second_mbps.len() as u64;
                sum += report.mean_mbps;
            }
        }
    }
    DigestLine {
        name: "measure.iperf-packet-level".to_string(),
        count,
        sum,
        fnv: h.finish(),
    }
}

/// Runs the full invariant suite over the same canonical artifacts the
/// digests cover, returning every violation.
pub fn check_invariants() -> Vec<Violation> {
    let mut v = Vec::new();
    let campaign = leo_core::cached_campaign(CAMPAIGN_SCALE, CAMPAIGN_SEED);
    v.extend(check_all(&campaign_invariants(), campaign));
    let report = ScenarioRunner::new(CampaignConfig {
        scale: SCENARIO_SCALE,
        seed: SCENARIO_SEED,
        ..CampaignConfig::default()
    })
    .run(&builtin_scenarios());
    v.extend(check_all(&report_invariants(), &report));
    v
}

/// Renders digests in the committed file format.
pub fn render(digests: &[DigestLine]) -> String {
    let mut s = String::new();
    s.push_str("# leo-cell conformance goldens\n");
    s.push_str("# regenerate: cargo run --release --example conformance -- --bless\n");
    s.push_str(&format!(
        "# campaign scale={CAMPAIGN_SCALE} seed={CAMPAIGN_SEED:#x} | scenarios scale={SCENARIO_SCALE} seed={SCENARIO_SEED:#x}\n"
    ));
    for d in digests {
        s.push_str(&d.to_string());
        s.push('\n');
    }
    s
}

/// Parses a golden file's digest lines (comments and blanks skipped).
pub fn parse(text: &str) -> Vec<DigestLine> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.trim_start().starts_with('#'))
        .filter_map(DigestLine::parse)
        .collect()
}

/// Diffs freshly computed digests against the committed goldens.
///
/// `Ok(n)` is the number of matching lines; `Err` lists every mismatch
/// (changed hash, missing line, unexpected extra line) plus the bless
/// instructions.
pub fn compare(current: &[DigestLine], golden_text: &str) -> Result<usize, String> {
    let golden = parse(golden_text);
    let mut problems = Vec::new();
    for c in current {
        match golden.iter().find(|g| g.name == c.name) {
            None => problems.push(format!("missing from goldens: {c}")),
            // Compare on the hash and count: the sum is informational
            // (rounded for display), the fnv carries the full precision.
            Some(g) if g.fnv != c.fnv || g.count != c.count => {
                problems.push(format!("changed: {c}\n   golden: {g}"));
            }
            Some(_) => {}
        }
    }
    for g in &golden {
        if !current.iter().any(|c| c.name == g.name) {
            problems.push(format!("stale golden (no longer computed): {g}"));
        }
    }
    if problems.is_empty() {
        Ok(current.len())
    } else {
        Err(format!(
            "{} golden digest mismatch(es):\n{}\n\nIf this change is intentional, re-bless with:\n  cargo run --release --example conformance -- --bless",
            problems.len(),
            problems.join("\n")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::digest_series;

    #[test]
    fn render_parse_round_trip() {
        let ds = vec![
            digest_series("a.one", &[1.0, 2.0]),
            digest_series("b.two", &[-3.5]),
        ];
        let text = render(&ds);
        let back = parse(&text);
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].name, "a.one");
        assert_eq!(back[0].fnv, ds[0].fnv);
        assert_eq!(compare(&ds, &text), Ok(2));
    }

    #[test]
    fn compare_reports_changes_and_staleness() {
        let ds = vec![digest_series("a", &[1.0]), digest_series("b", &[2.0])];
        let text = render(&ds);
        // A perturbed value fails with a "changed" line.
        let perturbed = vec![digest_series("a", &[1.0 + 1e-12]), ds[1].clone()];
        let err = compare(&perturbed, &text).unwrap_err();
        assert!(err.contains("changed: a"), "{err}");
        assert!(err.contains("--bless"), "{err}");
        // A new artifact fails as missing; a removed one as stale.
        let extra = vec![ds[0].clone(), ds[1].clone(), digest_series("c", &[3.0])];
        assert!(compare(&extra, &text).unwrap_err().contains("missing"));
        let fewer = vec![ds[0].clone()];
        assert!(compare(&fewer, &text).unwrap_err().contains("stale"));
    }
}
