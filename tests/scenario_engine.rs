//! Integration tests of the scenario engine: the determinism contract,
//! the synergy-direction claims, and graceful degradation under
//! injected faults.

use leo_cell::dataset::campaign::CampaignConfig;
use leo_cell::scenario::{
    builtin, builtin_scenarios, graceful_degradation, CampaignOverrides, NetworkSelector,
    Perturbation, ScenarioReport, ScenarioRunner, ScenarioSpec, Window, BASELINE,
};

fn tiny_base() -> CampaignConfig {
    CampaignConfig {
        scale: 0.01,
        seed: 0x5ce_11e,
        ..CampaignConfig::default()
    }
}

/// The headline determinism contract: the rendered JSON report is
/// byte-identical no matter how many workers the sweep uses, over every
/// job shape of the sweep: the base borrowed as is, a perturbed clone of
/// it, campaigns of their own on the base's drive (a weather override
/// with perturbations, an area override), the §6 replay on the base, a
/// world of its own on another seed's drive (override, perturbation and
/// emulation in one spec), and another scale's drive.
#[test]
fn report_is_byte_identical_across_thread_counts() {
    let own_world = ScenarioSpec {
        overrides: CampaignOverrides {
            seed: Some(0x0dd_5eed),
            ..CampaignOverrides::default()
        },
        emulate: true,
        ..ScenarioSpec::named("own-world-replay", "another drive, faded, replayed")
    }
    .with(Perturbation::RainFade {
        window: Window::frac(0.2, 0.6),
        networks: NetworkSelector::Starlink,
        capacity_factor: 0.7,
    });
    let longer_drive = ScenarioSpec {
        overrides: CampaignOverrides {
            scale: Some(0.015),
            ..CampaignOverrides::default()
        },
        ..ScenarioSpec::named("longer-drive", "a drive of its own at another scale")
    };
    let specs = vec![
        builtin(BASELINE).expect("baseline"),
        builtin("thunderstorm-front").expect("builtin"),
        builtin("urban-canyon").expect("builtin"),
        builtin("carrier-outage").expect("builtin"),
        builtin("handover-storm").expect("builtin"),
        builtin("mptcp-combined").expect("builtin"),
        own_world,
        longer_drive,
    ];
    let sequential = ScenarioRunner::new(tiny_base()).with_threads(1).run(&specs);
    for threads in [2, 3, 4, 16] {
        let parallel = ScenarioRunner::new(tiny_base())
            .with_threads(threads)
            .run(&specs);
        assert_eq!(
            sequential.to_json(),
            parallel.to_json(),
            "scenario sweep must not depend on worker count (threads={threads})"
        );
    }
    // And the JSON is a faithful round trip of the report itself.
    let back = ScenarioReport::from_json(&sequential.to_json()).expect("round trip");
    assert_eq!(back, sequential);
}

/// The sweep's split replay (plan, then three transfer jobs) is the
/// serial `graceful_degradation` on the same base campaign.
#[test]
fn sweep_replay_matches_the_serial_emulation() {
    let report = ScenarioRunner::new(tiny_base())
        .with_threads(3)
        .run(&[builtin("mptcp-combined").expect("builtin")]);
    let base = leo_cell::dataset::Campaign::generate_with_threads(tiny_base(), 1);
    let serial = graceful_degradation(&base, 60, 0.4, tiny_base().seed);
    assert_eq!(report.outcomes[0].emulation, Some(serial));
}

/// §5's coverage synergy, preserved under every built-in scenario: the
/// combined satellite+cellular deployment covers at least as much as
/// the best single network, and the single-family ablations behave as
/// their names promise.
#[test]
fn combined_coverage_dominates_in_every_builtin_scenario() {
    let report = ScenarioRunner::new(tiny_base()).run(&builtin_scenarios());
    assert_eq!(report.outcomes.len(), 8);
    for o in &report.outcomes {
        let c = &o.coverage;
        let best_single = c.mob_high.max(c.best_cell_high);
        assert!(
            c.combined_high >= best_single - 1e-12,
            "{}: combined high {} < best single {}",
            o.name,
            c.combined_high,
            best_single
        );
    }
    let by_name = |n: &str| {
        report
            .outcomes
            .iter()
            .find(|o| o.name == n)
            .unwrap_or_else(|| panic!("{n} in report"))
    };
    // Ablations: killing one family zeroes that family's share and the
    // combined bar degenerates to the survivor.
    let leo = by_name("leo-only");
    assert!(leo.coverage.best_cell_high < 1e-12);
    assert!((leo.coverage.combined_high - leo.coverage.mob_high).abs() < 1e-12);
    let cell = by_name("cell-only");
    assert!(cell.coverage.mob_high < 1e-12);
    assert!((cell.coverage.combined_high - cell.coverage.best_cell_high).abs() < 1e-12);
    // A carrier outage hurts cellular coverage but the combined bar
    // stays at least as good as baseline satellite alone.
    let outage = by_name("carrier-outage");
    let base = by_name(BASELINE);
    assert!(outage.coverage.best_cell_high < base.coverage.best_cell_high);
    assert!(outage.coverage.combined_high >= base.coverage.mob_high - 1e-12);
}

/// §6 under fire: MPTCP with one path yanked mid-download still delivers
/// at least the surviving path's solo throughput.
#[test]
fn mptcp_degrades_gracefully_under_path_outage() {
    let campaign = leo_cell::dataset::Campaign::generate_with_threads(tiny_base(), 1);
    let r = graceful_degradation(&campaign, 60, 0.4, 7);
    assert!(
        r.degrades_gracefully(),
        "faulted MPTCP {} Mbps < surviving solo {} Mbps",
        r.mptcp_faulted_mbps,
        r.solo_surviving_mbps
    );
    assert!(r.mptcp_clean_mbps >= r.mptcp_faulted_mbps - 1e-9);
}

/// Custom (non-library) specs flow through the runner and the report
/// table end to end.
#[test]
fn custom_spec_sweeps_work_end_to_end() {
    let custom = ScenarioSpec::named("half-fade", "50% rain fade on everything").with(
        Perturbation::RainFade {
            window: Window::ALL,
            networks: NetworkSelector::All,
            capacity_factor: 0.5,
        },
    );
    let json = custom.to_json();
    let parsed = ScenarioSpec::from_json(&json).expect("spec parses");
    let report = ScenarioRunner::new(tiny_base())
        .with_threads(2)
        .run(&[builtin(BASELINE).unwrap(), parsed]);
    let base = &report.outcomes[0];
    let faded = &report.outcomes[1];
    assert!(faded.udp_down_mean_mbps < base.udp_down_mean_mbps);
    let table = report.render_table();
    assert!(table.contains("half-fade"));
}
