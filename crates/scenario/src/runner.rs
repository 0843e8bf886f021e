//! The scenario sweep runner.
//!
//! Takes a matrix of [`ScenarioSpec`]s, executes every scenario against
//! its campaign, and collects a [`ScenarioReport`]. Specs without
//! overrides share the base campaign; every overriding spec gets a
//! campaign of its own. Campaigns on one drive (one seed and scale) are
//! built together as a [`CampaignSet`]: one drive, one area
//! classification and one trace job per network for all of them. The
//! sweep is one list of jobs on the workspace executor
//! ([`leo_exec::run_indexed`]): every set's network jobs, one job per
//! scenario, and the three transfers of every §6 replay, pulled by the
//! workers in a fixed rank. Every outcome is a pure function of `(base
//! config, spec)` — the same determinism contract as campaign
//! generation: any thread count yields a byte-identical report.

use crate::emu::{DegradationPlan, DegradationReport, Leg};
use crate::library::BASELINE;
use crate::perturb::apply_all;
use crate::spec::ScenarioSpec;
use leo_core::fig9;
use leo_dataset::campaign::{campaign_threads, Campaign, CampaignConfig, CampaignSet};
use leo_dataset::record::TestKind;
use leo_link::condition::Direction;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::sync::OnceLock;

/// Per-network link health inside one scenario, measured on the
/// (possibly perturbed) downlink condition series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkMetrics {
    /// Network label ("MOB", "VZ", …).
    pub network: String,
    pub mean_capacity_mbps: f64,
    pub mean_rtt_ms: f64,
    /// Fraction of seconds in outage.
    pub outage_frac: f64,
}

/// Coverage shares inside one scenario (the Figure 9 bars that carry the
/// synergy claim).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoverageMetrics {
    /// High-performance share of Starlink Mobility alone.
    pub mob_high: f64,
    /// High-performance share of the best cellular carrier.
    pub best_cell_high: f64,
    /// High-performance share of the combined MOB+CL deployment.
    pub combined_high: f64,
    /// Very-low (poor) share of the combined deployment.
    pub combined_poor: f64,
}

/// Everything measured for one scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioOutcome {
    pub name: String,
    pub description: String,
    /// Tests executed against the perturbed world.
    pub tests: u32,
    /// Mean of the UDP downlink test records, Mbps.
    pub udp_down_mean_mbps: f64,
    pub networks: Vec<NetworkMetrics>,
    pub coverage: CoverageMetrics,
    /// The §6 graceful-degradation emulation, when the spec asks for it.
    pub emulation: Option<DegradationReport>,
}

/// The collected sweep: one outcome per scenario, in spec order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioReport {
    /// Base campaign scale the sweep ran at.
    pub scale: f64,
    /// Base campaign seed.
    pub seed: u64,
    pub outcomes: Vec<ScenarioOutcome>,
}

impl ScenarioReport {
    /// Pretty JSON for files and diffing; byte-identical across runs and
    /// thread counts.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }

    /// Parses a report back from [`Self::to_json`] output.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// The baseline outcome, when the sweep included one.
    pub fn baseline(&self) -> Option<&ScenarioOutcome> {
        self.outcomes.iter().find(|o| o.name == BASELINE)
    }

    /// Renders the sweep as a comparison table: absolute values plus
    /// deltas against the baseline scenario (computed at render time, so
    /// the stored JSON stays free of derived numbers).
    pub fn render_table(&self) -> String {
        let base = self.baseline();
        let mut out = String::new();
        out.push_str(&format!(
            "Scenario sweep @ scale {:.3}, seed {:#x}\n",
            self.scale, self.seed
        ));
        out.push_str(&format!(
            "{:<20} {:>6} {:>18} {:>9} {:>9} {:>9} {:>8}\n",
            "scenario", "tests", "udp Mbps", "MOB hi", "cell hi", "comb hi", "comb pr"
        ));
        for o in &self.outcomes {
            let delta = |v: f64, b: Option<f64>| match b {
                Some(b) if o.name != BASELINE => format!("{v:.2} ({:+.2})", v - b),
                _ => format!("{v:.2}"),
            };
            out.push_str(&format!(
                "{:<20} {:>6} {:>18} {:>9} {:>9} {:>9} {:>8}\n",
                o.name,
                o.tests,
                delta(o.udp_down_mean_mbps, base.map(|b| b.udp_down_mean_mbps)),
                format!("{:.1}%", o.coverage.mob_high * 100.0),
                format!("{:.1}%", o.coverage.best_cell_high * 100.0),
                format!("{:.1}%", o.coverage.combined_high * 100.0),
                format!("{:.1}%", o.coverage.combined_poor * 100.0),
            ));
            if let Some(e) = &o.emulation {
                out.push_str(&format!(
                    "{:<20} mptcp faulted {:.1} / solo surviving {:.1} / clean {:.1} Mbps\n",
                    "", e.mptcp_faulted_mbps, e.solo_surviving_mbps, e.mptcp_clean_mbps
                ));
            }
        }
        out
    }
}

/// Executes scenario matrices against one base configuration.
pub struct ScenarioRunner {
    base: CampaignConfig,
    threads: usize,
}

/// One job of a sweep, in the order [`schedule`] ranks them.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Job {
    /// Network job `n` of campaign set `set`.
    Trace(usize, usize),
    /// Measure scenario `s`: its world, metrics and replay plan.
    Scenario(usize),
    /// One transfer of scenario `s`'s §6 replay.
    Transfer(usize, Leg),
}

/// The campaigns a sweep builds and the jobs that build and measure
/// them.
#[derive(Debug)]
struct Schedule {
    /// The configs of each campaign set: campaigns on one drive, in
    /// order of the first spec that reads each. A set holds the base
    /// campaign when some spec borrows it, and one campaign per
    /// overriding spec.
    sets: Vec<Vec<CampaignConfig>>,
    /// Each spec's campaign, as (set, campaign in the set).
    campaigns: Vec<(usize, usize)>,
    /// The ranked jobs. Network jobs come first: every scenario waits
    /// on them. Then scenarios with a campaign of their own, emulating
    /// scenarios, their transfers, and the rest. Ties keep spec order.
    jobs: Vec<Job>,
}

/// Plans a sweep of `specs` over `base`. Only campaigns some spec reads
/// are built: no spec, no job.
fn schedule(base: &CampaignConfig, specs: &[ScenarioSpec]) -> Schedule {
    let mut sets: Vec<Vec<CampaignConfig>> = Vec::new();
    let mut base_at = None;
    let mut campaigns = Vec::with_capacity(specs.len());
    for spec in specs {
        let borrows = spec.overrides.is_empty();
        if let (true, Some(at)) = (borrows, base_at) {
            campaigns.push(at);
            continue;
        }
        let config = spec.overrides.apply(base);
        let set = match sets.iter().position(|set| set[0].shares_drive(&config)) {
            Some(set) => set,
            None => {
                sets.push(Vec::new());
                sets.len() - 1
            }
        };
        let at = (set, sets[set].len());
        sets[set].push(config);
        if borrows {
            base_at = Some(at);
        }
        campaigns.push(at);
    }

    let mut ranked = Vec::new();
    for set in 0..sets.len() {
        ranked.extend((0..CampaignSet::JOBS).map(|n| (0, Job::Trace(set, n))));
    }
    for (s, spec) in specs.iter().enumerate() {
        let rank = match (spec.overrides.is_empty(), spec.emulate) {
            (false, _) => 1,
            (true, true) => 2,
            (true, false) => 4,
        };
        ranked.push((rank, Job::Scenario(s)));
        if spec.emulate {
            ranked.extend(Leg::ALL.map(|leg| (3, Job::Transfer(s, leg))));
        }
    }
    ranked.sort_by_key(|&(rank, _)| rank);
    Schedule {
        sets,
        campaigns,
        jobs: ranked.into_iter().map(|(_, job)| job).collect(),
    }
}

/// What a scenario job leaves for the rest of the sweep: the outcome
/// without its emulation, and the replay plan its transfer jobs read.
struct Measured {
    outcome: ScenarioOutcome,
    plan: Option<DegradationPlan>,
}

/// Spans one job's work for `spec`: the sweep-wide and the per-scenario
/// run timers, so `scenario.<name>.run_s` sums every job of a scenario.
fn run_spans(spec: &ScenarioSpec) -> [leo_obs::Span; 2] {
    [
        leo_obs::span("scenario.run_s"),
        leo_obs::span(&format!("scenario.{}.run_s", spec.name)),
    ]
}

impl ScenarioRunner {
    /// A runner over `base`, with [`campaign_threads`] workers.
    pub fn new(base: CampaignConfig) -> Self {
        Self {
            base,
            threads: campaign_threads(),
        }
    }

    /// Overrides the worker count, the calling thread included (the
    /// report never depends on it).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Runs every scenario and collects the report, in spec order.
    ///
    /// The campaigns are built in [`CampaignSet`]s, one per drive, whose
    /// network jobs lead the job list. A scenario job takes its own
    /// campaign out of its set, or borrows the shared base campaign
    /// (cloning it only to perturb it), then perturbs and measures it.
    /// An emulating scenario's replay runs as three transfer jobs over a
    /// small plan its scenario job cuts from its campaign. Jobs reach
    /// shared work through `OnceLock::get_or_init` (the sets' drives and
    /// network traces, the base campaign, the plans), so whichever job
    /// gets there first does the work once, and a producer's panic
    /// reaches every consumer instead of leaving it waiting. The job
    /// that takes a campaign runs its tests single-threaded. Workers
    /// pull jobs in rank order from one cursor; since
    /// every outcome is a pure function of `(base config, spec)`, which
    /// worker ran what is invisible in the output — `scenario_engine`
    /// integration tests pin the byte-identity of the JSON report
    /// across thread counts.
    pub fn run(&self, specs: &[ScenarioSpec]) -> ScenarioReport {
        let Schedule {
            sets,
            campaigns,
            jobs,
        } = schedule(&self.base, specs);
        let sets: Vec<CampaignSet> = sets.into_iter().map(CampaignSet::new).collect();
        let base: OnceLock<Campaign> = OnceLock::new();
        let measured: Vec<OnceLock<Measured>> = specs.iter().map(|_| OnceLock::new()).collect();
        let measure = |s: usize| {
            measured[s].get_or_init(|| {
                let spec = &specs[s];
                let (set, c) = campaigns[s];
                // Taken before the spans open: waiting for the shared
                // drive and its traces is not this scenario's work.
                let campaign = if spec.overrides.is_empty() {
                    Cow::Borrowed(base.get_or_init(|| sets[set].take(c, 1)))
                } else {
                    Cow::Owned(sets[set].take(c, 1))
                };
                leo_obs::incr("scenario.runs", 1);
                let _spans = run_spans(spec);
                measure_one(spec, campaign)
            })
        };

        leo_obs::incr("scenario.sweeps", 1);
        leo_obs::gauge_max(
            "scenario.workers",
            leo_exec::workers(jobs.len(), self.threads) as f64,
        );
        let job = |j: usize| match jobs[j] {
            Job::Trace(set, n) => {
                sets[set].trace(n);
                None
            }
            Job::Scenario(s) => {
                measure(s);
                None
            }
            Job::Transfer(s, leg) => {
                let plan = measure(s)
                    .plan
                    .as_ref()
                    .expect("an emulating scenario plans its replay");
                let _spans = run_spans(&specs[s]);
                Some(plan.run(leg))
            }
        };
        let sweep_span = leo_obs::span("scenario.sweep_s");
        let legs = leo_exec::run_indexed(jobs.len(), self.threads, "scenario.worker.busy_s", job);
        drop(sweep_span);

        let mut mbps = vec![[0.0; 3]; specs.len()];
        for (job, leg_mbps) in jobs.iter().zip(legs) {
            if let (Job::Transfer(s, leg), Some(v)) = (job, leg_mbps) {
                mbps[*s][*leg as usize] = v;
            }
        }
        let outcomes = measured
            .into_iter()
            .zip(mbps)
            .map(|(cell, mbps)| {
                let Measured { mut outcome, plan } = cell.into_inner().expect("every scenario ran");
                outcome.emulation = plan.map(|p| p.report(mbps));
                outcome
            })
            .collect();
        ScenarioReport {
            scale: self.base.scale,
            seed: self.base.seed,
            outcomes,
        }
    }
}

/// Materialises one scenario — perturbations, metrics — on its
/// campaign, and plans its replay when the spec asks for one. A borrowed
/// campaign is cloned only when the spec perturbs it.
fn measure_one(spec: &ScenarioSpec, mut campaign: Cow<'_, Campaign>) -> Measured {
    if !spec.perturbations.is_empty() {
        apply_all(campaign.to_mut(), &spec.perturbations);
    }

    let networks = campaign
        .traces
        .iter()
        .map(|(&n, (down, _))| {
            let s = down.stats();
            NetworkMetrics {
                network: n.label().to_string(),
                mean_capacity_mbps: s.as_ref().map(|s| s.mean_mbps).unwrap_or(0.0),
                mean_rtt_ms: s.as_ref().map(|s| s.mean_rtt_ms).unwrap_or(0.0),
                outage_frac: s.as_ref().map(|s| s.outage_frac).unwrap_or(1.0),
            }
        })
        .collect();

    let f9 = fig9::run(&campaign);
    let share = |f: fn(&fig9::Fig9Data, &str) -> Option<f64>, l: &str| f(&f9, l).unwrap_or(0.0);
    let coverage = CoverageMetrics {
        mob_high: share(fig9::high_share, "MOB"),
        best_cell_high: share(fig9::high_share, "BestCL"),
        combined_high: share(fig9::high_share, "MOB+CL"),
        combined_poor: share(fig9::poor_share, "MOB+CL"),
    };

    let udp_down: Vec<f64> = campaign
        .records
        .iter()
        .filter(|r| r.kind == TestKind::Udp && r.direction == Direction::Down)
        .map(|r| r.mean_mbps)
        .collect();
    let udp_down_mean_mbps = if udp_down.is_empty() {
        0.0
    } else {
        udp_down.iter().sum::<f64>() / udp_down.len() as f64
    };

    let outcome = ScenarioOutcome {
        name: spec.name.clone(),
        description: spec.description.clone(),
        tests: campaign.records.len() as u32,
        udp_down_mean_mbps,
        networks,
        coverage,
        emulation: None,
    };
    if leo_netsim::strict_checks() {
        audit_outcome(&outcome);
    }
    let plan = spec
        .emulate
        .then(|| DegradationPlan::new(&campaign, 60, 0.4, campaign.config.seed));
    Measured { outcome, plan }
}

/// Strict-mode self-audit: every scenario outcome must stay inside its
/// physical ranges regardless of how hard the perturbations bite.
fn audit_outcome(o: &ScenarioOutcome) {
    let frac = |v: f64, what: &str| {
        assert!(
            (0.0..=1.0).contains(&v),
            "scenario '{}': {what} = {v} outside [0, 1]",
            o.name
        );
    };
    frac(o.coverage.mob_high, "mob_high");
    frac(o.coverage.best_cell_high, "best_cell_high");
    frac(o.coverage.combined_high, "combined_high");
    frac(o.coverage.combined_poor, "combined_poor");
    assert!(
        o.udp_down_mean_mbps.is_finite() && o.udp_down_mean_mbps >= 0.0,
        "scenario '{}': udp mean {} not a finite non-negative rate",
        o.name,
        o.udp_down_mean_mbps
    );
    for n in &o.networks {
        assert!(
            n.mean_capacity_mbps.is_finite() && n.mean_capacity_mbps >= 0.0,
            "scenario '{}' network {}: capacity {}",
            o.name,
            n.network,
            n.mean_capacity_mbps
        );
        assert!(
            n.mean_rtt_ms.is_finite() && n.mean_rtt_ms >= 0.0,
            "scenario '{}' network {}: rtt {}",
            o.name,
            n.network,
            n.mean_rtt_ms
        );
        frac(n.outage_frac, "outage_frac");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::{builtin, builtin_scenarios};
    use crate::spec::{CampaignOverrides, NetworkSelector, Perturbation, Window};
    use leo_geo::area::AreaType;

    fn tiny_base() -> CampaignConfig {
        CampaignConfig {
            scale: 0.01,
            seed: 0x5eed,
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let specs = vec![
            builtin(BASELINE).unwrap(),
            ScenarioSpec::named("dark", "cellular dark mid-drive").with(Perturbation::Outage {
                window: Window::frac(0.3, 0.7),
                networks: NetworkSelector::Cellular,
            }),
        ];
        let report = ScenarioRunner::new(tiny_base()).with_threads(2).run(&specs);
        assert_eq!(report.outcomes.len(), 2);
        assert_eq!(report.outcomes[0].name, BASELINE);
        let back = ScenarioReport::from_json(&report.to_json()).expect("round trip");
        assert_eq!(report, back);
        let table = report.render_table();
        assert!(table.contains("baseline") && table.contains("dark"));
    }

    #[test]
    fn perturbed_outcome_differs_from_baseline_in_the_expected_direction() {
        let specs = vec![
            builtin(BASELINE).unwrap(),
            ScenarioSpec::named("half-dark", "everything dark half the time").with(
                Perturbation::Outage {
                    window: Window::frac(0.0, 0.5),
                    networks: NetworkSelector::All,
                },
            ),
        ];
        let report = ScenarioRunner::new(tiny_base()).with_threads(2).run(&specs);
        let base = &report.outcomes[0];
        let dark = &report.outcomes[1];
        assert!(dark.udp_down_mean_mbps < base.udp_down_mean_mbps);
        for (b, d) in base.networks.iter().zip(&dark.networks) {
            assert_eq!(b.network, d.network);
            assert!(d.outage_frac > b.outage_frac);
        }
    }

    #[test]
    fn schedule_ranks_traces_then_own_campaigns_then_emulations_then_transfers() {
        use Job::*;
        // Built-ins: baseline, thunderstorm-front (override), urban-canyon
        // (override), four perturbation-only specs, mptcp-combined (emulate).
        let base = tiny_base();
        let plan = schedule(&base, &builtin_scenarios());
        let traces = (0..CampaignSet::JOBS).map(|n| Trace(0, n));
        let want: Vec<Job> = traces
            .chain([
                Scenario(1),
                Scenario(2),
                Scenario(7),
                Transfer(7, Leg::Solo),
                Transfer(7, Leg::Clean),
                Transfer(7, Leg::Faulted),
                Scenario(0),
                Scenario(3),
                Scenario(4),
                Scenario(5),
                Scenario(6),
            ])
            .collect();
        assert_eq!(plan.jobs, want);
        // One drive: the base and the two overriding campaigns share it.
        assert_eq!(plan.sets.len(), 1);
        let set = &plan.sets[0];
        assert_eq!(set.len(), 3);
        assert!(set.iter().all(|c| c.shares_drive(&base)));
        assert_eq!(set[1].weather.rain_tenths, 7);
        assert_eq!(set[2].area_override, Some(AreaType::Urban));
        assert_eq!(
            plan.campaigns,
            vec![
                (0, 0),
                (0, 1),
                (0, 2),
                (0, 0),
                (0, 0),
                (0, 0),
                (0, 0),
                (0, 0)
            ]
        );
    }

    #[test]
    fn schedule_builds_only_the_campaigns_some_spec_reads() {
        use Job::*;
        let plan = schedule(&tiny_base(), &[]);
        assert!(plan.sets.is_empty() && plan.jobs.is_empty());

        // An overriding spec alone: its own campaign, no base.
        let plan = schedule(&tiny_base(), &[builtin("urban-canyon").unwrap()]);
        assert_eq!(plan.sets.len(), 1);
        assert_eq!(plan.sets[0].len(), 1);
        assert_eq!(plan.sets[0][0].area_override, Some(AreaType::Urban));
        let want: Vec<Job> = (0..CampaignSet::JOBS)
            .map(|n| Trace(0, n))
            .chain([Scenario(0)])
            .collect();
        assert_eq!(plan.jobs, want);
        assert_eq!(plan.campaigns, vec![(0, 0)]);
    }

    #[test]
    fn schedule_gives_each_drive_its_own_set() {
        let seed = ScenarioSpec {
            overrides: CampaignOverrides {
                seed: Some(7),
                ..CampaignOverrides::default()
            },
            ..ScenarioSpec::named("other-seed", "another drive")
        };
        let scale = ScenarioSpec {
            overrides: CampaignOverrides {
                scale: Some(0.02),
                ..CampaignOverrides::default()
            },
            ..ScenarioSpec::named("other-scale", "a longer drive")
        };
        let specs = [
            seed.clone(),
            builtin(BASELINE).unwrap(),
            scale,
            builtin("thunderstorm-front").unwrap(),
            seed,
        ];
        let plan = schedule(&tiny_base(), &specs);
        assert_eq!(plan.sets.len(), 3);
        assert_eq!(plan.campaigns, vec![(0, 0), (1, 0), (2, 0), (1, 1), (0, 1)]);
        assert_eq!(
            plan.jobs
                .iter()
                .filter(|j| matches!(j, Job::Trace(..)))
                .count(),
            3 * CampaignSet::JOBS
        );
    }

    fn zero_scale() -> ScenarioSpec {
        ScenarioSpec {
            overrides: CampaignOverrides {
                scale: Some(0.0),
                ..CampaignOverrides::default()
            },
            ..ScenarioSpec::named("zero-scale", "a scale override outside (0, 1]")
        }
    }

    #[test]
    #[should_panic(expected = "scale must be in (0, 1]")]
    fn bad_override_reraises_its_message_on_one_thread() {
        let specs = [builtin(BASELINE).unwrap(), zero_scale()];
        ScenarioRunner::new(tiny_base()).with_threads(1).run(&specs);
    }

    #[test]
    #[should_panic(expected = "scale must be in (0, 1]")]
    fn bad_override_reraises_its_message_from_a_helper() {
        let specs = [builtin(BASELINE).unwrap(), zero_scale()];
        ScenarioRunner::new(tiny_base()).with_threads(2).run(&specs);
    }

    #[test]
    #[should_panic(expected = "scale must be in (0, 1]")]
    fn failed_base_reraises_instead_of_hanging_its_consumers() {
        // Every other job borrows the base or reads a plan cut from it.
        let specs = [
            builtin(BASELINE).unwrap(),
            builtin("carrier-outage").unwrap(),
            builtin("mptcp-combined").unwrap(),
        ];
        let base = CampaignConfig {
            scale: 0.0,
            ..tiny_base()
        };
        ScenarioRunner::new(base).with_threads(4).run(&specs);
    }
}
