//! Campaign generation: drive the tour, trace every network, run the
//! scheduled tests.
//!
//! Campaigns that share a seed and a scale share a drive: their configs
//! differ at most in the weather mix and the area override, and neither
//! moves the vehicle. A [`CampaignSet`] builds such campaigns together.
//! It simulates the drive and classifies its areas once, then runs one
//! job per network. Each job walks the drive once: every second it picks
//! the serving cell or satellite once (the geometry step, which reads
//! neither weather nor area and draws no random numbers), then runs the
//! radio step once per campaign on that campaign's own RNG
//! (`trace_for_drive_variants` in `leo-cellular` and `leo-orbit`). Each
//! campaign then runs its scheduled tests. [`Campaign::generate`] is the
//! one-campaign case.
//!
//! Generation is parallel but deterministic: each campaign's per-network
//! traces and per-test records own an RNG seed derived from its seed
//! (plus the network / test index), so neither the thread count nor the
//! other campaigns of its set reorder any random draw. A campaign
//! generated in a set is byte-identical to generating it alone at any
//! `LEO_CAMPAIGN_THREADS`.

use crate::record::{DriveRecord, NetworkId, TestKind};
use crate::summary::DatasetSummary;
use crate::tour::grand_tour;
use leo_cellular::carrier::Carrier;
use leo_cellular::deployment::Deployment;
use leo_cellular::model::{CellularLinkModel, CellularModelConfig};
use leo_geo::area::{AreaClassifier, AreaType};
use leo_geo::drive::{DrivePlan, EnvironmentSample, Weather};
use leo_geo::places::PlaceDb;
use leo_geo::point::GeoPoint;
use leo_link::condition::Direction;
use leo_link::trace::LinkTrace;
use leo_measure::iperf::{IperfConfig, IperfProtocol, IperfRunner};
use leo_measure::udp_ping::UdpPing;
use leo_orbit::dish::DishPlan;
use leo_orbit::model::{StarlinkLinkModel, StarlinkModelConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock, RwLock};

/// Worker threads used by [`Campaign::generate`]: the
/// `LEO_CAMPAIGN_THREADS` environment variable when set to a positive
/// integer, otherwise the machine's available parallelism. The thread
/// count never changes the generated campaign, only how fast it arrives.
pub fn campaign_threads() -> usize {
    std::env::var("LEO_CAMPAIGN_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
        .min(64)
}

/// Weather mix of a campaign, in tenths of drive time.
///
/// The drive's weather alternates in multi-hour blocks; out of every ten
/// blocks (hashed pseudo-randomly from the campaign seed), `rain_tenths`
/// are rainy and `snow_tenths` snowy, the rest clear. The default 2/1 mix
/// reproduces §3.3's "clear weather conditions but also rainy and snowy
/// conditions"; scenario campaigns override it (e.g. a thunderstorm
/// front). Tenths beyond ten are clamped so the mix always partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WeatherMix {
    pub rain_tenths: u8,
    pub snow_tenths: u8,
}

impl Default for WeatherMix {
    fn default() -> Self {
        Self {
            rain_tenths: 2,
            snow_tenths: 1,
        }
    }
}

impl WeatherMix {
    /// Permanently clear skies.
    pub const CLEAR: WeatherMix = WeatherMix {
        rain_tenths: 0,
        snow_tenths: 0,
    };

    /// The weather for a block hash in `[0, 10)` — public so fleet
    /// population synthesis can draw per-user weather from the same mix
    /// semantics the campaign uses for its drive blocks.
    pub fn weather_for(&self, tenth: u64) -> Weather {
        let rain = (self.rain_tenths as u64).min(10);
        let snow = (self.snow_tenths as u64).min(10 - rain);
        if tenth < rain {
            Weather::Rain
        } else if tenth < rain + snow {
            Weather::Snow
        } else {
            Weather::Clear
        }
    }
}

/// Campaign parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// Master seed; the whole campaign is a pure function of this config.
    pub seed: u64,
    /// Tour scale in `(0, 1]` (1.0 = the full >3,800 km field trip).
    pub scale: f64,
    /// Number of tests to schedule (paper: 1,239 at full scale; scaled
    /// proportionally by `scale`).
    pub tests_at_full_scale: u32,
    /// Duration of each test, seconds.
    pub test_duration_s: u32,
    /// Weather mix over the drive (default: the paper's clear/rain/snow
    /// blocks).
    pub weather: WeatherMix,
    /// Forces every second of the drive to one area type (scenario
    /// campaigns: e.g. an all-urban canyon world); `None` classifies
    /// areas from the route as usual.
    pub area_override: Option<AreaType>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self {
            seed: 0xcafe_2023,
            scale: 1.0,
            tests_at_full_scale: 1239,
            test_duration_s: 60,
            weather: WeatherMix::default(),
            area_override: None,
        }
    }
}

impl CampaignConfig {
    /// A small configuration for tests and examples (~2 % of the field
    /// trip).
    pub fn small() -> Self {
        Self {
            scale: 0.02,
            ..Self::default()
        }
    }

    /// Tests scheduled at this scale.
    pub fn test_count(&self) -> u32 {
        ((self.tests_at_full_scale as f64 * self.scale).round() as u32).max(5)
    }

    /// Whether campaigns of `self` and `other` drive the same drive: the
    /// same seed and the same scale, so they can share a [`CampaignSet`].
    pub fn shares_drive(&self, other: &CampaignConfig) -> bool {
        self.seed == other.seed && self.scale.to_bits() == other.scale.to_bits()
    }
}

/// The generated campaign: the drive, aligned per-network traces, and the
/// completed test records.
#[derive(Debug, Clone)]
pub struct Campaign {
    pub config: CampaignConfig,
    /// 1 Hz environment samples of the whole drive.
    pub samples: Vec<EnvironmentSample>,
    /// Area type per sample.
    pub areas: Vec<AreaType>,
    /// Aligned (downlink, uplink) traces per network.
    pub traces: BTreeMap<NetworkId, (LinkTrace, LinkTrace)>,
    /// The completed tests.
    pub records: Vec<DriveRecord>,
}

impl Campaign {
    /// Generates the full campaign from a configuration, using
    /// [`campaign_threads`] workers.
    pub fn generate(config: CampaignConfig) -> Self {
        Self::generate_with_threads(config, campaign_threads())
    }

    /// [`Campaign::generate`] with an explicit worker count: a
    /// [`CampaignSet`] of one.
    ///
    /// The result is byte-identical for every `threads` value: each
    /// network trace and each scheduled test derives its own RNG seed
    /// from the campaign seed, so no thread interleaving can reorder
    /// random draws (`deterministic_across_full_pipeline` and
    /// `thread_count_does_not_change_campaign` pin this contract).
    pub fn generate_with_threads(config: CampaignConfig, threads: usize) -> Self {
        let mut campaigns = CampaignSet::new(vec![config]).generate(threads);
        campaigns
            .pop()
            .expect("a set of one generates one campaign")
    }

    /// Dataset summary (the §3.3 numbers).
    pub fn summary(&self) -> DatasetSummary {
        DatasetSummary::from_campaign(self)
    }

    /// Records matching a predicate — the analysis crates' entry point.
    pub fn records_where(&self, f: impl Fn(&DriveRecord) -> bool) -> Vec<&DriveRecord> {
        self.records.iter().filter(|r| f(r)).collect()
    }

    /// Re-runs the scheduled tests against the *current* traces,
    /// replacing `records` — the scenario engine's hook: after its
    /// perturbation layer rewrites the per-second condition series, the
    /// measured dataset must reflect the degraded world. Same
    /// determinism contract as [`Campaign::generate_with_threads`]: the
    /// result is byte-identical for every `threads` value.
    pub fn rerun_tests(&mut self, threads: usize) {
        self.records = schedule_and_run(
            &self.config,
            &self.samples,
            &self.areas,
            &self.traces,
            threads,
        );
    }
}

/// Weather alternates in multi-hour blocks: mostly clear, with rain and
/// snow segments (§3.3 collected in all three). The mix decides how many
/// of every ten (hashed) blocks are rain or snow; the default mix keeps
/// this function byte-identical to the original fixed 2/1 schedule.
fn apply_weather_schedule(samples: &mut [EnvironmentSample], seed: u64, mix: WeatherMix) {
    const BLOCK_S: u64 = 2 * 3600;
    for s in samples.iter_mut() {
        let block = s.t_s / BLOCK_S;
        let h = block
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(seed)
            .wrapping_mul(0xbf58_476d_1ce4_e5b9);
        s.weather = mix.weather_for(h % 10);
    }
}

/// Campaigns that share one drive: configs with one seed and one scale,
/// which differ at most in their weather mix and area override.
///
/// The set simulates the drive and classifies its areas once, the first
/// time any job needs them. [`trace`](Self::trace) runs one of its
/// network jobs, which traces that network for every campaign of the set
/// in one loop over the drive. [`take`](Self::take) hands out one
/// finished campaign. Jobs may run in any order and on any thread: a job
/// that needs work nobody has done yet does it, and one that needs work
/// in progress waits for it. No job's result depends on which ran it.
/// Each campaign is byte-identical to generating its config alone.
pub struct CampaignSet {
    configs: Vec<CampaignConfig>,
    drive: OnceLock<SharedDrive>,
    traced: [OnceLock<()>; NetworkId::ALL.len()],
    traces: Vec<Mutex<BTreeMap<NetworkId, (LinkTrace, LinkTrace)>>>,
}

/// What a set's jobs read: the places and the corridor the cellular
/// deployments are generated over, and each campaign's view of the
/// drive. A view is moved into its campaign when the campaign is taken.
struct SharedDrive {
    places: PlaceDb,
    corridor: Vec<GeoPoint>,
    views: Vec<RwLock<DriveView>>,
}

/// One campaign's view of the shared drive: the samples under its own
/// weather, and its area per sample.
#[derive(Default)]
struct DriveView {
    samples: Vec<EnvironmentSample>,
    areas: Vec<AreaType>,
}

impl CampaignSet {
    /// Network jobs per set: one per network of [`NetworkId::ALL`].
    pub const JOBS: usize = NetworkId::ALL.len();

    /// A set over `configs`, in order.
    ///
    /// # Panics
    /// Panics when `configs` is empty or its configs do not share one
    /// seed and one scale.
    pub fn new(configs: Vec<CampaignConfig>) -> Self {
        let first = configs.first().expect("a campaign set needs a campaign");
        assert!(
            configs.iter().all(|c| c.shares_drive(first)),
            "the campaigns of a set must share one seed and one scale"
        );
        Self {
            traces: configs.iter().map(|_| Mutex::default()).collect(),
            configs,
            drive: OnceLock::new(),
            traced: Default::default(),
        }
    }

    /// Generates every campaign of the set: the drive, the network jobs
    /// on `threads` workers (`campaign.stage.trace_s` is the wall clock
    /// of their fan-out), then each campaign's tests.
    pub fn generate(self, threads: usize) -> Vec<Campaign> {
        self.drive();
        let trace_span = leo_obs::span("campaign.stage.trace_s");
        leo_exec::run_indexed(Self::JOBS, threads, "campaign.worker.trace_s", |n| {
            self.run_network_job(n)
        });
        drop(trace_span);
        (0..self.configs.len())
            .map(|c| self.take(c, threads))
            .collect()
    }

    /// Runs network job `n`: traces network `NetworkId::ALL[n]` for every
    /// campaign of the set, timed in `campaign.stage.trace_s` (the drive
    /// it may have to simulate first is not). The job runs once; a later
    /// call returns when it is done.
    pub fn trace(&self, n: usize) {
        self.drive();
        let _stage = leo_obs::span("campaign.stage.trace_s");
        self.run_network_job(n);
    }

    /// [`trace`](Self::trace) without the stage timer.
    fn run_network_job(&self, n: usize) {
        self.traced[n].get_or_init(|| {
            let drive = self.drive();
            let network = NetworkId::ALL[n];
            // Read locks: every campaign's view, shared with the other
            // network jobs. Views are written only by `take`, after every
            // job has finished.
            let views: Vec<_> = drive
                .views
                .iter()
                .map(|v| v.read().expect("no job panics holding a view"))
                .collect();
            let variants: Vec<(&[EnvironmentSample], &[AreaType])> = views
                .iter()
                .map(|v| (&v.samples[..], &v.areas[..]))
                .collect();
            let _span = leo_obs::span(trace_span(network));
            let seed = self.configs[0].seed;
            let traced = trace_network(network, seed, &drive.places, &drive.corridor, &variants);
            for (slot, pair) in self.traces.iter().zip(traced) {
                slot.lock()
                    .expect("no job panics holding a trace slot")
                    .insert(network, pair);
            }
        });
    }

    /// Takes campaign `c` out of the set: runs whichever network jobs
    /// have not run yet, then the campaign's tests on `threads` workers.
    ///
    /// # Panics
    /// Panics when campaign `c` was already taken.
    pub fn take(&self, c: usize, threads: usize) -> Campaign {
        (0..Self::JOBS).for_each(|n| self.run_network_job(n));
        let traces = std::mem::take(&mut *self.traces[c].lock().expect("no job panicked"));
        assert_eq!(
            traces.len(),
            Self::JOBS,
            "campaign {c} of a set is taken once"
        );
        let DriveView { samples, areas } = std::mem::take(
            &mut *self.drive().views[c]
                .write()
                .expect("no job panics holding a view"),
        );
        let config = self.configs[c].clone();
        let tests_span = leo_obs::span("campaign.stage.tests_s");
        let records = schedule_and_run(&config, &samples, &areas, &traces, threads);
        drop(tests_span);
        Campaign {
            config,
            samples,
            areas,
            traces,
            records,
        }
    }

    /// The shared drive, simulated and classified by the first job that
    /// needs it.
    fn drive(&self) -> &SharedDrive {
        self.drive.get_or_init(|| {
            let first = &self.configs[0];
            leo_obs::incr("campaign.drives", 1);
            leo_obs::incr("campaign.generations", self.configs.len() as u64);
            let places = PlaceDb::five_state_corridor();
            let route = grand_tour(&places, first.scale);
            let corridor = route.waypoints();

            // 1. Drive the tour. Inherently sequential: each second's
            //    vehicle state depends on the previous one. Each campaign
            //    gets a copy under its own weather.
            let drive_span = leo_obs::span("campaign.stage.drive_s");
            let mut rng = SmallRng::seed_from_u64(first.seed);
            let plan = DrivePlan::new(route).with_start_hour(8.0);
            let mut samples = vec![plan.simulate(&mut rng, 60 * 60 * 24 * 14)];
            while samples.len() < self.configs.len() {
                samples.push(samples[0].clone());
            }
            for (s, config) in samples.iter_mut().zip(&self.configs) {
                apply_weather_schedule(s, config.seed, config.weather);
            }
            drop(drive_span);

            // 2. Classify areas along the drive once, for the campaigns
            //    that do not force one area everywhere.
            let area_span = leo_obs::span("campaign.stage.area_s");
            let classified: Option<Vec<AreaType>> = self
                .configs
                .iter()
                .any(|c| c.area_override.is_none())
                .then(|| {
                    let classifier = AreaClassifier::new(places.clone());
                    samples[0]
                        .iter()
                        .map(|s| classifier.classify(&s.position))
                        .collect()
                });
            let views = samples
                .into_iter()
                .zip(&self.configs)
                .map(|(samples, config)| {
                    let areas = match config.area_override {
                        Some(area) => vec![area; samples.len()],
                        None => classified
                            .clone()
                            .expect("classified when a campaign needs it"),
                    };
                    RwLock::new(DriveView { samples, areas })
                })
                .collect();
            drop(area_span);
            SharedDrive {
                places,
                corridor,
                views,
            }
        })
    }
}

/// The obs span timing one network's traces, so an `LEO_OBS=1` run can
/// break the trace stage down by network.
fn trace_span(network: NetworkId) -> &'static str {
    match network {
        NetworkId::Att => "campaign.trace.ATT_s",
        NetworkId::TMobile => "campaign.trace.TM_s",
        NetworkId::Verizon => "campaign.trace.VZ_s",
        NetworkId::Roam => "campaign.trace.RM_s",
        NetworkId::Mobility => "campaign.trace.MOB_s",
    }
}

/// Builds one network's aligned (downlink, uplink) traces for every
/// variant of a drive. A pure function of `(seed, world, network,
/// variants)`; the parallel fan-out relies on that.
fn trace_network(
    network: NetworkId,
    seed: u64,
    places: &PlaceDb,
    corridor: &[GeoPoint],
    variants: &[(&[EnvironmentSample], &[AreaType])],
) -> Vec<(LinkTrace, LinkTrace)> {
    match network {
        NetworkId::Roam | NetworkId::Mobility => {
            let plan = match network {
                NetworkId::Roam => DishPlan::Roam,
                _ => DishPlan::Mobility,
            };
            let mut cfg = StarlinkModelConfig::for_plan(plan);
            cfg.seed = seed ^ 0x5a7e_0000;
            StarlinkLinkModel::new(cfg).trace_for_drive_variants(variants)
        }
        NetworkId::Att | NetworkId::TMobile | NetworkId::Verizon => {
            let carrier = match network {
                NetworkId::Att => Carrier::Att,
                NetworkId::TMobile => Carrier::TMobile,
                _ => Carrier::Verizon,
            };
            let deployment = Deployment::generate(carrier, places, corridor, seed ^ 0xce11);
            let mut cfg = CellularModelConfig::for_carrier(carrier);
            cfg.seed = seed ^ 0xce11_0001;
            CellularLinkModel::new(cfg, deployment).trace_for_drive_variants(variants)
        }
    }
}

/// The repeating test-type schedule. Weighted towards UDP downlink (the
/// coverage analysis workhorse) with regular TCP, uplink, parallelism, and
/// ping slots — mirroring the experiment mix of §4.
const TEST_CYCLE: [(TestKind, Direction); 10] = [
    (TestKind::Udp, Direction::Down),
    (TestKind::Tcp { parallel: 1 }, Direction::Down),
    (TestKind::Udp, Direction::Down),
    (TestKind::Ping, Direction::Down),
    (TestKind::Udp, Direction::Up),
    (TestKind::Tcp { parallel: 4 }, Direction::Down),
    (TestKind::Udp, Direction::Down),
    (TestKind::Tcp { parallel: 1 }, Direction::Up),
    (TestKind::Tcp { parallel: 8 }, Direction::Down),
    (TestKind::Ping, Direction::Down),
];

fn schedule_and_run(
    config: &CampaignConfig,
    samples: &[EnvironmentSample],
    areas: &[AreaType],
    traces: &BTreeMap<NetworkId, (LinkTrace, LinkTrace)>,
    threads: usize,
) -> Vec<DriveRecord> {
    let n_tests = config.test_count() as usize;
    let duration = config.test_duration_s as u64;
    let timeline = samples.len() as u64;
    if timeline < duration + 1 {
        return Vec::new();
    }
    // Tests are spread evenly over the drive; several networks are
    // measured in the same window (the paper's phones ran side by side).
    let stride = ((timeline - duration) / (n_tests as u64).max(1)).max(1);

    // One job per test: record i is a pure function of (config, world,
    // i), so which worker ran it is invisible.
    leo_exec::run_indexed(n_tests, threads, "campaign.worker.tests_s", |i| {
        run_scheduled_test(config, samples, areas, traces, stride, i as u32)
    })
}

/// Runs scheduled test `i` and builds its record.
fn run_scheduled_test(
    config: &CampaignConfig,
    samples: &[EnvironmentSample],
    areas: &[AreaType],
    traces: &BTreeMap<NetworkId, (LinkTrace, LinkTrace)>,
    stride: u64,
    i: u32,
) -> DriveRecord {
    let duration = config.test_duration_s as u64;
    let timeline = samples.len() as u64;
    let t0 = (i as u64 * stride).min(timeline - duration);
    // Nested cycles: the network advances every test, the test kind
    // every full network rotation, so every (network, kind) pair
    // occurs — a flat `i % len` on both would alias (5 divides 10).
    let network = NetworkId::ALL[i as usize % NetworkId::ALL.len()];
    let (kind, direction) = TEST_CYCLE[(i as usize / NetworkId::ALL.len()) % TEST_CYCLE.len()];
    let (down, up) = &traces[&network];
    let trace = match direction {
        Direction::Down => down,
        Direction::Up => up,
    };
    let window = trace.window(t0, t0 + duration);
    let win_samples = &samples[t0 as usize..(t0 + duration) as usize];
    let win_areas = &areas[t0 as usize..(t0 + duration) as usize];

    let seed = test_seed(config.seed, network, i);
    let (mean_mbps, median_mbps, retrans, rtt) = run_test(kind, network, direction, &window, seed);

    let mid = &win_samples[win_samples.len() / 2];
    DriveRecord {
        test_id: i,
        network,
        kind,
        direction,
        t_start_s: t0,
        duration_s: config.test_duration_s,
        lat_deg: mid.position.lat_deg,
        lon_deg: mid.position.lon_deg,
        area: majority_area(win_areas),
        mean_speed_kmh: win_samples.iter().map(|s| s.speed_kmh).sum::<f64>()
            / win_samples.len() as f64,
        mean_mbps,
        median_mbps,
        retrans_rate: retrans,
        mean_rtt_ms: rtt,
    }
}

/// Per-test RNG seed: SplitMix64 of the campaign seed keyed by the
/// network and the test index. Each test owns an independent stream, so
/// results don't depend on which thread (or in which order) it runs.
fn test_seed(campaign_seed: u64, network: NetworkId, test_id: u32) -> u64 {
    let net = NetworkId::ALL
        .iter()
        .position(|&n| n == network)
        .expect("network in ALL") as u64;
    leo_exec::splitmix64(campaign_seed ^ (net << 32) ^ test_id as u64)
}

fn run_test(
    kind: TestKind,
    network: NetworkId,
    direction: Direction,
    window: &LinkTrace,
    seed: u64,
) -> (f64, f64, f64, Option<f64>) {
    match kind {
        TestKind::Ping => {
            let rep = UdpPing {
                seed,
                ..UdpPing::default()
            }
            .run(window);
            (0.0, 0.0, rep.loss_rate(), rep.mean_rtt_ms())
        }
        TestKind::Udp => {
            let cfg = IperfConfig {
                protocol: IperfProtocol::Udp,
                ..base_iperf(network, direction)
            };
            let rep = IperfRunner::new(cfg).run(window);
            (
                rep.mean_mbps,
                median(&rep.per_second_mbps),
                rep.retrans_rate,
                None,
            )
        }
        TestKind::Tcp { parallel } => {
            let cfg = IperfConfig {
                protocol: IperfProtocol::Tcp { parallel },
                ..base_iperf(network, direction)
            };
            let rep = IperfRunner::new(cfg).run(window);
            (
                rep.mean_mbps,
                median(&rep.per_second_mbps),
                rep.retrans_rate,
                None,
            )
        }
    }
}

fn base_iperf(network: NetworkId, direction: Direction) -> IperfConfig {
    let mut cfg = if network.is_starlink() {
        IperfConfig::tcp_down_starlink(1)
    } else {
        IperfConfig::tcp_down_cellular(1)
    };
    cfg.direction = direction;
    cfg
}

fn median(series: &[f64]) -> f64 {
    if series.is_empty() {
        return 0.0;
    }
    let mut v = series.to_vec();
    // total_cmp, not partial_cmp().expect(): a NaN sample sorts to the
    // back, keeping the median over the finite majority.
    v.sort_by(|a, b| a.total_cmp(b));
    v[v.len() / 2]
}

fn majority_area(areas: &[AreaType]) -> AreaType {
    let mut counts = [0usize; 3];
    for a in areas {
        match a {
            AreaType::Urban => counts[0] += 1,
            AreaType::Suburban => counts[1] += 1,
            AreaType::Rural => counts[2] += 1,
        }
    }
    let idx = counts
        .iter()
        .enumerate()
        .max_by_key(|&(_, c)| *c)
        .expect("non-empty")
        .0;
    [AreaType::Urban, AreaType::Suburban, AreaType::Rural][idx]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_campaign() -> Campaign {
        Campaign::generate(CampaignConfig::small())
    }

    #[test]
    fn median_is_nan_robust() {
        // Finite inputs: unchanged by the total_cmp switch.
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
        // A NaN sample sorts to the back instead of aborting, leaving
        // the median over the finite majority.
        let m = median(&[1.0, f64::NAN, 3.0, 2.0, 4.0]);
        assert!(m.is_finite(), "got {m}");
        assert_eq!(m, 3.0);
    }

    #[test]
    fn campaign_produces_scheduled_tests() {
        let c = small_campaign();
        assert_eq!(c.records.len() as u32, c.config.test_count());
        assert!(c.records.len() >= 20, "got {}", c.records.len());
    }

    #[test]
    fn every_network_is_tested() {
        let c = small_campaign();
        for n in NetworkId::ALL {
            assert!(
                c.records.iter().any(|r| r.network == n),
                "network {n} untested"
            );
        }
    }

    #[test]
    fn traces_cover_the_whole_drive() {
        let c = small_campaign();
        for (n, (down, up)) in &c.traces {
            assert_eq!(
                down.duration_s(),
                c.samples.len() as u64,
                "{n} downlink trace length"
            );
            assert_eq!(up.duration_s(), c.samples.len() as u64);
        }
    }

    #[test]
    fn ping_records_have_rtt_and_transfers_have_throughput() {
        let c = small_campaign();
        let pings = c.records_where(|r| r.kind == TestKind::Ping);
        let transfers = c.records_where(|r| r.kind != TestKind::Ping);
        assert!(!pings.is_empty() && !transfers.is_empty());
        assert!(
            pings.iter().filter(|r| r.mean_rtt_ms.is_some()).count() > pings.len() / 2,
            "most ping tests should see acknowledged probes"
        );
        assert!(
            transfers.iter().any(|r| r.mean_mbps > 10.0),
            "some transfers must see real throughput"
        );
    }

    #[test]
    fn campaign_is_deterministic() {
        let a = Campaign::generate(CampaignConfig::small());
        let b = Campaign::generate(CampaignConfig::small());
        assert_eq!(a.records, b.records);
    }

    #[test]
    fn thread_count_does_not_change_campaign() {
        // The parallel-determinism contract: 1 worker and many workers
        // produce byte-identical traces and records.
        let seq = Campaign::generate_with_threads(CampaignConfig::small(), 1);
        for threads in [2, 4, 7] {
            let par = Campaign::generate_with_threads(CampaignConfig::small(), threads);
            assert_eq!(seq.traces, par.traces, "traces differ at {threads} threads");
            assert_eq!(
                seq.records, par.records,
                "records differ at {threads} threads"
            );
        }
    }

    #[test]
    fn weather_mix_controls_the_schedule() {
        let all_rain = Campaign::generate(CampaignConfig {
            weather: WeatherMix {
                rain_tenths: 10,
                snow_tenths: 0,
            },
            ..CampaignConfig::small()
        });
        assert!(all_rain.samples.iter().all(|s| s.weather == Weather::Rain));

        let clear = Campaign::generate(CampaignConfig {
            weather: WeatherMix::CLEAR,
            ..CampaignConfig::small()
        });
        assert!(clear.samples.iter().all(|s| s.weather == Weather::Clear));

        // The default mix reproduces the original fixed 2/1 schedule on
        // the block-hash tenths (a small campaign spans too few two-hour
        // blocks to observe all three conditions empirically).
        let mix = WeatherMix::default();
        for tenth in 0..10 {
            let want = match tenth {
                0 | 1 => Weather::Rain,
                2 => Weather::Snow,
                _ => Weather::Clear,
            };
            assert_eq!(mix.weather_for(tenth), want, "tenth {tenth}");
        }
    }

    #[test]
    fn campaigns_sharing_a_drive_equal_each_generated_alone() {
        let base = CampaignConfig::small();
        let configs = vec![
            base.clone(),
            CampaignConfig {
                weather: WeatherMix {
                    rain_tenths: 10,
                    snow_tenths: 0,
                },
                ..base.clone()
            },
            CampaignConfig {
                area_override: Some(AreaType::Urban),
                ..base
            },
        ];
        let together = CampaignSet::new(configs.clone()).generate(2);
        assert_eq!(together.len(), configs.len());
        // Debug text: `EnvironmentSample` has no `PartialEq`, and `{:?}`
        // prints every f64 exactly.
        let text = |c: &Campaign| format!("{:?}", c.samples);
        assert_ne!(text(&together[0]), text(&together[1]), "weather differs");
        assert_ne!(together[0].areas, together[2].areas, "areas differ");
        for (config, got) in configs.into_iter().zip(together) {
            let alone = Campaign::generate_with_threads(config, 1);
            assert_eq!(text(&got), text(&alone));
            assert_eq!(got.areas, alone.areas);
            assert_eq!(got.traces, alone.traces);
            assert_eq!(got.records, alone.records);
        }
    }

    #[test]
    #[should_panic(expected = "share one seed and one scale")]
    fn a_set_rejects_campaigns_on_different_drives() {
        let base = CampaignConfig::small();
        let other = CampaignConfig {
            seed: base.seed ^ 1,
            ..base.clone()
        };
        CampaignSet::new(vec![base, other]);
    }

    #[test]
    #[should_panic(expected = "taken once")]
    fn a_campaign_is_taken_once() {
        let set = CampaignSet::new(vec![CampaignConfig {
            scale: 0.005,
            ..CampaignConfig::default()
        }]);
        set.take(0, 1);
        set.take(0, 1);
    }

    #[test]
    fn area_override_forces_every_second() {
        let urban = Campaign::generate(CampaignConfig {
            area_override: Some(AreaType::Urban),
            ..CampaignConfig::small()
        });
        assert!(urban.areas.iter().all(|&a| a == AreaType::Urban));
        assert!(urban.records.iter().all(|r| r.area == AreaType::Urban));
    }

    #[test]
    fn rerun_tests_is_idempotent_and_thread_invariant() {
        let base = small_campaign();
        let mut again = base.clone();
        again.rerun_tests(1);
        assert_eq!(
            base.records, again.records,
            "unperturbed rerun must reproduce the original records"
        );
        let mut par = base.clone();
        par.rerun_tests(5);
        assert_eq!(again.records, par.records, "rerun thread invariance");
    }

    #[test]
    fn test_seeds_are_distinct_per_test_and_network() {
        let mut seen = std::collections::BTreeSet::new();
        for net in NetworkId::ALL {
            for i in 0..200u32 {
                assert!(
                    seen.insert(test_seed(42, net, i)),
                    "collision at ({net}, {i})"
                );
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut cfg = CampaignConfig::small();
        cfg.seed ^= 1;
        let a = Campaign::generate(cfg);
        let b = Campaign::generate(CampaignConfig::small());
        assert_ne!(a.records, b.records);
    }

    #[test]
    fn starlink_udp_beats_starlink_tcp_overall() {
        // The §4.1 headline finding, visible even in a small campaign.
        let c = small_campaign();
        let udp: Vec<f64> = c
            .records_where(|r| {
                r.network == NetworkId::Mobility
                    && r.kind == TestKind::Udp
                    && r.direction == Direction::Down
            })
            .iter()
            .map(|r| r.mean_mbps)
            .collect();
        let tcp: Vec<f64> = c
            .records_where(|r| {
                r.network == NetworkId::Mobility
                    && r.kind == (TestKind::Tcp { parallel: 1 })
                    && r.direction == Direction::Down
            })
            .iter()
            .map(|r| r.mean_mbps)
            .collect();
        if udp.is_empty() || tcp.is_empty() {
            return; // tiny campaign may miss a slot combination
        }
        let mu = udp.iter().sum::<f64>() / udp.len() as f64;
        let mt = tcp.iter().sum::<f64>() / tcp.len() as f64;
        assert!(mu > mt, "MOB UDP {mu} should beat TCP {mt}");
    }
}
