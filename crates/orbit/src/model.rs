//! The Starlink link model: geometry + obstruction + plan → per-second
//! link conditions.
//!
//! This is the simulator's stand-in for the real Starlink service the paper
//! measured. Every mechanism the paper names is represented:
//!
//! * **Line-of-sight geometry** — a best visible satellite is selected at
//!   each 15-second reconfiguration slot (Starlink's scheduler interval);
//!   its elevation sets beam quality and the bent-pipe geometric RTT.
//! * **Obstruction** — a fast Markov sky-state chain (seconds-scale bursts)
//!   composed with a slow per-road-segment *sky quality* field
//!   (minutes-scale urban canyons, tree corridors).
//! * **Plan differences** — field of view, congestion priority,
//!   re-acquisition lag, and Roam's speed sensitivity, from [`DishPlan`].
//! * **FDD asymmetry** — uplink capacity is ~1/10 of downlink (§4.1).
//! * **Weather** — mild rain/snow fade (§3.3).
//!
//! Calibration targets (see `DESIGN.md` §3): Mobility UDP downlink
//! mean ≈ 130–160 Mbps with median well above the mean's percentile
//! (heavy low tail), Roam ≈ half of Mobility, RTTs 50–100 ms, TCP
//! retransmission-driving loss 0.3–1.3 %.

use crate::constellation::{Constellation, Satellite};
use crate::dish::DishPlan;
use crate::fastpath::VisibilitySearcher;
use crate::ground::{bent_pipe_floor_rtt_ms, GroundStationDb};
use crate::obstruction::{ObstructionProcess, SkyState};
use leo_exec::{splitmix64, GOLDEN_GAMMA};
use leo_geo::area::AreaType;
use leo_geo::drive::EnvironmentSample;
use leo_geo::point::Ecef;
use leo_link::condition::LinkCondition;
use leo_link::trace::LinkTrace;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration of the Starlink link model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StarlinkModelConfig {
    pub plan: DishPlan,
    /// RNG seed; the produced traces are a pure function of (drive, config).
    pub seed: u64,
    /// Clear-sky cell capacity at zenith for a priority-1 dish, Mbps.
    pub peak_capacity_mbps: f64,
    /// Uplink/downlink capacity ratio (FDD split).
    pub uplink_ratio: f64,
    /// Baseline random loss on a clear link.
    pub base_loss: f64,
    /// Gateway → PoP → test-server RTT component, ms.
    pub backhaul_rtt_ms: f64,
    /// Starlink scheduler reconfiguration interval, seconds.
    pub reconfig_interval_s: u64,
}

impl StarlinkModelConfig {
    /// Default configuration for a plan.
    pub fn for_plan(plan: DishPlan) -> Self {
        Self {
            plan,
            seed: 0x5eed_1ea0,
            peak_capacity_mbps: 305.0,
            uplink_ratio: 0.10,
            base_loss: 0.004,
            backhaul_rtt_ms: 34.0,
            reconfig_interval_s: 15,
        }
    }
}

/// The Starlink link model over a constellation and gateway set.
#[derive(Debug, Clone)]
pub struct StarlinkLinkModel {
    constellation: Constellation,
    gateways: GroundStationDb,
    config: StarlinkModelConfig,
}

impl StarlinkLinkModel {
    /// Creates a model with the Starlink constellation and Midwest gateways.
    pub fn new(config: StarlinkModelConfig) -> Self {
        Self {
            constellation: Constellation::starlink(),
            gateways: GroundStationDb::midwest_corridor(),
            config,
        }
    }

    /// Creates a model over explicit infrastructure.
    pub fn with_infrastructure(
        config: StarlinkModelConfig,
        constellation: Constellation,
        gateways: GroundStationDb,
    ) -> Self {
        Self {
            constellation,
            gateways,
            config,
        }
    }

    /// The model configuration.
    pub fn config(&self) -> &StarlinkModelConfig {
        &self.config
    }

    /// Generates aligned downlink and uplink traces for a drive.
    ///
    /// `areas[i]` must be the area type at `samples[i]` (use
    /// `leo_geo::AreaClassifier`); the two slices must have equal length.
    /// The result is deterministic in `(samples, areas, config)`.
    ///
    /// Satellite selection runs on the [`crate::fastpath`] searcher.
    pub fn trace_for_drive(
        &self,
        samples: &[EnvironmentSample],
        areas: &[AreaType],
    ) -> (LinkTrace, LinkTrace) {
        let mut traces = self.trace_for_drive_variants(&[(samples, areas)]);
        traces.pop().expect("one variant in, one trace pair out")
    }

    /// [`trace_for_drive`](Self::trace_for_drive) with an externally
    /// pooled [`VisibilitySearcher`] instead of a freshly built one.
    ///
    /// This is the fleet engine's entry point: building a searcher means
    /// building an O(total satellites) propagation table, which a
    /// per-user call would repeat N times; a pooled searcher over a
    /// shared table amortises it to once per constellation. The searcher
    /// must be built over this model's constellation; traces are
    /// bit-identical to [`trace_for_drive`](Self::trace_for_drive) (the
    /// searcher never touches the RNG, and its cached windows only ever
    /// change *when* pruning work happens, never its results).
    pub fn trace_for_drive_with_searcher(
        &self,
        samples: &[EnvironmentSample],
        areas: &[AreaType],
        searcher: &mut VisibilitySearcher,
    ) -> (LinkTrace, LinkTrace) {
        let mut traces = self.trace_variants_with(&[(samples, areas)], searcher);
        traces.pop().expect("one variant in, one trace pair out")
    }

    /// Traces one drive under several weather and area assignments at
    /// once, returning one aligned (downlink, uplink) pair per variant.
    ///
    /// A variant is a drive's samples under its own weather plus its area
    /// per sample; every variant must share the first one's times,
    /// positions, speeds and distances. Each second runs the geometry
    /// step once (satellite selection per reconfiguration slot, beam
    /// quality, gateway RTT, re-acquisition after a satellite change),
    /// which reads neither weather nor area and draws no random numbers,
    /// then the radio step once per variant (sky quality, obstruction
    /// chain, fading, weather, latency, loss) on that variant's own RNG.
    /// Each variant's traces are therefore bit-identical to tracing it
    /// alone.
    pub fn trace_for_drive_variants(
        &self,
        variants: &[(&[EnvironmentSample], &[AreaType])],
    ) -> Vec<(LinkTrace, LinkTrace)> {
        let mut searcher = VisibilitySearcher::new(&self.constellation);
        self.trace_variants_with(variants, &mut searcher)
    }

    /// The trace loop behind every entry point, selecting satellites with
    /// `searcher`.
    fn trace_variants_with(
        &self,
        variants: &[(&[EnvironmentSample], &[AreaType])],
        searcher: &mut VisibilitySearcher,
    ) -> Vec<(LinkTrace, LinkTrace)> {
        debug_assert_eq!(
            searcher.table().total_sats() as u64,
            self.constellation.total_sats() as u64,
            "searcher table must be built over this model's constellation"
        );
        let Some(&(drive, _)) = variants.first() else {
            return Vec::new();
        };
        for &(samples, areas) in variants {
            assert_eq!(samples.len(), drive.len(), "variants share one drive");
            assert_eq!(samples.len(), areas.len(), "one area per sample");
        }
        let start = drive.first().map(|s| s.t_s).unwrap_or(0);
        let mut geometry = Geometry {
            searcher,
            current_sat: None,
            geo_rtt_ms: bent_pipe_floor_rtt_ms(),
            reacq_left: 0,
        };
        let mut radios: Vec<Radio> = variants
            .iter()
            .map(|_| Radio::new(self.config.seed ^ start, drive.len()))
            .collect();
        // The geometry step runs a block of seconds ahead of the radio
        // steps, so each variant's radio step runs a stretch of seconds
        // in a row with its own state at hand.
        let mut skies = Vec::with_capacity(BLOCK_S.min(drive.len()));
        for (b, block) in drive.chunks(BLOCK_S).enumerate() {
            let at = b * BLOCK_S..b * BLOCK_S + block.len();
            skies.clear();
            skies.extend(block.iter().map(|s| geometry.step(self, s)));
            for (radio, &(samples, areas)) in radios.iter_mut().zip(variants) {
                let seconds = samples[at.clone()].iter().zip(&areas[at.clone()]);
                for (((own, &area), &sky), sample) in seconds.zip(&skies).zip(block) {
                    debug_assert!(
                        own.t_s == sample.t_s
                            && own.speed_kmh.to_bits() == sample.speed_kmh.to_bits()
                            && own.travelled_km.to_bits() == sample.travelled_km.to_bits(),
                        "variants share one drive"
                    );
                    radio.step(self, own, area, sky);
                }
            }
        }
        let label = self.config.plan.label();
        radios
            .into_iter()
            .map(|r| {
                (
                    LinkTrace::new(label, start, r.down),
                    LinkTrace::new(format!("{label}-up"), start, r.up),
                )
            })
            .collect()
    }
}

/// Seconds of geometry computed ahead of the radio steps.
const BLOCK_S: usize = 256;

/// One second's geometry over a usable satellite.
#[derive(Debug, Clone, Copy)]
struct SkyGeometry {
    /// Elevation-driven beam quality in `(0, 1]`.
    beam_q: f64,
    /// Bent-pipe RTT through the slot's gateway, ms.
    geo_rtt_ms: f64,
    /// The dish is still re-acquiring after a satellite change.
    reacquiring: bool,
}

/// The geometry step's state: the serving satellite and its slot's
/// gateway RTT, and the re-acquisition countdown.
struct Geometry<'s> {
    searcher: &'s mut VisibilitySearcher,
    current_sat: Option<Satellite>,
    geo_rtt_ms: f64,
    reacq_left: u32,
}

impl Geometry<'_> {
    /// One second of satellite geometry; `None` when no usable satellite
    /// is in the plan's field of view.
    fn step(&mut self, m: &StarlinkLinkModel, sample: &EnvironmentSample) -> Option<SkyGeometry> {
        let t_s = sample.t_s as f64;
        // Satellite (re)selection at each reconfiguration slot.
        if sample.t_s.is_multiple_of(m.config.reconfig_interval_s) || self.current_sat.is_none() {
            let mask = m.config.plan.min_elevation_deg();
            let view = self.searcher.best(&sample.position, t_s, mask);
            let new_sat = view.map(|v| v.sat);
            if new_sat != self.current_sat && self.current_sat.is_some() {
                self.reacq_left = m.config.plan.reacquisition_s();
            }
            self.current_sat = new_sat;
            if let Some(v) = view {
                let sat_pos = self.searcher.table().position_ecef(v.sat, t_s);
                self.geo_rtt_ms = m
                    .gateways
                    .bent_pipe_one_way_ms_at(&sat_pos, &sample.position)
                    .map(|one_way| 2.0 * one_way)
                    .unwrap_or_else(bent_pipe_floor_rtt_ms);
            }
        }
        let sat = self.current_sat?;
        // Elevation-driven beam quality (recomputed cheaply from the last
        // slot's satellite once per slot would drift; a per-second smooth
        // factor suffices at this fidelity).
        let sat_pos = self.searcher.table().position_ecef(sat, t_s);
        let reacquiring = self.reacq_left > 0;
        self.reacq_left = self.reacq_left.saturating_sub(1);
        Some(SkyGeometry {
            beam_q: beam_quality_at(&sat_pos, sample),
            geo_rtt_ms: self.geo_rtt_ms,
            reacquiring,
        })
    }
}

/// One variant's radio step: its RNG, obstruction chain and the traces
/// it builds.
struct Radio {
    rng: SmallRng,
    sky: ObstructionProcess,
    down: Vec<LinkCondition>,
    up: Vec<LinkCondition>,
}

impl Radio {
    fn new(seed: u64, len: usize) -> Self {
        Self {
            rng: SmallRng::seed_from_u64(seed),
            sky: ObstructionProcess::new(),
            down: Vec::with_capacity(len),
            up: Vec::with_capacity(len),
        }
    }

    /// Appends one second's conditions over the serving satellite.
    fn step(
        &mut self,
        m: &StarlinkLinkModel,
        sample: &EnvironmentSample,
        area: AreaType,
        geometry: Option<SkyGeometry>,
    ) {
        let Some(SkyGeometry {
            beam_q,
            geo_rtt_ms,
            reacquiring,
        }) = geometry
        else {
            // No usable satellite in the plan's field of view.
            self.down.push(LinkCondition::OUTAGE);
            self.up.push(LinkCondition::OUTAGE);
            return;
        };
        let config = &m.config;
        let rng = &mut self.rng;

        // Slow sky-quality field per 1-km road segment.
        let segment = sample.travelled_km.floor() as u64;
        let quality = segment_sky_quality(config.seed, area, segment);

        // Fast obstruction chain.
        let state = self.sky.step(area, rng);

        // Multiplicative fading.
        let fade = (1.0 + rng.gen_range(-0.14..0.14)) * (1.0 + rng.gen_range(-0.05..0.05));

        // Plan factors.
        let speed_pen =
            1.0 - config.plan.speed_penalty_per_100kmh() * (sample.speed_kmh / 100.0).min(1.2);
        let reacq_factor = if reacquiring { 0.25 } else { 1.0 };

        let capacity_down = (config.peak_capacity_mbps
            * config.plan.priority_factor()
            * beam_q
            * quality
            * state.capacity_factor()
            * fade
            * speed_pen
            * reacq_factor
            * sample.weather.satellite_capacity_factor())
        .clamp(0.0, 400.0);

        let capacity_up =
            (capacity_down * config.uplink_ratio * (1.0 + rng.gen_range(-0.15..0.15)))
                .clamp(0.0, 40.0);

        // RTT: geometry + backhaul + scheduler jitter, inflated when the
        // sky is obstructed (retransmissions at the PHY layer).
        let jitter: f64 = rng.gen_range(4.0..26.0);
        let obstruct_extra = match state {
            SkyState::Clear => 0.0,
            SkyState::Partial => rng.gen_range(4.0..18.0),
            SkyState::Blocked => rng.gen_range(20.0..80.0),
        };
        let rtt = geo_rtt_ms + config.backhaul_rtt_ms + jitter + obstruct_extra;

        // Loss: baseline + obstruction + handover spike.
        let handover_loss = if reacquiring { 0.035 } else { 0.0 };
        let loss_down = (config.base_loss + state.extra_loss() + handover_loss).clamp(0.0, 1.0);
        let loss_up = (loss_down * 1.25).clamp(0.0, 1.0);

        self.down
            .push(LinkCondition::new(capacity_down, rtt, loss_down));
        self.up.push(LinkCondition::new(capacity_up, rtt, loss_up));
    }
}

/// Beam quality from the serving satellite's elevation, in `(0, 1]`.
fn beam_quality_at(sat_pos: &Ecef, sample: &EnvironmentSample) -> f64 {
    let gp = sample.position.to_ecef(0.0);
    let elev = gp.elevation_deg_to(sat_pos).max(5.0);
    elev.to_radians().sin().powf(0.35)
}

/// Deterministic per-segment sky quality in `[0, 1]`.
///
/// Urban segments are mostly poor (canyons); suburban and rural segments
/// are mostly clear with occasional shadowed corridors. Hash-based so that
/// repeated queries for the same segment agree and the whole campaign is
/// reproducible.
fn segment_sky_quality(seed: u64, area: AreaType, segment: u64) -> f64 {
    let h = splitmix64(seed ^ (segment.wrapping_mul(GOLDEN_GAMMA)) ^ area_salt(area));
    let u = (h >> 11) as f64 / (1u64 << 53) as f64; // uniform [0,1)
    let v = (splitmix64(h) >> 11) as f64 / (1u64 << 53) as f64;
    match area {
        AreaType::Urban => 0.06 + 0.34 * u * u,
        AreaType::Suburban => {
            if u < 0.74 {
                0.88 + 0.12 * v
            } else {
                0.18 + 0.30 * v
            }
        }
        AreaType::Rural => {
            if u < 0.80 {
                0.90 + 0.10 * v
            } else {
                0.22 + 0.32 * v
            }
        }
    }
}

fn area_salt(area: AreaType) -> u64 {
    match area {
        AreaType::Urban => 0x1111_2222_3333_4444,
        AreaType::Suburban => 0x5555_6666_7777_8888,
        AreaType::Rural => 0x9999_aaaa_bbbb_cccc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::visibility::best_satellite;
    use leo_geo::drive::{DayPhase, Weather};
    use leo_geo::point::GeoPoint;
    use proptest::prelude::*;

    /// A synthetic stationary-ish drive through one area type.
    fn drive(area: AreaType, len_s: u64) -> (Vec<EnvironmentSample>, Vec<AreaType>) {
        let samples: Vec<EnvironmentSample> = (0..len_s)
            .map(|t| EnvironmentSample {
                t_s: t,
                position: GeoPoint::new(44.5, -93.0).destination(90.0, t as f64 * 0.02),
                speed_kmh: 72.0,
                heading_deg: 90.0,
                day_phase: DayPhase::Day,
                weather: Weather::Clear,
                travelled_km: t as f64 * 0.02,
            })
            .collect();
        let areas = vec![area; samples.len()];
        (samples, areas)
    }

    fn model(plan: DishPlan) -> StarlinkLinkModel {
        StarlinkLinkModel::new(StarlinkModelConfig::for_plan(plan))
    }

    /// The single-drive trace loop as it stood before the geometry and
    /// radio steps were split, selecting satellites with the naive
    /// full-constellation scan: the oracle every variant of a shared
    /// drive must match bit for bit.
    fn trace_oracle(
        m: &StarlinkLinkModel,
        samples: &[EnvironmentSample],
        areas: &[AreaType],
    ) -> (LinkTrace, LinkTrace) {
        assert_eq!(samples.len(), areas.len(), "one area per sample");
        let label = m.config.plan.label();
        let mut down = Vec::with_capacity(samples.len());
        let mut up = Vec::with_capacity(samples.len());
        let mut rng =
            SmallRng::seed_from_u64(m.config.seed ^ samples.first().map(|s| s.t_s).unwrap_or(0));
        let mut sky = ObstructionProcess::new();
        let mut current_sat = None;
        let mut geo_rtt_ms = bent_pipe_floor_rtt_ms();
        let mut reacq_left = 0u32;

        for (sample, &area) in samples.iter().zip(areas) {
            if sample.t_s % m.config.reconfig_interval_s == 0 || current_sat.is_none() {
                let mask = m.config.plan.min_elevation_deg();
                let view =
                    best_satellite(&m.constellation, &sample.position, sample.t_s as f64, mask);
                let new_sat = view.map(|v| v.sat);
                if new_sat != current_sat && current_sat.is_some() {
                    reacq_left = m.config.plan.reacquisition_s();
                }
                current_sat = new_sat;
                if let Some(v) = view {
                    let sat_pos = m.constellation.position_ecef(v.sat, sample.t_s as f64);
                    geo_rtt_ms = m
                        .gateways
                        .bent_pipe_one_way_ms_at(&sat_pos, &sample.position)
                        .map(|one_way| 2.0 * one_way)
                        .unwrap_or_else(bent_pipe_floor_rtt_ms);
                }
            }
            let Some(sat) = current_sat else {
                down.push(LinkCondition::OUTAGE);
                up.push(LinkCondition::OUTAGE);
                continue;
            };
            let sat_pos = m.constellation.position_ecef(sat, sample.t_s as f64);
            let beam_q = beam_quality_at(&sat_pos, sample);
            let segment = sample.travelled_km.floor() as u64;
            let quality = segment_sky_quality(m.config.seed, area, segment);
            let state = sky.step(area, &mut rng);
            let fade = (1.0 + rng.gen_range(-0.14..0.14)) * (1.0 + rng.gen_range(-0.05..0.05));
            let speed_pen = 1.0
                - m.config.plan.speed_penalty_per_100kmh() * (sample.speed_kmh / 100.0).min(1.2);
            let reacq_factor = if reacq_left > 0 {
                reacq_left -= 1;
                0.25
            } else {
                1.0
            };
            let capacity_down = (m.config.peak_capacity_mbps
                * m.config.plan.priority_factor()
                * beam_q
                * quality
                * state.capacity_factor()
                * fade
                * speed_pen
                * reacq_factor
                * sample.weather.satellite_capacity_factor())
            .clamp(0.0, 400.0);
            let capacity_up =
                (capacity_down * m.config.uplink_ratio * (1.0 + rng.gen_range(-0.15..0.15)))
                    .clamp(0.0, 40.0);
            let jitter: f64 = rng.gen_range(4.0..26.0);
            let obstruct_extra = match state {
                SkyState::Clear => 0.0,
                SkyState::Partial => rng.gen_range(4.0..18.0),
                SkyState::Blocked => rng.gen_range(20.0..80.0),
            };
            let rtt = geo_rtt_ms + m.config.backhaul_rtt_ms + jitter + obstruct_extra;
            let handover_loss = if reacq_factor < 1.0 { 0.035 } else { 0.0 };
            let loss_down =
                (m.config.base_loss + state.extra_loss() + handover_loss).clamp(0.0, 1.0);
            let loss_up = (loss_down * 1.25).clamp(0.0, 1.0);
            down.push(LinkCondition::new(capacity_down, rtt, loss_down));
            up.push(LinkCondition::new(capacity_up, rtt, loss_up));
        }
        let start = samples.first().map(|s| s.t_s).unwrap_or(0);
        (
            LinkTrace::new(label, start, down),
            LinkTrace::new(format!("{label}-up"), start, up),
        )
    }

    #[test]
    fn traces_have_one_sample_per_second() {
        let (s, a) = drive(AreaType::Rural, 120);
        let (down, up) = model(DishPlan::Mobility).trace_for_drive(&s, &a);
        assert_eq!(down.duration_s(), 120);
        assert_eq!(up.duration_s(), 120);
    }

    #[test]
    fn rural_mobility_is_fast() {
        let (s, a) = drive(AreaType::Rural, 600);
        let (down, _) = model(DishPlan::Mobility).trace_for_drive(&s, &a);
        let stats = down.stats().unwrap();
        assert!(
            stats.mean_mbps > 120.0,
            "rural MOB mean {} too low",
            stats.mean_mbps
        );
    }

    #[test]
    fn urban_is_much_slower_than_rural() {
        let m = model(DishPlan::Mobility);
        let (su, au) = drive(AreaType::Urban, 600);
        let (sr, ar) = drive(AreaType::Rural, 600);
        let urban = m.trace_for_drive(&su, &au).0.stats().unwrap().mean_mbps;
        let rural = m.trace_for_drive(&sr, &ar).0.stats().unwrap().mean_mbps;
        assert!(
            urban < rural * 0.5,
            "urban {urban} not ≪ rural {rural} (obstruction)"
        );
    }

    #[test]
    fn mobility_outperforms_roam_about_2x() {
        // §4.1: Mobility ≈ 2× Roam in median/mean throughput.
        let (s, a) = drive(AreaType::Rural, 900);
        let mob = model(DishPlan::Mobility)
            .trace_for_drive(&s, &a)
            .0
            .stats()
            .unwrap()
            .mean_mbps;
        let roam = model(DishPlan::Roam)
            .trace_for_drive(&s, &a)
            .0
            .stats()
            .unwrap()
            .mean_mbps;
        let ratio = mob / roam;
        assert!(
            (1.5..3.2).contains(&ratio),
            "MOB/RM ratio {ratio} (mob {mob}, roam {roam})"
        );
    }

    #[test]
    fn downlink_about_10x_uplink() {
        // §4.1: "the downlink throughput is around 10× higher than the
        // uplink" by FDD design.
        let (s, a) = drive(AreaType::Rural, 600);
        let (down, up) = model(DishPlan::Mobility).trace_for_drive(&s, &a);
        let ratio = down.stats().unwrap().mean_mbps / up.stats().unwrap().mean_mbps;
        assert!((7.0..13.0).contains(&ratio), "down/up ratio {ratio}");
    }

    #[test]
    fn rtt_mostly_between_50_and_100ms() {
        let (s, a) = drive(AreaType::Rural, 600);
        let (down, _) = model(DishPlan::Mobility).trace_for_drive(&s, &a);
        let rtts: Vec<f64> = down.samples().iter().map(|c| c.rtt_ms).collect();
        let in_band = rtts.iter().filter(|r| (40.0..=110.0).contains(*r)).count();
        assert!(
            in_band as f64 / rtts.len() as f64 > 0.85,
            "only {}/{} RTTs in band; mean {}",
            in_band,
            rtts.len(),
            rtts.iter().sum::<f64>() / rtts.len() as f64
        );
    }

    #[test]
    fn loss_in_paper_band() {
        // §4.1: Starlink TCP retransmissions 0.3–1.3 %; the underlying
        // channel loss driving them should average in the same order.
        let (s, a) = drive(AreaType::Rural, 900);
        let (down, up) = model(DishPlan::Mobility).trace_for_drive(&s, &a);
        let mean_loss = down.stats().unwrap().mean_loss;
        assert!(
            (0.002..0.05).contains(&mean_loss),
            "mean downlink loss {mean_loss}"
        );
        assert!(up.stats().unwrap().mean_loss >= mean_loss);
    }

    #[test]
    fn fast_path_and_naive_scan_produce_identical_traces() {
        // The orbit fast path is an optimisation, not a model change: the
        // full trace pipeline must be bit-identical under either scan.
        for area in AreaType::ALL {
            let (s, a) = drive(area, 300);
            for plan in [DishPlan::Mobility, DishPlan::Roam] {
                let m = model(plan);
                let (fast_d, fast_u) = m.trace_for_drive(&s, &a);
                let (naive_d, naive_u) = trace_oracle(&m, &s, &a);
                assert_eq!(fast_d, naive_d, "{area} {plan:?} downlink");
                assert_eq!(fast_u, naive_u, "{area} {plan:?} uplink");
            }
        }
    }

    /// A straight drive of `len` seconds from `from` on `bearing` at
    /// `step_km` per second, starting at campaign second `t0`.
    fn drive_from(
        from: GeoPoint,
        bearing: f64,
        step_km: f64,
        t0: u64,
        len: u64,
    ) -> Vec<EnvironmentSample> {
        (0..len)
            .map(|t| EnvironmentSample {
                t_s: t0 + t,
                position: from.destination(bearing, t as f64 * step_km),
                speed_kmh: step_km * 3600.0,
                heading_deg: bearing,
                day_phase: DayPhase::Day,
                weather: Weather::Clear,
                travelled_km: t as f64 * step_km,
            })
            .collect()
    }

    /// One drive as three variants: as given over rural areas, then
    /// twice with weather and area changing in 40-s blocks hashed from
    /// `salt`.
    fn variants(
        samples: &[EnvironmentSample],
        salt: u64,
    ) -> Vec<(Vec<EnvironmentSample>, Vec<AreaType>)> {
        let weathers = [Weather::Clear, Weather::Rain, Weather::Snow];
        let mut out = vec![(samples.to_vec(), vec![AreaType::Rural; samples.len()])];
        for v in 1..3u64 {
            let pick =
                |t: u64| (splitmix64(salt ^ v ^ (t / 40).wrapping_mul(GOLDEN_GAMMA)) % 3) as usize;
            let weathered = samples
                .iter()
                .map(|s| EnvironmentSample {
                    weather: weathers[pick(s.t_s)],
                    ..*s
                })
                .collect();
            let areas = samples
                .iter()
                .map(|s| AreaType::ALL[pick(s.t_s + 20)])
                .collect();
            out.push((weathered, areas));
        }
        out
    }

    /// Asserts the shared-drive traces of every variant equal the
    /// oracle's for that variant alone.
    fn assert_variants_match_oracle(
        m: &StarlinkLinkModel,
        variants: &[(Vec<EnvironmentSample>, Vec<AreaType>)],
    ) {
        let views: Vec<(&[EnvironmentSample], &[AreaType])> =
            variants.iter().map(|(s, a)| (&s[..], &a[..])).collect();
        let got = m.trace_for_drive_variants(&views);
        assert_eq!(got.len(), variants.len());
        for (v, ((samples, areas), got)) in variants.iter().zip(&got).enumerate() {
            let want = trace_oracle(m, samples, areas);
            assert_eq!(got.0, want.0, "variant {v} downlink");
            assert_eq!(got.1, want.1, "variant {v} uplink");
        }
    }

    #[test]
    fn shared_drive_matches_oracle_across_a_block_boundary() {
        let s = drive_from(GeoPoint::new(44.5, -93.0), 80.0, 0.03, 7, 400);
        for plan in [DishPlan::Mobility, DishPlan::Roam] {
            assert_variants_match_oracle(&model(plan), &variants(&s, 0x5eed));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Random straight drives near the corridor, with NaN
        /// coordinates every `nan_every` seconds: every variant of the
        /// shared drive equals the oracle, for both dish plans.
        #[test]
        fn shared_drive_matches_oracle_for_every_variant(
            roam in 0u8..2,
            lat in 41.0..46.0f64,
            lon in -96.0..-86.0f64,
            bearing in 0.0..360.0f64,
            step_km in 0.0..0.04f64,
            t0 in 0u64..100_000,
            len in 0u64..400,
            nan_every in 0usize..60,
            n_variants in 1usize..4,
            salt in 0u64..u64::MAX,
        ) {
            let mut s = drive_from(GeoPoint::new(lat, lon), bearing, step_km, t0, len);
            if let Some(every) = std::num::NonZeroUsize::new(nan_every) {
                for (k, sample) in s.iter_mut().step_by(every.get()).enumerate() {
                    match k % 4 {
                        0 => sample.position.lat_deg = f64::NAN,
                        1 => sample.position.lon_deg = f64::NAN,
                        2 => {
                            sample.position = GeoPoint {
                                lat_deg: f64::NAN,
                                lon_deg: f64::NAN,
                            }
                        }
                        _ => {}
                    }
                }
            }
            let plan = if roam == 1 { DishPlan::Roam } else { DishPlan::Mobility };
            let mut vs = variants(&s, salt);
            vs.truncate(n_variants);
            assert_variants_match_oracle(&model(plan), &vs);
        }
    }

    #[test]
    fn pooled_searcher_traces_are_bit_identical() {
        // trace_for_drive_with_searcher is the fleet path: one shared
        // table, a reused searcher across many users. Every combination —
        // fresh internal searcher, pooled searcher, pooled-and-reused
        // searcher across back-to-back calls — must produce the same bits.
        let m = model(DishPlan::Mobility);
        let mut pooled = VisibilitySearcher::new(&Constellation::starlink());
        for area in AreaType::ALL {
            let (s, a) = drive(area, 200);
            let (want_d, want_u) = m.trace_for_drive(&s, &a);
            pooled.reseat();
            let (got_d, got_u) = m.trace_for_drive_with_searcher(&s, &a, &mut pooled);
            assert_eq!(want_d, got_d, "{area} downlink");
            assert_eq!(want_u, got_u, "{area} uplink");
            // Again without reseat: stale windows from the previous call
            // must still yield exact results (they are only reused when
            // coherent, and coherent windows are conservative).
            let (again_d, _) = m.trace_for_drive_with_searcher(&s, &a, &mut pooled);
            assert_eq!(want_d, again_d, "{area} downlink, reused searcher");
        }
    }

    #[test]
    fn geo_rtt_floor_is_pinned() {
        // The initial geometric RTT (before the first satellite lock) and
        // the no-gateway fallback are one and the same floor: 4 × Eq. 1.
        let floor = bent_pipe_floor_rtt_ms();
        assert!((floor - 7.338).abs() < 0.01, "got {floor}");
        // A model with no gateways must fall back to exactly that floor:
        // trace RTT = floor + backhaul + jitter(4..26) + obstruction extra.
        let cfg = StarlinkModelConfig::for_plan(DishPlan::Mobility);
        let backhaul = cfg.backhaul_rtt_ms;
        let m = StarlinkLinkModel::with_infrastructure(
            cfg,
            Constellation::starlink(),
            crate::ground::GroundStationDb::from_stations(vec![]),
        );
        let (s, a) = drive(AreaType::Rural, 60);
        let (down, _) = m.trace_for_drive(&s, &a);
        for c in down.samples().iter().filter(|c| c.capacity_mbps > 0.0) {
            assert!(
                c.rtt_ms >= floor + backhaul + 4.0 - 1e-9,
                "rtt {} below floor",
                c.rtt_ms
            );
        }
    }

    #[test]
    fn traces_are_deterministic() {
        let (s, a) = drive(AreaType::Suburban, 300);
        let m = model(DishPlan::Roam);
        let (d1, u1) = m.trace_for_drive(&s, &a);
        let (d2, u2) = m.trace_for_drive(&s, &a);
        assert_eq!(d1, d2);
        assert_eq!(u1, u2);
    }

    #[test]
    fn different_seeds_differ() {
        let (s, a) = drive(AreaType::Suburban, 300);
        let mut cfg = StarlinkModelConfig::for_plan(DishPlan::Mobility);
        let d1 = StarlinkLinkModel::new(cfg.clone())
            .trace_for_drive(&s, &a)
            .0;
        cfg.seed ^= 0xdead_beef;
        let d2 = StarlinkLinkModel::new(cfg).trace_for_drive(&s, &a).0;
        assert_ne!(d1, d2);
    }

    #[test]
    fn segment_quality_is_deterministic_and_bounded() {
        for area in AreaType::ALL {
            for seg in 0..500 {
                let q = segment_sky_quality(42, area, seg);
                assert!((0.0..=1.0).contains(&q), "{area} seg {seg}: {q}");
                assert_eq!(q, segment_sky_quality(42, area, seg));
            }
        }
    }

    #[test]
    fn urban_segments_are_poor_on_average() {
        let mean = |area: AreaType| {
            (0..2000)
                .map(|s| segment_sky_quality(7, area, s))
                .sum::<f64>()
                / 2000.0
        };
        assert!(mean(AreaType::Urban) < 0.35);
        assert!(mean(AreaType::Suburban) > 0.65);
        assert!(mean(AreaType::Rural) > 0.70);
    }
}
