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
use crate::obstruction::ObstructionProcess;
use crate::visibility::best_satellite;
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
        let mut searcher = VisibilitySearcher::new(&self.constellation);
        self.trace_with(samples, areas, Some(&mut searcher))
    }

    /// [`trace_for_drive`](Self::trace_for_drive) on the naive
    /// full-constellation visibility scan: the fast path's oracle.
    #[cfg(test)]
    fn trace_for_drive_naive(
        &self,
        samples: &[EnvironmentSample],
        areas: &[AreaType],
    ) -> (LinkTrace, LinkTrace) {
        self.trace_with(samples, areas, None)
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
        debug_assert_eq!(
            searcher.table().total_sats() as u64,
            self.constellation.total_sats() as u64,
            "searcher table must be built over this model's constellation"
        );
        self.trace_with(samples, areas, Some(searcher))
    }

    /// The trace loop, selecting satellites with `searcher`, or with the
    /// naive scan when it is `None` (the test oracle).
    fn trace_with(
        &self,
        samples: &[EnvironmentSample],
        areas: &[AreaType],
        mut searcher: Option<&mut VisibilitySearcher>,
    ) -> (LinkTrace, LinkTrace) {
        assert_eq!(samples.len(), areas.len(), "one area per sample");
        let label = self.config.plan.label();
        let mut down = Vec::with_capacity(samples.len());
        let mut up = Vec::with_capacity(samples.len());
        let mut rng =
            SmallRng::seed_from_u64(self.config.seed ^ samples.first().map(|s| s.t_s).unwrap_or(0));
        let mut sky = ObstructionProcess::new();
        let mut current_sat = None;
        let mut geo_rtt_ms = bent_pipe_floor_rtt_ms();
        let mut reacq_left = 0u32;

        for (sample, &area) in samples.iter().zip(areas) {
            // 1. Satellite (re)selection at each reconfiguration slot.
            if sample.t_s % self.config.reconfig_interval_s == 0 || current_sat.is_none() {
                let mask = self.config.plan.min_elevation_deg();
                let view = match searcher.as_deref_mut() {
                    Some(s) => s.best(&sample.position, sample.t_s as f64, mask),
                    None => best_satellite(
                        &self.constellation,
                        &sample.position,
                        sample.t_s as f64,
                        mask,
                    ),
                };
                let new_sat = view.map(|v| v.sat);
                if new_sat != current_sat && current_sat.is_some() {
                    reacq_left = self.config.plan.reacquisition_s();
                }
                current_sat = new_sat;
                if let Some(v) = view {
                    let sat_pos = self.position_of(searcher.as_deref(), v.sat, sample.t_s as f64);
                    geo_rtt_ms = self
                        .gateways
                        .bent_pipe_one_way_ms_at(&sat_pos, &sample.position)
                        .map(|one_way| 2.0 * one_way)
                        .unwrap_or_else(bent_pipe_floor_rtt_ms);
                }
            }

            let Some(sat) = current_sat else {
                // No usable satellite in the plan's field of view.
                down.push(LinkCondition::OUTAGE);
                up.push(LinkCondition::OUTAGE);
                continue;
            };

            // 2. Elevation-driven beam quality (recomputed cheaply from the
            // last slot's satellite once per slot would drift; a per-second
            // smooth factor suffices at this fidelity).
            let sat_pos = self.position_of(searcher.as_deref(), sat, sample.t_s as f64);
            let beam_q = beam_quality_at(&sat_pos, sample);

            // 3. Slow sky-quality field per 1-km road segment.
            let segment = sample.travelled_km.floor() as u64;
            let quality = segment_sky_quality(self.config.seed, area, segment);

            // 4. Fast obstruction chain.
            let state = sky.step(area, &mut rng);

            // 5. Multiplicative fading.
            let fade = (1.0 + rng.gen_range(-0.14..0.14)) * (1.0 + rng.gen_range(-0.05..0.05));

            // 6. Plan factors.
            let speed_pen = 1.0
                - self.config.plan.speed_penalty_per_100kmh() * (sample.speed_kmh / 100.0).min(1.2);
            let reacq_factor = if reacq_left > 0 {
                reacq_left -= 1;
                0.25
            } else {
                1.0
            };

            let capacity_down = (self.config.peak_capacity_mbps
                * self.config.plan.priority_factor()
                * beam_q
                * quality
                * state.capacity_factor()
                * fade
                * speed_pen
                * reacq_factor
                * sample.weather.satellite_capacity_factor())
            .clamp(0.0, 400.0);

            let capacity_up =
                (capacity_down * self.config.uplink_ratio * (1.0 + rng.gen_range(-0.15..0.15)))
                    .clamp(0.0, 40.0);

            // 7. RTT: geometry + backhaul + scheduler jitter, inflated when
            // the sky is obstructed (retransmissions at the PHY layer).
            let jitter: f64 = rng.gen_range(4.0..26.0);
            let obstruct_extra = match state {
                crate::obstruction::SkyState::Clear => 0.0,
                crate::obstruction::SkyState::Partial => rng.gen_range(4.0..18.0),
                crate::obstruction::SkyState::Blocked => rng.gen_range(20.0..80.0),
            };
            let rtt = geo_rtt_ms + self.config.backhaul_rtt_ms + jitter + obstruct_extra;

            // 8. Loss: baseline + obstruction + handover spike.
            let handover_loss = if reacq_factor < 1.0 { 0.035 } else { 0.0 };
            let loss_down =
                (self.config.base_loss + state.extra_loss() + handover_loss).clamp(0.0, 1.0);
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

    /// Satellite position via the searcher's propagation table when the
    /// fast path is active, or direct propagation on the naive path. The
    /// two are bit-identical.
    fn position_of(&self, searcher: Option<&VisibilitySearcher>, sat: Satellite, t_s: f64) -> Ecef {
        match searcher {
            Some(s) => s.table().position_ecef(sat, t_s),
            None => self.constellation.position_ecef(sat, t_s),
        }
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
    use leo_geo::drive::{DayPhase, Weather};
    use leo_geo::point::GeoPoint;

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
                let (naive_d, naive_u) = m.trace_for_drive_naive(&s, &a);
                assert_eq!(fast_d, naive_d, "{area} {plan:?} downlink");
                assert_eq!(fast_u, naive_u, "{area} {plan:?} uplink");
            }
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
