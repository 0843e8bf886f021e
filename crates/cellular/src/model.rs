//! The per-carrier cellular link model.
//!
//! Mirrors the interface of `leo_orbit::StarlinkLinkModel`: a drive's
//! environment samples go in, aligned per-second downlink/uplink
//! [`LinkTrace`]s come out. Internally each second performs serving-cell
//! selection with hysteresis over the carrier's [`Deployment`], evaluates
//! the radio link (path loss, shadowing, SINR, truncated-Shannon rate,
//! cell load), and adds the carrier's core-network latency.

use crate::carrier::Carrier;
use crate::deployment::{BaseStation, Deployment, NearestScratch};
use crate::radio::{mix, rate_mbps, shadowing_db, RadioParams};
use leo_geo::area::AreaType;
use leo_geo::drive::EnvironmentSample;
use leo_link::condition::LinkCondition;
use leo_link::trace::LinkTrace;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Configuration of a cellular link model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellularModelConfig {
    pub carrier: Carrier,
    /// RNG seed; traces are a pure function of (drive, config, deployment).
    pub seed: u64,
    /// Uplink/downlink capacity ratio.
    pub uplink_ratio: f64,
    /// Baseline random loss on a healthy link (cellular links hide loss
    /// behind HARQ/RLC retransmission, so this is small — §4.1/Fig. 5).
    pub base_loss: f64,
    /// Handover hysteresis, dB.
    pub hysteresis_db: f64,
}

impl CellularModelConfig {
    /// Default configuration for a carrier.
    pub fn for_carrier(carrier: Carrier) -> Self {
        Self {
            carrier,
            seed: 0xce11_0000,
            uplink_ratio: 0.22,
            base_loss: 0.0001,
            hysteresis_db: 3.0,
        }
    }
}

/// The cellular link model: a deployment plus radio parameters.
///
/// The deployment is held behind an [`Arc`]: a fleet of per-user models
/// (each with its own seed) shares one generated site grid per carrier
/// instead of cloning hundreds of base stations per user.
#[derive(Debug, Clone)]
pub struct CellularLinkModel {
    deployment: Arc<Deployment>,
    radio: RadioParams,
    config: CellularModelConfig,
}

impl CellularLinkModel {
    /// Creates a model over an existing deployment (takes ownership; use
    /// [`with_shared_deployment`](Self::with_shared_deployment) to share
    /// one deployment across many models).
    pub fn new(config: CellularModelConfig, deployment: Deployment) -> Self {
        Self::with_shared_deployment(config, Arc::new(deployment))
    }

    /// Creates a model over a shared deployment — the fleet entry point:
    /// one `Arc<Deployment>` per carrier, N cheap per-user models over it.
    pub fn with_shared_deployment(
        config: CellularModelConfig,
        deployment: Arc<Deployment>,
    ) -> Self {
        assert_eq!(
            deployment.carrier, config.carrier,
            "deployment and config must agree on the carrier"
        );
        Self {
            deployment,
            radio: RadioParams::default(),
            config,
        }
    }

    /// The model configuration.
    pub fn config(&self) -> &CellularModelConfig {
        &self.config
    }

    /// The underlying deployment.
    pub fn deployment(&self) -> &Deployment {
        &self.deployment
    }

    /// Per-UE airtime share band for an area type: urban cells are loaded
    /// (many users) but dense; rural cells are lightly loaded but far.
    ///
    /// Rural's advantage is deliberately modest: a rural macro covers a
    /// whole town plus the freeway, so the UE is rarely close to a sole
    /// user. The earlier (0.65, 1.00) band made rural cellular *beat*
    /// urban on mean throughput, inverting the paper's Figure 8.
    fn load_band(area: AreaType) -> (f64, f64) {
        match area {
            AreaType::Urban => (0.40, 0.75),
            AreaType::Suburban => (0.50, 0.85),
            AreaType::Rural => (0.55, 0.90),
        }
    }

    /// Generates aligned downlink and uplink traces for a drive: the
    /// one-variant case of
    /// [`trace_for_drive_variants`](Self::trace_for_drive_variants).
    pub fn trace_for_drive(
        &self,
        samples: &[EnvironmentSample],
        areas: &[AreaType],
    ) -> (LinkTrace, LinkTrace) {
        let mut traces = self.trace_for_drive_variants(&[(samples, areas)]);
        traces.pop().expect("one variant in, one trace pair out")
    }

    /// Traces one drive under several weather and area assignments at
    /// once, returning one aligned (downlink, uplink) pair per variant.
    ///
    /// A variant is a drive's samples under its own weather plus its area
    /// per sample; every variant must share the first one's times,
    /// positions and distances. Each second runs the geometry step once
    /// (serving-cell selection with hysteresis, distance, rx power,
    /// handover), which reads neither weather nor area and draws no
    /// random numbers, then the radio step once per variant (load band,
    /// weather, fading, latency, loss) on that variant's own RNG. Each
    /// variant's traces are therefore bit-identical to tracing it alone.
    pub fn trace_for_drive_variants(
        &self,
        variants: &[(&[EnvironmentSample], &[AreaType])],
    ) -> Vec<(LinkTrace, LinkTrace)> {
        let Some(&(drive, _)) = variants.first() else {
            return Vec::new();
        };
        for &(samples, areas) in variants {
            assert_eq!(samples.len(), drive.len(), "variants share one drive");
            assert_eq!(samples.len(), areas.len(), "one area per sample");
        }
        let start = drive.first().map(|s| s.t_s).unwrap_or(0);
        let mut geometry = Geometry::new();
        let mut radios: Vec<Radio> = variants
            .iter()
            .map(|_| Radio::new(&self.config, start, drive.len()))
            .collect();
        // The geometry step runs a block of seconds ahead of the radio
        // steps, so each variant's radio step runs a stretch of seconds
        // in a row with its own state at hand.
        let mut servings = Vec::with_capacity(BLOCK_S.min(drive.len()));
        for (b, block) in drive.chunks(BLOCK_S).enumerate() {
            let at = b * BLOCK_S..b * BLOCK_S + block.len();
            servings.clear();
            servings.extend(block.iter().map(|s| geometry.step(self, s)));
            for (radio, &(samples, areas)) in radios.iter_mut().zip(variants) {
                let seconds = samples[at.clone()].iter().zip(&areas[at.clone()]);
                for (((own, &area), &serving), sample) in seconds.zip(&servings).zip(block) {
                    debug_assert!(same_place(own, sample), "variants share one drive");
                    radio.step(self, own, area, serving);
                }
            }
        }
        leo_obs::incr("cellular.geometry.seconds", drive.len() as u64);
        leo_obs::incr("cellular.geometry.reuses", geometry.reuses);
        leo_obs::incr("cellular.shadow.draws", geometry.shadow_draws);
        leo_obs::incr("cellular.shadow.reuses", geometry.shadow_reuses);
        let label = self.config.carrier.label();
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

/// Whether two samples are the same second of one drive (weather aside).
fn same_place(a: &EnvironmentSample, b: &EnvironmentSample) -> bool {
    a.t_s == b.t_s
        && a.position.lat_deg.to_bits() == b.position.lat_deg.to_bits()
        && a.position.lon_deg.to_bits() == b.position.lon_deg.to_bits()
        && a.travelled_km.to_bits() == b.travelled_km.to_bits()
}

/// A candidate site's radio terms at one sample.
#[derive(Debug, Clone, Copy)]
struct SiteLink {
    site: BaseStation,
    d_km: f64,
    /// The site's shadowing in the sample's km segment.
    shadow_db: f64,
    rx_dbm: f64,
}

/// One second's geometry: the serving site's radio terms, and whether
/// the UE handed over to it this second.
#[derive(Debug, Clone, Copy)]
struct Serving {
    link: SiteLink,
    handover: bool,
}

/// Candidate sites per second: the nearest ones, of which the best in
/// range may take over.
const CANDIDATES: usize = 4;

/// What the geometry step reads of a sample, bit for bit: latitude,
/// longitude and the km segment that keys shadowing.
type PlaceKey = (u64, u64, u64);

/// The geometry step's state: the serving site, the nearest-site
/// search's scratch, and what the last computed step left.
///
/// A step reads three inputs: the sample's position, its km segment and
/// `serving` (the model is fixed for the whole trace, and `t_s` is read
/// only by the radio step). Two reuses follow from that, both exact:
///
/// - **Place.** After a step at place P returns r, `serving` is the site
///   r serves, or `None` when r is `None`. A second step at P builds the
///   same links and the same best candidate, and every case (first
///   attach, handover, hold under hysteresis, current site in range with
///   no best, current site out of range going to outage, outage) then
///   returns r with `handover: false` and leaves `serving` as it was. So
///   a step whose [`PlaceKey`] equals the last computed one returns that
///   result with `handover: false` and touches nothing else. Bit
///   equality covers NaN positions too, as the computation is
///   deterministic; `-0.0` against `0.0` merely misses.
/// - **Shadowing.** [`shadowing_db`] is a pure function of (seed, site,
///   segment). While the segment holds, a site among the last computed
///   step's links takes its shadow from there instead of drawing it
///   again; that includes the serving site's link when it is not among
///   the nearest candidates.
struct Geometry {
    serving: Option<BaseStation>,
    nearest: NearestScratch,
    /// The last computed step's links; during a step, this step's links
    /// follow them.
    links: Vec<SiteLink>,
    /// The last computed step's place and result.
    last: Option<(PlaceKey, Option<Serving>)>,
    /// Steps answered from `last`.
    reuses: u64,
    /// Shadows drawn, and shadows taken from the last step's links.
    shadow_draws: u64,
    shadow_reuses: u64,
}

impl Geometry {
    fn new() -> Self {
        Self {
            serving: None,
            nearest: NearestScratch::default(),
            // Two steps' links: each step's candidates and the serving
            // site's own link when it is not among them.
            links: Vec::with_capacity(2 * (CANDIDATES + 1)),
            last: None,
            reuses: 0,
            shadow_draws: 0,
            shadow_reuses: 0,
        }
    }

    /// The serving link for one second; `None` is an outage.
    fn step(&mut self, m: &CellularLinkModel, sample: &EnvironmentSample) -> Option<Serving> {
        let segment = sample.travelled_km.floor() as u64;
        let key = (
            sample.position.lat_deg.to_bits(),
            sample.position.lon_deg.to_bits(),
            segment,
        );
        match self.last {
            Some((last, r)) if last == key => {
                self.reuses += 1;
                return r.map(|s| Serving {
                    handover: false,
                    ..s
                });
            }
            // The last step's links carry this segment's shadows.
            Some(((.., last_segment), _)) if last_segment == segment => {}
            _ => self.links.clear(),
        }
        let r = self.select(m, sample, segment);
        self.last = Some((key, r));
        r
    }

    /// Serving-cell selection with hysteresis; `None` is an outage. Each
    /// kept candidate's distance and rx power serve both the handover
    /// check and the serving link's evaluation.
    fn select(
        &mut self,
        m: &CellularLinkModel,
        sample: &EnvironmentSample,
        segment: u64,
    ) -> Option<Serving> {
        let Self {
            serving,
            nearest,
            links,
            shadow_draws,
            shadow_reuses,
            ..
        } = self;
        // `links[..prev]`: the last step's links, which `step` keeps only
        // while the segment holds. This step's links follow them.
        let prev = links.len();
        let mut link_to = |links: &[SiteLink], site: BaseStation, d_km: f64| {
            let shadow_db = match links[..prev].iter().find(|l| l.site.id == site.id) {
                Some(l) => {
                    *shadow_reuses += 1;
                    l.shadow_db
                }
                None => {
                    *shadow_draws += 1;
                    shadowing_db(&m.radio, m.config.seed, site.id, segment)
                }
            };
            SiteLink {
                site,
                d_km,
                shadow_db,
                rx_dbm: m.radio.rx_power_dbm(d_km, shadow_db),
            }
        };

        for &(site, d_km) in m
            .deployment
            .nearest_with(&sample.position, CANDIDATES, nearest)
        {
            let link = link_to(links, site, d_km);
            links.push(link);
        }
        let best = links[prev..]
            .iter()
            .filter(|l| l.d_km <= l.site.rat.range_km())
            // total_cmp, not partial_cmp().expect(): a NaN rx power
            // orders deterministically instead of aborting the trace.
            .max_by(|a, b| a.rx_dbm.total_cmp(&b.rx_dbm))
            .copied();
        let current = serving.map(|cur| {
            match links[prev..].iter().find(|l| l.site.id == cur.id) {
                Some(&c) => c,
                None => {
                    let c = link_to(links, cur, cur.location.distance_km(&sample.position));
                    // Kept, so that the next step finds its shadow.
                    links.push(c);
                    c
                }
            }
        });
        links.drain(..prev);
        let keep = |link| {
            Some(Serving {
                link,
                handover: false,
            })
        };

        match (current, best) {
            (None, Some(b)) => {
                *serving = Some(b.site);
                keep(b)
            }
            (Some(c), Some(b)) => {
                let cur_in_range = c.d_km <= c.site.rat.range_km();
                if !cur_in_range
                    || (b.site.id != c.site.id && b.rx_dbm > c.rx_dbm + m.config.hysteresis_db)
                {
                    *serving = Some(b.site);
                    Some(Serving {
                        link: b,
                        handover: true,
                    })
                } else {
                    keep(c)
                }
            }
            (Some(c), None) => {
                if c.d_km <= c.site.rat.range_km() {
                    keep(c)
                } else {
                    *serving = None;
                    None
                }
            }
            (None, None) => None,
        }
    }
}

/// One variant's radio step: its RNG and the traces it builds.
struct Radio {
    rng: SmallRng,
    down: Vec<LinkCondition>,
    up: Vec<LinkCondition>,
}

impl Radio {
    fn new(config: &CellularModelConfig, start_t_s: u64, len: usize) -> Self {
        Self {
            rng: SmallRng::seed_from_u64(config.seed ^ config.carrier.seed_salt() ^ start_t_s),
            down: Vec::with_capacity(len),
            up: Vec::with_capacity(len),
        }
    }

    /// Appends one second's conditions over the serving link.
    fn step(
        &mut self,
        m: &CellularLinkModel,
        sample: &EnvironmentSample,
        area: AreaType,
        serving: Option<Serving>,
    ) {
        let Some(Serving {
            link: SiteLink {
                site, d_km, rx_dbm, ..
            },
            handover,
        }) = serving
        else {
            self.down.push(LinkCondition::OUTAGE);
            self.up.push(LinkCondition::OUTAGE);
            return;
        };
        let rng = &mut self.rng;

        // Radio link evaluation: `sinr_db(d_km, shadow)`, taken from the
        // rx power the geometry step computed.
        let sinr = rx_dbm - m.radio.noise_floor_dbm;

        // Cell load: slowly varying per (site, 30 s slot).
        let (lo, hi) = CellularLinkModel::load_band(area);
        let slot = sample.t_s / 30;
        let lh = load_hash(m.config.seed, site.id, slot);
        let load_share = lo + (hi - lo) * lh;

        // Rate with fast fading, handover dips, and weather attenuation
        // (§3.3: rain/snow affect both network types; the satellite model
        // applies its own, stronger, factor).
        let fade = 1.0 + rng.gen_range(-0.12..0.12);
        let dip = if handover { 0.5 } else { 1.0 };
        let weather = sample.weather.cellular_capacity_factor();
        let capacity_down =
            (rate_mbps(site.rat, sinr, load_share) * fade * dip * weather).clamp(0.0, 450.0);
        let capacity_up =
            (capacity_down * m.config.uplink_ratio * (1.0 + rng.gen_range(-0.15..0.15)))
                .clamp(0.0, 60.0);

        // RTT: core network + air-interface scheduling + a small distance
        // term; loaded urban cells queue a little more.
        let jitter: f64 = rng.gen_range(3.0..16.0);
        let load_extra = (1.0 - load_share) * 12.0;
        let edge_extra = if sinr < 3.0 {
            rng.gen_range(5.0..25.0)
        } else {
            0.0
        };
        let rtt = m.config.carrier.core_rtt_ms() + jitter + load_extra + edge_extra + d_km * 0.05;

        // Loss: tiny baseline, worse at the cell edge and during handover.
        let edge_loss = if sinr < 0.0 { 0.002 } else { 0.0 };
        let ho_loss = if handover { 0.008 } else { 0.0 };
        let loss_down = (m.config.base_loss + edge_loss + ho_loss).clamp(0.0, 1.0);
        let loss_up = (loss_down * 1.3).clamp(0.0, 1.0);

        self.down
            .push(LinkCondition::new(capacity_down, rtt, loss_down));
        self.up.push(LinkCondition::new(capacity_up, rtt, loss_up));
    }
}

/// Uniform [0,1) hash for cell load, keyed by (seed, site, slot).
fn load_hash(seed: u64, site_id: u32, slot: u64) -> f64 {
    (mix(seed ^ ((site_id as u64) << 40), slot) >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use leo_geo::drive::{DayPhase, Weather};
    use leo_geo::places::PlaceDb;
    use leo_geo::point::GeoPoint;
    use proptest::prelude::*;

    fn corridor() -> Vec<GeoPoint> {
        vec![
            GeoPoint::new(44.95, -93.20),
            GeoPoint::new(43.05, -89.40),
            GeoPoint::new(41.88, -87.63),
        ]
    }

    fn model(carrier: Carrier) -> CellularLinkModel {
        let dep = Deployment::generate(carrier, &PlaceDb::five_state_corridor(), &corridor(), 99);
        CellularLinkModel::new(CellularModelConfig::for_carrier(carrier), dep)
    }

    /// A drive circling inside the given area.
    fn drive_at(center: GeoPoint, len_s: u64) -> Vec<EnvironmentSample> {
        (0..len_s)
            .map(|t| EnvironmentSample {
                t_s: t,
                position: center.destination((t % 360) as f64, 0.5 + (t as f64 * 0.013) % 3.0),
                speed_kmh: 45.0,
                heading_deg: 90.0,
                day_phase: DayPhase::Day,
                weather: Weather::Clear,
                travelled_km: t as f64 * 0.0125,
            })
            .collect()
    }

    /// `trace_for_drive` as first written: the oracle selection, with
    /// distance and shadowing recomputed for every use. Every variant of
    /// a shared drive must match it alone, bit for bit.
    fn trace_for_drive_oracle(
        m: &CellularLinkModel,
        samples: &[EnvironmentSample],
        areas: &[AreaType],
    ) -> (LinkTrace, LinkTrace) {
        let label = m.config.carrier.label();
        let mut down = Vec::with_capacity(samples.len());
        let mut up = Vec::with_capacity(samples.len());
        let mut rng = SmallRng::seed_from_u64(
            m.config.seed
                ^ m.config.carrier.seed_salt()
                ^ samples.first().map(|s| s.t_s).unwrap_or(0),
        );
        let mut serving: Option<BaseStation> = None;
        let mut handover_dip = 0u32;
        for (sample, &area) in samples.iter().zip(areas) {
            let segment = sample.travelled_km.floor() as u64;
            let candidates = m.deployment.nearest_sites_oracle(&sample.position, 4);
            let rx_of = |s: &BaseStation| {
                let d = s.location.distance_km(&sample.position);
                let sh = shadowing_db(&m.radio, m.config.seed, s.id, segment);
                (m.radio.rx_power_dbm(d, sh), d, sh)
            };
            let best = candidates
                .iter()
                .map(|(s, _)| (*s, rx_of(s)))
                .filter(|(s, (_, d, _))| *d <= s.rat.range_km())
                .max_by(|a, b| a.1 .0.total_cmp(&b.1 .0));
            let serving_now = match (serving, best) {
                (None, Some((s, _))) => {
                    serving = Some(s);
                    Some(s)
                }
                (Some(cur), Some((s, (best_rx, ..)))) => {
                    let (cur_rx, cur_d, _) = rx_of(&cur);
                    let cur_in_range = cur_d <= cur.rat.range_km();
                    if !cur_in_range
                        || (s.id != cur.id && best_rx > cur_rx + m.config.hysteresis_db)
                    {
                        serving = Some(s);
                        handover_dip = 1;
                        Some(s)
                    } else {
                        Some(cur)
                    }
                }
                (Some(cur), None) => {
                    let (_, cur_d, _) = rx_of(&cur);
                    if cur_d <= cur.rat.range_km() {
                        Some(cur)
                    } else {
                        serving = None;
                        None
                    }
                }
                (None, None) => None,
            };
            let Some(site) = serving_now else {
                down.push(LinkCondition::OUTAGE);
                up.push(LinkCondition::OUTAGE);
                continue;
            };
            let d_km = site.location.distance_km(&sample.position);
            let shadow = shadowing_db(&m.radio, m.config.seed, site.id, segment);
            let sinr = crate::radio::sinr_db(&m.radio, d_km, shadow);
            let (lo, hi) = CellularLinkModel::load_band(area);
            let lh = load_hash(m.config.seed, site.id, sample.t_s / 30);
            let load_share = lo + (hi - lo) * lh;
            let fade = 1.0 + rng.gen_range(-0.12..0.12);
            let dip = if handover_dip > 0 {
                handover_dip -= 1;
                0.5
            } else {
                1.0
            };
            let weather = sample.weather.cellular_capacity_factor();
            let capacity_down =
                (rate_mbps(site.rat, sinr, load_share) * fade * dip * weather).clamp(0.0, 450.0);
            let capacity_up =
                (capacity_down * m.config.uplink_ratio * (1.0 + rng.gen_range(-0.15..0.15)))
                    .clamp(0.0, 60.0);
            let jitter: f64 = rng.gen_range(3.0..16.0);
            let load_extra = (1.0 - load_share) * 12.0;
            let edge_extra = if sinr < 3.0 {
                rng.gen_range(5.0..25.0)
            } else {
                0.0
            };
            let rtt =
                m.config.carrier.core_rtt_ms() + jitter + load_extra + edge_extra + d_km * 0.05;
            let edge_loss = if sinr < 0.0 { 0.002 } else { 0.0 };
            let ho_loss = if dip < 1.0 { 0.008 } else { 0.0 };
            let loss_down = (m.config.base_loss + edge_loss + ho_loss).clamp(0.0, 1.0);
            let loss_up = (loss_down * 1.3).clamp(0.0, 1.0);
            down.push(LinkCondition::new(capacity_down, rtt, loss_down));
            up.push(LinkCondition::new(capacity_up, rtt, loss_up));
        }
        let start = samples.first().map(|s| s.t_s).unwrap_or(0);
        (
            LinkTrace::new(label, start, down),
            LinkTrace::new(format!("{label}-up"), start, up),
        )
    }

    /// One drive as three variants: as given over suburban areas, then
    /// twice with weather and area changing in 45-s blocks hashed from
    /// `salt`.
    fn variants(
        samples: &[EnvironmentSample],
        salt: u64,
    ) -> Vec<(Vec<EnvironmentSample>, Vec<AreaType>)> {
        let weathers = [Weather::Clear, Weather::Rain, Weather::Snow];
        let mut out = vec![(samples.to_vec(), vec![AreaType::Suburban; samples.len()])];
        for v in 1..3u64 {
            let pick = |t: u64| (mix(salt ^ v, t / 45) % 3) as usize;
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
    /// oracle's for that variant alone, bit for bit, and returns the
    /// first variant's downlink.
    fn assert_variants_match_oracle(
        m: &CellularLinkModel,
        variants: &[(Vec<EnvironmentSample>, Vec<AreaType>)],
    ) -> LinkTrace {
        let views: Vec<(&[EnvironmentSample], &[AreaType])> =
            variants.iter().map(|(s, a)| (&s[..], &a[..])).collect();
        let mut got = m.trace_for_drive_variants(&views);
        assert_eq!(got.len(), variants.len());
        let bits = |t: &LinkTrace| -> Vec<[u64; 3]> {
            t.samples()
                .iter()
                .map(|c| {
                    [
                        c.capacity_mbps.to_bits(),
                        c.rtt_ms.to_bits(),
                        c.loss.to_bits(),
                    ]
                })
                .collect()
        };
        for (v, ((samples, areas), got)) in variants.iter().zip(&got).enumerate() {
            let want = trace_for_drive_oracle(m, samples, areas);
            for (g, w) in [(&got.0, &want.0), (&got.1, &want.1)] {
                assert_eq!((&g.label, g.start_t_s), (&w.label, w.start_t_s));
                assert_eq!(
                    bits(g),
                    bits(w),
                    "{} variant {v} differs from the oracle",
                    g.label
                );
            }
        }
        got.swap_remove(0).0
    }

    /// [`assert_variants_match_oracle`] over [`variants`] of `samples`.
    fn assert_matches_oracle(m: &CellularLinkModel, samples: &[EnvironmentSample]) -> LinkTrace {
        assert_variants_match_oracle(m, &variants(samples, 0x5eed))
    }

    /// A straight drive from `from` to `to` at `step_km` per second.
    fn drive_between(
        from: GeoPoint,
        to: GeoPoint,
        step_km: f64,
        len_s: u64,
    ) -> Vec<EnvironmentSample> {
        let total = from.distance_km(&to);
        (0..len_s)
            .map(|t| EnvironmentSample {
                t_s: 1_000 + t,
                position: from.interpolate(&to, t as f64 * step_km / total),
                speed_kmh: step_km * 3600.0,
                heading_deg: from.bearing_deg(&to),
                day_phase: DayPhase::Day,
                weather: Weather::Clear,
                travelled_km: t as f64 * step_km,
            })
            .collect()
    }

    /// A stop-and-go drive from `from` along `bearing`. Each leg
    /// `(move_km, dwell_s, kind)` moves on by `move_km`, then holds its
    /// place for `dwell_s` seconds: kinds 0–2 hold a NaN latitude,
    /// longitude or both, kinds 3–4 hold the position while the odometer
    /// runs on at 0.35 km/s (so km segments change at a place that does
    /// not move), and every other kind holds still.
    fn stop_and_go(
        from: GeoPoint,
        bearing: f64,
        legs: &[(f64, u64, u8)],
    ) -> Vec<EnvironmentSample> {
        let (mut along_km, mut odometer_km) = (0.0, 0.0);
        let mut out = Vec::new();
        for &(move_km, dwell_s, kind) in legs {
            along_km += move_km;
            odometer_km += move_km;
            let mut position = from.destination(bearing, along_km);
            match kind {
                0 => position.lat_deg = f64::NAN,
                1 => position.lon_deg = f64::NAN,
                2 => {
                    position = GeoPoint {
                        lat_deg: f64::NAN,
                        lon_deg: f64::NAN,
                    }
                }
                _ => {}
            }
            for _ in 0..dwell_s {
                out.push(EnvironmentSample {
                    t_s: 1_000 + out.len() as u64,
                    position,
                    speed_kmh: 0.0,
                    heading_deg: bearing,
                    day_phase: DayPhase::Day,
                    weather: Weather::Clear,
                    travelled_km: odometer_km,
                });
                if matches!(kind, 3 | 4) {
                    odometer_km += 0.35;
                }
            }
        }
        out
    }

    #[test]
    fn stop_and_go_drive_repeats_every_kind_of_step() {
        // 200 legs of a 0–3 km move and a 1–40-s dwell, south-east
        // across the Lakeport–Brewton corridor on AT&T's sparse grid: a
        // held place follows each kind of step the place reuse must
        // reproduce.
        let legs: Vec<(f64, u64, u8)> = (0..200)
            .map(|k| {
                let h = mix(0x570b, k);
                let move_km = (h >> 11) as f64 / (1u64 << 53) as f64 * 3.0;
                (move_km, 1 + (h >> 3) % 40, (h % 10) as u8)
            })
            .collect();
        let s = stop_and_go(GeoPoint::new(44.5, -91.5), 135.0, &legs);
        let m = model(Carrier::Att);
        assert_matches_oracle(&m, &s);

        let mut geometry = Geometry::new();
        let got: Vec<_> = s.iter().map(|x| geometry.step(&m, x)).collect();
        let key = |x: &EnvironmentSample| {
            (
                x.position.lat_deg.to_bits(),
                x.position.lon_deg.to_bits(),
                x.travelled_km.floor() as u64,
            )
        };
        // Held places after: a handover, service lost out of range, a
        // NaN position; and segment changes at a held position.
        let mut cases = [0; 4];
        for t in 2..s.len() {
            let ((lat, lon, segment), (lat0, lon0, segment0)) = (key(&s[t]), key(&s[t - 1]));
            if (lat, lon) != (lat0, lon0) {
                continue;
            }
            if segment != segment0 {
                cases[3] += 1;
                continue;
            }
            let finite = s[t].position.lat_deg.is_finite() && s[t].position.lon_deg.is_finite();
            cases[0] += usize::from(got[t - 1].is_some_and(|g| g.handover));
            cases[1] += usize::from(finite && got[t - 1].is_none() && got[t - 2].is_some());
            cases[2] += usize::from(!finite);
        }
        let held = (1..s.len()).filter(|&t| key(&s[t]) == key(&s[t - 1]));
        assert_eq!(geometry.reuses as usize, held.count());
        assert!(cases.iter().all(|&n| n >= 3), "cases {cases:?}");
    }

    #[test]
    fn trace_matches_oracle_on_dense_urban_loop() {
        // Lakeshore's 3×3 block holds ≈225 Verizon sites.
        let s = drive_at(GeoPoint::new(41.88, -87.63), 1_200);
        assert_matches_oracle(&model(Carrier::Verizon), &s);
    }

    #[test]
    fn trace_matches_oracle_on_corridor_drive() {
        // 150 km from Lakeport towards Brewton crosses 17 grid cells,
        // with corridor sites every 10–19 km forcing handovers on every
        // carrier.
        let s = drive_between(
            GeoPoint::new(44.95, -93.20),
            GeoPoint::new(43.05, -89.40),
            0.1,
            1_500,
        );
        for carrier in Carrier::ALL {
            let down = assert_matches_oracle(&model(carrier), &s);
            // Handover seconds carry the 0.8 % handover loss.
            let handovers = down.samples().iter().filter(|c| c.loss >= 0.008).count();
            assert!(handovers >= 5, "{carrier}: only {handovers} handovers");
        }
    }

    #[test]
    fn trace_matches_oracle_with_nan_positions() {
        // NaN runs drop the serving site; single NaN coordinates probe
        // the selection in between.
        let mut s = drive_at(GeoPoint::new(41.88, -87.63), 600);
        for (t, sample) in s.iter_mut().enumerate() {
            if (200..215).contains(&t) {
                sample.position = GeoPoint {
                    lat_deg: f64::NAN,
                    lon_deg: f64::NAN,
                };
            } else if t % 37 == 0 {
                sample.position.lat_deg = f64::NAN;
            } else if t % 41 == 0 {
                sample.position.lon_deg = f64::NAN;
            }
        }
        let down = assert_matches_oracle(&model(Carrier::Verizon), &s);
        assert!(down.samples()[200..215].iter().all(|c| c.is_outage()));
    }

    /// One model per carrier over the test corridor, built once.
    fn models() -> &'static [CellularLinkModel] {
        static MODELS: std::sync::OnceLock<Vec<CellularLinkModel>> = std::sync::OnceLock::new();
        MODELS.get_or_init(|| Carrier::ALL.iter().map(|&c| model(c)).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Random straight drives near the corridor, with NaN
        /// coordinates every `nan_every` seconds: every variant of the
        /// shared drive equals the oracle, for every carrier.
        #[test]
        fn shared_drive_matches_oracle_for_every_variant(
            carrier in 0usize..3,
            lat in 41.5..45.0f64,
            lon in -93.5..-87.5f64,
            bearing in 0.0..360.0f64,
            step_km in 0.0..0.15f64,
            len in 0u64..600,
            nan_every in 0usize..60,
            n_variants in 1usize..4,
            salt in 0u64..u64::MAX,
        ) {
            let from = GeoPoint::new(lat, lon);
            let mut s = drive_between(from, from.destination(bearing, 100.0), step_km, len);
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
            let mut vs = variants(&s, salt);
            vs.truncate(n_variants);
            assert_variants_match_oracle(&models()[carrier], &vs);
        }

    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random [`stop_and_go`] drives from up to 40 km off the
        /// corridor, so that they hand over and leave coverage: every
        /// held second of every variant equals the oracle's fresh step.
        #[test]
        fn stop_and_go_drive_matches_oracle_for_every_variant(
            carrier in 0usize..3,
            leg in 0usize..2,
            along in 0.0..1.0f64,
            off_bearing in 0.0..360.0f64,
            off_km in 0.0..40.0f64,
            bearing in 0.0..360.0f64,
            legs in prop::collection::vec((0.0..6.0f64, 1u64..=40, 0u8..10), 1..60),
            n_variants in 1usize..4,
            salt in 0u64..u64::MAX,
        ) {
            let c = corridor();
            let from = c[leg].interpolate(&c[leg + 1], along).destination(off_bearing, off_km);
            let s = stop_and_go(from, bearing, &legs);
            let mut vs = variants(&s, salt);
            vs.truncate(n_variants);
            assert_variants_match_oracle(&models()[carrier], &vs);
        }
    }

    #[test]
    fn urban_verizon_is_fast() {
        let m = model(Carrier::Verizon);
        let s = drive_at(GeoPoint::new(41.88, -87.63), 600);
        let a = vec![AreaType::Urban; s.len()];
        let stats = m.trace_for_drive(&s, &a).0.stats().unwrap();
        assert!(
            stats.mean_mbps > 60.0,
            "urban VZ mean {} too low",
            stats.mean_mbps
        );
        assert!(stats.outage_frac < 0.05);
    }

    #[test]
    fn deep_rural_att_is_mostly_dead() {
        let m = model(Carrier::Att);
        let s = drive_at(GeoPoint::new(43.9, -100.8), 300);
        let a = vec![AreaType::Rural; s.len()];
        let stats = m.trace_for_drive(&s, &a).0.stats().unwrap();
        assert!(
            stats.outage_frac > 0.5,
            "ATT deep-rural outage {} too low",
            stats.outage_frac
        );
    }

    #[test]
    fn rural_corridor_still_covered_by_tmobile() {
        // On the freeway between cities, corridor sites keep TM alive.
        let m = model(Carrier::TMobile);
        let s = drive_at(GeoPoint::new(44.0, -91.3), 300);
        let a = vec![AreaType::Rural; s.len()];
        let stats = m.trace_for_drive(&s, &a).0.stats().unwrap();
        assert!(
            stats.outage_frac < 0.4,
            "TM corridor outage {}",
            stats.outage_frac
        );
    }

    #[test]
    fn att_rtt_exceeds_verizon() {
        let satt = drive_at(GeoPoint::new(41.88, -87.63), 400);
        let a = vec![AreaType::Urban; satt.len()];
        let att = model(Carrier::Att).trace_for_drive(&satt, &a).0;
        let vz = model(Carrier::Verizon).trace_for_drive(&satt, &a).0;
        let att_rtt = att.stats().unwrap().mean_rtt_ms;
        let vz_rtt = vz.stats().unwrap().mean_rtt_ms;
        assert!(att_rtt > vz_rtt + 10.0, "ATT RTT {att_rtt} vs VZ {vz_rtt}");
    }

    #[test]
    fn cellular_loss_is_much_lower_than_starlink_band() {
        // Fig. 5: cellular retransmission rates sit well below Starlink's
        // 0.3–1.3 %.
        let m = model(Carrier::Verizon);
        let s = drive_at(GeoPoint::new(41.88, -87.63), 600);
        let a = vec![AreaType::Urban; s.len()];
        let loss = m.trace_for_drive(&s, &a).0.stats().unwrap().mean_loss;
        assert!(loss < 0.003, "cellular loss {loss}");
    }

    #[test]
    fn uplink_is_fraction_of_downlink() {
        let m = model(Carrier::TMobile);
        let s = drive_at(GeoPoint::new(43.05, -89.40), 400);
        let a = vec![AreaType::Urban; s.len()];
        let (down, up) = m.trace_for_drive(&s, &a);
        let ratio = up.stats().unwrap().mean_mbps / down.stats().unwrap().mean_mbps;
        assert!((0.12..0.35).contains(&ratio), "up/down ratio {ratio}");
    }

    #[test]
    fn weather_attenuates_cellular_capacity() {
        // §3.3: rain/snow affect both network types. The cellular model
        // must apply `Weather::cellular_capacity_factor`, not just the
        // satellite model its Ku-band factor: every rainy sample is the
        // clear-sky sample scaled by exactly that factor (the RNG draw
        // order is weather-independent), except where the 450 Mbps clamp
        // binds.
        let m = model(Carrier::Verizon);
        let clear = drive_at(GeoPoint::new(41.88, -87.63), 400);
        let mut rainy = clear.clone();
        for s in &mut rainy {
            s.weather = Weather::Rain;
        }
        let a = vec![AreaType::Urban; clear.len()];
        let clear_down = m.trace_for_drive(&clear, &a).0;
        let rain_down = m.trace_for_drive(&rainy, &a).0;
        let factor = Weather::Rain.cellular_capacity_factor();
        assert!(factor < 1.0, "rain must attenuate");
        let mut compared = 0;
        for (c, r) in clear_down.samples().iter().zip(rain_down.samples()) {
            if c.is_outage() || c.capacity_mbps * factor >= 450.0 {
                continue;
            }
            assert!(
                (r.capacity_mbps - c.capacity_mbps * factor).abs() < 1e-9,
                "rain {} vs clear {} * {factor}",
                r.capacity_mbps,
                c.capacity_mbps
            );
            compared += 1;
        }
        assert!(compared > 100, "only {compared} comparable samples");
    }

    #[test]
    fn traces_are_deterministic() {
        let m = model(Carrier::Verizon);
        let s = drive_at(GeoPoint::new(44.95, -93.2), 200);
        let a = vec![AreaType::Urban; s.len()];
        assert_eq!(m.trace_for_drive(&s, &a), m.trace_for_drive(&s, &a));
    }

    #[test]
    #[should_panic(expected = "carrier")]
    fn mismatched_carrier_panics() {
        let dep = Deployment::generate(
            Carrier::Att,
            &PlaceDb::five_state_corridor(),
            &corridor(),
            1,
        );
        CellularLinkModel::new(CellularModelConfig::for_carrier(Carrier::Verizon), dep);
    }
}
