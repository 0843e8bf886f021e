//! Base-station deployment generation and spatial lookup.
//!
//! §5.1: "cellular network base stations are more densely deployed in
//! populated areas" while "deploying and operating cellular base stations
//! in rural areas incurs much higher costs due to low population density".
//! Deployment therefore follows population: each place gets a cluster of
//! sites scaled by its population and the carrier's density factor, plus
//! sparse corridor sites along the freeway spine connecting the places.

use crate::carrier::Carrier;
use crate::radio::mix;
use leo_geo::places::PlaceDb;
use leo_geo::point::{Ecef, GeoPoint};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::HashMap;

/// Radio access technology of a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Rat {
    /// 4G LTE.
    Lte,
    /// Low-band 5G NR (coverage layer; speeds similar to good LTE).
    NrLow,
    /// Mid-band 5G NR (capacity layer; urban/suburban).
    NrMid,
}

impl Rat {
    /// Downlink channel bandwidth, MHz.
    pub fn bandwidth_mhz(&self) -> f64 {
        match self {
            Rat::Lte => 15.0,
            Rat::NrLow => 35.0,
            Rat::NrMid => 80.0,
        }
    }

    /// Practical cell range, km (beyond this the UE is out of coverage).
    pub fn range_km(&self) -> f64 {
        match self {
            Rat::Lte => 14.0,
            Rat::NrLow => 16.0,
            Rat::NrMid => 5.0,
        }
    }
}

/// One cell site.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BaseStation {
    pub location: GeoPoint,
    pub rat: Rat,
    /// Stable site identifier (index into the deployment).
    pub id: u32,
}

/// A carrier's full deployment with a grid index for nearest-site queries.
///
/// Serialises as `{carrier, sites}`; deserialising rebuilds the index.
#[derive(Debug, Clone, Serialize)]
pub struct Deployment {
    pub carrier: Carrier,
    sites: Vec<BaseStation>,
    /// Surface ECEF position of each site (index = id). The straight
    /// chord to a site never exceeds the great-circle distance to it.
    #[serde(skip)]
    ecef: Vec<Ecef>,
    /// [`GeoPoint::cos_lat`] of each site (index = id), for the haversine.
    #[serde(skip)]
    cos_lat: Vec<f64>,
    /// 0.15°-cell grid index: cell → site indices.
    #[serde(skip)]
    grid: HashMap<(i32, i32), Vec<u32>>,
}

/// Grid cell size in degrees (~16 km north-south).
const GRID_DEG: f64 = 0.15;

fn grid_cell(p: &GeoPoint) -> (i32, i32) {
    (
        (p.lat_deg / GRID_DEG).floor() as i32,
        (p.lon_deg / GRID_DEG).floor() as i32,
    )
}

/// Reusable state of nearest-site queries on one deployment: the
/// ring-scan candidates of the last grid cell queried (they depend only
/// on the cell and `n`) and the kept nearest sites, which seed the next
/// query's search.
#[derive(Debug, Default)]
pub(crate) struct NearestScratch {
    /// The `(cell, n)` that `candidates` were scanned for.
    scanned: Option<((i32, i32), usize)>,
    candidates: Vec<u32>,
    /// The last answer. Emptied whenever the ring scan reruns, so every
    /// site in it is one of `candidates`.
    nearest: Vec<(BaseStation, f64)>,
    /// The last answer's site ids with their distances to the current
    /// query point.
    seeds: Vec<(u32, f64)>,
}

impl Deployment {
    /// Generates the deployment for `carrier` over `places`, with corridor
    /// sites along `corridor` waypoints (typically route polylines).
    /// Deterministic in `(carrier, places, corridor, seed)`.
    pub fn generate(carrier: Carrier, places: &PlaceDb, corridor: &[GeoPoint], seed: u64) -> Self {
        let mut sites = Vec::new();
        let salt = seed ^ carrier.seed_salt();

        // 1. Population clusters around each place.
        for (pi, place) in places.places().iter().enumerate() {
            // Sites per place: ~1 per 12k population, scaled by carrier
            // density, minimum 1 (every town has at least some coverage
            // from the densest carriers).
            let raw = place.population as f64 / 12_000.0 * carrier.density_factor();
            let count = raw.round().max(1.0) as u32;
            // Cluster radius grows with the urban footprint.
            let radius_km = (place.population as f64 / 60_000.0).sqrt().clamp(1.5, 18.0);
            for k in 0..count {
                let h = mix(salt, (pi as u64) << 32 | k as u64);
                let u1 = unit(h);
                let u2 = unit(mix(h, 1));
                let u3 = unit(mix(h, 2));
                let bearing = u1 * 360.0;
                // sqrt for uniform-in-disc density.
                let dist = u2.sqrt() * radius_km;
                let loc = place.location.destination(bearing, dist);
                let rat = if u3 < carrier.midband_share() && place.population >= 50_000 {
                    Rat::NrMid
                } else if u3 < carrier.rural_lowband_share() + carrier.midband_share() {
                    Rat::NrLow
                } else {
                    Rat::Lte
                };
                sites.push(BaseStation {
                    location: loc,
                    rat,
                    id: 0, // assigned below
                });
            }
        }

        // 2. Corridor sites along the freeway spine.
        let spacing = carrier.corridor_spacing_km();
        let mut acc = spacing; // first site one spacing in
        for w in corridor.windows(2) {
            let seg_len = w[0].distance_km(&w[1]);
            let bearing = w[0].bearing_deg(&w[1]);
            while acc < seg_len {
                let h = mix(salt, 0xc0ff_ee00 ^ (sites.len() as u64));
                // Corridor towers sit a little off the road.
                let off = (unit(h) - 0.5) * 2.0;
                let loc = w[0]
                    .destination(bearing, acc)
                    .destination(bearing + 90.0, off);
                let rat = if unit(mix(h, 3)) < carrier.rural_lowband_share() {
                    Rat::NrLow
                } else {
                    Rat::Lte
                };
                sites.push(BaseStation {
                    location: loc,
                    rat,
                    id: 0,
                });
                acc += spacing;
            }
            acc -= seg_len;
        }

        for (i, s) in sites.iter_mut().enumerate() {
            s.id = i as u32;
        }
        Self::indexed(carrier, sites)
    }

    /// A deployment over `sites`, whose ids must equal their indices,
    /// with its grid index and site positions built.
    fn indexed(carrier: Carrier, sites: Vec<BaseStation>) -> Self {
        let mut grid: HashMap<(i32, i32), Vec<u32>> = HashMap::new();
        for s in &sites {
            grid.entry(grid_cell(&s.location)).or_default().push(s.id);
        }
        // One pass, so the latitude's cosine is computed once for both.
        let (ecef, cos_lat) = sites
            .iter()
            .map(|s| (s.location.to_ecef(0.0), s.location.cos_lat()))
            .unzip();
        Self {
            carrier,
            ecef,
            cos_lat,
            sites,
            grid,
        }
    }

    /// All sites.
    pub fn sites(&self) -> &[BaseStation] {
        &self.sites
    }

    /// Number of sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// Whether the deployment has no sites.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// The `n` nearest sites to `p` (by great-circle distance), searched in
    /// growing rings of grid cells. Returns fewer when the deployment is
    /// small or everything is far away (search stops after a 5-ring radius
    /// ≈ 80 km, beyond any cell's range). Sites at equal distance keep
    /// their scan order, which within a cell is id order.
    pub fn nearest_sites(&self, p: &GeoPoint, n: usize) -> Vec<(BaseStation, f64)> {
        let mut scratch = NearestScratch::default();
        self.nearest_with(p, n, &mut scratch);
        scratch.nearest
    }

    /// [`nearest_sites`](Self::nearest_sites) into reusable `scratch`,
    /// which skips the ring scan while queries stay in one grid cell and
    /// seeds the search with the last answer's sites. `scratch` must only
    /// ever serve this deployment.
    ///
    /// The seed is exact. The last answer's n sites are all candidates of
    /// this scan (a rescan forgets them), so the largest of their
    /// distances to `p`, D, bounds the n-th nearest distance from above,
    /// and the chord bound starts from D instead of from nothing. A site
    /// it prunes has chord > bound ≥ D ≥ the n-th distance, so it is
    /// strictly farther than every site kept and cannot enter the stable
    /// top n. The sites that pass go through the insert in scan order, so
    /// ties keep their scan order. A NaN query point gives a NaN D, which
    /// prunes nothing.
    pub(crate) fn nearest_with<'s>(
        &self,
        p: &GeoPoint,
        n: usize,
        scratch: &'s mut NearestScratch,
    ) -> &'s [(BaseStation, f64)] {
        let NearestScratch {
            scanned,
            candidates,
            nearest,
            seeds,
        } = scratch;
        let cell = grid_cell(p);
        if *scanned != Some((cell, n)) {
            self.ring_scan(cell, n, candidates);
            *scanned = Some((cell, n));
            nearest.clear();
        }
        let cos_p = p.cos_lat();
        let distance = |id: u32| {
            self.sites[id as usize]
                .location
                .distance_km_cos(self.cos_lat[id as usize], p, cos_p)
        };
        seeds.clear();
        seeds.extend(nearest.iter().map(|(s, _)| (s.id, distance(s.id))));
        nearest.clear();
        // Squared chord beyond which a site cannot enter a full `nearest`:
        // NaN, which prunes nothing, until `nearest` is full or while its
        // farthest distance is NaN. chord ≤ great-circle distance, so a
        // chord beyond the farthest kept distance rules a site out. The
        // margin (1e-9 relative plus 1 µm) dwarfs the rounding of both
        // formulas (≈1e-15 relative, ≈1e-11 km absolute).
        let bound = |d: f64| (d * (1.0 + 1e-9) + 1e-9).powi(2);
        let mut prune_chord2 = f64::NAN;
        if n > 0 && seeds.len() == n {
            // The seeds' largest distance, NaN if any of them is NaN.
            let mut d_max = 0.0;
            for &(_, d) in seeds.iter() {
                if d > d_max || d.is_nan() {
                    d_max = d;
                }
            }
            prune_chord2 = bound(d_max);
        }
        let q = p.to_ecef(0.0);
        for &id in candidates.iter() {
            let v = self.ecef[id as usize].sub(&q);
            if v.dot(&v) > prune_chord2 {
                continue;
            }
            let d = match seeds.iter().find(|(seed, _)| *seed == id) {
                Some(&(_, d)) => d,
                None => distance(id),
            };
            // After every kept site at least as near: a stable sort's
            // order. total_cmp, not partial_cmp().expect(): a NaN
            // distance (a NaN query point) orders deterministically
            // instead of aborting the scan.
            let at = nearest.partition_point(|(_, k)| k.total_cmp(&d) != Ordering::Greater);
            if at == n {
                continue;
            }
            if nearest.len() == n {
                nearest.pop();
            }
            nearest.insert(at, (self.sites[id as usize], d));
            if nearest.len() == n {
                prune_chord2 = bound(nearest[n - 1].1);
            }
        }
        nearest
    }

    /// Ids of the sites in growing rings of grid cells around `cell`,
    /// ring by ring, until one ring past the first that brings the count
    /// to `n` (or 5 rings).
    fn ring_scan(&self, (cx, cy): (i32, i32), n: usize, ids: &mut Vec<u32>) {
        ids.clear();
        for ring in 0i32..=5 {
            for dx in -ring..=ring {
                for dy in -ring..=ring {
                    // Only the ring boundary (interior already visited).
                    if dx.abs() != ring && dy.abs() != ring {
                        continue;
                    }
                    if let Some(cell) = self.grid.get(&(cx + dx, cy + dy)) {
                        ids.extend_from_slice(cell);
                    }
                }
            }
            // One extra ring after first hits guarantees true nearest across
            // cell boundaries.
            if ids.len() >= n && ring >= 1 {
                break;
            }
        }
    }

    /// The selection as first written, without the candidate cache or
    /// the chord bound: every candidate's distance, then a stable sort.
    /// The reference the selection tests compare against.
    #[cfg(test)]
    pub(crate) fn nearest_sites_oracle(&self, p: &GeoPoint, n: usize) -> Vec<(BaseStation, f64)> {
        let (cx, cy) = grid_cell(p);
        let mut found: Vec<(BaseStation, f64)> = Vec::new();
        for ring in 0i32..=5 {
            for dx in -ring..=ring {
                for dy in -ring..=ring {
                    if dx.abs() != ring && dy.abs() != ring {
                        continue;
                    }
                    if let Some(ids) = self.grid.get(&(cx + dx, cy + dy)) {
                        for &id in ids {
                            let s = self.sites[id as usize];
                            found.push((s, s.location.distance_km(p)));
                        }
                    }
                }
            }
            if found.len() >= n && ring >= 1 {
                break;
            }
        }
        found.sort_by(|a, b| a.1.total_cmp(&b.1));
        found.truncate(n);
        found
    }

    /// The nearest site within its RAT's coverage range, if any.
    pub fn serving_candidate(&self, p: &GeoPoint) -> Option<(BaseStation, f64)> {
        self.nearest_sites(p, 4)
            .into_iter()
            .find(|(s, d)| *d <= s.rat.range_km())
    }
}

impl Deserialize for Deployment {
    /// Reads `{carrier, sites}` and rebuilds the index. Site ids must
    /// equal their indices, as [`Deployment::generate`] assigns them.
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let field = |name: &str| {
            v.get(name).ok_or_else(|| {
                serde::Error::custom(format!("missing field `{name}` in Deployment"))
            })
        };
        let carrier = Carrier::from_value(field("carrier")?)?;
        let sites = Vec::<BaseStation>::from_value(field("sites")?)?;
        if let Some((i, s)) = sites.iter().enumerate().find(|(i, s)| s.id as usize != *i) {
            return Err(serde::Error::custom(format!(
                "site at index {i} has id {}",
                s.id
            )));
        }
        Ok(Self::indexed(carrier, sites))
    }
}

/// Uniform [0,1) from a hash.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    fn corridor() -> Vec<GeoPoint> {
        vec![
            GeoPoint::new(44.95, -93.20),
            GeoPoint::new(43.05, -89.40),
            GeoPoint::new(41.88, -87.63),
        ]
    }

    fn deployment(carrier: Carrier) -> Deployment {
        Deployment::generate(carrier, &PlaceDb::five_state_corridor(), &corridor(), 99)
    }

    /// Every carrier's deployment, generated once per test binary.
    fn all_carriers() -> &'static [Deployment] {
        static DEPLOYMENTS: OnceLock<Vec<Deployment>> = OnceLock::new();
        DEPLOYMENTS.get_or_init(|| Carrier::ALL.into_iter().map(deployment).collect())
    }

    /// Same sites in the same order at bit-identical distances.
    fn assert_same(got: &[(BaseStation, f64)], want: &[(BaseStation, f64)], ctx: &str) {
        let bits = |v: &[(BaseStation, f64)]| -> Vec<(u32, u64)> {
            v.iter().map(|(s, d)| (s.id, d.to_bits())).collect()
        };
        assert_eq!(bits(got), bits(want), "{ctx}");
    }

    /// The selection against the oracle at `p` for n ∈ 1..=8, on every
    /// carrier, through a fresh scratch and through a reused one (whose
    /// second query of a cell skips the ring scan).
    fn check_against_oracle(p: GeoPoint) {
        for dep in all_carriers() {
            let mut scratch = NearestScratch::default();
            for n in 1..=8 {
                let want = dep.nearest_sites_oracle(&p, n);
                let ctx = format!("{} n={n} at {p:?}", dep.carrier);
                assert_same(&dep.nearest_sites(&p, n), &want, &ctx);
                for _ in 0..2 {
                    assert_same(dep.nearest_with(&p, n, &mut scratch), &want, &ctx);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn selection_matches_oracle_around_corridor(lat in 39.5..47.0f64, lon in -96.0..-85.0f64) {
            check_against_oracle(GeoPoint::new(lat, lon));
        }

        #[test]
        fn selection_matches_oracle_on_cell_edges(i in 265i32..314, j in -640i32..-566) {
            check_against_oracle(GeoPoint {
                lat_deg: i as f64 * GRID_DEG,
                lon_deg: j as f64 * GRID_DEG,
            });
        }

        #[test]
        fn selection_is_empty_far_away(lat in -60.0..-10.0f64, lon in 0.0..120.0f64) {
            let p = GeoPoint::new(lat, lon);
            for dep in all_carriers() {
                prop_assert!(dep.nearest_sites(&p, 8).is_empty());
            }
            check_against_oracle(p);
        }

        #[test]
        fn selection_matches_oracle_at_nan(which in 0u8..3, lat in 40.0..46.0f64, lon in -94.0..-87.0f64) {
            let (lat_deg, lon_deg) = match which {
                0 => (f64::NAN, lon),
                1 => (lat, f64::NAN),
                _ => (f64::NAN, f64::NAN),
            };
            check_against_oracle(GeoPoint { lat_deg, lon_deg });
        }
    }

    /// Sites around (0°, 0°), where a NaN query point's grid cell lies:
    /// ids 0–5 and 8 co-located, the rest in neighbouring cells.
    fn hand_built() -> Deployment {
        let site = |id, lat_deg, lon_deg| BaseStation {
            location: GeoPoint { lat_deg, lon_deg },
            rat: Rat::Lte,
            id,
        };
        let mut sites: Vec<BaseStation> = (0..6).map(|id| site(id, 0.07, 0.07)).collect();
        sites.extend([
            site(6, 0.20, 0.10),
            site(7, -0.10, -0.10),
            site(8, 0.07, 0.07),
            site(9, 0.50, -0.40),
        ]);
        Deployment::indexed(Carrier::Att, sites)
    }

    #[test]
    fn co_located_sites_tie_in_id_order() {
        let dep = hand_built();
        let ids = |p: &GeoPoint, n| -> Vec<u32> {
            dep.nearest_sites(p, n).iter().map(|(s, _)| s.id).collect()
        };
        let at = GeoPoint::new(0.07, 0.07);
        assert_eq!(ids(&at, 3), [0, 1, 2]);
        assert_eq!(ids(&GeoPoint::new(0.3, 0.3), 8), [6, 0, 1, 2, 3, 4, 5, 8]);
        let nan = GeoPoint {
            lat_deg: f64::NAN,
            lon_deg: f64::NAN,
        };
        // NaN distances prune nothing and keep scan order.
        assert_eq!(ids(&nan, 3), [0, 1, 2]);
        for p in [at, GeoPoint::new(0.3, 0.3), GeoPoint::new(-0.2, 0.0), nan] {
            for n in 0..=11 {
                let ctx = format!("n={n} at {p:?}");
                assert_same(
                    &dep.nearest_sites(&p, n),
                    &dep.nearest_sites_oracle(&p, n),
                    &ctx,
                );
            }
        }
    }

    /// Where a walk starts: a point `frac` of the way along the corridor
    /// (its cities and its rural legs) for a generated deployment, one of
    /// five points around the co-located sites for the hand-built one;
    /// then the grid corner nearest to it, moved by up to 0.002° (≈ 220 m)
    /// each way, so the walk crosses cell edges.
    fn walk_start(hand_built: bool, frac: f64, dlat: f64, dlon: f64) -> GeoPoint {
        let near = if hand_built {
            [
                (0.07, 0.07),
                (0.0, 0.0),
                (0.15, 0.0),
                (0.0, 0.15),
                (0.15, 0.15),
            ][((frac * 5.0) as usize).min(4)]
        } else {
            let c = corridor();
            let along = frac * (c.len() - 1) as f64;
            let leg = (along as usize).min(c.len() - 2);
            let p = c[leg].interpolate(&c[leg + 1], along - leg as f64);
            (p.lat_deg, p.lon_deg)
        };
        let snap = |deg: f64| (deg / GRID_DEG).round() * GRID_DEG;
        GeoPoint::new(snap(near.0) + dlat, snap(near.1) + dlon)
    }

    /// One walk through one persistent scratch, checked against the
    /// oracle at every step. A step holds the place, queries a NaN
    /// position, picks a new `n`, turns back, or moves 0–40 m; returns the
    /// grid cells of the walk's positions, in order (a NaN query has none).
    fn walk_against_oracle(
        dep: &Deployment,
        start: GeoPoint,
        mut heading: f64,
        mut n: usize,
        steps: &[(u8, f64, f64)],
    ) -> Vec<(i32, i32)> {
        let mut scratch = NearestScratch::default();
        let mut pos = start;
        let mut cells = Vec::new();
        for (i, &(kind, a, b)) in steps.iter().enumerate() {
            let nan = f64::NAN;
            let query = match kind {
                0..=3 => pos,
                4 => GeoPoint {
                    lat_deg: nan,
                    ..pos
                },
                5 => GeoPoint {
                    lon_deg: nan,
                    ..pos
                },
                6 => GeoPoint {
                    lat_deg: nan,
                    lon_deg: nan,
                },
                7 => {
                    n = 1 + (a * 6.0) as usize;
                    pos
                }
                8 => {
                    heading += 180.0;
                    pos = pos.destination(heading, a * 0.04);
                    pos
                }
                _ => {
                    pos = pos.destination(heading + (b - 0.5) * 60.0, a * 0.04);
                    pos
                }
            };
            let want = dep.nearest_sites_oracle(&query, n);
            let ctx = format!("{} step {i} n={n} at {query:?}", dep.carrier);
            assert_same(dep.nearest_with(&query, n, &mut scratch), &want, &ctx);
            if !(query.lat_deg.is_nan() || query.lon_deg.is_nan()) {
                cells.push(grid_cell(&query));
            }
        }
        cells
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn seeded_search_matches_oracle_along_random_walks(
            which in 0usize..4,
            frac in 0.0..1.0f64,
            dlat in -0.002..0.002f64,
            dlon in -0.002..0.002f64,
            heading in 0.0..360.0f64,
            n in 1usize..=6,
            steps in prop::collection::vec((0u8..16, 0.0..1.0f64, 0.0..1.0f64), 1..160),
        ) {
            let hand = hand_built();
            let dep = all_carriers().get(which).unwrap_or(&hand);
            let start = walk_start(which == 3, frac, dlat, dlon);
            walk_against_oracle(dep, start, heading, n, &steps);
        }
    }

    #[test]
    fn seeded_search_matches_oracle_back_and_forth_across_cell_edges() {
        // Walks that cross a latitude and a longitude edge and come back,
        // twice, at 30 m a step: in a city, on a rural leg, and around the
        // co-located sites. The seed then comes from the other cell's
        // answer on the first step of each crossing.
        let hand = hand_built();
        let mut deps: Vec<&Deployment> = all_carriers().iter().collect();
        deps.push(&hand);
        for dep in deps {
            let hand_built = std::ptr::eq(dep, &hand);
            for frac in [0.0, 0.25, 0.5, 0.75, 1.0] {
                let start = walk_start(hand_built, frac, -0.0013, -0.0013);
                let mut steps = Vec::new();
                for leg in 0..4 {
                    // 45° out, then back: 12 steps of 30 m ≈ 255 m per axis.
                    steps.extend([(9u8, 0.75, 0.5); 12]);
                    steps.push((8, 0.0, 0.5));
                    steps.extend([(9u8, 0.75, 0.5); 12]);
                    steps.push((8, 0.0, 0.5));
                    steps.push((if leg % 2 == 0 { 0 } else { 6 }, 0.0, 0.5));
                }
                for n in 1..=6 {
                    let cells = walk_against_oracle(dep, start, 45.0, n, &steps);
                    let (mut up, mut down) = (0, 0);
                    for w in cells.windows(2) {
                        let (a, b) = (w[0], w[1]);
                        up += usize::from(b.0 > a.0) + usize::from(b.1 > a.1);
                        down += usize::from(b.0 < a.0) + usize::from(b.1 < a.1);
                    }
                    assert!(
                        up >= 4 && down >= 4,
                        "{} crossings {up}/{down}",
                        dep.carrier
                    );
                }
            }
        }
    }

    #[test]
    fn empty_deployment_has_no_nearest_sites() {
        let dep = Deployment::indexed(Carrier::Verizon, Vec::new());
        let p = GeoPoint::new(41.88, -87.63);
        for n in 0..=8 {
            assert!(dep.nearest_sites(&p, n).is_empty());
        }
        assert!(dep.serving_candidate(&p).is_none());
    }

    #[test]
    fn serde_round_trip_rebuilds_the_index() {
        let dep = deployment(Carrier::Verizon);
        let json = serde_json::to_string(&dep).expect("deployment serializes");
        let back: Deployment = serde_json::from_str(&json).expect("deployment parses");
        assert_eq!(back.sites(), dep.sites());
        let downtown = GeoPoint::new(41.88, -87.63);
        let want = dep.nearest_sites(&downtown, 4);
        assert_eq!(want.len(), 4);
        assert_same(&back.nearest_sites(&downtown, 4), &want, "round trip");
        // Ids that are not indices would misdirect the index: refused.
        let tampered = json.replacen("\"id\":0", "\"id\":7", 1);
        assert_ne!(tampered, json);
        assert!(serde_json::from_str::<Deployment>(&tampered).is_err());
    }

    #[test]
    fn denser_carrier_has_more_sites() {
        let att = deployment(Carrier::Att).len();
        let vz = deployment(Carrier::Verizon).len();
        assert!(vz > att, "VZ {vz} should out-deploy ATT {att}");
    }

    #[test]
    fn nan_query_point_does_not_panic() {
        // A NaN position hashes into some grid cell and yields NaN
        // distances; total_cmp sorts those deterministically, so the
        // scan completes (possibly empty) instead of aborting.
        let dep = deployment(Carrier::TMobile);
        let nan = GeoPoint::new(f64::NAN, f64::NAN);
        let _ = dep.nearest_sites(&nan, 4);
        let _ = dep.serving_candidate(&nan);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = deployment(Carrier::TMobile);
        let b = deployment(Carrier::TMobile);
        assert_eq!(a.sites(), b.sites());
    }

    #[test]
    fn urban_core_is_covered() {
        let dep = deployment(Carrier::Verizon);
        let (_, d) = dep
            .serving_candidate(&GeoPoint::new(41.88, -87.63))
            .expect("downtown must have coverage");
        assert!(d < 5.0, "nearest urban site at {d} km");
    }

    #[test]
    fn deep_rural_has_dead_zones_for_sparse_carrier() {
        let dep = deployment(Carrier::Att);
        // A point far from both places and the (eastern) corridor.
        let p = GeoPoint::new(43.9, -100.8);
        assert!(
            dep.serving_candidate(&p).is_none(),
            "expected an ATT dead zone in deep rural"
        );
    }

    #[test]
    fn nearest_sites_sorted_ascending() {
        let dep = deployment(Carrier::Verizon);
        let near = dep.nearest_sites(&GeoPoint::new(44.9, -93.2), 6);
        assert!(!near.is_empty());
        for w in near.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn nearest_agrees_with_brute_force() {
        let dep = deployment(Carrier::TMobile);
        let p = GeoPoint::new(43.4, -89.6);
        let brute = dep
            .sites()
            .iter()
            .map(|s| (s.id, s.location.distance_km(&p)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap();
        let fast = dep.nearest_sites(&p, 1)[0];
        assert_eq!(fast.0.id, brute.0);
    }

    #[test]
    fn midband_sits_in_cities() {
        // NrMid sites only spawn from places with ≥50k population, so every
        // NrMid site must be within a city cluster radius (≤18 km) of one.
        let dep = deployment(Carrier::TMobile);
        let db = PlaceDb::five_state_corridor();
        for s in dep.sites().iter().filter(|s| s.rat == Rat::NrMid) {
            let (_, d) = db
                .nearest_of_at_least(&s.location, leo_geo::places::PlaceCategory::City)
                .unwrap();
            assert!(d <= 18.5, "NrMid site {} km from any city", d);
        }
    }

    #[test]
    fn corridor_sites_exist_between_cities() {
        let dep = deployment(Carrier::Verizon);
        // Midpoint of the Lakeport→Brewton leg is ~180 km from either city;
        // corridor sites must be nearby even though no place is.
        let mid = GeoPoint::new(44.0, -91.3);
        let near = dep.nearest_sites(&mid, 1);
        assert!(!near.is_empty());
        assert!(
            near[0].1 < 25.0,
            "nearest corridor site {} km away",
            near[0].1
        );
    }
}
