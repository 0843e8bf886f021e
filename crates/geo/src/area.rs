//! Urban / suburban / rural classification.
//!
//! §5.1: *"using predetermined thresholds, we categorize the data into three
//! area types: urban, suburban, and rural"* based on the distance from each
//! data point to the nearest city or town. The default thresholds here are
//! tuned so that a drive over the synthetic corridor reproduces the paper's
//! area mix of 29.78 % / 34.30 % / 35.91 %.

use crate::places::{PlaceCategory, PlaceDb};
use crate::point::{GeoPoint, EARTH_RADIUS_KM};
use serde::{Deserialize, Serialize};

/// The three area types the paper's coverage analysis uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum AreaType {
    Urban,
    Suburban,
    Rural,
}

impl AreaType {
    /// All area types in paper order.
    pub const ALL: [AreaType; 3] = [AreaType::Urban, AreaType::Suburban, AreaType::Rural];

    /// Display label matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            AreaType::Urban => "Urban",
            AreaType::Suburban => "Suburban",
            AreaType::Rural => "Rural",
        }
    }
}

impl std::fmt::Display for AreaType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Distance-threshold classifier over a [`PlaceDb`].
///
/// A point within `urban_km` of a place whose size "counts" for that radius
/// is urban; within `suburban_km` it is suburban; otherwise rural. Larger
/// places project urbanity further: a major city's urban radius is scaled by
/// `major_city_scale`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AreaClassifier {
    places: PlaceDb,
    /// Urban radius around a mid-size city, km.
    pub urban_km: f64,
    /// Suburban radius around any place, km.
    pub suburban_km: f64,
    /// Multiplier applied to both radii for major cities.
    pub major_city_scale: f64,
    /// Multiplier applied to both radii for small towns (< 1.0: towns only
    /// project a small suburban halo and no urban core).
    pub town_scale: f64,
}

impl AreaClassifier {
    /// Classifier with default thresholds over the given database.
    pub fn new(places: PlaceDb) -> Self {
        Self {
            places,
            urban_km: 9.0,
            suburban_km: 28.0,
            major_city_scale: 2.2,
            town_scale: 0.45,
        }
    }

    /// Access to the underlying place database.
    pub fn places(&self) -> &PlaceDb {
        &self.places
    }

    fn scale_for(&self, category: PlaceCategory) -> f64 {
        match category {
            PlaceCategory::MajorCity => self.major_city_scale,
            PlaceCategory::City => 1.0,
            PlaceCategory::Town => self.town_scale,
        }
    }

    /// Classifies a point.
    ///
    /// Exactly the paper's procedure: find distance to the closest place
    /// (accounting for place size via radius scaling) and threshold it.
    pub fn classify(&self, p: &GeoPoint) -> AreaType {
        let mut best = AreaType::Rural;
        for place in self.places.places() {
            let s = self.scale_for(place.category);
            let urban_r = self.urban_km * s;
            let suburban_r = self.suburban_km * s;
            // Haversine distance is at least R·|Δφ| for |Δφ| ≤ 180°, so a
            // place whose latitude gap alone exceeds its largest radius
            // (plus 1 km for rounding) cannot match and its haversine is
            // skipped. A NaN gap fails the test and falls through.
            let reach_km = if place.category == PlaceCategory::Town {
                suburban_r
            } else {
                urban_r.max(suburban_r)
            };
            let dlat = (p.lat_deg - place.location.lat_deg).abs();
            if dlat <= 180.0 && EARTH_RADIUS_KM * dlat.to_radians() > reach_km + 1.0 {
                continue;
            }
            let d = place.location.distance_km(p);
            // Towns have no urban core.
            if place.category != PlaceCategory::Town && d <= urban_r {
                return AreaType::Urban;
            }
            if d <= suburban_r {
                best = AreaType::Suburban;
            }
        }
        best
    }

    /// Classifies many points, returning the per-type proportions
    /// `(urban, suburban, rural)` each in `[0, 1]`.
    pub fn proportions(&self, points: &[GeoPoint]) -> (f64, f64, f64) {
        if points.is_empty() {
            return (0.0, 0.0, 0.0);
        }
        let mut counts = [0usize; 3];
        for p in points {
            match self.classify(p) {
                AreaType::Urban => counts[0] += 1,
                AreaType::Suburban => counts[1] += 1,
                AreaType::Rural => counts[2] += 1,
            }
        }
        let n = points.len() as f64;
        (
            counts[0] as f64 / n,
            counts[1] as f64 / n,
            counts[2] as f64 / n,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl AreaClassifier {
        /// The classifier without the latitude prefilter: a haversine to
        /// every place.
        fn classify_brute_force(&self, p: &GeoPoint) -> AreaType {
            let mut best = AreaType::Rural;
            for place in self.places.places() {
                let d = place.location.distance_km(p);
                let s = self.scale_for(place.category);
                if place.category != PlaceCategory::Town && d <= self.urban_km * s {
                    return AreaType::Urban;
                }
                if d <= self.suburban_km * s {
                    best = AreaType::Suburban;
                }
            }
            best
        }
    }

    proptest! {
        #[test]
        fn prefilter_matches_brute_force_anywhere(
            lat in -90.0..90.0f64,
            lon in -180.0..180.0f64,
            corridor_lat in 39.0..48.0f64,
            corridor_lon in -105.0..-85.0f64,
        ) {
            let c = classifier();
            for p in [GeoPoint::new(lat, lon), GeoPoint::new(corridor_lat, corridor_lon)] {
                prop_assert_eq!(c.classify(&p), c.classify_brute_force(&p));
            }
        }

        #[test]
        fn prefilter_matches_brute_force_on_every_radius(
            bearing in 0.0..360.0f64,
            nudge_m in -50.0..50.0f64,
        ) {
            let c = classifier();
            for place in c.places().places() {
                let s = c.scale_for(place.category);
                for r in [c.urban_km * s, c.suburban_km * s] {
                    for km in [r, r + nudge_m / 1e3] {
                        let p = place.location.destination(bearing, km);
                        prop_assert_eq!(c.classify(&p), c.classify_brute_force(&p));
                    }
                }
            }
        }
    }

    #[test]
    fn nan_positions_fall_through_to_the_haversine() {
        let c = classifier();
        for p in [
            GeoPoint {
                lat_deg: f64::NAN,
                lon_deg: -90.0,
            },
            GeoPoint {
                lat_deg: 43.0,
                lon_deg: f64::NAN,
            },
            GeoPoint {
                lat_deg: f64::NAN,
                lon_deg: f64::NAN,
            },
        ] {
            assert_eq!(c.classify(&p), c.classify_brute_force(&p));
            assert_eq!(c.classify(&p), AreaType::Rural);
        }
    }

    fn classifier() -> AreaClassifier {
        AreaClassifier::new(PlaceDb::five_state_corridor())
    }

    #[test]
    fn downtown_major_city_is_urban() {
        let c = classifier();
        assert_eq!(c.classify(&GeoPoint::new(41.88, -87.63)), AreaType::Urban);
        assert_eq!(c.classify(&GeoPoint::new(44.95, -93.20)), AreaType::Urban);
    }

    #[test]
    fn city_fringe_is_suburban() {
        let c = classifier();
        // ~30 km west of Lakeshore: inside the scaled suburban radius but
        // outside the urban core.
        let p = GeoPoint::new(41.88, -87.63).destination(270.0, 30.0);
        assert_eq!(c.classify(&p), AreaType::Suburban);
    }

    #[test]
    fn open_prairie_is_rural() {
        let c = classifier();
        // Halfway across State E's emptiest stretch.
        assert_eq!(c.classify(&GeoPoint::new(43.9, -100.8)), AreaType::Rural);
    }

    #[test]
    fn town_core_is_not_urban() {
        let c = classifier();
        // Wall Flats, population 700: suburban halo at best.
        let t = c.classify(&GeoPoint::new(43.99, -102.24));
        assert_ne!(t, AreaType::Urban);
        assert_eq!(t, AreaType::Suburban);
    }

    #[test]
    fn proportions_sum_to_one() {
        let c = classifier();
        let pts: Vec<GeoPoint> = (0..100)
            .map(|i| GeoPoint::new(41.0 + (i as f64) * 0.04, -100.0 + (i as f64) * 0.12))
            .collect();
        let (u, s, r) = c.proportions(&pts);
        assert!((u + s + r - 1.0).abs() < 1e-9);
    }

    #[test]
    fn proportions_of_empty_input() {
        let c = classifier();
        assert_eq!(c.proportions(&[]), (0.0, 0.0, 0.0));
    }

    #[test]
    fn classification_is_monotone_in_distance() {
        // Walking straight out of a city, classification can only move
        // Urban → Suburban → Rural.
        let c = classifier();
        let center = GeoPoint::new(43.05, -89.40); // Brewton, major city
        let mut rank_prev = 0;
        for km in [0.0, 5.0, 15.0, 30.0, 60.0, 120.0, 250.0] {
            let p = center.destination(200.0, km); // heading away from others
            let rank = match c.classify(&p) {
                AreaType::Urban => 0,
                AreaType::Suburban => 1,
                AreaType::Rural => 2,
            };
            assert!(
                rank >= rank_prev,
                "classification regressed at {km} km (rank {rank} < {rank_prev})"
            );
            rank_prev = rank;
        }
    }
}
