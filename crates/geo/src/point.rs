//! WGS-84 points, great-circle math, and ECEF conversion.

use serde::{Deserialize, Serialize};

/// Mean Earth radius in kilometres (spherical approximation, sufficient for
/// route geometry and satellite elevation at the fidelity this study needs).
pub const EARTH_RADIUS_KM: f64 = 6371.0;

/// A point on the Earth's surface in WGS-84 latitude/longitude (degrees).
///
/// Latitude is positive north, longitude positive east.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GeoPoint {
    /// Latitude in degrees, in `[-90, 90]`.
    pub lat_deg: f64,
    /// Longitude in degrees, in `[-180, 180]`.
    pub lon_deg: f64,
}

/// An Earth-centred, Earth-fixed Cartesian position in kilometres.
///
/// The +Z axis points through the north pole, +X through the intersection of
/// the equator and the prime meridian.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Ecef {
    pub x_km: f64,
    pub y_km: f64,
    pub z_km: f64,
}

impl GeoPoint {
    /// Creates a point, normalising longitude into `[-180, 180]` and
    /// clamping latitude into `[-90, 90]`.
    pub fn new(lat_deg: f64, lon_deg: f64) -> Self {
        let lat = lat_deg.clamp(-90.0, 90.0);
        let mut lon = (lon_deg + 180.0) % 360.0;
        if lon < 0.0 {
            lon += 360.0;
        }
        Self {
            lat_deg: lat,
            lon_deg: lon - 180.0,
        }
    }

    /// Great-circle (haversine) distance to `other`, in kilometres.
    pub fn distance_km(&self, other: &GeoPoint) -> f64 {
        self.distance_km_cos(self.cos_lat(), other, other.cos_lat())
    }

    /// Cosine of the latitude, as [`distance_km_cos`](Self::distance_km_cos)
    /// takes it.
    pub fn cos_lat(&self) -> f64 {
        self.lat_deg.to_radians().cos()
    }

    /// [`distance_km`](Self::distance_km) with both points' [`cos_lat`](Self::cos_lat)
    /// given, for callers that keep them: bit-identical when they are the
    /// points' own.
    pub fn distance_km_cos(&self, cos_lat1: f64, other: &GeoPoint, cos_lat2: f64) -> f64 {
        let dlat = (other.lat_deg - self.lat_deg).to_radians();
        let dlon = (other.lon_deg - self.lon_deg).to_radians();
        let a = (dlat / 2.0).sin().powi(2) + cos_lat1 * cos_lat2 * (dlon / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_KM * a.sqrt().asin()
    }

    /// Initial bearing from this point towards `other`, in degrees clockwise
    /// from north, in `[0, 360)`.
    pub fn bearing_deg(&self, other: &GeoPoint) -> f64 {
        let lat1 = self.lat_deg.to_radians();
        let lat2 = other.lat_deg.to_radians();
        let dlon = (other.lon_deg - self.lon_deg).to_radians();
        let y = dlon.sin() * lat2.cos();
        let x = lat1.cos() * lat2.sin() - lat1.sin() * lat2.cos() * dlon.cos();
        let b = y.atan2(x).to_degrees();
        (b + 360.0) % 360.0
    }

    /// The point reached by travelling `distance_km` along the great circle
    /// with the given initial `bearing_deg`.
    pub fn destination(&self, bearing_deg: f64, distance_km: f64) -> GeoPoint {
        let delta = distance_km / EARTH_RADIUS_KM;
        let theta = bearing_deg.to_radians();
        let lat1 = self.lat_deg.to_radians();
        let lon1 = self.lon_deg.to_radians();
        let lat2 = (lat1.sin() * delta.cos() + lat1.cos() * delta.sin() * theta.cos()).asin();
        let lon2 = lon1
            + (theta.sin() * delta.sin() * lat1.cos()).atan2(delta.cos() - lat1.sin() * lat2.sin());
        GeoPoint::new(lat2.to_degrees(), lon2.to_degrees())
    }

    /// Linear interpolation between two points, `t ∈ [0, 1]`.
    ///
    /// Uses the great-circle path for correctness over long segments.
    pub fn interpolate(&self, other: &GeoPoint, t: f64) -> GeoPoint {
        let t = t.clamp(0.0, 1.0);
        let d = self.distance_km(other);
        if d < 1e-9 {
            return *self;
        }
        let bearing = self.bearing_deg(other);
        self.destination(bearing, d * t)
    }

    /// Converts to ECEF at the given altitude above the spherical Earth
    /// surface, in kilometres.
    pub fn to_ecef(&self, altitude_km: f64) -> Ecef {
        let r = EARTH_RADIUS_KM + altitude_km;
        let lat = self.lat_deg.to_radians();
        let lon = self.lon_deg.to_radians();
        Ecef {
            x_km: r * lat.cos() * lon.cos(),
            y_km: r * lat.cos() * lon.sin(),
            z_km: r * lat.sin(),
        }
    }
}

impl Ecef {
    /// Euclidean distance to `other`, in kilometres.
    pub fn distance_km(&self, other: &Ecef) -> f64 {
        let dx = self.x_km - other.x_km;
        let dy = self.y_km - other.y_km;
        let dz = self.z_km - other.z_km;
        (dx * dx + dy * dy + dz * dz).sqrt()
    }

    /// Vector magnitude (distance from the Earth's centre), in kilometres.
    pub fn norm_km(&self) -> f64 {
        (self.x_km * self.x_km + self.y_km * self.y_km + self.z_km * self.z_km).sqrt()
    }

    /// Dot product with `other` (km²).
    pub fn dot(&self, other: &Ecef) -> f64 {
        self.x_km * other.x_km + self.y_km * other.y_km + self.z_km * other.z_km
    }

    /// Component-wise difference `self - other`.
    pub fn sub(&self, other: &Ecef) -> Ecef {
        Ecef {
            x_km: self.x_km - other.x_km,
            y_km: self.y_km - other.y_km,
            z_km: self.z_km - other.z_km,
        }
    }

    /// Converts back to a surface point and altitude.
    pub fn to_geo(&self) -> (GeoPoint, f64) {
        let r = self.norm_km();
        let lat = (self.z_km / r).asin().to_degrees();
        let lon = self.y_km.atan2(self.x_km).to_degrees();
        (GeoPoint::new(lat, lon), r - EARTH_RADIUS_KM)
    }

    /// Elevation angle of `target` as seen from this surface position, in
    /// degrees above the local horizon.
    ///
    /// `self` is assumed to be at or near the Earth's surface; the local
    /// vertical is the direction from the Earth's centre through `self`.
    pub fn elevation_deg_to(&self, target: &Ecef) -> f64 {
        self.elevation_deg_with_norm(self.norm_km(), target)
    }

    /// [`elevation_deg_to`](Self::elevation_deg_to) with this position's
    /// [`norm_km`](Self::norm_km) given as `up_norm`, for an observer that
    /// looks at many targets: bit-identical when `up_norm` is that norm.
    pub fn elevation_deg_with_norm(&self, up_norm: f64, target: &Ecef) -> f64 {
        let los = target.sub(self);
        let range = los.norm_km();
        if range < 1e-9 {
            return 90.0;
        }
        // sin(elevation) = (los · up) / (|los| |up|)
        let sin_el = self.dot(&los) / (up_norm * range);
        sin_el.clamp(-1.0, 1.0).asin().to_degrees()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b} (tol {tol})");
    }

    /// `distance_km` as first written, each latitude's cosine computed in
    /// place: the reference for [`GeoPoint::distance_km_cos`].
    fn distance_oracle(p: &GeoPoint, other: &GeoPoint) -> f64 {
        let lat1 = p.lat_deg.to_radians();
        let lat2 = other.lat_deg.to_radians();
        let dlat = (other.lat_deg - p.lat_deg).to_radians();
        let dlon = (other.lon_deg - p.lon_deg).to_radians();
        let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_KM * a.sqrt().asin()
    }

    /// `elevation_deg_to` as first written, the norm computed in place:
    /// the reference for [`Ecef::elevation_deg_with_norm`].
    fn elevation_oracle(gp: &Ecef, target: &Ecef) -> f64 {
        let los = target.sub(gp);
        let range = los.norm_km();
        if range < 1e-9 {
            return 90.0;
        }
        let sin_el = gp.dot(&los) / (gp.norm_km() * range);
        sin_el.clamp(-1.0, 1.0).asin().to_degrees()
    }

    proptest! {
        #[test]
        fn distance_matches_the_haversine_oracle(
            lat1 in -90.0..=90.0f64,
            lon1 in -180.0..=180.0f64,
            lat2 in -90.0..=90.0f64,
            lon2 in -180.0..=180.0f64,
        ) {
            let (p, q) = (GeoPoint::new(lat1, lon1), GeoPoint::new(lat2, lon2));
            prop_assert_eq!(p.distance_km(&q).to_bits(), distance_oracle(&p, &q).to_bits());
            prop_assert_eq!(
                p.distance_km_cos(p.cos_lat(), &q, q.cos_lat()).to_bits(),
                distance_oracle(&p, &q).to_bits()
            );
        }

        #[test]
        fn elevation_with_norm_matches_the_oracle(
            lat in -90.0..=90.0f64,
            lon in -180.0..=180.0f64,
            sat_lat in -90.0..=90.0f64,
            sat_lon in -180.0..=180.0f64,
            alt in prop_oneof![Just(0.0), Just(1e-10), 0.0..40_000.0f64],
        ) {
            let gp = GeoPoint::new(lat, lon).to_ecef(0.0);
            for target in [GeoPoint::new(sat_lat, sat_lon).to_ecef(alt), gp] {
                let want = elevation_oracle(&gp, &target).to_bits();
                prop_assert_eq!(gp.elevation_deg_to(&target).to_bits(), want);
                let with_norm = gp.elevation_deg_with_norm(gp.norm_km(), &target);
                prop_assert_eq!(with_norm.to_bits(), want);
            }
        }
    }

    #[test]
    fn distance_zero_for_same_point() {
        let p = GeoPoint::new(44.98, -93.27);
        assert_close(p.distance_km(&p), 0.0, 1e-9);
    }

    #[test]
    fn distance_msp_to_chicago_reasonable() {
        // Minneapolis to Chicago is roughly 570 km great-circle.
        let msp = GeoPoint::new(44.98, -93.27);
        let chi = GeoPoint::new(41.88, -87.63);
        let d = msp.distance_km(&chi);
        assert!((550.0..600.0).contains(&d), "got {d}");
    }

    #[test]
    fn distance_is_symmetric() {
        let a = GeoPoint::new(10.0, 20.0);
        let b = GeoPoint::new(-35.0, 140.0);
        assert_close(a.distance_km(&b), b.distance_km(&a), 1e-9);
    }

    #[test]
    fn equator_degree_of_longitude() {
        // One degree of longitude at the equator ≈ 111.2 km.
        let a = GeoPoint::new(0.0, 0.0);
        let b = GeoPoint::new(0.0, 1.0);
        assert_close(a.distance_km(&b), 111.19, 0.2);
    }

    #[test]
    fn bearing_due_north_east() {
        let a = GeoPoint::new(0.0, 0.0);
        assert_close(a.bearing_deg(&GeoPoint::new(1.0, 0.0)), 0.0, 1e-6);
        assert_close(a.bearing_deg(&GeoPoint::new(0.0, 1.0)), 90.0, 1e-6);
    }

    #[test]
    fn destination_round_trips_distance() {
        let a = GeoPoint::new(45.0, -93.0);
        let b = a.destination(73.0, 250.0);
        assert_close(a.distance_km(&b), 250.0, 1e-6);
    }

    #[test]
    fn interpolation_endpoints() {
        let a = GeoPoint::new(45.0, -93.0);
        let b = GeoPoint::new(41.88, -87.63);
        let p0 = a.interpolate(&b, 0.0);
        let p1 = a.interpolate(&b, 1.0);
        assert_close(p0.distance_km(&a), 0.0, 1e-6);
        assert_close(p1.distance_km(&b), 0.0, 1e-6);
    }

    #[test]
    fn interpolation_midpoint_is_equidistant() {
        let a = GeoPoint::new(45.0, -93.0);
        let b = GeoPoint::new(41.88, -87.63);
        let m = a.interpolate(&b, 0.5);
        assert_close(m.distance_km(&a), m.distance_km(&b), 1e-6);
    }

    #[test]
    fn ecef_surface_norm() {
        let p = GeoPoint::new(37.0, -122.0).to_ecef(0.0);
        assert_close(p.norm_km(), EARTH_RADIUS_KM, 1e-9);
    }

    #[test]
    fn ecef_altitude() {
        let p = GeoPoint::new(0.0, 0.0).to_ecef(550.0);
        assert_close(p.norm_km(), EARTH_RADIUS_KM + 550.0, 1e-9);
    }

    #[test]
    fn ecef_round_trip() {
        let g = GeoPoint::new(33.5, -111.9);
        let (back, alt) = g.to_ecef(12.3).to_geo();
        assert_close(back.lat_deg, g.lat_deg, 1e-9);
        assert_close(back.lon_deg, g.lon_deg, 1e-9);
        assert_close(alt, 12.3, 1e-9);
    }

    #[test]
    fn elevation_straight_up_is_90() {
        let ground = GeoPoint::new(45.0, -93.0);
        let e = ground.to_ecef(0.0).elevation_deg_to(&ground.to_ecef(550.0));
        assert_close(e, 90.0, 1e-6);
    }

    #[test]
    fn elevation_far_satellite_is_below_horizon() {
        // A satellite on the opposite side of the Earth is not visible.
        let ground = GeoPoint::new(0.0, 0.0).to_ecef(0.0);
        let sat = GeoPoint::new(0.0, 180.0).to_ecef(550.0);
        assert!(ground.elevation_deg_to(&sat) < 0.0);
    }

    #[test]
    fn longitude_normalisation() {
        let p = GeoPoint::new(10.0, 190.0);
        assert_close(p.lon_deg, -170.0, 1e-9);
        let q = GeoPoint::new(10.0, -190.0);
        assert_close(q.lon_deg, 170.0, 1e-9);
    }
}
