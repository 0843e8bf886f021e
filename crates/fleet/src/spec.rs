//! Declarative fleet population specs.
//!
//! A [`FleetSpec`] describes a *population*, not a trajectory: how many
//! users, where they live (region mix over [`AreaType`]s), how they move
//! (drive vs stationary), which networks they subscribe to, and what
//! weather their sessions see. The engine expands it deterministically —
//! every user is a pure function of `(spec.seed, user index)` — so two
//! machines given the same spec produce byte-identical aggregates.

use leo_dataset::campaign::WeatherMix;
use leo_dataset::record::NetworkId;
use leo_geo::area::AreaType;
use leo_scenario::spec::Perturbation;
use serde::{Deserialize, Serialize};

/// Region mix: relative weights over [`AreaType::ALL`]. Zero-weight
/// areas receive no users; the total must be positive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AreaMix {
    pub urban: u32,
    pub suburban: u32,
    pub rural: u32,
}

impl Default for AreaMix {
    /// Roughly the drive campaign's exposure: a third urban, the rest
    /// split between suburban corridors and open rural stretches.
    fn default() -> Self {
        Self {
            urban: 30,
            suburban: 34,
            rural: 36,
        }
    }
}

impl AreaMix {
    /// Weights in [`AreaType::ALL`] order (Urban, Suburban, Rural).
    pub fn weights(&self) -> [u32; 3] {
        [self.urban, self.suburban, self.rural]
    }

    /// Sum of all weights.
    pub fn total(&self) -> u64 {
        self.weights().iter().map(|&w| w as u64).sum()
    }
}

/// Network subscription mix: relative weights over [`NetworkId::ALL`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetworkMix {
    pub att: u32,
    pub tmobile: u32,
    pub verizon: u32,
    pub roam: u32,
    pub mobility: u32,
}

impl Default for NetworkMix {
    /// An even five-way split: every network sees every area type, which
    /// is what the §5 availability comparison needs.
    fn default() -> Self {
        Self {
            att: 1,
            tmobile: 1,
            verizon: 1,
            roam: 1,
            mobility: 1,
        }
    }
}

impl NetworkMix {
    /// Weights in [`NetworkId::ALL`] order (ATT, TM, VZ, RM, MOB).
    pub fn weights(&self) -> [u32; 5] {
        [
            self.att,
            self.tmobile,
            self.verizon,
            self.roam,
            self.mobility,
        ]
    }

    /// Sum of all weights.
    pub fn total(&self) -> u64 {
        self.weights().iter().map(|&w| w as u64).sum()
    }
}

fn default_drive_tenths() -> u8 {
    4
}

fn default_stagger_s() -> u32 {
    3600
}

fn default_bucket_km() -> f64 {
    2.0
}

fn default_shard_users() -> u32 {
    512
}

/// A fleet-scale campaign description.
///
/// Serializable so scenario files can carry fleet populations the same
/// way they carry campaign overrides. Build one via [`FleetSpec::new`]
/// (which fills every tuning knob with its default) and override what
/// you need; serialized specs carry every field explicitly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetSpec {
    /// Human-readable spec name (labels reports and digests).
    pub name: String,
    /// Root seed; every user derives an independent stream from it.
    pub seed: u64,
    /// Number of concurrent user sessions.
    pub users: u64,
    /// Per-user session length, seconds.
    pub session_s: u32,
    /// Region mix over area types.
    pub area_mix: AreaMix,
    /// Network subscription mix.
    pub network_mix: NetworkMix,
    /// Out of every ten users, how many are driving (the rest are
    /// stationary — parked dishes, home gateways).
    pub drive_tenths: u8,
    /// Weather mix, reusing the campaign semantics per user session.
    pub weather: WeatherMix,
    /// Session start times are staggered uniformly over `[0, stagger_s)`
    /// so the fleet samples different constellation geometry.
    pub stagger_s: u32,
    /// Geo-cell edge length for spatial bucketing, km. Users in the same
    /// bucket share a pooled searcher's pruning state; the default
    /// matches the searcher's observer-movement rebuild budget.
    pub bucket_km: f64,
    /// Users per execution shard. Sharding is part of the determinism
    /// contract (aggregates fold per shard, then merge in shard order),
    /// so changing this *is allowed to* change low-order float bits —
    /// changing the thread count is not.
    pub shard_users: u32,
    /// Optional faults applied to every matching user session, with
    /// windows resolved against the session timeline.
    pub perturbations: Vec<Perturbation>,
}

impl FleetSpec {
    /// A minimal well-formed spec; callers override what they need.
    pub fn new(name: &str, seed: u64, users: u64, session_s: u32) -> Self {
        Self {
            name: name.to_string(),
            seed,
            users,
            session_s,
            area_mix: AreaMix::default(),
            network_mix: NetworkMix::default(),
            drive_tenths: default_drive_tenths(),
            weather: WeatherMix::default(),
            stagger_s: default_stagger_s(),
            bucket_km: default_bucket_km(),
            shard_users: default_shard_users(),
            perturbations: Vec::new(),
        }
    }

    /// The canonical 1,000-user fleet: the conformance golden, the
    /// thread-invariance tests, and the bench cross-check all run this
    /// exact population.
    pub fn canonical_1k() -> Self {
        Self::new("canonical-1k", 0xf1ee_2023, 1000, 60)
    }

    /// Checks that the spec can be expanded; the error lists every
    /// violated field.
    pub fn validate(&self) -> Result<(), FleetSpecError> {
        let checks = [
            (self.users >= 1, "users", "at least one user"),
            (self.session_s >= 1, "session_s", "at least one second"),
            (
                self.area_mix.total() > 0,
                "area_mix",
                "a positive total weight",
            ),
            (
                self.network_mix.total() > 0,
                "network_mix",
                "a positive total weight",
            ),
            (
                self.bucket_km.is_finite() && self.bucket_km > 0.0,
                "bucket_km",
                "a positive finite length",
            ),
            (self.shard_users >= 1, "shard_users", "at least one user"),
        ];
        let violations: Vec<_> = checks
            .into_iter()
            .filter(|(ok, ..)| !ok)
            .map(|(_, field, needs)| (field, needs))
            .collect();
        if violations.is_empty() {
            Ok(())
        } else {
            Err(FleetSpecError { violations })
        }
    }

    /// The area for a weighted draw in `[0, area_mix.total())`.
    pub(crate) fn area_for(&self, draw: u64) -> AreaType {
        pick_weighted(&self.area_mix.weights(), draw, &AreaType::ALL)
    }

    /// The network for a weighted draw in `[0, network_mix.total())`.
    pub(crate) fn network_for(&self, draw: u64) -> NetworkId {
        pick_weighted(&self.network_mix.weights(), draw, &NetworkId::ALL)
    }
}

/// Why a [`FleetSpec`] cannot be expanded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetSpecError {
    /// Each violated field with what it needs, in declaration order.
    pub violations: Vec<(&'static str, &'static str)>,
}

impl std::fmt::Display for FleetSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid fleet spec:")?;
        for (i, (field, needs)) in self.violations.iter().enumerate() {
            let sep = if i == 0 { " " } else { "; " };
            write!(f, "{sep}{field} needs {needs}")?;
        }
        Ok(())
    }
}

impl std::error::Error for FleetSpecError {}

/// Walks the cumulative weights; `draw` must be below their total.
fn pick_weighted<T: Copy, const N: usize>(weights: &[u32; N], draw: u64, items: &[T; N]) -> T {
    let mut acc = 0u64;
    for (i, &w) in weights.iter().enumerate() {
        acc += w as u64;
        if draw < acc {
            return items[i];
        }
    }
    unreachable!("draw {draw} outside weight total {acc}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_spec_is_valid_and_stable() {
        let s = FleetSpec::canonical_1k();
        assert_eq!(s.validate(), Ok(()));
        assert_eq!(s.users, 1000);
        assert_eq!(s.session_s, 60);
        assert_eq!(s.seed, 0xf1ee_2023);
    }

    #[test]
    fn validation_lists_every_violated_field() {
        let mut s = FleetSpec::new("bad", 1, 0, 0);
        s.area_mix = AreaMix {
            urban: 0,
            suburban: 0,
            rural: 0,
        };
        s.bucket_km = f64::NAN;
        s.shard_users = 0;
        let err = s.validate().unwrap_err();
        let fields: Vec<&str> = err.violations.iter().map(|(f, _)| *f).collect();
        assert_eq!(
            fields,
            ["users", "session_s", "area_mix", "bucket_km", "shard_users"]
        );
        assert_eq!(
            err.to_string(),
            "invalid fleet spec: users needs at least one user; session_s needs at least \
             one second; area_mix needs a positive total weight; bucket_km needs a positive \
             finite length; shard_users needs at least one user"
        );
        for bucket_km in [0.0, -2.0, f64::INFINITY] {
            let mut s = FleetSpec::canonical_1k();
            s.bucket_km = bucket_km;
            let err = s.validate().unwrap_err();
            assert_eq!(err.violations, [("bucket_km", "a positive finite length")]);
        }
        let mut s = FleetSpec::canonical_1k();
        s.network_mix = NetworkMix {
            att: 0,
            tmobile: 0,
            verizon: 0,
            roam: 0,
            mobility: 0,
        };
        let err = s.validate().unwrap_err();
        assert_eq!(err.violations, [("network_mix", "a positive total weight")]);
    }

    #[test]
    fn weighted_picks_partition_the_draw_space() {
        let s = FleetSpec::canonical_1k();
        let mut area_counts = [0u64; 3];
        for d in 0..s.area_mix.total() {
            let a = s.area_for(d);
            let i = AreaType::ALL.iter().position(|&x| x == a).unwrap();
            area_counts[i] += 1;
        }
        assert_eq!(area_counts, [30u64, 34, 36]);
        let mut net_counts = [0u64; 5];
        for d in 0..s.network_mix.total() {
            let n = s.network_for(d);
            let i = NetworkId::ALL.iter().position(|&x| x == n).unwrap();
            net_counts[i] += 1;
        }
        assert_eq!(net_counts, [1u64; 5]);
    }

    #[test]
    fn spec_roundtrips_through_json() {
        let mut s = FleetSpec::canonical_1k();
        s.perturbations = vec![crate::spec::Perturbation::RainFade {
            window: leo_scenario::spec::Window::frac(0.1, 0.6),
            networks: leo_scenario::spec::NetworkSelector::Starlink,
            capacity_factor: 0.7,
        }];
        let json = serde_json::to_string(&s).unwrap();
        let back: FleetSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
        assert_eq!(back.area_mix, AreaMix::default());
        assert_eq!(back.shard_users, 512);
    }
}
