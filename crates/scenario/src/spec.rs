//! Declarative scenario specifications.
//!
//! A [`ScenarioSpec`] is a serializable description of one what-if
//! experiment: how the base campaign is re-parameterised
//! ([`CampaignOverrides`]) and which faults are injected into the
//! per-second condition series ([`Perturbation`]). Specs are plain data —
//! JSON in, JSON out — so campaigns can be version-controlled, diffed,
//! and shared; the [`crate::runner::ScenarioRunner`] turns them into
//! measured outcomes.

use leo_dataset::campaign::{CampaignConfig, WeatherMix};
use leo_dataset::record::NetworkId;
use leo_geo::area::AreaType;
use serde::{Deserialize, Serialize};

/// A time window expressed as fractions of the campaign timeline, so one
/// spec works unchanged at every `--scale`.
///
/// `start_frac`/`end_frac` are clamped to `[0, 1]` and the window is
/// empty when inverted; [`Window::bounds_s`] resolves the fractions
/// against a concrete timeline length.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Window {
    pub start_frac: f64,
    pub end_frac: f64,
}

impl Window {
    /// The whole campaign.
    pub const ALL: Window = Window {
        start_frac: 0.0,
        end_frac: 1.0,
    };

    /// A window from `start_frac` to `end_frac` of the timeline.
    pub fn frac(start_frac: f64, end_frac: f64) -> Self {
        Self {
            start_frac,
            end_frac,
        }
    }

    /// Resolves the window against a timeline of `timeline_s` seconds,
    /// returning half-open second bounds `[start, end)`.
    ///
    /// A fractionally non-empty window (`end_frac > start_frac` after
    /// clamping) always resolves to at least one second on a non-empty
    /// timeline: rounding both endpoints to the same second widens the
    /// result to a single sample instead of silently no-opping the
    /// perturbation (e.g. `frac(0.2, 0.4)` on a 1-second timeline).
    /// Inverted windows stay empty.
    pub fn bounds_s(&self, timeline_s: u64) -> (u64, u64) {
        let clamp = |f: f64| (f.clamp(0.0, 1.0) * timeline_s as f64).round() as u64;
        let mut start = clamp(self.start_frac).min(timeline_s);
        let mut end = clamp(self.end_frac).max(start).min(timeline_s);
        let nonempty_frac = self.end_frac.clamp(0.0, 1.0) > self.start_frac.clamp(0.0, 1.0);
        if end == start && nonempty_frac && timeline_s > 0 {
            if start < timeline_s {
                end = start + 1;
            } else {
                start = timeline_s - 1;
            }
        }
        (start, end)
    }
}

/// Which networks a perturbation hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NetworkSelector {
    /// Every network in the campaign.
    All,
    /// Both Starlink service plans (Roam and Mobility).
    Starlink,
    /// The three cellular carriers.
    Cellular,
    /// Exactly one network.
    One(NetworkId),
}

impl NetworkSelector {
    /// Does the selector cover `network`?
    pub fn matches(&self, network: NetworkId) -> bool {
        match self {
            NetworkSelector::All => true,
            NetworkSelector::Starlink => network.is_starlink(),
            NetworkSelector::Cellular => !network.is_starlink(),
            NetworkSelector::One(n) => *n == network,
        }
    }
}

/// One scheduled fault on the per-second condition series.
///
/// Perturbations rewrite the aligned [`leo_link::trace::LinkTrace`]s of
/// the selected networks inside their window; the campaign's tests are
/// then re-run against the degraded world, so every downstream figure
/// and metric observes the fault.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Perturbation {
    /// Rain fade: link capacity scaled by `capacity_factor` (§3.3 found
    /// both Starlink plans visibly weather-sensitive).
    RainFade {
        window: Window,
        networks: NetworkSelector,
        capacity_factor: f64,
    },
    /// Hard outage: the selected networks deliver nothing in the window.
    Outage {
        window: Window,
        networks: NetworkSelector,
    },
    /// Additive random-loss burst (interference, congested backhaul).
    LossBurst {
        window: Window,
        networks: NetworkSelector,
        extra_loss: f64,
    },
    /// Latency spike: `extra_ms` added to every RTT in the window.
    RttSpike {
        window: Window,
        networks: NetworkSelector,
        extra_ms: f64,
    },
    /// A train of short handover stalls: every `period_s` seconds the
    /// link collapses for `stall_s` seconds (capacity ×0.05, +25 % loss,
    /// +150 ms RTT) — the §4/§5 satellite-handover signature, densified.
    HandoverStorm {
        window: Window,
        networks: NetworkSelector,
        period_s: u64,
        stall_s: u64,
    },
}

impl Perturbation {
    /// The perturbation's window.
    pub fn window(&self) -> Window {
        match self {
            Perturbation::RainFade { window, .. }
            | Perturbation::Outage { window, .. }
            | Perturbation::LossBurst { window, .. }
            | Perturbation::RttSpike { window, .. }
            | Perturbation::HandoverStorm { window, .. } => *window,
        }
    }

    /// The perturbation's network selector.
    pub fn networks(&self) -> NetworkSelector {
        match self {
            Perturbation::RainFade { networks, .. }
            | Perturbation::Outage { networks, .. }
            | Perturbation::LossBurst { networks, .. }
            | Perturbation::RttSpike { networks, .. }
            | Perturbation::HandoverStorm { networks, .. } => *networks,
        }
    }
}

/// Re-parameterisation of the base campaign before perturbations apply.
///
/// `None` fields inherit from the runner's base configuration, so most
/// scenarios override nothing and share one generated campaign.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CampaignOverrides {
    pub seed: Option<u64>,
    pub scale: Option<f64>,
    pub weather: Option<WeatherMix>,
    pub area: Option<AreaType>,
}

impl CampaignOverrides {
    /// Does the spec borrow the runner's shared base campaign, rather
    /// than need a campaign of its own?
    pub fn is_empty(&self) -> bool {
        *self == CampaignOverrides::default()
    }

    /// The concrete configuration: `base` with the overrides applied.
    pub fn apply(&self, base: &CampaignConfig) -> CampaignConfig {
        CampaignConfig {
            seed: self.seed.unwrap_or(base.seed),
            scale: self.scale.unwrap_or(base.scale),
            weather: self.weather.unwrap_or(base.weather),
            area_override: self.area.or(base.area_override),
            ..base.clone()
        }
    }
}

/// One named what-if experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Unique name, used in reports and `--only` filters.
    pub name: String,
    /// One-line description for the report table.
    pub description: String,
    /// Campaign re-parameterisation (empty = reuse the shared base).
    pub overrides: CampaignOverrides,
    /// Faults injected into the condition series, applied in order.
    pub perturbations: Vec<Perturbation>,
    /// Also run the §6 MPTCP graceful-degradation emulation for this
    /// scenario (packet-level, so opt-in per scenario).
    pub emulate: bool,
}

impl ScenarioSpec {
    /// A no-fault scenario with the given name.
    pub fn named(name: impl Into<String>, description: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            description: description.into(),
            overrides: CampaignOverrides::default(),
            perturbations: Vec::new(),
            emulate: false,
        }
    }

    /// Adds a perturbation (builder style).
    pub fn with(mut self, p: Perturbation) -> Self {
        self.perturbations.push(p);
        self
    }

    /// Serializes the spec to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("spec serializes")
    }

    /// Parses a spec from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_bounds_clamp_and_order() {
        assert_eq!(Window::ALL.bounds_s(100), (0, 100));
        assert_eq!(Window::frac(0.25, 0.55).bounds_s(1000), (250, 550));
        // Inverted and out-of-range windows degrade to empty / clamped.
        assert_eq!(Window::frac(0.8, 0.2).bounds_s(100), (80, 80));
        assert_eq!(Window::frac(-3.0, 7.0).bounds_s(100), (0, 100));
    }

    #[test]
    fn nonempty_fractional_window_never_rounds_to_empty() {
        // Pre-fix, both endpoints rounded to the same second and the
        // perturbation silently no-opped: frac(0.2, 0.4) on a 1 s timeline
        // gave (0, 0).
        assert_eq!(Window::frac(0.2, 0.4).bounds_s(1), (0, 1));
        // Both endpoints round to 1 on a 2 s timeline (0.9 and 1.1).
        assert_eq!(Window::frac(0.45, 0.55).bounds_s(2), (1, 2));
        // Both endpoints round to the timeline end: widen backwards.
        assert_eq!(Window::frac(0.9, 1.0).bounds_s(1), (0, 1));
        // Inverted windows remain empty — widening is only for windows
        // that are non-degenerate in fraction space...
        assert_eq!(Window::frac(0.4, 0.2).bounds_s(1), (0, 0));
        // ...as are zero-width ones and empty timelines.
        assert_eq!(Window::frac(0.3, 0.3).bounds_s(100), (30, 30));
        assert_eq!(Window::frac(0.2, 0.4).bounds_s(0), (0, 0));
    }

    #[test]
    fn selector_matches_the_right_networks() {
        use NetworkId::*;
        for n in NetworkId::ALL {
            assert!(NetworkSelector::All.matches(n));
            assert_eq!(NetworkSelector::Starlink.matches(n), n.is_starlink());
            assert_eq!(NetworkSelector::Cellular.matches(n), !n.is_starlink());
        }
        assert!(NetworkSelector::One(Verizon).matches(Verizon));
        assert!(!NetworkSelector::One(Verizon).matches(Att));
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = ScenarioSpec {
            name: "storm".into(),
            description: "a storm".into(),
            overrides: CampaignOverrides {
                seed: Some(7),
                scale: None,
                weather: Some(WeatherMix {
                    rain_tenths: 7,
                    snow_tenths: 1,
                }),
                area: Some(AreaType::Urban),
            },
            perturbations: vec![
                Perturbation::RainFade {
                    window: Window::frac(0.3, 0.6),
                    networks: NetworkSelector::Starlink,
                    capacity_factor: 0.55,
                },
                Perturbation::Outage {
                    window: Window::ALL,
                    networks: NetworkSelector::One(NetworkId::TMobile),
                },
                Perturbation::HandoverStorm {
                    window: Window::ALL,
                    networks: NetworkSelector::Starlink,
                    period_s: 45,
                    stall_s: 5,
                },
            ],
            emulate: true,
        };
        let json = spec.to_json();
        let back = ScenarioSpec::from_json(&json).expect("round trip");
        assert_eq!(spec, back);
    }

    #[test]
    fn empty_overrides_reuse_the_base_config() {
        let base = CampaignConfig::small();
        let o = CampaignOverrides::default();
        assert!(o.is_empty());
        let applied = o.apply(&base);
        assert_eq!(applied.seed, base.seed);
        assert_eq!(applied.scale, base.scale);
        let o2 = CampaignOverrides {
            scale: Some(0.5),
            ..Default::default()
        };
        assert!(!o2.is_empty());
        assert_eq!(o2.apply(&base).scale, 0.5);
        assert_eq!(o2.apply(&base).seed, base.seed);
    }
}
