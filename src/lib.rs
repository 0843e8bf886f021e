//! `leo-cell` — umbrella crate for the reproduction of *LEO Satellite vs.
//! Cellular Networks: Exploring the Potential for Synergistic Integration*
//! (CoNEXT Companion '23).
//!
//! This crate re-exports every subsystem so examples and downstream users
//! can depend on a single crate:
//!
//! * [`geo`] — geodesy, routes, places, area classification
//! * [`orbit`] — Starlink-like LEO constellation, visibility, dish plans
//! * [`cellular`] — carrier deployments, path loss, RAT selection
//! * [`link`] — link-condition time series and Mahimahi-format traces
//! * [`netsim`] — deterministic discrete-event emulator (MpShell substitute)
//! * [`transport`] — TCP (Reno/CUBIC), UDP, parallel TCP, MPTCP + schedulers
//! * [`measure`] — iPerf-like, UDP-Ping, and tracker measurement tools
//! * [`dataset`] — the synthetic driving-campaign dataset
//! * [`analysis`] — CDFs, coverage levels, box stats, terminal plots
//! * [`core`] — one module per paper figure, regenerating each experiment
//! * [`scenario`] — declarative what-if campaigns: fault injection and a
//!   deterministic parallel sweep runner
//! * [`fleet`] — fleet-scale campaigns: 10⁵–10⁶ concurrent user sessions
//!   over shared orbital state with streaming aggregates
//! * [`service`] — the resident measurement plane: deterministic probe
//!   scheduling + online anomaly detection over simulated multi-day
//!   horizons
//! * [`conformance`] — simulation invariants, golden digests, and the
//!   seeded schedule fuzzer guarding all of the above
//! * [`obs`] — zero-cost-when-off observability: metrics, span timers,
//!   and JSON run reports (`LEO_OBS=1`)
//! * [`cli`] — the examples' shared flag parser
//!
//! See `examples/quickstart.rs` for a five-minute tour.

pub use leo_analysis as analysis;
pub use leo_cellular as cellular;
pub use leo_conformance as conformance;
pub use leo_core as core;
pub use leo_dataset as dataset;
pub use leo_fleet as fleet;
pub use leo_geo as geo;
pub use leo_link as link;
pub use leo_measure as measure;
pub use leo_netsim as netsim;
pub use leo_obs as obs;
pub use leo_orbit as orbit;
pub use leo_scenario as scenario;
pub use leo_service as service;
pub use leo_train as train;
pub use leo_transport as transport;

pub mod cli;
