//! Fleet-scale campaign engine: 10⁵–10⁶ concurrent user sessions over
//! shared orbital state.
//!
//! The measurement campaign (`leo-dataset`) simulates *one* vehicle with
//! per-test fidelity. The paper's synergy argument (§5, §7) is about
//! *populations*: what fraction of users — urban and rural, driving and
//! stationary, across carriers and Starlink plans — sees each coverage
//! level? Answering that needs fleet cardinality, which per-user world
//! construction cannot reach: building a propagation table or a cellular
//! deployment per user is O(users × world).
//!
//! This crate factors the world out of the user:
//!
//! * [`spec`] — serializable [`FleetSpec`] populations (region mix,
//!   drive/stationary profiles, network mix, weather, faults),
//! * [`population`] — deterministic per-user synthesis from
//!   `(fleet seed, user index)`,
//! * [`engine`] — the sharded, geo-bucketed, searcher-pooling executor
//!   with the workspace determinism contract: aggregates are
//!   byte-identical at any `LEO_CAMPAIGN_THREADS`,
//! * [`aggregate`] — streaming [`UserRecord`]s and fixed-size
//!   (network × area) [`FleetAggregate`] accumulators, so memory stays
//!   bounded per worker regardless of fleet size.

pub mod aggregate;
pub mod engine;
pub mod population;
pub mod spec;

pub use aggregate::{CellAgg, FleetAggregate, UserRecord};
pub use engine::{FleetEngine, FleetWorld};
pub use population::{build_samples, synthesize, user_seed, UserProfile};
pub use spec::{AreaMix, FleetSpec, FleetSpecError, NetworkMix};
