//! The synthetic driving-campaign dataset.
//!
//! §3.3 of the paper: "Our driving trip yields a unique driving dataset,
//! containing 1,239 network tests and 9,083 minutes of traces. Our field
//! trip covers a total travel distance of over 3,800 km." The original
//! dataset is field-collected and not reproducible without the hardware;
//! this crate regenerates its *structure* from the simulated world:
//!
//! * [`tour`] — the five-state grand-tour route (interstates between
//!   cities, arterial approaches, urban loops, a deep-rural excursion),
//! * [`campaign`] — drives the tour at 1 Hz, generates aligned link traces
//!   for all five networks (Starlink Roam + Mobility, AT&T, T-Mobile,
//!   Verizon, both directions), schedules the 1,239 tests, and runs them
//!   through `leo-measure`,
//! * [`record`] — the per-test record schema,
//! * [`io`] — CSV and JSON import/export,
//! * [`summary`] — the §3.3 dataset summary.

pub mod campaign;
pub mod io;
pub mod record;
pub mod sink;
pub mod summary;
pub mod tour;

pub use campaign::{campaign_threads, Campaign, CampaignConfig, CampaignSet, WeatherMix};
pub use record::{DriveRecord, NetworkId, TestKind};
pub use sink::{CountingSink, RecordSink};
pub use summary::DatasetSummary;
pub use tour::grand_tour;
