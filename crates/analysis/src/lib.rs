//! Analysis toolkit for the leo-cell measurement study.
//!
//! Pure statistics and rendering over plain numeric series — this crate
//! knows nothing about satellites or carriers, so every function here is
//! directly unit- and property-testable:
//!
//! * [`cdf`] — empirical distribution functions and quantiles (the paper's
//!   Figures 3 and 4 are CDF plots),
//! * [`stats`] — box statistics, means, improvement percentages,
//! * [`coverage`] — the §5.2 performance levels (<20 / 20–50 / 50–100 /
//!   >100 Mbps), per-network coverage proportions, and best-of-network
//!   > combination (BestCL, RM+CL, MOB+CL),
//! * [`render`] — terminal renderers: CDF plots, bar charts, box rows, and
//!   the Figure 1 heat strips.

pub mod apps;
pub mod cdf;
pub mod coverage;
pub mod render;
pub mod stats;

pub use apps::{default_catalogue, satisfaction, satisfaction_table, AppRequirement};
pub use cdf::Cdf;
pub use coverage::{best_of, coverage_proportions, CoverageLevel};
pub use render::{render_bars, render_box_row, render_cdf, render_heat_strip};
pub use stats::{improvement_pct, mean, BoxStats};
