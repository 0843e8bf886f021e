//! The orbit fast path: precomputed propagation tables, analytic plane
//! pruning, and a time-coherent visibility searcher.
//!
//! [`crate::visibility::visible_satellites`] propagates **every** satellite
//! of the constellation — 1,584 for shell 1, 4,236 for the full
//! first-generation Starlink — through five `sin_cos` pairs per query, and
//! its z-band prefilter only runs *after* the full `position_ecef` it was
//! meant to avoid. That scan sits under the Starlink link model, pass
//! prediction, and therefore every campaign and scenario sweep. This module
//! indexes the geometry instead (the approach that lets constellation-scale
//! simulators like Hypatia scale), in three layers:
//!
//! 1. **[`PropagationTable`]** — a structure-of-arrays table built once per
//!    [`Constellation`]: per-plane RAAN sine/cosine, per-satellite initial
//!    argument of latitude, per-shell inclination sine/cosine and mean
//!    motion. Propagating one candidate then costs a single `sin_cos` plus
//!    a handful of multiply-adds, and the Earth-rotation angle is shared by
//!    every satellite of a query instead of being recomputed per satellite.
//!
//! 2. **Analytic plane pruning** — for a ground point and elevation mask,
//!    an entire orbital plane is rejected when the observer's angular
//!    distance to the plane's great circle exceeds the central-angle bound
//!    for the shell; within surviving planes the argument-of-latitude
//!    window that can clear the mask maps to a contiguous slot range. This
//!    shrinks candidates from O(total satellites) to O(visible
//!    neighbourhood) — typically a few dozen.
//!
//! 3. **[`VisibilitySearcher`]** — a stateful searcher exploiting the
//!    temporal coherence of 1 Hz drive sampling: the pruning windows are
//!    padded by the worst-case drift over a short horizon (satellite mean
//!    motion, Earth rotation, observer movement budget) and reused across
//!    consecutive queries, so steady-state queries skip even the O(planes)
//!    window rebuild.
//!
//! **Exactness contract:** every layer evaluates the *same* floating-point
//! expressions as [`Constellation::position_ecef`] and
//! [`crate::visibility::visible_satellites`] on the candidates it retains,
//! and the pruning bounds are conservative (the analytic bound plus explicit
//! pads), so the fast path returns results **bit-for-bit equal** to the
//! naive scan. The naive path stays in [`crate::visibility`] as the test
//! oracle; equivalence is pinned by unit tests here and property tests in
//! `tests/fastpath_equivalence.rs`.

use crate::constellation::{Constellation, Satellite, SIDEREAL_DAY_S};
use crate::visibility::SatView;
use leo_geo::point::{Ecef, GeoPoint, EARTH_RADIUS_KM};
use std::f64::consts::PI;
use std::sync::Arc;

/// Earth's sidereal rotation rate, rad/s.
const EARTH_RATE_RAD_S: f64 = 2.0 * PI / SIDEREAL_DAY_S;

/// Fixed angular pad (rad) absorbing floating-point noise in the analytic
/// pruning bounds. The underlying spherical geometry is exact; accumulated
/// FP error is ~1e-8 rad, so one millirad is a ≥10⁴× safety margin.
const FP_PAD_RAD: f64 = 1e-3;

/// Extra slack (in slot-index units) when rounding an argument-of-latitude
/// window outward to whole slots.
const SLOT_EPS: f64 = 1e-9;

/// Per-shell propagation constants.
#[derive(Debug, Clone)]
struct ShellRow {
    /// Orbital radius, km.
    r_km: f64,
    sin_i: f64,
    cos_i: f64,
    /// Mean motion, rad/s.
    mean_motion: f64,
    sats_per_plane: u32,
    /// Index of this shell's first plane in `PropagationTable::planes`.
    plane_start: usize,
}

/// Per-plane propagation constants.
#[derive(Debug, Clone)]
struct PlaneRow {
    shell: u16,
    plane: u16,
    sin_raan: f64,
    cos_raan: f64,
    /// Global index of this plane's slot-0 satellite in `u0`.
    sat_start: usize,
}

/// Structure-of-arrays propagation table for one [`Constellation`].
///
/// Built once (O(total satellites) with a few trig calls per plane), then
/// every [`position_ecef`](Self::position_ecef) is one `sin_cos` plus fused
/// multiply-adds — and returns **exactly** the same bits as
/// [`Constellation::position_ecef`].
#[derive(Debug, Clone)]
pub struct PropagationTable {
    shells: Vec<ShellRow>,
    planes: Vec<PlaneRow>,
    /// Initial argument of latitude per satellite, indexed by global
    /// satellite index (shells, then planes, then slots — the same order as
    /// [`Constellation::satellites`]).
    u0: Vec<f64>,
}

/// The Earth-rotation angle at `t_s`, as `(sin θ, cos θ)` — shared across
/// all satellites of one query instead of recomputed per satellite.
#[inline]
pub fn earth_rotation(t_s: f64) -> (f64, f64) {
    // Must match `Constellation::position_ecef` bit-for-bit.
    let theta = 2.0 * PI * t_s / SIDEREAL_DAY_S;
    theta.sin_cos()
}

impl PropagationTable {
    /// Precomputes the table for `constellation`.
    pub fn new(constellation: &Constellation) -> Self {
        let mut shells = Vec::with_capacity(constellation.shells().len());
        let mut planes = Vec::new();
        let mut u0 = Vec::with_capacity(constellation.total_sats() as usize);
        for (si, sh) in constellation.shells().iter().enumerate() {
            let n_total = sh.total_sats() as f64;
            let (sin_i, cos_i) = sh.inclination_deg.to_radians().sin_cos();
            shells.push(ShellRow {
                r_km: sh.orbit_radius_km(),
                sin_i,
                cos_i,
                mean_motion: 2.0 * PI / sh.period_s(),
                sats_per_plane: sh.sats_per_plane,
                plane_start: planes.len(),
            });
            for p in 0..sh.planes {
                // Identical expressions to `Constellation::position_ecef`,
                // evaluated once here instead of per query.
                let raan = 2.0 * PI * p as f64 / sh.planes as f64;
                let (sin_raan, cos_raan) = raan.sin_cos();
                planes.push(PlaneRow {
                    shell: si as u16,
                    plane: p as u16,
                    sin_raan,
                    cos_raan,
                    sat_start: u0.len(),
                });
                for k in 0..sh.sats_per_plane {
                    u0.push(
                        2.0 * PI
                            * (k as f64 / sh.sats_per_plane as f64
                                + sh.phase_factor as f64 * p as f64 / n_total),
                    );
                }
            }
        }
        Self { shells, planes, u0 }
    }

    /// Total satellites in the table.
    pub fn total_sats(&self) -> usize {
        self.u0.len()
    }

    /// ECEF position of `sat` at `t_s` — bit-identical to
    /// [`Constellation::position_ecef`], at a fifth of the trig cost.
    #[inline]
    pub fn position_ecef(&self, sat: Satellite, t_s: f64) -> Ecef {
        let (sin_t, cos_t) = earth_rotation(t_s);
        self.position_with_rotation(sat, t_s, sin_t, cos_t)
    }

    /// Like [`position_ecef`](Self::position_ecef) but with the Earth
    /// rotation precomputed by [`earth_rotation`], for sweeps that place
    /// many satellites at one instant.
    #[inline]
    pub fn position_with_rotation(&self, sat: Satellite, t_s: f64, sin_t: f64, cos_t: f64) -> Ecef {
        let shell = &self.shells[sat.shell as usize];
        let plane = &self.planes[shell.plane_start + sat.plane as usize];
        self.position_inner(
            shell,
            plane,
            plane.sat_start + sat.slot as usize,
            t_s,
            sin_t,
            cos_t,
        )
    }

    #[inline]
    fn position_inner(
        &self,
        shell: &ShellRow,
        plane: &PlaneRow,
        sat_idx: usize,
        t_s: f64,
        sin_t: f64,
        cos_t: f64,
    ) -> Ecef {
        // Same operation order as `Constellation::position_ecef` so the
        // result is bit-for-bit identical.
        let u = self.u0[sat_idx] + shell.mean_motion * t_s;
        let (sin_u, cos_u) = u.sin_cos();
        let x_i = shell.r_km * (plane.cos_raan * cos_u - plane.sin_raan * sin_u * shell.cos_i);
        let y_i = shell.r_km * (plane.sin_raan * cos_u + plane.cos_raan * sin_u * shell.cos_i);
        let z_i = shell.r_km * (sin_u * shell.sin_i);
        Ecef {
            x_km: cos_t * x_i + sin_t * y_i,
            y_km: -sin_t * x_i + cos_t * y_i,
            z_km: z_i,
        }
    }
}

/// A contiguous candidate slot range within one orbital plane.
///
/// Slot indices are `k.rem_euclid(sats_per_plane)` for `k` in
/// `k_lo..=k_hi`; the range never covers a slot twice.
#[derive(Debug, Clone, Copy)]
struct PlaneWindow {
    /// Index into `PropagationTable::planes`.
    plane_idx: u32,
    k_lo: i64,
    k_hi: i64,
}

/// Worst-case Earth-central angle (rad) between observer and sub-satellite
/// point at which a satellite of orbital radius `r_orbit_km` still clears
/// `min_elevation_deg` — the same bound as
/// `visibility::max_central_angle_deg`, per shell.
fn central_angle_bound_rad(r_orbit_km: f64, min_elevation_deg: f64) -> f64 {
    let e = min_elevation_deg.to_radians();
    let psi = ((EARTH_RADIUS_KM / r_orbit_km) * e.cos()).acos() - e;
    psi.max(0.0)
}

/// Computes the surviving plane windows for an observer at `gp` (ECEF, on
/// the surface) at time `t_s` against `min_elevation_deg`, with the
/// per-shell central-angle bound padded by `extra_pad_rad` (the coherence
/// drift budget; 0 for a one-shot query).
fn build_windows(
    table: &PropagationTable,
    gp: &Ecef,
    t_s: f64,
    min_elevation_deg: f64,
    extra_pad_rad: f64,
    windows: &mut Vec<PlaneWindow>,
) {
    windows.clear();

    // Observer direction in the inertial frame (inverse of the ECEF
    // rotation in `position_ecef`), normalised. Central angles are
    // rotation-invariant, so pruning in the inertial frame is exact.
    let (sin_t, cos_t) = earth_rotation(t_s);
    let gx = cos_t * gp.x_km - sin_t * gp.y_km;
    let gy = sin_t * gp.x_km + cos_t * gp.y_km;
    let gz = gp.z_km;
    let gn = (gx * gx + gy * gy + gz * gz).sqrt();
    let (gx, gy, gz) = (gx / gn, gy / gn, gz / gn);

    for (si, shell) in table.shells.iter().enumerate() {
        let psi =
            central_angle_bound_rad(shell.r_km, min_elevation_deg) + FP_PAD_RAD + extra_pad_rad;
        let cos_psi = if psi >= PI { -1.0 } else { psi.cos() };
        let spp = shell.sats_per_plane as i64;
        let slot_step = 2.0 * PI / shell.sats_per_plane as f64;
        let plane_end = table
            .shells
            .get(si + 1)
            .map_or(table.planes.len(), |s| s.plane_start);
        for plane_idx in shell.plane_start..plane_end {
            let plane = &table.planes[plane_idx];
            // Plane basis: p̂ points at the ascending node, q̂ 90° ahead
            // along the orbit. A satellite at argument of latitude u sits
            // at cos(u)·p̂ + sin(u)·q̂, so the observer-satellite central
            // angle γ satisfies cos γ = a·cos u + b·sin u = R·cos(u − φ).
            let a = gx * plane.cos_raan + gy * plane.sin_raan;
            let b = (gy * plane.cos_raan - gx * plane.sin_raan) * shell.cos_i + gz * shell.sin_i;
            let r = (a * a + b * b).sqrt();
            // R = cos(angular distance observer → plane great circle):
            // if even the closest point of the circle is beyond ψ, no
            // satellite of this plane can clear the mask — prune it whole.
            if r < cos_psi {
                continue;
            }
            // Argument-of-latitude window: |u − φ| ≤ Δ.
            let delta = if r <= 0.0 {
                PI
            } else {
                (cos_psi / r).clamp(-1.0, 1.0).acos()
            };
            let phi = b.atan2(a);
            // Slots are equally spaced in u: u_k(t) = u0[slot0] + k·step +
            // n·t, so the window maps to a contiguous k-range around c.
            let c = (phi - table.u0[plane.sat_start] - shell.mean_motion * t_s) / slot_step;
            let half = delta / slot_step + SLOT_EPS;
            let k_lo = (c - half).ceil() as i64;
            let k_hi = (c + half).floor() as i64;
            if k_hi < k_lo {
                continue; // window narrower than slot spacing, no slot inside
            }
            let (k_lo, k_hi) = if k_hi - k_lo + 1 >= spp {
                (0, spp - 1) // window wraps the whole plane
            } else {
                (k_lo, k_hi)
            };
            windows.push(PlaneWindow {
                plane_idx: plane_idx as u32,
                k_lo,
                k_hi,
            });
        }
    }

    if leo_obs::enabled() && !table.planes.is_empty() {
        leo_obs::incr("orbit.prune.planes_total", table.planes.len() as u64);
        leo_obs::incr("orbit.prune.planes_survived", windows.len() as u64);
        leo_obs::observe(
            "orbit.prune.survivor_frac",
            windows.len() as f64 / table.planes.len() as f64,
        );
    }
}

/// Walks every candidate in `windows`, handing `look` each satellite with
/// its position and its elevation from `gp` (the observer's norm computed
/// once per walk): the one candidate walk behind [`scan_windows`] and
/// [`best_in_windows`]. Windows come in ascending (shell, plane) order; a
/// wrapped window visits its plane's slots out of order.
fn walk_windows(
    table: &PropagationTable,
    windows: &[PlaneWindow],
    gp: &Ecef,
    t_s: f64,
    mut look: impl FnMut(Satellite, &Ecef, f64),
) {
    let (sin_t, cos_t) = earth_rotation(t_s);
    let up_norm = gp.norm_km();
    for w in windows {
        let plane = &table.planes[w.plane_idx as usize];
        let shell = &table.shells[plane.shell as usize];
        let spp = shell.sats_per_plane as i64;
        for k in w.k_lo..=w.k_hi {
            let slot = k.rem_euclid(spp) as usize;
            let sat_idx = plane.sat_start + slot;
            let sp = table.position_inner(shell, plane, sat_idx, t_s, sin_t, cos_t);
            let sat = Satellite {
                shell: plane.shell,
                plane: plane.plane,
                slot: slot as u16,
            };
            look(sat, &sp, gp.elevation_deg_with_norm(up_norm, &sp));
        }
    }
}

/// Every candidate in `windows` that clears the mask, appended to `out`
/// (cleared first) in ascending (shell, plane, slot) order — the same
/// order as the naive scan.
fn scan_windows(
    table: &PropagationTable,
    windows: &[PlaneWindow],
    gp: &Ecef,
    t_s: f64,
    min_elevation_deg: f64,
    out: &mut Vec<SatView>,
) {
    out.clear();
    walk_windows(table, windows, gp, t_s, |sat, sp, elevation| {
        if elevation >= min_elevation_deg {
            out.push(SatView {
                sat,
                elevation_deg: elevation,
                range_km: gp.distance_km(sp),
            });
        }
    });
    out.sort_unstable_by_key(|v| (v.sat.shell, v.sat.plane, v.sat.slot));
}

/// The candidate in `windows` with the highest elevation, if it clears the
/// mask: the one best-satellite query behind [`best_satellite_fast`] and
/// [`VisibilitySearcher::best`]. An argmax, not a sorted list, and exact
/// by construction:
/// - The walk keeps the running best over every candidate, by elevation
///   (`total_cmp`) and then (shell, plane, slot): on an exact tie the
///   larger key wins, which is what `Iterator::max_by` returns over the
///   ascending visible list (the last of the maximal elements).
/// - The mask is tested on the winner alone. Every other candidate's
///   elevation is at most the winner's, so if the winner misses the mask
///   none clears it, and if it clears the mask it also wins among the
///   candidates that do. So any windows that hold every visible satellite
///   give the same answer.
/// - The range is computed for the winner only.
fn best_in_windows(
    table: &PropagationTable,
    windows: &[PlaneWindow],
    gp: &Ecef,
    t_s: f64,
    min_elevation_deg: f64,
) -> Option<SatView> {
    let key = |s: Satellite| (s.shell, s.plane, s.slot);
    // (satellite, position, elevation) of the running best.
    let mut best: Option<(Satellite, Ecef, f64)> = None;
    walk_windows(table, windows, gp, t_s, |sat, sp, elevation| {
        let wins = best.is_none_or(|(b, _, b_el)| {
            elevation
                .total_cmp(&b_el)
                .then_with(|| key(sat).cmp(&key(b)))
                .is_gt()
        });
        if wins {
            best = Some((sat, *sp, elevation));
        }
    });
    best.filter(|&(.., elevation)| elevation >= min_elevation_deg)
        .map(|(sat, sp, elevation_deg)| SatView {
            sat,
            elevation_deg,
            range_km: gp.distance_km(&sp),
        })
}

/// One-shot fast visibility query: identical results to
/// [`crate::visibility::visible_satellites`], O(planes + visible
/// neighbourhood) instead of O(total satellites).
pub fn visible_satellites_fast(
    table: &PropagationTable,
    ground: &GeoPoint,
    t_s: f64,
    min_elevation_deg: f64,
) -> Vec<SatView> {
    let gp = ground.to_ecef(0.0);
    let mut windows = Vec::new();
    build_windows(table, &gp, t_s, min_elevation_deg, 0.0, &mut windows);
    let mut out = Vec::new();
    scan_windows(table, &windows, &gp, t_s, min_elevation_deg, &mut out);
    out
}

/// One-shot fast best-satellite query: identical result to
/// [`crate::visibility::best_satellite`].
pub fn best_satellite_fast(
    table: &PropagationTable,
    ground: &GeoPoint,
    t_s: f64,
    min_elevation_deg: f64,
) -> Option<SatView> {
    let gp = ground.to_ecef(0.0);
    let mut windows = Vec::new();
    build_windows(table, &gp, t_s, min_elevation_deg, 0.0, &mut windows);
    best_in_windows(table, &windows, &gp, t_s, min_elevation_deg)
}

/// Cached pruning state of a [`VisibilitySearcher`].
#[derive(Debug, Clone)]
struct SearchState {
    anchor_t_s: f64,
    anchor_ecef: Ecef,
    min_elevation_deg: f64,
    windows: Vec<PlaneWindow>,
}

/// A stateful, time-coherent visibility searcher.
///
/// Drive traces sample the link at 1 Hz and re-select satellites every few
/// seconds; between consecutive queries the candidate neighbourhood barely
/// moves. The searcher pads the pruning windows by the worst-case drift
/// over a short horizon — satellite mean motion, Earth rotation, and an
/// observer movement budget — and reuses them until the horizon expires,
/// the observer leaves the budget, or the mask changes. Every candidate
/// still passes through the exact elevation test, so results remain
/// bit-identical to the naive scan (and to the one-shot fast path).
///
/// The table is held behind an [`Arc`], so a fleet of searchers can share
/// one [`PropagationTable`] per constellation: cloning a searcher (or
/// building one with [`with_shared_table`](Self::with_shared_table)) costs
/// a reference-count bump, not an O(total satellites) table rebuild. A
/// pooled searcher handed to a *different* observer should call
/// [`reseat`](Self::reseat) — the coherence check would catch any move
/// beyond the budget anyway, but reseating makes the hand-off explicit and
/// never lets a stale anchor survive a pool rotation.
#[derive(Debug, Clone)]
pub struct VisibilitySearcher {
    table: Arc<PropagationTable>,
    /// Window validity horizon, seconds.
    horizon_s: f64,
    /// How far (km) the observer may move before windows are rebuilt.
    move_budget_km: f64,
    state: Option<SearchState>,
}

impl VisibilitySearcher {
    /// Default window validity horizon: a little over one Starlink
    /// scheduler slot, so slot-aligned reselections reuse windows.
    pub const DEFAULT_HORIZON_S: f64 = 16.0;
    /// Default observer movement budget: generous for highway driving
    /// within one horizon (200 km/h × 16 s ≈ 0.9 km).
    pub const DEFAULT_MOVE_BUDGET_KM: f64 = 2.0;

    /// Builds a searcher (and its [`PropagationTable`]) for `constellation`.
    pub fn new(constellation: &Constellation) -> Self {
        Self::with_table(PropagationTable::new(constellation))
    }

    /// Builds a searcher around an existing table (takes ownership and
    /// wraps it; use [`with_shared_table`](Self::with_shared_table) to
    /// share one table across many searchers).
    pub fn with_table(table: PropagationTable) -> Self {
        Self::with_shared_table(Arc::new(table))
    }

    /// Builds a searcher over a shared table. This is the fleet entry
    /// point: one `Arc<PropagationTable>` per constellation, N cheap
    /// searchers over it. Query results are bit-identical to a searcher
    /// that owns its own copy of the same table.
    pub fn with_shared_table(table: Arc<PropagationTable>) -> Self {
        Self {
            table,
            horizon_s: Self::DEFAULT_HORIZON_S,
            move_budget_km: Self::DEFAULT_MOVE_BUDGET_KM,
            state: None,
        }
    }

    /// Overrides the coherence horizon (seconds). Larger horizons rebuild
    /// windows less often but scan slightly wider candidate ranges.
    pub fn with_horizon(mut self, horizon_s: f64) -> Self {
        self.horizon_s = horizon_s.max(0.0);
        self.state = None;
        self
    }

    /// Overrides the observer movement budget (km). Larger budgets let a
    /// bucket of nearby observers share windows at the cost of slightly
    /// wider scans; the exactness contract is unaffected either way.
    pub fn with_move_budget(mut self, move_budget_km: f64) -> Self {
        self.move_budget_km = move_budget_km.max(0.0);
        self.state = None;
        self
    }

    /// The underlying propagation table.
    pub fn table(&self) -> &PropagationTable {
        &self.table
    }

    /// A new handle to the shared propagation table (for building more
    /// searchers over the same constellation).
    pub fn shared_table(&self) -> Arc<PropagationTable> {
        Arc::clone(&self.table)
    }

    /// Drops all cached pruning state. A searcher pool MUST call this when
    /// handing the searcher to a different observer: the coherence check
    /// would reject an anchor further than the move budget anyway, but a
    /// *nearby* new observer inside the budget would otherwise inherit the
    /// previous user's anchor (sound — windows are conservative over the
    /// whole budget — yet it couples one user's rebuild cadence to
    /// another's position; reseating keeps per-user behaviour independent
    /// of pool assignment).
    pub fn reseat(&mut self) {
        if self.state.is_some() {
            leo_obs::incr("orbit.searcher.reseats", 1);
        }
        self.state = None;
    }

    /// Would a query at (`ground`, `t_s`, `min_elevation_deg`) reuse the
    /// cached windows? Diagnostic for pools and the rebuild-budget tests;
    /// `false` means the next query rebuilds.
    pub fn is_coherent_with(&self, ground: &GeoPoint, t_s: f64, min_elevation_deg: f64) -> bool {
        self.coherent(&ground.to_ecef(0.0), t_s, min_elevation_deg)
    }

    fn coherent(&self, gp: &Ecef, t_s: f64, min_elevation_deg: f64) -> bool {
        self.state.as_ref().is_some_and(|s| {
            s.min_elevation_deg == min_elevation_deg
                && t_s >= s.anchor_t_s
                && t_s - s.anchor_t_s <= self.horizon_s
                && gp.distance_km(&s.anchor_ecef) <= self.move_budget_km
        })
    }

    /// All satellites above the mask — identical to
    /// [`crate::visibility::visible_satellites`].
    pub fn visible(&mut self, ground: &GeoPoint, t_s: f64, min_elevation_deg: f64) -> Vec<SatView> {
        let mut out = Vec::new();
        self.visible_into(ground, t_s, min_elevation_deg, &mut out);
        out
    }

    /// Allocation-reusing variant of [`visible`](Self::visible): clears
    /// `out` and fills it with the visible views in (shell, plane, slot)
    /// order.
    pub fn visible_into(
        &mut self,
        ground: &GeoPoint,
        t_s: f64,
        min_elevation_deg: f64,
        out: &mut Vec<SatView>,
    ) {
        let gp = ground.to_ecef(0.0);
        self.ensure_windows(&gp, t_s, min_elevation_deg);
        let state = self.state.as_ref().expect("windows just ensured");
        scan_windows(
            &self.table,
            &state.windows,
            &gp,
            t_s,
            min_elevation_deg,
            out,
        );
    }

    /// The visible satellite with the highest elevation — identical to
    /// [`crate::visibility::best_satellite`].
    pub fn best(&mut self, ground: &GeoPoint, t_s: f64, min_elevation_deg: f64) -> Option<SatView> {
        self.best_from(&ground.to_ecef(0.0), t_s, min_elevation_deg)
    }

    /// [`best`](Self::best) for an observer given by its surface ECEF
    /// position (`GeoPoint::to_ecef(0.0)`), which a caller holding still
    /// computes once.
    pub(crate) fn best_from(
        &mut self,
        gp: &Ecef,
        t_s: f64,
        min_elevation_deg: f64,
    ) -> Option<SatView> {
        self.ensure_windows(gp, t_s, min_elevation_deg);
        let state = self.state.as_ref().expect("windows just ensured");
        best_in_windows(&self.table, &state.windows, gp, t_s, min_elevation_deg)
    }

    /// Number of candidate satellites the current windows admit — the
    /// pruning diagnostic (naive scans always evaluate every satellite).
    pub fn candidate_count(&self) -> usize {
        self.state.as_ref().map_or(0, |s| {
            s.windows
                .iter()
                .map(|w| (w.k_hi - w.k_lo + 1) as usize)
                .sum()
        })
    }

    fn ensure_windows(&mut self, gp: &Ecef, t_s: f64, min_elevation_deg: f64) {
        leo_obs::incr("orbit.searcher.queries", 1);
        if self.coherent(gp, t_s, min_elevation_deg) {
            leo_obs::incr("orbit.searcher.reuses", 1);
            return;
        }
        leo_obs::incr("orbit.searcher.rebuilds", 1);
        // Drift pad: how far the window geometry can shift over the
        // horizon. Satellites advance by n·H along their plane, the
        // observer's inertial direction rotates with the Earth, and the
        // observer may drive up to the movement budget.
        let max_mean_motion = self
            .table
            .shells
            .iter()
            .map(|s| s.mean_motion)
            .fold(0.0, f64::max);
        let pad = (max_mean_motion + EARTH_RATE_RAD_S) * self.horizon_s
            + self.move_budget_km / EARTH_RADIUS_KM;
        let mut windows = self.state.take().map(|s| s.windows).unwrap_or_default();
        build_windows(&self.table, gp, t_s, min_elevation_deg, pad, &mut windows);
        self.state = Some(SearchState {
            anchor_t_s: t_s,
            anchor_ecef: *gp,
            min_elevation_deg,
            windows,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constellation::Shell;
    use crate::visibility::{best_satellite, visible_satellites};

    fn exotic_constellation() -> Constellation {
        // Equatorial, polar, and retrograde shells: the pruning geometry's
        // worst corners.
        Constellation::new(vec![
            Shell {
                altitude_km: 600.0,
                inclination_deg: 0.0,
                planes: 1,
                sats_per_plane: 30,
                phase_factor: 0,
            },
            Shell {
                altitude_km: 500.0,
                inclination_deg: 90.0,
                planes: 8,
                sats_per_plane: 12,
                phase_factor: 3,
            },
            Shell::starlink_shell4(),
        ])
    }

    #[test]
    fn table_positions_are_bit_identical() {
        for c in [Constellation::starlink_full(), exotic_constellation()] {
            let table = PropagationTable::new(&c);
            for (i, sat) in c.satellites().enumerate().step_by(13) {
                for t in [0.0, 17.3, 991.1, 86_400.0] {
                    let naive = c.position_ecef(sat, t);
                    let fast = table.position_ecef(sat, t + i as f64 * 0.0);
                    assert_eq!(naive, fast, "sat {sat:?} t {t}");
                }
            }
        }
    }

    #[test]
    fn one_shot_fast_path_matches_naive() {
        let c = Constellation::starlink_full();
        let table = PropagationTable::new(&c);
        for (lat, lon) in [(44.5, -93.0), (0.0, 10.0), (78.0, 15.0), (-55.0, -70.0)] {
            let g = GeoPoint::new(lat, lon);
            for t in [0.0, 300.0, 4411.0, 50_000.0] {
                for mask in [20.0, 25.0, 40.0, 55.0] {
                    let naive = visible_satellites(&c, &g, t, mask);
                    let fast = visible_satellites_fast(&table, &g, t, mask);
                    assert_eq!(naive, fast, "({lat},{lon}) t={t} mask={mask}");
                }
            }
        }
    }

    #[test]
    fn one_shot_fast_path_matches_naive_on_exotic_shells() {
        let c = exotic_constellation();
        let table = PropagationTable::new(&c);
        for (lat, lon) in [(0.0, 0.0), (89.0, 45.0), (-89.0, 0.0), (53.0, 170.0)] {
            let g = GeoPoint::new(lat, lon);
            for t in [0.0, 777.7, 12_345.6] {
                let naive = visible_satellites(&c, &g, t, 15.0);
                let fast = visible_satellites_fast(&table, &g, t, 15.0);
                assert_eq!(naive, fast, "({lat},{lon}) t={t}");
            }
        }
    }

    #[test]
    fn best_satellite_fast_matches_naive() {
        let c = Constellation::starlink();
        let table = PropagationTable::new(&c);
        let g = GeoPoint::new(44.0, -90.0);
        for t in 0..40 {
            let t = t as f64 * 77.0;
            assert_eq!(
                best_satellite(&c, &g, t, 25.0),
                best_satellite_fast(&table, &g, t, 25.0),
            );
        }
    }

    #[test]
    fn searcher_matches_naive_through_a_coherent_drive() {
        // A 1 Hz drive: the searcher reuses windows within its horizon and
        // must still agree exactly with the naive scan at every step.
        let c = Constellation::starlink_full();
        let mut searcher = VisibilitySearcher::new(&c);
        let start = GeoPoint::new(46.5, -100.0);
        for t in 0..120u64 {
            let ground = start.destination(90.0, t as f64 * 0.03); // ~108 km/h
            let t_s = 5000.0 + t as f64;
            let naive = visible_satellites(&c, &ground, t_s, 25.0);
            let fast = searcher.visible(&ground, t_s, 25.0);
            assert_eq!(naive, fast, "t={t_s}");
            assert_eq!(
                best_satellite(&c, &ground, t_s, 25.0),
                searcher.best(&ground, t_s, 25.0),
            );
        }
    }

    #[test]
    fn searcher_handles_time_jumps_and_mask_changes() {
        let c = Constellation::starlink();
        let mut searcher = VisibilitySearcher::new(&c);
        let g = GeoPoint::new(44.5, -93.0);
        // Forward beyond the horizon, backwards, and mask flips.
        for (t, mask) in [
            (0.0, 25.0),
            (1.0, 25.0),
            (500.0, 25.0),
            (100.0, 25.0),
            (100.0, 45.0),
            (101.0, 25.0),
        ] {
            assert_eq!(
                visible_satellites(&c, &g, t, mask),
                searcher.visible(&g, t, mask),
                "t={t} mask={mask}"
            );
        }
    }

    #[test]
    fn shared_table_searchers_match_owned_searchers_bit_for_bit() {
        // The Arc refactor contract: N searchers over one shared table
        // return exactly what a table-owning searcher returns, query for
        // query — including through the stateful window-reuse path.
        let c = Constellation::starlink_full();
        let owned_table = PropagationTable::new(&c);
        let shared = Arc::new(PropagationTable::new(&c));
        let mut owned = VisibilitySearcher::with_table(owned_table);
        let mut a = VisibilitySearcher::with_shared_table(Arc::clone(&shared));
        let mut b = VisibilitySearcher::with_shared_table(Arc::clone(&shared));
        assert_eq!(Arc::strong_count(&shared), 3, "table genuinely shared");
        let start = GeoPoint::new(44.5, -93.0);
        for t in 0..60u64 {
            let g = start.destination(45.0, t as f64 * 0.02);
            let t_s = 1000.0 + t as f64;
            let want = visible_satellites(&c, &g, t_s, 25.0);
            assert_eq!(owned.visible(&g, t_s, 25.0), want, "owned t={t_s}");
            assert_eq!(a.visible(&g, t_s, 25.0), want, "shared-a t={t_s}");
            // b queries every 7th second only: different reuse cadence,
            // same shared table, same exact results.
            if t % 7 == 0 {
                assert_eq!(b.visible(&g, t_s, 25.0), want, "shared-b t={t_s}");
            }
        }
        // A searcher clone shares the table too (no deep copy).
        let clone = a.clone();
        assert_eq!(Arc::strong_count(&shared), 4);
        drop(clone);
    }

    #[test]
    fn reseat_clears_state_and_big_jumps_invalidate_windows() {
        // The pooled-reuse audit: a >2 km observer jump must never reuse
        // the previous anchor's windows, and reseat() must always clear
        // cached pruning state regardless of distance.
        let c = Constellation::starlink();
        let mut s = VisibilitySearcher::new(&c);
        let home = GeoPoint::new(44.5, -93.0);
        let t = 500.0;
        assert_eq!(
            visible_satellites(&c, &home, t, 25.0),
            s.visible(&home, t, 25.0)
        );
        assert!(s.candidate_count() > 0, "windows cached after a query");
        assert!(s.is_coherent_with(&home, t + 1.0, 25.0));

        // Within the 2 km budget: coherent (and sound — the drift pad
        // covers the whole budget). Beyond it: must invalidate.
        let nearby = home.destination(90.0, 1.5);
        assert!(s.is_coherent_with(&nearby, t + 1.0, 25.0));
        for km in [2.1, 5.0, 80.0, 2000.0] {
            let far = home.destination(90.0, km);
            assert!(
                !s.is_coherent_with(&far, t + 1.0, 25.0),
                "{km} km jump must not reuse windows anchored at home"
            );
            // And the query after the jump is still exact.
            assert_eq!(
                visible_satellites(&c, &far, t + 1.0, 25.0),
                s.clone().visible(&far, t + 1.0, 25.0),
                "post-jump exactness at {km} km"
            );
        }
        // Backwards time and mask flips invalidate too.
        assert!(!s.is_coherent_with(&home, t - 1.0, 25.0));
        assert!(!s.is_coherent_with(&home, t + 1.0, 40.0));

        // reseat(): explicit pool hand-off — all cached state gone.
        s.reseat();
        assert_eq!(s.candidate_count(), 0, "reseat drops the windows");
        assert!(!s.is_coherent_with(&home, t, 25.0));
        // And the reseated searcher still answers exactly.
        assert_eq!(
            visible_satellites(&c, &home, t + 2.0, 25.0),
            s.visible(&home, t + 2.0, 25.0)
        );
    }

    #[test]
    fn pooled_handoff_to_nearby_user_matches_fresh_searcher() {
        // Two users 1.2 km apart (inside the move budget): serving them
        // back-to-back from one pooled searcher — with reseat between, as
        // the pool does — must equal two fresh searchers bit-for-bit.
        let c = Constellation::starlink();
        let user_a = GeoPoint::new(44.95, -93.20);
        let user_b = user_a.destination(130.0, 1.2);
        let mut pooled = VisibilitySearcher::new(&c);
        let shared = pooled.shared_table();
        for t in 0..20u64 {
            let t_s = 300.0 + t as f64;
            let mut fresh = VisibilitySearcher::with_shared_table(Arc::clone(&shared));
            assert_eq!(
                pooled.visible(&user_a, t_s, 25.0),
                fresh.visible(&user_a, t_s, 25.0),
                "user A t={t_s}"
            );
        }
        pooled.reseat();
        for t in 0..20u64 {
            // B's session starts *earlier* than A's last query — exactly
            // the case where silently inheriting A's anchor would refuse
            // to rebuild (t < anchor) or, worse, a same-second query would
            // reuse A's windows without the explicit reseat.
            let t_s = 310.0 + t as f64;
            let mut fresh = VisibilitySearcher::with_shared_table(Arc::clone(&shared));
            assert_eq!(
                pooled.visible(&user_b, t_s, 25.0),
                fresh.visible(&user_b, t_s, 25.0),
                "user B t={t_s}"
            );
        }
    }

    /// The list-then-`max_by` form of `best`: the reference for the
    /// argmax.
    fn best_oracle(
        s: &mut VisibilitySearcher,
        g: &GeoPoint,
        t_s: f64,
        mask: f64,
    ) -> Option<SatView> {
        s.visible(g, t_s, mask)
            .into_iter()
            .max_by(|a, b| a.elevation_deg.total_cmp(&b.elevation_deg))
    }

    /// Windows of `s` whose slot range runs past either end of its plane.
    fn wrapped_windows(s: &VisibilitySearcher) -> usize {
        let state = s.state.as_ref().expect("a query ran");
        state
            .windows
            .iter()
            .filter(|w| {
                let plane = &s.table.planes[w.plane_idx as usize];
                let spp = s.table.shells[plane.shell as usize].sats_per_plane as i64;
                w.k_lo < 0 || w.k_hi >= spp
            })
            .count()
    }

    #[test]
    fn best_is_the_argmax_of_visible_on_exotic_shells() {
        let c = exotic_constellation();
        let table = PropagationTable::new(&c);
        let mut argmax = VisibilitySearcher::new(&c);
        let mut list = VisibilitySearcher::new(&c);
        let (mut wrapped, mut found) = (0, 0);
        for (lat, lon) in [
            (0.0, 0.0),
            (0.4, 120.0),
            (89.0, 45.0),
            (-89.0, 0.0),
            (53.0, 170.0),
            (-30.0, -60.0),
        ] {
            let g = GeoPoint::new(lat, lon);
            for t in 0..120u64 {
                // Seconds apart within a slot, then a jump past the horizon.
                let t_s = (t / 8) as f64 * 997.3 + (t % 8) as f64;
                for mask in [0.0, 15.0, 40.0] {
                    let got = argmax.best(&g, t_s, mask);
                    let ctx = format!("({lat},{lon}) t={t_s} mask={mask}");
                    assert_eq!(got, best_oracle(&mut list, &g, t_s, mask), "{ctx}");
                    if t % 8 == 0 {
                        assert_eq!(got, best_satellite(&c, &g, t_s, mask), "naive {ctx}");
                        let one_shot = best_satellite_fast(&table, &g, t_s, mask);
                        assert_eq!(got, one_shot, "one-shot {ctx}");
                    }
                    wrapped += wrapped_windows(&argmax);
                    found += usize::from(got.is_some());
                }
            }
        }
        let nan = f64::NAN;
        let here = GeoPoint::new(10.0, 10.0);
        for (g, t_s, mask) in [
            (
                GeoPoint {
                    lat_deg: nan,
                    lon_deg: 10.0,
                },
                50.0,
                25.0,
            ),
            (here, nan, 25.0),
            (here, 50.0, nan),
        ] {
            let got = argmax.best(&g, t_s, mask);
            assert_eq!(
                got,
                best_oracle(&mut list, &g, t_s, mask),
                "{g:?} {t_s} {mask}"
            );
        }
        assert!(wrapped > 0, "no wrapped window was walked");
        assert!(found > 100, "only {found} queries saw a satellite");
    }

    #[test]
    fn exact_elevation_ties_go_to_the_larger_shell() {
        // Two identical shells put two satellites at every position, so
        // every visible elevation ties exactly; `max_by` over the sorted
        // list returns the last, shell 1's.
        let shell = Shell::starlink_shell4();
        let c = Constellation::new(vec![shell, shell]);
        let table = PropagationTable::new(&c);
        let mut argmax = VisibilitySearcher::new(&c);
        let mut list = VisibilitySearcher::new(&c);
        let mut ties = 0;
        for (lat, lon) in [(44.5, -93.0), (0.0, 0.0), (-60.0, 20.0), (75.0, 140.0)] {
            let g = GeoPoint::new(lat, lon);
            for t in 0..40u64 {
                let t_s = t as f64 * 61.0;
                let got = argmax.best(&g, t_s, 25.0);
                assert_eq!(
                    got,
                    best_oracle(&mut list, &g, t_s, 25.0),
                    "({lat},{lon}) t={t_s}"
                );
                assert_eq!(
                    got,
                    best_satellite(&c, &g, t_s, 25.0),
                    "({lat},{lon}) t={t_s}"
                );
                assert_eq!(
                    got,
                    best_satellite_fast(&table, &g, t_s, 25.0),
                    "one-shot ({lat},{lon}) t={t_s}"
                );
                if let Some(v) = got {
                    assert_eq!(v.sat.shell, 1, "a tie must resolve to shell 1");
                    ties += 1;
                }
            }
        }
        assert!(ties > 20, "only {ties} tied queries");
    }

    #[test]
    fn pruning_rejects_most_of_the_constellation() {
        let c = Constellation::starlink_full();
        let mut searcher = VisibilitySearcher::new(&c);
        let g = GeoPoint::new(44.5, -93.0);
        searcher.visible(&g, 0.0, 25.0);
        let candidates = searcher.candidate_count();
        let total = c.total_sats() as usize;
        assert!(
            candidates * 10 < total,
            "pruning left {candidates} of {total} candidates"
        );
        assert!(candidates > 0);
    }

    #[test]
    fn far_observer_prunes_polar_only_planes() {
        // From the equator, the 97.6° shell's planes mostly pass nearly
        // overhead at some point, but a mid-inclination observer far from a
        // plane's ground track must reject it without propagating anyone.
        let c = Constellation::starlink();
        let table = PropagationTable::new(&c);
        let g = GeoPoint::new(80.0, 0.0); // poleward of the 53° shell
        let views = visible_satellites_fast(&table, &g, 0.0, 25.0);
        assert!(views.is_empty());
    }
}
