//! The fleet execution engine.
//!
//! Three ideas keep 10⁵–10⁶ concurrent sessions tractable:
//!
//! 1. **Shared orbital state.** One [`PropagationTable`] per
//!    constellation, behind an `Arc`, shared by every shard's pooled
//!    [`VisibilitySearcher`]; one generated [`Deployment`] per carrier,
//!    also shared. World construction is O(world), not O(users).
//! 2. **Spatial bucketing.** Users sort by geo-cell before execution, so
//!    consecutive Starlink users in a shard sit within the searcher's
//!    observer-movement budget and its plane-pruning/slot-window state
//!    carries over; refinement stays per-user. A bucket change triggers
//!    an explicit [`VisibilitySearcher::reseat`].
//! 3. **Streaming, sharded execution.** Users run in fixed-size shards,
//!    one [`leo_exec::run_indexed`] job each; each shard folds its
//!    records into its own [`RecordSink`], and shard sinks merge in
//!    shard order. The fold structure is therefore a function of the
//!    *spec*, not the thread count — aggregates are byte-identical at
//!    any `LEO_CAMPAIGN_THREADS`. Per-shard memory is one searcher, one
//!    sample buffer, and one sink.

use crate::aggregate::{FleetAggregate, UserRecord};
use crate::population::{self, UserProfile};
use crate::spec::FleetSpec;
use leo_cellular::carrier::Carrier;
use leo_cellular::deployment::Deployment;
use leo_cellular::model::{CellularLinkModel, CellularModelConfig};
use leo_dataset::campaign::campaign_threads;
use leo_dataset::record::NetworkId;
use leo_dataset::sink::RecordSink;
use leo_dataset::tour::grand_tour;
use leo_geo::area::AreaType;
use leo_geo::drive::EnvironmentSample;
use leo_geo::places::PlaceDb;
use leo_geo::point::GeoPoint;
use leo_link::trace::LinkTrace;
use leo_orbit::constellation::Constellation;
use leo_orbit::dish::DishPlan;
use leo_orbit::fastpath::{PropagationTable, VisibilitySearcher};
use leo_orbit::ground::GroundStationDb;
use leo_orbit::model::{StarlinkLinkModel, StarlinkModelConfig};
use std::sync::Arc;

/// The shared world every user session runs against. Built once per
/// engine; sharing it is the whole point of the fleet design.
pub struct FleetWorld {
    /// The place database users anchor to.
    pub places: PlaceDb,
    /// The constellation (cheap to clone: a handful of shell params).
    pub constellation: Constellation,
    /// Starlink gateway stations.
    pub gateways: GroundStationDb,
    /// The shared propagation table all pooled searchers refine against.
    pub table: Arc<PropagationTable>,
    /// One generated deployment per carrier, in [`Carrier::ALL`] order.
    deployments: [Arc<Deployment>; 3],
}

impl FleetWorld {
    /// Builds the world for a fleet seed. Deployments use the campaign's
    /// seed recipe (`seed ^ 0xce11`) over the full grand-tour corridor,
    /// so a fleet and a campaign with the same seed see the same towers.
    pub fn new(seed: u64) -> Self {
        let _span = leo_obs::span("fleet.world.build_s");
        let places = PlaceDb::five_state_corridor();
        let corridor = grand_tour(&places, 1.0).waypoints();
        let constellation = Constellation::starlink();
        let table = Arc::new(PropagationTable::new(&constellation));
        let gateways = GroundStationDb::midwest_corridor();
        let deployments = Carrier::ALL
            .map(|c| Arc::new(Deployment::generate(c, &places, &corridor, seed ^ 0xce11)));
        Self {
            places,
            constellation,
            gateways,
            table,
            deployments,
        }
    }

    /// The shared deployment for a carrier.
    pub fn deployment(&self, carrier: Carrier) -> Arc<Deployment> {
        let i = Carrier::ALL
            .iter()
            .position(|&c| c == carrier)
            .expect("carrier in ALL");
        Arc::clone(&self.deployments[i])
    }
}

/// Quantizes a position into a geo-cell key. Purely a locality
/// heuristic: the sort it feeds decides which users share pooled
/// searcher state, never what any user's trace contains (the searcher's
/// exactness contract covers every cache state). 111 km and 78 km per
/// degree approximate the corridor's mid-latitudes.
fn bucket_key(p: &GeoPoint, bucket_km: f64) -> u64 {
    let bx = (p.lat_deg * 111.0 / bucket_km).floor() as i64;
    let by = (p.lon_deg * 78.0 / bucket_km).floor() as i64;
    ((bx as u32 as u64) << 32) | (by as u32 as u64)
}

/// Traces one user session against the shared world. `searcher` is the
/// shard's pooled searcher for Starlink users; `None` falls back to
/// the model's own per-call searcher (the exactness oracle — traces are
/// bit-identical either way).
fn trace_session(
    spec: &FleetSpec,
    world: &FleetWorld,
    profile: &UserProfile,
    samples: &[EnvironmentSample],
    areas: &[AreaType],
    searcher: Option<&mut VisibilitySearcher>,
) -> (LinkTrace, LinkTrace) {
    let (mut down, mut up) = match profile.network {
        NetworkId::Roam | NetworkId::Mobility => {
            let plan = match profile.network {
                NetworkId::Roam => DishPlan::Roam,
                _ => DishPlan::Mobility,
            };
            let mut cfg = StarlinkModelConfig::for_plan(plan);
            cfg.seed = profile.seed ^ 0x5a7e_0000;
            let model = StarlinkLinkModel::with_infrastructure(
                cfg,
                world.constellation.clone(),
                world.gateways.clone(),
            );
            match searcher {
                Some(s) => model.trace_for_drive_with_searcher(samples, areas, s),
                None => model.trace_for_drive(samples, areas),
            }
        }
        NetworkId::Att | NetworkId::TMobile | NetworkId::Verizon => {
            let carrier = match profile.network {
                NetworkId::Att => Carrier::Att,
                NetworkId::TMobile => Carrier::TMobile,
                _ => Carrier::Verizon,
            };
            let mut cfg = CellularModelConfig::for_carrier(carrier);
            cfg.seed = profile.seed ^ 0xce11_0001;
            CellularLinkModel::with_shared_deployment(cfg, world.deployment(carrier))
                .trace_for_drive(samples, areas)
        }
    };
    // Spec faults: windows resolve against the session timeline, then
    // shift onto the user's absolute start (traces carry absolute time).
    for p in &spec.perturbations {
        if !p.networks().matches(profile.network) {
            continue;
        }
        let (lo, hi) = p.window().bounds_s(samples.len() as u64);
        down = leo_scenario::apply_to_trace(&down, p, profile.t0_s + lo, profile.t0_s + hi);
        up = leo_scenario::apply_to_trace(&up, p, profile.t0_s + lo, profile.t0_s + hi);
    }
    (down, up)
}

/// Runs one shard of `(bucket, user index)` entries, streaming each
/// user's record into `sink` in entry order. The shard's searcher and
/// scratch buffers are O(session), never O(fleet).
fn run_shard<S: RecordSink<UserRecord>>(
    spec: &FleetSpec,
    world: &FleetWorld,
    entries: &[(u64, u64)],
    sink: &mut S,
) {
    let mut searcher = VisibilitySearcher::with_shared_table(Arc::clone(&world.table));
    let mut samples = Vec::new();
    let mut areas = Vec::new();
    // Geo-cell the searcher's cached state was last used in.
    let mut bucket = None;
    for &(key, idx) in entries {
        let profile = population::synthesize(spec, &world.places, idx);
        population::build_samples(&profile, spec.session_s, &mut samples);
        areas.clear();
        areas.resize(samples.len(), profile.area);
        let pooled = if NetworkId::STARLINK.contains(&profile.network) {
            // Pool accounting: same geo-cell as the previous Starlink
            // user means the cached pruning state is worth keeping; a
            // cell change reseats it (the 2 km move budget would
            // invalidate it anyway — reseating makes that explicit
            // rather than relying on the coherence check).
            if bucket == Some(key) {
                leo_obs::incr("fleet.searcher.reuses", 1);
            } else {
                searcher.reseat();
                leo_obs::incr("fleet.searcher.reseats", 1);
                bucket = Some(key);
            }
            Some(&mut searcher)
        } else {
            None
        };
        let (down, up) = trace_session(spec, world, &profile, &samples, &areas, pooled);
        sink.emit(UserRecord::from_traces(
            idx,
            profile.network,
            profile.area,
            profile.drives,
            &down,
            &up,
        ));
    }
}

/// The fleet campaign engine: a spec plus the shared world it runs in.
pub struct FleetEngine {
    spec: FleetSpec,
    world: FleetWorld,
}

impl FleetEngine {
    /// Validates the spec and builds the shared world. Panics with the
    /// [`FleetSpecError`](crate::spec::FleetSpecError) message when the
    /// spec cannot be expanded; callers taking specs from users check
    /// [`FleetSpec::validate`] first.
    pub fn new(spec: FleetSpec) -> Self {
        if let Err(e) = spec.validate() {
            panic!("{e}");
        }
        let world = FleetWorld::new(spec.seed);
        Self { spec, world }
    }

    /// The spec this engine expands.
    pub fn spec(&self) -> &FleetSpec {
        &self.spec
    }

    /// The shared world (tests poke at deployments and the table).
    pub fn world(&self) -> &FleetWorld {
        &self.world
    }

    /// Runs the fleet with [`campaign_threads`] workers.
    pub fn run(&self) -> FleetAggregate {
        self.run_with_threads(campaign_threads())
    }

    /// Runs the fleet with an explicit worker count. Byte-identical for
    /// every `threads` value — the per-shard fold + shard-order merge
    /// never changes, only which worker executes a shard.
    pub fn run_with_threads(&self, threads: usize) -> FleetAggregate {
        let start = std::time::Instant::now();
        let shards = self.run_sharded(threads, FleetAggregate::default);
        let mut total = FleetAggregate::default();
        for s in &shards {
            total.merge(s);
        }
        let secs = start.elapsed().as_secs_f64();
        if secs > 0.0 {
            leo_obs::gauge_max("fleet.users_per_sec", total.users as f64 / secs);
        }
        total
    }

    /// The generic streaming core: plans the bucket-sorted shard layout,
    /// runs one executor job per shard on up to `threads` workers, and
    /// returns one sink per shard, in shard order. `run_with_threads`
    /// merges [`FleetAggregate`] sinks; exactness tests pass `Vec::new`
    /// to keep per-user records (small fleets only — that sink is
    /// O(users)).
    pub fn run_sharded<S, F>(&self, threads: usize, make_sink: F) -> Vec<S>
    where
        S: RecordSink<UserRecord> + Send,
        F: Fn() -> S + Sync,
    {
        let _run = leo_obs::span("fleet.run_s");
        let spec = &self.spec;
        let world = &self.world;
        leo_obs::incr("fleet.runs", 1);
        leo_obs::incr("fleet.users", spec.users);

        // Plan: one (geo-cell, index) entry per user — 16 bytes, the only
        // fleet-sized allocation in the engine. Sorting by cell groups
        // searcher-compatible users; the index tiebreak pins the order.
        let plan_span = leo_obs::span("fleet.stage.plan_s");
        let mut entries: Vec<(u64, u64)> = (0..spec.users)
            .map(|idx| {
                let p = population::synthesize(spec, &world.places, idx);
                (bucket_key(&p.anchor, spec.bucket_km), idx)
            })
            .collect();
        entries.sort_unstable();
        let buckets = 1 + entries.windows(2).filter(|w| w[0].0 != w[1].0).count() as u64;
        leo_obs::incr("fleet.buckets", buckets);
        drop(plan_span);

        let shards: Vec<&[(u64, u64)]> = entries.chunks(spec.shard_users as usize).collect();
        leo_obs::incr("fleet.shards", shards.len() as u64);

        let _trace = leo_obs::span("fleet.stage.trace_s");
        leo_exec::run_indexed(shards.len(), threads, "fleet.worker.busy_s", |si| {
            let mut sink = make_sink();
            run_shard(spec, world, shards[si], &mut sink);
            sink
        })
    }

    /// The single-user oracle: every user traced independently in index
    /// order through the model's own searcher path, no pooling, no
    /// bucketing, no sharding. O(users) cost — exactness tests compare
    /// the engine against it on small fleets.
    pub fn reference_records(&self) -> Vec<UserRecord> {
        let mut out = Vec::with_capacity(self.spec.users as usize);
        let mut samples = Vec::new();
        for idx in 0..self.spec.users {
            let profile = population::synthesize(&self.spec, &self.world.places, idx);
            population::build_samples(&profile, self.spec.session_s, &mut samples);
            let areas = vec![profile.area; samples.len()];
            let (down, up) =
                trace_session(&self.spec, &self.world, &profile, &samples, &areas, None);
            out.push(UserRecord::from_traces(
                idx,
                profile.network,
                profile.area,
                profile.drives,
                &down,
                &up,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec(users: u64) -> FleetSpec {
        let mut s = FleetSpec::new("tiny", 0xf1ee_7e57, users, 20);
        s.shard_users = 8;
        s
    }

    #[test]
    fn engine_matches_the_single_user_reference() {
        let engine = FleetEngine::new(tiny_spec(24));
        let want = engine.reference_records();
        for threads in [1, 2, 3, 16] {
            let shards = engine.run_sharded(threads, Vec::new);
            let mut got: Vec<UserRecord> = shards.into_iter().flatten().collect();
            got.sort_by_key(|r| r.user);
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn thread_count_does_not_change_the_aggregate() {
        let engine = FleetEngine::new(tiny_spec(40));
        let one = engine.run_with_threads(1);
        assert_eq!(one.users, 40);
        assert_eq!(one.seconds, 40 * 20);
        for threads in [2, 3, 4, 16] {
            assert_eq!(engine.run_with_threads(threads), one, "threads={threads}");
        }
    }

    #[test]
    fn fault_windows_follow_the_session_stagger() {
        use leo_scenario::spec::{NetworkSelector, Perturbation, Window};
        // A second-half outage with a stagger far longer than the
        // session: windows resolve against the session timeline and then
        // shift onto each user's absolute start, so every user must
        // still lose exactly the back half. If the t0_s shift (or the
        // map_window clamp behind it) regressed, the absolute window
        // [10, 20) would miss almost every staggered session and the
        // outage share would collapse toward the baseline.
        let mut spec = tiny_spec(30);
        spec.stagger_s = 5_000;
        // Starlink-only keeps the baseline outage share well under the
        // windowed 50%, so the assertion below has a real gap to detect.
        spec.network_mix.att = 0;
        spec.network_mix.tmobile = 0;
        spec.network_mix.verizon = 0;
        spec.perturbations = vec![Perturbation::Outage {
            window: Window {
                start_frac: 0.5,
                end_frac: 1.0,
            },
            networks: NetworkSelector::All,
        }];
        let agg = FleetEngine::new(spec).run_with_threads(2);
        assert_eq!(agg.seconds, 30 * 20);
        let outage: u64 = agg.cells.iter().flatten().map(|c| c.outage_s).sum();
        let frac = outage as f64 / agg.seconds as f64;
        assert!(
            (0.5..0.8).contains(&frac),
            "windowed outage share {frac:.3} should sit at 50% plus baseline"
        );
    }

    #[test]
    fn perturbed_fleets_degrade_and_stay_deterministic() {
        use leo_scenario::spec::{NetworkSelector, Perturbation, Window};
        let mut spec = tiny_spec(20);
        spec.perturbations = vec![Perturbation::Outage {
            window: Window::ALL,
            networks: NetworkSelector::All,
        }];
        let engine = FleetEngine::new(spec);
        let agg = engine.run_with_threads(3);
        // A fully dark world: every second is an outage second.
        assert_eq!(agg.seconds, 20 * 20);
        let outage: u64 = agg.cells.iter().flatten().map(|c| c.outage_s).sum();
        assert_eq!(outage, agg.seconds);
        assert_eq!(
            agg,
            FleetEngine::new(tiny_spec_perturbed()).run_with_threads(1)
        );

        fn tiny_spec_perturbed() -> FleetSpec {
            use leo_scenario::spec::{NetworkSelector, Perturbation, Window};
            let mut s = tiny_spec(20);
            s.perturbations = vec![Perturbation::Outage {
                window: Window::ALL,
                networks: NetworkSelector::All,
            }];
            s
        }
    }
}
