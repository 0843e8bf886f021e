//! Exercises every instrumented subsystem under `LEO_OBS=1` and emits
//! the JSON run report — the observability layer's demo *and* its smoke
//! test: the example exits non-zero unless every required metric family
//! actually recorded something.
//!
//! ```sh
//! # Print the run report to stdout:
//! cargo run --release --example obs_report
//!
//! # Bigger campaign, report to a file:
//! cargo run --release --example obs_report -- --scale 0.02 --out obs.json
//! ```
//!
//! The report covers, in one process:
//! * campaign generation — drives and campaigns generated, per-stage
//!   wall clock (drive / area / trace / tests; in a sweep, whose
//!   network jobs share the workers with other jobs, the trace stage
//!   sums those jobs), per-network trace timings, per-worker busy time;
//! * the orbit fast path — searcher rebuild/reuse counts and the plane
//!   pruning survivor ratio;
//! * the packet emulator — per-cause drop counters, the count of
//!   arrivals that could not join their link's FIFO and the queue
//!   high-water mark, flushed once per finished simulation;
//! * the §6 MPTCP harness — per-subflow packets/retransmissions/bytes,
//!   SRTT samples, scheduler usage (driven here through a faulted run so
//!   `netsim.drop.fault` is exercised too);
//! * the scenario engine — sweep and per-scenario wall clock, worker
//!   utilisation;
//! * the fleet engine — searcher pool reuse/reseat counters, stage and
//!   per-worker spans, and the users/sec throughput gauge;
//! * the transport sweep harness — run/unit/worker counters, per-run and
//!   per-worker spans, and the transfers/sec throughput gauge;
//! * the flow core — ACKs handled and SACK-scoreboard slots scanned,
//!   flushed once per finished flow;
//! * the searched-transport layer — search loop counters (generations,
//!   candidates) and evaluation spans over the quick corpus;
//! * the measurement service — epoch/session/incident counters, world
//!   and loop stage spans, per-worker busy time, and the sessions/sec
//!   throughput gauge, driven through a faulted hour so the retry and
//!   detector paths record too.

use leo_cell::cli;
use leo_cell::core::mptcp_emu::{run_mptcp_faulted, BufferTuning};
use leo_cell::dataset::campaign::{Campaign, CampaignConfig};
use leo_cell::dataset::record::NetworkId;
use leo_cell::fleet::{FleetEngine, FleetSpec};
use leo_cell::netsim::FaultSchedule;
use leo_cell::obs;
use leo_cell::scenario::{builtin, ScenarioRunner, BASELINE};
use leo_cell::transport::mptcp::SchedulerKind;
use leo_cell::transport::sweep;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = cli::flag(&args, "--scale", cli::finite)
        .unwrap_or(0.01)
        .clamp(0.005, 1.0);
    let out = cli::text(&args, "--out");

    // Force the gate on before the first `enabled()` read caches it.
    std::env::set_var("LEO_OBS", "1");
    assert!(obs::enabled(), "LEO_OBS=1 must enable the obs registry");

    // 1. A campaign: stage spans, orbit fast-path counters, and (through
    //    its measurement sims) the netsim drop/queue counters. Two
    //    explicit workers so the per-worker spans record even on a
    //    single-core box (the output is byte-identical regardless).
    eprintln!("[1/7] campaign at scale {scale}…");
    let campaign = Campaign::generate_with_threads(
        CampaignConfig {
            scale,
            seed: 0xcafe_2023,
            ..CampaignConfig::default()
        },
        2,
    );

    // 2. A deliberately faulted MPTCP download over two of its traces:
    //    per-subflow stats plus fault-caused drops.
    eprintln!("[2/7] faulted MPTCP emulation…");
    let (sat_down, _) = &campaign.traces[&NetworkId::Mobility];
    let (cell_down, _) = &campaign.traces[&NetworkId::Att];
    let secs = sat_down.duration_s();
    let faults =
        FaultSchedule::new()
            .outage_s(secs / 4, secs / 2)
            .loss_s(secs / 2, 3 * secs / 4, 0.2);
    let r = run_mptcp_faulted(
        sat_down,
        cell_down,
        SchedulerKind::MinRtt,
        BufferTuning::Tuned,
        7,
        &faults,
        &FaultSchedule::new(),
    );
    eprintln!("      faulted MPTCP mean: {:.1} Mbps", r.mean_mbps);

    // 3. A two-scenario sweep: runner spans and worker utilisation.
    eprintln!("[3/7] scenario sweep…");
    let base = CampaignConfig {
        scale,
        seed: 0x5eed,
        ..CampaignConfig::default()
    };
    let specs = vec![
        builtin(BASELINE).expect("baseline exists"),
        builtin("carrier-outage").expect("carrier-outage exists"),
    ];
    let _ = ScenarioRunner::new(base).with_threads(2).run(&specs);

    // 4. A clustered Starlink-only fleet: every anchor sits within a few
    //    km of a city, so the bucket sort packs users into far fewer
    //    geo-cells than there are users and the pooled searcher *must*
    //    record reuses (and reseats at every cell change).
    eprintln!("[4/7] fleet run…");
    let mut fleet_spec = FleetSpec::new("obs-fleet", 0x0f1e_e0b5, 400, 30);
    fleet_spec.area_mix.suburban = 0;
    fleet_spec.area_mix.rural = 0;
    fleet_spec.network_mix.att = 0;
    fleet_spec.network_mix.tmobile = 0;
    fleet_spec.network_mix.verizon = 0;
    let fleet_agg = FleetEngine::new(fleet_spec).run_with_threads(2);
    eprintln!("      fleet: {} users aggregated", fleet_agg.users);

    // 5. A slice of the transport sweep grid: harness counters, per-run
    //    and per-worker spans, and the transfers/sec gauge. A shortened
    //    single scenario keeps this step to a fraction of a second.
    eprintln!("[5/7] transport sweep…");
    let mut scenario = sweep::default_scenarios()[0];
    scenario.duration_s = 1;
    let units = sweep::grid(&[scenario]);
    let sweep_results = sweep::run_grid(&units, 0xace5, 2);
    eprintln!(
        "      sweep: {} units, mean goodput {:.1} Mbps",
        sweep_results.len(),
        sweep_results.iter().map(|r| r.goodput_mbps).sum::<f64>() / sweep_results.len() as f64
    );

    // 6. The searched-transport layer: a one-generation search (search
    //    loop counters) plus the committed artifact scored on the quick
    //    corpus (evaluation spans). Tiny population keeps it fast.
    eprintln!("[6/7] searched-transport search + eval…");
    let search_out = leo_cell::train::search(
        &leo_cell::train::SearchConfig {
            seed: 3,
            generations: 1,
            population: 4,
            threads: 2,
        },
        &leo_cell::train::quick_corpus(),
    );
    let artifact = leo_cell::train::trained_artifact();
    let ev = leo_cell::train::evaluate(&artifact.winner, &leo_cell::train::quick_corpus(), 2);
    eprintln!(
        "      search winner {} ({:.3}); artifact {:.3} on quick corpus",
        search_out.winner.name, search_out.winner_score, ev.candidate.aggregate
    );

    // 7. A faulted hour of the measurement service on two workers: the
    //    carrier outage guarantees failed sessions (retry counters) and
    //    incidents, and the explicit worker count makes the per-worker
    //    busy span record even on a single-core box.
    eprintln!("[7/7] measurement service…");
    let mut svc_cfg = leo_cell::service::ServiceConfig::canonical("carrier-outage");
    svc_cfg.horizon_s = 3600;
    let svc_report = leo_cell::service::MeasurementService::new(svc_cfg).run_with_threads(2);
    eprintln!(
        "      service: {} sessions, {} incidents",
        svc_report.totals.launched,
        svc_report.incidents.len()
    );

    let report = obs::snapshot();

    // Self-verification: the report is only useful if the hot paths
    // really flowed through the instrumentation.
    let required_counters = [
        "campaign.generations",
        "campaign.drives",
        "orbit.searcher.queries",
        "orbit.searcher.rebuilds",
        "orbit.prune.planes_total",
        "orbit.prune.planes_survived",
        "netsim.sims",
        "netsim.packets.offered",
        "netsim.packets.delivered",
        "netsim.drop.fault",
        "mptcp.runs",
        "mptcp.subflow.0.packets_sent",
        "mptcp.subflow.1.packets_sent",
        "mptcp.subflow.0.bytes_delivered",
        "mptcp.scheduler.min_rtt.runs",
        "scenario.sweeps",
        "scenario.runs",
        "fleet.runs",
        "fleet.users",
        "fleet.shards",
        "fleet.buckets",
        "fleet.searcher.reuses",
        "fleet.searcher.reseats",
        "orbit.searcher.reseats",
        "transport.sweep.runs",
        "transport.sweep.units",
        "transport.sweep.workers",
        "transport.flow.acks",
        "transport.flow.scan_slots",
        "train.search.runs",
        "train.search.generations",
        "train.search.candidates",
        "train.eval.runs",
        "train.eval.transfers",
        "service.runs",
        "service.epochs",
        "service.sessions",
        "service.sessions.retried",
        "service.sessions.failed",
        "service.points",
        "service.incidents",
        "service.vantages",
    ];
    let required_histograms = [
        "campaign.stage.drive_s",
        "campaign.stage.area_s",
        "campaign.stage.trace_s",
        "campaign.stage.tests_s",
        "campaign.worker.trace_s",
        "campaign.worker.tests_s",
        "orbit.prune.survivor_frac",
        "mptcp.subflow.srtt_ms",
        "scenario.sweep_s",
        "scenario.run_s",
        "scenario.worker.busy_s",
        "fleet.world.build_s",
        "fleet.run_s",
        "fleet.stage.plan_s",
        "fleet.stage.trace_s",
        "fleet.worker.busy_s",
        "transport.sweep.run_s",
        "transport.sweep.worker_busy_s",
        "train.search.run_s",
        "train.search.generation_s",
        "train.eval.run_s",
        "service.run_s",
        "service.stage.world_s",
        "service.stage.loop_s",
        "service.worker.busy_s",
    ];
    let mut missing = Vec::new();
    for name in required_counters {
        if report.counter(name) == 0 {
            missing.push(format!("counter {name} is zero"));
        }
    }
    for name in required_histograms {
        match report.histogram(name) {
            None => missing.push(format!("histogram {name} is absent")),
            Some(h) if h.count == 0 => missing.push(format!("histogram {name} is empty")),
            Some(_) => {}
        }
    }
    // At least one drop cause beyond faults must have fired in the
    // campaign's measurement sims (queue drops are guaranteed by TCP
    // probing; random drops by the lossy cellular replay).
    if report.counter("netsim.drop.queue") + report.counter("netsim.drop.random") == 0 {
        missing.push("no queue/random drops recorded across the campaign".into());
    }
    // Every finished simulation flushes its reordered-arrival count, which
    // is 0 on in-order pipes: require the counter, not a positive value.
    if !report.counters.contains_key("netsim.arrivals.reordered") {
        missing.push("counter netsim.arrivals.reordered is absent".into());
    }
    // Stage timings must be real wall clock, not zeros.
    for name in ["campaign.stage.drive_s", "campaign.stage.trace_s"] {
        if report.histogram(name).is_none_or(|h| h.sum <= 0.0) {
            missing.push(format!("histogram {name} has zero total time"));
        }
    }
    // The fleet's throughput gauge must have recorded a positive rate.
    match report.gauges_max.get("fleet.users_per_sec") {
        Some(v) if *v > 0.0 => {}
        _ => missing.push("gauge fleet.users_per_sec absent or zero".into()),
    }
    // Likewise the sweep harness's transfers/sec gauge.
    match report.gauges_max.get("transport.sweep.transfers_per_sec") {
        Some(v) if *v > 0.0 => {}
        _ => missing.push("gauge transport.sweep.transfers_per_sec absent or zero".into()),
    }
    // And the measurement service's sessions/sec gauge.
    match report.gauges_max.get("service.sessions_per_sec") {
        Some(v) if *v > 0.0 => {}
        _ => missing.push("gauge service.sessions_per_sec absent or zero".into()),
    }

    let json = report.to_json();
    match out {
        Some(path) => {
            std::fs::write(&path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
            eprintln!("Wrote obs run report to {path}");
        }
        None => println!("{json}"),
    }

    if !missing.is_empty() {
        eprintln!("obs_report: required metrics missing:");
        for m in &missing {
            eprintln!("  - {m}");
        }
        std::process::exit(1);
    }
    eprintln!(
        "obs_report: all {} required metric families present.",
        required_counters.len() + required_histograms.len() + 1
    );
}
