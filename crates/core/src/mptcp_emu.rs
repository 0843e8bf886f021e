//! The §6 emulation harness: trace-driven MPTCP vs. single-path TCP.
//!
//! Reproduces the paper's MpShell methodology: "we use the UDP downlink
//! throughput traces in our driving dataset and convert them to packet
//! traces for replay … Different network traces are aligned via
//! timestamps." Each experiment replays two aligned downlink traces as
//! [`leo_netsim::TracePipe`]s and downloads through either a single-path
//! [`leo_transport::tcp`] connection or an MPTCP connection across both.
//!
//! Fidelity note: like MpShell, the replay carries **capacity and latency
//! only** — the paper deliberately derives link conditions from UDP
//! traces "to emulate the available bandwidth at each timestamp", and
//! trace-driven emulation does not reproduce the channel's random loss
//! (TCP in the emulator sees only its own queue drops). That is exactly
//! why the paper's emulated MPTCP reaches 81–84 % utilisation even though
//! live Starlink TCP suffers badly — and this harness inherits both the
//! methodology and that caveat.

use leo_link::mahimahi::MahimahiTrace;
use leo_link::trace::LinkTrace;
use leo_netsim::{ConstPipe, FaultSchedule, PipeStats, SimTime, TracePipe};
use leo_transport::cc::CcAlgorithm;
use leo_transport::mptcp::{LeoGuard, SchedulerKind};
use leo_transport::transfer::{self, faulted, Endpoints, Path, TransferOutcome};
use serde::{Deserialize, Serialize};

/// Receive-buffer regime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BufferTuning {
    /// OS defaults: a buffer around 1× the path bandwidth-delay product —
    /// the regime where the paper saw marginal gains and collapses.
    Default,
    /// ">10× the link's bandwidth-delay product" (§6).
    Tuned,
}

/// Result of one emulated download.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EmulationResult {
    pub mean_mbps: f64,
    pub per_second_mbps: Vec<f64>,
    /// Application bytes the receiver delivered in order.
    pub delivered_bytes: u64,
    /// Post-run counters for every pipe in the simulation, in `LinkId`
    /// order (data pipes first, then ack pipes). The conformance harness
    /// reconciles the receiver's goodput against these.
    pub link_stats: Vec<PipeStats>,
}

impl EmulationResult {
    fn empty(secs: u64) -> Self {
        EmulationResult {
            mean_mbps: 0.0,
            per_second_mbps: vec![0.0; secs as usize],
            delivered_bytes: 0,
            link_stats: Vec::new(),
        }
    }

    fn from_outcome(mut out: TransferOutcome) -> Self {
        let r = out.receivers.remove(0);
        EmulationResult {
            mean_mbps: r.mean_mbps,
            per_second_mbps: r.per_second_mbps,
            delivered_bytes: r.delivered_bytes,
            link_stats: out.audit.links,
        }
    }
}

fn mean_capacity(trace: &LinkTrace) -> f64 {
    trace.stats().map(|s| s.mean_mbps).unwrap_or(0.0)
}

fn mean_rtt_ms(trace: &LinkTrace) -> f64 {
    trace.stats().map(|s| s.mean_rtt_ms).unwrap_or(60.0)
}

/// Buffer size in packets for a two-path experiment.
pub fn buffer_packets(tuning: BufferTuning, a: &LinkTrace, b: &LinkTrace) -> u64 {
    let cap = mean_capacity(a) + mean_capacity(b);
    let rtt_s = mean_rtt_ms(a).max(mean_rtt_ms(b)) / 1e3;
    let bdp_packets = (cap * 1e6 / 8.0 * rtt_s / 1500.0).max(16.0);
    match tuning {
        BufferTuning::Default => (bdp_packets * 1.0) as u64,
        BufferTuning::Tuned => (bdp_packets * 12.0) as u64,
    }
}

/// Flushes per-subflow sender state into the obs registry after an MPTCP
/// run. Only called when `LEO_OBS=1`, from the outcome the run returned.
fn flush_mptcp_obs(out: &TransferOutcome, scheduler: SchedulerKind) {
    leo_obs::incr("mptcp.runs", 1);
    let sched = match scheduler {
        SchedulerKind::RoundRobin => "mptcp.scheduler.round_robin.runs",
        SchedulerKind::MinRtt => "mptcp.scheduler.min_rtt.runs",
        SchedulerKind::Blest => "mptcp.scheduler.blest.runs",
        SchedulerKind::Ecf => "mptcp.scheduler.ecf.runs",
        SchedulerKind::LeoAware => "mptcp.scheduler.leo_aware.runs",
    };
    leo_obs::incr(sched, 1);
    // Subflow `i` sends over data pipe `i`, which is link `i`.
    for (i, (s, link)) in out.senders.iter().zip(&out.audit.links).enumerate() {
        leo_obs::incr(&format!("mptcp.subflow.{i}.packets_sent"), s.packets_sent);
        leo_obs::incr(
            &format!("mptcp.subflow.{i}.retransmissions"),
            s.retransmissions,
        );
        leo_obs::incr(&format!("mptcp.subflow.{i}.timeouts"), s.timeouts);
        leo_obs::incr(
            &format!("mptcp.subflow.{i}.bytes_delivered"),
            link.delivered_bytes,
        );
    }
    for s in &out.senders {
        leo_obs::observe("mptcp.subflow.srtt_ms", s.srtt_s * 1e3);
    }
    leo_obs::observe("mptcp.retx_rate", out.retransmission_rate());
}

/// The replay's path over `trace`: the capacity series replayed as a
/// Mahimahi data pipe (no loss series: MpShell replays bandwidth and
/// latency from the UDP traces; channel loss is not part of the emulation,
/// see module docs) under `faults`, and a constant ACK pipe back. `None`
/// when the trace carries no capacity at all.
fn path_for(trace: &LinkTrace, faults: &FaultSchedule) -> Option<Path> {
    let caps = trace.capacity_series();
    let mm = MahimahiTrace::from_capacity_series(&caps);
    if mm.is_empty() {
        return None;
    }
    let one_way = SimTime::from_secs_f64(mean_rtt_ms(trace) / 2.0 / 1e3);
    let queue = (mean_capacity(trace) * 1e6 / 8.0 * mean_rtt_ms(trace) / 1e3) as u64 + 60_000;
    let data = faulted(TracePipe::new(mm, one_way, queue), faults.clone());
    let ack = ConstPipe::new(mean_capacity(trace).max(10.0), one_way, 0.0, 1 << 22);
    Some(Path::new(data, Box::new(ack)))
}

/// Downloads for the traces' duration over a single path with CUBIC.
pub fn run_single_path(trace: &LinkTrace, seed: u64) -> EmulationResult {
    run_single_path_faulted(trace, seed, &FaultSchedule::new())
}

/// [`run_single_path`] with a scheduled-fault overlay on the data path —
/// the scenario engine's entry point for degraded solo downloads.
pub fn run_single_path_faulted(
    trace: &LinkTrace,
    seed: u64,
    faults: &FaultSchedule,
) -> EmulationResult {
    let secs = trace.duration_s();
    let Some(path) = path_for(trace, faults) else {
        return EmulationResult::empty(secs);
    };
    let endpoints = Endpoints::Tcp {
        cc: CcAlgorithm::Cubic,
        rwnd_packets: 1 << 16,
    };
    let out = transfer::run(seed, endpoints, vec![path], secs);
    leo_obs::incr("tcp.single_path.runs", 1);
    EmulationResult::from_outcome(out)
}

/// Downloads over MPTCP across two aligned traces.
pub fn run_mptcp(
    trace_a: &LinkTrace,
    trace_b: &LinkTrace,
    scheduler: SchedulerKind,
    tuning: BufferTuning,
    seed: u64,
) -> EmulationResult {
    let none = FaultSchedule::new();
    run_mptcp_faulted(trace_a, trace_b, scheduler, tuning, seed, &none, &none)
}

/// [`run_mptcp`] with per-path scheduled-fault overlays on the data
/// pipes — the §6 emulation under injected degradation (forced outages,
/// loss bursts, delay spikes mid-download). Fault drops count as
/// `dropped_fault`, so MPTCP sees them exactly like mid-path packet
/// loss: RTO-driven reinjection must rescue stranded data.
#[allow(clippy::too_many_arguments)]
pub fn run_mptcp_faulted(
    trace_a: &LinkTrace,
    trace_b: &LinkTrace,
    scheduler: SchedulerKind,
    tuning: BufferTuning,
    seed: u64,
    faults_a: &FaultSchedule,
    faults_b: &FaultSchedule,
) -> EmulationResult {
    assert_eq!(
        trace_a.duration_s(),
        trace_b.duration_s(),
        "traces must be timestamp-aligned"
    );
    let secs = trace_a.duration_s();
    match (path_for(trace_a, faults_a), path_for(trace_b, faults_b)) {
        (Some(a), Some(b)) => {
            let endpoints = Endpoints::Mptcp {
                cc: CcAlgorithm::Cubic,
                coupled: true,
                scheduler,
                buffer_packets: buffer_packets(tuning, trace_a, trace_b),
                // By convention `trace_a` is the satellite path; the
                // LEO-aware scheduler gets the Starlink reconfiguration
                // clock for it.
                leo_guard: (scheduler == SchedulerKind::LeoAware).then(LeoGuard::starlink_default),
                plugins: Default::default(),
            };
            let out = transfer::run(seed, endpoints, vec![a, b], secs);
            if leo_obs::enabled() {
                flush_mptcp_obs(&out, scheduler);
            }
            EmulationResult::from_outcome(out)
        }
        // One path entirely dead: MPTCP degenerates to the live path
        // (still under that path's scheduled faults).
        (Some(_), None) => run_single_path_faulted(trace_a, seed, faults_a),
        (None, Some(_)) => run_single_path_faulted(trace_b, seed, faults_b),
        (None, None) => EmulationResult::empty(secs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leo_link::condition::LinkCondition;

    fn flat_trace(label: &str, mbps: f64, rtt: f64, secs: usize) -> LinkTrace {
        LinkTrace::new(label, 0, vec![LinkCondition::new(mbps, rtt, 0.0001); secs])
    }

    #[test]
    fn single_path_tracks_trace_capacity() {
        let t = flat_trace("A", 60.0, 50.0, 15);
        let r = run_single_path(&t, 3);
        assert!(
            r.mean_mbps > 35.0,
            "single path {} Mbps on a 60 Mbps trace",
            r.mean_mbps
        );
        assert_eq!(r.per_second_mbps.len(), 15);
    }

    #[test]
    fn mptcp_tuned_pools_paths() {
        let a = flat_trace("A", 60.0, 50.0, 15);
        let b = flat_trace("B", 40.0, 70.0, 15);
        let single = run_single_path(&a, 3);
        let mp = run_mptcp(&a, &b, SchedulerKind::Blest, BufferTuning::Tuned, 3);
        assert!(
            mp.mean_mbps > single.mean_mbps,
            "MPTCP {} vs best single {}",
            mp.mean_mbps,
            single.mean_mbps
        );
    }

    #[test]
    fn dead_path_degenerates_gracefully() {
        let a = flat_trace("A", 50.0, 50.0, 10);
        let dead = LinkTrace::new("D", 0, vec![LinkCondition::OUTAGE; 10]);
        let mp = run_mptcp(&a, &dead, SchedulerKind::MinRtt, BufferTuning::Tuned, 3);
        assert!(mp.mean_mbps > 20.0, "got {}", mp.mean_mbps);
        let both_dead = run_mptcp(&dead, &dead, SchedulerKind::MinRtt, BufferTuning::Tuned, 3);
        assert_eq!(both_dead.mean_mbps, 0.0);
    }

    #[test]
    fn faulted_run_with_empty_schedules_matches_plain_run() {
        let a = flat_trace("A", 60.0, 50.0, 12);
        let b = flat_trace("B", 40.0, 70.0, 12);
        let none = FaultSchedule::new();
        let plain = run_mptcp(&a, &b, SchedulerKind::Blest, BufferTuning::Tuned, 5);
        let wrapped = run_mptcp_faulted(
            &a,
            &b,
            SchedulerKind::Blest,
            BufferTuning::Tuned,
            5,
            &none,
            &none,
        );
        assert_eq!(plain.per_second_mbps, wrapped.per_second_mbps);
        let sp = run_single_path(&a, 5);
        let sf = run_single_path_faulted(&a, 5, &none);
        assert_eq!(sp.per_second_mbps, sf.per_second_mbps);
    }

    #[test]
    fn mptcp_degrades_gracefully_under_injected_outage() {
        // The graceful-degradation property: with one path forced into
        // outage for most of the download, MPTCP must still sustain at
        // least the surviving path's solo throughput (the early dual-path
        // seconds more than pay for the dead subflow's probing).
        let a = flat_trace("A", 60.0, 50.0, 30);
        let b = flat_trace("B", 40.0, 70.0, 30);
        let outage_b = FaultSchedule::new().outage_s(10, 30);
        let mp = run_mptcp_faulted(
            &a,
            &b,
            SchedulerKind::Blest,
            BufferTuning::Tuned,
            7,
            &FaultSchedule::new(),
            &outage_b,
        );
        let solo_surviving = run_single_path(&a, 7);
        assert!(
            mp.mean_mbps >= solo_surviving.mean_mbps,
            "faulted MPTCP {} must sustain the surviving path's solo {}",
            mp.mean_mbps,
            solo_surviving.mean_mbps
        );
        // And the outage really bit: the faulted run stays below the
        // fault-free dual-path run.
        let clean = run_mptcp(&a, &b, SchedulerKind::Blest, BufferTuning::Tuned, 7);
        assert!(
            mp.mean_mbps < clean.mean_mbps,
            "outage had no effect: {} vs clean {}",
            mp.mean_mbps,
            clean.mean_mbps
        );
    }

    #[test]
    fn buffer_sizes_scale_with_tuning() {
        let a = flat_trace("A", 100.0, 60.0, 10);
        let b = flat_trace("B", 50.0, 40.0, 10);
        let small = buffer_packets(BufferTuning::Default, &a, &b);
        let big = buffer_packets(BufferTuning::Tuned, &a, &b);
        assert!(big >= 10 * small, "tuned {big} vs default {small}");
    }
}
