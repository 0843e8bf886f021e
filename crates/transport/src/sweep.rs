//! Batched transfer sweeps: a (scenario × scheduler × CC) grid of MPTCP
//! transfers fanned over the workspace executor.
//!
//! Parameter search over transport configurations runs thousands of
//! independent transfers; this module is the harness that makes that
//! throughput-bound rather than bookkeeping-bound, and the substrate the
//! `leo-train` search and its baselines run on. Determinism follows the
//! fleet/conformance recipe: every unit derives its seed from
//! `(base seed, unit index)` via [`unit_seed`], workers pull units from
//! one shared cursor ([`leo_exec::run_indexed`]), and results come back
//! in unit order — so the output is byte-identical for every worker
//! count.

use crate::cc::CcAlgorithm;
use crate::mptcp::SchedulerKind;
use crate::plugin::TransportPlugins;
use crate::transfer::{self, faulted, Endpoints, Path};
use leo_netsim::{ConstPipe, FaultSchedule, SimTime};
use serde::Serialize;

/// The seed unit `index` of a sweep with master `seed` executes under,
/// so a unit's outcome is independent of how many workers ran the sweep
/// or which one executed it.
pub use leo_exec::unit_seed;

/// Runs `run_unit` over every unit on at most `threads` workers, the
/// calling thread included, returning results in unit order.
///
/// Workers pull the next unclaimed unit from one shared cursor
/// ([`leo_exec::run_indexed`]), so a slow unit never holds back a queue
/// of quick ones, and each call receives the unit's index so it can
/// derive a per-unit seed via [`unit_seed`]. The merged output is
/// therefore byte-identical for every `threads` value.
pub fn run_units<U, R, F>(units: &[U], threads: usize, run_unit: F) -> Vec<R>
where
    U: Sync,
    R: Send,
    F: Fn(usize, &U) -> R + Sync,
{
    let _run = leo_obs::span("transport.sweep.run_s");
    leo_obs::incr("transport.sweep.runs", 1);
    leo_obs::incr("transport.sweep.units", units.len() as u64);
    let workers = leo_exec::workers(units.len(), threads);
    leo_obs::incr("transport.sweep.workers", workers as u64);
    let started = leo_obs::enabled().then(std::time::Instant::now);

    let results =
        leo_exec::run_indexed(units.len(), threads, "transport.sweep.worker_busy_s", |i| {
            run_unit(i, &units[i])
        });

    if let Some(t0) = started {
        let secs = t0.elapsed().as_secs_f64();
        if secs > 0.0 {
            leo_obs::gauge_max(
                "transport.sweep.transfers_per_sec",
                units.len() as f64 / secs,
            );
        }
    }
    results
}

/// A single scheduled blackout on one path: every packet in
/// `[start_ms, start_ms + dur_ms)` is dropped, both directions.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct OutageSpec {
    /// Outage onset, milliseconds of sim time.
    pub start_ms: u64,
    /// Outage length, milliseconds.
    pub dur_ms: u64,
}

/// A periodic handover clock: starting at `period_ms`, the path blacks
/// out for `outage_ms` every `period_ms` — the 15 s global
/// reconfiguration beat of a LEO constellation, compressed or stretched
/// per scenario.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct HandoverSpec {
    /// Interval between blackout onsets, milliseconds.
    pub period_ms: u64,
    /// Blackout length at each beat, milliseconds.
    pub outage_ms: u64,
}

/// One emulated path of a sweep scenario.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct PathSpec {
    /// Link rate in Mbps.
    pub rate_mbps: f64,
    /// One-way propagation delay in milliseconds.
    pub delay_ms: u64,
    /// Independent per-packet loss probability.
    pub loss: f64,
    /// Optional one-shot mid-transfer outage.
    pub outage: Option<OutageSpec>,
    /// Optional periodic handover-outage clock.
    pub handover: Option<HandoverSpec>,
}

impl PathSpec {
    /// A fault-free path: no outage and no handover clock.
    pub fn new(rate_mbps: f64, delay_ms: u64, loss: f64) -> Self {
        Self {
            rate_mbps,
            delay_ms,
            loss,
            outage: None,
            handover: None,
        }
    }

    /// Adds a one-shot outage window (builder style).
    pub fn with_outage(mut self, start_ms: u64, dur_ms: u64) -> Self {
        self.outage = Some(OutageSpec { start_ms, dur_ms });
        self
    }

    /// Adds a periodic handover-outage clock (builder style).
    pub fn with_handover(mut self, period_ms: u64, outage_ms: u64) -> Self {
        self.handover = Some(HandoverSpec {
            period_ms,
            outage_ms,
        });
        self
    }

    /// Compiles the declared faults into a [`FaultSchedule`] covering a
    /// `duration_s`-second transfer. Outage-only windows, so executing
    /// the schedule draws no RNG; a fault-free path compiles to an empty
    /// schedule, which leaves its pipes unwrapped.
    pub fn fault_schedule(&self, duration_s: u64) -> FaultSchedule {
        let mut sched = FaultSchedule::new();
        if let Some(o) = self.outage {
            sched = sched.with(leo_netsim::FaultWindow {
                start_ms: o.start_ms,
                end_ms: o.start_ms + o.dur_ms,
                kind: leo_netsim::FaultKind::Outage,
            });
        }
        if let Some(h) = self.handover {
            if h.period_ms > 0 && h.outage_ms > 0 {
                let mut start = h.period_ms;
                while start < duration_s * 1000 {
                    sched = sched.with(leo_netsim::FaultWindow {
                        start_ms: start,
                        end_ms: start + h.outage_ms,
                        kind: leo_netsim::FaultKind::Outage,
                    });
                    start += h.period_ms;
                }
            }
        }
        sched
    }

    /// This path for a `duration_s`-second transfer: a constant-rate data
    /// pipe with the path's loss and a lossless ACK pipe back, both queued
    /// to 2× the path BDP, with the declared faults on both directions (a
    /// handover blackout takes the ACK stream down with the data stream).
    pub fn transfer_path(&self, duration_s: u64) -> Path {
        let bdp_bytes = (self.rate_mbps * 1e6 / 8.0) * (2.0 * self.delay_ms as f64 / 1e3);
        let queue = bdp_bytes as u64 + 50_000;
        let pipe = |loss| {
            ConstPipe::new(
                self.rate_mbps,
                SimTime::from_millis(self.delay_ms),
                loss,
                queue,
            )
        };
        let faults = self.fault_schedule(duration_s);
        Path::new(
            faulted(pipe(self.loss), faults.clone()),
            faulted(pipe(0.0), faults),
        )
    }
}

/// A two-path MPTCP topology plus transfer length.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct SweepScenario {
    /// Human-readable label carried into results.
    pub name: &'static str,
    /// The two subflow paths (data direction; ACK paths are lossless).
    pub paths: [PathSpec; 2],
    /// Connection-level receive buffer in packets.
    pub buffer_packets: u64,
    /// Simulated transfer duration in seconds.
    pub duration_s: u64,
}

/// One cell of the (scenario × scheduler × CC) grid.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct SweepUnit {
    /// The topology and duration to run.
    pub scenario: SweepScenario,
    /// Packet scheduler under test.
    pub scheduler: SchedulerKind,
    /// Congestion controller under test.
    pub cc: CcAlgorithm,
}

/// Aggregate outcome of one sweep transfer.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct SweepResult {
    /// Receiver goodput over the transfer window, Mbps.
    pub goodput_mbps: f64,
    /// Data packets sent across all subflows.
    pub packets_sent: u64,
    /// Retransmissions across all subflows.
    pub retransmissions: u64,
    /// RTO events across all subflows.
    pub timeouts: u64,
}

/// Scenarios spanning the paper's regimes: clean pooling, lossy LEO +
/// clean cellular, and a small-buffer head-of-line case.
pub fn default_scenarios() -> Vec<SweepScenario> {
    vec![
        SweepScenario {
            name: "pool-clean",
            paths: [PathSpec::new(40.0, 20, 0.0), PathSpec::new(60.0, 35, 0.0)],
            buffer_packets: 16_384,
            duration_s: 8,
        },
        SweepScenario {
            name: "leo-lossy",
            paths: [PathSpec::new(80.0, 30, 0.01), PathSpec::new(25.0, 15, 0.0)],
            buffer_packets: 16_384,
            duration_s: 8,
        },
        SweepScenario {
            name: "small-buffer",
            paths: [PathSpec::new(50.0, 25, 0.002), PathSpec::new(50.0, 60, 0.0)],
            buffer_packets: 256,
            duration_s: 8,
        },
    ]
}

/// The full (scenario × scheduler × CC) cross product, in row-major
/// order (scenario outermost, CC innermost).
pub fn grid(scenarios: &[SweepScenario]) -> Vec<SweepUnit> {
    let ccs = [CcAlgorithm::Reno, CcAlgorithm::Cubic, CcAlgorithm::BbrLite];
    let mut units = Vec::with_capacity(scenarios.len() * SchedulerKind::ALL.len() * ccs.len());
    for &scenario in scenarios {
        for scheduler in SchedulerKind::ALL {
            for cc in ccs {
                units.push(SweepUnit {
                    scenario,
                    scheduler,
                    cc,
                });
            }
        }
    }
    units
}

/// Runs one grid cell under `seed`: a two-path MPTCP transfer over the
/// paths' [`PathSpec::transfer_path`]s.
pub fn run_transfer(unit: &SweepUnit, seed: u64) -> SweepResult {
    run_transfer_with(unit, seed, &TransportPlugins::default())
}

/// [`run_transfer`] with external transport plug-ins: a searched CC
/// and/or scheduler rides the cell instead of the built-ins named by the
/// unit (the unit's `cc`/`scheduler` still apply wherever a hook is
/// absent). Empty plug-ins are bit-identical to [`run_transfer`].
pub fn run_transfer_with(unit: &SweepUnit, seed: u64, plugins: &TransportPlugins) -> SweepResult {
    let sc = &unit.scenario;
    let endpoints = Endpoints::Mptcp {
        cc: unit.cc,
        coupled: true,
        scheduler: unit.scheduler,
        buffer_packets: sc.buffer_packets,
        leo_guard: None,
        plugins: plugins.clone(),
    };
    let paths = sc.paths.iter().map(|p| p.transfer_path(sc.duration_s));
    let out = transfer::run(seed, endpoints, paths.collect(), sc.duration_s);
    SweepResult {
        goodput_mbps: out.receivers[0].mean_mbps,
        packets_sent: out.senders.iter().map(|s| s.packets_sent).sum(),
        retransmissions: out.senders.iter().map(|s| s.retransmissions).sum(),
        timeouts: out.senders.iter().map(|s| s.timeouts).sum(),
    }
}

/// Runs the grid over `threads` workers with per-unit seeds derived
/// from `seed` — the one-call entry point for search-scale evaluation.
pub fn run_grid(units: &[SweepUnit], seed: u64, threads: usize) -> Vec<SweepResult> {
    run_units(units, threads, |i, u| {
        run_transfer(u, unit_seed(seed, i as u64))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_units_is_thread_count_invariant() {
        let units: Vec<u64> = (0..13).collect();
        let one = run_units(&units, 1, |i, &u| unit_seed(u, i as u64));
        for threads in [2, 3, 8, 64] {
            let many = run_units(&units, threads, |i, &u| unit_seed(u, i as u64));
            assert_eq!(one, many, "threads={threads}");
        }
    }

    #[test]
    fn grid_covers_full_cross_product() {
        let scenarios = default_scenarios();
        let units = grid(&scenarios);
        assert_eq!(units.len(), scenarios.len() * SchedulerKind::ALL.len() * 3);
    }

    #[test]
    fn grid_results_are_thread_count_invariant() {
        // One small scenario over the full scheduler × CC grid; outcomes
        // (including f64 goodput bits) must not depend on worker count.
        let scenarios = vec![SweepScenario {
            name: "tiny",
            paths: [PathSpec::new(20.0, 10, 0.01), PathSpec::new(10.0, 25, 0.0)],
            buffer_packets: 4_096,
            duration_s: 2,
        }];
        let units = grid(&scenarios);
        let one = run_grid(&units, 0xfeed, 1);
        let four = run_grid(&units, 0xfeed, 4);
        for (a, b) in one.iter().zip(four.iter()) {
            assert_eq!(a.goodput_mbps.to_bits(), b.goodput_mbps.to_bits());
            assert_eq!(a.packets_sent, b.packets_sent);
            assert_eq!(a.retransmissions, b.retransmissions);
            assert_eq!(a.timeouts, b.timeouts);
        }
    }

    #[test]
    fn empty_unit_list_yields_empty_results() {
        // Degenerate sweep: no units. Must not panic at any worker
        // count and must return an empty result vector.
        for threads in [1, 4, 16] {
            assert!(run_grid(&[], 0xabcd, threads).is_empty());
            let none: Vec<u64> = run_units(&[] as &[u64], threads, |i, &u| u + i as u64);
            assert!(none.is_empty());
        }
    }

    #[test]
    fn single_unit_with_excess_workers_matches_serial() {
        // workers > units: the worker count clamps to the unit count and
        // the lone unit's outcome is byte-identical to the serial run.
        let unit = SweepUnit {
            scenario: SweepScenario {
                name: "solo",
                paths: [PathSpec::new(15.0, 12, 0.005), PathSpec::new(8.0, 30, 0.0)],
                buffer_packets: 2_048,
                duration_s: 2,
            },
            scheduler: SchedulerKind::MinRtt,
            cc: CcAlgorithm::Cubic,
        };
        let one = run_grid(std::slice::from_ref(&unit), 0x51, 1);
        let many = run_grid(std::slice::from_ref(&unit), 0x51, 32);
        assert_eq!(one.len(), 1);
        assert_eq!(many.len(), 1);
        assert_eq!(
            one[0].goodput_mbps.to_bits(),
            many[0].goodput_mbps.to_bits()
        );
        assert_eq!(one[0].packets_sent, many[0].packets_sent);
        assert_eq!(one[0].retransmissions, many[0].retransmissions);
        assert_eq!(one[0].timeouts, many[0].timeouts);
    }

    #[test]
    fn dead_subflow_starves_scheduler_without_stalling_transfer() {
        // Path 0 drops every data packet for the whole transfer: its
        // subflow never completes a round trip, so every scheduler must
        // keep the connection alive on path 1 alone (the starvation path
        // the grid never exercised before).
        let scenario = SweepScenario {
            name: "dead-subflow",
            paths: [PathSpec::new(30.0, 20, 1.0), PathSpec::new(12.0, 25, 0.0)],
            buffer_packets: 4_096,
            duration_s: 4,
        };
        for scheduler in SchedulerKind::ALL {
            let unit = SweepUnit {
                scenario,
                scheduler,
                cc: CcAlgorithm::Cubic,
            };
            let r = run_transfer(&unit, 0x00de);
            assert!(
                r.goodput_mbps > 1.0,
                "{scheduler:?} stalled on a dead subflow: {} Mbps",
                r.goodput_mbps
            );
            // The dead path sent packets (it has cwnd space until its
            // RTOs back off) and every one of them was lost.
            assert!(r.timeouts > 0, "{scheduler:?} saw no RTOs on the dead path");
        }
    }

    #[test]
    fn declared_faults_compile_and_perturb_the_transfer() {
        // A handover clock plus a mid-transfer outage must reduce
        // goodput relative to the same topology without faults, and a
        // fault-free PathSpec must compile to an empty (transparent)
        // schedule.
        let clean = PathSpec::new(40.0, 25, 0.0);
        assert!(clean.fault_schedule(8).is_empty());
        let storm = clean.with_handover(2_000, 400).with_outage(5_000, 600);
        assert_eq!(storm.fault_schedule(8).windows().len(), 1 + 3);

        let mk = |p0: PathSpec| SweepUnit {
            scenario: SweepScenario {
                name: "fault-compare",
                paths: [p0, PathSpec::new(10.0, 40, 0.0)],
                buffer_packets: 4_096,
                duration_s: 8,
            },
            scheduler: SchedulerKind::MinRtt,
            cc: CcAlgorithm::Cubic,
        };
        let base = run_transfer(&mk(clean), 0x7a7a);
        let hit = run_transfer(&mk(storm), 0x7a7a);
        assert!(
            hit.goodput_mbps < base.goodput_mbps,
            "faults did not bite: {} vs {}",
            hit.goodput_mbps,
            base.goodput_mbps
        );
        assert!(hit.timeouts > 0, "outages produced no RTOs");
    }
}
