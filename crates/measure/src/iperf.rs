//! The iPerf counterpart: bulk-transfer throughput tests.
//!
//! # Engines
//!
//! * [`Engine::PacketLevel`] replays the link's per-second conditions as a
//!   Mahimahi [`leo_netsim::TracePipe`] plus loss series, and runs the real
//!   [`leo_transport`] stack over it. This is the high-fidelity path used
//!   by the parallelism (§4.2) and MPTCP (§6) experiments.
//!
//! * [`Engine::Analytic`] evaluates calibrated transport response models
//!   directly on the conditions. It exists because the campaign runs 1,239
//!   tests over 9,083 minutes: packet-level simulation of every test would
//!   dominate runtime without changing the distributional results. The
//!   response models are validated against the packet-level engine in this
//!   module's tests.
//!
//! # Analytic model calibration
//!
//! UDP delivers the available capacity (minus channel loss). TCP is the
//! smaller of a utilisation-capped capacity share and the CUBIC loss
//! response:
//!
//! ```text
//! W_max = (RTT / (0.84 · p_e))^(3/4)      (CUBIC epochs, C=0.4, β=0.7)
//! R_loss = 0.925 · W_max · MSS / RTT
//! ```
//!
//! where `p_e` is the *loss-event* rate: channel loss divided by the
//! network's loss burst factor. Starlink loss is highly bursty
//! (obstruction events drown many consecutive packets), so its burst
//! factor is large; with the default calibration a ~0.8 % channel loss
//! becomes the ~5× TCP/UDP gap of Figure 3a. Links with link-layer
//! retransmission (cellular HARQ/RLC) hide channel loss from TCP
//! entirely; they are capacity-limited with a utilisation that grows with
//! flow parallelism.

use leo_link::condition::{Direction, LinkCondition};
use leo_link::mahimahi::MahimahiTrace;
use leo_link::trace::LinkTrace;
use leo_netsim::{ConstPipe, FaultSchedule, PipeStats, SimTime, TracePipe};
use leo_transport::cc::CcAlgorithm;
use leo_transport::transfer::{self, faulted, Endpoints, Path};
use serde::{Deserialize, Serialize};

/// Which transport the test drives.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum IperfProtocol {
    /// TCP bulk transfer with `parallel` connections (iPerf `-P`).
    Tcp { parallel: u32 },
    /// UDP blast at (slightly above) link capacity.
    Udp,
}

/// Which execution engine to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Engine {
    /// Full packet-level emulation via `leo-netsim`.
    PacketLevel,
    /// Calibrated closed-form response models.
    Analytic,
}

/// An iPerf test specification.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IperfConfig {
    pub protocol: IperfProtocol,
    pub direction: Direction,
    pub engine: Engine,
    /// Loss burst factor for the analytic TCP response (ratio of packet
    /// loss to loss-*event* rate). Starlink ≈ 100 (§ module docs).
    pub loss_burst_factor: f64,
    /// The link hides channel loss from TCP via link-layer retransmission
    /// (true for cellular HARQ/RLC, false for Starlink).
    pub link_layer_retx: bool,
    /// Congestion controller for the packet-level TCP engine (the analytic
    /// engine models CUBIC regardless).
    pub cc: CcAlgorithm,
    /// RNG seed for the packet-level engine.
    pub seed: u64,
    /// Faults injected into the packet-level data path (mid-path outages,
    /// loss bursts, delay spikes). An empty schedule is exactly
    /// transparent; the analytic engine ignores faults entirely. Skipped
    /// in serialisation (a stored config deserialises fault-free).
    #[serde(skip)]
    pub faults: FaultSchedule,
}

impl IperfConfig {
    /// Analytic UDP downlink probe (the §4/§5 workhorse).
    pub fn udp_down() -> Self {
        Self {
            protocol: IperfProtocol::Udp,
            direction: Direction::Down,
            engine: Engine::Analytic,
            loss_burst_factor: 100.0,
            link_layer_retx: false,
            cc: CcAlgorithm::Cubic,
            seed: 1,
            faults: FaultSchedule::new(),
        }
    }

    /// Analytic TCP downlink with `parallel` connections over a
    /// Starlink-like (bursty-loss) link.
    pub fn tcp_down_starlink(parallel: u32) -> Self {
        Self {
            protocol: IperfProtocol::Tcp { parallel },
            direction: Direction::Down,
            engine: Engine::Analytic,
            loss_burst_factor: 100.0,
            link_layer_retx: false,
            cc: CcAlgorithm::Cubic,
            seed: 1,
            faults: FaultSchedule::new(),
        }
    }

    /// Analytic TCP downlink over a cellular-like (link-layer-retx) link.
    pub fn tcp_down_cellular(parallel: u32) -> Self {
        Self {
            link_layer_retx: true,
            ..Self::tcp_down_starlink(parallel)
        }
    }

    /// Switches to the requested direction.
    pub fn with_direction(mut self, direction: Direction) -> Self {
        self.direction = direction;
        self
    }

    /// Switches engines.
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Switches the packet-level congestion controller.
    pub fn with_cc(mut self, cc: CcAlgorithm) -> Self {
        self.cc = cc;
        self
    }

    /// Injects a fault schedule into the packet-level data path.
    pub fn with_faults(mut self, faults: FaultSchedule) -> Self {
        self.faults = faults;
        self
    }
}

/// The result of one iPerf run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IperfReport {
    /// Per-second delivered throughput, Mbps.
    pub per_second_mbps: Vec<f64>,
    /// Mean over the run, Mbps.
    pub mean_mbps: f64,
    /// Retransmission rate (TCP: retransmitted over sent packets) or loss
    /// rate (UDP). The packet-level UDP loss is `1 − received / sent`, so
    /// a datagram still in flight when the test ends counts as lost, and
    /// so does one the blaster's own queue drops: it sends at 1.3× the
    /// mean capacity into one mean BDP plus 60 kB of queue, so 8 s on a
    /// clean 30-Mbps link read 0.2327 where the analytic engine reads the
    /// channel's 0. On a dead link (mean capacity ≤ 0.05 Mbps) both
    /// engines read UDP loss 1; packet-level TCP reads 0 there, having
    /// transmitted nothing.
    pub retrans_rate: f64,
}

impl IperfReport {
    fn from_series(per_second_mbps: Vec<f64>, retrans_rate: f64) -> Self {
        let mean = if per_second_mbps.is_empty() {
            0.0
        } else {
            per_second_mbps.iter().sum::<f64>() / per_second_mbps.len() as f64
        };
        Self {
            per_second_mbps,
            mean_mbps: mean,
            retrans_rate,
        }
    }
}

/// What the packet-level engine's pipes actually did, alongside the
/// report: exact per-link counters for reconciling the report's loss and
/// throughput claims (the conformance harness's fault-injection tests
/// consume this).
#[derive(Debug, Clone, Default)]
pub struct IperfAudit {
    /// Per-link [`PipeStats`] in `LinkId` order. For both protocols the
    /// data bottleneck (the faulted pipe) is `link_stats[0]`; TCP runs
    /// also carry the ACK path at index 1 and transparent demux-dispatch
    /// pipes after it.
    pub link_stats: Vec<PipeStats>,
    /// Datagrams the sender offered (UDP runs; 0 for TCP).
    pub packets_sent: u64,
    /// Datagrams the sink accepted (UDP runs; 0 for TCP).
    pub packets_received: u64,
}

/// Runs iPerf tests against link-condition traces.
#[derive(Debug, Clone)]
pub struct IperfRunner {
    pub config: IperfConfig,
}

/// MSS in bits, for the response model.
const MSS_BITS: f64 = 1500.0 * 8.0;

/// CUBIC loss-response rate, Mbps (see module docs).
pub fn cubic_response_mbps(rtt_s: f64, loss_event_rate: f64) -> f64 {
    if loss_event_rate <= 0.0 {
        return f64::INFINITY;
    }
    let rtt = rtt_s.max(1e-3);
    let w_max = (rtt / (0.84 * loss_event_rate)).powf(0.75);
    0.925 * w_max * MSS_BITS / rtt / 1e6
}

impl IperfRunner {
    /// Creates a runner.
    pub fn new(config: IperfConfig) -> Self {
        Self { config }
    }

    /// Runs the test over the conditions of `trace` (one entry per second
    /// of test duration).
    pub fn run(&self, trace: &LinkTrace) -> IperfReport {
        match self.config.engine {
            Engine::Analytic => self.run_analytic(trace.samples()),
            Engine::PacketLevel => self.run_packet_level(trace.samples()),
        }
    }

    /// The analytic engine: closed-form response per second.
    ///
    /// The retransmission estimate for TCP is **throughput-weighted**: a
    /// tcpdump counts retransmitted packets among *transmitted* packets,
    /// and during an obstruction outage TCP transmits almost nothing, so
    /// outage seconds barely contribute (time-averaging them would
    /// overstate Figure 5 several-fold).
    pub fn run_analytic(&self, conditions: &[LinkCondition]) -> IperfReport {
        let mut series = Vec::with_capacity(conditions.len());
        let mut retrans_weighted = 0.0;
        let mut weight = 0.0;
        let mut retrans_plain = 0.0;
        let tcp = matches!(self.config.protocol, IperfProtocol::Tcp { .. });
        for c in conditions {
            let (mbps, retrans) = match self.config.protocol {
                IperfProtocol::Udp => {
                    // UDP delivers capacity minus channel loss.
                    (c.capacity_mbps * (1.0 - c.loss), c.loss)
                }
                IperfProtocol::Tcp { parallel } => self.tcp_analytic(c, parallel.max(1)),
            };
            let mbps = mbps.max(0.0);
            series.push(mbps);
            retrans_weighted += retrans * mbps;
            weight += mbps;
            retrans_plain += retrans;
        }
        let retrans = if conditions.is_empty() {
            0.0
        } else if tcp && weight > 0.0 {
            retrans_weighted / weight
        } else {
            retrans_plain / conditions.len() as f64
        };
        IperfReport::from_series(series, retrans)
    }

    /// Analytic TCP rate and retransmission estimate for one second.
    fn tcp_analytic(&self, c: &LinkCondition, parallel: u32) -> (f64, f64) {
        if c.is_outage() {
            return (0.0, 0.02);
        }
        let n = parallel as f64;
        let rtt_s = c.rtt_ms / 1e3;
        // Capacity-side limit: a single CUBIC flow on a variable link
        // leaves headroom that extra flows reclaim.
        let utilisation = 1.0 - 0.20 / n.powf(0.7);
        let cap_limited = c.capacity_mbps * utilisation.min(0.95);
        if self.config.link_layer_retx {
            // Channel loss is hidden from TCP; retransmissions on the wire
            // come from self-induced queue drops plus the (tiny) residual.
            let retrans = 0.0008 + 0.3 * c.loss;
            return (cap_limited, retrans.min(1.0));
        }
        // Bursty-channel limit: all parallel flows share loss events, so
        // the aggregate loss response scales ~linearly until capacity.
        let p_event = (c.loss / self.config.loss_burst_factor).max(1e-7);
        let loss_limited = cubic_response_mbps(rtt_s, p_event) * n;
        let rate = cap_limited.min(loss_limited);
        // Retransmissions track channel loss once the flow actually pushes
        // packets (an idle flow retransmits nothing).
        let retrans = c.loss + 0.0005;
        (rate, retrans.min(1.0))
    }

    /// The packet-level engine: a Mahimahi-style replay of the conditions
    /// through the real transport stack.
    pub fn run_packet_level(&self, conditions: &[LinkCondition]) -> IperfReport {
        self.run_packet_level_audited(conditions).0
    }

    /// Like [`Self::run_packet_level`], but also returns the audit: the
    /// exact per-link [`PipeStats`] plus sender/sink datagram counters
    /// (UDP), so a harness can reconcile the report's loss and throughput
    /// claims against what the pipes actually did.
    pub fn run_packet_level_audited(
        &self,
        conditions: &[LinkCondition],
    ) -> (IperfReport, IperfAudit) {
        if conditions.is_empty() {
            return (IperfReport::from_series(vec![], 0.0), IperfAudit::default());
        }
        let duration_s = conditions.len() as u64;
        let caps: Vec<f64> = conditions.iter().map(|c| c.capacity_mbps).collect();
        let losses: Vec<f64> = conditions.iter().map(|c| c.loss).collect();
        let mean_rtt_ms =
            conditions.iter().map(|c| c.rtt_ms).sum::<f64>() / conditions.len() as f64;
        let one_way = SimTime::from_secs_f64(mean_rtt_ms / 2.0 / 1e3);
        let mean_cap = caps.iter().sum::<f64>() / caps.len() as f64;
        let trace = MahimahiTrace::from_capacity_series(&caps);
        if mean_cap <= 0.05 || trace.is_empty() {
            // A dead link: every UDP datagram is lost, as the analytic
            // engine reads it; TCP transmitted nothing, so it
            // retransmitted nothing.
            let loss = match self.config.protocol {
                IperfProtocol::Udp => 1.0,
                IperfProtocol::Tcp { .. } => 0.0,
            };
            return (
                IperfReport::from_series(vec![0.0; conditions.len()], loss),
                IperfAudit::default(),
            );
        }
        // Queue: one mean-BDP plus slack, like MpShell's default droptail.
        let queue_bytes = (mean_cap * 1e6 / 8.0 * (mean_rtt_ms / 1e3)) as u64 + 60_000;

        // The fault schedule wraps the data path only (a mid-path failure
        // between sender and bottleneck).
        let data = faulted(
            TracePipe::new(trace, one_way, queue_bytes).with_loss_series(losses),
            self.config.faults.clone(),
        );
        let (endpoints, path) = match self.config.protocol {
            IperfProtocol::Udp => {
                let rate_mbps = (mean_cap * 1.3).max(1.0);
                (
                    Endpoints::Udp {
                        rate_mbps,
                        blast_s: duration_s,
                    },
                    Path::one_way(data),
                )
            }
            IperfProtocol::Tcp { parallel } => {
                let tcp = Endpoints::DemuxedTcp {
                    n: parallel.max(1) as usize,
                    cc: self.config.cc,
                    rwnd_packets: 4096,
                };
                let ack = ConstPipe::new(mean_cap.max(10.0), one_way, 0.0, 1 << 22);
                (tcp, Path::new(data, Box::new(ack)))
            }
        };
        let out = transfer::run(self.config.seed, endpoints, vec![path], duration_s);
        let loss = match self.config.protocol {
            IperfProtocol::Udp => out.udp_loss_rate(),
            IperfProtocol::Tcp { .. } => out.retransmission_rate(),
        };
        // The parallel receivers' series summed in flow order.
        let mut series = vec![0.0; conditions.len()];
        for r in &out.receivers {
            for (sum, v) in series.iter_mut().zip(&r.per_second_mbps) {
                *sum += v;
            }
        }
        let audit = IperfAudit {
            link_stats: out.audit.links,
            packets_sent: out.udp_sent,
            packets_received: out.udp_received,
        };
        (IperfReport::from_series(series, loss), audit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat_conditions(n: usize, mbps: f64, rtt: f64, loss: f64) -> Vec<LinkCondition> {
        vec![LinkCondition::new(mbps, rtt, loss); n]
    }

    #[test]
    fn analytic_udp_delivers_capacity() {
        let r = IperfRunner::new(IperfConfig::udp_down());
        let rep = r.run_analytic(&flat_conditions(60, 128.0, 60.0, 0.01));
        assert!((rep.mean_mbps - 126.7).abs() < 1.0, "got {}", rep.mean_mbps);
        assert!((rep.retrans_rate - 0.01).abs() < 1e-9);
    }

    #[test]
    fn analytic_starlink_tcp_udp_gap_is_about_5x() {
        // §4.1: MOB UDP mean 128 vs TCP mean 29 Mbps at ~0.8 % loss.
        let conditions = flat_conditions(60, 135.0, 62.0, 0.008);
        let udp = IperfRunner::new(IperfConfig::udp_down()).run_analytic(&conditions);
        let tcp = IperfRunner::new(IperfConfig::tcp_down_starlink(1)).run_analytic(&conditions);
        let ratio = udp.mean_mbps / tcp.mean_mbps;
        assert!(
            (3.0..7.0).contains(&ratio),
            "UDP {} vs TCP {} (ratio {ratio})",
            udp.mean_mbps,
            tcp.mean_mbps
        );
    }

    #[test]
    fn analytic_cellular_tcp_close_to_udp() {
        let conditions = flat_conditions(60, 100.0, 50.0, 0.001);
        let udp = IperfRunner::new(IperfConfig::udp_down()).run_analytic(&conditions);
        let tcp = IperfRunner::new(IperfConfig::tcp_down_cellular(1)).run_analytic(&conditions);
        assert!(
            tcp.mean_mbps > udp.mean_mbps * 0.75,
            "cellular TCP {} vs UDP {}",
            tcp.mean_mbps,
            udp.mean_mbps
        );
    }

    #[test]
    fn analytic_parallelism_helps_starlink_more() {
        let starlink = flat_conditions(60, 110.0, 62.0, 0.008);
        let cellular = flat_conditions(60, 110.0, 50.0, 0.001);
        let gain = |cfg1: IperfConfig, cfg4: IperfConfig, cond: &[LinkCondition]| {
            let one = IperfRunner::new(cfg1).run_analytic(cond).mean_mbps;
            let four = IperfRunner::new(cfg4).run_analytic(cond).mean_mbps;
            (four - one) / one
        };
        let sl = gain(
            IperfConfig::tcp_down_starlink(1),
            IperfConfig::tcp_down_starlink(4),
            &starlink,
        );
        let cl = gain(
            IperfConfig::tcp_down_cellular(1),
            IperfConfig::tcp_down_cellular(4),
            &cellular,
        );
        assert!(sl > 0.5, "Starlink 4P gain {sl}");
        assert!(cl < 0.4, "cellular 4P gain {cl}");
        assert!(sl > cl);
    }

    #[test]
    fn analytic_outage_yields_zero() {
        let r = IperfRunner::new(IperfConfig::tcp_down_starlink(1));
        let rep = r.run_analytic(&[LinkCondition::OUTAGE; 10]);
        assert_eq!(rep.mean_mbps, 0.0);
    }

    #[test]
    fn packet_level_udp_matches_analytic_on_flat_link() {
        let conditions = flat_conditions(8, 50.0, 40.0, 0.0);
        let analytic = IperfRunner::new(IperfConfig::udp_down()).run_analytic(&conditions);
        let packet = IperfRunner::new(IperfConfig::udp_down().with_engine(Engine::PacketLevel))
            .run_packet_level(&conditions);
        assert!(
            (packet.mean_mbps - analytic.mean_mbps).abs() < 6.0,
            "packet {} vs analytic {}",
            packet.mean_mbps,
            analytic.mean_mbps
        );
    }

    #[test]
    fn packet_level_tcp_sees_loss_gap_like_analytic() {
        // The two engines must agree on the *direction and rough size* of
        // the clean-vs-lossy TCP gap.
        let clean = flat_conditions(10, 60.0, 50.0, 0.0);
        let lossy = flat_conditions(10, 60.0, 50.0, 0.015);
        let cfg = IperfConfig::tcp_down_starlink(1).with_engine(Engine::PacketLevel);
        let p_clean = IperfRunner::new(cfg.clone()).run_packet_level(&clean);
        let p_lossy = IperfRunner::new(cfg).run_packet_level(&lossy);
        assert!(
            p_lossy.mean_mbps < p_clean.mean_mbps * 0.6,
            "packet-level: lossy {} vs clean {}",
            p_lossy.mean_mbps,
            p_clean.mean_mbps
        );
    }

    #[test]
    fn packet_level_dead_link_reports_zero() {
        let cfg = IperfConfig::udp_down().with_engine(Engine::PacketLevel);
        let rep = IperfRunner::new(cfg).run_packet_level(&flat_conditions(5, 0.0, 50.0, 1.0));
        assert_eq!(rep.mean_mbps, 0.0);
        assert_eq!(rep.per_second_mbps.len(), 5);
    }

    #[test]
    fn report_series_length_matches_duration() {
        let conditions = flat_conditions(30, 80.0, 50.0, 0.002);
        for engine in [Engine::Analytic, Engine::PacketLevel] {
            let cfg = IperfConfig::udp_down().with_engine(engine);
            let rep = IperfRunner::new(cfg).run(&LinkTrace::new("x", 0, conditions.clone()));
            assert_eq!(rep.per_second_mbps.len(), 30, "{engine:?}");
        }
    }

    #[test]
    fn cubic_response_monotonic_in_loss() {
        let a = cubic_response_mbps(0.06, 1e-5);
        let b = cubic_response_mbps(0.06, 1e-4);
        let c = cubic_response_mbps(0.06, 1e-3);
        assert!(a > b && b > c);
        assert!(cubic_response_mbps(0.06, 0.0).is_infinite());
    }
}
