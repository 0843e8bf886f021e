//! The transfer builder: every packet-level transfer in the workspace is
//! wired, started, run and collected here — the §6 trace replay, the
//! transport sweep, the train baselines, packet-level iPerf and the
//! conformance fuzzer.
//!
//! The caller picks the [`Endpoints`], gives one [`Path`] per path (a data
//! pipe and, except for UDP, the ACK pipe back) and the run length;
//! [`run`] adds the nodes and links, starts the senders, runs the
//! simulation and returns a [`TransferOutcome`]. Pipe types, queue sizes
//! and which direction a fault schedule hits stay with the caller;
//! [`faulted`] wraps a pipe in a [`FaultPipe`] only when its schedule is
//! non-empty.
//!
//! Links are added in one layout, so `SimAudit::links` reads alike for
//! every kind: the data pipes in path order, then the ACK pipes in path
//! order, then (parallel TCP only) the demux dispatch links.

use crate::cc::CcAlgorithm;
use crate::mptcp::{LeoGuard, MptcpConfig, MptcpReceiver, MptcpSender, SchedulerKind};
use crate::plugin::TransportPlugins;
use crate::tcp::{TcpConfig, TcpReceiver, TcpSender};
use crate::throughput::ThroughputMeter;
use crate::udp::{UdpBlaster, UdpSink};
use leo_netsim::{
    Agent, ConstPipe, Context, FaultPipe, FaultSchedule, LinkId, NodeId, Packet, Pipe, SimAudit,
    SimTime, Simulator,
};

/// Which endpoints a transfer runs.
#[derive(Debug)]
pub enum Endpoints {
    /// One TCP connection (flow 1) over one path.
    Tcp { cc: CcAlgorithm, rwnd_packets: u64 },
    /// `n` TCP connections (flows `1..=n`) sharing one path through a flow
    /// demux at each end: iPerf `-P n`. The demux hop stays even at
    /// `n = 1`, where it orders events differently from [`Self::Tcp`].
    DemuxedTcp {
        n: usize,
        cc: CcAlgorithm,
        rwnd_packets: u64,
    },
    /// One MPTCP connection (flow 10) with one subflow per path.
    Mptcp {
        cc: CcAlgorithm,
        coupled: bool,
        scheduler: SchedulerKind,
        buffer_packets: u64,
        leo_guard: Option<LeoGuard>,
        plugins: TransportPlugins,
    },
    /// A UDP blast (flow 1) at `rate_mbps` for the first `blast_s` seconds
    /// over one path, which has no ACK pipe.
    Udp { rate_mbps: f64, blast_s: u64 },
}

/// One path of a transfer: the data pipe, and the ACK pipe back.
pub struct Path {
    data: Box<dyn Pipe>,
    ack: Option<Box<dyn Pipe>>,
}

impl Path {
    /// A data pipe with an ACK pipe back.
    pub fn new(data: Box<dyn Pipe>, ack: Box<dyn Pipe>) -> Self {
        Self {
            data,
            ack: Some(ack),
        }
    }

    /// A data pipe alone, for UDP.
    pub fn one_way(data: Box<dyn Pipe>) -> Self {
        Self { data, ack: None }
    }
}

/// `pipe` under `faults`, wrapped in a [`FaultPipe`] only when the
/// schedule is non-empty (an empty one is bit-transparent anyway).
pub fn faulted(pipe: impl Pipe + 'static, faults: FaultSchedule) -> Box<dyn Pipe> {
    if faults.is_empty() {
        Box::new(pipe)
    } else {
        Box::new(FaultPipe::new(pipe, faults))
    }
}

/// What one receiver measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Received {
    /// Goodput per second, Mbps, padded or cut to the run length.
    pub per_second_mbps: Vec<f64>,
    /// Mean goodput over the run length, Mbps.
    pub mean_mbps: f64,
    /// Bytes delivered (in order, for TCP and MPTCP).
    pub delivered_bytes: u64,
}

/// One TCP connection's or MPTCP subflow's sender counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SenderStats {
    /// Data packets put on the wire, retransmissions included.
    pub packets_sent: u64,
    pub retransmissions: u64,
    /// RTO events.
    pub timeouts: u64,
    /// Smoothed RTT, seconds (1 s before the first sample).
    pub srtt_s: f64,
}

/// Everything a finished transfer reports.
#[derive(Debug, Clone)]
pub struct TransferOutcome {
    /// One per TCP connection in flow order, else the one receiver.
    pub receivers: Vec<Received>,
    /// One per TCP connection or MPTCP subflow; none for UDP.
    pub senders: Vec<SenderStats>,
    /// Datagrams the UDP blaster sent (0 for the other kinds).
    pub udp_sent: u64,
    /// Datagrams the UDP sink received (0 for the other kinds).
    pub udp_received: u64,
    /// Clock, cascade and every link's counters, in the module's layout.
    pub audit: SimAudit,
}

impl TransferOutcome {
    /// Retransmitted over sent packets, summed over every sender; 0 when
    /// nothing was sent.
    pub fn retransmission_rate(&self) -> f64 {
        let sent: u64 = self.senders.iter().map(|s| s.packets_sent).sum();
        let retx: u64 = self.senders.iter().map(|s| s.retransmissions).sum();
        if sent == 0 {
            0.0
        } else {
            retx as f64 / sent as f64
        }
    }

    /// The share of UDP datagrams sent that never arrived: one lost after
    /// the last arrival, or still in flight at the end, counts too. 0 when
    /// nothing was sent.
    pub fn udp_loss_rate(&self) -> f64 {
        if self.udp_sent == 0 {
            0.0
        } else {
            1.0 - self.udp_received as f64 / self.udp_sent as f64
        }
    }
}

/// The agents [`run`] collects from.
enum Nodes {
    Tcp {
        senders: Vec<NodeId>,
        receivers: Vec<NodeId>,
    },
    Mptcp {
        sender: NodeId,
        receiver: NodeId,
    },
    Udp {
        blaster: NodeId,
        sink: NodeId,
    },
}

/// Runs one transfer for `secs` seconds under `seed` and collects it.
///
/// # Panics
/// If `paths` does not fit `endpoints`: UDP takes one path without an ACK
/// pipe, TCP one path with one, MPTCP one or more with one each.
pub fn run(seed: u64, endpoints: Endpoints, paths: Vec<Path>, secs: u64) -> TransferOutcome {
    let n_paths = paths.len();
    let (data, acks): (Vec<_>, Vec<_>) = paths.into_iter().map(|p| (p.data, p.ack)).unzip();
    let acks: Vec<Box<dyn Pipe>> = acks.into_iter().flatten().collect();
    let (paths_fit, acks_needed) = match endpoints {
        Endpoints::Udp { .. } => (n_paths == 1, 0),
        Endpoints::Mptcp { .. } => (n_paths > 0, n_paths),
        _ => (n_paths == 1, 1),
    };
    assert!(
        paths_fit && acks.len() == acks_needed,
        "{endpoints:?} cannot run over {n_paths} path(s) with {} ACK pipe(s)",
        acks.len()
    );
    let mut sim = Simulator::new(seed);
    let add_links = |sim: &mut Simulator, pipes: Vec<Box<dyn Pipe>>, dst: NodeId| {
        for pipe in pipes {
            sim.add_link(pipe, dst);
        }
    };
    let nodes = match endpoints {
        Endpoints::Tcp { cc, rwnd_packets }
        | Endpoints::DemuxedTcp {
            cc, rwnd_packets, ..
        } => {
            let (n, demux) = match endpoints {
                Endpoints::DemuxedTcp { n, .. } => (n, true),
                _ => (1, false),
            };
            let (mut senders, mut receivers) = (Vec::with_capacity(n), Vec::with_capacity(n));
            for i in 0..n {
                let flow = 1 + i as u32;
                senders.push(sim.add_node(Box::new(TcpSender::new(TcpConfig {
                    flow,
                    cc,
                    rwnd_packets,
                    data_link: LinkId(0),
                    limit_packets: None,
                }))));
                receivers.push(sim.add_node(Box::new(TcpReceiver::new(flow, LinkId(1)))));
            }
            if demux {
                // Links 2..2+n dispatch to the receivers, 2+n..2+2n to the
                // senders.
                let routes = |first: usize| (0..n).map(move |i| (1 + i as u32, LinkId(first + i)));
                let demux_rx = sim.add_node(Box::new(Demux(routes(2).collect())));
                let demux_tx = sim.add_node(Box::new(Demux(routes(2 + n).collect())));
                add_links(&mut sim, data, demux_rx);
                add_links(&mut sim, acks, demux_tx);
                for &node in receivers.iter().chain(&senders) {
                    let instant = ConstPipe::new(1e9, SimTime::ZERO, 0.0, u64::MAX);
                    sim.add_link(Box::new(instant), node);
                }
            } else {
                add_links(&mut sim, data, receivers[0]);
                add_links(&mut sim, acks, senders[0]);
            }
            for &s in &senders {
                start(&mut sim, s, TcpSender::start);
            }
            Nodes::Tcp { senders, receivers }
        }
        Endpoints::Mptcp {
            cc,
            coupled,
            scheduler,
            buffer_packets,
            leo_guard,
            plugins,
        } => {
            let sender = sim.add_node(Box::new(MptcpSender::new(MptcpConfig {
                flow: 10,
                cc,
                coupled,
                scheduler,
                recv_buffer_packets: buffer_packets,
                subflow_links: (0..n_paths).map(LinkId).collect(),
                limit_packets: None,
                leo_guard,
                plugins,
            })));
            let receiver = sim.add_node(Box::new(MptcpReceiver::new(
                10,
                (n_paths..2 * n_paths).map(LinkId).collect(),
                buffer_packets,
            )));
            add_links(&mut sim, data, receiver);
            add_links(&mut sim, acks, sender);
            start(&mut sim, sender, MptcpSender::start);
            Nodes::Mptcp { sender, receiver }
        }
        Endpoints::Udp { rate_mbps, blast_s } => {
            let sink = sim.add_node(Box::new(UdpSink::new(1)));
            let blaster = sim.add_node(Box::new(UdpBlaster::new(
                1,
                LinkId(0),
                rate_mbps,
                SimTime::from_secs(blast_s),
            )));
            add_links(&mut sim, data, sink);
            start(&mut sim, blaster, UdpBlaster::start);
            Nodes::Udp { blaster, sink }
        }
    };
    sim.run_until(SimTime::from_secs(secs));

    let received = |meter: &ThroughputMeter| {
        let mut per_second_mbps = meter.series_mbps();
        per_second_mbps.resize(secs as usize, 0.0);
        Received {
            per_second_mbps,
            mean_mbps: meter.mean_mbps_over(SimTime::from_secs(secs)),
            delivered_bytes: meter.total_bytes(),
        }
    };
    let (receivers, senders, udp_sent, udp_received) = match nodes {
        Nodes::Tcp { senders, receivers } => (
            receivers
                .iter()
                .map(|&r| received(&sim.agent_as::<TcpReceiver>(r).meter))
                .collect(),
            senders
                .iter()
                .map(|&s| sim.agent_as::<TcpSender>(s).stats())
                .collect(),
            0,
            0,
        ),
        Nodes::Mptcp { sender, receiver } => (
            vec![received(&sim.agent_as::<MptcpReceiver>(receiver).meter)],
            sim.agent_as::<MptcpSender>(sender)
                .subflow_stats()
                .collect(),
            0,
            0,
        ),
        Nodes::Udp { blaster, sink } => {
            let sink = sim.agent_as::<UdpSink>(sink);
            let sent = sim.agent_as::<UdpBlaster>(blaster).packets_sent;
            (
                vec![received(&sink.meter)],
                Vec::new(),
                sent,
                sink.packets_received,
            )
        }
    };
    let out = TransferOutcome {
        receivers,
        senders,
        udp_sent,
        udp_received,
        audit: sim.audit(),
    };
    if leo_netsim::strict_checks() {
        // Receivers cannot deliver more than the data pipes carried.
        let goodput: u64 = out.receivers.iter().map(|r| r.delivered_bytes).sum();
        let carried: u64 = out.audit.links[..n_paths]
            .iter()
            .map(|s| s.delivered_bytes)
            .sum();
        assert!(
            goodput <= carried,
            "receivers delivered {goodput} bytes, the data pipes carried only {carried}"
        );
    }
    out
}

/// Calls `start` on the sender at `node`.
fn start<A: Agent>(sim: &mut Simulator, node: NodeId, start: fn(&mut A, &mut Context)) {
    sim.with_agent(node, |agent, ctx| {
        let sender = agent.as_any_mut().downcast_mut::<A>();
        start(sender.expect("the sender's agent type"), ctx)
    });
}

/// Forwards each packet to the dispatch link of its flow: data to the
/// receivers at one end of a shared path, ACKs to the senders at the
/// other.
struct Demux(Vec<(u32, LinkId)>);

impl Agent for Demux {
    fn on_packet(&mut self, ctx: &mut Context, _link: LinkId, packet: Packet) {
        if let Some(&(_, out)) = self.0.iter().find(|&&(f, _)| f == packet.flow) {
            ctx.send(out, packet);
        }
    }

    fn on_timer(&mut self, _ctx: &mut Context, _timer_id: u64) {}

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn const_pipe(mbps: f64, delay_ms: u64, loss: f64, queue: u64) -> Box<dyn Pipe> {
        Box::new(ConstPipe::new(
            mbps,
            SimTime::from_millis(delay_ms),
            loss,
            queue,
        ))
    }

    fn clean_path() -> Path {
        Path::new(
            const_pipe(20.0, 10, 0.0, 1 << 20),
            const_pipe(20.0, 10, 0.0, 1 << 20),
        )
    }

    fn parallel(n: usize, cc: CcAlgorithm) -> Endpoints {
        Endpoints::DemuxedTcp {
            n,
            cc,
            rwnd_packets: 4096,
        }
    }

    fn run_parallel(n: usize, loss: f64, secs: u64) -> f64 {
        let path = Path::new(
            const_pipe(100.0, 30, loss, 400_000),
            const_pipe(100.0, 30, 0.0, 400_000),
        );
        let out = run(5, parallel(n, CcAlgorithm::Cubic), vec![path], secs);
        out.receivers.iter().map(|r| r.mean_mbps).sum()
    }

    #[test]
    fn parallelism_recovers_lossy_link_throughput() {
        // The Figure 7 mechanism: on a lossy link, 4 connections beat 1.
        let one = run_parallel(1, 0.01, 12);
        let four = run_parallel(4, 0.01, 12);
        assert!(
            four > one * 1.4,
            "4P {four} Mbps should clearly beat 1P {one} Mbps"
        );
    }

    #[test]
    fn parallelism_gains_little_on_clean_link() {
        let one = run_parallel(1, 0.0, 12);
        let four = run_parallel(4, 0.0, 12);
        assert!(
            four < one * 1.35,
            "clean link: 4P {four} vs 1P {one} should be comparable"
        );
    }

    #[test]
    fn flows_share_reasonably_fairly() {
        let path = Path::new(
            const_pipe(60.0, 20, 0.0, 300_000),
            const_pipe(60.0, 20, 0.0, 300_000),
        );
        let out = run(5, parallel(3, CcAlgorithm::Reno), vec![path], 15);
        let rates: Vec<f64> = out.receivers.iter().map(|r| r.mean_mbps).collect();
        let max = rates.iter().cloned().fold(0.0, f64::max);
        let min = rates.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max / min.max(0.1) < 4.0, "unfair shares: {rates:?}");
    }

    #[test]
    fn aggregate_retransmissions_counted() {
        let path = Path::new(
            const_pipe(50.0, 25, 0.02, 200_000),
            const_pipe(50.0, 25, 0.0, 200_000),
        );
        let out = run(5, parallel(2, CcAlgorithm::Cubic), vec![path], 10);
        let retx = out.retransmission_rate();
        assert!(retx > 0.01, "retx {retx}");
    }

    #[test]
    fn links_follow_the_layout_for_every_kind() {
        // Data pipes first, then ACK pipes, then the demux dispatch links:
        // the data pipes carry everything the receivers got.
        let path = clean_path;
        let tcp = Endpoints::Tcp {
            cc: CcAlgorithm::Cubic,
            rwnd_packets: 64,
        };
        let mptcp = Endpoints::Mptcp {
            cc: CcAlgorithm::Cubic,
            coupled: true,
            scheduler: SchedulerKind::MinRtt,
            buffer_packets: 1024,
            leo_guard: None,
            plugins: TransportPlugins::default(),
        };
        let udp = Endpoints::Udp {
            rate_mbps: 5.0,
            blast_s: 2,
        };
        let udp_path = Path::one_way(const_pipe(20.0, 10, 0.0, 1 << 20));
        // (endpoints, paths, links, receivers, senders)
        for (endpoints, paths, links, receivers, senders) in [
            (tcp, vec![path()], 2, 1, 1),
            (
                parallel(3, CcAlgorithm::Reno),
                vec![path()],
                2 + 2 * 3,
                3,
                3,
            ),
            (mptcp, vec![path(), path(), path()], 6, 1, 3),
            (udp, vec![udp_path], 1, 1, 0),
        ] {
            let label = format!("{endpoints:?}");
            let data_pipes = paths.len();
            let out = run(3, endpoints, paths, 3);
            assert!(out.audit.is_clean(), "{label}");
            assert_eq!(out.audit.links.len(), links, "{label}");
            assert_eq!(out.receivers.len(), receivers, "{label}");
            assert_eq!(out.senders.len(), senders, "{label}");
            let carried: u64 = out.audit.links[..data_pipes]
                .iter()
                .map(|s| s.delivered_bytes)
                .sum();
            for r in &out.receivers {
                assert_eq!(r.per_second_mbps.len(), 3, "{label}");
                assert!(r.delivered_bytes > 0, "{label}: a receiver got nothing");
            }
            let goodput: u64 = out.receivers.iter().map(|r| r.delivered_bytes).sum();
            assert!(goodput <= carried, "{label}: {goodput} > {carried}");
        }
    }

    #[test]
    #[should_panic(expected = "cannot run over 2 path(s)")]
    fn tcp_over_two_paths_is_refused() {
        let tcp = Endpoints::Tcp {
            cc: CcAlgorithm::Cubic,
            rwnd_packets: 64,
        };
        run(1, tcp, vec![clean_path(), clean_path()], 1);
    }
}
