//! Single-path TCP: sliding-window sender and in-order receiver.
//!
//! Packet-granularity TCP (sequence numbers count MSS-sized segments, not
//! bytes) built on [`crate::flowcore::FlowCore`]: pluggable congestion
//! control (Reno/CUBIC), SACK scoreboard with fast retransmit and
//! hole-filling recovery, RTO with exponential backoff, per-packet
//! timestamp echo for RTT sampling (Karn-safe), and retransmission
//! accounting (Figure 5's metric).

use crate::cc::CcAlgorithm;
use crate::flowcore::{FlowActions, FlowCore, RtoCoalesce, RtoFire};
use crate::seqops::SeqBitmap;
use crate::throughput::ThroughputMeter;
use crate::transfer::SenderStats;
use leo_netsim::{Agent, Context, LinkId, Packet};

/// TCP connection parameters.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Flow id stamped on every packet.
    pub flow: u32,
    /// Congestion controller.
    pub cc: CcAlgorithm,
    /// Receive-window limit, packets (the OS buffer the paper tunes in §6).
    pub rwnd_packets: u64,
    /// Link the sender transmits data into.
    pub data_link: LinkId,
    /// Total packets to send; `None` for an unbounded bulk transfer.
    pub limit_packets: Option<u64>,
}

/// The sending endpoint. Receives ACKs, emits data.
pub struct TcpSender {
    cfg: TcpConfig,
    core: FlowCore,
    next_pkt_id: u64,
    started: bool,
    /// Reusable action buffer: steady-state ACK handling allocates nothing.
    scratch: FlowActions,
    /// RTO timer coalescer: one pending physical timer per deadline.
    rto: RtoCoalesce,
}

impl TcpSender {
    /// Creates a sender; [`start`](Self::start) begins transmitting
    /// ([`crate::transfer::run`] calls it).
    pub fn new(cfg: TcpConfig) -> Self {
        let core = FlowCore::new(cfg.cc);
        Self {
            cfg,
            core,
            next_pkt_id: 0,
            started: false,
            scratch: FlowActions::default(),
            rto: RtoCoalesce::default(),
        }
    }

    /// Kicks off the transfer.
    pub fn start(&mut self, ctx: &mut Context) {
        if !self.started {
            self.started = true;
            self.fill_window(ctx);
            self.arm_rto(ctx);
        }
    }

    /// True once a bounded transfer is fully acknowledged.
    pub fn finished(&self) -> bool {
        match self.cfg.limit_packets {
            Some(n) => self.core.snd_una() >= n,
            None => false,
        }
    }

    /// Packets sent, retransmissions, RTO events and smoothed RTT so far.
    pub(crate) fn stats(&self) -> SenderStats {
        SenderStats {
            packets_sent: self.core.packets_sent,
            retransmissions: self.core.retransmissions,
            timeouts: self.core.timeouts,
            srtt_s: self.core.srtt_s(),
        }
    }

    /// Current congestion window, packets.
    pub fn cwnd(&self) -> f64 {
        self.core.cwnd()
    }

    fn send_segment(&mut self, ctx: &mut Context, seq: u64) {
        let id = self.next_pkt_id;
        self.next_pkt_id += 1;
        let pkt = Packet::data(id, self.cfg.flow, seq, ctx.now()).with_aux(0, ctx.now().as_nanos());
        ctx.send(self.cfg.data_link, pkt);
    }

    fn fill_window(&mut self, ctx: &mut Context) {
        let limit = self.cfg.limit_packets.unwrap_or(u64::MAX);
        while self.core.window_space()
            && self.core.outstanding() < self.cfg.rwnd_packets
            && self.core.next_seq() < limit
        {
            let seq = self.core.alloc_seq();
            self.core.register_transmit(seq, 0, false);
            self.send_segment(ctx, seq);
        }
    }

    fn arm_rto(&mut self, ctx: &mut Context) {
        let epoch = self.core.arm_rto();
        if let Some(delay) = self.rto.arm(ctx.now(), self.core.current_rto) {
            // Only arm a physical timer when no already-scheduled firing
            // covers the new deadline; intermediate restarts ride the
            // existing timer and re-arm the exact remainder on pop.
            ctx.set_timer(delay, epoch);
        }
    }
}

impl Agent for TcpSender {
    fn on_packet(&mut self, ctx: &mut Context, _link: LinkId, packet: Packet) {
        if !packet.is_ack || packet.flow != self.cfg.flow {
            return;
        }
        // Reuse the scratch buffer (taken to satisfy the borrow checker
        // while `send_segment` borrows `self`), so the steady-state ACK
        // path performs zero heap allocation.
        let mut actions = std::mem::take(&mut self.scratch);
        self.core.handle_ack_into(
            packet.ack,
            packet.aux_c,
            packet.aux_b,
            ctx.now(),
            &mut actions,
        );
        for &(seq, _aux) in &actions.retransmits {
            self.send_segment(ctx, seq);
        }
        self.fill_window(ctx);
        // RFC 6298 §5: restart the timer when new data is ACKed *or* when
        // a retransmission goes out, so recovery never outlives the timer.
        if (actions.advanced || !actions.retransmits.is_empty()) && self.core.has_outstanding() {
            self.arm_rto(ctx);
        }
        self.scratch = actions;
    }

    fn on_timer(&mut self, ctx: &mut Context, _timer_id: u64) {
        let epoch = match self.rto.fire(ctx.now()) {
            RtoFire::Due => self.core.rto_epoch,
            RtoFire::Early => return,
            RtoFire::Rearm(delay) => {
                ctx.set_timer(delay, 0);
                return;
            }
        };
        let mut actions = std::mem::take(&mut self.scratch);
        if self
            .core
            .handle_timeout_into(epoch, ctx.now(), &mut actions)
        {
            for &(seq, _aux) in &actions.retransmits {
                self.send_segment(ctx, seq);
            }
            self.arm_rto(ctx);
        }
        self.scratch = actions;
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// The receiving endpoint. Receives data, emits cumulative ACKs with SACK
/// hints, and meters goodput (bytes delivered *in order*, as an
/// application would see them).
pub struct TcpReceiver {
    flow: u32,
    ack_link: LinkId,
    rcv_nxt: u64,
    ooo: SeqBitmap,
    /// Goodput meter (in-order delivery).
    pub meter: ThroughputMeter,
    pub packets_received: u64,
    next_pkt_id: u64,
}

impl TcpReceiver {
    /// Creates a receiver ACKing over `ack_link`.
    pub fn new(flow: u32, ack_link: LinkId) -> Self {
        Self {
            flow,
            ack_link,
            rcv_nxt: 0,
            ooo: SeqBitmap::new(),
            meter: ThroughputMeter::new(),
            packets_received: 0,
            next_pkt_id: 1 << 40, // distinct id space from the sender
        }
    }

    /// Highest in-order sequence received.
    pub fn rcv_nxt(&self) -> u64 {
        self.rcv_nxt
    }
}

impl Agent for TcpReceiver {
    fn on_packet(&mut self, ctx: &mut Context, _link: LinkId, packet: Packet) {
        if packet.is_ack || packet.flow != self.flow {
            return;
        }
        self.packets_received += 1;
        let before = self.rcv_nxt;
        if packet.seq == self.rcv_nxt {
            self.rcv_nxt += 1;
            // Drain any contiguous out-of-order run.
            while self.ooo.remove(self.rcv_nxt) {
                self.rcv_nxt += 1;
            }
            self.ooo.advance_to(self.rcv_nxt);
        } else if packet.seq > self.rcv_nxt {
            self.ooo.insert(packet.seq);
        } // duplicates below rcv_nxt are ignored

        let delivered = self.rcv_nxt - before;
        if delivered > 0 {
            self.meter
                .record(ctx.now(), delivered * packet.size_bytes as u64);
        }

        let id = self.next_pkt_id;
        self.next_pkt_id += 1;
        // ACK: cumulative in `ack`, SACK hint (triggering seq) in `aux_c`,
        // timestamp echo in `aux_b`.
        let ack = Packet::ack(id, self.flow, self.rcv_nxt, ctx.now())
            .with_aux(0, packet.aux_b)
            .with_aux_c(packet.seq);
        ctx.send(self.ack_link, ack);
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
    use crate::transfer::{self, Endpoints, Path};
    use leo_netsim::{ConstPipe, SimTime, Simulator};

    /// Builds sender→receiver over (rate, delay, loss) and runs `secs`.
    fn run_tcp(rate_mbps: f64, delay_ms: u64, loss: f64, secs: u64, cc: CcAlgorithm) -> (f64, f64) {
        let queue = (rate_mbps * 1e6 / 8.0 * 2.0 * delay_ms as f64 / 1e3) as u64 + 30_000;
        let pipe = |loss| -> Box<dyn leo_netsim::Pipe> {
            Box::new(ConstPipe::new(
                rate_mbps,
                SimTime::from_millis(delay_ms),
                loss,
                queue,
            ))
        };
        let tcp = Endpoints::Tcp {
            cc,
            rwnd_packets: 4096,
        };
        let out = transfer::run(99, tcp, vec![Path::new(pipe(loss), pipe(0.0))], secs);
        (out.receivers[0].mean_mbps, out.retransmission_rate())
    }

    #[test]
    fn clean_link_reaches_near_capacity() {
        for cc in [CcAlgorithm::Reno, CcAlgorithm::Cubic] {
            let (goodput, retx) = run_tcp(50.0, 20, 0.0, 10, cc);
            assert!(
                goodput > 40.0,
                "{cc:?}: goodput {goodput} Mbps on a clean 50 Mbps link"
            );
            assert!(retx < 0.05, "{cc:?}: retx {retx} without random loss");
        }
    }

    #[test]
    fn heavy_loss_craters_throughput() {
        // §4.1's headline mechanism: random loss devastates TCP.
        let (clean, _) = run_tcp(100.0, 30, 0.0, 10, CcAlgorithm::Cubic);
        let (lossy, retx) = run_tcp(100.0, 30, 0.02, 10, CcAlgorithm::Cubic);
        assert!(
            lossy < clean / 2.0,
            "2% loss: {lossy} vs clean {clean} Mbps"
        );
        assert!(retx > 0.01, "retx rate {retx} should reflect channel loss");
    }

    #[test]
    fn bbr_lite_beats_cubic_on_random_loss() {
        // The paper's "better congestion control" call, demonstrated at
        // packet level: on a 1.5 % random-loss link, the model-based
        // controller sustains a large multiple of CUBIC's goodput.
        let (cubic, _) = run_tcp(100.0, 30, 0.015, 12, CcAlgorithm::Cubic);
        let (bbr, _) = run_tcp(100.0, 30, 0.015, 12, CcAlgorithm::BbrLite);
        assert!(
            bbr > cubic * 2.0,
            "BBR-lite {bbr} Mbps should far exceed CUBIC {cubic} Mbps under loss"
        );
        // And on a clean link it must not be wildly unfair to itself.
        let (bbr_clean, _) = run_tcp(100.0, 30, 0.0, 12, CcAlgorithm::BbrLite);
        assert!(bbr_clean > 60.0, "BBR-lite clean-link {bbr_clean} Mbps");
    }

    #[test]
    fn retransmission_rate_tracks_loss_rate() {
        let (_, retx) = run_tcp(50.0, 20, 0.01, 15, CcAlgorithm::Cubic);
        assert!(
            (0.005..0.06).contains(&retx),
            "retx {retx} for 1% channel loss"
        );
    }

    #[test]
    fn bounded_transfer_completes_exactly() {
        let mut sim = Simulator::new(7);
        let sender = sim.add_node(Box::new(TcpSender::new(TcpConfig {
            flow: 1,
            cc: CcAlgorithm::Reno,
            rwnd_packets: 64,
            data_link: LinkId(0),
            limit_packets: Some(500),
        })));
        let receiver = sim.add_node(Box::new(TcpReceiver::new(1, LinkId(1))));
        sim.add_link(
            Box::new(ConstPipe::new(
                20.0,
                SimTime::from_millis(10),
                0.005,
                1 << 20,
            )),
            receiver,
        );
        sim.add_link(
            Box::new(ConstPipe::new(20.0, SimTime::from_millis(10), 0.0, 1 << 20)),
            sender,
        );
        sim.with_agent(sender, |a, ctx| {
            a.as_any_mut()
                .downcast_mut::<TcpSender>()
                .unwrap()
                .start(ctx)
        });
        sim.run_until(SimTime::from_secs(60));
        assert!(sim.agent_as::<TcpSender>(sender).finished());
        assert_eq!(sim.agent_as::<TcpReceiver>(receiver).rcv_nxt(), 500);
    }

    #[test]
    fn receiver_reassembles_out_of_order() {
        let mut sim = Simulator::new(1);
        let receiver = sim.add_node(Box::new(TcpReceiver::new(9, LinkId(0))));
        let sink = sim.add_node(Box::new(NullAgent));
        sim.add_link(
            Box::new(ConstPipe::new(1000.0, SimTime::ZERO, 0.0, 1 << 20)),
            sink,
        );
        sim.with_agent(receiver, |a, ctx| {
            let r = a.as_any_mut().downcast_mut::<TcpReceiver>().unwrap();
            r.on_packet(ctx, LinkId(9), Packet::data(1, 9, 0, ctx.now()));
            r.on_packet(ctx, LinkId(9), Packet::data(2, 9, 2, ctx.now())); // hole at 1
            assert_eq!(r.rcv_nxt(), 1);
            r.on_packet(ctx, LinkId(9), Packet::data(3, 9, 1, ctx.now()));
            assert_eq!(r.rcv_nxt(), 3, "hole filled drains the OOO buffer");
            r.on_packet(ctx, LinkId(9), Packet::data(4, 9, 0, ctx.now()));
            assert_eq!(r.rcv_nxt(), 3, "stale duplicate ignored");
        });
    }

    #[test]
    fn rto_fires_on_total_blackout() {
        let mut sim = Simulator::new(1);
        let sender = sim.add_node(Box::new(TcpSender::new(TcpConfig {
            flow: 1,
            cc: CcAlgorithm::Reno,
            rwnd_packets: 64,
            data_link: LinkId(0),
            limit_packets: Some(10),
        })));
        let receiver = sim.add_node(Box::new(TcpReceiver::new(1, LinkId(1))));
        sim.add_link(
            Box::new(ConstPipe::new(10.0, SimTime::ZERO, 1.0, 1 << 20)),
            receiver,
        );
        sim.add_link(
            Box::new(ConstPipe::new(10.0, SimTime::ZERO, 0.0, 1 << 20)),
            sender,
        );
        sim.with_agent(sender, |a, ctx| {
            a.as_any_mut()
                .downcast_mut::<TcpSender>()
                .unwrap()
                .start(ctx)
        });
        sim.run_until(SimTime::from_secs(30));
        let s = sim.agent_as::<TcpSender>(sender);
        let timeouts = s.stats().timeouts;
        assert!(timeouts >= 3, "timeouts {timeouts}");
        assert!(!s.finished());
    }

    #[test]
    fn rwnd_caps_inflight() {
        // A tiny receive window on a long-delay link caps throughput at
        // rwnd/RTT regardless of capacity — §6's buffer story in
        // single-path form.
        let pipe = || -> Box<dyn leo_netsim::Pipe> {
            Box::new(ConstPipe::new(
                1000.0,
                SimTime::from_millis(50),
                0.0,
                1 << 24,
            ))
        };
        let tcp = Endpoints::Tcp {
            cc: CcAlgorithm::Cubic,
            rwnd_packets: 10,
        };
        let goodput =
            transfer::run(3, tcp, vec![Path::new(pipe(), pipe())], 10).receivers[0].mean_mbps;
        // 10 pkts × 1500 B / 100 ms RTT = 1.2 Mbps.
        assert!(
            (0.8..1.6).contains(&goodput),
            "rwnd-capped goodput {goodput} Mbps"
        );
    }

    struct NullAgent;
    impl Agent for NullAgent {
        fn on_packet(&mut self, _: &mut Context, _: LinkId, _: Packet) {}
        fn on_timer(&mut self, _: &mut Context, _: u64) {}
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }
}
