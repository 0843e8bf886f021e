//! Multipath TCP: subflows, data-level sequencing, coupled congestion
//! control, and pluggable packet schedulers.
//!
//! Implements the machinery behind §6 of the paper:
//!
//! * **Subflows** — each path runs a full [`crate::flowcore::FlowCore`]:
//!   its own sequence space, congestion window, SACK scoreboard, RTT
//!   estimator, fast retransmit, and RTO.
//! * **Data-level sequencing** — every data packet carries a data sequence
//!   number (DSN, in `aux_a`); the receiver reorders across subflows into
//!   one stream.
//! * **Connection-level receive buffer** — out-of-order data is held in a
//!   bounded buffer; the advertised window shrinks as it fills. With the
//!   OS-default (small) buffer, a slow subflow's in-flight data blocks the
//!   fast subflow — the head-of-line collapse the paper observed until it
//!   raised the buffer to >10× the bandwidth-delay product (§6).
//! * **LIA coupling** — the RFC 6356 linked-increase algorithm bounds the
//!   aggregate's aggressiveness across subflows.
//! * **Schedulers** — RoundRobin, MinRtt, BLEST (the kernel 5.19 default
//!   the paper cites), and ECF.
//! * **Reinjection** — on a subflow RTO, its un-ACKed DSNs are queued for
//!   retransmission on any subflow, so a dead path cannot permanently
//!   strand data.

use crate::cc::{Cc, CcAlgorithm};
use crate::flowcore::{FlowActions, FlowCore, RtoCoalesce, RtoFire};
use crate::plugin::{SchedView, SubflowView, TransportPlugins};
use crate::seqops::SeqBitmap;
use crate::throughput::ThroughputMeter;
use crate::transfer::SenderStats;
use leo_netsim::{Agent, Context, LinkId, Packet};
use std::collections::VecDeque;

/// Which packet scheduler the sender uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum SchedulerKind {
    /// Alternate over subflows with window space.
    RoundRobin,
    /// Always the lowest-SRTT subflow with window space.
    MinRtt,
    /// MinRtt, but skip the slow subflow when using it would block the
    /// connection-level send window (Ferlin et al., IFIP Networking '16).
    Blest,
    /// MinRtt, but use the slow subflow only when waiting for the fast one
    /// would take longer (Lim et al., CoNEXT '17).
    Ecf,
    /// The paper's future-work scheduler, realised: BLEST, plus awareness
    /// of the LEO path's 15-second reconfiguration clock. Data is steered
    /// off the satellite subflow in a guard window around each
    /// reconfiguration instant, so segments never straddle the handover
    /// outage that would otherwise strand them (and head-of-line-block
    /// the cellular subflow).
    LeoAware,
}

impl SchedulerKind {
    /// All schedulers, for sweeps and benches.
    pub const ALL: [SchedulerKind; 5] = [
        SchedulerKind::RoundRobin,
        SchedulerKind::MinRtt,
        SchedulerKind::Blest,
        SchedulerKind::Ecf,
        SchedulerKind::LeoAware,
    ];

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            SchedulerKind::RoundRobin => "RoundRobin",
            SchedulerKind::MinRtt => "MinRTT",
            SchedulerKind::Blest => "BLEST",
            SchedulerKind::Ecf => "ECF",
            SchedulerKind::LeoAware => "LEO-aware",
        }
    }
}

/// MPTCP connection parameters.
#[derive(Debug, Clone)]
pub struct MptcpConfig {
    /// Base flow id; subflow `i` uses `flow + i`.
    pub flow: u32,
    pub cc: CcAlgorithm,
    /// Couple the subflows' congestion avoidance with LIA (RFC 6356).
    pub coupled: bool,
    pub scheduler: SchedulerKind,
    /// Connection-level receive buffer, packets — §6's tuning knob.
    pub recv_buffer_packets: u64,
    /// One data link per subflow.
    pub subflow_links: Vec<LinkId>,
    /// Total data packets to transfer; `None` for unbounded.
    pub limit_packets: Option<u64>,
    /// LEO guard for [`SchedulerKind::LeoAware`]: which subflow rides the
    /// satellite, the reconfiguration period, and the guard window to
    /// keep clear on each side of a reconfiguration instant.
    pub leo_guard: Option<LeoGuard>,
    /// External congestion-control / scheduler plug-ins (searched
    /// transport DNA). Empty by default; when a hook is present it
    /// overrides the corresponding built-in field above.
    pub plugins: TransportPlugins,
}

/// LEO reconfiguration-clock parameters for the LEO-aware scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeoGuard {
    /// Index of the satellite subflow in `subflow_links`.
    pub satellite_subflow: usize,
    /// Reconfiguration period, milliseconds (Starlink: 15,000).
    pub interval_ms: u64,
    /// Guard window half-width, milliseconds.
    pub guard_ms: u64,
}

impl LeoGuard {
    /// The Starlink default: subflow 0, 15 s clock, 600 ms guard.
    pub fn starlink_default() -> Self {
        Self {
            satellite_subflow: 0,
            interval_ms: 15_000,
            guard_ms: 600,
        }
    }

    /// True when `now_ms` is inside the guard window around a
    /// reconfiguration instant.
    pub fn in_guard(&self, now_ms: u64) -> bool {
        let phase = now_ms % self.interval_ms;
        phase < self.guard_ms || phase + self.guard_ms >= self.interval_ms
    }
}

/// Per-subflow sender state: a [`FlowCore`] plus its link.
struct Subflow {
    link: LinkId,
    core: FlowCore,
    /// RTO timer coalescer: one pending physical timer per deadline.
    rto: RtoCoalesce,
    /// Sim time of the last fast-retransmit loss event (plug-in signal;
    /// passive bookkeeping, never read by the built-in schedulers).
    last_loss_ms: Option<u64>,
    /// Sim time of the last RTO firing (plug-in handover signal).
    last_timeout_ms: Option<u64>,
}

/// The MPTCP sending endpoint.
pub struct MptcpSender {
    cfg: MptcpConfig,
    subflows: Vec<Subflow>,
    /// Next fresh data sequence number.
    next_dsn: u64,
    /// Lowest data sequence not yet data-ACKed.
    data_una: u64,
    /// Receiver's advertised connection-level window, packets.
    adv_rwnd: u64,
    /// DSNs awaiting reinjection after a subflow timeout.
    reinject: VecDeque<u64>,
    reinject_set: SeqBitmap,
    /// Round-robin pointer.
    rr_next: usize,
    next_pkt_id: u64,
    started: bool,
    /// Reusable action buffer: steady-state ACK handling allocates nothing.
    scratch: FlowActions,
    /// Reusable subflow snapshot handed to a plug-in scheduler.
    views: Vec<SubflowView>,
}

impl MptcpSender {
    /// Creates a sender; [`crate::transfer::run`] starts it.
    pub fn new(cfg: MptcpConfig) -> Self {
        assert!(
            !cfg.subflow_links.is_empty(),
            "MPTCP needs at least one subflow"
        );
        assert!(
            cfg.subflow_links.len() <= 64,
            "the scheduler's availability bitmask holds at most 64 subflows"
        );
        let subflows = cfg
            .subflow_links
            .iter()
            .map(|&l| Subflow {
                link: l,
                // A plugged-in factory overrides `cfg.cc`: each subflow
                // gets a fresh external controller behind `Cc::Custom`.
                core: match &cfg.plugins.cc {
                    Some(factory) => FlowCore::with_cc(Cc::custom(factory.build())),
                    None => FlowCore::new(cfg.cc),
                },
                rto: RtoCoalesce::default(),
                last_loss_ms: None,
                last_timeout_ms: None,
            })
            .collect();
        let adv_rwnd = cfg.recv_buffer_packets;
        Self {
            cfg,
            subflows,
            next_dsn: 0,
            data_una: 0,
            adv_rwnd,
            reinject: VecDeque::new(),
            reinject_set: SeqBitmap::new(),
            rr_next: 0,
            next_pkt_id: 0,
            started: false,
            scratch: FlowActions::default(),
            views: Vec::new(),
        }
    }

    /// Kicks off the transfer.
    pub fn start(&mut self, ctx: &mut Context) {
        if !self.started {
            self.started = true;
            self.try_send(ctx);
            for i in 0..self.subflows.len() {
                self.arm_rto(ctx, i);
            }
        }
    }

    /// True once a bounded transfer is fully data-ACKed.
    pub fn finished(&self) -> bool {
        match self.cfg.limit_packets {
            Some(n) => self.data_una >= n,
            None => false,
        }
    }

    /// Per-subflow packets sent, retransmissions, RTO events and smoothed
    /// RTT, in subflow order.
    pub(crate) fn subflow_stats(&self) -> impl Iterator<Item = SenderStats> + '_ {
        self.subflows.iter().map(|s| SenderStats {
            packets_sent: s.core.packets_sent,
            retransmissions: s.core.retransmissions,
            timeouts: s.core.timeouts,
            srtt_s: s.core.srtt_s(),
        })
    }

    /// Connection-level send window remaining, packets.
    fn send_window_remaining(&self) -> u64 {
        let inflight_conn = self.next_dsn - self.data_una;
        self.adv_rwnd.saturating_sub(inflight_conn)
    }

    /// LIA (RFC 6356): per-subflow increase scaling.
    fn apply_lia(&mut self) {
        if !self.cfg.coupled || self.subflows.len() < 2 {
            return;
        }
        let total: f64 = self.subflows.iter().map(|s| s.core.cc.cwnd()).sum();
        let best = self
            .subflows
            .iter()
            .map(|s| s.core.cc.cwnd() / s.core.srtt_s().powi(2))
            .fold(0.0, f64::max);
        let denom: f64 = self
            .subflows
            .iter()
            .map(|s| s.core.cc.cwnd() / s.core.srtt_s())
            .sum::<f64>()
            .powi(2);
        if denom <= 0.0 || total <= 0.0 {
            return;
        }
        let alpha = total * best / denom;
        for s in &mut self.subflows {
            // Per-ACK increase = min(α/total, 1/cwnd_i); our controllers
            // add `scale / cwnd_i`, so scale_i = min(α·cwnd_i/total, 1).
            let scale = (alpha * s.core.cc.cwnd() / total).min(1.0);
            s.core.cc.set_increase_scale(scale);
        }
    }

    /// Picks the next DSN to transmit: reinjections first, then new data.
    fn next_dsn_to_send(&mut self) -> Option<(u64, bool)> {
        while let Some(&d) = self.reinject.front() {
            if d >= self.data_una {
                return Some((d, true));
            }
            self.reinject.pop_front();
            self.reinject_set.remove(d);
        }
        let limit = self.cfg.limit_packets.unwrap_or(u64::MAX);
        if self.next_dsn < limit && self.send_window_remaining() > 0 {
            return Some((self.next_dsn, false));
        }
        None
    }

    fn fastest_subflow(&self) -> usize {
        // total_cmp instead of partial_cmp().expect(): a NaN smuggled in
        // through a degenerate RTT sample must not panic the scheduler
        // (NaN orders above every finite RTT, so it simply never wins).
        (0..self.subflows.len())
            .min_by(|&a, &b| {
                self.subflows[a]
                    .core
                    .srtt_s()
                    .total_cmp(&self.subflows[b].core.srtt_s())
            })
            .expect("at least one subflow")
    }

    /// First index in `mask` minimizing SRTT. Ascending scan updating
    /// only on strictly smaller values — exactly `min_by`'s
    /// first-minimum tie-breaking over the same candidate order.
    fn min_rtt_in(&self, mask: u64) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        let mut m = mask;
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            m &= m - 1;
            let r = self.subflows[i].core.srtt_s();
            match best {
                Some((_, br)) if r.total_cmp(&br) != std::cmp::Ordering::Less => {}
                _ => best = Some((i, r)),
            }
        }
        best.map(|(i, _)| i)
    }

    /// Scheduler: choose a subflow for the next packet, or `None` to
    /// wait. The availability set lives in a `u64` bitmask (one bit per
    /// subflow), so a steady-state pick allocates nothing.
    fn pick_subflow(&mut self, now_ms: u64) -> Option<usize> {
        let n = self.subflows.len();
        let mut space: u64 = 0;
        for (i, s) in self.subflows.iter().enumerate() {
            space |= (s.core.window_space() as u64) << i;
        }
        let mut avail = space;
        // LEO-aware guard: keep the satellite subflow idle around its
        // reconfiguration instants.
        if self.cfg.scheduler == SchedulerKind::LeoAware {
            if let Some(g) = self.cfg.leo_guard {
                if g.in_guard(now_ms) && avail.count_ones() > 1 {
                    avail &= !(1u64 << g.satellite_subflow);
                }
            }
        }
        if avail == 0 {
            return None;
        }
        // A plugged-in scheduler replaces the built-in dispatch entirely
        // (including the LEO guard filtering above — it sees the raw
        // availability set and brings its own policy).
        if let Some(sched) = &self.cfg.plugins.scheduler {
            self.views.clear();
            self.views
                .extend(self.subflows.iter().enumerate().map(|(i, s)| SubflowView {
                    srtt_s: s.core.srtt_s(),
                    cwnd: s.core.cc.cwnd(),
                    has_space: space & (1u64 << i) != 0,
                    last_loss_ms: s.last_loss_ms,
                    last_timeout_ms: s.last_timeout_ms,
                }));
            let pick = sched.pick(&SchedView {
                now_ms,
                subflows: &self.views,
                avail_mask: avail,
                send_window_remaining: self.send_window_remaining(),
                recv_buffer_packets: self.cfg.recv_buffer_packets,
            });
            debug_assert!(
                pick.is_none_or(|i| i < n && avail & (1u64 << i) != 0),
                "plug-in scheduler picked unavailable subflow {pick:?} (avail {avail:#b})"
            );
            return pick.filter(|&i| i < n && avail & (1u64 << i) != 0);
        }
        match self.cfg.scheduler {
            SchedulerKind::RoundRobin => (0..n)
                .map(|k| (self.rr_next + k) % n)
                .find(|&i| avail & (1 << i) != 0),
            SchedulerKind::MinRtt => self.min_rtt_in(avail),
            SchedulerKind::Blest | SchedulerKind::Ecf | SchedulerKind::LeoAware => {
                let fastest = self.fastest_subflow();
                if avail & (1 << fastest) != 0 {
                    return Some(fastest);
                }
                // Only slower subflows have space.
                let slow = self.min_rtt_in(avail).expect("non-empty");
                let fast_core = &self.subflows[fastest].core;
                let rtt_f = fast_core.srtt_s();
                let rtt_s = self.subflows[slow].core.srtt_s();
                self.slow_path_decision(slow, fast_core.cc.cwnd(), rtt_f, rtt_s)
            }
        }
    }

    /// BLEST / ECF decision once only slower subflows have window space.
    fn slow_path_decision(
        &self,
        slow: usize,
        fast_cwnd: f64,
        rtt_f: f64,
        rtt_s: f64,
    ) -> Option<usize> {
        match self.cfg.scheduler {
            SchedulerKind::Blest | SchedulerKind::LeoAware => {
                // Packets the fast subflow could move during one
                // slow RTT, padded by the BLEST δ; if that exceeds
                // the remaining send window, sending on the slow
                // subflow would block the connection — wait.
                let x = fast_cwnd * (rtt_s / rtt_f.max(1e-6)) * 1.2;
                if x >= self.send_window_remaining() as f64 {
                    None
                } else {
                    Some(slow)
                }
            }
            SchedulerKind::Ecf => {
                // Waiting time for the fast subflow to drain the
                // remaining window vs. one slow RTT.
                let remaining = self.send_window_remaining() as f64;
                let wait_fast = (remaining / fast_cwnd.max(1.0)) * rtt_f + rtt_f;
                if wait_fast <= rtt_s {
                    None
                } else {
                    Some(slow)
                }
            }
            _ => unreachable!("callers restrict to Blest|Ecf|LeoAware"),
        }
    }

    /// Puts one segment (ssn already allocated & registered) on the wire.
    fn emit(&mut self, ctx: &mut Context, sf_idx: usize, ssn: u64, dsn: u64) {
        let id = self.next_pkt_id;
        self.next_pkt_id += 1;
        let pkt = Packet::data(id, self.cfg.flow + sf_idx as u32, ssn, ctx.now())
            .with_aux(dsn, ctx.now().as_nanos());
        ctx.send(self.subflows[sf_idx].link, pkt);
    }

    fn try_send(&mut self, ctx: &mut Context) {
        let now_ms = ctx.now().as_millis();
        while let Some((dsn, is_reinject)) = self.next_dsn_to_send() {
            let Some(sf_idx) = self.pick_subflow(now_ms) else {
                break;
            };
            if is_reinject {
                self.reinject.pop_front();
                self.reinject_set.remove(dsn);
            } else {
                self.next_dsn += 1;
            }
            self.rr_next = (sf_idx + 1) % self.subflows.len();
            let ssn = self.subflows[sf_idx].core.alloc_seq();
            self.subflows[sf_idx]
                .core
                .register_transmit(ssn, dsn, false);
            self.emit(ctx, sf_idx, ssn, dsn);
        }
    }

    fn arm_rto(&mut self, ctx: &mut Context, sf_idx: usize) {
        let sf = &mut self.subflows[sf_idx];
        let epoch = sf.core.arm_rto();
        let timer_id = ((sf_idx as u64) << 48) | epoch;
        if let Some(delay) = sf.rto.arm(ctx.now(), sf.core.current_rto) {
            // Only arm a physical timer when no already-scheduled firing
            // covers the new deadline; intermediate restarts ride the
            // existing timer and re-arm the exact remainder on pop.
            ctx.set_timer(delay, timer_id);
        }
    }
}

impl Agent for MptcpSender {
    fn on_packet(&mut self, ctx: &mut Context, _link: LinkId, packet: Packet) {
        if !packet.is_ack {
            return;
        }
        let Some(sf_idx) = packet.flow.checked_sub(self.cfg.flow).map(|i| i as usize) else {
            return;
        };
        if sf_idx >= self.subflows.len() {
            return;
        }

        // Connection-level bookkeeping: data ACK + advertised window.
        self.data_una = self.data_una.max(packet.aux_a);
        // Entries below the data-ACK point are dead (they are skipped and
        // lazily dropped on pop); let the ring bitmap reclaim them now.
        self.reinject_set.advance_to(self.data_una);
        self.adv_rwnd = packet.seq; // receiver advertises in `seq`

        // Reuse the scratch buffer (taken to satisfy the borrow checker
        // while `emit` borrows `self`), so the steady-state ACK path
        // performs zero heap allocation.
        let mut actions = std::mem::take(&mut self.scratch);
        self.subflows[sf_idx].core.handle_ack_into(
            packet.ack,
            packet.aux_c,
            packet.aux_b,
            ctx.now(),
            &mut actions,
        );
        if !actions.retransmits.is_empty() {
            // Fast-retransmit loss event: recorded for the plug-in
            // scheduler's recent-loss signal (pure bookkeeping).
            self.subflows[sf_idx].last_loss_ms = Some(ctx.now().as_millis());
        }
        for &(ssn, dsn) in &actions.retransmits {
            self.emit(ctx, sf_idx, ssn, dsn);
        }
        if actions.advanced {
            self.apply_lia();
        }
        // Restart the subflow's timer on progress or retransmission
        // (RFC 6298 §5), so a long recovery cannot be cut short spuriously.
        if (actions.advanced || !actions.retransmits.is_empty())
            && self.subflows[sf_idx].core.has_outstanding()
        {
            self.arm_rto(ctx, sf_idx);
        }
        self.scratch = actions;
        self.try_send(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context, timer_id: u64) {
        let sf_idx = (timer_id >> 48) as usize;
        if sf_idx >= self.subflows.len() {
            return;
        }
        let epoch = match self.subflows[sf_idx].rto.fire(ctx.now()) {
            RtoFire::Due => self.subflows[sf_idx].core.rto_epoch,
            RtoFire::Early => return,
            RtoFire::Rearm(delay) => {
                ctx.set_timer(delay, (sf_idx as u64) << 48);
                return;
            }
        };
        let mut actions = std::mem::take(&mut self.scratch);
        if !self.subflows[sf_idx]
            .core
            .handle_timeout_into(epoch, ctx.now(), &mut actions)
        {
            self.scratch = actions;
            return;
        }
        // RTO fired for real: the plug-in scheduler's handover signal.
        self.subflows[sf_idx].last_timeout_ms = Some(ctx.now().as_millis());
        // Queue the stranded DSNs for rescue on sibling subflows.
        for d in actions.stranded_aux.iter().copied() {
            if d >= self.data_una && self.reinject_set.insert(d) {
                self.reinject.push_back(d);
            }
        }
        for &(ssn, dsn) in &actions.retransmits {
            self.emit(ctx, sf_idx, ssn, dsn);
        }
        self.scratch = actions;
        self.arm_rto(ctx, sf_idx);
        self.try_send(ctx);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Per-subflow receiver state.
struct SubRx {
    rcv_nxt: u64,
    ooo: SeqBitmap,
}

/// The MPTCP receiving endpoint.
pub struct MptcpReceiver {
    base_flow: u32,
    /// ACK links, one per subflow (index = subflow index).
    ack_links: Vec<LinkId>,
    subrx: Vec<SubRx>,
    data_rcv_nxt: u64,
    data_ooo: SeqBitmap,
    buffer_packets: u64,
    /// Goodput of the reassembled stream.
    pub meter: ThroughputMeter,
    /// Packets refused because the connection buffer was full.
    pub buffer_drops: u64,
    next_pkt_id: u64,
}

impl MptcpReceiver {
    /// Creates a receiver; `ack_links[i]` carries subflow `i`'s ACKs.
    pub fn new(base_flow: u32, ack_links: Vec<LinkId>, buffer_packets: u64) -> Self {
        let subrx = ack_links
            .iter()
            .map(|_| SubRx {
                rcv_nxt: 0,
                ooo: SeqBitmap::new(),
            })
            .collect();
        Self {
            base_flow,
            ack_links,
            subrx,
            data_rcv_nxt: 0,
            data_ooo: SeqBitmap::new(),
            buffer_packets,
            meter: ThroughputMeter::new(),
            buffer_drops: 0,
            next_pkt_id: 1 << 41,
        }
    }

    /// Reassembled in-order data sequence.
    pub fn data_rcv_nxt(&self) -> u64 {
        self.data_rcv_nxt
    }

    /// Current advertised connection-level window, packets.
    pub fn advertised_window(&self) -> u64 {
        self.buffer_packets
            .saturating_sub(self.data_ooo.len() as u64)
    }
}

impl Agent for MptcpReceiver {
    fn on_packet(&mut self, ctx: &mut Context, _link: LinkId, packet: Packet) {
        if packet.is_ack {
            return;
        }
        let Some(sf_idx) = packet.flow.checked_sub(self.base_flow).map(|i| i as usize) else {
            return;
        };
        if sf_idx >= self.subrx.len() {
            return;
        }
        let dsn = packet.aux_a;

        // Connection-level buffer admission: a new out-of-order DSN that
        // does not fit is refused before any subflow processing, exactly
        // as a zero window would have prevented its transmission.
        if dsn > self.data_rcv_nxt
            && !self.data_ooo.contains(dsn)
            && self.data_ooo.len() as u64 + 1 >= self.buffer_packets
        {
            self.buffer_drops += 1;
            return;
        }

        // Subflow-level reassembly (drives cumulative subflow ACKs).
        let srx = &mut self.subrx[sf_idx];
        if packet.seq == srx.rcv_nxt {
            srx.rcv_nxt += 1;
            while srx.ooo.remove(srx.rcv_nxt) {
                srx.rcv_nxt += 1;
            }
            srx.ooo.advance_to(srx.rcv_nxt);
        } else if packet.seq > srx.rcv_nxt {
            srx.ooo.insert(packet.seq);
        }

        // Data-level reassembly.
        let before = self.data_rcv_nxt;
        if dsn == self.data_rcv_nxt {
            self.data_rcv_nxt += 1;
            while self.data_ooo.remove(self.data_rcv_nxt) {
                self.data_rcv_nxt += 1;
            }
            self.data_ooo.advance_to(self.data_rcv_nxt);
        } else if dsn > self.data_rcv_nxt {
            self.data_ooo.insert(dsn);
        }
        let delivered = self.data_rcv_nxt - before;
        if delivered > 0 {
            self.meter
                .record(ctx.now(), delivered * packet.size_bytes as u64);
        }

        // ACK on the same subflow: subflow cumulative ack, data ack in
        // aux_a, SACK hint in aux_c, advertised window in seq, timestamp
        // echo in aux_b.
        let id = self.next_pkt_id;
        self.next_pkt_id += 1;
        let mut ack = Packet::ack(
            id,
            self.base_flow + sf_idx as u32,
            self.subrx[sf_idx].rcv_nxt,
            ctx.now(),
        )
        .with_aux(self.data_rcv_nxt, packet.aux_b)
        .with_aux_c(packet.seq);
        ack.seq = self.advertised_window();
        ctx.send(self.ack_links[sf_idx], ack);
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
    use crate::transfer::{self, Endpoints, TransferOutcome};
    use leo_netsim::{ConstPipe, SimTime, Simulator};

    /// One emulated path's parameters.
    struct Path {
        rate: f64,
        delay_ms: u64,
        loss: f64,
    }

    /// Two-path topology: subflow 0 over `p0`, subflow 1 over `p1`.
    fn run_mptcp(
        p0: Path,
        p1: Path,
        scheduler: SchedulerKind,
        buffer: u64,
        secs: u64,
    ) -> (f64, TransferOutcome) {
        run_mptcp_with(p0, p1, scheduler, buffer, secs, TransportPlugins::default())
    }

    /// [`run_mptcp`] with plug-ins installed.
    fn run_mptcp_with(
        p0: Path,
        p1: Path,
        scheduler: SchedulerKind,
        buffer: u64,
        secs: u64,
        plugins: TransportPlugins,
    ) -> (f64, TransferOutcome) {
        let mptcp = Endpoints::Mptcp {
            cc: CcAlgorithm::Cubic,
            coupled: true,
            scheduler,
            buffer_packets: buffer,
            leo_guard: None,
            plugins,
        };
        let paths = vec![p0.pipes(), p1.pipes()];
        let out = transfer::run(77, mptcp, paths, secs);
        (out.receivers[0].mean_mbps, out)
    }

    impl Path {
        /// The data pipe with the path's loss and a lossless ACK pipe, both
        /// queued to 2× the BDP.
        fn pipes(&self) -> transfer::Path {
            let q = ((self.rate * 1e6 / 8.0) * (2.0 * self.delay_ms as f64 / 1e3)) as u64 + 50_000;
            let pipe =
                |loss| ConstPipe::new(self.rate, SimTime::from_millis(self.delay_ms), loss, q);
            transfer::Path::new(Box::new(pipe(self.loss)), Box::new(pipe(0.0)))
        }
    }

    #[test]
    fn pools_two_clean_paths() {
        // 40 + 60 Mbps paths should aggregate well beyond either alone.
        for sched in SchedulerKind::ALL {
            let (goodput, ..) = run_mptcp(
                Path {
                    rate: 40.0,
                    delay_ms: 20,
                    loss: 0.0,
                },
                Path {
                    rate: 60.0,
                    delay_ms: 35,
                    loss: 0.0,
                },
                sched,
                16_384,
                12,
            );
            assert!(
                goodput > 70.0,
                "{sched:?}: pooled goodput {goodput} Mbps < 70"
            );
        }
    }

    #[test]
    fn round_robin_alternates_across_equal_subflows() {
        // Regression: `pick_subflow` only reads `rr_next`; the
        // cursor is advanced by `try_send` after every pick. With two
        // identical paths a broken cursor degenerates to one subflow,
        // so require both subflows to carry a fair share of the data.
        let (goodput, out) = run_mptcp(
            Path {
                rate: 50.0,
                delay_ms: 20,
                loss: 0.0,
            },
            Path {
                rate: 50.0,
                delay_ms: 20,
                loss: 0.0,
            },
            SchedulerKind::RoundRobin,
            16_384,
            10,
        );
        let sent: Vec<u64> = out.senders.iter().map(|s| s.packets_sent).collect();
        let total: u64 = sent.iter().sum();
        assert!(total > 0, "round-robin sent nothing");
        for (i, &s) in sent.iter().enumerate() {
            let share = s as f64 / total as f64;
            assert!(
                (0.40..=0.60).contains(&share),
                "subflow {i} carried {share:.2} of packets ({sent:?}); \
                 round-robin should alternate across equal subflows"
            );
        }
        assert!(goodput > 70.0, "equal-path round-robin goodput {goodput}");
    }

    /// Always takes the highest-index available subflow.
    #[derive(Debug)]
    struct HighestIndex;

    impl crate::plugin::MpScheduler for HighestIndex {
        fn pick(&self, view: &SchedView) -> Option<usize> {
            Some(63 - view.avail_mask.leading_zeros() as usize)
        }
    }

    #[test]
    fn plugin_scheduler_steers_the_sender() {
        // Path 0 has the lower RTT, and a 32-packet connection buffer
        // binds long before either cwnd, so both subflows keep window
        // space: built-in MinRtt stays on subflow 0, and a plug-in that
        // takes the highest-index subflow must move the load to 1.
        let subflow1_sent = |plugins: TransportPlugins| {
            let (_, out) = run_mptcp_with(
                Path {
                    rate: 50.0,
                    delay_ms: 10,
                    loss: 0.0,
                },
                Path {
                    rate: 50.0,
                    delay_ms: 40,
                    loss: 0.0,
                },
                SchedulerKind::MinRtt,
                32,
                5,
                plugins,
            );
            out.senders[1].packets_sent
        };
        let builtin = subflow1_sent(TransportPlugins::default());
        let plugged = subflow1_sent(
            TransportPlugins::default().with_scheduler(std::sync::Arc::new(HighestIndex)),
        );
        assert!(
            plugged > builtin,
            "plug-in put {plugged} packets on subflow 1, built-in MinRtt {builtin}"
        );
    }

    #[test]
    fn beats_the_better_single_path() {
        let (mp, ..) = run_mptcp(
            Path {
                rate: 50.0,
                delay_ms: 25,
                loss: 0.0,
            },
            Path {
                rate: 80.0,
                delay_ms: 45,
                loss: 0.0,
            },
            SchedulerKind::Blest,
            16_384,
            12,
        );
        // The better path alone is 80 Mbps.
        assert!(mp > 88.0, "MPTCP {mp} Mbps should beat the better path");
    }

    #[test]
    fn small_buffer_collapses_on_asymmetric_paths() {
        // §6: with OS-default buffers, data in flight on the slow path
        // head-of-line-blocks the fast one. A scheduler that actually uses
        // both paths (RoundRobin here; on the paper's variable real traces
        // every scheduler ends up using the slow path) stalls the whole
        // connection on the 200 ms path whenever the tiny window fills.
        let (small, ..) = run_mptcp(
            Path {
                rate: 100.0,
                delay_ms: 5,
                loss: 0.0,
            },
            Path {
                rate: 20.0,
                delay_ms: 100,
                loss: 0.0,
            },
            SchedulerKind::RoundRobin,
            64,
            12,
        );
        let (large, ..) = run_mptcp(
            Path {
                rate: 100.0,
                delay_ms: 5,
                loss: 0.0,
            },
            Path {
                rate: 20.0,
                delay_ms: 100,
                loss: 0.0,
            },
            SchedulerKind::RoundRobin,
            16_384,
            12,
        );
        assert!(
            small < large * 0.55,
            "small-buffer {small} vs tuned {large} Mbps — collapse missing"
        );
        // And the tiny buffer also caps MinRtt below the fast path's own
        // capacity (the "marginal improvement" regime of §6).
        let (minrtt_small, ..) = run_mptcp(
            Path {
                rate: 100.0,
                delay_ms: 5,
                loss: 0.0,
            },
            Path {
                rate: 20.0,
                delay_ms: 100,
                loss: 0.0,
            },
            SchedulerKind::MinRtt,
            64,
            12,
        );
        assert!(
            minrtt_small < 85.0,
            "MinRtt with a 64-packet buffer should stay below path-0 capacity, got {minrtt_small}"
        );
    }

    #[test]
    fn blest_handles_asymmetry_better_than_roundrobin_with_small_buffer() {
        let (rr, ..) = run_mptcp(
            Path {
                rate: 100.0,
                delay_ms: 5,
                loss: 0.0,
            },
            Path {
                rate: 10.0,
                delay_ms: 150,
                loss: 0.0,
            },
            SchedulerKind::RoundRobin,
            256,
            12,
        );
        let (blest, ..) = run_mptcp(
            Path {
                rate: 100.0,
                delay_ms: 5,
                loss: 0.0,
            },
            Path {
                rate: 10.0,
                delay_ms: 150,
                loss: 0.0,
            },
            SchedulerKind::Blest,
            256,
            12,
        );
        assert!(
            blest > rr,
            "BLEST {blest} should beat RoundRobin {rr} under asymmetry"
        );
    }

    #[test]
    fn survives_one_path_dying() {
        // Path 1 is a black hole: reinjection must rescue its data through
        // path 0; the transfer completes.
        let mut sim = Simulator::new(3);
        let sender = sim.add_node(Box::new(MptcpSender::new(MptcpConfig {
            flow: 10,
            cc: CcAlgorithm::Cubic,
            coupled: false,
            scheduler: SchedulerKind::RoundRobin,
            recv_buffer_packets: 4096,
            subflow_links: vec![LinkId(0), LinkId(1)],
            limit_packets: Some(300),
            leo_guard: None,
            plugins: TransportPlugins::default(),
        })));
        let receiver = sim.add_node(Box::new(MptcpReceiver::new(
            10,
            vec![LinkId(2), LinkId(3)],
            4096,
        )));
        sim.add_link(
            Box::new(ConstPipe::new(20.0, SimTime::from_millis(20), 0.0, 1 << 20)),
            receiver,
        );
        sim.add_link(
            Box::new(ConstPipe::new(20.0, SimTime::from_millis(20), 1.0, 1 << 20)),
            receiver,
        ); // dead
        sim.add_link(
            Box::new(ConstPipe::new(20.0, SimTime::from_millis(20), 0.0, 1 << 20)),
            sender,
        );
        sim.add_link(
            Box::new(ConstPipe::new(20.0, SimTime::from_millis(20), 0.0, 1 << 20)),
            sender,
        );
        sim.with_agent(sender, |a, ctx| {
            a.as_any_mut()
                .downcast_mut::<MptcpSender>()
                .unwrap()
                .start(ctx)
        });
        sim.run_until(SimTime::from_secs(120));
        let rx = sim.agent_as::<MptcpReceiver>(receiver);
        assert_eq!(
            rx.data_rcv_nxt(),
            300,
            "all data must arrive despite the dead subflow"
        );
        assert!(sim.agent_as::<MptcpSender>(sender).finished());
    }

    #[test]
    fn receiver_buffer_never_overfills() {
        let mut sim = Simulator::new(77);
        let sender = sim.add_node(Box::new(MptcpSender::new(MptcpConfig {
            flow: 10,
            cc: CcAlgorithm::Cubic,
            coupled: true,
            scheduler: SchedulerKind::RoundRobin,
            recv_buffer_packets: 32,
            subflow_links: vec![LinkId(0), LinkId(1)],
            limit_packets: None,
            leo_guard: None,
            plugins: TransportPlugins::default(),
        })));
        let receiver = sim.add_node(Box::new(MptcpReceiver::new(
            10,
            vec![LinkId(2), LinkId(3)],
            32,
        )));
        let q0 = ((200.0 * 1e6 / 8.0) * (2.0 * 5.0 / 1e3)) as u64 + 50_000;
        let q1 = ((10.0 * 1e6 / 8.0) * (2.0 * 150.0 / 1e3)) as u64 + 50_000;
        let (fast, slow) = (SimTime::from_millis(5), SimTime::from_millis(150));
        sim.add_link(Box::new(ConstPipe::new(200.0, fast, 0.0, q0)), receiver);
        sim.add_link(Box::new(ConstPipe::new(10.0, slow, 0.0, q1)), receiver);
        sim.add_link(Box::new(ConstPipe::new(200.0, fast, 0.0, q0)), sender);
        sim.add_link(Box::new(ConstPipe::new(10.0, slow, 0.0, q1)), sender);
        sim.with_agent(sender, |a, ctx| {
            a.as_any_mut()
                .downcast_mut::<MptcpSender>()
                .unwrap()
                .start(ctx)
        });
        sim.run_until(SimTime::from_secs(8));
        let rx = sim.agent_as::<MptcpReceiver>(receiver);
        assert!(
            rx.advertised_window() <= 32,
            "window {} exceeds the buffer",
            rx.advertised_window()
        );
    }

    #[test]
    fn lia_is_less_aggressive_than_uncoupled() {
        // Two identical paths: coupled total transfer ≤ uncoupled.
        let run = |coupled: bool| {
            let mptcp = Endpoints::Mptcp {
                cc: CcAlgorithm::Reno,
                coupled,
                scheduler: SchedulerKind::RoundRobin,
                buffer_packets: 16_384,
                leo_guard: None,
                plugins: TransportPlugins::default(),
            };
            let pipe = || -> Box<dyn leo_netsim::Pipe> {
                Box::new(ConstPipe::new(
                    30.0,
                    SimTime::from_millis(40),
                    0.003,
                    1 << 19,
                ))
            };
            let paths = (0..2).map(|_| transfer::Path::new(pipe(), pipe()));
            transfer::run(9, mptcp, paths.collect(), 20).receivers[0].delivered_bytes
        };
        let coupled = run(true);
        let uncoupled = run(false);
        assert!(
            coupled <= uncoupled,
            "LIA ({coupled}) should not out-transfer uncoupled ({uncoupled})"
        );
    }

    #[test]
    fn reassembles_interleaved_dsns() {
        // Unit-level: feed the receiver DSNs out of order across subflows.
        let mut sim = Simulator::new(1);
        let receiver = sim.add_node(Box::new(MptcpReceiver::new(
            5,
            vec![LinkId(0), LinkId(1)],
            64,
        )));
        let sink = sim.add_node(Box::new(NullAgent));
        sim.add_link(
            Box::new(ConstPipe::new(1e9, SimTime::ZERO, 0.0, u64::MAX)),
            sink,
        );
        sim.add_link(
            Box::new(ConstPipe::new(1e9, SimTime::ZERO, 0.0, u64::MAX)),
            sink,
        );
        sim.with_agent(receiver, |a, ctx| {
            let r = a.as_any_mut().downcast_mut::<MptcpReceiver>().unwrap();
            // Subflow 0 carries DSN 0 and 2; subflow 1 carries DSN 1.
            r.on_packet(
                ctx,
                LinkId(9),
                Packet::data(1, 5, 0, ctx.now()).with_aux(0, 0),
            );
            r.on_packet(
                ctx,
                LinkId(9),
                Packet::data(2, 5, 1, ctx.now()).with_aux(2, 0),
            );
            assert_eq!(r.data_rcv_nxt(), 1, "DSN 2 buffered, waiting for 1");
            r.on_packet(
                ctx,
                LinkId(9),
                Packet::data(3, 6, 0, ctx.now()).with_aux(1, 0),
            );
            assert_eq!(r.data_rcv_nxt(), 3, "stream complete across subflows");
        });
    }

    #[test]
    fn leo_guard_window_arithmetic() {
        let g = LeoGuard {
            satellite_subflow: 0,
            interval_ms: 15_000,
            guard_ms: 500,
        };
        assert!(g.in_guard(0));
        assert!(g.in_guard(499));
        assert!(!g.in_guard(500));
        assert!(!g.in_guard(14_499));
        assert!(g.in_guard(14_500));
        assert!(g.in_guard(15_000));
        assert!(g.in_guard(29_800));
    }

    #[test]
    fn leo_aware_beats_blest_under_periodic_satellite_outages() {
        // The satellite path dies for ~1 s around every 15 s boundary
        // (handover reconfiguration). The LEO-aware scheduler, knowing the
        // clock, parks the satellite subflow during the guard window; BLEST
        // keeps scheduling into the outage and strands data behind it.
        use leo_link::mahimahi::MahimahiTrace;
        use leo_netsim::TracePipe;

        let secs = 46u64;
        let run = |sched: SchedulerKind| {
            let mptcp = Endpoints::Mptcp {
                cc: CcAlgorithm::Cubic,
                coupled: true,
                scheduler: sched,
                buffer_packets: 600, // modest buffer: stranding hurts
                leo_guard: (sched == SchedulerKind::LeoAware).then_some(LeoGuard {
                    satellite_subflow: 0,
                    interval_ms: 15_000,
                    guard_ms: 700,
                }),
                plugins: TransportPlugins::default(),
            };
            // Satellite path: 80 Mbps with total loss for one second at
            // every 15 s mark.
            let sat_loss: Vec<f64> = (0..secs)
                .map(|t| if t % 15 == 0 { 1.0 } else { 0.002 })
                .collect();
            let sat_trace = MahimahiTrace::from_capacity_series(&vec![80.0; secs as usize]);
            let sat = transfer::Path::new(
                Box::new(
                    TracePipe::new(sat_trace, SimTime::from_millis(30), 1 << 20)
                        .with_loss_series(sat_loss),
                ),
                Box::new(ConstPipe::new(80.0, SimTime::from_millis(30), 0.0, 1 << 20)),
            );
            // Cellular path: steady 30 Mbps.
            let cell = || ConstPipe::new(30.0, SimTime::from_millis(25), 0.0, 1 << 20);
            let cell = transfer::Path::new(Box::new(cell()), Box::new(cell()));
            transfer::run(21, mptcp, vec![sat, cell], secs).receivers[0].mean_mbps
        };
        let blest = run(SchedulerKind::Blest);
        let leo = run(SchedulerKind::LeoAware);
        assert!(
            leo > blest,
            "LEO-aware {leo} Mbps should beat BLEST {blest} Mbps under periodic outages"
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
