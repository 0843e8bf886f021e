//! The shared reliable-flow state machine.
//!
//! Both single-path TCP and each MPTCP subflow run the same machinery:
//! a sliding window, SACK scoreboard, fast retransmit, recovery with
//! SACK-driven hole filling, and an RTO with exponential backoff. This
//! module owns that machine as a pure (network-free) state object; the
//! agents in [`crate::tcp`] and [`crate::mptcp`] translate its decisions
//! into packets.
//!
//! Sequence numbers count MSS-sized segments. Each transmitted segment
//! carries an opaque `aux` word (the MPTCP data sequence number; unused by
//! plain TCP) that the core hands back whenever it asks for a
//! retransmission.
//!
//! # Scoreboard
//!
//! Segments are allocated by [`FlowCore::alloc_seq`] and registered in
//! order, so the unacknowledged window `snd_una..snd_nxt` is *dense*: a
//! slab indexed by `seq - snd_una` represents it exactly, with the SACK
//! scoreboard as one flag per slot. The slab is a `VecDeque` ring of
//! per-segment slots — O(1) register/ACK-advance/SACK, no per-segment
//! allocation, and SACK loss detection that resumes from a per-epoch
//! cursor (amortised O(1) per ACK instead of a rescan of the recovery
//! window).
//!
//! The pre-rewrite `BTreeMap` + `BTreeSet` scoreboard behind boxed
//! congestion control survives as a test-only oracle: the crate's
//! `flowcore_equivalence` tests drive both in lockstep over randomized
//! loss/reorder/RTO patterns and require bit-identical outcomes.

use crate::cc::{Cc, CcAlgorithm};
use crate::rtt::RttEstimator;
use leo_netsim::SimTime;
use std::collections::VecDeque;

/// Per-segment slot in the dense window slab.
#[derive(Debug, Clone, Copy)]
struct TxSlot {
    aux: u64,
    rexmit_epoch: u64,
    rexmit: bool,
    sacked: bool,
}

/// What the core wants done after an input event.
///
/// Reusable: the `_into` entry points clear and refill it, so an agent
/// can hold one scratch instance and perform zero steady-state
/// allocation. The allocating [`FlowCore::handle_ack`] /
/// [`FlowCore::handle_timeout`] wrappers remain for convenience.
#[derive(Debug, Default)]
pub struct FlowActions {
    /// Segments to retransmit now: `(seq, aux)`.
    pub retransmits: Vec<(u64, u64)>,
    /// Aux words of segments presumed stranded after a timeout (MPTCP
    /// reinjects these on sibling subflows; TCP ignores them).
    pub stranded_aux: Vec<u64>,
    /// The cumulative ACK point advanced.
    pub advanced: bool,
    /// Number of newly acknowledged segments.
    pub newly_acked: u64,
}

impl FlowActions {
    /// Empties the action lists, retaining their capacity.
    pub fn clear(&mut self) {
        self.retransmits.clear();
        self.stranded_aux.clear();
        self.advanced = false;
        self.newly_acked = 0;
    }
}

/// SACK reordering threshold (RFC 6675's DupThresh).
const DUP_THRESH: usize = 3;

/// Dense-window slab scoreboard: slot `i` describes segment `base + i`.
///
/// SACKs for in-window segments set the slot flag; SACKs below `base`
/// (possible only from stale, reordered ACKs) are kept in a small sorted
/// side list so `sacked_len` matches the reference backend exactly —
/// the pre-rewrite `BTreeSet` retained such entries until the next
/// cumulative advance or RTO cleared them.
///
/// `pick_lost` resumes from a scan cursor kept per recovery epoch
/// instead of rescanning from `base` on every ACK. Invariant: every slot
/// in `base..scan_from` is SACKed or already retransmitted in
/// `scan_epoch`, and `sacked_below_scan` counts the SACKed ones.
#[derive(Debug, Default)]
struct SlabBoard {
    /// Equals the flow's `snd_una` at all times.
    base: u64,
    slots: VecDeque<TxSlot>,
    sacked_in_window: usize,
    /// Sorted, deduplicated SACKed sequences below `base`.
    stale_sacked: Vec<u64>,
    /// Where the next `pick_lost` of `scan_epoch` resumes (≥ `base`).
    scan_from: u64,
    /// SACKed slots in `base..scan_from`.
    sacked_below_scan: usize,
    /// Recovery epoch the cursor belongs to.
    scan_epoch: u64,
    /// Slots examined by `pick_lost` over the board's lifetime.
    scan_slots: u64,
}

/// The scoreboard: the slab, or in tests the oracle it is checked
/// against.
#[derive(Debug)]
enum Scoreboard {
    Slab(SlabBoard),
    #[cfg(test)]
    BTree(reference::BTreeBoard),
}

impl SlabBoard {
    #[inline]
    fn idx(&self, seq: u64) -> usize {
        (seq - self.base) as usize
    }

    /// Every SACK the scoreboard holds, the stale ones below `base`
    /// included (the reference backend's `sacked.len()`).
    #[inline]
    fn sacked_total(&self) -> usize {
        self.sacked_in_window + self.stale_sacked.len()
    }

    /// Restarts the scan at `base` (a new epoch, or SACK state lost).
    fn reset_scan(&mut self) {
        self.scan_from = self.base;
        self.sacked_below_scan = 0;
    }
}

impl Scoreboard {
    fn register(&mut self, seq: u64, aux: u64, rexmit: bool, epoch: u64) {
        match self {
            Scoreboard::Slab(b) => {
                debug_assert_eq!(
                    seq,
                    b.base + b.slots.len() as u64,
                    "slab flowcore requires in-order registration via alloc_seq"
                );
                b.slots.push_back(TxSlot {
                    aux,
                    rexmit_epoch: if rexmit { epoch } else { 0 },
                    rexmit,
                    sacked: false,
                });
            }
            #[cfg(test)]
            Scoreboard::BTree(b) => b.register(seq, aux, rexmit, epoch),
        }
    }

    #[inline]
    fn inflight_len(&self) -> usize {
        match self {
            Scoreboard::Slab(b) => b.slots.len(),
            #[cfg(test)]
            Scoreboard::BTree(b) => b.inflight_len(),
        }
    }

    #[inline]
    fn sacked_len(&self) -> usize {
        match self {
            Scoreboard::Slab(b) => b.sacked_total(),
            #[cfg(test)]
            Scoreboard::BTree(b) => b.sacked_len(),
        }
    }

    /// Records a SACK for `seq` (caller guarantees `seq < next_seq`).
    fn sack(&mut self, seq: u64) {
        match self {
            Scoreboard::Slab(b) => {
                if seq >= b.base {
                    let i = b.idx(seq);
                    if let Some(s) = b.slots.get_mut(i) {
                        if !s.sacked {
                            s.sacked = true;
                            b.sacked_in_window += 1;
                            b.sacked_below_scan += (seq < b.scan_from) as usize;
                        }
                    }
                } else if let Err(pos) = b.stale_sacked.binary_search(&seq) {
                    b.stale_sacked.insert(pos, seq);
                }
            }
            #[cfg(test)]
            Scoreboard::BTree(b) => b.sack(seq),
        }
    }

    /// True if `seq` is registered and was never retransmitted
    /// (Karn's algorithm: only clean transmissions yield RTT samples).
    fn is_clean(&self, seq: u64) -> bool {
        match self {
            Scoreboard::Slab(b) => {
                seq >= b.base && b.slots.get(b.idx(seq)).map(|s| !s.rexmit).unwrap_or(false)
            }
            #[cfg(test)]
            Scoreboard::BTree(b) => b.is_clean(seq),
        }
    }

    /// Drops all state below the new cumulative ACK point `ack`.
    fn advance_to(&mut self, ack: u64) {
        match self {
            Scoreboard::Slab(b) => {
                let n = ((ack - b.base) as usize).min(b.slots.len());
                let below_scan = (b.scan_from - b.base) as usize;
                for k in 0..n {
                    let s = b.slots.pop_front().expect("n bounded by len");
                    b.sacked_in_window -= s.sacked as usize;
                    if k < below_scan {
                        b.sacked_below_scan -= s.sacked as usize;
                    }
                }
                b.base = ack;
                b.scan_from = b.scan_from.max(ack);
                // Stale entries are all below the old base, hence below
                // `ack` — exactly what `sacked.split_off(&ack)` discards.
                b.stale_sacked.clear();
            }
            #[cfg(test)]
            Scoreboard::BTree(b) => b.advance_to(ack),
        }
    }

    /// True if the head segment has not yet been retransmitted in the
    /// current recovery epoch (NewReno partial-ACK test).
    fn head_fresh(&self, head: u64, epoch: u64) -> bool {
        match self {
            Scoreboard::Slab(b) => {
                head >= b.base
                    && b.slots
                        .get(b.idx(head))
                        .map(|s| s.rexmit_epoch < epoch)
                        .unwrap_or(false)
            }
            #[cfg(test)]
            Scoreboard::BTree(b) => b.head_fresh(head, epoch),
        }
    }

    /// RFC 6675-style loss detection over `una..high`: picks up to
    /// `budget` un-SACKed holes with `DUP_THRESH` SACKs above them that
    /// have not been retransmitted this epoch, marks them retransmitted,
    /// and appends them to `out`. Returns the number picked.
    fn pick_lost(
        &mut self,
        una: u64,
        high: u64,
        epoch: u64,
        budget: usize,
        out: &mut Vec<(u64, u64)>,
    ) -> usize {
        match self {
            Scoreboard::Slab(b) => {
                debug_assert_eq!(una, b.base, "the slab is based at snd_una");
                // Resume where this epoch's last scan stopped. Exact: the
                // slots below the cursor pick nothing, and `sacks_above`
                // only falls along the scan, so a full rescan either gets
                // past them (count ≥ DUP_THRESH at the cursor) or stops
                // at a hole having picked nothing — as this scan does.
                if b.scan_epoch != epoch {
                    b.scan_epoch = epoch;
                    b.reset_scan();
                }
                let mut sacks_above = b.sacked_total() - b.sacked_below_scan;
                let end = (high.saturating_sub(b.base) as usize).min(b.slots.len());
                let start = (b.scan_from - b.base) as usize;
                let mut i = start;
                let mut picked = 0;
                while i < end {
                    b.scan_slots += 1;
                    let s = &mut b.slots[i];
                    if s.sacked {
                        sacks_above -= 1;
                    } else if sacks_above < DUP_THRESH {
                        break; // holes beyond this lack SACK evidence
                    } else if s.rexmit_epoch < epoch {
                        s.rexmit = true;
                        s.rexmit_epoch = epoch;
                        out.push((b.base + i as u64, s.aux));
                        picked += 1;
                        if picked >= budget {
                            i += 1;
                            break;
                        }
                    }
                    i += 1;
                }
                b.scan_from = b.base + i as u64;
                b.sacked_below_scan = b.sacked_total() - sacks_above;
                picked
            }
            #[cfg(test)]
            Scoreboard::BTree(b) => b.pick_lost(una, high, epoch, budget, out),
        }
    }

    /// Marks `seq` retransmitted in `epoch` and returns its aux word, or
    /// `None` if it is not in flight.
    fn force_mark(&mut self, seq: u64, epoch: u64) -> Option<u64> {
        match self {
            Scoreboard::Slab(b) => {
                if seq < b.base {
                    return None;
                }
                let i = b.idx(seq);
                b.slots.get_mut(i).map(|s| {
                    s.rexmit = true;
                    s.rexmit_epoch = epoch;
                    s.aux
                })
            }
            #[cfg(test)]
            Scoreboard::BTree(b) => b.force_mark(seq, epoch),
        }
    }

    /// Appends the aux words of every un-SACKed in-flight segment, in
    /// sequence order.
    fn stranded_into(&self, out: &mut Vec<u64>) {
        match self {
            Scoreboard::Slab(b) => {
                out.extend(b.slots.iter().filter(|s| !s.sacked).map(|s| s.aux));
            }
            #[cfg(test)]
            Scoreboard::BTree(b) => b.stranded_into(out),
        }
    }

    /// Slots examined by loss detection so far (the slab's count; the
    /// oracle reports 0).
    fn scan_slots(&self) -> u64 {
        match self {
            Scoreboard::Slab(b) => b.scan_slots,
            #[cfg(test)]
            Scoreboard::BTree(_) => 0,
        }
    }

    /// Forgets all SACK state (RFC 2018: the receiver may renege on RTO).
    fn clear_sacked(&mut self) {
        match self {
            Scoreboard::Slab(b) => {
                if b.sacked_in_window > 0 {
                    for s in b.slots.iter_mut() {
                        s.sacked = false;
                    }
                    b.sacked_in_window = 0;
                }
                b.stale_sacked.clear();
                b.reset_scan();
            }
            #[cfg(test)]
            Scoreboard::BTree(b) => b.clear_sacked(),
        }
    }
}

/// The pre-rewrite `BTreeMap` + `BTreeSet` scoreboard, kept as the
/// oracle of the `flowcore_equivalence` lockstep tests. Each method is
/// the [`Scoreboard`] method of the same name.
#[cfg(test)]
mod reference {
    use super::DUP_THRESH;
    use std::collections::{BTreeMap, BTreeSet};

    /// Per-segment transmission record.
    #[derive(Debug, Clone, Copy)]
    struct TxInfo {
        aux: u64,
        rexmit: bool,
        /// Recovery epoch in which this segment was last retransmitted (so
        /// each hole is filled at most once per recovery).
        rexmit_epoch: u64,
    }

    #[derive(Debug, Default)]
    pub(super) struct BTreeBoard {
        inflight: BTreeMap<u64, TxInfo>,
        sacked: BTreeSet<u64>,
    }

    impl BTreeBoard {
        pub(super) fn register(&mut self, seq: u64, aux: u64, rexmit: bool, epoch: u64) {
            self.inflight.insert(
                seq,
                TxInfo {
                    aux,
                    rexmit,
                    rexmit_epoch: if rexmit { epoch } else { 0 },
                },
            );
        }

        pub(super) fn inflight_len(&self) -> usize {
            self.inflight.len()
        }

        pub(super) fn sacked_len(&self) -> usize {
            self.sacked.len()
        }

        pub(super) fn sack(&mut self, seq: u64) {
            self.sacked.insert(seq);
        }

        pub(super) fn is_clean(&self, seq: u64) -> bool {
            self.inflight.get(&seq).map(|i| !i.rexmit).unwrap_or(false)
        }

        pub(super) fn advance_to(&mut self, ack: u64) {
            self.inflight = self.inflight.split_off(&ack);
            self.sacked = self.sacked.split_off(&ack);
        }

        pub(super) fn head_fresh(&self, head: u64, epoch: u64) -> bool {
            self.inflight
                .get(&head)
                .map(|i| i.rexmit_epoch < epoch)
                .unwrap_or(false)
        }

        pub(super) fn pick_lost(
            &mut self,
            una: u64,
            high: u64,
            epoch: u64,
            budget: usize,
            out: &mut Vec<(u64, u64)>,
        ) -> usize {
            // Verbatim pre-rewrite shape, including the temporary
            // `picked` allocation the slab eliminates.
            let mut picked = Vec::new();
            {
                let sacked = &self.sacked;
                let mut sacks_above = sacked.len();
                for (&seq, info) in self.inflight.range(una..high) {
                    if sacked.contains(&seq) {
                        sacks_above -= 1;
                        continue;
                    }
                    if sacks_above < DUP_THRESH {
                        break;
                    }
                    if info.rexmit_epoch < epoch {
                        picked.push((seq, info.aux));
                        if picked.len() >= budget {
                            break;
                        }
                    }
                }
            }
            for &(seq, aux) in &picked {
                if let Some(i) = self.inflight.get_mut(&seq) {
                    i.rexmit = true;
                    i.rexmit_epoch = epoch;
                }
                out.push((seq, aux));
            }
            picked.len()
        }

        pub(super) fn force_mark(&mut self, seq: u64, epoch: u64) -> Option<u64> {
            self.inflight.get_mut(&seq).map(|i| {
                i.rexmit = true;
                i.rexmit_epoch = epoch;
                i.aux
            })
        }

        pub(super) fn stranded_into(&self, out: &mut Vec<u64>) {
            out.extend(
                self.inflight
                    .iter()
                    .filter(|(seq, _)| !self.sacked.contains(seq))
                    .map(|(_, i)| i.aux),
            );
        }

        pub(super) fn clear_sacked(&mut self) {
            self.sacked.clear();
        }
    }
}

/// The reliable-flow sender core.
///
/// The core owns its congestion controller and caches its window: every
/// controller call that can move the window goes through the core, which
/// re-reads `cc.cwnd()` right after it. Readers ([`Self::cwnd`],
/// [`Self::window_space`], the recovery budget, MPTCP's LIA and
/// schedulers) then read a field instead of dispatching through [`Cc`],
/// a virtual call under a plug-in controller. Exact by the contract on
/// [`crate::cc::CongestionControl`]; debug builds check it on every read.
#[derive(Debug)]
pub struct FlowCore {
    /// Congestion controller (statically dispatched; see [`Cc`]).
    cc: Cc,
    /// `cc.cwnd()`, refreshed after each `on_ack`, `on_loss_event` and
    /// `on_timeout` call.
    cwnd: f64,
    /// RTT estimator (RFC 6298).
    pub rtt: RttEstimator,
    next_seq: u64,
    snd_una: u64,
    board: Scoreboard,
    dup_acks: u32,
    /// `Some(high_seq)` while in fast recovery.
    recovery: Option<u64>,
    recovery_epoch: u64,
    /// Timer epoch for lazy cancellation.
    pub rto_epoch: u64,
    /// Current retransmission timeout.
    pub current_rto: SimTime,
    /// Total segments put on the wire.
    pub packets_sent: u64,
    /// Total retransmitted segments.
    pub retransmissions: u64,
    /// Total RTO events.
    pub timeouts: u64,
    /// Timeouts since the last cumulative-ACK advance.
    consec_timeouts: u32,
    /// ACKs handled, flushed to obs on drop.
    acks: u64,
}

impl FlowCore {
    /// A fresh flow with the given congestion controller.
    pub fn new(cc: CcAlgorithm) -> Self {
        Self::with_cc(Cc::new(cc))
    }

    /// A fresh flow on the pre-rewrite BTree scoreboard behind boxed
    /// congestion-control dispatch: the lockstep tests' oracle.
    #[cfg(test)]
    pub(crate) fn with_reference(cc: CcAlgorithm) -> Self {
        let mut core = Self::with_cc(Cc::reference(cc));
        core.board = Scoreboard::BTree(reference::BTreeBoard::default());
        core
    }

    /// A fresh flow around an already-built controller — the entry point
    /// for externally supplied congestion control
    /// ([`crate::plugin::CcFactory`] hands the sender a boxed controller
    /// which rides here as [`Cc::Custom`]).
    pub fn with_cc(cc: Cc) -> Self {
        Self {
            cwnd: cc.cwnd(),
            cc,
            rtt: RttEstimator::new(),
            next_seq: 0,
            snd_una: 0,
            board: Scoreboard::Slab(SlabBoard::default()),
            dup_acks: 0,
            recovery: None,
            recovery_epoch: 0,
            rto_epoch: 0,
            current_rto: SimTime::from_secs(1),
            packets_sent: 0,
            retransmissions: 0,
            timeouts: 0,
            consec_timeouts: 0,
            acks: 0,
        }
    }

    /// Next fresh sequence number (allocated by [`Self::alloc_seq`]).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Cumulative acknowledgement point.
    pub fn snd_una(&self) -> u64 {
        self.snd_una
    }

    /// Segments in the network, excluding those the scoreboard knows
    /// arrived (SACKed) — the RFC 6675 "pipe" estimate.
    ///
    /// `wrapping_sub` because a stale (reordered) ACK can briefly leave
    /// more SACK entries than in-flight segments; the pre-rewrite code
    /// computed the same wrapped value in release builds, and both
    /// backends must agree bit-for-bit even in that degenerate case.
    pub fn outstanding(&self) -> u64 {
        self.board
            .inflight_len()
            .wrapping_sub(self.board.sacked_len()) as u64
    }

    /// True while anything is unacknowledged.
    pub fn has_outstanding(&self) -> bool {
        self.snd_una < self.next_seq
    }

    /// Current congestion window, packets: the controller's window as of
    /// its last event, without a dispatch.
    #[inline]
    pub fn cwnd(&self) -> f64 {
        debug_assert_eq!(
            self.cwnd.to_bits(),
            self.cc.cwnd().to_bits(),
            "cached cwnd {} is stale: the controller reports {}",
            self.cwnd,
            self.cc.cwnd()
        );
        self.cwnd
    }

    /// Scales the controller's later window increases (MPTCP's LIA). The
    /// current window does not change, so the cache stays valid.
    pub fn set_increase_scale(&mut self, scale: f64) {
        self.cc.set_increase_scale(scale);
    }

    /// Room for one more segment under the congestion window.
    pub fn window_space(&self) -> bool {
        (self.outstanding() as f64) < self.cwnd()
    }

    /// Smoothed RTT (1 s before any sample, per RFC 6298).
    pub fn srtt_s(&self) -> f64 {
        self.rtt.srtt_or_default_s()
    }

    /// Allocates the next fresh sequence number. The caller must follow up
    /// with [`Self::register_transmit`] before the next core event — the
    /// slab backend relies on the window staying dense.
    pub fn alloc_seq(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    /// Records that `seq` (carrying `aux`) was put on the wire.
    pub fn register_transmit(&mut self, seq: u64, aux: u64, rexmit: bool) {
        self.board.register(seq, aux, rexmit, self.recovery_epoch);
        self.packets_sent += 1;
        if rexmit {
            self.retransmissions += 1;
        }
    }

    /// Retransmission rate over all transmissions (0.0 before any send).
    pub fn retransmission_rate(&self) -> f64 {
        if self.packets_sent == 0 {
            0.0
        } else {
            self.retransmissions as f64 / self.packets_sent as f64
        }
    }

    /// Processes an incoming cumulative ACK (`ack`), SACK hint (`sack` =
    /// sequence of the segment that triggered it), and echoed send
    /// timestamp (`echo_ns`, 0 = absent). Allocating convenience wrapper
    /// around [`Self::handle_ack_into`].
    pub fn handle_ack(&mut self, ack: u64, sack: u64, echo_ns: u64, now: SimTime) -> FlowActions {
        let mut out = FlowActions::default();
        self.handle_ack_into(ack, sack, echo_ns, now, &mut out);
        out
    }

    /// [`Self::handle_ack`] into a caller-owned scratch buffer (cleared
    /// first), so steady-state ACK processing performs no allocation.
    pub fn handle_ack_into(
        &mut self,
        ack: u64,
        sack: u64,
        echo_ns: u64,
        now: SimTime,
        out: &mut FlowActions,
    ) {
        out.clear();
        self.acks += 1;

        // Scoreboard: record out-of-order arrivals above the ACK point.
        if sack > ack && sack < self.next_seq {
            self.board.sack(sack);
        }

        if ack > self.snd_una {
            out.advanced = true;
            out.newly_acked = ack - self.snd_una;
            let acked_seq = ack - 1;
            let clean = self.board.is_clean(acked_seq);
            if clean && echo_ns > 0 {
                self.rtt
                    .on_sample(now.saturating_since(SimTime::from_nanos(echo_ns)));
            }
            self.snd_una = ack;
            self.board.advance_to(ack);
            self.dup_acks = 0;
            self.current_rto = self.rtt.rto();
            self.consec_timeouts = 0;

            let now_s = now.as_secs_f64();
            let srtt = self.srtt_s();
            match self.recovery {
                Some(high) if ack >= high => {
                    self.recovery = None;
                    self.cc_on_ack(out.newly_acked, now_s, srtt);
                }
                Some(_) => {
                    // Still recovering: fill more holes. Window growth is
                    // frozen in congestion avoidance (classic NewReno), but
                    // slow-start growth is allowed — after an RTO the window
                    // must rebuild from 1 even while old holes drain, or a
                    // deep overshoot turns into a one-packet-per-RTT crawl.
                    if self.cc.in_slow_start() {
                        self.cc_on_ack(out.newly_acked, now_s, srtt);
                    }
                    self.collect_retransmits(out);
                    if out.retransmits.is_empty() {
                        // NewReno-style partial-ACK fallback: the new head
                        // hole is retransmitted even without SACK evidence.
                        let head = self.snd_una;
                        if self.board.head_fresh(head, self.recovery_epoch) {
                            self.force_retransmit(head, out);
                        }
                    }
                }
                None => {
                    self.cc_on_ack(out.newly_acked, now_s, srtt);
                }
            }
        } else if ack == self.snd_una && self.has_outstanding() {
            self.dup_acks += 1;
            let enough_sacks = self.board.sacked_len() >= DUP_THRESH;
            if (self.dup_acks as usize >= DUP_THRESH || enough_sacks) && self.recovery.is_none() {
                // Enter fast recovery.
                self.cc.on_loss_event(now.as_secs_f64());
                self.cwnd = self.cc.cwnd();
                self.recovery = Some(self.next_seq);
                self.recovery_epoch += 1;
                self.collect_retransmits(out);
                if out.retransmits.is_empty() {
                    // Always at least retransmit the head hole.
                    self.force_retransmit(self.snd_una, out);
                }
            } else if self.recovery.is_some() {
                self.collect_retransmits(out);
            }
        }
    }

    /// SACK-driven loss detection: a hole is deemed lost once `DUP_THRESH`
    /// segments above it have been SACKed; each lost hole is retransmitted
    /// at most once per recovery epoch, bounded by the pipe estimate.
    fn collect_retransmits(&mut self, out: &mut FlowActions) {
        let Some(high) = self.recovery else {
            return;
        };
        let budget = (self.cwnd() - self.outstanding() as f64).max(1.0) as usize;
        let picked = self.board.pick_lost(
            self.snd_una,
            high,
            self.recovery_epoch,
            budget,
            &mut out.retransmits,
        );
        self.retransmissions += picked as u64;
        self.packets_sent += picked as u64;
    }

    /// Feeds an ACK to the controller and refreshes the cached window.
    fn cc_on_ack(&mut self, n: u64, now_s: f64, srtt_s: f64) {
        self.cc.on_ack(n, now_s, srtt_s);
        self.cwnd = self.cc.cwnd();
    }

    fn force_retransmit(&mut self, seq: u64, out: &mut FlowActions) {
        if let Some(aux) = self.board.force_mark(seq, self.recovery_epoch) {
            self.retransmissions += 1;
            self.packets_sent += 1;
            out.retransmits.push((seq, aux));
        }
    }

    /// Handles an RTO timer firing with `epoch`; returns `None` for stale
    /// timers or an idle flow. Allocating convenience wrapper around
    /// [`Self::handle_timeout_into`].
    pub fn handle_timeout(&mut self, epoch: u64, now: SimTime) -> Option<FlowActions> {
        let mut out = FlowActions::default();
        self.handle_timeout_into(epoch, now, &mut out)
            .then_some(out)
    }

    /// [`Self::handle_timeout`] into a caller-owned scratch buffer
    /// (cleared first); returns false for stale timers or an idle flow.
    pub fn handle_timeout_into(&mut self, epoch: u64, now: SimTime, out: &mut FlowActions) -> bool {
        out.clear();
        if epoch != self.rto_epoch || !self.has_outstanding() {
            return false;
        }
        self.timeouts += 1;
        self.consec_timeouts += 1;
        self.cc.on_timeout(now.as_secs_f64());
        self.cwnd = self.cc.cwnd();
        self.dup_acks = 0;
        self.recovery = None;
        self.recovery_epoch += 1;
        // Report un-SACKed in-flight aux words for possible reinjection
        // elsewhere — but only once the path looks genuinely dead (a second
        // consecutive timeout): a single RTO is often just a deep queue,
        // and duplicating a whole window elsewhere wastes the good path.
        if self.consec_timeouts >= 2 {
            self.board.stranded_into(&mut out.stranded_aux);
        }
        // RFC 2018: forget SACK state on RTO (the receiver may renege).
        self.board.clear_sacked();
        self.current_rto = RttEstimator::backoff(self.current_rto);
        self.force_retransmit(self.snd_una, out);
        true
    }

    /// Bumps the RTO epoch; the caller arms a timer for `current_rto` with
    /// the returned epoch as its id component.
    pub fn arm_rto(&mut self) -> u64 {
        self.rto_epoch += 1;
        self.rto_epoch
    }

    /// ACKs handled so far.
    pub fn acks(&self) -> u64 {
        self.acks
    }

    /// Scoreboard slots loss detection has examined so far: the per-ACK
    /// cost of SACK recovery.
    pub fn scan_slots(&self) -> u64 {
        self.board.scan_slots()
    }
}

/// Flushes the flow's counters once, when it ends: the ACK path only
/// bumps plain fields, so with obs off the counters cost no lock.
impl Drop for FlowCore {
    fn drop(&mut self) {
        if !leo_obs::enabled() {
            return;
        }
        leo_obs::incr("transport.flow.acks", self.acks);
        leo_obs::incr("transport.flow.scan_slots", self.scan_slots());
    }
}

/// What a coalesced physical timer pop means (see [`RtoCoalesce::fire`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RtoFire {
    /// The operative deadline has been reached: run the RTO logic now.
    Due,
    /// The pop was early and another pending physical timer already
    /// covers the deadline: do nothing.
    Early,
    /// The pop was early and nothing covers the deadline: arm a physical
    /// timer for this delay (the exact remainder to the deadline).
    Rearm(SimTime),
}

/// Fast-path RTO timer coalescing.
///
/// The simulator's timers are lazy-cancel: the pre-rewrite senders armed
/// a fresh physical timer on *every* cumulative advance (RFC 6298 §5
/// restart), leaving a stale pop in the event queue per ACK — about a
/// third of all events in a bulk transfer. This tracker keeps the
/// operative deadline in one place and maintains the invariant that some
/// pending physical timer fires at or before it. Most logical restarts
/// then arm nothing: the one pending timer pops early, and
/// [`RtoCoalesce::fire`] answers `Rearm` with the exact remainder, so the
/// chain reaches the true deadline with a handful of events per RTO
/// interval instead of one per ACK.
///
/// Outcome-equivalent to eager arming: the deadline is updated at the
/// same call sites with the same `now + rto` formula, and a due fire
/// happens at exactly that instant (the `flowcore_equivalence` tests
/// check this against the eager scheme).
#[derive(Debug, Default)]
pub struct RtoCoalesce {
    /// The instant the newest logical arm would fire.
    deadline: SimTime,
    /// Fire instants of physical timers not yet popped, earliest first
    /// (at most a couple in practice — a second entry appears only when
    /// the RTO estimate shrinks below an already-pending fire).
    pending: VecDeque<SimTime>,
}

impl RtoCoalesce {
    /// Logical (re-)arm at `now` for `rto`: updates the deadline and
    /// returns the delay to physically arm, or `None` when a pending
    /// timer already covers it.
    pub fn arm(&mut self, now: SimTime, rto: SimTime) -> Option<SimTime> {
        self.deadline = now + rto;
        self.cover(now)
    }

    fn cover(&mut self, now: SimTime) -> Option<SimTime> {
        match self.pending.front() {
            Some(&f) if f <= self.deadline => None,
            _ => {
                self.pending.push_front(self.deadline);
                Some(self.deadline.saturating_since(now))
            }
        }
    }

    /// Records a physical pop at `now` and classifies it.
    ///
    /// Due requires `now == deadline` *exactly*: the eager scheme's
    /// operative timer (the one whose epoch matches) fires at precisely
    /// the last-armed deadline, and a pop past an abandoned deadline is
    /// what the epoch check would have discarded as stale.
    pub fn fire(&mut self, now: SimTime) -> RtoFire {
        self.pending.pop_front();
        match now.cmp(&self.deadline) {
            std::cmp::Ordering::Equal => RtoFire::Due,
            // A leftover pop from a deadline the flow walked away from
            // (it went idle without re-arming); eager arming ignores the
            // stale epoch here.
            std::cmp::Ordering::Greater => RtoFire::Early,
            std::cmp::Ordering::Less => match self.cover(now) {
                Some(delay) => RtoFire::Rearm(delay),
                None => RtoFire::Early,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core() -> FlowCore {
        FlowCore::new(CcAlgorithm::Reno)
    }

    fn send_n(c: &mut FlowCore, n: u64) {
        for _ in 0..n {
            let s = c.alloc_seq();
            c.register_transmit(s, s * 10, false);
        }
    }

    #[test]
    fn cumulative_ack_advances_and_grows_window() {
        let mut c = core();
        send_n(&mut c, 10);
        let w0 = c.cwnd();
        let a = c.handle_ack(10, 9, 0, SimTime::from_millis(50));
        assert!(a.advanced);
        assert_eq!(a.newly_acked, 10);
        assert_eq!(c.snd_una(), 10);
        assert_eq!(c.outstanding(), 0);
        assert!(c.cwnd() > w0);
    }

    #[test]
    fn triple_dupack_enters_recovery_and_retransmits_head() {
        let mut c = core();
        send_n(&mut c, 10);
        // Packet 0 lost: ACKs for 1,2,3 arriving as dupacks of 0 with SACKs.
        for s in [1u64, 2, 3] {
            let a = c.handle_ack(0, s, 0, SimTime::from_millis(10));
            if s == 3 {
                assert_eq!(a.retransmits, vec![(0, 0)], "head hole retransmitted");
            } else {
                assert!(a.retransmits.is_empty());
            }
        }
        assert_eq!(c.retransmissions, 1);
    }

    #[test]
    fn sack_recovery_fills_many_holes_fast() {
        let mut c = core();
        send_n(&mut c, 100);
        // Segments 0..50 lost; 50..100 arrive and are SACKed.
        let mut total_rexmit = 0;
        for s in 50..100u64 {
            let a = c.handle_ack(0, s, 0, SimTime::from_millis(10));
            total_rexmit += a.retransmits.len();
        }
        // All 50 holes should be queued for retransmission within the
        // 50 dupacks (not one per RTT as cumulative-ACK NewReno would).
        assert!(
            total_rexmit >= 40,
            "only {total_rexmit} holes retransmitted during recovery"
        );
        // And each hole only once.
        assert!(total_rexmit <= 50);
    }

    #[test]
    fn deep_recovery_visits_o1_slots_per_ack() {
        // 10,000 segments in flight, every other one lost: each dup-ACK
        // SACKs one more segment and calls loss detection once. Resuming
        // from the scan cursor costs about two slots per call; a rescan
        // from `snd_una` would cost the whole recovered prefix, ~2.5·10^7
        // slots over this recovery.
        let mut c = core();
        send_n(&mut c, 10_000);
        let mut picked = 0;
        for s in (1..10_000u64).step_by(2) {
            let a = c.handle_ack(0, s, 0, SimTime::from_millis(10));
            picked += a.retransmits.len();
        }
        assert!(c.recovery.is_some());
        assert!(picked >= 4_990, "only {picked} holes retransmitted");
        assert_eq!(c.acks(), 5_000);
        assert!(
            c.scan_slots() <= 3 * c.acks(),
            "{} slots visited over {} ACKs",
            c.scan_slots(),
            c.acks()
        );
    }

    #[test]
    fn recovery_exits_on_full_ack() {
        let mut c = core();
        send_n(&mut c, 10);
        for s in [1u64, 2, 3] {
            c.handle_ack(0, s, 0, SimTime::from_millis(10));
        }
        assert!(c.recovery.is_some());
        let a = c.handle_ack(10, 9, 0, SimTime::from_millis(30));
        assert!(a.advanced);
        assert!(c.recovery.is_none());
    }

    #[test]
    fn timeout_strands_aux_and_backs_off() {
        let mut c = core();
        send_n(&mut c, 5);
        let e = c.arm_rto();
        let rto0 = c.current_rto;
        // First timeout: conservative — retransmit locally, no reinjection.
        let a = c.handle_timeout(e, SimTime::from_secs(1)).unwrap();
        assert!(a.stranded_aux.is_empty(), "no reinjection on first RTO");
        assert_eq!(a.retransmits.len(), 1);
        assert!(c.current_rto > rto0);
        assert_eq!(c.cwnd(), 1.0);
        // Second consecutive timeout: the path looks dead — everything
        // un-SACKed is offered for reinjection.
        let e2 = c.arm_rto();
        let a2 = c.handle_timeout(e2, SimTime::from_secs(3)).unwrap();
        assert_eq!(a2.stranded_aux, vec![0, 10, 20, 30, 40]);
    }

    #[test]
    fn stale_timeout_ignored() {
        let mut c = core();
        send_n(&mut c, 5);
        let e = c.arm_rto();
        let _ = c.arm_rto(); // newer epoch supersedes
        assert!(c.handle_timeout(e, SimTime::from_secs(1)).is_none());
    }

    #[test]
    fn timeout_on_idle_flow_ignored() {
        let mut c = core();
        send_n(&mut c, 3);
        c.handle_ack(3, 2, 0, SimTime::from_millis(40));
        let e = c.arm_rto();
        assert!(c.handle_timeout(e, SimTime::from_secs(2)).is_none());
    }

    #[test]
    fn karn_skips_retransmitted_samples() {
        let mut c = core();
        send_n(&mut c, 2);
        // Force a retransmit of seq 0, then ACK it with a timestamp.
        for s in [1u64, 1, 1] {
            c.handle_ack(0, s, 0, SimTime::from_millis(5));
        }
        assert!(c.retransmissions >= 1);
        let before = c.rtt.srtt();
        c.handle_ack(1, 0, 123_456, SimTime::from_millis(100));
        assert_eq!(c.rtt.srtt(), before, "no RTT sample from a rexmitted seq");
    }

    #[test]
    fn outstanding_excludes_sacked() {
        let mut c = core();
        send_n(&mut c, 10);
        assert_eq!(c.outstanding(), 10);
        c.handle_ack(0, 5, 0, SimTime::from_millis(5));
        c.handle_ack(0, 6, 0, SimTime::from_millis(5));
        assert_eq!(c.outstanding(), 8);
    }

    #[test]
    fn window_space_respects_cwnd() {
        let mut c = core();
        // Initial cwnd 10: the 11th packet must not fit.
        for _ in 0..10 {
            assert!(c.window_space());
            let s = c.alloc_seq();
            c.register_transmit(s, 0, false);
        }
        assert!(!c.window_space());
    }

    #[test]
    fn scratch_reuse_matches_allocating_api() {
        // The `_into` entry points must behave exactly like the
        // allocating wrappers even when the scratch carries stale data.
        let mut a = core();
        let mut b = core();
        send_n(&mut a, 10);
        send_n(&mut b, 10);
        let mut scratch = FlowActions {
            retransmits: vec![(99, 99)],
            stranded_aux: vec![7],
            advanced: true,
            newly_acked: 42,
        };
        for s in [1u64, 2, 3] {
            let fresh = a.handle_ack(0, s, 0, SimTime::from_millis(10));
            b.handle_ack_into(0, s, 0, SimTime::from_millis(10), &mut scratch);
            assert_eq!(fresh.retransmits, scratch.retransmits);
            assert_eq!(fresh.stranded_aux, scratch.stranded_aux);
            assert_eq!(fresh.advanced, scratch.advanced);
            assert_eq!(fresh.newly_acked, scratch.newly_acked);
        }
    }

    #[test]
    fn retransmission_rate_zero_before_any_send() {
        // Regression (ISSUE 8 satellite): a fresh flow must report 0.0,
        // not NaN, before any packet is sent.
        let c = core();
        assert_eq!(c.packets_sent, 0);
        let r = c.retransmission_rate();
        assert!(!r.is_nan(), "retransmission rate NaN on an idle flow");
        assert_eq!(r, 0.0);
    }

    #[test]
    fn stale_sack_below_una_matches_reference() {
        // A reordered ACK can SACK a sequence below snd_una; both
        // backends must account for it identically (the reference keeps
        // it in the scoreboard until the next cumulative advance).
        let mut fast = FlowCore::new(CcAlgorithm::Reno);
        let mut rf = FlowCore::with_reference(CcAlgorithm::Reno);
        for c in [&mut fast, &mut rf] {
            send_n(c, 10);
            c.handle_ack(5, 0, 0, SimTime::from_millis(10)); // advance to 5
            c.handle_ack(2, 3, 0, SimTime::from_millis(11)); // stale: sack 3 < una 5
        }
        assert_eq!(fast.outstanding(), rf.outstanding());
        assert_eq!(fast.snd_una(), rf.snd_una());
        // Next cumulative advance clears the stale entry in both.
        let fa = fast.handle_ack(8, 0, 0, SimTime::from_millis(20));
        let ra = rf.handle_ack(8, 0, 0, SimTime::from_millis(20));
        assert_eq!(fa.newly_acked, ra.newly_acked);
        assert_eq!(fast.outstanding(), rf.outstanding());
    }
}
