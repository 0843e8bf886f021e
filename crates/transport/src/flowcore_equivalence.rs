//! Flow-core equivalence proptests: the slab/bitmap fast path must be
//! *bit-identical* to the pre-rewrite BTree reference across randomized
//! loss, reordering, and RTO histories. The reference exists only in
//! test builds ([`FlowCore::with_reference`]). The conformance goldens
//! ride on this equivalence — the transport rewrite swapped the SACK
//! scoreboard, the congestion-control dispatch, and the RTO timer
//! discipline out from under every figure, and any behavioral divergence
//! would silently change RNG-dependent results everywhere.
//!
//! Three properties:
//!
//! * [`slab_core_matches_btree_core`] drives a [`FlowCore`] pair (slab vs
//!   BTree backend, inlined vs boxed congestion control) in lockstep
//!   through the same randomized send/deliver/lose/reorder/timeout
//!   history and asserts every externally visible piece of state matches
//!   after every step — emitted actions, sequence points, counters, the
//!   RTO, and the congestion window to the last mantissa bit.
//! * [`deep_recoveries_match_btree_core`] does the same through long SACK
//!   recoveries: windows of up to 4,096 segments, handover-style loss
//!   runs, retransmissions lost again (their siblings then SACK below
//!   the slab's resume cursor), cumulative ACKs jumping past it, RTOs in
//!   mid-recovery and fresh epochs.
//! * [`coalesced_rto_fires_at_eager_deadlines`] checks the fast path's
//!   timer coalescing ([`RtoCoalesce`]) against the eager
//!   one-timer-per-restart scheme it replaces: over random arm/backoff
//!   schedules, the set of instants classified [`RtoFire::Due`] must
//!   equal the set of instants where an eager lazy-cancel timer fires
//!   with a matching epoch.

use crate::flowcore::{FlowActions, FlowCore, RtoCoalesce, RtoFire};
use crate::CcAlgorithm;
use leo_netsim::SimTime;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// One step of a randomized flow history.
#[derive(Debug, Clone)]
enum Op {
    /// Offer up to `n` fresh segments (window permitting).
    Send(u8),
    /// Pick the `k`-th in-flight copy; either lose it or deliver it to
    /// the receiver model and feed the resulting ACK to both cores.
    Deliver { k: u8, lose: bool, delay_us: u16 },
    /// Arm the RTO on both cores, jump past it, and fire the timeout.
    Timeout,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u32..10, 0u8..=255, 0u32..5, 200u16..20_000).prop_map(|(sel, k, lose, d)| match sel {
        // 3:6:1 send : deliver : timeout. One in five deliveries is a
        // loss, so SACK holes, dup-ACK runs, and recovery are routine.
        0..=2 => Op::Send(k % 32),
        3..=8 => Op::Deliver {
            k,
            lose: lose == 0,
            delay_us: d,
        },
        _ => Op::Timeout,
    })
}

/// In-order receiver model shared by both cores (mirrors `TcpReceiver`).
#[derive(Default)]
struct RxModel {
    rcv_nxt: u64,
    ooo: BTreeSet<u64>,
}

impl RxModel {
    /// Returns the cumulative ACK after absorbing `seq`.
    fn absorb(&mut self, seq: u64) -> u64 {
        if seq == self.rcv_nxt {
            self.rcv_nxt += 1;
            while self.ooo.remove(&self.rcv_nxt) {
                self.rcv_nxt += 1;
            }
        } else if seq > self.rcv_nxt {
            self.ooo.insert(seq);
        }
        self.rcv_nxt
    }
}

/// Asserts every externally visible field of the two cores matches.
fn assert_cores_match(fast: &FlowCore, reference: &FlowCore, step: usize) {
    assert_eq!(fast.next_seq(), reference.next_seq(), "next_seq @ {step}");
    assert_eq!(fast.snd_una(), reference.snd_una(), "snd_una @ {step}");
    assert_eq!(
        fast.outstanding(),
        reference.outstanding(),
        "outstanding @ {step}"
    );
    assert_eq!(
        fast.window_space(),
        reference.window_space(),
        "window_space @ {step}"
    );
    assert_eq!(
        fast.packets_sent, reference.packets_sent,
        "packets_sent @ {step}"
    );
    assert_eq!(
        fast.retransmissions, reference.retransmissions,
        "retransmissions @ {step}"
    );
    assert_eq!(fast.timeouts, reference.timeouts, "timeouts @ {step}");
    assert_eq!(fast.rto_epoch, reference.rto_epoch, "rto_epoch @ {step}");
    assert_eq!(
        fast.current_rto, reference.current_rto,
        "current_rto @ {step}"
    );
    // The congestion window must agree to the last mantissa bit: the
    // goldens digest goodput series that integrate cwnd over time.
    assert_eq!(
        fast.cwnd().to_bits(),
        reference.cwnd().to_bits(),
        "cwnd bits @ {step}: fast {} vs reference {}",
        fast.cwnd(),
        reference.cwnd()
    );
    assert_eq!(
        fast.retransmission_rate().to_bits(),
        reference.retransmission_rate().to_bits(),
        "retransmission_rate bits @ {step}"
    );
}

/// A slab core and a BTree core fed the same inputs, with the shared
/// receiver model and the in-flight copies `(seq, sent_at)` — shared,
/// since both cores are asserted to emit identical sequences.
struct Lockstep {
    fast: FlowCore,
    reference: FlowCore,
    fa: FlowActions,
    ra: FlowActions,
    now: SimTime,
    rx: RxModel,
    flight: Vec<(u64, SimTime)>,
}

impl Lockstep {
    fn new(cc: CcAlgorithm) -> Self {
        Self {
            fast: FlowCore::new(cc),
            reference: FlowCore::with_reference(cc),
            fa: FlowActions::default(),
            ra: FlowActions::default(),
            now: SimTime::ZERO,
            rx: RxModel::default(),
            flight: Vec::new(),
        }
    }

    /// Puts one fresh segment on the wire on both cores.
    fn send(&mut self, step: usize) {
        let sf = self.fast.alloc_seq();
        let sr = self.reference.alloc_seq();
        assert_eq!(sf, sr, "alloc_seq @ {step}");
        self.fast.register_transmit(sf, sf, false);
        self.reference.register_transmit(sr, sr, false);
        self.flight.push((sf, self.now));
    }

    /// Removes the in-flight copy at `i` (arbitrary index = arbitrary
    /// reordering); unless it is lost, delivers it after `delay_us` and
    /// feeds the resulting ACK to both cores.
    fn deliver(&mut self, i: usize, lose: bool, delay_us: u64, step: usize) {
        let (seq, sent_at) = self.flight.remove(i);
        if lose {
            return;
        }
        self.now += SimTime::from_nanos(delay_us * 1_000);
        let ack = self.rx.absorb(seq);
        let (now, echo) = (self.now, sent_at.as_nanos());
        self.fast.handle_ack_into(ack, seq, echo, now, &mut self.fa);
        self.reference
            .handle_ack_into(ack, seq, echo, now, &mut self.ra);
        let (fa, ra) = (&self.fa, &self.ra);
        assert_eq!(fa.retransmits, ra.retransmits, "retransmits @ {step}");
        assert_eq!(fa.stranded_aux, ra.stranded_aux, "stranded @ {step}");
        assert_eq!(fa.advanced, ra.advanced, "advanced @ {step}");
        assert_eq!(fa.newly_acked, ra.newly_acked, "newly_acked @ {step}");
        for &(rseq, _aux) in &fa.retransmits {
            self.flight.push((rseq, now));
        }
    }

    /// Arms the RTO on both cores, jumps past it, and fires the timeout.
    fn timeout(&mut self, step: usize) {
        let ef = self.fast.arm_rto();
        let er = self.reference.arm_rto();
        assert_eq!(ef, er, "arm epoch @ {step}");
        self.now += self.fast.current_rto + SimTime::from_nanos(1);
        let hf = self.fast.handle_timeout_into(ef, self.now, &mut self.fa);
        let hr = self
            .reference
            .handle_timeout_into(er, self.now, &mut self.ra);
        assert_eq!(hf, hr, "timeout handled @ {step}");
        if hf {
            let (fa, ra) = (&self.fa, &self.ra);
            assert_eq!(fa.retransmits, ra.retransmits, "rto retransmits @ {step}");
            assert_eq!(fa.stranded_aux, ra.stranded_aux, "rto stranded @ {step}");
            for &(rseq, _aux) in &fa.retransmits {
                self.flight.push((rseq, self.now));
            }
        }
    }

    fn assert_match(&self, step: usize) {
        assert_cores_match(&self.fast, &self.reference, step);
    }
}

/// Drives both backends through one randomized history.
fn run_lockstep(cc: CcAlgorithm, ops: &[Op]) {
    let mut ls = Lockstep::new(cc);
    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Send(n) => {
                for _ in 0..n {
                    if !(ls.fast.window_space() && ls.fast.outstanding() < 512) {
                        break;
                    }
                    ls.send(step);
                }
            }
            Op::Deliver { k, lose, delay_us } => {
                if ls.flight.is_empty() {
                    continue;
                }
                let i = k as usize % ls.flight.len();
                ls.deliver(i, lose, delay_us as u64, step);
            }
            Op::Timeout => ls.timeout(step),
        }
        ls.assert_match(step);
    }
}

/// Largest window the deep-recovery histories put in flight.
const DEEP_WINDOW: u64 = 4_096;

/// One step of a deep-recovery history. Sends ignore the congestion
/// window (a burst larger than cwnd is still a valid input), so windows
/// reach [`DEEP_WINDOW`] within a few steps.
#[derive(Debug, Clone)]
enum DeepOp {
    /// Put up to `n` fresh segments in flight, capped at `DEEP_WINDOW`
    /// outstanding.
    Burst(u16),
    /// Lose `len` consecutive in-flight copies from the `at`-th on: an
    /// outage that strands part of a window.
    LoseRun { at: u16, len: u16 },
    /// Deliver up to `n` copies from the front of the flight, each
    /// picked among the first `skew + 1` (local reordering), losing one
    /// in `loss_one_in` (never, for 0).
    DeliverRun { n: u16, skew: u8, loss_one_in: u8 },
    /// Arm the RTO on both cores, jump past it, and fire the timeout.
    Timeout,
}

fn deep_op_strategy() -> impl Strategy<Value = DeepOp> {
    (0u32..20, 0u32..4_096, 0u32..4_096, 0u8..6, 0u8..12).prop_map(|(sel, a, b, skew, loss)| {
        match sel {
            0..=4 => DeepOp::Burst(a as u16),
            5..=7 => DeepOp::LoseRun {
                at: a as u16,
                // Mostly short runs, sometimes most of a window.
                len: if b % 4 == 0 {
                    b as u16
                } else {
                    (b % 64) as u16
                },
            },
            8..=18 => DeepOp::DeliverRun {
                n: b as u16,
                skew,
                loss_one_in: if loss < 4 { 0 } else { loss },
            },
            _ => DeepOp::Timeout,
        }
    })
}

/// Drives both backends through one deep-recovery history; returns the
/// pair for further checks.
fn run_deep_lockstep(cc: CcAlgorithm, ops: &[DeepOp]) -> Lockstep {
    let mut ls = Lockstep::new(cc);
    // Deterministic per-history choices (skew offsets, single losses).
    let mut lcg = ops.len() as u64 ^ 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        lcg = lcg
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        lcg >> 33
    };
    let mut step = 0;
    for op in ops {
        match *op {
            DeepOp::Burst(n) => {
                for _ in 0..n {
                    if ls.fast.next_seq() - ls.fast.snd_una() >= DEEP_WINDOW {
                        break;
                    }
                    ls.send(step);
                }
                ls.assert_match(step);
                step += 1;
            }
            DeepOp::LoseRun { at, len } => {
                if ls.flight.is_empty() {
                    continue;
                }
                let from = at as usize % ls.flight.len();
                let to = (from + len as usize).min(ls.flight.len());
                ls.flight.drain(from..to);
            }
            DeepOp::DeliverRun {
                n,
                skew,
                loss_one_in,
            } => {
                for _ in 0..n {
                    if ls.flight.is_empty() {
                        break;
                    }
                    let reach = (skew as usize + 1).min(ls.flight.len());
                    let i = next() as usize % reach;
                    let lose = loss_one_in > 0 && next() % loss_one_in as u64 == 0;
                    ls.deliver(i, lose, 50 + next() % 400, step);
                    ls.assert_match(step);
                    step += 1;
                }
            }
            DeepOp::Timeout => {
                ls.timeout(step);
                ls.assert_match(step);
                step += 1;
            }
        }
    }
    // Drain: deliver everything still in flight, then let RTOs repair
    // what was lost until the flow is idle (bounded, as a timeout always
    // retransmits the head).
    for _ in 0..64 {
        while !ls.flight.is_empty() {
            ls.deliver(0, false, 100, step);
            ls.assert_match(step);
            step += 1;
        }
        if !ls.fast.has_outstanding() {
            break;
        }
        ls.timeout(step);
        ls.assert_match(step);
        step += 1;
    }
    ls
}

#[test]
fn deep_recovery_script_matches_btree_core() {
    // One scripted history that takes every path the proptest below
    // samples: a full 4,096-segment window, a loss run that strands its
    // first 1,500 segments, SACK-driven recovery, the first retransmitted
    // holes lost again (later ones SACK below the slab's cursor), an RTO
    // in mid-recovery, and a second epoch after a fresh loss run.
    for cc in [CcAlgorithm::Reno, CcAlgorithm::Cubic, CcAlgorithm::BbrLite] {
        let ls = run_deep_lockstep(
            cc,
            &[
                DeepOp::Burst(4_096),
                DeepOp::LoseRun { at: 0, len: 1_500 },
                DeepOp::DeliverRun {
                    n: 2_596,
                    skew: 2,
                    loss_one_in: 0,
                },
                DeepOp::LoseRun { at: 0, len: 40 },
                DeepOp::DeliverRun {
                    n: 600,
                    skew: 0,
                    loss_one_in: 0,
                },
                DeepOp::Timeout,
                DeepOp::DeliverRun {
                    n: 4_096,
                    skew: 3,
                    loss_one_in: 9,
                },
                DeepOp::Burst(4_096),
                DeepOp::LoseRun { at: 100, len: 700 },
                DeepOp::DeliverRun {
                    n: 4_096,
                    skew: 1,
                    loss_one_in: 0,
                },
            ],
        );
        // The history did recover deeply, and the slab core resumed its
        // scans instead of rescanning (a few slots per ACK, not ~10^3).
        assert!(ls.fast.retransmissions >= 2_200, "{cc:?}");
        assert!(ls.fast.timeouts >= 1, "{cc:?}");
        assert!(!ls.fast.has_outstanding(), "{cc:?}");
        assert!(ls.fast.scan_slots() <= 4 * ls.fast.acks(), "{cc:?}");
    }
}

proptest! {
    // The BTree oracle rescans its recovery window on every ACK, so one
    // deep history costs it up to ~10^7 slot visits: fewer cases.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn deep_recoveries_match_btree_core(
        ops in prop::collection::vec(deep_op_strategy(), 1..24),
        algo in 0u32..3,
    ) {
        let cc = match algo {
            0 => CcAlgorithm::Reno,
            1 => CcAlgorithm::Cubic,
            _ => CcAlgorithm::BbrLite,
        };
        run_deep_lockstep(cc, &ops);
    }
}

proptest! {
    #[test]
    fn slab_core_matches_btree_core(
        ops in prop::collection::vec(op_strategy(), 1..400),
        algo in 0u32..3,
    ) {
        let cc = match algo {
            0 => CcAlgorithm::Reno,
            1 => CcAlgorithm::Cubic,
            _ => CcAlgorithm::BbrLite,
        };
        run_lockstep(cc, &ops);
    }

    #[test]
    fn coalesced_rto_fires_at_eager_deadlines(
        arms in prop::collection::vec((1u64..2_000_000, 1u64..5_000_000), 1..60),
    ) {
        // Eager scheme: one physical timer per logical arm, identified by
        // epoch; a fire is genuine iff its epoch is the newest. Coalesced
        // scheme: `RtoCoalesce` decides. Both process the same logical
        // arm schedule; after the last arm both drain their queues, and
        // the genuine-fire instants must be identical. (A genuine fire
        // re-arms with a doubled RTO in both schemes, mirroring
        // `handle_timeout` → backoff → `arm_rto` in the senders.)
        const REARM_CAP: usize = 4;

        // (fire_time, epoch) — BTreeSet pops in time order, epoch-ordered
        // on ties, matching the simulator's deterministic queue.
        let mut eager: BTreeSet<(SimTime, u64)> = BTreeSet::new();
        let mut eager_epoch = 0u64;
        let mut coal = RtoCoalesce::default();
        let mut coal_timers: BTreeSet<(SimTime, u64)> = BTreeSet::new();
        let mut coal_seq = 0u64;
        let mut genuine_eager: Vec<SimTime> = Vec::new();
        let mut genuine_coal: Vec<SimTime> = Vec::new();

        let arm_both = |t: SimTime,
                            rto: SimTime,
                            eager: &mut BTreeSet<(SimTime, u64)>,
                            eager_epoch: &mut u64,
                            coal: &mut RtoCoalesce,
                            coal_timers: &mut BTreeSet<(SimTime, u64)>,
                            coal_seq: &mut u64| {
            *eager_epoch += 1;
            eager.insert((t + rto, *eager_epoch));
            if let Some(delay) = coal.arm(t, rto) {
                *coal_seq += 1;
                coal_timers.insert((t + delay, *coal_seq));
            }
        };

        // Interleave arms with any fires due before them, then drain.
        let mut now_ns = 0u64;
        let mut schedule: Vec<(SimTime, SimTime)> = Vec::new();
        for &(dt, rto) in &arms {
            now_ns += dt;
            schedule.push((SimTime::from_nanos(now_ns), SimTime::from_nanos(rto)));
        }
        let horizon = SimTime::from_nanos(u64::MAX);

        let mut arm_iter = schedule.into_iter().peekable();
        let mut eager_rto = SimTime::ZERO;
        let mut coal_rto = SimTime::ZERO;
        loop {
            let next_arm = arm_iter.peek().map(|&(t, _)| t).unwrap_or(horizon);
            let next_eager = eager.iter().next().copied();
            let next_coal = coal_timers.iter().next().copied();
            let next_fire = [next_eager.map(|(t, _)| t), next_coal.map(|(t, _)| t)]
                .into_iter()
                .flatten()
                .min()
                .unwrap_or(horizon);

            if next_arm <= next_fire {
                let Some((t, rto)) = arm_iter.next() else { break };
                eager_rto = rto;
                coal_rto = rto;
                arm_both(
                    t, rto, &mut eager, &mut eager_epoch, &mut coal, &mut coal_timers,
                    &mut coal_seq,
                );
                continue;
            }

            // Process every fire at this instant, in each scheme's own
            // queue order, re-arming on genuine fires (up to the cap so
            // exponential backoff terminates the drain).
            if let Some((t, e)) = next_eager {
                if t == next_fire {
                    eager.remove(&(t, e));
                    if e == eager_epoch {
                        genuine_eager.push(t);
                        if genuine_eager.len() < REARM_CAP {
                            eager_rto = eager_rto + eager_rto;
                            eager_epoch += 1;
                            eager.insert((t + eager_rto, eager_epoch));
                        }
                    }
                }
            }
            if let Some((t, s)) = next_coal {
                if t == next_fire {
                    coal_timers.remove(&(t, s));
                    match coal.fire(t) {
                        RtoFire::Due => {
                            genuine_coal.push(t);
                            if genuine_coal.len() < REARM_CAP {
                                coal_rto = coal_rto + coal_rto;
                                if let Some(delay) = coal.arm(t, coal_rto) {
                                    coal_seq += 1;
                                    coal_timers.insert((t + delay, coal_seq));
                                }
                            }
                        }
                        RtoFire::Early => {}
                        RtoFire::Rearm(delay) => {
                            coal_seq += 1;
                            coal_timers.insert((t + delay, coal_seq));
                        }
                    }
                }
            }
        }
        // The loop drains both queues (stale eager timers pop harmlessly;
        // leftover coalesced pops classify Early) before breaking.
        prop_assert_eq!(genuine_eager, genuine_coal);
    }
}
