//! Executable DNA: the searched congestion controller and scheduler,
//! plugged into `leo-transport` through its escape hatches.
//!
//! [`SearchedCc`] rides inside [`Cc::Custom`] and wraps a
//! statically-built base controller; [`SearchedScheduler`] implements
//! the [`MpScheduler`] plug-in trait. Both are pure functions of the
//! state they are handed plus their own per-connection history, so an
//! `Arc`-shared instance evaluated across sweep workers stays
//! thread-count-invariant.

use crate::dna::{cell, cwnd_share_bin, event_bin, rtt_bin, CcAction, CcDna, Dna, SchedDna};
use leo_transport::cc::{Cc, CongestionControl};
use leo_transport::plugin::{CcFactory, MpScheduler, SchedView, TransportPlugins};
use std::sync::Arc;

/// The searched congestion controller: a base controller transformed by
/// a [`CcDna`] rule table.
///
/// The base controller runs untouched underneath; the rule table decides
/// (a) how its window is scaled before the flow machinery sees it and
/// (b) which loss/timeout events reach it at all. The identity table
/// delegates everything bit-exactly, which the lockstep test pins.
///
/// It keeps the exactness contract of [`CongestionControl`] that lets the
/// flow core cache its window: `cwnd()` reads only the base controller
/// and the current cell's action, both changed only by the `&mut self`
/// events, and `set_increase_scale` only forwards a factor to the base.
#[derive(Debug)]
pub struct SearchedCc {
    dna: CcDna,
    inner: Cc,
    /// Smallest smoothed RTT seen — the ratio floor.
    min_srtt_s: f64,
    /// Most recent smoothed RTT sample.
    srtt_s: f64,
    last_loss_ms: Option<u64>,
    last_timeout_ms: Option<u64>,
    /// Cached action of the current cell, refreshed on every event.
    current: CcAction,
}

impl SearchedCc {
    /// A fresh controller for one subflow.
    pub fn new(dna: CcDna) -> Self {
        let inner = Cc::new(dna.base);
        Self {
            dna,
            inner,
            min_srtt_s: f64::INFINITY,
            srtt_s: f64::INFINITY,
            last_loss_ms: None,
            last_timeout_ms: None,
            current: CcAction::identity(),
        }
    }

    /// The action of the cell the connection sits in at `now_ms`.
    fn action_at(&self, now_ms: u64) -> CcAction {
        let r = rtt_bin(self.srtt_s / self.min_srtt_s);
        let c = crate::dna::cwnd_bin_cc(self.inner.cwnd(), self.inner.ssthresh());
        let e = event_bin(
            now_ms,
            self.last_loss_ms,
            self.last_timeout_ms,
            self.dna.loss_window_ms,
            self.dna.timeout_window_ms,
        );
        self.dna.actions[cell(r, c, e)]
    }

    fn refresh(&mut self, now_ms: u64) {
        self.current = self.action_at(now_ms);
    }
}

/// Sim seconds to the millisecond clock the rule tables bin on.
fn ms(now_s: f64) -> u64 {
    (now_s * 1000.0) as u64
}

impl CongestionControl for SearchedCc {
    fn cwnd(&self) -> f64 {
        // gain 1 / add 0 is bit-exact: `x·1+0 = x` for every finite
        // positive f64, and base windows never drop below 1 so the
        // clamp is inert on the identity path.
        (self.inner.cwnd() * self.current.gain + self.current.add).max(1.0)
    }

    fn ssthresh(&self) -> f64 {
        self.inner.ssthresh()
    }

    fn on_ack(&mut self, n: u64, now_s: f64, srtt_s: f64) {
        self.srtt_s = srtt_s;
        if srtt_s < self.min_srtt_s {
            self.min_srtt_s = srtt_s;
        }
        self.inner.on_ack(n, now_s, srtt_s);
        self.refresh(ms(now_s));
    }

    fn on_loss_event(&mut self, now_s: f64) {
        // The pass decision reads the cell *entered before* this event,
        // then the event is recorded and the cell re-read — so one loss
        // can move the connection into a cell whose rule absorbs the
        // losses that follow it.
        let now_ms = ms(now_s);
        if self.action_at(now_ms).pass_loss {
            self.inner.on_loss_event(now_s);
        }
        self.last_loss_ms = Some(now_ms);
        self.refresh(now_ms);
    }

    fn on_timeout(&mut self, now_s: f64) {
        let now_ms = ms(now_s);
        if self.action_at(now_ms).pass_timeout {
            self.inner.on_timeout(now_s);
        }
        self.last_timeout_ms = Some(now_ms);
        self.refresh(now_ms);
    }

    fn set_increase_scale(&mut self, scale: f64) {
        self.inner.set_increase_scale(scale);
    }
}

/// Builds one [`SearchedCc`] per subflow from a shared [`CcDna`].
#[derive(Debug)]
pub struct SearchedCcFactory {
    dna: CcDna,
}

impl SearchedCcFactory {
    /// A factory over `dna`.
    pub fn new(dna: CcDna) -> Self {
        Self { dna }
    }
}

impl CcFactory for SearchedCcFactory {
    fn build(&self) -> Box<dyn CongestionControl> {
        Box::new(SearchedCc::new(self.dna.clone()))
    }
}

/// The searched packet scheduler: scores every available subflow by its
/// rule-table weight, highest wins; ties break by lower SRTT then lower
/// index. The uniform table therefore reproduces the built-in minRTT
/// scheduler exactly, first-minimum tie-breaking included.
#[derive(Debug)]
pub struct SearchedScheduler {
    dna: SchedDna,
}

impl SearchedScheduler {
    /// A scheduler over `dna`.
    pub fn new(dna: SchedDna) -> Self {
        Self { dna }
    }
}

impl MpScheduler for SearchedScheduler {
    fn pick(&self, v: &SchedView) -> Option<usize> {
        // RTT floor over *all* subflows — the fastest path is the
        // reference even while its window is full.
        let mut floor = f64::INFINITY;
        for s in v.subflows {
            if s.srtt_s.total_cmp(&floor) == std::cmp::Ordering::Less {
                floor = s.srtt_s;
            }
        }
        let total_cwnd: f64 = v.subflows.iter().map(|s| s.cwnd).sum();

        let mut best: Option<(usize, f64, f64)> = None; // (index, weight, srtt)
        let mut m = v.avail_mask;
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            m &= m - 1;
            if i >= v.subflows.len() {
                break;
            }
            let s = &v.subflows[i];
            let r = rtt_bin(s.srtt_s / floor);
            let c = cwnd_share_bin(if total_cwnd > 0.0 {
                s.cwnd / total_cwnd
            } else {
                0.0
            });
            let e = event_bin(
                v.now_ms,
                s.last_loss_ms,
                s.last_timeout_ms,
                self.dna.loss_window_ms,
                self.dna.timeout_window_ms,
            );
            let w = self.dna.weights[cell(r, c, e)];
            let replace = match best {
                None => true,
                Some((_, bw, bs)) => match w.total_cmp(&bw) {
                    std::cmp::Ordering::Greater => true,
                    std::cmp::Ordering::Less => false,
                    std::cmp::Ordering::Equal => {
                        s.srtt_s.total_cmp(&bs) == std::cmp::Ordering::Less
                    }
                },
            };
            if replace {
                best = Some((i, w, s.srtt_s));
            }
        }
        best.map(|(i, _, _)| i)
    }
}

/// The [`TransportPlugins`] pair executing `dna` — what
/// `transport::sweep::run_transfer_with` takes.
pub fn plugins_for(dna: &Dna) -> TransportPlugins {
    TransportPlugins::default()
        .with_cc(Arc::new(SearchedCcFactory::new(dna.cc.clone())))
        .with_scheduler(Arc::new(SearchedScheduler::new(dna.sched.clone())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use leo_transport::cc::CcAlgorithm;
    use leo_transport::plugin::SubflowView;

    fn sf(srtt_s: f64, cwnd: f64) -> SubflowView {
        SubflowView {
            srtt_s,
            cwnd,
            has_space: true,
            last_loss_ms: None,
            last_timeout_ms: None,
        }
    }

    #[test]
    fn identity_cc_tracks_its_base_event_for_event() {
        let dna = CcDna::identity(CcAlgorithm::Cubic);
        let mut searched = SearchedCc::new(dna);
        let mut base = Cc::new(CcAlgorithm::Cubic);
        let mut t = 0.0;
        for i in 0..500u64 {
            t += 0.02;
            searched.on_ack(3, t, 0.04);
            base.on_ack(3, t, 0.04);
            if i % 97 == 0 {
                searched.on_loss_event(t);
                base.on_loss_event(t);
            }
            if i % 211 == 0 {
                searched.on_timeout(t);
                base.on_timeout(t);
            }
            assert_eq!(searched.cwnd().to_bits(), base.cwnd().to_bits(), "ack {i}");
            assert_eq!(searched.ssthresh().to_bits(), base.ssthresh().to_bits());
            assert_eq!(searched.in_slow_start(), base.in_slow_start());
        }
    }

    #[test]
    fn uniform_scheduler_is_min_rtt_with_first_minimum_ties() {
        let sched = SearchedScheduler::new(SchedDna::identity());
        let subflows = [sf(0.08, 10.0), sf(0.03, 10.0), sf(0.03, 10.0)];
        let view = |mask| SchedView {
            now_ms: 0,
            subflows: &subflows,
            avail_mask: mask,
            send_window_remaining: 100,
            recv_buffer_packets: 100,
        };
        assert_eq!(sched.pick(&view(0b111)), Some(1));
        assert_eq!(sched.pick(&view(0b101)), Some(2));
        assert_eq!(sched.pick(&view(0b001)), Some(0));
    }

    #[test]
    fn weighted_scheduler_parks_a_timed_out_subflow() {
        // Weights that punish the recent-timeout bin on every (rtt, cwnd)
        // combination: the fast-but-blacked-out path loses to the slow
        // survivor while the timeout window covers it, then wins again.
        let mut dna = SchedDna::identity();
        for r in 0..crate::dna::RTT_BINS {
            for c in 0..crate::dna::CWND_BINS {
                dna.weights[cell(r, c, 2)] = -1.0;
            }
        }
        dna.timeout_window_ms = 2_000;
        let sched = SearchedScheduler::new(dna);
        let mut fast = sf(0.02, 20.0);
        fast.last_timeout_ms = Some(10_000);
        let subflows = [fast, sf(0.09, 5.0)];
        let parked = SchedView {
            now_ms: 10_500,
            subflows: &subflows,
            avail_mask: 0b11,
            send_window_remaining: 100,
            recv_buffer_packets: 100,
        };
        assert_eq!(sched.pick(&parked), Some(1), "blackout path should park");
        let healed = SchedView {
            now_ms: 13_000,
            subflows: &subflows,
            avail_mask: 0b11,
            send_window_remaining: 100,
            recv_buffer_packets: 100,
        };
        assert_eq!(sched.pick(&healed), Some(0), "window over, fast path back");
    }
}
