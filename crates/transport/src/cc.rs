//! Pluggable congestion control: Reno, CUBIC and BBR-lite.
//!
//! Windows are measured in packets (MSS units). The controllers are
//! event-driven: the TCP machinery reports ACKed packets, loss events
//! (fast retransmit), and timeouts; the controller answers with the
//! current congestion window.

use serde::{Deserialize, Serialize};

/// Which congestion controller a connection uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CcAlgorithm {
    Reno,
    Cubic,
    /// A BBR-style model-based controller: paces to a windowed-max
    /// delivery-rate estimate instead of reacting to individual losses —
    /// the "congestion control tailored for such characteristics" the
    /// paper calls for over Starlink's bursty-loss channel.
    BbrLite,
}

impl CcAlgorithm {
    /// Instantiates the controller.
    pub fn build(&self) -> Box<dyn CongestionControl> {
        match self {
            CcAlgorithm::Reno => Box::new(Reno::new()),
            CcAlgorithm::Cubic => Box::new(Cubic::new()),
            CcAlgorithm::BbrLite => Box::new(BbrLite::new()),
        }
    }
}

/// The congestion-control interface.
///
/// # Exactness contract
///
/// [`crate::flowcore::FlowCore`] caches the window instead of asking the
/// controller on every read, so an implementation must keep two rules:
///
/// * `cwnd()` is a pure function of the controller's state, and that
///   state changes only through `&mut self` methods (no interior
///   mutability). The core refreshes its cached window right after each
///   `on_ack`, `on_loss_event` and `on_timeout` call it makes.
/// * `set_increase_scale` scales later increases and never changes the
///   current window, so it needs no refresh.
///
/// Reno, CUBIC and BBR-lite keep both: their `set_increase_scale` only
/// stores a factor (or ignores it). Debug builds check the cache against
/// `cwnd()` on every read.
pub trait CongestionControl: std::fmt::Debug + Send {
    /// Current congestion window in packets (≥ 1).
    fn cwnd(&self) -> f64;

    /// Slow-start threshold in packets.
    fn ssthresh(&self) -> f64;

    /// `n` new packets were cumulatively ACKed at time `now_s`, with the
    /// connection's smoothed RTT `srtt_s`.
    fn on_ack(&mut self, n: u64, now_s: f64, srtt_s: f64);

    /// A loss event was detected by fast retransmit (triple-dupack) at
    /// `now_s`.
    fn on_loss_event(&mut self, now_s: f64);

    /// The retransmission timer fired.
    fn on_timeout(&mut self, now_s: f64);

    /// True while in slow start.
    fn in_slow_start(&self) -> bool {
        self.cwnd() < self.ssthresh()
    }

    /// Externally scale the additive-increase aggressiveness; used by
    /// MPTCP's LIA coupling (1.0 = uncoupled). Must not change the
    /// current window (see the exactness contract above).
    fn set_increase_scale(&mut self, scale: f64);
}

/// Statically dispatched congestion-control state.
///
/// The flow hot path calls the controller once per ACKed segment, so a
/// `Box<dyn CongestionControl>` pays an indirect call (and defeats
/// inlining) on every event. This enum holds the built-in controllers
/// inline and dispatches with a match the optimizer can flatten; external
/// implementations keep full generality behind the [`Cc::Custom`]
/// variant. A built-in controller boxed into `Custom` runs the exact
/// same code, so outcomes are bit-identical either way.
#[derive(Debug)]
pub enum Cc {
    /// Inline TCP Reno.
    Reno(Reno),
    /// Inline CUBIC.
    Cubic(Cubic),
    /// Inline BBR-lite.
    BbrLite(BbrLite),
    /// Trait-object fallback for external controllers.
    Custom(Box<dyn CongestionControl>),
}

impl Cc {
    /// Builds the statically dispatched controller for `algo`.
    pub fn new(algo: CcAlgorithm) -> Self {
        match algo {
            CcAlgorithm::Reno => Cc::Reno(Reno::new()),
            CcAlgorithm::Cubic => Cc::Cubic(Cubic::new()),
            CcAlgorithm::BbrLite => Cc::BbrLite(BbrLite::new()),
        }
    }

    /// Builds the same controller behind a trait object: the pre-rewrite
    /// dispatch, for the flow-core lockstep oracle.
    #[cfg(test)]
    pub(crate) fn reference(algo: CcAlgorithm) -> Self {
        Cc::Custom(algo.build())
    }

    /// Wraps an external controller implementation.
    pub fn custom(cc: Box<dyn CongestionControl>) -> Self {
        Cc::Custom(cc)
    }

    /// Current congestion window in packets (≥ 1).
    #[inline]
    pub fn cwnd(&self) -> f64 {
        match self {
            Cc::Reno(c) => c.cwnd(),
            Cc::Cubic(c) => c.cwnd(),
            Cc::BbrLite(c) => c.cwnd(),
            Cc::Custom(c) => c.cwnd(),
        }
    }

    /// Slow-start threshold in packets.
    #[inline]
    pub fn ssthresh(&self) -> f64 {
        match self {
            Cc::Reno(c) => c.ssthresh(),
            Cc::Cubic(c) => c.ssthresh(),
            Cc::BbrLite(c) => c.ssthresh(),
            Cc::Custom(c) => c.ssthresh(),
        }
    }

    /// See [`CongestionControl::on_ack`].
    #[inline]
    pub fn on_ack(&mut self, n: u64, now_s: f64, srtt_s: f64) {
        match self {
            Cc::Reno(c) => c.on_ack(n, now_s, srtt_s),
            Cc::Cubic(c) => c.on_ack(n, now_s, srtt_s),
            Cc::BbrLite(c) => c.on_ack(n, now_s, srtt_s),
            Cc::Custom(c) => c.on_ack(n, now_s, srtt_s),
        }
    }

    /// See [`CongestionControl::on_loss_event`].
    #[inline]
    pub fn on_loss_event(&mut self, now_s: f64) {
        match self {
            Cc::Reno(c) => c.on_loss_event(now_s),
            Cc::Cubic(c) => c.on_loss_event(now_s),
            Cc::BbrLite(c) => c.on_loss_event(now_s),
            Cc::Custom(c) => c.on_loss_event(now_s),
        }
    }

    /// See [`CongestionControl::on_timeout`].
    #[inline]
    pub fn on_timeout(&mut self, now_s: f64) {
        match self {
            Cc::Reno(c) => c.on_timeout(now_s),
            Cc::Cubic(c) => c.on_timeout(now_s),
            Cc::BbrLite(c) => c.on_timeout(now_s),
            Cc::Custom(c) => c.on_timeout(now_s),
        }
    }

    /// See [`CongestionControl::in_slow_start`].
    #[inline]
    pub fn in_slow_start(&self) -> bool {
        match self {
            Cc::Reno(c) => c.in_slow_start(),
            Cc::Cubic(c) => c.in_slow_start(),
            Cc::BbrLite(c) => c.in_slow_start(),
            Cc::Custom(c) => c.in_slow_start(),
        }
    }

    /// See [`CongestionControl::set_increase_scale`].
    #[inline]
    pub fn set_increase_scale(&mut self, scale: f64) {
        match self {
            Cc::Reno(c) => c.set_increase_scale(scale),
            Cc::Cubic(c) => c.set_increase_scale(scale),
            Cc::BbrLite(c) => c.set_increase_scale(scale),
            Cc::Custom(c) => c.set_increase_scale(scale),
        }
    }
}

impl CongestionControl for Cc {
    fn cwnd(&self) -> f64 {
        Cc::cwnd(self)
    }

    fn ssthresh(&self) -> f64 {
        Cc::ssthresh(self)
    }

    fn on_ack(&mut self, n: u64, now_s: f64, srtt_s: f64) {
        Cc::on_ack(self, n, now_s, srtt_s)
    }

    fn on_loss_event(&mut self, now_s: f64) {
        Cc::on_loss_event(self, now_s)
    }

    fn on_timeout(&mut self, now_s: f64) {
        Cc::on_timeout(self, now_s)
    }

    fn in_slow_start(&self) -> bool {
        Cc::in_slow_start(self)
    }

    fn set_increase_scale(&mut self, scale: f64) {
        Cc::set_increase_scale(self, scale)
    }
}

/// TCP Reno (NewReno-style reaction, AIMD 1/2).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Reno {
    cwnd: f64,
    ssthresh: f64,
    increase_scale: f64,
}

impl Default for Reno {
    fn default() -> Self {
        Self::new()
    }
}

impl Reno {
    /// Initial window of 10 packets (RFC 6928).
    pub fn new() -> Self {
        Self {
            cwnd: 10.0,
            ssthresh: f64::INFINITY,
            increase_scale: 1.0,
        }
    }
}

impl CongestionControl for Reno {
    fn cwnd(&self) -> f64 {
        self.cwnd
    }

    fn ssthresh(&self) -> f64 {
        self.ssthresh
    }

    fn on_ack(&mut self, n: u64, _now_s: f64, _srtt_s: f64) {
        for _ in 0..n {
            if self.cwnd < self.ssthresh {
                self.cwnd += 1.0; // slow start: +1 per ACKed packet
            } else {
                // Congestion avoidance: +1/cwnd per ACK, LIA-scalable.
                self.cwnd += self.increase_scale / self.cwnd;
            }
        }
    }

    fn on_loss_event(&mut self, _now_s: f64) {
        self.ssthresh = (self.cwnd / 2.0).max(2.0);
        self.cwnd = self.ssthresh;
    }

    fn on_timeout(&mut self, _now_s: f64) {
        self.ssthresh = (self.cwnd / 2.0).max(2.0);
        self.cwnd = 1.0;
    }

    fn set_increase_scale(&mut self, scale: f64) {
        self.increase_scale = scale.clamp(0.0, 1.0);
    }
}

/// CUBIC (RFC 8312): cubic window growth with a TCP-friendly region.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Cubic {
    cwnd: f64,
    ssthresh: f64,
    /// Window size just before the last reduction.
    w_max: f64,
    /// Time of the last reduction, seconds.
    epoch_start_s: Option<f64>,
    /// Reno-emulation window for the TCP-friendly region.
    w_est: f64,
    increase_scale: f64,
    /// Smallest smoothed RTT seen, for the HyStart delay-increase exit.
    min_srtt_s: f64,
    /// `(w_max bits, K)`: K = cbrt(W_max·(1−β)/C) for the window it was
    /// computed from. Keyed on the bits, so the default `(0, 0.0)` is
    /// right for `w_max == 0.0` and a deserialised value recomputes.
    #[serde(skip)]
    k_cache: (u64, f64),
}

/// CUBIC scaling constant (RFC 8312).
const CUBIC_C: f64 = 0.4;
/// Multiplicative decrease factor (RFC 8312: β = 0.7).
const CUBIC_BETA: f64 = 0.7;

impl Default for Cubic {
    fn default() -> Self {
        Self::new()
    }
}

impl Cubic {
    /// Initial window of 10 packets.
    pub fn new() -> Self {
        Self {
            cwnd: 10.0,
            ssthresh: f64::INFINITY,
            w_max: 0.0,
            epoch_start_s: None,
            w_est: 10.0,
            increase_scale: 1.0,
            min_srtt_s: f64::INFINITY,
            k_cache: (0, 0.0),
        }
    }

    fn w_cubic(&mut self, t_s: f64) -> f64 {
        let bits = self.w_max.to_bits();
        if self.k_cache.0 != bits {
            self.k_cache = (bits, (self.w_max * (1.0 - CUBIC_BETA) / CUBIC_C).cbrt());
        }
        CUBIC_C * (t_s - self.k_cache.1).powi(3) + self.w_max
    }
}

impl CongestionControl for Cubic {
    fn cwnd(&self) -> f64 {
        self.cwnd
    }

    fn ssthresh(&self) -> f64 {
        self.ssthresh
    }

    fn on_ack(&mut self, n: u64, now_s: f64, srtt_s: f64) {
        self.min_srtt_s = self.min_srtt_s.min(srtt_s);
        for _ in 0..n {
            if self.cwnd < self.ssthresh {
                // HyStart-style delay-increase exit: once queueing inflates
                // the RTT well past its floor, stop doubling — Linux CUBIC
                // does the same to avoid catastrophic slow-start overshoot.
                if srtt_s > self.min_srtt_s * 1.4 && self.cwnd >= 32.0 {
                    self.ssthresh = self.cwnd;
                } else {
                    self.cwnd += 1.0;
                    continue;
                }
            }
            let epoch = *self.epoch_start_s.get_or_insert(now_s);
            let t = now_s - epoch;
            // Target one RTT ahead.
            let target = self.w_cubic(t + srtt_s.max(1e-3));
            // TCP-friendly (Reno-emulation) window.
            self.w_est += self.increase_scale / self.cwnd;
            let target = target.max(self.w_est);
            if target > self.cwnd {
                // Approach the target over one window of ACKs.
                self.cwnd += (target - self.cwnd) / self.cwnd;
            } else {
                self.cwnd += 0.01 / self.cwnd; // minimal growth at plateau
            }
        }
    }

    fn on_loss_event(&mut self, now_s: f64) {
        self.w_max = self.cwnd;
        self.cwnd = (self.cwnd * CUBIC_BETA).max(2.0);
        self.ssthresh = self.cwnd;
        self.w_est = self.cwnd;
        self.epoch_start_s = Some(now_s);
    }

    fn on_timeout(&mut self, now_s: f64) {
        self.w_max = self.cwnd;
        self.ssthresh = (self.cwnd * CUBIC_BETA).max(2.0);
        self.cwnd = 1.0;
        self.w_est = 1.0;
        self.epoch_start_s = Some(now_s);
    }

    fn set_increase_scale(&mut self, scale: f64) {
        self.increase_scale = scale.clamp(0.0, 1.0);
    }
}

/// BBR-lite: a model-based controller in the BBR family.
///
/// It estimates the bottleneck bandwidth as a windowed maximum of measured
/// delivery rate and the path's propagation delay as a windowed minimum of
/// the smoothed RTT, then sets `cwnd ≈ gain × BtlBw × RTprop`. Random loss
/// does not shrink the model, which is precisely why this family of
/// controllers survives Starlink's obstruction loss where CUBIC collapses
/// (§4.1's "calls for better congestion control"). Timeouts still reset
/// conservatively.
///
/// The bandwidth max filter is a monotonic queue, so each ACK reads the
/// estimate in O(1) instead of folding the 10-s sample window. It holds
/// the same maximum as the window it stands for, bit for bit (see
/// [`BbrLite::btl_bw`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BbrLite {
    cwnd: f64,
    /// Total packets delivered (ACKed).
    delivered: f64,
    /// Start of the current rate sample.
    sample_t_s: f64,
    sample_delivered: f64,
    /// Windowed max filter over delivery-rate samples, packets/s:
    /// `(measured_at_s, rate)`, times rising and rates strictly falling
    /// from head to tail. The head is the window's maximum.
    bw_samples: Vec<(f64, f64)>,
    /// Windowed min smoothed RTT, seconds.
    min_rtt_s: f64,
    min_rtt_at_s: f64,
}

/// How long a bandwidth sample stays in the max filter, seconds.
const BBR_BW_WINDOW_S: f64 = 10.0;
/// How long before the RTprop estimate is allowed to rise again, seconds.
const BBR_RTT_WINDOW_S: f64 = 10.0;
/// Steady-state cwnd gain over the estimated BDP.
const BBR_CWND_GAIN: f64 = 2.0;

impl Default for BbrLite {
    fn default() -> Self {
        Self::new()
    }
}

impl BbrLite {
    /// Initial window of 10 packets, empty model.
    pub fn new() -> Self {
        Self {
            cwnd: 10.0,
            delivered: 0.0,
            sample_t_s: 0.0,
            sample_delivered: 0.0,
            bw_samples: Vec::new(),
            min_rtt_s: f64::INFINITY,
            min_rtt_at_s: 0.0,
        }
    }

    /// Current bottleneck-bandwidth estimate, packets/s: the largest rate
    /// sample of the last 10 s, 0 with none.
    pub fn btl_bw(&self) -> f64 {
        self.bw_samples.first().map_or(0.0, |&(_, r)| r)
    }

    /// Adds the rate sample `(now_s, rate)` to the max filter and drops
    /// the samples older than the window.
    ///
    /// Exact against keeping every sample of the window and taking their
    /// maximum: a sample popped here has a rate no larger than the newer
    /// one and leaves the window first, so it never is the maximum. Sample
    /// times strictly rise (a sample needs `now_s − sample_t_s ≥ 10 ms`),
    /// so the expired samples are a prefix, and the newest sample always
    /// stays: the queue is empty exactly when the window is. Rates are
    /// finite and ≥ +0, so the head equals `fold(0.0, f64::max)` over the
    /// window bit for bit.
    fn push_bw_sample(&mut self, now_s: f64, rate: f64) {
        while self.bw_samples.last().is_some_and(|&(_, r)| r <= rate) {
            self.bw_samples.pop();
        }
        self.bw_samples.push((now_s, rate));
        let expired = self
            .bw_samples
            .iter()
            .take_while(|&&(t, _)| now_s - t > BBR_BW_WINDOW_S)
            .count();
        self.bw_samples.drain(..expired);
    }
}

impl CongestionControl for BbrLite {
    fn cwnd(&self) -> f64 {
        self.cwnd
    }

    fn ssthresh(&self) -> f64 {
        // BBR has no slow-start threshold; report infinity so
        // `in_slow_start` stays true only while the model is empty.
        if self.bw_samples.is_empty() {
            f64::INFINITY
        } else {
            0.0
        }
    }

    fn on_ack(&mut self, n: u64, now_s: f64, srtt_s: f64) {
        self.delivered += n as f64;

        // RTprop: windowed min of the smoothed RTT.
        if srtt_s < self.min_rtt_s || now_s - self.min_rtt_at_s > BBR_RTT_WINDOW_S {
            self.min_rtt_s = srtt_s;
            self.min_rtt_at_s = now_s;
        }

        // Delivery-rate sample roughly once per RTT.
        let elapsed = now_s - self.sample_t_s;
        if elapsed >= srtt_s.max(0.01) {
            let rate = (self.delivered - self.sample_delivered) / elapsed;
            self.push_bw_sample(now_s, rate);
            self.sample_t_s = now_s;
            self.sample_delivered = self.delivered;
        }

        let bdp = self.btl_bw() * self.min_rtt_s.min(10.0);
        if bdp > 0.0 {
            self.cwnd = (BBR_CWND_GAIN * bdp).max(4.0);
        } else {
            // Model still empty: grow like slow start to feed it.
            self.cwnd += n as f64;
        }
    }

    fn on_loss_event(&mut self, _now_s: f64) {
        // Random loss does not change the path model; trim marginally so
        // persistent congestion loss still registers through the rate
        // samples it depresses.
        self.cwnd = (self.cwnd * 0.95).max(4.0);
    }

    fn on_timeout(&mut self, _now_s: f64) {
        self.cwnd = 4.0;
        self.bw_samples.clear();
    }

    fn set_increase_scale(&mut self, _scale: f64) {
        // Coupling is a loss-based AIMD concept; BBR-lite ignores it.
    }
}

/// BBR-lite as it was before the monotonic max filter: every sample of
/// the window kept, `retain`ed on each new sample, folded on each read.
/// The oracle of `tests::monotonic_bw_filter_matches_the_fold_oracle`.
#[cfg(test)]
mod reference {
    use super::{CongestionControl, BBR_BW_WINDOW_S, BBR_CWND_GAIN, BBR_RTT_WINDOW_S};

    #[derive(Debug)]
    pub(super) struct FoldBbrLite {
        cwnd: f64,
        delivered: f64,
        sample_t_s: f64,
        sample_delivered: f64,
        pub(super) bw_samples: Vec<(f64, f64)>,
        min_rtt_s: f64,
        min_rtt_at_s: f64,
    }

    impl FoldBbrLite {
        pub(super) fn new() -> Self {
            Self {
                cwnd: 10.0,
                delivered: 0.0,
                sample_t_s: 0.0,
                sample_delivered: 0.0,
                bw_samples: Vec::new(),
                min_rtt_s: f64::INFINITY,
                min_rtt_at_s: 0.0,
            }
        }

        pub(super) fn btl_bw(&self) -> f64 {
            self.bw_samples.iter().map(|&(_, r)| r).fold(0.0, f64::max)
        }
    }

    impl CongestionControl for FoldBbrLite {
        fn cwnd(&self) -> f64 {
            self.cwnd
        }

        fn ssthresh(&self) -> f64 {
            if self.bw_samples.is_empty() {
                f64::INFINITY
            } else {
                0.0
            }
        }

        fn on_ack(&mut self, n: u64, now_s: f64, srtt_s: f64) {
            self.delivered += n as f64;
            if srtt_s < self.min_rtt_s || now_s - self.min_rtt_at_s > BBR_RTT_WINDOW_S {
                self.min_rtt_s = srtt_s;
                self.min_rtt_at_s = now_s;
            }
            let elapsed = now_s - self.sample_t_s;
            if elapsed >= srtt_s.max(0.01) {
                let rate = (self.delivered - self.sample_delivered) / elapsed;
                self.bw_samples.push((now_s, rate));
                self.bw_samples
                    .retain(|&(t, _)| now_s - t <= BBR_BW_WINDOW_S);
                self.sample_t_s = now_s;
                self.sample_delivered = self.delivered;
            }
            let bdp = self.btl_bw() * self.min_rtt_s.min(10.0);
            if bdp > 0.0 {
                self.cwnd = (BBR_CWND_GAIN * bdp).max(4.0);
            } else {
                self.cwnd += n as f64;
            }
        }

        fn on_loss_event(&mut self, _now_s: f64) {
            self.cwnd = (self.cwnd * 0.95).max(4.0);
        }

        fn on_timeout(&mut self, _now_s: f64) {
            self.cwnd = 4.0;
            self.bw_samples.clear();
        }

        fn set_increase_scale(&mut self, _scale: f64) {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One input to a BBR-lite pair. Times advance on a 1/64-s grid, so
    /// equal ACK batches over equal gaps give bit-equal rate samples.
    #[derive(Debug, Clone, Copy)]
    enum BbrOp {
        Ack { n: u64, ticks: u64, srtt_s: f64 },
        Loss { ticks: u64 },
        Timeout { ticks: u64 },
    }

    fn bbr_op() -> impl Strategy<Value = BbrOp> {
        // RTT-paced batches with repeated sizes (0 gives zero-rate
        // samples), idle gaps of exactly and beyond the 10-s window, and
        // srtt values that repeat, change, and fall below the 10-ms floor.
        let n = prop_oneof![Just(0u64), Just(10u64), Just(50u64), 0u64..300];
        let ticks = prop_oneof![6 => 0u64..9, 1 => Just(640u64), 1 => 641u64..1600];
        let srtt = prop_oneof![
            Just(1.0 / 64.0),
            Just(4.0 / 64.0),
            Just(0.5),
            Just(0.001),
            0.001..1.5f64
        ];
        prop_oneof![
            12 => (n, ticks, srtt).prop_map(|(n, ticks, srtt_s)| BbrOp::Ack { n, ticks, srtt_s }),
            1 => (0u64..4).prop_map(|ticks| BbrOp::Loss { ticks }),
            1 => (0u64..4).prop_map(|ticks| BbrOp::Timeout { ticks }),
        ]
    }

    #[test]
    fn monotonic_bw_filter_matches_the_fold_oracle() {
        let ops = prop::collection::vec(bbr_op(), 1..600);
        // (samples the monotonic filter popped, samples expired from the
        // window, zero-rate samples, timeouts with a non-empty model)
        let mut seen = [0u64; 4];
        proptest::run_cases_with("monotonic_bw_filter_matches_the_fold_oracle", 256, |rng| {
            let (mut fast, mut oracle) = (BbrLite::new(), reference::FoldBbrLite::new());
            let mut ticks = 0u64;
            for (step, op) in ops.sample(rng).into_iter().enumerate() {
                let (retained, newest) =
                    (oracle.bw_samples.len(), oracle.bw_samples.last().copied());
                match op {
                    BbrOp::Ack {
                        n,
                        ticks: dt,
                        srtt_s,
                    } => {
                        ticks += dt;
                        let now_s = ticks as f64 / 64.0;
                        fast.on_ack(n, now_s, srtt_s);
                        oracle.on_ack(n, now_s, srtt_s);
                        let pushed = oracle.bw_samples.last().copied() != newest;
                        seen[1] += (pushed && oracle.bw_samples.len() <= retained) as u64;
                        if oracle.bw_samples.len() > fast.bw_samples.len() {
                            seen[0] += 1;
                        }
                        seen[2] += oracle.bw_samples.last().is_some_and(|&(_, r)| r == 0.0) as u64;
                    }
                    BbrOp::Loss { ticks: dt } => {
                        ticks += dt;
                        fast.on_loss_event(ticks as f64 / 64.0);
                        oracle.on_loss_event(ticks as f64 / 64.0);
                    }
                    BbrOp::Timeout { ticks: dt } => {
                        ticks += dt;
                        seen[3] += (retained > 0) as u64;
                        fast.on_timeout(ticks as f64 / 64.0);
                        oracle.on_timeout(ticks as f64 / 64.0);
                    }
                }
                assert_eq!(
                    fast.btl_bw().to_bits(),
                    oracle.btl_bw().to_bits(),
                    "btl_bw @ {step} after {op:?}"
                );
                assert_eq!(
                    fast.ssthresh().to_bits(),
                    oracle.ssthresh().to_bits(),
                    "ssthresh @ {step}"
                );
                assert_eq!(
                    fast.cwnd().to_bits(),
                    oracle.cwnd().to_bits(),
                    "cwnd @ {step}"
                );
            }
        });
        assert!(
            seen.iter().all(|&k| k > 0),
            "an input class never occurred: {seen:?}"
        );
    }

    #[test]
    fn reno_slow_start_doubles_per_rtt() {
        let mut cc = Reno::new();
        // One RTT: every in-flight packet ACKed → cwnd doubles.
        let w0 = cc.cwnd();
        cc.on_ack(w0 as u64, 0.0, 0.05);
        assert!((cc.cwnd() - 2.0 * w0).abs() < 1e-9);
    }

    #[test]
    fn reno_congestion_avoidance_is_linear() {
        let mut cc = Reno::new();
        cc.on_loss_event(0.0); // leave slow start (ssthresh = 5, cwnd = 5)
        let w = cc.cwnd();
        cc.on_ack(w as u64, 0.0, 0.05); // one RTT of ACKs
        assert!(
            (cc.cwnd() - (w + 1.0)).abs() < 0.1,
            "cwnd {} vs {}",
            cc.cwnd(),
            w + 1.0
        );
    }

    #[test]
    fn reno_halves_on_loss() {
        let mut cc = Reno::new();
        cc.on_ack(90, 0.0, 0.05); // grow to 100 in slow start
        let before = cc.cwnd();
        cc.on_loss_event(0.0);
        assert!((cc.cwnd() - before / 2.0).abs() < 1e-9);
        assert!(!cc.in_slow_start());
    }

    #[test]
    fn timeout_resets_to_one() {
        for algo in [CcAlgorithm::Reno, CcAlgorithm::Cubic] {
            let mut cc = algo.build();
            cc.on_ack(50, 0.0, 0.05);
            cc.on_timeout(1.0);
            assert_eq!(cc.cwnd(), 1.0, "{algo:?}");
            assert!(cc.in_slow_start(), "{algo:?} should re-enter slow start");
        }
    }

    #[test]
    fn bbr_builds_a_model_and_sizes_cwnd_to_bdp() {
        let mut cc = BbrLite::new();
        // Feed 1 RTT-spaced ACK batches: 100 packets per 50 ms = 2000 pps.
        let mut t = 0.0;
        for _ in 0..40 {
            t += 0.05;
            cc.on_ack(100, t, 0.05);
        }
        let bw = cc.btl_bw();
        assert!((1500.0..2500.0).contains(&bw), "BtlBw {bw} pps");
        // cwnd ≈ 2 × BDP = 2 × 2000 × 0.05 = 200.
        assert!((150.0..260.0).contains(&cc.cwnd()), "cwnd {}", cc.cwnd());
    }

    #[test]
    fn bbr_ignores_random_loss() {
        let mut cc = BbrLite::new();
        let mut t = 0.0;
        for _ in 0..40 {
            t += 0.05;
            cc.on_ack(100, t, 0.05);
        }
        let before = cc.cwnd();
        for i in 0..10 {
            cc.on_loss_event(t + i as f64 * 0.01);
        }
        assert!(
            cc.cwnd() > before * 0.5,
            "BBR-lite should shrug off loss events: {} → {}",
            before,
            cc.cwnd()
        );
        // While CUBIC would have collapsed by ≥ 0.7^10.
        let mut cubic = Cubic::new();
        cubic.on_ack(190, 0.0, 0.05);
        for i in 0..10 {
            cubic.on_loss_event(i as f64 * 0.01);
        }
        assert!(cubic.cwnd() < cc.cwnd());
    }

    #[test]
    fn bbr_timeout_is_conservative() {
        let mut cc = BbrLite::new();
        let mut t = 0.0;
        for _ in 0..20 {
            t += 0.05;
            cc.on_ack(50, t, 0.05);
        }
        cc.on_timeout(t + 1.0);
        assert_eq!(cc.cwnd(), 4.0);
    }

    #[test]
    fn cubic_recovers_towards_wmax() {
        let mut cc = Cubic::new();
        cc.on_ack(190, 0.0, 0.05); // slow start to 200
        let w_before = cc.cwnd();
        cc.on_loss_event(10.0);
        assert!((cc.cwnd() - w_before * 0.7).abs() < 1.0);
        // Feed ACKs over simulated time; window should climb back towards
        // w_max within ~K seconds.
        let mut t = 10.0;
        for _ in 0..400 {
            t += 0.05;
            cc.on_ack(cc.cwnd() as u64, t, 0.05);
            if cc.cwnd() >= w_before * 0.95 {
                break;
            }
        }
        assert!(
            cc.cwnd() >= w_before * 0.95,
            "cwnd {} never re-approached w_max {}",
            cc.cwnd(),
            w_before
        );
    }

    #[test]
    fn cubic_k_cache_survives_serde_round_trip() {
        // The cache is skipped by serde, so a deserialised controller
        // starts from `(0, 0.0)` while `w_max` is not 0: keyed on the
        // bits, it recomputes K instead of reusing a stale one and then
        // tracks the original bit for bit, across a further loss too.
        let mut a = Cubic::new();
        a.on_ack(190, 0.0, 0.05);
        a.on_loss_event(1.0);
        let mut t = 1.0;
        for _ in 0..20 {
            t += 0.05;
            a.on_ack(a.cwnd() as u64, t, 0.05);
        }
        let mut b = Cubic::from_value(&a.to_value()).expect("round trip");
        assert_eq!(b.k_cache, (0, 0.0));
        for i in 0..200 {
            t += 0.05;
            if i == 100 {
                a.on_loss_event(t);
                b.on_loss_event(t);
            }
            a.on_ack(a.cwnd() as u64, t, 0.05);
            b.on_ack(b.cwnd() as u64, t, 0.05);
            assert_eq!(a.cwnd().to_bits(), b.cwnd().to_bits(), "ack {i}");
            let k = (a.w_max * (1.0 - CUBIC_BETA) / CUBIC_C).cbrt();
            assert_eq!(b.k_cache, (a.w_max.to_bits(), k), "ack {i}");
        }
    }

    #[test]
    fn cubic_beats_reno_recovery_speed_at_scale() {
        // After a loss at a large window, CUBIC regains window faster than
        // Reno over the same ACK stream — its raison d'être on LFNs.
        let mut cubic = Cubic::new();
        let mut reno = Reno::new();
        cubic.on_ack(490, 0.0, 0.1);
        reno.on_ack(490, 0.0, 0.1);
        cubic.on_loss_event(10.0);
        reno.on_loss_event(10.0);
        let mut t = 10.0;
        for _ in 0..40 {
            t += 0.1;
            cubic.on_ack(cubic.cwnd() as u64, t, 0.1);
            reno.on_ack(reno.cwnd() as u64, t, 0.1);
        }
        assert!(
            cubic.cwnd() > reno.cwnd(),
            "cubic {} ≤ reno {}",
            cubic.cwnd(),
            reno.cwnd()
        );
    }

    #[test]
    fn increase_scale_throttles_growth() {
        let mut a = Reno::new();
        let mut b = Reno::new();
        a.on_loss_event(0.0);
        b.on_loss_event(0.0);
        b.set_increase_scale(0.25);
        for _ in 0..100 {
            a.on_ack(5, 0.0, 0.05);
            b.on_ack(5, 0.0, 0.05);
        }
        assert!(a.cwnd() > b.cwnd());
    }

    #[test]
    fn cwnd_never_below_one() {
        for algo in [CcAlgorithm::Reno, CcAlgorithm::Cubic] {
            let mut cc = algo.build();
            for i in 0..10 {
                cc.on_timeout(i as f64);
                cc.on_loss_event(i as f64 + 0.5);
                assert!(cc.cwnd() >= 1.0, "{algo:?} cwnd {}", cc.cwnd());
            }
        }
    }
}
