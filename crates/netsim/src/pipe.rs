//! Unidirectional link models ("pipes").
//!
//! A pipe decides, at the moment a packet is offered, when (or whether)
//! that packet will pop out the far end. Computing delivery times at offer
//! time keeps the event loop simple — possible because both pipe models'
//! service schedules are known in advance — while still modelling queueing
//! (drop-tail on queued-but-undelivered packets) exactly.

use crate::time::SimTime;
use leo_link::mahimahi::MahimahiTrace;
use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Counters every pipe maintains — the emulator's `tcpdump` equivalent,
/// used by `leo-measure` for Figure 5's retransmission accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipeStats {
    pub offered_packets: u64,
    pub offered_bytes: u64,
    pub delivered_packets: u64,
    pub delivered_bytes: u64,
    pub dropped_random: u64,
    pub dropped_queue: u64,
    /// Packets consumed by an injected fault ([`FaultPipe`]) before they
    /// reached the wrapped pipe.
    pub dropped_fault: u64,
}

impl PipeStats {
    /// Fraction of offered packets dropped (any cause).
    pub fn drop_rate(&self) -> f64 {
        if self.offered_packets == 0 {
            0.0
        } else {
            (self.dropped_random + self.dropped_queue + self.dropped_fault) as f64
                / self.offered_packets as f64
        }
    }

    /// Packets the counters fail to account for. Both pipe models decide a
    /// packet's fate at offer time (admitted packets are counted delivered
    /// the moment their delivery is scheduled), so the exact law is
    /// `offered == delivered + dropped_random + dropped_queue +
    /// dropped_fault` with no separate in-flight term; a non-zero residual
    /// means a pipe implementation lost track of a packet.
    pub fn conservation_residual(&self) -> i64 {
        self.offered_packets as i64
            - (self.delivered_packets
                + self.dropped_random
                + self.dropped_queue
                + self.dropped_fault) as i64
    }

    /// Packet- and byte-conservation: every offered packet is either
    /// scheduled for delivery or counted in exactly one drop bucket, and
    /// delivered bytes never exceed offered bytes.
    pub fn is_conserved(&self) -> bool {
        self.conservation_residual() == 0 && self.delivered_bytes <= self.offered_bytes
    }
}

/// A unidirectional link.
pub trait Pipe {
    /// Offers a packet of `size_bytes` at `now`; returns its delivery time
    /// at the far end, or `None` if the pipe drops it.
    fn offer(&mut self, size_bytes: u32, now: SimTime, rng: &mut SmallRng) -> Option<SimTime>;

    /// Cumulative statistics.
    fn stats(&self) -> PipeStats;

    /// Bytes currently queued (offered, not yet delivered).
    fn queued_bytes(&self, now: SimTime) -> u64;

    /// High-water mark of the queue, in bytes, over the pipe's lifetime.
    ///
    /// Kept outside [`PipeStats`] on purpose: the stats struct is
    /// serialized and hashed into conformance goldens, while this is an
    /// observability-only reading. Wrappers forward to their inner pipe;
    /// the default (for pipes without a queue model) reports 0.
    fn queue_hiwater_bytes(&self) -> u64 {
        0
    }
}

/// Boxed pipes are pipes, so wrappers like [`FaultPipe`] and
/// [`JitterPipe`] can be stacked over a dynamically chosen base — the
/// conformance fuzzer composes random `Box<dyn Pipe>` stacks this way.
impl Pipe for Box<dyn Pipe> {
    fn offer(&mut self, size_bytes: u32, now: SimTime, rng: &mut SmallRng) -> Option<SimTime> {
        (**self).offer(size_bytes, now, rng)
    }

    fn stats(&self) -> PipeStats {
        (**self).stats()
    }

    fn queued_bytes(&self, now: SimTime) -> u64 {
        (**self).queued_bytes(now)
    }

    fn queue_hiwater_bytes(&self) -> u64 {
        (**self).queue_hiwater_bytes()
    }
}

/// Constant-rate pipe: serialisation at `rate`, propagation `delay`,
/// i.i.d. random loss, and a drop-tail queue bounded in bytes.
#[derive(Debug, Clone)]
pub struct ConstPipe {
    rate_bytes_per_s: f64,
    delay: SimTime,
    loss: f64,
    queue_limit_bytes: u64,
    /// When the transmitter becomes free.
    busy_until: SimTime,
    /// `(size, serialisation time)` of the last admitted size: a flow
    /// sends one or two sizes, so the float division runs once per change.
    /// `(0, ZERO)` is exact for every rate.
    tx_memo: (u32, SimTime),
    /// (delivery_time, size) of in-flight/queued packets, for queue
    /// accounting; cleaned lazily.
    in_flight: VecDeque<(SimTime, u32)>,
    /// Running total of the sizes in `in_flight`, maintained by `gc` and
    /// admission — the O(1) replacement for scanning `in_flight` on every
    /// offer. After `gc(now)` every remaining entry's delivery exceeds
    /// `now + delay`, so "bytes not yet through transmission" is exactly
    /// this counter (minus the in-service head for the queue reading).
    inflight_bytes: u64,
    stats: PipeStats,
    /// Drops attributed to the pipe having zero capacity (see `offer`);
    /// a sub-count of `stats.dropped_queue`.
    zero_rate_drops: u64,
    queue_hiwater: u64,
}

impl ConstPipe {
    /// Creates a pipe. `rate_mbps` of zero means the pipe never delivers.
    pub fn new(rate_mbps: f64, delay: SimTime, loss: f64, queue_limit_bytes: u64) -> Self {
        Self {
            rate_bytes_per_s: rate_mbps.max(0.0) * 1e6 / 8.0,
            delay,
            loss: loss.clamp(0.0, 1.0),
            queue_limit_bytes,
            busy_until: SimTime::ZERO,
            tx_memo: (0, SimTime::ZERO),
            in_flight: VecDeque::new(),
            inflight_bytes: 0,
            stats: PipeStats::default(),
            zero_rate_drops: 0,
            queue_hiwater: 0,
        }
    }

    /// Drops caused by the pipe having zero capacity, a sub-count of
    /// [`PipeStats::dropped_queue`]: a zero-rate link is a permanently
    /// unserviceable queue, so every offer drop-tails. Kept outside
    /// golden-visible [`PipeStats`] (like
    /// [`queue_hiwater_bytes`](Pipe::queue_hiwater_bytes)) so drop-cause
    /// analyses can separate "no capacity" from genuine buffer overflow
    /// without perturbing conformance digests.
    pub fn dropped_zero_rate(&self) -> u64 {
        self.zero_rate_drops
    }

    fn gc(&mut self, now: SimTime) {
        // A packet stops occupying the queue once its *transmission*
        // completes; since delivery = tx_end + delay, compare against
        // delivery − delay ≤ now ⟺ delivery ≤ now + delay.
        let horizon = now + self.delay;
        while let Some(&(t, s)) = self.in_flight.front() {
            if t <= horizon {
                self.in_flight.pop_front();
                self.inflight_bytes -= s as u64;
            } else {
                break;
            }
        }
    }
}

impl Pipe for ConstPipe {
    fn offer(&mut self, size_bytes: u32, now: SimTime, rng: &mut SmallRng) -> Option<SimTime> {
        self.stats.offered_packets += 1;
        self.stats.offered_bytes += size_bytes as u64;
        self.gc(now);

        if self.rate_bytes_per_s <= 0.0 {
            // Zero capacity ⇒ the queue can never drain, so the drop is
            // drop-tail by definition and stays in `dropped_queue` (the
            // golden-visible bucket); `zero_rate_drops` records the cause.
            self.stats.dropped_queue += 1;
            self.zero_rate_drops += 1;
            return None;
        }
        if self.loss > 0.0 && rng.gen_bool(self.loss) {
            self.stats.dropped_random += 1;
            return None;
        }
        // O(1): gc just evicted everything transmitted by `now`, so the
        // occupancy is the running byte total minus the in-service head.
        // (`queued_bytes(now)` computes the same value by scanning.)
        let queued: u64 = self
            .inflight_bytes
            .saturating_sub(self.in_flight.front().map_or(0, |&(_, s)| s as u64));
        debug_assert_eq!(queued, self.queued_bytes(now));
        if crate::strict_checks() {
            assert_eq!(
                queued,
                self.queued_bytes(now),
                "ConstPipe O(1) queue counter diverged from the scan"
            );
        }
        if queued + size_bytes as u64 > self.queue_limit_bytes {
            self.stats.dropped_queue += 1;
            return None;
        }
        self.queue_hiwater = self.queue_hiwater.max(queued + size_bytes as u64);

        if self.tx_memo.0 != size_bytes {
            self.tx_memo = (
                size_bytes,
                SimTime::from_secs_f64(size_bytes as f64 / self.rate_bytes_per_s),
            );
        }
        let tx_time = self.tx_memo.1;
        let start = self.busy_until.max(now);
        let tx_end = start + tx_time;
        self.busy_until = tx_end;
        let delivery = tx_end + self.delay;
        self.in_flight.push_back((delivery, size_bytes));
        self.inflight_bytes += size_bytes as u64;
        self.stats.delivered_packets += 1;
        self.stats.delivered_bytes += size_bytes as u64;
        Some(delivery)
    }

    fn stats(&self) -> PipeStats {
        self.stats
    }

    /// Bytes waiting behind the packet currently in service (the in-service
    /// packet occupies the transmitter, not the queue).
    fn queued_bytes(&self, now: SimTime) -> u64 {
        let horizon = now + self.delay;
        self.in_flight
            .iter()
            .filter(|&&(t, _)| t > horizon)
            .skip(1) // the head packet is in service
            .map(|&(_, s)| s as u64)
            .sum()
    }

    fn queue_hiwater_bytes(&self) -> u64 {
        self.queue_hiwater
    }
}

/// Mahimahi trace-driven pipe: each delivery opportunity in the schedule
/// releases one queued packet; the schedule wraps around at its period.
/// Optionally applies a per-second loss series (index = simulated second),
/// the mechanism used to replay Starlink's time-varying channel loss.
#[derive(Debug, Clone)]
pub struct TracePipe {
    trace: MahimahiTrace,
    delay: SimTime,
    loss_series: Option<Vec<f64>>,
    queue_limit_bytes: u64,
    /// Index of the next unconsumed delivery opportunity.
    opp_cursor: u64,
    in_flight: VecDeque<(SimTime, u32)>,
    /// Running total of the sizes in `in_flight` (see
    /// [`ConstPipe::inflight_bytes`]); the whole total counts as queued
    /// here because Mahimahi has no serialisation server.
    inflight_bytes: u64,
    stats: PipeStats,
    queue_hiwater: u64,
}

impl TracePipe {
    /// Creates a trace-driven pipe.
    ///
    /// # Panics
    /// Panics if `trace` has no delivery opportunities (a dead link should
    /// be expressed as a loss series of 1.0 or an all-zero capacity trace
    /// handled by the caller).
    pub fn new(trace: MahimahiTrace, delay: SimTime, queue_limit_bytes: u64) -> Self {
        assert!(
            !trace.is_empty(),
            "TracePipe needs at least one delivery opportunity"
        );
        Self {
            trace,
            delay,
            loss_series: None,
            queue_limit_bytes,
            opp_cursor: 0,
            in_flight: VecDeque::new(),
            inflight_bytes: 0,
            stats: PipeStats::default(),
            queue_hiwater: 0,
        }
    }

    /// Attaches a per-second loss-probability series; second `i` of
    /// simulation uses `series[i % len]` — the series repeats, mirroring
    /// the Mahimahi delivery schedule's wrap-around, so a replay driven
    /// past the trace end sees capacity and loss from the same second of
    /// the original channel rather than period-0 capacity paired with the
    /// final second's loss.
    pub fn with_loss_series(mut self, series: Vec<f64>) -> Self {
        self.loss_series = if series.is_empty() {
            None
        } else {
            Some(series)
        };
        self
    }

    fn loss_at(&self, now: SimTime) -> f64 {
        match &self.loss_series {
            None => 0.0,
            Some(s) => {
                let idx = (now.as_nanos() / 1_000_000_000) as usize;
                s[idx % s.len()].clamp(0.0, 1.0)
            }
        }
    }

    fn gc(&mut self, now: SimTime) {
        let horizon = now + self.delay;
        while let Some(&(t, s)) = self.in_flight.front() {
            if t <= horizon {
                self.in_flight.pop_front();
                self.inflight_bytes -= s as u64;
            } else {
                break;
            }
        }
    }
}

impl Pipe for TracePipe {
    fn offer(&mut self, size_bytes: u32, now: SimTime, rng: &mut SmallRng) -> Option<SimTime> {
        self.stats.offered_packets += 1;
        self.stats.offered_bytes += size_bytes as u64;
        self.gc(now);

        let loss = self.loss_at(now);
        if loss > 0.0 && rng.gen_bool(loss) {
            self.stats.dropped_random += 1;
            return None;
        }
        // O(1): after gc every remaining delivery is past the horizon, so
        // the scan in `queued_bytes(now)` would count all of `in_flight`.
        let queued = self.inflight_bytes;
        debug_assert_eq!(queued, self.queued_bytes(now));
        if crate::strict_checks() {
            assert_eq!(
                queued,
                self.queued_bytes(now),
                "TracePipe O(1) queue counter diverged from the scan"
            );
        }
        if queued + size_bytes as u64 > self.queue_limit_bytes {
            self.stats.dropped_queue += 1;
            return None;
        }
        self.queue_hiwater = self.queue_hiwater.max(queued + size_bytes as u64);

        // Consume the next delivery opportunity at or after `now` (and
        // after every already-assigned opportunity, preserving FIFO order).
        // The query millisecond is rounded *up*: an opportunity at
        // millisecond m can only carry packets that had arrived by m, so a
        // mid-millisecond arrival waits for the next slot. (Flooring here
        // granted the current millisecond's already-passed opportunity and
        // scheduled deliveries in the past — caught by the conformance
        // fuzzer's delivery-time invariant.)
        let query_ms = now.as_nanos().div_ceil(1_000_000);
        // While a queue stands the cursor already lies at or after the
        // query, and the binary search would only confirm it: the O(1)
        // `opportunity_covers` skips it, leaving the cursor exactly
        // `max(cursor, next_opportunity_at_or_after(query_ms))`.
        if !self.trace.opportunity_covers(self.opp_cursor, query_ms) {
            self.opp_cursor = self.trace.next_opportunity_at_or_after(query_ms);
        }
        let delivery_ms = self.trace.delivery_time_ms(self.opp_cursor);
        self.opp_cursor += 1;

        let delivery = SimTime::from_millis(delivery_ms) + self.delay;
        self.in_flight.push_back((delivery, size_bytes));
        self.inflight_bytes += size_bytes as u64;
        self.stats.delivered_packets += 1;
        self.stats.delivered_bytes += size_bytes as u64;
        Some(delivery)
    }

    fn stats(&self) -> PipeStats {
        self.stats
    }

    /// Unlike [`ConstPipe::queued_bytes`], the head packet *is* counted:
    /// Mahimahi has no serialisation server — a packet sits in the queue
    /// until its delivery opportunity dequeues it, so every undelivered
    /// packet occupies queue space.
    fn queued_bytes(&self, now: SimTime) -> u64 {
        let horizon = now + self.delay;
        self.in_flight
            .iter()
            .filter(|&&(t, _)| t > horizon)
            .map(|&(_, s)| s as u64)
            .sum()
    }

    fn queue_hiwater_bytes(&self) -> u64 {
        self.queue_hiwater
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    #[test]
    fn const_pipe_serialises_back_to_back() {
        // 12 Mbps, 1500-B packets → 1 ms per packet.
        let mut p = ConstPipe::new(12.0, SimTime::from_millis(10), 0.0, 1 << 20);
        let mut r = rng();
        let d1 = p.offer(1500, SimTime::ZERO, &mut r).unwrap();
        let d2 = p.offer(1500, SimTime::ZERO, &mut r).unwrap();
        assert_eq!(d1.as_millis(), 11); // 1 ms tx + 10 ms prop
        assert_eq!(d2.as_millis(), 12); // queued behind the first
    }

    #[test]
    fn const_pipe_idle_restart() {
        let mut p = ConstPipe::new(12.0, SimTime::ZERO, 0.0, 1 << 20);
        let mut r = rng();
        let _ = p.offer(1500, SimTime::ZERO, &mut r).unwrap();
        // After a long idle gap, service starts at `now`, not at busy_until.
        let d = p.offer(1500, SimTime::from_secs(5), &mut r).unwrap();
        assert_eq!(d.as_millis(), 5001);
    }

    #[test]
    fn const_pipe_drop_tail() {
        // Queue limit of 3000 bytes = 2 packets of 1500.
        let mut p = ConstPipe::new(1.0, SimTime::ZERO, 0.0, 3000);
        let mut r = rng();
        // 1 Mbps → 12 ms per 1500-B packet; flood at t=0.
        let a = p.offer(1500, SimTime::ZERO, &mut r);
        let b = p.offer(1500, SimTime::ZERO, &mut r);
        let c = p.offer(1500, SimTime::ZERO, &mut r);
        let d = p.offer(1500, SimTime::ZERO, &mut r);
        assert!(a.is_some() && b.is_some());
        // The first packet is in service (not queued), so the third fits…
        assert!(c.is_some());
        // …but the fourth exceeds the two-packet queue.
        assert!(d.is_none());
        assert_eq!(p.stats().dropped_queue, 1);
    }

    #[test]
    fn const_pipe_random_loss_rate() {
        let mut p = ConstPipe::new(1000.0, SimTime::ZERO, 0.25, u64::MAX);
        let mut r = rng();
        let n = 20_000;
        let mut t = SimTime::ZERO;
        for _ in 0..n {
            let _ = p.offer(1500, t, &mut r);
            t += SimTime::from_micros(50);
        }
        let rate = p.stats().dropped_random as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "loss rate {rate}");
    }

    #[test]
    fn zero_rate_pipe_drops_everything() {
        let mut p = ConstPipe::new(0.0, SimTime::ZERO, 0.0, 1 << 20);
        assert!(p.offer(100, SimTime::ZERO, &mut rng()).is_none());
    }

    #[test]
    fn zero_rate_drops_count_as_queue_drops_with_cause_attributed() {
        // Pinned semantics: a zero-rate link is a permanently
        // unserviceable queue, so its drops stay in the golden-visible
        // `dropped_queue` bucket — but `dropped_zero_rate()` separates
        // "no capacity" from genuine drop-tail for drop-cause analyses.
        let mut p = ConstPipe::new(0.0, SimTime::ZERO, 0.5, 1 << 20);
        let mut r = rng();
        let mut probe = rng();
        for i in 0..10u64 {
            assert!(p.offer(100, SimTime::from_millis(i), &mut r).is_none());
        }
        let s = p.stats();
        assert_eq!(s.dropped_queue, 10);
        assert_eq!(s.dropped_random, 0, "no loss draw on a dead link");
        assert_eq!(p.dropped_zero_rate(), 10);
        assert!(s.is_conserved());
        // The zero-rate path rejects before the loss draw, so it never
        // consumes RNG state (same transparency contract as zero jitter).
        use rand::Rng as _;
        assert_eq!(r.gen::<u64>(), probe.gen::<u64>());

        // A live link never attributes drops to zero capacity.
        let mut live = ConstPipe::new(1.0, SimTime::ZERO, 0.0, 1500);
        for _ in 0..5 {
            let _ = live.offer(1500, SimTime::ZERO, &mut r);
        }
        assert!(live.stats().dropped_queue > 0);
        assert_eq!(live.dropped_zero_rate(), 0);
    }

    /// Offers `size` at `now` and checks the admission against the
    /// O(n) occupancy scan read before the offer: admitted iff
    /// `queued_bytes(now) + size <= limit`, unless the loss draw dropped
    /// the packet first.
    fn offer_checked(
        p: &mut dyn Pipe,
        limit: u64,
        size: u32,
        now: SimTime,
        r: &mut SmallRng,
        i: u64,
    ) {
        let queued = p.queued_bytes(now);
        let random_before = p.stats().dropped_random;
        let admitted = p.offer(size, now, r).is_some();
        if p.stats().dropped_random == random_before {
            assert_eq!(
                admitted,
                queued + size as u64 <= limit,
                "packet {i}: {queued} B queued"
            );
        }
    }

    #[test]
    fn o1_queue_accounting_matches_reference_scan() {
        // The running-counter occupancy must make the admission decision
        // the O(n) scan implies, packet for packet, across idle gaps,
        // floods, and random loss.
        let mut p = ConstPipe::new(8.0, SimTime::from_millis(15), 0.2, 6_000);
        let mut r = rng();
        let mut t = SimTime::ZERO;
        for i in 0..3_000u64 {
            // Bursts of 4 with occasional long idle gaps.
            t += if i % 64 == 0 {
                SimTime::from_millis(40)
            } else {
                SimTime::from_micros(i % 4 * 90)
            };
            offer_checked(&mut p, 6_000, 1200, t, &mut r, i);
        }
        assert!(p.stats().dropped_queue > 0, "queue must saturate");

        let trace = MahimahiTrace::from_capacity_series(&[6.0, 2.0, 9.0]);
        let mut p =
            TracePipe::new(trace, SimTime::from_millis(5), 9_000).with_loss_series(vec![0.0, 0.3]);
        let mut t = SimTime::ZERO;
        for i in 0..3_000u64 {
            t += SimTime::from_micros(700 + i % 7 * 130);
            offer_checked(&mut p, 9_000, 1200, t, &mut r, i);
        }
        assert!(p.stats().dropped_queue > 0, "queue must saturate");
    }

    #[test]
    fn trace_pipe_follows_schedule() {
        let trace = MahimahiTrace::from_deliveries(vec![5, 10, 15]);
        let mut p = TracePipe::new(trace, SimTime::ZERO, 1 << 20);
        let mut r = rng();
        let d1 = p.offer(1500, SimTime::ZERO, &mut r).unwrap();
        let d2 = p.offer(1500, SimTime::ZERO, &mut r).unwrap();
        assert_eq!(d1.as_millis(), 5);
        assert_eq!(d2.as_millis(), 10);
        // Next offer after the schedule's end wraps to the next period.
        let d3 = p.offer(1500, SimTime::from_millis(16), &mut r).unwrap();
        assert_eq!(d3.as_millis(), 16 + 5); // period 16, next op at 16+5
    }

    proptest! {
        /// The cursor check in `TracePipe::offer` against the computation
        /// it short-cuts: the cursor moves to `max(cursor, search(q))`
        /// for the query millisecond `q`, over schedules with repeated
        /// milliseconds, empty seconds and `period == last delivery`, and
        /// offers in bursts, within a millisecond and after idle laps.
        #[test]
        fn trace_pipe_cursor_matches_search_oracle(
            gaps in prop::collection::vec((0u8..4, 0u64..2_500), 1..40),
            period_pad in 0u64..2,
            offers in prop::collection::vec((0u8..4, 0u64..5_000_000_000), 1..300),
            delay_ms in 0u64..50,
        ) {
            let mut t = 0;
            let deliveries: Vec<u64> = gaps
                .iter()
                .map(|&(kind, g)| {
                    t += match kind {
                        0 => 0,
                        1 | 2 => g % 5,
                        _ => 1_000 + g,
                    };
                    t
                })
                .collect();
            let trace = MahimahiTrace::from_value(&serde::Value::Object(vec![
                ("deliveries_ms".into(), deliveries.to_value()),
                ("period_ms".into(), (t + period_pad).max(1).to_value()),
            ]))
            .expect("valid schedule");
            let delay = SimTime::from_millis(delay_ms);
            let mut pipe = TracePipe::new(trace.clone(), delay, u64::MAX);
            let mut r = rng();
            let (mut now_ns, mut cursor) = (0u64, 0u64);
            for &(kind, dt) in &offers {
                now_ns += match kind {
                    0 => 0,
                    1 => dt % 1_000_000,
                    2 => dt % 50_000_000,
                    _ => dt,
                };
                let query_ms = now_ns.div_ceil(1_000_000);
                cursor = cursor.max(trace.next_opportunity_at_or_after(query_ms));
                let want = SimTime::from_millis(trace.delivery_time_ms(cursor)) + delay;
                cursor += 1;
                prop_assert_eq!(
                    pipe.offer(1500, SimTime::from_nanos(now_ns), &mut r),
                    Some(want)
                );
            }
        }
    }

    #[test]
    fn trace_pipe_never_delivers_before_the_offer() {
        // Offer mid-millisecond, just past an opportunity: the packet must
        // ride the NEXT opportunity, not the one at 5 ms that has already
        // gone by (which would put the delivery in the past).
        let trace = MahimahiTrace::from_deliveries(vec![5, 10, 15]);
        let mut p = TracePipe::new(trace, SimTime::ZERO, 1 << 20);
        let now = SimTime::from_micros(5_500);
        let d = p.offer(1500, now, &mut rng()).unwrap();
        assert!(d >= now, "delivered at {d:?}, offered at {now:?}");
        assert_eq!(d.as_millis(), 10);
    }

    #[test]
    fn trace_pipe_fifo_order_preserved() {
        let trace = MahimahiTrace::from_deliveries(vec![1, 2, 3, 4, 50]);
        let mut p = TracePipe::new(trace, SimTime::ZERO, 1 << 20);
        let mut r = rng();
        let mut last = SimTime::ZERO;
        for _ in 0..8 {
            let d = p.offer(1500, SimTime::ZERO, &mut r).unwrap();
            assert!(d >= last, "FIFO violated");
            last = d;
        }
    }

    #[test]
    fn trace_pipe_delay_added() {
        let trace = MahimahiTrace::from_deliveries(vec![5]);
        let mut p = TracePipe::new(trace, SimTime::from_millis(20), 1 << 20);
        let d = p.offer(1500, SimTime::ZERO, &mut rng()).unwrap();
        assert_eq!(d.as_millis(), 25);
    }

    #[test]
    fn trace_pipe_loss_series_switches_per_second() {
        let trace = MahimahiTrace::from_capacity_series(&[100.0; 10]);
        let mut p = TracePipe::new(trace, SimTime::ZERO, u64::MAX).with_loss_series(vec![0.0, 1.0]);
        let mut r = rng();
        // Second 0: lossless.
        assert!(p.offer(1500, SimTime::from_millis(100), &mut r).is_some());
        // Second 1 (and every odd second after wrap-around): certain loss.
        assert!(p.offer(1500, SimTime::from_millis(1500), &mut r).is_none());
        assert!(p.offer(1500, SimTime::from_secs(7), &mut r).is_none());
    }

    #[test]
    fn trace_pipe_loss_series_wraps_like_the_schedule() {
        // Loss 1.0 in even seconds, 0.0 in odd ones. Past the series end
        // the pattern must repeat (Mahimahi wrap-around), not freeze at
        // the final entry — with the old clamp, second 2 would have used
        // the last (lossless) entry and delivered.
        let trace = MahimahiTrace::from_capacity_series(&[100.0; 2]);
        let mut p = TracePipe::new(trace, SimTime::ZERO, u64::MAX).with_loss_series(vec![1.0, 0.0]);
        let mut r = rng();
        assert!(p.offer(1500, SimTime::from_millis(100), &mut r).is_none());
        assert!(p.offer(1500, SimTime::from_millis(1100), &mut r).is_some());
        // Wrapped: second 2 ≡ second 0 (lossy), second 3 ≡ second 1.
        assert!(p.offer(1500, SimTime::from_millis(2100), &mut r).is_none());
        assert!(p.offer(1500, SimTime::from_millis(3100), &mut r).is_some());
    }

    #[test]
    fn const_pipe_gc_frees_queue_when_transmission_completes() {
        // 12 Mbps → 1 ms per 1500-B packet; 100 ms propagation; queue
        // limit 3000 B = one in service + two waiting.
        let mut p = ConstPipe::new(12.0, SimTime::from_millis(100), 0.0, 3000);
        let mut r = rng();
        for _ in 0..3 {
            assert!(p.offer(1500, SimTime::ZERO, &mut r).is_some());
        }
        assert!(p.offer(1500, SimTime::ZERO, &mut r).is_none(), "queue full");
        // At t = 1 ms the first packet's *transmission* is done (delivery
        // is only at 101 ms); its queue slot must be free already.
        let e = p.offer(1500, SimTime::from_millis(1), &mut r);
        assert_eq!(e.unwrap().as_millis(), 104); // tx 3→4 ms + 100 ms prop
    }

    #[test]
    fn trace_pipe_counts_head_packet_against_queue() {
        // No serialisation server in Mahimahi: a packet occupies the
        // queue until its delivery opportunity, so with a 3000-B limit
        // only two undelivered packets fit (ConstPipe would admit three).
        let trace = MahimahiTrace::from_deliveries(vec![5, 10, 15, 20]);
        let mut p = TracePipe::new(trace, SimTime::ZERO, 3000);
        let mut r = rng();
        assert!(p.offer(1500, SimTime::ZERO, &mut r).is_some());
        assert!(p.offer(1500, SimTime::ZERO, &mut r).is_some());
        assert!(p.offer(1500, SimTime::ZERO, &mut r).is_none());
        assert_eq!(p.stats().dropped_queue, 1);
        // Once the first opportunity (t = 5 ms) passes, space frees up.
        assert!(p.offer(1500, SimTime::from_millis(6), &mut r).is_some());
    }

    #[test]
    fn trace_pipe_rate_matches_trace() {
        // Saturate a 24 Mbps trace pipe for 5 s: delivered ≈ 24 Mbit/s.
        let trace = MahimahiTrace::from_capacity_series(&[24.0; 5]);
        let mut p = TracePipe::new(trace, SimTime::ZERO, 60_000);
        let mut r = rng();
        let mut delivered = 0u64;
        let mut t = SimTime::ZERO;
        while t < SimTime::from_secs(5) {
            if let Some(d) = p.offer(1500, t, &mut r) {
                if d < SimTime::from_secs(5) {
                    delivered += 1500 * 8;
                }
            }
            t += SimTime::from_micros(300); // offered ~40 Mbps
        }
        let mbps = delivered as f64 / 5e6;
        assert!((mbps - 24.0).abs() < 1.5, "delivered {mbps} Mbps");
    }

    #[test]
    #[should_panic(expected = "delivery opportunity")]
    fn empty_trace_pipe_panics() {
        let empty = MahimahiTrace::from_capacity_series(&[0.0]);
        let _ = TracePipe::new(empty, SimTime::ZERO, 1 << 20);
    }

    #[test]
    fn queue_hiwater_tracks_peak_occupancy() {
        // ConstPipe: the mark is "queued bytes after admission", and the
        // in-service head packet occupies the transmitter, not the queue —
        // so packets 1–4 read 1500, 1500, 3000, 4500.
        let mut p = ConstPipe::new(1.0, SimTime::ZERO, 0.0, 4500);
        let mut r = rng();
        assert_eq!(p.queue_hiwater_bytes(), 0);
        let _ = p.offer(1500, SimTime::ZERO, &mut r);
        assert_eq!(p.queue_hiwater_bytes(), 1500);
        let _ = p.offer(1500, SimTime::ZERO, &mut r);
        assert_eq!(p.queue_hiwater_bytes(), 1500);
        let _ = p.offer(1500, SimTime::ZERO, &mut r);
        assert_eq!(p.queue_hiwater_bytes(), 3000);
        assert!(p.offer(1500, SimTime::ZERO, &mut r).is_some());
        assert_eq!(p.queue_hiwater_bytes(), 4500);
        // Rejected packets never raise the mark.
        assert!(p.offer(1500, SimTime::ZERO, &mut r).is_none());
        assert_eq!(p.queue_hiwater_bytes(), 4500);
        // The mark is a lifetime peak: it survives the queue draining.
        let _ = p.offer(100, SimTime::from_secs(60), &mut r);
        assert_eq!(p.queue_hiwater_bytes(), 4500);

        // TracePipe counts the head packet too.
        let trace = MahimahiTrace::from_deliveries(vec![5, 10, 15, 20]);
        let mut tp = TracePipe::new(trace, SimTime::ZERO, 3000);
        assert!(tp.offer(1500, SimTime::ZERO, &mut r).is_some());
        assert!(tp.offer(1500, SimTime::ZERO, &mut r).is_some());
        assert_eq!(tp.queue_hiwater_bytes(), 3000);

        // Wrappers forward the inner pipe's reading.
        let wrapped = FaultPipe::new(
            JitterPipe::new(tp, SimTime::from_millis(1)),
            FaultSchedule::new(),
        );
        assert_eq!(wrapped.queue_hiwater_bytes(), 3000);
    }

    #[test]
    fn stats_account_for_everything() {
        let mut p = ConstPipe::new(12.0, SimTime::ZERO, 0.5, 4500);
        let mut r = rng();
        for i in 0..1000 {
            let _ = p.offer(1500, SimTime::from_millis(i), &mut r);
        }
        let s = p.stats();
        assert_eq!(
            s.offered_packets,
            s.delivered_packets + s.dropped_random + s.dropped_queue
        );
        assert!(s.drop_rate() > 0.4);
    }
}

/// A fault-injection wrapper in the smoltcp examples' spirit: adds random
/// per-packet jitter (which reorders at the receiver) on top of an inner
/// pipe. Useful for exercising transport resequencing logic under
/// conditions neither base pipe produces.
#[derive(Debug)]
pub struct JitterPipe<P: Pipe> {
    inner: P,
    max_jitter: SimTime,
}

impl<P: Pipe> JitterPipe<P> {
    /// Wraps `inner`, adding uniform jitter in `[0, max_jitter]` to every
    /// delivery.
    pub fn new(inner: P, max_jitter: SimTime) -> Self {
        Self { inner, max_jitter }
    }
}

impl<P: Pipe> Pipe for JitterPipe<P> {
    fn offer(&mut self, size_bytes: u32, now: SimTime, rng: &mut SmallRng) -> Option<SimTime> {
        let base = self.inner.offer(size_bytes, now, rng)?;
        // Zero jitter must be *exactly* transparent — including the RNG
        // stream, which lossy inner pipes share. Drawing `gen_range(0..=0)`
        // here would advance the stream and silently change every
        // subsequent loss realisation (the `FaultPipe` empty-schedule
        // contract, pinned by `zero_jitter_is_transparent`).
        if self.max_jitter == SimTime::ZERO {
            return Some(base);
        }
        let j = rng.gen_range(0..=self.max_jitter.as_nanos());
        Some(base + SimTime::from_nanos(j))
    }

    fn stats(&self) -> PipeStats {
        self.inner.stats()
    }

    fn queued_bytes(&self, now: SimTime) -> u64 {
        self.inner.queued_bytes(now)
    }

    fn queue_hiwater_bytes(&self) -> u64 {
        self.inner.queue_hiwater_bytes()
    }
}

#[cfg(test)]
mod jitter_tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn jitter_never_reduces_delay_and_can_reorder() {
        let inner = ConstPipe::new(1000.0, SimTime::from_millis(10), 0.0, u64::MAX);
        let mut plain = ConstPipe::new(1000.0, SimTime::from_millis(10), 0.0, u64::MAX);
        let mut jittery = JitterPipe::new(inner, SimTime::from_millis(8));
        let mut r1 = SmallRng::seed_from_u64(4);
        let mut r2 = SmallRng::seed_from_u64(4);
        let mut reordered = false;
        let mut last = SimTime::ZERO;
        for i in 0..200u64 {
            let t = SimTime::from_micros(i * 50);
            let base = plain.offer(1500, t, &mut r1).unwrap();
            let jit = jittery.offer(1500, t, &mut r2).unwrap();
            assert!(jit >= base, "jitter made a packet early");
            if jit < last {
                reordered = true;
            }
            last = jit;
        }
        assert!(reordered, "8 ms jitter over 50 µs spacing must reorder");
    }

    #[test]
    fn zero_jitter_is_transparent() {
        // Bit-for-bit against the bare pipe with a *lossy* inner: a
        // loss-free inner cannot observe RNG stream divergence, but a
        // lossy one turns any stray draw into a different loss
        // realisation a few packets later. (The zero-jitter wrapper once
        // drew `gen_range(0..=0)` per packet; this failed then.)
        let inner = ConstPipe::new(50.0, SimTime::from_millis(5), 0.15, u64::MAX);
        let mut plain = ConstPipe::new(50.0, SimTime::from_millis(5), 0.15, u64::MAX);
        let mut wrapped = JitterPipe::new(inner, SimTime::ZERO);
        let mut r1 = SmallRng::seed_from_u64(9);
        let mut r2 = SmallRng::seed_from_u64(9);
        let mut dropped = 0u32;
        for i in 0..500u64 {
            let t = SimTime::from_millis(i);
            let p = plain.offer(1500, t, &mut r1);
            assert_eq!(wrapped.offer(1500, t, &mut r2), p, "packet {i}");
            dropped += p.is_none() as u32;
        }
        assert_eq!(wrapped.stats(), plain.stats());
        assert!(dropped > 0, "inner must actually exercise the RNG");
        // The RNG streams themselves must still be aligned afterwards.
        use rand::Rng as _;
        assert_eq!(r1.gen::<u64>(), r2.gen::<u64>());
    }
}

/// What an injected fault does to packets inside its window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Drop every packet (a forced outage).
    Outage,
    /// Additional i.i.d. loss probability on top of the inner pipe's own.
    Loss(f64),
    /// Added one-way delay, milliseconds (an RTT spike contributes half
    /// its magnitude per direction).
    ExtraDelayMs(u64),
}

/// One scheduled fault: a kind active during `[start_ms, end_ms)` of
/// simulation time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultWindow {
    pub start_ms: u64,
    pub end_ms: u64,
    pub kind: FaultKind,
}

impl FaultWindow {
    /// Whether the window covers `now`.
    pub fn covers(&self, now: SimTime) -> bool {
        let ms = now.as_millis();
        self.start_ms <= ms && ms < self.end_ms
    }
}

/// A schedule of faults for one direction of one path — the scenario
/// engine compiles its typed perturbations down to this, and a
/// [`FaultPipe`] executes it. An empty schedule is exactly transparent
/// (no RNG draws, no timing changes), so fault-capable harnesses can
/// always wrap without disturbing fault-free runs.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultSchedule {
    windows: Vec<FaultWindow>,
}

impl FaultSchedule {
    /// An empty (transparent) schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether any fault is scheduled at all.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// The scheduled windows.
    pub fn windows(&self) -> &[FaultWindow] {
        &self.windows
    }

    /// Adds a window (builder style).
    pub fn with(mut self, window: FaultWindow) -> Self {
        self.windows.push(window);
        self
    }

    /// Adds a forced outage over `[start_s, end_s)` seconds.
    pub fn outage_s(self, start_s: u64, end_s: u64) -> Self {
        self.with(FaultWindow {
            start_ms: start_s * 1000,
            end_ms: end_s * 1000,
            kind: FaultKind::Outage,
        })
    }

    /// Adds extra random loss over `[start_s, end_s)` seconds.
    pub fn loss_s(self, start_s: u64, end_s: u64, p: f64) -> Self {
        self.with(FaultWindow {
            start_ms: start_s * 1000,
            end_ms: end_s * 1000,
            kind: FaultKind::Loss(p.clamp(0.0, 1.0)),
        })
    }

    /// Adds extra one-way delay over `[start_s, end_s)` seconds.
    pub fn extra_delay_s(self, start_s: u64, end_s: u64, extra_ms: u64) -> Self {
        self.with(FaultWindow {
            start_ms: start_s * 1000,
            end_ms: end_s * 1000,
            kind: FaultKind::ExtraDelayMs(extra_ms),
        })
    }

    /// The windows covering `now`, in schedule order.
    fn active(&self, now: SimTime) -> impl Iterator<Item = &FaultWindow> {
        self.windows.iter().filter(move |w| w.covers(now))
    }
}

/// Composes a [`FaultSchedule`] onto any inner pipe: scheduled outages
/// and loss consume packets *before* they reach the inner pipe (the
/// fault sits between the sender and the link, like a mid-path failure),
/// and scheduled extra delay shifts deliveries the inner pipe grants.
///
/// Drops caused by the schedule are accounted in
/// [`PipeStats::dropped_fault`], so a harness can separate injected
/// degradation from the link's own behaviour.
#[derive(Debug, Clone)]
pub struct FaultPipe<P: Pipe> {
    inner: P,
    schedule: FaultSchedule,
    /// Packets the schedule consumed (they never reached `inner`).
    fault_offered_packets: u64,
    fault_offered_bytes: u64,
    fault_dropped: u64,
}

impl<P: Pipe> FaultPipe<P> {
    /// Wraps `inner` under `schedule`.
    pub fn new(inner: P, schedule: FaultSchedule) -> Self {
        Self {
            inner,
            schedule,
            fault_offered_packets: 0,
            fault_offered_bytes: 0,
            fault_dropped: 0,
        }
    }
}

impl<P: Pipe> Pipe for FaultPipe<P> {
    fn offer(&mut self, size_bytes: u32, now: SimTime, rng: &mut SmallRng) -> Option<SimTime> {
        let mut extra = SimTime::ZERO;
        for w in self.schedule.active(now) {
            let dropped = match w.kind {
                FaultKind::Outage => true,
                FaultKind::Loss(p) => p > 0.0 && rng.gen_bool(p.clamp(0.0, 1.0)),
                FaultKind::ExtraDelayMs(ms) => {
                    extra += SimTime::from_millis(ms);
                    false
                }
            };
            if dropped {
                self.fault_offered_packets += 1;
                self.fault_offered_bytes += size_bytes as u64;
                self.fault_dropped += 1;
                return None;
            }
        }
        let base = self.inner.offer(size_bytes, now, rng)?;
        Some(base + extra)
    }

    fn stats(&self) -> PipeStats {
        let mut s = self.inner.stats();
        s.offered_packets += self.fault_offered_packets;
        s.offered_bytes += self.fault_offered_bytes;
        s.dropped_fault += self.fault_dropped;
        s
    }

    fn queued_bytes(&self, now: SimTime) -> u64 {
        self.inner.queued_bytes(now)
    }

    fn queue_hiwater_bytes(&self) -> u64 {
        self.inner.queue_hiwater_bytes()
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use rand::SeedableRng;

    fn fast_inner() -> ConstPipe {
        ConstPipe::new(1000.0, SimTime::from_millis(10), 0.0, u64::MAX)
    }

    #[test]
    fn empty_schedule_is_transparent() {
        // Bit-for-bit: same deliveries AND the same RNG stream as the
        // bare pipe, even with a lossy inner pipe drawing randomness.
        let mut plain = ConstPipe::new(80.0, SimTime::from_millis(10), 0.1, 1 << 20);
        let mut wrapped = FaultPipe::new(
            ConstPipe::new(80.0, SimTime::from_millis(10), 0.1, 1 << 20),
            FaultSchedule::new(),
        );
        let mut r1 = SmallRng::seed_from_u64(11);
        let mut r2 = SmallRng::seed_from_u64(11);
        for i in 0..500u64 {
            let t = SimTime::from_micros(i * 137);
            assert_eq!(
                wrapped.offer(1500, t, &mut r2),
                plain.offer(1500, t, &mut r1),
                "packet {i}"
            );
        }
        assert_eq!(wrapped.stats(), plain.stats());
    }

    #[test]
    fn outage_window_drops_exactly_inside() {
        let mut p = FaultPipe::new(fast_inner(), FaultSchedule::new().outage_s(2, 4));
        let mut r = SmallRng::seed_from_u64(1);
        assert!(p.offer(1500, SimTime::from_millis(1999), &mut r).is_some());
        assert!(p.offer(1500, SimTime::from_millis(2000), &mut r).is_none());
        assert!(p.offer(1500, SimTime::from_millis(3999), &mut r).is_none());
        assert!(p.offer(1500, SimTime::from_millis(4000), &mut r).is_some());
        let s = p.stats();
        assert_eq!(s.dropped_fault, 2);
        assert_eq!(s.offered_packets, 4);
        assert_eq!(s.delivered_packets, 2);
        assert!((s.drop_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn loss_window_adds_loss_only_inside() {
        let mut p = FaultPipe::new(fast_inner(), FaultSchedule::new().loss_s(0, 10, 0.5));
        let mut r = SmallRng::seed_from_u64(5);
        let mut dropped_in = 0u32;
        for i in 0..2000u64 {
            if p.offer(100, SimTime::from_micros(i * 500), &mut r)
                .is_none()
            {
                dropped_in += 1;
            }
        }
        let rate = dropped_in as f64 / 2000.0;
        assert!((rate - 0.5).abs() < 0.05, "in-window loss {rate}");
        // Outside the window the pipe is clean.
        for i in 0..200u64 {
            assert!(p
                .offer(
                    100,
                    SimTime::from_secs(20) + SimTime::from_micros(i * 500),
                    &mut r
                )
                .is_some());
        }
    }

    #[test]
    fn extra_delay_shifts_deliveries() {
        let mut plain = fast_inner();
        let mut delayed =
            FaultPipe::new(fast_inner(), FaultSchedule::new().extra_delay_s(0, 1, 150));
        let mut r1 = SmallRng::seed_from_u64(3);
        let mut r2 = SmallRng::seed_from_u64(3);
        let base = plain.offer(1500, SimTime::ZERO, &mut r1).unwrap();
        let spiked = delayed.offer(1500, SimTime::ZERO, &mut r2).unwrap();
        assert_eq!(spiked, base + SimTime::from_millis(150));
        // After the window: no shift.
        let t = SimTime::from_secs(2);
        let base = plain.offer(1500, t, &mut r1).unwrap();
        let late = delayed.offer(1500, t, &mut r2).unwrap();
        assert_eq!(late, base);
    }

    #[test]
    fn overlapping_windows_compose() {
        // Delay + loss overlapping: surviving packets get the delay.
        let sched = FaultSchedule::new()
            .extra_delay_s(0, 10, 40)
            .loss_s(0, 10, 0.3);
        let mut p = FaultPipe::new(fast_inner(), sched);
        let mut r = SmallRng::seed_from_u64(8);
        let mut survivors = 0u32;
        for i in 0..1000u64 {
            let t = SimTime::from_micros(i * 800);
            if let Some(d) = p.offer(100, t, &mut r) {
                assert!(d >= t + SimTime::from_millis(50), "delay missing at {i}");
                survivors += 1;
            }
        }
        let survive_rate = survivors as f64 / 1000.0;
        assert!(
            (survive_rate - 0.7).abs() < 0.05,
            "survivors {survive_rate}"
        );
        assert_eq!(p.stats().dropped_fault as u32, 1000 - survivors);
    }
}
