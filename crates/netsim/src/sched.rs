//! The indexed calendar-queue event scheduler.
//!
//! A classic calendar queue (Brown '88) specialised for the simulator's
//! access pattern: a rotating array of day buckets, each bucket a plain
//! `Vec` holding every event whose *day* (timestamp divided by a fixed
//! bucket width) is congruent to the bucket index modulo the bucket
//! count. Pops walk forward from the cursor day, so for the event loop's
//! monotone, densely packed schedules both `push` and `pop` are O(1)
//! amortised with **zero per-event heap allocation** in steady state —
//! bucket `Vec`s retain their capacity across the simulation.
//!
//! In the simulator the calendar orders agent timers and the rare
//! arrival that could not join its link's FIFO (a reordering pipe
//! delivered it before an earlier packet); in-order arrivals wait in
//! their link's own FIFO and never enter it (see [`crate::sim`]).
//! [`CalendarQueue::peek`] gives the simulator the calendar's head for
//! that merge.
//!
//! ## Ordering contract
//!
//! [`CalendarQueue::pop`] returns events in exactly ascending
//! `(at, seq)` order — byte-identical to popping a
//! `BinaryHeap<Reverse<(at, seq)>>` — including FIFO tie-break on equal
//! timestamps via the monotone `seq`. The conformance goldens depend on
//! this: `crates/netsim/tests/sched_equivalence.rs` pins it with a
//! proptest against the reference heap, and the conformance fuzzer
//! replays randomized workloads against the same reference every case.
//!
//! Timestamps behind the cursor are legal (the cursor rewinds on push),
//! so the queue never loses or reorders a late insertion; the simulator
//! separately counts such pops as clock regressions.

use crate::time::SimTime;

/// Width of one calendar day: 2^19 ns ≈ 524 µs. Chosen between the two
/// native event scales — sub-millisecond packet serialisation and
/// 10 ms-to-seconds protocol timers — so dense packet bursts share a
/// bucket while timer-only phases skip empty buckets cheaply.
const DAY_SHIFT: u32 = 19;

/// Initial bucket count (power of two).
const INITIAL_BUCKETS: usize = 256;

/// Grow when the average bucket would exceed this occupancy.
const MAX_LOAD: usize = 4;

#[derive(Debug, Clone)]
struct Entry<T> {
    at: SimTime,
    seq: u64,
    item: T,
}

/// A calendar queue over `(SimTime, seq)`-keyed items.
///
/// `seq` must be unique per queue instance (the simulator's monotone
/// event counter); equal-`at` entries pop in ascending `seq` order.
#[derive(Debug, Clone)]
pub struct CalendarQueue<T> {
    buckets: Vec<Vec<Entry<T>>>,
    /// `buckets.len() - 1`; bucket count is always a power of two.
    mask: u64,
    len: usize,
    /// The pop cursor's day. Invariant: no queued entry has a smaller day.
    current_day: u64,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> CalendarQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        Self {
            buckets: (0..INITIAL_BUCKETS).map(|_| Vec::new()).collect(),
            mask: (INITIAL_BUCKETS - 1) as u64,
            len: 0,
            current_day: 0,
        }
    }

    /// Number of queued entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn day_of(at: SimTime) -> u64 {
        at.as_nanos() >> DAY_SHIFT
    }

    /// Inserts an entry. `seq` is the FIFO tie-breaker and must be unique.
    pub fn push(&mut self, at: SimTime, seq: u64, item: T) {
        let day = Self::day_of(at);
        // A push at or behind the cursor (same-instant cascades, or a
        // pathological past timestamp) rewinds the cursor so the next pop
        // cannot walk past it.
        if self.len == 0 || day < self.current_day {
            self.current_day = day;
        }
        let idx = (day & self.mask) as usize;
        self.buckets[idx].push(Entry { at, seq, item });
        self.len += 1;
        if self.len > self.buckets.len() * MAX_LOAD {
            self.grow();
        }
    }

    /// The minimum `(at, seq)` key, without removing its entry. Takes
    /// `&mut self` because finding the minimum advances the cursor, which
    /// a following pop then starts from.
    pub fn peek(&mut self) -> Option<(SimTime, u64)> {
        let (b, i) = self.locate_min()?;
        let e = &self.buckets[b][i];
        Some((e.at, e.seq))
    }

    /// Removes and returns the minimum-`(at, seq)` entry.
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        let (b, i) = self.locate_min()?;
        let e = self.buckets[b].swap_remove(i);
        self.len -= 1;
        Some((e.at, e.seq, e.item))
    }

    /// The `(bucket, index)` of the minimum-`(at, seq)` entry; moves the
    /// cursor to its day.
    fn locate_min(&mut self) -> Option<(usize, usize)> {
        if self.len == 0 {
            return None;
        }
        let mut day = self.current_day;
        let mut visited = 0usize;
        loop {
            let idx = (day & self.mask) as usize;
            let bucket = &self.buckets[idx];
            // Scan for the bucket's minimum entry *of this day*; entries
            // from future calendar years share the bucket and are skipped.
            let mut best: Option<usize> = None;
            for (i, e) in bucket.iter().enumerate() {
                if Self::day_of(e.at) == day
                    && best.is_none_or(|j: usize| (e.at, e.seq) < (bucket[j].at, bucket[j].seq))
                {
                    best = Some(i);
                }
            }
            if let Some(i) = best {
                self.current_day = day;
                return Some((idx, i));
            }
            day += 1;
            visited += 1;
            if visited >= self.buckets.len() {
                // A full rotation without a same-day hit: the schedule is
                // sparse here. Jump the cursor straight to the earliest
                // queued day (O(n) scan, amortised over the rotation).
                day = self.min_day().expect("len > 0 implies an entry exists");
                visited = 0;
            }
        }
    }

    fn min_day(&self) -> Option<u64> {
        self.buckets
            .iter()
            .flatten()
            .map(|e| Self::day_of(e.at))
            .min()
    }

    fn grow(&mut self) {
        let new_count = self.buckets.len() * 2;
        let new_mask = (new_count - 1) as u64;
        let mut new_buckets: Vec<Vec<Entry<T>>> = (0..new_count).map(|_| Vec::new()).collect();
        for bucket in self.buckets.drain(..) {
            for e in bucket {
                let idx = (Self::day_of(e.at) & new_mask) as usize;
                new_buckets[idx].push(e);
            }
        }
        self.buckets = new_buckets;
        self.mask = new_mask;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = CalendarQueue::new();
        q.push(SimTime::from_millis(30), 1, "c");
        q.push(SimTime::from_millis(10), 2, "a");
        q.push(SimTime::from_millis(10), 3, "a2"); // FIFO tie
        q.push(SimTime::from_millis(20), 4, "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, _, s)| s)).collect();
        assert_eq!(order, vec!["a", "a2", "b", "c"]);
        assert!(q.is_empty());
    }

    #[test]
    fn peek_names_the_entry_pop_returns() {
        let mut q = CalendarQueue::new();
        assert_eq!(q.peek(), None);
        q.push(SimTime::from_secs(2), 5, "late");
        q.push(SimTime::from_millis(7), 9, "b");
        q.push(SimTime::from_millis(7), 8, "a");
        assert_eq!(q.peek(), Some((SimTime::from_millis(7), 8)));
        assert_eq!(q.len(), 3, "peek leaves the entry queued");
        // A push behind the peeked cursor still surfaces first.
        q.push(SimTime::from_millis(1), 10, "early");
        assert_eq!(q.peek(), Some((SimTime::from_millis(1), 10)));
        while let Some((at, seq)) = q.peek() {
            assert_eq!(q.pop().map(|(a, s, _)| (a, s)), Some((at, seq)));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn sparse_schedule_jumps_far_gaps() {
        // Events separated by hours: the rotation-jump must find them
        // without walking millions of empty days.
        let mut q = CalendarQueue::new();
        for h in [3u64, 1, 2] {
            q.push(SimTime::from_secs(h * 3600), h, h);
        }
        assert_eq!(q.pop().map(|(_, _, h)| h), Some(1));
        assert_eq!(q.pop().map(|(_, _, h)| h), Some(2));
        assert_eq!(q.pop().map(|(_, _, h)| h), Some(3));
    }

    #[test]
    fn past_push_rewinds_the_cursor() {
        let mut q = CalendarQueue::new();
        q.push(SimTime::from_secs(10), 1, 1u32);
        assert_eq!(q.pop().map(|(_, _, v)| v), Some(1));
        // Cursor now sits at the 10 s day; a push behind it must still
        // surface (the simulator records it as a clock regression, but
        // the queue must not lose it).
        q.push(SimTime::from_secs(1), 2, 2u32);
        q.push(SimTime::from_secs(11), 3, 3u32);
        assert_eq!(q.pop().map(|(_, _, v)| v), Some(2));
        assert_eq!(q.pop().map(|(_, _, v)| v), Some(3));
    }

    #[test]
    fn growth_preserves_order_against_reference_heap() {
        // Deterministic LCG workload big enough to force several grows.
        let mut q = CalendarQueue::new();
        let mut heap = BinaryHeap::new();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for seq in 0..10_000u64 {
            // Cluster timestamps to create plenty of same-day and
            // same-instant collisions.
            let at = SimTime::from_nanos((next() % 64) * 300_000 + (next() % 8) * 1_000_000_000);
            q.push(at, seq, seq);
            heap.push(Reverse((at, seq)));
        }
        while let Some(Reverse((at, seq))) = heap.pop() {
            assert_eq!(q.pop(), Some((at, seq, seq)));
        }
        assert!(q.is_empty());
    }
}
