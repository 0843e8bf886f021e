//! Scheduler-equivalence proptest: the calendar queue must pop in exactly
//! the order a reference `BinaryHeap<Reverse<(at, seq)>>` does — including
//! FIFO tie-break on equal timestamps — over randomized interleaved
//! push/pop workloads. The conformance goldens ride on this equivalence:
//! the simulator swapped its global heap for the calendar queue, and any
//! ordering divergence would silently change every RNG-dependent result.

use leo_netsim::sched::CalendarQueue;
use leo_netsim::SimTime;
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One step of a workload: push a batch of events at `base + offset`
/// timestamps (dense, so same-day and same-instant ties are common), or
/// pop once.
#[derive(Debug, Clone)]
enum Op {
    /// (advance_ns, per-event offsets; an empty offset means "tie with
    /// the batch base timestamp").
    Push(u64, Vec<Option<u64>>),
    Pop,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // 3:2 push-to-pop mix; a zero tie-flag stands in for `None` (the
    // vendored mini-proptest has no `option::of`).
    (
        0u32..5,
        0u64..50_000_000,
        prop::collection::vec((0u64..5_000_000, 0u32..3), 1..5),
    )
        .prop_map(|(sel, adv, offs)| {
            if sel < 3 {
                Op::Push(
                    adv,
                    offs.into_iter()
                        .map(|(off, tie)| (tie != 0).then_some(off))
                        .collect(),
                )
            } else {
                Op::Pop
            }
        })
}

proptest! {
    #[test]
    fn calendar_queue_matches_reference_heap(ops in prop::collection::vec(op_strategy(), 1..120)) {
        let mut cal: CalendarQueue<u64> = CalendarQueue::new();
        let mut heap: BinaryHeap<Reverse<(SimTime, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut base_ns = 0u64;
        for op in ops {
            match op {
                Op::Push(advance, offsets) => {
                    base_ns += advance;
                    for off in offsets {
                        let at = SimTime::from_nanos(base_ns + off.unwrap_or(0));
                        seq += 1;
                        cal.push(at, seq, seq);
                        heap.push(Reverse((at, seq)));
                    }
                }
                Op::Pop => {
                    let want = heap.pop().map(|Reverse((at, s))| (at, s, s));
                    prop_assert_eq!(cal.pop(), want);
                }
            }
        }
        // Drain: the tails must agree to the last event.
        while let Some(Reverse((at, s))) = heap.pop() {
            prop_assert_eq!(cal.pop(), Some((at, s, s)));
        }
        prop_assert!(cal.is_empty());
    }

    #[test]
    fn peek_matches_reference_heap(ops in prop::collection::vec(op_strategy(), 1..80)) {
        // peek names the heap's minimum with no side effect on the queued
        // order, however pushes and pops interleave with it.
        let mut cal: CalendarQueue<u64> = CalendarQueue::new();
        let mut heap: BinaryHeap<Reverse<(SimTime, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut base_ns = 0u64;
        for op in ops {
            match op {
                Op::Push(advance, offsets) => {
                    base_ns += advance;
                    for off in offsets {
                        let at = SimTime::from_nanos(base_ns + off.unwrap_or(0));
                        seq += 1;
                        cal.push(at, seq, seq);
                        heap.push(Reverse((at, seq)));
                    }
                }
                Op::Pop => {
                    let want = heap.peek().map(|Reverse((at, s))| (*at, *s));
                    prop_assert_eq!(cal.peek(), want);
                    if seq.is_multiple_of(2) {
                        let want = heap.pop().map(|Reverse((at, s))| (at, s, s));
                        prop_assert_eq!(cal.pop(), want);
                    }
                }
            }
        }
        while let Some(Reverse((at, s))) = heap.pop() {
            prop_assert_eq!(cal.pop(), Some((at, s, s)));
        }
    }
}
