//! Word-boundary proptests for the sequence-set ring bitmap.
//!
//! [`SeqBitmap::advance_to`] reclaims storage in three distinct code
//! paths — whole words swept in the ring walk, a partial mask on the
//! word containing the new base, and the backward/overshoot early
//! returns — and [`SeqBitmap::grow`] re-seats live words under a new
//! slot mask. All of the interesting bugs in that kind of code live at
//! 64-bit word boundaries, so the generators here bias every sequence
//! number and advance point toward `k * 64 ± ε`, then check the bitmap
//! against a `BTreeSet` oracle after every operation: membership over
//! the live window, exact cardinality, and insert/remove return values.

use leo_transport::seqops::SeqBitmap;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// One operation of a randomized endpoint history.
#[derive(Debug, Clone)]
enum Op {
    /// Insert `base + offset`.
    Insert(u64),
    /// Remove `base + offset` (may or may not be a member).
    Remove(u64),
    /// Advance the base by `delta` (0 exercises the no-op path).
    Advance(u64),
}

/// Offsets hugging word boundaries: `k * 64 + e` for `e ∈ {-2..2}`,
/// plus a uniform tail so runs of set bits span whole words.
fn boundary_offset() -> impl Strategy<Value = u64> {
    prop_oneof![
        4 => (0u64..8, -2i64..3).prop_map(|(k, e)| (k * 64).saturating_add_signed(e)),
        1 => 0u64..512,
    ]
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        4 => boundary_offset().prop_map(Op::Insert),
        2 => boundary_offset().prop_map(Op::Remove),
        1 => boundary_offset().prop_map(Op::Advance),
    ];
    prop::collection::vec(op, 1..400)
}

/// Applies one op to the bitmap and the oracle, asserting the paired
/// return values agree. Returns the new base.
fn step(bitmap: &mut SeqBitmap, oracle: &mut BTreeSet<u64>, base: u64, op: &Op) -> u64 {
    match *op {
        Op::Insert(off) => {
            let seq = base + off;
            assert_eq!(bitmap.insert(seq), oracle.insert(seq), "insert {seq}");
            base
        }
        Op::Remove(off) => {
            let seq = base + off;
            assert_eq!(bitmap.remove(seq), oracle.remove(&seq), "remove {seq}");
            base
        }
        Op::Advance(delta) => {
            let n = base + delta;
            bitmap.advance_to(n);
            *oracle = oracle.split_off(&n);
            n
        }
    }
}

/// Full-state comparison: cardinality plus membership across the live
/// window (and a margin above it, where both must read absent).
fn assert_matches(bitmap: &SeqBitmap, oracle: &BTreeSet<u64>, base: u64) {
    assert_eq!(bitmap.len(), oracle.len(), "len after base={base}");
    assert_eq!(bitmap.is_empty(), oracle.is_empty());
    let hi = oracle.iter().next_back().copied().unwrap_or(base) + 130;
    for seq in base.saturating_sub(130)..hi {
        assert_eq!(
            bitmap.contains(seq),
            oracle.contains(&seq),
            "contains({seq}) with base={base}"
        );
    }
}

proptest! {
    /// The ring bitmap matches the ordered-set oracle after every
    /// boundary-hugging operation.
    #[test]
    fn seq_bitmap_matches_btreeset_oracle(ops in ops()) {
        let mut bitmap = SeqBitmap::new();
        let mut oracle = BTreeSet::new();
        let mut base = 0u64;
        for op in &ops {
            base = step(&mut bitmap, &mut oracle, base, op);
            assert_eq!(bitmap.base(), base);
        }
        assert_matches(&bitmap, &oracle, base);
    }

    /// Same walk, but with the window repeatedly advanced far past the
    /// ring's top so whole-ring reclamation and slot reuse (the wrap
    /// path of `advance_to` + the re-seat path of `grow`) are forced on
    /// every lap.
    #[test]
    fn ring_wraps_stay_exact(
        laps in 1usize..8,
        ops in ops(),
        jump in prop_oneof![Just(63u64), Just(64u64), Just(65u64), Just(4096u64), 1u64..10_000],
    ) {
        let mut bitmap = SeqBitmap::new();
        let mut oracle = BTreeSet::new();
        let mut base = 0u64;
        for lap in 0..laps {
            for op in &ops {
                base = step(&mut bitmap, &mut oracle, base, op);
            }
            assert_matches(&bitmap, &oracle, base);
            // Jump the window: everything below the new base must die,
            // everything at or above it must survive the word sweep.
            base += jump * (lap as u64 + 1);
            bitmap.advance_to(base);
            oracle = oracle.split_off(&base);
            assert_matches(&bitmap, &oracle, base);
        }
    }

    /// The bitmap the endpoints hold as their out-of-order set agrees
    /// with a raw `BTreeSet` driven through the same insert/remove
    /// discipline at a fixed base, checking `contains` and `len` after
    /// every operation.
    #[test]
    fn ooo_set_ring_matches_btreeset(offsets in prop::collection::vec(boundary_offset(), 1..200)) {
        let mut set = SeqBitmap::new();
        let mut oracle = BTreeSet::new();
        for (i, &off) in offsets.iter().enumerate() {
            if i % 3 == 2 {
                assert_eq!(set.remove(off), oracle.remove(&off));
            } else {
                assert_eq!(set.insert(off), oracle.insert(off));
            }
            assert_eq!(set.contains(off), oracle.contains(&off));
            assert_eq!(set.len(), oracle.len());
        }
    }
}
