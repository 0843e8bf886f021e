//! Dense sequence-number sets on ring bitmaps.
//!
//! Transport reassembly and reinjection state is dense near a
//! monotonically advancing base (`rcv_nxt`, `data_rcv_nxt`, `data_una`):
//! members live within a window of the base, the base only moves forward,
//! and everything below it is dead. [`SeqBitmap`] exploits that shape — a
//! ring of 64-bit words indexed by `seq / 64`, so insert/remove/contains
//! are one shift-and-mask instead of a `BTreeSet` node walk, and advancing
//! the base reclaims whole words with a popcount.

/// A set of `u64` sequence numbers held as a ring of 64-bit words.
///
/// The ring covers `64 * words.len()` consecutive sequence numbers
/// starting at the word containing `base` and grows by doubling when an
/// insert lands beyond the top. Members below `base` cannot exist:
/// [`SeqBitmap::advance_to`] clears them as the base moves forward, and
/// [`SeqBitmap::insert`] requires `seq >= base`.
#[derive(Debug, Clone)]
pub struct SeqBitmap {
    /// Ring storage; length is always a power of two.
    words: Vec<u64>,
    /// Lowest representable sequence; bits below it are kept zero.
    base: u64,
    /// Number of set bits.
    count: usize,
}

impl Default for SeqBitmap {
    fn default() -> Self {
        Self::new()
    }
}

impl SeqBitmap {
    const INIT_WORDS: usize = 4;

    /// An empty set based at sequence 0.
    pub fn new() -> Self {
        Self {
            words: vec![0; Self::INIT_WORDS],
            base: 0,
            count: 0,
        }
    }

    #[inline]
    fn word_mask(&self) -> u64 {
        self.words.len() as u64 - 1
    }

    #[inline]
    fn base_word(&self) -> u64 {
        self.base >> 6
    }

    #[inline]
    fn slot(&self, word: u64) -> usize {
        (word & self.word_mask()) as usize
    }

    /// Number of members.
    #[inline]
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when no members are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The advance point: members below it are definitionally absent.
    #[inline]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// True if `seq` is a member.
    #[inline]
    pub fn contains(&self, seq: u64) -> bool {
        if seq < self.base {
            return false;
        }
        let w = seq >> 6;
        if w >= self.base_word() + self.words.len() as u64 {
            return false;
        }
        (self.words[self.slot(w)] >> (seq & 63)) & 1 == 1
    }

    /// Inserts `seq` (which must be at or above the advance point);
    /// returns true if it was newly inserted.
    #[inline]
    pub fn insert(&mut self, seq: u64) -> bool {
        debug_assert!(
            seq >= self.base,
            "SeqBitmap::insert({seq}) below the advance point {}",
            self.base
        );
        if seq < self.base {
            return false;
        }
        let w = seq >> 6;
        while w >= self.base_word() + self.words.len() as u64 {
            self.grow();
        }
        let slot = self.slot(w);
        let bit = 1u64 << (seq & 63);
        let newly = self.words[slot] & bit == 0;
        self.words[slot] |= bit;
        self.count += newly as usize;
        newly
    }

    /// Removes `seq`; returns true if it was a member.
    #[inline]
    pub fn remove(&mut self, seq: u64) -> bool {
        if seq < self.base {
            return false;
        }
        let w = seq >> 6;
        if w >= self.base_word() + self.words.len() as u64 {
            return false;
        }
        let slot = self.slot(w);
        let bit = 1u64 << (seq & 63);
        let was = self.words[slot] & bit != 0;
        self.words[slot] &= !bit;
        self.count -= was as usize;
        was
    }

    /// Advances the base to `n`, dropping every member below it. Words
    /// that leave the window are zeroed so the ring slots they vacate can
    /// be reused for higher sequences without reallocation.
    pub fn advance_to(&mut self, n: u64) {
        if n <= self.base {
            return;
        }
        if self.count == 0 {
            // Every word is already zero: moving the base is the whole
            // advance (a slot depends on the word index alone).
            self.base = n;
            return;
        }
        let end_word = n >> 6;
        let top_word = self.base_word() + self.words.len() as u64;
        let mut w = self.base_word();
        while w < end_word.min(top_word) {
            let slot = self.slot(w);
            self.count -= self.words[slot].count_ones() as usize;
            self.words[slot] = 0;
            w += 1;
        }
        if end_word < top_word && n & 63 != 0 {
            let below = (1u64 << (n & 63)) - 1;
            let slot = self.slot(end_word);
            self.count -= (self.words[slot] & below).count_ones() as usize;
            self.words[slot] &= !below;
        }
        self.base = n;
    }

    /// Doubles the ring, re-seating every live word at its new slot.
    fn grow(&mut self) {
        let doubled = vec![0; self.words.len() * 2];
        let old = std::mem::replace(&mut self.words, doubled);
        let old_mask = old.len() as u64 - 1;
        let start = self.base_word();
        for w in start..start + old.len() as u64 {
            let v = old[(w & old_mask) as usize];
            let slot = self.slot(w);
            self.words[slot] = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn insert_remove_contains() {
        let mut b = SeqBitmap::new();
        assert!(b.insert(3));
        assert!(!b.insert(3));
        assert!(b.contains(3));
        assert!(!b.contains(4));
        assert_eq!(b.len(), 1);
        assert!(b.remove(3));
        assert!(!b.remove(3));
        assert!(b.is_empty());
    }

    #[test]
    fn grows_past_initial_window() {
        let mut b = SeqBitmap::new();
        for s in [0u64, 100, 1000, 10_000, 100_000] {
            assert!(b.insert(s));
        }
        for s in [0u64, 100, 1000, 10_000, 100_000] {
            assert!(b.contains(s), "{s} lost across growth");
        }
        assert_eq!(b.len(), 5);
    }

    #[test]
    fn advance_drops_below_and_keeps_above() {
        let mut b = SeqBitmap::new();
        for s in 0..200u64 {
            b.insert(s);
        }
        b.advance_to(130);
        assert_eq!(b.len(), 70);
        assert!(!b.contains(129));
        assert!(b.contains(130));
        assert!(b.contains(199));
        // Advancing backwards is a no-op.
        b.advance_to(50);
        assert_eq!(b.len(), 70);
        // Advancing beyond everything empties the set.
        b.advance_to(100_000);
        assert!(b.is_empty());
        // And the ring is reusable at the new base.
        assert!(b.insert(100_005));
        assert!(b.contains(100_005));
    }

    #[test]
    fn ring_slots_reused_after_advance() {
        let mut b = SeqBitmap::new();
        // Cycle the window far enough to wrap the ring many times.
        for round in 0..64u64 {
            let base = round * 192;
            for s in base..base + 64 {
                b.insert(s);
            }
            assert_eq!(b.len(), 64, "round {round}");
            b.advance_to(base + 192);
            assert!(b.is_empty(), "round {round}");
        }
    }

    #[test]
    fn matches_btreeset_on_random_ops() {
        // Deterministic pseudo-random walk: same ops against both
        // backends, advancing base monotonically like the endpoints do.
        let mut ring = SeqBitmap::new();
        let mut tree = BTreeSet::new();
        let mut base = 0u64;
        let mut x = 0x9e3779b97f4a7c15u64;
        for step in 0..20_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let seq = base + (x % 500);
            match x % 11 {
                0..=4 => {
                    assert_eq!(ring.insert(seq), tree.insert(seq), "step {step}");
                }
                5..=7 => {
                    assert_eq!(ring.remove(seq), tree.remove(&seq), "step {step}");
                }
                8..=9 => {
                    assert_eq!(ring.contains(seq), tree.contains(&seq), "step {step}");
                }
                _ => {
                    base += x % 97;
                    ring.advance_to(base);
                    tree = tree.split_off(&base);
                }
            }
            assert_eq!(ring.len(), tree.len(), "step {step}");
        }
    }
}
