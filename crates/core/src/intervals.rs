//! Sorted disjoint interval sets over symbol indices.
//!
//! The greedy chunk scheduler (§4.5) tracks, per packet, which symbol
//! ranges have been decoded so far. With overhanging chunks and multiple
//! collisions, decoded regions are generally a union of disjoint ranges,
//! not a prefix — hence a small interval-set type rather than a counter.

use std::ops::Range;

/// A set of `usize` indices stored as sorted, disjoint, non-adjacent
/// half-open ranges.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IntervalSet {
    ranges: Vec<Range<usize>>,
}

impl IntervalSet {
    /// The empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a range, merging with any overlapping or adjacent ranges.
    /// In place: two binary searches find the ranges `r` touches, which
    /// collapse into one.
    pub fn insert(&mut self, r: Range<usize>) {
        if r.is_empty() {
            return;
        }
        // ranges[..lo] end strictly before `r`; ranges[hi..] start
        // strictly after it; ranges[lo..hi] overlap or abut it
        let lo = self.ranges.partition_point(|e| e.end < r.start);
        let hi = self.ranges.partition_point(|e| e.start <= r.end);
        if lo == hi {
            self.ranges.insert(lo, r);
            return;
        }
        let merged = r.start.min(self.ranges[lo].start)..r.end.max(self.ranges[hi - 1].end);
        self.ranges[lo] = merged;
        self.ranges.drain(lo + 1..hi);
    }

    /// `true` if `idx` is in the set.
    pub fn contains(&self, idx: usize) -> bool {
        self.ranges
            .binary_search_by(|r| {
                if idx < r.start {
                    std::cmp::Ordering::Greater
                } else if idx >= r.end {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok()
    }

    /// `true` if the whole range is covered.
    pub fn covers(&self, r: Range<usize>) -> bool {
        if r.is_empty() {
            return true;
        }
        self.ranges.iter().any(|e| e.start <= r.start && r.end <= e.end)
    }

    /// Total number of indices covered.
    pub fn total(&self) -> usize {
        self.ranges.iter().map(|r| r.end - r.start).sum()
    }

    /// `true` if nothing is covered.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// The covered ranges, sorted.
    pub fn ranges(&self) -> &[Range<usize>] {
        &self.ranges
    }

    /// Iterates over the *gaps* of the set within `within`.
    pub fn gaps(&self, within: Range<usize>) -> Vec<Range<usize>> {
        let mut gaps = Vec::new();
        let mut cursor = within.start;
        for r in &self.ranges {
            if r.end <= within.start {
                continue;
            }
            if r.start >= within.end {
                break;
            }
            if r.start > cursor {
                gaps.push(cursor..r.start.min(within.end));
            }
            cursor = cursor.max(r.end);
        }
        if cursor < within.end {
            gaps.push(cursor..within.end);
        }
        gaps
    }
}

#[cfg(test)]
#[allow(clippy::single_range_in_vec_init)] // asserting on literal range lists
mod tests {
    use super::*;

    #[test]
    fn insert_and_contains() {
        let mut s = IntervalSet::new();
        s.insert(5..10);
        assert!(s.contains(5) && s.contains(9));
        assert!(!s.contains(4) && !s.contains(10));
    }

    #[test]
    fn merge_overlapping() {
        let mut s = IntervalSet::new();
        s.insert(0..5);
        s.insert(3..8);
        assert_eq!(s.ranges(), &[0..8]);
    }

    #[test]
    fn merge_adjacent() {
        let mut s = IntervalSet::new();
        s.insert(0..5);
        s.insert(5..8);
        assert_eq!(s.ranges(), &[0..8]);
    }

    #[test]
    fn keep_disjoint() {
        let mut s = IntervalSet::new();
        s.insert(0..3);
        s.insert(10..12);
        s.insert(5..7);
        assert_eq!(s.ranges(), &[0..3, 5..7, 10..12]);
        assert_eq!(s.total(), 7);
    }

    #[test]
    fn merge_spanning_many() {
        let mut s = IntervalSet::new();
        s.insert(0..2);
        s.insert(4..6);
        s.insert(8..10);
        s.insert(1..9);
        assert_eq!(s.ranges(), &[0..10]);
    }

    #[test]
    fn insert_matches_membership_bitmap() {
        // sorted, disjoint, non-adjacent ranges are the unique form of a
        // set, so matching a bitmap pins the exact range list
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let (mut s, mut bits) = (IntervalSet::new(), [false; 96]);
            for _ in 0..rng.gen_range(1..16) {
                let a = rng.gen_range(0..90usize);
                let r = a..(a + rng.gen_range(0..8usize)).min(96);
                bits[r.clone()].iter_mut().for_each(|b| *b = true);
                s.insert(r);
                let mut want: Vec<Range<usize>> = Vec::new();
                for i in (0..96).filter(|&i| bits[i]) {
                    match want.last_mut() {
                        Some(last) if last.end == i => last.end = i + 1,
                        _ => want.push(i..i + 1),
                    }
                }
                assert_eq!(s.ranges(), &want[..]);
            }
        }
    }

    #[test]
    fn covers_range() {
        let mut s = IntervalSet::new();
        s.insert(2..10);
        assert!(s.covers(2..10));
        assert!(s.covers(4..6));
        assert!(!s.covers(0..5));
        assert!(!s.covers(9..11));
        assert!(s.covers(7..7)); // empty range always covered
    }

    #[test]
    fn gaps_basic() {
        let mut s = IntervalSet::new();
        s.insert(3..5);
        s.insert(8..10);
        assert_eq!(s.gaps(0..12), vec![0..3, 5..8, 10..12]);
        assert_eq!(s.gaps(4..9), vec![5..8]);
        assert_eq!(s.gaps(3..5), Vec::<std::ops::Range<usize>>::new());
    }

    #[test]
    fn gaps_of_empty_set() {
        let s = IntervalSet::new();
        assert_eq!(s.gaps(2..6), vec![2..6]);
    }

    #[test]
    fn empty_insert_ignored() {
        let mut s = IntervalSet::new();
        s.insert(5..5);
        assert!(s.is_empty());
    }
}
