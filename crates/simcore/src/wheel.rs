//! A hierarchical timer wheel: the cache-friendly event calendar behind
//! [`crate::events::EventQueue`].
//!
//! A binary heap pays `O(log n)` pointer-chasing comparisons per
//! operation over the whole pending set. Trace replay at 10⁴–10⁶
//! distinct functions keeps hundreds of thousands of timers in flight,
//! and the heap becomes the hot loop's bottleneck. The classic answer
//! (Varghese & Lauck) is a hierarchy of slotted wheels: near-future
//! events hash into fine-grained slots, far-future events into
//! exponentially coarser ones, and buckets cascade downward as the
//! cursor approaches them. Scheduling is `O(1)`; each event cascades at
//! most once per level before it pops.
//!
//! Determinism contract (shared with the heap implementation and
//! enforced by a differential proptest): events pop **earliest first**,
//! ties at the same instant broken by insertion order (a monotonically
//! increasing sequence number). To guarantee bit-identical pop order,
//! the wheel never pops straight out of a bucket: the bucket owning the
//! cursor's current slot is drained into a tiny `(time, seq)`-ordered
//! *ready heap*, and pops come from there. The ready heap holds one
//! slot's worth of events (typically a handful), so the `O(log k)` it
//! pays is on `k ≈` events-per-slot, not the whole calendar.
//!
//! Geometry: [`LEVELS`] wheels of [`SLOTS`] slots. Level 0 slots span
//! 2^[`SHIFT0`] ns ≈ 4 µs; each level is 64× coarser. The hierarchy
//! covers ~3.2 days from the cursor; anything farther sits in a sorted
//! overflow map and is fed back when the wheels drain toward it.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::collections::BinaryHeap;
use std::collections::HashSet;

/// Slots per wheel level (64 so occupancy fits one `u64` bitmap).
const SLOTS: u64 = 64;
/// log2([`SLOTS`]).
const SLOT_BITS: u32 = 6;
/// Wheel levels before the overflow map takes over.
const LEVELS: u32 = 6;
/// log2 of the level-0 slot width in nanoseconds (2^12 ns ≈ 4.1 µs).
const SHIFT0: u32 = 12;

/// Slot width shift for `level`.
#[inline]
const fn shift(level: u32) -> u32 {
    SHIFT0 + SLOT_BITS * level
}

/// Absolute slot number of `t` at `level`.
#[inline]
const fn slot_of(t: u64, level: u32) -> u64 {
    t >> shift(level)
}

/// An event waiting in the ready heap, ordered earliest-`(at, seq)`
/// first (inverted for `BinaryHeap`'s max-heap).
#[derive(Debug)]
struct Ready<E> {
    at: u64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Ready<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Ready<E> {}
impl<E> PartialOrd for Ready<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Ready<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// One wheel level: 64 buckets plus an occupancy bitmap (bit `i` set ⟺
/// bucket `i` non-empty) so the next occupied slot is a `rotate` +
/// `trailing_zeros` away.
#[derive(Debug)]
struct Level<E> {
    occupied: u64,
    buckets: [Vec<(u64, u64, E)>; SLOTS as usize],
}

impl<E> Level<E> {
    fn new() -> Self {
        Self {
            occupied: 0,
            buckets: std::array::from_fn(|_| Vec::new()),
        }
    }

    #[inline]
    fn push(&mut self, abs_slot: u64, at: u64, seq: u64, event: E) {
        let idx = (abs_slot & (SLOTS - 1)) as usize;
        self.buckets[idx].push((at, seq, event));
        self.occupied |= 1 << idx;
    }

    /// Drain bucket `abs_slot` (if occupied), returning its events.
    #[inline]
    fn take(&mut self, abs_slot: u64) -> Vec<(u64, u64, E)> {
        let idx = (abs_slot & (SLOTS - 1)) as usize;
        if self.occupied & (1 << idx) == 0 {
            return Vec::new();
        }
        self.occupied &= !(1 << idx);
        std::mem::take(&mut self.buckets[idx])
    }

    /// Absolute slot of the nearest occupied bucket strictly after
    /// `cursor_slot`. Relies on the invariant that every resident event
    /// lies within `(cursor_slot, cursor_slot + 63]` at this level, so
    /// each set bit maps to exactly one absolute slot in that window.
    #[inline]
    fn next_occupied(&self, cursor_slot: u64) -> Option<u64> {
        if self.occupied == 0 {
            return None;
        }
        let start = (cursor_slot + 1) & (SLOTS - 1);
        let rotated = self.occupied.rotate_right(start as u32);
        let dist = rotated.trailing_zeros() as u64;
        Some(cursor_slot + 1 + dist)
    }
}

/// A deterministic hierarchical timer wheel with the same observable
/// contract as a `(time, seq)`-ordered binary heap.
#[derive(Debug)]
pub struct TimerWheel<E> {
    levels: Vec<Level<E>>,
    /// Events beyond the top level's horizon, keyed by top-level slot.
    overflow: BTreeMap<u64, Vec<(u64, u64, E)>>,
    /// Events at or before the cursor's level-0 slot, in pop order.
    ready: BinaryHeap<Ready<E>>,
    /// Level-0 absolute slot the wheel has drained up to.
    cursor: u64,
    len: usize,
    /// Tombstones for cancelled-but-still-resident events, keyed by the
    /// unique insertion `seq`. Entries are purged lazily as pops and
    /// peeks encounter them; `len` excludes them from the moment of
    /// cancellation.
    cancelled: HashSet<u64>,
}

impl<E> Default for TimerWheel<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> TimerWheel<E> {
    /// An empty wheel with the cursor at `t = 0`.
    pub fn new() -> Self {
        Self {
            levels: (0..LEVELS).map(|_| Level::new()).collect(),
            overflow: BTreeMap::new(),
            ready: BinaryHeap::new(),
            cursor: 0,
            len: 0,
            cancelled: HashSet::new(),
        }
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drop all pending events; the cursor is kept.
    pub fn clear(&mut self) {
        for level in &mut self.levels {
            while level.occupied != 0 {
                let idx = level.occupied.trailing_zeros() as usize;
                level.occupied &= !(1 << idx);
                level.buckets[idx].clear();
            }
        }
        self.overflow.clear();
        self.ready.clear();
        self.cancelled.clear();
        self.len = 0;
    }

    /// Cancel a pending event by its insertion `seq`. The event stays
    /// physically resident as a tombstone and is purged lazily when a
    /// pop or peek reaches it; `len` drops immediately. The `seq` must
    /// belong to an event that is currently pending — cancelling one
    /// that already popped (or cancelling twice) is a caller logic
    /// error; the double-cancel case is absorbed (returns `false`).
    pub fn cancel(&mut self, seq: u64) -> bool {
        if self.cancelled.insert(seq) {
            self.len -= 1;
            true
        } else {
            false
        }
    }

    /// Insert an event. Any `at` is accepted: one at or before the
    /// cursor's slot (even one a peek has already cascaded past) joins
    /// the ready heap, where `(at, seq)` order keeps the contract exact.
    pub fn insert(&mut self, at: SimTime, seq: u64, event: E) {
        self.len += 1;
        self.place(at.0, seq, event);
    }

    /// Route one event to the ready heap, a wheel level, or overflow,
    /// relative to the current cursor.
    fn place(&mut self, at: u64, seq: u64, event: E) {
        let s0 = slot_of(at, 0);
        if s0 <= self.cursor {
            // Current (or already-drained) slot: compete in the ready
            // heap, where (at, seq) ordering keeps the contract exact.
            self.ready.push(Ready { at, seq, event });
            return;
        }
        for level in 0..LEVELS {
            let s = slot_of(at, level);
            let c = slot_of(self.cursor << SHIFT0, level);
            if s - c < SLOTS {
                self.levels[level as usize].push(s, at, seq, event);
                return;
            }
        }
        self.overflow
            .entry(slot_of(at, LEVELS - 1))
            .or_default()
            .push((at, seq, event));
    }

    /// Move the cursor to level-0 slot `to`, cascading any bucket the
    /// cursor newly *entered* at each higher level. Entering a bucket
    /// invalidates the "strictly ahead of the cursor" invariant for its
    /// events, so they are re-placed (landing at lower levels or in the
    /// ready heap). When the top level's slot changes, overflow buckets
    /// that moved inside the top wheel's horizon are pulled in too —
    /// wheel residents keep the top-level slot within +1 of the cursor,
    /// so a bucket is always ingested long before the cursor could pass
    /// it.
    fn advance_cursor(&mut self, to: u64) {
        debug_assert!(to >= self.cursor);
        let from = self.cursor;
        self.cursor = to;
        for level in 1..LEVELS {
            let new_slot = slot_of(to << SHIFT0, level);
            if slot_of(from << SHIFT0, level) == new_slot {
                // Finer levels change only if this one did.
                break;
            }
            for (at, seq, event) in self.levels[level as usize].take(new_slot) {
                self.place(at, seq, event);
            }
        }
        let top = slot_of(to << SHIFT0, LEVELS - 1);
        if slot_of(from << SHIFT0, LEVELS - 1) != top {
            while let Some((&key, _)) = self.overflow.iter().next() {
                if key - top >= SLOTS {
                    break;
                }
                let bucket = self.overflow.remove(&key).expect("key just observed");
                for (at, seq, event) in bucket {
                    self.place(at, seq, event);
                }
            }
        }
    }

    /// Refill the ready heap from the wheels/overflow. Returns `false`
    /// when the calendar is empty.
    fn ensure_ready(&mut self) -> bool {
        loop {
            if !self.ready.is_empty() {
                return true;
            }
            // Lowest occupied level holds the globally earliest events:
            // level-l residents are strictly nearer than level-(l+1)'s.
            let mut found = None;
            for (level, lv) in self.levels.iter().enumerate() {
                let cursor_slot = slot_of(self.cursor << SHIFT0, level as u32);
                if let Some(abs) = lv.next_occupied(cursor_slot) {
                    found = Some((level as u32, abs));
                    break;
                }
            }
            match found {
                Some((0, abs_slot)) => {
                    self.advance_cursor(abs_slot);
                    for (at, seq, event) in self.levels[0].take(abs_slot) {
                        self.ready.push(Ready { at, seq, event });
                    }
                }
                Some((level, abs_slot)) => {
                    // Jump to the bucket's start and redistribute its
                    // events into finer levels.
                    self.advance_cursor(abs_slot << (SLOT_BITS * level));
                    for (at, seq, event) in self.levels[level as usize].take(abs_slot) {
                        self.place(at, seq, event);
                    }
                }
                None => {
                    // Wheels empty: jump to the first overflow bucket;
                    // the cursor advance ingests it (and any neighbors
                    // now inside the horizon).
                    let Some((&key, _)) = self.overflow.iter().next() else {
                        return false;
                    };
                    self.advance_cursor(key << (SLOT_BITS * (LEVELS - 1)));
                }
            }
        }
    }

    /// Remove and return the earliest `(at, seq)` event, purging any
    /// cancelled tombstones encountered on the way.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        loop {
            if !self.ensure_ready() {
                return None;
            }
            let r = self.ready.pop().expect("ensure_ready refilled");
            if !self.cancelled.is_empty() && self.cancelled.remove(&r.seq) {
                // A tombstone: `len` already dropped at cancel time.
                continue;
            }
            self.len -= 1;
            return Some((SimTime(r.at), r.event));
        }
    }

    /// Timestamp of the earliest pending event without popping it.
    ///
    /// The peek refills the ready heap exactly as the next `pop` would
    /// (cascading the same buckets, in the same order) and reads its
    /// top, so after the first peek of a slot every further peek is
    /// `O(1)`. Tombstones found on top are purged so a cancelled front
    /// event never masquerades as the next timestamp. Cascading early
    /// leaves the calendar's observable order unchanged: an event
    /// inserted afterwards at or before the cursor's slot lands in the
    /// ready heap, whose `(at, seq)` order still pops it first.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        loop {
            if !self.ensure_ready() {
                return None;
            }
            // After `ensure_ready` the ready-heap top is the global
            // earliest event (the same invariant `pop` relies on).
            while let Some(top) = self.ready.peek() {
                if !self.cancelled.is_empty() && self.cancelled.contains(&top.seq) {
                    let r = self.ready.pop().expect("peeked");
                    self.cancelled.remove(&r.seq);
                } else {
                    return Some(SimTime(top.at));
                }
            }
            // Every ready event was a tombstone: refill and retry.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(w: &mut TimerWheel<u64>) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| w.pop().map(|(t, e)| (t.0, e))).collect()
    }

    #[test]
    fn pops_sorted_across_levels_and_overflow() {
        let mut w = TimerWheel::new();
        // Timestamps spanning every level plus the overflow map.
        let times: Vec<u64> = vec![
            0,
            1,
            4096,
            5000,
            1 << 20,
            (1 << 20) + 7,
            1 << 30,
            1 << 40,
            1 << 49, // beyond the 2^48 horizon → overflow
            (1 << 49) + 3,
        ];
        for (i, &t) in times.iter().rev().enumerate() {
            w.insert(SimTime(t), i as u64, t);
        }
        assert_eq!(w.len(), times.len());
        let popped = drain(&mut w);
        let mut expect = times.clone();
        expect.sort_unstable();
        assert_eq!(popped.iter().map(|&(t, _)| t).collect::<Vec<_>>(), expect);
        assert!(w.is_empty());
    }

    #[test]
    fn same_instant_ties_pop_in_seq_order() {
        let mut w = TimerWheel::new();
        let t = SimTime(123_456_789);
        for seq in 0..50 {
            w.insert(t, seq, seq);
        }
        let order: Vec<u64> = drain(&mut w).into_iter().map(|(_, e)| e).collect();
        assert_eq!(order, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn insert_into_current_slot_during_drain() {
        let mut w = TimerWheel::new();
        w.insert(SimTime(100), 0, 0);
        w.insert(SimTime(10_000_000), 1, 1);
        assert_eq!(w.pop().map(|(_, e)| e), Some(0));
        // Cursor now sits at slot 0's window; a nearer event must still
        // pop before the far one.
        w.insert(SimTime(200), 2, 2);
        assert_eq!(w.pop().map(|(_, e)| e), Some(2));
        assert_eq!(w.pop().map(|(_, e)| e), Some(1));
    }

    #[test]
    fn peek_matches_pop_without_disturbing_order() {
        let mut w = TimerWheel::new();
        for &t in &[5_000_000u64, 42, 1 << 33, 77] {
            w.insert(SimTime(t), t, t);
        }
        while let Some(pt) = w.peek_time() {
            let (t, _) = w.pop().unwrap();
            assert_eq!(pt, t);
        }
    }

    #[test]
    fn cancel_purges_lazily_across_levels() {
        let mut w = TimerWheel::new();
        // One resident per region: ready slot, level 0, a coarse level,
        // and the overflow map.
        let times = [5u64, 5000, 1 << 30, 1 << 50];
        for (seq, &t) in times.iter().enumerate() {
            w.insert(SimTime(t), seq as u64, t);
        }
        // Cancel the earliest and the overflow resident.
        assert!(w.cancel(0));
        assert!(w.cancel(3));
        assert!(!w.cancel(3), "double cancel must be absorbed");
        assert_eq!(w.len(), 2);
        // Peek skips the cancelled front event.
        assert_eq!(w.peek_time(), Some(SimTime(5000)));
        assert_eq!(drain(&mut w), vec![(5000, 5000), (1 << 30, 1 << 30)]);
        assert!(w.is_empty());
    }

    #[test]
    fn cancel_during_drain_of_current_slot() {
        let mut w = TimerWheel::new();
        let t = SimTime(123);
        for seq in 0..4u64 {
            w.insert(t, seq, seq);
        }
        assert_eq!(w.pop().map(|(_, e)| e), Some(0));
        // 1 and 2 are already staged in the ready heap: cancel mid-drain.
        assert!(w.cancel(1));
        assert!(w.cancel(2));
        assert_eq!(w.peek_time(), Some(t));
        assert_eq!(w.pop().map(|(_, e)| e), Some(3));
        assert!(w.pop().is_none());
        assert!(w.is_empty());
    }

    #[test]
    fn clear_empties_but_keeps_cursor() {
        let mut w = TimerWheel::new();
        w.insert(SimTime(1 << 30), 0, 0);
        w.insert(SimTime(1 << 50), 1, 1);
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.pop(), None);
        w.insert(SimTime(9), 2, 2);
        assert_eq!(w.pop().map(|(_, e)| e), Some(2));
    }
}
