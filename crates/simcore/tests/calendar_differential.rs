//! Differential test: the timer-wheel calendar against the binary-heap
//! oracle.
//!
//! Both backends promise the same observable contract — pop earliest
//! `(time, seq)` first — and every fixed-seed golden in the workspace
//! leans on it. This harness drives [`TimerWheel`] and [`HeapCalendar`]
//! with identical operation sequences (schedules interleaved with pops,
//! i.e. schedule-during-pop, and with bare peeks, i.e.
//! schedule-after-peek) and requires bit-identical pop streams.
//!
//! Offset scales are chosen to exercise every wheel path: zero offsets
//! (same-instant ties through the ready heap), sub-slot offsets, every
//! wheel level, and >2⁴⁸ ns offsets that land in the overflow map.

use lass_simcore::{HeapCalendar, RequestTable, SimTime, TimerWheel};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    /// Schedule an event `delta` ns after the last popped timestamp.
    Schedule(u64),
    /// Pop one event from both calendars and compare.
    Pop,
    /// Peek both calendars without popping and compare. Later
    /// `Schedule` ops may land before the peeked time — the parallel
    /// front loop's peek-then-schedule-earlier pattern.
    Peek,
    /// Cancel a still-pending event (picked by index into the live
    /// set) on both calendars; both must acknowledge, and a second
    /// cancel of the same seq must be absorbed identically.
    Cancel(usize),
    /// Cancel a pending event and immediately reschedule its payload
    /// under a fresh seq `delta` ns after the last popped timestamp —
    /// the hedge loser-requeue pattern.
    Reschedule(usize, u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Pop),
        Just(Op::Pop),
        Just(Op::Peek),
        // Same-instant tie with whatever else lands at `now`.
        Just(Op::Schedule(0)),
        // Within the current level-0 slot (~4 µs).
        (1u64..4096).prop_map(Op::Schedule),
        // Level 0 across slots.
        (4096u64..1 << 18).prop_map(Op::Schedule),
        // Mid levels (microseconds to minutes).
        ((1u64 << 18)..(1 << 42)).prop_map(Op::Schedule),
        // Top level and the far future: beyond the 2^48 ns horizon
        // these go through the overflow map.
        ((1u64 << 42)..(1 << 52)).prop_map(Op::Schedule),
        (0usize..1 << 16).prop_map(Op::Cancel),
        (0usize..1 << 16, 0u64..1 << 44).prop_map(|(i, d)| Op::Reschedule(i, d)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn wheel_matches_heap_oracle(ops in prop::collection::vec(op_strategy(), 1..400)) {
        let mut wheel = TimerWheel::new();
        let mut heap = HeapCalendar::new();
        let mut seq = 0u64;
        let mut now = 0u64; // timestamp of the last pop, like EventQueue
        // Seqs scheduled but not yet popped or cancelled: both cancel
        // contracts require a pending seq, so ops only pick from here.
        let mut live: Vec<u64> = Vec::new();
        for op in ops {
            match op {
                Op::Schedule(delta) => {
                    let at = SimTime(now.saturating_add(delta));
                    wheel.insert(at, seq, seq);
                    heap.insert(at, seq, seq);
                    live.push(seq);
                    seq += 1;
                }
                Op::Pop => {
                    prop_assert_eq!(wheel.peek_time(), heap.peek_time());
                    let (w, h) = (wheel.pop(), heap.pop());
                    prop_assert_eq!(w, h, "pop diverged after seq {}", seq);
                    if let Some((t, e)) = w {
                        now = t.0;
                        live.retain(|&s| s != e);
                    }
                }
                Op::Peek => {
                    prop_assert_eq!(wheel.peek_time(), heap.peek_time());
                }
                Op::Cancel(idx) => {
                    if live.is_empty() {
                        continue;
                    }
                    let victim = live.swap_remove(idx % live.len());
                    prop_assert!(wheel.cancel(victim));
                    prop_assert!(heap.cancel(victim));
                    prop_assert!(!wheel.cancel(victim), "double cancel absorbed");
                    prop_assert!(!heap.cancel(victim), "double cancel absorbed");
                }
                Op::Reschedule(idx, delta) => {
                    if live.is_empty() {
                        continue;
                    }
                    let victim = live.swap_remove(idx % live.len());
                    prop_assert!(wheel.cancel(victim));
                    prop_assert!(heap.cancel(victim));
                    let at = SimTime(now.saturating_add(delta));
                    wheel.insert(at, seq, seq);
                    heap.insert(at, seq, seq);
                    live.push(seq);
                    seq += 1;
                }
            }
            prop_assert_eq!(wheel.len(), heap.len());
        }
        // Drain the rest: the full residual streams must match too.
        loop {
            let (w, h) = (wheel.pop(), heap.pop());
            prop_assert_eq!(w, h);
            if w.is_none() {
                break;
            }
        }
    }
}

/// Directed regression: cancelling tied events *while* draining their
/// instant (tombstones already staged in the wheel's ready heap) keeps
/// both backends on the same pop stream — the first-response-wins path
/// cancels a loser at exactly the instant the winner's completion pops.
#[test]
fn cancel_during_pop_matches_heap_oracle() {
    let mut wheel = TimerWheel::new();
    let mut heap = HeapCalendar::new();
    let t = SimTime(1 << 21);
    for seq in 0..8u64 {
        wheel.insert(t, seq, seq);
        heap.insert(t, seq, seq);
    }
    // Pop one of the tie burst, then cancel two mid-drain: one already
    // staged (seq 1) and the last of the burst (seq 7).
    assert_eq!(wheel.pop(), heap.pop());
    for victim in [1u64, 7] {
        assert!(wheel.cancel(victim));
        assert!(heap.cancel(victim));
    }
    assert_eq!(wheel.peek_time(), heap.peek_time());
    // Reschedule one victim's payload at the same instant under a new
    // seq, mid-drain: it must still come out after the survivors.
    wheel.insert(t, 8, 8);
    heap.insert(t, 8, 8);
    let mut drained = Vec::new();
    loop {
        let (w, h) = (wheel.pop(), heap.pop());
        assert_eq!(w, h);
        match w {
            Some((_, e)) => drained.push(e),
            None => break,
        }
    }
    assert_eq!(drained, vec![2, 3, 4, 5, 6, 8]);
}

/// Directed regression: a peek cascades the wheel up to the earliest
/// pending event; an event scheduled afterwards *earlier* than the peeked
/// time (still after the last pop) must pop first on both backends.
#[test]
fn peek_then_schedule_earlier_pops_the_earlier_event() {
    let mut wheel = TimerWheel::new();
    let mut heap = HeapCalendar::new();
    // Far enough out to sit on a coarse level until the peek cascades it.
    let late = SimTime(1 << 30);
    wheel.insert(late, 0, 0);
    heap.insert(late, 0, 0);
    assert_eq!(wheel.peek_time(), Some(late));
    assert_eq!(heap.peek_time(), Some(late));
    // Earlier than the peeked time: a different level-0 slot, and a
    // different slot at every coarser level too.
    for (seq, at) in [(1u64, SimTime(1 << 20)), (2, SimTime((1 << 30) - 1))] {
        wheel.insert(at, seq, seq);
        heap.insert(at, seq, seq);
    }
    assert_eq!(wheel.peek_time(), Some(SimTime(1 << 20)));
    assert_eq!(heap.peek_time(), Some(SimTime(1 << 20)));
    let mut drained = Vec::new();
    loop {
        let (w, h) = (wheel.pop(), heap.pop());
        assert_eq!(w, h);
        match w {
            Some((_, e)) => drained.push(e),
            None => break,
        }
    }
    assert_eq!(drained, vec![1, 2, 0]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A slot token taken before a request retires must go stale the
    /// moment the slot is reused — however many inserts and removes
    /// happen in between. This is the guard that makes a late hedge
    /// cancel (or timer) a no-op instead of killing an unrelated
    /// request that recycled the slot.
    #[test]
    fn stale_generation_cancel_never_fires_after_slot_reuse(
        pre in 1usize..16,
        victim_pick in 0usize..16,
        churn in prop::collection::vec(0u8..4, 1..64),
    ) {
        let mut table = RequestTable::new();
        let mut next_rid = 0u64;
        let mut resident: Vec<u64> = Vec::new();
        for _ in 0..pre {
            table.insert(next_rid, 0, SimTime(next_rid));
            resident.push(next_rid);
            next_rid += 1;
        }
        let victim = resident.swap_remove(victim_pick % resident.len());
        let token = table.slot_token(victim).unwrap();
        prop_assert!(table.token_live(victim, token));

        // Retire the victim, then churn the table: its slot is on top
        // of the free list, so the very next insert recycles it.
        table.remove(victim);
        prop_assert!(!table.token_live(victim, token), "retired yet live");
        let successor = next_rid;
        for (i, op) in churn.iter().enumerate() {
            if *op == 3 && !resident.is_empty() {
                let rid = resident.swap_remove(i % resident.len());
                table.remove(rid);
            } else {
                table.insert(next_rid, 1, SimTime(next_rid));
                resident.push(next_rid);
                next_rid += 1;
            }
            // The stale token must stay dead at every point of the
            // churn — a late cancel can land at any time.
            prop_assert!(!table.token_live(victim, token));
        }

        // The successor recycled the victim's slot under a bumped
        // generation: its token is live, distinct, and the victim's
        // stale token never validates against either rid.
        if let Some(fresh) = table.slot_token(successor) {
            prop_assert!(fresh != token, "recycled slot kept the stale generation");
            prop_assert!(table.token_live(successor, fresh));
            prop_assert!(!table.token_live(successor, token));
        }
        prop_assert!(table.get(victim).is_none());
    }
}

/// Directed regression: a burst of same-instant events scheduled *while*
/// draining that instant (the ready-heap path) keeps insertion order.
#[test]
fn schedule_during_pop_preserves_tie_order() {
    let mut wheel = TimerWheel::new();
    let mut heap = HeapCalendar::new();
    let t = SimTime(1 << 21);
    for seq in 0..8u64 {
        wheel.insert(t, seq, seq);
        heap.insert(t, seq, seq);
    }
    for seq in 8u64..16 {
        assert_eq!(wheel.pop(), heap.pop());
        // New work at the very same instant, mid-drain.
        wheel.insert(t, seq, seq);
        heap.insert(t, seq, seq);
    }
    loop {
        let (w, h) = (wheel.pop(), heap.pop());
        assert_eq!(w, h);
        if w.is_none() {
            break;
        }
    }
}
