//! A generic hierarchical timer wheel with O(1) arm and cancel.
//!
//! This is the engine behind the runtime's internal timer queue
//! (`pcr::timer`), exported so workloads can reuse it for their own
//! deadline bookkeeping — the server world arms and cancels one
//! per-request input-to-echo deadline per in-flight request, a churn
//! pattern where a sorted sleeper list (the naive baseline) would cost
//! O(n) per arm.
//!
//! The wheel behaves as an exact priority queue ordered by
//! `(deadline, insertion sequence)` so same-deadline timers fire FIFO —
//! byte-for-byte the order a `BinaryHeap` implementation produces,
//! which is what keeps traces replay-identical.
//!
//! ## Layout
//!
//! Seven levels of 64 slots each, 6 bits per level (Varghese–Lauck
//! hashed wheels, anchored form): a pending deadline `at` lives at the
//! smallest level `L` whose *parent frame* matches the wheel's anchor,
//! `(at >> 6(L+1)) == (current >> 6(L+1))`, in slot `(at >> 6L) & 63`.
//! Level 0 slots therefore hold one exact microsecond deadline each;
//! level `L` slots hold a `64^L`-µs range. The anchored rule (rather
//! than a delta-based `level_of(at - current)`) means a slot can never
//! alias entries one wrap ahead, so the bottom-up occupancy-bitmap scan
//! yields the exact global minimum and every cascade strictly descends.
//!
//! Arming is O(1): compute the level, push onto an intrusive free-list
//! slab node, set an occupancy bit. Firing pops from the level-0 slot of
//! the minimum deadline; the anchor only advances when timers fire, and
//! advancing to the minimum `e` only ever needs to cascade `e`'s own
//! slot on its level (everything else provably stays correctly placed).
//! Deadlines beyond the 2⁴²-µs horizon (~52 days) go to an overflow
//! list that drains when the anchor crosses the top-level frame.
//!
//! Cancellation is a physical unlink: [`Wheel::schedule`] returns a
//! [`WheelToken`] naming the entry's `(deadline, seq)`, and
//! [`Wheel::cancel`] walks the (short) slot list the deadline hashes to
//! under the current anchor, unlinks the node, and repairs the cached
//! minimum — no tombstones, so `len` counts only live timers.

use crate::time::SimTime;

const LEVEL_BITS: u32 = 6;
const SLOTS: usize = 1 << LEVEL_BITS; // 64
pub(crate) const LEVELS: usize = 7; // horizon: 2^(6*7) µs ≈ 52 days
const NIL: u32 = u32::MAX;

struct Node<K> {
    at: SimTime,
    seq: u64,
    kind: K,
    next: u32,
}

/// Names one scheduled entry, for [`Wheel::cancel`]. Sequence numbers
/// are never reused, so a stale token (already fired or already
/// cancelled) safely cancels nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WheelToken {
    at: SimTime,
    seq: u64,
}

impl WheelToken {
    /// The deadline this token's entry was armed for.
    pub fn deadline(&self) -> SimTime {
        self.at
    }
}

/// Pending timers over payload `K`, ordered by `(deadline, insertion
/// seq)`.
pub struct Wheel<K: Copy> {
    /// Slab of timer nodes; `free` heads an intrusive free list through
    /// `Node::next`, so a steady-state sim stops allocating entirely.
    nodes: Vec<Node<K>>,
    free: u32,
    /// `slots[level][idx]` heads a singly-linked list of nodes. List
    /// order is arbitrary: level-0 lists share one exact deadline, and
    /// the pop scans for the minimum `seq`, so FIFO falls out exactly.
    /// The scan is as long as the *live* timers of one deadline — CV
    /// timeouts are quantised to a tick, so they share one — and the
    /// scheduler keeps it short by cancelling a timeout when its wait ends.
    slots: [[u32; SLOTS]; LEVELS],
    /// Bit `i` of `occupied[level]` set iff `slots[level][i]` is nonempty.
    occupied: [u64; LEVELS],
    /// The anchor, in µs. Advances only when timers fire; always ≤ the
    /// sim clock and ≤ every pending deadline.
    current: u64,
    /// Deadlines beyond the top-level frame of `current`.
    overflow: Vec<(SimTime, u64, K)>,
    /// The exact earliest pending `(at)`, kept valid across every
    /// mutation so [`Wheel::next_deadline`] is a field read.
    cached_next: Option<SimTime>,
    next_seq: u64,
    len: usize,
    allocs: u64,
    reuses: u64,
}

impl<K: Copy> Default for Wheel<K> {
    fn default() -> Self {
        Wheel {
            nodes: Vec::new(),
            free: NIL,
            slots: [[NIL; SLOTS]; LEVELS],
            occupied: [0; LEVELS],
            current: 0,
            overflow: Vec::new(),
            cached_next: None,
            next_seq: 0,
            len: 0,
            allocs: 0,
            reuses: 0,
        }
    }
}

impl<K: Copy> Wheel<K> {
    /// An empty wheel anchored at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// The level `at` belongs to under the current anchor: the smallest
    /// `L` whose parent frame contains both. Caller guarantees `at` is
    /// inside the top-level frame (not overflow).
    #[inline]
    fn level_of(&self, at_us: u64) -> usize {
        for level in 0..LEVELS {
            let shift = LEVEL_BITS * (level as u32 + 1);
            if at_us >> shift == self.current >> shift {
                return level;
            }
        }
        unreachable!("overflow deadlines never reach level_of");
    }

    #[inline]
    fn slot_of(at_us: u64, level: usize) -> usize {
        ((at_us >> (LEVEL_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize
    }

    /// Links a node for `(at, seq, kind)` into its slot, counting slab
    /// traffic (overflow pushes count as neither alloc nor reuse).
    fn insert(&mut self, at: SimTime, seq: u64, kind: K) {
        let at_us = at.as_micros();
        debug_assert!(at_us >= self.current, "timer armed in the past");
        if at_us >> (LEVEL_BITS * LEVELS as u32) != self.current >> (LEVEL_BITS * LEVELS as u32) {
            self.overflow.push((at, seq, kind));
            return;
        }
        let level = self.level_of(at_us);
        let idx = Self::slot_of(at_us, level);
        let head = self.slots[level][idx];
        let n = if self.free != NIL {
            let n = self.free;
            self.free = self.nodes[n as usize].next;
            self.nodes[n as usize] = Node {
                at,
                seq,
                kind,
                next: head,
            };
            self.reuses += 1;
            n
        } else {
            self.nodes.push(Node {
                at,
                seq,
                kind,
                next: head,
            });
            self.allocs += 1;
            (self.nodes.len() - 1) as u32
        };
        self.slots[level][idx] = n;
        self.occupied[level] |= 1 << idx;
    }

    /// Schedules `kind` to fire at `at`. The returned token can cancel
    /// the entry later; discarding it is free.
    #[inline]
    pub fn schedule(&mut self, at: SimTime, kind: K) -> WheelToken {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.insert(at, seq, kind);
        self.len += 1;
        if self.cached_next.is_none_or(|n| at < n) {
            self.cached_next = Some(at);
        }
        WheelToken { at, seq }
    }

    /// Cancels the entry named by `token`, physically unlinking its
    /// node. Returns `false` if the entry already fired or was already
    /// cancelled (sequence numbers are unique, so a stale token can
    /// never remove a different timer).
    pub fn cancel(&mut self, token: WheelToken) -> bool {
        let at_us = token.at.as_micros();
        let top = LEVEL_BITS * LEVELS as u32;
        if at_us >> top != self.current >> top {
            // The entry, if still pending, lives on the overflow list.
            let Some(pos) = self
                .overflow
                .iter()
                .position(|&(at, seq, _)| at == token.at && seq == token.seq)
            else {
                return false;
            };
            self.overflow.remove(pos);
            self.len -= 1;
            if self.cached_next == Some(token.at) {
                self.cached_next = self.recompute_next();
            }
            return true;
        }
        if at_us < self.current {
            return false; // a deadline behind the anchor has fired
        }
        let level = self.level_of(at_us);
        let idx = Self::slot_of(at_us, level);
        let mut prev = NIL;
        let mut n = self.slots[level][idx];
        while n != NIL {
            let node = &self.nodes[n as usize];
            let next = node.next;
            if node.at == token.at && node.seq == token.seq {
                if prev == NIL {
                    self.slots[level][idx] = next;
                } else {
                    self.nodes[prev as usize].next = next;
                }
                if self.slots[level][idx] == NIL {
                    self.occupied[level] &= !(1 << idx);
                }
                self.nodes[n as usize].next = self.free;
                self.free = n;
                self.len -= 1;
                if self.cached_next == Some(token.at) {
                    self.cached_next = self.recompute_next();
                }
                return true;
            }
            prev = n;
            n = next;
        }
        false
    }

    /// `(slab allocations, slab reuses)` so far.
    pub fn alloc_stats(&self) -> (u64, u64) {
        (self.allocs, self.reuses)
    }

    /// The earliest pending deadline. Called once per inner-loop
    /// iteration of [`crate::Sim::run`], so it must stay a field read.
    #[inline]
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.cached_next
    }

    /// Advances the anchor to the pending minimum `e`, cascading the one
    /// slot that can hold entries now misfiled: `e`'s own slot on `e`'s
    /// level. (Every other slot provably keeps its entries correctly
    /// placed: `e` is the global minimum, so all levels below `e`'s are
    /// empty, and `e`'s level matching its parent frame pins the anchor's
    /// coarser frames in place.)
    fn advance_to(&mut self, e: SimTime) {
        let e_us = e.as_micros();
        let top = LEVEL_BITS * LEVELS as u32;
        if e_us >> top != self.current >> top {
            // Crossing the top-level frame: everything in-wheel has
            // already fired (e is the minimum), so only overflow entries
            // remain. Re-home them under the new anchor.
            self.current = e_us;
            let pending = std::mem::take(&mut self.overflow);
            for (at, seq, kind) in pending {
                self.insert(at, seq, kind);
            }
            return;
        }
        let level = self.level_of(e_us);
        self.current = e_us;
        if level == 0 {
            return;
        }
        let idx = Self::slot_of(e_us, level);
        let mut n = self.slots[level][idx];
        self.slots[level][idx] = NIL;
        self.occupied[level] &= !(1 << idx);
        while n != NIL {
            let next = self.nodes[n as usize].next;
            let node = &self.nodes[n as usize];
            let (at, seq, kind) = (node.at, node.seq, node.kind);
            // Re-link the existing node rather than round-tripping it
            // through the free list: compute its new home directly.
            let new_level = self.level_of(at.as_micros());
            debug_assert!(new_level < level, "cascade must strictly descend");
            let new_idx = Self::slot_of(at.as_micros(), new_level);
            self.nodes[n as usize] = Node {
                at,
                seq,
                kind,
                next: self.slots[new_level][new_idx],
            };
            self.slots[new_level][new_idx] = n;
            self.occupied[new_level] |= 1 << new_idx;
            n = next;
        }
    }

    /// Recomputes the exact global minimum from the occupancy bitmaps:
    /// the lowest nonempty level wins (levels are strictly ordered in
    /// time), and within it the lowest set bit names the earliest slot.
    fn recompute_next(&self) -> Option<SimTime> {
        for level in 0..LEVELS {
            let occ = self.occupied[level];
            if occ == 0 {
                continue;
            }
            let idx = occ.trailing_zeros() as u64;
            if level == 0 {
                // A level-0 slot is one exact deadline.
                let frame = (self.current >> LEVEL_BITS) << LEVEL_BITS;
                return Some(SimTime::from_micros(frame | idx));
            }
            // A coarser slot spans a range: scan its (short) list.
            let mut n = self.slots[level][idx as usize];
            let mut min = SimTime::MAX;
            while n != NIL {
                let node = &self.nodes[n as usize];
                if node.at < min {
                    min = node.at;
                }
                n = node.next;
            }
            return Some(min);
        }
        self.overflow.iter().map(|&(at, _, _)| at).min()
    }

    /// Pops the next timer due at or before `now` — the globally
    /// earliest `(at, seq)` pair, so same-deadline timers fire FIFO.
    #[inline]
    pub fn pop_due(&mut self, now: SimTime) -> Option<K> {
        self.pop_due_at(now).map(|(_, kind)| kind)
    }

    /// Like [`Wheel::pop_due`], also returning the deadline the entry
    /// was armed for (callers driving event loops usually need it).
    pub fn pop_due_at(&mut self, now: SimTime) -> Option<(SimTime, K)> {
        let e = self.cached_next?;
        if e > now {
            return None;
        }
        self.advance_to(e);
        let idx = Self::slot_of(e.as_micros(), 0);
        debug_assert!(self.occupied[0] & (1 << idx) != 0, "minimum slot empty");
        // The level-0 slot holds only entries at exactly `e`; unlink the
        // one with the smallest seq (lists are unordered, and as long as the
        // live timers of one tick: see `slots`).
        let mut best = NIL;
        let mut best_prev = NIL;
        let mut prev = NIL;
        let mut n = self.slots[0][idx];
        while n != NIL {
            if best == NIL || self.nodes[n as usize].seq < self.nodes[best as usize].seq {
                best = n;
                best_prev = prev;
            }
            prev = n;
            n = self.nodes[n as usize].next;
        }
        let kind = self.nodes[best as usize].kind;
        let after = self.nodes[best as usize].next;
        if best_prev == NIL {
            self.slots[0][idx] = after;
        } else {
            self.nodes[best_prev as usize].next = after;
        }
        if self.slots[0][idx] == NIL {
            self.occupied[0] &= !(1 << idx);
        }
        self.nodes[best as usize].next = self.free;
        self.free = best;
        self.len -= 1;
        self.cached_next = self.recompute_next();
        Some((e, kind))
    }

    /// Number of pending timers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no timers are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use super::*;
    use crate::rng::SplitMix64;
    use crate::time::{micros, millis};

    /// The `BinaryHeap` timer queue the wheel replaced, kept as the sorted
    /// oracle for the property tests: entries are `(deadline, seq, kind)`,
    /// and `seq` is unique, so they pop in `(deadline, seq)` order.
    /// Cancellation is an O(n) rebuild — fine for an oracle, the reason
    /// the wheel exists.
    #[derive(Default)]
    struct HeapWheel {
        heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
        next_seq: u64,
    }

    impl HeapWheel {
        fn schedule(&mut self, at: SimTime, kind: u32) -> WheelToken {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Reverse((at, seq, kind)));
            WheelToken { at, seq }
        }

        fn cancel(&mut self, token: WheelToken) -> bool {
            let before = self.heap.len();
            self.heap
                .retain(|Reverse((at, seq, _))| (*at, *seq) != (token.at, token.seq));
            self.heap.len() != before
        }

        fn next_deadline(&self) -> Option<SimTime> {
            self.heap.peek().map(|Reverse((at, ..))| *at)
        }

        fn pop_due(&mut self, now: SimTime) -> Option<u32> {
            self.pop_due_at(now).map(|(_, kind)| kind)
        }

        fn pop_due_at(&mut self, now: SimTime) -> Option<(SimTime, u32)> {
            if self.next_deadline()? <= now {
                self.heap.pop().map(|Reverse((at, _, kind))| (at, kind))
            } else {
                None
            }
        }

        fn len(&self) -> usize {
            self.heap.len()
        }
    }

    #[test]
    fn fires_in_deadline_order() {
        let mut w = Wheel::new();
        w.schedule(SimTime::ZERO + millis(30), 3u32);
        w.schedule(SimTime::ZERO + millis(10), 1u32);
        w.schedule(SimTime::ZERO + millis(20), 2u32);
        assert_eq!(w.next_deadline(), Some(SimTime::ZERO + millis(10)));
        let now = SimTime::ZERO + millis(25);
        assert_eq!(w.pop_due(now), Some(1));
        assert_eq!(w.pop_due(now), Some(2));
        assert_eq!(w.pop_due(now), None);
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn same_deadline_fires_fifo() {
        let mut w = Wheel::new();
        let t = SimTime::ZERO + millis(5);
        for i in 0..4u32 {
            w.schedule(t, i);
        }
        for i in 0..4 {
            assert_eq!(w.pop_due(t), Some(i));
        }
    }

    #[test]
    fn same_deadline_fifo_survives_cascading() {
        // Entries inserted at a coarse level cascade down when the
        // anchor reaches them; interleave them with entries armed late
        // (landing at level 0 directly, with later seqs) and the pop
        // order must still be pure insertion order.
        let mut w = Wheel::new();
        let t = SimTime::from_micros(100_000); // level > 0 from anchor 0
        for i in 0..3u32 {
            w.schedule(t, i);
        }
        // Fire an early timer to advance the anchor near t, so the next
        // arms land in level 0 of t's frame.
        w.schedule(SimTime::from_micros(99_990), 99u32);
        assert_eq!(w.pop_due(SimTime::from_micros(99_990)), Some(99));
        for i in 3..6u32 {
            w.schedule(t, i);
        }
        for i in 0..6 {
            assert_eq!(w.pop_due(t), Some(i), "pop {i}");
        }
        assert!(w.is_empty());
    }

    #[test]
    fn empty_wheel() {
        let mut w = Wheel::<u32>::new();
        assert!(w.is_empty());
        assert_eq!(w.next_deadline(), None);
        assert_eq!(w.pop_due(SimTime::MAX), None);
    }

    #[test]
    fn cascade_boundaries_are_exact() {
        // Deadlines straddling every level boundary: 64^L ± 1 around the
        // anchor. next_deadline must stay exact through each advance.
        let mut w = Wheel::new();
        let mut deadlines = Vec::new();
        for level in 1..LEVELS as u32 {
            let edge = 1u64 << (LEVEL_BITS * level);
            for at in [edge - 1, edge, edge + 1] {
                deadlines.push(at);
                w.schedule(SimTime::from_micros(at), 0u32);
            }
        }
        deadlines.sort_unstable();
        for &d in &deadlines {
            assert_eq!(w.next_deadline(), Some(SimTime::from_micros(d)));
            assert_eq!(w.pop_due(SimTime::from_micros(d)), Some(0));
        }
        assert!(w.is_empty());
    }

    #[test]
    fn overflow_horizon_round_trips() {
        let mut w = Wheel::new();
        let beyond = 1u64 << (LEVEL_BITS * LEVELS as u32); // past the horizon
        w.schedule(SimTime::from_micros(beyond + 5), 2u32);
        w.schedule(SimTime::from_micros(7), 1u32);
        assert_eq!(w.next_deadline(), Some(SimTime::from_micros(7)));
        assert_eq!(w.pop_due(SimTime::from_micros(7)), Some(1));
        assert_eq!(w.next_deadline(), Some(SimTime::from_micros(beyond + 5)));
        assert_eq!(w.pop_due(SimTime::MAX), Some(2));
        assert!(w.is_empty());
    }

    /// The jittered-deadline property test: a few thousand random
    /// arm/fire interleavings must pop in exactly the heap oracle's
    /// order, including ties, at every step.
    #[test]
    fn wheel_matches_heap_oracle_on_jittered_deadlines() {
        for seed in [0x5EED_u64, 0xCEDA_2026, 0xDEAD_BEEF] {
            let mut rng = SplitMix64::new(seed);
            let mut wheel = Wheel::new();
            let mut heap = HeapWheel::default();
            let mut now = SimTime::ZERO;
            for step in 0..4000 {
                if rng.next_below(3) != 0 {
                    // Arm: mostly near-future, sometimes far, with
                    // deliberate ties (coarse quantization).
                    let span = match rng.next_below(4) {
                        0 => rng.next_below(64),
                        1 => rng.next_below(5_000),
                        2 => rng.next_below(300_000) / 100 * 100, // ties
                        _ => rng.next_below(1 << 24),
                    };
                    let at = now + micros(span);
                    let tid = rng.next_below(50) as u32;
                    wheel.schedule(at, tid);
                    heap.schedule(at, tid);
                } else {
                    now += micros(rng.next_below(20_000));
                    loop {
                        let expect = heap.pop_due(now);
                        let got = wheel.pop_due(now);
                        assert_eq!(got, expect, "seed {seed:#x} step {step} at {now}");
                        if expect.is_none() {
                            break;
                        }
                    }
                }
                assert_eq!(
                    wheel.next_deadline(),
                    heap.next_deadline(),
                    "seed {seed:#x} step {step}"
                );
            }
        }
    }

    /// The cancellation property test: randomized arm / cancel-before-
    /// fire / fire churn (the server world's per-request deadline
    /// pattern) must leave the wheel equivalent to the heap oracle at
    /// every step — same cancel verdicts, same pop order including
    /// ties, same exact `next_deadline`, same live count.
    #[test]
    fn wheel_matches_heap_oracle_under_cancel_churn() {
        for seed in [0xCA11_u64, 0xBEE5_2026, 0x5EED_CAFE] {
            let mut rng = SplitMix64::new(seed);
            let mut wheel = Wheel::new();
            let mut heap = HeapWheel::default();
            let mut now = SimTime::ZERO;
            // Live tokens; stale ones (popped by the fire branch) stay
            // behind on purpose so double-cancels get exercised too.
            let mut tokens: Vec<WheelToken> = Vec::new();
            for step in 0..6000 {
                match rng.next_below(8) {
                    // Arm (heavily) — sessions open faster than they
                    // resolve, so the wheel stays populated.
                    0..=3 => {
                        let span = match rng.next_below(4) {
                            0 => rng.next_below(64),
                            1 => rng.next_below(5_000),
                            2 => rng.next_below(300_000) / 100 * 100, // ties
                            _ => rng.next_below(1 << 22),
                        };
                        let at = now + micros(span);
                        let k = rng.next_below(1 << 20) as u32;
                        let tw = wheel.schedule(at, k);
                        let th = heap.schedule(at, k);
                        assert_eq!(tw, th, "token streams must agree");
                        tokens.push(tw);
                    }
                    // Cancel-before-fire: pick any remembered token
                    // (possibly already fired or already cancelled) and
                    // both sides must agree on whether it was live.
                    4..=5 => {
                        if tokens.is_empty() {
                            continue;
                        }
                        let i = rng.pick_index(tokens.len()).expect("nonempty");
                        // Half the time forget the token (exercising
                        // stale double-cancel), half the time keep it.
                        let tok = if rng.next_below(2) == 0 {
                            tokens.swap_remove(i)
                        } else {
                            tokens[i]
                        };
                        let got = wheel.cancel(tok);
                        let expect = heap.cancel(tok);
                        assert_eq!(got, expect, "seed {seed:#x} step {step} cancel {tok:?}");
                    }
                    // Fire: advance time and drain everything due.
                    _ => {
                        now += micros(rng.next_below(30_000));
                        loop {
                            let expect = heap.pop_due_at(now);
                            let got = wheel.pop_due_at(now);
                            assert_eq!(got, expect, "seed {seed:#x} step {step} at {now}");
                            if expect.is_none() {
                                break;
                            }
                        }
                    }
                }
                assert_eq!(
                    wheel.next_deadline(),
                    heap.next_deadline(),
                    "seed {seed:#x} step {step}"
                );
                assert_eq!(wheel.len(), heap.len(), "seed {seed:#x} step {step}");
            }
        }
    }

    #[test]
    fn cancel_unlinks_physically_and_repairs_minimum() {
        let mut w = Wheel::new();
        let t1 = w.schedule(SimTime::from_micros(10), 1u32);
        let t2 = w.schedule(SimTime::from_micros(10), 2u32);
        let _t3 = w.schedule(SimTime::from_micros(500), 3u32);
        assert_eq!(w.len(), 3);
        // Cancelling the earliest entry must re-derive the minimum.
        assert!(w.cancel(t1));
        assert_eq!(w.len(), 2);
        assert_eq!(w.next_deadline(), Some(SimTime::from_micros(10)));
        assert!(w.cancel(t2));
        assert_eq!(w.next_deadline(), Some(SimTime::from_micros(500)));
        // Double-cancel and cancel-after-fire are inert.
        assert!(!w.cancel(t1));
        assert_eq!(w.pop_due(SimTime::from_micros(500)), Some(3));
        assert!(w.is_empty());
    }

    #[test]
    fn cancel_reaches_overflow_entries() {
        let mut w = Wheel::new();
        let beyond = 1u64 << (LEVEL_BITS * LEVELS as u32);
        let tok = w.schedule(SimTime::from_micros(beyond + 9), 7u32);
        assert_eq!(w.next_deadline(), Some(SimTime::from_micros(beyond + 9)));
        assert!(w.cancel(tok));
        assert!(w.is_empty());
        assert_eq!(w.next_deadline(), None);
        assert!(!w.cancel(tok));
    }

    #[test]
    fn cancelled_nodes_return_to_the_slab() {
        let mut w = Wheel::new();
        let tok = w.schedule(SimTime::from_micros(50), 0u32);
        assert!(w.cancel(tok));
        w.schedule(SimTime::from_micros(60), 1u32);
        let (allocs, reuses) = w.alloc_stats();
        assert_eq!((allocs, reuses), (1, 1), "cancel must recycle the node");
    }

    #[test]
    fn slab_recycles_nodes() {
        let mut w = Wheel::new();
        for round in 0..10 {
            let t = SimTime::from_micros(round * 100 + 50);
            w.schedule(t, 0u32);
            assert_eq!(w.pop_due(t), Some(0));
        }
        let (allocs, reuses) = w.alloc_stats();
        assert_eq!(allocs, 1, "steady-state arm/fire must not grow the slab");
        assert_eq!(reuses, 9);
    }
}
