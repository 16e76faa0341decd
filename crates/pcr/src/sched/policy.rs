//! Pluggable scheduling policies.
//!
//! The dispatch decision of [`Sim`](crate::Sim) sits behind the
//! [`Scheduler`] trait: the simulator owns thread state, timers, and the
//! kernel-call protocol, and delegates *which runnable thread goes next*
//! to the installed policy. The paper's scheduler — 7 strict priorities,
//! round-robin within a level, 50 ms quantum — is the default
//! ([`RoundRobin`]); three alternatives ship alongside it for the
//! scheduling study: [`Cfs`] (virtual-runtime fair queueing),
//! [`Lottery`] (ticket-proportional randomized selection), and [`Mlfq`]
//! (multi-level feedback with demotion on quantum expiry and boost on
//! wakeup). Select one with
//! [`SimConfig::with_policy`](crate::SimConfig::with_policy) or the
//! `--policy` flag of the `repro` CLI.
//!
//! # Contract
//!
//! Every policy must uphold the invariants that make a run replayable
//! (see `docs/SCHEDULING.md` for the long-form version):
//!
//! * **Determinism under a fixed seed.** A policy may consult *only* its
//!   own state, the [`PolicyCtx`] it is handed, and (if it needs
//!   randomness) a private RNG stream derived from the sim seed with a
//!   policy-specific salt. It must never read wall-clock time, addresses,
//!   or iteration order of unordered containers.
//! * **RNG stream discipline.** The simulator's main stream (daemon
//!   donation picks) and chaos stream (fault injection) are off limits:
//!   drawing from either would shift every later decision and break
//!   replay of recorded fault schedules. [`Lottery`] derives its own
//!   `SplitMix64` from `seed ^ LOTTERY_SEED_SALT`.
//! * **`in_ready` bookkeeping.** The simulator sets `in_ready` on a
//!   thread before calling [`Scheduler::on_ready`]; the policy must clear
//!   it whenever it hands a thread back from [`Scheduler::next`] or drops
//!   it in [`Scheduler::remove`]. Removal is real: once either returns,
//!   the policy holds no entry for the thread.
//! * **No hidden ready threads.** After `on_ready(tid, ..)` and until
//!   `next`/`remove` returns it, `tid` must be reachable via `next`,
//!   counted by `ready_count_excluding`, and enumerated by
//!   `nth_ready_excluding` in a deterministic order.

use std::collections::{BTreeSet, VecDeque};

use super::Tcb;
pub use crate::config::PolicyKind;
use crate::rng::SplitMix64;
use crate::thread::{Priority, ThreadId};
use crate::time::SimDuration;

/// Salt XOR-ed into the sim seed to derive the [`Lottery`] policy's
/// private RNG stream, keeping it independent from both the main and the
/// chaos streams.
pub const LOTTERY_SEED_SALT: u64 = 0x107E_21C7_ED5A_17ED;

/// The simulator state a policy may touch: the thread table.
/// Constructed by the simulator around each policy call; not
/// constructible from outside the crate.
pub struct PolicyCtx<'a> {
    pub(super) threads: &'a mut Vec<Tcb>,
}

impl PolicyCtx<'_> {
    /// The zero-based priority level of `tid` (0 = priority 1, lowest).
    fn prio_index(&self, tid: ThreadId) -> usize {
        self.threads[tid.0 as usize].priority.index()
    }

    /// Clears the ready flag when the policy dequeues or removes `tid`.
    fn clear_in_ready(&mut self, tid: ThreadId) {
        self.threads[tid.0 as usize].in_ready = false;
    }

    /// True iff `tid` currently has a ready entry.
    fn in_ready(&self, tid: ThreadId) -> bool {
        self.threads[tid.0 as usize].in_ready
    }
}

/// A scheduling policy: decides which ready thread runs next, when the
/// running thread is preempted, and how long its timeslice is.
///
/// The trait is public so policies can be named in configuration, but it
/// is not implementable outside this crate: every method exchanges a
/// [`PolicyCtx`] whose contents are crate-private. The four shipped
/// policies are constructed via [`make`] from a [`PolicyKind`].
pub trait Scheduler: Send {
    /// `tid` became runnable. `front` requests LIFO placement among
    /// equals (used when a preempted thread should resume first);
    /// `wakeup` is true when the thread was blocked (not merely
    /// preempted or yielding) — MLFQ boosts on it.
    fn on_ready(&mut self, ctx: &mut PolicyCtx<'_>, tid: ThreadId, front: bool, wakeup: bool);

    /// Picks and dequeues the next thread to run, skipping `excluded`
    /// (the paper's `YieldButNotToMe`). Must clear the thread's
    /// `in_ready` flag via the context.
    fn next(&mut self, ctx: &mut PolicyCtx<'_>, excluded: Option<ThreadId>) -> Option<ThreadId>;

    /// Removes `tid` from the ready structure. The caller guarantees the
    /// thread currently has a live entry. Must clear `in_ready`.
    fn remove(&mut self, ctx: &mut PolicyCtx<'_>, tid: ThreadId);

    /// Should some ready thread preempt `running` right now? `excluded`
    /// is a donor shielded from preempting its beneficiary.
    fn preempts(
        &mut self,
        ctx: &mut PolicyCtx<'_>,
        running: ThreadId,
        excluded: Option<ThreadId>,
    ) -> bool;

    /// After `running`'s quantum expired: is there a ready thread that
    /// should get the CPU before `running` continues? `true` requeues
    /// the thread; `false` grants it a fresh slice immediately.
    fn has_competitor(&mut self, ctx: &mut PolicyCtx<'_>, running: ThreadId) -> bool;

    /// The quantum to grant `tid` on dispatch. `default` is the
    /// configured quantum; the paper's policy returns it unchanged.
    fn timeslice(&self, _tid: ThreadId, _priority: Priority, default: SimDuration) -> SimDuration {
        default
    }

    /// `tid` consumed `d` of virtual CPU at `priority`. CFS advances its
    /// virtual runtime here; the accounting mirrors
    /// [`SimStats::cpu_by_priority`](crate::SimStats).
    fn on_cpu(&mut self, _tid: ThreadId, _priority: Priority, _d: SimDuration) {}

    /// Does [`Scheduler::preempts`] read the CPU booked through
    /// [`Scheduler::on_cpu`]? The simulator remembers a `false` answer of
    /// `preempts` until one of its inputs changes, and booked CPU is one
    /// only when this says so. [`Cfs`]'s virtual runtime is the one case.
    fn preempts_reads_cpu(&self) -> bool {
        false
    }

    /// `tid` ran through a full quantum without blocking. MLFQ demotes
    /// here, before the simulator decides whether to requeue.
    fn on_quantum_expired(&mut self, _tid: ThreadId) {}

    /// `tid`'s base priority changed while it was *not* in the ready
    /// structure (running or blocked); a ready thread is re-queued via
    /// [`Scheduler::remove`]/[`Scheduler::on_ready`] instead. MLFQ
    /// resets the thread's feedback level to the new base.
    fn on_priority_changed(&mut self, _tid: ThreadId, _priority: Priority) {}

    /// How many ready threads there are, not counting `excluded` — the
    /// candidate count for the SystemDaemon's donation pick.
    fn ready_count_excluding(&self, ctx: &PolicyCtx<'_>, excluded: ThreadId) -> usize;

    /// The `n`-th ready thread (0-based) in this policy's deterministic
    /// enumeration order, skipping `excluded`. The daemon dispatches its
    /// donation to the thread the main RNG stream picked by index, so
    /// the order must be stable for a given ready-set state.
    fn nth_ready_excluding(
        &self,
        ctx: &PolicyCtx<'_>,
        n: usize,
        excluded: ThreadId,
    ) -> Option<ThreadId>;
}

/// Constructs the policy for `kind`. `seed` is the sim seed; policies
/// that need randomness derive a private stream from it.
pub fn make(kind: PolicyKind, seed: u64) -> Box<dyn Scheduler> {
    match kind {
        PolicyKind::RoundRobin => Box::new(RoundRobin::new()),
        PolicyKind::Cfs => Box::new(Cfs::new()),
        PolicyKind::Lottery => Box::new(Lottery::new(seed)),
        PolicyKind::Mlfq => Box::new(Mlfq::new()),
    }
}

/// Grows `v` with `fill` so `v[tid]` is addressable.
fn ensure<T: Clone>(v: &mut Vec<T>, tid: ThreadId, fill: T) {
    let idx = tid.0 as usize;
    if v.len() <= idx {
        v.resize(idx + 1, fill);
    }
}

// ---- strict levels, FIFO within a level ----------------------------------

/// One FIFO per level plus a mask of the nonempty ones: the ready
/// structure of both [`RoundRobin`] (level = base priority) and [`Mlfq`]
/// (level = feedback level). The highest nonempty level is one
/// leading-zeros instruction away; removal from the middle is a scan of
/// that level's queue.
#[derive(Default)]
struct LevelQueues {
    queues: [VecDeque<ThreadId>; Priority::LEVELS],
    /// Bit `i` set iff `queues[i]` is nonempty.
    mask: u32,
}

impl LevelQueues {
    fn push(&mut self, lvl: usize, tid: ThreadId, front: bool) {
        if front {
            self.queues[lvl].push_front(tid);
        } else {
            self.queues[lvl].push_back(tid);
        }
        self.mask |= 1 << lvl;
    }

    /// Takes the entry at `pos` of level `lvl` out of the ready set.
    fn take(&mut self, ctx: &mut PolicyCtx<'_>, lvl: usize, pos: usize) -> Option<ThreadId> {
        let tid = self.queues[lvl].remove(pos)?;
        if self.queues[lvl].is_empty() {
            self.mask &= !(1 << lvl);
        }
        ctx.clear_in_ready(tid);
        Some(tid)
    }

    /// Dequeues the head of the highest level, or with `excluded` (the
    /// paper's `YieldButNotToMe`) the first entry in (level desc, FIFO)
    /// order that is not it.
    fn pop(&mut self, ctx: &mut PolicyCtx<'_>, excluded: Option<ThreadId>) -> Option<ThreadId> {
        let mut mask = self.mask;
        while mask != 0 {
            let lvl = (31 - mask.leading_zeros()) as usize;
            mask &= !(1 << lvl);
            let pos = self.queues[lvl].iter().position(|&t| Some(t) != excluded);
            if let Some(pos) = pos {
                return self.take(ctx, lvl, pos);
            }
        }
        None
    }

    /// Removes `tid`, which the caller knows to be queued at `lvl`.
    fn remove(&mut self, ctx: &mut PolicyCtx<'_>, lvl: usize, tid: ThreadId) {
        let pos = self.queues[lvl].iter().position(|&t| t == tid);
        self.take(
            ctx,
            lvl,
            pos.expect("a ready thread is queued at its level"),
        );
    }

    /// Is any thread other than `excluded` queued above level `lvl`?
    /// `excluded` occupies at most one level; it is discounted when it
    /// is that level's only entry.
    fn any_above(&self, lvl: usize, excluded: Option<ThreadId>) -> bool {
        let mut above = self.mask & !((1u32 << (lvl + 1)) - 1);
        while above != 0 {
            let l = (31 - above.leading_zeros()) as usize;
            above &= !(1 << l);
            if self.queues[l].len() > 1 || self.queues[l].front().copied() != excluded {
                return true;
            }
        }
        false
    }

    /// Is anything queued at `lvl` or above?
    fn any_at_or_above(&self, lvl: usize) -> bool {
        self.mask >> lvl != 0
    }

    /// How many threads are ready, not counting `excluded`.
    fn count_excluding(&self, ctx: &PolicyCtx<'_>, excluded: ThreadId) -> usize {
        let all: usize = self.queues.iter().map(VecDeque::len).sum();
        all - ctx.in_ready(excluded) as usize
    }

    /// The `n`-th ready thread in (level asc, FIFO) order, skipping
    /// `excluded` — the enumeration the daemon's RNG pick indexes into.
    fn nth_excluding(&self, n: usize, excluded: ThreadId) -> Option<ThreadId> {
        let ready = self.queues.iter().flatten();
        ready.copied().filter(|&t| t != excluded).nth(n)
    }
}

// ---- round-robin (the paper's scheduler) --------------------------------

/// The paper's dispatcher: 7 strict priorities, FIFO round-robin within
/// a level, fixed quantum.
#[derive(Default)]
pub struct RoundRobin {
    /// One FIFO per base priority.
    ready: LevelQueues,
}

impl RoundRobin {
    /// An empty ready structure.
    pub fn new() -> Self {
        RoundRobin::default()
    }
}

impl Scheduler for RoundRobin {
    fn on_ready(&mut self, ctx: &mut PolicyCtx<'_>, tid: ThreadId, front: bool, _wakeup: bool) {
        self.ready.push(ctx.prio_index(tid), tid, front);
    }

    fn next(&mut self, ctx: &mut PolicyCtx<'_>, excluded: Option<ThreadId>) -> Option<ThreadId> {
        self.ready.pop(ctx, excluded)
    }

    fn remove(&mut self, ctx: &mut PolicyCtx<'_>, tid: ThreadId) {
        let lvl = ctx.prio_index(tid);
        self.ready.remove(ctx, lvl, tid);
    }

    fn preempts(
        &mut self,
        ctx: &mut PolicyCtx<'_>,
        running: ThreadId,
        excluded: Option<ThreadId>,
    ) -> bool {
        self.ready.any_above(ctx.prio_index(running), excluded)
    }

    fn has_competitor(&mut self, ctx: &mut PolicyCtx<'_>, running: ThreadId) -> bool {
        self.ready.any_at_or_above(ctx.prio_index(running))
    }

    fn ready_count_excluding(&self, ctx: &PolicyCtx<'_>, excluded: ThreadId) -> usize {
        self.ready.count_excluding(ctx, excluded)
    }

    fn nth_ready_excluding(
        &self,
        _ctx: &PolicyCtx<'_>,
        n: usize,
        excluded: ThreadId,
    ) -> Option<ThreadId> {
        self.ready.nth_excluding(n, excluded)
    }
}

// ---- CFS-style fair scheduling ------------------------------------------

/// Virtual-runtime resolution: one microsecond of CPU at the lowest
/// weight advances virtual runtime by this many units.
const CFS_SCALE: u64 = 1024;

/// A waking thread preempts the running one only when it trails by more
/// than this much virtual runtime (1 ms at weight 1), bounding switch
/// churn the way CFS's wakeup granularity does.
const CFS_WAKEUP_GRANULARITY: u64 = 1000 * CFS_SCALE;

/// CFS-style fair scheduling: the ready thread with the lowest virtual
/// runtime runs next. Priority is a *weight*, not a strict order —
/// each level doubles the weight (priority 7 earns 64× the CPU share of
/// priority 1 under contention), and virtual runtime advances as
/// `cpu / weight`, mirroring the per-priority accounting that
/// [`SimStats::cpu_by_priority`](crate::SimStats) already keeps. A
/// monotone watermark places wakers at the current fair position so
/// sleepers cannot hoard credit.
#[derive(Default)]
pub struct Cfs {
    /// Ready threads ordered by `(virtual runtime, tid)`.
    queue: BTreeSet<(u64, u32)>,
    /// Accumulated weighted virtual runtime per thread.
    vruntime: Vec<u64>,
    /// The key each in-queue thread was inserted under (needed for
    /// exact removal).
    key: Vec<u64>,
    /// Monotone floor: new arrivals start at least here.
    min_vruntime: u64,
}

/// The CPU-share weight of a priority level under [`Cfs`] and the
/// ticket count under [`Lottery`]: each of the paper's 7 levels doubles
/// it (1, 2, 4, … 64).
pub fn weight(priority: Priority) -> u64 {
    1 << priority.index()
}

impl Cfs {
    /// An empty fair-queueing structure.
    pub fn new() -> Self {
        Cfs::default()
    }

    fn first_excluding(&self, excluded: Option<ThreadId>) -> Option<(u64, u32)> {
        self.queue
            .iter()
            .find(|&&(_, t)| excluded != Some(ThreadId(t)))
            .copied()
    }
}

impl Scheduler for Cfs {
    fn on_ready(&mut self, _ctx: &mut PolicyCtx<'_>, tid: ThreadId, _front: bool, _wakeup: bool) {
        ensure(&mut self.vruntime, tid, 0);
        ensure(&mut self.key, tid, 0);
        let idx = tid.0 as usize;
        // Place at the fair frontier: a thread that slept keeps no
        // banked credit below the watermark.
        let vr = self.vruntime[idx].max(self.min_vruntime);
        self.vruntime[idx] = vr;
        self.key[idx] = vr;
        self.queue.insert((vr, tid.0));
    }

    fn next(&mut self, ctx: &mut PolicyCtx<'_>, excluded: Option<ThreadId>) -> Option<ThreadId> {
        let (key, raw) = self.first_excluding(excluded)?;
        self.queue.remove(&(key, raw));
        self.min_vruntime = self.min_vruntime.max(key);
        let tid = ThreadId(raw);
        ctx.clear_in_ready(tid);
        Some(tid)
    }

    fn remove(&mut self, ctx: &mut PolicyCtx<'_>, tid: ThreadId) {
        let removed = self.queue.remove(&(self.key[tid.0 as usize], tid.0));
        debug_assert!(removed, "CFS removal of a thread not in the queue");
        ctx.clear_in_ready(tid);
    }

    fn preempts(
        &mut self,
        _ctx: &mut PolicyCtx<'_>,
        running: ThreadId,
        excluded: Option<ThreadId>,
    ) -> bool {
        ensure(&mut self.vruntime, running, 0);
        let Some((key, _)) = self.first_excluding(excluded) else {
            return false;
        };
        key.saturating_add(CFS_WAKEUP_GRANULARITY) < self.vruntime[running.0 as usize]
    }

    fn has_competitor(&mut self, _ctx: &mut PolicyCtx<'_>, _running: ThreadId) -> bool {
        !self.queue.is_empty()
    }

    fn preempts_reads_cpu(&self) -> bool {
        true
    }

    fn on_cpu(&mut self, tid: ThreadId, priority: Priority, d: SimDuration) {
        ensure(&mut self.vruntime, tid, 0);
        self.vruntime[tid.0 as usize] += d.as_micros() * CFS_SCALE / weight(priority);
    }

    fn ready_count_excluding(&self, _ctx: &PolicyCtx<'_>, excluded: ThreadId) -> usize {
        self.queue.iter().filter(|&&(_, t)| t != excluded.0).count()
    }

    fn nth_ready_excluding(
        &self,
        _ctx: &PolicyCtx<'_>,
        n: usize,
        excluded: ThreadId,
    ) -> Option<ThreadId> {
        self.queue
            .iter()
            .filter(|&&(_, t)| t != excluded.0)
            .nth(n)
            .map(|&(_, t)| ThreadId(t))
    }
}

// ---- lottery scheduling -------------------------------------------------

/// Lottery scheduling: every pick draws a ticket from a dedicated RNG
/// stream (`seed ^ LOTTERY_SEED_SALT`) and walks the ready list
/// accumulating priority-proportional ticket counts ([`weight`]) until
/// the draw lands. There is no preemption on wakeup — probabilistic
/// fairness replaces strict priority — so a compute-bound thread runs
/// out its quantum even when a higher-priority thread wakes. Starvation
/// is impossible in expectation: every ready thread holds at least one
/// ticket.
pub struct Lottery {
    /// Ready threads in enqueue order (swap-removed on dequeue).
    entries: Vec<ThreadId>,
    /// Position of each thread in `entries` (`NO_POS` when absent).
    pos: Vec<u32>,
    /// The policy's private RNG stream.
    rng: SplitMix64,
}

/// Sentinel for "not in the entries vector".
const NO_POS: u32 = u32::MAX;

impl Lottery {
    /// An empty lottery with its RNG derived from the sim seed.
    pub fn new(seed: u64) -> Self {
        Lottery {
            entries: Vec::new(),
            pos: Vec::new(),
            rng: SplitMix64::new(seed ^ LOTTERY_SEED_SALT),
        }
    }

    fn take_at(&mut self, ctx: &mut PolicyCtx<'_>, i: usize) -> ThreadId {
        let tid = self.entries.swap_remove(i);
        self.pos[tid.0 as usize] = NO_POS;
        if let Some(&moved) = self.entries.get(i) {
            self.pos[moved.0 as usize] = i as u32;
        }
        ctx.clear_in_ready(tid);
        tid
    }
}

impl Scheduler for Lottery {
    fn on_ready(&mut self, _ctx: &mut PolicyCtx<'_>, tid: ThreadId, _front: bool, _wakeup: bool) {
        ensure(&mut self.pos, tid, NO_POS);
        self.pos[tid.0 as usize] = self.entries.len() as u32;
        self.entries.push(tid);
    }

    fn next(&mut self, ctx: &mut PolicyCtx<'_>, excluded: Option<ThreadId>) -> Option<ThreadId> {
        let total: u64 = self
            .entries
            .iter()
            .filter(|&&t| excluded != Some(t))
            .map(|&t| weight(ctx.threads[t.0 as usize].priority))
            .sum();
        if total == 0 {
            return None;
        }
        let mut draw = self.rng.next_below(total);
        for i in 0..self.entries.len() {
            let t = self.entries[i];
            if excluded == Some(t) {
                continue;
            }
            let tickets = weight(ctx.threads[t.0 as usize].priority);
            if draw < tickets {
                return Some(self.take_at(ctx, i));
            }
            draw -= tickets;
        }
        unreachable!("lottery draw exceeded total tickets");
    }

    fn remove(&mut self, ctx: &mut PolicyCtx<'_>, tid: ThreadId) {
        let i = self.pos[tid.0 as usize];
        debug_assert_ne!(i, NO_POS, "lottery removal of an absent thread");
        self.take_at(ctx, i as usize);
    }

    fn preempts(
        &mut self,
        _ctx: &mut PolicyCtx<'_>,
        _running: ThreadId,
        _excluded: Option<ThreadId>,
    ) -> bool {
        // Fairness comes from the draw, not from priority preemption.
        false
    }

    fn has_competitor(&mut self, _ctx: &mut PolicyCtx<'_>, _running: ThreadId) -> bool {
        !self.entries.is_empty()
    }

    fn ready_count_excluding(&self, _ctx: &PolicyCtx<'_>, excluded: ThreadId) -> usize {
        self.entries.iter().filter(|&&t| t != excluded).count()
    }

    fn nth_ready_excluding(
        &self,
        _ctx: &PolicyCtx<'_>,
        n: usize,
        excluded: ThreadId,
    ) -> Option<ThreadId> {
        self.entries
            .iter()
            .filter(|&&t| t != excluded)
            .nth(n)
            .copied()
    }
}

// ---- multi-level feedback queue -----------------------------------------

/// Multi-level feedback queue over the same 7 levels: a thread *starts*
/// at its base priority's level, is demoted one level (floor 0) each
/// time it burns a full quantum, and is boosted back to its base level
/// whenever it wakes from blocking — so interactive threads hover near
/// the top while compute-bound spinners sink. Higher levels run with
/// shorter timeslices (`default / (1 + level)`), the classic MLFQ
/// interactivity trade. The ready structure is [`RoundRobin`]'s, indexed
/// by the *effective* level instead of the base priority.
#[derive(Default)]
pub struct Mlfq {
    /// One FIFO per feedback level.
    ready: LevelQueues,
    /// Effective feedback level per thread (`NO_LEVEL` until first seen).
    level: Vec<u8>,
}

/// Sentinel for "feedback level not yet assigned".
const NO_LEVEL: u8 = u8::MAX;

impl Mlfq {
    /// An empty feedback queue.
    pub fn new() -> Self {
        Mlfq::default()
    }

    /// The thread's effective level, initialized to its base priority's
    /// level on first contact.
    fn level_of(&mut self, ctx: &PolicyCtx<'_>, tid: ThreadId) -> usize {
        ensure(&mut self.level, tid, NO_LEVEL);
        let idx = tid.0 as usize;
        if self.level[idx] == NO_LEVEL {
            self.level[idx] = ctx.prio_index(tid) as u8;
        }
        self.level[idx] as usize
    }
}

impl Scheduler for Mlfq {
    fn on_ready(&mut self, ctx: &mut PolicyCtx<'_>, tid: ThreadId, front: bool, wakeup: bool) {
        let lvl = if wakeup {
            // Boost: a thread that blocked (slept, waited, joined) was
            // interactive — restart it at its base priority's level.
            ensure(&mut self.level, tid, NO_LEVEL);
            let base = ctx.prio_index(tid) as u8;
            self.level[tid.0 as usize] = base;
            base as usize
        } else {
            self.level_of(ctx, tid)
        };
        self.ready.push(lvl, tid, front);
    }

    fn next(&mut self, ctx: &mut PolicyCtx<'_>, excluded: Option<ThreadId>) -> Option<ThreadId> {
        self.ready.pop(ctx, excluded)
    }

    fn remove(&mut self, ctx: &mut PolicyCtx<'_>, tid: ThreadId) {
        let lvl = self.level_of(ctx, tid);
        self.ready.remove(ctx, lvl, tid);
    }

    fn preempts(
        &mut self,
        ctx: &mut PolicyCtx<'_>,
        running: ThreadId,
        excluded: Option<ThreadId>,
    ) -> bool {
        let lvl = self.level_of(ctx, running);
        self.ready.any_above(lvl, excluded)
    }

    fn has_competitor(&mut self, ctx: &mut PolicyCtx<'_>, running: ThreadId) -> bool {
        let lvl = self.level_of(ctx, running);
        self.ready.any_at_or_above(lvl)
    }

    fn timeslice(&self, tid: ThreadId, _priority: Priority, default: SimDuration) -> SimDuration {
        let lvl = self
            .level
            .get(tid.0 as usize)
            .copied()
            .filter(|&l| l != NO_LEVEL)
            .unwrap_or(0) as u64;
        SimDuration::from_micros(default.as_micros() / (1 + lvl))
    }

    fn on_quantum_expired(&mut self, tid: ThreadId) {
        ensure(&mut self.level, tid, NO_LEVEL);
        let l = &mut self.level[tid.0 as usize];
        *l = if *l == NO_LEVEL {
            0
        } else {
            l.saturating_sub(1)
        };
    }

    fn on_priority_changed(&mut self, tid: ThreadId, priority: Priority) {
        ensure(&mut self.level, tid, NO_LEVEL);
        self.level[tid.0 as usize] = priority.index() as u8;
    }

    fn ready_count_excluding(&self, ctx: &PolicyCtx<'_>, excluded: ThreadId) -> usize {
        self.ready.count_excluding(ctx, excluded)
    }

    fn nth_ready_excluding(
        &self,
        _ctx: &PolicyCtx<'_>,
        n: usize,
        excluded: ThreadId,
    ) -> Option<ThreadId> {
        self.ready.nth_excluding(n, excluded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_kind_round_trips_through_str() {
        for kind in PolicyKind::ALL {
            assert_eq!(kind.as_str().parse::<PolicyKind>().unwrap(), kind);
        }
        assert!("nope".parse::<PolicyKind>().is_err());
        assert_eq!("RR".parse::<PolicyKind>().unwrap(), PolicyKind::RoundRobin);
        assert_eq!("fair".parse::<PolicyKind>().unwrap(), PolicyKind::Cfs);
    }

    #[test]
    fn default_policy_is_the_papers() {
        assert_eq!(PolicyKind::default(), PolicyKind::RoundRobin);
    }

    #[test]
    fn weights_double_per_level() {
        assert_eq!(weight(Priority::MIN), 1);
        assert_eq!(weight(Priority::of(2)), 2);
        assert_eq!(weight(Priority::MAX), 64);
    }
}
