//! Monitors: ENTER and EXIT, the hand-off of a released monitor to the
//! first queued thread, the reacquire a woken waiter makes when it is
//! dispatched (§6.1's spurious lock conflict), and the §6.2 metalock:
//! the window in which a contended ENTER can be preempted, the stall of
//! whoever comes next, and the cycle donation that PCR shipped for it.

use std::collections::VecDeque;
use std::sync::Arc;

use super::{AfterDebt, Kernel, MonitorState, Reply, Sim, TState};
use crate::event::{EventKind, WaitOutcome};
use crate::monitor::{Monitor, MonitorId};
use crate::thread::ThreadId;
use crate::time::SimDuration;

impl Sim {
    /// Creates a monitor before the run starts.
    pub fn monitor<T: Send + 'static>(&mut self, name: &str, data: T) -> Monitor<T> {
        let k = &mut *self.kernel_mut();
        Monitor::new(k.new_monitor(name.into()), k.sim, data)
    }

    /// Creates one monitor per name before the run, with consecutive ids
    /// in `names`' order; the `i`th holds `init(i)`. The batch costs O(1)
    /// allocations: the kernel's table grows once, each name is a clone
    /// of the caller's shared one, and every monitor's data sits in one
    /// block.
    pub fn monitors<T: Send + 'static>(
        &mut self,
        names: &[Arc<str>],
        init: impl FnMut(usize) -> T,
    ) -> Vec<Monitor<T>> {
        let (first, sim) = {
            let k = &mut *self.kernel_mut();
            // Once, and to the capacity that growth by doubling would
            // reach: an exact reserve leaves the world's next monitor a
            // copy into a table twice the batch.
            let want = (k.monitors.len() + names.len()).next_power_of_two();
            k.monitors.reserve(want - k.monitors.len());
            let first = MonitorId(k.monitors.len() as u32);
            for name in names {
                k.new_monitor(Arc::clone(name));
            }
            (first, k.sim)
        };
        Monitor::batch(first, sim, names.len(), init)
    }

    /// Toggles metalock cycle donation at runtime (§6.2 recovery: the
    /// remedy PCR shipped). Enabling it immediately donates the
    /// remaining window of every preempted metalock holder that has
    /// waiters stalled behind it — a stalled holder is rejuvenated
    /// first. Returns how many stuck metalocks were cleared.
    pub fn set_metalock_donation(&mut self, enabled: bool) -> usize {
        let k = &mut *self.kernel_mut();
        k.cfg.metalock_donation = enabled;
        if !enabled {
            return 0;
        }
        let mut cleared = 0;
        for i in 0..k.monitors.len() {
            let m = &k.monitors[i];
            let Some(holder) = m.meta.filter(|_| !m.meta_waiters.is_empty()) else {
                continue;
            };
            match k.threads[holder.0 as usize].state {
                TState::Stalled => {
                    k.rejuvenate(holder);
                }
                TState::Ready => {}
                _ => continue,
            }
            k.donate_metalock(MonitorId(i as u32), holder);
            cleared += 1;
        }
        cleared
    }
}

impl Kernel {
    pub(super) fn new_monitor(&mut self, name: Arc<str>) -> MonitorId {
        // Field by field: `..Default::default()` would build an empty
        // name, an atomic clone and drop, just to overwrite it.
        self.monitors.push(MonitorState {
            name,
            entered: false,
            owner: None,
            queue: VecDeque::new(),
            deferred: Vec::new(),
            meta: None,
            meta_waiters: VecDeque::new(),
        });
        MonitorId(self.monitors.len() as u32 - 1)
    }

    /// ENTER: a free monitor is taken at once; a held one queues the
    /// caller behind its owner, on one CPU after the metalock window
    /// (§6.2); the owner entering again faults, as Mesa monitors are not
    /// re-entrant.
    #[inline]
    pub(super) fn handle_enter(&mut self, tid: ThreadId, mid: MonitorId) {
        // Metalock window check (§6.2): someone preempted mid-window?
        if let Some(holder) = self.monitors[mid.0 as usize].meta {
            if holder != tid {
                if self.cfg.metalock_donation {
                    self.donate_metalock(mid, holder);
                } else {
                    return self.stall_behind_metalock(tid, mid, holder);
                }
            }
        }
        match self.monitors[mid.0 as usize].owner {
            None => {
                self.take_free_monitor(tid, mid);
                self.reply_ok(tid);
            }
            Some(owner) if owner == tid => {
                self.fault(
                    tid,
                    format!(
                        "recursive monitor entry on {:?} ({}); Mesa monitors are not re-entrant",
                        mid, self.monitors[mid.0 as usize].name
                    ),
                );
            }
            Some(_) => {
                self.note_enter(tid, mid, true);
                if !self.uniprocessor() {
                    // No window to be preempted in: ENTER is atomic, and
                    // the owner seen above still holds the monitor.
                    return self.finish_block_on_mutex(tid, mid);
                }
                self.open_metalock_window(tid, mid);
            }
        }
    }

    /// The rule of an uncontended ENTER: `tid` owns the free `mid`.
    #[inline]
    pub(super) fn take_free_monitor(&mut self, tid: ThreadId, mid: MonitorId) {
        self.monitors[mid.0 as usize].owner = Some(tid);
        self.note_enter(tid, mid, false);
    }

    /// A contended ENTER on one CPU enqueues inside the monitor's metalock
    /// window, `metalock_cost` long; if the caller is preempted during it,
    /// the next to enter stalls or donates cycles (§6.2).
    fn open_metalock_window(&mut self, tid: ThreadId, mid: MonitorId) {
        self.monitors[mid.0 as usize].meta = Some(tid);
        let t = &mut self.threads[tid.0 as usize];
        t.debt = self.cfg.metalock_cost;
        t.after_debt = AfterDebt::BlockOnMutex(mid);
    }

    /// Without donation, an ENTER that finds a preempted thread inside
    /// the metalock window stalls behind it (§6.2's stable inversion).
    fn stall_behind_metalock(&mut self, tid: ThreadId, mid: MonitorId, holder: ThreadId) {
        self.stats.metalock_stalls += 1;
        self.emit(EventKind::MetalockStall {
            tid,
            monitor: mid,
            holder,
        });
        self.monitors[mid.0 as usize].meta_waiters.push_back(tid);
        self.threads[tid.0 as usize].state = TState::MetaWait(mid);
        self.threads[tid.0 as usize].blocked_since = self.clock;
    }

    /// EXIT, by the owner only: the monitor passes on.
    #[inline]
    pub(super) fn handle_exit_monitor(&mut self, tid: ThreadId, mid: MonitorId) {
        if self.monitors[mid.0 as usize].owner != Some(tid) {
            self.fault(
                tid,
                format!(
                    "monitor exit on {:?} ({}) by non-owner",
                    mid, self.monitors[mid.0 as usize].name
                ),
            );
            return;
        }
        self.exit_owned_monitor(tid, mid);
        self.reply_ok(tid);
    }

    /// The rule of an EXIT by the owner: announced, and `mid` passes on.
    #[inline]
    pub(super) fn exit_owned_monitor(&mut self, tid: ThreadId, mid: MonitorId) {
        self.emit(EventKind::MlExit { tid, monitor: mid });
        self.release_monitor(mid);
    }

    /// Counts and announces one monitor entry.
    fn note_enter(&mut self, tid: ThreadId, mid: MonitorId, contended: bool) {
        let entered = &mut self.monitors[mid.0 as usize].entered;
        self.stats.ml_enters += 1;
        self.stats.ml_contended += u64::from(contended);
        self.stats.distinct_monitors += usize::from(!std::mem::replace(entered, true));
        self.emit(EventKind::MlEnter {
            tid,
            monitor: mid,
            contended,
        });
    }

    /// Consumes a thread's pending CV-wake bookkeeping, emitting the
    /// `CvWake` event, and returns the reply it should receive once it
    /// holds its monitor again.
    fn grant_reply(&mut self, tid: ThreadId) -> Reply {
        match self.threads[tid.0 as usize].reacquire.take() {
            Some((outcome, cv)) => {
                self.emit(EventKind::CvWake { tid, cv, outcome });
                Reply::Wait(outcome)
            }
            None => Reply::Ok,
        }
    }

    /// Grants a released monitor to the next queued thread, flushing
    /// deferred notifications into the queue first (§6.1: the notified
    /// threads queue behind the monitor instead of racing for it).
    #[inline]
    pub(super) fn release_monitor(&mut self, mid: MonitorId) {
        // Move the deferred list out wholesale and hand its (emptied)
        // buffer back afterwards, so the common notify-heavy path never
        // allocates.
        let now = self.clock;
        let mut deferred = std::mem::take(&mut self.monitors[mid.0 as usize].deferred);
        for &(wtid, outcome, cv) in &deferred {
            let w = &mut self.threads[wtid.0 as usize];
            debug_assert!(matches!(w.state, TState::CvWait(_)));
            w.state = TState::MutexWait(mid);
            w.blocked_since = now;
            w.reacquire = Some((outcome, cv));
            self.monitors[mid.0 as usize].queue.push_back(wtid);
        }
        deferred.clear();
        debug_assert!(self.monitors[mid.0 as usize].deferred.is_empty());
        self.monitors[mid.0 as usize].deferred = deferred;
        self.monitors[mid.0 as usize].owner = None;
        if let Some(next) = self.monitors[mid.0 as usize].queue.pop_front() {
            self.monitors[mid.0 as usize].owner = Some(next);
            self.emit(EventKind::MlAcquired {
                tid: next,
                monitor: mid,
            });
            let reply = self.grant_reply(next);
            self.threads[next.0 as usize].pending_reply = Some(reply);
            self.push_ready_back(next);
        }
    }

    /// Handles a thread's dispatch-time monitor (re)acquire. Returns true
    /// if the thread may keep running, false if it blocked.
    #[inline]
    pub(super) fn dispatch_acquire(&mut self, tid: ThreadId, mid: MonitorId) -> bool {
        match self.monitors[mid.0 as usize].owner {
            None => {
                self.monitors[mid.0 as usize].owner = Some(tid);
                self.note_enter(tid, mid, false);
                let reply = self.grant_reply(tid);
                self.reply(tid, reply, self.cfg.primitive_cost);
                true
            }
            Some(_) => {
                // The §6.1 wasted trip: dispatched just to block again.
                let waking = self.threads[tid.0 as usize].reacquire;
                if matches!(waking, Some((WaitOutcome::Notified, _))) {
                    self.stats.spurious_conflicts += 1;
                    self.emit(EventKind::SpuriousLockConflict { tid, monitor: mid });
                }
                self.note_enter(tid, mid, true);
                self.monitors[mid.0 as usize].queue.push_back(tid);
                self.threads[tid.0 as usize].state = TState::MutexWait(mid);
                self.threads[tid.0 as usize].blocked_since = self.clock;
                false
            }
        }
    }

    /// Runs the preempted metalock holder's remaining window right now
    /// (cycle donation), unblocking the monitor's queues.
    fn donate_metalock(&mut self, mid: MonitorId, holder: ThreadId) {
        let debt = self.threads[holder.0 as usize].debt;
        self.charge_thread(holder, debt);
        self.set_clock(self.clock + debt);
        self.threads[holder.0 as usize].debt = SimDuration::ZERO;
        debug_assert_eq!(
            self.threads[holder.0 as usize].after_debt,
            AfterDebt::BlockOnMutex(mid)
        );
        // The holder finishes its enqueue-and-block immediately; it was
        // Ready (preempted), so pull it from the ready queue first.
        let was_ready = self.remove_from_ready(holder);
        debug_assert!(
            was_ready || self.threads[holder.0 as usize].state == TState::Stalled,
            "metalock holder must be preempted/ready (or chaos-stalled)"
        );
        // A stalled holder's stall ends here, and its timer with it.
        self.cancel_wake_timers(holder);
        self.finish_block_on_mutex(holder, mid);
    }

    /// Completes a contended-enter after its metalock window: clears the
    /// metalock, releases stalled threads, and enqueues (or grants).
    pub(super) fn finish_block_on_mutex(&mut self, tid: ThreadId, mid: MonitorId) {
        self.threads[tid.0 as usize].after_debt = AfterDebt::Reply;
        let m = &mut self.monitors[mid.0 as usize];
        if m.meta == Some(tid) {
            m.meta = None;
        }
        // Same take-and-return trick as `release_monitor`: no allocation
        // per metalock release.
        let mut stalled = std::mem::take(&mut m.meta_waiters);
        for &s in &stalled {
            let t = &mut self.threads[s.0 as usize];
            t.acquire_on_dispatch = Some(mid);
            self.push_ready_back(s);
        }
        stalled.clear();
        debug_assert!(self.monitors[mid.0 as usize].meta_waiters.is_empty());
        self.monitors[mid.0 as usize].meta_waiters = stalled;
        let m = &mut self.monitors[mid.0 as usize];
        if m.owner.is_none() && m.queue.is_empty() {
            // The mutex freed up while we were in the metalock window.
            m.owner = Some(tid);
            self.emit(EventKind::MlAcquired { tid, monitor: mid });
            let reply = self.grant_reply(tid);
            self.threads[tid.0 as usize].pending_reply = Some(reply);
            self.push_ready_back(tid);
        } else {
            m.queue.push_back(tid);
            self.threads[tid.0 as usize].state = TState::MutexWait(mid);
            self.threads[tid.0 as usize].blocked_since = self.clock;
        }
    }

    /// True if `tid` is inside a monitor named by stall `spec`'s
    /// `while_holding` gate, or the stall has no gate. The name is
    /// resolved to ids once; a later poll looks only at monitors created
    /// since, so it costs an owner compare per monitor of that name.
    pub(super) fn holds_gate(&mut self, spec: usize, tid: ThreadId) -> bool {
        let Some(name) = &self.cfg.chaos.stalls[spec].while_holding else {
            return true;
        };
        let (seen, ids) = &mut self.gates[spec];
        for (i, m) in self.monitors.iter().enumerate().skip(*seen) {
            if *m.name == **name {
                ids.push(MonitorId(i as u32));
            }
        }
        *seen = self.monitors.len();
        let owns = |id: &MonitorId| self.monitors[id.0 as usize].owner == Some(tid);
        ids.iter().any(owns)
    }
}
