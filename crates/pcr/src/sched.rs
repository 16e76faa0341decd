//! The scheduler: strict priorities, round-robin timeslicing, preemption,
//! yields and slice donation, monitors, and condition variables.
//!
//! All scheduling state, the virtual clock included, lives in one
//! [`Kernel`] behind an `Rc<RefCell<_>>` that [`Sim`] shares with the
//! [`ThreadCtx`] of each simulated thread. Threads are coroutines on the
//! OS thread that calls [`Sim::run`], and a thread's kernel calls
//! ([`Kernel::serve`]) run on its own stack: it switches to the
//! scheduler's only to leave the CPU. So the simulation is single-threaded
//! in fact and deterministic for a given configuration and seed.
//!
//! The kernel is the same at any CPU count ([`Sim::with_cpus`]): a second
//! virtual processor changes how the clock advances (the run loop in
//! [`crate::mp`]) and takes the three `cpus == 1` branches its table lists.

use std::cell::{OnceCell, Ref, RefCell, RefMut};
use std::collections::VecDeque;
use std::rc::{Rc, Weak};
use std::sync::Arc;

use crate::chaos::{FaultDecision, FaultSchedule, FaultSiteKind};
use crate::condition::{Condition, CvState};
use crate::config::{ForkPolicy, NotifyMode, SimConfig};
use crate::coroutine::{Coroutine, StackPool};
use crate::ctx::{fork_spec, ThreadCtx};
use crate::error::{DeadlockReport, RunReport, StopReason};
use crate::event::{CondId, Event, EventKind, EventMask, TraceSink, WaitOutcome, YieldKind};
use crate::hazard::HazardMonitor;
use crate::monitor::{Monitor, MonitorId};
use crate::rendezvous::{ForkSpec, Reply, Request};
use crate::rng::SplitMix64;
use crate::thread::{JoinHandle, Priority, ThreadId, ThreadInfo, ThreadView};
use crate::time::{micros, millis, SimDuration, SimTime};
use crate::timer::{TimerKind, TimerWheel};
use crate::wheel::WheelToken;

pub mod policy;

use policy::{PolicyCtx, Scheduler};

/// Salt folded into the seed for the dedicated chaos RNG stream, so
/// enabling injection leaves the scheduler's own random decisions (e.g.
/// SystemDaemon donation targets) untouched.
const CHAOS_SEED_SALT: u64 = 0xC4A0_5EED_1B5A_93D7;

/// Wakeup-to-run scheduler-latency profile, per priority level.
///
/// Every time the scheduler switches to a thread it records how long that
/// thread sat in the ready queue (§6.2's preemption concerns, §6.3's
/// quantum tuning): one sample per emitted [`EventKind::Switch`], bucketed
/// into a log₂-microsecond histogram. Maintained inside [`SimStats`], so a
/// measurement window is the elementwise delta of two snapshots
/// ([`SchedLatency::window_since`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SchedLatency {
    /// Dispatches observed at each priority level (index 0 = priority 1).
    pub samples: [u64; Priority::LEVELS],
    /// Summed ready-queue wait per priority level.
    pub total_wait: [SimDuration; Priority::LEVELS],
    /// Longest single ready-queue wait per priority level.
    pub max_wait: [SimDuration; Priority::LEVELS],
    /// Histogram counts: `buckets[p][b]` is the number of dispatches at
    /// priority index `p` whose wait fell in bucket `b`. Bucket 0 is a
    /// zero-microsecond wait; bucket `b > 0` covers `[2^(b-1), 2^b)`
    /// microseconds, with the last bucket open-ended.
    pub buckets: [[u64; SchedLatency::BUCKETS]; Priority::LEVELS],
}

impl SchedLatency {
    /// Number of histogram buckets per priority level.
    pub const BUCKETS: usize = 20;

    /// The bucket index a wait of `d` falls into.
    pub fn bucket_of(d: SimDuration) -> usize {
        let us = d.as_micros();
        if us == 0 {
            0
        } else {
            ((63 - us.leading_zeros()) as usize + 1).min(Self::BUCKETS - 1)
        }
    }

    /// Lower bound (inclusive), in microseconds, of bucket `b`.
    pub fn bucket_floor_us(b: usize) -> u64 {
        if b == 0 {
            0
        } else {
            1u64 << (b - 1)
        }
    }

    /// Records one dispatch of a thread at `prio` that waited `d`.
    pub fn record(&mut self, prio: Priority, d: SimDuration) {
        let p = prio.index();
        self.samples[p] += 1;
        self.total_wait[p] += d;
        if d > self.max_wait[p] {
            self.max_wait[p] = d;
        }
        self.buckets[p][Self::bucket_of(d)] += 1;
    }

    /// Mean wait at priority index `p`, if any sample exists.
    pub fn mean_wait(&self, p: usize) -> Option<SimDuration> {
        self.total_wait[p]
            .as_micros()
            .checked_div(self.samples[p])
            .map(SimDuration::from_micros)
    }

    /// The elementwise delta of `self` over an earlier snapshot `start`,
    /// giving the profile for the window between them. `max_wait` is not
    /// windowable from counters alone, so the end-of-run maximum is kept
    /// (an upper bound for the window).
    pub fn window_since(&self, start: &SchedLatency) -> SchedLatency {
        let mut out = self.clone();
        for p in 0..Priority::LEVELS {
            out.samples[p] -= start.samples[p];
            out.total_wait[p] -= start.total_wait[p];
            for b in 0..Self::BUCKETS {
                out.buckets[p][b] -= start.buckets[p][b];
            }
        }
        out
    }
}

/// Aggregate counters maintained by the runtime, mirroring the metrics in
/// the paper's Tables 1–3.
#[derive(Clone, Debug, Default)]
pub struct SimStats {
    /// Threads created (Table 1: forks/sec).
    pub forks: u64,
    /// Threads exited.
    pub exits: u64,
    /// Threads that exited by panic.
    pub panics: u64,
    /// Thread switches (Table 1: thread switches/sec).
    pub switches: u64,
    /// Timeslice expirations.
    pub quantum_expiries: u64,
    /// Monitor entries (Table 2: ML-enters/sec).
    pub ml_enters: u64,
    /// Contended monitor entries (paper §3: 0.01–0.1 % in Cedar, up to
    /// 0.4 % in GVX).
    pub ml_contended: u64,
    /// CV waits begun (Table 2: waits/sec).
    pub cv_waits: u64,
    /// CV waits that ended by timeout (Table 2: % timeouts).
    pub cv_timeouts: u64,
    /// NOTIFY calls.
    pub cv_notifies: u64,
    /// BROADCAST calls.
    pub cv_broadcasts: u64,
    /// Spurious lock conflicts (§6.1): a notified thread dispatched only
    /// to block on the still-held monitor.
    pub spurious_conflicts: u64,
    /// Yield primitives invoked (all kinds).
    pub yields: u64,
    /// SystemDaemon donations performed.
    pub daemon_donations: u64,
    /// FORKs that blocked for resources (§5.4).
    pub fork_blocks: u64,
    /// FORKs that failed with an error (§5.4).
    pub fork_failures: u64,
    /// Stalls behind a preempted metalock holder (§6.2, donation off).
    pub metalock_stalls: u64,
    /// FORKs failed by chaos injection (§5.4).
    pub chaos_fork_failures: u64,
    /// Spurious CV wakeups injected by chaos (§5.3).
    pub chaos_spurious_wakeups: u64,
    /// NOTIFYs silently dropped by chaos (§5.3).
    pub chaos_dropped_notifies: u64,
    /// NOTIFYs that chaos made wake a second waiter (§5.3).
    pub chaos_duplicated_notifies: u64,
    /// Thread stalls applied by chaos (§5.2, §6.2).
    pub chaos_stalls: u64,
    /// PCT-style priority changes applied by chaos at dispatch points
    /// (§6.2's priorities as a fuzz dimension).
    pub chaos_priority_changes: u64,
    /// High-water mark of live threads (paper: never exceeded 41 in the
    /// benchmarks).
    pub max_live_threads: usize,
    /// Distinct monitors entered (Table 3: # MLs).
    pub distinct_monitors: usize,
    /// Distinct CVs waited on (Table 3: # CVs).
    pub distinct_conditions: usize,
    /// Virtual CPU consumed at each priority level (§3's per-priority
    /// execution-time profile).
    pub cpu_by_priority: [SimDuration; Priority::LEVELS],
    /// Total virtual CPU consumed by threads.
    pub total_cpu: SimDuration,
    /// Wakeup-to-run latency profile, one sample per thread switch.
    pub sched_latency: SchedLatency,
}

impl SimStats {
    /// Fraction of CV waits that timed out.
    pub fn timeout_fraction(&self) -> f64 {
        if self.cv_waits == 0 {
            0.0
        } else {
            self.cv_timeouts as f64 / self.cv_waits as f64
        }
    }

    /// Fraction of monitor entries that were contended.
    pub fn contention_fraction(&self) -> f64 {
        if self.ml_enters == 0 {
            0.0
        } else {
            self.ml_contended as f64 / self.ml_enters as f64
        }
    }

    /// Total primitive-event volume: the sum of the monotonic
    /// per-primitive counters (forks, exits, switches, quantum expiries,
    /// monitor enters, CV waits/notifies/broadcasts, yields, donations).
    /// The perf harness divides the delta of this over a run by wall-clock
    /// time to report simulated events per second.
    pub fn event_volume(&self) -> u64 {
        self.forks
            + self.exits
            + self.switches
            + self.quantum_expiries
            + self.ml_enters
            + self.cv_waits
            + self.cv_notifies
            + self.cv_broadcasts
            + self.yields
            + self.daemon_donations
    }
}

/// How long [`Sim::run`] should keep going.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunLimit {
    /// Run for this much more virtual time.
    For(SimDuration),
    /// Run until this absolute virtual time.
    Until(SimTime),
    /// Run until every thread has exited (never returns if eternal
    /// threads exist; prefer a time limit for worlds with daemons).
    ToCompletion,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TState {
    Ready,
    Running,
    MutexWait(MonitorId),
    MetaWait(MonitorId),
    CvWait(CondId),
    Sleeping,
    JoinWait(ThreadId),
    ForkWait,
    /// Removed from scheduling by chaos injection until a
    /// [`TimerKind::ChaosStallEnd`] timer fires.
    Stalled,
    Exited,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum AfterDebt {
    Reply,
    BlockOnMutex(MonitorId),
}

pub(crate) struct Tcb {
    name: String,
    pub(crate) priority: Priority,
    pub(crate) state: TState,
    pub(crate) pending_reply: Option<Reply>,
    pub(crate) debt: SimDuration,
    after_debt: AfterDebt,
    /// The thread's body; its stack goes back to the pool on exit.
    coroutine: Option<Coroutine>,
    detached: bool,
    joiner: Option<ThreadId>,
    panicked: bool,
    parent: Option<ThreadId>,
    generation: u32,
    cpu: SimDuration,
    /// The CV wait in progress's timeout, and the spurious wakeup chaos
    /// armed for it, until [`Kernel::end_wait`] takes them off the wheel.
    wait_timers: [Option<WheelToken>; 2],
    /// Monitor to (re)acquire when next dispatched.
    acquire_on_dispatch: Option<MonitorId>,
    /// The CV wait that reacquiring its monitor ends, and the outcome to
    /// report then (None for a plain enter or a metalock-stall retry).
    reacquire: Option<(WaitOutcome, CondId)>,
    /// A chaos stall that fired while the thread could not be removed
    /// from scheduling (running or blocked); applied the next time it
    /// would become ready.
    stall_pending: Option<SimDuration>,
    /// True while the policy holds a ready entry for the thread.
    in_ready: bool,
    /// When the thread last became ready, for the wakeup-to-run latency
    /// profile ([`SchedLatency`]).
    ready_since: SimTime,
    /// When the thread entered its current blocking state (any
    /// `*Wait`/`Sleeping` transition resets it). The wait-for graph uses
    /// this to distinguish a long-wedged waiter from normal contention.
    blocked_since: SimTime,
}

#[derive(Default)]
struct MonitorState {
    name: Arc<str>,
    /// Entered at least once: counted in `SimStats::distinct_monitors`.
    entered: bool,
    owner: Option<ThreadId>,
    queue: VecDeque<ThreadId>,
    /// Deferred-reschedule notifications awaiting the notifier's exit.
    deferred: Vec<(ThreadId, WaitOutcome, CondId)>,
    /// Thread preempted inside the metalock window, if any.
    meta: Option<ThreadId>,
    /// Threads stalled behind `meta` (metalock donation disabled).
    meta_waiters: VecDeque<ThreadId>,
}

#[derive(Clone, Copy, Debug)]
enum DonationPlan {
    /// `YieldButNotToMe`: next pick excludes the donor.
    NotToMe { excluded: ThreadId },
    /// Directed yield: next pick is `target` with `slice` as its quantum.
    Directed {
        target: ThreadId,
        slice: SimDuration,
    },
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Shield {
    /// No preemption at all during the donated slice.
    Full,
    /// The donor may not preempt the favored thread.
    FromDonor(ThreadId),
}

/// One virtual processor's dispatch state.
#[derive(Clone, Default)]
pub(crate) struct Cpu {
    pub(crate) running: Option<ThreadId>,
    /// The thread it last dispatched: a switch is one only when it changes.
    last_dispatched: Option<ThreadId>,
    /// What is left of the running thread's timeslice.
    pub(crate) quantum_left: SimDuration,
    /// Who may not preempt the running thread. Set on a uniprocessor only:
    /// elsewhere a directed yield is a YIELD.
    shield: Option<Shield>,
}

/// Allocation and reuse counters for the sim's pooled resources, for
/// verifying that the fork/switch/timer hot paths stop allocating once
/// the pools reach their high-water marks. Snapshot-and-subtract over a
/// measurement window with [`AllocCounters::since`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocCounters {
    /// Timer-wheel slab nodes newly allocated.
    pub timer_node_allocs: u64,
    /// Timer arms served from the wheel's free list.
    pub timer_node_reuses: u64,
    /// Simulated forks given a stack this world had not itself vacated:
    /// one newly mapped, or one an earlier world left in the OS thread's
    /// stack pool — this world cannot tell which, so a world's counts do
    /// not depend on what ran before it. (The name dates from the
    /// OS-thread kernel and is what the benchmark reads.)
    pub os_thread_spawns: u64,
    /// Simulated forks given back a stack that an exited thread of this
    /// world had vacated.
    pub os_thread_reuses: u64,
    /// Times the scheduler resumed a thread's body: one per dispatch that
    /// reaches the body, none for a kernel call that keeps the CPU.
    pub stack_switches: u64,
}

impl AllocCounters {
    /// Elementwise difference from an earlier snapshot.
    pub fn since(self, earlier: AllocCounters) -> AllocCounters {
        AllocCounters {
            timer_node_allocs: self.timer_node_allocs - earlier.timer_node_allocs,
            timer_node_reuses: self.timer_node_reuses - earlier.timer_node_reuses,
            os_thread_spawns: self.os_thread_spawns - earlier.os_thread_spawns,
            os_thread_reuses: self.os_thread_reuses - earlier.os_thread_reuses,
            stack_switches: self.stack_switches - earlier.stack_switches,
        }
    }
}

/// The simulated runtime.
///
/// Build one with [`Sim::new`] (the paper's uniprocessor) or
/// [`Sim::with_cpus`], create monitors/conditions/root threads, then call
/// [`Sim::run`]. Dropping the `Sim` tears every simulated
/// thread down cleanly: each suspended body is unwound, in thread-id
/// order, on the dropping thread (its destructors run), and bodies that
/// never started are dropped unrun.
///
/// A `Sim` is `!Send`. Its threads are coroutines whose suspended stacks
/// may hold `!Send` values, so a world lives and dies on the OS thread
/// that built it:
///
/// ```compile_fail
/// fn assert_send<T: Send>() {}
/// assert_send::<pcr::Sim>();
/// ```
pub struct Sim {
    pub(crate) kernel: Rc<RefCell<Kernel>>,
    /// What [`Sim::stats`] and [`Sim::threads_iter`] lend: copies taken on
    /// first use and dropped by every `&mut self` call (`kernel_mut`).
    stats_view: OnceCell<SimStats>,
    threads_view: OnceCell<Vec<ThreadInfo>>,
}

/// All of a simulation's scheduling state. [`Sim`] holds it for the host
/// and every [`ThreadCtx`] for its thread, so a kernel call runs on the
/// caller's stack. Nobody keeps it borrowed across a stack switch.
pub(crate) struct Kernel {
    /// The cell this kernel lives in, for the contexts of threads it forks.
    me: Weak<RefCell<Kernel>>,
    cfg: SimConfig,
    pub(crate) clock: SimTime,
    /// Where the [`Sim::run`] in progress stops.
    end: SimTime,
    /// The virtual processors, one or more. Nothing but the run loop asks
    /// which CPU a thread is on.
    pub(crate) cpus: Vec<Cpu>,
    /// Times a body was resumed ([`AllocCounters::stack_switches`]).
    stack_switches: u64,
    rng: SplitMix64,
    pub(crate) threads: Vec<Tcb>,
    /// The installed scheduling policy: owns the ready structure and
    /// makes every dispatch decision ([`policy::Scheduler`]). The
    /// default [`policy::RoundRobin`] is the paper's scheduler,
    /// byte-identical to the pre-trait dispatcher.
    policy: Box<dyn Scheduler>,
    /// What a directed yield asked of the next pick (uniprocessor only).
    donation: Option<DonationPlan>,
    pub(crate) timers: TimerWheel,
    /// The latest deadline of any wait timer cancelled so far: the
    /// compatibility rule of cancelling eagerly. A cancelled timeout used to
    /// stay in the wheel until its deadline, so an otherwise quiescent world
    /// idled on to it before it stopped (`TimeLimit`, or `Deadlock` *at* that
    /// deadline), and the fuzz signatures and goldens record those stops. Only
    /// an idle world reads it ([`Kernel::next_stop`]); re-triaging deletes it.
    cancelled_until: SimTime,
    /// This world's account with its OS thread's pool of vacant stacks:
    /// a simulated fork takes a vacated stack instead of mapping one, so
    /// steady-state fork/exit makes no system call, and nor does building
    /// a world where another was dropped.
    pool: StackPool,
    monitors: Vec<MonitorState>,
    conds: Vec<CvState>,
    sink: Option<Box<dyn TraceSink>>,
    /// Cached [`TraceSink::subscriptions`] of `sink` (EMPTY when none):
    /// [`Kernel::emit`] consults the masks before constructing an event,
    /// so an un-instrumented run pays only for its counters.
    sink_mask: EventMask,
    /// Cached subscription mask of `hazards` (EMPTY when none).
    hazard_mask: EventMask,
    stats: SimStats,
    pending_forks: VecDeque<(ThreadId, ForkSpec)>,
    pub(crate) live_threads: usize,
    /// Dedicated RNG stream for fault injection (seed ⊕ salt), so chaos
    /// draws never perturb `rng`.
    chaos_rng: SplitMix64,
    /// Per-kind chaos decision-point counters (indexed by
    /// [`FaultSiteKind::index`]), ticked at every decision point whether
    /// or not a fault is injected, so `(kind, site)` names one decision.
    chaos_sites: [u64; 6],
    /// Chronological record of every positive injection decision.
    chaos_trace: Vec<FaultDecision>,
    /// Scripted replay cursors, per kind sorted by site, when
    /// [`ChaosConfig::script`] is set. Consulted instead of the RNG.
    chaos_script: Option<[VecDeque<(u64, u64)>; 6]>,
    /// Per stall spec, its `while_holding` name resolved: how many
    /// monitors have been looked at, and which of them carry the name
    /// ([`Kernel::holds_gate`]).
    gates: Vec<(usize, Vec<MonitorId>)>,
    /// Pre-drawn PCT priority-change sites (dispatch ordinals, sorted
    /// ascending, deduplicated), drawn once at construction when
    /// [`ChaosConfig::pct`] is set and no script is in force.
    pct_sites: VecDeque<u64>,
    /// Online hazard detector, when enabled; sees every event before the
    /// user sink.
    hazards: Option<HazardMonitor>,
}

impl Sim {
    /// Creates a runtime with the given configuration on one processor,
    /// as the paper measured. If the configuration enables the
    /// SystemDaemon, the daemon thread is forked immediately at priority 6
    /// (the level the paper reports both systems using for it).
    pub fn new(cfg: SimConfig) -> Sim {
        Sim::with_cpus(cfg, 1)
    }

    /// Creates a runtime scheduling onto `cpus` virtual processors: the
    /// same kernel under the clock-advance rule of [`crate::mp`], which
    /// lists the three things a second processor changes.
    ///
    /// ```
    /// use pcr::{millis, Priority, RunLimit, Sim, SimConfig};
    ///
    /// let mut sim = Sim::with_cpus(SimConfig::default(), 4);
    /// for i in 0..4 {
    ///     let _ = sim.fork_root(&format!("w{i}"), Priority::DEFAULT, |ctx| ctx.work(millis(100)));
    /// }
    /// // 400ms of work over 4 virtual CPUs: 100ms of virtual time.
    /// assert_eq!(sim.run(RunLimit::ToCompletion).now.as_micros(), 100_000);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `cpus` is zero.
    pub fn with_cpus(cfg: SimConfig, cpus: usize) -> Sim {
        assert!(cpus >= 1, "need at least one CPU");
        crate::install_panic_silencer();
        let seed = cfg.seed;
        let daemon = cfg.system_daemon;
        let kind = cfg.policy;
        let gates = vec![Default::default(); cfg.chaos.stalls.len()];
        let mut k = Kernel {
            me: Weak::new(),
            cfg,
            clock: SimTime::ZERO,
            end: SimTime::ZERO,
            cpus: vec![Cpu::default(); cpus],
            stack_switches: 0,
            rng: SplitMix64::new(seed),
            threads: Vec::new(),
            policy: policy::make(kind, seed),
            pool: StackPool::default(),
            donation: None,
            timers: TimerWheel::new(),
            cancelled_until: SimTime::ZERO,
            monitors: Vec::new(),
            conds: Vec::new(),
            sink: None,
            sink_mask: EventMask::EMPTY,
            hazard_mask: EventMask::EMPTY,
            stats: SimStats::default(),
            pending_forks: VecDeque::new(),
            live_threads: 0,
            chaos_rng: SplitMix64::new(seed ^ CHAOS_SEED_SALT),
            chaos_sites: [0; 6],
            chaos_trace: Vec::new(),
            chaos_script: None,
            gates,
            pct_sites: VecDeque::new(),
            hazards: None,
        };
        k.chaos_script = k.cfg.chaos.script.as_ref().map(|s| s.cursors());
        if k.chaos_script.is_none() {
            if let Some(pct) = k.cfg.chaos.pct {
                // PCT's change points: drawn up front from the chaos
                // stream so later faults never shift them, sorted so a
                // single cursor suffices at dispatch time.
                let mut sites: Vec<u64> = (0..pct.changes)
                    .map(|_| k.chaos_rng.next_below(pct.horizon))
                    .collect();
                sites.sort_unstable();
                sites.dedup();
                k.pct_sites = sites.into_iter().collect();
            }
        }
        if let Some(hc) = k.cfg.hazard_detection.clone() {
            k.hazards = Some(HazardMonitor::new(hc));
            k.hazard_mask = HazardMonitor::subscriptions();
        }
        for (i, spec) in k.cfg.chaos.stalls.iter().enumerate() {
            k.timers
                .schedule(spec.at, TimerKind::ChaosStallStart { spec: i as u32 });
        }
        let kernel = Rc::new(RefCell::new(k));
        kernel.borrow_mut().me = Rc::downgrade(&kernel);
        let mut sim = Sim {
            kernel,
            stats_view: OnceCell::new(),
            threads_view: OnceCell::new(),
        };
        if let Some(d) = daemon {
            let (period, slice) = (d.period, d.slice);
            let h = sim.fork_root_with(
                "SystemDaemon",
                Some(Priority::of(6)),
                true,
                move |ctx: &ThreadCtx| loop {
                    ctx.sleep_precise(period);
                    ctx.donate_random(slice);
                },
            );
            drop(h); // Detached; the handle is never joined.
        }
        sim
    }

    /// The kernel, for a call that may change it: the views go stale.
    fn kernel_mut(&mut self) -> RefMut<'_, Kernel> {
        self.stats_view.take();
        self.threads_view.take();
        self.kernel.borrow_mut()
    }

    /// The active configuration.
    pub fn config(&self) -> Ref<'_, SimConfig> {
        Ref::map(self.kernel.borrow(), |k| &k.cfg)
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.kernel.borrow().clock
    }

    /// Runtime counters accumulated so far.
    pub fn stats(&self) -> &SimStats {
        self.stats_view
            .get_or_init(|| self.kernel.borrow().stats.clone())
    }

    /// Allocation/reuse counters for the sim's pooled resources (timer
    /// slab, coroutine-stack pool) and its stack switches. Snapshot
    /// before and after a window and subtract with
    /// [`AllocCounters::since`] to verify the hot path runs
    /// allocation-free, and switch-free, at steady state.
    pub fn alloc_counters(&self) -> AllocCounters {
        let k = self.kernel.borrow();
        let (timer_node_allocs, timer_node_reuses) = k.timers.alloc_stats();
        AllocCounters {
            timer_node_allocs,
            timer_node_reuses,
            os_thread_spawns: k.pool.mapped,
            os_thread_reuses: k.pool.reused,
            stack_switches: k.stack_switches,
        }
    }

    /// Installs a trace sink; events flow to it from now on. The sink's
    /// [`TraceSink::subscriptions`] mask is read once here: only events
    /// of subscribed kinds are constructed and dispatched to it.
    pub fn set_sink(&mut self, sink: Box<dyn TraceSink>) {
        let mut k = self.kernel_mut();
        k.sink_mask = sink.subscriptions();
        k.sink = Some(sink);
    }

    /// Removes and returns the trace sink.
    pub fn take_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        let mut k = self.kernel_mut();
        k.sink_mask = EventMask::EMPTY;
        k.sink.take()
    }

    /// The online hazard monitor, when
    /// [`SimConfig::with_hazard_detection`](crate::SimConfig::with_hazard_detection)
    /// enabled one.
    pub fn hazards(&self) -> Option<Ref<'_, HazardMonitor>> {
        Ref::filter_map(self.kernel.borrow(), |k| k.hazards.as_ref()).ok()
    }

    /// Post-run summary of every thread ever created. Allocates one
    /// `Vec` plus a name per thread.
    pub fn threads(&self) -> Vec<ThreadInfo> {
        let k = self.kernel.borrow();
        let info = |(i, t): (usize, &Tcb)| ThreadInfo {
            tid: ThreadId(i as u32),
            name: t.name.clone(),
            priority: t.priority,
            cpu: t.cpu,
            exited: t.state == TState::Exited,
            panicked: t.panicked,
            parent: t.parent,
            generation: t.generation,
        };
        k.threads.iter().enumerate().map(info).collect()
    }

    /// Iterates borrowed summaries of every thread ever created, in
    /// creation order. The first call after a `&mut self` one takes a
    /// [`Sim::threads`] snapshot; later calls reuse it.
    pub fn threads_iter(&self) -> impl Iterator<Item = ThreadView<'_>> + '_ {
        let threads = self.threads_view.get_or_init(|| self.threads());
        threads.iter().map(ThreadInfo::view)
    }

    /// Number of threads ever created (exited ones included).
    pub fn thread_count(&self) -> usize {
        self.kernel.borrow().threads.len()
    }

    /// Number of threads currently alive.
    pub fn live_threads(&self) -> usize {
        self.kernel.borrow().live_threads
    }

    /// The name of every monitor, indexed by [`MonitorId::as_u32`].
    /// Exporters use this to label lock tracks and contention rows. The
    /// names are the kernel's own, shared: none is copied.
    pub fn monitor_names(&self) -> Vec<Arc<str>> {
        let k = self.kernel.borrow();
        k.monitors.iter().map(|m| Arc::clone(&m.name)).collect()
    }

    /// For every condition variable, indexed by [`CondId::as_u32`]: its
    /// name (shared, like a monitor's) and the monitor it belongs to.
    pub fn condition_info(&self) -> Vec<(Arc<str>, MonitorId)> {
        let k = self.kernel.borrow();
        k.conds
            .iter()
            .map(|c| (Arc::clone(&c.name), c.monitor))
            .collect()
    }

    // ---- resilience introspection & recovery ------------------------------

    /// The complete fault schedule injected so far: every positive chaos
    /// decision in chronological order, plus the stall specs in force.
    /// Feeding it to a fresh `Sim` with the same [`SimConfig`] via
    /// [`ChaosConfig::scripted`](crate::ChaosConfig::scripted) replays
    /// exactly these faults, with no RNG involved.
    pub fn fault_schedule(&self) -> FaultSchedule {
        let k = self.kernel.borrow();
        FaultSchedule {
            decisions: k.chaos_trace.clone(),
            stalls: k.cfg.chaos.stalls.clone(),
        }
    }

    /// Every currently blocked thread, as wait-for-graph nodes. CV
    /// waiters are included (for rendering); chaos-stalled and sleeping
    /// threads are not — they have timers pending.
    pub fn blocked_threads(&self) -> Vec<crate::WaitingThread> {
        self.kernel.borrow().blocked_threads()
    }

    /// Snapshots the wait-for graph of the current instant: blocked
    /// threads, their edges, and any chaos-stalled roots. See
    /// [`crate::WaitForGraph`] for wedge and cycle queries.
    pub fn wait_for_graph(&self) -> crate::WaitForGraph {
        let k = self.kernel.borrow();
        let threads = || k.threads.iter().enumerate();
        let stalled = threads()
            .filter(|(_, t)| t.state == TState::Stalled)
            .map(|(i, t)| (ThreadId(i as u32), t.name.clone()))
            .collect();
        let runnable = threads()
            .filter(|(_, t)| matches!(t.state, TState::Ready | TState::Stalled))
            .map(|(i, t)| crate::RunnableThread {
                tid: ThreadId(i as u32),
                name: t.name.clone(),
                priority: t.priority,
                stalled: t.state == TState::Stalled,
            })
            .collect();
        crate::WaitForGraph {
            now: k.clock,
            threads: k.blocked_threads(),
            stalled,
            runnable,
        }
    }

    /// Fails every FORK currently blocked waiting for a thread slot
    /// (§5.4 recovery: drain the queue instead of letting callers hang).
    /// Each blocked forker resumes with
    /// [`ForkError::ResourcesExhausted`](crate::ForkError::ResourcesExhausted).
    /// Returns how many forks were failed.
    pub fn fail_pending_forks(&mut self) -> usize {
        let k = &mut *self.kernel_mut();
        let n = k.pending_forks.len();
        while let Some((forker, _spec)) = k.pending_forks.pop_front() {
            k.stats.fork_failures += 1;
            k.emit(EventKind::ForkFailed { tid: forker });
            k.reply(forker, Reply::ForkFailed, k.cfg.primitive_cost);
            k.push_ready_back(forker);
        }
        n
    }

    /// Clears any chaos stall on `tid` — in force or pending — and puts
    /// a stalled thread back in the ready queue (§5.2 recovery: restart
    /// the unresponsive component). The orphaned `ChaosStallEnd` timer
    /// no-ops when it fires. Returns true if anything changed.
    pub fn rejuvenate(&mut self, tid: ThreadId) -> bool {
        self.kernel_mut().rejuvenate(tid)
    }

    /// Re-levels a live thread from outside (§6.2 recovery: boost a
    /// preempted lock holder so its high-priority waiter can make
    /// progress). A ready thread is re-queued at its new level; a
    /// blocked, stalled, or running thread just carries the new priority
    /// from its next scheduling point. Returns false if the thread has
    /// exited.
    pub fn set_thread_priority(&mut self, tid: ThreadId, priority: Priority) -> bool {
        let k = &mut *self.kernel_mut();
        let exited = |t: &Tcb| t.state == TState::Exited;
        if k.threads.get(tid.0 as usize).is_none_or(exited) {
            return false;
        }
        let was_ready = k.remove_from_ready(tid);
        k.threads[tid.0 as usize].priority = priority;
        k.policy.on_priority_changed(tid, priority);
        if was_ready {
            k.ready_enqueue(tid, false, false);
        }
        k.emit(EventKind::SetPriority { tid, priority });
        true
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

    // ---- pre-run construction -------------------------------------------

    /// Creates a monitor before the run starts.
    pub fn monitor<T: Send + 'static>(&mut self, name: &str, data: T) -> Monitor<T> {
        Monitor::new(self.kernel_mut().new_monitor(name.into()), data)
    }

    /// Creates a condition variable on `m` before the run starts.
    pub fn condition<T: Send + 'static>(
        &mut self,
        m: &Monitor<T>,
        name: &str,
        timeout: Option<SimDuration>,
    ) -> Condition {
        let cv = CvState::new(name.into(), m.id(), timeout);
        Condition {
            id: self.kernel_mut().new_condition(cv),
            monitor: m.id(),
            timeout,
        }
    }

    /// Forks a root thread (generation 0) at the given priority
    /// (`None` = default priority 4).
    pub fn fork_root<T, F>(&mut self, name: &str, priority: Priority, f: F) -> JoinHandle<T>
    where
        T: Send + 'static,
        F: FnOnce(&ThreadCtx) -> T + Send + 'static,
    {
        self.fork_root_with(name, Some(priority), false, f)
    }

    fn fork_root_with<T, F>(
        &mut self,
        name: &str,
        priority: Option<Priority>,
        detached: bool,
        f: F,
    ) -> JoinHandle<T>
    where
        T: Send + 'static,
        F: FnOnce(&ThreadCtx) -> T + Send + 'static,
    {
        let (spec, slot) = fork_spec(name, priority, detached, f);
        let tid = self.kernel_mut().create_thread(spec, None);
        JoinHandle { tid, slot }
    }

    // ---- the run loop -------------------------------------------------------

    /// Advances the simulation until the limit is reached, every thread
    /// has exited, or the remaining threads are deadlocked.
    pub fn run(&mut self, limit: RunLimit) -> RunReport {
        let mut k = self.kernel_mut();
        let start = k.clock;
        let end = match limit {
            RunLimit::For(d) => k.clock.saturating_add(d),
            RunLimit::Until(t) => t,
            RunLimit::ToCompletion => SimTime::MAX,
        };
        k.end = end;
        let uniprocessor = k.uniprocessor();
        drop(k);
        // How the clock advances follows from what the world is.
        let reason = if uniprocessor {
            self.run_cpu(end)
        } else {
            self.run_cpus(end)
        };
        let mut k = self.kernel.borrow_mut();
        if reason == StopReason::TimeLimit && k.clock < end && end != SimTime::MAX {
            k.set_clock(end);
        }
        RunReport {
            reason,
            now: k.clock,
            elapsed: k.clock.saturating_since(start),
            hazards: k.hazards.as_ref().map(|h| h.counts()).unwrap_or_default(),
        }
    }

    /// The uniprocessor's run loop: the one running thread carries the
    /// clock ([`Kernel::advance`]), and an idle CPU jumps to the next timer.
    fn run_cpu(&self, end: SimTime) -> StopReason {
        let mut k = self.kernel.borrow_mut();
        loop {
            k.fire_due_timers();
            if k.live_threads == 0 {
                return StopReason::AllExited;
            }
            if k.clock >= end {
                return StopReason::TimeLimit;
            }
            match k.pick_next() {
                Some((tid, slice, shield)) => k = self.dispatch(k, tid, slice, shield),
                None => match k.next_stop(true) {
                    Some(t) if t <= end => k.set_clock(t),
                    Some(_) => return StopReason::TimeLimit,
                    None => return StopReason::Deadlock(k.deadlock_report()),
                },
            }
        }
    }

    /// Gives `tid` the CPU until it leaves it. Its kernel calls run on its
    /// own stack ([`Kernel::serve`]), so the one `resume` here comes back
    /// only when the body has parked, off the CPU, or posted its `Exit`.
    fn dispatch<'a>(
        &'a self,
        mut k: RefMut<'a, Kernel>,
        tid: ThreadId,
        quantum_override: Option<SimDuration>,
        shield: Option<Shield>,
    ) -> RefMut<'a, Kernel> {
        if k.begin_dispatch(0, tid, quantum_override, shield) {
            if let Some(reply) = k.advance(tid) {
                k = self.resume(k, tid, reply);
            }
        }
        k.leave_cpu(0);
        k
    }

    /// Runs `tid`'s body from `reply` until it parks or ends, the kernel
    /// not borrowed meanwhile, and serves the `Exit` it posted if it ended.
    // Inlined for the reason `ThreadCtx::call` is: as an argument `reply`
    // is copied on its way to the body, in wide loads that straddle the
    // stores that just built it (a `yield_now` round trip 94 -> 105 ns).
    #[inline(always)]
    pub(crate) fn resume<'a>(
        &'a self,
        mut k: RefMut<'a, Kernel>,
        tid: ThreadId,
        reply: Reply,
    ) -> RefMut<'a, Kernel> {
        k.stack_switches += 1;
        let slot = &mut k.threads[tid.0 as usize].coroutine;
        let mut body = slot.take().expect("running thread has no coroutine");
        drop(k);
        debug_assert!(self.kernel.try_borrow_mut().is_ok());
        let posted = body.resume(reply);
        let mut k = self.kernel.borrow_mut();
        k.threads[tid.0 as usize].coroutine = Some(body);
        if let Some(exit) = posted {
            k.handle_request(tid, exit);
        }
        k
    }
}

impl Drop for Sim {
    fn drop(&mut self) {
        // Unwind every still-live body so its destructors run; bodies
        // that never started are dropped unrun. The kernel is not
        // borrowed meanwhile: a destructor may ask it the time.
        let take = |t: &mut Tcb| t.coroutine.take();
        let bodies: Vec<Coroutine> = (self.kernel.borrow_mut().threads.iter_mut())
            .filter_map(take)
            .collect();
        for mut body in bodies {
            debug_assert!(self.kernel.try_borrow_mut().is_ok());
            body.shutdown();
            // The stack is vacant now: the next world may have it.
            self.kernel.borrow_mut().pool.give(body.into_stack());
        }
    }
}

impl std::fmt::Debug for Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let k = self.kernel.borrow();
        f.debug_struct("Sim")
            .field("now", &k.clock)
            .field("live_threads", &k.live_threads)
            .field("monitors", &k.monitors.len())
            .field("conditions", &k.conds.len())
            .finish()
    }
}

impl Kernel {
    /// One kernel call from the running thread `tid`, made on its own
    /// stack: the reply if it still holds the CPU, `None` once it has
    /// left it — then it parks and [`Sim::dispatch`] carries on.
    ///
    /// With a second CPU it always parks, still holding its own: same-instant
    /// calls are served in CPU-index order, by the run loop ([`crate::mp`]).
    pub(crate) fn serve(&mut self, tid: ThreadId, req: Request) -> Option<Reply> {
        self.handle_request(tid, req);
        if self.threads[tid.0 as usize].state != TState::Running || !self.uniprocessor() {
            return None;
        }
        self.advance(tid)
    }

    /// One CPU, as the paper measured: directed yields, the metalock
    /// window and the switch cost exist ([`crate::mp`] says why only here).
    fn uniprocessor(&self) -> bool {
        self.cpus.len() == 1
    }

    /// A chaos-stalled or sleeping thread always has a timer pending, so a
    /// deadlock is never declared while one exists.
    pub(crate) fn deadlock_report(&self) -> DeadlockReport {
        DeadlockReport {
            blocked: self.blocked_threads(),
        }
    }

    fn blocked_threads(&self) -> Vec<crate::WaitingThread> {
        let mut out = Vec::new();
        for (i, t) in self.threads.iter().enumerate() {
            let tid = ThreadId(i as u32);
            let (kind, resource, blocked_on) = match t.state {
                TState::MutexWait(m) => (
                    crate::BlockKind::Monitor,
                    self.monitors[m.0 as usize].name.to_string(),
                    self.monitors[m.0 as usize].owner,
                ),
                TState::MetaWait(m) => (
                    crate::BlockKind::Metalock,
                    format!("metalock of {}", self.monitors[m.0 as usize].name),
                    self.monitors[m.0 as usize].meta,
                ),
                TState::CvWait(cv) => (
                    crate::BlockKind::Condition {
                        has_timeout: self.conds[cv.0 as usize].timeout.is_some(),
                    },
                    self.conds[cv.0 as usize].name.to_string(),
                    None,
                ),
                TState::JoinWait(target) => (
                    crate::BlockKind::Join,
                    self.threads[target.0 as usize].name.clone(),
                    Some(target),
                ),
                TState::ForkWait => (crate::BlockKind::Fork, "fork slot".to_string(), None),
                TState::Stalled
                | TState::Sleeping
                | TState::Ready
                | TState::Running
                | TState::Exited => continue,
            };
            out.push(crate::WaitingThread {
                tid,
                name: t.name.clone(),
                priority: t.priority,
                kind,
                resource,
                blocked_on,
                since: t.blocked_since,
            });
        }
        out
    }

    fn rejuvenate(&mut self, tid: ThreadId) -> bool {
        let had_pending = self.threads[tid.0 as usize].stall_pending.take().is_some();
        let was_stalled = self.threads[tid.0 as usize].state == TState::Stalled;
        if was_stalled {
            self.push_ready_back(tid);
        }
        had_pending || was_stalled
    }

    // ---- thread creation --------------------------------------------------

    fn create_thread(&mut self, spec: ForkSpec, parent: Option<ThreadId>) -> ThreadId {
        let tid = ThreadId(self.threads.len() as u32);
        let priority = spec.priority.unwrap_or_else(|| {
            parent
                .map(|p| self.threads[p.0 as usize].priority)
                .unwrap_or(Priority::DEFAULT)
        });
        let generation = parent
            .map(|p| self.threads[p.0 as usize].generation + 1)
            .unwrap_or(0);
        let coroutine = ThreadCtx::coroutine(
            self.pool.take(),
            tid,
            spec.name.clone(),
            priority,
            self.me.upgrade().expect("a kernel lives in its cell"),
            self.cfg.seed,
            spec.body,
        );
        self.threads.push(Tcb {
            name: spec.name,
            priority,
            state: TState::Ready,
            pending_reply: Some(Reply::Ok),
            debt: SimDuration::ZERO,
            after_debt: AfterDebt::Reply,
            coroutine: Some(coroutine),
            detached: spec.detached,
            joiner: None,
            panicked: false,
            parent,
            generation,
            cpu: SimDuration::ZERO,
            wait_timers: [None; 2],
            acquire_on_dispatch: None,
            reacquire: None,
            stall_pending: None,
            in_ready: false,
            ready_since: SimTime::ZERO,
            blocked_since: SimTime::ZERO,
        });
        self.live_threads += 1;
        self.stats.max_live_threads = self.stats.max_live_threads.max(self.live_threads);
        self.stats.forks += 1;
        self.emit(EventKind::Fork {
            parent,
            child: tid,
            priority,
            generation,
        });
        self.ready_enqueue(tid, false, true);
        tid
    }

    // ---- event emission ---------------------------------------------------

    /// Routes one event to the subscribed consumers. When neither the
    /// hazard monitor nor the sink wants this kind — in particular when
    /// no instrumentation is attached at all — the event is never even
    /// constructed: the counters in [`SimStats`] are maintained by the
    /// callers, so this fast path loses nothing.
    #[inline]
    fn emit(&mut self, kind: EventKind) {
        let to_hazard = self.hazard_mask.contains(&kind);
        let to_sink = self.sink_mask.contains(&kind);
        if !to_hazard && !to_sink {
            return;
        }
        let ev = Event {
            t: self.clock,
            kind,
        };
        if to_hazard {
            if let Some(h) = &mut self.hazards {
                h.record(&ev);
            }
        }
        if to_sink {
            if let Some(sink) = &mut self.sink {
                sink.record(&ev);
            }
        }
    }

    pub(crate) fn set_clock(&mut self, t: SimTime) {
        debug_assert!(t >= self.clock, "clock must be monotonic");
        self.clock = t;
    }

    // ---- ready-queue helpers ----------------------------------------------

    /// Splits the borrow of `self` into the installed policy and the
    /// [`PolicyCtx`] lending it the thread table — disjoint fields, so
    /// the policy can mutate its structure while reading thread state.
    fn policy_split(&mut self) -> (&mut dyn Scheduler, PolicyCtx<'_>) {
        let Kernel {
            policy, threads, ..
        } = self;
        (policy.as_mut(), PolicyCtx { threads })
    }

    /// Hands a runnable `tid` to the policy, maintaining the simulator's
    /// own bookkeeping (ready flag, latency stamp).
    /// `wakeup` is true when the thread was blocked rather than
    /// preempted or yielding.
    fn ready_enqueue(&mut self, tid: ThreadId, front: bool, wakeup: bool) {
        let now = self.clock;
        let t = &mut self.threads[tid.0 as usize];
        debug_assert!(!t.in_ready, "thread {tid:?} enqueued while already ready");
        t.in_ready = true;
        t.ready_since = now;
        let (policy, mut ctx) = self.policy_split();
        policy.on_ready(&mut ctx, tid, front, wakeup);
    }

    fn push_ready_back(&mut self, tid: ThreadId) {
        self.push_ready(tid, false);
    }

    pub(crate) fn push_ready(&mut self, tid: ThreadId, front: bool) {
        if self.apply_pending_stall(tid) {
            return;
        }
        let t = &mut self.threads[tid.0 as usize];
        let wakeup = t.state != TState::Running;
        t.state = TState::Ready;
        self.ready_enqueue(tid, front, wakeup);
    }

    // ---- chaos injection --------------------------------------------------

    /// Consumes a deferred chaos stall at the moment the thread would
    /// have become ready. Returns true if the thread was stalled instead.
    fn apply_pending_stall(&mut self, tid: ThreadId) -> bool {
        let Some(d) = self.threads[tid.0 as usize].stall_pending.take() else {
            return false;
        };
        self.stall_thread(tid, d);
        true
    }

    /// Takes `tid` (not currently in any queue) out of scheduling for `d`.
    fn stall_thread(&mut self, tid: ThreadId, d: SimDuration) {
        let until = self.clock + d;
        self.threads[tid.0 as usize].state = TState::Stalled;
        self.stats.chaos_stalls += 1;
        self.emit(EventKind::ChaosStall { tid, until });
        self.timers.schedule(until, TimerKind::ChaosStallEnd(tid));
    }

    /// Resolves one chaos decision point of `kind`: ticks the per-kind
    /// site counter, then either consults the replay script (injecting
    /// iff it lists this exact site) or defers to `draw`, which may
    /// consume chaos RNG. Every positive decision — drawn or scripted —
    /// is appended to the chronological fault trace, so
    /// [`Sim::fault_schedule`] always reflects what actually happened.
    fn chaos_decision(
        &mut self,
        kind: FaultSiteKind,
        draw: impl FnOnce(&mut Self, u64) -> Option<u64>,
    ) -> Option<u64> {
        let idx = kind.index();
        let site = self.chaos_sites[idx];
        self.chaos_sites[idx] += 1;
        let param = if let Some(cursors) = &mut self.chaos_script {
            let q = &mut cursors[idx];
            while q.front().is_some_and(|&(s, _)| s < site) {
                q.pop_front();
            }
            if q.front().is_some_and(|&(s, _)| s == site) {
                Some(q.pop_front().expect("peeked entry vanished").1)
            } else {
                None
            }
        } else {
            draw(self, site)
        };
        let param = param?;
        self.chaos_trace.push(FaultDecision {
            kind,
            site,
            param_us: param,
        });
        Some(param)
    }

    /// One seeded decision: fail this FORK? (§5.4 injection.)
    fn chaos_fork_should_fail(&mut self) -> bool {
        self.chaos_decision(FaultSiteKind::ForkFail, |s, _| {
            if let Some((from, until)) = s.cfg.chaos.fork_outage {
                if s.clock >= from && s.clock < until {
                    return Some(0);
                }
            }
            let p = s.cfg.chaos.fork_fail_prob;
            (p > 0.0 && s.chaos_rng.next_f64() < p).then_some(0)
        })
        .is_some()
    }

    /// Extra seeded delay applied to a timer deadline (§6.3 injection).
    fn chaos_timer_jitter(&mut self) -> SimDuration {
        let jitter = self.chaos_decision(FaultSiteKind::TimerJitter, |s, _| {
            let max = s.cfg.chaos.timer_jitter;
            if max.is_zero() {
                return None;
            }
            // A zero draw is indistinguishable from no jitter, so it is
            // not recorded as a decision (the replay injects nothing at
            // this site and the deadline comes out identical).
            let d = s.chaos_rng.next_below(max.as_micros() + 1);
            (d > 0).then_some(d)
        });
        micros(jitter.unwrap_or(0))
    }

    /// One PCT decision point, consulted at every dispatch: if this is a
    /// pre-drawn change site (or the replay script lists it), the thread
    /// being dispatched moves to a seeded random priority. The site
    /// counter ticks on every dispatch — with PCT off nothing is drawn
    /// and clean runs are untouched, yet `(PriorityChange, site)` still
    /// names one exact dispatch for scripted replay.
    fn chaos_priority_change(&mut self, tid: ThreadId) {
        let param = self.chaos_decision(FaultSiteKind::PriorityChange, |s, site| {
            if s.pct_sites.front() == Some(&site) {
                s.pct_sites.pop_front();
                Some(1 + s.chaos_rng.next_below(Priority::LEVELS as u64))
            } else {
                None
            }
        });
        if let Some(level) = param {
            let prio = Priority::of(level.clamp(1, Priority::LEVELS as u64) as u8);
            self.threads[tid.0 as usize].priority = prio;
            self.policy.on_priority_changed(tid, prio);
            self.stats.chaos_priority_changes += 1;
            self.emit(EventKind::SetPriority {
                tid,
                priority: prio,
            });
        }
    }

    /// Asks the policy for the next thread to run, skipping `excluded`
    /// (the paper's `YieldButNotToMe`).
    pub(crate) fn pop_ready_excluding(&mut self, excluded: Option<ThreadId>) -> Option<ThreadId> {
        let (policy, mut ctx) = self.policy_split();
        policy.next(&mut ctx, excluded)
    }

    fn remove_from_ready(&mut self, tid: ThreadId) -> bool {
        if !self.threads[tid.0 as usize].in_ready {
            return false;
        }
        let (policy, mut ctx) = self.policy_split();
        policy.remove(&mut ctx, tid);
        debug_assert!(!self.threads[tid.0 as usize].in_ready);
        true
    }

    /// After `tid`'s quantum expired: does the policy want to requeue it
    /// behind a competitor instead of granting a fresh slice?
    fn quantum_competitor_exists(&mut self, tid: ThreadId) -> bool {
        let (policy, mut ctx) = self.policy_split();
        policy.has_competitor(&mut ctx, tid)
    }

    /// The policy-granted quantum for dispatching `tid` now.
    fn policy_timeslice(&self, tid: ThreadId) -> SimDuration {
        let prio = self.threads[tid.0 as usize].priority;
        self.policy.timeslice(tid, prio, self.cfg.quantum)
    }

    /// Does the policy want the thread on `cpu` off it for a ready one?
    pub(crate) fn preempt_needed(&mut self, cpu: usize) -> bool {
        let Some(run) = self.cpus[cpu].running else {
            return false;
        };
        let shield = self.cpus[cpu].shield;
        let (policy, mut ctx) = self.policy_split();
        match shield {
            Some(Shield::Full) => false,
            Some(Shield::FromDonor(d)) => policy.preempts(&mut ctx, run, Some(d)),
            None => policy.preempts(&mut ctx, run, None),
        }
    }

    // ---- timers -----------------------------------------------------------

    /// Fires what is due. Inlined: that nothing is costs the caller a field read.
    #[inline]
    pub(crate) fn fire_due_timers(&mut self) {
        if self.timers.next_deadline().is_some_and(|t| t <= self.clock) {
            self.fire_timers();
        }
    }

    /// Where the clock next stops for a timer: the next one due, and with
    /// nothing to run (`idle`) also the latest deadline cancelled, while it
    /// is ahead of the clock (`cancelled_until` says why).
    pub(crate) fn next_stop(&self, idle: bool) -> Option<SimTime> {
        let cancelled = Some(self.cancelled_until).filter(|&t| idle && t > self.clock);
        let next = self.timers.next_deadline();
        [next, cancelled].into_iter().flatten().min()
    }

    /// The one way out of a CV wait, whoever ends it — NOTIFY, BROADCAST,
    /// its timeout, a spurious wakeup: its timers come off the wheel (one
    /// that is firing is off already), which so holds live timers only.
    fn end_wait(&mut self, tid: ThreadId) {
        let timers = std::mem::take(&mut self.threads[tid.0 as usize].wait_timers);
        for token in timers.into_iter().flatten() {
            if self.timers.cancel(token) {
                self.cancelled_until = self.cancelled_until.max(token.deadline());
            }
        }
    }

    #[inline(never)]
    fn fire_timers(&mut self) {
        while let Some(kind) = self.timers.pop_due(self.clock) {
            match kind {
                TimerKind::Wake(tid) => {
                    if self.threads[tid.0 as usize].state == TState::Sleeping {
                        self.push_ready_back(tid);
                    }
                }
                TimerKind::CvTimeout { tid, cv } | TimerKind::ChaosSpuriousWake { tid, cv } => {
                    let idx = tid.0 as usize;
                    let waiting = self.threads[idx].state == TState::CvWait(cv);
                    assert!(waiting, "a wait's timer outlived the wait");
                    self.end_wait(tid);
                    let mid = self.conds[cv.0 as usize].monitor;
                    self.conds[cv.0 as usize].queue.retain(|&w| w != tid);
                    let outcome = if matches!(kind, TimerKind::CvTimeout { .. }) {
                        self.stats.cv_timeouts += 1;
                        WaitOutcome::TimedOut
                    } else {
                        self.stats.chaos_spurious_wakeups += 1;
                        self.emit(EventKind::SpuriousWakeup { tid, cv });
                        WaitOutcome::Spurious
                    };
                    let t = &mut self.threads[idx];
                    t.acquire_on_dispatch = Some(mid);
                    t.reacquire = Some((outcome, cv));
                    self.push_ready_back(tid);
                }
                TimerKind::ChaosStallStart { spec } => {
                    let s = &self.cfg.chaos.stalls[spec as usize];
                    let duration = s.duration;
                    let gated = s.while_holding.is_some();
                    let target = (self.threads.iter())
                        .position(|t| t.state != TState::Exited && t.name == s.thread)
                        .map(|i| ThreadId(i as u32));
                    let armed = target.filter(|&tid| self.holds_gate(spec as usize, tid));
                    if let Some(tid) = armed {
                        match self.threads[tid.0 as usize].state {
                            TState::Ready => {
                                self.remove_from_ready(tid);
                                self.stall_thread(tid, duration);
                            }
                            TState::Running => {
                                // Caught inside its critical section: the
                                // run loop notices the state change and
                                // takes it off its CPU at once.
                                self.stall_thread(tid, duration);
                            }
                            _ => {
                                // Blocked: stall at the next point it
                                // would become ready.
                                self.threads[tid.0 as usize].stall_pending = Some(duration);
                            }
                        }
                    } else if gated {
                        // Gated on monitor ownership and the target is not
                        // (yet) inside: poll again in a millisecond until
                        // it is caught holding the lock.
                        self.timers
                            .schedule(self.clock + millis(1), TimerKind::ChaosStallStart { spec });
                    }
                }
                TimerKind::ChaosStallEnd(tid) => {
                    if self.threads[tid.0 as usize].state == TState::Stalled {
                        self.push_ready_back(tid);
                    }
                }
            }
        }
    }

    /// True if `tid` is inside a monitor named by stall `spec`'s
    /// `while_holding` gate, or the stall has no gate. The name is
    /// resolved to ids once; a later poll looks only at monitors created
    /// since, so it costs an owner compare per monitor of that name.
    fn holds_gate(&mut self, spec: usize, tid: ThreadId) -> bool {
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

    // ---- monitor helpers ----------------------------------------------------

    fn new_monitor(&mut self, name: Arc<str>) -> MonitorId {
        self.monitors.push(MonitorState {
            name,
            ..MonitorState::default()
        });
        MonitorId(self.monitors.len() as u32 - 1)
    }

    fn new_condition(&mut self, cv: CvState) -> CondId {
        self.conds.push(cv);
        CondId(self.conds.len() as u32 - 1)
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
    /// deferred notifications into the queue first.
    fn release_monitor(&mut self, mid: MonitorId) {
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

    /// Handles a thread's dispatch-time monitor (re)acquire. Returns true
    /// if the thread may keep running, false if it blocked.
    fn dispatch_acquire(&mut self, tid: ThreadId, mid: MonitorId) -> bool {
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
        self.finish_block_on_mutex(holder, mid);
    }

    /// Completes a contended-enter after its metalock window: clears the
    /// metalock, releases stalled threads, and enqueues (or grants).
    fn finish_block_on_mutex(&mut self, tid: ThreadId, mid: MonitorId) {
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

    /// Books `d` of virtual CPU to `tid`. Moving the clock is the run
    /// loop's business: with several CPUs they consume the same `d` at once.
    pub(crate) fn charge_thread(&mut self, tid: ThreadId, d: SimDuration) {
        if d.is_zero() {
            return;
        }
        let t = &mut self.threads[tid.0 as usize];
        t.cpu += d;
        let prio = t.priority;
        self.stats.cpu_by_priority[prio.index()] += d;
        self.stats.total_cpu += d;
        self.policy.on_cpu(tid, prio, d);
    }

    /// What `tid` gets back once it has worked off `cost`.
    fn reply(&mut self, tid: ThreadId, reply: Reply, cost: SimDuration) {
        let t = &mut self.threads[tid.0 as usize];
        t.pending_reply = Some(reply);
        t.debt = cost;
        t.after_debt = AfterDebt::Reply;
    }

    fn fault(&mut self, tid: ThreadId, msg: String) {
        self.reply(tid, Reply::Fault(msg), SimDuration::ZERO);
    }

    fn pick_next(&mut self) -> Option<(ThreadId, Option<SimDuration>, Option<Shield>)> {
        if let Some(plan) = self.donation.take() {
            match plan {
                DonationPlan::NotToMe { excluded } => {
                    if let Some(tid) = self.pop_ready_excluding(Some(excluded)) {
                        return Some((tid, None, Some(Shield::FromDonor(excluded))));
                    }
                }
                DonationPlan::Directed { target, slice } => {
                    if self.threads[target.0 as usize].state == TState::Ready
                        && self.remove_from_ready(target)
                    {
                        return Some((target, Some(slice), Some(Shield::Full)));
                    }
                }
            }
        }
        self.pop_ready_excluding(None).map(|t| (t, None, None))
    }

    /// Puts `tid` on `cpu`: the switch bookkeeping, its timeslice, the
    /// monitor a CV wake or metalock retry acquires on dispatch. False if
    /// that acquire blocked it and it is off the CPU again.
    pub(crate) fn begin_dispatch(
        &mut self,
        cpu: usize,
        tid: ThreadId,
        quantum_override: Option<SimDuration>,
        shield: Option<Shield>,
    ) -> bool {
        self.chaos_priority_change(tid);
        let from = self.cpus[cpu].last_dispatched;
        if from != Some(tid) {
            self.stats.switches += 1;
            let prio = self.threads[tid.0 as usize].priority;
            let ready_for = self
                .clock
                .saturating_since(self.threads[tid.0 as usize].ready_since);
            self.stats.sched_latency.record(prio, ready_for);
            self.emit(EventKind::Switch {
                from,
                to: tid,
                to_priority: prio,
                ready_for,
            });
            if self.uniprocessor() {
                // Scheduler overhead: advances the clock, charged to no
                // thread. A clock several CPUs share has no such gap.
                self.set_clock(self.clock + self.cfg.switch_cost);
            }
        }
        self.threads[tid.0 as usize].state = TState::Running;
        let quantum_left = quantum_override.unwrap_or_else(|| self.policy_timeslice(tid));
        self.cpus[cpu] = Cpu {
            running: Some(tid),
            last_dispatched: Some(tid),
            quantum_left,
            shield,
        };

        // A CV wake or metalock retry acquires its monitor now; blocking
        // here is the "useless trip through the scheduler" of §6.1.
        let acquire = self.threads[tid.0 as usize].acquire_on_dispatch.take();
        acquire.is_none_or(|mid| self.dispatch_acquire(tid, mid))
    }

    /// Runs the running thread `tid` forward to its next reply: fires due
    /// timers, then pays off its debt slice by slice, stopping for a
    /// preemption, the end of its quantum or of the run window. `None`
    /// means it has left the CPU (requeued, blocked or stalled) and
    /// [`Kernel::leave_cpu`] is due.
    fn advance(&mut self, tid: ThreadId) -> Option<Reply> {
        loop {
            self.fire_due_timers();
            if self.threads[tid.0 as usize].state != TState::Running {
                // A chaos stall caught the running thread mid-dispatch
                // (no other timer touches a Running thread); it must not
                // be re-enqueued until its stall ends.
                return None;
            }
            if self.clock >= self.end || self.preempt_needed(0) {
                self.push_ready(tid, true);
                return None;
            }
            let debt = self.threads[tid.0 as usize].debt;
            if !debt.is_zero() {
                let window = self.end.since(self.clock);
                let mut slice = debt.min(self.cpus[0].quantum_left).min(window);
                if let Some(nt) = self.timers.next_deadline() {
                    slice = slice.min(nt.saturating_since(self.clock));
                }
                if slice.is_zero() {
                    // Quantum exhausted (timers due are handled at loop top).
                    if self.quantum_expired(0, tid) {
                        return None;
                    }
                    continue;
                }
                self.charge_thread(tid, slice);
                self.set_clock(self.clock + slice);
                self.threads[tid.0 as usize].debt -= slice;
                self.cpus[0].quantum_left -= slice;
                continue;
            }
            if let AfterDebt::BlockOnMutex(mid) = self.threads[tid.0 as usize].after_debt {
                // Granted at once (the thread is Ready) or blocked:
                // either way it is off the CPU.
                self.finish_block_on_mutex(tid, mid);
                return None;
            }
            let reply = self.threads[tid.0 as usize].pending_reply.take();
            return Some(reply.expect("a running thread has debt or a pending reply"));
        }
    }

    /// The bookkeeping owed once the dispatched thread is off `cpu`.
    pub(crate) fn leave_cpu(&mut self, cpu: usize) {
        self.cpus[cpu].running = None;
        self.cpus[cpu].shield = None;
    }

    /// `tid` has run out its timeslice on `cpu`: true if it was requeued
    /// behind a competitor (and [`Kernel::leave_cpu`] is due), false if it
    /// runs on with a fresh slice.
    pub(crate) fn quantum_expired(&mut self, cpu: usize, tid: ThreadId) -> bool {
        // Demotion (MLFQ) happens before the requeue decision so the
        // expired thread re-enters at its new level.
        self.policy.on_quantum_expired(tid);
        self.stats.quantum_expiries += 1;
        self.emit(EventKind::QuantumExpired { tid });
        if self.cpus[cpu].shield.take().is_some() || self.quantum_competitor_exists(tid) {
            self.push_ready_back(tid);
            return true;
        }
        self.cpus[cpu].quantum_left = self.policy_timeslice(tid);
        false
    }

    // ---- request handling ----------------------------------------------------

    fn handle_request(&mut self, tid: ThreadId, req: Request) {
        match req {
            Request::Fork(spec) => self.handle_fork(tid, spec),
            Request::Join(target) => self.handle_join(tid, target),
            Request::Detach(target) => {
                self.threads[target.0 as usize].detached = true;
                self.emit(EventKind::Detach { tid, target });
                self.reply_ok(tid);
            }
            Request::Work(d) => self.reply(tid, Reply::Ok, d),
            Request::Sleep { d, precise } => {
                let mut until = self.clock + d;
                if !precise {
                    until = until.round_up_to(self.cfg.granularity());
                }
                until += self.chaos_timer_jitter();
                self.emit(EventKind::Sleep { tid, until });
                self.timers.schedule(until, TimerKind::Wake(tid));
                let now = self.clock;
                let t = &mut self.threads[tid.0 as usize];
                t.state = TState::Sleeping;
                t.blocked_since = now;
                t.pending_reply = Some(Reply::Ok);
            }
            Request::YieldButNotToMe if self.uniprocessor() => {
                self.note_yield(tid, YieldKind::ButNotToMe);
                self.donation = Some(DonationPlan::NotToMe { excluded: tid });
                self.push_ready_back(tid);
            }
            Request::DirectedYield { target, slice } if self.uniprocessor() => {
                self.note_yield(tid, YieldKind::Directed(target));
                if self.threads[target.0 as usize].state == TState::Ready {
                    self.donation = Some(DonationPlan::Directed { target, slice });
                    self.push_ready_back(tid);
                }
                // Target not ready: the yield is a no-op and we keep running.
            }
            Request::DonateRandom { slice } if self.uniprocessor() => {
                self.threads[tid.0 as usize].pending_reply = Some(Reply::Ok);
                // The candidate count comes from the policy (every ready
                // thread except the donor); the index pick stays on the
                // main RNG stream, and the policy enumerates candidates
                // in its deterministic order — for round-robin, the same
                // (level, FIFO) order the pre-trait scheduler had.
                let n = {
                    let (policy, ctx) = self.policy_split();
                    policy.ready_count_excluding(&ctx, tid)
                };
                if let Some(i) = self.rng.pick_index(n) {
                    let target = {
                        let (policy, ctx) = self.policy_split();
                        policy.nth_ready_excluding(&ctx, i, tid)
                    }
                    .expect("donation target walk out of sync");
                    debug_assert_ne!(target, tid, "donation target walk out of sync");
                    self.stats.daemon_donations += 1;
                    self.emit(EventKind::DaemonDonation { target });
                    self.donation = Some(DonationPlan::Directed { target, slice });
                    self.push_ready_back(tid);
                }
            }
            // The directed forms steer one CPU's next pick. With a second
            // CPU the favoured thread simply runs there: plain YIELD.
            Request::Yield
            | Request::YieldButNotToMe
            | Request::DirectedYield { .. }
            | Request::DonateRandom { .. } => {
                self.note_yield(tid, YieldKind::Normal);
                self.push_ready_back(tid);
            }
            Request::SetPriority(p) => {
                self.threads[tid.0 as usize].priority = p;
                // The thread is running (not in the ready structure), so
                // the policy only needs the notification, not a requeue.
                self.policy.on_priority_changed(tid, p);
                self.emit(EventKind::SetPriority { tid, priority: p });
                self.reply_ok(tid);
            }
            Request::MonitorEnter(mid) => self.handle_enter(tid, mid),
            Request::MonitorExit(mid) => self.handle_exit_monitor(tid, mid),
            Request::CvWait { cv } => self.handle_cv_wait(tid, cv),
            Request::Notify { cv } => self.handle_notify(tid, cv, false),
            Request::Broadcast { cv } => self.handle_notify(tid, cv, true),
            Request::NewMonitor { name } => {
                let id = self.new_monitor(name);
                self.threads[tid.0 as usize].pending_reply = Some(Reply::MonitorId(id));
            }
            Request::NewCondition {
                name,
                monitor,
                timeout,
            } => {
                let id = self.new_condition(CvState::new(name, monitor, timeout));
                self.threads[tid.0 as usize].pending_reply = Some(Reply::CondId(id));
            }
            Request::Exit { panicked } => self.handle_exit(tid, panicked),
        }
    }

    /// Counts and announces a yield, which costs nothing and replies `Ok`.
    fn note_yield(&mut self, tid: ThreadId, kind: YieldKind) {
        self.stats.yields += 1;
        self.emit(EventKind::Yield { tid, kind });
        self.threads[tid.0 as usize].pending_reply = Some(Reply::Ok);
    }

    fn reply_ok(&mut self, tid: ThreadId) {
        self.reply(tid, Reply::Ok, self.cfg.primitive_cost);
    }

    fn handle_fork(&mut self, tid: ThreadId, spec: ForkSpec) {
        // Chaos first (§5.4): an injected failure overrides the fork
        // policy — it models resource exhaustion the policy can't see.
        if self.chaos_fork_should_fail() {
            self.stats.chaos_fork_failures += 1;
            self.stats.fork_failures += 1;
            self.emit(EventKind::ChaosForkFail { tid });
            self.reply(tid, Reply::ForkFailed, self.cfg.primitive_cost);
            return;
        }
        if self.live_threads >= self.cfg.max_threads {
            match self.cfg.fork_policy {
                ForkPolicy::Error => {
                    self.stats.fork_failures += 1;
                    self.emit(EventKind::ForkFailed { tid });
                    self.threads[tid.0 as usize].pending_reply = Some(Reply::ForkFailed);
                }
                ForkPolicy::WaitForResources => {
                    self.stats.fork_blocks += 1;
                    self.emit(EventKind::ForkBlocked { tid });
                    self.threads[tid.0 as usize].state = TState::ForkWait;
                    self.threads[tid.0 as usize].blocked_since = self.clock;
                    self.pending_forks.push_back((tid, spec));
                }
            }
            return;
        }
        let child = self.create_thread(spec, Some(tid));
        self.reply(tid, Reply::Forked(child), self.cfg.fork_cost);
    }

    fn handle_join(&mut self, tid: ThreadId, target: ThreadId) {
        if self.threads[target.0 as usize].state == TState::Exited {
            self.emit(EventKind::Join {
                joiner: tid,
                target,
            });
            self.threads[tid.0 as usize].pending_reply = Some(Reply::Joined);
        } else {
            if let Some(other) = self.threads[target.0 as usize].joiner {
                self.fault(
                    tid,
                    format!("JOIN: thread {target:?} is already being joined by {other:?}"),
                );
                return;
            }
            self.threads[target.0 as usize].joiner = Some(tid);
            self.emit(EventKind::JoinBlocked {
                joiner: tid,
                target,
            });
            self.threads[tid.0 as usize].state = TState::JoinWait(target);
            self.threads[tid.0 as usize].blocked_since = self.clock;
        }
    }

    fn handle_enter(&mut self, tid: ThreadId, mid: MonitorId) {
        // Metalock window check (§6.2): someone preempted mid-window?
        if let Some(holder) = self.monitors[mid.0 as usize].meta {
            if holder != tid {
                if self.cfg.metalock_donation {
                    self.donate_metalock(mid, holder);
                } else {
                    self.stats.metalock_stalls += 1;
                    self.emit(EventKind::MetalockStall {
                        tid,
                        monitor: mid,
                        holder,
                    });
                    self.monitors[mid.0 as usize].meta_waiters.push_back(tid);
                    self.threads[tid.0 as usize].state = TState::MetaWait(mid);
                    self.threads[tid.0 as usize].blocked_since = self.clock;
                    return;
                }
            }
        }
        match self.monitors[mid.0 as usize].owner {
            None => {
                self.monitors[mid.0 as usize].owner = Some(tid);
                self.note_enter(tid, mid, false);
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
                // Enqueueing runs inside the metalock window; if we get
                // preempted during it, others stall (or donate cycles).
                self.monitors[mid.0 as usize].meta = Some(tid);
                let t = &mut self.threads[tid.0 as usize];
                t.debt = self.cfg.metalock_cost;
                t.after_debt = AfterDebt::BlockOnMutex(mid);
            }
        }
    }

    fn handle_exit_monitor(&mut self, tid: ThreadId, mid: MonitorId) {
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
        self.emit(EventKind::MlExit { tid, monitor: mid });
        self.release_monitor(mid);
        self.reply_ok(tid);
    }

    fn handle_cv_wait(&mut self, tid: ThreadId, cv: CondId) {
        let mid = self.conds[cv.0 as usize].monitor;
        if self.monitors[mid.0 as usize].owner != Some(tid) {
            self.fault(
                tid,
                format!("WAIT on {cv:?} without holding its monitor {mid:?}"),
            );
            return;
        }
        self.stats.cv_waits += 1;
        let first = !std::mem::replace(&mut self.conds[cv.0 as usize].waited, true);
        self.stats.distinct_conditions += usize::from(first);
        self.emit(EventKind::CvWait { tid, cv });
        let timeout = self.conds[cv.0 as usize].timeout.map(|timeout| {
            let at = (self.clock + timeout).round_up_to(self.cfg.granularity())
                + self.chaos_timer_jitter();
            self.timers.schedule(at, TimerKind::CvTimeout { tid, cv })
        });
        let spurious = self.chaos_decision(FaultSiteKind::SpuriousWakeup, |s, _| {
            let sp = s.cfg.chaos.spurious_wakeup_prob;
            if sp > 0.0 && s.chaos_rng.next_f64() < sp {
                // A spurious wakeup 1..=spurious_delay µs into the wait,
                // unless the wait ends first.
                let max = s.cfg.chaos.spurious_delay.as_micros();
                Some(s.chaos_rng.next_below(max) + 1)
            } else {
                None
            }
        });
        let spurious = spurious.map(|delay_us| {
            let kind = TimerKind::ChaosSpuriousWake { tid, cv };
            self.timers.schedule(self.clock + micros(delay_us), kind)
        });
        let now = self.clock;
        let t = &mut self.threads[tid.0 as usize];
        t.state = TState::CvWait(cv);
        t.blocked_since = now;
        t.wait_timers = [timeout, spurious];
        self.conds[cv.0 as usize].queue.push_back(tid);
        self.emit(EventKind::MlExit { tid, monitor: mid });
        self.release_monitor(mid);
    }

    fn handle_notify(&mut self, tid: ThreadId, cv: CondId, broadcast: bool) {
        let mid = self.conds[cv.0 as usize].monitor;
        if self.monitors[mid.0 as usize].owner != Some(tid) {
            self.fault(
                tid,
                format!("NOTIFY/BROADCAST on {cv:?} without holding its monitor {mid:?}"),
            );
            return;
        }
        // Chaos (§5.3): silently discard a NOTIFY that has a waiter. The
        // waiter keeps waiting; only its timeout (if any) can rescue it.
        if !broadcast && !self.conds[cv.0 as usize].queue.is_empty() {
            let dropped = self
                .chaos_decision(FaultSiteKind::DropNotify, |s, _| {
                    let p = s.cfg.chaos.drop_notify_prob;
                    (p > 0.0 && s.chaos_rng.next_f64() < p).then_some(0)
                })
                .is_some();
            if dropped {
                self.stats.cv_notifies += 1;
                self.stats.chaos_dropped_notifies += 1;
                self.emit(EventKind::NotifyDropped { tid, cv });
                self.reply_ok(tid);
                return;
            }
        }
        let mut woken = 0u32;
        let mut first_woken = None;
        while let Some(w) = self.conds[cv.0 as usize].queue.pop_front() {
            woken += 1;
            first_woken.get_or_insert(w);
            self.wake_waiter(w, mid, cv);
            if !broadcast {
                break;
            }
        }
        // Chaos (§5.3): wake a second waiter too, violating "exactly one
        // waiter wakens". Correct Mesa code re-checks its predicate and
        // survives; code that doesn't is what this fault flushes out.
        let mut extra = None;
        if !broadcast && first_woken.is_some() && !self.conds[cv.0 as usize].queue.is_empty() {
            let duplicated = self
                .chaos_decision(FaultSiteKind::DuplicateNotify, |s, _| {
                    let p = s.cfg.chaos.duplicate_notify_prob;
                    (p > 0.0 && s.chaos_rng.next_f64() < p).then_some(0)
                })
                .is_some();
            if duplicated {
                let w = self.conds[cv.0 as usize].queue.pop_front();
                let w = w.expect("a second waiter is queued");
                self.wake_waiter(w, mid, cv);
                self.stats.chaos_duplicated_notifies += 1;
                extra = Some(w);
            }
        }
        if broadcast {
            self.stats.cv_broadcasts += 1;
            self.emit(EventKind::Broadcast { tid, cv, woken });
        } else {
            self.stats.cv_notifies += 1;
            self.emit(EventKind::Notify {
                tid,
                cv,
                woken: first_woken,
            });
            if let Some(extra) = extra {
                self.emit(EventKind::NotifyDuplicated { tid, cv, extra });
            }
        }
        self.reply_ok(tid);
    }

    /// Wakes one CV waiter according to the configured NOTIFY mode.
    fn wake_waiter(&mut self, w: ThreadId, mid: MonitorId, cv: CondId) {
        self.end_wait(w);
        let wt = &mut self.threads[w.0 as usize];
        match self.cfg.notify_mode {
            NotifyMode::Immediate => {
                wt.acquire_on_dispatch = Some(mid);
                wt.reacquire = Some((WaitOutcome::Notified, cv));
                self.push_ready_back(w);
            }
            NotifyMode::DeferredReschedule => {
                self.monitors[mid.0 as usize]
                    .deferred
                    .push((w, WaitOutcome::Notified, cv));
            }
        }
    }

    fn handle_exit(&mut self, tid: ThreadId, panicked: bool) {
        self.emit(EventKind::Exit { tid, panicked });
        self.stats.exits += 1;
        if panicked {
            self.stats.panics += 1;
        }
        let t = &mut self.threads[tid.0 as usize];
        t.panicked = panicked;
        t.state = TState::Exited;
        t.pending_reply = None;
        t.debt = SimDuration::ZERO;
        self.live_threads -= 1;
        // Exit arrives with the body's final switch, so the stack is
        // already vacant: the next fork may have it.
        if let Some(co) = self.threads[tid.0 as usize].coroutine.take() {
            self.pool.give(co.into_stack());
        }
        debug_assert!(
            self.monitors.iter().all(|m| m.owner != Some(tid)),
            "thread exited while holding a monitor"
        );
        if let Some(j) = self.threads[tid.0 as usize].joiner.take() {
            self.emit(EventKind::Join {
                joiner: j,
                target: tid,
            });
            self.threads[j.0 as usize].pending_reply = Some(Reply::Joined);
            self.push_ready_back(j);
        }
        // A freed slot can satisfy a blocked FORK (§5.4).
        if self.live_threads < self.cfg.max_threads {
            if let Some((forker, spec)) = self.pending_forks.pop_front() {
                let child = self.create_thread(spec, Some(forker));
                self.reply(forker, Reply::Forked(child), self.cfg.fork_cost);
                self.push_ready_back(forker);
            }
        }
    }
}
