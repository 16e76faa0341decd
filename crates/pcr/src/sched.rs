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
//! `run.rs`) and takes the three `cpus == 1` branches its table lists.
//!
//! This file holds the state; the rules that change it are split along
//! the Mesa model, each rule one named function (DESIGN.md's rule table
//! lists them with the tests that catch a mutation of each):
//!
//! | File | Rules |
//! |---|---|
//! | `kernel.rs` | a kernel call: the [`Request`] and [`Reply`], the one `match` on requests, events, faults, chaos decisions, the host's views |
//! | `threads.rs` | FORK (and its §5.4 limit), JOIN, DETACH, thread exit, priorities, the yields and the SystemDaemon's donation, chaos stalls |
//! | `monitors.rs` | ENTER and EXIT, the hand-off to the next queued thread, the §6.2 metalock window and its cycle donation |
//! | `waits.rs` | WAIT, NOTIFY and BROADCAST, the §6.1 deferred reschedule, timeouts and sleeps on the timer wheel |
//! | `run.rs` | dispatch, preemption, the quantum, and the run loop on one CPU or several |
//! | `policy.rs` | which ready thread goes next ([`policy::Scheduler`]) |

use std::cell::{OnceCell, RefCell};
use std::collections::VecDeque;
use std::rc::{Rc, Weak};
use std::sync::Arc;

use crate::chaos::FaultDecision;
use crate::condition::CvState;
use crate::config::SimConfig;
use crate::coroutine::{Coroutine, StackPool};
use crate::ctx::ThreadCtx;
use crate::event::{CondId, EventMask, TraceSink, WaitOutcome};
use crate::hazard::HazardMonitor;
use crate::histogram::Log2Histogram;
use crate::monitor::MonitorId;
use crate::rng::SplitMix64;
use crate::thread::{Priority, ThreadId, ThreadInfo};
use crate::time::{SimDuration, SimTime};
use crate::wheel::WheelToken;

mod kernel;
mod monitors;
pub mod policy;
mod run;
mod threads;
mod waits;

pub(crate) use kernel::{BodyFn, ForkSpec, Reply, Request, ShutdownSignal};
use policy::Scheduler;
use waits::{TimerKind, TimerWheel};

/// Salt folded into the seed for the dedicated chaos RNG stream, so
/// enabling injection leaves the scheduler's own random decisions (e.g.
/// SystemDaemon donation targets) untouched.
const CHAOS_SEED_SALT: u64 = 0xC4A0_5EED_1B5A_93D7;

/// Wakeup-to-run scheduler-latency profile, per priority level.
///
/// Every time the scheduler switches to a thread it records how long that
/// thread sat in the ready queue (§6.2's preemption concerns, §6.3's
/// quantum tuning): one sample per emitted [`EventKind::Switch`], in a
/// log₂-microsecond histogram per level. Maintained inside [`SimStats`],
/// so a measurement window is the delta of two snapshots
/// ([`SchedLatency::window_since`]).
///
/// [`EventKind::Switch`]: crate::EventKind::Switch
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SchedLatency {
    /// Ready-queue waits at each priority level (index 0 = priority 1):
    /// 20 buckets, the last open-ended from 2^18 µs.
    pub levels: [Log2Histogram<{ SchedLatency::BUCKETS }>; Priority::LEVELS],
}

impl SchedLatency {
    /// Number of histogram buckets per priority level.
    pub const BUCKETS: usize = 20;

    /// Records one dispatch of a thread at `prio` that waited `d`.
    #[inline]
    pub fn record(&mut self, prio: Priority, d: SimDuration) {
        self.levels[prio.index()].record(d);
    }

    /// Mean wait at priority index `p`, if any sample exists.
    pub fn mean_wait(&self, p: usize) -> Option<SimDuration> {
        let h = &self.levels[p];
        h.sum_us()
            .checked_div(h.count())
            .map(SimDuration::from_micros)
    }

    /// The profile for the window since an earlier snapshot `start`.
    /// The maximum wait is not windowable from counters alone, so the
    /// end-of-run maximum is kept (an upper bound for the window).
    pub fn window_since(&self, start: &SchedLatency) -> SchedLatency {
        SchedLatency {
            levels: std::array::from_fn(|p| self.levels[p].since(&start.levels[p])),
        }
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
enum Shield {
    /// No preemption at all during the donated slice.
    Full,
    /// The donor may not preempt the favored thread.
    FromDonor(ThreadId),
}

/// One virtual processor's dispatch state.
#[derive(Clone, Default)]
struct Cpu {
    running: Option<ThreadId>,
    /// The thread it last dispatched: a switch is one only when it changes.
    last_dispatched: Option<ThreadId>,
    /// What is left of the running thread's timeslice.
    quantum_left: SimDuration,
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
    kernel: Rc<RefCell<Kernel>>,
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
    cpus: Vec<Cpu>,
    /// Times a body was resumed ([`AllocCounters::stack_switches`]).
    stack_switches: u64,
    rng: SplitMix64,
    threads: Vec<Tcb>,
    /// The installed scheduling policy: owns the ready structure and
    /// makes every dispatch decision ([`policy::Scheduler`]). The
    /// default [`policy::RoundRobin`] is the paper's scheduler,
    /// byte-identical to the pre-trait dispatcher.
    policy: Box<dyn Scheduler>,
    /// What a directed yield asked of the next pick (uniprocessor only).
    donation: Option<DonationPlan>,
    timers: TimerWheel,
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
    /// The message of each [`Reply::Fault`] not yet taken by its thread
    /// ([`Kernel::take_fault`]): kept here so that a reply stays a register.
    faults: Vec<(ThreadId, String)>,
    sink: Option<Box<dyn TraceSink>>,
    /// Cached [`TraceSink::subscriptions`] of `sink` (EMPTY when none):
    /// [`Kernel::emit`] consults the masks before constructing an event,
    /// so an un-instrumented run pays only for its counters.
    sink_mask: EventMask,
    /// Cached subscription mask of `hazards` (EMPTY when none).
    hazard_mask: EventMask,
    stats: SimStats,
    pending_forks: VecDeque<(ThreadId, ForkSpec)>,
    live_threads: usize,
    /// Dedicated RNG stream for fault injection (seed ⊕ salt), so chaos
    /// draws never perturb `rng`.
    chaos_rng: SplitMix64,
    /// Per-kind chaos decision-point counters (indexed by
    /// [`FaultSiteKind::index`](crate::FaultSiteKind::index)), ticked at
    /// every decision point whether or not a fault is injected, so
    /// `(kind, site)` names one decision.
    chaos_sites: [u64; 6],
    /// Chronological record of every positive injection decision.
    chaos_trace: Vec<FaultDecision>,
    /// Scripted replay cursors, per kind sorted by site, when
    /// [`ChaosConfig::script`](crate::ChaosConfig::script) is set.
    /// Consulted instead of the RNG.
    chaos_script: Option<[VecDeque<(u64, u64)>; 6]>,
    /// Per stall spec, its `while_holding` name resolved: how many
    /// monitors have been looked at, and which of them carry the name
    /// ([`Kernel::holds_gate`]).
    gates: Vec<(usize, Vec<MonitorId>)>,
    /// Pre-drawn PCT priority-change sites (dispatch ordinals, sorted
    /// ascending, deduplicated), drawn once at construction when
    /// [`ChaosConfig::pct`](crate::ChaosConfig::pct) is set and no script
    /// is in force.
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
    /// same kernel under the clock-advance rule of its multiprocessor run
    /// loop, which differs from the paper's uniprocessor in three places
    /// (DESIGN.md lists them).
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
            faults: Vec::new(),
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
            let daemon = move |ctx: &ThreadCtx| loop {
                ctx.sleep_precise(period);
                ctx.donate_random(slice);
            };
            // Never joined: it runs as long as the world.
            drop(sim.fork_root("SystemDaemon", Priority::of(6), daemon));
        }
        sim
    }
}
