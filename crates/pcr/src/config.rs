//! Runtime configuration.
//!
//! Defaults reproduce the constants the paper reports for PCR on a
//! SPARCstation-2: a 50 ms timeslice, condition-variable timeout
//! granularity equal to the timeslice, and a sub-50 µs thread switch.

use crate::chaos::ChaosConfig;
use crate::hazard::HazardConfig;
use crate::time::{micros, millis, SimDuration};

/// Which scheduling policy a [`Sim`](crate::Sim) dispatches with.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PolicyKind {
    /// The paper's scheduler: 7 strict priorities, round-robin within a
    /// level, fixed quantum. The default, byte-identical to the
    /// pre-trait dispatcher.
    #[default]
    RoundRobin,
    /// CFS-style fair scheduling: lowest virtual runtime first, with
    /// priority acting as a weight on how fast virtual runtime advances.
    Cfs,
    /// Lottery scheduling: each dispatch draws a winner with
    /// priority-proportional tickets from a dedicated seeded RNG stream.
    Lottery,
    /// Multi-level feedback queue: demotion on quantum expiry, boost to
    /// the base priority on wakeup, shorter slices at higher levels.
    Mlfq,
}

impl PolicyKind {
    /// Every policy, in tournament display order.
    pub const ALL: [PolicyKind; 4] = [
        PolicyKind::RoundRobin,
        PolicyKind::Cfs,
        PolicyKind::Lottery,
        PolicyKind::Mlfq,
    ];

    /// The CLI/JSON tag (`rr`, `cfs`, `lottery`, `mlfq`).
    pub const fn as_str(self) -> &'static str {
        match self {
            PolicyKind::RoundRobin => "rr",
            PolicyKind::Cfs => "cfs",
            PolicyKind::Lottery => "lottery",
            PolicyKind::Mlfq => "mlfq",
        }
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for PolicyKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "rr" | "round-robin" | "roundrobin" => Ok(PolicyKind::RoundRobin),
            "cfs" | "fair" => Ok(PolicyKind::Cfs),
            "lottery" => Ok(PolicyKind::Lottery),
            "mlfq" => Ok(PolicyKind::Mlfq),
            other => Err(format!(
                "unknown policy {other:?} (expected rr, cfs, lottery, or mlfq)"
            )),
        }
    }
}

/// How NOTIFY schedules the awakened thread (§6.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NotifyMode {
    /// The notified thread becomes runnable immediately. On a uniprocessor
    /// this produces a *spurious lock conflict* whenever the notified
    /// thread has higher priority than the notifier: it preempts, fails to
    /// acquire the still-held monitor, and blocks again — a useless trip
    /// through the scheduler.
    Immediate,
    /// The paper's fix: the notification is recorded, but processor
    /// rescheduling is deferred until the notifier exits the monitor, at
    /// which point the awakened thread competes for the now-free mutex.
    DeferredReschedule,
}

/// What FORK does when thread resources are exhausted (§5.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ForkPolicy {
    /// Raise an error the caller must handle ("the machinery for catching
    /// the error is always set up even though ... nobody really knows what
    /// to do about it").
    Error,
    /// The paper's later approach: block inside FORK until resources free
    /// up, producing unexplained delays instead of errors.
    WaitForResources,
}

/// Configuration of the built-in SystemDaemon (§6.2).
///
/// The SystemDaemon is a high-priority sleeper that periodically donates a
/// small timeslice, via directed yield, to a randomly chosen ready thread,
/// ensuring every ready thread gets some CPU regardless of priority.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SystemDaemonConfig {
    /// How often the daemon wakes.
    pub period: SimDuration,
    /// The timeslice it donates on each wake.
    pub slice: SimDuration,
}

impl Default for SystemDaemonConfig {
    fn default() -> Self {
        SystemDaemonConfig {
            period: millis(100),
            slice: millis(5),
        }
    }
}

/// Full configuration for a [`crate::Sim`].
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Scheduler timeslice (paper: 50 ms).
    pub quantum: SimDuration,
    /// Timer granularity for CV timeouts and sleeps. `None` couples it to
    /// the quantum, as in PCR where both were 50 ms — this coupling is what
    /// makes §6.3's quantum-sweep experiment behave as described.
    pub timer_granularity: Option<SimDuration>,
    /// Cost of a thread switch (paper: "less than 50 microseconds ... on a
    /// Sparcstation-2").
    pub switch_cost: SimDuration,
    /// Cost charged inside each monitor/CV primitive.
    pub primitive_cost: SimDuration,
    /// Cost of creating a thread ("the modest cost of creating a thread").
    pub fork_cost: SimDuration,
    /// Length of the short critical section that manipulates a monitor's
    /// queue of waiting threads (the per-monitor *metalock*).
    pub metalock_cost: SimDuration,
    /// Whether a thread blocked on a metalock donates its cycles to the
    /// holder (PCR did; disabling it exposes metalock priority inversion).
    pub metalock_donation: bool,
    /// NOTIFY scheduling mode (§6.1).
    pub notify_mode: NotifyMode,
    /// FORK behavior at the thread limit (§5.4).
    pub fork_policy: ForkPolicy,
    /// Maximum number of live threads.
    pub max_threads: usize,
    /// Spawn the SystemDaemon at startup.
    pub system_daemon: Option<SystemDaemonConfig>,
    /// Seed for all randomized decisions (daemon donation targets and any
    /// workload jitter derived through [`crate::ThreadCtx::rng`]).
    pub seed: u64,
    /// Fault injection (default: inject nothing). Chaos draws come from a
    /// dedicated stream derived from `seed`, so enabling injection does
    /// not perturb the scheduler's own random decisions and a given
    /// `(seed, chaos)` pair replays byte-identically.
    pub chaos: ChaosConfig,
    /// Run an online [`crate::HazardMonitor`] over the event stream and
    /// carry its tallies on [`crate::RunReport`]. `None` disables
    /// detection (the default; it costs a shadow bookkeeping pass per
    /// event).
    pub hazard_detection: Option<HazardConfig>,
    /// Which scheduling policy dispatches threads
    /// ([`crate::policy::Scheduler`]). The default is the paper's
    /// 7-priority round-robin; the alternatives exist for the policy
    /// tournament (`docs/SCHEDULING.md`).
    pub policy: PolicyKind,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            quantum: millis(50),
            timer_granularity: None,
            switch_cost: micros(40),
            primitive_cost: micros(1),
            fork_cost: micros(100),
            metalock_cost: micros(2),
            metalock_donation: true,
            notify_mode: NotifyMode::DeferredReschedule,
            fork_policy: ForkPolicy::WaitForResources,
            max_threads: 4096,
            system_daemon: None,
            seed: 0x5EED_CEDA,
            chaos: ChaosConfig::default(),
            hazard_detection: None,
            policy: PolicyKind::default(),
        }
    }
}

impl SimConfig {
    /// The effective timer granularity (defaults to the quantum).
    pub fn granularity(&self) -> SimDuration {
        self.timer_granularity.unwrap_or(self.quantum)
    }

    /// Sets the scheduler quantum.
    pub fn with_quantum(mut self, q: SimDuration) -> Self {
        self.quantum = q;
        self
    }

    /// Decouples the timer granularity from the quantum.
    pub fn with_timer_granularity(mut self, g: SimDuration) -> Self {
        self.timer_granularity = Some(g);
        self
    }

    /// Sets the NOTIFY mode.
    pub fn with_notify_mode(mut self, m: NotifyMode) -> Self {
        self.notify_mode = m;
        self
    }

    /// Sets the fork policy.
    pub fn with_fork_policy(mut self, p: ForkPolicy) -> Self {
        self.fork_policy = p;
        self
    }

    /// Sets the live-thread limit.
    pub fn with_max_threads(mut self, n: usize) -> Self {
        self.max_threads = n;
        self
    }

    /// Enables the SystemDaemon.
    pub fn with_system_daemon(mut self, d: SystemDaemonConfig) -> Self {
        self.system_daemon = Some(d);
        self
    }

    /// Sets the random seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the metalock cost (experiments magnify it to make the window
    /// observable).
    pub fn with_metalock_cost(mut self, c: SimDuration) -> Self {
        self.metalock_cost = c;
        self
    }

    /// Enables or disables metalock cycle donation.
    pub fn with_metalock_donation(mut self, on: bool) -> Self {
        self.metalock_donation = on;
        self
    }

    /// Enables fault injection.
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> Self {
        self.chaos = chaos;
        self
    }

    /// Enables online hazard detection with the given thresholds.
    pub fn with_hazard_detection(mut self, cfg: HazardConfig) -> Self {
        self.hazard_detection = Some(cfg);
        self
    }

    /// Selects the scheduling policy.
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_constants() {
        let c = SimConfig::default();
        assert_eq!(c.quantum, millis(50));
        assert_eq!(c.granularity(), millis(50));
        assert!(c.switch_cost < micros(50));
        assert_eq!(c.notify_mode, NotifyMode::DeferredReschedule);
    }

    #[test]
    fn granularity_decouples() {
        let c = SimConfig::default()
            .with_quantum(millis(20))
            .with_timer_granularity(millis(5));
        assert_eq!(c.quantum, millis(20));
        assert_eq!(c.granularity(), millis(5));
    }

    #[test]
    fn granularity_follows_quantum_by_default() {
        let c = SimConfig::default().with_quantum(millis(20));
        assert_eq!(c.granularity(), millis(20));
    }

    #[test]
    fn default_policy_is_round_robin() {
        assert_eq!(SimConfig::default().policy, PolicyKind::RoundRobin);
        let c = SimConfig::default().with_policy(PolicyKind::Mlfq);
        assert_eq!(c.policy, PolicyKind::Mlfq);
    }

    #[test]
    fn builder_chain() {
        let c = SimConfig::default()
            .with_seed(7)
            .with_max_threads(10)
            .with_fork_policy(ForkPolicy::Error)
            .with_notify_mode(NotifyMode::Immediate)
            .with_system_daemon(SystemDaemonConfig::default())
            .with_chaos(ChaosConfig::default().spurious_wakeups(0.25))
            .with_hazard_detection(HazardConfig::default());
        assert_eq!(c.seed, 7);
        assert!(c.chaos.is_active());
        assert!(c.hazard_detection.is_some());
        assert_eq!(c.max_threads, 10);
        assert_eq!(c.fork_policy, ForkPolicy::Error);
        assert_eq!(c.notify_mode, NotifyMode::Immediate);
        assert!(c.system_daemon.is_some());
    }
}
