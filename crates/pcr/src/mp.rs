//! More than one processor (§4.7's context): the run loop of
//! [`Sim::with_cpus`] at `cpus > 1`.
//!
//! The paper's measurements are from a uniprocessor SPARCstation and
//! [`Sim::new`] models exactly that. But "these systems do run on
//! multiprocessors", concurrency exploiters are "threads created
//! specifically to make use of multiple processors", and Birrell's
//! original spurious-lock-conflict scenario (§6.1) *requires* two
//! processors: the notifier keeps running on one while the notified
//! thread starts on another and trips over the still-held monitor.
//!
//! Thread bodies execute one at a time in real time whatever the CPU
//! count — only *virtual* time overlaps — so N processors are not a
//! second kernel but a second rule for advancing the clock over the same
//! cooperative one (`sched.rs`'s `Kernel`: threads, monitors, CVs, timers,
//! FORK limits, policy, chaos, hazards, every request handler). This
//! module is that rule: the installed policy dispatches onto every CPU
//! (under the paper's, no runnable thread is outranked by a waiting one
//! across all CPUs), each CPU has its own timeslice, and the clock moves
//! by the largest step that reaches no timer, no end of a `work` and no
//! end of a quantum on any CPU. A thread's kernel call is served on its
//! own stack at once, but its reply waits for the loop, which answers the
//! CPUs in index order: that is the linearization of same-instant
//! operations, and what keeps a run deterministic.
//!
//! What `cpus > 1` does differently inside the shared kernel, each a
//! `cpus == 1` branch there:
//!
//! | On one CPU | With more | Why |
//! |---|---|---|
//! | `YieldButNotToMe`, directed yields and `donate_random` steer the next pick | they are plain YIELD | they exist to get *another* thread onto the only CPU; here it simply runs on another one |
//! | a contended ENTER spends `metalock_cost` in a window it can be preempted in (§6.2) | ENTER and EXIT are atomic | the window models a preemption between two instructions of one CPU's kernel, and same-instant calls of several CPUs are already serialized in index order |
//! | a switch advances the clock by `switch_cost`, charged to no thread | no switch cost | the cost is a gap in the one CPU's timeline; a clock several CPUs share has no place to put one CPU's gap |
//!
//! [`Sim::with_cpus`]: crate::Sim::with_cpus
//! [`Sim::new`]: crate::Sim::new

use std::cell::RefMut;

use crate::error::StopReason;
use crate::sched::{Kernel, Sim, TState};
use crate::thread::Priority;
use crate::time::{SimDuration, SimTime};

impl Sim {
    /// The run loop at `cpus > 1`: serve every CPU at a kernel call, then
    /// let all of them consume the same stretch of virtual time.
    pub(crate) fn run_cpus(&self, end: SimTime) -> StopReason {
        let mut k = self.kernel.borrow_mut();
        loop {
            k.fire_due_timers();
            if k.live_threads == 0 {
                return StopReason::AllExited;
            }
            if k.clock >= end {
                return StopReason::TimeLimit;
            }
            k = self.service_cpus(k);
            if k.live_threads == 0 {
                return StopReason::AllExited;
            }
            let idle = k.cpus.iter().all(|c| c.running.is_none());
            let next = k.next_stop(idle);
            if idle && next.is_none() {
                return StopReason::Deadlock(k.deadlock_report());
            }
            k.advance_cpus(end, next);
        }
    }

    /// Resumes, in CPU-index order, every running thread that has worked
    /// off its debt, and lets it run to its next kernel call (served on its
    /// own stack, [`Kernel::serve`]); takes those that left their CPU off
    /// it. Rounds repeat, rebalancing in between so that a thread just
    /// dispatched gets its turn too, until every busy CPU carries debt.
    fn service_cpus<'a>(&'a self, mut k: RefMut<'a, Kernel>) -> RefMut<'a, Kernel> {
        loop {
            k.rebalance();
            let mut progressed = false;
            for cpu in 0..k.cpus.len() {
                while let Some(tid) = k.cpus[cpu].running {
                    let t = &mut k.threads[tid.0 as usize];
                    if t.state != TState::Running {
                        // Blocked, yielded or exited in the call just
                        // served, or a chaos stall caught it mid-`work`.
                        k.leave_cpu(cpu);
                        progressed = true;
                        break;
                    }
                    if !t.debt.is_zero() {
                        break;
                    }
                    let reply = t.pending_reply.take();
                    let reply = reply.expect("a running thread has debt or a pending reply");
                    k = self.resume(k, tid, reply);
                    progressed = true;
                }
            }
            if !progressed {
                return k;
            }
        }
    }
}

impl Kernel {
    /// Global dispatch: an idle CPU takes the policy's next thread; with
    /// none idle, the CPU to change hands is that of the lowest-priority
    /// thread the policy says a ready one preempts (the lowest index among
    /// equals).
    fn rebalance(&mut self) {
        loop {
            let mut victim: Option<(Priority, usize)> = None;
            let mut idle = None;
            for cpu in 0..self.cpus.len() {
                let Some(run) = self.cpus[cpu].running else {
                    idle = Some(cpu);
                    break;
                };
                let prio = self.threads[run.0 as usize].priority;
                if victim.is_none_or(|(p, _)| prio < p) && self.preempt_needed(cpu) {
                    victim = Some((prio, cpu));
                }
            }
            let Some(cpu) = idle.or(victim.map(|(_, cpu)| cpu)) else {
                return;
            };
            // Picked before the preempted thread is requeued: a policy
            // cannot answer with the thread it was asked to replace.
            let Some(next) = self.pop_ready_excluding(None) else {
                return;
            };
            if let Some(preempted) = self.cpus[cpu].running {
                self.push_ready(preempted, true);
                self.leave_cpu(cpu);
            }
            if !self.begin_dispatch(cpu, next, None, None) {
                self.leave_cpu(cpu);
            }
        }
    }

    /// Advances virtual time across all busy CPUs by the largest step that
    /// passes no timer (`next`: [`Kernel::next_stop`]), no end of a debt and
    /// no end of a quantum; with every CPU idle, the jump to `next` or `end`.
    /// A step of zero is a quantum that expires now.
    fn advance_cpus(&mut self, end: SimTime, next: Option<SimTime>) {
        let mut dt = end.saturating_since(self.clock);
        if let Some(t) = next {
            dt = dt.min(t.saturating_since(self.clock));
        }
        for cpu in 0..self.cpus.len() {
            let Some(tid) = self.cpus[cpu].running else {
                continue;
            };
            // Served a moment ago: whoever is still running owes work.
            let debt = self.threads[tid.0 as usize].debt;
            debug_assert!(!debt.is_zero());
            if self.cpus[cpu].quantum_left.is_zero() && self.quantum_expired(cpu, tid) {
                self.leave_cpu(cpu);
                // Its successor is dispatched before any time passes.
                dt = SimDuration::ZERO;
                continue;
            }
            dt = dt.min(debt).min(self.cpus[cpu].quantum_left);
        }
        self.set_clock(self.clock + dt);
        for cpu in 0..self.cpus.len() {
            if let Some(tid) = self.cpus[cpu].running {
                self.charge_thread(tid, dt);
                self.threads[tid.0 as usize].debt -= dt;
                self.cpus[cpu].quantum_left -= dt;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{
        millis, secs, JoinHandle, NotifyMode, PolicyKind, Priority, RunLimit, Sim, SimConfig,
        SimDuration, SimTime, StopReason,
    };

    fn hogs(sim: &mut Sim, n: usize, work: SimDuration) -> Vec<JoinHandle<SimTime>> {
        (0..n)
            .map(|i| {
                sim.fork_root(&format!("hog{i}"), Priority::DEFAULT, move |ctx| {
                    ctx.work(work);
                    ctx.now()
                })
            })
            .collect()
    }

    #[test]
    fn two_cpus_halve_makespan() {
        // 4 × 100ms of work: 400ms on one CPU, ~200ms on two.
        let t_for = |cpus: usize| {
            let mut sim = Sim::with_cpus(SimConfig::default(), cpus);
            let hs = hogs(&mut sim, 4, millis(100));
            let r = sim.run(RunLimit::ToCompletion);
            assert_eq!(r.reason, StopReason::AllExited);
            drop(hs);
            r.now.as_micros()
        };
        // One CPU is `Sim::new`: the 400ms of work plus 40µs per switch.
        let one = t_for(1);
        let two = t_for(2);
        let four = t_for(4);
        assert!((380_000..=430_000).contains(&one), "1cpu {one}");
        assert!((190_000..=230_000).contains(&two), "2cpu {two}");
        assert!((95_000..=130_000).contains(&four), "4cpu {four}");
    }

    #[test]
    fn strict_priority_across_cpus() {
        // 2 CPUs, three threads: the two highest always run.
        let mut sim = Sim::with_cpus(SimConfig::default(), 2);
        let lo = sim.fork_root("lo", Priority::of(2), |ctx| {
            ctx.work(millis(10));
            ctx.now()
        });
        let _m1 = sim.fork_root("m1", Priority::of(5), |ctx| {
            ctx.work(millis(50));
            ctx.now()
        });
        let _m2 = sim.fork_root("m2", Priority::of(5), |ctx| {
            ctx.work(millis(50));
            ctx.now()
        });
        sim.run(RunLimit::ToCompletion);
        let lo_end = lo.into_result().unwrap().unwrap();
        // The low thread only starts after a mid finishes: ends ~60ms.
        assert!(lo_end >= SimTime::from_micros(58_000), "lo ended {lo_end}");
    }

    #[test]
    fn monitors_are_globally_exclusive_across_cpus() {
        // A driver forks 4 workers hammering one monitor from 4 CPUs,
        // joins them, then reads the count (a low-priority sibling probe
        // would run immediately here — a free CPU always exists).
        let mut sim = Sim::with_cpus(SimConfig::default(), 4);
        let m = sim.monitor("m", (0u64, false));
        let h = sim.fork_root("driver", Priority::of(5), move |ctx| {
            let workers: Vec<_> = (0..4)
                .map(|i| {
                    let m = m.clone();
                    ctx.fork_prio(&format!("t{i}"), Priority::DEFAULT, move |ctx| {
                        for _ in 0..20 {
                            let mut g = ctx.enter(&m);
                            g.with_mut(|(_, inside)| {
                                assert!(!*inside, "two threads inside");
                                *inside = true;
                            });
                            ctx.work(crate::micros(200));
                            g.with_mut(|(v, inside)| {
                                *v += 1;
                                *inside = false;
                            });
                        }
                    })
                    .unwrap()
                })
                .collect();
            for w in workers {
                ctx.join(w).unwrap();
            }
            let g = ctx.enter(&m);
            g.with(|(v, _)| *v)
        });
        let r = sim.run(RunLimit::For(secs(30)));
        assert_eq!(r.reason, StopReason::AllExited);
        assert_eq!(h.into_result().unwrap().unwrap(), 80);
        // Real cross-CPU contention happened.
        assert!(sim.stats().ml_contended > 0);
    }

    #[test]
    fn birrells_multiprocessor_spurious_conflict() {
        // §6.1's original scenario needs two processors: the notifier
        // keeps running (same priority as the waiter!) while the waiter
        // starts on the other CPU and hits the still-held monitor.
        let run = |policy: PolicyKind, mode: NotifyMode| {
            let cfg = SimConfig::default()
                .with_policy(policy)
                .with_notify_mode(mode);
            let mut sim = Sim::with_cpus(cfg, 2);
            let m = sim.monitor("m", 0u32);
            let cv = sim.condition(&m, "cv", None);
            let (m2, cv2) = (m.clone(), cv.clone());
            let _ = sim.fork_root("waiter", Priority::DEFAULT, move |ctx| {
                let mut g = ctx.enter(&m2);
                g.wait_until(&cv2, |&v| v >= 50);
            });
            let _ = sim.fork_root("notifier", Priority::DEFAULT, move |ctx| {
                for _ in 0..50 {
                    let mut g = ctx.enter(&m);
                    g.with_mut(|v| *v += 1);
                    g.notify(&cv);
                    ctx.work(crate::micros(100)); // Still holding.
                    drop(g);
                    ctx.work(crate::micros(100));
                }
            });
            let r = sim.run(RunLimit::For(secs(10)));
            assert!(!r.deadlocked());
            sim.stats().spurious_conflicts
        };
        assert!(
            run(PolicyKind::RoundRobin, NotifyMode::Immediate) >= 40,
            "immediate mode must conflict on an MP even between equal priorities"
        );
        // The §6.1 fix is the monitor's doing, whoever dispatches.
        for policy in PolicyKind::ALL {
            assert_eq!(run(policy, NotifyMode::DeferredReschedule), 0, "{policy}");
        }
    }

    #[test]
    fn paradigms_run_unchanged_on_the_mp_scheduler() {
        // The exploit helpers from the paradigms crate work as-is and
        // actually exploit the processors (we check wall-clock virtual
        // speedup through plain fork/join here to avoid a dev-dependency
        // cycle; the full parallel_map test lives in the root tests).
        let mut sim = Sim::with_cpus(SimConfig::default(), 4);
        let h = sim.fork_root("driver", Priority::DEFAULT, |ctx| {
            let t0 = ctx.now();
            let hs: Vec<_> = (0..4)
                .map(|i| {
                    ctx.fork(&format!("w{i}"), |ctx| {
                        ctx.work(millis(50));
                    })
                    .unwrap()
                })
                .collect();
            for h in hs {
                ctx.join(h).unwrap();
            }
            ctx.now().since(t0)
        });
        sim.run(RunLimit::ToCompletion);
        let elapsed = h.into_result().unwrap().unwrap();
        // 200ms of work over (almost) 4 CPUs — the driver occupies one
        // only while forking/joining.
        assert!(
            elapsed < millis(120),
            "4-way fork/join took {elapsed}, no speedup?"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut sim = Sim::with_cpus(SimConfig::default().with_seed(5), 3);
            let m = sim.monitor("m", 0u64);
            for i in 0..5 {
                let m = m.clone();
                let _ = sim.fork_root(
                    &format!("t{i}"),
                    Priority::of(3 + (i % 3) as u8),
                    move |ctx| {
                        let mut rng = ctx.rng();
                        for _ in 0..30 {
                            ctx.work(crate::micros(rng.next_below(2000)));
                            let mut g = ctx.enter(&m);
                            g.with_mut(|v| *v += 1);
                        }
                    },
                );
            }
            sim.run(RunLimit::ToCompletion);
            (
                sim.now().as_micros(),
                sim.stats().switches,
                sim.stats().ml_contended,
            )
        };
        assert_eq!(run(), run());
    }
}
