//! Task rejuvenation (§4.5): "This thread is in trouble. Ok let's make
//! two of them!"
//!
//! When a thread reaches a state it cannot recover from in place
//! (uncaught exception, stack overflow), a *new* copy of the service is
//! forked. The paper calls the paradigm counter-intuitive but credits it
//! with "add\[ing\] significantly to the robustness of our systems", while
//! warning that "its ability to mask underlying design problems suggests
//! that it be used with caution."

use pcr::{ForkError, JoinError, Priority, Runtime, SimDuration};

/// Fork attempts [`fork_retry`] makes on behalf of the supervisors here
/// before giving up (initial try + 3 backed-off retries).
const FORK_RETRY_ATTEMPTS: u32 = 4;

/// Why a supervised service finally stopped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceEnd {
    /// The service body returned normally.
    Completed,
    /// The restart budget was exhausted; the last panic message is kept.
    GaveUp(String),
}

/// Outcome of a supervised run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RejuvenationReport {
    /// Times the service was (re)started, including the first start.
    pub starts: u32,
    /// How it ended.
    pub end: ServiceEnd,
}

/// FORKs with a retry budget — the simulated-thread counterpart of the
/// recovery the paper implies for §5.4's fork errors: when FORK fails
/// (thread table exhausted under [`pcr::ForkPolicy::Error`], a
/// resource-exhaustion window, or an injected chaos failure), the
/// caller backs off and tries again rather than dying.
///
/// The factory receives the attempt number (0-based) so the body can be
/// rebuilt per try. Sleeps `backoff` between tries, doubling each time
/// (no sleep when `backoff` is zero); after `attempts` consecutive
/// failures the last error is returned.
///
/// # Panics
///
/// Panics if `attempts` is zero.
pub fn fork_retry<C, F, B, T>(
    ctx: &C,
    name: &str,
    priority: Priority,
    attempts: u32,
    backoff: SimDuration,
    factory: F,
) -> Result<C::JoinHandle<T>, ForkError>
where
    C: Runtime,
    F: Fn(u32) -> B,
    B: FnOnce(&C) -> T + Send + 'static,
    T: Send + 'static,
{
    assert!(attempts > 0, "fork_retry needs at least one attempt");
    let mut delay = backoff;
    let mut last = ForkError::ResourcesExhausted;
    for attempt in 0..attempts {
        match ctx.fork_prio(name, priority, factory(attempt)) {
            Ok(handle) => return Ok(handle),
            Err(e) => {
                last = e;
                if attempt + 1 < attempts && !delay.is_zero() {
                    ctx.sleep(delay);
                    delay = delay + delay;
                }
            }
        }
    }
    Err(last)
}

/// Runs `service` under a rejuvenating supervisor: on panic, a fresh
/// copy is forked (after `backoff` of sleep), up to `max_restarts`
/// restarts. Blocks until the service completes or the budget runs out.
///
/// The factory receives the attempt number (0-based) so the service can
/// know it is a rejuvenated copy.
pub fn supervise<C, F, B>(
    ctx: &C,
    name: &str,
    priority: Priority,
    max_restarts: u32,
    backoff: SimDuration,
    factory: F,
) -> RejuvenationReport
where
    C: Runtime,
    F: Fn(u32) -> B,
    B: FnOnce(&C) + Send + 'static,
{
    let mut starts = 0;
    loop {
        let attempt = starts;
        starts += 1;
        let handle = match fork_retry(
            ctx,
            &format!("{name}#{attempt}"),
            priority,
            FORK_RETRY_ATTEMPTS,
            backoff,
            |_| factory(attempt),
        ) {
            Ok(handle) => handle,
            // Even with retries the runtime cannot host the service:
            // report that as the end instead of killing the supervisor.
            Err(e) => {
                return RejuvenationReport {
                    starts,
                    end: ServiceEnd::GaveUp(e.to_string()),
                }
            }
        };
        match ctx.join(handle) {
            Ok(()) => {
                return RejuvenationReport {
                    starts,
                    end: ServiceEnd::Completed,
                }
            }
            Err(JoinError::Panicked(msg)) => {
                if starts > max_restarts {
                    return RejuvenationReport {
                        starts,
                        end: ServiceEnd::GaveUp(msg),
                    };
                }
                if !backoff.is_zero() {
                    ctx.sleep(backoff);
                }
            }
        }
    }
}

/// The dispatcher shape from §4.5: a long-lived loop making *unforked*
/// callbacks (they are short and on the critical path), protected by
/// task rejuvenation — if a callback panics, a new copy of the
/// dispatcher keeps running from the next event.
///
/// `next_event` produces events (`None` ends the dispatch loop);
/// `dispatch` may panic. Returns (events dispatched, rejuvenations);
/// the event count is a lower bound, because a dying incarnation's tally
/// is lost with it (only the poison event itself is re-counted).
pub fn rejuvenating_dispatcher<C, E, N, D>(
    ctx: &C,
    name: &str,
    priority: Priority,
    max_restarts: u32,
    next_event: N,
    dispatch: D,
) -> (u64, u32)
where
    C: Runtime,
    E: Send + 'static,
    N: Fn(&C) -> Option<E> + Send + Sync + Clone + 'static,
    D: Fn(&C, E) + Send + Sync + Clone + 'static,
{
    let mut restarts = 0;
    let mut total: u64 = 0;
    loop {
        let ne = next_event.clone();
        let dp = dispatch.clone();
        let handle = match fork_retry(
            ctx,
            &format!("{name}#{restarts}"),
            priority,
            FORK_RETRY_ATTEMPTS,
            pcr::millis(1),
            move |_| {
                let ne = ne.clone();
                let dp = dp.clone();
                move |ctx: &C| {
                    let mut n: u64 = 0;
                    while let Some(ev) = ne(ctx) {
                        dp(ctx, ev); // Unforked callback: fast but vulnerable.
                        n += 1;
                    }
                    n
                }
            },
        ) {
            Ok(handle) => handle,
            // The dispatcher cannot be re-hosted: surface what was
            // delivered so far rather than killing the caller.
            Err(_) => return (total, restarts),
        };
        match ctx.join(handle) {
            Ok(n) => return (total + n, restarts),
            Err(JoinError::Panicked(_)) => {
                // The count from the dead dispatcher is lost with it; the
                // rejuvenated copy resumes from the next event.
                restarts += 1;
                total += 1; // The event whose callback panicked was consumed.
                if restarts > max_restarts {
                    return (total, restarts);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcr::{millis, secs, Monitor, RunLimit, Sim, SimConfig, ThreadCtx};
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    #[test]
    fn service_that_succeeds_first_try() {
        let mut sim = Sim::new(SimConfig::default());
        let h = sim.fork_root("sup", Priority::DEFAULT, move |ctx| {
            supervise(ctx, "svc", Priority::DEFAULT, 3, millis(10), |_attempt| {
                |ctx: &ThreadCtx| ctx.work(millis(1))
            })
        });
        sim.run(RunLimit::For(secs(2)));
        let report = h.into_result().unwrap().unwrap();
        assert_eq!(report.starts, 1);
        assert_eq!(report.end, ServiceEnd::Completed);
    }

    #[test]
    fn service_rejuvenates_until_success() {
        let mut sim = Sim::new(SimConfig::default());
        let h = sim.fork_root("sup", Priority::DEFAULT, move |ctx| {
            supervise(ctx, "flaky", Priority::DEFAULT, 5, millis(10), |attempt| {
                move |ctx: &ThreadCtx| {
                    ctx.work(millis(1));
                    if attempt < 3 {
                        panic!("crash on attempt {attempt}");
                    }
                }
            })
        });
        sim.run(RunLimit::For(secs(5)));
        let report = h.into_result().unwrap().unwrap();
        assert_eq!(report.starts, 4); // Attempts 0, 1, 2 crash; 3 succeeds.
        assert_eq!(report.end, ServiceEnd::Completed);
    }

    #[test]
    fn service_gives_up_after_budget() {
        let mut sim = Sim::new(SimConfig::default());
        let h = sim.fork_root("sup", Priority::DEFAULT, move |ctx| {
            supervise(ctx, "doomed", Priority::DEFAULT, 2, millis(1), |_| {
                |_ctx: &ThreadCtx| panic!("always broken")
            })
        });
        sim.run(RunLimit::For(secs(5)));
        let report = h.into_result().unwrap().unwrap();
        assert_eq!(report.starts, 3); // Initial + 2 restarts.
        assert_eq!(report.end, ServiceEnd::GaveUp("always broken".to_string()));
    }

    #[test]
    fn fork_retry_rides_out_fork_outage() {
        // §5.4 resource exhaustion, injected: every FORK before t=20ms
        // fails. With backoff the retry loop lands past the window.
        let chaos = pcr::ChaosConfig::none().fork_outage(
            pcr::SimTime::from_micros(0),
            pcr::SimTime::from_micros(20_000),
        );
        let mut sim = Sim::new(SimConfig::default().with_chaos(chaos));
        let h = sim.fork_root("forker", Priority::DEFAULT, move |ctx| {
            let handle = fork_retry(ctx, "svc", Priority::DEFAULT, 4, millis(8), |_| {
                |ctx: &ThreadCtx| {
                    ctx.work(millis(1));
                    7u32
                }
            })
            .expect("retries outlast the outage");
            ctx.join(handle).unwrap()
        });
        sim.run(RunLimit::For(secs(2)));
        assert_eq!(h.into_result().unwrap().unwrap(), 7);
        assert!(
            sim.stats().chaos_fork_failures > 0,
            "the outage never bit — the retry path was not exercised"
        );
    }

    #[test]
    fn fork_retry_exhausts_budget() {
        let chaos = pcr::ChaosConfig::none().fail_forks(1.0);
        let mut sim = Sim::new(SimConfig::default().with_chaos(chaos));
        let h = sim.fork_root("forker", Priority::DEFAULT, move |ctx| {
            fork_retry(ctx, "svc", Priority::DEFAULT, 3, millis(1), |_| {
                |_ctx: &ThreadCtx| ()
            })
            .err()
        });
        sim.run(RunLimit::For(secs(2)));
        assert_eq!(
            h.into_result().unwrap().unwrap(),
            Some(ForkError::ResourcesExhausted)
        );
    }

    #[test]
    fn supervise_survives_fork_outage() {
        // The supervisor's forks themselves hit the outage; fork_retry
        // absorbs it and the service still completes on its first start.
        let chaos = pcr::ChaosConfig::none().fork_outage(
            pcr::SimTime::from_micros(0),
            pcr::SimTime::from_micros(20_000),
        );
        let mut sim = Sim::new(SimConfig::default().with_chaos(chaos));
        let h = sim.fork_root("sup", Priority::DEFAULT, move |ctx| {
            supervise(ctx, "svc", Priority::DEFAULT, 3, millis(8), |_attempt| {
                |ctx: &ThreadCtx| ctx.work(millis(1))
            })
        });
        sim.run(RunLimit::For(secs(2)));
        let report = h.into_result().unwrap().unwrap();
        assert_eq!(report.starts, 1);
        assert_eq!(report.end, ServiceEnd::Completed);
    }

    #[test]
    fn supervise_gives_up_when_forks_never_succeed() {
        let chaos = pcr::ChaosConfig::none().fail_forks(1.0);
        let mut sim = Sim::new(SimConfig::default().with_chaos(chaos));
        let h = sim.fork_root("sup", Priority::DEFAULT, move |ctx| {
            supervise(ctx, "svc", Priority::DEFAULT, 3, millis(1), |_attempt| {
                |ctx: &ThreadCtx| ctx.work(millis(1))
            })
        });
        sim.run(RunLimit::For(secs(2)));
        let report = h.into_result().unwrap().unwrap();
        assert_eq!(report.starts, 1);
        assert!(
            matches!(&report.end, ServiceEnd::GaveUp(msg) if msg.contains("exhausted")),
            "end = {:?}",
            report.end
        );
    }

    #[test]
    fn dispatcher_survives_poison_event() {
        // 20 events; event #7 makes the (unforked) callback panic. The
        // rejuvenated dispatcher keeps delivering the rest.
        let mut sim = Sim::new(SimConfig::default());
        let delivered: Monitor<Vec<u32>> = sim.monitor("delivered", Vec::new());
        let d = delivered.clone();
        let h = sim.fork_root("input", Priority::of(6), move |ctx| {
            let counter = Arc::new(AtomicU32::new(0));
            let d2 = d.clone();
            let (n, restarts) = rejuvenating_dispatcher(
                ctx,
                "dispatcher",
                Priority::of(6),
                3,
                move |_ctx| {
                    let i = counter.fetch_add(1, Ordering::Relaxed);
                    (i < 20).then_some(i)
                },
                move |ctx, ev: u32| {
                    if ev == 7 {
                        panic!("client callback error");
                    }
                    let mut g = ctx.enter(&d2);
                    g.with_mut(|v| v.push(ev));
                },
            );
            let g = ctx.enter(&d);
            (n, restarts, g.with(|v| v.clone()))
        });
        sim.run(RunLimit::For(secs(5)));
        let (n, restarts, delivered) = h.into_result().unwrap().unwrap();
        assert_eq!(restarts, 1);
        // The dead incarnation's tally is lost with it; the returned count
        // is a lower bound (poison event + successor's events).
        assert!(n >= 13, "n = {n}");
        assert_eq!(delivered.len(), 19); // All but the poison event.
        assert!(!delivered.contains(&7));
        assert!(delivered.contains(&19));
    }
}
