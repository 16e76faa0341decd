//! Defer work (§4.1): the single most common use of forking.
//!
//! "A procedure can often reduce the latency seen by its clients by
//! forking a thread to do work not required for the procedure's return
//! value." Cedar practice was to introduce work deferrers freely —
//! forking to print a document, send mail, create or update a window —
//! and some threads (like the Notifier) are so critical to
//! responsiveness that they fork almost *any* work beyond noticing what
//! work needs to be done, playing the role of interrupt handlers.

use pcr::{ForkError, Priority, Runtime, SimDuration, ThreadId};

/// Forks `f` as deferred work and returns immediately.
///
/// The deferred thread is detached (fire-and-forget), matching the
/// common Cedar shape where results are reported through a separate
/// window rather than back to the caller.
pub fn defer<C, F>(ctx: &C, name: &str, f: F) -> Result<ThreadId, ForkError>
where
    C: Runtime,
    F: FnOnce(&C) + Send + 'static,
{
    ctx.fork_detached(name, f)
}

/// Forks deferred work at an explicit (typically lower) priority —
/// "forking the real work allows it to be done in a lower priority
/// thread and frees the critical thread to respond to the next event".
pub fn defer_at<C, F>(ctx: &C, name: &str, priority: Priority, f: F) -> Result<ThreadId, ForkError>
where
    C: Runtime,
    F: FnOnce(&C) + Send + 'static,
{
    ctx.fork_detached_prio(name, priority, f)
}

/// A critical-thread helper modelling the Notifier pattern: handle an
/// event by doing only `notice_cost` of work inline, deferring `rest` to
/// a lower-priority thread.
///
/// Returns the deferred thread's id.
pub fn notice_then_defer<C, F>(
    ctx: &C,
    name: &str,
    notice_cost: SimDuration,
    defer_priority: Priority,
    rest: F,
) -> Result<ThreadId, ForkError>
where
    C: Runtime,
    F: FnOnce(&C) + Send + 'static,
{
    ctx.work(notice_cost);
    defer_at(ctx, name, defer_priority, rest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcr::{millis, secs, Monitor, RunLimit, Sim, SimConfig, StopReason};

    #[test]
    fn defer_returns_before_work_completes() {
        let mut sim = Sim::new(SimConfig::default());
        let log: Monitor<Vec<&'static str>> = sim.monitor("log", Vec::new());
        let l = log.clone();
        let caller_done_at = sim.fork_root("caller", Priority::DEFAULT, move |ctx| {
            let l2 = l.clone();
            defer(ctx, "print-document", move |ctx| {
                ctx.work(millis(200)); // Long print job.
                let mut g = ctx.enter(&l2);
                g.with_mut(|v| v.push("printed"));
            })
            .unwrap();
            let mut g = ctx.enter(&l);
            g.with_mut(|v| v.push("returned"));
            ctx.now()
        });
        let r = sim.run(RunLimit::For(secs(5)));
        assert_eq!(r.reason, StopReason::AllExited);
        // The caller returned in well under the 200ms the job took.
        let t = caller_done_at.into_result().unwrap().unwrap();
        assert!(t.as_micros() < 10_000, "caller finished at {t}");
    }

    #[test]
    fn defer_at_lower_priority_does_not_preempt_critical_thread() {
        let mut sim = Sim::new(SimConfig::default());
        // The critical thread handles 10 events; each defers 20ms of work
        // to priority 2. Total critical-path latency stays tiny.
        let h = sim.fork_root("notifier", Priority::of(6), move |ctx| {
            let start = ctx.now();
            for i in 0..10 {
                notice_then_defer(
                    ctx,
                    &format!("event-work-{i}"),
                    pcr::micros(100),
                    Priority::of(2),
                    |ctx| ctx.work(millis(20)),
                )
                .unwrap();
            }
            ctx.now().since(start)
        });
        sim.run(RunLimit::For(secs(5)));
        let critical_path = h.into_result().unwrap().unwrap();
        // 10 events × (100µs notice + fork cost) ≪ 10 × 20ms of real work.
        assert!(
            critical_path < millis(5),
            "critical path took {critical_path}"
        );
    }

    #[test]
    fn deferred_threads_are_children_of_the_forker() {
        let mut sim = Sim::new(SimConfig::default());
        let _ = sim.fork_root("caller", Priority::DEFAULT, |ctx| {
            defer(ctx, "bg", |ctx| ctx.work(millis(1))).unwrap();
        });
        sim.run(RunLimit::ToCompletion);
        let caller = sim.threads_iter().find(|t| t.name == "caller").unwrap();
        let bg = sim.threads_iter().find(|t| t.name == "bg").unwrap();
        assert_eq!(bg.parent, Some(caller.tid));
        assert_eq!(bg.generation, 1);
    }
}
