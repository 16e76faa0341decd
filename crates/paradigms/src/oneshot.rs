//! One-shots (§4.3): sleepers that sleep, run once, and go away.
//!
//! The paper's running example is the *guarded button* ("must be pressed
//! twice, in close, but not too close succession ... They usually look
//! like ~Button~ on the screen"): after the first press a one-shot
//! sleeps through an *arming period* during which a second click is
//! rejected; then the button arms; if the timeout expires without a
//! second click, the one-shot repaints the guard.
//!
//! [`delayed_fork`] is the `DelayedFork` encapsulation ("only used in our window
//! systems", counted under encapsulated forks in Table 4).

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

use pcr::{Guard, Priority, Runtime, SimDuration, ThreadCtx, ThreadId};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Shot {
    Pending,
    Cancelled,
    Fired,
}

/// Handle to a scheduled one-shot.
///
/// The one-shot does not sleep its delay out: it WAITs on a CV whose
/// timeout is the delay, and [`OneShot::cancel`] NOTIFYs it, so a
/// cancelled one-shot's thread is gone at once on every backend.
pub struct OneShot<C: Runtime = ThreadCtx> {
    state: C::Monitor<Shot>,
    wake: C::Condition,
    tid: ThreadId,
}

impl<C: Runtime> OneShot<C> {
    /// Cancels the one-shot if it has not fired yet. Returns `true` if
    /// the cancellation happened in time.
    pub fn cancel(&self, ctx: &C) -> bool {
        let mut g = ctx.enter(&self.state);
        if g.with(|s| *s == Shot::Fired) {
            return false;
        }
        g.with_mut(|s| *s = Shot::Cancelled);
        g.notify(&self.wake);
        true
    }

    /// True once the action has been started.
    pub fn fired(&self, ctx: &C) -> bool {
        ctx.enter(&self.state).with(|s| *s == Shot::Fired)
    }

    /// The one-shot thread's id.
    pub fn tid(&self) -> ThreadId {
        self.tid
    }
}

/// The `DelayedFork` encapsulation: "calls a procedure at some time in
/// the future". The delay is subject to the runtime's timer granularity.
pub fn delayed_fork<C, F>(
    ctx: &C,
    name: &str,
    priority: Priority,
    delay: SimDuration,
    f: F,
) -> OneShot<C>
where
    C: Runtime,
    F: FnOnce(&C) + Send + 'static,
{
    let state = ctx.new_monitor(&format!("{name}.state"), Shot::Pending);
    let wake = ctx.new_condition(&state, &format!("{name}.wake"), Some(delay));
    let (st, wk) = (state.clone(), wake.clone());
    let tid = ctx
        .fork_detached_prio(name, priority, move |ctx| {
            let mut g = ctx.enter(&st);
            if g.wait_until_before(&wk, delay, |s| *s == Shot::Cancelled) {
                return;
            }
            g.with_mut(|s| *s = Shot::Fired);
            drop(g);
            f(ctx);
        })
        .expect("fork one-shot");
    OneShot { state, wake, tid }
}

/// Guarded-button states.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GuardState {
    /// Showing the guard ("~Button~"); a press starts the arming period.
    Guarded,
    /// First press seen; second presses are rejected (too soon).
    Arming,
    /// Armed ("Button"); a press fires the action.
    Armed,
}

const GUARDED: u8 = 0;
const ARMING: u8 = 1;
const ARMED: u8 = 2;

/// A guarded button driven by two chained one-shots, as in Cedar.
///
/// Presses go through [`GuardedButton::press`]; the button fires only on
/// a press that lands in the armed window (after `arm_after`, before the
/// `disarm_after` timeout repaints the guard).
#[derive(Clone)]
pub struct GuardedButton {
    state: Arc<AtomicU8>,
    arm_after: SimDuration,
    disarm_after: SimDuration,
    priority: Priority,
}

impl GuardedButton {
    /// Creates a guarded button. `arm_after` is the "not too close"
    /// arming period; `disarm_after` is the armed window before the
    /// one-shot repaints the guard.
    pub fn new(arm_after: SimDuration, disarm_after: SimDuration) -> Self {
        GuardedButton {
            state: Arc::new(AtomicU8::new(GUARDED)),
            arm_after,
            disarm_after,
            priority: Priority::of(5),
        }
    }

    /// Current state.
    pub fn state(&self) -> GuardState {
        match self.state.load(Ordering::Relaxed) {
            GUARDED => GuardState::Guarded,
            ARMING => GuardState::Arming,
            _ => GuardState::Armed,
        }
    }

    /// Registers a press. Returns `true` if the press fired the button's
    /// action (i.e. it landed in the armed window).
    pub fn press<C: Runtime>(&self, ctx: &C) -> bool {
        match self.state.load(Ordering::Relaxed) {
            GUARDED => {
                self.state.store(ARMING, Ordering::Relaxed);
                let st = Arc::clone(&self.state);
                let disarm = self.disarm_after;
                let prio = self.priority;
                // One-shot #1: end of arming period -> show "Button".
                let _ = delayed_fork(ctx, "guard-arm", prio, self.arm_after, move |ctx| {
                    st.store(ARMED, Ordering::Relaxed);
                    let st2 = Arc::clone(&st);
                    // One-shot #2: armed window expires -> repaint guard.
                    let _ = delayed_fork(ctx, "guard-disarm", prio, disarm, move |_ctx| {
                        // Only disarm if nobody fired meanwhile.
                        let _ = st2.compare_exchange(
                            ARMED,
                            GUARDED,
                            Ordering::Relaxed,
                            Ordering::Relaxed,
                        );
                    });
                });
                false
            }
            ARMING => false, // Too soon: rejected.
            _ => {
                // Armed: fire and re-guard.
                self.state.store(GUARDED, Ordering::Relaxed);
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcr::{millis, secs, Monitor, RunLimit, Sim, SimConfig};

    #[test]
    fn delayed_fork_fires_after_delay() {
        let mut sim = Sim::new(SimConfig::default());
        let fired_at: Monitor<Option<pcr::SimTime>> = sim.monitor("fired", None);
        let f = fired_at.clone();
        let h = sim.fork_root("driver", Priority::DEFAULT, move |ctx| {
            let f2 = f.clone();
            let shot = delayed_fork(ctx, "shot", Priority::of(5), millis(100), move |ctx| {
                let mut g = ctx.enter(&f2);
                let now = ctx.now();
                g.with_mut(|v| *v = Some(now));
            });
            ctx.sleep_precise(millis(300));
            assert!(shot.fired(ctx));
            let g = ctx.enter(&f);
            g.with(|v| *v)
        });
        sim.run(RunLimit::For(secs(2)));
        let t = h.into_result().unwrap().unwrap().expect("fired");
        // The sleep is issued shortly after t=0 and quantized up to the
        // 50ms timer tick: 100ms + epsilon rounds to the 150ms tick.
        assert!((100_000..=150_100).contains(&t.as_micros()), "fired at {t}");
    }

    #[test]
    fn cancelled_one_shot_never_fires() {
        let mut sim = Sim::new(SimConfig::default());
        let h = sim.fork_root("driver", Priority::DEFAULT, move |ctx| {
            let shot = delayed_fork(ctx, "shot", Priority::of(5), millis(100), |_ctx| {
                panic!("must not fire");
            });
            ctx.work(millis(1));
            assert!(shot.cancel(ctx));
            ctx.sleep_precise(millis(300));
            shot.fired(ctx)
        });
        let r = sim.run(RunLimit::For(secs(2)));
        assert!(!r.deadlocked());
        assert!(!h.into_result().unwrap().unwrap());
        assert_eq!(sim.stats().panics, 0);
    }

    #[test]
    fn cancel_after_fire_reports_failure() {
        let mut sim = Sim::new(SimConfig::default());
        let h = sim.fork_root("driver", Priority::DEFAULT, move |ctx| {
            let shot = delayed_fork(ctx, "shot", Priority::of(5), millis(50), |_ctx| {});
            ctx.sleep_precise(millis(200));
            shot.cancel(ctx)
        });
        sim.run(RunLimit::For(secs(2)));
        assert!(!h.into_result().unwrap().unwrap());
    }

    #[test]
    fn guarded_button_requires_two_well_spaced_presses() {
        let mut sim = Sim::new(SimConfig::default());
        let h = sim.fork_root("ui", Priority::of(5), move |ctx| {
            let b = GuardedButton::new(millis(100), millis(500));
            let mut outcomes = Vec::new();
            outcomes.push(b.press(ctx)); // First press: starts arming.
            ctx.sleep_precise(millis(20));
            outcomes.push(b.press(ctx)); // Too soon: rejected.
            ctx.sleep_precise(millis(200)); // Arming period passed.
            assert_eq!(b.state(), GuardState::Armed);
            outcomes.push(b.press(ctx)); // Fires.
            assert_eq!(b.state(), GuardState::Guarded);
            outcomes
        });
        sim.run(RunLimit::For(secs(3)));
        assert_eq!(h.into_result().unwrap().unwrap(), vec![false, false, true]);
    }

    #[test]
    fn guarded_button_disarms_after_timeout() {
        let mut sim = Sim::new(SimConfig::default());
        let h = sim.fork_root("ui", Priority::of(5), move |ctx| {
            let b = GuardedButton::new(millis(100), millis(200));
            let _ = b.press(ctx);
            ctx.sleep_precise(millis(150));
            assert_eq!(b.state(), GuardState::Armed);
            // Let the armed window expire.
            ctx.sleep_precise(millis(400));
            assert_eq!(b.state(), GuardState::Guarded);
            // A press now restarts the guard sequence instead of firing.
            b.press(ctx)
        });
        sim.run(RunLimit::For(secs(3)));
        assert!(!h.into_result().unwrap().unwrap());
    }
}
