//! A circuit breaker on the simulated X-server connection.
//!
//! Classic three-state machine: **Closed** (normal; count consecutive
//! failures), **Open** (fast-fail everything without touching the
//! connection, for `OPEN_FOR`), **HalfOpen** (let a few probe batches
//! through; one success closes, one failure re-opens). Composes with
//! `pcr::chaos` outage faults: the outage makes writes fail, the
//! breaker converts sustained failure into cheap fast-fails that the
//! client retry budget then refuses to amplify.

use pcr::{millis, SimDuration, SimTime};

/// Consecutive failures that trip Closed → Open.
const FAILURE_THRESHOLD: u32 = 5;
/// How long to stay Open before probing.
const OPEN_FOR: SimDuration = millis(400);
/// Probe batches allowed through per HalfOpen episode.
const HALF_OPEN_PROBES: u32 = 2;

/// The breaker's current state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal operation.
    #[default]
    Closed,
    /// Fast-failing; no traffic reaches the connection.
    Open,
    /// Probing with limited traffic.
    HalfOpen,
}

/// The breaker itself. Lives in a monitor shared by the pipeline
/// workers (who ask [`CircuitBreaker::allow`]) and the X-connection
/// thread (who reports outcomes).
#[derive(Clone, Copy, Debug, Default)]
pub struct CircuitBreaker {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: SimTime,
    probes_left: u32,
    /// Closed→Open transitions.
    pub trips: u64,
    /// Batches fast-failed while Open / probe-exhausted.
    pub fast_failed_batches: u64,
}

impl CircuitBreaker {
    /// A closed breaker.
    pub fn new() -> Self {
        CircuitBreaker::default()
    }

    /// Current state (after lazily applying the Open → HalfOpen clock).
    pub fn state(&mut self, now: SimTime) -> BreakerState {
        if self.state == BreakerState::Open && now >= self.opened_at + OPEN_FOR {
            self.state = BreakerState::HalfOpen;
            self.probes_left = HALF_OPEN_PROBES;
        }
        self.state
    }

    /// May this batch proceed to the connection? `false` = fast-fail.
    pub fn allow(&mut self, now: SimTime) -> bool {
        match self.state(now) {
            BreakerState::Closed => true,
            BreakerState::Open => {
                self.fast_failed_batches += 1;
                false
            }
            BreakerState::HalfOpen => {
                if self.probes_left > 0 {
                    self.probes_left -= 1;
                    true
                } else {
                    self.fast_failed_batches += 1;
                    false
                }
            }
        }
    }

    /// The connection served a batch.
    pub fn on_success(&mut self, now: SimTime) {
        let _ = now;
        self.consecutive_failures = 0;
        self.state = BreakerState::Closed;
    }

    /// The connection failed a batch.
    pub fn on_failure(&mut self, now: SimTime) {
        match self.state(now) {
            BreakerState::HalfOpen => {
                // A failed probe re-opens immediately.
                self.state = BreakerState::Open;
                self.opened_at = now;
                self.trips += 1;
            }
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= FAILURE_THRESHOLD {
                    self.state = BreakerState::Open;
                    self.opened_at = now;
                    self.trips += 1;
                }
            }
            BreakerState::Open => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trips_probes_and_recovers() {
        let mut b = CircuitBreaker::new();
        let t0 = SimTime::ZERO;
        assert!(b.allow(t0));
        for _ in 0..FAILURE_THRESHOLD - 1 {
            b.on_failure(t0);
        }
        assert_eq!(b.state(t0), BreakerState::Closed, "one failure short");
        b.on_failure(t0);
        assert_eq!(b.state(t0), BreakerState::Open);
        assert_eq!(b.trips, 1);
        assert!(!b.allow(t0), "open fast-fails");
        // After OPEN_FOR: half-open, HALF_OPEN_PROBES probes allowed,
        // the next refused.
        let t1 = t0 + OPEN_FOR;
        for _ in 0..HALF_OPEN_PROBES {
            assert!(b.allow(t1));
        }
        assert!(!b.allow(t1));
        // Probe fails → re-open; next window's probe succeeds → closed.
        b.on_failure(t1);
        assert_eq!(b.state(t1), BreakerState::Open);
        assert_eq!(b.trips, 2);
        let t2 = t1 + OPEN_FOR;
        assert!(b.allow(t2));
        b.on_success(t2);
        assert_eq!(b.state(t2), BreakerState::Closed);
        assert!(b.allow(t2));
        assert_eq!(b.fast_failed_batches, 2);
    }
}
