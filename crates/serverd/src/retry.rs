//! Client-side retry: capped exponential backoff with deterministic
//! jitter, governed by a retry *budget*.
//!
//! The budget is the part that matters under outage: each original
//! request earns a fraction of a retry token, each retry spends a whole
//! one. While the failure rate stays below the earn ratio retries flow
//! freely; when an outage fails *everything*, the budget drains and
//! further retries are suppressed — bounding the amplification factor
//! (total submissions / original requests) near 1 + ratio instead of
//! the `MAX_ATTEMPTS`× retry storm an unbudgeted client fleet produces.

use crate::admission::TokenBucket;
use pcr::{millis, SimDuration, SimTime, SplitMix64};

/// First backoff (doubles per attempt).
const BASE: SimDuration = millis(5);
/// Backoff cap.
const CAP: SimDuration = millis(80);
/// Max total submissions per request (1 = no retries).
pub(crate) const MAX_ATTEMPTS: u32 = 4;
/// Retry tokens earned per original request (0.1 = 10% budget).
const BUDGET_RATIO: f64 = 0.1;
/// Budget bucket depth.
const BUDGET_CAP: f64 = 64.0;

/// Client retry policy: whether the budget governs retries at all.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Disable the budget entirely (the E17 counterfactual).
    pub budget_enabled: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            budget_enabled: true,
        }
    }
}

/// Backoff before submission `attempt + 1`, where `attempt` ≥ 1 is the
/// submission that just failed: capped exponential, with deterministic
/// half-jitter (`d/2 + uniform(0, d/2)`).
pub(crate) fn backoff(attempt: u32, rng: &mut SplitMix64) -> SimDuration {
    let exp = attempt.saturating_sub(1).min(16);
    let full = CAP.min(SimDuration::from_micros(BASE.as_micros() << exp));
    let half = full.as_micros() / 2;
    SimDuration::from_micros(half + rng.next_below(half.max(1)))
}

/// The budget bucket plus its suppression counters.
#[derive(Clone, Copy, Debug)]
pub struct RetryBudget {
    bucket: TokenBucket,
    enabled: bool,
    /// Retries refused because the budget was dry.
    pub suppressed: u64,
}

impl RetryBudget {
    /// A budget for `policy`, starting with a small float of tokens.
    pub fn new(policy: &RetryPolicy) -> Self {
        RetryBudget {
            // Rate 0 and empty start: tokens come only from earn().
            bucket: TokenBucket::new(0.0, BUDGET_CAP).with_initial(0.0),
            enabled: policy.budget_enabled,
            suppressed: 0,
        }
    }

    /// An original request was offered: earn the ratio.
    pub fn on_offered(&mut self) {
        self.bucket.earn(BUDGET_RATIO);
    }

    /// May we schedule a retry now? Spends a token when allowed.
    pub fn try_spend(&mut self, now: SimTime) -> bool {
        if !self.enabled {
            return true;
        }
        if self.bucket.admit(now) {
            true
        } else {
            self.suppressed += 1;
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps_with_jitter() {
        let mut rng = SplitMix64::new(1);
        for attempt in 1..8 {
            let d = backoff(attempt, &mut rng);
            let full = CAP.min(SimDuration::from_micros(BASE.as_micros() << (attempt - 1)));
            assert!(d >= SimDuration::from_micros(full.as_micros() / 2));
            assert!(d <= full);
        }
    }

    #[test]
    fn budget_bounds_amplification() {
        // 100 offered requests at 10% ratio: at most ~10 retries pass
        // (plus nothing from refill — rate is zero).
        let mut b = RetryBudget::new(&RetryPolicy::default());
        let now = SimTime::ZERO;
        for _ in 0..100 {
            b.on_offered();
        }
        let granted = (0..100).filter(|_| b.try_spend(now)).count() as u64;
        // 100 × 0.1 earns ~10 tokens (float accumulation may land a
        // hair under an integer boundary).
        assert!((9..=10).contains(&granted), "granted {granted}");
        assert_eq!(b.suppressed, 100 - granted);
        // Disabled budget always grants.
        let mut free = RetryBudget::new(&RetryPolicy {
            budget_enabled: false,
        });
        assert!((0..50).all(|_| free.try_spend(now)));
        assert_eq!(free.suppressed, 0);
    }
}
