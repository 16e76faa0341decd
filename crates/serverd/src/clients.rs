//! The simulated client fleet, as data.
//!
//! One `pcr` thread is not spawned per session (a simulated thread
//! costs a stack mapping; a million of them do not fit), so the fleet
//! lives in a single
//! [`ClientPopulation`] driven by the client event-loop thread: a
//! [`pcr::Wheel`] holds every future client event (session arrivals,
//! next-request ticks, retry timers, per-request deadlines), and the
//! loop pops due events, submits requests, and resolves completions.
//! Deadline timers are armed once per request and *cancelled* on
//! resolution — the churn pattern the wheel's O(1) cancel exists for.

use std::collections::BTreeMap;

use pcr::{SimTime, SplitMix64, Wheel, WheelToken};

use crate::retry::{RetryBudget, RetryPolicy};
use crate::traffic::{poisson_gap, ClassParams, LoadShape, SessionClass, StartTable};

/// One request submission handed to the serving pipeline.
#[derive(Clone, Copy, Debug)]
pub struct Submission {
    /// Request id, unique per original request (stable across retries).
    pub rid: u64,
    /// The session's class.
    pub class: SessionClass,
    /// When the input event was produced (start of input-to-echo).
    pub produced_at: SimTime,
    /// Absolute input-to-echo deadline.
    pub deadline: SimTime,
    /// Submission ordinal for this request (1 = first attempt).
    pub attempt: u32,
}

/// Why a synchronous submit was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The class token bucket was empty.
    Admission,
    /// The ingress queue was full (backpressure).
    Backpressure,
}

/// How the pipeline resolved a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Painted; input-to-echo latency was recorded pipeline-side.
    Painted,
    /// Shed at dequeue: deadline already blown.
    ShedDeadline,
    /// Shed by the CoDel sojourn controller (standing queue).
    ShedCodel,
    /// Fast-failed by the open circuit breaker.
    FastFail,
    /// The X connection failed the batch (outage window).
    XFail,
}

/// A pipeline → client notification.
#[derive(Clone, Copy, Debug)]
pub struct Completion {
    /// Which request.
    pub rid: u64,
    /// What happened.
    pub outcome: Outcome,
}

/// Everything the fleet counted. Resolution counters (`painted`,
/// `timed_out`, `shed_deadline`, `failed`) partition `offered`; event
/// counters may overlap (one request can be rejected, retried, and
/// finally painted).
#[derive(Clone, Copy, Debug, Default)]
pub struct ClientCounters {
    /// Original requests produced by sessions.
    pub offered: u64,
    /// Submissions presented to the pipeline (offered + retries).
    pub attempts: u64,
    /// Resolved: echo painted in time (before the client deadline).
    pub painted: u64,
    /// Resolved: client deadline fired with no echo.
    pub timed_out: u64,
    /// Resolved: server shed it as already-late.
    pub shed_deadline: u64,
    /// Resolved: failed with retries exhausted/suppressed.
    pub failed: u64,
    /// Paints that arrived after the client had given up.
    pub late_paint: u64,
    /// Submissions refused by admission control.
    pub rejected_admission: u64,
    /// Submissions refused by ingress backpressure.
    pub rejected_backpressure: u64,
    /// CoDel-shed completions received.
    pub shed_codel: u64,
    /// Breaker fast-fail completions received.
    pub fast_fail: u64,
    /// Connection-failure completions received.
    pub xfail: u64,
    /// Retries scheduled.
    pub retries: u64,
    /// Retries suppressed: attempt cap reached.
    pub retries_capped: u64,
    /// Retries suppressed: backoff would land past the deadline.
    pub retries_past_deadline: u64,
    /// Retries suppressed: retry budget dry (also in budget counter).
    pub retries_budget_dry: u64,
}

impl ClientCounters {
    /// Requests resolved so far.
    pub fn resolved(&self) -> u64 {
        self.painted + self.timed_out + self.shed_deadline + self.failed
    }

    /// Amplification factor: submissions per original request.
    pub fn amplification(&self) -> f64 {
        if self.offered == 0 {
            1.0
        } else {
            self.attempts as f64 / self.offered as f64
        }
    }

    /// `(name, value)` rows, stable order, for reports.
    pub fn fields(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("offered", self.offered),
            ("attempts", self.attempts),
            ("painted", self.painted),
            ("timed_out", self.timed_out),
            ("shed_deadline", self.shed_deadline),
            ("failed", self.failed),
            ("late_paint", self.late_paint),
            ("rejected_admission", self.rejected_admission),
            ("rejected_backpressure", self.rejected_backpressure),
            ("shed_codel", self.shed_codel),
            ("fast_fail", self.fast_fail),
            ("xfail", self.xfail),
            ("retries", self.retries),
            ("retries_capped", self.retries_capped),
            ("retries_past_deadline", self.retries_past_deadline),
            ("retries_budget_dry", self.retries_budget_dry),
        ]
    }
}

enum ClientEvent {
    /// Session `sid` starts (emits its first request).
    Arrive(u32),
    /// Session `sid` emits its next request.
    NextReq(u32),
    /// Resubmit request `rid` (stale if already resolved).
    Retry(u64),
    /// Request `rid`'s input-to-echo deadline (stale if resolved).
    Deadline(u64),
}

// Wheel payloads must be Copy.
impl Clone for ClientEvent {
    fn clone(&self) -> Self {
        *self
    }
}
impl Copy for ClientEvent {}

struct Session {
    class: u8,
    remaining: u32,
    rng: SplitMix64,
}

struct Outstanding {
    class: u8,
    produced_at: SimTime,
    deadline: SimTime,
    deadline_tok: WheelToken,
    attempts: u32,
}

/// The whole client fleet: sessions, in-flight requests, timers,
/// retry state, counters.
pub struct ClientPopulation {
    wheel: Wheel<ClientEvent>,
    sessions: Vec<Session>,
    outstanding: BTreeMap<u64, Outstanding>,
    mix: Vec<ClassParams>,
    policy: RetryPolicy,
    budget: RetryBudget,
    retry_rng: SplitMix64,
    next_rid: u64,
    /// All the fleet's counters.
    pub counters: ClientCounters,
}

impl ClientPopulation {
    /// Builds `n` sessions with classes from `mix` and start times from
    /// `shape`, spread over `window`. Fully determined by `seed`.
    pub fn new(
        mix: &[ClassParams],
        shape: &LoadShape,
        n: u32,
        window: pcr::SimDuration,
        policy: RetryPolicy,
        seed: u64,
    ) -> Self {
        assert!(!mix.is_empty(), "traffic mix must be nonempty");
        let mut master = SplitMix64::new(seed ^ 0x5E2F_D00D_5E2F_D00D);
        let table = StartTable::build(shape);
        let window_us = window.as_micros().max(1);
        let mut wheel = Wheel::new();
        let mut sessions = Vec::with_capacity(n as usize);
        for sid in 0..n {
            // Class by cumulative share.
            let u = master.next_f64();
            let mut acc = 0.0;
            let mut class = mix.len() - 1;
            for (i, c) in mix.iter().enumerate() {
                acc += c.share;
                if u < acc {
                    class = i;
                    break;
                }
            }
            let start = SimTime::from_micros(
                ((table.sample(master.next_f64()) * window_us as f64) as u64).min(window_us - 1),
            );
            let mut rng = SplitMix64::new(master.next_u64());
            let mean = mix[class].events_per_session();
            let cap = (mean * 6.0) as u64 + 8;
            let remaining = if mean > 1.0 {
                1 + (rng.next_exp(mean - 1.0) as u64).min(cap) as u32
            } else {
                1
            };
            wheel.schedule(start, ClientEvent::Arrive(sid));
            sessions.push(Session {
                class: class as u8,
                remaining,
                rng,
            });
        }
        ClientPopulation {
            wheel,
            sessions,
            outstanding: BTreeMap::new(),
            mix: mix.to_vec(),
            budget: RetryBudget::new(&policy),
            policy,
            retry_rng: SplitMix64::new(seed ^ 0x9E37_79B9_7F4A_7C15),
            next_rid: 0,
            counters: ClientCounters::default(),
        }
    }

    /// The next client event's time, if any.
    pub fn next_wakeup(&self) -> Option<SimTime> {
        self.wheel.next_deadline()
    }

    /// True while any request is in flight.
    pub fn has_outstanding(&self) -> bool {
        !self.outstanding.is_empty()
    }

    /// True once every session is exhausted and every request resolved.
    pub fn done(&self) -> bool {
        self.wheel.is_empty() && self.outstanding.is_empty()
    }

    /// Retry-budget suppressions (for the report).
    pub fn budget_suppressed(&self) -> u64 {
        self.budget.suppressed
    }

    /// Pops every event due at or before `now`; returns the submissions
    /// to present to the pipeline, in deterministic event order.
    pub fn poll(&mut self, now: SimTime) -> Vec<Submission> {
        let mut subs = Vec::new();
        while let Some((t, ev)) = self.wheel.pop_due_at(now) {
            match ev {
                ClientEvent::Arrive(sid) | ClientEvent::NextReq(sid) => {
                    self.emit(sid, t, &mut subs);
                }
                ClientEvent::Retry(rid) => {
                    if let Some(o) = self.outstanding.get_mut(&rid) {
                        o.attempts += 1;
                        self.counters.attempts += 1;
                        subs.push(Submission {
                            rid,
                            class: SessionClass::ALL[o.class as usize],
                            produced_at: o.produced_at,
                            deadline: o.deadline,
                            attempt: o.attempts,
                        });
                    }
                }
                ClientEvent::Deadline(rid) => {
                    if self.outstanding.remove(&rid).is_some() {
                        self.counters.timed_out += 1;
                    }
                }
            }
        }
        subs
    }

    fn emit(&mut self, sid: u32, t: SimTime, subs: &mut Vec<Submission>) {
        let s = &mut self.sessions[sid as usize];
        let class_idx = s.class as usize;
        let params = self.mix[class_idx];
        s.remaining -= 1;
        if s.remaining > 0 {
            let gap = poisson_gap(&mut s.rng, params.events_per_sec);
            self.wheel.schedule(t + gap, ClientEvent::NextReq(sid));
        }
        let rid = self.next_rid;
        self.next_rid += 1;
        let deadline = t + params.deadline;
        let tok = self.wheel.schedule(deadline, ClientEvent::Deadline(rid));
        self.outstanding.insert(
            rid,
            Outstanding {
                class: s.class,
                produced_at: t,
                deadline,
                deadline_tok: tok,
                attempts: 1,
            },
        );
        self.counters.offered += 1;
        self.counters.attempts += 1;
        self.budget.on_offered();
        subs.push(Submission {
            rid,
            class: params.class,
            produced_at: t,
            deadline,
            attempt: 1,
        });
    }

    /// A synchronous submit was refused (admission or backpressure).
    pub fn on_submit_rejected(&mut self, now: SimTime, rid: u64, reason: RejectReason) {
        match reason {
            RejectReason::Admission => self.counters.rejected_admission += 1,
            RejectReason::Backpressure => self.counters.rejected_backpressure += 1,
        }
        self.maybe_retry(now, rid);
    }

    /// An asynchronous completion arrived from the pipeline.
    pub fn on_completion(&mut self, now: SimTime, c: Completion) {
        match c.outcome {
            Outcome::Painted => {
                if let Some(o) = self.outstanding.remove(&c.rid) {
                    self.wheel.cancel(o.deadline_tok);
                    self.counters.painted += 1;
                } else {
                    self.counters.late_paint += 1;
                }
            }
            Outcome::ShedDeadline => {
                if let Some(o) = self.outstanding.remove(&c.rid) {
                    self.wheel.cancel(o.deadline_tok);
                    self.counters.shed_deadline += 1;
                }
            }
            Outcome::ShedCodel => {
                self.counters.shed_codel += 1;
                self.maybe_retry(now, c.rid);
            }
            Outcome::FastFail => {
                self.counters.fast_fail += 1;
                self.maybe_retry(now, c.rid);
            }
            Outcome::XFail => {
                self.counters.xfail += 1;
                self.maybe_retry(now, c.rid);
            }
        }
    }

    /// Schedules a backoff retry for `rid` if the attempt cap, the
    /// deadline, and the retry budget all allow; resolves the request
    /// as failed otherwise.
    fn maybe_retry(&mut self, now: SimTime, rid: u64) {
        let Some(o) = self.outstanding.get(&rid) else {
            return; // already resolved (e.g. deadline fired first)
        };
        if o.attempts >= self.policy.max_attempts {
            self.counters.retries_capped += 1;
            self.resolve_failed(rid);
            return;
        }
        let backoff = self.policy.backoff(o.attempts, &mut self.retry_rng);
        if now + backoff >= o.deadline {
            self.counters.retries_past_deadline += 1;
            self.resolve_failed(rid);
            return;
        }
        if !self.budget.try_spend(now) {
            self.counters.retries_budget_dry += 1;
            self.resolve_failed(rid);
            return;
        }
        self.counters.retries += 1;
        self.wheel.schedule(now + backoff, ClientEvent::Retry(rid));
    }

    fn resolve_failed(&mut self, rid: u64) {
        if let Some(o) = self.outstanding.remove(&rid) {
            self.wheel.cancel(o.deadline_tok);
            self.counters.failed += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::default_mix;
    use pcr::{millis, secs};

    fn small_pop(policy: RetryPolicy) -> ClientPopulation {
        ClientPopulation::new(
            &default_mix(),
            &LoadShape::steady(),
            20,
            secs(2),
            policy,
            0xA5,
        )
    }

    #[test]
    fn every_offered_request_resolves_exactly_once() {
        // Drive the population with an immediate-paint pipeline stub.
        let mut pop = small_pop(RetryPolicy::default());
        let mut now = SimTime::ZERO;
        while !pop.done() {
            now = pop.next_wakeup().unwrap_or(now + millis(1)).max(now);
            let subs = pop.poll(now);
            let comps: Vec<Completion> = subs
                .iter()
                .map(|s| Completion {
                    rid: s.rid,
                    outcome: Outcome::Painted,
                })
                .collect();
            for c in comps {
                pop.on_completion(now, c);
            }
        }
        let c = pop.counters;
        assert!(c.offered > 20, "each session emits at least one request");
        assert_eq!(c.painted, c.offered);
        assert_eq!(c.resolved(), c.offered);
        assert_eq!(c.attempts, c.offered, "no retries when everything paints");
    }

    #[test]
    fn rejects_retry_then_resolve() {
        let mut pop = small_pop(RetryPolicy {
            budget_cap: 1000.0,
            budget_ratio: 1.0,
            ..RetryPolicy::default()
        });
        let mut now = SimTime::ZERO;
        let mut first_attempts = 0u64;
        while !pop.done() {
            now = pop.next_wakeup().unwrap_or(now + millis(1)).max(now);
            let subs = pop.poll(now);
            for s in subs {
                if s.attempt == 1 {
                    // Reject every first attempt; paint every retry.
                    first_attempts += 1;
                    pop.on_submit_rejected(now, s.rid, RejectReason::Backpressure);
                } else {
                    pop.on_completion(
                        now,
                        Completion {
                            rid: s.rid,
                            outcome: Outcome::Painted,
                        },
                    );
                }
            }
        }
        let c = pop.counters;
        assert_eq!(c.rejected_backpressure, first_attempts);
        assert!(c.retries > 0);
        assert!(c.painted > 0, "retried requests must eventually paint");
        assert_eq!(c.resolved(), c.offered);
        assert!(
            c.amplification() > 1.0 && c.amplification() <= 2.0,
            "one retry per request → amplification in (1, 2], got {}",
            c.amplification()
        );
    }

    #[test]
    fn unanswered_requests_time_out() {
        let mut pop = small_pop(RetryPolicy::default());
        let mut now = SimTime::ZERO;
        while !pop.done() {
            now = pop.next_wakeup().unwrap_or(now + millis(1)).max(now);
            let _ = pop.poll(now); // swallow submissions, answer nothing
        }
        let c = pop.counters;
        assert_eq!(c.timed_out, c.offered, "silence → every request times out");
        assert_eq!(c.painted, 0);
    }

    #[test]
    fn budget_dry_fails_fast_instead_of_storming() {
        let mut pop = small_pop(RetryPolicy {
            budget_ratio: 0.05,
            ..RetryPolicy::default()
        });
        let mut now = SimTime::ZERO;
        while !pop.done() {
            now = pop.next_wakeup().unwrap_or(now + millis(1)).max(now);
            let subs = pop.poll(now);
            for s in subs {
                // Total outage: every submission fast-fails.
                pop.on_completion(
                    now,
                    Completion {
                        rid: s.rid,
                        outcome: Outcome::FastFail,
                    },
                );
            }
        }
        let c = pop.counters;
        assert_eq!(c.resolved(), c.offered);
        assert!(c.retries_budget_dry > 0, "budget must run dry");
        assert!(
            c.amplification() < 1.5,
            "budget must bound amplification, got {}",
            c.amplification()
        );
    }

    #[test]
    fn deterministic_event_stream() {
        let run = || {
            let mut pop = small_pop(RetryPolicy::default());
            let mut log = Vec::new();
            let mut now = SimTime::ZERO;
            while !pop.done() {
                now = pop.next_wakeup().unwrap_or(now + millis(1)).max(now);
                for s in pop.poll(now) {
                    log.push((s.rid, s.produced_at.as_micros(), s.attempt));
                    pop.on_completion(
                        now,
                        Completion {
                            rid: s.rid,
                            outcome: Outcome::Painted,
                        },
                    );
                }
            }
            log
        };
        assert_eq!(run(), run());
    }
}
