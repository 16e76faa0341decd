//! The graceful-degradation ladder: shed echo-coalescing quality before
//! latency.
//!
//! §5.2's slack process trades echo granularity for throughput by
//! merging adjacent screen updates. This module turns that knob into a
//! feedback controller: each control window the controller looks at the
//! painted p99 and the ingress queue depth; if latency is drifting
//! toward the SLO (or a standing backlog is forming), it *raises* the
//! coalescing factor — batches get bigger, per-request overhead
//! amortizes further, capacity rises, users see chunkier echoes but on
//! time. When pressure clears and holds clear, it steps back down.

use pcr::{millis, SimDuration, SimTime};

/// Coalescing factor per quality level; level 0 is full quality.
pub(crate) const LEVELS: [u32; 4] = [4, 8, 16, 32];
/// Degrade when window p99 exceeds this fraction of the p99 SLO.
const DEGRADE_AT: f64 = 0.75;
/// Restore when window p99 is below this fraction (and depth low).
const RESTORE_BELOW: f64 = 0.35;
/// Degrade when sampled ingress depth exceeds this fraction of capacity,
/// regardless of painted latency (outage backlogs paint nothing, so p99
/// alone can look deceptively healthy).
const DEPTH_DEGRADE_FRAC: f64 = 0.5;
/// Minimum dwell between level changes.
const HOLD: SimDuration = millis(400);

/// The controller state plus its outcome counters.
#[derive(Clone, Debug, Default)]
pub struct Ladder {
    level: usize,
    last_change: SimTime,
    level_entered: SimTime,
    /// Quality-shedding steps taken (level raised).
    pub degrade_steps: u64,
    /// Quality-restoring steps taken (level lowered).
    pub restore_steps: u64,
    /// Deepest level reached.
    pub max_level: usize,
    /// Virtual µs spent at each level (finalized by [`Ladder::finish`]).
    pub time_at_level_us: [u64; LEVELS.len()],
}

impl Ladder {
    /// A ladder at full quality.
    pub fn new() -> Self {
        Ladder::default()
    }

    /// The current coalescing factor workers should use.
    pub fn coalesce(&self) -> u32 {
        LEVELS[self.level]
    }

    /// Current quality level (0 = full quality).
    pub fn level(&self) -> usize {
        self.level
    }

    /// One control-window observation. `window_p99` is the painted p99
    /// over the window (None when nothing painted), `depth_frac` the
    /// sampled ingress depth / capacity, `slo_p99` the gate. Returns
    /// the possibly-changed coalescing factor.
    pub fn on_window(
        &mut self,
        now: SimTime,
        window_p99: Option<SimDuration>,
        depth_frac: f64,
        slo_p99: SimDuration,
    ) -> u32 {
        let held = now.saturating_since(self.last_change) >= HOLD;
        let slo_us = slo_p99.as_micros() as f64;
        let p99_frac = window_p99.map(|d| d.as_micros() as f64 / slo_us);
        let pressured = p99_frac.is_some_and(|f| f > DEGRADE_AT) || depth_frac > DEPTH_DEGRADE_FRAC;
        let calm =
            p99_frac.is_none_or(|f| f < RESTORE_BELOW) && depth_frac < DEPTH_DEGRADE_FRAC / 4.0;
        if pressured && held && self.level + 1 < LEVELS.len() {
            self.switch_to(self.level + 1, now);
            self.degrade_steps += 1;
            self.max_level = self.max_level.max(self.level);
        } else if calm && self.level > 0 && now.saturating_since(self.last_change) >= HOLD * 2 {
            self.switch_to(self.level - 1, now);
            self.restore_steps += 1;
        }
        self.coalesce()
    }

    fn switch_to(&mut self, level: usize, now: SimTime) {
        self.time_at_level_us[self.level] += now.saturating_since(self.level_entered).as_micros();
        self.level = level;
        self.last_change = now;
        self.level_entered = now;
    }

    /// Closes the books at end of run.
    pub fn finish(&mut self, now: SimTime) {
        self.time_at_level_us[self.level] += now.saturating_since(self.level_entered).as_micros();
        self.level_entered = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcr::secs;

    #[test]
    fn degrades_under_pressure_restores_when_calm() {
        let mut l = Ladder::new();
        let slo = millis(50);
        let mut now = SimTime::ZERO + secs(1);
        assert_eq!(l.coalesce(), 4);
        // Hot window → degrade (after hold).
        assert_eq!(l.on_window(now, Some(millis(45)), 0.1, slo), 8);
        // Immediately hot again → hold blocks a second step.
        now += millis(100);
        assert_eq!(l.on_window(now, Some(millis(45)), 0.1, slo), 8);
        now += millis(400);
        assert_eq!(l.on_window(now, Some(millis(45)), 0.1, slo), 16);
        assert_eq!(l.degrade_steps, 2);
        assert_eq!(l.max_level, 2);
        // Depth pressure alone degrades too (outage backlog).
        now += millis(500);
        assert_eq!(l.on_window(now, None, 0.8, slo), 32);
        // Calm long enough → restore one step at a time.
        now += secs(1);
        assert_eq!(l.on_window(now, Some(millis(2)), 0.0, slo), 16);
        assert_eq!(l.restore_steps, 1);
        l.finish(now + secs(1));
        // Segments partition the whole run: ZERO → finish time.
        let total: u64 = l.time_at_level_us.iter().sum();
        assert_eq!(total, (now + secs(1)).as_micros());
    }
}
