//! # threadstudy-trace — the measurement apparatus
//!
//! Rebuilds the instrumentation the paper's authors used on PCR: the
//! runtime ([`pcr`]) emits a microsecond-resolution event stream; this
//! crate provides the collectors that turn it into the paper's figures
//! and tables:
//!
//! * [`IntervalCollector`] / [`IntervalHistogram`] — execution-interval
//!   distributions (the §3 bimodal 3 ms / 45 ms shape);
//! * [`GenealogyCollector`] — fork generations and lifetimes
//!   (eternal / worker / transient classification);
//! * [`BenchmarkRates`] — the per-benchmark rows of Tables 1–3;
//! * [`ContentionProfiler`] — the §6.1 per-monitor hold/wait profile;
//! * [`Table`] — text/Markdown rendering shaped like the paper's tables;
//! * [`Recording`] — one run's events and names, written to a file;
//! * [`Timeline`] — the §7 "100 millisecond event history" as ASCII;
//! * [`write_jsonl`] — JSON Lines export of the raw event stream;
//! * [`export::chrome`] — Chrome trace-event / Perfetto export;
//! * [`diff`] — aligning and diffing two exported runs.
//!
//! See `docs/OBSERVABILITY.md` at the repo root for the workflow.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;
pub mod export;
mod genealogy;
mod intervals;
mod json;
mod profile;
mod rates;
mod spans;
mod tables;
mod timeline;

pub use diff::{chaos_event_for_fault, diff_runs, parse_jsonl, DiffReport, CHAOS_KINDS};
pub use export::chrome::{chrome_trace, write_chrome, TraceLabels};
pub use export::{write_jsonl, EventRecord, Recording};
pub use genealogy::{GenealogyCollector, LifetimeClass};
pub use intervals::{IntervalCollector, IntervalHistogram};
pub use json::Json;
pub use profile::{ContentionProfiler, MonitorProfile, MonitorProfileRow};
pub use rates::BenchmarkRates;
pub use tables::{
    contention_table, f0, f1, hazard_table, latency_table, pct, thread_table, Align, Table,
};
pub use timeline::Timeline;

use pcr::{Event, TraceSink};

/// The standard full collector: intervals + genealogy + the §6.1
/// contention profile in one sink.
#[derive(Debug, Default)]
pub struct Collector {
    /// Execution-interval histogram builder.
    pub intervals: IntervalCollector,
    /// Fork genealogy and lifetimes.
    pub genealogy: GenealogyCollector,
    /// Per-monitor hold/wait profile.
    pub contention: ContentionProfiler,
}

impl Collector {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// A collector primed with `sim`'s monitor names, so the contention
    /// profile renders real names.
    pub fn for_sim(sim: &pcr::Sim) -> Self {
        Collector {
            contention: ContentionProfiler::for_sim(sim),
            ..Self::default()
        }
    }
}

impl TraceSink for Collector {
    fn record(&mut self, ev: &Event) {
        self.intervals.record(ev);
        self.genealogy.record(ev);
        self.contention.record(ev);
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

/// Recovers a concrete collector installed with [`pcr::Sim::set_sink`].
///
/// Returns `None` if no sink is installed or it has a different type.
pub fn take_collector<C: TraceSink>(sim: &mut pcr::Sim) -> Option<Box<C>> {
    let sink = sim.take_sink()?;
    sink.into_any().downcast::<C>().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcr::{millis, secs, Priority, RunLimit, Sim, SimConfig};

    #[test]
    fn collector_end_to_end() {
        let mut sim = Sim::new(SimConfig::default());
        sim.set_sink(Box::new(Collector::new()));
        let _ = sim.fork_root("worker", Priority::DEFAULT, |ctx| {
            for i in 0..5 {
                let h = ctx
                    .fork(&format!("t{i}"), |ctx| ctx.work(millis(2)))
                    .unwrap();
                ctx.join(h).unwrap();
                ctx.sleep(millis(10));
            }
        });
        let report = sim.run(RunLimit::For(secs(2)));
        let c = take_collector::<Collector>(&mut sim).expect("collector comes back");
        assert_eq!(c.genealogy.max_generation(), 1);
        assert_eq!(c.genealogy.thread_count(), 6);
        assert!(c.intervals.histogram().count() > 0);
        let rates =
            BenchmarkRates::from_window("test", &Default::default(), sim.stats(), report.elapsed);
        assert!(rates.forks_per_sec > 0.0);
    }

    #[test]
    fn take_collector_wrong_type_returns_none() {
        let mut sim = Sim::new(SimConfig::default());
        sim.set_sink(Box::new(pcr::VecSink::default()));
        assert!(take_collector::<Collector>(&mut sim).is_none());
    }

    #[test]
    fn take_collector_no_sink_returns_none() {
        let mut sim = Sim::new(SimConfig::default());
        assert!(take_collector::<Collector>(&mut sim).is_none());
    }
}
