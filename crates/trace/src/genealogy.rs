//! Fork-genealogy statistics (paper §3).
//!
//! The paper classifies dynamic threads as *eternal* (live the whole
//! run), *workers* (forked to carry out an activity), and *transients*
//! (short-lived children), and observes that in every benchmark "every
//! transient thread was either the child or grandchild of some worker or
//! long-lived thread" — forking generations never exceeded 2.

use std::collections::HashMap;

use pcr::{Event, EventKind, SimDuration, SimTime, ThreadId, TraceSink};

/// Dynamic classification of a thread by lifetime (paper §3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LifetimeClass {
    /// Alive from (nearly) the start of the run to its end.
    Eternal,
    /// Lived a substantial fraction of the run.
    Worker,
    /// Short-lived (the paper: "average lifetime for non-eternal threads
    /// ... well under 1 second").
    Transient,
}

#[derive(Clone, Debug)]
struct ThreadBirth {
    generation: u32,
    born: SimTime,
    died: Option<SimTime>,
}

/// Collects fork generations and lifetimes from the event stream.
#[derive(Debug, Default)]
pub struct GenealogyCollector {
    threads: HashMap<ThreadId, ThreadBirth>,
    end: SimTime,
}

impl GenealogyCollector {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Maximum fork generation observed (roots are generation 0; the
    /// paper reports ≤ 2 counting from the forking worker, i.e. ≤ 2
    /// generations of transient forks below any long-lived thread).
    pub fn max_generation(&self) -> u32 {
        self.threads
            .values()
            .map(|t| t.generation)
            .max()
            .unwrap_or(0)
    }

    /// Number of threads at each generation, indexed by generation.
    pub fn generation_counts(&self) -> Vec<usize> {
        let max = self.max_generation() as usize;
        let mut counts = vec![0usize; max + 1];
        for t in self.threads.values() {
            counts[t.generation as usize] += 1;
        }
        counts
    }

    /// Mean lifetime of threads that exited during the run.
    pub fn mean_lifetime_of_exited(&self) -> Option<SimDuration> {
        let exited: Vec<SimDuration> = self
            .threads
            .values()
            .filter_map(|t| t.died.map(|d| d.saturating_since(t.born)))
            .collect();
        if exited.is_empty() {
            return None;
        }
        let total: SimDuration = exited.iter().copied().sum();
        Some(total / exited.len() as u64)
    }

    /// Classifies every observed thread by lifetime. `run_span` is the
    /// virtual duration of the observed run.
    pub fn classify(&self, run_span: SimDuration) -> HashMap<ThreadId, LifetimeClass> {
        let span = run_span.as_micros().max(1);
        self.threads
            .iter()
            .map(|(&tid, t)| {
                let lifetime = t
                    .died
                    .unwrap_or(self.end)
                    .saturating_since(t.born)
                    .as_micros();
                let class = if t.died.is_none() && lifetime * 10 >= span * 9 {
                    LifetimeClass::Eternal
                } else if lifetime * 10 >= span * 2 {
                    LifetimeClass::Worker
                } else {
                    LifetimeClass::Transient
                };
                (tid, class)
            })
            .collect()
    }

    /// Number of threads observed.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }
}

impl TraceSink for GenealogyCollector {
    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }

    fn record(&mut self, ev: &Event) {
        self.end = self.end.max(ev.t);
        match ev.kind {
            EventKind::Fork {
                child, generation, ..
            } => {
                self.threads.insert(
                    child,
                    ThreadBirth {
                        generation,
                        born: ev.t,
                        died: None,
                    },
                );
            }
            EventKind::Exit { tid, .. } => {
                if let Some(t) = self.threads.get_mut(&tid) {
                    t.died = Some(ev.t);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcr::{millis, Priority};

    fn fork(t: u64, parent: Option<u32>, child: u32, generation: u32) -> Event {
        Event {
            t: SimTime::from_micros(t),
            kind: EventKind::Fork {
                parent: parent.map(ThreadId::from_u32),
                child: ThreadId::from_u32(child),
                priority: Priority::DEFAULT,
                generation,
            },
        }
    }

    fn exit(t: u64, tid: u32) -> Event {
        Event {
            t: SimTime::from_micros(t),
            kind: EventKind::Exit {
                tid: ThreadId::from_u32(tid),
                panicked: false,
            },
        }
    }

    #[test]
    fn tracks_generations() {
        let mut g = GenealogyCollector::new();
        g.record(&fork(0, None, 0, 0));
        g.record(&fork(10, Some(0), 1, 1));
        g.record(&fork(20, Some(1), 2, 2));
        assert_eq!(g.max_generation(), 2);
        assert_eq!(g.generation_counts(), vec![1, 1, 1]);
        // A sibling counts at its own generation, not the last fork's.
        g.record(&fork(30, Some(0), 3, 1));
        assert_eq!(g.generation_counts(), vec![1, 2, 1]);
        assert_eq!(g.thread_count(), 4);
    }

    #[test]
    fn lifetime_classification() {
        let mut g = GenealogyCollector::new();
        let span = millis(1000);
        g.record(&fork(0, None, 0, 0)); // Never exits: eternal.
        g.record(&fork(0, Some(0), 1, 1)); // Lives 600ms: worker.
        g.record(&fork(100_000, Some(1), 2, 2)); // Lives 5ms: transient.
        g.record(&exit(105_000, 2));
        g.record(&exit(600_000, 1));
        g.record(&Event {
            t: SimTime::from_micros(1_000_000),
            kind: EventKind::QuantumExpired {
                tid: ThreadId::from_u32(0),
            },
        });
        let classes = g.classify(span);
        assert_eq!(classes[&ThreadId::from_u32(0)], LifetimeClass::Eternal);
        assert_eq!(classes[&ThreadId::from_u32(1)], LifetimeClass::Worker);
        assert_eq!(classes[&ThreadId::from_u32(2)], LifetimeClass::Transient);
    }

    #[test]
    fn mean_lifetime_only_counts_exited() {
        let mut g = GenealogyCollector::new();
        g.record(&fork(0, None, 0, 0));
        g.record(&fork(0, Some(0), 1, 1));
        g.record(&exit(40_000, 1));
        assert_eq!(g.mean_lifetime_of_exited(), Some(millis(40)));
    }

    #[test]
    fn empty_collector() {
        let g = GenealogyCollector::new();
        assert_eq!(g.max_generation(), 0);
        assert_eq!(g.mean_lifetime_of_exited(), None);
        assert_eq!(g.thread_count(), 0);
    }
}
