//! A minimal parallel-for for embarrassingly parallel, deterministic
//! work units.
//!
//! Both the benchmark matrix (`repro bench`) and the resilience fuzz
//! grid (`repro fuzz`) decompose into independent `(cell × seed × rep)`
//! tasks whose *results* are byte-deterministic — only wall-clock time
//! depends on who runs what. The tasks are known up front and coarse, so
//! [`run_indexed`] hands them out through one shared cursor: each worker
//! claims the next unclaimed index until none are left, which balances
//! uneven tasks without any per-worker queue. Results land in indexed
//! slots so output order never depends on the schedule.

use std::io::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// What one [`run_indexed`] call observed about its own scheduling.
#[derive(Clone, Copy, Debug)]
pub struct ExecReport {
    /// Worker threads actually used (after clamping to the task count).
    pub workers: usize,
}

/// Runs tasks `0..n`, each computed by `f`, on `workers` threads, and
/// returns the results in index order plus an [`ExecReport`].
///
/// `f` must be safe to call concurrently from several threads; results
/// are independent of which worker runs which task. With `workers <= 1`
/// (or `n <= 1`) everything runs on the calling thread in index order —
/// the serial reference the parallel schedules are measured against.
pub fn run_indexed<T, F>(workers: usize, n: usize, f: F) -> (Vec<T>, ExecReport)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.max(1).min(n.max(1));
    if workers <= 1 {
        return ((0..n).map(&f).collect(), ExecReport { workers: 1 });
    }
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                // Relaxed: the cursor only hands out indices; results are
                // published by the slot mutexes and the scope's join.
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                *slots[i].lock().expect("slot poisoned") = Some(f(i));
            });
        }
    });
    let results = slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("slot poisoned")
                .expect("every task index was claimed and completed")
        })
        .collect();
    (results, ExecReport { workers })
}

/// A line-buffered progress reporter shared by concurrent workers.
///
/// `eprintln!` from several threads interleaves *within* lines (each
/// write of the formatted pieces races separately); [`Reporter::line`]
/// formats the whole line into one buffer and hands it to the OS in a
/// single write under the stderr lock, so concurrent progress output
/// interleaves only at line granularity.
#[derive(Clone, Copy, Debug, Default)]
pub struct Reporter;

impl Reporter {
    /// Creates a reporter. Stateless: the stderr lock is the only
    /// synchronization, so clones and copies all serialize together.
    pub fn new() -> Reporter {
        Reporter
    }

    /// Emits one complete line to stderr atomically.
    pub fn line(&self, msg: &str) {
        let mut buf = String::with_capacity(msg.len() + 1);
        buf.push_str(msg);
        buf.push('\n');
        let mut err = std::io::stderr().lock();
        let _ = err.write_all(buf.as_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_index_order_regardless_of_workers() {
        for workers in [1, 2, 3, 8, 32] {
            let (out, report) = run_indexed(workers, 20, |i| i * i);
            assert_eq!(out, (0..20).map(|i| i * i).collect::<Vec<_>>());
            assert!(report.workers <= 20);
        }
    }

    #[test]
    fn zero_tasks() {
        let (out, report) = run_indexed(4, 0, |i| i);
        assert!(out.is_empty());
        assert_eq!(report.workers, 1);
    }

    #[test]
    fn serial_runs_in_order_on_calling_thread() {
        let calls = Mutex::new(Vec::new());
        let (out, report) = run_indexed(1, 5, |i| {
            calls.lock().unwrap().push(i);
            i
        });
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        assert_eq!(*calls.lock().unwrap(), vec![0, 1, 2, 3, 4]);
        assert_eq!(report.workers, 1);
    }

    #[test]
    fn uneven_tasks_all_complete() {
        // Tasks with wildly uneven cost: the cursor must still cover all.
        let (out, _) = run_indexed(4, 33, |i| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            i + 1
        });
        assert_eq!(out.len(), 33);
        assert_eq!(out.iter().sum::<usize>(), (1..=33).sum::<usize>());
    }

    #[test]
    fn workers_clamped_to_task_count() {
        let (_, report) = run_indexed(16, 3, |i| i);
        assert!(report.workers <= 3);
    }
}
