//! Thread identity, priorities, and join handles.

use std::fmt;
use std::sync::{Arc, Mutex};

use crate::error::JoinError;
use crate::time::SimDuration;

/// Identifier of a simulated thread.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(pub(crate) u32);

impl ThreadId {
    /// Returns the raw index.
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    /// Builds an id from a raw index. Intended for tooling and tests that
    /// fabricate event streams; ids are only meaningful within the `Sim`
    /// that issued them.
    pub const fn from_u32(v: u32) -> ThreadId {
        ThreadId(v)
    }
}

impl fmt::Debug for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// A Mesa thread priority: 1 (lowest) through 7 (highest).
///
/// The paper's systems use 7 priority levels with the default in the
/// middle (4). Lower priorities are used for long-running background work;
/// higher priorities for device handling and the user interface.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Priority(u8);

impl Priority {
    /// Lowest priority (1): deep background work.
    pub const MIN: Priority = Priority(1);
    /// The default priority (4), the middle of the seven levels.
    pub const DEFAULT: Priority = Priority(4);
    /// Highest priority (7): interrupt-level threads.
    pub const MAX: Priority = Priority(7);
    /// Number of priority levels.
    pub const LEVELS: usize = 7;

    /// Creates a priority, returning `None` outside `1..=7`.
    pub const fn new(level: u8) -> Option<Priority> {
        if level >= 1 && level <= 7 {
            Some(Priority(level))
        } else {
            None
        }
    }

    /// Creates a priority, panicking outside `1..=7`.
    ///
    /// # Panics
    ///
    /// Panics if `level` is not in `1..=7`.
    pub const fn of(level: u8) -> Priority {
        match Priority::new(level) {
            Some(p) => p,
            None => panic!("priority must be in 1..=7"),
        }
    }

    /// Returns the numeric level (1..=7).
    pub const fn get(self) -> u8 {
        self.0
    }

    /// Zero-based index for table lookups.
    pub(crate) const fn index(self) -> usize {
        (self.0 - 1) as usize
    }
}

impl fmt::Debug for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Shared slot a forked thread writes its result (or panic message) into.
pub(crate) type ResultSlot<T> = Arc<Mutex<Option<Result<T, String>>>>;

/// Handle returned by FORK; redeem it with [`crate::ThreadCtx::join`].
///
/// Per the Mesa model a thread may be JOINed at most once; a handle that
/// will not be joined should be passed to [`crate::ThreadCtx::detach`]
/// (or created with `fork_detached`) so the runtime can recycle the
/// thread's resources when it terminates. The handle is consumed by both
/// operations, so the at-most-once rule is enforced by the type system.
#[must_use = "a forked thread must be JOINed or DETACHed"]
pub struct JoinHandle<T> {
    pub(crate) tid: ThreadId,
    pub(crate) slot: ResultSlot<T>,
}

impl<T> JoinHandle<T> {
    /// The identity of the forked thread.
    pub fn tid(&self) -> ThreadId {
        self.tid
    }

    /// Consumes the handle and returns the thread's result, if the thread
    /// has already exited.
    ///
    /// This is the *outside-the-simulation* counterpart of
    /// [`crate::ThreadCtx::join`]: an experiment harness that drove
    /// [`crate::Sim::run`] to completion can harvest results without a
    /// joining thread inside the world. Returns `None` when the thread
    /// has not exited (e.g. the run hit its time limit first).
    pub fn into_result(self) -> Option<Result<T, JoinError>> {
        let stored = self.slot.lock().expect("result slot poisoned").take()?;
        Some(stored.map_err(JoinError::Panicked))
    }

    /// Takes the stored result after the thread has exited.
    pub(crate) fn take_result(&self) -> Result<T, JoinError> {
        let stored = self
            .slot
            .lock()
            .expect("result slot poisoned")
            .take()
            .expect("join completed but no result stored");
        stored.map_err(JoinError::Panicked)
    }
}

impl<T> fmt::Debug for JoinHandle<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JoinHandle")
            .field("tid", &self.tid)
            .finish()
    }
}

/// Summary of one simulated thread, its name held as `N`.
#[derive(Clone, Copy, Debug)]
pub struct ThreadSummary<N> {
    /// Thread identity.
    pub tid: ThreadId,
    /// Name given at fork time.
    pub name: N,
    /// Final priority.
    pub priority: Priority,
    /// Total virtual CPU time consumed.
    pub cpu: SimDuration,
    /// Whether the thread has exited.
    pub exited: bool,
    /// Whether it exited by panic.
    pub panicked: bool,
    /// Forking parent, if any.
    pub parent: Option<ThreadId>,
    /// Fork generation: roots are 0, their forks 1, and so on. The paper
    /// observes that no benchmark produced generations greater than 2
    /// counted from a worker or long-lived thread.
    pub generation: u32,
}

/// Post-run summary of one simulated thread, from [`crate::Sim::threads`].
pub type ThreadInfo = ThreadSummary<String>;

/// Borrowed, `Copy` counterpart of [`ThreadInfo`], from
/// [`crate::Sim::threads_iter`]: the name is a borrow of the snapshot the
/// iterator walks.
pub type ThreadView<'a> = ThreadSummary<&'a str>;

impl ThreadInfo {
    /// A borrowed [`ThreadView`] of this summary.
    pub fn view(&self) -> ThreadView<'_> {
        ThreadView {
            tid: self.tid,
            name: &self.name,
            priority: self.priority,
            cpu: self.cpu,
            exited: self.exited,
            panicked: self.panicked,
            parent: self.parent,
            generation: self.generation,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_bounds() {
        assert!(Priority::new(0).is_none());
        assert!(Priority::new(8).is_none());
        assert_eq!(Priority::new(1), Some(Priority::MIN));
        assert_eq!(Priority::new(7), Some(Priority::MAX));
        assert_eq!(Priority::DEFAULT.get(), 4);
    }

    #[test]
    fn priority_ordering() {
        assert!(Priority::MAX > Priority::DEFAULT);
        assert!(Priority::DEFAULT > Priority::MIN);
        assert_eq!(Priority::of(3).index(), 2);
    }

    #[test]
    #[should_panic(expected = "priority must be in 1..=7")]
    fn priority_of_panics_out_of_range() {
        let _ = Priority::of(9);
    }

    #[test]
    fn thread_id_formatting() {
        assert_eq!(format!("{:?}", ThreadId(3)), "T3");
        assert_eq!(format!("{:?}", Priority::of(6)), "P6");
    }
}
