//! Stackful coroutines: the mechanism under the baton protocol, and the
//! one module of this crate allowed to say `unsafe`.
//!
//! A simulated thread is a [`Coroutine`]: a body running on its own
//! `mmap`ed stack, on the OS thread of whoever built the simulation. The
//! scheduler [`Coroutine::resume`]s it with a [`Reply`]; the body runs
//! until it [`Baton::park`]s, or ends having [`Baton::post`]ed its last
//! [`Request`]. Either direction is one [`switch`]: push the six
//! callee-saved registers, swap stack pointers, pop them, pop the return
//! address and jump to it. No OS thread, channel or lock is involved,
//! which is what PCR was: Mesa threads multiplexed in one address space,
//! a switch a register save.
//!
//! Everything architecture-specific is the naked [`switch`] and the
//! eight-word initial frame [`Coroutine::new`] lays out for it (~25
//! lines); everything OS-specific is the three `mmap` calls in [`Stack`].
//!
//! Stacks outlive worlds. A vacated [`Stack`] — its thread exited, or its
//! world was dropped and the body shut down — goes to a pool that belongs
//! to the OS thread ([`StackPool`]), and the next fork on that OS thread,
//! in whichever world, runs on it. So a world built where another was
//! dropped maps nothing, faults in nothing and unmaps nothing: past the
//! first, a world costs what it simulates.
//!
//! # Soundness
//!
//! * **No unwind crosses `switch`.** [`entry`] catches whatever the body
//!   throws and `resume` re-raises it on the resumer's own stack.
//! * **A stack with live frames is never freed or reused.**
//!   [`Coroutine::into_stack`] demands a finished coroutine, and dropping
//!   a suspended one leaks its stack instead of unmapping it.
//!   [`Coroutine::shutdown`] is how live frames end: the body is unwound
//!   from its suspension point, destructors run. Only a `Stack` somebody
//!   owns by value reaches the pool, and that is a vacant one.
//! * **A finished coroutine is never resumed**, and a [`Baton`] switches
//!   only while its own body is the one running: both are asserted.
//! * **A coroutine stays on the OS thread that built it**, and so does
//!   its stack after it. The link is an `Rc`, so `Coroutine`, `Baton`,
//!   and every type holding one (`ThreadCtx`, `Sim`) are `!Send`:
//!   a suspended stack may hold `!Send` locals, and the hook state and
//!   the stack pool below are thread-local. A `Stack` is `!Send` itself,
//!   so no safe code can carry one to another thread's pool, and the
//!   pool needs no lock.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::ffi::{c_int, c_void};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::ptr;
use std::rc::Rc;

use crate::sched::{Reply, Request};

#[cfg(not(all(target_arch = "x86_64", unix)))]
compile_error!(
    "pcr's coroutine kernel is written for x86-64 unix. A port supplies, in \
     crates/pcr/src/coroutine.rs, the ~25 architecture-specific lines: the naked \
     `switch` (save the callee-saved registers, swap stack pointers, restore, \
     return, leaving `arg` in the first-argument register) and the initial frame \
     `Coroutine::new` builds for it; a non-unix port also replaces `Stack`'s mmap \
     calls."
);

const PAGE_BYTES: usize = 4096;
/// Usable stack per simulated thread, above one guard page.
const STACK_BYTES: usize = 128 * 1024;
const MAP_BYTES: usize = PAGE_BYTES + STACK_BYTES;

const PROT_NONE: c_int = 0;
const PROT_READ_WRITE: c_int = 1 | 2;
/// `MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE`: pages cost memory only
/// once touched, and an untouched stack reserves no swap.
#[cfg(any(target_os = "linux", target_os = "android"))]
const MAP_FLAGS: c_int = 0x02 | 0x20 | 0x4000;
// The BSD family's values for the same three flags, macOS included.
#[cfg(not(any(target_os = "linux", target_os = "android")))]
const MAP_FLAGS: c_int = 0x02 | 0x1000 | 0x40;

unsafe extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: i64,
    ) -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
}

/// One coroutine stack: a guard page below [`STACK_BYTES`] of lazily
/// committed memory (two VMAs, so the default `vm.max_map_count` holds
/// some 30 000 of them).
pub(crate) struct Stack {
    /// Lowest address of the mapping, i.e. of the guard page.
    base: *mut u8,
}

impl Stack {
    fn map() -> Stack {
        // SAFETY: an anonymous private mapping at an address of the
        // kernel's choosing aliases no existing memory.
        let base = unsafe {
            mmap(
                ptr::null_mut(),
                MAP_BYTES,
                PROT_READ_WRITE,
                MAP_FLAGS,
                -1,
                0,
            )
        };
        assert!(
            base as isize != -1,
            "mmap of a coroutine stack failed: {}",
            std::io::Error::last_os_error()
        );
        // SAFETY: the page is the bottom of the mapping just made; nothing
        // has been stored in it.
        let rc = unsafe { mprotect(base, PAGE_BYTES, PROT_NONE) };
        assert_eq!(rc, 0, "mprotect of a coroutine stack's guard page failed");
        MAPPED.set(MAPPED.get() + 1);
        Stack { base: base.cast() }
    }

    /// One past the highest usable byte; page-aligned, so 16-aligned.
    fn top(&self) -> *mut u8 {
        self.base.wrapping_add(MAP_BYTES)
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: `base`/`MAP_BYTES` are exactly what `map` got from mmap,
        // and a `Stack` is only ever owned while no frame lives on it (the
        // pool, a fresh or finished `Coroutine`, or `into_stack`'s caller).
        unsafe { munmap(self.base.cast(), MAP_BYTES) };
    }
}

/// The most vacant stacks an OS thread keeps mapped. Some six worlds of
/// the paper's size (≤ 41 threads); a larger world's excess is unmapped
/// as it is vacated.
const POOL_STACKS: usize = 256;

thread_local! {
    /// This OS thread's vacant stacks, most recently vacated last.
    /// Unmapped when the OS thread exits.
    static VACANT: RefCell<Vec<Stack>> = const { RefCell::new(Vec::new()) };
    /// Stacks this OS thread has mapped so far.
    static MAPPED: Cell<u64> = const { Cell::new(0) };
}

/// A world's handle on the stack pool of its OS thread: a LIFO of vacant
/// stacks, so steady-state fork/exit maps nothing, the most recently
/// vacated (cache-warm, already committed) stack is the next one used,
/// and a world built after another was dropped runs on its stacks.
///
/// A vacant stack belongs to the OS thread, not to the world that
/// vacated it: the pool is one `thread_local!` list, at most
/// [`POOL_STACKS`] deep (what would overflow it is unmapped instead, and
/// the whole list when the OS thread exits), and a world holds only the
/// counters below. Thread-local is sound, and lock-free, because a
/// `Stack` cannot change OS thread: it is `!Send` (a raw pointer), so is
/// everything that owns one, and a thread-local is reachable from no
/// other thread. Reuse is sound because no frame lives on a `Stack`
/// that anything owns by value (see the module docs), the pool included.
#[derive(Default)]
pub(crate) struct StackPool {
    /// Stacks this world has vacated and not yet taken back.
    vacated: u64,
    /// Stacks taken that this world had not itself vacated: newly mapped,
    /// or left in the pool by an earlier world.
    pub(crate) mapped: u64,
    /// Stacks taken back after a thread of this world vacated one.
    pub(crate) reused: u64,
}

impl StackPool {
    pub(crate) fn take(&mut self) -> Stack {
        if self.vacated > 0 {
            self.vacated -= 1;
            self.reused += 1;
        } else {
            self.mapped += 1;
        }
        // No pool while the OS thread's locals are being destroyed.
        let pooled = VACANT.try_with(|v| v.borrow_mut().pop());
        pooled.ok().flatten().unwrap_or_else(Stack::map)
    }

    pub(crate) fn give(&mut self, stack: Stack) {
        self.vacated += 1;
        let _ = VACANT.try_with(|v| {
            let mut v = v.borrow_mut();
            if v.len() < POOL_STACKS {
                v.push(stack);
            }
        });
        // Over the bound, or no pool any more: `stack` dropped, unmapped.
    }
}

/// What tests read of the calling OS thread's stack pool.
#[doc(hidden)]
#[derive(Clone, Copy, Debug)]
pub struct StackPoolStats {
    /// Stacks this OS thread has mapped since it started.
    pub mapped: u64,
    /// Vacant stacks it holds now.
    pub vacant: usize,
    /// The most it holds.
    pub bound: usize,
}

#[doc(hidden)]
pub fn stack_pool_stats() -> StackPoolStats {
    StackPoolStats {
        mapped: MAPPED.get(),
        vacant: VACANT.with_borrow(Vec::len),
        bound: POOL_STACKS,
    }
}

/// Saves the caller's callee-saved registers and stack pointer (into
/// `*save_sp`), then loads the context whose stack pointer is `to_sp` and
/// returns into it. `arg` rides along in `rdi`: a context entered for
/// the first time is [`entry`], which finds it as its argument; one
/// re-entered inside its own earlier `switch` call ignores it. The
/// return is `pop rax` / `jmp rax`, not `ret`: after a stack swap the
/// return-stack predictor holds the other stack's caller, so a `ret`
/// always mispredicts, and `rax` is dead in a function returning nothing.
///
/// # Safety
///
/// `save_sp` must be writable, and `to_sp` must be either a value an
/// earlier `switch` stored (for a context that has not been resumed
/// since) or the initial frame [`Coroutine::new`] built; its stack must
/// still be mapped and untouched since. Every object the suspended
/// context borrows must still be alive.
#[unsafe(naked)]
unsafe extern "C" fn switch(save_sp: *mut *mut u8, to_sp: *mut u8, arg: *const Link) {
    core::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "mov rdi, rdx",
        "pop rax",
        "jmp rax",
    )
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    /// Built, never resumed: the stack holds only the initial frame.
    Fresh,
    /// Between a `resume` and the body's next `park` (or its end).
    Running,
    /// Inside `Baton::park`, waiting for the next `resume`.
    Suspended,
    /// The body has returned or unwound; the stack holds nothing.
    Finished,
}

type Body = Box<dyn FnOnce(Baton)>;

/// The cell both sides of a coroutine share: the two saved stack
/// pointers, and the request going out and the reply coming in.
struct Link {
    /// The resumer's stack pointer while the body runs.
    resumer_sp: Cell<*mut u8>,
    /// The body's stack pointer while it does not run.
    body_sp: Cell<*mut u8>,
    state: Cell<State>,
    request: Cell<Option<Request>>,
    reply: Cell<Option<Reply>>,
    body: Cell<Option<Body>>,
    /// A panic that escaped the body, on its way to the resumer.
    escaped: Cell<Option<Box<dyn Any + Send>>>,
}

thread_local! {
    /// How many `resume` calls are in progress on this OS thread (more
    /// than one only when a body runs a simulation of its own).
    static BODIES_ON_CPU: Cell<u32> = const { Cell::new(0) };
}

/// True while a coroutine body, rather than its resumer, is what this OS
/// thread is executing: a panic raised now is the simulation's data.
pub(crate) fn body_on_cpu() -> bool {
    BODIES_ON_CPU.get() > 0
}

/// The scheduler's end of a simulated thread.
pub(crate) struct Coroutine {
    link: Rc<Link>,
    /// `None` only after `into_stack`, or once dropped while suspended.
    stack: Option<Stack>,
}

impl Coroutine {
    /// A coroutine that will run `body` on `stack` when first resumed.
    pub(crate) fn new(stack: Stack, body: impl FnOnce(Baton) + 'static) -> Coroutine {
        // The frame `switch` pops, from the top of the stack down: a null
        // return address for `entry` (never used; it ends backtraces),
        // `entry` itself for `switch`'s final pop and jump, six zeroed
        // registers.
        let frame: [usize; 8] = [0, 0, 0, 0, 0, 0, entry as *const () as usize, 0];
        // SAFETY: `top` is one past the end of the stack's own mapping, so
        // the 64 bytes below it are inside it and usize-aligned, and no
        // frame lives on a `Stack` we own. The slot holding `entry` lands
        // at `top - 16`, so `entry` starts with its return slot at 8 mod
        // 16: the alignment a `call` would give it.
        let sp = unsafe {
            let sp = stack.top().sub(size_of_val(&frame));
            sp.cast::<[usize; 8]>().write(frame);
            sp
        };
        Coroutine {
            link: Rc::new(Link {
                resumer_sp: Cell::new(ptr::null_mut()),
                body_sp: Cell::new(sp),
                state: Cell::new(State::Fresh),
                request: Cell::new(None),
                reply: Cell::new(None),
                body: Cell::new(Some(Box::new(body))),
                escaped: Cell::new(None),
            }),
            stack: Some(stack),
        }
    }

    /// Runs the body until it next [`Baton::park`]s, which receives
    /// `reply` (the first resume's reply is only the go signal), or ends,
    /// and returns what the body [`Baton::post`]ed meanwhile, if anything.
    ///
    /// # Panics
    ///
    /// Re-raises a panic that escaped the body; panics if the coroutine
    /// has finished or is itself the caller.
    pub(crate) fn resume(&mut self, reply: Reply) -> Option<Request> {
        let link = &*self.link;
        assert!(
            matches!(link.state.get(), State::Fresh | State::Suspended),
            "resume of a {:?} coroutine",
            link.state.get()
        );
        link.reply.set(Some(reply));
        link.state.set(State::Running);
        BODIES_ON_CPU.set(BODIES_ON_CPU.get() + 1);
        // SAFETY: the state was Fresh or Suspended, so `body_sp` is the
        // initial frame or what the body's last `switch` saved, on a stack
        // `self.stack` keeps mapped and nothing else has run on since.
        // What a suspended body borrows it borrows from its own frames or
        // through `'static` captures. `&mut self` keeps this the only
        // resume in flight.
        unsafe { switch(link.resumer_sp.as_ptr(), link.body_sp.get(), link) };
        BODIES_ON_CPU.set(BODIES_ON_CPU.get() - 1);
        if let Some(payload) = link.escaped.take() {
            resume_unwind(payload);
        }
        link.request.take()
    }

    /// True once the body has returned or unwound.
    pub(crate) fn is_finished(&self) -> bool {
        self.link.state.get() == State::Finished
    }

    /// Ends the body for good. One that never started is dropped unrun;
    /// a suspended one is resumed with [`Reply::Shutdown`], which unwinds
    /// it out of its suspension point so its destructors run, until it
    /// finishes.
    pub(crate) fn shutdown(&mut self) {
        if self.link.state.get() == State::Fresh {
            drop(self.link.body.take());
            self.link.state.set(State::Finished);
        }
        while self.link.state.get() == State::Suspended {
            let _ = self.resume(Reply::Shutdown);
        }
    }

    /// Gives the stack up for reuse.
    ///
    /// # Panics
    ///
    /// Panics unless the coroutine has finished.
    pub(crate) fn into_stack(mut self) -> Stack {
        assert!(self.is_finished(), "stack of an unfinished coroutine");
        self.stack.take().expect("stack already taken")
    }
}

impl Drop for Coroutine {
    fn drop(&mut self) {
        if !matches!(self.link.state.get(), State::Fresh | State::Finished) {
            // Live frames, and whatever borrows from them, are still on
            // the stack, and this is no place to unwind them: leak it.
            // `Sim` never gets here; it `shutdown`s first.
            std::mem::forget(self.stack.take());
        }
    }
}

/// The first and only frame at the bottom of every coroutine stack.
extern "C" fn entry(link: *const Link) -> ! {
    // SAFETY: `link` is the `arg` of the first `resume`, a pointer into
    // the `Rc` the `Coroutine` holds, so it is valid and its count is at
    // least one; the count taken here is the `Baton`'s own.
    let (link, baton) = unsafe {
        Rc::increment_strong_count(link);
        (
            &*link,
            Baton {
                link: Rc::from_raw(link),
            },
        )
    };
    link.reply.take();
    let body = link.body.take().expect("coroutine entered twice");
    // Nothing may unwind into the null frame below, and nothing owned by
    // this stack may outlive the block: the stack is reused right after.
    if let Err(payload) = catch_unwind(AssertUnwindSafe(move || body(baton))) {
        link.escaped.set(Some(payload));
    }
    link.state.set(State::Finished);
    // SAFETY: `resumer_sp` was saved by the `resume` this body is running
    // under, whose frames are intact because it has not returned. Nothing
    // on this stack is alive any more, and `resume` refuses a Finished
    // coroutine, so control never comes back.
    unsafe { switch(link.body_sp.as_ptr(), link.resumer_sp.get(), ptr::null()) };
    unreachable!("a finished coroutine was resumed")
}

/// The body's end of a simulated thread: how it reaches the scheduler.
pub(crate) struct Baton {
    link: Rc<Link>,
}

impl Baton {
    /// Suspends until the next [`Coroutine::resume`], whose reply it
    /// returns.
    pub(crate) fn park(&self) -> Reply {
        let link = &*self.link;
        assert_eq!(
            link.state.get(),
            State::Running,
            "baton used from outside its running body"
        );
        link.state.set(State::Suspended);
        // SAFETY: the state was Running, and a `Baton` is `!Send` and is
        // lent only to the body it was made for, so this code is running
        // on this coroutine's stack under the `resume` that saved
        // `resumer_sp`, whose frames are intact because it has not
        // returned.
        unsafe { switch(link.body_sp.as_ptr(), link.resumer_sp.get(), ptr::null()) };
        link.reply.take().expect("resumed without a reply")
    }

    /// Leaves `req` for the resumer without suspending: it is what the
    /// `resume` in progress returns when the body next parks, or ends.
    pub(crate) fn post(&self, req: Request) {
        self.link.request.set(Some(req));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thread::ThreadId;
    use crate::time::micros;

    fn work(n: u64) -> Request {
        Request::Work(micros(n))
    }

    /// A round trip to the resumer: `req` out, the next reply back.
    fn call(baton: &Baton, req: Request) -> Reply {
        baton.post(req);
        baton.park()
    }

    fn worked(req: Option<Request>) -> u64 {
        match req {
            Some(Request::Work(d)) => d.as_micros(),
            other => panic!("expected Work, got {other:?}"),
        }
    }

    #[test]
    fn ping_pong_carries_values_both_ways() {
        let mut pool = StackPool::default();
        let mut co = Coroutine::new(pool.take(), |baton| {
            let mut n = 1;
            for _ in 0..5 {
                match call(&baton, work(n)) {
                    Reply::Forked(t) => n = u64::from(t.as_u32()) + 1,
                    other => panic!("expected Forked, got {other:?}"),
                }
            }
            baton.post(work(1000 + n));
        });
        // The first reply only starts the body.
        let mut seen = worked(co.resume(Reply::Ok));
        assert_eq!(seen, 1);
        for _ in 0..4 {
            let next = worked(co.resume(Reply::Forked(ThreadId(seen as u32 * 2))));
            assert_eq!(next, seen * 2 + 1);
            seen = next;
        }
        assert!(!co.is_finished());
        // 1, 3, 7, 15, 31 went out; the last reply makes n = 63.
        assert_eq!(worked(co.resume(Reply::Forked(ThreadId(62)))), 1063);
        assert!(co.is_finished());
        pool.give(co.into_stack());
        assert_eq!((pool.mapped, pool.reused), (1, 0));
    }

    #[test]
    fn a_body_may_use_a_hundred_kib_of_stack() {
        #[inline(never)]
        fn descend(depth: usize, floor: usize) -> usize {
            let pad = std::hint::black_box([depth as u8; 1024]);
            let here = pad.as_ptr() as usize;
            if depth == 0 {
                return floor - here;
            }
            descend(depth - 1, floor) + usize::from(std::hint::black_box(pad)[7] == 255)
        }
        let used = Rc::new(Cell::new(0));
        let out = Rc::clone(&used);
        let mut co = Coroutine::new(Stack::map(), move |_| {
            let marker = std::hint::black_box([0u8; 8]);
            let floor = marker.as_ptr() as usize;
            // Deepen until 100 KiB lie between the first and last frame.
            let mut depth = 16;
            while out.get() < 100 * 1024 {
                out.set(descend(depth, floor));
                depth += 1;
            }
        });
        assert!(co.resume(Reply::Ok).is_none());
        assert!(co.is_finished());
        assert!(
            (100 * 1024..STACK_BYTES).contains(&used.get()),
            "{}",
            used.get()
        );
    }

    #[test]
    fn a_panic_is_caught_at_entry_and_the_stack_is_reusable() {
        let mut pool = StackPool::default();
        let mut co = Coroutine::new(pool.take(), |baton| {
            call(&baton, work(1));
            panic!("boom on a coroutine stack");
        });
        assert_eq!(worked(co.resume(Reply::Ok)), 1);
        let caught = catch_unwind(AssertUnwindSafe(|| co.resume(Reply::Ok)));
        let payload = caught.expect_err("the body's panic reaches the resumer");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"boom on a coroutine stack")
        );
        assert!(co.is_finished());
        pool.give(co.into_stack());
        let mut again = Coroutine::new(pool.take(), |baton| {
            call(&baton, work(2));
        });
        assert_eq!(worked(again.resume(Reply::Ok)), 2);
        assert!(again.resume(Reply::Ok).is_none());
        assert_eq!((pool.mapped, pool.reused), (1, 1));
    }

    struct CountsDrop(Rc<Cell<u32>>);
    impl Drop for CountsDrop {
        fn drop(&mut self) {
            self.0.set(self.0.get() + 1);
        }
    }

    /// The `ThreadCtx` contract in miniature: `Reply::Shutdown` unwinds.
    fn call_or_unwind(baton: &Baton, req: Request) -> Reply {
        match call(baton, req) {
            Reply::Shutdown => resume_unwind(Box::new(())),
            r => r,
        }
    }

    #[test]
    fn shutdown_unwinds_a_suspended_body_and_drops_a_fresh_one_unrun() {
        let drops = Rc::new(Cell::new(0));
        let ran = Rc::new(Cell::new(0));

        let (local, r) = (CountsDrop(Rc::clone(&drops)), Rc::clone(&ran));
        let mut suspended = Coroutine::new(Stack::map(), move |baton| {
            let _on_stack = local;
            r.set(r.get() + 1);
            // The unwind is caught here as `fork_spec`'s wrapper would catch it.
            let _ = catch_unwind(AssertUnwindSafe(|| loop {
                call_or_unwind(&baton, work(1));
            }));
        });
        assert_eq!(worked(suspended.resume(Reply::Ok)), 1);
        suspended.shutdown();
        assert!(suspended.is_finished());
        assert_eq!((ran.get(), drops.get()), (1, 1));

        let (captured, r) = (CountsDrop(Rc::clone(&drops)), Rc::clone(&ran));
        let mut fresh = Coroutine::new(Stack::map(), move |_| {
            let _captured = captured;
            r.set(r.get() + 1);
        });
        fresh.shutdown();
        assert!(fresh.is_finished());
        assert_eq!((ran.get(), drops.get()), (1, 2), "dropped, never run");
    }

    #[test]
    #[should_panic(expected = "resume of a Finished coroutine")]
    fn a_finished_coroutine_refuses_to_resume() {
        let mut co = Coroutine::new(Stack::map(), |_| {});
        assert!(co.resume(Reply::Ok).is_none());
        let _ = co.resume(Reply::Ok);
    }

    #[test]
    fn body_on_cpu_is_true_only_inside_bodies_and_nests() {
        assert!(!body_on_cpu());
        let mut outer = Coroutine::new(Stack::map(), |baton| {
            assert!(body_on_cpu());
            let mut inner = Coroutine::new(Stack::map(), |_| assert!(body_on_cpu()));
            assert!(inner.resume(Reply::Ok).is_none());
            assert!(body_on_cpu(), "still inside the outer body");
            call(&baton, work(1));
        });
        assert_eq!(worked(outer.resume(Reply::Ok)), 1);
        assert!(!body_on_cpu());
        outer.shutdown();
        assert!(!body_on_cpu());
    }
}
