//! The one process-wide worker pool behind every parallel map.
//!
//! [`run`] executes a worker body on the calling thread (worker 0) and
//! on up to `helpers` long-lived pool threads (workers 1..). The pool
//! grows lazily to the largest helper count any call has asked for and
//! never shrinks; a call spawns a thread only when the pool is smaller
//! than it needs, never one per call. Fresh threads start with cold
//! allocator arenas and must fault in new pages, so keeping them warm
//! across maps is most of what this module buys (DESIGN.md §11).
//!
//! Because the caller always works, a map makes progress even when
//! every pool thread is busy — a map nested inside a map item simply
//! runs on its caller. That removes the old "never map from inside a
//! pool job" hazard.
//!
//! ## Soundness
//!
//! The worker body borrows the caller's stack (items, closures,
//! results), so a helper may touch it only while the caller is inside
//! [`run`]. Each call owns a heap [`Gate`] with an `in_flight` counter
//! and a `closed` flag, both `SeqCst`. A helper increments `in_flight`
//! and only then reads `closed`; the caller sets `closed` and only then
//! waits for `in_flight` to reach zero. In the single `SeqCst` order one
//! of the two sees the other's write: either the helper sees `closed`
//! and leaves without touching the call, or the caller sees the helper
//! in flight and waits for it. The caller waits on every path,
//! including when its own share of the work panicked.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, Thread};

/// Per-call handshake between the caller and the helpers that picked up
/// its jobs. Lives on the heap so a helper that starts after the call
/// returned can still read it.
struct Gate {
    in_flight: AtomicUsize,
    closed: AtomicBool,
    caller: Thread,
}

/// The caller's worker body plus the first panic a helper raised in it.
struct Task<F> {
    work: F,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

/// One helper's share of a call: run `task` as worker `widx`.
struct Job {
    gate: Arc<Gate>,
    /// A `&Task<F>` on the caller's stack, type- and lifetime-erased.
    task: *const (),
    /// `call_task::<F>`, the erased `F`'s entry point.
    call: unsafe fn(*const (), usize),
    widx: usize,
}

// SAFETY: `task` points to a `Task<F>` with `F: Sync` (enforced by
// `run`'s bound), and `Task`'s other field is a `Mutex`, so the `Task`
// may be shared with any thread. The pointer is only dereferenced under
// the gate protocol, which keeps the `Task` alive while it is in use.
// `gate` is an `Arc` of atomics and a `Thread` handle, all `Send + Sync`.
unsafe impl Send for Job {}

impl Job {
    fn execute(self) {
        let gate = self.gate;
        gate.in_flight.fetch_add(1, SeqCst);
        if !gate.closed.load(SeqCst) {
            // SAFETY: `closed` read false after this helper counted
            // itself in flight, so the caller has not yet seen
            // `in_flight == 0` and is still blocked in `run`, keeping
            // the `Task<F>` behind `task` alive until the decrement
            // below; `call` is the `call_task::<F>` of that same `F`.
            unsafe { (self.call)(self.task, self.widx) };
        }
        if gate.in_flight.fetch_sub(1, SeqCst) == 1 {
            gate.caller.unpark();
        }
    }
}

/// Runs the erased task as worker `widx`, parking any panic in the task
/// for the caller to re-raise; never unwinds into the pool thread.
///
/// # Safety
///
/// `task` must point to a live `Task<F>` for the whole call.
unsafe fn call_task<F: Fn(usize) + Sync>(task: *const (), widx: usize) {
    // SAFETY: guaranteed by the caller (see `Job::execute`).
    let task = unsafe { &*task.cast::<Task<F>>() };
    if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (task.work)(widx))) {
        lock(&task.panic).get_or_insert(payload);
    }
}

struct State {
    queue: VecDeque<Job>,
    /// Pool threads spawned so far; they live for the whole process.
    threads: usize,
}

static STATE: Mutex<State> = Mutex::new(State {
    queue: VecDeque::new(),
    threads: 0,
});
static WORK_READY: Condvar = Condvar::new();

/// Locks a pool mutex, recovering from poisoning: nothing panics while
/// one is held (jobs run outside the queue lock and catch their own
/// panics), and every update leaves the queue or the panic slot whole.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn pool_thread() {
    loop {
        let job = {
            let mut st = lock(&STATE);
            loop {
                if let Some(job) = st.queue.pop_front() {
                    break job;
                }
                st = WORK_READY.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        };
        job.execute();
    }
}

/// Runs `work(0)` on the calling thread and `work(1..=helpers)` on pool
/// threads that are free to take them, and returns once every helper
/// that started has finished. A worker index whose job no pool thread
/// picked up before the caller finished is never run, so `work` must
/// share its items through something like an atomic cursor that the
/// workers that do run drain completely.
///
/// # Panics
///
/// Re-raises on the caller the caller's own panic or, failing that, the
/// first helper panic, after every helper has left. Pool threads
/// survive a panic in `work`.
pub(crate) fn run<F: Fn(usize) + Sync>(helpers: usize, work: F) {
    let task = Task {
        work,
        panic: Mutex::new(None),
    };
    let gate = Arc::new(Gate {
        in_flight: AtomicUsize::new(0),
        closed: AtomicBool::new(false),
        caller: thread::current(),
    });
    {
        let mut st = lock(&STATE);
        for widx in 1..=helpers {
            st.queue.push_back(Job {
                gate: Arc::clone(&gate),
                task: (&raw const task).cast(),
                call: call_task::<F>,
                widx,
            });
        }
        while st.threads < helpers {
            // Pool threads are detached on purpose: they serve every
            // later call and end with the process. If the OS refuses a
            // thread the pool stays smaller; the caller still finishes
            // the work itself.
            let spawned = thread::Builder::new()
                .name(format!("htmpll-par-{}", st.threads + 1))
                .spawn(pool_thread);
            if spawned.is_err() {
                break;
            }
            st.threads += 1;
        }
    }
    for _ in 0..helpers {
        WORK_READY.notify_one();
    }
    let own = catch_unwind(AssertUnwindSafe(|| (task.work)(0)));
    gate.closed.store(true, SeqCst);
    // Jobs nobody picked up are dead now; drop them so the queue only
    // ever holds work of calls still running.
    lock(&STATE)
        .queue
        .retain(|job| !Arc::ptr_eq(&job.gate, &gate));
    while gate.in_flight.load(SeqCst) != 0 {
        thread::park();
    }
    let helper_panic = lock(&task.panic).take();
    if let Err(payload) = own {
        resume_unwind(payload);
    }
    if let Some(payload) = helper_panic {
        resume_unwind(payload);
    }
}

/// Pool threads spawned so far (tests only: the pool never shrinks).
#[cfg(test)]
pub(crate) fn threads() -> usize {
    lock(&STATE).threads
}
