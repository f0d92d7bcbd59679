//! The parallel engine's lane crew: the calling thread plus `lanes − 1`
//! scoped worker threads, handed one small job per lookahead window.
//!
//! ```text
//!   caller (lane 0)            workers (lanes 1..L)
//!   ───────────────            ────────────────────
//!   publish job, state → odd   poll, then park, until state is a new odd
//!   unpark sleepers (≤ n − 1)  inside += 1; state unchanged? else back off
//!   claim i = next++ …         claim i = next++ …   (task(i), done += 1)
//!   wait done == n             inside −= 1
//!   state → even (closed)
//!   wait inside == 0, return
//! ```
//!
//! A window's job is "run `task(i)` once for every `i < n`". Every lane,
//! the caller included, claims indices from one shared atomic cursor
//! until it runs out, so the caller waits only on items a worker has
//! already claimed: a descheduled worker delays the window by at most
//! the one item it holds, never by a fixed chunk of the window. Nothing
//! is allocated per window and no lock is taken on the hand-off path; a
//! task's panic is caught on its lane and re-raised from
//! [`Crew::for_each`] once the window is closed.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release, SeqCst};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

/// One window's work: called with every index below the window's count.
pub(crate) type Task<'a> = dyn Fn(usize) + Sync + 'a;

/// `state` value that tells workers to exit. Odd like an open window, so
/// the wait loop wakes on it; the window counter never reaches it.
const SHUTDOWN: u64 = u64::MAX;

/// State polls an idle worker makes (see [`snooze`]) before it parks: far
/// more than a window's serial commit and collection (a few µs) takes,
/// few enough that an idle crew soon stops polling.
const IDLE_POLLS: u32 = 1 << 14;

/// Polls a waiter spins through before it starts yielding its CPU.
const SPIN_POLLS: u32 = 64;

/// Per-lane slot, padded to its own cache line pair so lanes never share
/// a line.
#[repr(align(128))]
#[derive(Default)]
struct Lane {
    /// Set by a worker about to park, cleared by whoever wakes it.
    asleep: AtomicBool,
    /// The worker's thread handle, registered before it first waits.
    thread: OnceLock<Thread>,
    /// This window's claim span: start in ns since the crew origin, and
    /// busy ns from the first claim to the last finished item (0 when
    /// the lane claimed nothing).
    start_ns: AtomicU64,
    busy_ns: AtomicU64,
}

/// The crew's shared state. Only the caller (the thread that built the
/// crew) dispatches; workers only serve.
pub(crate) struct Crew {
    /// Window counter: odd while a window is open, even while closed.
    state: AtomicU64,
    /// Points at the open window's `&Task`, which lives on the
    /// dispatching [`Crew::for_each`] frame.
    task: AtomicPtr<&'static Task<'static>>,
    /// Item count of the open window.
    n: AtomicUsize,
    /// Claim cursor: the next unclaimed item.
    next: AtomicUsize,
    /// Items finished (claimed and run, panicked or not).
    done: AtomicUsize,
    /// Workers currently between joining a window and leaving it.
    inside: AtomicUsize,
    /// First panic payload raised by a task this window.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    panicked: AtomicBool,
    lanes: Box<[Lane]>,
    /// Origin of the lanes' span timestamps.
    origin: Instant,
}

/// Runs `body` with a crew of `lanes` lanes (at least two): the calling
/// thread is lane 0 and `lanes − 1` scoped workers serve the windows
/// `body` dispatches through [`Crew::for_each`]. The workers live exactly
/// as long as `body`; a panic in `body`, or re-raised by it from a task,
/// reaches the caller after the workers have exited. Lane span
/// timestamps count from `origin`.
pub(crate) fn with_crew<R>(lanes: usize, origin: Instant, body: impl FnOnce(&Crew) -> R) -> R {
    debug_assert!(lanes >= 2, "a one-lane crew has nobody to hand work to");
    let crew = Crew {
        state: AtomicU64::new(0),
        task: AtomicPtr::new(std::ptr::null_mut()),
        n: AtomicUsize::new(0),
        next: AtomicUsize::new(0),
        done: AtomicUsize::new(0),
        inside: AtomicUsize::new(0),
        panic: Mutex::new(None),
        panicked: AtomicBool::new(false),
        lanes: (0..lanes).map(|_| Lane::default()).collect(),
        origin,
    };
    let out = thread::scope(|s| {
        let spawned = (1..lanes).try_for_each(|lane| {
            let crew = &crew;
            thread::Builder::new()
                .name(format!("sim-lane-{lane}"))
                .spawn_scoped(s, move || crew.serve(lane))
                .map(drop)
        });
        let out = match spawned {
            Ok(()) => catch_unwind(AssertUnwindSafe(|| body(&crew))),
            Err(e) => {
                Err(Box::new(format!("cannot spawn a lane worker: {e}")) as Box<dyn Any + Send>)
            }
        };
        // Also on failure: the scope joins the workers already spawned.
        crew.publish(SHUTDOWN, usize::MAX);
        out
    });
    out.unwrap_or_else(|p| resume_unwind(p))
}

impl Crew {
    /// Number of lanes, the caller included.
    pub(crate) fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Runs `task(i)` once for every `i < n` across the crew's lanes and
    /// returns when all have finished, filling `spans[lane]` with each
    /// lane's `(start since origin, busy)` claim span. If any task
    /// panicked, the first panic is re-raised here after the window has
    /// closed and no worker is left inside it.
    pub(crate) fn for_each(&self, n: usize, task: &Task<'_>, spans: &mut [(Duration, Duration)]) {
        self.next.store(0, Relaxed);
        self.done.store(0, Relaxed);
        self.n.store(n, Relaxed);
        // The crew's one lifetime erasure: the pointer to `task` is
        // stored as `'static` so workers can reach it. It is dereferenced
        // only in `serve`, under the invariant documented there.
        let erased = &task as *const &Task<'_> as *mut &'static Task<'static>;
        self.task.store(erased, Relaxed);
        // A lone item has nobody to share it with: run it without
        // opening a window.
        let shared = n > 1;
        let open = self.state.load(Relaxed) + 1;
        if shared {
            self.publish(open, n - 1);
        }
        self.claim(0, task);
        if shared {
            spin_until(|| self.done.load(Acquire) == n);
            self.state.store(open + 1, SeqCst);
            spin_until(|| self.inside.load(SeqCst) == 0);
        }
        for (span, lane) in spans.iter_mut().zip(self.lanes.iter()) {
            *span = (
                Duration::from_nanos(lane.start_ns.load(Relaxed)),
                Duration::from_nanos(lane.busy_ns.swap(0, Relaxed)),
            );
        }
        if self.panicked.swap(false, Relaxed) {
            let p = self
                .panic
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take();
            resume_unwind(p.expect("a panicked task left its payload"));
        }
    }

    /// Stores `state` and unparks up to `wake` sleeping workers.
    fn publish(&self, state: u64, wake: usize) {
        self.state.store(state, SeqCst);
        let mut woken = 0;
        for lane in &self.lanes[1..] {
            if woken == wake {
                break;
            }
            // Pairs with the worker's `asleep` store and `state` re-check
            // (both SeqCst): either it sees the new state and stays up,
            // or this swap sees it asleep and wakes it.
            if lane.asleep.swap(false, SeqCst) {
                lane.thread.get().expect("a sleeper registered").unpark();
                woken += 1;
            }
        }
    }

    /// Claims and runs items of the open window until none are left,
    /// recording the lane's span. Panics are stored, not propagated, so
    /// every claimed item is counted done.
    fn claim(&self, lane: usize, task: &Task<'_>) {
        let n = self.n.load(Relaxed);
        let mut t0 = None;
        loop {
            let i = self.next.fetch_add(1, Relaxed);
            if i >= n {
                break;
            }
            t0.get_or_insert_with(Instant::now);
            if let Err(p) = catch_unwind(AssertUnwindSafe(|| task(i))) {
                let mut slot = self.panic.lock().unwrap_or_else(PoisonError::into_inner);
                slot.get_or_insert(p);
                self.panicked.store(true, Relaxed);
            }
            // Release: the caller's Acquire load of `done` then sees
            // everything the task wrote.
            self.done.fetch_add(1, Release);
        }
        if let Some(t0) = t0 {
            let slot = &self.lanes[lane];
            let start = t0.saturating_duration_since(self.origin).as_nanos() as u64;
            slot.start_ns.store(start, Relaxed);
            slot.busy_ns.store(t0.elapsed().as_nanos() as u64, Relaxed);
        }
    }

    /// A worker's life: join every window published after the last one
    /// it saw, until shutdown.
    fn serve(&self, lane: usize) {
        let me = &self.lanes[lane];
        me.thread.get_or_init(thread::current);
        let mut seen = 0;
        loop {
            let s = self.wait_for_window(seen, me);
            if s == SHUTDOWN {
                return;
            }
            seen = s;
            self.inside.fetch_add(1, SeqCst);
            // Registered first, checked second (both SeqCst, against the
            // caller's close-then-read-`inside`): either the window is
            // still `s` and the caller waits for us to leave, or we back
            // off without touching the job.
            if self.state.load(SeqCst) == s {
                // SAFETY: `task` points at the `&Task` argument of the
                // `for_each` call that opened window `s`, erased to
                // `'static`. That call does not return or unwind before
                // it has closed `s` and seen `inside == 0`, and we stay
                // counted in `inside` until `claim` returns — so the
                // frame, and the task it borrows, outlive every use here.
                // The pointer was stored before `s` was published, and
                // our SeqCst load of `s` synchronizes with that store.
                let task: &Task<'_> = unsafe { *self.task.load(Relaxed) };
                self.claim(lane, task);
            }
            // Release: publishes this lane's span (and the end of its
            // use of the task) to the caller's SeqCst load of `inside`.
            self.inside.fetch_sub(1, Release);
        }
    }

    /// Spins, then parks, until `state` is an open window other than
    /// `seen` (or shutdown); returns that state.
    fn wait_for_window(&self, seen: u64, me: &Lane) -> u64 {
        let fresh = |s: u64| s != seen && s & 1 == 1;
        loop {
            for k in 0..IDLE_POLLS {
                let s = self.state.load(Acquire);
                if fresh(s) {
                    return s;
                }
                snooze(k);
            }
            me.asleep.store(true, SeqCst);
            let s = self.state.load(SeqCst);
            if fresh(s) {
                me.asleep.store(false, Relaxed);
                return s;
            }
            // Spurious and stale wake-ups just go round again.
            thread::park();
            me.asleep.store(false, Relaxed);
        }
    }
}

/// Busy-waits for `cond`.
fn spin_until(cond: impl Fn() -> bool) {
    let mut k = 0;
    while !cond() {
        snooze(k);
        k = k.saturating_add(1);
    }
}

/// Backs off after the `k`-th failed poll: a spin hint for the first
/// [`SPIN_POLLS`], then a yield. Yielding matters when lanes outnumber
/// free CPUs: a poller that only spins holds a CPU the lane it waits on
/// (or the caller's serial commit) needs. Measured on two vCPUs with one
/// busy-loop hog, pure spinning ran `sharded-2k` at 25–31 sim-s/s and
/// spin-then-yield at 37–40; without the hog the two were level.
fn snooze(k: u32) {
    if k < SPIN_POLLS {
        std::hint::spin_loop();
    } else {
        thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn every_index_runs_exactly_once() {
        for lanes in [2, 3, 8] {
            let hits: Vec<AtomicU32> = (0..97).map(|_| AtomicU32::new(0)).collect();
            let mut spans = vec![(Duration::ZERO, Duration::ZERO); lanes];
            with_crew(lanes, Instant::now(), |crew| {
                for n in [0, 1, 2, 5, 97] {
                    crew.for_each(
                        n,
                        &|i| {
                            hits[i].fetch_add(1, Relaxed);
                        },
                        &mut spans,
                    );
                }
            });
            // Index i ran once for every window with n > i.
            let expect = |i: usize| [1, 2, 5, 97].iter().filter(|&&n| n > i).count() as u32;
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Relaxed), expect(i), "lanes={lanes} index {i}");
            }
        }
    }

    #[test]
    fn worker_panic_reraises_on_the_caller() {
        // Two items that each wait until both are claimed: one lane can
        // hold only one at a time, so a worker holds the other, and the
        // worker's item is the one that panics.
        let caller = thread::current().id();
        let claimed = AtomicU32::new(0);
        let r = catch_unwind(AssertUnwindSafe(|| {
            with_crew(2, Instant::now(), |crew| {
                let mut spans = [(Duration::ZERO, Duration::ZERO); 2];
                crew.for_each(
                    2,
                    &|_| {
                        claimed.fetch_add(1, SeqCst);
                        spin_until(|| claimed.load(SeqCst) == 2);
                        if thread::current().id() != caller {
                            panic!("worker lane boom");
                        }
                    },
                    &mut spans,
                );
            })
        }));
        let payload = r.expect_err("the worker's panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"worker lane boom"));
    }

    #[test]
    fn crew_keeps_serving_after_idle_parking() {
        // Windows spaced far enough apart that the workers park between
        // them still complete (the caller must unpark sleepers).
        let total = AtomicU32::new(0);
        with_crew(4, Instant::now(), |crew| {
            let mut spans = [(Duration::ZERO, Duration::ZERO); 4];
            for _ in 0..3 {
                thread::sleep(Duration::from_millis(20));
                crew.for_each(
                    16,
                    &|_| {
                        total.fetch_add(1, Relaxed);
                    },
                    &mut spans,
                );
            }
        });
        assert_eq!(total.load(Relaxed), 48);
    }
}
