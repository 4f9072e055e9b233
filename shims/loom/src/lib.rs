//! Offline stand-in for the `loom` model checker.
//!
//! Provides the subset of loom's API that `distctr-shm` uses —
//! [`model()`], [`thread`], [`sync::atomic`], [`sync::Mutex`],
//! [`hint::spin_loop`] — implemented as a **bounded-preemption
//! cooperative scheduler** over real OS threads:
//!
//! * Exactly one managed thread runs at a time; every atomic access,
//!   mutex acquisition, spawn and join is a *scheduling point* where the
//!   scheduler may hand the token to another runnable thread.
//! * [`model()`] explores the schedule tree depth-first: each execution
//!   replays a recorded prefix of scheduling choices, takes the first
//!   untried alternative at the deepest branch, and reruns until the
//!   tree (bounded by the preemption budget) is exhausted.
//! * A voluntary switch at an ordinary access point costs one unit of
//!   the preemption budget ([`model::Builder::preemption_bound`]);
//!   forced switches (yields, spin hints, contended locks, joins) are
//!   free, exactly like CHESS-style bounded model checking.
//! * A panic in any managed thread aborts the execution and is
//!   re-raised by [`model()`] together with the schedule that produced
//!   it.
//!
//! Caveats vs. the real crate (see also `shims/README.md`):
//!
//! * Only **sequential consistency** is modeled: every memory ordering
//!   is strengthened to `SeqCst`. Relaxed-ordering bugs are invisible
//!   here (the nightly ThreadSanitizer CI job is the complementary
//!   check).
//! * Mutex blocking is modeled as forced-switch spinning, so a true
//!   lock cycle surfaces as the per-execution step cap ("possible
//!   livelock/deadlock"), not as a deadlock state dump.
//! * No `Condvar`, `RwLock`, `UnsafeCell` instrumentation, or
//!   checkpoint files; no spurious-wakeup modeling.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod rt;

/// Explore all schedules of `f` under the default [`model::Builder`].
///
/// # Panics
///
/// Re-raises (with the offending schedule) any panic a managed thread
/// hit in any explored execution.
pub fn model<F>(f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    model::Builder::new().check(f);
}

/// Model configuration, mirroring `loom::model::Builder`.
pub mod model {
    use std::sync::Arc;

    use crate::rt;

    /// Configures and runs an exploration; mirrors the fields of
    /// `loom::model::Builder` this workspace uses.
    #[derive(Debug, Clone)]
    pub struct Builder {
        /// Maximum number of *voluntary* preemptions per execution
        /// (`None` = unbounded, full exploration). Overridable with the
        /// `LOOM_MAX_PREEMPTIONS` environment variable.
        pub preemption_bound: Option<usize>,
        /// Hard cap on explored executions; exceeding it panics so an
        /// oversized model is noticed rather than silently truncated.
        /// Overridable with `LOOM_MAX_ITERATIONS`.
        pub max_iterations: u64,
        /// Per-execution scheduling-point cap; exceeding it is reported
        /// as a livelock/deadlock.
        pub max_steps: u64,
    }
    impl Default for Builder {
        fn default() -> Self {
            Self::new()
        }
    }

    fn env_u64(name: &str) -> Option<u64> {
        std::env::var(name).ok().and_then(|v| v.parse().ok())
    }

    impl Builder {
        /// A fresh builder: unbounded preemptions, 500k executions,
        /// 200k scheduling points per execution.
        #[must_use]
        pub fn new() -> Self {
            Builder {
                preemption_bound: env_u64("LOOM_MAX_PREEMPTIONS").map(|b| b as usize),
                max_iterations: env_u64("LOOM_MAX_ITERATIONS").unwrap_or(500_000),
                max_steps: 200_000,
            }
        }

        /// Runs `f` once per schedule until the tree is exhausted.
        ///
        /// # Panics
        ///
        /// On the first failing execution (re-raising the managed
        /// thread's panic message plus the schedule), or if
        /// `max_iterations` is exceeded.
        pub fn check<F>(&self, f: F)
        where
            F: Fn() + Send + Sync + 'static,
        {
            let f = Arc::new(f);
            let mut prefix: Vec<usize> = Vec::new();
            let mut iterations: u64 = 0;
            loop {
                iterations += 1;
                assert!(
                    iterations <= self.max_iterations,
                    "loom-shim: exceeded {} executions; shrink the model or raise \
                     LOOM_MAX_ITERATIONS",
                    self.max_iterations
                );
                let (decisions, failure) =
                    rt::run_one(Arc::clone(&f), self.preemption_bound, self.max_steps, prefix);
                if std::env::var_os("LOOM_LOG").is_some() {
                    let d: Vec<(usize, usize)> =
                        decisions.iter().map(|d| (d.chosen, d.alts)).collect();
                    eprintln!("loom-shim exec {iterations}: {d:?} failure={failure:?}");
                }
                if let Some(msg) = failure {
                    let schedule: Vec<usize> = decisions.iter().map(|d| d.chosen).collect();
                    panic!(
                        "loom-shim: execution {iterations} failed\nschedule: {schedule:?}\n{msg}"
                    );
                }
                match rt::next_prefix(&decisions) {
                    Some(p) => prefix = p,
                    None => break,
                }
            }
        }
    }
}

/// Managed threads, mirroring `std::thread` / `loom::thread`.
pub mod thread {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex};

    use crate::rt;

    struct JoinCell<T> {
        done: AtomicBool,
        val: Mutex<Option<T>>,
    }

    enum Inner<T> {
        Std(std::thread::JoinHandle<T>),
        Managed(Arc<JoinCell<T>>),
    }

    /// Handle to a spawned thread; mirrors `std::thread::JoinHandle`.
    pub struct JoinHandle<T>(Inner<T>);

    impl<T> JoinHandle<T> {
        /// Waits for the thread to finish and returns its result.
        ///
        /// # Errors
        ///
        /// Outside a model, propagates the thread's panic payload like
        /// `std`. Inside a model a managed panic aborts the whole
        /// execution before `join` can observe it, so the managed arm
        /// only ever returns `Ok`.
        ///
        /// # Panics
        ///
        /// Inside a model, panics if the execution was aborted.
        pub fn join(self) -> std::thread::Result<T> {
            match self.0 {
                Inner::Std(h) => h.join(),
                Inner::Managed(cell) => {
                    loop {
                        if cell.done.load(Ordering::SeqCst) {
                            let v = cell
                                .val
                                .lock()
                                .unwrap_or_else(std::sync::PoisonError::into_inner)
                                .take()
                                .expect("loom-shim: join cell filled exactly once");
                            return Ok(v);
                        }
                        match rt::current() {
                            // Forced switch: waiting on a join never
                            // charges the preemption budget.
                            Some(ctx) => rt::switch(&ctx.exec, ctx.id, true),
                            None => std::thread::yield_now(),
                        }
                    }
                }
            }
        }
    }

    /// Spawns a thread: managed inside a model, plain `std` outside.
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        match rt::current() {
            None => JoinHandle(Inner::Std(std::thread::spawn(f))),
            Some(ctx) => {
                let cell =
                    Arc::new(JoinCell { done: AtomicBool::new(false), val: Mutex::new(None) });
                let c2 = Arc::clone(&cell);
                rt::spawn_managed(&ctx.exec, move || {
                    let v = f();
                    *c2.val.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = Some(v);
                    c2.done.store(true, Ordering::SeqCst);
                });
                // A scheduling point right after the spawn lets the
                // child run first as an explored alternative.
                rt::switch(&ctx.exec, ctx.id, false);
                JoinHandle(Inner::Managed(cell))
            }
        }
    }

    /// Yields: a forced (budget-free) scheduling point under a model.
    pub fn yield_now() {
        match rt::current() {
            Some(ctx) => rt::switch(&ctx.exec, ctx.id, true),
            None => std::thread::yield_now(),
        }
    }
}

/// Spin hints, mirroring `std::hint` / `loom::hint`.
pub mod hint {
    use crate::rt;

    /// A spin-wait hint: a forced scheduling point under a model, so
    /// spin loops make progress instead of monopolizing the token.
    pub fn spin_loop() {
        match rt::current() {
            Some(ctx) => rt::switch(&ctx.exec, ctx.id, true),
            None => std::hint::spin_loop(),
        }
    }
}

/// Synchronization primitives, mirroring `std::sync` / `loom::sync`.
pub mod sync {
    pub use std::sync::Arc;

    /// Instrumented atomics; every access is a scheduling point.
    pub mod atomic {
        pub use std::sync::atomic::{fence as std_fence, Ordering};

        use crate::rt;

        /// An atomic fence: a scheduling point plus a `SeqCst` fence.
        pub fn fence(_order: Ordering) {
            rt::access();
            std_fence(Ordering::SeqCst);
        }

        macro_rules! int_atomic {
            ($(#[$doc:meta])* $name:ident, $std:ident, $ty:ty) => {
                $(#[$doc])*
                #[derive(Debug, Default)]
                pub struct $name {
                    inner: std::sync::atomic::$std,
                }

                impl $name {
                    /// Creates the atomic with an initial value.
                    #[must_use]
                    pub const fn new(v: $ty) -> Self {
                        Self { inner: std::sync::atomic::$std::new(v) }
                    }

                    /// Loads the value (scheduling point; `SeqCst`).
                    #[must_use]
                    pub fn load(&self, _o: Ordering) -> $ty {
                        rt::access();
                        self.inner.load(Ordering::SeqCst)
                    }

                    /// Stores a value (scheduling point; `SeqCst`).
                    pub fn store(&self, v: $ty, _o: Ordering) {
                        rt::access();
                        self.inner.store(v, Ordering::SeqCst);
                    }

                    /// Swaps the value, returning the previous one.
                    pub fn swap(&self, v: $ty, _o: Ordering) -> $ty {
                        rt::access();
                        self.inner.swap(v, Ordering::SeqCst)
                    }

                    /// Adds, returning the previous value.
                    pub fn fetch_add(&self, v: $ty, _o: Ordering) -> $ty {
                        rt::access();
                        self.inner.fetch_add(v, Ordering::SeqCst)
                    }

                    /// Subtracts, returning the previous value.
                    pub fn fetch_sub(&self, v: $ty, _o: Ordering) -> $ty {
                        rt::access();
                        self.inner.fetch_sub(v, Ordering::SeqCst)
                    }

                    /// Bitwise-ANDs, returning the previous value.
                    pub fn fetch_and(&self, v: $ty, _o: Ordering) -> $ty {
                        rt::access();
                        self.inner.fetch_and(v, Ordering::SeqCst)
                    }

                    /// Bitwise-ORs, returning the previous value.
                    pub fn fetch_or(&self, v: $ty, _o: Ordering) -> $ty {
                        rt::access();
                        self.inner.fetch_or(v, Ordering::SeqCst)
                    }

                    /// Bitwise-XORs, returning the previous value.
                    pub fn fetch_xor(&self, v: $ty, _o: Ordering) -> $ty {
                        rt::access();
                        self.inner.fetch_xor(v, Ordering::SeqCst)
                    }

                    /// Compare-and-exchange.
                    ///
                    /// # Errors
                    ///
                    /// The current value, if it differed from `cur`.
                    pub fn compare_exchange(
                        &self,
                        cur: $ty,
                        new: $ty,
                        _s: Ordering,
                        _f: Ordering,
                    ) -> Result<$ty, $ty> {
                        rt::access();
                        self.inner.compare_exchange(
                            cur,
                            new,
                            Ordering::SeqCst,
                            Ordering::SeqCst,
                        )
                    }

                    /// Weak compare-and-exchange (never fails
                    /// spuriously here).
                    ///
                    /// # Errors
                    ///
                    /// The current value, if it differed from `cur`.
                    pub fn compare_exchange_weak(
                        &self,
                        cur: $ty,
                        new: $ty,
                        s: Ordering,
                        f: Ordering,
                    ) -> Result<$ty, $ty> {
                        self.compare_exchange(cur, new, s, f)
                    }
                }
            };
        }

        int_atomic!(
            /// Instrumented `AtomicUsize`.
            AtomicUsize,
            AtomicUsize,
            usize
        );
        int_atomic!(
            /// Instrumented `AtomicU32`.
            AtomicU32,
            AtomicU32,
            u32
        );
        int_atomic!(
            /// Instrumented `AtomicU64`.
            AtomicU64,
            AtomicU64,
            u64
        );
        int_atomic!(
            /// Instrumented `AtomicI64`.
            AtomicI64,
            AtomicI64,
            i64
        );

        /// Instrumented `AtomicBool`.
        #[derive(Debug, Default)]
        pub struct AtomicBool {
            inner: std::sync::atomic::AtomicBool,
        }

        impl AtomicBool {
            /// Creates the atomic with an initial value.
            #[must_use]
            pub const fn new(v: bool) -> Self {
                Self { inner: std::sync::atomic::AtomicBool::new(v) }
            }

            /// Loads the value (scheduling point; `SeqCst`).
            #[must_use]
            pub fn load(&self, _o: Ordering) -> bool {
                rt::access();
                self.inner.load(Ordering::SeqCst)
            }

            /// Stores a value (scheduling point; `SeqCst`).
            pub fn store(&self, v: bool, _o: Ordering) {
                rt::access();
                self.inner.store(v, Ordering::SeqCst);
            }

            /// Swaps the value, returning the previous one.
            pub fn swap(&self, v: bool, _o: Ordering) -> bool {
                rt::access();
                self.inner.swap(v, Ordering::SeqCst)
            }

            /// Compare-and-exchange.
            ///
            /// # Errors
            ///
            /// The current value, if it differed from `cur`.
            pub fn compare_exchange(
                &self,
                cur: bool,
                new: bool,
                _s: Ordering,
                _f: Ordering,
            ) -> Result<bool, bool> {
                rt::access();
                self.inner.compare_exchange(cur, new, Ordering::SeqCst, Ordering::SeqCst)
            }

            /// Weak compare-and-exchange (never fails spuriously here).
            ///
            /// # Errors
            ///
            /// The current value, if it differed from `cur`.
            pub fn compare_exchange_weak(
                &self,
                cur: bool,
                new: bool,
                s: Ordering,
                f: Ordering,
            ) -> Result<bool, bool> {
                self.compare_exchange(cur, new, s, f)
            }
        }
    }

    use std::sync::{LockResult, PoisonError, TryLockError};

    use crate::rt;

    /// An instrumented mutex: acquisition is a scheduling point, and
    /// contention is modeled as forced-switch spinning (so every
    /// acquisition order is explored, but a true lock cycle surfaces as
    /// the step cap rather than a deadlock dump).
    #[derive(Debug, Default)]
    pub struct Mutex<T> {
        inner: std::sync::Mutex<T>,
    }

    /// Guard returned by [`Mutex::lock`].
    #[derive(Debug)]
    pub struct MutexGuard<'a, T> {
        inner: std::sync::MutexGuard<'a, T>,
    }

    impl<T> std::ops::Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.inner
        }
    }

    impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.inner
        }
    }

    impl<T> Mutex<T> {
        /// Creates a mutex holding `t`.
        #[must_use]
        pub const fn new(t: T) -> Self {
            Mutex { inner: std::sync::Mutex::new(t) }
        }

        /// Acquires the mutex.
        ///
        /// # Errors
        ///
        /// Poisoned if a holder panicked (outside a model; inside one,
        /// a managed panic aborts the execution first).
        pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
            match rt::current() {
                None => match self.inner.lock() {
                    Ok(g) => Ok(MutexGuard { inner: g }),
                    Err(p) => Err(PoisonError::new(MutexGuard { inner: p.into_inner() })),
                },
                Some(ctx) => {
                    // One budget-charged point decides who attempts
                    // first; contention retries are free forced
                    // switches (the holder must run to release).
                    rt::switch(&ctx.exec, ctx.id, false);
                    loop {
                        match self.inner.try_lock() {
                            Ok(g) => return Ok(MutexGuard { inner: g }),
                            Err(TryLockError::Poisoned(p)) => {
                                return Err(PoisonError::new(MutexGuard { inner: p.into_inner() }))
                            }
                            Err(TryLockError::WouldBlock) => rt::switch(&ctx.exec, ctx.id, true),
                        }
                    }
                }
            }
        }

        /// Consumes the mutex, returning the inner value.
        ///
        /// # Errors
        ///
        /// Poisoned if a holder panicked.
        pub fn into_inner(self) -> LockResult<T> {
            self.inner.into_inner()
        }
    }
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicU64 as StdU64, Ordering as StdOrd};
    use std::sync::Arc as StdArc;

    use super::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use super::sync::{Arc, Mutex};

    #[test]
    fn sequential_model_runs_exactly_once() {
        let runs = StdArc::new(StdU64::new(0));
        let r = StdArc::clone(&runs);
        // No managed concurrency -> a single schedule.
        super::model(move || {
            r.fetch_add(1, StdOrd::SeqCst);
            let a = AtomicU64::new(1);
            assert_eq!(a.fetch_add(2, Ordering::SeqCst), 1);
            assert_eq!(a.load(Ordering::SeqCst), 3);
        });
        assert_eq!(runs.load(StdOrd::SeqCst), 1);
    }

    #[test]
    fn fetch_add_from_two_threads_always_sums() {
        super::model(|| {
            let a = Arc::new(AtomicU64::new(0));
            let a2 = Arc::clone(&a);
            let h = super::thread::spawn(move || {
                a2.fetch_add(1, Ordering::SeqCst);
            });
            a.fetch_add(1, Ordering::SeqCst);
            h.join().expect("join");
            assert_eq!(a.load(Ordering::SeqCst), 2);
        });
    }

    #[test]
    fn exploration_finds_the_load_store_race() {
        // Non-atomic read-modify-write: some interleaving loses an
        // increment, and the checker must find it (the whole point).
        let result = catch_unwind(AssertUnwindSafe(|| {
            super::model(|| {
                let a = Arc::new(AtomicU64::new(0));
                let a2 = Arc::clone(&a);
                let h = super::thread::spawn(move || {
                    let v = a2.load(Ordering::SeqCst);
                    a2.store(v + 1, Ordering::SeqCst);
                });
                let v = a.load(Ordering::SeqCst);
                a.store(v + 1, Ordering::SeqCst);
                h.join().expect("join");
                assert_eq!(a.load(Ordering::SeqCst), 2, "lost update");
            });
        }));
        let msg = match result {
            Ok(()) => panic!("the lost-update interleaving was not found"),
            Err(p) => crate::rt::payload_to_string(&*p),
        };
        assert!(msg.contains("lost update"), "re-raised with the model's message: {msg}");
        assert!(msg.contains("schedule:"), "schedule attached for replay: {msg}");
    }

    #[test]
    fn zero_preemption_budget_misses_the_race_by_design() {
        // With no voluntary preemptions, threads serialize and the
        // racy counter above always reads 2: the bound is real.
        let mut b = super::model::Builder::new();
        b.preemption_bound = Some(0);
        b.check(|| {
            let a = Arc::new(AtomicU64::new(0));
            let a2 = Arc::clone(&a);
            let h = super::thread::spawn(move || {
                let v = a2.load(Ordering::SeqCst);
                a2.store(v + 1, Ordering::SeqCst);
            });
            let v = a.load(Ordering::SeqCst);
            a.store(v + 1, Ordering::SeqCst);
            h.join().expect("join");
            assert_eq!(a.load(Ordering::SeqCst), 2);
        });
    }

    #[test]
    fn mutex_preserves_mutual_exclusion() {
        super::model(|| {
            let m = Arc::new(Mutex::new(0u64));
            let m2 = Arc::clone(&m);
            let h = super::thread::spawn(move || {
                let mut g = m2.lock().expect("lock");
                let v = *g;
                *g = v + 1;
            });
            {
                let mut g = m.lock().expect("lock");
                let v = *g;
                *g = v + 1;
            }
            h.join().expect("join");
            assert_eq!(*m.lock().expect("lock"), 2, "mutex serializes the RMW");
        });
    }

    #[test]
    fn spin_waiting_on_a_flag_terminates() {
        super::model(|| {
            let flag = Arc::new(AtomicBool::new(false));
            let f2 = Arc::clone(&flag);
            let h = super::thread::spawn(move || {
                f2.store(true, Ordering::SeqCst);
            });
            while !flag.load(Ordering::SeqCst) {
                super::hint::spin_loop();
            }
            h.join().expect("join");
        });
    }

    #[test]
    fn types_fall_back_to_plain_std_outside_a_model() {
        let a = AtomicU64::new(5);
        assert_eq!(a.fetch_add(1, Ordering::Relaxed), 5);
        let m = Mutex::new(7u64);
        assert_eq!(*m.lock().expect("lock"), 7);
        let h = super::thread::spawn(|| 42u64);
        assert_eq!(h.join().expect("join"), 42);
    }
}
