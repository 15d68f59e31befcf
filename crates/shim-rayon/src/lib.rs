//! Offline drop-in replacement for the subset of `rayon` this workspace
//! uses: `into_par_iter().map(..).collect()`.
//!
//! Items are materialized eagerly and handed out one at a time, from one
//! shared queue, to the calling thread and to a process-wide pool of
//! persistent workers (one per available core besides the caller, started
//! by the first map that fans out); results are put back in item-index
//! order, so `collect` preserves item order exactly like rayon's indexed
//! parallel iterators, whichever thread ran the item. The workers outlive
//! every map, so thread-local state one map's items leave behind (the
//! simulator's buffer pool) is there for the next map's.

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Rayon-style prelude.
pub mod prelude {
    pub use crate::{IntoParallelIterator, ParIter, ParMap};
}

/// Conversion into a (shim) parallel iterator.
pub trait IntoParallelIterator {
    /// Item type produced.
    type Item: Send;
    /// Materialize the items.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

impl IntoParallelIterator for core::ops::Range<usize> {
    type Item = usize;
    fn into_par_iter(self) -> ParIter<usize> {
        ParIter { items: self.collect() }
    }
}

impl IntoParallelIterator for core::ops::RangeInclusive<usize> {
    type Item = usize;
    fn into_par_iter(self) -> ParIter<usize> {
        ParIter { items: self.collect() }
    }
}

impl IntoParallelIterator for core::ops::Range<u64> {
    type Item = u64;
    fn into_par_iter(self) -> ParIter<u64> {
        ParIter { items: self.collect() }
    }
}

/// Materialized item sequence awaiting a parallel stage.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Parallel map stage.
    pub fn map<O: Send, F: Fn(T) -> O + Sync>(self, f: F) -> ParMap<T, F> {
        ParMap { items: self.items, f }
    }

    /// Collect the (unmapped) items.
    pub fn collect<C: From<Vec<T>>>(self) -> C {
        C::from(self.items)
    }
}

/// A pending parallel map, executed by `collect`/`sum`.
pub struct ParMap<T, F> {
    items: Vec<T>,
    f: F,
}

impl<T: Send, O: Send, F: Fn(T) -> O + Sync> ParMap<T, F> {
    fn run(self) -> Vec<O> {
        parallel_map(self.items, &self.f)
    }

    /// Execute the map on all cores and collect in input order.
    pub fn collect<C: From<Vec<O>>>(self) -> C {
        C::from(self.run())
    }

    /// Execute the map and sum the results.
    pub fn sum<S: core::iter::Sum<O>>(self) -> S {
        self.run().into_iter().sum()
    }
}

/// Below this many items handing work to another thread costs more than
/// the mapped work (a wake-up costs microseconds; tiny maps cost
/// nanoseconds): run the map inline on the calling thread instead.
const SEQUENTIAL_CUTOFF: usize = 4;

fn parallel_map<T: Send, O: Send, F: Fn(T) -> O + Sync>(items: Vec<T>, f: &F) -> Vec<O> {
    let threads = match items.len() {
        n if n < SEQUENTIAL_CUTOFF => 1,
        n => pool_threads().min(n),
    };
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    // Threads pull the next `(index, item)` as they become free, so items
    // of very different cost (a response table's flow-heavy high node
    // counts beside its cheap low ones) still keep every thread busy to
    // the end.
    let len = items.len();
    let queue = Mutex::new(items.into_iter().enumerate());
    let mapped = Mutex::new(Vec::with_capacity(len));
    let drain = || {
        let mut mine = Vec::new();
        loop {
            // The guard is dropped before `f` runs: a panicking item
            // leaves the queue usable for the other threads.
            let next = queue.lock().expect("no item is mapped under the lock").next();
            let Some((index, item)) = next else { break };
            mine.push((index, f(item)));
        }
        mapped.lock().expect("no item is mapped under the lock").append(&mut mine);
    };
    if fan_out(threads - 1, &drain) {
        panic!("parallel map worker panicked");
    }
    let mut mapped = mapped.into_inner().expect("no item is mapped under the lock");
    mapped.sort_unstable_by_key(|&(index, _)| index);
    mapped.into_iter().map(|(_, o)| o).collect()
}

/// Threads a map fans out over: the caller plus the pool's workers, whom
/// the first call starts — one per available core besides the caller.
/// Workers serve the process until it exits, so their handles are dropped.
/// A worker that fails to start only narrows the fan-out: a map finishes
/// on its calling thread alone if it has to.
fn pool_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        let mut threads = 1;
        for i in 1..cores {
            let worker = std::thread::Builder::new().name(format!("rayon-shim-{i}"));
            if worker.spawn(|| POOL.work()).is_ok() {
                threads += 1;
            }
        }
        threads
    })
}

/// A queued helper of one map: that map's drain, tagged with its token.
struct Job {
    token: u64,
    drain: &'static (dyn Fn() + Sync),
}

/// Helper jobs, queued and running, of every map in flight.
struct Jobs {
    /// Helpers no thread has started, oldest first.
    queued: VecDeque<Job>,
    /// The token of every helper a thread is running, once per helper.
    running: Vec<u64>,
    /// Token of the next map.
    next_token: u64,
}

/// One queue under one lock; `changed` signals both "a job was queued"
/// and "a job finished".
struct Pool {
    jobs: Mutex<Jobs>,
    changed: Condvar,
}

static POOL: Pool = Pool {
    jobs: Mutex::new(Jobs { queued: VecDeque::new(), running: Vec::new(), next_token: 0 }),
    changed: Condvar::new(),
};

impl Pool {
    fn lock(&self) -> MutexGuard<'_, Jobs> {
        // No code under this lock panics, and every update leaves `Jobs`
        // valid; recovering instead of panicking keeps `fan_out` free of
        // unwinds (see its SAFETY comment).
        self.jobs.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Run the oldest queued job, or sleep until the queue changes if there
    /// is none; either way the lock is held again on return.
    fn step<'a>(&'a self, mut jobs: MutexGuard<'a, Jobs>) -> MutexGuard<'a, Jobs> {
        let Some(job) = jobs.queued.pop_front() else {
            return self.changed.wait(jobs).unwrap_or_else(PoisonError::into_inner);
        };
        jobs.running.push(job.token);
        drop(jobs);
        (job.drain)();
        let mut jobs = self.lock();
        if let Some(at) = jobs.running.iter().position(|&t| t == job.token) {
            jobs.running.swap_remove(at);
        }
        self.changed.notify_all();
        jobs
    }

    /// A worker's life: run queued jobs as they come.
    fn work(&self) {
        let mut jobs = self.lock();
        loop {
            jobs = self.step(jobs);
        }
    }
}

/// Run `drain` on the calling thread and on up to `helpers` pool threads
/// that come free meanwhile; returns once every run of it has returned,
/// `true` if one of them panicked.
///
/// The caller removes the helpers no thread has started once its own run
/// is over, and while it waits for the started ones it runs other maps'
/// queued helpers. A wait thus depends only on runs already under way,
/// so nested maps (a sweep whose items map again) and maps from several
/// threads at once cannot deadlock, and no thread idles while work is
/// queued.
fn fan_out(helpers: usize, drain: &(dyn Fn() + Sync)) -> bool {
    // Set before the run that panicked returns, read after its token has
    // left `running` under the pool's lock: the lock orders the two.
    let panicked = AtomicBool::new(false);
    let guarded = || {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(drain)) {
            panicked.store(true, Ordering::Relaxed);
            // A payload's destructor may panic in turn; a run must not.
            std::mem::forget(payload);
        }
    };
    let job: &(dyn Fn() + Sync) = &guarded;
    // SAFETY: only the lifetime changes. `job` borrows this frame
    // (`guarded`, `panicked`) and, through `drain`, the caller's; other
    // threads reach it only through the `Job`s pushed below with `token`,
    // and this function neither returns nor unwinds while one of those is
    // queued or running:
    // - Nothing from the push to the end of the loop below unwinds:
    //   `guarded` catches every panic of `drain` and forgets its payload,
    //   the pool's lock is recovered rather than unwrapped and nothing
    //   under it panics, and the jobs of other maps that `step` runs here
    //   are `guarded` closures of their own.
    // - Once its own run is over this thread removes, under the lock, the
    //   jobs no thread has started: none can start afterwards.
    // - A thread that pops a job puts `token` in `running` under the same
    //   lock and takes it out, under the lock again, only after the job
    //   has returned; the loop ends only when `running` holds no `token`.
    let job = unsafe { std::mem::transmute::<&(dyn Fn() + Sync), &'static (dyn Fn() + Sync)>(job) };
    let mut jobs = POOL.lock();
    let token = jobs.next_token;
    jobs.next_token = token.wrapping_add(1);
    jobs.queued.extend((0..helpers).map(|_| Job { token, drain: job }));
    drop(jobs);
    POOL.changed.notify_all();
    job();
    let mut jobs = POOL.lock();
    jobs.queued.retain(|queued| queued.token != token);
    while jobs.running.contains(&token) {
        jobs = POOL.step(jobs);
    }
    panicked.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<usize> = (0..1000usize).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v, (0..1000).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn vec_and_inclusive_ranges_work() {
        let v: Vec<i32> = vec![3, 1, 2].into_par_iter().map(|x| x + 1).collect();
        assert_eq!(v, vec![4, 2, 3]);
        let w: Vec<usize> = (1..=4usize).into_par_iter().map(|x| x * x).collect();
        assert_eq!(w, vec![1, 4, 9, 16]);
    }

    #[test]
    fn sum_works() {
        let s: usize = (0..100usize).into_par_iter().map(|x| x).sum();
        assert_eq!(s, 4950);
    }

    #[test]
    fn small_inputs_run_on_the_calling_thread() {
        // Inputs below the cutoff must not pay for thread spawns: the map
        // runs inline, so every item sees the caller's thread id.
        let caller = std::thread::current().id();
        let ids: Vec<_> =
            vec![1, 2, 3].into_par_iter().map(move |_| std::thread::current().id()).collect();
        assert_eq!(ids.len(), 3);
        assert!(ids.iter().all(|id| *id == caller), "sub-cutoff map left the calling thread");
    }

    #[test]
    fn a_slow_item_does_not_hold_back_the_items_behind_it() {
        use std::sync::{Condvar, Mutex};
        use std::time::Duration;
        if std::thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
            return; // one core: the map runs inline, there is nothing to balance
        }
        // Item 0 finishes only once every other item has: with items handed
        // out one by one the other threads drain them meanwhile, while a
        // thread owning a contiguous chunk `0..k` would sit on items `1..k`
        // and run into the timeout.
        const N: usize = 24;
        let others_done = (Mutex::new(0usize), Condvar::new());
        let out: Vec<(usize, bool, std::thread::ThreadId)> = (0..N)
            .into_par_iter()
            .map(|i| {
                let (count, changed) = &others_done;
                let me = std::thread::current().id();
                if i == 0 {
                    let guard = count.lock().unwrap();
                    let (guard, _) = changed
                        .wait_timeout_while(guard, Duration::from_secs(20), |done| *done < N - 1)
                        .unwrap();
                    (i, *guard == N - 1, me)
                } else {
                    *count.lock().unwrap() += 1;
                    changed.notify_all();
                    (i, true, me)
                }
            })
            .collect();
        assert!(out[0].1, "the items behind the slow one waited for it");
        assert_eq!(out.iter().map(|o| o.0).collect::<Vec<_>>(), (0..N).collect::<Vec<_>>());
        assert!(out[1..].iter().any(|o| o.2 != out[0].2), "a second thread took part");
    }

    #[test]
    #[should_panic(expected = "parallel map worker panicked")]
    fn a_panicking_item_panics_the_caller() {
        let _: Vec<usize> = (0..16usize)
            .into_par_iter()
            .map(|i| if i == 5 { panic!("item 5 fails") } else { i })
            .collect();
    }
}
