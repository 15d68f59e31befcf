//! Offline drop-in replacement for the subset of `rayon` this workspace
//! uses: `into_par_iter().map(..).collect()`.
//!
//! Items are materialized eagerly and handed out one at a time, from one
//! shared queue, to scoped OS threads (one per available core); results are
//! put back in item-index order, so `collect` preserves item order exactly
//! like rayon's indexed parallel iterators, whichever worker ran the item.

use std::sync::Mutex;

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

/// Below this many items the spawn/join overhead dwarfs the mapped work
/// (scoped threads cost microseconds; tiny maps cost nanoseconds): run the
/// map inline on the calling thread instead.
const SEQUENTIAL_CUTOFF: usize = 4;

fn parallel_map<T: Send, O: Send, F: Fn(T) -> O + Sync>(items: Vec<T>, f: &F) -> Vec<O> {
    let threads =
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(items.len().max(1));
    if threads <= 1 || items.len() < SEQUENTIAL_CUTOFF {
        return items.into_iter().map(f).collect();
    }
    // Workers pull the next `(index, item)` as they become free, so items of
    // very different cost (a response table's flow-heavy high node counts
    // beside its cheap low ones) still keep every worker busy to the end.
    let queue = Mutex::new(items.into_iter().enumerate());
    let mut mapped: Vec<(usize, O)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        // The guard is dropped before `f` runs: a panicking
                        // item leaves the queue usable for the other workers.
                        let next = queue.lock().expect("no item is mapped under the lock").next();
                        let Some((index, item)) = next else { break };
                        mine.push((index, f(item)));
                    }
                    mine
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("parallel map worker panicked")).collect()
    });
    mapped.sort_unstable_by_key(|&(index, _)| index);
    mapped.into_iter().map(|(_, o)| o).collect()
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
        // out one by one the other workers drain them meanwhile, while a
        // worker owning a contiguous chunk `0..k` would sit on items `1..k`
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
        assert!(out[1..].iter().any(|o| o.2 != out[0].2), "a second worker took part");
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
