//! The persistent pool behind `into_par_iter().map()`: nesting, concurrent
//! callers, panics, and threads that outlive a map.
//!
//! Every test holds `SERIAL`, so the pool's workers serve one test at a
//! time: what a test counts of the threads running its items is not
//! muddied by another test's caller lending a hand. Each body runs under
//! [`within_timeout`], so a deadlock fails the test instead of hanging it.

use rayon::prelude::*;
use std::cell::Cell;
use std::collections::HashSet;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{mpsc, Barrier, Mutex, PoisonError};
use std::thread::{self, ThreadId};
use std::time::Duration;

static SERIAL: Mutex<()> = Mutex::new(());

const TIMEOUT: Duration = Duration::from_secs(60);

/// Run `body` on a fresh thread while holding `SERIAL`; its result, its
/// panic, or a panic of our own if it has not finished after `TIMEOUT`.
fn within_timeout<T: Send + 'static>(body: impl FnOnce() -> T + Send + 'static) -> T {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let (done, result) = mpsc::channel();
    thread::spawn(move || done.send(panic::catch_unwind(AssertUnwindSafe(body))));
    match result.recv_timeout(TIMEOUT) {
        Ok(Ok(value)) => value,
        Ok(Err(payload)) => panic::resume_unwind(payload),
        Err(_) => panic!("no result after {TIMEOUT:?}: the pool deadlocked"),
    }
}

fn cores() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// `f` of `0..cores()` on a thread each. The map has `cores()` items, or
/// the shim's sequential cutoff of 4 if that is more; its first `cores()`
/// items wait at a barrier until all of them have started, so each holds
/// a thread of its own until the caller and every pool worker have taken
/// one. The other items do nothing.
fn one_item_per_thread<O: Send>(f: impl Fn(usize) -> O + Sync) -> Vec<O> {
    let all_started = Barrier::new(cores());
    let mapped: Vec<Option<O>> = (0..cores().max(4))
        .into_par_iter()
        .map(|i| {
            (i < cores()).then(|| {
                all_started.wait();
                f(i)
            })
        })
        .collect();
    mapped.into_iter().flatten().collect()
}

/// The message a map's panic carries.
fn panic_message(run: impl FnOnce()) -> String {
    let payload = panic::catch_unwind(AssertUnwindSafe(run)).expect_err("the map panicked");
    match payload.downcast::<&str>() {
        Ok(s) => s.to_string(),
        Err(payload) => *payload.downcast::<String>().expect("a string payload"),
    }
}

#[test]
fn three_level_nested_maps_keep_input_order() {
    let got = within_timeout(|| {
        (0..6usize)
            .into_par_iter()
            .map(|i| {
                (0..5usize)
                    .into_par_iter()
                    .map(|j| (0..7usize).into_par_iter().map(|k| 100 * i + 10 * j + k).collect())
                    .collect()
            })
            .collect::<Vec<Vec<Vec<usize>>>>()
    });
    let want: Vec<Vec<Vec<usize>>> = (0..6)
        .map(|i| (0..5).map(|j| (0..7).map(|k| 100 * i + 10 * j + k).collect()).collect())
        .collect();
    assert_eq!(got, want);
}

#[test]
fn concurrent_callers_each_get_their_own_order() {
    // Eight threads map at once, the way the daemon's connection threads
    // would: each sees its own items, in its own order.
    within_timeout(|| {
        let start = Barrier::new(8);
        thread::scope(|scope| {
            for caller in 0..8usize {
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    for round in 0..50usize {
                        let base = 1_000_000 * caller + 1_000 * round;
                        let got: Vec<usize> =
                            (0..64usize).into_par_iter().map(|i| base + i).collect();
                        assert_eq!(got, (base..base + 64).collect::<Vec<_>>());
                    }
                });
            }
        });
    });
}

#[test]
fn a_panic_in_a_helper_surfaces_and_the_pool_survives() {
    if cores() < 2 {
        return; // one core: no helper runs an item
    }
    within_timeout(|| {
        let caller = thread::current().id();
        let message = panic_message(|| {
            one_item_per_thread(|_| assert_eq!(thread::current().id(), caller, "helper fails"));
        });
        assert_eq!(message, "parallel map worker panicked");
        // The worker that panicked is still there: without it the next
        // map's items could not all start.
        assert_eq!(one_item_per_thread(|i| i), (0..cores()).collect::<Vec<_>>());
    });
}

#[test]
fn a_panic_in_the_callers_own_item_surfaces_and_the_pool_survives() {
    if cores() < 2 {
        return; // one core: the map runs inline and its item's panic is the map's
    }
    within_timeout(|| {
        let caller = thread::current().id();
        let message = panic_message(|| {
            one_item_per_thread(|_| assert_ne!(thread::current().id(), caller, "caller fails"));
        });
        assert_eq!(message, "parallel map worker panicked");
        assert_eq!(one_item_per_thread(|i| i), (0..cores()).collect::<Vec<_>>());
    });
}

#[test]
fn sequential_maps_spawn_no_thread_per_call() {
    let ids = within_timeout(|| {
        let mut ids = HashSet::<ThreadId>::new();
        for _ in 0..1000 {
            let run: Vec<ThreadId> =
                (0..8usize).into_par_iter().map(|_| thread::current().id()).collect();
            ids.extend(run);
        }
        ids
    });
    assert!(ids.len() <= cores(), "{} threads ran the items of 1000 maps", ids.len());
}

#[test]
fn thread_local_state_outlives_a_map() {
    // What the simulator's thread-local buffer pool relies on: a thread
    // that ran an item of one map runs the next map's with its
    // thread-locals as the first map left them.
    thread_local! {
        static ITEMS_RUN: Cell<usize> = const { Cell::new(0) };
    }
    let bump = |_| ITEMS_RUN.with(|n| n.replace(n.get() + 1) + 1);
    let (first, second) =
        within_timeout(move || (one_item_per_thread(bump), one_item_per_thread(bump)));
    assert_eq!(first, vec![1; cores()]);
    assert_eq!(second, vec![2; cores()], "a thread of the second map started afresh");
}
