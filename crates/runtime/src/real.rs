//! Real (non-simulated) task executor: a shared-memory thread pool that
//! honours the same STF dependence rules as the simulator.
//!
//! The paper's third contribution is "a real implementation of the method
//! to enable the application to adapt during execution, demonstrating the
//! low overhead of the methods" (their Fig. 7). This executor provides the
//! real-clock substrate for that measurement: tasks are actual kernel
//! closures over in-memory blocks, dependencies are inferred exactly like
//! in [`crate::SimRuntime`], and `run` returns genuine wall-clock time.
//!
//! Distribution across cluster nodes is *not* part of this executor (the
//! paper's distributed runs are reproduced in simulation — see DESIGN.md);
//! it models one shared-memory node with a configurable worker count.

use crate::stf::DepTracker;
use crate::task::{Access, TaskId};
use std::collections::VecDeque;
use std::sync::{
    Arc, Condvar, LockResult, Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};
use std::time::{Duration, Instant};

/// The guard of a lock, poisoned or not: a block or the scheduling state
/// is valid after every single update, so a task closure that panicked on
/// another worker leaves nothing half-written behind the lock.
fn unpoisoned<G>(guard: LockResult<G>) -> G {
    guard.unwrap_or_else(PoisonError::into_inner)
}

/// Handle to a block stored in a [`RealRuntime`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockHandle(pub usize);

/// Read-only view of the block store passed to task closures.
///
/// Locks are uncontended by construction (the dependence tracker already
/// serialized conflicting accesses); they exist as a safety net and to
/// satisfy the borrow checker across threads.
pub struct StoreView<T> {
    blocks: Vec<Arc<RwLock<T>>>,
}

impl<T> StoreView<T> {
    /// Shared read access to a block.
    pub fn read(&self, h: BlockHandle) -> RwLockReadGuard<'_, T> {
        unpoisoned(self.blocks[h.0].read())
    }

    /// Exclusive write access to a block.
    pub fn write(&self, h: BlockHandle) -> RwLockWriteGuard<'_, T> {
        unpoisoned(self.blocks[h.0].write())
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }
}

type TaskFn<T> = Box<dyn FnOnce(&StoreView<T>) + Send>;

struct PendingTask<T> {
    unmet: usize,
    dependents: Vec<usize>,
    closure: Option<TaskFn<T>>,
    done: bool,
}

/// Shared-memory task executor with STF dependence inference.
pub struct RealRuntime<T: Send + Sync + 'static> {
    blocks: Vec<Arc<RwLock<T>>>,
    deps: DepTracker,
    tasks: Vec<PendingTask<T>>,
    n_workers: usize,
}

impl<T: Send + Sync + 'static> RealRuntime<T> {
    /// Executor with `n_workers` OS threads per [`RealRuntime::run`] call.
    ///
    /// # Panics
    /// Panics if `n_workers` is zero.
    pub fn new(n_workers: usize) -> Self {
        assert!(n_workers > 0, "need at least one worker");
        RealRuntime { blocks: Vec::new(), deps: DepTracker::new(), tasks: Vec::new(), n_workers }
    }

    /// Store a block and get its handle.
    pub fn register(&mut self, value: T) -> BlockHandle {
        self.blocks.push(Arc::new(RwLock::new(value)));
        BlockHandle(self.blocks.len() - 1)
    }

    /// Read a block from outside any task (e.g. to collect results). Only
    /// sound between runs.
    pub fn block(&self, h: BlockHandle) -> RwLockReadGuard<'_, T> {
        unpoisoned(self.blocks[h.0].read())
    }

    /// Submit a task accessing `accesses` and executing `f`.
    pub fn submit(
        &mut self,
        accesses: Vec<(BlockHandle, Access)>,
        f: impl FnOnce(&StoreView<T>) + Send + 'static,
    ) -> TaskId {
        let id = TaskId(self.tasks.len());
        // Reuse the STF tracker through the shared DataHandle currency.
        let as_data: Vec<_> =
            accesses.iter().map(|&(h, a)| (crate::data::DataHandle(h.0), a)).collect();
        let dep_list = self.deps.record(id, &as_data);
        let mut unmet = 0;
        for d in &dep_list {
            if !self.tasks[d.0].done {
                self.tasks[d.0].dependents.push(id.0);
                unmet += 1;
            }
        }
        self.tasks.push(PendingTask {
            unmet,
            dependents: Vec::new(),
            closure: Some(Box::new(f)),
            done: false,
        });
        id
    }

    /// Execute every pending task, respecting dependencies; returns the
    /// wall-clock duration of the run.
    pub fn run(&mut self) -> Duration {
        let started = Instant::now();
        let pending: Vec<usize> = (0..self.tasks.len()).filter(|&i| !self.tasks[i].done).collect();
        if pending.is_empty() {
            return started.elapsed();
        }
        let view = StoreView { blocks: self.blocks.clone() };
        let total = pending.len();

        // Shared scheduling state, all under one mutex; `wake` signals a
        // new ready task or the end of the run.
        struct Shared<T> {
            unmet: Vec<usize>,
            dependents: Vec<Vec<usize>>,
            closures: Vec<Option<TaskFn<T>>>,
            ready: VecDeque<usize>,
            completed: usize,
        }
        // (A done task gave its closure to the run that finished it.)
        let shared = Mutex::new(Shared {
            unmet: self.tasks.iter().map(|t| t.unmet).collect(),
            dependents: self.tasks.iter().map(|t| t.dependents.clone()).collect(),
            closures: self.tasks.iter_mut().map(|t| t.closure.take()).collect(),
            ready: pending.iter().copied().filter(|&i| self.tasks[i].unmet == 0).collect(),
            completed: 0,
        });
        let wake = Condvar::new();

        std::thread::scope(|scope| {
            for _ in 0..self.n_workers {
                scope.spawn(|| {
                    let mut s = unpoisoned(shared.lock());
                    loop {
                        // Pop a ready task or wait for one; leave once
                        // every task has completed.
                        let i = loop {
                            if s.completed == total {
                                return;
                            }
                            match s.ready.pop_front() {
                                Some(i) => break i,
                                None => s = unpoisoned(wake.wait(s)),
                            }
                        };
                        let closure = s.closures[i].take();
                        drop(s);
                        if let Some(f) = closure {
                            f(&view);
                        }
                        s = unpoisoned(shared.lock());
                        s.completed += 1;
                        let deps = std::mem::take(&mut s.dependents[i]);
                        for d in deps {
                            s.unmet[d] -= 1;
                            if s.unmet[d] == 0 {
                                s.ready.push_back(d);
                                wake.notify_one();
                            }
                        }
                        if s.completed == total {
                            wake.notify_all();
                        }
                    }
                });
            }
        });

        for &i in &pending {
            self.tasks[i].done = true;
            self.tasks[i].unmet = 0;
        }
        started.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_all_tasks() {
        let mut rt: RealRuntime<i64> = RealRuntime::new(4);
        let hs: Vec<BlockHandle> = (0..8).map(|_| rt.register(0)).collect();
        for &h in &hs {
            rt.submit(vec![(h, Access::ReadWrite)], move |s| {
                *s.write(h) += 1;
            });
        }
        rt.run();
        for &h in &hs {
            assert_eq!(*rt.block(h), 1);
        }
    }

    #[test]
    fn dependencies_are_respected() {
        // A chain of increments on one block: result must equal chain
        // length regardless of worker count, and each step must observe
        // the previous value (multiply-then-add detects reordering).
        let mut rt: RealRuntime<i64> = RealRuntime::new(8);
        let h = rt.register(1);
        for _ in 0..20 {
            rt.submit(vec![(h, Access::ReadWrite)], move |s| {
                let mut b = s.write(h);
                *b = *b * 2 + 1;
            });
        }
        rt.run();
        // x -> 2x+1 applied 20 times to 1: 2^20 + (2^20 - 1) = 2^21 - 1.
        assert_eq!(*rt.block(h), (1 << 21) - 1);
    }

    #[test]
    fn independent_tasks_parallelize() {
        // With 4 workers, peak concurrency of independent tasks must
        // exceed 1 (sleep-based, generous threshold to avoid flakiness).
        let mut rt: RealRuntime<i64> = RealRuntime::new(4);
        let concurrent = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        for _ in 0..8 {
            let h = rt.register(0);
            let c = concurrent.clone();
            let p = peak.clone();
            rt.submit(vec![(h, Access::Write)], move |_| {
                let now = c.fetch_add(1, Ordering::SeqCst) + 1;
                p.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(20));
                c.fetch_sub(1, Ordering::SeqCst);
            });
        }
        rt.run();
        assert!(peak.load(Ordering::SeqCst) >= 2, "no parallelism observed");
    }

    #[test]
    fn readers_run_after_writer() {
        let mut rt: RealRuntime<i64> = RealRuntime::new(4);
        let src = rt.register(0);
        let sinks: Vec<BlockHandle> = (0..4).map(|_| rt.register(0)).collect();
        rt.submit(vec![(src, Access::Write)], move |s| {
            *s.write(src) = 42;
        });
        for &k in &sinks {
            rt.submit(vec![(src, Access::Read), (k, Access::Write)], move |s| {
                let v = *s.read(src);
                *s.write(k) = v;
            });
        }
        rt.run();
        for &k in &sinks {
            assert_eq!(*rt.block(k), 42);
        }
    }

    #[test]
    fn successive_runs_reuse_state() {
        let mut rt: RealRuntime<i64> = RealRuntime::new(2);
        let h = rt.register(0);
        rt.submit(vec![(h, Access::ReadWrite)], move |s| {
            *s.write(h) += 5;
        });
        rt.run();
        assert_eq!(*rt.block(h), 5);
        // Second round; cross-run dependence handled (previous task done).
        rt.submit(vec![(h, Access::ReadWrite)], move |s| {
            *s.write(h) *= 3;
        });
        rt.run();
        assert_eq!(*rt.block(h), 15);
    }

    #[test]
    fn empty_run_is_fast_and_fine() {
        let mut rt: RealRuntime<i64> = RealRuntime::new(2);
        let d = rt.run();
        assert!(d < Duration::from_secs(1));
    }

    #[test]
    fn diamond_dependency() {
        //    a
        //   / \
        //  b   c
        //   \ /
        //    d   — d must observe both b's and c's effects.
        let mut rt: RealRuntime<i64> = RealRuntime::new(4);
        let a = rt.register(0);
        let b = rt.register(0);
        let c = rt.register(0);
        let d = rt.register(0);
        rt.submit(vec![(a, Access::Write)], move |s| *s.write(a) = 10);
        rt.submit(vec![(a, Access::Read), (b, Access::Write)], move |s| {
            *s.write(b) = *s.read(a) + 1;
        });
        rt.submit(vec![(a, Access::Read), (c, Access::Write)], move |s| {
            *s.write(c) = *s.read(a) + 2;
        });
        rt.submit(vec![(b, Access::Read), (c, Access::Read), (d, Access::Write)], move |s| {
            *s.write(d) = *s.read(b) * *s.read(c);
        });
        rt.run();
        assert_eq!(*rt.block(d), 11 * 12);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _: RealRuntime<i64> = RealRuntime::new(0);
    }
}
