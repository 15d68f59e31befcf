//! Offline drop-in replacement for the subset of `crossbeam` this
//! workspace uses: an unbounded MPMC channel with cloneable senders *and*
//! receivers (std's `mpsc::Receiver` is single-consumer, so the runtime's
//! worker pool needs this shim).

/// Multi-producer multi-consumer channels.
pub mod channel {
    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Inner<T> {
        state: Mutex<State<T>>,
        ready: Condvar,
    }

    /// Error returned by [`Sender::send`] when all receivers are gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Receiver::recv`] when the channel is drained and
    /// all senders are gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Sending half; cloneable.
    pub struct Sender<T> {
        inner: Arc<Inner<T>>,
    }

    /// Receiving half; cloneable (MPMC).
    pub struct Receiver<T> {
        inner: Arc<Inner<T>>,
    }

    /// An unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let inner = Arc::new(Inner {
            state: Mutex::new(State { queue: VecDeque::new(), senders: 1, receivers: 1 }),
            ready: Condvar::new(),
        });
        (Sender { inner: inner.clone() }, Receiver { inner })
    }

    impl<T> Sender<T> {
        /// Enqueue a value; `Err` when every receiver has been dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut s = self.inner.state.lock().unwrap();
            if s.receivers == 0 {
                return Err(SendError(value));
            }
            s.queue.push_back(value);
            drop(s);
            self.inner.ready.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.inner.state.lock().unwrap().senders += 1;
            Sender { inner: self.inner.clone() }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut s = self.inner.state.lock().unwrap();
            s.senders -= 1;
            if s.senders == 0 {
                drop(s);
                self.inner.ready.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Dequeue a value, blocking while the channel is empty; `Err` once
        /// the channel is drained and every sender has been dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut s = self.inner.state.lock().unwrap();
            loop {
                if let Some(v) = s.queue.pop_front() {
                    return Ok(v);
                }
                if s.senders == 0 {
                    return Err(RecvError);
                }
                s = self.inner.ready.wait(s).unwrap();
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.inner.state.lock().unwrap().receivers += 1;
            Receiver { inner: self.inner.clone() }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.inner.state.lock().unwrap().receivers -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel;

    #[test]
    fn fifo_within_single_consumer() {
        let (tx, rx) = channel::unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
    }

    #[test]
    fn recv_errors_after_all_senders_drop() {
        let (tx, rx) = channel::unbounded::<u32>();
        tx.send(9).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(9));
        assert!(rx.recv().is_err());
    }

    #[test]
    fn mpmc_distributes_all_items() {
        let (tx, rx) = channel::unbounded::<usize>();
        let n = 1000;
        std::thread::scope(|s| {
            let consumers: Vec<_> = (0..4)
                .map(|_| {
                    let rx = rx.clone();
                    s.spawn(move || {
                        let mut got = Vec::new();
                        while let Ok(v) = rx.recv() {
                            got.push(v);
                        }
                        got
                    })
                })
                .collect();
            drop(rx);
            for i in 0..n {
                tx.send(i).unwrap();
            }
            drop(tx);
            let mut all: Vec<usize> =
                consumers.into_iter().flat_map(|c| c.join().unwrap()).collect();
            all.sort_unstable();
            assert_eq!(all, (0..n).collect::<Vec<_>>());
        });
    }

    #[test]
    fn send_errors_after_all_receivers_drop() {
        let (tx, rx) = channel::unbounded::<u32>();
        drop(rx);
        assert!(tx.send(1).is_err());
    }
}
