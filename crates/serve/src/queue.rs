//! A bounded, blocking MPMC job queue with explicit close.
//!
//! The queue is the backpressure point of the service: connection
//! threads [`JobQueue::push`] and **block** while the queue is full, so a
//! flood of submissions slows clients down instead of growing an
//! unbounded backlog; worker threads [`JobQueue::pop`] and block while it
//! is empty. [`JobQueue::close`] wakes everyone: pending and future
//! pushes fail (returning the job to the caller), pops drain what is left
//! and then return `None` — the worker-pool shutdown signal.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

use mc_rng::sched;

use crate::sync::{lock_unpoisoned, wait_unpoisoned};

/// Error returned by [`JobQueue::push`] on a closed queue; carries the
/// rejected job back to the caller.
#[derive(Debug, PartialEq, Eq)]
pub struct Closed<T>(pub T);

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded blocking queue. See the [module documentation](self).
pub struct JobQueue<T> {
    state: Mutex<QueueState<T>>,
    not_full: Condvar,
    not_empty: Condvar,
    capacity: usize,
}

impl<T> JobQueue<T> {
    /// Creates a queue holding at most `capacity` jobs (min 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Jobs currently queued.
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.state).items.len()
    }

    /// True iff no job is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueues a job, blocking while the queue is full (the
    /// backpressure path).
    ///
    /// # Errors
    ///
    /// Returns [`Closed`] with the job if the queue was closed before
    /// space became available.
    pub fn push(&self, job: T) -> Result<(), Closed<T>> {
        sched::yield_point(sched::site::QUEUE_PUSH);
        let mut state = lock_unpoisoned(&self.state);
        while state.items.len() >= self.capacity && !state.closed {
            state = wait_unpoisoned(&self.not_full, state);
        }
        if state.closed {
            return Err(Closed(job));
        }
        state.items.push_back(job);
        drop(state);
        sched::yield_point(sched::site::QUEUE_PUSH);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Dequeues a job, blocking while the queue is empty. Returns `None`
    /// once the queue is closed *and* drained.
    pub fn pop(&self) -> Option<T> {
        sched::yield_point(sched::site::QUEUE_POP);
        let mut state = lock_unpoisoned(&self.state);
        loop {
            if let Some(job) = state.items.pop_front() {
                drop(state);
                sched::yield_point(sched::site::QUEUE_POP);
                self.not_full.notify_one();
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = wait_unpoisoned(&self.not_empty, state);
        }
    }

    /// Closes the queue: wakes all blocked pushers (which fail) and
    /// poppers (which drain, then observe the close).
    pub fn close(&self) {
        lock_unpoisoned(&self.state).closed = true;
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn fifo_order() {
        let q = JobQueue::new(4);
        for i in 0..4 {
            q.push(i).unwrap();
        }
        assert_eq!(q.len(), 4);
        for i in 0..4 {
            assert_eq!(q.pop(), Some(i));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn push_blocks_until_pop_makes_room() {
        let q = Arc::new(JobQueue::new(1));
        q.push(0u32).unwrap();
        let q2 = Arc::clone(&q);
        let pusher = std::thread::spawn(move || q2.push(1).is_ok());
        // Give the pusher time to block on the full queue.
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(q.len(), 1, "second push must be blocked, not queued");
        assert_eq!(q.pop(), Some(0));
        assert!(pusher.join().unwrap(), "blocked push completes after pop");
        assert_eq!(q.pop(), Some(1));
    }

    #[test]
    fn close_wakes_poppers_and_fails_pushers() {
        let q = Arc::new(JobQueue::new(1));
        let q2 = Arc::clone(&q);
        let popper = std::thread::spawn(move || q2.pop());
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(popper.join().unwrap(), None);
        assert_eq!(q.push(7), Err(Closed(7)));
    }

    #[test]
    fn close_drains_remaining_items() {
        let q = JobQueue::new(4);
        q.push('a').unwrap();
        q.push('b').unwrap();
        q.close();
        assert_eq!(q.pop(), Some('a'));
        assert_eq!(q.pop(), Some('b'));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn blocked_pusher_fails_on_close() {
        let q = Arc::new(JobQueue::new(1));
        q.push(0u32).unwrap();
        let q2 = Arc::clone(&q);
        let pusher = std::thread::spawn(move || q2.push(1));
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(pusher.join().unwrap(), Err(Closed(1)));
    }

    /// The shutdown-under-contention scenario: many producers blocked on
    /// a full queue when `close` fires. Every blocked producer must be
    /// woken with its job returned (no deadlock), and the items that made
    /// it in must still drain cleanly.
    #[test]
    fn close_with_many_blocked_producers_drains_cleanly() {
        const PRODUCERS: usize = 8;
        let q = Arc::new(JobQueue::new(2));
        q.push(100usize).unwrap();
        q.push(101).unwrap();
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|i| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || q.push(i))
            })
            .collect();
        // Give every producer time to block on the full queue.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(q.len(), 2, "all extra pushes must be blocked");
        q.close();
        // No deadlock: every producer returns, and each gets its own job
        // back.
        let mut rejected: Vec<usize> = producers
            .into_iter()
            .map(|p| match p.join().expect("producer thread") {
                Err(Closed(job)) => job,
                Ok(()) => panic!("push succeeded after close on a full queue"),
            })
            .collect();
        rejected.sort_unstable();
        assert_eq!(rejected, (0..PRODUCERS).collect::<Vec<_>>());
        // Clean drain: the two accepted items come out, then None.
        assert_eq!(q.pop(), Some(100));
        assert_eq!(q.pop(), Some(101));
        assert_eq!(q.pop(), None);
    }
}
