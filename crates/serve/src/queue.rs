//! The admission-controlled run queue: bounded, priority-ordered,
//! drainable.
//!
//! `run` requests that pass quota go here; worker threads pop them.
//! Admission is all-or-nothing at push time — a full queue rejects
//! immediately (the service turns that into `queue-full` +
//! `retry_after_s`) rather than blocking the connection thread, which is
//! what keeps the estimate-only fast lane fast. Within the queue, higher
//! priority pops first and ties break FIFO by sequence number, matching
//! the lane discipline of the shared speculation pool
//! ([`cumulon_cluster::SpecPool`]).

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

struct QueueState<T> {
    items: VecDeque<(u8, u64, T)>,
    next_seq: u64,
    closed: bool,
}

/// A bounded, priority-ordered, multi-producer multi-consumer queue.
pub(crate) struct JobQueue<T> {
    depth: usize,
    state: Mutex<QueueState<T>>,
    cvar: Condvar,
}

impl<T> JobQueue<T> {
    /// An empty queue admitting at most `depth` items at once.
    pub(crate) fn new(depth: usize) -> JobQueue<T> {
        JobQueue {
            depth: depth.max(1),
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                next_seq: 0,
                closed: false,
            }),
            cvar: Condvar::new(),
        }
    }

    /// Maximum number of queued items.
    pub(crate) fn depth(&self) -> usize {
        self.depth
    }

    /// Tries to admit `item` at `priority`. Returns the queue length
    /// after insertion, or gives the item back (`Err`) when the queue is
    /// full or closed — never blocks.
    pub(crate) fn push(&self, priority: u8, item: T) -> Result<usize, T> {
        let mut st = self.state.lock().unwrap();
        if st.closed || st.items.len() >= self.depth {
            return Err(item);
        }
        let seq = st.next_seq;
        st.next_seq += 1;
        st.items.push_back((priority, seq, item));
        let len = st.items.len();
        drop(st);
        self.cvar.notify_one();
        Ok(len)
    }

    /// Pops the highest-priority item (FIFO within a priority), blocking
    /// while the queue is open and empty. Returns `None` once the queue
    /// is closed *and* drained — the worker-shutdown signal.
    pub(crate) fn pop(&self) -> Option<T> {
        let mut st = self.state.lock().unwrap();
        loop {
            if let Some(best) = st
                .items
                .iter()
                .enumerate()
                .max_by_key(|(_, (p, seq, _))| (*p, std::cmp::Reverse(*seq)))
                .map(|(i, _)| i)
            {
                return st.items.remove(best).map(|(_, _, item)| item);
            }
            if st.closed {
                return None;
            }
            st = self.cvar.wait(st).unwrap();
        }
    }

    /// Closes the queue: future pushes reject, queued items still drain
    /// through `pop`, and blocked poppers wake to observe the close.
    pub(crate) fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.cvar.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn bounded_push_rejects_when_full() {
        let q = JobQueue::new(2);
        assert_eq!(q.push(0, "a"), Ok(1));
        assert_eq!(q.push(0, "b"), Ok(2));
        assert_eq!(q.push(0, "c"), Err("c"));
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.push(0, "c"), Ok(2));
    }

    #[test]
    fn priority_then_fifo_order() {
        let q = JobQueue::new(8);
        q.push(0, "low-1").unwrap();
        q.push(5, "hi-1").unwrap();
        q.push(0, "low-2").unwrap();
        q.push(5, "hi-2").unwrap();
        assert_eq!(q.pop(), Some("hi-1"));
        assert_eq!(q.pop(), Some("hi-2"));
        assert_eq!(q.pop(), Some("low-1"));
        assert_eq!(q.pop(), Some("low-2"));
    }

    #[test]
    fn close_drains_then_signals_shutdown() {
        let q = JobQueue::new(4);
        q.push(0, 1).unwrap();
        q.push(0, 2).unwrap();
        q.close();
        assert_eq!(q.push(0, 3), Err(3));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn close_wakes_blocked_poppers() {
        let q = Arc::new(JobQueue::<u32>::new(1));
        let q2 = Arc::clone(&q);
        let waiter = std::thread::spawn(move || q2.pop());
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(waiter.join().unwrap(), None);
    }
}
