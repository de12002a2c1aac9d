//! Discrete-event simulation core: ordered simulated time and an event
//! queue with deterministic tie-breaking.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Simulated time in seconds. Wraps `f64` with a total order (times are
/// never NaN by construction).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct SimTime(pub f64);

impl SimTime {
    /// Time zero.
    pub(crate) const ZERO: SimTime = SimTime(0.0);

    /// Advances by `secs`.
    pub(crate) fn after(self, secs: f64) -> SimTime {
        debug_assert!(secs >= 0.0, "durations must be non-negative");
        SimTime(self.0 + secs)
    }

    /// Seconds since time zero.
    pub(crate) fn secs(self) -> f64 {
        self.0
    }
}

impl Eq for SimTime {}

impl PartialOrd for SimTime {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.partial_cmp(&other.0).expect("SimTime is never NaN")
    }
}

struct QueueEntry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for QueueEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for QueueEntry<E> {}
impl<E> PartialOrd for QueueEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for QueueEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse for earliest-first, breaking
        // ties by insertion order for determinism.
        other.at.cmp(&self.at).then(other.seq.cmp(&self.seq))
    }
}

/// An event queue ordered by simulated time (FIFO among equal times).
pub(crate) struct EventQueue<E> {
    heap: BinaryHeap<QueueEntry<E>>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub(crate) fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Current simulated time (time of the last popped event).
    pub(crate) fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules an event at an absolute time.
    ///
    /// # Panics
    /// Panics if `at` precedes the current time (causality violation).
    pub(crate) fn schedule(&mut self, at: SimTime, event: E) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.heap.push(QueueEntry {
            at,
            seq: self.next_seq,
            event,
        });
        self.next_seq += 1;
    }

    /// Schedules an event `secs` from now.
    pub(crate) fn schedule_in(&mut self, secs: f64, event: E) {
        self.schedule(self.now.after(secs), event);
    }

    /// Pops the earliest event, advancing the clock.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| {
            self.now = e.at;
            (e.at, e.event)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(3.0), "c");
        q.schedule(SimTime(1.0), "a");
        q.schedule(SimTime(2.0), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(q.now(), SimTime(3.0));
    }

    #[test]
    fn fifo_among_ties() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(1.0), 1);
        q.schedule(SimTime(1.0), 2);
        q.schedule(SimTime(1.0), 3);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(5.0), "first");
        q.pop();
        q.schedule_in(2.5, "second");
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime(7.5));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn past_scheduling_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(5.0), ());
        q.pop();
        q.schedule(SimTime(1.0), ());
    }

    #[test]
    fn simtime_ordering() {
        assert!(SimTime(1.0) < SimTime(2.0));
        assert_eq!(SimTime(1.0).after(0.5), SimTime(1.5));
        assert_eq!(SimTime(2.0).secs(), 2.0);
    }
}
