//! Closed-loop window accounting: which correlation ids are in flight, for
//! which request, since when. A reply must answer exactly one in-flight
//! correlation; anything else is a protocol failure.

use std::collections::BTreeMap;

/// The in-flight set of one connection, at most `depth` deep.
#[derive(Debug)]
pub struct Window<T> {
    depth: usize,
    in_flight: BTreeMap<u64, (usize, T)>,
}

impl<T> Window<T> {
    /// An empty window holding at most `depth` requests.
    pub fn new(depth: usize) -> Self {
        assert!(depth >= 1, "a window must hold at least one request");
        Window {
            depth,
            in_flight: BTreeMap::new(),
        }
    }

    /// Whether another request may be sent.
    pub fn has_room(&self) -> bool {
        self.in_flight.len() < self.depth
    }

    /// Requests sent and not yet answered.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Records that `correlation` was sent for request `index` at `sent`.
    ///
    /// # Panics
    /// If the window is full or the correlation is already in flight: both
    /// are bugs in the driving loop, not in the program under test.
    pub fn sent(&mut self, correlation: u64, index: usize, sent: T) {
        assert!(self.has_room(), "window overfilled");
        let prev = self.in_flight.insert(correlation, (index, sent));
        assert!(prev.is_none(), "correlation {correlation} sent twice");
    }

    /// Matches a reply to its request, returning the request index and its
    /// send time; the correlation leaves the window. `None` when it was
    /// never sent or was already answered.
    pub fn answered(&mut self, correlation: u64) -> Option<(usize, T)> {
        self.in_flight.remove(&correlation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_correlation_is_answered_exactly_once() {
        let mut w = Window::new(4);
        let mut answered = Vec::new();
        // Drive 10 requests through a depth-4 window, answering in a
        // scrambled (completion) order.
        let mut pending: Vec<u64> = Vec::new();
        for index in 0..10usize {
            while !w.has_room() {
                let c = pending.remove(pending.len() / 2);
                answered.push(w.answered(c).expect("in flight").0);
            }
            let correlation = 100 + index as u64;
            w.sent(correlation, index, index * 7);
            pending.push(correlation);
        }
        while let Some(c) = pending.pop() {
            let (index, sent) = w.answered(c).expect("in flight");
            assert_eq!(sent, index * 7);
            answered.push(index);
        }
        assert_eq!(w.in_flight(), 0);
        answered.sort_unstable();
        assert_eq!(answered, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn duplicate_and_unknown_replies_are_unmatched() {
        let mut w = Window::new(2);
        w.sent(5, 0, ());
        assert!(w.answered(5).is_some());
        assert_eq!(w.answered(5), None);
        assert_eq!(w.answered(9), None);
    }

    #[test]
    fn depth_bounds_the_window() {
        let mut w = Window::new(2);
        w.sent(0, 0, ());
        assert!(w.has_room());
        w.sent(1, 1, ());
        assert!(!w.has_room());
        w.answered(0).expect("in flight");
        assert!(w.has_room());
    }

    #[test]
    #[should_panic(expected = "sent twice")]
    fn resending_a_correlation_panics() {
        let mut w = Window::new(2);
        w.sent(3, 0, ());
        w.sent(3, 1, ());
    }
}
