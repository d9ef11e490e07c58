//! Deficit-round-robin scheduling across sessions.
//!
//! Every session owns a **bounded** FIFO of pending requests; dispatchers
//! pull work through a deficit-round-robin ring over the sessions that
//! have anything queued. Each request costs [`REQUEST_COST`] units and a
//! session earns `weight × REQUEST_COST` units each time the ring reaches
//! it — `weight` dispatches per round — so over any window the dispatch ratio between backlogged sessions
//! converges to their weight ratio — one chatty tenant cannot starve the
//! rest, it can only fill (and overflow) its own queue. A submit against a
//! full queue fails immediately with the depth, which the service turns
//! into a structured `Overloaded { retry_after_ms }` shed.
//!
//! The scheduler is deliberately time-free: fairness here is a property of
//! dispatch *order*, so its tests are exact and deterministic — no clocks,
//! no sleeps (the satellite requirement that fairness suites not flake on
//! slow CI hosts).

use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex};

/// Cost of one request in deficit units. A session at the ring head may
/// dispatch as long as its accumulated deficit covers this.
pub const REQUEST_COST: u64 = 100;

/// Why a submit was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The session's bounded queue is full; `queued` requests are ahead.
    QueueFull {
        /// Depth of the full queue (the shed hint scales with this).
        queued: usize,
    },
    /// The session was never registered or already closed.
    UnknownSession,
    /// The scheduler is shutting down; nothing new is accepted.
    Shutdown,
}

#[derive(Debug)]
struct SessionQueue<T> {
    queue: VecDeque<T>,
    deficit: u64,
    weight: u32,
    in_ring: bool,
}

#[derive(Debug)]
struct State<T> {
    sessions: HashMap<u64, SessionQueue<T>>,
    /// Sessions with queued work, in dispatch order. The head session
    /// stays at the head while its deficit covers further requests, which
    /// is what makes a weight-w session dispatch w requests per round.
    ring: VecDeque<u64>,
    queued: usize,
    shutdown: bool,
}

/// A deficit-round-robin scheduler over per-session bounded queues.
#[derive(Debug)]
pub struct DrrScheduler<T> {
    state: Mutex<State<T>>,
    work: Condvar,
    capacity: usize,
}

impl<T> DrrScheduler<T> {
    /// Creates a scheduler with `capacity` requests per session queue.
    pub fn new(capacity: usize) -> Self {
        DrrScheduler {
            state: Mutex::new(State {
                sessions: HashMap::new(),
                ring: VecDeque::new(),
                queued: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Registers a session with a fairness weight (≥ 1).
    pub fn register(&self, session: u64, weight: u32) {
        let mut st = self.lock();
        st.sessions.entry(session).or_insert(SessionQueue {
            queue: VecDeque::new(),
            deficit: 0,
            weight: weight.max(1),
            in_ring: false,
        });
    }

    /// Removes a session, returning its still-queued requests so the
    /// caller can answer them (e.g. with a session-closed error).
    pub fn deregister(&self, session: u64) -> Vec<T> {
        let mut st = self.lock();
        let Some(sq) = st.sessions.remove(&session) else {
            return Vec::new();
        };
        st.queued -= sq.queue.len();
        st.ring.retain(|&s| s != session);
        sq.queue.into_iter().collect()
    }

    /// Enqueues a request for a session. Returns the queue depth including
    /// this request, or the structured refusal.
    pub fn submit(&self, session: u64, item: T) -> Result<usize, SubmitError> {
        let mut st = self.lock();
        if st.shutdown {
            return Err(SubmitError::Shutdown);
        }
        let capacity = self.capacity;
        let Some(sq) = st.sessions.get_mut(&session) else {
            return Err(SubmitError::UnknownSession);
        };
        if sq.queue.len() >= capacity {
            return Err(SubmitError::QueueFull {
                queued: sq.queue.len(),
            });
        }
        sq.queue.push_back(item);
        let depth = sq.queue.len();
        if !sq.in_ring {
            sq.in_ring = true;
            st.ring.push_back(session);
        }
        st.queued += 1;
        drop(st);
        self.work.notify_one();
        Ok(depth)
    }

    /// Blocks until a request is dispatchable and returns it with its
    /// session id; `None` once the scheduler shut down.
    pub fn next(&self) -> Option<(u64, T)> {
        let mut st = self.lock();
        loop {
            if st.shutdown {
                return None;
            }
            if let Some(out) = Self::pop_locked(&mut st) {
                return Some(out);
            }
            st = self.work.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Non-blocking [`next`](DrrScheduler::next), for deterministic tests.
    pub fn try_next(&self) -> Option<(u64, T)> {
        let mut st = self.lock();
        if st.shutdown {
            return None;
        }
        Self::pop_locked(&mut st)
    }

    fn pop_locked(st: &mut State<T>) -> Option<(u64, T)> {
        while let Some(&sid) = st.ring.front() {
            let Some(sq) = st.sessions.get_mut(&sid) else {
                st.ring.pop_front();
                continue;
            };
            if sq.queue.is_empty() {
                sq.in_ring = false;
                sq.deficit = 0;
                st.ring.pop_front();
                continue;
            }
            // A fresh visit earns the session `weight` requests; while the
            // deficit covers requests it keeps the head (the DRR "burst"
            // that realizes weighted ratios).
            if sq.deficit < REQUEST_COST {
                sq.deficit += REQUEST_COST * u64::from(sq.weight);
            }
            sq.deficit -= REQUEST_COST;
            let item = sq.queue.pop_front().expect("non-empty queue");
            st.queued -= 1;
            if sq.queue.is_empty() {
                sq.in_ring = false;
                sq.deficit = 0;
                st.ring.pop_front();
            } else if sq.deficit < REQUEST_COST {
                // Deficit spent: rotate to the back of the ring.
                st.ring.rotate_left(1);
            }
            return Some((sid, item));
        }
        None
    }

    /// Total queued requests across all sessions.
    pub fn queued(&self) -> usize {
        self.lock().queued
    }

    /// Stops the scheduler: wakes every blocked dispatcher (they observe
    /// `None`) and drains all queued requests for the caller to answer.
    pub fn shutdown(&self) -> Vec<(u64, T)> {
        let mut st = self.lock();
        st.shutdown = true;
        let mut drained = Vec::with_capacity(st.queued);
        let sids: Vec<u64> = st.sessions.keys().copied().collect();
        for sid in sids {
            let sq = st.sessions.get_mut(&sid).expect("listed session");
            while let Some(item) = sq.queue.pop_front() {
                drained.push((sid, item));
            }
            sq.in_ring = false;
        }
        st.ring.clear();
        st.queued = 0;
        drop(st);
        self.work.notify_all();
        drained
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(s: &DrrScheduler<u32>) -> Vec<u64> {
        let mut order = Vec::new();
        while let Some((sid, _)) = s.try_next() {
            order.push(sid);
        }
        order
    }

    #[test]
    fn equal_weights_alternate() {
        let s = DrrScheduler::new(64);
        s.register(1, 1);
        s.register(2, 1);
        for i in 0..6 {
            s.submit(1, i).unwrap();
            s.submit(2, i).unwrap();
        }
        assert_eq!(drain(&s), vec![1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2]);
    }

    #[test]
    fn weights_set_the_dispatch_ratio() {
        let s = DrrScheduler::new(64);
        s.register(1, 2); // premium analyst: twice the share
        s.register(2, 1);
        for i in 0..12 {
            s.submit(1, i).unwrap();
        }
        for i in 0..6 {
            s.submit(2, i).unwrap();
        }
        let order = drain(&s);
        // While both are backlogged, session 1 dispatches twice per round.
        assert_eq!(&order[..9], &[1, 1, 2, 1, 1, 2, 1, 1, 2]);
        let ones = order.iter().filter(|&&s| s == 1).count();
        assert_eq!(ones, 12);
    }

    #[test]
    fn chatty_session_cannot_starve_a_quiet_one() {
        let s = DrrScheduler::new(1024);
        s.register(1, 1);
        s.register(2, 1);
        for i in 0..1000 {
            s.submit(1, i).unwrap();
        }
        // One request from the quiet session lands behind a 1000-deep
        // backlog — DRR serves it on the very next round.
        s.submit(2, 0).unwrap();
        let order = drain(&s);
        let pos = order.iter().position(|&sid| sid == 2).unwrap();
        assert!(pos <= 1, "quiet session served immediately, got {pos}");
    }

    #[test]
    fn bounded_queue_sheds_with_depth() {
        let s = DrrScheduler::new(2);
        s.register(1, 1);
        assert_eq!(s.submit(1, 0), Ok(1));
        assert_eq!(s.submit(1, 1), Ok(2));
        assert_eq!(s.submit(1, 2), Err(SubmitError::QueueFull { queued: 2 }));
        // Draining one slot re-opens admission.
        assert!(s.try_next().is_some());
        assert_eq!(s.submit(1, 3), Ok(2));
    }

    #[test]
    fn unknown_session_and_shutdown_are_structured() {
        let s: DrrScheduler<u32> = DrrScheduler::new(4);
        assert_eq!(s.submit(9, 0), Err(SubmitError::UnknownSession));
        s.register(1, 1);
        s.submit(1, 7).unwrap();
        let drained = s.shutdown();
        assert_eq!(drained, vec![(1, 7)]);
        assert_eq!(s.submit(1, 8), Err(SubmitError::Shutdown));
        assert!(s.next().is_none(), "dispatchers observe shutdown");
    }

    #[test]
    fn deregister_returns_pending_work() {
        let s = DrrScheduler::new(8);
        s.register(1, 1);
        s.register(2, 1);
        s.submit(1, 10).unwrap();
        s.submit(1, 11).unwrap();
        s.submit(2, 20).unwrap();
        assert_eq!(s.deregister(1), vec![10, 11]);
        assert_eq!(s.queued(), 1);
        assert_eq!(drain(&s), vec![2]);
    }

    #[test]
    fn blocking_next_wakes_on_submit() {
        let s = std::sync::Arc::new(DrrScheduler::new(4));
        s.register(1, 1);
        let consumer = {
            let s = s.clone();
            std::thread::spawn(move || s.next())
        };
        s.submit(1, 42).unwrap();
        assert_eq!(consumer.join().unwrap(), Some((1, 42)));
    }
}
