//! Single-flight deduplication: N concurrent requests for the same key
//! produce exactly one unit of work.
//!
//! The first caller to [`SingleFlight::join`] for a key becomes the
//! *leader* and receives a [`LeaderGuard`]; it performs the expensive solve
//! and publishes the result with [`LeaderGuard::complete`]. Every other
//! caller becomes a *follower* and blocks until the leader publishes —
//! periodically re-checking its own cancellation flag so a cancelled
//! request never waits out another job's solve.
//!
//! The guard completes with `None` on drop, so a panicking leader releases
//! its followers instead of wedging them; a follower that receives `None`
//! simply does the work itself.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// How often a blocked follower re-checks its cancellation flag.
const FOLLOWER_POLL: Duration = Duration::from_millis(10);

struct FlightState<V> {
    slot: Mutex<(bool, Option<V>)>,
    ready: Condvar,
}

/// Outcome of [`SingleFlight::join`].
pub enum Flight<V> {
    /// This caller must do the work and publish via the guard.
    Leader(LeaderGuard<V>),
    /// Another caller did the work; `None` means it failed or panicked.
    Follower(Option<V>),
    /// The caller's cancellation flag tripped while waiting.
    Cancelled,
}

/// Deduplicates concurrent work per `u64` key.
pub struct SingleFlight<V> {
    flights: Mutex<HashMap<u64, Arc<FlightState<V>>>>,
}

impl<V> std::fmt::Debug for SingleFlight<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SingleFlight")
            .field("in_flight", &self.in_flight())
            .finish()
    }
}

impl<V> Default for SingleFlight<V> {
    fn default() -> Self {
        SingleFlight::new()
    }
}

impl<V> SingleFlight<V> {
    /// Creates an empty table.
    pub fn new() -> SingleFlight<V> {
        SingleFlight {
            flights: Mutex::new(HashMap::new()),
        }
    }

    /// Number of in-flight keys (for tests and metrics).
    pub fn in_flight(&self) -> usize {
        self.flights.lock().unwrap().len()
    }
}

impl<V: Clone> SingleFlight<V> {
    /// Joins the flight for `key`. `cancelled` is polled while blocked; it
    /// should be cheap (an atomic load).
    pub fn join(self: &Arc<Self>, key: u64, cancelled: impl Fn() -> bool) -> Flight<V> {
        let state = {
            let mut flights = self.flights.lock().unwrap();
            match flights.get(&key) {
                Some(state) => Arc::clone(state),
                None => {
                    let state = Arc::new(FlightState {
                        slot: Mutex::new((false, None)),
                        ready: Condvar::new(),
                    });
                    flights.insert(key, Arc::clone(&state));
                    return Flight::Leader(LeaderGuard {
                        table: Arc::clone(self),
                        key,
                        state,
                        published: false,
                    });
                }
            }
        };
        let mut slot = state.slot.lock().unwrap();
        loop {
            if slot.0 {
                return Flight::Follower(slot.1.clone());
            }
            if cancelled() {
                return Flight::Cancelled;
            }
            let (guard, _timeout) = state.ready.wait_timeout(slot, FOLLOWER_POLL).unwrap();
            slot = guard;
        }
    }

    fn finish(&self, key: u64, state: &Arc<FlightState<V>>, value: Option<V>) {
        {
            let mut slot = state.slot.lock().unwrap();
            slot.0 = true;
            slot.1 = value;
        }
        state.ready.notify_all();
        let mut flights = self.flights.lock().unwrap();
        // Only remove our own flight: a follower that re-joins after this
        // point starts a fresh flight, which is correct.
        if let Some(current) = flights.get(&key) {
            if Arc::ptr_eq(current, state) {
                flights.remove(&key);
            }
        }
    }
}

/// Held by the leader; publishing (or dropping) releases the followers.
pub struct LeaderGuard<V> {
    table: Arc<SingleFlight<V>>,
    key: u64,
    state: Arc<FlightState<V>>,
    published: bool,
}

impl<V: Clone> LeaderGuard<V> {
    /// Publishes the result (`None` = the work failed; followers retry on
    /// their own) and retires the flight.
    pub fn complete(mut self, value: Option<V>) {
        self.published = true;
        self.table.finish(self.key, &self.state, value);
    }
}

impl<V> Drop for LeaderGuard<V> {
    fn drop(&mut self) {
        if !self.published {
            // Leader panicked or bailed: wake followers with "no result".
            {
                let mut slot = self.state.slot.lock().unwrap();
                slot.0 = true;
                slot.1 = None;
            }
            self.state.ready.notify_all();
            let mut flights = self.table.flights.lock().unwrap();
            if let Some(current) = flights.get(&self.key) {
                if Arc::ptr_eq(current, &self.state) {
                    flights.remove(&self.key);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::thread;

    #[test]
    fn one_leader_many_followers() {
        let sf: Arc<SingleFlight<u32>> = Arc::new(SingleFlight::new());
        let solves = Arc::new(AtomicUsize::new(0));
        let barrier = Arc::new(std::sync::Barrier::new(8));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let sf = Arc::clone(&sf);
            let solves = Arc::clone(&solves);
            let barrier = Arc::clone(&barrier);
            handles.push(thread::spawn(move || {
                barrier.wait();
                match sf.join(42, || false) {
                    Flight::Leader(guard) => {
                        solves.fetch_add(1, Ordering::SeqCst);
                        thread::sleep(Duration::from_millis(30));
                        guard.complete(Some(7));
                        7
                    }
                    Flight::Follower(v) => v.expect("leader published"),
                    Flight::Cancelled => unreachable!(),
                }
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), 7);
        }
        assert_eq!(solves.load(Ordering::SeqCst), 1);
        assert_eq!(sf.in_flight(), 0);
    }

    #[test]
    fn panicking_leader_releases_followers_with_none() {
        let sf: Arc<SingleFlight<u32>> = Arc::new(SingleFlight::new());
        let sf2 = Arc::clone(&sf);
        let leader = thread::spawn(move || {
            let Flight::Leader(_guard) = sf2.join(1, || false) else {
                panic!("expected leadership");
            };
            panic!("solve blew up");
        });
        // Wait until the flight exists, then join as follower. A leader
        // that already unwound has retired its flight; stop waiting then.
        while sf.in_flight() == 0 && !leader.is_finished() {
            thread::yield_now();
        }
        let got = match sf.join(1, || false) {
            Flight::Follower(v) => v,
            Flight::Leader(g) => {
                // Leader already unwound; we become the retry leader.
                g.complete(None);
                None
            }
            Flight::Cancelled => unreachable!(),
        };
        assert_eq!(got, None);
        assert!(leader.join().is_err());
    }

    #[test]
    fn cancelled_follower_stops_waiting() {
        let sf: Arc<SingleFlight<u32>> = Arc::new(SingleFlight::new());
        let Flight::Leader(guard) = sf.join(9, || false) else {
            panic!("expected leadership");
        };
        let cancel = Arc::new(AtomicBool::new(false));
        let sf2 = Arc::clone(&sf);
        let cancel2 = Arc::clone(&cancel);
        let follower = thread::spawn(move || {
            matches!(
                sf2.join(9, move || cancel2.load(Ordering::SeqCst)),
                Flight::Cancelled
            )
        });
        thread::sleep(Duration::from_millis(20));
        cancel.store(true, Ordering::SeqCst);
        assert!(
            follower.join().unwrap(),
            "follower should observe cancellation"
        );
        guard.complete(Some(1));
    }

    #[test]
    fn distinct_keys_do_not_coalesce() {
        let sf: Arc<SingleFlight<u32>> = Arc::new(SingleFlight::new());
        let Flight::Leader(a) = sf.join(1, || false) else {
            panic!()
        };
        let Flight::Leader(b) = sf.join(2, || false) else {
            panic!()
        };
        assert_eq!(sf.in_flight(), 2);
        a.complete(Some(1));
        b.complete(Some(2));
        assert_eq!(sf.in_flight(), 0);
    }
}
