//! The admission gate in front of every computation.
//!
//! `workers` computations run at once and up to `queue_depth` more wait for a slot,
//! admitted in arrival order (each takes a ticket). An arrival past that is refused at
//! once, so a connection sheds load with a structured `overloaded` error instead of
//! stalling. After [`Gate::close`] new arrivals are refused while the waiting ones still
//! get in, so a graceful shutdown finishes every computation it accepted. The gate only
//! counts: an admitted caller computes on its own thread while it holds its [`Permit`].

use ccache_telemetry::Gauge;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

const POISONED: &str = "no code panics while it holds the gate's lock";

/// Why an arrival was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Refused {
    /// Every slot is running and every waiting place is taken; shed the load.
    Overloaded,
    /// The gate is closed; the server is shutting down.
    Closed,
}

/// A bounded, first-come first-served count of running computations.
pub(crate) struct Gate {
    workers: usize,
    /// Running plus waiting computations past which an arrival is shed.
    capacity: usize,
    state: Mutex<State>,
    changed: Condvar,
    /// `serve.workers.busy`: computations running.
    running: Gauge,
    /// `serve.queue.depth`: arrivals waiting for a slot.
    waiting: Gauge,
}

#[derive(Debug, Default)]
struct State {
    running: usize,
    /// Tickets handed out; the waiting arrivals hold tickets `admitted..issued`.
    issued: usize,
    /// Tickets admitted so far.
    admitted: usize,
    closed: bool,
}

impl State {
    fn waiting(&self) -> usize {
        self.issued - self.admitted
    }
}

/// A running computation's slot, given back when dropped (a panic unwinding through
/// the computation included).
pub(crate) struct Permit<'a> {
    gate: &'a Gate,
}

impl Gate {
    /// A gate running at most `workers` computations with at most `queue_depth` more
    /// waiting (each at least 1), reporting both counts through the two gauges.
    pub(crate) fn new(workers: usize, queue_depth: usize, running: Gauge, waiting: Gauge) -> Self {
        Gate {
            workers: workers.max(1),
            capacity: workers.max(1).saturating_add(queue_depth.max(1)),
            state: Mutex::new(State::default()),
            changed: Condvar::new(),
            running,
            waiting,
        }
    }

    /// Takes a slot, waiting behind the earlier arrivals while every slot runs.
    ///
    /// # Errors
    ///
    /// Refuses with [`Refused::Closed`] after [`Gate::close`], and with
    /// [`Refused::Overloaded`] when the running and waiting computations fill every slot
    /// and waiting place.
    pub(crate) fn admit(&self) -> Result<Permit<'_>, Refused> {
        let mut st = self.lock();
        if st.closed {
            return Err(Refused::Closed);
        }
        if st.running + st.waiting() >= self.capacity {
            return Err(Refused::Overloaded);
        }
        let ticket = st.issued;
        st.issued += 1;
        self.publish(&st);
        while st.admitted != ticket || st.running == self.workers {
            st = self.changed.wait(st).expect(POISONED);
        }
        st.admitted += 1;
        st.running += 1;
        self.publish(&st);
        // Two slots can free before the first waiter wakes: let the next ticket look.
        self.changed.notify_all();
        Ok(Permit { gate: self })
    }

    /// Refuses every later arrival; the waiting ones still get in.
    pub(crate) fn close(&self) {
        self.lock().closed = true;
    }

    /// Blocks until nothing runs and nothing waits.
    pub(crate) fn wait_idle(&self) {
        let mut st = self.lock();
        while st.running > 0 || st.waiting() > 0 {
            st = self.changed.wait(st).expect(POISONED);
        }
    }

    /// Arrivals waiting for a slot.
    pub(crate) fn waiting(&self) -> u64 {
        self.waiting.get()
    }

    /// Computations running.
    pub(crate) fn running(&self) -> u64 {
        self.running.get()
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect(POISONED)
    }

    fn publish(&self, st: &State) {
        self.running.set(st.running as u64);
        self.waiting.set(st.waiting() as u64);
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        // A drop must not panic, and no update of the counts stops halfway.
        let mut st = self
            .gate
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        st.running -= 1;
        self.gate.publish(&st);
        self.gate.changed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;
    use std::time::{Duration, Instant};

    fn gate(workers: usize, queue_depth: usize) -> Arc<Gate> {
        Arc::new(Gate::new(
            workers,
            queue_depth,
            Gauge::default(),
            Gauge::default(),
        ))
    }

    /// Polls until `pred` holds (5 s cap).
    fn wait_until(what: &str, pred: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !pred() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            thread::sleep(Duration::from_millis(1));
        }
    }

    /// Queues `n` arrivals behind whatever runs, one after another, each recording its
    /// index in `order` once admitted.
    fn queue_arrivals(
        gate: &Arc<Gate>,
        n: usize,
        order: &Arc<Mutex<Vec<usize>>>,
    ) -> Vec<thread::JoinHandle<()>> {
        (0..n)
            .map(|i| {
                let (g, order) = (Arc::clone(gate), Arc::clone(order));
                let handle = thread::spawn(move || {
                    let _permit = g.admit().expect("a waiting place");
                    order.lock().unwrap().push(i);
                });
                wait_until("the arrival to queue", || gate.waiting() == i as u64 + 1);
                handle
            })
            .collect()
    }

    #[test]
    fn admits_waiters_in_arrival_order_and_sheds_past_the_queue_depth() {
        // Six waiters: a gate that let any of them in would rarely keep their order.
        let gate = gate(1, 6);
        let order = Arc::new(Mutex::new(Vec::new()));
        let first = gate.admit().expect("a free slot");
        assert_eq!((gate.running(), gate.waiting()), (1, 0));
        let waiters = queue_arrivals(&gate, 6, &order);
        assert_eq!(gate.admit().err(), Some(Refused::Overloaded));
        assert_eq!((gate.running(), gate.waiting()), (1, 6));
        drop(first);
        for waiter in waiters {
            waiter.join().unwrap();
        }
        assert_eq!(*order.lock().unwrap(), [0, 1, 2, 3, 4, 5]);
        assert_eq!((gate.running(), gate.waiting()), (0, 0));
    }

    #[test]
    fn an_unbounded_queue_depth_still_admits() {
        assert!(gate(1, usize::MAX).admit().is_ok());
    }

    #[test]
    fn after_close_new_arrivals_are_refused_while_waiters_still_get_in() {
        let gate = gate(1, 2);
        let order = Arc::new(Mutex::new(Vec::new()));
        let first = gate.admit().expect("a free slot");
        let waiters = queue_arrivals(&gate, 2, &order);
        gate.close();
        assert_eq!(gate.admit().err(), Some(Refused::Closed));
        let idle = {
            let g = Arc::clone(&gate);
            thread::spawn(move || g.wait_idle())
        };
        drop(first);
        for waiter in waiters {
            waiter.join().unwrap();
        }
        idle.join().unwrap();
        assert_eq!(*order.lock().unwrap(), [0, 1]);
        assert_eq!(gate.admit().err(), Some(Refused::Closed));
    }
}
