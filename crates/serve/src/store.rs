//! The content-addressed result store.
//!
//! Results are memoized under the canonical spec key
//! ([`Session::spec_key`](column_caching::Session::spec_key)): the first claimant of a
//! key becomes its *owner* and computes it on its own thread; every concurrent or later
//! claimant blocks on the in-flight slot and receives the very same shared document —
//! so identical submissions compute exactly once and every caller replies with
//! byte-identical artefact text. Failures are memoized too: execution is deterministic,
//! so re-running a failed key would fail identically.

use ccache_json::Json;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

/// A memoized failure, replayed to every requester of the same key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredError {
    /// The protocol error code (usually `job_failed` or `internal`).
    pub code: &'static str,
    /// The failure message.
    pub message: String,
}

/// What one computation produced: the result document every reply embeds, or the
/// failure every reply reports.
pub type Outcome = Result<Arc<Json>, Arc<StoredError>>;

/// The resolution of a [`ResultStore::claim`].
#[derive(Debug)]
pub enum Claim {
    /// The caller owns the key and must [`publish`](ResultStore::publish) or
    /// [`abandon`](ResultStore::abandon) it — everyone else is now waiting on it.
    Owner,
    /// The key was already computed (or in flight); here is the shared outcome.
    Done(Outcome),
}

/// Cache-effectiveness counters, exposed through `status`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Claims served from a published or in-flight computation.
    pub hits: u64,
    /// Claims that started a computation (abandoned claims are subtracted back out,
    /// so this counts computations actually admitted).
    pub misses: u64,
    /// Published outcomes currently held.
    pub entries: u64,
}

#[derive(Debug)]
enum Slot {
    InFlight,
    Done(Outcome),
}

#[derive(Debug, Default)]
struct State {
    slots: HashMap<String, Slot>,
    hits: u64,
    misses: u64,
}

/// A concurrent memo table keyed by canonical spec keys.
#[derive(Debug, Default)]
pub struct ResultStore {
    state: Mutex<State>,
    ready: Condvar,
}

impl ResultStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ResultStore::default()
    }

    /// Claims `key`: the first claimant becomes [`Claim::Owner`]; later claimants
    /// block until the owner publishes (or abandons, in which case one of them is
    /// promoted to owner in turn) and receive [`Claim::Done`].
    pub fn claim(&self, key: &str) -> Claim {
        let mut st = self.state.lock().unwrap();
        loop {
            match st.slots.get(key) {
                None => {
                    st.slots.insert(key.to_owned(), Slot::InFlight);
                    st.misses += 1;
                    return Claim::Owner;
                }
                Some(Slot::Done(outcome)) => {
                    let outcome = outcome.clone();
                    st.hits += 1;
                    return Claim::Done(outcome);
                }
                Some(Slot::InFlight) => st = self.ready.wait(st).unwrap(),
            }
        }
    }

    /// Publishes the outcome of `key`, waking every waiter.
    pub fn publish(&self, key: &str, outcome: Outcome) {
        let mut st = self.state.lock().unwrap();
        st.slots.insert(key.to_owned(), Slot::Done(outcome));
        self.ready.notify_all();
    }

    /// Abandons an in-flight `key` (its admission was refused): the slot is removed, the
    /// owner's miss is subtracted back out, and waiters wake to re-claim.
    pub fn abandon(&self, key: &str) {
        let mut st = self.state.lock().unwrap();
        if matches!(st.slots.get(key), Some(Slot::InFlight)) {
            st.slots.remove(key);
            st.misses = st.misses.saturating_sub(1);
            self.ready.notify_all();
        }
    }

    /// Current counters.
    pub fn counters(&self) -> StoreCounters {
        let st = self.state.lock().unwrap();
        StoreCounters {
            hits: st.hits,
            misses: st.misses,
            entries: st
                .slots
                .values()
                .filter(|s| matches!(s, Slot::Done(_)))
                .count() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccache_json::ToJson;
    use std::sync::Arc as StdArc;

    #[test]
    fn one_owner_many_hits() {
        let store = StdArc::new(ResultStore::new());
        assert!(matches!(store.claim("k"), Claim::Owner));
        let waiters: Vec<_> = (0..4)
            .map(|_| {
                let s = StdArc::clone(&store);
                std::thread::spawn(move || match s.claim("k") {
                    Claim::Done(Ok(doc)) => doc,
                    other => panic!("expected a shared result, got {other:?}"),
                })
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(20));
        let doc = StdArc::new("v".to_json());
        store.publish("k", Ok(StdArc::clone(&doc)));
        for w in waiters {
            let hit = w.join().unwrap();
            assert!(
                StdArc::ptr_eq(&hit, &doc),
                "every hit shares the one document"
            );
        }
        let c = store.counters();
        assert_eq!((c.hits, c.misses, c.entries), (4, 1, 1));
    }

    #[test]
    fn abandon_promotes_a_waiter_to_owner() {
        let store = StdArc::new(ResultStore::new());
        assert!(matches!(store.claim("k"), Claim::Owner));
        let s = StdArc::clone(&store);
        let waiter = std::thread::spawn(move || s.claim("k"));
        std::thread::sleep(std::time::Duration::from_millis(20));
        store.abandon("k");
        assert!(matches!(waiter.join().unwrap(), Claim::Owner));
        assert_eq!(store.counters().misses, 1, "abandon refunds the first miss");
    }

    #[test]
    fn failures_are_memoized_like_results() {
        let store = ResultStore::new();
        assert!(matches!(store.claim("k"), Claim::Owner));
        store.publish(
            "k",
            Err(StdArc::new(StoredError {
                code: "job_failed",
                message: "nope".into(),
            })),
        );
        match store.claim("k") {
            Claim::Done(Err(e)) => assert_eq!(e.message, "nope"),
            other => panic!("expected the memoized failure, got {other:?}"),
        }
    }
}
