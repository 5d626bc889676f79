//! In-memory submission registry: the queue, per-submission lifecycle
//! state, and the generation counter `watch` streams block on.
//!
//! The registry is the single synchronisation point between the acceptor's
//! connection handler threads and the runner thread: handlers enqueue and
//! flag, the runner claims and reports. Every mutation bumps a generation
//! counter and notifies the condvar, so watchers wake exactly when there is
//! something new to stream.

use crate::spec::SubmitSpec;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Where a submission is in its life.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmissionState {
    /// Accepted and spooled, waiting for the runner.
    Queued,
    /// The runner is executing it.
    Running {
        /// Jobs of this pass with an outcome (a result or a quarantined
        /// failure).
        done_jobs: usize,
        /// Jobs this pass must run (those without a journal entry).
        total_jobs: usize,
    },
    /// Every job has an outcome; rows are in the warehouse.
    Completed {
        /// Jobs that produced a result row.
        completed: usize,
        /// Jobs quarantined with a `kind=failed` row.
        failed: usize,
    },
    /// Cancelled by a client; nothing (more) reaches the warehouse.
    Cancelled,
    /// The run itself could not proceed (bad spec, journal error, ...).
    Failed(String),
}

impl SubmissionState {
    /// Whether the submission will never change state again.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            SubmissionState::Completed { .. }
                | SubmissionState::Cancelled
                | SubmissionState::Failed(_)
        )
    }
}

impl fmt::Display for SubmissionState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmissionState::Queued => f.write_str("queued"),
            SubmissionState::Running {
                done_jobs,
                total_jobs,
            } => write!(f, "running {done_jobs}/{total_jobs}"),
            SubmissionState::Completed { completed, failed } => {
                write!(f, "completed ok={completed} failed={failed}")
            }
            SubmissionState::Cancelled => f.write_str("cancelled"),
            SubmissionState::Failed(msg) => write!(f, "failed: {msg}"),
        }
    }
}

/// A claimed unit of work, handed from the registry to the runner.
#[derive(Debug)]
pub struct Claim {
    /// Submission id.
    pub id: String,
    /// The submission's spec.
    pub spec: SubmitSpec,
    /// Set when the runner must stop claiming jobs (drain or cancel).
    pub stop: Arc<AtomicBool>,
    /// Set only by `cancel` — distinguishes a cancelled stop from a drain.
    pub cancelled: Arc<AtomicBool>,
}

#[derive(Debug)]
struct Entry {
    spec: SubmitSpec,
    state: SubmissionState,
    stop: Arc<AtomicBool>,
    cancelled: Arc<AtomicBool>,
}

#[derive(Debug, Default)]
struct Inner {
    entries: BTreeMap<String, Entry>,
    queue: VecDeque<String>,
    draining: bool,
    generation: u64,
}

/// The shared registry (wrap in an `Arc`; every method takes `&self`).
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<Inner>,
    cond: Condvar,
}

/// What `submit` did with a spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Newly enqueued.
    Enqueued,
    /// The same spec (same id) is already known; its current state.
    AlreadyKnown(SubmissionState),
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn bump(&self, inner: &mut Inner) {
        inner.generation += 1;
        self.cond.notify_all();
    }

    /// Enqueues a submission. Identical specs share an id, so resubmission
    /// is idempotent: the existing entry's state is reported instead of a
    /// duplicate run.
    ///
    /// # Errors
    ///
    /// The service is draining and accepts no new work.
    pub fn submit(&self, id: &str, spec: SubmitSpec) -> Result<SubmitOutcome, String> {
        let mut inner = self.inner.lock().expect("registry lock");
        if inner.draining {
            return Err("service is draining; resubmit after restart".to_string());
        }
        if let Some(entry) = inner.entries.get(id) {
            return Ok(SubmitOutcome::AlreadyKnown(entry.state.clone()));
        }
        inner.entries.insert(
            id.to_string(),
            Entry {
                spec,
                state: SubmissionState::Queued,
                stop: Arc::new(AtomicBool::new(false)),
                cancelled: Arc::new(AtomicBool::new(false)),
            },
        );
        inner.queue.push_back(id.to_string());
        self.bump(&mut inner);
        Ok(SubmitOutcome::Enqueued)
    }

    /// Blocks until there is work or the service is draining. `None` means
    /// drain: the runner should exit its loop. Draining wins even with work
    /// queued — unstarted submissions keep their spool entries and resume
    /// on the next start.
    pub fn claim(&self) -> Option<Claim> {
        let mut inner = self.inner.lock().expect("registry lock");
        loop {
            if inner.draining {
                return None;
            }
            if let Some(id) = inner.queue.pop_front() {
                let entry = inner.entries.get(&id).expect("queued id is registered");
                // A cancel that raced the claim: honour it here.
                if entry.cancelled.load(Ordering::SeqCst) {
                    continue;
                }
                let claim = Claim {
                    id: id.clone(),
                    spec: entry.spec.clone(),
                    stop: entry.stop.clone(),
                    cancelled: entry.cancelled.clone(),
                };
                return Some(claim);
            }
            inner = self.cond.wait(inner).expect("registry lock");
        }
    }

    /// Replaces a submission's state (and wakes watchers).
    pub fn set_state(&self, id: &str, state: SubmissionState) {
        let mut inner = self.inner.lock().expect("registry lock");
        if let Some(entry) = inner.entries.get_mut(id) {
            entry.state = state;
            self.bump(&mut inner);
        }
    }

    /// A submission's current state.
    pub fn state_of(&self, id: &str) -> Option<SubmissionState> {
        let inner = self.inner.lock().expect("registry lock");
        inner.entries.get(id).map(|e| e.state.clone())
    }

    /// Requests cancellation. A queued submission is cancelled on the spot;
    /// a running one has its stop flag raised and the runner finishes the
    /// jobs in flight before marking it cancelled.
    ///
    /// # Errors
    ///
    /// Unknown id, or the submission already reached a terminal state.
    pub fn cancel(&self, id: &str) -> Result<SubmissionState, String> {
        let mut inner = self.inner.lock().expect("registry lock");
        let entry = inner
            .entries
            .get_mut(id)
            .ok_or_else(|| format!("unknown submission `{id}`"))?;
        if entry.state.is_terminal() {
            return Err(format!("submission is already {}", entry.state));
        }
        entry.cancelled.store(true, Ordering::SeqCst);
        entry.stop.store(true, Ordering::SeqCst);
        let state = if entry.state == SubmissionState::Queued {
            entry.state = SubmissionState::Cancelled;
            SubmissionState::Cancelled
        } else {
            entry.state.clone()
        };
        inner.queue.retain(|q| q != id);
        self.bump(&mut inner);
        Ok(state)
    }

    /// Starts draining: no new submissions, the runner stops after its
    /// jobs in flight, everything unfinished stays journaled in the spool
    /// for the next start.
    pub fn drain(&self) {
        let mut inner = self.inner.lock().expect("registry lock");
        inner.draining = true;
        for entry in inner.entries.values() {
            entry.stop.store(true, Ordering::SeqCst);
        }
        self.bump(&mut inner);
    }

    /// Whether a drain has been requested.
    pub fn is_draining(&self) -> bool {
        self.inner.lock().expect("registry lock").draining
    }

    /// One line per submission (sorted by id): `<id> <state>`.
    pub fn status_report(&self) -> String {
        let inner = self.inner.lock().expect("registry lock");
        inner
            .entries
            .iter()
            .map(|(id, e)| format!("{id} {}", e.state))
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Blocks until the generation moves past `last` (some state changed)
    /// or `timeout` elapses; returns the current generation either way.
    pub fn wait_change(&self, last: u64, timeout: Duration) -> u64 {
        let inner = self.inner.lock().expect("registry lock");
        let (inner, _) = self
            .cond
            .wait_timeout_while(inner, timeout, |i| i.generation == last)
            .expect("registry lock");
        inner.generation
    }

    /// The current generation (pair with [`Registry::wait_change`]).
    pub fn generation(&self) -> u64 {
        self.inner.lock().expect("registry lock").generation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn submit_claim_complete_lifecycle() {
        let reg = Registry::new();
        let spec = SubmitSpec::default();
        assert_eq!(reg.submit("s1", spec.clone()), Ok(SubmitOutcome::Enqueued));
        assert_eq!(
            reg.submit("s1", spec),
            Ok(SubmitOutcome::AlreadyKnown(SubmissionState::Queued)),
            "resubmission is idempotent"
        );
        let claim = reg.claim().expect("work is queued");
        assert_eq!(claim.id, "s1");
        reg.set_state(
            "s1",
            SubmissionState::Running {
                done_jobs: 1,
                total_jobs: 2,
            },
        );
        assert_eq!(reg.status_report(), "s1 running 1/2");
        reg.set_state(
            "s1",
            SubmissionState::Completed {
                completed: 4,
                failed: 0,
            },
        );
        assert!(reg.state_of("s1").unwrap().is_terminal());
    }

    #[test]
    fn cancel_dequeues_and_flags() {
        let reg = Registry::new();
        reg.submit("s1", SubmitSpec::default()).unwrap();
        assert_eq!(reg.cancel("s1"), Ok(SubmissionState::Cancelled));
        assert!(reg.cancel("s1").is_err(), "terminal states reject cancel");
        assert!(reg.cancel("nope").is_err());
        // The queue entry is gone; a drain is the only way claim returns.
        reg.drain();
        assert!(reg.claim().is_none());
    }

    #[test]
    fn a_cancel_racing_the_claim_is_honoured() {
        let reg = Registry::new();
        reg.submit("s1", SubmitSpec::default()).unwrap();
        // Cancel before the runner ever claims: claim must skip it.
        reg.cancel("s1").unwrap();
        reg.submit("s2", SubmitSpec::default()).unwrap();
        let claim = reg.claim().expect("s2 is still live");
        assert_eq!(claim.id, "s2");
    }

    #[test]
    fn drain_wakes_a_blocked_claim() {
        let reg = Arc::new(Registry::new());
        let waiter = {
            let reg = reg.clone();
            thread::spawn(move || reg.claim().is_none())
        };
        // Give the waiter a moment to block, then drain.
        thread::sleep(Duration::from_millis(30));
        reg.drain();
        assert!(waiter.join().unwrap(), "drain unblocks claim with None");
        assert!(
            reg.submit("s1", SubmitSpec::default()).is_err(),
            "a draining service refuses new work"
        );
    }

    #[test]
    fn wait_change_sees_generation_moves() {
        let reg = Registry::new();
        let g0 = reg.generation();
        assert_eq!(
            reg.wait_change(g0, Duration::from_millis(10)),
            g0,
            "timeout with no change returns the same generation"
        );
        reg.submit("s1", SubmitSpec::default()).unwrap();
        let g1 = reg.wait_change(g0, Duration::from_millis(100));
        assert!(g1 > g0);
    }
}
