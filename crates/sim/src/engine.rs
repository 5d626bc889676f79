//! The experiment engine: job-level parallel execution with deterministic results.
//!
//! Every evaluation in this crate — the P/A/S/R/I design comparison, the ASR
//! best-of-six selection, the Figure 11 cluster sweep, and the scenario
//! matrices of [`crate::scenario`] — reduces to the same shape: a flat list
//! of independent simulation jobs whose results must be assembled in a fixed
//! order. [`ExperimentEngine`] runs such a list on a bounded worker pool.
//! Workers claim jobs from a shared counter (so a long ASR run cannot
//! serialise a whole workload behind it, the load imbalance the per-workload
//! threading suffered from) and write each result into the slot indexed by
//! its job, so the output is ordered by job index and **identical for every
//! worker-pool size**.
//!
//! [`ExperimentEngine::run_supervised`] is the one way to run a job list,
//! and every matrix run takes it. Each attempt runs inline on the worker
//! that claimed the job, under [`catch_unwind`] and a [`RetryPolicy`]
//! (retries, seeded backoff, per-attempt deadline); each slot yields
//! `Result<T, JobFailure>`, so one poisoned scenario becomes a failure
//! record while every other job still completes. Deadlines are cooperative:
//! the job receives the instant its attempt must finish by and unwinds with
//! a [`DeadlineExceeded`] payload once it passes it. An accept hook sees
//! each final outcome on the claiming worker, which is where callers
//! journal it.
//!
//! A panic inside an attempt does not reach the process's panic hook: the
//! failure already carries its message, and callers report it in their own
//! words. Panics anywhere else still print as usual.

use std::any::Any;
use std::cell::Cell;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, Once, PoisonError};
use std::time::Instant;

use rnuca_types::retry::{DeadlineExceeded, RetryPolicy};

/// A bounded worker pool executing job lists with deterministic assembly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentEngine {
    workers: usize,
}

/// Why a supervised job was quarantined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureCause {
    /// Every attempt panicked.
    Panic,
    /// The final attempt exceeded the policy's per-attempt wall-clock
    /// deadline.
    Deadline,
}

impl FailureCause {
    /// Stable lower-case token (`"panic"` / `"deadline"`) used by the
    /// journal's typed failure entries and the warehouse failure column.
    pub fn as_str(&self) -> &'static str {
        match self {
            FailureCause::Panic => "panic",
            FailureCause::Deadline => "deadline",
        }
    }

    /// Parses the [`FailureCause::as_str`] token back.
    pub fn parse(token: &str) -> Option<Self> {
        match token {
            "panic" => Some(FailureCause::Panic),
            "deadline" => Some(FailureCause::Deadline),
            _ => None,
        }
    }
}

impl fmt::Display for FailureCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A quarantined job failure from [`ExperimentEngine::run_supervised`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFailure {
    /// Index of the failed job in the submitted job list.
    pub job: usize,
    /// Attempts made (1 + retries) before the job was quarantined.
    pub attempts: u32,
    /// Why the final attempt failed.
    pub cause: FailureCause,
    /// The final panic's message (or a placeholder for non-string payloads).
    pub message: String,
}

impl fmt::Display for JobFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "job {} failed after {} attempt{} ({}): {}",
            self.job,
            self.attempts,
            if self.attempts == 1 { "" } else { "s" },
            self.cause,
            self.message
        )
    }
}

/// The human-readable message inside a panic payload. Panics raised by
/// `panic!("...")` carry `&'static str` or `String`; anything else (a rare
/// `panic_any`) is summarised.
fn payload_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Locks ignoring poison. A worker that panicked between locking and
/// unlocking a result slot poisons it; the interesting error is the job's
/// panic (kept as a [`JobFailure`]), not the secondary poisoning, so
/// recover the guard instead of masking the root cause with a poisoned-lock
/// `expect`.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

thread_local! {
    /// Set while this thread runs a supervised attempt.
    static IN_ATTEMPT: Cell<bool> = const { Cell::new(false) };
}

/// Wraps the process's panic hook, once, so that it stays silent for a
/// panic raised inside a supervised attempt and runs as before for every
/// other panic. The attempt's [`JobFailure`] carries the message instead.
fn silence_attempt_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !IN_ATTEMPT.with(Cell::get) {
                previous(info);
            }
        }));
    });
}

/// Runs `attempt` under [`catch_unwind`] with this thread marked as inside
/// a supervised attempt.
fn catch_attempt<T>(attempt: impl FnOnce() -> T) -> std::thread::Result<T> {
    let outer = IN_ATTEMPT.with(|flag| flag.replace(true));
    let outcome = catch_unwind(AssertUnwindSafe(attempt));
    IN_ATTEMPT.with(|flag| flag.set(outer));
    outcome
}

impl ExperimentEngine {
    /// An engine sized to the machine's available parallelism.
    pub fn new() -> Self {
        ExperimentEngine {
            workers: default_workers(),
        }
    }

    /// An engine with an explicit worker count (clamped to at least one).
    ///
    /// Results do not depend on the worker count; use this to bound CPU and
    /// memory pressure, or `with_workers(1)` for fully serial debugging runs.
    pub fn with_workers(workers: usize) -> Self {
        ExperimentEngine {
            workers: workers.max(1),
        }
    }

    /// The number of workers this engine runs.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Supervised execution with per-attempt wall-clock deadlines, seeded
    /// backoff, a cooperative stop flag, and an accept hook.
    ///
    /// Each job is attempted up to `policy.attempts()` times, every attempt
    /// inline on the worker that claimed the job, under [`catch_unwind`]
    /// and with the panic hook silenced for the attempt's own panics.
    /// Between attempts of job `i` the worker sleeps the policy's
    /// seeded-jitter backoff `delay(seed, i, attempt)` — a pure function of
    /// its arguments, so the pause schedule (like the results) is identical
    /// for every worker count. A job whose every attempt fails yields
    /// `Err(`[`JobFailure`]`)` in its slot while all other jobs still run.
    ///
    /// `run` receives the job index, the job, and the instant the attempt
    /// must finish by (`None` without a policy deadline). The deadline is
    /// cooperative: a job checks it between units of work with
    /// [`DeadlineExceeded::check`], and an attempt that unwinds with that
    /// payload fails with [`FailureCause::Deadline`]. Nothing interrupts a
    /// job that does not check, and no attempt outlives this call.
    ///
    /// Once a job's outcome is final, the worker calls `accept(i, &outcome)`
    /// outside [`catch_unwind`], so side effects such as journal appends
    /// belong there. An `Err` from the hook stops further claims and is
    /// returned once in-flight jobs finish.
    ///
    /// `stop` is checked before each claim: once set, workers stop claiming
    /// and in-flight attempts run to completion — the `drain` half of the
    /// service protocol. Unclaimed slots come back as `None` (never
    /// attempted), claimed ones as `Some(result)`.
    ///
    /// # Errors
    ///
    /// The first error the accept hook returned.
    pub fn run_supervised<J, T, F, A, E>(
        &self,
        jobs: &[J],
        seed: u64,
        policy: &RetryPolicy,
        stop: &AtomicBool,
        run: F,
        accept: A,
    ) -> Result<Vec<Option<Result<T, JobFailure>>>, E>
    where
        J: Sync,
        T: Send,
        F: Fn(usize, &J, Option<Instant>) -> T + Sync,
        A: Fn(usize, &Result<T, JobFailure>) -> Result<(), E> + Sync,
        E: Send,
    {
        silence_attempt_panics();
        let rejected: Mutex<Option<E>> = Mutex::new(None);
        let slots: Vec<Mutex<Option<Result<T, JobFailure>>>> =
            jobs.iter().map(|_| Mutex::new(None)).collect();
        self.claim_each(
            jobs.len(),
            || stop.load(Ordering::Acquire) || lock(&rejected).is_some(),
            |i| {
                let mut attempt = 1;
                let outcome = loop {
                    // A deadline too far out to represent never passes.
                    let deadline = policy.deadline.and_then(|d| Instant::now().checked_add(d));
                    let failed = match catch_attempt(|| run(i, &jobs[i], deadline)) {
                        Ok(result) => break Ok(result),
                        Err(payload) if payload.is::<DeadlineExceeded>() => (
                            FailureCause::Deadline,
                            format!(
                                "attempt exceeded the {:?} deadline",
                                policy.deadline.unwrap_or_default()
                            ),
                        ),
                        Err(payload) => (FailureCause::Panic, payload_message(payload.as_ref())),
                    };
                    if attempt == policy.attempts() {
                        let (cause, message) = failed;
                        break Err(JobFailure {
                            job: i,
                            attempts: attempt,
                            cause,
                            message,
                        });
                    }
                    let pause = policy.backoff.delay(seed, i, attempt);
                    if !pause.is_zero() {
                        std::thread::sleep(pause);
                    }
                    attempt += 1;
                };
                match accept(i, &outcome) {
                    Ok(()) => *lock(&slots[i]) = Some(outcome),
                    Err(e) => {
                        lock(&rejected).get_or_insert(e);
                    }
                }
            },
        );
        if let Some(e) = rejected
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
        {
            return Err(e);
        }
        Ok(slots
            .into_iter()
            .map(|slot| slot.into_inner().unwrap_or_else(PoisonError::into_inner))
            .collect())
    }

    /// The shared pool: each worker claims the next job index from an
    /// atomic counter and hands it to `work`, until the list runs out or
    /// `halted` reports true before a claim.
    fn claim_each(
        &self,
        len: usize,
        halted: impl Fn() -> bool + Sync,
        work: impl Fn(usize) + Sync,
    ) {
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..self.workers.min(len) {
                scope.spawn(|| {
                    while !halted() {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= len {
                            break;
                        }
                        work(i);
                    }
                });
            }
        });
    }
}

impl Default for ExperimentEngine {
    fn default() -> Self {
        ExperimentEngine::new()
    }
}

/// The machine's available parallelism (1 if it cannot be determined).
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnuca_types::failpoint::{self, FailAction, FailSpec};

    /// [`ExperimentEngine::run_supervised`] with no stop request and an
    /// accept hook that takes every outcome: every slot is claimed.
    fn supervise<J, T, F>(
        workers: usize,
        jobs: Vec<J>,
        seed: u64,
        policy: &RetryPolicy,
        run: F,
    ) -> Vec<Result<T, JobFailure>>
    where
        J: Sync,
        T: Send,
        F: Fn(usize, &J) -> T + Sync,
    {
        let stop = AtomicBool::new(false);
        ExperimentEngine::with_workers(workers)
            .run_supervised(
                &jobs,
                seed,
                policy,
                &stop,
                |i, j, _| run(i, j),
                |_, _| Ok::<(), ()>(()),
            )
            .expect("the hook accepts every outcome")
            .into_iter()
            .map(|slot| slot.expect("every job is claimed"))
            .collect()
    }

    #[test]
    fn results_are_ordered_by_job_index() {
        let jobs: Vec<usize> = (0..100).collect();
        let results = supervise(7, jobs, 0, &RetryPolicy::default(), |i, &j| {
            assert_eq!(i, j);
            j * 3
        });
        assert_eq!(results, (0..100).map(|j| Ok(j * 3)).collect::<Vec<_>>());
    }

    #[test]
    fn output_is_identical_for_every_worker_count() {
        let jobs: Vec<u64> = (0..37).collect();
        let policy = RetryPolicy::default();
        let reference = supervise(1, jobs.clone(), 0, &policy, |_, &j| j * j + 1);
        for workers in [2, 3, 8, 64] {
            let out = supervise(workers, jobs.clone(), 0, &policy, |_, &j| j * j + 1);
            assert_eq!(out, reference, "worker count {workers} changed the output");
        }
    }

    #[test]
    fn empty_job_list_yields_empty_results() {
        let out = supervise(4, Vec::<u32>::new(), 0, &RetryPolicy::default(), |_, &j| j);
        assert!(out.is_empty());
    }

    #[test]
    fn more_workers_than_jobs_is_fine() {
        let out = supervise(16, vec![10, 20], 0, &RetryPolicy::default(), |_, &j| j + 1);
        assert_eq!(out, vec![Ok(11), Ok(21)]);
    }

    #[test]
    fn zero_workers_is_clamped_to_one() {
        assert_eq!(ExperimentEngine::with_workers(0).workers(), 1);
        assert!(ExperimentEngine::new().workers() >= 1);
        assert_eq!(ExperimentEngine::default(), ExperimentEngine::new());
    }

    #[test]
    fn supervised_run_quarantines_exactly_the_failing_job() {
        let jobs: Vec<usize> = (0..25).collect();
        for workers in [1, 3, 8] {
            let out = supervise(
                workers,
                jobs.clone(),
                0,
                &RetryPolicy::immediate(0),
                |_, &j| {
                    if j == 11 {
                        panic!("poisoned scenario {j}");
                    }
                    j * 2
                },
            );
            assert_eq!(out.len(), jobs.len());
            for (i, slot) in out.iter().enumerate() {
                if i == 11 {
                    let failure = slot.as_ref().expect_err("job 11 must be quarantined");
                    assert_eq!(failure.job, 11);
                    assert_eq!(failure.attempts, 1);
                    assert_eq!(failure.message, "poisoned scenario 11");
                    assert_eq!(failure.cause, FailureCause::Panic);
                    assert_eq!(
                        failure.to_string(),
                        "job 11 failed after 1 attempt (panic): poisoned scenario 11"
                    );
                } else {
                    assert_eq!(slot.as_ref().copied(), Ok(i * 2), "job {i} must complete");
                }
            }
        }
    }

    #[test]
    fn supervised_retries_recover_transient_failures() {
        let jobs = vec![0u32];
        {
            // Arm a fail point that panics on the first two hits only: the
            // third attempt of the same job succeeds.
            let _guard = failpoint::arm(&[FailSpec::window(
                "engine::test::flaky",
                FailAction::Panic,
                1,
                2,
            )]);
            let out = supervise(1, jobs.clone(), 0, &RetryPolicy::immediate(2), |_, &j| {
                failpoint::panic_point("engine::test::flaky");
                j + 100
            });
            assert_eq!(out, vec![Ok(100)]);
        }
        {
            // With the same window but zero retries, the job is quarantined
            // and the failure records a single attempt.
            let _guard = failpoint::arm(&[FailSpec::window(
                "engine::test::flaky",
                FailAction::Panic,
                1,
                2,
            )]);
            let out = supervise(1, jobs.clone(), 0, &RetryPolicy::immediate(0), |_, &j| {
                failpoint::panic_point("engine::test::flaky");
                j + 100
            });
            let failure = out[0].as_ref().expect_err("no retries must quarantine");
            assert_eq!(failure.attempts, 1);
            assert!(failure.message.contains("engine::test::flaky"));
        }
    }

    #[test]
    fn supervised_failures_record_every_attempt() {
        let jobs = vec![0u32];
        let out = supervise(1, jobs, 0, &RetryPolicy::immediate(3), |_, _| -> u32 {
            panic!("always fails");
        });
        let failure = out[0].as_ref().expect_err("job must fail");
        assert_eq!(failure.attempts, 4, "1 initial try + 3 retries");
        assert_eq!(failure.message, "always fails");
    }

    #[test]
    fn failure_cause_round_trips_its_token() {
        for cause in [FailureCause::Panic, FailureCause::Deadline] {
            assert_eq!(FailureCause::parse(cause.as_str()), Some(cause));
        }
        assert_eq!(FailureCause::parse("cosmic-ray"), None);
    }

    #[test]
    fn policy_backoff_is_identical_across_worker_counts() {
        use rnuca_types::retry::BackoffConfig;
        use std::sync::atomic::AtomicU64;

        // Short real delays so the test observes actual pauses without
        // slowing the suite: base 2 ms, two retries.
        let policy = RetryPolicy::immediate(2).with_backoff(BackoffConfig {
            base_ms: 2,
            cap_ms: 8,
        });
        let jobs: Vec<usize> = (0..12).collect();
        let mut reference: Option<Vec<Result<usize, JobFailure>>> = None;
        for workers in [1, 4] {
            let attempts_seen: Vec<AtomicU64> = jobs.iter().map(|_| AtomicU64::new(0)).collect();
            let out = supervise(workers, jobs.clone(), 42, &policy, move |i, &j| {
                // Odd jobs fail once, then succeed on the retry.
                let attempt = attempts_seen[i].fetch_add(1, Ordering::Relaxed) + 1;
                if j % 2 == 1 && attempt == 1 {
                    panic!("transient failure in job {j}");
                }
                j * 10
            });
            match &reference {
                None => reference = Some(out),
                Some(reference) => {
                    assert_eq!(&out, reference, "worker count {workers} changed the output");
                }
            }
        }
        let reference = reference.unwrap();
        for (i, slot) in reference.iter().enumerate() {
            assert_eq!(slot.as_ref().copied(), Ok(i * 10), "job {i} must recover");
        }
    }

    #[test]
    fn supervised_run_enforces_the_deadline_cooperatively_and_keeps_other_jobs() {
        use std::time::Duration;

        // Job 2 polls its deadline the way a scenario job does between
        // trace batches, and would poll for 5 s: the first check past the
        // 50 ms deadline unwinds it. Every retry overruns the same way.
        let policy = RetryPolicy::immediate(1).with_deadline(Duration::from_millis(50));
        let started = Instant::now();
        let stop = AtomicBool::new(false);
        let out = ExperimentEngine::with_workers(3)
            .run_supervised(
                &(0..6).collect::<Vec<u64>>(),
                42,
                &policy,
                &stop,
                |_, &j, deadline| {
                    if j == 2 {
                        assert!(deadline.is_some(), "the policy's deadline reaches the job");
                        while started.elapsed() < Duration::from_secs(5) {
                            DeadlineExceeded::check(deadline);
                            std::thread::sleep(Duration::from_millis(1));
                        }
                    }
                    j + 1
                },
                |_, _| Ok::<(), ()>(()),
            )
            .expect("the hook accepts every outcome");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "the overrunning attempts unwound at their deadline"
        );
        assert_eq!(out.len(), 6);
        for (i, slot) in out.iter().enumerate() {
            let slot = slot.as_ref().expect("every job is claimed");
            if i == 2 {
                let failure = slot.as_ref().expect_err("job 2 must hit the deadline");
                assert_eq!(failure.cause, FailureCause::Deadline);
                assert_eq!(failure.attempts, 2);
                assert_eq!(failure.message, "attempt exceeded the 50ms deadline");
            } else {
                assert_eq!(slot.as_ref().copied(), Ok(i as u64 + 1));
            }
        }

        // A deadline too far out to represent (`--deadline-ms` is outside
        // input) runs the job unbounded instead of overflowing the clock.
        let unbounded = RetryPolicy::immediate(0).with_deadline(Duration::MAX);
        assert_eq!(
            supervise(1, vec![7u64], 0, &unbounded, |_, &j| j),
            vec![Ok(7)]
        );
    }

    #[test]
    fn supervised_run_quarantines_panics_with_their_message() {
        let out = supervise(
            2,
            (0..4).collect::<Vec<u64>>(),
            7,
            &RetryPolicy::immediate(1),
            |_, &j| {
                if j == 3 {
                    panic!("member {j} exploded");
                }
                j
            },
        );
        let failure = out[3].as_ref().expect_err("job 3 must fail");
        assert_eq!(failure.cause, FailureCause::Panic);
        assert_eq!(failure.attempts, 2, "one retry was spent");
        assert_eq!(failure.message, "member 3 exploded");
    }

    #[test]
    fn supervised_run_stops_claiming_once_the_stop_flag_is_set() {
        // One worker, stop flag raised by the first job: the remaining
        // jobs must never be claimed (their slots stay None) — the `drain`
        // behaviour of the experiment service.
        let stop = AtomicBool::new(false);
        let out = ExperimentEngine::with_workers(1)
            .run_supervised(
                &(0..5).collect::<Vec<u64>>(),
                0,
                &RetryPolicy::immediate(0),
                &stop,
                |_, &j, _| {
                    stop.store(true, Ordering::Release);
                    j
                },
                |_, _| Ok::<(), ()>(()),
            )
            .expect("the hook accepts every outcome");
        assert_eq!(
            out[0].as_ref().expect("first job ran").as_ref().copied(),
            Ok(0)
        );
        for slot in &out[1..] {
            assert!(slot.is_none(), "drained jobs must never be claimed");
        }
    }

    #[test]
    fn an_accept_hook_error_stops_further_claims() {
        // One worker, a hook that rejects job 2's outcome: the error comes
        // back, and jobs after it are never claimed.
        let ran = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        let err = ExperimentEngine::with_workers(1)
            .run_supervised(
                &(0..6).collect::<Vec<u64>>(),
                0,
                &RetryPolicy::immediate(0),
                &stop,
                |_, &j, _| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    j
                },
                |i, _| {
                    if i == 2 {
                        Err(format!("cannot record job {i}"))
                    } else {
                        Ok(())
                    }
                },
            )
            .expect_err("the hook's error ends the run");
        assert_eq!(err, "cannot record job 2");
        assert_eq!(ran.load(Ordering::Relaxed), 3, "jobs 3.. are never claimed");
    }
}
